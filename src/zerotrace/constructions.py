"""Constructive witnesses: dual bases, shattered sets, and trace-rich grids.

Everything here turns an existence proof into a finite search plus an
exact verification:

* dual_basis finds sample points c_0..c_(d-1) and a coefficient matrix
  G whose rows g_j satisfy g_j(c_i) = delta_ij, by the double-induction
  rescan of the stream;
* shattered_set sums dual rows over index sets, so membership of c_i in
  the zero set of a_S is equivalent to i not in S;
* independence_sequence greedily extends a point list every d of whose
  images are linearly independent, testing each candidate image against
  one integer normal per (d-1)-subset of the chosen images;
* subset_witness and max_vc_trace realize, for every index set I of
  size < d, the trace exactly I on the first n sequence points (padding
  I with indices past n when it is smaller than d-1);
* the plane-union grid helpers build the membership pattern
  "point (i,j) belongs to the zero set of the tuple js iff j == js[i]"
  and the depth-n tree with one well-labeled leaf per small index set.

All coefficient vectors live in coordinates with respect to the
instance's functions, so g = G[j] acts on a point x as dot(G[j], image(x)).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

from . import _kernels
from .errors import BudgetExhaustedError, InvalidInputError, ResourceLimitError
from .exactalg import (
    Field,
    Span,
    Vector,
    _int_row,
    _rows_zero_mask,
    _vector_of_ints,
    basis_vector,
    dot,
    in_span,
    nullspace_basis,
    zero_mask,
)
from .littlestone import MAX_DEPTH, LabeledTree
from .setsystem import SetFamily
from .zerosets import DEFAULT_BUDGET, Instance, Sample, ZeroSet, ZeroSetFamily


#: Largest C(n, d-1) that independence_sequence accepts: it keeps one
#: normal per (d-1)-subset of the chosen images and tests every candidate
#: against all of them.
MAX_SUBSETS = 4096


def index_growth(j: int, field: Field):
    """The fixed injection of grid columns into nonzero field elements.

    g(j) = j + 1, so column indices stay distinct and nonzero over Q and
    over F_p whenever p exceeds the largest j + 1 in play.
    """
    if j < 0:
        raise InvalidInputError("column index must be >= 0")
    value = field.element(j + 1)
    if value == field.zero:
        raise InvalidInputError(f"column injection collapsed at j={j} (field too small)")
    return value


@dataclass(frozen=True)
class DualBasis:
    """Points c_0..c_(d-1) and rows G with dot(G[j], image(c_i)) = delta_ij."""

    instance: Instance
    points: tuple
    rows: tuple  # d coefficient Vectors of width d

    def verify(self) -> None:
        """Recheck the Kronecker property by exact evaluation."""
        inst = self.instance
        one, zero = inst.field.one, inst.field.zero
        for i, c in enumerate(self.points):
            img = inst.image(c)
            for j, row in enumerate(self.rows):
                expected = one if i == j else zero
                if dot(row, img) != expected:
                    raise AssertionError(
                        f"dual basis failed at g_{j}(c_{i}): got {dot(row, img)!r}"
                    )


def dual_basis(instance: Instance, *, budget: int = DEFAULT_BUDGET) -> DualBasis:
    """Build the dual basis by the inductive rescan.

    Step k adjoins function k-1: the row starts as the raw basis vector,
    has its values at the previous points projected out, and the stream
    is rescanned for a point where the corrected function does not
    vanish.  That point exists whenever the first k functions are
    linearly independent, so exhausting the budget is reported as
    evidence of dependence.
    """
    inst = instance
    field = inst.field
    d = inst.d
    points: list = []
    rows: list = []  # rows[i] spans only the first k coordinates at step k
    for k in range(d):
        # g' = e_k - sum_i f_k(c_i) * g_i  (coefficients w.r.t. the functions)
        corrected = basis_vector(field, d, k)
        for i, c in enumerate(points):
            value = inst.image(c)[k]
            corrected = corrected - rows[i].scale(value)
        hit = None
        hit_value = None
        for point in islice(inst.stream(), budget):
            value = dot(corrected, inst.image(point))
            if value != field.zero:
                hit = point
                hit_value = value
                break
        if hit is None:
            raise BudgetExhaustedError(
                f"no point found with corrected function {k} nonzero within "
                f"budget {budget}; functions 0..{k} may be linearly dependent",
                partial={"points": tuple(points), "rows": tuple(rows), "step": k},
            )
        new_row = corrected.scale(field.one / hit_value)
        # Correct the previous rows so they vanish at the new point too.
        img = inst.image(hit)
        rows = [row - new_row.scale(dot(row, img)) for row in rows]
        rows.append(new_row)
        points.append(hit)
    result = DualBasis(inst, tuple(points), tuple(rows))
    result.verify()
    return result


@dataclass(frozen=True)
class ShatteredSet:
    """The first d-1 dual points with one witness per index subset.

    witnesses maps a frozenset S of row indices (nonempty subsets of
    0..d-1) to a_S = sum of the dual rows over S; the zero set of a_S
    meets the points exactly in the complement of S.  Realizing the
    trace A over points 0..d-2 therefore uses S = {0..d-1} minus A.
    """

    basis: DualBasis
    points: tuple  # c_0..c_(d-2)
    witnesses: dict  # frozenset -> Vector

    def witness_for_trace(self, trace) -> Vector:
        d = self.basis.instance.d
        trace = frozenset(trace)
        if not trace <= set(range(d - 1)):
            raise InvalidInputError(f"trace {sorted(trace)} not within the first d-1 points")
        return self.witnesses[frozenset(range(d)) - trace]


def shattered_set(basis: DualBasis) -> ShatteredSet:
    d = basis.instance.d
    witnesses = {}
    for size in range(1, d + 1):
        for subset in combinations(range(d), size):
            total = basis.rows[subset[0]]
            for j in subset[1:]:
                total = total + basis.rows[j]
            witnesses[frozenset(subset)] = total
    return ShatteredSet(basis, basis.points[: d - 1], witnesses)


@dataclass(frozen=True)
class IndependenceSequence:
    """Points whose images are d-wise linearly independent."""

    instance: Instance
    points: tuple
    images: tuple

    def __len__(self) -> int:
        return len(self.points)


def independence_sequence(
    instance: Instance, n: int, *, budget: int = DEFAULT_BUDGET
) -> IndependenceSequence:
    """Greedily extend a sequence keeping every d images independent.

    A candidate image is accepted iff it avoids the span of every
    (d-1)-element subset of the chosen images (smaller subsets are
    covered by monotonicity).  While fewer than d-1 images are chosen
    that is one span, of all of them.  From then on each span is a
    hyperplane, kept as its int normal (the kernel line subset_witness
    takes), and the candidate's int row must have a nonzero dot product
    with every normal.  A subset's normal is built once, when its last
    point is accepted, so the k-th point adds C(k-1, d-2) of them.
    Budget exhaustion raises with the blocking spans attached: evidence,
    not proof, that the image is covered by finitely many proper
    subspaces.  A request for which C(n, d-1) exceeds MAX_SUBSETS
    raises ResourceLimitError before the scan.
    """
    inst = instance
    field = inst.field
    d = inst.d
    if comb(n, d - 1) > MAX_SUBSETS:
        raise ResourceLimitError(
            f"a {n}-point sequence needs C({n}, {d - 1}) = {comb(n, d - 1)} spans, "
            f"over the cap {MAX_SUBSETS}"
        )
    points: list = []
    images: list = []
    span = Span()  # of the chosen images, while fewer than d-1
    normals = [] if d > 1 else [_int_row(nullspace_basis(field, 1, [])[0])]

    stream = inst.stream()
    scanned = 0
    while len(points) < n:
        advanced = False
        for point in stream:
            scanned += 1
            v = inst.image(point)
            if len(images) < d - 1:
                fresh = not in_span(v, span)
            else:
                fresh = not _rows_zero_mask(v, normals)
            if fresh:
                points.append(point)
                images.append(v)
                if len(images) < d - 1:
                    span.add(v)
                elif d > 1:
                    for rest in combinations(images[:-1], d - 2):
                        kernel = nullspace_basis(field, d, (*rest, v))
                        normals.append(_int_row(kernel[0]))
                advanced = True
                break
            if scanned >= budget:
                break
        if not advanced:
            take = min(d - 1, len(images))
            spans = [tuple(subset) for subset in combinations(images, take)]
            raise BudgetExhaustedError(
                f"sequence stalled at {len(points)} of {n} points after scanning "
                f"{scanned} stream points",
                partial={
                    "points": tuple(points),
                    "images": tuple(images),
                    "blocking_spans": tuple(spans),
                },
            )
    return IndependenceSequence(inst, tuple(points), tuple(images))


def subset_witness(seq: IndependenceSequence, indices) -> Vector:
    """The coefficient vector whose zero set meets the sequence exactly
    at the given d-1 indices.

    It spans the kernel of the (d-1)-row image matrix; d-wise
    independence forces every other sequence image off that hyperplane,
    which is re-verified here exactly.
    """
    d = seq.instance.d
    indices = tuple(sorted(indices))
    if len(indices) != d - 1 or len(set(indices)) != len(indices):
        raise InvalidInputError(f"need exactly d-1={d - 1} distinct indices, got {indices}")
    if indices and not 0 <= indices[0] <= indices[-1] < len(seq.points):
        raise InvalidInputError(f"indices {indices} out of sequence range")
    rows = [seq.images[i] for i in indices]
    kernel = nullspace_basis(seq.instance.field, d, rows)
    if len(kernel) != 1:
        raise AssertionError("kernel of d-1 independent rows must be a line")
    witness = kernel[0]
    wrong = zero_mask(witness, seq.images) ^ sum(1 << i for i in indices)
    if wrong:
        raise AssertionError(
            f"witness fails separation at sequence index {(wrong & -wrong).bit_length() - 1}"
        )
    return witness


def max_vc_trace(seq: IndependenceSequence, n: int) -> ZeroSetFamily:
    """Every subset of size < d of the first n points, realized as traces.

    An index set I with |I| < d-1 is padded with fresh indices past n
    (I' = I + {n, ..., n + d - |I| - 2}), so the sequence must hold at
    least n + d - 1 points.  The result is the full trace family of
    size C(n,0) + ... + C(n,d-1) over the first n points.
    """
    inst = seq.instance
    d = inst.d
    needed = n + d - 1 if d >= 2 else n
    if len(seq.points) < needed:
        raise InvalidInputError(
            f"sequence holds {len(seq.points)} points, padding needs {needed}"
        )
    sample = Sample.take(inst, seq.points[:n])
    sets = []
    seen = set()
    for size in range(min(d, n + 1)):
        for subset in combinations(range(n), size):
            padded = list(subset) + list(range(n, n + (d - 1 - size)))
            witness = subset_witness(seq, padded)
            mask = zero_mask(witness, seq.images[:n])
            expected = 0
            for i in subset:
                expected |= 1 << i
            if mask != expected:
                raise AssertionError(
                    f"padded witness realized {bin(mask)} instead of {bin(expected)}"
                )
            if mask in seen:
                raise AssertionError("duplicate trace in the realization family")
            seen.add(mask)
            sets.append(ZeroSet(mask, witness))
    ordered = tuple(sorted(sets, key=lambda z: z.mask))
    return ZeroSetFamily(sample, ordered, "subset_realization")


# ---------------------------------------------------------------------------
# Plane-union grid: membership pattern and the big tree
# ---------------------------------------------------------------------------


def grid_point(field: Field, d: int, i: int, j: int) -> Vector:
    """c_(i,j) = e_0 + g(j) * e_(i+1): column j on plane i."""
    if not 0 <= i < d - 1:
        raise InvalidInputError(f"plane index {i} out of range for d={d}")
    index_growth(j, field)  # rejects a column the field collapses to 0
    ints = [0] * d
    ints[0] = 1
    ints[i + 1] = j + 1
    return _vector_of_ints(field, ints)


def grid_witness(field: Field, d: int, js) -> Vector:
    """b_(j_0..j_(d-2)): the vector whose zero set picks column j_i on plane i.

    First coordinate: product of all g(j_k); coordinate i+1: minus the
    product over k != i.  Then dot(b, c_(i,j)) = (g(j_i) - g(j)) *
    prod_(k != i) g(j_k), which vanishes exactly when j == j_i.
    """
    js = tuple(js)
    if len(js) != d - 1:
        raise InvalidInputError(f"need d-1={d - 1} column indices, got {len(js)}")
    values = [index_growth(j, field) for j in js]
    total = field.one
    for v in values:
        total = total * v
    entries = [total]
    for ell in range(d - 1):
        partial = field.one
        for k, v in enumerate(values):
            if k != ell:
                partial = partial * v
        entries.append(-partial)
    return Vector(field, tuple(entries))


def grid_membership(field: Field, d: int, i: int, j: int, js) -> bool:
    """Exact membership of c_(i,j) in the zero set of b_js."""
    return dot(grid_witness(field, d, js), grid_point(field, d, i, j)) == field.zero


@dataclass(frozen=True)
class GridTreeResult:
    """The depth-n tree over grid points plus its referenced traces."""

    tree: LabeledTree
    family: SetFamily
    witnesses: tuple  # witnesses[i]: the coefficient vector of family member i
    sample: Sample
    well_labeled_target: int  # C(n,0) + ... + C(n,d-1)


def grid_max_tree(instance: Instance, n: int) -> GridTreeResult:
    """The depth-n tree with one well-labeled leaf per index set of size < d.

    Node at position sigma: plane index i = number of ones in sigma
    (clamped to plane 0, column n, once i reaches d-1), column = depth.
    Leaf at tau: the witness of tau's column support, padded with column
    n.  Exactly C(n, <d) leaves end up well-labeled: those whose support
    has fewer than d ones.
    """
    inst = instance
    d = inst.d
    if inst.profile_points is None:
        raise InvalidInputError(
            f"instance {inst.name} does not expose the plane-union grid"
        )
    if n < 1:
        raise InvalidInputError("tree depth must be >= 1")
    if n > MAX_DEPTH:
        raise InvalidInputError(f"tree depth capped at {MAX_DEPTH} (2^n leaves)")
    field = inst.field

    # Ground set: grid points (i,k) for k < n, plus the clamp point (0,n).
    descriptors = []
    for k in range(n):
        for i in range(d - 1):
            descriptors.append((i, 1, k + 1))  # instance descriptor of c_(i,k)
    descriptors.append((0, 1, n + 1))
    sample = Sample.take(inst, descriptors)
    for idx, (i, _, col) in enumerate(descriptors):
        if sample.images[idx].entries != grid_point(field, d, i, col - 1).entries:
            raise InvalidInputError(
                f"descriptor {descriptors[idx]!r} does not evaluate to its grid point"
            )
    position = {}
    for k in range(n):
        for i in range(d - 1):
            position[(i, k)] = k * (d - 1) + i
    position[(0, n)] = n * (d - 1)

    tree = LabeledTree(depth=n)
    witnesses: dict = {}  # ordered js tuple -> family index
    family_sets: list = []

    def trace_of(js: tuple) -> ZeroSet:
        witness = grid_witness(field, d, js)
        return ZeroSet(zero_mask(witness, sample.images), witness)

    for value in range(1 << n):
        tau = format(value, f"0{n}b") if n else ""
        support = [k for k, c in enumerate(tau) if c == "1"]
        js = tuple(support[: d - 1]) + tuple([n] * max(0, d - 1 - len(support)))
        if js not in witnesses:
            witnesses[js] = len(family_sets)
            family_sets.append(trace_of(js))
        tree.leaf_labels[tau] = witnesses[js]
        for k in range(n):
            sigma = tau[:k]
            if sigma in tree.node_labels:
                continue
            ones = sigma.count("1")
            key = (ones, k) if ones < d - 1 else (0, n)
            tree.node_labels[sigma] = position[key]

    return GridTreeResult(
        tree=tree,
        family=SetFamily(sample.ground_set(), tuple(z.mask for z in family_sets)),
        witnesses=tuple(z.witness for z in family_sets),
        sample=sample,
        well_labeled_target=_kernels.binom_le(n, d - 1),
    )
