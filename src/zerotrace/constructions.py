"""Constructive witnesses: dual bases, shattering witnesses, and trace-rich grids.

Everything here turns an existence proof into a finite search plus an
exact verification:

* dual_basis finds sample points c_0..c_(d-1) and a coefficient matrix
  G whose rows g_j satisfy g_j(c_i) = delta_ij, by the double-induction
  rescan of the stream;
* shattering_witness sums the dual rows over an index set S, so c_i
  lies in the zero set of a_S iff i is not in S;
* independence_sequence greedily extends a point list every d of whose
  images are linearly independent, in one pass over at most budget
  stream points, testing each candidate image against one integer
  normal per (d-1)-subset of the chosen images;
* subset_witness and max_vc_trace realize, for every index set I of
  size < d, the trace exactly I on the first n sequence points (padding
  I with indices past n when it is smaller than d-1);
* the plane-union grid helpers build the membership pattern
  "point (i,j) belongs to the zero set of the tuple js iff j == js[i]"
  and, through LabeledTree.complete, the depth-n tree with one
  well-labeled leaf per small index set.

All coefficient vectors live in coordinates with respect to the
instance's functions, so g = G[j] acts on a point x as dot(G[j], image(x)).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import prod

from .errors import BudgetExhaustedError, InvalidInputError
from .exactalg import (
    Field,
    Span,
    Vector,
    _rows_zero_mask,
    _vector_of_ints,
    basis_vector,
    dot,
    in_span,
    nullspace_basis,
    zero_mask,
)
from .littlestone import MAX_DEPTH, LabeledTree
from .setsystem import SetFamily, as_mask
from .zerosets import DEFAULT_BUDGET, Instance, Sample, ZeroSet, ZeroSetFamily


def index_growth(j: int, field: Field) -> int:
    """The fixed injection of grid columns into nonzero field elements,
    as the int g(j) = j + 1.

    Column indices stay distinct and nonzero over Q, and over F_p
    whenever p exceeds the largest j + 1 in play; a column the field
    collapses to 0 is refused.
    """
    if j < 0:
        raise InvalidInputError("column index must be >= 0")
    if field.p and not (j + 1) % field.p:
        raise InvalidInputError(f"column injection collapsed at j={j} (field too small)")
    return j + 1


@dataclass(frozen=True)
class DualBasis:
    """Points c_0..c_(d-1), as a Sample, and rows G with
    dot(G[j], image(c_i)) = delta_ij."""

    sample: Sample
    rows: tuple  # d coefficient Vectors of width d

    def verify(self) -> None:
        """Recheck the Kronecker property against the sample's images."""
        for i, img in enumerate(self.sample.images):
            for j, row in enumerate(self.rows):
                if dot(row, img) != int(i == j):
                    raise AssertionError(
                        f"dual basis failed at g_{j}(c_{i}): got {dot(row, img)!r}"
                    )


def dual_basis(instance: Instance, *, budget: int = DEFAULT_BUDGET) -> DualBasis:
    """Build the dual basis by the inductive rescan.

    Step k adjoins function k-1: the row starts as the raw basis vector,
    has its values at the previous points projected out, and the first
    budget stream points are rescanned for one where the corrected
    function does not vanish.  That point exists whenever the first k
    functions are linearly independent, so exhausting the budget is
    reported as evidence of dependence.  Each stream point is read and
    evaluated once: a rescan reads the images kept so far before it
    reads on.
    """
    inst = instance
    field = inst.field
    d = inst.d
    stream = islice(inst.stream(), budget)
    seen: list = []  # (point, image) of every stream point read, in stream order

    def rescan():
        yield from seen
        for point in stream:
            seen.append((point, inst.image(point)))
            yield seen[-1]

    points: list = []
    images: list = []
    rows: list = []  # rows[i] spans only the first k coordinates at step k
    for k in range(d):
        # g' = e_k - sum_i f_k(c_i) * g_i  (coefficients w.r.t. the functions);
        # an image is an int row over denominator 1, so f_k(c_i) is img._ints[k]
        corrected = basis_vector(field, d, k)
        for img, row in zip(images, rows):
            corrected = corrected - row.scale(img._ints[k])
        for point, img in rescan():
            value = dot(corrected, img)
            if value:
                break
        else:
            raise BudgetExhaustedError(
                f"no point found with corrected function {k} nonzero within "
                f"budget {budget}; functions 0..{k} may be linearly dependent",
                partial={"points": tuple(points), "rows": tuple(rows), "step": k},
            )
        new_row = corrected.scale(pow(value, -1, field.p) if field.p else 1 / value)
        # Correct the previous rows so they vanish at the new point too.
        rows = [row - new_row.scale(dot(row, img)) for row in rows]
        rows.append(new_row)
        points.append(point)
        images.append(img)
    result = DualBasis(Sample(inst, tuple(points), tuple(images)), tuple(rows))
    result.verify()
    return result


def shattering_witness(basis: DualBasis, trace) -> Vector:
    """a_S = the sum of the dual rows over S = {0..d-1} minus trace.

    The zero set of a_S holds exactly the dual points not in S, so on
    the first d-1 of them it cuts out trace.
    """
    d = len(basis.rows)
    trace = frozenset(trace)
    if not trace <= set(range(d - 1)):
        raise InvalidInputError(f"trace {sorted(trace)} not within the first d-1 points")
    rows = [row for j, row in enumerate(basis.rows) if j not in trace]
    return sum(rows[1:], rows[0])


def independence_sequence(
    instance: Instance, n: int, *, budget: int = DEFAULT_BUDGET
) -> Sample:
    """Greedily extend a sequence keeping every d images independent.

    One pass over the first budget stream points.  A candidate image is
    accepted iff it avoids the span of every (d-1)-element subset of the
    chosen images (smaller subsets are covered by monotonicity).  While
    fewer than d-1 images are chosen that is one span, of all of them.
    From then on each span is a hyperplane, kept as its int normal (the
    kernel line subset_witness takes), and the candidate's int row must
    have a nonzero dot product with every normal; only the rows that
    pass are boxed into image vectors.  A subset's normal is
    built once, when its last point is accepted and more are wanted, so
    the k-th point adds C(k-1, d-2) of them.  A pass that ends short of
    n points raises with the points and images chosen: evidence, not
    proof, that the image is covered by finitely many proper subspaces.
    """
    inst = instance
    field = inst.field
    d = inst.d
    if n < 1:
        return Sample(inst, (), ())
    points: list = []
    images: list = []
    span = Span()  # of the chosen images, while fewer than d-1
    normals = [] if d > 1 else [nullspace_basis(field, 1, [])[0]._ints]
    scanned = 0
    for scanned, point in enumerate(islice(inst.stream(), budget), 1):
        if len(images) < d - 1:
            v = inst.image(point)
            if in_span(v, span):
                continue
        else:
            row = inst.row(point)
            if _rows_zero_mask(field.p, row, normals):
                continue
            v = _vector_of_ints(field, row)
        points.append(point)
        images.append(v)
        if len(points) == n:
            return Sample(inst, tuple(points), tuple(images))
        if len(images) < d - 1:
            span.add(v)
        elif d > 1:
            for rest in combinations(images[:-1], d - 2):
                normals.append(nullspace_basis(field, d, (*rest, v))[0]._ints)
    raise BudgetExhaustedError(
        f"sequence stalled at {len(points)} of {n} points after scanning "
        f"{scanned} stream points",
        partial={"points": tuple(points), "images": tuple(images)},
    )


def subset_witness(seq: Sample, indices) -> Vector:
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
    wrong = zero_mask(witness, seq.images) ^ as_mask(indices, len(seq.points))
    if wrong:
        raise AssertionError(
            f"witness fails separation at sequence index {(wrong & -wrong).bit_length() - 1}"
        )
    return witness


def max_vc_trace(seq: Sample, n: int) -> ZeroSetFamily:
    """Every subset of size < d of the first n points, realized as traces.

    An index set I with |I| < d-1 is padded with fresh indices past n
    (I' = I + {n, ..., n + d - |I| - 2}), so the sequence must hold at
    least n + d - 1 points.  The result is the full trace family of
    size C(n,0) + ... + C(n,d-1) over the first n points.
    """
    inst = seq.instance
    d = inst.d
    needed = n + d - 1
    if len(seq.points) < needed:
        raise InvalidInputError(
            f"sequence holds {len(seq.points)} points, padding needs {needed}"
        )
    sample = Sample(inst, seq.points[:n], seq.images[:n])
    sets = []
    for size in range(min(d, n + 1)):
        for subset in combinations(range(n), size):
            padded = list(subset) + list(range(n, n + (d - 1 - size)))
            witness = subset_witness(seq, padded)
            # subset_witness verified that the witness vanishes on seq
            # exactly at padded, whose indices below n are subset's
            sets.append(ZeroSet(as_mask(subset, n), witness))
    ordered = tuple(sorted(sets, key=lambda z: z.mask))
    return ZeroSetFamily(sample, ordered, "subset_realization")


# ---------------------------------------------------------------------------
# Plane-union grid: membership pattern and the big tree
# ---------------------------------------------------------------------------


def grid_point(field: Field, d: int, i: int, j: int) -> Vector:
    """c_(i,j) = e_0 + g(j) * e_(i+1): column j on plane i."""
    if not 0 <= i < d - 1:
        raise InvalidInputError(f"plane index {i} out of range for d={d}")
    ints = [0] * d
    ints[0] = 1
    ints[i + 1] = index_growth(j, field)
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
    total = prod(values)
    return _vector_of_ints(field, [total] + [-(total // g) for g in values])


def grid_membership(field: Field, d: int, i: int, j: int, js) -> bool:
    """Exact membership of c_(i,j) in the zero set of b_js."""
    return dot(grid_witness(field, d, js), grid_point(field, d, i, j)) == 0


@dataclass(frozen=True)
class GridTreeResult:
    """The depth-n tree over grid points plus its referenced traces; the
    tree has C(n,0) + ... + C(n,d-1) well-labeled leaves."""

    tree: LabeledTree
    family: SetFamily
    witnesses: tuple  # witnesses[i]: the coefficient vector of family member i
    sample: Sample


def grid_max_tree(instance: Instance, n: int) -> GridTreeResult:
    """The depth-n tree with one well-labeled leaf per index set of size < d.

    Node at position sigma of depth k: plane index i = number of ones
    in sigma (clamped to plane 0, column n, once i reaches d-1), column
    k; its label is that point's index in the profile sample, k*(d-1) + i
    (n*(d-1) for the clamp point).
    Leaf at tau: the witness of tau's column support, padded with column
    n.  Exactly C(n, <d) leaves end up well-labeled: those whose support
    has fewer than d ones.  LabeledTree.complete labels each position
    once and the leaves in increasing order, so the family lists each
    witness at its first leaf.
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
    descriptors = inst.profile_points(n)
    sample = Sample.take(inst, descriptors)
    for idx, (i, _, col) in enumerate(descriptors):
        if sample.images[idx] != grid_point(field, d, i, col - 1):
            raise InvalidInputError(
                f"descriptor {descriptors[idx]!r} does not evaluate to its grid point"
            )

    witnesses: dict = {}  # ordered js tuple -> family index
    family_sets: list = []

    def node_point(sigma: str) -> int:
        ones = sigma.count("1")
        return len(sigma) * (d - 1) + ones if ones < d - 1 else n * (d - 1)

    def leaf_member(tau: str) -> int:
        support = [k for k, c in enumerate(tau) if c == "1"]
        js = tuple(support[: d - 1]) + tuple([n] * max(0, d - 1 - len(support)))
        if js not in witnesses:
            witnesses[js] = len(family_sets)
            witness = grid_witness(field, d, js)
            family_sets.append(ZeroSet(zero_mask(witness, sample.images), witness))
        return witnesses[js]

    tree = LabeledTree.complete(n, node_point, leaf_member)
    return GridTreeResult(
        tree=tree,
        family=SetFamily(sample.ground_set(), tuple(z.mask for z in family_sets)),
        witnesses=tuple(z.witness for z in family_sets),
        sample=sample,
    )
