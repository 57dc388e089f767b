"""Zero sets of linear combinations, and the families they trace.

An instance is a map from a domain X into F^d given coordinatewise by d
functions; every nonzero coefficient vector a determines the zero set
{x : a . image(x) == 0}.  On a finite sample these zero sets trace a
finite set system, enumerated here exactly by two independent routes: a
projective brute force over small prime fields, and a span-closure
(flat lattice) walk that works over any field.  Each emitted trace
carries the coefficient vector that realized it, and every witness
re-verifies by exact dot products.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from .errors import (
    BudgetExhaustedError,
    InvalidInputError,
    ResourceLimitError,
    StreamExhaustedError,
)
from .exactalg import (
    Field,
    PrimeField,
    Span,
    Vector,
    _int_columns,
    _line_point,
    _rows_zero_mask,
    _unit_lead,
    _vector_of_ints,
    in_span,
    integer_shells,
    nullspace_basis,
    projective_normalize,
    residue_tuples,
    scalar_from_str,
    scalar_to_str,
    zero_mask,
)
from .setsystem import MAX_POINTS, MAX_SETS, GroundSet, SetFamily, mask_to_indices

if TYPE_CHECKING:
    from .maximality import CoverCertificate

#: Default number of stream points a scan may consume.
DEFAULT_BUDGET = 10_000

#: A run may not give a scan a larger budget.
MAX_BUDGET = 1_000_000

#: Brute-force enumeration requires p**d at most this, and the F_p
#: witness search gives up after this many tries.
BRUTEFORCE_SPACE_LIMIT = 2_000_000

#: Flat-lattice enumeration aborts beyond this many closure classes.
MAX_FLATS = 20_000

#: Safety cap on the rational witness search (mathematically it always
#: terminates long before this).
_RATIONAL_SEARCH_CAP = 200_000


@dataclass(frozen=True)
class Instance:
    """A coordinatized map X -> F^d with a restartable point stream.

    evaluate turns a point descriptor into its image as an int row: a
    tuple of d ints, exact integers over Q and any ints over F_p, where
    row() reduces them mod p.  A scan tests those rows and boxes a
    Vector (image()) only for the points it keeps.
    stream() yields descriptors in a fixed documented order, so every
    scan in the package is deterministic.  cover optionally records a
    known finite cover of the image by proper subspaces, checked when the
    instance is built; profile_points optionally names the canonical
    sample used for shatter-function tables.  horizon, when known, is a
    number of leading stream points whose images have the rank of the
    d functions, so no scan for that rank reads past it; a polynomial
    instance has one from its degree bound, other instances None.
    """

    name: str
    field: Field
    d: int
    evaluate: Callable
    stream: Callable[[], Iterator]
    cover: Optional["CoverCertificate"] = None
    profile_points: Optional[Callable[[int], list]] = None
    spec: Optional[dict] = None  # JSON-able recipe for rebuild (bundles)
    horizon: Optional[int] = None

    def __post_init__(self):
        if self.d < 1:
            raise InvalidInputError("instance needs d >= 1")

    def row(self, point) -> tuple:
        """The image of point as d ints, residues over F_p.  Anything
        else the evaluator returns is refused, bools and Fractions too."""
        row = self.evaluate(point)
        if type(row) is not tuple or len(row) != self.d or not all(type(x) is int for x in row):
            raise InvalidInputError(f"evaluator returned a bad image for {point!r}: {row!r}")
        p = self.field.p
        return tuple([x % p for x in row]) if p else row

    def image(self, point) -> Vector:
        return _vector_of_ints(self.field, self.row(point))


def _point_label(point) -> str:
    if isinstance(point, tuple):
        return "(" + ",".join(str(c) for c in point) + ")"
    return str(point)


@dataclass(frozen=True)
class Sample:
    """Finite list of distinct domain points with cached images."""

    instance: Instance
    points: tuple
    images: tuple

    @staticmethod
    def take(instance: Instance, points: Sequence) -> "Sample":
        points = tuple(points)
        if len(set(points)) != len(points):
            raise InvalidInputError("sample points must be distinct")
        images = tuple(instance.image(p) for p in points)
        return Sample(instance, points, images)

    @staticmethod
    def prefix(instance: Instance, k: int) -> "Sample":
        """The first k stream points; take refuses a repeated one."""
        points = tuple(islice(instance.stream(), k))
        if len(points) < k:
            raise StreamExhaustedError(
                f"stream of {instance.name} ended after {len(points)} points, needed {k}"
            )
        return Sample.take(instance, points)

    def __len__(self) -> int:
        return len(self.points)

    def ground_set(self) -> GroundSet:
        return GroundSet(len(self.points), tuple(_point_label(p) for p in self.points))


@dataclass(frozen=True)
class ZeroSet:
    """One trace: membership mask over the sample plus its witness."""

    mask: int
    witness: Vector


@dataclass(frozen=True)
class ZeroSetFamily:
    """All distinct traces on a sample, sorted by mask for determinism."""

    sample: Sample
    sets: tuple
    method: str

    def masks(self) -> tuple:
        return tuple(z.mask for z in self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def to_set_family(self) -> SetFamily:
        return SetFamily.create(self.sample.ground_set(), self.masks())


def zero_set(sample: Sample, a: Vector) -> ZeroSet:
    """The trace of coefficient vector a on the sample.

    a must be nonzero of width d over the instance field; the stored
    witness is the projective normalization of a.
    """
    inst = sample.instance
    if a.field != inst.field or len(a) != inst.d:
        raise InvalidInputError("coefficient vector has wrong field or width")
    if a.is_zero():
        raise InvalidInputError("coefficient vector must be nonzero")
    return ZeroSet(zero_mask(a, sample.images), projective_normalize(a))


@dataclass(frozen=True)
class IndependenceVerdict:
    """Outcome of the budgeted independence scan.

    kind "independent": the scan met d stream points with linearly
    independent images.  kind "dependent": witness_coeffs is a
    nonzero vector annihilating every streamed image.  stream_exhausted:
    the scan read the whole stream or its horizon, so the verdict is a
    proof; otherwise a dependent verdict is budget-bounded evidence.
    """

    kind: str
    witness_coeffs: Optional[Vector]
    scanned: int
    rank: int
    stream_exhausted: bool


def linearly_independent(
    instance: Instance, *, budget: int = DEFAULT_BUDGET
) -> IndependenceVerdict:
    """Scan the stream for d points with linearly independent images.

    Success stops at the d-th such point.  If the scan ends with image
    rank r < d, the nullspace of the accumulated span gives the
    annihilator.  The scan reads at most min(budget, horizon) points.
    A finite stream that ends before d points, or a scan that reaches
    the instance's horizon, ends that way too, and its annihilator
    proves dependence (an empty stream gets e_0).  Each image's int row
    is divided by the gcd of its entries, which keeps its line (over
    F_p that gcd is a unit), and only the distinct rows are boxed, added
    to the span and kept, so a stream of multiples of a few lines builds
    few vectors.

    The annihilator is a kernel vector of a span that holds every kept
    row, so no evaluator can make it miss one.  It is still checked
    against each kept row, as a cross-check of Span and nullspace_basis,
    and a miss raises AssertionError.
    """
    inst = instance
    field = inst.field
    if budget < inst.d:
        raise BudgetExhaustedError(f"budget {budget} cannot reach d={inst.d} points")
    span = Span()
    basis: list = []
    rows: set = set()
    scanned = 0
    stream = inst.stream()
    horizon = inst.horizon
    for point in islice(stream, budget if horizon is None else min(budget, horizon)):
        row = inst.row(point)
        scanned += 1
        g = gcd(*row)
        if g > 1:
            row = tuple([x // g for x in row])
        if row in rows:
            continue  # a row already seen lies in the span
        rows.add(row)
        v = _vector_of_ints(field, row)
        if span.add(v):
            basis.append(v)
            if len(basis) == inst.d:
                return IndependenceVerdict(
                    kind="independent",
                    witness_coeffs=None,
                    scanned=scanned,
                    rank=inst.d,
                    stream_exhausted=False,
                )
    exhausted = scanned == horizon or next(stream, None) is None  # budget, horizon or end?
    kernel = nullspace_basis(field, inst.d, basis)
    witness = projective_normalize(kernel[0])
    if _rows_zero_mask(field.p, witness._ints, rows) != (1 << len(rows)) - 1:
        raise AssertionError(
            f"{inst.name}: the kernel of the streamed images misses one of them"
        )
    return IndependenceVerdict(
        kind="dependent",
        witness_coeffs=witness,
        scanned=scanned,
        rank=len(basis),
        stream_exhausted=exhausted,
    )


def distinct_image_points(instance: Instance, n: int, *, budget: int) -> Sample:
    """The sample of the first n stream points with pairwise distinct images.

    Fewer come back only when the stream ends first.  Scanning budget
    stream points without finding n raises BudgetExhaustedError.  Images
    are told apart by their int rows; only the ones returned are boxed.
    """
    found: dict = {}  # int row -> its first point, in stream order
    stream = instance.stream()
    for point in islice(stream, budget):
        found.setdefault(instance.row(point), point)
        if len(found) == n:
            break
    else:
        if next(stream, None) is not None:  # budget spent before the stream ended
            raise BudgetExhaustedError(
                f"found only {len(found)} of {n} points with distinct images "
                f"within budget {budget}"
            )
    images = tuple(_vector_of_ints(instance.field, row) for row in found)
    return Sample(instance, tuple(found.values()), images)


# ---------------------------------------------------------------------------
# Exact trace enumeration: two independent routes
# ---------------------------------------------------------------------------


def enumerate_family_bruteforce(sample: Sample) -> ZeroSetFamily:
    """Trace family via exhaustive projective enumeration (prime fields).

    Walks every line of coefficient space through its int tuple with
    first nonzero entry 1, masked against the images' int rows, so the
    sample's field must be F_p with p**d below BRUTEFORCE_SPACE_LIMIT.
    The first tuple found per trace is kept (the order is fixed, so
    output is stable) and boxed as its witness, already projectively
    normalized: one Vector per trace.
    """
    inst = sample.instance
    field = inst.field
    if not isinstance(field, PrimeField):
        raise InvalidInputError("brute-force enumeration needs a prime field")
    p, d = field.p, inst.d
    if p**d > BRUTEFORCE_SPACE_LIMIT:
        raise ResourceLimitError(f"p^d = {p**d} exceeds {BRUTEFORCE_SPACE_LIMIT}")
    rows = [v._ints for v in sample.images]
    found: dict = {}  # mask -> first lead-1 tuple realizing it
    for lead in range(d):
        head = (0,) * lead + (1,)
        for tail in residue_tuples(p, d - lead - 1):
            a = head + tail
            found.setdefault(_rows_zero_mask(p, a, rows), a)
    sets = tuple(ZeroSet(m, _vector_of_ints(field, found[m])) for m in sorted(found))
    return ZeroSetFamily(sample, sets, "projective_bruteforce")


def _closure(images: Sequence[Vector]) -> int:
    """Mask of sample points whose images lie in the zero span: the root
    closure of the flat-lattice walk."""
    span = Span()
    return sum(1 << i for i, v in enumerate(images) if in_span(v, span))


def _times(p: int, rows, cols) -> list:
    """Each int row dotted with each int column, reduced mod p when p > 0:
    the product of the row matrix and the column matrix."""
    if p:
        return [tuple([sum(map(mul, row, col)) % p for col in cols]) for row in rows]
    return [tuple([sum(map(mul, row, col)) for col in cols]) for row in rows]


def _child_closures(mask: int, rows: dict, p: int) -> dict:
    """Closure of W + <v_j> for every image j outside the closure mask of
    W, from one grouping of the quotient rows by line."""
    keys = {i: _line_point(row, p) for i, row in rows.items()}
    classes: dict = {}
    for i, key in keys.items():
        classes[key] = classes.get(key, mask) | 1 << i
    return {j: classes[key] for j, key in keys.items()}


def _search_coefficients(p: int, r: int, rows) -> Optional[tuple]:
    """First coefficient tuple c with sum_k c_k * M[i][k] nonzero (mod p
    when p > 0) on every row M[i]; the combination of the kernel by c is
    then a witness.

    Over F_p the r-dimensional span is searched exhaustively and
    projectively, and None means the candidate trace is not realizable.
    That is at most p^r <= p^d tries, so the cap of BRUTEFORCE_SPACE_LIMIT
    tries binds only where brute-force enumeration is refused too.
    Over Q (p == 0) a witness always exists (a vector space over an
    infinite field is not a finite union of proper subspaces); it is
    found by walking integer tuples outward by max-norm.
    """
    if p:
        tried = 0
        for lead in range(r):
            head = (0,) * lead + (1,)
            for tail in residue_tuples(p, r - lead - 1):
                tried += 1
                if tried > BRUTEFORCE_SPACE_LIMIT:
                    raise ResourceLimitError(
                        f"F_{p} witness search exceeded {BRUTEFORCE_SPACE_LIMIT} tries"
                    )
                c = head + tail
                if all(sum(map(mul, c, row)) % p for row in rows):
                    return c
        return None
    for c in islice(integer_shells(r), 1, _RATIONAL_SEARCH_CAP + 1):
        if all(sum(map(mul, c, row)) for row in rows):
            return c
    raise ResourceLimitError("rational witness search exceeded its safety cap")


def enumerate_family_flats(sample: Sample) -> ZeroSetFamily:
    """Trace family via the span-closure lattice (any field).

    Candidate traces are closures T(W) = {x : image(x) in W} for W
    spanned by fewer than d independent images.  The depth-first walk
    reaches each closure once: W grows only by an image j after its last
    one and outside its closure, and the new closure is kept only if it
    gains no point before j (prefix-preserving extension).  Each
    candidate is kept only if some coefficient vector orthogonal to W
    avoids all images outside T(W); over a finite field that search can
    fail, and the candidate is then correctly dropped.  Each closure's
    witness is searched when the walk reaches it, so the walk stops as
    soon as more than MAX_SETS traces are realized.

    Each flat carries, over plain ints, its kernel K (d rows, one column
    per kernel vector) and its quotient rows M[i] = v_i . K for the images
    outside T(W): v_i lies in W + <v_j> iff M[i] is parallel to M[j].  The
    root has the standard basis and the image rows.  The child by j
    carries K.N and M[i].N, with N the kernel of the one row M[j].  N is
    canonical (one column per free column, in column order), so K.N is
    the canonical kernel of W + <v_j> times one constant, positive over
    Q and a unit over F_p, which neither the witness search, the line
    grouping of child closures nor the unit-lead witness can see.
    """
    inst = sample.instance
    field = inst.field
    images = sample.images
    if len(images) > MAX_POINTS:
        raise ResourceLimitError(f"sample of {len(images)} points exceeds the limit {MAX_POINTS}")
    p = field.p
    mask = _closure(images)
    kernel = list(zip(*_int_columns(nullspace_basis(field, inst.d, []))))
    rows = {i: v._ints for i, v in enumerate(images) if not mask >> i & 1}
    found: dict = {}
    visited = 0
    stack = [(-1, mask, kernel, rows)]  # (last added index, closure, K, M)
    while stack:
        last, mask, kernel, rows = stack.pop()
        visited += 1
        if visited > MAX_FLATS:
            raise ResourceLimitError(f"flat lattice exceeded {MAX_FLATS} closures")
        r = len(kernel[0])
        coeffs = _search_coefficients(p, r, rows.values())
        if coeffs is not None:
            witness = [x for x, in _times(p, kernel, [coeffs])]
            found[mask] = ZeroSet(mask, _unit_lead(field, witness))
            if len(found) > MAX_SETS:
                raise ResourceLimitError(f"family exceeds the soft limit of {MAX_SETS} sets")
        if r == 1:
            continue  # one more image would span the whole space
        for j, child in _child_closures(mask, rows, p).items():
            below = (1 << j) - 1
            if j > last and child & below == mask & below:
                step = _int_columns(nullspace_basis(field, r, [_vector_of_ints(field, rows[j])]))
                off = [i for i in rows if not child >> i & 1]
                moved = _times(p, [rows[i] for i in off], step)
                stack.append((j, child, _times(p, kernel, step), dict(zip(off, moved))))
    sets = tuple(found[m] for m in sorted(found))
    return ZeroSetFamily(sample, sets, "flat_lattice")


# ---------------------------------------------------------------------------
# Image collapse onto finitely many lines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinePartitionReport:
    """Blocks induced by a line cover of the image, plus the trace check.

    block_masks[i] collects sample points whose nonzero image spans the
    i-th distinct given line; zero_block_mask collects points with zero image.  Every
    trace must be the zero block united with some of the blocks, so the
    family has at most 2**k members; density_zero_partition raises on a
    trace that misses part of the zero block or splits a block.
    """

    block_masks: tuple
    zero_block_mask: int
    family: ZeroSetFamily
    bound: int


def density_zero_partition(sample: Sample, lines: Sequence[Vector]) -> LinePartitionReport:
    inst = sample.instance
    field = inst.field
    block_of: dict = {}  # canonical point of each distinct line -> block index
    for line in lines:
        if line.field != field or len(line) != inst.d:
            raise InvalidInputError("line direction has wrong field or width")
        if line.is_zero():
            raise InvalidInputError("line direction must be nonzero")
        block_of.setdefault(projective_normalize(line), len(block_of))
    k = len(block_of)
    block_masks = [0] * k
    zero_block = 0
    for i, v in enumerate(sample.images):
        if v.is_zero():
            zero_block |= 1 << i
            continue
        j = block_of.get(projective_normalize(v))
        if j is None:
            raise InvalidInputError(
                f"image of point {sample.points[i]!r} lies outside the given lines"
            )
        block_masks[j] |= 1 << i
    family = enumerate_family_flats(sample)
    bound = 1 << k
    if len(family) > bound:
        raise AssertionError(
            f"line collapse bound violated: {len(family)} traces > 2^{k}"
        )
    for z in family.sets:
        if z.mask & zero_block != zero_block:
            raise AssertionError("a trace misses part of the zero-image block")
        for j, block in enumerate(block_masks):
            if z.mask & block not in (0, block):
                raise AssertionError(f"trace {bin(z.mask)} splits block {j}")
    return LinePartitionReport(
        block_masks=tuple(block_masks),
        zero_block_mask=zero_block,
        family=family,
        bound=bound,
    )


# ---------------------------------------------------------------------------
# Witness bundles: export, reload, re-verify
# ---------------------------------------------------------------------------


def point_to_json(point):
    """Integer and integer-tuple point descriptors only; they cover all
    built-in streams, and nothing else can be re-evaluated after a round
    trip."""
    if isinstance(point, bool):
        raise InvalidInputError("boolean is not a point descriptor")
    if isinstance(point, int):
        return point
    if isinstance(point, tuple) and all(
        isinstance(c, int) and not isinstance(c, bool) for c in point
    ):
        return list(point)
    raise InvalidInputError(f"point {point!r} is not an integer or an integer tuple")


def point_from_json(data):
    """Inverse of point_to_json: an integer or a list of integers."""
    point = tuple(data) if isinstance(data, list) else data
    point_to_json(point)  # rejects every other JSON value
    return point


def family_bundle(zfam: ZeroSetFamily) -> dict:
    """A self-contained transcript: instance recipe, points, witnesses.

    Every membership bit is re-derivable from the bundle alone, which
    verify_bundle does.
    """
    inst = zfam.sample.instance
    if inst.spec is None:
        raise InvalidInputError(
            f"instance {inst.name} carries no rebuild recipe; cannot bundle"
        )
    return {
        "instance": inst.spec,
        "method": zfam.method,
        "points": [point_to_json(p) for p in zfam.sample.points],
        "sets": [
            {
                "mask": z.mask,
                "indices": mask_to_indices(z.mask),
                "witness": [scalar_to_str(x) for x in z.witness.entries],
            }
            for z in zfam.sets
        ],
    }


def verify_bundle(bundle: dict) -> ZeroSetFamily:
    """Rebuild the family from a bundle and recheck every membership bit.

    The instance is reconstructed from the embedded recipe.  Each stored
    witness is re-evaluated against each sample image; any bit out of
    place raises.
    """
    from .instances import instance_from_spec

    inst = instance_from_spec(bundle["instance"])
    sample = Sample.take(inst, [point_from_json(p) for p in bundle["points"]])
    sets = []
    for entry in bundle["sets"]:
        witness = Vector(
            inst.field,
            tuple(scalar_from_str(inst.field, x) for x in entry["witness"]),
        )
        recomputed = zero_set(sample, witness)
        if recomputed.mask != entry["mask"]:
            raise InvalidInputError(
                f"witness bundle mismatch: stored mask {bin(entry['mask'])}, "
                f"recomputed {bin(recomputed.mask)}"
            )
        expected_indices = mask_to_indices(recomputed.mask)
        if entry.get("indices", expected_indices) != expected_indices:
            raise InvalidInputError("witness bundle indices disagree with the mask")
        sets.append(recomputed)
    return ZeroSetFamily(sample, tuple(sets), bundle.get("method", "bundle"))
