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
from itertools import islice, product
from operator import mul
from typing import Callable, Iterator, Optional, Sequence

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
    _int_row,
    _line_point,
    _rows_zero_mask,
    _unit_lead,
    dot,
    in_span,
    nullspace_basis,
    projective_normalize,
    residue_tuples,
    scalar_from_str,
    scalar_to_str,
)
from .setsystem import MAX_POINTS, MAX_SETS, GroundSet, SetFamily

#: Default number of stream points a scan may consume.
DEFAULT_BUDGET = 10_000

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

    evaluate turns a point descriptor into its image Vector of width d;
    stream() yields descriptors in a fixed documented order, so every
    scan in the package is deterministic.  cover_subspaces optionally
    records a known finite cover of the image by proper subspaces (as
    spanning sets); profile_points optionally names the canonical sample
    used for shatter-function tables.
    """

    name: str
    field: Field
    d: int
    evaluate: Callable
    stream: Callable[[], Iterator]
    cover_subspaces: Optional[tuple] = None
    profile_points: Optional[Callable[[int], list]] = None
    spec: Optional[dict] = None  # JSON-able recipe for rebuild (bundles)

    def __post_init__(self):
        if self.d < 1:
            raise InvalidInputError("instance needs d >= 1")

    def image(self, point) -> Vector:
        v = self.evaluate(point)
        if not isinstance(v, Vector) or v.field != self.field or len(v._row or v.entries) != self.d:
            raise InvalidInputError(
                f"evaluator returned a bad image for {point!r}: {v!r}"
            )
        return v


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
        """First k distinct stream points."""
        out = []
        seen = set()
        for p in instance.stream():
            if p in seen:
                continue
            seen.add(p)
            out.append(p)
            if len(out) == k:
                break
        if len(out) < k:
            raise StreamExhaustedError(
                f"stream of {instance.name} ended after {len(out)} points, needed {k}"
            )
        return Sample.take(instance, out)

    def __len__(self) -> int:
        return len(self.points)

    def ground_set(self) -> GroundSet:
        labels = []
        used = set()
        for i, p in enumerate(self.points):
            lab = _point_label(p)
            if lab in used:  # defensive: descriptors stringify identically
                lab = f"{lab}#{i}"
            used.add(lab)
            labels.append(lab)
        return GroundSet(len(self.points), tuple(labels))


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
    zero = inst.field.zero
    mask = 0
    for i, v in enumerate(sample.images):
        if dot(a, v) == zero:
            mask |= 1 << i
    return ZeroSet(mask, projective_normalize(a))


@dataclass(frozen=True)
class IndependenceVerdict:
    """Outcome of the budgeted independence scan.

    kind "independent": witness_points hold d stream points with
    linearly independent images.  kind "dependent": witness_coeffs is a
    nonzero vector annihilating every streamed image (a proof when the
    stream was exhausted, budget-bounded evidence otherwise).
    "inconclusive" is a defensive arm for misbehaving evaluators.
    """

    kind: str
    witness_points: Optional[tuple]
    witness_coeffs: Optional[Vector]
    scanned: int
    rank: int
    stream_exhausted: bool


def linearly_independent(
    instance: Instance, *, budget: int = DEFAULT_BUDGET
) -> IndependenceVerdict:
    """Scan the stream for d points with linearly independent images.

    Success returns those points.  If the scan ends with image rank
    r < d, the nullspace of the accumulated span gives a candidate
    annihilator, which is re-verified against every streamed image
    before the dependent verdict is issued.  Only the distinct int rows
    of the streamed images are kept for that check.
    """
    inst = instance
    if budget < inst.d:
        raise InvalidInputError(f"budget {budget} cannot reach d={inst.d} points")
    span = Span()
    basis: list = []
    basis_points: list = []
    rows: set = set()
    scanned = 0
    exhausted = True
    stream = inst.stream()
    for point in islice(stream, budget):
        v = inst.image(point)
        scanned += 1
        row = _int_row(v)
        if row in rows:
            continue  # a repeated image already lies in the span
        rows.add(row)
        if span.add(v):
            basis.append(v)
            basis_points.append(point)
            if len(basis) == inst.d:
                return IndependenceVerdict(
                    kind="independent",
                    witness_points=tuple(basis_points),
                    witness_coeffs=None,
                    scanned=scanned,
                    rank=inst.d,
                    stream_exhausted=False,
                )
    else:
        exhausted = next(stream, None) is None  # islice stopped: budget or end?
    if scanned < inst.d:
        raise StreamExhaustedError(
            f"stream of {inst.name} yielded {scanned} points, fewer than d={inst.d}"
        )
    kernel = nullspace_basis(inst.field, inst.d, basis)
    witness = projective_normalize(kernel[0])
    if _rows_zero_mask(witness, rows) == (1 << len(rows)) - 1:
        kind = "dependent"
    else:
        kind = "inconclusive"
    return IndependenceVerdict(
        kind=kind,
        witness_points=None,
        witness_coeffs=witness,
        scanned=scanned,
        rank=len(basis),
        stream_exhausted=exhausted,
    )


def distinct_image_points(instance: Instance, n: int, *, budget: int) -> list:
    """The first n stream points with pairwise distinct images.

    Fewer come back only when the stream ends first.  Scanning budget
    stream points without finding n raises BudgetExhaustedError.
    """
    points: list = []
    seen: set = set()
    stream = instance.stream()
    for point in islice(stream, budget):
        image = instance.image(point).entries
        if image not in seen:
            seen.add(image)
            points.append(point)
            if len(points) == n:
                return points
    if next(stream, None) is not None:  # budget spent before the stream ended
        raise BudgetExhaustedError(
            f"found only {len(points)} of {n} points with distinct images "
            f"within budget {budget}"
        )
    return points


# ---------------------------------------------------------------------------
# Exact trace enumeration: two independent routes
# ---------------------------------------------------------------------------


def _projective_representatives(field: PrimeField, d: int) -> Iterator[Vector]:
    """All lines of F_p^d, one representative each: first nonzero entry 1."""
    p = field.p
    for lead in range(d):
        head = [field.zero] * lead + [field.one]
        for tail in product(range(p), repeat=d - lead - 1):
            yield Vector(field, tuple(head + [field.element(t) for t in tail]))


def enumerate_family_bruteforce(sample: Sample) -> ZeroSetFamily:
    """Trace family via exhaustive projective enumeration (prime fields).

    Iterates every line of coefficient space, so the sample's field must
    be F_p with p**d below BRUTEFORCE_SPACE_LIMIT.  First witness found
    per trace is kept (projective order is fixed, so output is stable).
    """
    field = sample.instance.field
    if not isinstance(field, PrimeField):
        raise InvalidInputError("brute-force enumeration needs a prime field")
    if field.p ** sample.instance.d > BRUTEFORCE_SPACE_LIMIT:
        raise ResourceLimitError(
            f"p^d = {field.p ** sample.instance.d} exceeds {BRUTEFORCE_SPACE_LIMIT}"
        )
    found: dict = {}
    for a in _projective_representatives(field, sample.instance.d):
        z = zero_set(sample, a)
        if z.mask not in found:
            found[z.mask] = z
    sets = tuple(found[m] for m in sorted(found))
    return ZeroSetFamily(sample, sets, "projective_bruteforce")


def _closure(images: Sequence[Vector], basis: list) -> int:
    """Mask of sample points whose images lie in span(basis)."""
    span = Span(basis)
    mask = 0
    for i, v in enumerate(images):
        if in_span(v, span):
            mask |= 1 << i
    return mask


def _quotient_rows(p: int, ints: list, cols: list, mask: int) -> dict:
    """Row M[i] = (v_i . k)_k, k in kernel, for every image i outside mask.

    The kernel is the nullspace of W, so v -> (v . k)_k has kernel
    exactly W: M[i] is nonzero off the closure, and v_i lies in
    W + <v_j> iff M[i] is parallel to M[j].  cols is the kernel as ints
    (see exactalg._int_columns); over Q its common positive scale
    scales every row by the same positive constant.
    """
    return {
        i: tuple(sum(map(mul, v, k)) % p if p else sum(map(mul, v, k)) for k in cols)
        for i, v in enumerate(ints)
        if not mask >> i & 1
    }


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
    tried = 0
    radius = 1
    while tried < _RATIONAL_SEARCH_CAP:
        for c in product(range(-radius, radius + 1), repeat=r):
            if max(map(abs, c)) != radius:
                continue
            tried += 1
            if all(sum(map(mul, c, row)) for row in rows):
                return c
        radius += 1
    raise ResourceLimitError("rational witness search exceeded its safety cap")


def enumerate_family_flats(sample: Sample) -> ZeroSetFamily:
    """Trace family via the span-closure lattice (any field).

    Candidate traces are closures T(W) = {x : image(x) in W} for W
    spanned by fewer than d independent images.  The depth-first walk
    reaches each closure once: a basis grows only by an image j after
    its last one and outside its closure, and the new closure is kept
    only if it gains no point before j (prefix-preserving extension).
    Each candidate is kept only if some coefficient vector orthogonal
    to W avoids all images outside T(W); over a finite field that
    search can fail, and the candidate is then correctly dropped.  Each
    closure's witness is searched when the walk reaches it, so the walk
    stops as soon as more than MAX_SETS traces are realized.

    Per flat, the images outside T(W) are mapped once into quotient
    coordinates over plain ints (see _quotient_rows).  Both the child
    closures and the witness search read those rows; only the winning
    coefficients are combined over the int kernel and boxed into field
    elements, once per trace.
    """
    inst = sample.instance
    field = inst.field
    images = sample.images
    if len(images) > MAX_POINTS:
        raise ResourceLimitError(f"sample of {len(images)} points exceeds the limit {MAX_POINTS}")
    p = field.p
    ints = [_int_row(v) for v in images]
    found: dict = {}
    visited = 0
    stack = [(-1, _closure(images, []), [])]  # (last added index, closure, basis)
    while stack:
        last, mask, basis = stack.pop()
        visited += 1
        if visited > MAX_FLATS:
            raise ResourceLimitError(f"flat lattice exceeded {MAX_FLATS} closures")
        cols = _int_columns(nullspace_basis(field, inst.d, basis))
        rows = _quotient_rows(p, ints, cols, mask)
        coeffs = _search_coefficients(p, len(cols), rows.values())
        if coeffs is not None:
            witness = [sum(map(mul, coeffs, entries)) for entries in zip(*cols)]
            found[mask] = ZeroSet(mask, _unit_lead(field, witness))
            if len(found) > MAX_SETS:
                raise ResourceLimitError(f"family exceeds the soft limit of {MAX_SETS} sets")
        if len(basis) == inst.d - 1:
            continue  # one more image would span the whole space
        for j, child in _child_closures(mask, rows, p).items():
            below = (1 << j) - 1
            if j > last and child & below == mask & below:
                stack.append((j, child, basis + [images[j]]))
    sets = tuple(found[m] for m in sorted(found))
    return ZeroSetFamily(sample, sets, "flat_lattice")


# ---------------------------------------------------------------------------
# Image collapse onto finitely many lines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinePartitionReport:
    """Blocks induced by a line cover of the image, plus the trace check.

    block_masks[i] collects sample points whose nonzero image spans
    lines[i]; zero_block_mask collects points with zero image.  Every
    trace must be the zero block united with some of the blocks, so the
    family has at most 2**k members.
    """

    lines: tuple
    block_masks: tuple
    zero_block_mask: int
    family: ZeroSetFamily
    bound: int
    decompositions: tuple  # per trace, sorted tuple of block indices


def density_zero_partition(sample: Sample, lines: Sequence[Vector]) -> LinePartitionReport:
    inst = sample.instance
    field = inst.field
    normalized = []
    for line in lines:
        if line.field != field or len(line) != inst.d:
            raise InvalidInputError("line direction has wrong field or width")
        if line.is_zero():
            raise InvalidInputError("line direction must be nonzero")
        canon = projective_normalize(line)
        if canon not in normalized:
            normalized.append(canon)
    k = len(normalized)
    block_masks = [0] * k
    zero_block = 0
    for i, v in enumerate(sample.images):
        if v.is_zero():
            zero_block |= 1 << i
            continue
        for j, direction in enumerate(normalized):
            if in_span(v, [direction]):
                block_masks[j] |= 1 << i
                break
        else:
            raise InvalidInputError(
                f"image of point {sample.points[i]!r} lies outside the given lines"
            )
    family = enumerate_family_flats(sample)
    bound = 1 << k
    if len(family) > bound:
        raise AssertionError(
            f"line collapse bound violated: {len(family)} traces > 2^{k}"
        )
    decompositions = []
    for z in family.sets:
        if z.mask & zero_block != zero_block:
            raise AssertionError("a trace misses part of the zero-image block")
        cover = []
        rest = z.mask & ~zero_block
        for j in range(k):
            piece = rest & block_masks[j]
            if piece == block_masks[j] and piece:
                cover.append(j)
            elif piece:
                raise AssertionError(f"trace {bin(z.mask)} splits block {j}")
        decompositions.append(tuple(cover))
    return LinePartitionReport(
        lines=tuple(normalized),
        block_masks=tuple(block_masks),
        zero_block_mask=zero_block,
        family=family,
        bound=bound,
        decompositions=tuple(decompositions),
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
                "indices": [i for i in range(len(zfam.sample.points)) if z.mask >> i & 1],
                "witness": [scalar_to_str(x) for x in z.witness.entries],
            }
            for z in zfam.sets
        ],
    }


def verify_bundle(bundle: dict, instance: Optional[Instance] = None) -> ZeroSetFamily:
    """Rebuild the family from a bundle and recheck every membership bit.

    The instance is reconstructed from the embedded recipe unless one is
    passed in.  Each stored witness is re-evaluated against each sample
    image; any bit out of place raises.
    """
    from .instances import instance_from_spec

    inst = instance if instance is not None else instance_from_spec(bundle["instance"])
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
        expected_indices = [i for i in range(len(sample.points)) if entry["mask"] >> i & 1]
        if entry.get("indices", expected_indices) != expected_indices:
            raise InvalidInputError("witness bundle indices disagree with the mask")
        sets.append(recomputed)
    return ZeroSetFamily(sample, tuple(sets), bundle.get("method", "bundle"))
