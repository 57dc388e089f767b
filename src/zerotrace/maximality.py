"""Span structure of trace families and subspace-cover certificates.

The central observation mechanized here: a trace is recoverable from
the span of the images of its points, because the trace of a witness a
equals {x in sample : image(x) in ker(a)} and only the span of the
image set matters.  A span family is therefore a SetFamily over a
list of vectors, bit i standing for the i-th vector; an enumerated
trace family is one over its sample's images.  Consequences, each with
a direct checker:

* taking spans is injective on any enumerated trace family, and no
  member spans all of F^d (require_span_injective, which raises on the
  first failure; the reduction and the bound check below both start
  with it);
* each member reduces to an independent spanning sub-mask of size < d,
  preserving the family's cardinality;
* if every sampled image lies in one of k proper subspaces and the
  sample holds more than k*(d-1) distinct images, some subspace holds
  d of them, and the trace family lands strictly below the
  C(n,0)+...+C(n,d-1) ceiling.

CoverCertificate packages covering subspaces as spanning lists so a
cover claim can travel as JSON and be re-verified on fresh points.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from ._kernels import binom_le
from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    InvalidInputError,
    StreamExhaustedError,
)
from .exactalg import (
    Field,
    Span,
    Vector,
    field_from_json,
    field_to_json,
    in_span,
    rank,
    row_space_canonical,
    scalar_from_str,
    scalar_to_str,
)
from .setsystem import SetFamily, as_mask, mask_to_indices
from .zerosets import (
    DEFAULT_BUDGET,
    Instance,
    ZeroSetFamily,
    distinct_image_points,
    enumerate_family_flats,
)


def require_span_injective(vectors: Sequence[Vector], fam: SetFamily, d: int) -> None:
    """Raise unless fam, a family of subsets of the list vectors (bit i
    standing for vectors[i]), is span injective in F^d.

    DimensionMismatchError if fam is over a ground set of another size
    or a vector's width is not d.  Otherwise InvalidInputError unless no
    member spans F^d and distinct members span distinct spaces; the
    message names the first failure.
    """
    if fam.ground.size != len(vectors):
        raise DimensionMismatchError(
            f"family over {fam.ground.size} points, given {len(vectors)} vectors"
        )
    for v in vectors:
        if len(v) != d:
            raise DimensionMismatchError(f"vector of width {len(v)}, ambient is {d}")
    seen: dict = {}
    for idx, mask in enumerate(fam.masks):
        span = row_space_canonical([vectors[i] for i in mask_to_indices(mask)])
        if len(span) >= d:
            failure = f"full_span at {(idx,)}"
        elif span in seen:
            failure = f"equal_spans at {(seen[span], idx)}"
        else:
            seen[span] = idx
            continue
        raise InvalidInputError(f"family is not span injective ({failure})")


def minimal_spanning_reduction(vectors: Sequence[Vector], fam: SetFamily, d: int) -> SetFamily:
    """Replace each member by a greedy independent sub-mask with equal span.

    fam is over the list vectors, as for require_span_injective, which
    runs first.  One Span over the member, in index order, picks the
    sub-mask (of a repeated vector it keeps the first copy) and holds
    the member's span; a second Span over the sub-mask re-verifies on
    the way out that it is independent, of size < d, and spans what the
    member spans.  Equal spans carry the family's cardinality and
    injectivity over to the reduced family, which is over fam.ground.
    """
    require_span_injective(vectors, fam, d)
    reduced_masks = []
    for mask in fam.masks:
        span = Span()
        reduced = [i for i in mask_to_indices(mask) if span.add(vectors[i])]
        check = Span(vectors[i] for i in reduced)
        if check.canonical() != span.canonical():
            raise AssertionError("greedy reduction changed a member's span")
        if len(check) != len(reduced):
            raise AssertionError("greedy reduction kept a dependent set")
        if len(reduced) >= d:
            raise AssertionError("reduced member reached the ambient dimension")
        reduced_masks.append(as_mask(reduced, fam.ground.size))
    return SetFamily(fam.ground, tuple(reduced_masks))


# ---------------------------------------------------------------------------
# Subspace covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverCertificate:
    """Claim: the instance image lies in the union of these subspaces.

    Each subspace is a spanning tuple of vectors of rank < d; assign
    decides coverage of one image exactly by in_span (None when the
    image escapes), and the claim itself is only ever validated against
    sampled points.
    """

    field: Field
    d: int
    subspaces: tuple  # tuple of tuples of Vectors

    def __post_init__(self):
        if self.d < 1:
            raise InvalidInputError("cover needs d >= 1")
        if not self.subspaces:
            raise InvalidInputError("cover needs at least one subspace")
        for spanning in self.subspaces:
            for v in spanning:
                if v.field != self.field:
                    raise FieldMismatchError("cover vector over the wrong field")
                if len(v) != self.d:
                    raise DimensionMismatchError("cover vector of the wrong width")
            if rank(spanning) >= self.d:
                raise InvalidInputError("cover subspace is not proper")

    def __len__(self) -> int:
        return len(self.subspaces)

    def assign(self, v: Vector) -> Optional[int]:
        """Index of the first subspace containing v, or None."""
        for idx, spanning in enumerate(self.subspaces):
            if in_span(v, spanning):
                return idx
        return None


def cover_to_json(cert: CoverCertificate) -> dict:
    return {
        "field": field_to_json(cert.field),
        "d": cert.d,
        "subspaces": [
            [[scalar_to_str(x) for x in v.entries] for v in spanning]
            for spanning in cert.subspaces
        ],
    }


def cover_from_json(data: dict) -> CoverCertificate:
    field = field_from_json(data["field"])
    d = data["d"]
    subspaces = tuple(
        tuple(
            Vector(field, tuple(scalar_from_str(field, x) for x in entries))
            for entries in spanning
        )
        for spanning in data["subspaces"]
    )
    return CoverCertificate(field=field, d=d, subspaces=subspaces)


# ---------------------------------------------------------------------------
# The strict counting deficit under a cover
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheckReport:
    """Strict pigeonhole bound on a span-injective family over S: its
    size, the ceiling it stays below, and a subspace that holds d of S."""

    count: int
    bound: int  # C(|S|, 0) + ... + C(|S|, d-1)
    crowded_subspace: int  # cover index holding >= d vectors of S


def not_maximal_bound_check(
    S: Sequence[Vector], cover: CoverCertificate, fam: SetFamily
) -> BoundCheckReport:
    """Assert |fam| < C(|S|, <d) for a covered S with |S| > k(d-1).

    fam is a family of subsets of S, bit i standing for S[i].
    Preconditions verified here, each with its own error: the vectors
    of S are pairwise distinct and each lies in some cover subspace;
    |S| exceeds k(d-1); fam is over |S| points and span injective.
    """
    S = tuple(S)
    d = cover.d
    k = len(cover)
    vectors = set()
    for v in S:
        if len(v) != d:
            raise DimensionMismatchError("sample vector of the wrong width")
        if v in vectors:
            raise InvalidInputError("sample vectors must be pairwise distinct")
        vectors.add(v)
    if len(S) <= k * (d - 1):
        raise InvalidInputError(
            f"|S| = {len(S)} does not exceed k(d-1) = {k * (d - 1)}"
        )
    assignment = []
    for v in S:
        idx = cover.assign(v)
        if idx is None:
            raise InvalidInputError(f"sample vector {v} escapes the cover")
        assignment.append(idx)
    require_span_injective(S, fam, d)

    sizes = Counter(assignment)
    crowded = max(sizes, key=sizes.get)
    if sizes[crowded] < d:
        raise AssertionError("pigeonhole miscount: no subspace holds d vectors")

    bound = binom_le(len(S), d - 1)
    count = len(fam)
    if not count < bound:
        raise AssertionError(f"family size {count} is not below the ceiling {bound}")
    return BoundCheckReport(count=count, bound=bound, crowded_subspace=crowded)


# ---------------------------------------------------------------------------
# Non-maximality from a cover
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonMaximalityReport:
    """Outcome of testing a cover against k*(d-1)+1 fresh points.

    verdict "verified": every sampled image fell into the cover, the
    pigeonhole subset missing_subset is provably not a trace (its span
    already captures the image of one more sample point), and the
    enumerated trace family is strictly smaller than the C(n,<d) ceiling.

    verdict "refuted": escape_point's image lies outside every claimed
    subspace, so the cover does not cover the image; evidence for
    maximality instead.
    """

    verdict: str
    n: int
    trace_count: Optional[int] = None
    bound: Optional[int] = None
    missing_subset: Optional[tuple] = None
    escape_point: object = None
    family: Optional[ZeroSetFamily] = None


def non_maximality_certificate(
    instance: Instance,
    certificate: Optional[CoverCertificate] = None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> NonMaximalityReport:
    """Check a subspace cover and extract the strict trace deficit.

    Draws n = k*(d-1)+1 stream points with pairwise distinct images.
    If some image escapes the cover the claim is refuted.  Otherwise
    one subspace holds at least d images; d-1 sample points spanning
    them drag one more point into every zero set containing all of
    them, so that (d-1)-subset is exhibited as a non-trace, and the
    enumerated family is strictly smaller than C(n,<d).
    """
    cert = certificate if certificate is not None else instance.cover
    if cert is None:
        raise InvalidInputError(f"instance {instance.name} declares no covering subspaces")
    if cert.field != instance.field or cert.d != instance.d:
        raise InvalidInputError("certificate shape does not match the instance")
    d = instance.d
    k = len(cert)
    n = k * (d - 1) + 1
    sample = distinct_image_points(instance, n, budget=budget)
    if len(sample) < n:
        raise StreamExhaustedError(
            f"stream of {instance.name} ended after {len(sample)} points "
            f"with distinct images, needed {n}"
        )
    images = sample.images
    assignment = []
    for point, image in zip(sample.points, images):
        idx = cert.assign(image)
        if idx is None:
            return NonMaximalityReport("refuted", n, escape_point=point)
        assignment.append(idx)

    zfam = enumerate_family_flats(sample)
    report = not_maximal_bound_check(images, cert, zfam.to_set_family())

    # The explicit non-trace: inside the crowded subspace, a spanning
    # d-1 points force one leftover point into every containing trace.
    members = [i for i, idx in enumerate(assignment) if idx == report.crowded_subspace]
    core_span = Span()
    core = [i for i in members if core_span.add(images[i])]
    in_core = set(core)
    forced = next(i for i in members if i not in in_core)
    padding = [i for i in range(n) if i != forced and i not in in_core]
    missing = tuple(sorted(core + padding[: (d - 1) - len(core)]))
    if len(missing) != d - 1:
        raise AssertionError("could not assemble a d-1 subset avoiding the forced point")
    if not in_span(images[forced], [images[i] for i in missing]):
        raise AssertionError("forced image escaped the span of the missing subset")
    if as_mask(missing, n) in zfam.masks():
        raise AssertionError("the pigeonhole subset showed up as a trace after all")

    return NonMaximalityReport(
        "verified", n, report.count, report.bound, missing, family=zfam
    )
