"""Finite set systems as bitmask families, with exact VC statistics.

A family lives over a ground set of indexed points (0..n-1) and stores
each member set as an integer bitmask.  Growth statistics (vcdim, the
trace-count function pi) run on the bitmask kernels; a separate oracle
recomputes pi by a scan of every k-subset, from the definition, for use
as an independent cross-check (an n-set is shattered iff it has 2^n
traces, so the scan also fixes vcdim).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence, Union

from . import _kernels
from .errors import DimensionMismatchError, InvalidInputError, ResourceLimitError

#: Marker for the dimension of the empty family.  Using -inf (rather
#: than None) keeps ordering facts like vcdim <= ldim literally true on
#: every input.
NEG_INF = float("-inf")

#: Resource limits; SetFamily.create raises ResourceLimitError beyond these.
MAX_POINTS = 20
MAX_SETS = 4096


@dataclass(frozen=True)
class GroundSet:
    """Indexed sample points 0..size-1 with display labels."""

    size: int
    labels: tuple = ()

    def __post_init__(self):
        if self.size < 0:
            raise InvalidInputError("ground set size must be >= 0")
        if self.labels and len(self.labels) != self.size:
            raise InvalidInputError("label count differs from ground set size")
        if self.labels and len(set(self.labels)) != self.size:
            raise InvalidInputError("display labels must be distinct")

    def label(self, i: int) -> str:
        if self.labels:
            return self.labels[i]
        return str(i)

    def all_labels(self) -> list:
        return [self.label(i) for i in range(self.size)]


SubsetLike = Union[int, Iterable[int]]


def as_mask(subset: SubsetLike, size: int) -> int:
    """Normalize an index iterable or raw bitmask to a width-checked mask."""
    if isinstance(subset, int):
        mask = subset
    else:
        mask = 0
        for i in subset:
            if not 0 <= i < size:
                raise DimensionMismatchError(f"point index {i} outside ground set of size {size}")
            mask |= 1 << i
    if mask < 0 or mask >> size:
        raise DimensionMismatchError(f"mask {bin(mask)} wider than ground set of size {size}")
    return mask


def mask_to_indices(mask: int) -> list:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


@dataclass(frozen=True)
class SetFamily:
    """Distinct subsets of a ground set, as bitmasks in member order."""

    ground: GroundSet
    masks: tuple

    def __post_init__(self):
        seen = set()
        for m in self.masks:
            if not isinstance(m, int) or m < 0 or m >> self.ground.size:
                raise DimensionMismatchError(
                    f"mask {m!r} does not fit ground set of size {self.ground.size}"
                )
            if m in seen:
                raise InvalidInputError(f"duplicate member set {bin(m)}")
            seen.add(m)

    @staticmethod
    def create(ground: GroundSet, masks: Sequence[int]) -> "SetFamily":
        """The family, checked against MAX_POINTS and MAX_SETS."""
        if ground.size > MAX_POINTS:
            raise ResourceLimitError(
                f"ground set of {ground.size} points exceeds the soft limit {MAX_POINTS}"
            )
        if len(masks) > MAX_SETS:
            raise ResourceLimitError(
                f"family of {len(masks)} sets exceeds the soft limit {MAX_SETS}"
            )
        return SetFamily(ground, tuple(masks))

    @staticmethod
    def from_index_sets(ground: GroundSet, sets: Sequence[Iterable[int]]) -> "SetFamily":
        return SetFamily.create(ground, [as_mask(tuple(s), ground.size) for s in sets])

    def __len__(self) -> int:
        return len(self.masks)


def shatters(fam: SetFamily, subset: SubsetLike) -> bool:
    """True iff every subset of `subset` occurs as a trace."""
    mask = as_mask(subset, fam.ground.size)
    return _kernels.count_restrictions(fam.masks, mask) == 1 << mask.bit_count()


def vcdim(fam: SetFamily):
    """VC dimension: size of the largest shattered subset.

    Returns NEG_INF for the empty family (no subset, not even the empty
    one, is shattered), 0 or more otherwise.
    """
    if not fam.masks:
        return NEG_INF
    return _kernels.vcdim(fam.masks, fam.ground.size)


def pi(fam: SetFamily, n: int) -> int:
    """Trace-count growth function: max distinct traces on n points."""
    if not 0 <= n <= fam.ground.size:
        raise DimensionMismatchError(
            f"pi argument {n} outside 0..{fam.ground.size} (ground set size)"
        )
    return _kernels.pi(fam.masks, fam.ground.size, n, n)[0]


def pi_via_subsets(fam: SetFamily, k: int) -> int:
    """pi recomputed from its definition: the most distinct traces m & S
    over the k-subsets S of the ground set, counted by one set of traces
    per subset.  Independent of the bitmask kernels (no column bitsets, no
    blocks, no Sauer-Shelah cap); it visits all C(ground size, k)
    subsets, so only for small inputs.
    """
    if not 0 <= k <= fam.ground.size:
        raise DimensionMismatchError(
            f"pi argument {k} outside 0..{fam.ground.size} (ground set size)"
        )
    best = 0
    for points in combinations(range(fam.ground.size), k):
        care = 0
        for p in points:
            care |= 1 << p
        best = max(best, len({m & care for m in fam.masks}))
    return best


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def family_to_json(fam: SetFamily) -> dict:
    """Lossless JSON form: ground labels plus sorted index lists."""
    return {
        "ground": fam.ground.all_labels(),
        "sets": [mask_to_indices(m) for m in fam.masks],
    }


def family_from_json(data: dict) -> SetFamily:
    if not isinstance(data, dict) or "ground" not in data or "sets" not in data:
        raise InvalidInputError("family JSON needs 'ground' and 'sets'")
    labels = data["ground"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise InvalidInputError("'ground' must be a list of label strings")
    ground = GroundSet(len(labels), tuple(labels))
    sets = data["sets"]
    if not isinstance(sets, list):
        raise InvalidInputError("'sets' must be a list of index lists")
    return SetFamily.from_index_sets(ground, sets)
