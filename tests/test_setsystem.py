"""Finite set system layer: masks, restriction, VC side."""

from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_mask_family
from zerotrace._kernels import binom_le
from zerotrace.errors import (
    DimensionMismatchError,
    InvalidInputError,
    ResourceLimitError,
)
from zerotrace.setsystem import (
    GroundSet,
    SetFamily,
    as_mask,
    family_from_json,
    family_to_json,
    mask_to_indices,
    pi,
    restrict,
    shatters,
    vcdim,
    vcdim_via_trees,
)


def powerset_family(n):
    return SetFamily.create(GroundSet(n), tuple(range(1 << n)))


def test_ground_set_guards():
    with pytest.raises(InvalidInputError):
        GroundSet(-1)
    with pytest.raises(InvalidInputError):
        GroundSet(2, ("a",))
    with pytest.raises(InvalidInputError):
        GroundSet(2, ("a", "a"))
    assert GroundSet(2, ("p", "q")).all_labels() == ["p", "q"]
    assert GroundSet(2).label(1) == "1"


@given(st.integers(0, 255))
def test_mask_index_round_trip(mask):
    assert as_mask(mask_to_indices(mask), 8) == mask


def test_as_mask_guards():
    with pytest.raises(DimensionMismatchError):
        as_mask([3], 3)
    with pytest.raises(DimensionMismatchError):
        as_mask(0b1000, 3)


def test_family_rejects_duplicates_and_wide_masks():
    g = GroundSet(2)
    with pytest.raises(InvalidInputError):
        SetFamily.create(g, (1, 1))
    with pytest.raises(DimensionMismatchError):
        SetFamily.create(g, (4,))


def test_family_limits():
    with pytest.raises(ResourceLimitError):
        SetFamily.create(GroundSet(21), (0,))
    with pytest.raises(ResourceLimitError):
        SetFamily.create(GroundSet(13), range(4097))
    # the limits are create's; a family built directly is checked for shape only
    assert SetFamily(GroundSet(21), (0,)).ground.size == 21


def test_from_index_sets_and_members():
    fam = SetFamily.from_index_sets(GroundSet(3), [(0, 2), (), (1,)])
    assert fam.masks == (0b101, 0, 0b010)
    assert [set(mask_to_indices(m)) for m in fam.masks] == [{0, 2}, set(), {1}]
    assert [f.name for f in fields(fam)] == ["ground", "masks"]


def test_restrict_merges_traces_in_first_order():
    fam = SetFamily.create(GroundSet(3), (0b110, 0b101, 0b001, 0b011))
    r = restrict(fam, (0, 2))
    assert r.ground.all_labels() == ["0", "2"]
    # 0b001 and 0b011 both trace to {0}, which keeps the place of the first
    assert r.masks == (0b10, 0b11, 0b01)
    assert restrict(fam, (1,)).masks == (0b1, 0b0)


def test_shatters_and_vcdim_hand_cases():
    full = powerset_family(3)
    assert shatters(full, (0, 1, 2))
    assert vcdim(full) == 3
    singletons = SetFamily.create(GroundSet(3), (0, 1, 2, 4))
    assert vcdim(singletons) == 1
    assert not shatters(singletons, (0, 1))


def test_pi_counts_distinct_traces():
    fam = SetFamily.create(GroundSet(3), (0b011, 0b100, 0b111))
    # best single point gives 2 traces, best pair gives 3
    assert pi(fam, 0) == 1
    assert pi(fam, 1) == 2
    assert pi(fam, 2) == 3
    assert pi(fam, 3) == 3
    with pytest.raises(DimensionMismatchError):
        pi(fam, -1)


def brute_pi(fam, n):
    from itertools import combinations

    best = 0
    for combo in combinations(range(fam.ground.size), n):
        traces = {m & as_mask(combo, fam.ground.size) for m in fam.masks}
        best = max(best, len(traces))
    return best


def test_pi_matches_direct_enumeration(rng):
    for _ in range(40):
        n = rng.randint(1, 6)
        fam = SetFamily.create(GroundSet(n), tuple(random_mask_family(rng, n, rng.randint(1, 10))))
        for k in range(n + 1):
            assert pi(fam, k) == brute_pi(fam, k)


def test_vcdim_agrees_with_tree_oracle(rng):
    for _ in range(60):
        n = rng.randint(1, 5)
        fam = SetFamily.create(GroundSet(n), tuple(random_mask_family(rng, n, rng.randint(1, 10))))
        assert vcdim(fam) == vcdim_via_trees(fam)


def test_sauer_bound_on_seeded_families(rng):
    for _ in range(60):
        n = rng.randint(1, 6)
        fam = SetFamily.create(GroundSet(n), tuple(random_mask_family(rng, n, rng.randint(1, 12))))
        d = vcdim(fam)
        for k in range(n + 1):
            assert pi(fam, k) <= binom_le(k, d)


def test_family_json_round_trip():
    fam = SetFamily.create(GroundSet(3, ("x", "y", "z")), (0b101, 0b010))
    data = family_to_json(fam)
    assert data == {"ground": ["x", "y", "z"], "sets": [[0, 2], [1]]}
    back = family_from_json(data)
    assert back.masks == fam.masks
    assert back.ground.labels == fam.ground.labels


def test_family_json_rejects_garbage():
    with pytest.raises(InvalidInputError):
        family_from_json({"sets": [[0]]})
    with pytest.raises(DimensionMismatchError):
        family_from_json({"ground": ["a", "b"], "sets": [[5]]})
