"""Labeled trees, Littlestone dimension, tree-side growth."""

import pytest

from conftest import random_mask_family
from zerotrace import _kernels
from zerotrace._kernels import binom_le
from zerotrace.errors import (
    InvalidInputError,
    MalformedTreeError,
    ResourceLimitError,
)
from zerotrace.littlestone import (
    LabeledTree,
    count_well_labeled,
    ldim,
    ldim_witness,
    leaf_well_labeled,
    level_balanced_tree,
    littlestone_profile,
    rho,
    rho_via_trees,
    tree_from_json,
    tree_to_json,
    vc_profile,
)
from zerotrace.instances import high_vcden
from zerotrace.setsystem import GroundSet, SetFamily, pi, vcdim
from zerotrace.zerosets import Sample, enumerate_family_flats


def powerset_family(n):
    return SetFamily.create(GroundSet(n), tuple(range(1 << n)))


def is_level_balanced(tree):
    return all(len({v for k, v in tree.node_labels.items() if len(k) == level}) == 1
               for level in range(tree.depth))


def reference_ldim_witness(fam):
    """The split recursion over index lists, with a fresh ldim per side.

    At each node it takes the lowest point that leaves both sides
    nonempty with ldim at least the remaining depth minus one, and each
    leaf names the first member index left on its path.
    """
    n = fam.ground.size
    depth = _kernels.ldim(fam.masks, n)
    tree = LabeledTree(depth=depth)

    def sub_ldim(indices):
        return _kernels.ldim([fam.masks[i] for i in indices], n)

    def build(prefix, indices, r):
        if r == 0:
            tree.leaf_labels[prefix] = indices[0]
            return
        for x in range(n):
            pos = [i for i in indices if fam.masks[i] >> x & 1]
            neg = [i for i in indices if not fam.masks[i] >> x & 1]
            if pos and neg and sub_ldim(neg) >= r - 1 and sub_ldim(pos) >= r - 1:
                tree.node_labels[prefix] = x
                build(prefix + "0", neg, r - 1)
                build(prefix + "1", pos, r - 1)
                return
        raise AssertionError("split recursion invariant violated")

    build("", list(range(len(fam.masks))), depth)
    return tree


def designed_grid_family(n_max):
    inst = high_vcden(3)
    sample = Sample.take(inst, inst.profile_points(n_max))
    return enumerate_family_flats(sample).to_set_family()


def hand_tree():
    # depth 2, point 0 at the root, point 1 at both children
    return LabeledTree(
        depth=2,
        node_labels={"": 0, "0": 1, "1": 1},
        leaf_labels={"00": 0, "01": 2, "10": 1, "11": 3},
    )


def test_validate_catches_malformed_trees():
    fam = powerset_family(2)
    good = hand_tree()
    good.validate(fam)
    missing_node = LabeledTree(2, {"": 0}, dict(good.leaf_labels))
    with pytest.raises(MalformedTreeError):
        missing_node.validate(fam)
    bad_point = LabeledTree(2, {"": 9, "0": 1, "1": 1}, dict(good.leaf_labels))
    with pytest.raises(MalformedTreeError):
        bad_point.validate(fam)
    bad_leaf = LabeledTree(2, dict(good.node_labels), {**good.leaf_labels, "11": 99})
    with pytest.raises(MalformedTreeError):
        bad_leaf.validate(fam)
    bad_key = LabeledTree(2, dict(good.node_labels), {**good.leaf_labels, "2x": 0})
    bad_key.leaf_labels.pop("11")
    with pytest.raises(MalformedTreeError):
        bad_key.validate(fam)


def test_well_labeled_counting_on_powerset():
    fam = powerset_family(2)
    tree = hand_tree()
    # leaf "11" should name the member containing points 0 and 1: mask 0b11 = index 3
    assert leaf_well_labeled(tree, fam, "11")
    assert count_well_labeled(tree, fam) == 4
    assert is_level_balanced(tree)
    with pytest.raises(MalformedTreeError):
        leaf_well_labeled(tree, fam, "000")


def test_ldim_hand_values():
    assert ldim(powerset_family(3)) == 3
    singletons = SetFamily.create(GroundSet(4), (1, 2, 4, 8))
    assert ldim(singletons) == 1
    single = SetFamily.create(GroundSet(2), (0b01,))
    assert ldim(single) == 0


def test_ldim_witness_is_fully_well_labeled(rng):
    for _ in range(40):
        n = rng.randint(1, 5)
        fam = SetFamily.create(
            GroundSet(n), tuple(random_mask_family(rng, n, rng.randint(1, 10)))
        )
        tree = ldim_witness(fam)
        assert tree.depth == ldim(fam)
        assert count_well_labeled(tree, fam) == 1 << tree.depth


def test_ldim_witness_matches_index_list_reference(rng):
    families = [designed_grid_family(7)]
    for _ in range(200):
        n = rng.randint(0, 6)
        families.append(
            SetFamily.create(GroundSet(n), tuple(random_mask_family(rng, n, rng.randint(1, 12))))
        )
    for fam in families:
        tree, ref = ldim_witness(fam), reference_ldim_witness(fam)
        assert tree.depth == ref.depth, fam.masks
        assert tree.node_labels == ref.node_labels, fam.masks
        assert tree.leaf_labels == ref.leaf_labels, fam.masks


def test_ldim_witness_empty_family_rejected():
    with pytest.raises(InvalidInputError):
        ldim_witness(SetFamily.create(GroundSet(2), ()))


def test_level_balanced_tree_counts_members(rng):
    for _ in range(30):
        n = rng.randint(1, 5)
        fam = SetFamily.create(
            GroundSet(n), tuple(random_mask_family(rng, n, rng.randint(1, 12)))
        )
        tree = level_balanced_tree(fam)
        assert tree.depth == n
        assert is_level_balanced(tree)
        assert count_well_labeled(tree, fam) == len(fam)
        # hence rho at depth n certifies every member at once
        assert rho(fam, n) == len(fam)


def test_complete_labels_each_position_once_in_leaf_order():
    for depth in range(5):
        node_calls, leaf_calls = [], []

        def node_label(sigma):
            node_calls.append(sigma)
            return len(sigma)

        def leaf_label(tau):
            leaf_calls.append(tau)
            return len(leaf_calls)

        tree = LabeledTree.complete(depth, node_label, leaf_label)
        nodes = [format(v, f"0{k}b") if k else "" for k in range(depth) for v in range(1 << k)]
        leaves = [format(v, f"0{depth}b") if depth else "" for v in range(1 << depth)]
        assert sorted(node_calls) == sorted(nodes) and len(set(node_calls)) == len(nodes)
        assert leaf_calls == leaves  # once each, in increasing order
        assert tree.depth == depth
        assert tree.node_labels == {sigma: len(sigma) for sigma in nodes}
        assert tree.leaf_labels == {tau: i for i, tau in enumerate(leaves, 1)}
    tree = LabeledTree.complete(0, len, lambda tau: 7)
    assert tree.node_labels == {} and tree.leaf_labels == {"": 7}


def reference_level_balanced_tree(fam):
    """The per-leaf loop: every leaf labels its own member and re-labels
    each node on its path."""
    n = fam.ground.size
    index_of = {mask: i for i, mask in enumerate(fam.masks)}
    tree = LabeledTree(depth=n)
    for value in range(1 << n):
        tau = format(value, f"0{n}b") if n else ""
        support = 0
        for k, c in enumerate(tau):
            if c == "1":
                support |= 1 << k
        tree.leaf_labels[tau] = index_of.get(support, 0)
        for k in range(n):
            tree.node_labels.setdefault(tau[:k], k)
    return tree


def test_level_balanced_tree_matches_per_leaf_reference(rng):
    for n in range(7):
        for _ in range(5):
            masks = random_mask_family(rng, n, rng.randint(1, min(12, 1 << n)))
            rng.shuffle(masks)
            fam = SetFamily.create(GroundSet(n), tuple(masks))
            tree, ref = level_balanced_tree(fam), reference_level_balanced_tree(fam)
            assert tree.depth == ref.depth == n
            assert list(tree.node_labels.items()) == list(ref.node_labels.items())
            assert list(tree.leaf_labels.items()) == list(ref.leaf_labels.items())


def test_level_balanced_tree_depth_cap():
    fam = SetFamily(GroundSet(17), (0b1,))
    with pytest.raises(ResourceLimitError):
        level_balanced_tree(fam)


def test_rho_guards_and_base_cases():
    fam = powerset_family(2)
    assert rho(fam, 0) == 1
    with pytest.raises(InvalidInputError):
        rho(fam, -1)
    with pytest.raises(ResourceLimitError):
        rho(fam, 5, depth_cap=4)


def test_rho_matches_exhaustive_oracle(rng):
    for _ in range(25):
        n = rng.randint(1, 4)
        fam = SetFamily.create(
            GroundSet(n), tuple(random_mask_family(rng, n, rng.randint(1, 8)))
        )
        for depth in range(min(3, n) + 1):
            assert rho(fam, depth) == rho_via_trees(fam, depth)


def test_tree_growth_dominates_trace_growth(rng):
    for _ in range(30):
        n = rng.randint(1, 5)
        fam = SetFamily.create(
            GroundSet(n), tuple(random_mask_family(rng, n, rng.randint(1, 10)))
        )
        ld = ldim(fam)
        assert vcdim(fam) <= ld
        for k in range(n + 1):
            assert pi(fam, k) <= rho(fam, k) <= binom_le(k, ld)


def test_profiles():
    fam = powerset_family(3)
    assert vc_profile(fam, 5) == (1, 2, 4, 8)  # clamped at ground size
    assert littlestone_profile(fam, 5) == (1, 2, 4, 8, 8, 8)


def test_littlestone_profile_matches_per_depth_rho(rng):
    families = [SetFamily.create(GroundSet(3), ()), designed_grid_family(5)]
    for _ in range(40):
        n = rng.randint(0, 5)
        families.append(
            SetFamily.create(GroundSet(n), tuple(random_mask_family(rng, n, rng.randint(1, 12))))
        )
    for fam in families:
        values = littlestone_profile(fam, 6)
        assert values == tuple(rho(fam, n) for n in range(7)), fam.masks
    assert littlestone_profile(families[0], 6) == (0,) * 7


def test_littlestone_profile_checks_depth_cap_before_any_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("rho search started")

    monkeypatch.setattr(_kernels, "rho", no_search)
    with pytest.raises(ResourceLimitError, match="rho depth 5 exceeds cap 4"):
        littlestone_profile(powerset_family(2), 5, depth_cap=4)


def test_tree_json_round_trip():
    fam = powerset_family(2)
    tree = hand_tree()
    data = tree_to_json(tree)
    back = tree_from_json(data, fam)
    assert back.depth == tree.depth
    assert back.node_labels == tree.node_labels
    assert back.leaf_labels == tree.leaf_labels
    data["leaves"]["11"] = 99
    with pytest.raises(MalformedTreeError):
        tree_from_json(data, fam)
