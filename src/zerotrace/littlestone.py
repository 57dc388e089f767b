"""Littlestone dimension and the tree-counting growth function.

Binary trees here are total label assignments: every internal position
(a binary string shorter than the depth) gets a ground point, and every
leaf position (a string of full depth) gets a member set of the family.
A leaf is well-labeled when, along its root-to-leaf path, branching
right at level k coincides with the level-k node's point belonging to
the leaf's set.

ldim is the largest depth of a tree whose every leaf is well-labeled;
rho(n) is the largest number of well-labeled leaves over all depth-n
trees.  rho is computed by a split recursion on the family (choosing a
root point partitions the members by whether they contain it), which
the exhaustive tree-search oracle rho_via_trees validates on small
inputs.  ldim is read off the same recursion as the largest n with
rho(n) = 2^n.  The whole profile rho(0..n) and the ldim witness tree
are each read off one such search, sharing its memo across depths and
subfamilies.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import _kernels
from .errors import InvalidInputError, MalformedTreeError, ResourceLimitError
from .setsystem import NEG_INF, SetFamily, pi

#: Default depth cap for rho; the state space grows with 3^depth.
MAX_DEPTH = 16


@dataclass
class LabeledTree:
    """Complete binary tree of the given depth with total labels.

    node_labels maps each binary string of length < depth to a ground
    point index; leaf_labels maps each string of length == depth to a
    member index of the family the tree was built against.  The root is
    the empty string and "01" means left child then right child.
    """

    depth: int
    node_labels: dict = dc_field(default_factory=dict)
    leaf_labels: dict = dc_field(default_factory=dict)

    def validate(self, fam: SetFamily) -> None:
        if self.depth < 0:
            raise MalformedTreeError("negative depth")
        expected_nodes = (1 << self.depth) - 1
        if len(self.node_labels) != expected_nodes:
            raise MalformedTreeError(
                f"expected {expected_nodes} node labels, found {len(self.node_labels)}"
            )
        for key, point in self.node_labels.items():
            if not _is_binary_string(key) or len(key) >= self.depth:
                raise MalformedTreeError(f"bad node position {key!r}")
            if not isinstance(point, int) or not 0 <= point < fam.ground.size:
                raise MalformedTreeError(f"node {key!r} labeled with bad point {point!r}")
        if len(self.leaf_labels) != 1 << self.depth:
            raise MalformedTreeError(
                f"expected {1 << self.depth} leaf labels, found {len(self.leaf_labels)}"
            )
        for key, index in self.leaf_labels.items():
            if not _is_binary_string(key) or len(key) != self.depth:
                raise MalformedTreeError(f"bad leaf position {key!r}")
            if not isinstance(index, int) or not 0 <= index < len(fam.masks):
                raise MalformedTreeError(f"leaf {key!r} labeled with bad set index {index!r}")


def _is_binary_string(s) -> bool:
    return isinstance(s, str) and all(c in "01" for c in s)


def leaf_well_labeled(tree: LabeledTree, fam: SetFamily, leaf: str) -> bool:
    """Check one leaf: branch bits must match membership of path points."""
    if leaf not in tree.leaf_labels:
        raise MalformedTreeError(f"unknown leaf {leaf!r}")
    mask = fam.masks[tree.leaf_labels[leaf]]
    for k in range(len(leaf)):
        point = tree.node_labels[leaf[:k]]
        if bool(mask & (1 << point)) != (leaf[k] == "1"):
            return False
    return True


def count_well_labeled(tree: LabeledTree, fam: SetFamily) -> int:
    tree.validate(fam)
    return sum(
        1 for leaf in tree.leaf_labels if leaf_well_labeled(tree, fam, leaf)
    )


def ldim(fam: SetFamily):
    """Littlestone dimension; NEG_INF for the empty family."""
    if not fam.masks:
        return NEG_INF
    return _kernels.ldim(fam.masks, fam.ground.size)


def ldim_witness(fam: SetFamily) -> LabeledTree:
    """A fully well-labeled tree of depth ldim(fam).

    Walks the split search over member bitsets: a node with subfamily s
    and r levels left takes the lowest point whose two sides both have
    rho(r-1) = 2^(r-1), i.e. ldim at least r-1, and each leaf names the
    lowest member index consistent with its path.
    """
    if not fam.masks:
        raise InvalidInputError("empty family has no witness tree")
    cols = _kernels._columns(fam.masks, fam.ground.size)
    rec = _kernels._rho_search(cols)
    depth = _kernels._full_depth(rec, len(fam.masks))
    tree = LabeledTree(depth=depth)

    def build(prefix: str, s: int, r: int) -> None:
        if r == 0:
            tree.leaf_labels[prefix] = (s & -s).bit_length() - 1
            return
        full = 1 << (r - 1)
        for x, col in enumerate(cols):
            pos = s & col
            neg = s ^ pos
            if rec(neg, r - 1) == full and rec(pos, r - 1) == full:
                tree.node_labels[prefix] = x
                build(prefix + "0", neg, r - 1)
                build(prefix + "1", pos, r - 1)
                return
        raise AssertionError("split recursion invariant violated")

    build("", (1 << len(fam.masks)) - 1, depth)
    tree.validate(fam)
    return tree


def level_balanced_tree(fam: SetFamily) -> LabeledTree:
    """The canonical level-balanced tree: point k at every level-k node.

    Depth equals the ground-set size.  Each leaf names the member whose
    set equals the leaf's branch pattern when one exists (member 0
    otherwise), so exactly one leaf per member is well-labeled:
    count_well_labeled == len(fam).  This turns any family that
    realizes many subsets into a one-tree certificate for rho.
    """
    if not fam.masks:
        raise InvalidInputError("empty family has no tree")
    n = fam.ground.size
    if n > MAX_DEPTH:
        raise ResourceLimitError(f"ground set of {n} points exceeds depth cap {MAX_DEPTH}")
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
    tree.validate(fam)
    return tree


def rho(fam: SetFamily, n: int, *, depth_cap: int = MAX_DEPTH) -> int:
    """Largest number of well-labeled leaves over all depth-n trees."""
    if n < 0:
        raise InvalidInputError("rho depth must be >= 0")
    if n > depth_cap:
        raise ResourceLimitError(f"rho depth {n} exceeds cap {depth_cap}")
    if not fam.masks:
        return 0
    return _kernels.rho(fam.masks, fam.ground.size, n)


def rho_via_trees(fam: SetFamily, n: int) -> int:
    """rho recomputed by exhaustive backtracking over labeled trees.

    Walks every assignment of points to internal positions, carrying the
    root-to-leaf path as two point masks: `care` (the points named on
    the path) and `value` (those it branched right on), plus a `clash`
    flag for a path that names one point on both branches.  A leaf is
    well-labeled iff the path has no clash and some member m has
    m & care == value; subtree choices are independent, so the walk
    maximizes them separately.  No memoization, no family splitting and
    no pruning: every one of the (2 * ground size)^n leaves is reached.
    This is deliberately redundant with rho for cross-checking, and
    exponential (feasible for n <= ~4 on tiny families only).
    """
    if not fam.masks:
        return 0
    masks = fam.masks
    bits = [1 << p for p in range(fam.ground.size)]

    def best(care: int, value: int, clash: bool, remaining: int) -> int:
        if remaining == 0:
            return 0 if clash else int(any(m & care == value for m in masks))
        top = 0
        for bit in bits:
            # value is within care, so care ^ value holds the left-branch points
            left_clash = clash or bool(value & bit)
            right_clash = clash or bool((care ^ value) & bit)
            left = best(care | bit, value, left_clash, remaining - 1)
            right = best(care | bit, value | bit, right_clash, remaining - 1)
            if left + right > top:
                top = left + right
        return top

    return best(0, 0, False, n)


@dataclass(frozen=True)
class ShatterProfile:
    """An exact growth sequence, one value per sample size / tree depth."""

    kind: str  # "vc" or "littlestone"
    values: tuple  # values[n] is pi(n) or rho(n)

    def __post_init__(self):
        if self.kind not in ("vc", "littlestone"):
            raise InvalidInputError(f"unknown profile kind {self.kind!r}")
        if self.values and self.values[0] not in (0, 1):
            raise InvalidInputError("a growth sequence starts at 0 or 1")


def vc_profile(fam: SetFamily, n_max: int) -> ShatterProfile:
    """pi(0..n_max); n_max is clamped to the ground-set size."""
    top = min(n_max, fam.ground.size)
    return ShatterProfile("vc", tuple(pi(fam, n) for n in range(top + 1)))


def littlestone_profile(
    fam: SetFamily, n_max: int, *, depth_cap: int = MAX_DEPTH
) -> ShatterProfile:
    """rho(0..n_max), read off one split search; the cap is checked first."""
    if n_max > depth_cap:
        raise ResourceLimitError(f"rho depth {depth_cap + 1} exceeds cap {depth_cap}")
    if not fam.masks:
        return ShatterProfile("littlestone", (0,) * (n_max + 1))
    rec = _kernels._rho_search(_kernels._columns(fam.masks, fam.ground.size))
    full = (1 << len(fam.masks)) - 1
    return ShatterProfile("littlestone", tuple(rec(full, n) for n in range(n_max + 1)))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def tree_to_json(tree: LabeledTree) -> dict:
    return {
        "depth": tree.depth,
        "nodes": dict(sorted(tree.node_labels.items())),
        "leaves": dict(sorted(tree.leaf_labels.items())),
    }


def tree_from_json(data: dict, fam: SetFamily) -> LabeledTree:
    """Parse and re-validate a tree against the family it references."""
    if not isinstance(data, dict) or not {"depth", "nodes", "leaves"} <= set(data):
        raise InvalidInputError("tree JSON needs 'depth', 'nodes' and 'leaves'")
    tree = LabeledTree(
        depth=data["depth"],
        node_labels=dict(data["nodes"]),
        leaf_labels=dict(data["leaves"]),
    )
    tree.validate(fam)
    return tree
