"""Littlestone dimension and the tree-counting growth function.

Binary trees here are total label assignments: every internal position
(a binary string shorter than the depth) gets a ground point, and every
leaf position (a string of full depth) gets a member set of the family.
A leaf is well-labeled when, along its root-to-leaf path, branching
right at level k coincides with the level-k node's point belonging to
the leaf's set.

ldim is the largest depth of a tree whose every leaf is well-labeled;
rho(n) is the largest number of well-labeled leaves over all depth-n
trees.  rho is computed by the kernels' split recursion on the family
(choosing a root point partitions the members by whether they contain
it), which the exhaustive tree-search oracle rho_via_trees validates on
small inputs.  ldim is read off the same recursion as the largest n with
rho(n) = 2^n.  The whole profile rho(0..n) and the ldim witness tree
are each read off one such search in _kernels (rho over a depth range,
ldim_tree); this module builds and checks the trees.  LabeledTree.complete
labels each position of a complete tree once; the level-balanced tree
here and the plane-union grid tree in constructions are built through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import _kernels
from .errors import InvalidInputError, MalformedTreeError, ResourceLimitError
from .setsystem import NEG_INF, SetFamily, as_mask

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

    @staticmethod
    def complete(depth: int, node_label, leaf_label) -> "LabeledTree":
        """The tree giving each node position sigma the label
        node_label(sigma) and each leaf position tau leaf_label(tau), each
        called once per position, in preorder (increasing string order)."""
        tree = LabeledTree(depth=depth)

        def visit(sigma: str) -> None:
            if len(sigma) == depth:
                tree.leaf_labels[sigma] = leaf_label(sigma)
            else:
                tree.node_labels[sigma] = node_label(sigma)
                visit(sigma + "0")
                visit(sigma + "1")

        visit("")
        return tree

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
    """A fully well-labeled tree of depth ldim(fam), from the kernels'
    split search (see _kernels.ldim_tree).  It is not validated here:
    the readers of a tree, count_well_labeled and tree_from_json,
    validate it."""
    if not fam.masks:
        raise InvalidInputError("empty family has no witness tree")
    depth, nodes, leaves = _kernels.ldim_tree(fam.masks, fam.ground.size)
    return LabeledTree(depth=depth, node_labels=nodes, leaf_labels=leaves)


def level_balanced_tree(fam: SetFamily) -> LabeledTree:
    """The canonical level-balanced tree: point k at every level-k node.

    Depth equals the ground-set size.  Each leaf names the member whose
    set equals the leaf's branch pattern when one exists (member 0
    otherwise), so exactly one leaf per member is well-labeled:
    count_well_labeled == len(fam).  This turns any family that
    realizes many subsets into a one-tree certificate for rho.  Like
    every built tree it is validated by its readers, count_well_labeled
    and tree_from_json, not here.
    """
    if not fam.masks:
        raise InvalidInputError("empty family has no tree")
    n = fam.ground.size
    if n > MAX_DEPTH:
        raise ResourceLimitError(f"ground set of {n} points exceeds depth cap {MAX_DEPTH}")
    index_of = {mask: i for i, mask in enumerate(fam.masks)}

    def member_of(tau: str) -> int:
        return index_of.get(as_mask((k for k, c in enumerate(tau) if c == "1"), n), 0)

    return LabeledTree.complete(n, len, member_of)


def rho(fam: SetFamily, n: int, *, depth_cap: int = MAX_DEPTH) -> int:
    """Largest number of well-labeled leaves over all depth-n trees."""
    if n < 0:
        raise InvalidInputError("rho depth must be >= 0")
    if n > depth_cap:
        raise ResourceLimitError(f"rho depth {n} exceeds cap {depth_cap}")
    return _kernels.rho(fam.masks, fam.ground.size, n, n)[0]


def rho_via_trees(fam: SetFamily, n: int) -> int:
    """rho recomputed by exhaustive backtracking over labeled trees.

    Walks every assignment of points to internal positions, carrying the
    root-to-leaf path as two point masks: `care` (the points named on
    the path) and `value` (those it branched right on), plus a `clash`
    flag for a path that names one point on both branches.  A leaf is
    well-labeled iff the path has no clash and some member m has
    m & care == value, that is iff value is in the set of traces
    {m & care}; subtree choices are independent, so the walk maximizes
    them separately.  That set depends only on the family and care, so
    one table per call builds it on the first leaf that reads it and
    serves both leaves under a last-level node and every other path
    naming the same points: each leaf test is one lookup.  The table
    holds traces, never a subtree's score, so there is no memoization of
    the search, no family splitting and no pruning: every one of the
    (2 * ground size)^n leaves is tested.  This is deliberately
    redundant with rho for cross-checking, and exponential (feasible
    for n <= ~4 on tiny families only).
    """
    if not fam.masks:
        return 0
    masks = fam.masks
    bits = [1 << p for p in range(fam.ground.size)]
    traces_on: dict = {}  # care mask -> {m & care for m in masks}, built on first read

    def best(care: int, value: int, clash: bool, remaining: int) -> int:
        top = 0
        for bit in bits:
            # value is within care, so care ^ value holds the left-branch points
            left_clash = clash or bool(value & bit)
            right_clash = clash or bool((care ^ value) & bit)
            if remaining == 1:
                leaf_care = care | bit
                traces = traces_on.get(leaf_care)
                if traces is None:
                    traces = traces_on[leaf_care] = {m & leaf_care for m in masks}
                left = value in traces and not left_clash
                right = value | bit in traces and not right_clash
            else:
                left = best(care | bit, value, left_clash, remaining - 1)
                right = best(care | bit, value | bit, right_clash, remaining - 1)
            if left + right > top:
                top = left + right
        return top

    return best(0, 0, False, n) if n else 1


def vc_profile(fam: SetFamily, n_max: int) -> tuple:
    """pi(0..n_max), read off one subset search; n_max is clamped to the
    ground-set size."""
    return tuple(_kernels.pi(fam.masks, fam.ground.size, 0, min(n_max, fam.ground.size)))


def littlestone_profile(fam: SetFamily, n_max: int, *, depth_cap: int = MAX_DEPTH) -> tuple:
    """rho(0..n_max), read off one split search; the cap is checked first."""
    if n_max > depth_cap:
        raise ResourceLimitError(f"rho depth {depth_cap + 1} exceeds cap {depth_cap}")
    return tuple(_kernels.rho(fam.masks, fam.ground.size, 0, n_max))


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
