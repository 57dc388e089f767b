"""Bitmask kernels for the combinatorial searches.

Families are sequences of distinct integer bitmasks over ground points
0..n_points-1 (bit i set means point i belongs to the set).  This is the
only module that knows the search representation: column bitsets, one
per ground point, and subfamilies or restriction classes as member
bitsets (bit i set means member i is in it).  Callers pass masks and
get values back.

The one Littlestone recursion, the rho split search, works on
subfamilies; with the column bitsets a split is two bit operations, and
(subfamily, depth) is the memo key.  Each call carries an ldim bound L
proved for its own subfamily, and a node stops at the most leaves such
a subfamily can fill, min(|s|, C(depth, <= L)); at a depth at or past
the ground size it fills |s| and returns at once.  Callers pass the
root L: rho(lo..hi), one search asked depth by depth, lowers it to k-1
after the first depth k with rho(k) < 2^k; ldim is read off one search
as the deepest depth at which rho fills every leaf, and ldim_tree walks
that same search down to a witness tree under that ldim.  A split
passes L to its larger side and, once that side fills more than
C(depth-1, <= L-1) leaves, L-1 to the other.

The VC side has one search too: a depth-first search over increasing
point subsets that refines the restriction classes by the same column
bitsets, and raises the most classes seen at each depth toward a cap.
Points that the family cannot tell apart, those whose swap maps it onto
itself, form blocks, and the search only takes a prefix of each block,
one subset per symmetry class.  pi(lo..hi) is that search capped at
min(|F|, C(k, <= V)) (Sauer-Shelah).  vcdim, the V of that cap, is read
off the same search as ldim is read off rho's: seeded one class short
of 2^k at every depth, it expands only shattered subsets, and vcdim is
the deepest depth that reaches 2^k.  binom_le gives every C(k, <= L)
the caps use.
"""

from __future__ import annotations

from functools import cache
from math import comb
from typing import Sequence


def backend_name() -> str:
    """Name stamped on benchmark records; the kernels are pure Python."""
    return "pure"


@cache
def binom_le(n: int, upper: int) -> int:
    """C(n,0) + C(n,1) + ... + C(n,upper): 2^n once upper >= n, 0 once
    upper < 0.

    Cached, since every node of the rho search reads its own cap.
    """
    return sum(comb(n, k) for k in range(upper + 1))


def _columns(masks: Sequence[int], n_points: int) -> list:
    """col[x]: bitset of the members that contain point x."""
    cols = [0] * n_points
    for i, mask in enumerate(masks):
        for x in range(n_points):
            if mask >> x & 1:
                cols[x] |= 1 << i
    return cols


def _blocks(masks: Sequence[int], cols: list) -> list:
    """The blocks of interchangeable points, each in increasing order.

    x ~ y iff swapping x and y maps the family onto itself.  The members
    holding x but not y must then map, one to one, onto those holding y
    but not x, so equal counts and one lookup per member of the first
    kind decide it.  If (x y) and (y z) preserve the family, so does
    their conjugate (x z): ~ is an equivalence relation, so x is tested
    against the first point of each block only, and each block carries
    its full symmetric group.
    """
    family = set(masks)
    blocks: list = []
    for x, col in enumerate(cols):
        for block in blocks:
            y = block[0]
            only_x = col & ~cols[y]
            if only_x.bit_count() != (cols[y] & ~col).bit_count():
                continue
            swap = 1 << x | 1 << y
            while only_x:
                low = only_x & -only_x
                if masks[low.bit_length() - 1] ^ swap not in family:
                    break
                only_x ^= low
            else:
                block.append(x)
                break
        else:
            blocks.append([x])
    return blocks


def count_restrictions(masks: Sequence[int], submask: int) -> int:
    """Number of distinct intersections of family sets with submask."""
    return len({m & submask for m in masks})


def vcdim(masks: Sequence[int], n_points: int) -> int:
    """Largest k such that some k-point subset is shattered.

    masks must be nonempty.
    """
    cols = _columns(masks, n_points)
    return _shattered_depth(cols, _blocks(masks, cols), len(masks))


def _shattered_depth(cols: list, blocks: list, members: int) -> int:
    """vcdim read off the subset search over a family of that many
    members with column bitsets cols and point blocks blocks.

    Seeded with best[k] = 2^k - 1 and cap[k] = 2^k, a node of depth j
    with c classes expands only while c * 2^(k-j) > 2^k - 1 for some
    unfilled k, that is while its subset is shattered.  Shattered
    subsets are downward closed, so depth k reaches 2^k exactly when
    some k-set is shattered.  No k with 2^k > members is tried.
    """
    top = min(len(cols), members.bit_length() - 1)
    best = [(1 << k) - 1 for k in range(top + 1)]
    _subset_search(cols, blocks, members, 1, best, [1 << k for k in range(top + 1)])
    depth = 0
    while depth < top and best[depth + 1] == 2 << depth:
        depth += 1
    return depth


def pi(masks: Sequence[int], n_points: int, lo: int, hi: int) -> list:
    """[pi(k) for k in lo..hi]: the most distinct traces over any k-point
    subset, read off one subset search.

    No depth-k subset has more than min(|F|, C(k, <= V)) traces
    (Sauer-Shelah), with V the family's VC dimension read off the same
    columns and blocks, so that is the cap.  Before building columns it
    counts the prefixes: if the first k points already give
    min(|F|, 2^k) traces at every asked k, those counts are the answer.
    Otherwise they seed the search.  Depths past the ground size give 0.
    """
    if not masks:
        return [0] * (hi - lo + 1)
    members = len(masks)
    top = min(hi, n_points)
    best = [0] * (hi + 1)
    for k in range(lo, top + 1):
        best[k] = count_restrictions(masks, (1 << k) - 1)
    if all(best[k] == min(members, 1 << k) for k in range(lo, top + 1)):
        return best[lo:]
    cols = _columns(masks, n_points)
    blocks = _blocks(masks, cols)
    vc = _shattered_depth(cols, blocks, members)
    cap = [min(members, binom_le(k, vc)) for k in range(top + 1)]
    _subset_search(cols, blocks, members, lo, best, cap)
    return best[lo:]


def _subset_search(cols: list, blocks: list, members: int, lo: int, best: list, cap: list) -> None:
    """Raise best[k] to the most restriction classes any k points carry,
    for lo <= k < len(cap), unless best[k] reaches cap[k] first.

    A depth-first search adds points in increasing order and carries the
    restriction classes of the current subset as member bitsets; adding
    point x refines each class by the column bitset cols[x].  A class of
    one member never splits, so only a count of those is kept.  The
    points of a block are interchangeable, so the class count of a
    subset depends only on how many points it takes from each block:
    the search adds x only once x's predecessor in its block is chosen
    (orderly generation, Read 1978), and visits one subset per class.
    A subset with c classes and depth j can reach at most c * 2^(k-j)
    classes at depth k, so a node is expanded only while some depth k
    within its reach has best[k] < cap[k] and best[k] < c * 2^(k-j).
    With cap[k] a true bound, every best[k] the search leaves is exact.
    """
    n_points = len(cols)
    top = len(cap) - 1
    need = [0] * n_points  # the bit of x's predecessor in its block
    for block in blocks:
        for prev, x in zip(block, block[1:]):
            need[x] = 1 << prev

    def visit(start: int, classes: list, singles: int, depth: int, chosen: int) -> None:
        count = len(classes) + singles
        child = depth + 1
        for x in range(start, n_points):
            if need[x] & ~chosen:
                continue
            # expand while a depth within reach could beat its best
            for k in range(max(lo, child), min(top, depth + n_points - x) + 1):
                if best[k] < cap[k] and best[k] < count << (k - depth):
                    break
            else:
                return
            col = cols[x]
            if child == top:  # a leaf: count the classes x splits
                grown = count
                for c in classes:
                    part = c & col
                    if part and part != c:
                        grown += 1
                if grown > best[child]:
                    best[child] = grown
                continue
            split = []
            alone = singles
            for c in classes:
                part = c & col
                for side in (part, c ^ part):
                    if side & (side - 1):
                        split.append(side)
                    elif side:
                        alone += 1
            if len(split) + alone > best[child]:
                best[child] = len(split) + alone
            visit(x + 1, split, alone, child, chosen | 1 << x)

    visit(0, [(1 << members) - 1], 0, 0, 0)


def _rho_search(cols: list):
    """split(s, d, L): rho of the subfamily s at depth d, over one shared
    memo and the column bitsets cols of _columns.  The caller passes L,
    a bound it has proved: L >= ldim(s), or L >= d, which caps nothing.

    Recursion: at depth 0 a lone leaf is well-labeled iff the subfamily
    is nonempty; otherwise the best root point splits it and the two
    subtrees contribute independently.  A trivial split, with every
    member on one side, never wins: the good leaves of a depth-(d-1)
    tree on s fall into good leaves of the same tree on either side of
    any nontrivial split, which exists once |s| >= 2.  At a depth d at
    or past the ground size n >= 1, s fills exactly |s| leaves: each
    member labels at most one well-labeled leaf, and a tree that asks
    every point on every path gives each member its own.  split stops
    once it fills min(|s|, C(d, <= L)) leaves, the most such a
    subfamily can (Bhaskar's Littlestone analogue of Sauer-Shelah: one
    side of a split has ldim <= L-1, so rho(s, d) <= C(d-1, <= L) +
    C(d-1, <= L-1)).  It searches the larger side first; if that side
    fills more than C(d-1, <= L-1) leaves it has ldim >= L, so the
    other side has ldim <= L-1, or s would have ldim L+1, and is
    searched under that bound.  A node stops only on reaching a bound
    proved for its own subfamily, so every value returned and memoized
    is exact.
    """
    memo: dict = {}
    n_points = len(cols)

    def split(s: int, d: int, bound: int) -> int:
        if not s:
            return 0
        if d == 0:
            return 1
        size = s.bit_count()
        if n_points and (size == 1 or d >= n_points):
            return size
        key = (s, d)
        cached = memo.get(key)
        if cached is not None:
            return cached
        cap = binom_le(d, bound)
        if size < cap:
            cap = size
        below = binom_le(d - 1, bound - 1)  # the most a side of ldim <= L-1 fills
        best = 0
        tried = set()
        for col in cols:
            if best == cap:
                break
            pos = s & col
            if pos in tried or not pos or pos == s:
                continue
            neg = s ^ pos
            tried.add(pos)
            tried.add(neg)
            if pos.bit_count() < neg.bit_count():
                pos, neg = neg, pos  # the larger side first
            first = split(pos, d - 1, bound)
            value = first + split(neg, d - 1, bound - 1 if first > below else bound)
            if value > best:
                best = value
        memo[key] = best
        return best

    return split


def ldim(masks: Sequence[int], n_points: int) -> int:
    """Largest depth of a fully well-labeled binary tree.

    That is the largest r with rho(r) = 2^r: cutting a level off such a
    tree leaves one of depth r-1.  Each member labels at most one
    well-labeled leaf, so no r with 2^r > len(masks) is tried.
    """
    return _full_depth(_rho_search(_columns(masks, n_points)), len(masks))


def _full_depth(split, members: int) -> int:
    """ldim read off a split search over a family of that many members:
    the deepest depth at which it fills every leaf."""
    full = (1 << members) - 1
    depth = 0
    while 2 << depth <= members and split(full, depth + 1, depth + 1) == 2 << depth:
        depth += 1
    return depth


def ldim_tree(masks: Sequence[int], n_points: int) -> tuple:
    """(depth, node_labels, leaf_labels) of a fully well-labeled tree of
    depth ldim, in littlestone.LabeledTree's labeling; masks must be
    nonempty.

    Walks one split search: a node with subfamily s and r levels left
    takes the lowest point whose two sides both have rho(r-1) = 2^(r-1),
    i.e. ldim at least r-1, and each leaf names the lowest member index
    consistent with its path.
    """
    cols = _columns(masks, n_points)
    split = _rho_search(cols)
    depth = _full_depth(split, len(masks))
    nodes: dict = {}
    leaves: dict = {}

    def build(prefix: str, s: int, r: int) -> None:
        if r == 0:
            leaves[prefix] = (s & -s).bit_length() - 1
            return
        full = 1 << (r - 1)
        for x, col in enumerate(cols):
            pos = s & col
            neg = s ^ pos
            if split(neg, r - 1, depth) == full and split(pos, r - 1, depth) == full:
                nodes[prefix] = x
                build(prefix + "0", neg, r - 1)
                build(prefix + "1", pos, r - 1)
                return
        raise AssertionError("split recursion invariant violated")

    build("", (1 << len(masks)) - 1, depth)
    return depth, nodes, leaves


def rho(masks: Sequence[int], n_points: int, lo: int, hi: int) -> list:
    """[rho(d) for d in lo..hi]: the most well-labeled leaves over
    depth-d trees, asked of one split search in ascending order.  Once
    rho(k) < 2^k, ldim <= k-1, and that bound caps every deeper depth."""
    split = _rho_search(_columns(masks, n_points))
    full = (1 << len(masks)) - 1
    bound = hi
    values = []
    for depth in range(lo, hi + 1):
        value = split(full, depth, min(bound, depth))
        if value < 1 << depth:
            bound = min(bound, depth - 1)
        values.append(value)
    return values
