"""Bitmask kernels for the combinatorial searches.

Families are sequences of distinct integer bitmasks over ground points
0..n_points-1 (bit i set means point i belongs to the set).  The one
Littlestone recursion, the rho split search, works on subfamilies, each
an int bitset over member indices (bit i set means member i is in it);
with one column bitset per ground point a split is two bit operations,
and (subfamily, depth) is the memo key.  A node stops at the most
leaves its subfamily can fill, min(|s|, C(depth, <= L)), where L is an
ldim bound that the search has proved from its own rho values.  ldim is
read off that search as the deepest depth at which rho fills every
leaf; littlestone reads the rho profile and the ldim witness tree off
one search each.

The VC side has one search too: a depth-first search over increasing
point subsets that refines the restriction classes, as member bitsets,
by the same column bitsets, and raises the most classes seen at each
depth toward a cap.  pi(lo..hi) is that search capped at
min(|F|, C(k, <= V)) (Sauer-Shelah); pi(k) is lo = hi = k, and
littlestone's VC profile reads pi(0..n) off one search.  vcdim, the V
of that cap, is read off the same search as ldim is read off rho's:
seeded one class short of 2^k at every depth, it expands only
shattered subsets, and vcdim is the deepest depth that reaches 2^k.
binom_le gives every C(k, <= L) the caps use.
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
    """C(n,0) + C(n,1) + ... + C(n,upper): 2^n once upper >= n.

    Cached, since the rho search rebuilds its cap table whenever the
    asked depth or its proved bound changes.
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


def count_restrictions(masks: Sequence[int], submask: int) -> int:
    """Number of distinct intersections of family sets with submask."""
    return len({m & submask for m in masks})


def vcdim(masks: Sequence[int], n_points: int) -> int:
    """Largest k such that some k-point subset is shattered.

    masks must be nonempty.
    """
    return _shattered_depth(_columns(masks, n_points), len(masks))


def _shattered_depth(cols: list, members: int) -> int:
    """vcdim read off the subset search over a family of that many
    members with column bitsets cols.

    Seeded with best[k] = 2^k - 1 and cap[k] = 2^k, a node of depth j
    with c classes expands only while c * 2^(k-j) > 2^k - 1 for some
    unfilled k, that is while its subset is shattered.  Shattered
    subsets are downward closed, so depth k reaches 2^k exactly when
    some k-set is shattered.  No k with 2^k > members is tried.
    """
    top = min(len(cols), members.bit_length() - 1)
    best = [(1 << k) - 1 for k in range(top + 1)]
    _subset_search(cols, members, 1, best, [1 << k for k in range(top + 1)])
    depth = 0
    while depth < top and best[depth + 1] == 2 << depth:
        depth += 1
    return depth


def pi(masks: Sequence[int], n_points: int, k: int) -> int:
    """Max number of distinct traces over any k-point subset."""
    return _pi_search(masks, n_points, k, k)[0]


def _pi_search(masks: Sequence[int], n_points: int, lo: int, hi: int) -> list:
    """[pi(k) for k in lo..hi], read off one subset search.

    No depth-k subset has more than min(|F|, C(k, <= V)) traces
    (Sauer-Shelah), with V the family's VC dimension read off the same
    columns, so that is the cap.  Before building columns it counts the
    prefixes: if the first k points already give min(|F|, 2^k) traces
    at every asked k, those counts are the answer.  Otherwise they seed
    the search.  Depths past the ground size give 0.
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
    vc = _shattered_depth(cols, members)
    _subset_search(cols, members, lo, best, [min(members, binom_le(k, vc)) for k in range(top + 1)])
    return best[lo:]


def _subset_search(cols: list, members: int, lo: int, best: list, cap: list) -> None:
    """Raise best[k] to the most restriction classes any k points carry,
    for lo <= k < len(cap), unless best[k] reaches cap[k] first.

    A depth-first search adds points in increasing order and carries the
    restriction classes of the current subset as member bitsets; adding
    point x refines each class by the column bitset cols[x].  A class of
    one member never splits, so only a count of those is kept.  A subset
    with c classes and depth j can reach at most c * 2^(k-j) classes at
    depth k, so a node is expanded only while some depth k within its
    reach has best[k] < cap[k] and best[k] < c * 2^(k-j).  With cap[k]
    a true bound, every best[k] the search leaves is exact.
    """
    n_points = len(cols)
    top = len(cap) - 1

    def visit(start: int, classes: list, singles: int, depth: int) -> None:
        count = len(classes) + singles
        child = depth + 1
        for x in range(start, n_points):
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
            visit(x + 1, split, alone, child)

    visit(0, [(1 << members) - 1], 0, 0)


def _rho_search(cols: list):
    """rec(s, d): rho of the subfamily s at depth d, over one shared memo
    and the column bitsets cols of _columns.

    Recursion: at depth 0 a lone leaf is well-labeled iff the subfamily
    is nonempty; otherwise the best root point splits it and the two
    subtrees contribute independently.  A node stops once it fills
    min(|s|, C(d, <= L)) leaves, the most any subfamily of ldim <= L
    can: a split of such a family has one side of ldim <= L-1, so
    rho(s, d) <= C(d-1, <= L) + C(d-1, <= L-1) (Bhaskar's Littlestone
    analogue of Sauer-Shelah).  L is proved by the search itself: once
    a call returns rho(t, k) < 2^k, ldim(t) <= k-1, and that bound caps
    every later call on a subfamily of t.  With no bound yet the cap is
    2^d.  A cap only ends a node that already reached it, so every value
    returned and memoized is exact.
    """
    memo: dict = {}
    root = limit = None  # ldim(subfamily of root) <= limit, once proved
    caps = [1]  # caps[d] >= rho(t, d) for every t the current call visits
    caps_limit = None  # the bound caps was built for

    def split(s: int, d: int) -> int:
        if not s:
            return 0
        if d == 0:
            return 1
        size = s.bit_count()
        if size == 1 and cols:
            return 1  # label every node with any point; one consistent path
        key = (s, d)
        cached = memo.get(key)
        if cached is not None:
            return cached
        cap = caps[d]
        if size < cap:
            cap = size
        best = 0
        tried = set()
        for col in cols:
            if best == cap:
                break
            pos = s & col
            if pos in tried:
                continue
            neg = s ^ pos
            tried.add(pos)
            tried.add(neg)
            value = split(neg, d - 1) + split(pos, d - 1)
            if value > best:
                best = value
        memo[key] = best
        return best

    def rec(s: int, d: int) -> int:
        nonlocal root, limit, caps, caps_limit
        bound = limit if limit is not None and not s & ~root else None
        if bound != caps_limit or len(caps) <= d:
            top = max(d + 1, len(caps))
            caps = [binom_le(k, k if bound is None else bound) for k in range(top)]
            caps_limit = bound
        value = split(s, d)
        if d and value < 1 << d and (limit is None or d - 1 < limit and not root & ~s):
            root, limit = s, d - 1
        return value

    return rec


def ldim(masks: Sequence[int], n_points: int) -> int:
    """Largest depth of a fully well-labeled binary tree.

    That is the largest r with rho(r) = 2^r: cutting a level off such a
    tree leaves one of depth r-1.  Each member labels at most one
    well-labeled leaf, so no r with 2^r > len(masks) is tried.
    """
    return _full_depth(_rho_search(_columns(masks, n_points)), len(masks))


def _full_depth(rec, members: int) -> int:
    """ldim read off a search rec over a family of that many members:
    the deepest depth at which rec fills every leaf."""
    full = (1 << members) - 1
    depth = 0
    while 2 << depth <= members and rec(full, depth + 1) == 2 << depth:
        depth += 1
    return depth


def rho(masks: Sequence[int], n_points: int, depth: int) -> int:
    """Max number of well-labeled leaves over depth-`depth` trees."""
    return _rho_search(_columns(masks, n_points))((1 << len(masks)) - 1, depth)
