"""Bitmask kernels: agreement with a tuple-recursion reference, invariants.

The reference below is the straightforward form of each recursion:
subfamilies are sorted tuples of masks, split point by point with no
pruning beyond the ldim depth cap.  The pi reference counts the traces
on every k-point subset, so it shares neither the subset search nor its
Sauer-Shelah cap.  The kernels must return the same values on every
input.
"""

import os
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import zerotrace
from conftest import random_mask_family
from zerotrace import _kernels
from zerotrace._kernels import binom_le
from zerotrace.instances import high_vcden
from zerotrace.zerosets import Sample, enumerate_family_flats


def _ref_submasks(n_points, k):
    for combo in combinations(range(n_points), k):
        yield sum(1 << i for i in combo)


def _ref_count(masks, submask):
    return len({m & submask for m in masks})


def ref_vcdim(masks, n_points):
    best = 0
    for k in range(1, min(n_points, len(masks).bit_length() - 1) + 1):
        if not any(_ref_count(masks, sub) == 1 << k for sub in _ref_submasks(n_points, k)):
            return best
        best = k
    return best


def ref_pi(masks, n_points, k):
    if not masks:
        return 0
    return max(_ref_count(masks, sub) for sub in _ref_submasks(n_points, k))


def ref_pi_range(masks, n_points, lo, hi):
    """[pi(k) for k in lo..hi]; no k-point subset exists past the ground."""
    return [ref_pi(masks, n_points, k) if k <= n_points else 0 for k in range(lo, hi + 1)]


def ref_ldim(masks, n_points):
    memo = {}

    def rec(fam):
        if fam in memo:
            return memo[fam]
        best = 0
        if len(fam) > 1:
            cap = len(fam).bit_length() - 1
            for x in range(n_points):
                pos = tuple(m for m in fam if m >> x & 1)
                if not pos or len(pos) == len(fam):
                    continue
                neg = tuple(m for m in fam if not m >> x & 1)
                best = max(best, 1 + min(rec(neg), rec(pos)))
                if best == cap:
                    break
        memo[fam] = best
        return best

    return rec(tuple(sorted(masks)))


def ref_rho(masks, n_points, depth):
    memo = {}

    def rec(fam, d):
        if not fam:
            return 0
        if d == 0:
            return 1
        if len(fam) == 1 and n_points > 0:
            return 1
        if (fam, d) not in memo:
            best = 0
            for x in range(n_points):
                pos = tuple(m for m in fam if m >> x & 1)
                neg = tuple(m for m in fam if not m >> x & 1)
                best = max(best, rec(neg, d - 1) + rec(pos, d - 1))
            memo[fam, d] = best
        return memo[fam, d]

    return rec(tuple(sorted(masks)), depth)


def _grid_masks(d, n):
    inst = high_vcden(d)
    fam = enumerate_family_flats(Sample.take(inst, inst.profile_points(n))).to_set_family()
    return list(fam.masks), fam.ground.size


def assert_pi_search_matches_reference(masks, n):
    for lo in range(n + 2):
        for hi in range(lo, n + 2):
            assert _kernels.pi(masks, n, lo, hi) == ref_pi_range(masks, n, lo, hi), (
                masks, n, lo, hi
            )


def assert_matches_reference(masks, n, max_depth):
    if masks:
        assert _kernels.vcdim(masks, n) == ref_vcdim(masks, n), masks
        assert _kernels.ldim(masks, n) == ref_ldim(masks, n), masks
    assert_pi_search_matches_reference(masks, n)
    ref = [ref_rho(masks, n, depth) for depth in range(max_depth + 1)]
    for lo in range(max_depth + 1):
        assert _kernels.rho(masks, n, lo, max_depth) == ref[lo:], (masks, lo)
        assert _kernels.rho(masks, n, lo, lo) == [ref[lo]], (masks, lo)


def test_kernels_match_reference_on_seeded_families(rng):
    for _ in range(300):
        n = rng.randint(1, 7)
        masks = random_mask_family(rng, n, rng.randint(1, 20))
        rng.shuffle(masks)  # member order must not matter
        assert_matches_reference(masks, n, min(n, 5))


def test_kernels_match_reference_on_edge_families():
    assert_matches_reference([], 3, 3)  # the empty family
    assert _kernels.rho([], 3, 0, 3) == [0] * 4
    assert_matches_reference([0], 0, 3)  # ground 0
    for n in range(4):
        assert_matches_reference([0b101 & ((1 << n) - 1)], n, 3)  # a single set
    for n in range(6):
        powerset = list(range(1 << n))
        assert_matches_reference(powerset, n, min(n, 3))
        assert _kernels.pi(powerset, n, 0, n) == [1 << k for k in range(n + 1)]
    assert _kernels.rho([0], 0, 0, 3) == [ref_rho([0], 0, d) for d in range(4)] == [1, 0, 0, 0]
    assert _kernels.ldim([0], 0) == ref_ldim([0], 0) == 0


def test_kernels_match_reference_on_designed_grid():
    masks, n = _grid_masks(3, 5)
    assert_matches_reference(masks, n, 5)
    assert _kernels.rho(masks, n, 0, 5) == [1, 2, 4, 7, 11, 16]
    masks, n = _grid_masks(3, 7)
    assert (n, len(masks)) == (15, 74)
    profile = [1, 2, 4, 7, 11, 14, 18, 22]
    assert _kernels.pi(masks, n, 0, 7) == profile
    assert [_kernels.pi(masks, n, k, k)[0] for k in range(8)] == profile


def test_ldim_is_deepest_full_rho_depth(rng):
    cases = [_grid_masks(3, 5)]
    for _ in range(200):
        n = rng.randint(0, 7)
        cases.append((random_mask_family(rng, n, rng.randint(1, 30)), n))
    for masks, n in cases:
        ld = _kernels.ldim(masks, n)
        rhos = _kernels.rho(masks, n, 0, n + 1)
        full = [r for r in range(len(masks).bit_length()) if rhos[r] == 1 << r]
        assert ld == max(full), (masks, n)
        # rho is full exactly up to ldim, also past the 2^r <= len(masks) guard
        for r in range(n + 2):
            assert (rhos[r] == 1 << r) == (r <= ld), (masks, n, r)


def test_pi_search_matches_reference_at_every_depth_range(rng):
    for _ in range(150):
        n = rng.randint(0, 8)
        masks = random_mask_family(rng, n, rng.randint(1, 24))
        rng.shuffle(masks)
        assert_pi_search_matches_reference(masks, n)


def test_pi_search_meets_the_sauer_shelah_cap_without_scanning_every_subset():
    # The 20-point moment curve d=4 family: every set of at most 3 points,
    # so pi(k) = C(k, <= 3) and no prefix fills 2^k past k = 3.  Scanning
    # all C(20, k) subsets per depth takes tens of seconds; the capped
    # search is done once vcdim has proved V = 3, and vcdim itself only
    # expands the C(20, <= 3) shattered subsets.
    script = (
        "from zerotrace import _kernels\n"
        "from zerotrace.instances import moment_curve\n"
        "from zerotrace.littlestone import vc_profile\n"
        "from zerotrace.zerosets import Sample, enumerate_family_flats\n"
        "sample = Sample.take(moment_curve(4), range(-10, 10))\n"
        "fam = enumerate_family_flats(sample).to_set_family()\n"
        "vc = _kernels.vcdim(fam.masks, fam.ground.size)\n"
        "print(len(fam.masks), vc, *vc_profile(fam, 8))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(zerotrace.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=10
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(v) for v in (1351, 3, *(binom_le(k, 3) for k in range(9)))]


def _depth_orders(rng, top):
    """Depth orders for one search: deepest first, descending, shuffled,
    each asked twice, so bounds proved by deep calls meet shallow ones."""
    shuffled = list(range(top + 1))
    rng.shuffle(shuffled)
    return [
        [top, *range(top + 1)],
        list(range(top, -1, -1)) * 2,
        shuffled + shuffled[::-1],
    ]


def _rho_search_cases(rng):
    """(masks, n_points, deepest depth): seeded random families, the
    designed grid at n = 5 and 6, and high_vcden:4."""
    cases = []
    for _ in range(60):
        n = rng.randint(1, 7)
        cases.append((random_mask_family(rng, n, rng.randint(1, 30)), n, min(n + 1, 6)))
    cases.append((*_grid_masks(3, 5), 6))
    cases.append((*_grid_masks(3, 6), 6))
    cases.append((*_grid_masks(4, 4), 5))
    return cases


def test_one_search_matches_reference_at_shuffled_depths(rng):
    # each call passes either the family's ldim or its own depth, so
    # values memoized under the tight bound meet calls under the loose one
    for masks, n, top in _rho_search_cases(rng):
        ref = [ref_rho(masks, n, depth) for depth in range(top + 1)]
        ld = ref_ldim(masks, n)
        cols = _kernels._columns(masks, n)
        full = (1 << len(masks)) - 1
        for order in _depth_orders(rng, top):
            split = _kernels._rho_search(cols)
            got = [split(full, depth, rng.choice((ld, depth))) for depth in order]
            assert got == [ref[depth] for depth in order], (masks, n, order)


def test_bound_proved_on_a_subfamily_never_caps_the_family(rng):
    # a small subfamily is searched under its own low ldim bound first;
    # the whole family, of higher ldim, must still get its exact rho
    # from the same search
    for masks, n, top in _rho_search_cases(rng)[::4]:
        members = len(masks)
        cols = _kernels._columns(masks, n)
        split = _kernels._rho_search(cols)
        assert split(1, 1, 0) == 1  # member 0 alone: ldim 0
        for _ in range(3):
            chosen = rng.sample(range(members), rng.randint(1, members))
            sub = [masks[i] for i in chosen]
            s = sum(1 << i for i in chosen)
            depth = rng.randint(0, top)
            assert split(s, depth, ref_ldim(sub, n)) == ref_rho(sub, n, depth), (masks, sub)
        ld = ref_ldim(masks, n)
        for depth in rng.sample(range(top + 1), top + 1):
            assert split((1 << members) - 1, depth, ld) == ref_rho(masks, n, depth), (masks, depth)


def test_rho_matches_reference_when_ldim_is_below_log_family_size(rng):
    # the sets of size <= k: ldim k, far below log2 |F|, so C(depth, <= ldim)
    # caps the search well before min(|F|, 2^depth) does
    cases = [([m for m in range(1 << n) if m.bit_count() <= k], n) for n, k in ((5, 1), (6, 2), (7, 1))]
    for n in (5, 6, 7):
        small = [m for m in range(1 << n) if m.bit_count() <= 2]
        cases.append((rng.sample(small, len(small) * 2 // 3), n))
    cases.append(_grid_masks(3, 5))
    for masks, n in cases:
        ld = _kernels.ldim(masks, n)
        assert ld == ref_ldim(masks, n), (masks, n)
        assert (1 << (ld + 1)) <= len(masks), (masks, ld)
        assert _kernels.vcdim(masks, n) == ref_vcdim(masks, n) <= ld, (masks, n)
        top = min(n, 6)
        ref = [ref_rho(masks, n, depth) for depth in range(top + 1)]
        assert all(r <= binom_le(depth, ld) for depth, r in enumerate(ref))
        assert _kernels.rho(masks, n, 0, top) == ref, masks
        cols = _kernels._columns(masks, n)
        full = (1 << len(masks)) - 1
        for order in _depth_orders(rng, top):
            split = _kernels._rho_search(cols)
            assert [split(full, depth, ld) for depth in order] == [ref[depth] for depth in order], (
                masks, order
            )


def test_rho_past_the_ground_size_is_the_family_size(rng):
    # a depth at or past the ground size fills one leaf per member, and
    # the root split at such a depth returns without recursing
    for _ in range(30):
        n = rng.randint(1, 5)
        masks = random_mask_family(rng, n, rng.randint(1, 20))
        values = []
        calls = _traced("split", lambda: values.extend(_kernels.rho(masks, n, 0, n + 3)))
        assert values == [ref_rho(masks, n, depth) for depth in range(n + 4)], (masks, n)
        assert values[n:] == [len(masks)] * 4
        deep = [args["d"] for args, _, _ in calls if args["d"] >= n]
        assert deep == list(range(n, n + 4)), (masks, n)
    assert _kernels.rho([0], 0, 0, 2) == [1, 0, 0]  # no point to label a node with


def test_rho_range_passes_its_root_the_bound_it_proved(rng):
    # depth until the first depth k with rho(k) < 2^k, then k - 1
    for masks, n in _child_bound_cases(rng)[::2]:
        top = min(n, 6)
        values, calls = _profile_calls(masks, n, top)
        roots = [(args["d"], args["bound"]) for args, caller, _ in calls if caller is None]
        short = next(k for k, value in enumerate(values) if value < 1 << k)
        assert short <= top, masks
        expected = [(depth, depth if depth <= short else short - 1) for depth in range(top + 1)]
        assert roots == expected, (masks, n)


def _traced(name, run):
    """Run run() and return one (args, caller_args, value) per call of the
    _kernels closure `name`: its arguments, its caller's locals when the
    caller is the same closure (else None), and what it returned."""
    calls, stack = [], []

    def profile(frame, event, arg):
        code = frame.f_code
        if code.co_name != name or frame.f_globals is not vars(_kernels):
            return
        if event == "call":
            parent = frame.f_back
            stack.append((dict(frame.f_locals), dict(parent.f_locals) if parent.f_code is code else None))
        elif event == "return":
            calls.append((*stack.pop(), arg))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def _profile_calls(masks, n, top):
    """The split calls of rho(0..top), the range littlestone_profile asks,
    so the root bound is proved early."""
    values = []
    calls = _traced("split", lambda: values.extend(_kernels.rho(masks, n, 0, top)))
    return values, calls


def _lowered_bound_stops(calls):
    """Split calls ended by the L-1 bound their parent passed down: the
    node stopped at C(d, <= L-1), which its parent's L would not allow."""
    stops = 0
    for args, caller, value in calls:
        if caller is None or args["bound"] != caller["bound"] - 1:
            continue
        s, d, bound = args["s"], args["d"], args["bound"]
        if value == binom_le(d, bound) < min(s.bit_count(), binom_le(d, bound + 1)):
            stops += 1
    return stops


def _child_bound_cases(rng):
    """Seeded families whose rho values rest on a child's L-1 bound:
    random subfamilies of the sets of size <= k (ldim <= k, far below
    log2 |F|, so a side can meet C(d-1, <= L-1) exactly), and the
    designed grid."""
    cases = []
    for _ in range(24):
        n, k = rng.choice(((6, 2), (7, 2), (7, 3)))
        small = [m for m in range(1 << n) if m.bit_count() <= k]
        cases.append((sorted(rng.sample(small, rng.randint(len(small) // 2, len(small)))), n))
    cases.append(_grid_masks(3, 6))
    return cases


def test_child_bound_matches_reference_where_it_decides(rng):
    decided = 0
    for masks, n in _child_bound_cases(rng):
        top = min(n, 6)
        values, calls = _profile_calls(masks, n, top)
        assert values == [ref_rho(masks, n, depth) for depth in range(top + 1)], (masks, n)
        stops = _lowered_bound_stops(calls)
        decided += stops > 0
        if stops:  # the same values asked deepest first, with no root bound
            split = _kernels._rho_search(_kernels._columns(masks, n))
            full = (1 << len(masks)) - 1
            assert [split(full, depth, depth) for depth in range(top, -1, -1)] == values[::-1]
    assert decided >= 20, decided  # the bound ends nodes on most of these families


def _relabeled(rng, masks, n):
    perm = rng.sample(range(n), n)
    return [sum(1 << perm[x] for x in range(n) if m >> x & 1) for m in masks]


def _two_part_family(rng):
    """Point x with the sets {x} and {x, a} for a in a group A (ldim 1),
    beside fewer sets of size <= 2 on a group B of 4 points (ldim 2), on
    points relabeled at random: splitting on x leaves a larger side of
    ldim 1 that never exceeds C(d-1, <= 1), and a smaller side that
    needs its full bound."""
    a = rng.randint(6, 7)
    n = a + 5
    group_a = [1 << (1 + i) for i in range(a)]
    group_b = [1 << (1 + a + i) for i in range(4)]
    larger = [1] + [1 | m for m in group_a]
    smaller = [sum(c) for r in range(3) for c in combinations(group_b, r)]
    masks = larger + rng.sample(smaller, rng.randint(4, len(larger) - 1))
    return sorted(_relabeled(rng, masks, n)), n


def test_other_side_keeps_its_bound_until_the_larger_side_exceeds(rng):
    needed = 0
    for _ in range(30):
        masks, n = _two_part_family(rng)
        values, calls = _profile_calls(masks, n, 4)
        assert values == [ref_rho(masks, n, depth) for depth in range(5)], (masks, n)
        for args, caller, value in calls:
            # the smaller side, searched under L because the larger side
            # did not exceed C(d, <= L-1), fills more than L-1 allows
            if caller is not None and args["s"] == caller["neg"] != caller["pos"]:
                bound = args["bound"]
                needed += bound == caller["bound"] and value > binom_le(args["d"], bound - 1)
    assert needed >= 100, needed


def test_split_search_never_tries_a_trivial_split(rng):
    for masks, n in _child_bound_cases(rng)[::3]:
        _, calls = _profile_calls(masks, n, min(n, 6))
        for args, caller, _ in calls:
            if caller is not None:
                # a child is a nonempty proper part of its parent
                assert args["s"] and args["s"] & ~caller["s"] == 0 and args["s"] != caller["s"], (
                    masks, n
                )


def ref_blocks(masks, n_points):
    """Points x < y in one block iff swapping x and y maps the family onto
    itself, tested on every pair."""
    family = set(masks)

    def swapped(m, x, y):
        return m ^ (1 << x | 1 << y) if (m >> x ^ m >> y) & 1 else m

    blocks = []
    for x in range(n_points):
        for block in blocks:
            if all({swapped(m, x, y) for m in masks} == family for y in block):
                block.append(x)
                break
        else:
            blocks.append([x])
    return blocks


def planted_family(rng, sizes):
    """A family invariant under any permutation of the points within each
    block: a union of random orbits, each orbit the sets with given counts
    in every block, on blocks of the given sizes scattered over the points."""
    n = sum(sizes)
    order = rng.sample(range(n), n)
    blocks = []
    for size in sizes:
        blocks.append(sorted(order[:size]))
        order = order[size:]
    counts = list(product(*(range(size + 1) for size in sizes)))
    kept = set(rng.sample(counts, rng.randint(1, len(counts))))
    masks = [m for m in range(1 << n) if tuple(sum(m >> x & 1 for x in b) for b in blocks) in kept]
    return masks, n


def _planted_cases(rng):
    cases = []
    for _ in range(40):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        while sum(sizes) > 8:
            sizes.pop()
        masks, n = planted_family(rng, sizes)
        if rng.random() < 0.3:  # one extra set breaks some of the symmetry
            masks = sorted(set(masks) | {rng.randrange(1 << n)})
        cases.append((masks, n))
    return cases


def test_blocks_are_the_interchangeable_points(rng):
    cases = _planted_cases(rng)
    for _ in range(100):
        n = rng.randint(1, 7)
        cases.append((random_mask_family(rng, n, rng.randint(1, 30)), n))
    cases += [([m for m in range(1 << 6) if m.bit_count() <= 2], 6), _grid_masks(3, 6)]
    merged = 0
    for masks, n in cases:
        blocks = _kernels._blocks(masks, _kernels._columns(masks, n))
        assert blocks == ref_blocks(masks, n), (masks, n)
        merged += len(blocks) < n
    assert merged >= 40  # most cases have symmetry to find


def test_pi_and_vcdim_match_reference_and_ignore_relabeling(rng):
    for masks, n in _planted_cases(rng):
        profile = ref_pi_range(masks, n, 0, n)
        vc = ref_vcdim(masks, n)
        for relabeled in (masks, *(_relabeled(rng, masks, n) for _ in range(3))):
            assert _kernels.pi(relabeled, n, 0, n) == profile, (masks, n)
            assert _kernels.vcdim(relabeled, n) == vc, (masks, n)
        assert_pi_search_matches_reference(masks, n)


def test_subset_search_visits_block_prefixes_only(rng):
    cases = _planted_cases(rng)[:15] + [_grid_masks(3, 6)]
    for masks, n in cases:
        blocks = ref_blocks(masks, n)
        for run in (lambda: _kernels.pi(masks, n, 0, n), lambda: _kernels.vcdim(masks, n)):
            for args, _, _ in _traced("visit", run):
                chosen = args["chosen"]
                for block in blocks:
                    taken = [x for x in block if chosen >> x & 1]
                    assert taken == block[: len(taken)], (masks, n, block, chosen)


def test_grid_pi_search_visits_one_subset_per_block_count():
    # the 15 grid points fall into two blocks of interchangeable points,
    # so the search visits at most one subset per pair of counts taken
    # from them, not the C(15, <= 6) subsets of the ground
    masks, n = _grid_masks(3, 7)
    blocks = _kernels._blocks(masks, _kernels._columns(masks, n))
    assert sorted(len(block) for block in blocks) == [7, 8]
    visits = _traced("visit", lambda: _kernels.pi(masks, n, 0, 7))
    assert len(visits) <= 8 * 9


masks_strategy = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.integers(0, (1 << n) - 1), min_size=1, max_size=10, unique=True
        ),
    )
)


@given(masks_strategy)
def test_vcdim_bounded_by_log_family_size(case):
    n, masks = case
    d = _kernels.vcdim(masks, n)
    assert (1 << d) <= len(masks)
    assert d <= n


@given(masks_strategy)
def test_pi_monotone_and_sauer(case):
    n, masks = case
    d = _kernels.vcdim(masks, n)
    values = _kernels.pi(masks, n, 0, n)
    assert values[0] == 1
    assert all(a <= b for a, b in zip(values, values[1:]))
    for k, v in enumerate(values):
        assert v <= binom_le(k, d)


@given(masks_strategy)
def test_rho_monotone_and_dominates_pi(case):
    n, masks = case
    ld = _kernels.ldim(masks, n)
    rhos = _kernels.rho(masks, n, 0, n)
    assert all(a <= b for a, b in zip(rhos, rhos[1:]))
    assert all(r <= len(masks) for r in rhos)
    for k, p in enumerate(_kernels.pi(masks, n, 0, n)):
        assert p <= rhos[k]
        assert rhos[k] <= binom_le(k, ld)


@given(masks_strategy)
def test_vcdim_at_most_ldim(case):
    n, masks = case
    assert _kernels.vcdim(masks, n) <= _kernels.ldim(masks, n)


def test_count_restrictions_hand_case():
    # sets {0}, {1}, {0,1} restricted to {0}: traces {}, {0}
    assert _kernels.count_restrictions([0b01, 0b10, 0b11], 0b01) == 2
    assert _kernels.count_restrictions([0b01, 0b10, 0b11], 0b11) == 3


def test_powerset_dimensions():
    n = 3
    masks = list(range(1 << n))
    assert _kernels.vcdim(masks, n) == n
    assert _kernels.ldim(masks, n) == n
    assert _kernels.pi(masks, n, n, n) == [1 << n]
    assert _kernels.rho(masks, n, n, n) == [1 << n]


def test_backend_name_is_pure():
    assert _kernels.backend_name() == "pure"
