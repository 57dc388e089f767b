"""The exhaustive tree oracles against list-path references.

`vcdim_via_trees` tests each membership pattern with one mask
comparison per member.  `rho_via_trees` tests each leaf with one lookup
in the set of traces {m & care} that the two leaves under a last-level
node share.  The references below walk the same trees but carry the
path as a list of (point, branch) pairs and test every step of it, as
the definitions read; both must agree on every family.
"""

import random
from itertools import product

import pytest

from zerotrace import _kernels
from zerotrace.claims import random_family
from zerotrace.littlestone import rho_via_trees
from zerotrace.setsystem import NEG_INF, GroundSet, SetFamily, vcdim, vcdim_via_trees


def reference_vcdim(fam):
    if not fam.masks:
        return NEG_INF
    n = fam.ground.size
    best = 0
    d = 1
    while d <= n:
        found = False
        for points in product(range(n), repeat=d):
            bits = [1 << p for p in points]
            if all(
                any(
                    all(bool(m & bits[i]) == bool(pattern & (1 << i)) for i in range(d))
                    for m in fam.masks
                )
                for pattern in range(1 << d)
            ):
                found = True
                break
        if not found:
            break
        best = d
        d += 1
    return best


def reference_rho(fam, n):
    if not fam.masks:
        return 0
    size = fam.ground.size

    def best(path, remaining):
        if remaining == 0:
            for mask in fam.masks:
                if all(bool(mask & (1 << p)) == b for p, b in path):
                    return 1
            return 0
        top = 0
        for point in range(size):
            left = best(path + [(point, False)], remaining - 1)
            right = best(path + [(point, True)], remaining - 1)
            if left + right > top:
                top = left + right
        return top

    return best([], n)


def family(size, *sets):
    return SetFamily.from_index_sets(GroundSet(size), sets)


#: Families on which a path or pattern that names one point twice must
#: count as unrealized: a one-point ground set has vcdim 1 and rho(2) = 2,
#: though a leaf test that ignored the repeat would find vcdim 2 and
#: rho(2) = 4 on it.
HAND_BUILT = [
    (family(1, (), (0,)), 1, [1, 2, 2, 2]),
    (family(1, (0,)), 0, [1, 1, 1, 1]),
    (family(2, (), (0,), (1,)), 1, [1, 2, 3, 3]),
    (family(2, (), (0,), (1,), (0, 1)), 2, [1, 2, 4, 4]),
    (family(3, (0, 1), (2,)), 1, [1, 2, 2, 2]),
    (family(0, ()), 0, [1, 0, 0, 0]),
    (family(3), NEG_INF, [0, 0, 0, 0]),
]


@pytest.mark.parametrize("fam, vc, rhos", HAND_BUILT, ids=lambda x: str(getattr(x, "masks", x)))
def test_oracles_on_hand_built_families(fam, vc, rhos):
    assert vcdim_via_trees(fam) == reference_vcdim(fam) == vc
    for n, value in enumerate(rhos):
        assert rho_via_trees(fam, n) == reference_rho(fam, n) == value


def test_oracles_match_references_on_seeded_families():
    rng = random.Random(20240601)
    sizes = set()
    for _ in range(500):
        fam = random_family(rng, max_points=6, max_sets=12)
        sizes.add((fam.ground.size, len(fam.masks)))
        assert vcdim_via_trees(fam) == reference_vcdim(fam), fam
        for n in range(4):
            assert rho_via_trees(fam, n) == reference_rho(fam, n), (fam, n)
    assert {s for s, _ in sizes} == set(range(7))
    assert {k for _, k in sizes} == set(range(13))


def test_oracles_answer_without_the_kernels(monkeypatch):
    def no_kernels(*args, **kwargs):
        raise AssertionError("a tree oracle called the bitmask kernels")

    for name, value in list(vars(_kernels).items()):
        if callable(value) and getattr(value, "__module__", None) == _kernels.__name__:
            monkeypatch.setattr(_kernels, name, no_kernels)
    fam = family(3, (), (0,), (1,), (0, 2), (1, 2))
    with pytest.raises(AssertionError, match="bitmask kernels"):
        vcdim(fam)
    assert vcdim_via_trees(fam) == 2
    assert [rho_via_trees(fam, n) for n in range(4)] == [1, 2, 4, 5]
