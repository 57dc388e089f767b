"""The exhaustive oracles, and the kernel vcdim, against list-path references.

`rho_via_trees` tests each leaf with one lookup in the set of traces
{m & care} on the points the path names; one table per call builds each
such set on its first read and holds no verdict of the search.
`pi_via_subsets` counts the distinct traces m & S over every k-subset S.
The references below walk the same trees and subsets but carry the path
or subset as a list of points (with branches) and test every step of
it, as the definitions read; both must agree on every family.  The
kernel `vcdim` is checked against `reference_vcdim`, the level-balanced
tree definition (one point per level, repeats allowed).  Neither oracle
may reach the bitmask kernels, at run time or in its source.
"""

import ast
import inspect
import random
from itertools import product

import pytest

from zerotrace import _kernels
from zerotrace.claims import random_family
from zerotrace.errors import DimensionMismatchError
from zerotrace.littlestone import rho_via_trees
from zerotrace.setsystem import (
    NEG_INF,
    GroundSet,
    SetFamily,
    pi_via_subsets,
    vcdim,
)


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


def reference_pi(fam, k):
    size = fam.ground.size
    best = 0
    for chosen in range(1 << size):
        points = [p for p in range(size) if chosen >> p & 1]
        if len(points) == k:
            traces = {tuple(bool(m & (1 << p)) for p in points) for m in fam.masks}
            best = max(best, len(traces))
    return best


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
    assert vcdim(fam) == reference_vcdim(fam) == vc
    for n, value in enumerate(rhos):
        assert rho_via_trees(fam, n) == reference_rho(fam, n) == value


def test_oracles_match_references_on_seeded_families():
    rng = random.Random(20240601)
    sizes = set()
    for _ in range(500):
        fam = random_family(rng)
        sizes.add((fam.ground.size, len(fam.masks)))
        assert vcdim(fam) == reference_vcdim(fam), fam
        for n in range(4):
            assert rho_via_trees(fam, n) == reference_rho(fam, n), (fam, n)
        for k in range(fam.ground.size + 1):
            assert pi_via_subsets(fam, k) == reference_pi(fam, k), (fam, k)
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
    assert [rho_via_trees(fam, n) for n in range(4)] == [1, 2, 4, 5]
    assert [pi_via_subsets(fam, k) for k in range(4)] == [1, 2, 4, 5]


def test_pi_oracle_rejects_a_size_outside_the_ground_set():
    fam = family(2, (0,))
    with pytest.raises(DimensionMismatchError):
        pi_via_subsets(fam, 3)
    with pytest.raises(DimensionMismatchError):
        pi_via_subsets(fam, -1)
    assert [pi_via_subsets(family(2), k) for k in range(3)] == [0, 0, 0]


#: Names through which an oracle would reach the kernels' answer.
KERNEL_NAMES = {"_kernels", "count_restrictions"}


def _kernel_names_in(source: str) -> set:
    """Kernel names that source reads, as a bare name, an attribute or an
    imported name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found & KERNEL_NAMES


def test_guard_sees_each_way_of_naming_the_kernels():
    assert _kernel_names_in("from . import _kernels") == {"_kernels"}
    assert _kernel_names_in("from ._kernels import count_restrictions as c") == {
        "count_restrictions"
    }
    assert _kernel_names_in("k.count_restrictions(masks, care)") == {"count_restrictions"}
    assert _kernel_names_in("_kernels.pi(masks, n, 0, n)") == {"_kernels"}


@pytest.mark.parametrize(
    "oracle",
    [pi_via_subsets, rho_via_trees],
    ids=lambda f: f.__name__,
)
def test_oracle_sources_name_no_kernel(oracle):
    assert _kernel_names_in(inspect.getsource(oracle)) == set()
