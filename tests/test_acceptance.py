"""Acceptance checklist: nine exact criteria, one test per criterion.

`pytest -v tests/test_acceptance.py` prints exactly one pass/fail line
per criterion.  All tolerances are exact integer / exact set equality.
Expected constants are frozen from independent recomputation (projective
brute force over prime fields, exhaustive tree search) or from direct
hand derivation, never from the code paths under test.
"""

from itertools import combinations

import pytest

from zerotrace._kernels import binom_le
from zerotrace.claims import DEFAULT_SEED, random_family
from zerotrace.constructions import (
    dual_basis,
    grid_max_tree,
    grid_membership,
    independence_sequence,
    max_vc_trace,
)
from zerotrace.errors import BudgetExhaustedError
from zerotrace.exactalg import QQ, PrimeField, Vector, dot, in_span, rank
from zerotrace.instances import (
    conics,
    ellipse_carrier,
    high_vcden,
    moment_curve,
    polynomial_instance,
    two_lines,
)
from zerotrace.littlestone import count_well_labeled, ldim, rho, rho_via_trees
from zerotrace.maximality import (
    minimal_spanning_reduction,
    non_maximality_certificate,
    require_span_injective,
)
from zerotrace.setsystem import NEG_INF, mask_to_indices, pi, pi_via_subsets, vcdim
from zerotrace.zerosets import (
    Sample,
    enumerate_family_bruteforce,
    enumerate_family_flats,
    linearly_independent,
)

import random

F3 = PrimeField(3)
F5 = PrimeField(5)


def dual_sample(inst):
    """The construction-derived sample: the dual-basis points."""
    return dual_basis(inst).sample


def independent_builtins():
    out = [moment_curve(d) for d in (2, 3, 4, 5)]
    out.append(polynomial_instance(F3, 2, ["1", "x"], ["x"], name="const_linear_f3"))
    out.append(conics())
    out.append(ellipse_carrier())
    return out


def test_criterion_1_dimensions_equal_d_minus_1():
    # both dimensions on the construction-derived sample; the two
    # headline instances pinned to their literal values 5 and 4
    expected = {"conics": 5, "ellipse_carrier": 4}
    for inst in independent_builtins():
        fam = enumerate_family_flats(dual_sample(inst)).to_set_family()
        vc, ld = vcdim(fam), ldim(fam)
        assert vc == inst.d - 1, inst.name
        assert ld == inst.d - 1, inst.name
        if inst.name in expected:
            assert vc == ld == expected[inst.name]


def test_criterion_2_trace_count_on_d_points():
    for inst in independent_builtins():
        if inst.d > 5:
            continue
        fam = enumerate_family_flats(dual_sample(inst)).to_set_family()
        assert pi(fam, inst.d) == 2 ** inst.d - 1, inst.name
        # the full sample is never a trace, everything else is
        assert len(fam) == 2 ** inst.d - 1, inst.name
        full = (1 << inst.d) - 1
        assert full not in fam.masks


def test_criterion_3_moment_curve_growth_meets_binomial_ceiling():
    inst = moment_curve(3)
    seq = independence_sequence(inst, 10)  # 8 points + d - 1 padding
    for n in range(3, 9):
        ceiling = binom_le(n, 2)
        realized = max_vc_trace(seq, n)
        assert len(realized) == ceiling
        fam = enumerate_family_flats(Sample.take(inst, seq.points[:n])).to_set_family()
        assert len(fam) == ceiling
        assert pi(fam, n) == ceiling
        assert rho(fam, n) == ceiling
        if n <= 3:
            assert rho_via_trees(fam, n) == ceiling


def test_criterion_4_plane_union_grid():
    inst = high_vcden(3)
    # membership pattern: column j on plane i is cut exactly at j == js[i]
    for i in range(2):
        for j in range(4):
            for j0 in range(4):
                for j1 in range(4):
                    assert grid_membership(QQ, 3, i, j, (j0, j1)) == (j == (j0, j1)[i])
    # 4^2 = 16 designed traces on the 8 grid points
    grid_pts = [(i, 1, j + 1) for i in range(2) for j in range(4)]
    fam = enumerate_family_flats(Sample.take(inst, grid_pts))
    assert len(fam) >= 16
    # the 2-plane cover certifies non-maximality at n = 5
    report = non_maximality_certificate(inst)
    assert report.verdict == "verified"
    assert report.n == 5
    assert report.bound == 16
    assert report.trace_count < 16
    # the big tree: exactly C(n, <=2) well-labeled leaves
    for n, expect in ((3, 7), (4, 11), (5, 16)):
        result = grid_max_tree(inst, n)
        assert count_well_labeled(result.tree, result.family) == expect


def test_criterion_5_two_line_image_collapses_traces():
    from zerotrace.zerosets import density_zero_partition

    cases = [
        (two_lines(), Sample.take(two_lines(), [1, 2, 3, 4]),
         [Vector(QQ, (1, 0)), Vector(QQ, (0, 1))]),
        (
            polynomial_instance(F3, 2, ["x^2", "x"], ["x"], name="square_linear_f3"),
            Sample.take(polynomial_instance(F3, 2, ["x^2", "x"], ["x"]), [0, 1, 2]),
            [Vector(F3, (1, 1)), Vector(F3, (1, 2))],
        ),
    ]
    for _, sample, lines in cases:
        report = density_zero_partition(sample, lines)
        assert report.bound == 4
        assert len(report.family) <= 4
        for z in report.family.sets:
            rebuilt = report.zero_block_mask
            for block in report.block_masks:
                if z.mask & block:
                    rebuilt |= block
            assert z.mask == rebuilt


def test_criterion_6_oracle_equivalences_on_seeded_families():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(200):
        fam = random_family(rng)
        n = fam.ground.size
        vc = vcdim(fam)
        ld = ldim(fam)
        shattered = [k for k in range(n + 1) if pi_via_subsets(fam, k) == 2**k]
        assert vc == max(shattered, default=NEG_INF)
        assert vc <= ld
        for k in range(n + 1):
            p_k, r_k = pi(fam, k), rho(fam, k)
            assert p_k <= r_k
            if fam.masks:  # the binomial ceilings presuppose a nonempty family
                assert p_k <= binom_le(k, vc)  # Sauer-Shelah side
                assert r_k <= binom_le(k, ld)  # tree-side analogue
            if k <= 3:
                assert r_k == rho_via_trees(fam, k)


def test_criterion_7_enumerator_equivalence_on_prime_fields():
    cases = []
    for field in (F3, F5):
        for d in (2, 3):
            cases.append(moment_curve(d, field))
            cases.append(high_vcden(d, field))
        cases.append(polynomial_instance(field, 2, ["1", "x"], ["x"]))
    for inst in cases:
        domain = []
        seen = set()
        for p in inst.stream():
            if p not in seen:
                seen.add(p)
                domain.append(p)
            if len(domain) == 6:
                break
        sample = Sample.take(inst, domain)
        flats = enumerate_family_flats(sample)
        brute = enumerate_family_bruteforce(sample)
        assert set(flats.masks()) == set(brute.masks()), inst.name
        assert len(flats) == len(brute)
        # both routes carry witnesses that reproduce their own masks
        from zerotrace.zerosets import zero_set

        for route in (flats, brute):
            for z in route.sets:
                assert zero_set(sample, z.witness).mask == z.mask


def test_criterion_8_span_structure_suite():
    samples = [dual_sample(inst) for inst in independent_builtins()]
    samples.append(Sample.take(high_vcden(3), [(i, 1, j + 1) for i in range(2) for j in range(3)]))
    samples.append(Sample.prefix(two_lines(), 5))
    for sample in samples:
        fam = enumerate_family_flats(sample).to_set_family()
        d = sample.instance.d
        require_span_injective(sample.images, fam, d)
        reduced = minimal_spanning_reduction(sample.images, fam, d)
        assert len(reduced) == len(fam)
        for mask in reduced.masks:
            member = [sample.images[i] for i in mask_to_indices(mask)]
            assert len(member) < d
            assert rank(member) == len(member)
    # strict ceiling on every covered instance tested
    for inst in (high_vcden(3), two_lines()):
        report = non_maximality_certificate(inst)
        assert report.verdict == "verified"
        assert report.trace_count < report.bound


def test_criterion_9_negative_controls():
    scaled = polynomial_instance(QQ, 2, ["x", "2*x"], ["x"], name="scaled_pair")
    # path one: the scan verdict
    verdict = linearly_independent(scaled, budget=80)
    assert verdict.kind == "dependent"
    w = verdict.witness_coeffs
    for x in range(-10, 11):
        assert dot(w, scaled.image(x)) == 0
    # path two: streamed image rank never reaches d
    basis = []
    for x in range(-40, 41):
        v = scaled.image(x)
        if not in_span(v, basis):
            basis.append(v)
    assert len(basis) == 1 == verdict.rank
    # path three: the dual-basis induction stalls at its first step
    with pytest.raises(BudgetExhaustedError) as info:
        dual_basis(scaled, budget=80)
    assert info.value.partial["step"] == 1
    # over F_3 the pair {x, x^3} is dependent, proven by full-domain scan
    frobenius = polynomial_instance(F3, 2, ["x", "x^3"], ["x"], name="frobenius_pair_f3")
    proof = linearly_independent(frobenius, budget=50)
    assert proof.kind == "dependent"
    assert proof.stream_exhausted
    for x in range(3):
        assert dot(proof.witness_coeffs, frobenius.image(x)) == 0
