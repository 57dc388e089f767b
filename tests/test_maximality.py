"""Span injectivity, cover certificates, the strict trace-count ceiling."""

import pytest

from zerotrace._kernels import binom_le
from zerotrace.constructions import independence_sequence, max_vc_trace
from zerotrace.errors import DimensionMismatchError, InvalidInputError
from zerotrace.exactalg import QQ, PrimeField, Vector, basis_vector, rank, row_space_canonical
from zerotrace.instances import conics, high_vcden, moment_curve, two_lines
from zerotrace.maximality import (
    CoverCertificate,
    cover_from_json,
    cover_to_json,
    minimal_spanning_reduction,
    non_maximality_certificate,
    not_maximal_bound_check,
    require_span_injective,
)
from zerotrace.setsystem import GroundSet, SetFamily, mask_to_indices
from zerotrace.zerosets import Sample, enumerate_family_flats


def vq(*xs):
    return Vector(QQ, xs)


def test_span_family_guards():
    pair = [vq(1, 0), vq(0, 1)]
    fam = SetFamily(GroundSet(2), (0b01, 0b10))
    with pytest.raises(DimensionMismatchError, match="family over 2 points, given 3 vectors"):
        require_span_injective([*pair, vq(1, 1)], fam, 2)
    with pytest.raises(DimensionMismatchError, match="vector of width 3, ambient is 2"):
        require_span_injective([vq(1, 0), vq(0, 1, 0)], fam, 2)
    # a repeated vector leaves the member's span, and its reduction, as they were
    repeated = [vq(1, 0), vq(0, 1), vq(1, 0)]
    fam = SetFamily(GroundSet(3), (0b101, 0b010))
    assert require_span_injective(repeated, fam, 2) is None
    assert minimal_spanning_reduction(repeated, fam, 2).masks == (0b001, 0b010)


# two vectors on the first axis and one on the second
ON_AXES = [vq(1, 0), vq(2, 0), vq(0, 1)]
AXES = CoverCertificate(QQ, 2, ((basis_vector(QQ, 2, 0),), (basis_vector(QQ, 2, 1),)))
COLLIDE = (ON_AXES, SetFamily(GroundSet(3), (0b001, 0b010)))
FULL = (ON_AXES, SetFamily(GroundSet(3), (0b101,)))
REFUSALS = [
    (COLLIDE, r"family is not span injective \(equal_spans at \(0, 1\)\)"),
    (FULL, r"family is not span injective \(full_span at \(0,\)\)"),
]


def enumerated(points):
    """The trace family of moment_curve(3) on points, over its images."""
    zfam = enumerate_family_flats(Sample.take(moment_curve(3), points))
    return zfam.sample.images, zfam.to_set_family()


def test_span_injective_positive_and_negative():
    assert require_span_injective(*enumerated([0, 1, -1, 2]), 3) is None
    for (vectors, fam), message in REFUSALS:
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            require_span_injective(vectors, fam, 2)


@pytest.mark.parametrize("vectors_fam, message", REFUSALS, ids=["equal_spans", "full_span"])
def test_span_injectivity_refusals_reach_both_callers(vectors_fam, message):
    vectors, fam = vectors_fam
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        minimal_spanning_reduction(vectors, fam, 2)
    # |S| = 3 > k(d-1) = 2 under the two axes
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        not_maximal_bound_check(vectors, AXES, fam)


def test_minimal_spanning_reduction():
    images, fam = enumerated([0, 1, -1, 2])
    reduced = minimal_spanning_reduction(images, fam, 3)
    assert reduced.ground == fam.ground
    assert len(reduced) == len(fam)
    for before, after in zip(fam.masks, reduced.masks):
        assert after & before == after
        before = [images[i] for i in mask_to_indices(before)]
        after = [images[i] for i in mask_to_indices(after)]
        assert row_space_canonical(after) == row_space_canonical(before)
        assert rank(after) == len(after)
        assert len(after) < 3
        assert len(after) == rank(before)
    require_span_injective(images, reduced, 3)
    with pytest.raises(InvalidInputError):
        minimal_spanning_reduction(*COLLIDE, 2)


def test_cover_certificate_guards_and_assignment():
    e = [basis_vector(QQ, 3, i) for i in range(3)]
    cert = CoverCertificate(QQ, 3, ((e[0], e[1]), (e[0], e[2])))
    assert len(cert) == 2
    assert cert.assign(vq(1, 2, 0)) == 0
    assert cert.assign(vq(1, 0, 2)) == 1
    assert cert.assign(vq(1, 1, 1)) is None
    assert cert.assign(vq(0, 5, 0)) is not None
    with pytest.raises(InvalidInputError):
        CoverCertificate(QQ, 2, ((vq(1, 0), vq(0, 1)),))  # not a proper subspace


def test_cover_json_round_trip():
    for inst in (two_lines(), high_vcden(3), high_vcden(4, PrimeField(5))):
        cert = inst.cover
        back = cover_from_json(cover_to_json(cert))
        assert back.d == cert.d
        assert len(back) == len(cert)
        for a, b in zip(back.subspaces, cert.subspaces):
            assert row_space_canonical(a) == row_space_canonical(b)
    assert moment_curve(3).cover is None
    with pytest.raises(InvalidInputError, match="declares no covering subspaces"):
        non_maximality_certificate(moment_curve(3))


def test_not_maximal_bound_check_preconditions():
    fam = SetFamily(GroundSet(3), (0, 0b011))
    # |S| = 2 equals k(d-1): rejected
    with pytest.raises(InvalidInputError, match="does not exceed k"):
        not_maximal_bound_check(ON_AXES[:2], AXES, SetFamily(GroundSet(2), (0,)))
    with pytest.raises(InvalidInputError, match="pairwise distinct"):
        not_maximal_bound_check([vq(1, 0), vq(1, 0), vq(0, 1)], AXES, fam)
    with pytest.raises(InvalidInputError, match="escapes the cover"):
        not_maximal_bound_check([vq(1, 0), vq(0, 1), vq(1, 1)], AXES, fam)
    # a family over four points cannot be a family of subsets of three vectors
    with pytest.raises(DimensionMismatchError, match="family over 4 points, given 3 vectors"):
        not_maximal_bound_check(ON_AXES, AXES, SetFamily(GroundSet(4), (0b1000,)))
    report = not_maximal_bound_check(ON_AXES, AXES, fam)
    assert report.count == 2
    assert report.bound == binom_le(3, 1) == 4
    assert report.count < report.bound
    assert [AXES.assign(v) for v in ON_AXES].count(report.crowded_subspace) == 2


def test_non_maximality_certificate_verified_on_plane_union():
    report = non_maximality_certificate(high_vcden(3))
    assert report.verdict == "verified"
    assert report.n == 5
    assert report.bound == binom_le(5, 2) == 16
    assert report.trace_count < report.bound
    assert len(report.missing_subset) == 2
    missing_mask = sum(1 << i for i in report.missing_subset)
    assert missing_mask not in report.family.masks()


def test_non_maximality_certificate_verified_on_two_lines():
    report = non_maximality_certificate(two_lines())
    assert report.verdict == "verified"
    assert report.n == 3
    assert report.trace_count < report.bound == binom_le(3, 1)


def test_non_maximality_certificate_refuted_on_independent_instance():
    e = [basis_vector(QQ, 6, i) for i in range(6)]
    fake = CoverCertificate(QQ, 6, ((e[0], e[1]), (e[2], e[3])))
    report = non_maximality_certificate(conics(), fake)
    assert report.verdict == "refuted"
    assert report.escape_point is not None
    assert report.trace_count is report.bound is report.missing_subset is report.family is None
    img = conics().image(report.escape_point)
    assert fake.assign(img) is None


def test_maximal_profile_check_moment_curve():
    for n in (3, 4):
        report = max_vc_trace(independence_sequence(moment_curve(3), n + 2), n)
        assert len(report) == binom_le(n, 2)
