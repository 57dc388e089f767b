"""Span injectivity, cover certificates, the strict trace-count ceiling."""

import pytest

from zerotrace._kernels import binom_le
from zerotrace.constructions import independence_sequence, max_vc_trace
from zerotrace.errors import DimensionMismatchError, InvalidInputError
from zerotrace.exactalg import QQ, PrimeField, Vector, basis_vector, rank, row_space_canonical
from zerotrace.instances import conics, high_vcden, moment_curve, two_lines
from zerotrace.maximality import (
    CoverCertificate,
    SpanFamily,
    cover_from_json,
    cover_to_json,
    image_family,
    minimal_spanning_reduction,
    non_maximality_certificate,
    not_maximal_bound_check,
    require_span_injective,
)
from zerotrace.zerosets import Sample, enumerate_family_flats


def vq(*xs):
    return Vector.make(QQ, xs)


def test_span_family_guards():
    with pytest.raises(DimensionMismatchError):
        SpanFamily.create(2, [(vq(1, 0, 0),)])  # width 3 in d = 2
    with pytest.raises(InvalidInputError):
        SpanFamily.create(2, [(vq(1, 0),), (vq(1, 0),)])  # duplicate member
    fam = SpanFamily.create(2, [(vq(1, 0), vq(1, 0)), (vq(0, 1),)])
    assert len(fam.members[0]) == 1  # within-member duplicates collapse


def test_image_family_alignment():
    s = Sample.take(moment_curve(3), [0, 1, -1, 2])
    zfam = enumerate_family_flats(s)
    sf = image_family(zfam)
    assert len(sf) == len(zfam)
    for z, member in zip(zfam.sets, sf.members):
        picked = [s.images[i] for i in range(len(s)) if z.mask >> i & 1]
        assert {v.entries for v in member} == {v.entries for v in picked}


COLLIDE = SpanFamily.create(2, [(vq(1, 0),), (vq(2, 0),)])
FULL = SpanFamily.create(2, [(vq(1, 0), vq(0, 1))])
REFUSALS = [
    (COLLIDE, r"family is not span injective \(equal_spans at \(0, 1\)\)"),
    (FULL, r"family is not span injective \(full_span at \(0,\)\)"),
]


def test_span_injective_positive_and_negative():
    s = Sample.take(moment_curve(3), [0, 1, -1, 2])
    assert require_span_injective(image_family(enumerate_family_flats(s))) is None
    for fam, message in REFUSALS:
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            require_span_injective(fam)


@pytest.mark.parametrize("fam, message", REFUSALS, ids=["equal_spans", "full_span"])
def test_span_injectivity_refusals_reach_both_callers(fam, message):
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        minimal_spanning_reduction(fam)
    # S is the collinear pair under a one-line cover: |S| = 2 > k(d-1) = 1
    on_line = CoverCertificate(QQ, 2, ((basis_vector(QQ, 2, 0),),))
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        not_maximal_bound_check([vq(1, 0), vq(2, 0)], on_line, fam)


def test_minimal_spanning_reduction():
    s = Sample.take(moment_curve(3), [0, 1, -1, 2])
    sf = image_family(enumerate_family_flats(s))
    reduced = minimal_spanning_reduction(sf)
    assert len(reduced) == len(sf)
    for before, after in zip(sf.members, reduced.members):
        assert row_space_canonical(after) == row_space_canonical(before)
        assert rank(after) == len(after)
        assert len(after) < sf.d
        assert len(after) == rank(before)
    require_span_injective(reduced)
    with pytest.raises(InvalidInputError):
        minimal_spanning_reduction(COLLIDE)


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
    e = [basis_vector(QQ, 2, i) for i in range(2)]
    cover = CoverCertificate(QQ, 2, ((e[0],), (e[1],)))
    on_axes = [vq(1, 0), vq(2, 0), vq(0, 1)]
    fam = SpanFamily.create(2, [(), (vq(1, 0), vq(2, 0))])
    # |S| = 2 equals k(d-1): rejected
    with pytest.raises(InvalidInputError):
        not_maximal_bound_check(on_axes[:2], cover, SpanFamily.create(2, [()]))
    with pytest.raises(InvalidInputError):
        not_maximal_bound_check([vq(1, 0), vq(1, 0), vq(0, 1)], cover, fam)
    with pytest.raises(InvalidInputError):
        not_maximal_bound_check([vq(1, 0), vq(0, 1), vq(1, 1)], cover, fam)
    with pytest.raises(InvalidInputError):
        not_maximal_bound_check(on_axes, cover, SpanFamily.create(2, [(vq(1, 1),)]))
    report = not_maximal_bound_check(on_axes, cover, fam)
    assert report.count == 2
    assert report.bound == binom_le(3, 1) == 4
    assert report.count < report.bound
    assert [cover.assign(v) for v in on_axes].count(report.crowded_subspace) == 2


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
