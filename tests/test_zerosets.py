"""Zero-set traces: samples, verdicts, dual-route enumeration, bundles."""

import random

import pytest

from zerotrace import zerosets

from zerotrace.errors import (
    BudgetExhaustedError,
    InvalidInputError,
    ResourceLimitError,
)
from zerotrace.exactalg import (
    QQ,
    PrimeField,
    Vector,
    dot,
    nullspace_basis,
    projective_normalize,
)
from zerotrace.instances import (
    high_vcden,
    moment_curve,
    polynomial_instance,
    two_lines,
)
from zerotrace.zerosets import (
    Sample,
    density_zero_partition,
    enumerate_family_bruteforce,
    enumerate_family_flats,
    family_bundle,
    linearly_independent,
    point_from_json,
    point_to_json,
    verify_bundle,
    zero_set,
)
from zerotrace.setsystem import MAX_POINTS

F3 = PrimeField(3)
F5 = PrimeField(5)
F13 = PrimeField(13)


def test_sample_guards():
    inst = moment_curve(2)
    with pytest.raises(InvalidInputError):
        Sample.take(inst, [1, 1])
    s = Sample.take(inst, [0, 1, 2])
    assert s.ground_set().all_labels() == ["0", "1", "2"]
    assert Sample.prefix(inst, 2).points == (0, 1)


def test_zero_set_mask_and_witness_normalization():
    inst = moment_curve(2)
    s = Sample.take(inst, [0, 1, 2])
    # -3 + 3x vanishes exactly at x = 1
    z = zero_set(s, Vector.make(QQ, (-3, 3)))
    assert z.mask == 0b010
    assert z.witness.entries == Vector.make(QQ, (1, -1)).entries
    with pytest.raises(InvalidInputError):
        zero_set(s, Vector.make(QQ, (0, 0)))


def test_flats_enumeration_moment_curve():
    inst = moment_curve(2)
    s = Sample.take(inst, [0, 1, 2])
    fam = enumerate_family_flats(s)
    # traces: empty plus each singleton; never two distinct nodes at once
    assert [z.mask for z in fam.sets] == [0b000, 0b001, 0b010, 0b100]
    for z in fam.sets:
        back = zero_set(s, z.witness)
        assert back.mask == z.mask


def test_flats_matches_bruteforce_on_prime_fields():
    cases = [
        Sample.prefix(moment_curve(2, F3), 3),
        Sample.prefix(moment_curve(3, F5), 5),
        Sample.prefix(high_vcden(3, F3), 6),
    ]
    for s in cases:
        flats = enumerate_family_flats(s)
        brute = enumerate_family_bruteforce(s)
        assert set(flats.masks()) == set(brute.masks())
        assert flats.method == "flat_lattice"
        assert brute.method == "projective_bruteforce"


def _reference_flats(sample):
    """The earlier queue walk, kept as a reference: pop a flat, close its
    basis plus every image outside it, keep the closures not seen yet.
    Returns {mask: witness entries}."""
    inst = sample.instance
    images = sample.images
    start_mask = zerosets._closure(images, [])
    seen = {start_mask: []}
    queue = [(start_mask, [])]
    while queue:
        mask, basis = queue.pop()
        for i, v in enumerate(images):
            if mask & (1 << i):
                continue
            new_basis = basis + [v]
            if len(new_basis) == inst.d:
                continue
            new_mask = zerosets._closure(images, new_basis)
            if new_mask not in seen:
                seen[new_mask] = new_basis
                queue.append((new_mask, new_basis))
    found = {}
    for mask in sorted(seen):
        kernel = nullspace_basis(inst.field, inst.d, seen[mask])
        off_images = [v for i, v in enumerate(images) if not mask & (1 << i)]
        witness = zerosets._search_witness_in_kernel(inst.field, kernel, off_images)
        if witness is not None:
            found[mask] = projective_normalize(witness).entries
    return found


def _walk_samples(field):
    """Seeded samples: generic points, plane-union points sharing planes
    and lines, a zero image, and points with equal images."""
    rng = random.Random(f"flat-walk:{field}")
    box = range(-6, 7) if field is QQ else range(field.p)

    def pick(k, draw, fixed=()):
        points = list(fixed)
        while len(points) < k:
            point = draw()
            if point not in points:
                points.append(point)
        return points

    def pair():
        return (rng.choice(box), rng.choice(box))

    def plane_point():
        return (rng.randrange(3), rng.choice(box), rng.choice(box))

    generic = polynomial_instance(field, 4, ["x*y", "x", "y", "1"], ["x", "y"], name="g")
    zero = polynomial_instance(field, 3, ["x", "x*y", "y^2"], ["x", "y"], name="z")
    hv = high_vcden(4, field)
    # (0,1,0) and (1,1,0) both map to e_0; (2,2,0) lies on the same line;
    # (0,1,2) and (0,2,4) lie on one line of the first plane.
    shared = [(0, 1, 0), (1, 1, 0), (2, 2, 0), (0, 1, 2), (0, 2, 4)]
    return [
        Sample.take(generic, pick(7, pair)),
        Sample.take(zero, pick(7, pair, [(0, 0)])),
        Sample.take(hv, pick(10, plane_point, shared)),
    ]


@pytest.mark.parametrize("field", [QQ, F3, F5, F13], ids=str)
def test_flats_match_reference_walk(monkeypatch, field):
    calls = {"n": 0}
    closure = zerosets._closure

    def counting(images, basis):
        calls["n"] += 1
        return closure(images, basis)

    monkeypatch.setattr(zerosets, "_closure", counting)
    for sample in _walk_samples(field):
        calls["n"] = 0
        expected = _reference_flats(sample)
        reference_closures = calls["n"]
        calls["n"] = 0
        fam = enumerate_family_flats(sample)
        assert {z.mask: z.witness.entries for z in fam.sets} == expected
        assert calls["n"] <= reference_closures


def test_flats_reject_oversized_sample_before_any_closure(monkeypatch):
    calls = []
    monkeypatch.setattr(zerosets, "_closure", lambda *args: calls.append(args))
    sample = Sample.prefix(moment_curve(2), MAX_POINTS + 1)
    with pytest.raises(ResourceLimitError):
        enumerate_family_flats(sample)
    assert not calls


def test_flats_stop_at_the_family_cap(monkeypatch):
    sample = Sample.prefix(moment_curve(3), 6)
    assert len(enumerate_family_flats(sample)) > 5
    calls = []
    search = zerosets._search_witness_in_kernel

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(zerosets, "MAX_SETS", 5)
    monkeypatch.setattr(zerosets, "_search_witness_in_kernel", counting)
    with pytest.raises(ResourceLimitError):
        enumerate_family_flats(sample)
    assert len(calls) <= 6


def test_bruteforce_needs_prime_field():
    s = Sample.take(moment_curve(2), [0, 1])
    with pytest.raises(InvalidInputError):
        enumerate_family_bruteforce(s)


def test_bruteforce_space_limit():
    s = Sample.prefix(moment_curve(8, PrimeField(7)), 7)
    with pytest.raises(ResourceLimitError):
        enumerate_family_bruteforce(s)


def test_family_to_set_family_keeps_witnesses():
    s = Sample.take(moment_curve(2), [0, 1, 2])
    zfam = enumerate_family_flats(s)
    fam = zfam.to_set_family()
    assert fam.masks == zfam.masks()
    for i, z in enumerate(zfam.sets):
        assert fam.witness_for(i) is z.witness


def test_independence_verdicts():
    assert linearly_independent(moment_curve(3)).kind == "independent"
    scaled = polynomial_instance(QQ, 2, ["x", "2*x"], ["x"], name="scaled_pair")
    verdict = linearly_independent(scaled, budget=60)
    assert verdict.kind == "dependent"
    assert verdict.rank == 1
    assert not verdict.stream_exhausted
    w = verdict.witness_coeffs
    for x in (0, 1, -1, 5):
        assert dot(w, scaled.image(x)) == QQ.zero
    frobenius = polynomial_instance(F3, 2, ["x", "x^3"], ["x"], name="frobenius_pair_f3")
    proof = linearly_independent(frobenius, budget=100)
    assert proof.kind == "dependent"
    assert proof.stream_exhausted  # the whole domain was scanned: a real proof


def test_density_zero_partition_two_lines():
    inst = two_lines()
    s = Sample.prefix(inst, 7)
    e0 = Vector.make(QQ, (1, 0))
    e1 = Vector.make(QQ, (0, 1))
    report = density_zero_partition(s, [e0, e1])
    assert report.bound == 4
    assert len(report.family) <= 4
    assert bin(report.zero_block_mask).count("1") == 1  # the x = 0 point
    for z, blocks in zip(report.family.sets, report.decompositions):
        rebuilt = report.zero_block_mask
        for j in blocks:
            rebuilt |= report.block_masks[j]
        assert z.mask == rebuilt
    with pytest.raises(InvalidInputError):
        density_zero_partition(s, [e0])  # images on the e1 line escape


def test_point_json_round_trip():
    for point in (3, -2, (1, 2), (0, -4, 5)):
        assert point_from_json(point_to_json(point)) == point
    with pytest.raises(InvalidInputError):
        point_to_json(True)
    with pytest.raises(InvalidInputError):
        point_to_json("x")


def test_bundle_round_trip_and_reverification():
    inst = moment_curve(3)
    s = Sample.take(inst, [0, 1, -1, 2])
    zfam = enumerate_family_flats(s)
    bundle = family_bundle(zfam)
    back = verify_bundle(bundle)
    assert back.masks() == zfam.masks()
    # a tampered witness must be caught by re-evaluation
    import copy

    bad = copy.deepcopy(bundle)
    bad["sets"][1]["witness"][0] = "17"
    with pytest.raises(InvalidInputError):
        verify_bundle(bad)
    bad2 = copy.deepcopy(bundle)
    bad2["sets"][0]["mask"] += 1
    with pytest.raises(InvalidInputError):
        verify_bundle(bad2)


def test_bundle_needs_a_recipe():
    field = QQ

    def evaluate(x):
        return Vector.make(field, (1, x))

    from zerotrace.zerosets import Instance

    inst = Instance(
        name="anon",
        field=field,
        d=2,
        evaluate=evaluate,
        stream=lambda: iter(range(10)),
    )
    zfam = enumerate_family_flats(Sample.take(inst, [0, 1]))
    with pytest.raises(InvalidInputError):
        family_bundle(zfam)
