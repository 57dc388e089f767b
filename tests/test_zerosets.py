"""Zero-set traces: samples, verdicts, dual-route enumeration, bundles."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import chain, count, product

import pytest

from zerotrace import exactalg, zerosets

from zerotrace.errors import (
    BudgetExhaustedError,
    InvalidInputError,
    ResourceLimitError,
)
from zerotrace.exactalg import (
    QQ,
    PrimeField,
    Span,
    Vector,
    _int_columns,
    basis_vector,
    dot,
    in_span,
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


def test_points_with_one_display_label_are_refused():
    # no descriptor the program makes prints like another; a hand-built
    # sample whose points both print as "1" has no ground set
    inst = moment_curve(2)
    image = inst.image(1)
    with pytest.raises(InvalidInputError, match="display labels must be distinct"):
        Sample(inst, (1, "1"), (image, image)).ground_set()


def _constant_instance(field, row):
    """A three-dimensional instance whose evaluator returns row for every point."""
    return zerosets.Instance(
        name="constant", field=field, d=3, evaluate=lambda x: row, stream=lambda: iter((0,))
    )


@pytest.mark.parametrize("field", [QQ, F3], ids=str)
def test_rows_are_tuples_of_d_ints(field):
    good = _constant_instance(field, (1, -2, 7))
    assert good.row(0) == ((1, -2, 7) if field is QQ else (1, 1, 1))  # reduced mod p
    assert good.image(0) == Vector(field, (1, -2, 7))
    for bad in (
        [1, -2, 7],
        Vector(field, (1, -2, 7)),
        (1, True, 7),
        (1, Fraction(1, 2), 7),
        (1, -2, 7, 0),
        (1, -2),
    ):
        inst = _constant_instance(field, bad)
        for read in (inst.row, inst.image):
            with pytest.raises(InvalidInputError, match="bad image"):
                read(0)


def test_prefix_reads_k_stream_points_and_refuses_a_repeat():
    read = []

    def stream():  # 0, 0, 1, 2, ...
        for point in chain([0], count()):
            read.append(point)
            yield point

    inst = replace(moment_curve(2), stream=stream)
    with pytest.raises(InvalidInputError, match="distinct"):
        Sample.prefix(inst, 2)
    assert read == [0, 0]


def test_zero_set_mask_and_witness_normalization():
    inst = moment_curve(2)
    s = Sample.take(inst, [0, 1, 2])
    # -3 + 3x vanishes exactly at x = 1
    z = zero_set(s, Vector(QQ, (-3, 3)))
    assert z.mask == 0b010
    assert z.witness.entries == Vector(QQ, (1, -1)).entries
    with pytest.raises(InvalidInputError):
        zero_set(s, Vector(QQ, (0, 0)))


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


def _boxed_bruteforce(sample):
    """Reference: every line's lead-1 Vector through zero_set, keeping
    the first ZeroSet per mask, in mask order."""
    field, d = sample.instance.field, sample.instance.d
    found = {}
    for lead in range(d):
        for tail in product(range(field.p), repeat=d - lead - 1):
            z = zero_set(sample, Vector(field, (0,) * lead + (1,) + tail))
            found.setdefault(z.mask, z)
    return [found[m] for m in sorted(found)]


@pytest.mark.parametrize("field", [PrimeField(2), F3, F5], ids=str)
def test_bruteforce_matches_the_boxed_line_loop(monkeypatch, field):
    rng = random.Random(f"bruteforce:{field}")
    built = []
    fill = exactalg._fill

    def recording(v, f, ints, den):
        built.append(tuple(ints))
        fill(v, f, ints, den)

    for d in (2, 3, 4):
        for _ in range(3):
            rows = [[rng.randrange(field.p) for _ in range(d)] for _ in range(rng.randint(1, 6))]
            rows += [[0] * d, list(rows[0])]  # a zero image and two equal images
            rng.shuffle(rows)
            sample = _explicit_sample(field, rows)
            want = _boxed_bruteforce(sample)
            built.clear()
            with monkeypatch.context() as m:
                m.setattr(exactalg, "_fill", recording)
                got = enumerate_family_bruteforce(sample)
            assert [(z.mask, z.witness) for z in got.sets] == [
                (z.mask, z.witness) for z in want
            ]
            assert built == [z.witness._ints for z in got.sets]  # one vector per trace


def _span_closure(images, basis):
    """Mask of the images in span(basis), one fresh Span per basis."""
    span = Span(basis)
    return sum(1 << i for i, v in enumerate(images) if in_span(v, span))


def _reference_witness(field, kernel, off_images):
    """The earlier witness search on exact vectors: combine every candidate
    coefficient tuple and take dot products with each off image."""

    def combine(coeffs):
        acc = kernel[0].scale(coeffs[0])
        for c, b in zip(coeffs[1:], kernel[1:]):
            acc = acc + b.scale(c)
        return acc

    if isinstance(field, PrimeField):
        for lead in range(len(kernel)):
            head = [0] * lead + [1]
            for tail in product(range(field.p), repeat=len(kernel) - lead - 1):
                a = combine(head + list(tail))
                if all(dot(a, v) != 0 for v in off_images):
                    return a
        return None
    radius = 1
    while True:
        for coeffs in product(range(-radius, radius + 1), repeat=len(kernel)):
            if max(abs(c) for c in coeffs) == radius:
                a = combine(coeffs)
                if all(dot(a, v) != 0 for v in off_images):
                    return a
        radius += 1


def _reference_flats(sample):
    """The earlier queue walk, kept as a reference: pop a flat, close its
    basis plus every image outside it, keep the closures not seen yet.
    Returns ({mask: witness entries}, {closure mask: basis}, number of
    closures computed)."""
    inst = sample.instance
    images = sample.images
    start_mask = _span_closure(images, [])
    seen = {start_mask: []}
    queue = [(start_mask, [])]
    closures = 1
    while queue:
        mask, basis = queue.pop()
        for i, v in enumerate(images):
            if mask & (1 << i):
                continue
            new_basis = basis + [v]
            if len(new_basis) == inst.d:
                continue
            new_mask = _span_closure(images, new_basis)
            closures += 1
            if new_mask not in seen:
                seen[new_mask] = new_basis
                queue.append((new_mask, new_basis))
    found = {}
    for mask in sorted(seen):
        kernel = nullspace_basis(inst.field, inst.d, seen[mask])
        off_images = [v for i, v in enumerate(images) if not mask & (1 << i)]
        witness = _reference_witness(inst.field, kernel, off_images)
        if witness is not None:
            found[mask] = projective_normalize(witness).entries
    return found, seen, closures


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
    visited = {"n": 0}
    kernel_of = zerosets.nullspace_basis

    def counting(*args):  # the walk asks for one kernel per flat it visits
        visited["n"] += 1
        return kernel_of(*args)

    monkeypatch.setattr(zerosets, "nullspace_basis", counting)
    for sample in _walk_samples(field):
        expected, closures, reference_work = _reference_flats(sample)
        visited["n"] = 0
        fam = enumerate_family_flats(sample)
        assert {z.mask: z.witness.entries for z in fam.sets} == expected
        assert visited["n"] == len(closures) <= reference_work


@pytest.mark.parametrize("field", [QQ, F3], ids=str)
def test_walk_pins_its_benchmark_counted_calls(monkeypatch, field):
    """The root closure makes the walk's only in_span calls, one per
    image; after it, every flat asks for exactly one kernel."""
    calls = []
    for name in ("nullspace_basis", "in_span"):
        real = getattr(zerosets, name)
        monkeypatch.setattr(
            zerosets, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args)
        )
    for sample in _walk_samples(field):
        _, closures, _ = _reference_flats(sample)
        calls.clear()
        enumerate_family_flats(sample)
        n = len(sample.images)
        assert calls == ["in_span"] * n + ["nullspace_basis"] * len(closures)


@pytest.mark.parametrize("field", [QQ, F3, F5, F13], ids=str)
def test_walk_searches_witnesses_below_hyperplanes_only(monkeypatch, field):
    """A flat spanned by k < d - 1 images gets one witness search over its
    d - k kernel columns; a hyperplane (k = d - 1) gets none."""
    widths = []
    search = zerosets._search_coefficients

    def recording(p, r, rows):
        widths.append(r)
        return search(p, r, rows)

    monkeypatch.setattr(zerosets, "_search_coefficients", recording)
    for sample in _walk_samples(field):
        d = sample.instance.d
        _, flats, _ = _reference_flats(sample)
        widths.clear()
        enumerate_family_flats(sample)
        expected = Counter(d - len(basis) for basis in flats.values() if len(basis) < d - 1)
        assert Counter(widths) == expected
        assert len(flats) > len(widths) and min(widths) == 2


def _explicit_sample(field, rows):
    """Sample whose i-th image is rows[i] times the least common
    denominator of its entries: the int row of Vector(field, rows[i]),
    on the same line."""
    ints = [Vector(field, row)._ints for row in rows]
    inst = zerosets.Instance(
        name="explicit",
        field=field,
        d=len(rows[0]),
        evaluate=lambda i: ints[i],
        stream=lambda: iter(range(len(ints))),
    )
    return Sample.take(inst, range(len(ints)))


def _quotient_samples(field):
    """Seeded images with a zero image, equal images, v and -2v, negative
    leading entries and, over Q, rows cleared of mixed denominators."""
    rng = random.Random(f"quotient:{field}")
    if field is QQ:
        def entry():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    else:
        def entry():
            return rng.randrange(field.p)
    samples = []
    for d in (3, 4):
        base = [[entry() for _ in range(d)] for _ in range(6)]
        base[0][0] = -abs(base[0][0]) - 1  # negative leading entry
        rows = base + [
            [0] * d,
            list(base[1]),
            [-2 * x for x in base[2]],
            [-x for x in base[3]],
            [0] + [entry() for _ in range(d - 1)],
        ]
        samples.append(_explicit_sample(field, rows))
    return samples


def _quotient_rows(p, images, basis, mask):
    """M[i] = (v_i . k)_k over ints, k in the kernel of the basis, reduced
    mod p when p > 0, for every image i outside mask."""
    cols = _int_columns(nullspace_basis(images[0].field, len(images[0]), basis))
    rows = {}
    for i, v in enumerate(images):
        if not mask >> i & 1:
            row = [sum(a * b for a, b in zip(v._ints, k)) for k in cols]
            rows[i] = tuple(x % p for x in row) if p else tuple(row)
    return rows


@pytest.mark.parametrize("field", [QQ, PrimeField(2), F3, F13], ids=str)
def test_class_grouped_child_closures_match_span_closures(field):
    p = field.p if isinstance(field, PrimeField) else 0
    for sample in _quotient_samples(field):
        images = sample.images
        _, flats, _ = _reference_flats(sample)
        for mask, basis in flats.items():
            children = zerosets._child_closures(mask, _quotient_rows(p, images, basis, mask), p)
            off = [j for j in range(len(images)) if not mask >> j & 1]
            assert sorted(children) == off
            for j in off:
                assert children[j] == _span_closure(images, basis + [images[j]])


@pytest.mark.parametrize("field", [QQ, F3, F13], ids=str)
def test_walk_steps_each_kernel_by_one_quotient_row(monkeypatch, field):
    """After the root's kernel of no rows, each flat's kernel comes from
    its parent's by the kernel of one quotient row, as wide as the
    parent's kernel: d - k + 1 for a flat spanned by k images."""
    calls = []
    kernel_of = zerosets.nullspace_basis

    def recording(field, width, rows):
        calls.append((width, len(rows)))
        return kernel_of(field, width, rows)

    monkeypatch.setattr(zerosets, "nullspace_basis", recording)
    for sample in _walk_samples(field):
        d = sample.instance.d
        _, flats, _ = _reference_flats(sample)
        calls.clear()
        enumerate_family_flats(sample)
        assert calls[0] == (d, 0)
        assert all(rows == 1 for _, rows in calls[1:])
        widths = Counter(width for width, _ in calls[1:])
        assert widths == Counter(d - len(basis) + 1 for basis in flats.values() if basis)
        assert min(widths) < d


def _common_multiple(p, got, expected):
    """The one factor c with got[i] == c * expected[i] for every i (mod p
    when p > 0), or None if there is none."""
    pairs = [(g, e) for i in expected for g, e in zip(got[i], expected[i])]
    g0, e0 = next(((g, e) for g, e in pairs if e), (None, None))
    if g0 is None:
        return None
    c = g0 * pow(e0, -1, p) % p if p else Fraction(g0, e0)
    if all((g - c * e) % p == 0 if p else g == c * e for g, e in pairs):
        return c
    return None


@pytest.mark.parametrize("field", [QQ, F3, F5, F13], ids=str)
def test_carried_quotient_rows_are_a_common_multiple_of_rebuilt_ones(monkeypatch, field):
    """The rows each flat carries equal, up to one factor (positive over
    Q, a unit over F_p), the rows rebuilt from the kernel of a basis of
    its closure."""
    p = field.p if isinstance(field, PrimeField) else 0
    seen = []
    child_closures = zerosets._child_closures

    def recording(mask, rows, p):
        seen.append((mask, dict(rows)))
        return child_closures(mask, rows, p)

    monkeypatch.setattr(zerosets, "_child_closures", recording)
    for sample in _walk_samples(field):
        _, flats, _ = _reference_flats(sample)
        seen.clear()
        enumerate_family_flats(sample)
        assert seen
        for mask, rows in seen:
            expected = _quotient_rows(p, sample.images, flats[mask], mask)
            assert sorted(rows) == sorted(expected)
            c = _common_multiple(p, rows, expected)
            assert c is not None and (c % p if p else c > 0)


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
    unit_lead = zerosets._unit_lead

    def counting(*args):  # one call per realized trace
        calls.append(args)
        return unit_lead(*args)

    monkeypatch.setattr(zerosets, "MAX_SETS", 5)
    monkeypatch.setattr(zerosets, "_unit_lead", counting)
    with pytest.raises(ResourceLimitError):
        enumerate_family_flats(sample)
    assert len(calls) == 6  # over Q every flat is a trace; the sixth overflows


def test_prime_witness_search_stops_at_its_try_cap(monkeypatch):
    # every c with c_1 = 0 misses row (0, 1, 0): over F_p that is p tries
    # before c_1 moves, which the cap stops
    rows = [(0, 1, 0), (0, 0, 1)]
    monkeypatch.setattr(zerosets, "BRUTEFORCE_SPACE_LIMIT", 1000)
    with pytest.raises(ResourceLimitError, match="exceeded 1000 tries"):
        zerosets._search_coefficients(2**31 - 1, 3, rows)
    assert zerosets._search_coefficients(5, 3, rows) == (1, 1, 1)


def test_bruteforce_needs_prime_field():
    s = Sample.take(moment_curve(2), [0, 1])
    with pytest.raises(InvalidInputError):
        enumerate_family_bruteforce(s)


def test_bruteforce_space_limit():
    s = Sample.prefix(moment_curve(8, PrimeField(7)), 7)
    with pytest.raises(ResourceLimitError):
        enumerate_family_bruteforce(s)


def test_family_to_set_family_keeps_masks_in_order():
    s = Sample.take(moment_curve(2), [0, 1, 2])
    zfam = enumerate_family_flats(s)
    fam = zfam.to_set_family()
    assert fam.masks == zfam.masks()
    assert fam.ground.all_labels() == ["0", "1", "2"]


def test_independence_verdicts():
    assert linearly_independent(moment_curve(3)).kind == "independent"
    scaled = polynomial_instance(QQ, 2, ["x", "2*x"], ["x"], name="scaled_pair")
    verdict = linearly_independent(scaled, budget=60)
    assert verdict.kind == "dependent"
    assert verdict.rank == 1
    # degree 1: the images of 0 and 1 have the rank of (x, 2x), a proof
    assert verdict.scanned == 2
    assert verdict.stream_exhausted
    w = verdict.witness_coeffs
    for x in (0, 1, -1, 5):
        assert dot(w, scaled.image(x)) == 0
    frobenius = polynomial_instance(F3, 2, ["x", "x^3"], ["x"], name="frobenius_pair_f3")
    proof = linearly_independent(frobenius, budget=100)
    assert proof.kind == "dependent"
    assert proof.stream_exhausted  # the whole domain was scanned: a real proof


def test_a_stream_ending_before_d_points_proves_dependence():
    # moment_curve over F_2 has the domain {0, 1}: images (1,0,0,0,0) and
    # (1,1,1,1,1), whose kernel annihilates the whole domain
    short = moment_curve(5, PrimeField(2))
    verdict = linearly_independent(short)
    assert (verdict.kind, verdict.rank, verdict.scanned) == ("dependent", 2, 2)
    assert verdict.stream_exhausted
    assert verdict.witness_coeffs == Vector(short.field, (0, 1, 1, 0, 0))
    for x in short.stream():
        assert dot(verdict.witness_coeffs, short.image(x)) == 0
    empty = zerosets.Instance(
        name="empty", field=QQ, d=3, evaluate=lambda x: None, stream=lambda: iter(())
    )
    verdict = linearly_independent(empty)
    assert (verdict.kind, verdict.rank, verdict.scanned) == ("dependent", 0, 0)
    assert verdict.stream_exhausted
    assert verdict.witness_coeffs == Vector(QQ, (1, 0, 0))


def test_streamed_multiples_of_one_line_add_one_row_each(monkeypatch):
    # (x, 2x) without its horizon streams 300 distinct images on one line;
    # deduplicating them by their primitive rows leaves (0, 0), (1, 2) and
    # (-1, -2).
    added = Counter()  # Span.add calls per span, in the order the spans are first used
    add = Span.add
    monkeypatch.setattr(Span, "add", lambda self, v: added.update([id(self)]) or add(self, v))
    pair = replace(polynomial_instance(QQ, 2, ["x", "2*x"], ["x"]), horizon=None)
    verdict = linearly_independent(pair, budget=300)
    assert (verdict.kind, verdict.scanned, verdict.rank) == ("dependent", 300, 1)
    scan, kernel = added.values()  # the scan's span, then the kernel's span of its basis
    assert scan <= 3
    assert kernel == verdict.rank


def test_a_kernel_missing_a_streamed_image_is_an_assertion(monkeypatch):
    # e_0 is no kernel vector of the line through (1, 2): only a fault in
    # nullspace_basis can produce it, and the verdict must not be issued
    monkeypatch.setattr(
        zerosets, "nullspace_basis", lambda field, d, basis: [basis_vector(field, d, 0)]
    )
    pair = polynomial_instance(QQ, 2, ["x", "2*x"], ["x"])
    with pytest.raises(AssertionError, match=r"^poly\[x, 2\*x\]: the kernel of the streamed"):
        linearly_independent(pair, budget=50)


def test_independence_budget_below_d_is_exhausted_not_invalid():
    for inst, budget in ((moment_curve(3), 2), (two_lines(), 1)):
        with pytest.raises(BudgetExhaustedError, match=f"budget {budget} cannot reach"):
            linearly_independent(inst, budget=budget)


def test_density_zero_partition_two_lines():
    inst = two_lines()
    s = Sample.prefix(inst, 7)
    e0 = Vector(QQ, (1, 0))
    e1 = Vector(QQ, (0, 1))
    report = density_zero_partition(s, [e0, e1])
    assert report.bound == 4
    assert len(report.family) <= 4
    assert bin(report.zero_block_mask).count("1") == 1  # the x = 0 point
    for z in report.family.sets:
        rebuilt = report.zero_block_mask
        for block in report.block_masks:
            if z.mask & block:
                rebuilt |= block
        assert z.mask == rebuilt
    with pytest.raises(InvalidInputError):
        density_zero_partition(s, [e0])  # images on the e1 line escape


def test_density_zero_partition_keys_blocks_by_line():
    inst = polynomial_instance(QQ, 2, ["x", "2*x"], ["x"], name="scaled_pair")
    s = Sample.take(inst, [0, 1, -2, 3])  # images 0, (1,2), (-2,-4), (3,6)
    line = Vector(QQ, (Fraction(-1, 3), Fraction(-2, 3)))
    for lines in ([line], [line, Vector(QQ, (2, 4))]):  # the same line twice
        report = density_zero_partition(s, lines)
        assert report.block_masks == (0b1110,)  # -3, 6 and -9 times the direction
        assert report.zero_block_mask == 0b0001
        assert report.bound == 2
    with pytest.raises(InvalidInputError, match="outside the given lines"):
        density_zero_partition(s, [Vector(QQ, (1, 0)), Vector(QQ, (1, -2))])


def test_point_json_round_trip():
    for point in (3, -2, (1, 2), (0, -4, 5)):
        assert point_from_json(point_to_json(point)) == point
    with pytest.raises(InvalidInputError):
        point_to_json(True)
    with pytest.raises(InvalidInputError):
        point_to_json("x")
    for data in ({"a": 1}, [1, [2]], "x", 1.5, True, [0, False], None):
        with pytest.raises(InvalidInputError):
            point_from_json(data)


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
        return (1, x)

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
