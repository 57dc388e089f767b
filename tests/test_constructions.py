"""Constructive machinery: dual bases, d-wise sequences, the plane grid."""

from collections import Counter
from dataclasses import replace
from itertools import combinations, islice

import pytest

from zerotrace import constructions, exactalg
from zerotrace._kernels import binom_le
from zerotrace.constructions import (
    dual_basis,
    grid_max_tree,
    grid_membership,
    grid_point,
    grid_witness,
    independence_sequence,
    max_vc_trace,
    shattering_witness,
    subset_witness,
)
from zerotrace.errors import BudgetExhaustedError, InvalidInputError
from zerotrace.exactalg import QQ, PrimeField, Span, Vector, dot, in_span, rank, zero_mask
from zerotrace.instances import (
    conics,
    ellipse_carrier,
    high_vcden,
    moment_curve,
    polynomial_instance,
    two_lines,
)
from zerotrace.littlestone import count_well_labeled
from zerotrace.setsystem import shatters, vcdim
from zerotrace.zerosets import (
    Instance,
    Sample,
    distinct_image_points,
    enumerate_family_flats,
    linearly_independent,
)


def test_binom_le_table():
    assert binom_le(0, 2) == 1
    assert binom_le(4, 0) == 1
    assert binom_le(5, 1) == 6
    assert [binom_le(n, 2) for n in range(3, 9)] == [7, 11, 16, 22, 29, 37]
    assert binom_le(3, 9) == 8  # saturates at the full power set


@pytest.mark.parametrize(
    "inst, points",
    [
        pytest.param(moment_curve(3), (0, 1, -1), id="Q"),
        # pivots such as 2 mod 5 are not their own inverses, so a wrong
        # inverse in dual_basis fails here, as it does not over F_3
        pytest.param(moment_curve(3, PrimeField(5)), (0, 1, 2), id="F5"),
        pytest.param(moment_curve(4, PrimeField(13)), (0, 1, 2, 3), id="F13"),
    ],
)
def test_dual_basis_kronecker(inst, points):
    db = dual_basis(inst)
    assert db.sample.points == points
    assert db.sample.images == tuple(inst.image(c) for c in db.sample.points)
    db.verify()
    for i, c in enumerate(db.sample.points):
        for j in range(inst.d):
            assert dot(db.rows[j], inst.image(c)) == int(i == j)


def test_dual_basis_evaluates_each_stream_point_once():
    inst = moment_curve(10)
    calls, read = Counter(), set()

    def evaluate(point):
        calls["image"] += 1
        return inst.evaluate(point)

    def stream():
        for point in inst.stream():
            read.add(point)
            yield point

    db = dual_basis(replace(inst, evaluate=evaluate, stream=stream))
    assert calls["image"] <= len(read)
    assert db.sample.points == dual_basis(inst).sample.points


def test_dual_basis_rows_span_coefficients():
    db = dual_basis(moment_curve(4))
    assert rank(list(db.rows)) == 4
    db.verify()


def test_dual_basis_succeeds_on_covered_but_spanning_image():
    # plane-union images span Q^3, so the dual basis exists even though
    # the image is covered by proper subspaces
    db = dual_basis(high_vcden(3), budget=200)
    db.verify()


def test_dual_basis_stalls_on_dependent_pair():
    from zerotrace.instances import polynomial_instance

    scaled = polynomial_instance(QQ, 2, ["x", "2*x"], ["x"], name="scaled_pair")
    with pytest.raises(BudgetExhaustedError) as info:
        dual_basis(scaled, budget=50)
    partial = info.value.partial
    assert len(partial["rows"]) == 1
    assert partial["step"] == 1


def test_shattered_set_realizes_every_subset():
    inst = moment_curve(4)
    db = dual_basis(inst)
    sample = Sample.take(inst, db.sample.points[:3])
    for size in range(0, 3 + 1):
        for subset in map(frozenset, combinations(range(3), size)):
            w = shattering_witness(db, subset)
            got = {i for i, v in enumerate(sample.images) if dot(w, v) == 0}
            assert got == subset
    fam = enumerate_family_flats(sample).to_set_family()
    assert shatters(fam, range(3))
    assert vcdim(fam) == 3
    with pytest.raises(InvalidInputError):
        shattering_witness(db, {3})


def test_independence_sequence_is_d_wise_independent():
    inst = moment_curve(3)
    seq = independence_sequence(inst, 6)
    assert len(seq) == 6
    for triple in combinations(range(6), 3):
        assert rank([seq.images[i] for i in triple]) == 3


def test_independence_sequence_stalls_on_covered_image():
    with pytest.raises(BudgetExhaustedError) as info:
        independence_sequence(two_lines(), 3, budget=300)
    partial = info.value.partial
    assert len(partial["points"]) == len(partial["images"]) == 2


@pytest.mark.parametrize("field", [QQ, PrimeField(13)], ids=["Q", "F13"])
def test_independence_sequence_prefix_does_not_depend_on_length(field):
    inst = moment_curve(4, field)
    longest = independence_sequence(inst, 9).points
    for k in range(1, 9):
        assert independence_sequence(inst, k).points == longest[:k]


def _span_per_subset_sequence(inst, n, *, budget):
    """Reference greedy sequence over the first budget stream points: one
    Span per min(d-1, k)-subset of the k chosen images, rebuilt after
    each accepted point; (points, images)."""
    d = inst.d
    points, images, spans = [], [], [Span()]
    scanned = 0
    for point in islice(inst.stream(), budget):
        scanned += 1
        v = inst.image(point)
        if not any(in_span(v, span) for span in spans):
            points.append(point)
            images.append(v)
            if len(points) == n:
                return tuple(points), tuple(images)
            take = min(d - 1, len(images))
            spans = [Span(subset) for subset in combinations(images, take)]
    raise BudgetExhaustedError(
        f"sequence stalled at {len(points)} of {n} points after scanning "
        f"{scanned} stream points",
        partial={"points": tuple(points), "images": tuple(images)},
    )


@pytest.mark.parametrize(
    "inst, n",
    [(moment_curve(d, field), 10) for field in (QQ, PrimeField(13)) for d in range(1, 7)]
    + [
        (conics(), 12),
        (ellipse_carrier(), 12),
        (polynomial_instance(QQ, 1, ["x"], ["x"]), 5),  # the zero image comes first
    ],
    ids=lambda x: x.name if isinstance(x, Instance) else str(x),
)
def test_independence_sequence_matches_span_per_subset(inst, n):
    seq = independence_sequence(inst, n)
    assert (seq.points, seq.images) == _span_per_subset_sequence(inst, n, budget=10_000)


@pytest.mark.parametrize(
    "inst, n", [(two_lines(), 3), (high_vcden(3), 6)], ids=["two_lines", "high_vcden3"]
)
def test_independence_sequence_stalls_like_span_per_subset(inst, n):
    with pytest.raises(BudgetExhaustedError) as got:
        independence_sequence(inst, n, budget=300)
    with pytest.raises(BudgetExhaustedError) as expected:
        _span_per_subset_sequence(inst, n, budget=300)
    assert str(got.value) == str(expected.value)
    assert got.value.partial == expected.value.partial


def _counting_stream(inst):
    """inst with a stream that counts the points it yields, and the count."""
    read = Counter()

    def stream():
        for point in inst.stream():
            read["points"] += 1
            yield point

    return replace(inst, stream=stream), read


_SCALED_PAIR = polynomial_instance(QQ, 2, ["x", "2*x"], ["x"], name="scaled_pair")
# the same pair without its horizon: an independence scan reads on to its budget
_ENDLESS_PAIR = replace(_SCALED_PAIR, horizon=None)


@pytest.mark.parametrize(
    "scan, inst, budget, bound",
    [
        # a moment curve accepts every point, so only the budget stops the pass
        (lambda i, b: independence_sequence(i, 8, budget=b), moment_curve(3), 3, 3),
        (lambda i, b: independence_sequence(i, 3, budget=b), two_lines(), 40, 40),
        # these two read one point more, to tell a spent budget from an ended stream
        (lambda i, b: distinct_image_points(i, 8, budget=b), moment_curve(3), 3, 4),
        (lambda i, b: linearly_independent(i, budget=b), _ENDLESS_PAIR, 40, 41),
        # every rescan reads the points kept so far before reading on
        (lambda i, b: dual_basis(i, budget=b), _SCALED_PAIR, 40, 40),
    ],
    ids=["sequence", "sequence-stall", "distinct", "independent", "dual-basis"],
)
def test_scans_read_no_more_stream_points_than_their_budget(scan, inst, budget, bound):
    counted, read = _counting_stream(inst)
    try:
        scan(counted, budget)
    except BudgetExhaustedError:
        pass
    assert 0 < read["points"] <= bound


def test_scans_leave_the_images_they_only_test_unboxed(boxed):
    pair = polynomial_instance(QQ, 2, ["x", "2*x"], ["x"])
    verdict = linearly_independent(replace(pair, horizon=None), budget=300)
    assert (verdict.kind, verdict.scanned) == ("dependent", 300)
    assert boxed == []
    with pytest.raises(BudgetExhaustedError) as info:
        independence_sequence(two_lines(), 3, budget=300)
    kept = info.value.partial["images"]
    assert all(any(v is k for k in kept) for v in boxed)
    read = pair.image(5)
    read.entries  # noqa: B018 - reading the entries is what gets counted
    assert boxed[-1] is read


def test_subset_witness_separation():
    seq = independence_sequence(moment_curve(3), 5)
    w = subset_witness(seq, (1, 3))
    for i, v in enumerate(seq.images):
        assert (dot(w, v) == 0) == (i in (1, 3))
    with pytest.raises(InvalidInputError):
        subset_witness(seq, (1,))
    with pytest.raises(InvalidInputError):
        subset_witness(seq, (1, 9))


def test_max_vc_trace_counts():
    inst = moment_curve(3)
    seq = independence_sequence(inst, 7)
    for n in (3, 4, 5):
        fam = max_vc_trace(seq, n)
        assert len(fam) == binom_le(n, 2)
        masks = fam.masks()
        assert len(set(masks)) == len(masks)
        assert all(bin(m).count("1") <= 2 for m in masks)
    with pytest.raises(InvalidInputError):
        max_vc_trace(seq, 6)  # needs n + d - 1 = 8 > 7 points


def test_grid_point_and_witness_values():
    assert grid_point(QQ, 3, 0, 0).entries == Vector(QQ, (1, 1, 0)).entries
    assert grid_point(QQ, 3, 1, 2).entries == Vector(QQ, (1, 0, 3)).entries
    assert grid_witness(QQ, 3, (0, 1)).entries == Vector(QQ, (2, -2, -1)).entries
    with pytest.raises(InvalidInputError):
        grid_point(QQ, 3, 2, 0)
    with pytest.raises(InvalidInputError):
        grid_witness(QQ, 3, (0,))


def test_grid_membership_characterization():
    field = PrimeField(11)
    for i in range(2):
        for j in range(4):
            for j0 in range(4):
                for j1 in range(4):
                    expected = j == (j0, j1)[i]
                    assert grid_membership(field, 3, i, j, (j0, j1)) == expected


def test_grid_membership_matches_dot_product():
    for i in range(2):
        for j in range(3):
            for js in ((0, 0), (1, 2), (2, 1)):
                c = grid_point(QQ, 3, i, j)
                b = grid_witness(QQ, 3, js)
                assert (dot(b, c) == 0) == grid_membership(QQ, 3, i, j, js)


def test_grid_max_tree_counts():
    inst = high_vcden(3)
    for n, expect in ((3, 7), (4, 11), (5, 16)):
        result = grid_max_tree(inst, n)
        assert count_well_labeled(result.tree, result.family) == expect == binom_le(n, 2)
        assert result.tree.depth == n


def reference_grid_max_tree(inst, n):
    """The per-leaf loop: (node labels, leaf labels, family masks,
    witnesses), every leaf re-labeling each node on its path."""
    d = inst.d
    sample = Sample.take(inst, inst.profile_points(n))
    node_labels, leaf_labels, witnesses, members = {}, {}, {}, []
    for value in range(1 << n):
        tau = format(value, f"0{n}b")
        support = [k for k, c in enumerate(tau) if c == "1"]
        js = tuple(support[: d - 1]) + tuple([n] * max(0, d - 1 - len(support)))
        if js not in witnesses:
            witnesses[js] = len(members)
            witness = grid_witness(inst.field, d, js)
            members.append((zero_mask(witness, sample.images), witness))
        leaf_labels[tau] = witnesses[js]
        for k in range(n):
            sigma = tau[:k]
            if sigma not in node_labels:
                ones = sigma.count("1")
                node_labels[sigma] = k * (d - 1) + ones if ones < d - 1 else n * (d - 1)
    return node_labels, leaf_labels, [m for m, _ in members], [w for _, w in members]


def test_grid_max_tree_matches_per_leaf_reference():
    inst = high_vcden(3)
    for n in range(1, 7):
        result = grid_max_tree(inst, n)
        nodes, leaves, masks, witnesses = reference_grid_max_tree(inst, n)
        assert list(result.tree.node_labels.items()) == list(nodes.items())
        assert list(result.tree.leaf_labels.items()) == list(leaves.items())
        assert list(result.family.masks) == masks
        assert list(result.witnesses) == witnesses


def test_grid_max_tree_respects_dimension_guard():
    with pytest.raises(InvalidInputError):
        grid_max_tree(moment_curve(3), 3)  # no grid structure on this instance


def _built_rows(monkeypatch):
    """The int rows of the vectors built while the test runs, in order."""
    built = []
    fill = exactalg._fill

    def recording(v, field, ints, den):
        built.append(tuple(ints))
        fill(v, field, ints, den)

    monkeypatch.setattr(exactalg, "_fill", recording)
    return built


def test_dependence_scan_builds_one_vector_per_distinct_row(monkeypatch):
    # (x, 2x) without its horizon streams 10,000 images on one line;
    # divided by their gcds their rows are (0, 0), (1, 2) and (-1, -2),
    # and only those three become vectors
    built = _built_rows(monkeypatch)
    verdict = linearly_independent(_ENDLESS_PAIR, budget=10_000)
    assert (verdict.kind, verdict.scanned) == ("dependent", 10_000)
    assert [row for row in built if row[1] == 2 * row[0]] == [(0, 0), (1, 2), (-1, -2)]


def test_independence_sequence_builds_only_the_vectors_it_keeps(monkeypatch):
    # two planes cover high_vcden(3), so the pass stalls and reads all
    # 2,000 points; once d - 1 = 2 points are chosen, only the points it
    # accepts become vectors
    inst = high_vcden(3)
    imaged = []
    image = Instance.image
    monkeypatch.setattr(Instance, "image", lambda self, p: imaged.append(p) or image(self, p))
    kept = []
    keep = constructions._vector_of_ints
    monkeypatch.setattr(constructions, "_vector_of_ints", lambda f, row: kept.append(row) or keep(f, row))
    with pytest.raises(BudgetExhaustedError, match="after scanning 2000 stream points") as info:
        independence_sequence(inst, 10, budget=2_000)
    points = info.value.partial["points"]
    assert len(points) > 2
    assert imaged == list(islice(inst.stream(), len(imaged)))
    assert imaged[-1] == points[1]
    assert kept == [inst.row(p) for p in points[2:]]
