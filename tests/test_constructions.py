"""Constructive machinery: dual bases, d-wise sequences, the plane grid."""

from collections import Counter
from dataclasses import replace
from itertools import combinations, islice
from math import comb

import pytest

from zerotrace import exactalg
from zerotrace.constructions import (
    MAX_SUBSETS,
    binom_le,
    dual_basis,
    grid_max_tree,
    grid_membership,
    grid_point,
    grid_witness,
    independence_sequence,
    max_vc_trace,
    shattered_set,
    subset_witness,
)
from zerotrace.errors import BudgetExhaustedError, InvalidInputError, ResourceLimitError
from zerotrace.exactalg import QQ, PrimeField, Vector, dot, rank
from zerotrace.instances import high_vcden, integer_spiral, moment_curve, polynomial_instance, two_lines
from zerotrace.littlestone import count_well_labeled
from zerotrace.setsystem import shatters, vcdim
from zerotrace.zerosets import Instance, Sample, enumerate_family_flats, linearly_independent


def test_binom_le_table():
    assert binom_le(0, 2) == 1
    assert binom_le(4, 0) == 1
    assert binom_le(5, 1) == 6
    assert [binom_le(n, 2) for n in range(3, 9)] == [7, 11, 16, 22, 29, 37]
    assert binom_le(3, 9) == 8  # saturates at the full power set


def test_dual_basis_kronecker():
    db = dual_basis(moment_curve(3))
    assert db.points == (0, 1, -1)
    db.verify()
    for i, c in enumerate(db.points):
        for j in range(3):
            value = db.evaluate_row(j, c)
            assert value == (QQ.one if i == j else QQ.zero)


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
    shat = shattered_set(db)
    assert len(shat.points) == 3
    sample = Sample.take(inst, shat.points)
    zero = QQ.zero
    for size in range(0, 3 + 1):
        for subset in map(frozenset, combinations(range(3), size)):
            w = shat.witness_for_trace(subset)
            got = {i for i, v in enumerate(sample.images) if dot(w, v) == zero}
            assert got == subset
    fam = enumerate_family_flats(sample).to_set_family()
    assert shatters(fam, range(3))
    assert vcdim(fam) == 3
    with pytest.raises(InvalidInputError):
        shat.witness_for_trace({3})


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
    assert len(partial["points"]) == 2
    assert partial["blocking_spans"]


def test_independence_sequence_checks_subset_cap_before_scanning():
    def no_stream():
        raise AssertionError("stream scanned")

    # C(17, 9) = 24310 spans would be kept; C(11, 3) = 165 stays below the cap
    inst = replace(moment_curve(10), stream=no_stream)
    with pytest.raises(ResourceLimitError, match=f"over the cap {MAX_SUBSETS}"):
        independence_sequence(inst, 17)
    assert comb(17, 9) > MAX_SUBSETS >= comb(11, 3)
    assert len(independence_sequence(moment_curve(4), 11)) == 11


@pytest.mark.parametrize("field", [QQ, PrimeField(13)], ids=["Q", "F13"])
def test_independence_sequence_prefix_does_not_depend_on_length(field):
    inst = moment_curve(4, field)
    longest = independence_sequence(inst, 9).points
    for k in range(1, 9):
        assert independence_sequence(inst, k).points == longest[:k]


def test_subset_witness_separation():
    seq = independence_sequence(moment_curve(3), 5)
    w = subset_witness(seq, (1, 3))
    zero = QQ.zero
    for i, v in enumerate(seq.images):
        assert (dot(w, v) == zero) == (i in (1, 3))
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
    assert grid_point(QQ, 3, 0, 0).entries == Vector.make(QQ, (1, 1, 0)).entries
    assert grid_point(QQ, 3, 1, 2).entries == Vector.make(QQ, (1, 0, 3)).entries
    assert grid_witness(QQ, 3, (0, 1)).entries == Vector.make(QQ, (2, -2, -1)).entries
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
                assert (dot(b, c) == QQ.zero) == grid_membership(QQ, 3, i, j, js)


def test_grid_max_tree_counts():
    inst = high_vcden(3)
    for n, expect in ((3, 7), (4, 11), (5, 16)):
        result = grid_max_tree(inst, n)
        assert result.well_labeled_target == expect
        assert count_well_labeled(result.tree, result.family) == expect
        assert result.tree.depth == n


def test_grid_max_tree_respects_dimension_guard():
    with pytest.raises(InvalidInputError):
        grid_max_tree(moment_curve(3), 3)  # no grid structure on this instance


def _boxed(name, d, values):
    """An instance whose evaluator builds its images from boxed entries."""
    return Instance(
        name=name,
        field=QQ,
        d=d,
        evaluate=lambda x: Vector.make(QQ, values(x)),
        stream=integer_spiral,
    )


def test_each_image_is_converted_to_ints_at_most_once(monkeypatch):
    converted = Counter()
    original = exactalg._over_common_denominator

    def counting(entries):
        converted[tuple(entries)] += 1
        return original(entries)

    monkeypatch.setattr(exactalg, "_over_common_denominator", counting)
    budget = 300
    boxed_curve = _boxed("boxed_curve", 3, lambda x: (1, x, x * x))
    boxed_pair = _boxed("boxed_pair", 2, lambda x: (x, 2 * x))
    assert len(independence_sequence(boxed_curve, 9)) == 9
    assert linearly_independent(boxed_pair, budget=budget).kind == "dependent"
    images = {boxed_curve.image(x).entries for x in islice(integer_spiral(), 9)}
    images |= {boxed_pair.image(x).entries for x in islice(integer_spiral(), budget)}
    assert max(converted.values()) == 1
    assert sum(converted[e] for e in images) == len(images)

    # images built from ints carry their rows: none is converted at all
    converted.clear()
    int_curve = moment_curve(3)
    int_pair = polynomial_instance(QQ, 2, ["x", "2*x"], ["x"])
    independence_sequence(int_curve, 9)
    linearly_independent(int_pair, budget=budget)
    images = {int_curve.image(x).entries for x in islice(integer_spiral(), 9)}
    images |= {int_pair.image(x).entries for x in islice(integer_spiral(), budget)}
    assert not images & set(converted)
