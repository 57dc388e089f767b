"""Exact arithmetic and linear algebra unit tests."""

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zerotrace import exactalg
from zerotrace.errors import (
    DimensionMismatchError,
    FieldMismatchError,
    InvalidInputError,
)
from zerotrace.exactalg import (
    QQ,
    FpElement,
    PrimeField,
    Span,
    Vector,
    basis_vector,
    dot,
    field_from_json,
    field_to_json,
    in_span,
    independent,
    nullspace_basis,
    projective_normalize,
    rank,
    residue_tuples,
    row_space_canonical,
    scalar_from_str,
    scalar_to_str,
    zero_mask,
)

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F13 = PrimeField(13)


def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(InvalidInputError):
            PrimeField(bad)


def test_residue_tuples_are_lexicographic_and_lazy():
    for p, r in ((2, 0), (3, 1), (3, 3), (5, 2)):
        assert list(residue_tuples(p, r)) == list(product(range(p), repeat=r))
    # the largest modulus: no range(p) is ever built
    assert list(islice(residue_tuples(2**31 - 1, 3), 3)) == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
    assert QQ.p == 0 and F13.p == 13


def test_fp_inverse_exhaustive():
    for a in range(1, 7):
        x = F7.element(a)
        assert x * (F7.one / x) == F7.one
        assert x ** 6 == F7.one  # Fermat


def test_fp_mixed_field_arithmetic_rejected():
    with pytest.raises(FieldMismatchError):
        F3.element(1) + F5.element(1)


def test_fp_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        F3.one / F3.zero


def test_rational_exactness():
    a = QQ.element(1, 3)
    b = QQ.element(1, 6)
    assert a + b == QQ.element(1, 2)
    assert QQ.coerce(Fraction(2, 4)) == QQ.element(1, 2)


@given(st.integers(-40, 40), st.integers(1, 40))
def test_scalar_str_round_trip_rational(num, den):
    x = QQ.element(num, den)
    assert scalar_from_str(QQ, scalar_to_str(x)) == x


@given(st.integers(0, 4))
def test_scalar_str_round_trip_fp(v):
    x = F5.element(v)
    assert scalar_from_str(F5, scalar_to_str(x)) == x


def test_field_json_round_trip():
    for field in (QQ, F3, F5):
        assert field_from_json(field_to_json(field)) == field


def test_vector_arithmetic():
    v = Vector.make(QQ, (1, 2, 3))
    w = Vector.make(QQ, (4, 5, 6))
    assert (v + w).entries == Vector.make(QQ, (5, 7, 9)).entries
    assert (w - v).entries == Vector.make(QQ, (3, 3, 3)).entries
    assert v.scale(QQ.element(2)).entries == Vector.make(QQ, (2, 4, 6)).entries
    assert basis_vector(QQ, 3, 1).entries == Vector.make(QQ, (0, 1, 0)).entries


def test_vector_width_mismatch():
    with pytest.raises(DimensionMismatchError):
        Vector.make(QQ, (1, 2)) + Vector.make(QQ, (1, 2, 3))


def test_vector_field_mismatch():
    with pytest.raises(FieldMismatchError):
        Vector.make(QQ, (1, 2)) + Vector.make(F3, (1, 2))


@given(
    st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    st.integers(-4, 4),
)
def test_dot_is_bilinear(a, b, c):
    va, vb = Vector.make(QQ, a), Vector.make(QQ, b)
    scaled = dot(va.scale(QQ.element(c)), vb)
    assert scaled == QQ.element(c) * dot(va, vb)
    assert dot(va + vb, vb) == dot(va, vb) + dot(vb, vb)


def test_vandermonde_rank():
    nodes = [0, 1, 2]
    rows = [Vector.make(QQ, (1, x, x * x)) for x in nodes]
    assert rank(rows) == 3
    rows.append(Vector.make(QQ, (1, 2, 4)))  # repeated node
    assert rank(rows) == 3
    assert not independent(rows)


@st.composite
def f5_vectors(draw, width=3, count=4):
    n = draw(st.integers(1, count))
    return [
        Vector.make(F5, [draw(st.integers(0, 4)) for _ in range(width)])
        for _ in range(n)
    ]


@given(f5_vectors())
def test_in_span_matches_rank_growth(vectors):
    *basis, v = vectors
    grows = rank(basis + [v]) > rank(basis)
    assert in_span(v, basis) == (not grows)


@given(f5_vectors())
def test_row_space_canonical_is_span_invariant(vectors):
    canon = row_space_canonical(vectors)
    assert len(canon) == rank(vectors)
    # invariant under reordering and rescaling by units
    two = F5.element(2)
    mangled = [v.scale(two) for v in reversed(vectors)]
    assert row_space_canonical(mangled) == canon
    # canonical rows lie in the original span and vice versa
    assert all(in_span(row, vectors) for row in canon)
    assert all(in_span(v, list(canon)) for v in vectors)


def test_row_space_canonical_separates_spans():
    a = row_space_canonical([Vector.make(QQ, (1, 0))])
    b = row_space_canonical([Vector.make(QQ, (0, 1))])
    c = row_space_canonical([Vector.make(QQ, (2, 0))])
    assert a != b
    assert a == c
    assert row_space_canonical([]) == ()


def test_projective_normalize():
    v = Vector.make(QQ, (0, -3, 6))
    n = projective_normalize(v)
    assert n.entries == Vector.make(QQ, (0, 1, -2)).entries
    assert projective_normalize(v.scale(QQ.element(7, 2))).entries == n.entries
    with pytest.raises(InvalidInputError):
        projective_normalize(Vector.make(QQ, (0, 0)))


@given(f5_vectors(width=4))
def test_nullspace_basis_is_orthogonal_complement(vectors):
    width = 4
    kernel = nullspace_basis(F5, width, vectors)
    assert len(kernel) == width - rank(vectors)
    for k in kernel:
        assert all(dot(v, k) == F5.zero for v in vectors)
    assert independent(kernel)


def test_nullspace_basis_no_rows_is_standard_basis():
    kernel = nullspace_basis(QQ, 3, [])
    assert [k.entries for k in kernel] == [basis_vector(QQ, 3, i).entries for i in range(3)]


# -- reference implementations ---------------------------------------------
# Independent of Span: textbook forward elimination with the first
# nonzero entry in row-major order as pivot, membership by rank
# comparison, and the kernel by back-substitution.


def _ref_echelon(rows, width, field):
    zero = field.zero
    pivot_cols = []
    pivot_row = 0
    for col in range(width):
        found = next((r for r in range(pivot_row, len(rows)) if rows[r][col] != zero), None)
        if found is None:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        pivot = rows[pivot_row][col]
        for r in range(pivot_row + 1, len(rows)):
            if rows[r][col] != zero:
                factor = rows[r][col] / pivot
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return pivot_cols, rows


def _ref_rank(vectors):
    if not vectors:
        return 0
    field = vectors[0].field
    return len(_ref_echelon([list(v.entries) for v in vectors], len(vectors[0]), field)[0])


def _ref_in_span(v, basis):
    if not basis:
        return v.is_zero()
    return _ref_rank(basis) == _ref_rank(basis + [v])


def _ref_row_space_canonical(vectors):
    if not vectors:
        return ()
    field = vectors[0].field
    zero = field.zero
    pivot_cols, rows = _ref_echelon([list(v.entries) for v in vectors], len(vectors[0]), field)
    reduced = rows[: len(pivot_cols)]
    for i in range(len(pivot_cols) - 1, -1, -1):
        col = pivot_cols[i]
        reduced[i] = [a / reduced[i][col] for a in reduced[i]]
        for r in range(i):
            factor = reduced[r][col]
            if factor != zero:
                reduced[r] = [a - factor * b for a, b in zip(reduced[r], reduced[i])]
    return tuple(Vector(field, tuple(row)) for row in reduced)


def _ref_nullspace_basis(field, width, vectors):
    zero = field.zero
    pivot_cols, rows = _ref_echelon([list(v.entries) for v in vectors], width, field)
    basis = []
    for free_col in range(width):
        if free_col in pivot_cols:
            continue
        solution = [zero] * width
        solution[free_col] = field.one
        for i in range(len(pivot_cols) - 1, -1, -1):
            col = pivot_cols[i]
            acc = zero
            for j in range(col + 1, width):
                acc = acc + rows[i][j] * solution[j]
            solution[col] = -acc / rows[i][col]
        basis.append(Vector(field, tuple(solution)))
    return basis


def _random_system(rng, field, width):
    """Small row lists mixing the edge cases: zero rows, repeats, full rank."""
    if isinstance(field, PrimeField):
        entry = lambda: field.element(rng.randrange(field.p))  # noqa: E731
    else:
        entry = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))  # noqa: E731
    rows = [Vector(field, tuple(entry() for _ in range(width))) for _ in range(rng.randint(0, width + 2))]
    shape = rng.randrange(4)
    if shape == 0 and rows:
        rows.append(rows[rng.randrange(len(rows))])  # repeated row
    elif shape == 1:
        rows.insert(rng.randint(0, len(rows)), Vector(field, (field.zero,) * width))
    elif shape == 2:
        rows += [basis_vector(field, width, i) for i in rng.sample(range(width), width)]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_span_matches_reference_elimination(field):
    rng = random.Random(20211)
    for _ in range(150):
        width = rng.randint(1, 4)
        rows = _random_system(rng, field, width)
        probes = _random_system(rng, field, width) + rows
        span = Span(rows)
        assert rank(rows) == len(span) == _ref_rank(rows)
        assert independent(rows) == (_ref_rank(rows) == len(rows))
        assert row_space_canonical(rows) == _ref_row_space_canonical(rows)
        assert nullspace_basis(field, width, rows) == _ref_nullspace_basis(field, width, rows)
        for v in probes:
            assert in_span(v, rows) == in_span(v, span) == _ref_in_span(v, rows)
        grown = Span()
        for i, v in enumerate(rows):
            assert grown.add(v) == (_ref_rank(rows[: i + 1]) > _ref_rank(rows[:i]))
        assert len(grown) == len(span)


def _wide_system(rng, field, width):
    """Row lists that stress integer-row growth and the gcd and sign
    normalization: entries up to +-60 (Q denominators up to 9), negative
    leading entries, zero rows, repeated and negated rows, full rank."""
    if isinstance(field, PrimeField):
        entry = lambda: field.element(rng.randint(-60, 60))  # noqa: E731
    else:
        entry = lambda: Fraction(rng.randint(-60, 60), rng.randint(1, 9))  # noqa: E731
    rows = []
    for _ in range(rng.randint(0, width + 3)):
        entries = [entry() if rng.random() < 0.8 else field.zero for _ in range(width)]
        lead = next((i for i, a in enumerate(entries) if a), None)
        if lead is not None and not isinstance(field, PrimeField):
            entries[lead] = -abs(entries[lead])
        rows.append(Vector(field, tuple(entries)))
    shape = rng.randrange(4)
    if shape == 0 and rows:
        rows.append(rows[rng.randrange(len(rows))])
        rows.append(rows[rng.randrange(len(rows))].scale(field.element(-1)))
    elif shape == 1:
        rows.insert(rng.randint(0, len(rows)), Vector(field, (field.zero,) * width))
    elif shape == 2:  # triangular with a nonzero diagonal: full rank
        for i in range(width):
            tail = tuple(entry() for _ in range(width - i - 1))
            rows.append(Vector(field, (field.zero,) * i + (entry() or field.one,) + tail))
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("field", [QQ, PrimeField(2), F3, PrimeField(13)], ids=str)
def test_span_matches_reference_on_wide_systems(field):
    rng = random.Random(90210)
    for _ in range(120):
        width = rng.randint(1, 7)
        rows = _wide_system(rng, field, width)
        probes = _wide_system(rng, field, width) + rows
        span = Span(rows)
        assert rank(rows) == len(span) == _ref_rank(rows)
        assert independent(rows) == (_ref_rank(rows) == len(rows))
        assert row_space_canonical(rows) == _ref_row_space_canonical(rows)
        assert nullspace_basis(field, width, rows) == _ref_nullspace_basis(field, width, rows)
        for v in probes:
            assert (v in span) == in_span(v, rows) == _ref_in_span(v, rows)


def _ref_dot(a, b):
    total = a.field.zero
    for x, y in zip(a.entries, b.entries):
        total = total + x * y
    return total


@pytest.mark.parametrize("field", [QQ, PrimeField(2), F3, PrimeField(13)], ids=str)
def test_dot_matches_reference_sum(field):
    rng = random.Random(4711)
    for _ in range(300):
        width = rng.randint(0, 7)
        if isinstance(field, PrimeField):
            entry = lambda: field.element(rng.randint(-60, 60))  # noqa: E731
        elif rng.random() < 0.5:  # integer vectors
            entry = lambda: Fraction(rng.randint(-60, 60))  # noqa: E731
        else:  # mixed denominators
            entry = lambda: Fraction(rng.randint(-60, 60), rng.randint(1, 9))  # noqa: E731
        a = Vector(field, tuple(entry() for _ in range(width)))
        b = Vector(field, tuple(entry() for _ in range(width)))
        got = dot(a, b)
        assert got == _ref_dot(a, b)
        if isinstance(field, PrimeField):
            assert type(got) is FpElement and got.field == field
        else:
            assert type(got) is Fraction


def test_mixed_vectors_are_rejected_before_int_conversion(monkeypatch):
    q2 = Vector.make(QQ, (1, 0))
    q_span, f7_span = Span([q2]), Span([Vector.make(F7, (1, 0))])

    def no_conversion(*args):
        raise AssertionError("converted before the field and width checks")

    monkeypatch.setattr(exactalg, "_int_row", no_conversion)
    monkeypatch.setattr(exactalg, "_over_common_denominator", no_conversion)
    f5 = Vector.make(F5, (1, 2))
    wrong_field = [(q_span, f5), (f7_span, f5), (f7_span, q2), (q_span, (1, 2))]
    wrong_width = [(q_span, Vector.make(QQ, (1, 2, 3))), (f7_span, Vector.make(F7, (1,)))]
    for error, cases in ((FieldMismatchError, wrong_field), (DimensionMismatchError, wrong_width)):
        for span, v in cases:
            with pytest.raises(error):
                span.add(v)
            with pytest.raises(error):
                v in span  # noqa: B015
    with pytest.raises(FieldMismatchError):
        dot(q2, f5)
    with pytest.raises(FieldMismatchError):
        dot(Vector.make(F7, (1, 2)), f5)
    with pytest.raises(DimensionMismatchError):
        dot(q2, Vector.make(QQ, (1, 2, 3)))
    with pytest.raises(DimensionMismatchError):
        dot(Vector.make(F7, (1, 2)), Vector.make(F7, (1,)))


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_empty_span_membership_is_a_zero_test(field):
    assert Vector.make(field, (0, 0, 0)) in Span()
    assert Vector.make(field, (0, 3, 0)) not in Span()
    assert in_span(Vector.make(field, (0, 0)), [])
    assert not in_span(Vector.make(field, (1, 0)), [])


def test_span_runs_without_fraction_arithmetic(monkeypatch):
    rows = [
        Vector.make(QQ, r) for r in ((2, -4, 6, 0), (-3, 6, 1, 5), (1, -2, 3, 0), (0, 0, 10, 5))
    ]
    probes = [Vector.make(QQ, r) for r in ((0, 0, 2, 1), (1, 0, 0, 0), (-1, 2, 7, 5))]
    canonical = row_space_canonical(rows)
    kernel = nullspace_basis(QQ, 4, rows)

    def no_arithmetic(*args):
        raise AssertionError("Fraction arithmetic inside the echelon")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__"):
        monkeypatch.setattr(Fraction, name, no_arithmetic)
    span = Span()
    assert [span.add(v) for v in rows] == [True, True, False, False]
    assert len(span) == rank(rows) == 2
    assert [v in span for v in probes] == [True, False, True]
    assert row_space_canonical(rows) == canonical
    assert nullspace_basis(QQ, 4, rows) == kernel
    assert dot(rows[0], rows[1]) == Fraction(-24)


def _small_vector(rng, field, width):
    """Entries in -3..3 (over Q with denominators 1 to 3), so that dot
    products vanish often."""
    if isinstance(field, PrimeField):
        return Vector(field, tuple(field.element(rng.randint(-3, 3)) for _ in range(width)))
    return Vector(
        field, tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(width))
    )


@pytest.mark.parametrize("field", [QQ, PrimeField(2), F3, PrimeField(13)], ids=str)
def test_zero_mask_matches_dot_per_vector(field):
    rng = random.Random(1968)
    outcomes = set()
    for _ in range(300):
        width = rng.randint(1, 5)
        a = _small_vector(rng, field, width)
        vectors = [_small_vector(rng, field, width) for _ in range(rng.randint(0, 8))]
        zeros = [_ref_dot(a, v) == field.zero for v in vectors]
        outcomes.update(zeros)
        assert zero_mask(a, vectors) == sum(1 << i for i, z in enumerate(zeros) if z)
    assert outcomes == {True, False}


def test_zero_mask_rejects_field_and_width_mismatch():
    q2, f5 = Vector.make(QQ, (1, 2)), Vector.make(F5, (1, 2))
    assert zero_mask(q2, []) == 0
    for a, vectors in ((q2, [q2, f5]), (f5, [Vector.make(F7, (1, 2))]), (q2, [(1, 2)])):
        with pytest.raises(FieldMismatchError):
            zero_mask(a, vectors)
    for a, vectors in ((q2, [Vector.make(QQ, (1, 2, 3))]), (f5, [Vector.make(F5, (1,))])):
        with pytest.raises(DimensionMismatchError):
            zero_mask(a, vectors)


def _ref_projective_normalize(v):
    lead = next(x for x in v.entries if x != v.field.zero)
    inverse = v.field.one / lead
    return Vector(v.field, tuple(x * inverse for x in v.entries))


@pytest.mark.parametrize("field", [QQ, PrimeField(2), F3, PrimeField(13)], ids=str)
def test_projective_normalize_matches_scale_by_inverse(field):
    rng = random.Random(1968)
    entry_type = FpElement if isinstance(field, PrimeField) else Fraction
    for _ in range(300):
        v = _small_vector(rng, field, rng.randint(1, 6))
        if v.is_zero():
            with pytest.raises(InvalidInputError):
                projective_normalize(v)
            continue
        got, expected = projective_normalize(v), _ref_projective_normalize(v)
        assert got == expected
        assert [scalar_to_str(x) for x in got] == [scalar_to_str(x) for x in expected]
        assert all(type(x) is entry_type for x in got)


# -- vectors made from ints box their entries on first read -----------------

INT_ROWS = [(0, 0, 0), (3, -6, 9), (-2, 0, 5), (4, 8, -12), (0, -7, 0), (6, 3, 0), (-1, 2, -3)]


@pytest.mark.parametrize("field", [QQ, F13], ids=["Q", "F13"])
def test_vector_made_from_ints_behaves_like_an_eager_one(field):
    def lazy():  # a fresh vector each time, so no read below sees boxed entries
        return exactalg._vector_of_ints(field, ints)

    for ints in INT_ROWS:
        eager = Vector.make(field, ints)
        assert lazy() == eager and eager == lazy()
        assert lazy() != Vector.make(field, (1, 1, 1))
        assert hash(lazy()) == hash(eager)
        assert lazy() in {eager} and eager in {lazy()}
        assert {lazy(): "x"}[eager] == "x" and {eager: "x"}[lazy()] == "x"
        assert repr(lazy()) == repr(eager)
        assert [type(x) for x in lazy()] == [type(x) for x in eager]
        v = lazy()
        for name, value in (("entries", eager.entries), ("field", field), ("_row", None)):
            with pytest.raises(FrozenInstanceError):
                setattr(v, name, value)
        assert v.entries is v.entries  # boxed once, then a plain slot read
        assert v == eager


@pytest.mark.parametrize("field", [QQ, F13], ids=["Q", "F13"])
def test_vectors_made_from_ints_give_the_same_algebra(field):
    def lazy():
        return [exactalg._vector_of_ints(field, r) for r in INT_ROWS]

    eager = [Vector.make(field, r) for r in INT_ROWS]
    for i, a in enumerate(eager):
        for j, b in enumerate(eager):
            got = [dot(lazy()[i], lazy()[j]), dot(lazy()[i], b), dot(a, lazy()[j])]
            assert got == [dot(a, b)] * 3
            assert {type(x) for x in got} == {type(dot(a, b))}
        assert zero_mask(lazy()[i], lazy()) == zero_mask(a, eager)
        if a.is_zero():
            with pytest.raises(InvalidInputError):
                projective_normalize(lazy()[i])
        else:
            assert projective_normalize(lazy()[i]) == projective_normalize(a)
    for k in range(len(INT_ROWS) + 1):
        lazy_span, eager_span = Span(), Span()
        assert [lazy_span.add(v) for v in lazy()[:k]] == [eager_span.add(v) for v in eager[:k]]
        assert [in_span(v, lazy_span) for v in lazy()] == [in_span(v, eager_span) for v in eager]
        assert [in_span(v, lazy()[:k]) for v in lazy()] == [in_span(v, eager[:k]) for v in eager]
        assert rank(lazy()[:k]) == rank(eager[:k])
        assert nullspace_basis(field, 3, lazy()[:k]) == nullspace_basis(field, 3, eager[:k])
        assert row_space_canonical(lazy()[:k]) == row_space_canonical(eager[:k])


def test_int_rules_leave_vectors_made_from_ints_unboxed(monkeypatch):
    boxed = []
    original = Vector.__getattr__

    def counting(self, name):
        if name == "entries":
            boxed.append(self)
        return original(self, name)

    monkeypatch.setattr(Vector, "__getattr__", counting)
    for field in (QQ, F13):
        vectors = [exactalg._vector_of_ints(field, r) for r in INT_ROWS]
        for a in vectors:
            for b in vectors:
                dot(a, b)
            zero_mask(a, vectors)
            if any(exactalg._int_row(a)):
                projective_normalize(a)
        span = Span()
        for v in vectors:
            span.add(v)
            assert v in span
        assert len(nullspace_basis(field, 3, vectors)) == 3 - rank(vectors)
    assert boxed == []
    vectors[0].entries  # noqa: B018 - reading the entries is what gets counted
    assert boxed == [vectors[0]]
