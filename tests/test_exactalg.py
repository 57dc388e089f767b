"""Exact arithmetic and linear algebra unit tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zerotrace.errors import (
    DimensionMismatchError,
    FieldMismatchError,
    InvalidInputError,
)
from zerotrace.exactalg import (
    QQ,
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
    row_space_canonical,
    scalar_from_str,
    scalar_to_str,
)

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(InvalidInputError):
            PrimeField(bad)


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
    assert v.scale(QQ.from_int(2)).entries == Vector.make(QQ, (2, 4, 6)).entries
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
    scaled = dot(va.scale(QQ.from_int(c)), vb)
    assert scaled == QQ.from_int(c) * dot(va, vb)
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
