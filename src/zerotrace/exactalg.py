"""Exact scalars, vectors and spans over Q and prime fields.

Every computation in this package reduces to linear algebra over an exact
field: rationals with arbitrary precision, or F_p for a prime p.  Floats
never appear.  Each field has one scalar form, and it prints one way
(``scalar_to_str``): over Q a plain ``fractions.Fraction`` (already in
lowest terms with positive denominator), printed "n" or "n/d"; over F_p
a plain int residue in [0, p), printed "r".  A field is a tag on each
``Vector``, so vectors of different fields or widths never mix.

Every span question (rank, membership, canonical basis, nullspace) is
answered by one echelon form, ``Span``.  Its canonical basis and
nullspace depend only on the subspace, never on the order of the input
vectors, so witnesses built from them are stable.

Each ``Vector`` is held as plain ints over one positive denominator:
residues over F_p, integers over Q.  ``Span`` rows, ``dot`` sums,
``zero_mask`` tests, equality and hashing all read those ints, and a
vector over Q boxes its entries into ``Fraction`` values only when
``.entries`` is read, anew on each read; a vector prints from its ints
(``entry_strings``), each entry as ``scalar_to_str`` prints it.  The
instance evaluators return int rows, and the stream scans in
``zerosets`` and ``constructions`` test those rows directly, boxing a
``Vector`` (``_vector_of_ints``) only for the rows they keep; their
zero tests read the ints of kernel vectors (``Vector._ints``).
"""

from __future__ import annotations

import sys
from bisect import bisect
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from itertools import count, product
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    InvalidInputError,
    ResourceLimitError,
)

# A scalar is a Fraction over Q or an int residue in [0, p) over F_p.
Scalar = Union[Fraction, int]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def residue_tuples(p: int, r: int) -> Iterator[tuple]:
    """Every r-tuple over 0..p-1, in lexicographic order, made one at a
    time: itertools.product would first build range(p) as a tuple,
    which does not fit in memory for p near 2^31."""
    if not r:
        yield ()
        return
    for head in residue_tuples(p, r - 1):
        for last in range(p):
            yield (*head, last)


def integer_shells(dims: int) -> Iterator[tuple]:
    """Z^dims by max-norm shells, lexicographic inside each shell."""
    yield (0,) * dims
    for radius in count(1):
        for point in product(range(-radius, radius + 1), repeat=dims):
            if max(map(abs, point)) == radius:
                yield point


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime p.

    p is capped so that a single product fits comfortably in a machine
    word; Python integers would not overflow anyway, but the cap
    rejects absurd moduli.
    """

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not 2 <= self.p <= 2**31 - 1:
            raise InvalidInputError(f"prime modulus out of range: {self.p!r}")
        if not _is_prime(self.p):
            raise InvalidInputError(f"modulus is not prime: {self.p}")

    @property
    def name(self) -> str:
        return f"F_{self.p}"

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class RationalField:
    """The rationals, with Fraction as the element type.

    Fraction already normalizes to lowest terms with a positive
    denominator, which is exactly the canonical form required here.
    QQ is the one instance, so fields over Q compare by identity.  Its
    characteristic p is 0, so int arithmetic reduces mod p only when p
    is nonzero.
    """

    p = 0

    @property
    def name(self) -> str:
        return "Q"

    def __repr__(self) -> str:
        return "RationalField()"


QQ = RationalField()

Field = Union[RationalField, PrimeField]


def field_to_json(field: Field):
    if isinstance(field, PrimeField):
        return {"prime": field.p}
    return "rational"


def field_from_json(data) -> Field:
    if data == "rational":
        return QQ
    if isinstance(data, dict) and set(data) == {"prime"}:
        return PrimeField(data["prime"])
    raise InvalidInputError(f"unrecognized field descriptor: {data!r}")


def _too_many_digits() -> ResourceLimitError:
    return ResourceLimitError(
        f"a value has more than {sys.get_int_max_str_digits()} digits, too many to print"
    )


def scalar_to_str(x: Scalar) -> str:
    """str(x), "n" or "n/d" for a Fraction and "r" for a residue; an int
    past sys.get_int_max_str_digits() is a resource limit."""
    try:
        return str(x)
    except ValueError:
        raise _too_many_digits() from None


def scalar_from_str(field: Field, text: str) -> Scalar:
    try:
        if field.p:
            return int(text) % field.p
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"bad scalar {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Vectors and spans
# ---------------------------------------------------------------------------


class Vector:
    """Immutable fixed-width vector with a field tag, held in one int form.

    Vector(field, entries) takes ints over either field, and Fractions
    over Q; over F_p it reduces them mod p.  _ints over the positive int
    _den gives the entries: entries[i] == _ints[i] / _den.  Over F_p
    _den is 1 and _ints holds residues, which .entries returns as they
    are; over Q gcd(*_ints, _den) == 1, and .entries boxes Fractions
    anew on each read.  That form is canonical, so equality and hashing
    read it.  A Vector is neither iterated nor indexed: one entry is
    read off _ints and _den.  Vector and _vector_of_ints are the
    constructors, and _fill is the only writer.
    """

    __slots__ = ("field", "_ints", "_den")

    def __init__(self, field: Field, entries: Iterable):
        entries = tuple(entries)
        kinds = int if field.p else (int, Fraction)
        for x in entries:
            if isinstance(x, bool) or not isinstance(x, kinds):
                raise FieldMismatchError(f"cannot coerce {x!r} into {field.name}")
        dens = [x.denominator for x in entries]
        den = lcm(*dens)
        _fill(self, field, [x.numerator * (den // d) for x, d in zip(entries, dens)], den)

    @property
    def entries(self) -> tuple:
        if self.field.p:
            return self._ints
        den = self._den
        return tuple([Fraction(x, den) for x in self._ints])

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return (
            self._ints == other._ints and self._den == other._den and self.field == other.field
        )

    def __hash__(self) -> int:
        return hash((self._ints, self._den))

    def __len__(self) -> int:
        return len(self._ints)

    def _check(self, other: "Vector") -> None:
        if not isinstance(other, Vector):
            raise FieldMismatchError(f"expected Vector, got {other!r}")
        if other.field != self.field:
            raise FieldMismatchError(f"mixed fields: {self.field.name} vs {other.field.name}")
        width, other_width = len(self._ints), len(other._ints)
        if other_width != width:
            raise DimensionMismatchError(f"widths differ: {width} vs {other_width}")

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        da, db = self._den, other._den
        ints = [a * db + b * da for a, b in zip(self._ints, other._ints)]
        return _vector_of_ints(self.field, ints, da * db)

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        da, db = self._den, other._den
        ints = [a * db - b * da for a, b in zip(self._ints, other._ints)]
        return _vector_of_ints(self.field, ints, da * db)

    def scale(self, c) -> "Vector":
        """c times self, for an int c, or a Fraction c over Q."""
        num = c.numerator
        return _vector_of_ints(self.field, [num * a for a in self._ints], c.denominator * self._den)

    def is_zero(self) -> bool:
        return not any(self._ints)

    def __repr__(self) -> str:
        return "(" + ", ".join(entry_strings(self)) + ")"


def entry_strings(v: Vector) -> list:
    """The entries of v as scalar_to_str prints them, read off the int
    form with no Fraction built: "r" for a residue over F_p, and over Q
    "n" or "n/q" for ints[i] / den in lowest terms.  An int past
    sys.get_int_max_str_digits() is a resource limit, as there."""
    den = v._den
    try:
        if den == 1:
            return [str(x) for x in v._ints]
        out = []
        for x in v._ints:
            g = gcd(x, den)
            out.append(str(x // g) if g == den else f"{x // g}/{den // g}")
        return out
    except ValueError:
        raise _too_many_digits() from None


def _vector_of_ints(field: Field, ints, den: int = 1) -> Vector:
    """The vector with entries ints[i] / den for a positive int den, read
    mod p over F_p.  Its entries are boxed only if read (see Vector)."""
    v = object.__new__(Vector)
    _fill(v, field, ints, den)
    return v


def _fill(v: Vector, field: Field, ints, den: int) -> None:
    """Set v to ints / den (den > 0) in its canonical form."""
    p = field.p
    if p:
        if den != 1:
            inv = pow(den, -1, p)
            ints = [x * inv for x in ints]
        ints, den = tuple([x % p for x in ints]), 1
    else:
        ints = tuple(ints)
        if den != 1:
            g = gcd(*ints, den)
            if g > 1:
                ints, den = tuple([x // g for x in ints]), den // g
    _set_field(v, field)
    _set_ints(v, ints)
    _set_den(v, den)


# The slots' own descriptors set them past Vector.__setattr__, which
# keeps Vector frozen to everyone else.
_set_field, _set_ints, _set_den = (
    Vector.__dict__[name].__set__ for name in Vector.__slots__
)


def basis_vector(field: Field, width: int, index: int) -> Vector:
    if not 0 <= index < width:
        raise DimensionMismatchError(f"basis index {index} out of range for width {width}")
    return _vector_of_ints(field, [int(k == index) for k in range(width)])


def dot(a: Vector, b: Vector) -> Scalar:
    """Exact inner product; errors on width or field mismatch."""
    a._check(b)
    total = sum(map(mul, a._ints, b._ints))
    p = a.field.p
    if p:
        return total % p
    return Fraction(total, a._den * b._den)


def projective_normalize(v: Vector) -> Vector:
    """Scale a nonzero vector so its first nonzero entry is 1.

    This is the canonical representative of the line through v, used
    for witness vectors so that reports and JSON exports are stable.
    """
    if v.is_zero():
        raise InvalidInputError("cannot normalize the zero vector")
    return _unit_lead(v.field, v._ints)


def _int_columns(vectors: Sequence[Vector]) -> list:
    """Vectors of one field and width as int tuples, all scaled by one
    positive constant: residues over F_p, or over Q the vectors times
    the least common denominator of all their entries."""
    den = lcm(*(v._den for v in vectors))
    return [tuple([x * (den // v._den) for x in v._ints]) for v in vectors]


def _line_point(row, p: int) -> tuple:
    """Canonical point of the line through a nonzero int row: first
    nonzero entry 1 mod p (p > 0; entries already residues), or coprime
    ints with a positive first nonzero entry (p == 0)."""
    lead = next(x for x in row if x)
    if p:
        inv = pow(lead, -1, p)
        return tuple([x * inv % p for x in row])
    g = gcd(*row) if lead > 0 else -gcd(*row)
    return tuple([x // g for x in row])


def _unit_lead(field: Field, row) -> Vector:
    """The vector with first nonzero entry 1 on the line through a
    nonzero int row (read mod p over F_p)."""
    point = _line_point([x % field.p for x in row] if field.p else row, field.p)
    return _vector_of_ints(field, point, next(x for x in point if x))


def zero_mask(a: Vector, vectors: Iterable[Vector]) -> int:
    """Bit i set iff a . vectors[i] == 0.  Each vector is read as its int
    form after the same field and width checks as in dot."""
    rows = []
    for v in vectors:
        a._check(v)
        rows.append(v._ints)
    return _rows_zero_mask(a.field.p, a._ints, rows)


def _rows_zero_mask(p: int, row, rows: Iterable) -> int:
    """Bit i set iff row . rows[i] == 0, mod p when p > 0, for int rows
    of one width."""
    mask = 0
    for i, r in enumerate(rows):
        total = sum(map(mul, row, r))
        if not (total % p if p else total):
            mask |= 1 << i
    return mask


class Span:
    """A subspace of F^width, held as echelon rows of the vectors added.

    Rows are plain ints; Fractions appear only at the API boundary.
    Over F_p a row holds residues with 1 at its pivot.  Over Q a row is
    the primitive integer multiple of its echelon row, with a positive
    entry at its pivot, and reduction stays in the integers (Bareiss):
    v <- r[q]*v - v[q]*r clears v at the pivot q of r.  Each stored row
    is 0 left of its pivot, pivots are distinct, and rows are kept in
    pivot order.  Reducing a vector against the rows in that order
    clears it at every pivot, so it lies in the span iff nothing is
    left.  The pivot columns are those of the reduced row-echelon form,
    which depends only on the subspace, so everything derived here is
    independent of the order vectors arrive in.  Field and width are
    fixed by the first vector added.
    """

    __slots__ = ("field", "width", "pivots", "_rows", "_p")

    def __init__(self, vectors: Iterable[Vector] = ()):
        self.field = None
        self.width = None
        self.pivots: list = []
        self._rows: list = []
        self._p = 0  # the prime over F_p, 0 over Q
        for v in vectors:
            self.add(v)

    def _reduce(self, row: list, start: int = 0) -> list:
        """row minus its components along the rows from start on, up to
        a nonzero factor (a positive one over Q)."""
        p = self._p
        for q, r in zip(self.pivots[start:], self._rows[start:]):
            c = row[q]
            if not c:
                continue
            if p:
                row = [(a - c * b) % p for a, b in zip(row, r)]
            else:
                lead = r[q]
                g = gcd(lead, c)
                if g > 1:
                    lead //= g
                    c //= g
                row = [lead * a - c * b for a, b in zip(row, r)]
        return row

    def _row_of(self, v: Vector) -> tuple:
        """v's plain-int row, once it has passed the field and width checks."""
        if not isinstance(v, Vector):
            raise FieldMismatchError(f"expected Vector, got {v!r}")
        if self.field is not None:
            if v.field != self.field:
                raise FieldMismatchError("vectors over different fields")
            if len(v._ints) != self.width:
                raise DimensionMismatchError("vectors of different widths")
        return v._ints

    def add(self, v: Vector) -> bool:
        """Extend the span by v; True iff v was not in it already."""
        residual = self._reduce(self._row_of(v))
        if self.field is None:
            self.field, self.width = v.field, len(residual)
            self._p = v.field.p
        pivot = next((j for j, a in enumerate(residual) if a), None)
        if pivot is None:
            return False
        residual = _line_point(residual, self._p)
        at = bisect(self.pivots, pivot)
        self.pivots.insert(at, pivot)
        self._rows.insert(at, residual)
        return True

    def __contains__(self, v: Vector) -> bool:
        return not any(self._reduce(self._row_of(v)))

    def __len__(self) -> int:
        return len(self._rows)

    def _reduced_rows(self) -> list:
        """Per row in pivot order: the row cleared at every other pivot,
        and its entry at its own pivot.  Row / entry is the reduced
        row-echelon row."""
        out = []
        for i, (q, row) in enumerate(zip(self.pivots, self._rows)):
            row = self._reduce(row, i + 1)
            out.append((row, row[q]))
        return out

    def canonical(self) -> tuple:
        """Reduced row-echelon basis, in pivot order."""
        return tuple(_vector_of_ints(self.field, row, lead) for row, lead in self._reduced_rows())


def rank(vectors: Sequence[Vector]) -> int:
    """Dimension of the span.  rank([]) == 0."""
    return len(Span(vectors))


def in_span(v: Vector, basis: Union[Span, Sequence[Vector]]) -> bool:
    """Membership of v in span(basis); pass a Span to test many vectors."""
    return v in (basis if isinstance(basis, Span) else Span(basis))


def row_space_canonical(vectors: Sequence[Vector]) -> tuple:
    """Canonical basis of the span: reduced echelon rows, zero rows dropped.

    Two vector lists span the same subspace iff their canonical forms
    are equal, so the result doubles as a hashable span identity.
    """
    return Span(vectors).canonical()


def nullspace_basis(field: Field, width: int, vectors: Sequence[Vector]) -> list:
    """Deterministic basis of {a : v . a == 0 for every row v}.

    One basis vector per free column of the reduced echelon form, in
    column order: it carries 1 at its own free column, 0 at the other
    free columns, and minus the reduced rows' entries in that column at
    the pivots.  With no rows the result is the standard basis of F^width.
    """
    if width < 1:
        raise DimensionMismatchError("kernel basis needs width >= 1")
    vectors = tuple(vectors)
    for v in vectors:
        if v.field != field:
            raise FieldMismatchError("row field differs from the requested field")
        if len(v._ints) != width:
            raise DimensionMismatchError("row width differs from the requested width")
    span = Span(vectors)
    rows = span._reduced_rows()
    den = lcm(*(lead for _, lead in rows))
    basis = []
    for free_col in range(width):
        if free_col in span.pivots:
            continue
        solution = [0] * width
        solution[free_col] = den
        for col, (row, lead) in zip(span.pivots, rows):
            solution[col] = -row[free_col] * (den // lead)
        basis.append(_vector_of_ints(field, solution, den))
    return basis
