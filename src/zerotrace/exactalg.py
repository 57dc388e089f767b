"""Exact scalars, vectors and spans over Q and prime fields.

Every computation in this package reduces to linear algebra over an exact
field: rationals with arbitrary precision, or F_p for a prime p.  Floats
never appear.  Rationals are plain ``fractions.Fraction`` values (already
kept in lowest terms with positive denominator); prime-field elements are
canonical representatives in [0, p) wrapped so that mixed-field arithmetic
fails loudly instead of silently coercing.

Every span question (rank, membership, canonical basis, nullspace) is
answered by one echelon form, ``Span``.  Its canonical basis and
nullspace depend only on the subspace, never on the order of the input
vectors, so witnesses built from them are stable.

``Span`` rows, ``dot`` sums and ``zero_mask`` tests are plain ints:
residues over F_p, integer multiples over Q.  Each ``Vector`` carries its
int row, built at most once: from the ints when the vector is made from
them (``_vector_of_ints``, as the instance evaluators do), or from the
entries on first use.  A vector made from ints boxes its entries into
``Fraction`` or ``FpElement`` values only when ``.entries`` is first
read, so a stream scan that only tests images never boxes them.
Elsewhere field elements appear only at the API boundary, where a
canonical row, kernel vector, normalized witness or inner product is
built once on exit.  No other module reads the ints behind a field
element.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import DimensionMismatchError, FieldMismatchError, InvalidInputError

# Elements are Fraction (rational) or FpElement (prime field).
Scalar = Union[Fraction, "FpElement"]


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


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime p.

    p is capped so that a single product fits comfortably in a machine
    word; Python integers would not overflow anyway, but the cap keeps
    the door open for compiled arithmetic and rejects absurd moduli.
    """

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not 2 <= self.p <= 2**31 - 1:
            raise InvalidInputError(f"prime modulus out of range: {self.p!r}")
        if not _is_prime(self.p):
            raise InvalidInputError(f"modulus is not prime: {self.p}")

    # -- element construction ------------------------------------------
    def element(self, value: int) -> "FpElement":
        return FpElement(self, value % self.p)

    @property
    def zero(self) -> "FpElement":
        return self.element(0)

    @property
    def one(self) -> "FpElement":
        return self.element(1)

    def coerce(self, x) -> "FpElement":
        if isinstance(x, FpElement):
            if x.field != self:
                raise FieldMismatchError(f"element of F_{x.field.p} used in F_{self.p}")
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return self.element(x)
        raise FieldMismatchError(f"cannot coerce {x!r} into F_{self.p}")

    @property
    def name(self) -> str:
        return f"F_{self.p}"

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


@dataclass(frozen=True, slots=True)
class FpElement:
    """Canonical representative of a residue class mod a prime."""

    field: PrimeField
    value: int

    def _check(self, other) -> "FpElement":
        if isinstance(other, FpElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"mixed moduli: F_{self.field.p} vs F_{other.field.p}"
                )
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.field, (self.value + other.value) % self.field.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.field, (self.value - other.value) % self.field.p)

    def __rsub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.field, (self.value * other.value) % self.field.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.field.p}")
        inv = pow(other.value, -1, self.field.p)
        return FpElement(self.field, (self.value * inv) % self.field.p)

    def __rtruediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0 and self.value == 0:
            raise ZeroDivisionError(f"inverting zero in F_{self.field.p}")
        return FpElement(self.field, pow(self.value, exponent, self.field.p))

    def __neg__(self):
        return FpElement(self.field, (-self.value) % self.field.p)

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, FpElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.p, self.value))

    def __repr__(self) -> str:
        return f"{self.value}(mod {self.field.p})"


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
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def element(self, numerator, denominator=1) -> Fraction:
        return Fraction(numerator, denominator)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x)
        raise FieldMismatchError(f"cannot coerce {x!r} into Q")

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


def scalar_to_str(x: Scalar) -> str:
    if isinstance(x, FpElement):
        return str(x.value)
    return str(x)  # Fraction renders as "n" or "n/d"


def scalar_from_str(field: Field, text: str) -> Scalar:
    try:
        if isinstance(field, PrimeField):
            return field.element(int(text))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"bad scalar {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Vectors and spans
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Vector:
    """Immutable fixed-width vector with a field tag.

    _row caches the vector's int row (see _int_row).  _ints holds the
    entries as plain ints when the vector was made from them
    (_vector_of_ints): residues over F_p, the integers themselves over
    Q.  Such a vector leaves entries unset until it is first read, and
    __getattr__ boxes it then, once.  Neither slot takes part in
    equality, hashing or repr, which read entries.
    """

    field: Field
    entries: tuple
    _row: Optional[tuple] = dataclasses.field(
        default=None, init=False, compare=False, repr=False
    )
    _ints: Optional[tuple] = dataclasses.field(
        default=None, init=False, compare=False, repr=False
    )

    @staticmethod
    def make(field: Field, values: Iterable) -> "Vector":
        return Vector(field, tuple(field.coerce(v) for v in values))

    def __getattr__(self, name):
        # Reached only when a slot is unset: entries of a vector made from ints.
        if name != "entries":
            raise AttributeError(f"'Vector' object has no attribute {name!r}")
        field = self.field
        if isinstance(field, PrimeField):
            entries = tuple([FpElement(field, x) for x in self._ints])
        else:
            entries = tuple(map(Fraction, self._ints))
        object.__setattr__(self, "entries", entries)
        return entries

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def _check(self, other: "Vector") -> None:
        if not isinstance(other, Vector):
            raise FieldMismatchError(f"expected Vector, got {other!r}")
        if other.field != self.field:
            raise FieldMismatchError(f"mixed fields: {self.field.name} vs {other.field.name}")
        width, other_width = len(self._row or self.entries), len(other._row or other.entries)
        if other_width != width:
            raise DimensionMismatchError(f"widths differ: {width} vs {other_width}")

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(self.field, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(self.field, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, c) -> "Vector":
        c = self.field.coerce(c)
        return Vector(self.field, tuple(c * a for a in self.entries))

    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(a == zero for a in self.entries)

    def __repr__(self) -> str:
        return "(" + ", ".join(scalar_to_str(a) for a in self.entries) + ")"


def basis_vector(field: Field, width: int, index: int) -> Vector:
    if not 0 <= index < width:
        raise DimensionMismatchError(f"basis index {index} out of range for width {width}")
    return _vector_of_ints(field, [int(k == index) for k in range(width)])


def _over_common_denominator(entries: tuple) -> tuple:
    """(nums, den) with entries[i] == nums[i] / den for rationals, den
    the least common denominator."""
    dens = [x.denominator for x in entries]
    den = lcm(*dens)
    if den == 1:
        return [x.numerator for x in entries], 1
    return [x.numerator * (den // d) for x, d in zip(entries, dens)], den


def dot(a: Vector, b: Vector) -> Scalar:
    """Exact inner product; errors on width or field mismatch."""
    a._check(b)
    if isinstance(a.field, PrimeField):
        total = sum(map(mul, _int_row(a), _int_row(b)))
        return FpElement(a.field, total % a.field.p)
    na, da = _over_denominator(a)
    nb, db = _over_denominator(b)
    total = sum(map(mul, na, nb))
    return Fraction(total) if da == db == 1 else Fraction(total, da * db)


def _over_denominator(v: Vector) -> tuple:
    """(nums, den) with v's entries == nums[i] / den over Q, read from
    the ints v was made from when there are some."""
    ints = v._ints
    return (ints, 1) if ints is not None else _over_common_denominator(v.entries)


def projective_normalize(v: Vector) -> Vector:
    """Scale a nonzero vector so its first nonzero entry is 1.

    This is the canonical representative of the line through v, used
    for witness vectors so that reports and JSON exports are stable.
    """
    row = _int_row(v)
    if not any(row):
        raise InvalidInputError("cannot normalize the zero vector")
    return _unit_lead(v.field, row)


def _int_row(v: Vector) -> tuple:
    """v as plain ints: its residues over F_p, or over Q its primitive
    integer multiple.  Over Q that is a positive rescaling, so neither
    the zero pattern nor the line through v changes.  Built once per
    vector and cached on it."""
    row = v._row
    if row is None:
        if isinstance(v.field, PrimeField):
            row = tuple([x.value for x in v.entries])
        else:
            row = _primitive(_over_common_denominator(v.entries)[0])
        object.__setattr__(v, "_row", row)
    return row


def _primitive(nums) -> tuple:
    """Integers divided by their gcd (unchanged when it is 0 or 1)."""
    g = gcd(*nums)
    return tuple([n // g for n in nums] if g > 1 else nums)


def _vector_of_ints(field: Field, ints) -> Vector:
    """The vector with these integer entries, read mod p over F_p.  It
    keeps the ints and builds its int row from them; its entries are
    boxed only if read (see Vector)."""
    if isinstance(field, PrimeField):
        p = field.p
        ints = row = tuple([x % p for x in ints])
    else:
        ints = tuple(ints)
        row = _primitive(ints)
    v = object.__new__(Vector)
    object.__setattr__(v, "field", field)
    object.__setattr__(v, "_row", row)
    object.__setattr__(v, "_ints", ints)
    return v


def _int_columns(vectors: Sequence[Vector]) -> list:
    """Vectors of one field and width as int tuples, all scaled by one
    positive constant: residues over F_p, or over Q the vectors times
    the least common denominator of all their entries."""
    if isinstance(vectors[0].field, PrimeField):
        return [tuple(x.value for x in v.entries) for v in vectors]
    width = len(vectors[0])
    nums, _ = _over_common_denominator([x for v in vectors for x in v.entries])
    return [tuple(nums[i : i + width]) for i in range(0, len(nums), width)]


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
    nonzero int row, each entry built once.  Over F_p the entries are
    read mod p; over Q the row may be any nonzero multiple."""
    if isinstance(field, PrimeField):
        return _vector_of_ints(field, _line_point([x % field.p for x in row], field.p))
    lead = next(x for x in row if x)
    v = Vector(field, tuple(Fraction(x, lead) for x in row))
    object.__setattr__(v, "_row", _line_point(row, 0))
    return v


def zero_mask(a: Vector, vectors: Iterable[Vector]) -> int:
    """Bit i set iff a . vectors[i] == 0.  Each vector is read as its int
    row after the same field and width checks as in dot."""
    rows = []
    for v in vectors:
        a._check(v)
        rows.append(_int_row(v))
    return _rows_zero_mask(a, rows)


def _rows_zero_mask(a: Vector, rows: Iterable) -> int:
    """Bit i set iff a . rows[i] == 0, for int rows (see _int_row) of
    vectors over a's field and of a's width."""
    row = _int_row(a)
    p = a.field.p
    mask = 0
    for i, r in enumerate(rows):
        total = sum(map(mul, row, r))
        if not (total % p if p else total):
            mask |= 1 << i
    return mask


class Span:
    """A subspace of F^width, held as echelon rows of the vectors added.

    Rows are plain ints; field elements appear only at the API boundary.
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
            if len(v._row or v.entries) != self.width:
                raise DimensionMismatchError("vectors of different widths")
        return _int_row(v)

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
        field = self.field
        if self._p:  # every pivot entry is already 1
            return tuple(_vector_of_ints(field, row) for row, _ in self._reduced_rows())
        return tuple(
            Vector(field, tuple(Fraction(a, lead) for a in row))
            for row, lead in self._reduced_rows()
        )


def rank(vectors: Sequence[Vector]) -> int:
    """Dimension of the span.  rank([]) == 0."""
    return len(Span(vectors))


def independent(vectors: Sequence[Vector]) -> bool:
    """True iff the vectors are linearly independent (vacuously for [])."""
    vectors = tuple(vectors)
    return rank(vectors) == len(vectors)


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
        if len(v._row or v.entries) != width:
            raise DimensionMismatchError("row width differs from the requested width")
    span = Span(vectors)
    rows = span._reduced_rows()
    p = span._p
    basis = []
    for free_col in range(width):
        if free_col in span.pivots:
            continue
        solution = [field.zero] * width
        solution[free_col] = field.one
        for col, (row, lead) in zip(span.pivots, rows):
            a = row[free_col]
            solution[col] = FpElement(field, -a % p) if p else Fraction(-a, lead)
        basis.append(Vector(field, tuple(solution)))
    return basis
