"""Built-in instances, polynomial instances, and the instance JSON spec.

Streams are the documented deterministic orders:

* one integer variable over Q: 0, 1, -1, 2, -2, ...
* several integer variables over Q: square shells by max-norm, radius
  ascending, lexicographic within a shell
* prime fields: lexicographic over F_p tuples, coordinates 0..p-1

Polynomial instances accept expressions in named variables built from
integer literals, +, -, *, and nonnegative integer powers (either ** or
^); they are validated as an AST whitelist and evaluated exactly over
the instance field.

Every evaluator here takes integer point descriptors and computes in
ints: exact integers over Q, residues over F_p (powers taken mod p).
exactalg._vector_of_ints turns the result into the image vector and its
int row at once.
"""

from __future__ import annotations

import ast
from itertools import count, product
from typing import Iterator, Sequence

from .errors import InvalidInputError, ResourceLimitError
from .exactalg import (
    Field,
    PrimeField,
    QQ,
    _vector_of_ints,
    basis_vector,
    field_from_json,
    field_to_json,
    residue_tuples,
)
from .setsystem import MAX_POINTS
from .zerosets import Instance, Sample, point_from_json


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def integer_spiral() -> Iterator[int]:
    yield 0
    for n in count(1):
        yield n
        yield -n


def integer_shells(dims: int) -> Iterator[tuple]:
    """Z^dims by max-norm shells, lexicographic inside each shell."""
    yield (0,) * dims
    for radius in count(1):
        for point in product(range(-radius, radius + 1), repeat=dims):
            if max(abs(c) for c in point) == radius:
                yield point


# ---------------------------------------------------------------------------
# Polynomial expression compiler
# ---------------------------------------------------------------------------

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Pow)


def _validate_poly_ast(node: ast.AST, variables: Sequence[str]) -> None:
    if isinstance(node, ast.Expression):
        _validate_poly_ast(node.body, variables)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise InvalidInputError("only +, -, * and integer powers are allowed")
        if isinstance(node.op, ast.Pow):
            if not (
                isinstance(node.right, ast.Constant)
                and isinstance(node.right.value, int)
                and node.right.value >= 0
            ):
                raise InvalidInputError("exponents must be literal nonnegative integers")
            _validate_poly_ast(node.left, variables)
        else:
            _validate_poly_ast(node.left, variables)
            _validate_poly_ast(node.right, variables)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.UAdd, ast.USub)):
            raise InvalidInputError("only unary + and - are allowed")
        _validate_poly_ast(node.operand, variables)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, int) or isinstance(node.value, bool):
            raise InvalidInputError(f"non-integer literal {node.value!r}")
    elif isinstance(node, ast.Name):
        if node.id not in variables:
            raise InvalidInputError(f"unknown variable {node.id!r}")
    else:
        raise InvalidInputError(f"disallowed syntax: {type(node).__name__}")


class _PowersModP(ast.NodeTransformer):
    """Rewrites every a ** k as a.__pow__(k, p): the power is reduced mod
    p as it is taken, so none grows past p however large k is."""

    def __init__(self, p: int):
        self.p = p

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        method = ast.Attribute(value=node.left, attr="__pow__", ctx=ast.Load())
        call = ast.Call(func=method, args=[node.right, ast.Constant(self.p)], keywords=[])
        return ast.copy_location(call, node)


def compile_polynomials(texts: Sequence[str], variables: Sequence[str], p: int = 0):
    """Compile polynomial expressions into one exact evaluator.

    Returns a callable taking a dict of variable -> value (field elements
    or ints) and returning the tuple of the polynomials' values, all from
    one eval.  With a prime p the values must be ints; powers are then
    taken mod p, and the results are right mod p.
    """
    bodies = []
    for text in texts:
        try:
            parsed = ast.parse(text.replace("^", "**"), mode="eval")
        except SyntaxError as exc:
            raise InvalidInputError(f"cannot parse polynomial {text!r}: {exc}") from None
        _validate_poly_ast(parsed, variables)
        bodies.append(_PowersModP(p).visit(parsed.body) if p else parsed.body)
    tree = ast.fix_missing_locations(ast.Expression(ast.Tuple(bodies, ast.Load())))
    code = compile(tree, f"<polynomials {list(texts)!r}>", "eval")
    no_builtins = {"__builtins__": {}}

    def evaluate(env: dict) -> tuple:
        return eval(code, no_builtins, env)  # noqa: S307 - AST whitelisted

    return evaluate


def polynomial_instance(
    field: Field,
    d: int,
    polynomials: Sequence[str],
    variables: Sequence[str],
    *,
    name: str = "",
) -> Instance:
    if len(polynomials) != d:
        raise InvalidInputError(f"need exactly d={d} polynomials, got {len(polynomials)}")
    if not variables or len(set(variables)) != len(variables):
        raise InvalidInputError("variables must be a nonempty list of distinct names")
    p = field.p
    evaluate_all = compile_polynomials(polynomials, variables, p)
    dims = len(variables)

    def evaluate(point):
        coords = point if isinstance(point, tuple) else (point,)
        if len(coords) != dims:
            raise InvalidInputError(f"point {point!r} has wrong arity, expected {dims}")
        if not all(map(_is_int, coords)):
            raise InvalidInputError(f"point {point!r} has a non-integer coordinate")
        env = dict(zip(variables, [c % p for c in coords] if p else coords))
        return _vector_of_ints(field, evaluate_all(env))

    def stream():
        if isinstance(field, PrimeField):
            pts = residue_tuples(field.p, dims)
        elif dims == 1:
            pts = integer_spiral()
        else:
            pts = integer_shells(dims)
        for pt in pts:
            yield pt if dims > 1 else (pt[0] if isinstance(pt, tuple) else pt)

    resolved_name = name or f"poly[{', '.join(polynomials)}]"
    spec = {
        "name": resolved_name,
        "field": field_to_json(field),
        "d": d,
        "family": {"polynomials": list(polynomials), "variables": list(variables)},
    }
    return Instance(
        name=resolved_name,
        field=field,
        d=d,
        evaluate=evaluate,
        stream=stream,
        spec=spec,
    )


# ---------------------------------------------------------------------------
# Built-in instances
# ---------------------------------------------------------------------------


def moment_curve(d: int, field: Field = QQ) -> Instance:
    """Powers 1, x, ..., x^(d-1): the canonical independent instance."""
    if d < 1:
        raise InvalidInputError("moment curve needs d >= 1")

    p = field.p

    def evaluate(x):
        if not _is_int(x):
            raise InvalidInputError(f"moment curve point {x!r} is not an integer")
        if p:
            x %= p
        return _vector_of_ints(field, [x**k for k in range(d)])

    def stream():
        if isinstance(field, PrimeField):
            return iter(range(field.p))
        return integer_spiral()

    suffix = f"_f{field.p}" if isinstance(field, PrimeField) else ""
    return Instance(
        name=f"moment_curve_d{d}{suffix}",
        field=field,
        d=d,
        evaluate=evaluate,
        stream=stream,
        spec={"field": field_to_json(field), "d": d, "family": {"builtin": "moment_curve"}},
    )


def conics() -> Instance:
    """All degree-<=2 monomials in two variables over Q (d = 6)."""
    return polynomial_instance(
        QQ, 6, ["x^2", "x*y", "y^2", "x", "y", "1"], ["x", "y"], name="conics"
    )


def ellipse_carrier() -> Instance:
    """Axis-aligned conic carrier: no cross term (d = 5)."""
    return polynomial_instance(
        QQ, 5, ["x^2", "y^2", "x", "y", "1"], ["x", "y"], name="ellipse_carrier"
    )


def high_vcden(d: int, field: Field = QQ) -> Instance:
    """Identity embedding of a union of coordinate planes in F^d.

    Domain points are (i, s, t) meaning s*e_0 + t*e_(i+1), so the image
    is the union of the d-1 planes span{e_0, e_(i+1)}.  Rich traces on
    grid samples, yet the image is covered by finitely many proper
    subspaces, so this is the canonical non-maximal instance.
    """
    if d < 2:
        raise InvalidInputError("plane-union instance needs d >= 2")

    def evaluate(point):
        if not (isinstance(point, tuple) and len(point) == 3 and all(map(_is_int, point))):
            raise InvalidInputError(f"plane-union point {point!r} is not an integer triple")
        i, s, t = point
        if not 0 <= i < d - 1:
            raise InvalidInputError(f"plane index {i} out of range")
        ints = [0] * d
        ints[0] = s
        ints[i + 1] = t
        return _vector_of_ints(field, ints)

    def stream():
        if isinstance(field, PrimeField):
            pairs: Iterator = residue_tuples(field.p, 2)
        else:
            pairs = integer_shells(2)
        for s, t in pairs:
            if t == 0:
                yield (0, s, t)  # the shared e_0 axis; one copy is enough
            else:
                for i in range(d - 1):
                    yield (i, s, t)

    def profile_points(n: int) -> list:
        pts = []
        for k in range(n):
            for i in range(d - 1):
                pts.append((i, 1, k + 1))
        pts.append((0, 1, n + 1))
        return pts

    cover = tuple(
        (basis_vector(field, d, 0), basis_vector(field, d, i + 1)) for i in range(d - 1)
    )
    suffix = f"_f{field.p}" if isinstance(field, PrimeField) else ""
    return Instance(
        name=f"high_vcden_d{d}{suffix}",
        field=field,
        d=d,
        evaluate=evaluate,
        stream=stream,
        cover_subspaces=cover,
        profile_points=profile_points,
        spec={"field": field_to_json(field), "d": d, "family": {"builtin": "high_vcden"}},
    )


def two_lines() -> Instance:
    """Q-instance whose image alternates between the two axis lines."""
    field = QQ

    def evaluate(x):
        if not _is_int(x):
            raise InvalidInputError(f"two_lines point {x!r} is not an integer")
        return _vector_of_ints(field, (x, 0) if x % 2 == 0 else (0, x))

    cover = ((basis_vector(field, 2, 0),), (basis_vector(field, 2, 1),))
    return Instance(
        name="two_lines",
        field=field,
        d=2,
        evaluate=evaluate,
        stream=integer_spiral,
        cover_subspaces=cover,
        spec={"field": "rational", "d": 2, "family": {"builtin": "two_lines"}},
    )


_BUILTIN_DOC = {
    "moment_curve": "powers 1..x^(d-1); params d (default 3), p (optional prime)",
    "conics": "degree-<=2 monomials in x,y over Q (d=6)",
    "ellipse_carrier": "x^2,y^2,x,y,1 over Q (d=5)",
    "high_vcden": "union of coordinate planes, identity map; params d (default 3), p",
    "two_lines": "image alternating between the two axis lines over Q (d=2)",
}


def builtin_names() -> list:
    return sorted(_BUILTIN_DOC)


def builtin_help() -> dict:
    return dict(_BUILTIN_DOC)


def make_builtin(name: str, *, d: int | None = None, p: int | None = None) -> Instance:
    field: Field = PrimeField(p) if p is not None else QQ
    if name == "moment_curve":
        return moment_curve(d if d is not None else 3, field)
    if name == "high_vcden":
        return high_vcden(d if d is not None else 3, field)
    if name in ("conics", "ellipse_carrier", "two_lines"):
        if p is not None:
            raise InvalidInputError(f"builtin {name} is defined over Q only")
        made = {"conics": conics, "ellipse_carrier": ellipse_carrier, "two_lines": two_lines}[
            name
        ]()
        if d is not None and d != made.d:
            raise InvalidInputError(f"builtin {name} has fixed d={made.d}")
        return made
    raise InvalidInputError(f"unknown builtin {name!r}; known: {', '.join(builtin_names())}")


def parse_instance_name(text: str) -> Instance:
    """Parse CLI shorthand like "moment_curve:4" or "moment_curve:2,p=3"."""
    name, _, params = text.partition(":")
    given = {}
    if params:
        for part in params.split(","):
            part = part.strip()
            key, value = part.split("=", 1) if "=" in part else ("d", part)
            if key not in ("p", "d") or not value.isdecimal():
                raise InvalidInputError(f"bad instance parameter {part!r}")
            given[key] = int(value)
    return make_builtin(name, d=given.get("d"), p=given.get("p"))


# ---------------------------------------------------------------------------
# Instance spec JSON
# ---------------------------------------------------------------------------


def instance_from_spec(spec: dict) -> Instance:
    """Build an instance from the JSON spec format.

    {"field": "rational" | {"prime": p},
     "d": int,
     "family": {"builtin": name} | {"polynomials": [...], "variables": [...]},
     "sample": {"prefix": k} | {"points": [...]}}      (sample is optional)
    """
    if not isinstance(spec, dict):
        raise InvalidInputError("instance spec must be a JSON object")
    for key in ("field", "d", "family"):
        if key not in spec:
            raise InvalidInputError(f"instance spec missing {key!r}")
    field = field_from_json(spec["field"])
    d = spec["d"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise InvalidInputError(f"bad dimension d={d!r}")
    if not isinstance(spec.get("name", ""), str):
        raise InvalidInputError("'name' must be a string")
    fam = spec["family"]
    if not isinstance(fam, dict):
        raise InvalidInputError("'family' must be an object")
    if "builtin" in fam:
        p = field.p if isinstance(field, PrimeField) else None
        return make_builtin(fam["builtin"], d=d, p=p)
    if "polynomials" in fam:
        return polynomial_instance(
            field,
            d,
            _string_list(fam["polynomials"], "polynomials"),
            _string_list(fam.get("variables", ["x"]), "variables"),
            name=spec.get("name", ""),
        )
    raise InvalidInputError("'family' needs 'builtin' or 'polynomials'")


def _string_list(value, key: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InvalidInputError(f"{key!r} must be a list of strings")
    return value


def sample_from_spec(instance: Instance, spec: dict, *, default_prefix: int) -> Sample:
    """Resolve the optional "sample" part of an instance spec."""
    part = spec.get("sample") if isinstance(spec, dict) else None
    if part is None:
        return Sample.prefix(instance, default_prefix)
    if not isinstance(part, dict):
        raise InvalidInputError("'sample' must be an object")
    if "prefix" in part:
        k = part["prefix"]
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise InvalidInputError(f"sample prefix must be an integer >= 1, got {k!r}")
        if k > MAX_POINTS:
            raise ResourceLimitError(f"sample prefix {k} exceeds the limit of {MAX_POINTS} points")
        return Sample.prefix(instance, k)
    if "points" in part:
        if not isinstance(part["points"], list):
            raise InvalidInputError("sample 'points' must be a list")
        return Sample.take(instance, [point_from_json(p) for p in part["points"]])
    raise InvalidInputError("'sample' needs 'prefix' or 'points'")
