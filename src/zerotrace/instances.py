"""Built-in instances, polynomial instances, and the instance JSON spec.

Streams are the documented deterministic orders, drawn for the moment
curve, polynomial instances and the plane union from one function:

* one integer variable over Q: 0, 1, -1, 2, -2, ...
* several integer variables over Q: square shells by max-norm, radius
  ascending, lexicographic within a shell
* prime fields: 0..p-1 for one variable, lexicographic over F_p tuples
  for several

Polynomial instances accept expressions in named variables built from
integer literals, +, -, *, and nonnegative integer powers (either ** or
^).  One pass over each parsed expression checks every node against
that whitelist, rewrites its powers into bounded ones and bounds its
degree in each variable; the result is evaluated exactly over the
instance field, and the degree bound gives the instance its horizon.

Every evaluator here takes integer point descriptors and returns the
image as an int row, the contract Instance.evaluate states: a tuple of d
ints, exact integers over Q and, over F_p, ints that Instance.row
reduces mod p (powers are taken mod p as they are computed).  A scan
tests those rows and boxes a Vector only for the points it keeps.
"""

from __future__ import annotations

import ast
import operator
from itertools import count
from typing import Iterator, Optional, Sequence

from .errors import InvalidInputError, ResourceLimitError
from .exactalg import (
    Field,
    PrimeField,
    QQ,
    basis_vector,
    field_from_json,
    field_to_json,
    integer_shells,
    residue_tuples,
)
from .maximality import CoverCertificate
from .setsystem import MAX_POINTS
from .zerosets import MAX_BUDGET, Instance, Sample, point_from_json


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def integer_spiral() -> Iterator[int]:
    yield 0
    for n in count(1):
        yield n
        yield -n


def _integer_points(field: Field, dims: int) -> Iterator:
    """The integer points of a stream in dims coordinates, in the
    documented order: one coordinate is an int, several a tuple."""
    if isinstance(field, PrimeField):
        return iter(range(field.p)) if dims == 1 else residue_tuples(field.p, dims)
    return integer_spiral() if dims == 1 else integer_shells(dims)


# ---------------------------------------------------------------------------
# Polynomial expression compiler
# ---------------------------------------------------------------------------

#: Over Q a power past this many bits is refused before it is taken.
MAX_POWER_BITS = 1 << 20

#: The name every compiled power calls; no polynomial text can spell it.
_POWER = "power!"


def _bounded_power(base, k: int):
    """base ** k, refused when base is an int whose power has at least
    (bits(base) - 1) * k >= MAX_POWER_BITS bits."""
    if isinstance(base, int) and (base.bit_length() - 1) * k >= MAX_POWER_BITS:
        raise ResourceLimitError(
            f"power {k} of a {base.bit_length()}-bit value exceeds {MAX_POWER_BITS} bits"
        )
    return base ** k


def _polynomial_node(node: ast.AST, variables: Sequence[str], cap: int) -> tuple:
    """node checked against the polynomial whitelist, and returned with
    every a ** k rewritten as a call of _POWER, bound to a power that
    stays small: reduced mod p as it is taken over F_p, however large k
    is, and _bounded_power over Q.  Operators are checked before their
    operands, a power's exponent before its base, left before right.

    Also returns the degree bound of the subtree in each variable, a
    tuple in the order of variables: a sum takes the larger bound, a
    product the sum, a k-th power k times the base's, cut to cap.
    Cutting each power leaves min(bound, cap) as it was and keeps the
    numbers small under nested powers of long exponents."""
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            k = node.right
            if not (isinstance(k, ast.Constant) and isinstance(k.value, int) and k.value >= 0):
                raise InvalidInputError("exponents must be literal nonnegative integers")
            base, degrees = _polynomial_node(node.left, variables, cap)
            power = ast.Name(id=_POWER, ctx=ast.Load())
            call = ast.Call(func=power, args=[base, k], keywords=[])
            return ast.copy_location(call, node), tuple([min(e * k.value, cap) for e in degrees])
        if not isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            raise InvalidInputError("only +, -, * and integer powers are allowed")
        node.left, left = _polynomial_node(node.left, variables, cap)
        node.right, right = _polynomial_node(node.right, variables, cap)
        combine = operator.add if isinstance(node.op, ast.Mult) else max
        return node, tuple(map(combine, left, right))
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.UAdd, ast.USub)):
            raise InvalidInputError("only unary + and - are allowed")
        node.operand, degrees = _polynomial_node(node.operand, variables, cap)
        return node, degrees
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, int) or isinstance(node.value, bool):
            raise InvalidInputError(f"non-integer literal {node.value!r}")
        return node, (0,) * len(variables)
    if isinstance(node, ast.Name):
        if node.id not in variables:
            raise InvalidInputError(f"unknown variable {node.id!r}")
        return node, tuple([int(v == node.id) for v in variables])
    raise InvalidInputError(f"disallowed syntax: {type(node).__name__}")


def _compile(texts: Sequence[str], variables: Sequence[str], p: int) -> tuple:
    """compile_polynomials's evaluator, and the largest degree bound of
    any of the polynomials in any one variable, exact up to p - 1 over
    F_p and up to MAX_BUDGET over Q."""
    if not variables or len(set(variables)) != len(variables):
        raise InvalidInputError("variables must be a nonempty list of distinct names")
    if _POWER in variables:  # it would hide the power function
        raise InvalidInputError(f"{_POWER!r} is not a variable name")
    bodies = []
    degree = 0
    for text in texts:
        try:
            parsed = ast.parse(text.replace("^", "**"), mode="eval")
        except SyntaxError as exc:
            raise InvalidInputError(f"cannot parse polynomial {text!r}: {exc}") from None
        body, degrees = _polynomial_node(parsed.body, variables, p - 1 if p else MAX_BUDGET)
        bodies.append(body)
        degree = max(degree, *degrees)
    params = ast.arguments(
        posonlyargs=[ast.arg(arg=v) for v in variables],
        args=[],
        kwonlyargs=[],
        kw_defaults=[],
        defaults=[],
    )
    body = ast.Lambda(params, ast.Tuple(bodies, ast.Load()))
    tree = ast.fix_missing_locations(ast.Expression(body))
    code = compile(tree, f"<polynomials {list(texts)!r}>", "eval")
    power = (lambda base, k: pow(base, k, p)) if p else _bounded_power
    return eval(code, {"__builtins__": {}, _POWER: power}), degree  # noqa: S307 - AST whitelisted


def compile_polynomials(texts: Sequence[str], variables: Sequence[str], p: int = 0):
    """Compile polynomial expressions into one exact evaluator.

    Returns a function taking one value per variable, in the order of
    variables, and returning the tuple of the polynomials' values: one
    compiled lambda, so a call runs no eval.  Ints give exact integers.
    With a prime p the values must be ints; powers are then taken mod p,
    and the results are right mod p.
    """
    return _compile(texts, variables, p)[0]


def _horizon(field: Field, dims: int, degree: int) -> Optional[int]:
    """How many leading stream points hold a product grid with more than
    degree values in each of dims coordinates.  A polynomial of degree at
    most degree in each variable that vanishes on such a grid is zero
    (Alon, Combinatorial Nullstellensatz, 1999, Lemma 2.1), so the images
    of these points have the rank of the polynomials.

    Over Q one variable takes the spiral's first degree + 1 ints, and
    several the max-norm shells through radius ceil(degree / 2).  Over
    F_p, where x^p = x, the degree is at most p - 1 in each variable, and
    the lexicographic prefix runs the first coordinate up to it.  Over Q
    a degree of MAX_BUDGET or more puts the horizon past any budget a
    run may give, and there is none."""
    if isinstance(field, PrimeField):
        return (min(degree, field.p - 1) + 1) * field.p ** (dims - 1)
    if degree >= MAX_BUDGET:
        return None
    if dims == 1:
        return degree + 1
    return (2 * -(-degree // 2) + 1) ** dims


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
    p = field.p
    evaluate_all, degree = _compile(polynomials, variables, p)
    dims = len(variables)

    def evaluate(point):
        coords = point if isinstance(point, tuple) else (point,)
        if len(coords) != dims:
            raise InvalidInputError(f"point {point!r} has wrong arity, expected {dims}")
        if not all(map(_is_int, coords)):
            raise InvalidInputError(f"point {point!r} has a non-integer coordinate")
        return evaluate_all(*[c % p for c in coords] if p else coords)

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
        stream=lambda: _integer_points(field, dims),
        spec=spec,
        horizon=_horizon(field, dims, degree),
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
        return tuple([x**k for k in range(d)])

    suffix = f"_f{field.p}" if isinstance(field, PrimeField) else ""
    return Instance(
        name=f"moment_curve_d{d}{suffix}",
        field=field,
        d=d,
        evaluate=evaluate,
        stream=lambda: _integer_points(field, 1),
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
    subspaces, so this is the canonical non-maximal instance.  From
    d = 3 on it declares that plane cover; at d = 2 the one plane is all
    of F^2, which covers nothing properly.
    """
    if d < 2:
        raise InvalidInputError("plane-union instance needs d >= 2")

    def evaluate(point):
        if not (isinstance(point, tuple) and len(point) == 3 and all(map(_is_int, point))):
            raise InvalidInputError(f"plane-union point {point!r} is not an integer triple")
        i, s, t = point
        if not 0 <= i < d - 1:
            raise InvalidInputError(f"plane index {i} out of range")
        row = [0] * d
        row[0] = s
        row[i + 1] = t
        return tuple(row)

    def stream():
        for s, t in _integer_points(field, 2):
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

    planes = tuple(
        (basis_vector(field, d, 0), basis_vector(field, d, i + 1)) for i in range(d - 1)
    )
    suffix = f"_f{field.p}" if isinstance(field, PrimeField) else ""
    return Instance(
        name=f"high_vcden_d{d}{suffix}",
        field=field,
        d=d,
        evaluate=evaluate,
        stream=stream,
        cover=CoverCertificate(field, d, planes) if d > 2 else None,
        profile_points=profile_points,
        spec={"field": field_to_json(field), "d": d, "family": {"builtin": "high_vcden"}},
    )


def two_lines() -> Instance:
    """Q-instance whose image alternates between the two axis lines."""
    field = QQ

    def evaluate(x):
        if not _is_int(x):
            raise InvalidInputError(f"two_lines point {x!r} is not an integer")
        return (x, 0) if x % 2 == 0 else (0, x)

    axes = ((basis_vector(field, 2, 0),), (basis_vector(field, 2, 1),))
    return Instance(
        name="two_lines",
        field=field,
        d=2,
        evaluate=evaluate,
        stream=integer_spiral,
        cover=CoverCertificate(field, 2, axes),
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


def sample_from_spec(instance: Instance, spec: dict) -> Sample:
    """Resolve the "sample" part of an instance spec that has one."""
    part = spec["sample"]
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
