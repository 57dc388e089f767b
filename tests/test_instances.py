"""Built-in instances, polynomial compiler, spec round trips."""

import ast
import random
from dataclasses import replace
from fractions import Fraction
from itertools import count, islice, product

import pytest

from zerotrace.constructions import grid_point, grid_witness, index_growth
from zerotrace.errors import InvalidInputError, ResourceLimitError
from zerotrace.exactalg import QQ, PrimeField, Vector, basis_vector, rank
from zerotrace.instances import (
    _horizon,
    _polynomial_node,
    builtin_help,
    builtin_names,
    compile_polynomials,
    conics,
    ellipse_carrier,
    high_vcden,
    instance_from_spec,
    integer_shells,
    integer_spiral,
    make_builtin,
    moment_curve,
    parse_instance_name,
    polynomial_instance,
    sample_from_spec,
    two_lines,
)
from zerotrace.maximality import CoverCertificate
from zerotrace.zerosets import MAX_BUDGET, distinct_image_points, linearly_independent

F3 = PrimeField(3)


def test_integer_spiral_order():
    assert list(islice(integer_spiral(), 7)) == [0, 1, -1, 2, -2, 3, -3]


def test_integer_shells_cover_small_box():
    pts = list(islice(integer_shells(2), 25))
    assert len(set(pts)) == 25
    assert set(pts) == {(x, y) for x in range(-2, 3) for y in range(-2, 3)}


def test_compile_polynomial_evaluates_exactly():
    f = compile_polynomials(["x^2 - 2*x + 1"], ["x"])
    assert f(3) == (4,)
    assert f(10**20) == ((10**20 - 1) ** 2,)
    g = compile_polynomials(["x*y + y**2", "x", "-y^3", "7"], ["x", "y"])
    assert g(2, -3) == (3, 2, 27, 7)
    g3 = compile_polynomials(["x*y + y**2", "x", "-y^3", "7"], ["x", "y"], 3)
    assert tuple(v % 3 for v in g3(2, 2)) == (2, 2, 1, 1)
    assert compile_polynomials(["x^5", "2*x^5 - 1"], ["x"], 3)(2) == (2, 3)
    # values are taken positionally, in the order of the variables
    assert compile_polynomials(["x - y"], ["y", "x"])(1, 5) == (4,)
    for variables in (["x", "x"], []):
        with pytest.raises(InvalidInputError, match="nonempty list of distinct names"):
            compile_polynomials(["1"], variables)


def test_compile_polynomial_rejects_non_polynomials():
    for bad, message in (
        ("__import__('os')", "disallowed syntax: Call"),
        ("x.denominator", "disallowed syntax: Attribute"),
        ("x / 2", "only +, -, * and integer powers are allowed"),
        ("x / y", "only +, -, * and integer powers are allowed"),
        ("x ** y", "exponents must be literal nonnegative integers"),
        ("x ** -1", "exponents must be literal nonnegative integers"),
        ("x^(1+1)", "exponents must be literal nonnegative integers"),
        # a power's exponent is checked first, then its base
        ("(x/2)^3", "only +, -, * and integer powers are allowed"),
        ("(x/2)^y", "exponents must be literal nonnegative integers"),
        # an operator before its operands, the left operand before the right
        ("z / 2", "only +, -, * and integer powers are allowed"),
        ("z + 1.5", "unknown variable 'z'"),
        ("~x", "only unary + and - are allowed"),
        ("-~z", "only unary + and - are allowed"),
        ("lambda: 1", "disallowed syntax: Lambda"),
        ("z", "unknown variable 'z'"),
        ("1.5", "non-integer literal 1.5"),
        ("True", "non-integer literal True"),
        ("f(x)", "disallowed syntax: Call"),
    ):
        with pytest.raises(InvalidInputError) as caught:
            compile_polynomials(["x", bad], ["x", "y"])
        assert str(caught.value) == message, bad


def test_compile_polynomial_bounds_every_power():
    # the inner power has 1001 bits, the outer one would have 2,000,001
    nested = compile_polynomials(["(x^1000)^2000"], ["x"])
    assert nested(1) == (1,)
    with pytest.raises(ResourceLimitError):
        nested(2)
    # over F_5 both powers are taken mod 5: 2^1000003 = 3, 3^1000003 = 2
    assert compile_polynomials(["(x^1000003)^1000003"], ["x"], 5)(2) == (2,)


def _degrees(text, variables=("x", "y"), cap=MAX_BUDGET):
    parsed = ast.parse(text.replace("^", "**"), mode="eval")
    return _polynomial_node(parsed.body, variables, cap)[1]


def test_polynomial_node_bounds_the_degree_in_each_variable():
    assert _degrees("x") == (1, 0)
    assert _degrees("y") == (0, 1)
    assert _degrees("7") == _degrees("-7") == _degrees("x^0") == (0, 0)
    assert _degrees("x + y^2") == _degrees("x - y^2") == (1, 2)
    assert _degrees("x*y*x") == (2, 1)
    assert _degrees("-(x*y^2)") == _degrees("+(x*y^2)") == (1, 2)
    assert _degrees("(x*y + 1)^3") == (3, 3)
    assert _degrees("(x^2)^3 * y") == (6, 1)
    assert _degrees("x - x") == (1, 0)  # a bound: the cancellation is not seen
    assert _degrees("3*x^2 - (x + y)^2", ("y", "x")) == (2, 2)


def test_polynomial_node_cuts_each_power_at_its_cap():
    # over F_5 no degree past 4 matters; a power is cut before the next one
    assert _degrees("(x^1000003)^1000003", cap=4) == (4, 0)
    assert _degrees("(x^2)^2 * y^3", cap=4) == (4, 3)
    # one term past MAX_BUDGET over Q gives no horizon
    inst = polynomial_instance(QQ, 2, ["x^1000000", "x"], ["x"])
    assert inst.horizon is None


def test_horizon_holds_a_grid_past_the_degree_in_each_variable():
    assert [_horizon(QQ, 1, degree) for degree in range(4)] == [1, 2, 3, 4]
    # the shells through radius ceil(degree / 2) hold a (2r + 1)-cube
    assert [_horizon(QQ, 2, degree) for degree in range(4)] == [1, 9, 9, 25]
    assert _horizon(QQ, 3, 2) == 27
    assert [_horizon(PrimeField(5), 1, degree) for degree in (0, 3, 4, 9)] == [1, 4, 5, 5]
    assert [_horizon(PrimeField(5), 2, degree) for degree in (0, 1, 9)] == [5, 10, 25]
    assert _horizon(QQ, 1, MAX_BUDGET) is None
    pair = polynomial_instance(QQ, 2, ["x", "2*x"], ["x"])
    assert (pair.horizon, moment_curve(3).horizon, high_vcden(3).horizon) == (2, None, None)


def _random_polynomial(rng, variables):
    """Up to three terms of degree at most 2 in each variable, sometimes
    squared."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        powers = "*".join(f"{v}^{rng.randint(0, 2)}" for v in variables)
        terms.append(f"{rng.randint(-3, 3)}*{powers}")
    text = " + ".join(terms)
    return f"({text})^2" if rng.random() < 0.2 else text


def _random_family(rng, p, variables):
    """d polynomials, independent or (half the time) dependent: one
    member an integer combination of the others, a Frobenius power, a
    constant or a cancelled difference."""
    d = rng.randint(1, 4)
    texts = [_random_polynomial(rng, variables) for _ in range(d)]
    if d > 1 and rng.random() < 0.5:
        x = variables[0]
        made = [
            " + ".join(f"{rng.randint(-3, 3)}*({t})" for t in texts[:-1]),
            f"({texts[0]})^{p}" if p else f"({texts[0]})^1",
            str(rng.randint(-3, 3)),
            f"{x} - {x}",
        ]
        texts[-1] = rng.choice(made)
        rng.shuffle(texts)
    return texts


_FIXED_FAMILIES = [
    ["1", "3"],
    ["-2"],
    ["x - x"],
    ["x - x", "x"],
    ["(x^2)^2", "x^4", "x"],
    ["(x + 1)^3", "x^3 + 3*x^2 + 3*x + 1"],
    ["1", "x", "x*x", "x*x*x"],  # independent only on 4 points
]


@pytest.mark.parametrize("p", [0, 5, 7])
@pytest.mark.parametrize("variables", [["x"], ["x", "y"]])
def test_horizon_verdict_matches_a_scan_past_it(p, variables):
    """The verdict read off the horizon is the one a scan of 10,000
    points over Q, or of the whole domain over F_p, reaches."""
    field = PrimeField(p) if p else QQ
    rng = random.Random(3600 + 10 * p + len(variables))
    families = [_random_family(rng, p, variables) for _ in range(24)] + _FIXED_FAMILIES
    if p:
        families += [["x", f"x^{p}"], ["x", f"(x^{p})^{p}", "x^2"], ["x", f"x^{2 * p - 1}"]]
        families.append(["1", "x", "x^2", "x^3", f"x^{p - 1}"])  # F_5: the whole domain
    if len(variables) == 2:
        families += [["(x + y)^2", "x^2 + 2*x*y + y^2"], ["x*y", "y*x", "y"], ["1", "y", "y*y"]]
    kinds = set()
    for texts in families:
        inst = polynomial_instance(field, len(texts), texts, variables)
        verdict = linearly_independent(inst, budget=10_000)
        long = linearly_independent(replace(inst, horizon=None), budget=10_000)
        if p and long.kind == "dependent":
            assert long.stream_exhausted, texts  # the whole domain: a proof
        got = (verdict.kind, verdict.rank, verdict.witness_coeffs)
        assert got == (long.kind, long.rank, long.witness_coeffs), texts
        assert verdict.scanned <= inst.horizon, texts
        if verdict.kind == "independent":
            assert verdict.scanned == long.scanned, texts
        else:
            assert verdict.stream_exhausted, texts
        kinds.add(verdict.kind)
    assert kinds == {"independent", "dependent"}


def test_polynomial_instance_guards():
    with pytest.raises(InvalidInputError):
        polynomial_instance(QQ, 3, ["1", "x"], ["x"])
    with pytest.raises(InvalidInputError):
        polynomial_instance(QQ, 1, ["1"], [])
    with pytest.raises(InvalidInputError):
        polynomial_instance(QQ, 1, ["1"], ["x", "x"])
    inst = polynomial_instance(QQ, 2, ["1", "x"], ["x"])
    with pytest.raises(InvalidInputError):
        inst.image((1, 2))  # wrong arity


def test_moment_curve_images_are_vandermonde():
    inst = moment_curve(4)
    img = inst.image(3)
    assert img.entries == Vector(QQ, (1, 3, 9, 27)).entries
    rows = [inst.image(x) for x in (0, 1, 2, 3)]
    assert rank(rows) == 4


def test_moment_curve_over_prime_field_wraps():
    inst = moment_curve(2, F3)
    assert list(inst.stream()) == [0, 1, 2]
    assert inst.image(2).entries == (1, 2)


def test_high_vcden_evaluate_and_profile():
    inst = high_vcden(3)
    assert inst.image((0, 1, 2)).entries == Vector(QQ, (1, 2, 0)).entries
    assert inst.image((1, 1, 2)).entries == Vector(QQ, (1, 0, 2)).entries
    with pytest.raises(InvalidInputError):
        inst.image((2, 1, 1))  # plane index out of range for d = 3
    pts = inst.profile_points(4)
    assert len(pts) == 4 * 2 + 1
    assert pts[-1] == (0, 1, 5)
    assert inst.cover is not None and len(inst.cover) == 2


def test_builtin_covers_are_certificates_of_their_own_instance():
    made = [
        build(d, field)
        for build in (moment_curve, high_vcden)
        for d in range(2, 6)
        for field in (QQ, PrimeField(5))
    ]
    made += [conics(), ellipse_carrier(), two_lines()]
    for inst in made:
        cover = inst.cover
        assert cover is None or (
            isinstance(cover, CoverCertificate) and (cover.field, cover.d) == (inst.field, inst.d)
        ), inst.name
    # at d = 2 the one plane of high_vcden is all of F^2, so it declares no cover
    covered = {inst.name for inst in made if inst.cover is not None}
    assert covered == {"two_lines"} | {
        f"high_vcden_d{d}{suffix}" for d in (3, 4, 5) for suffix in ("", "_f5")
    }


# ---------------------------------------------------------------------------
# Stream orders against a reference written from the documented orders
# ---------------------------------------------------------------------------

STREAM_PREFIX = 300


def _reference_points(field, dims):
    """The documented order of integer points in dims coordinates."""
    if field.p:
        if dims == 1:
            yield from range(field.p)
        else:
            yield from product(range(field.p), repeat=dims)
        return
    for r in count():
        if dims == 1:
            yield from (0,) if r == 0 else (r, -r)
        else:
            for point in product(range(-r, r + 1), repeat=dims):
                if max(map(abs, point)) == r:
                    yield point


def _reference_planes(field, d):
    """(s, t) in the documented order, as (i, s, t) on every plane i;
    a point of the shared axis t = 0 once, on plane 0."""
    for s, t in _reference_points(field, 2):
        yield from [(0, s, t)] if t == 0 else [(i, s, t) for i in range(d - 1)]


def _first(points):
    return list(islice(points, STREAM_PREFIX))


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=str)
def test_stream_orders_match_the_documented_orders(field):
    for d in (1, 2, 4):
        assert _first(moment_curve(d, field).stream()) == _first(_reference_points(field, 1))
    for d in (2, 3, 5):
        assert _first(high_vcden(d, field).stream()) == _first(_reference_planes(field, d))
    for variables in (["x"], ["x", "y"], ["u", "v", "w"]):
        inst = polynomial_instance(field, 2, ["1", " + ".join(variables)], variables)
        expected = _first(_reference_points(field, len(variables)))
        assert _first(inst.stream()) == expected, variables
    if not field.p:
        assert _first(two_lines().stream()) == _first(_reference_points(QQ, 1))
        for inst in (conics(), ellipse_carrier()):
            assert _first(inst.stream()) == _first(_reference_points(QQ, 2))


def test_high_vcden_stream_dedupes_shared_axis():
    inst = high_vcden(3)
    pts = list(islice(inst.stream(), 40))
    assert len(set(pts)) == len(pts)
    axis = [p for p in pts if p[2] == 0]
    assert all(p[0] == 0 for p in axis)


def test_two_lines_images_alternate():
    inst = two_lines()
    assert inst.image(4).entries == Vector(QQ, (4, 0)).entries
    assert inst.image(5).entries == Vector(QQ, (0, 5)).entries
    assert inst.cover is not None


def test_evaluators_reject_descriptors_of_the_wrong_shape():
    for point in (5, (0, 1), (0, 1, "x"), (0, 1.5, 1), (0, True, 1), [0, 1, 1]):
        with pytest.raises(InvalidInputError):
            high_vcden(3).image(point)
    for point in ((1, 2), "a", 1.5, True):
        with pytest.raises(InvalidInputError):
            two_lines().image(point)
    for point in ((1, 2), "a", 1.5, True, Fraction(1, 2)):
        with pytest.raises(InvalidInputError):
            moment_curve(3).image(point)
    for point in ((1,), (1, 2, 3), (1, 1.5), (True, 1), (1, Fraction(1, 2))):
        with pytest.raises(InvalidInputError):
            conics().image(point)


def test_conics_and_ellipse_shapes():
    assert conics().d == 6
    assert ellipse_carrier().d == 5
    img = conics().image((2, 3))
    assert img.entries == Vector(QQ, (4, 6, 9, 2, 3, 1)).entries


def test_builtin_catalog():
    names = builtin_names()
    assert names == sorted(names)
    assert set(builtin_help()) == set(names)
    for name in names:
        inst = make_builtin(name)
        assert inst.d >= 2


def test_make_builtin_guards():
    with pytest.raises(InvalidInputError):
        make_builtin("conics", p=5)
    with pytest.raises(InvalidInputError):
        make_builtin("ellipse_carrier", d=3)
    with pytest.raises(InvalidInputError):
        make_builtin("unknown_thing")


def test_parse_instance_name_forms():
    assert parse_instance_name("moment_curve").d == 3
    assert parse_instance_name("moment_curve:4").d == 4
    inst = parse_instance_name("moment_curve:2,p=3")
    assert inst.d == 2 and inst.field == F3
    assert parse_instance_name("high_vcden:d=4").d == 4
    for bad in ("moment_curve:x=1", "moment_curve:p=x", "moment_curve:d=", "moment_curve:3,p="):
        with pytest.raises(InvalidInputError):
            parse_instance_name(bad)


def test_instance_spec_round_trip():
    for inst in (moment_curve(3), conics(), high_vcden(3), two_lines(), moment_curve(2, F3)):
        back = instance_from_spec(inst.spec)
        assert back.name == inst.name
        assert back.d == inst.d
        assert back.field == inst.field
        for p in islice(back.stream(), 5):
            assert back.image(p).entries == inst.image(p).entries


def test_instance_spec_rejects_malformed():
    with pytest.raises(InvalidInputError):
        instance_from_spec({"field": "rational", "d": 2})
    with pytest.raises(InvalidInputError):
        instance_from_spec({"field": "rational", "d": 0, "family": {"builtin": "conics"}})
    with pytest.raises(InvalidInputError):
        instance_from_spec({"field": "rational", "d": 2, "family": {}})
    poly = {"polynomials": ["x", "1"], "variables": ["x"]}
    for bad in (
        {"field": "rational", "d": True, "family": {"builtin": "moment_curve"}},
        {"field": "rational", "d": 2, "family": {**poly, "variables": "xy"}},
        {"field": "rational", "d": 2, "family": {**poly, "polynomials": ["x", 1]}},
        {"field": "rational", "d": 2, "family": {**poly, "polynomials": "x1"}},
        {"field": "rational", "d": 2, "family": poly, "name": 5},
        {"field": "rational", "d": 2, "family": {"builtin": "moment_curve"}, "name": 5},
    ):
        with pytest.raises(InvalidInputError):
            instance_from_spec(bad)


def test_sample_from_spec_forms():
    inst = moment_curve(2)
    spec = inst.spec
    assert sample_from_spec(inst, {**spec, "sample": {"prefix": 2}}).points == (0, 1)
    got = sample_from_spec(inst, {**spec, "sample": {"points": [5, -5]}})
    assert got.points == (5, -5)
    for bad in ({}, None, [3]):
        with pytest.raises(InvalidInputError):
            sample_from_spec(inst, {**spec, "sample": bad})


# ---------------------------------------------------------------------------
# The int evaluators against boxed reference evaluators
# ---------------------------------------------------------------------------

FIELDS = [QQ, PrimeField(2), F3, PrimeField(13)]
#: Two variables, a constant term in every polynomial but one, negative
#: coefficients and a power past every test modulus.
POLYNOMIALS = ["3 - x^2*y", "x*y - 2", "-(y^3) + x^14", "-5"]


def _scalar(field, x):
    """x as a scalar of field: a Fraction over Q, a residue over F_p."""
    return x % field.p if field.p else Fraction(x)


def _boxed_polynomials(field, texts, variables):
    """Reference: the polynomials evaluated on field scalars."""
    evaluators = [compile_polynomials([t], variables) for t in texts]

    def evaluate(point):
        coords = point if isinstance(point, tuple) else (point,)
        values = [_scalar(field, c) for c in coords]
        return Vector(field, [_scalar(field, e(*values)[0]) for e in evaluators])

    return evaluate


def _boxed_moment_curve(field, d):
    def evaluate(x):
        e = _scalar(field, x)
        entries = [_scalar(field, 1)]
        for _ in range(d - 1):
            entries.append(_scalar(field, entries[-1] * e))
        return Vector(field, tuple(entries))

    return evaluate


def _boxed_high_vcden(field, d):
    def evaluate(point):
        i, s, t = point
        return basis_vector(field, d, 0).scale(_scalar(field, s)) + basis_vector(
            field, d, i + 1
        ).scale(_scalar(field, t))

    return evaluate


def _boxed_two_lines(x):
    return Vector(QQ, (x, 0) if x % 2 == 0 else (0, x))


def _cases(field):
    """(instance, boxed reference image, extra points) per evaluator kind."""
    out = [
        (moment_curve(4, field), _boxed_moment_curve(field, 4), [-1, -7, 29, 10**20 + 3]),
        (
            high_vcden(4, field),
            _boxed_high_vcden(field, 4),
            [(0, -3, 5), (2, 4, -1), (1, -(10**20), 13)],
        ),
        (
            polynomial_instance(field, 4, POLYNOMIALS, ["x", "y"], name="mixed"),
            _boxed_polynomials(field, POLYNOMIALS, ["x", "y"]),
            [(-1, -1), (-3, 2), (5, -13), (10**20, -7)],
        ),
    ]
    if field == QQ:
        for inst in (conics(), ellipse_carrier()):
            reference = _boxed_polynomials(QQ, inst.spec["family"]["polynomials"], ["x", "y"])
            out.append((inst, reference, [(-2, 3), (-5, -5)]))
        out.append((two_lines(), _boxed_two_lines, [-4, -3]))
    return out


def _assert_same_vector(got, want):
    assert got.entries == want.entries
    assert got == want and hash(got) == hash(want)
    boxed = Vector(got.field, got.entries)
    assert (got._ints, got._den) == (boxed._ints, boxed._den)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_int_evaluators_match_boxed_references(field):
    for inst, reference, extra in _cases(field):
        for point in list(islice(inst.stream(), 40)) + extra:
            _assert_same_vector(inst.image(point), reference(point))
            assert inst.row(point) == reference(point)._ints
        boxed = replace(inst, evaluate=lambda point, image=reference: image(point)._ints)
        budget = 200
        assert (
            distinct_image_points(inst, 6, budget=budget).points
            == distinct_image_points(boxed, 6, budget=budget).points
        ), inst.name
        for bad in (
            lambda point: tuple(Fraction(x) for x in reference(point)._ints),
            lambda point: reference(point),
            lambda point: (1,) * (inst.d + 1),
        ):
            with pytest.raises(InvalidInputError):
                replace(inst, evaluate=bad).image(next(inst.stream()))


def _boxed_grid_witness(field, js):
    """Reference: b_js from field-scalar products, the first entry the
    product of all g(j_k), entry i+1 minus the product over k != i."""
    values = [_scalar(field, j + 1) for j in js]
    total = _scalar(field, 1)
    for v in values:
        total = _scalar(field, total * v)
    entries = [total]
    for ell in range(len(values)):
        partial = _scalar(field, 1)
        for k, v in enumerate(values):
            if k != ell:
                partial = _scalar(field, partial * v)
        entries.append(_scalar(field, -partial))
    return Vector(field, tuple(entries))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_grid_points_match_boxed_reference(field):
    d = 4
    p = field.p if isinstance(field, PrimeField) else 0
    for i in range(d - 1):
        for j in range(15):
            if p and (j + 1) % p == 0:
                with pytest.raises(InvalidInputError):
                    grid_point(field, d, i, j)
                continue
            want = basis_vector(field, d, 0) + basis_vector(field, d, i + 1).scale(
                index_growth(j, field)
            )
            _assert_same_vector(grid_point(field, d, i, j), want)
    for d in (2, 3, 4):
        for js in product(range(15), repeat=d - 1):
            if p and any((j + 1) % p == 0 for j in js):
                with pytest.raises(InvalidInputError):
                    grid_witness(field, d, js)
                continue
            _assert_same_vector(grid_witness(field, d, js), _boxed_grid_witness(field, js))
