"""Built-in instances, polynomial compiler, spec round trips."""

from itertools import islice

import pytest

from zerotrace.errors import InvalidInputError
from zerotrace.exactalg import QQ, PrimeField, Vector, rank
from zerotrace.instances import (
    builtin_help,
    builtin_names,
    compile_polynomial,
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
from zerotrace.zerosets import Sample

F3 = PrimeField(3)


def test_integer_spiral_order():
    assert list(islice(integer_spiral(), 7)) == [0, 1, -1, 2, -2, 3, -3]


def test_integer_shells_cover_small_box():
    pts = list(islice(integer_shells(2), 25))
    assert len(set(pts)) == 25
    assert set(pts) == {(x, y) for x in range(-2, 3) for y in range(-2, 3)}


def test_compile_polynomial_evaluates_exactly():
    f = compile_polynomial("x^2 - 2*x + 1", ["x"])
    env = {"x": QQ.from_int(3)}
    assert f(env) == QQ.from_int(4)
    g = compile_polynomial("x*y + y**2", ["x", "y"])
    assert g({"x": F3.element(2), "y": F3.element(2)}) == F3.element(2)


def test_compile_polynomial_rejects_non_polynomials():
    for bad in (
        "__import__('os')",
        "x.denominator",
        "x / 2",
        "x ** y",
        "x ** -1",
        "lambda: 1",
        "z",
        "1.5",
        "f(x)",
    ):
        with pytest.raises(InvalidInputError):
            compile_polynomial(bad, ["x", "y"])


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
    assert img.entries == Vector.make(QQ, (1, 3, 9, 27)).entries
    rows = [inst.image(x) for x in (0, 1, 2, 3)]
    assert rank(rows) == 4


def test_moment_curve_over_prime_field_wraps():
    inst = moment_curve(2, F3)
    assert list(inst.stream()) == [0, 1, 2]
    assert inst.image(2).entries == (F3.element(1), F3.element(2))


def test_high_vcden_evaluate_and_profile():
    inst = high_vcden(3)
    assert inst.image((0, 1, 2)).entries == Vector.make(QQ, (1, 2, 0)).entries
    assert inst.image((1, 1, 2)).entries == Vector.make(QQ, (1, 0, 2)).entries
    with pytest.raises(InvalidInputError):
        inst.image((2, 1, 1))  # plane index out of range for d = 3
    pts = inst.profile_points(4)
    assert len(pts) == 4 * 2 + 1
    assert pts[-1] == (0, 1, 5)
    assert inst.cover_subspaces is not None and len(inst.cover_subspaces) == 2


def test_high_vcden_stream_dedupes_shared_axis():
    inst = high_vcden(3)
    pts = list(islice(inst.stream(), 40))
    assert len(set(pts)) == len(pts)
    axis = [p for p in pts if p[2] == 0]
    assert all(p[0] == 0 for p in axis)


def test_two_lines_images_alternate():
    inst = two_lines()
    assert inst.image(4).entries == Vector.make(QQ, (4, 0)).entries
    assert inst.image(5).entries == Vector.make(QQ, (0, 5)).entries
    assert inst.cover_subspaces is not None


def test_evaluators_reject_descriptors_of_the_wrong_shape():
    for point in (5, (0, 1), (0, 1, "x"), (0, 1.5, 1), (0, True, 1), [0, 1, 1]):
        with pytest.raises(InvalidInputError):
            high_vcden(3).image(point)
    for point in ((1, 2), "a", 1.5, True):
        with pytest.raises(InvalidInputError):
            two_lines().image(point)


def test_conics_and_ellipse_shapes():
    assert conics().d == 6
    assert ellipse_carrier().d == 5
    img = conics().image((2, 3))
    assert img.entries == Vector.make(QQ, (4, 6, 9, 2, 3, 1)).entries


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
    assert sample_from_spec(inst, spec, default_prefix=3).points == (0, 1, -1)
    assert sample_from_spec(inst, {**spec, "sample": {"prefix": 2}}, default_prefix=3).points == (0, 1)
    got = sample_from_spec(inst, {**spec, "sample": {"points": [5, -5]}}, default_prefix=3)
    assert got.points == (5, -5)
    with pytest.raises(InvalidInputError):
        sample_from_spec(inst, {**spec, "sample": {}}, default_prefix=3)
