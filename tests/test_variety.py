"""Charts, normal forms, points, and substitution actions."""

import random
from fractions import Fraction

import pytest

from volform import (
    LaurentPoly, Point, action, chart, sample_point, scenario_by_name, vector_field,
)
from volform.calculus import is_invariant, is_tangent
from volform.errors import (
    ActionError,
    ChartError,
    PointError,
    ScalarError,
    UnknownVariableError,
)

from helpers import (
    random_poly,
    run_snippet,
    sl2_chart,
    surface_chart,
    surface_fields,
    surface_volume,
    torus_chart,
)
from test_golden import SCENARIOS


def test_normal_form_surface_xyz():
    on = surface_chart()
    x, y, z = on.generators()
    assert on.normal_form(x * y * z) == 1 - x - y


def test_normal_form_sl2_determinant():
    on = sl2_chart()
    a1, a2, b1, b2 = on.generators()
    assert on.normal_form(a1 * b2 - a2 * b1) == LaurentPoly.one(on.coordinates)


def test_normal_form_zero():
    on = surface_chart()
    assert on.normal_form(LaurentPoly.zero(on.coordinates)).is_zero


def test_normal_form_idempotent_and_ring_compatible():
    on = surface_chart()
    rng = random.Random(21)
    for _ in range(80):
        p = random_poly(rng, on)
        q = random_poly(rng, on)
        np, nq = on.normal_form(p), on.normal_form(q)
        assert on.normal_form(np) == np
        assert on.normal_form(p + q) == on.normal_form(np + nq)
        assert on.normal_form(p * q) == on.normal_form(np * nq)


def test_chart_rejects_bad_presentations():
    x, y = LaurentPoly.generators(("x", "y"))
    with pytest.raises(ChartError):
        chart(("x", "y"), relations=[(x ** 2 + y, "x")])  # degree 2 in solvable
    with pytest.raises(ChartError):
        chart(("x", "y"), relations=[(x * y - 1, "x")])  # leading coeff y not invertible
    with pytest.raises(ChartError):
        chart(("x", "y"), invertible=("x",), relations=[(x * y - 1, "x")])  # solvable invertible
    with pytest.raises(ChartError):
        chart(("x", "x"))  # duplicate names


def test_chart_rejects_illegal_negative_exponents():
    on = surface_chart()
    # x and y are invertible, z is not
    laurent = LaurentPoly.monomial(on.coordinates, (-1, -2, 3))
    assert on.validate_poly(laurent) is laurent
    bad = laurent + LaurentPoly.monomial(on.coordinates, (-1, 0, -1))
    for reject in (on.validate_poly, on.normal_form, surface_fields(on)["dz"].apply):
        with pytest.raises(ChartError) as raised:
            reject(bad)
        assert str(raised.value) == "negative exponent on non-invertible coordinate 'z'"
    # with two offending coordinates, the first in coordinate order is named
    plain = chart(("u", "v"))
    with pytest.raises(ChartError) as raised:
        plain.validate_poly(LaurentPoly.monomial(("u", "v"), (-1, -1)))
    assert str(raised.value) == "negative exponent on non-invertible coordinate 'u'"


def test_is_tangent_examples():
    on = surface_chart()
    fields = surface_fields(on)
    assert is_tangent(fields["dz"])
    assert is_tangent(fields["dy"])
    assert is_tangent(fields["dx"])
    ddx = vector_field(on, {"x": 1})
    assert not is_tangent(ddx)

    sl2 = sl2_chart()
    b1 = sl2.generator("b1")
    b2 = sl2.generator("b2")
    xi = vector_field(sl2, {"a1": b1, "a2": b2})
    assert is_tangent(xi)


def test_sample_point_satisfies_relations_exactly():
    surface = surface_chart()
    sl2 = sl2_chart()
    torus = torus_chart(2)
    for seed in range(25):
        for on in (surface, sl2, torus):
            point = sample_point(on, seed)
            values = point.as_dict()
            for rel in on.relations:
                assert rel.poly.evaluate(values) == 0
            for name in on.invertible:
                assert values[name] != 0


def test_sample_point_solves_relations_by_hand():
    # hand-solved oracles: z = (1 - x - y)/(x*y) and b2 = (1 + a2*b1)/a1
    surface = surface_chart()
    for seed in range(10):
        v = sample_point(surface, seed).as_dict()
        assert v["z"] == (1 - v["x"] - v["y"]) / (v["x"] * v["y"])
    sl2 = sl2_chart()
    for seed in range(10):
        v = sample_point(sl2, seed).as_dict()
        assert v["b2"] == (1 + v["a2"] * v["b1"]) / v["a1"]


# sample_point does not re-validate its draw; Chart.point is the oracle
@pytest.mark.parametrize("address", SCENARIOS)
def test_sample_point_first_draw_is_a_point(address):
    on = scenario_by_name(address).chart
    for seed in range(25):
        point = sample_point(on, seed)
        assert on.point(dict(point.values)) == point


# values drawn before sample_point lost its retry loop
RECORDED_POINTS = {
    "sl2": ["4 5 -8 -39/4", "-5 -7 -1 -8/5", "-8 -7 -7 -25/4", "-2 9 -5 22", "-2 1 -6 5/2"],
    "surface:p=2*x-x**3,q=y**2+y": ["4 5 27/20", "-5 -7 -156/35", "-8 -7 -537/56",
                                    "-2 9 31/6", "-2 1 5/2"],
    "product:xm1:2|torus:1": ["4 5 -8 -39/16 -1", "-5 -7 -1 8/25 -6", "-8 -7 -7 25/32 3",
                              "-2 9 -5 -11 3", "-2 1 -6 -5/4 4"],
}


@pytest.mark.parametrize("address", RECORDED_POINTS)
def test_sample_point_reproduces_recorded_points(address):
    on = scenario_by_name(address).chart
    for seed, text in enumerate(RECORDED_POINTS[address]):
        values = tuple(Fraction(v) for v in text.split())
        assert sample_point(on, seed).values == tuple(zip(on.coordinates, values))


def test_sample_point_determinism():
    on = torus_chart(3)
    assert sample_point(on, 5).values == sample_point(on, 5).values
    assert sample_point(on, 5).values != sample_point(on, 6).values


def test_point_validation():
    on = surface_chart()
    with pytest.raises(PointError):
        on.point({"x": 1, "y": 1, "z": 17})
    with pytest.raises(PointError):
        on.point({"x": 0, "y": 1, "z": 0})
    with pytest.raises(ScalarError, match=r"^value of coordinate 'x' is 2\.0, not an int or a Fraction$"):
        on.point({"x": 2.0, "y": 3, "z": Fraction(-2, 3)})
    good = on.point({"x": 2, "y": 3, "z": Fraction(-2, 3)})
    assert good.as_dict()["z"] == Fraction(-2, 3)
    assert good.parts() == [(2, 1), (3, 1), (-2, 3)]
    # a point built by hand is read by position, so its order is checked
    for values in (good.values[::-1], good.values[:2]):
        with pytest.raises(PointError, match="do not list the chart's coordinates in order"):
            Point(on, values).parts()
    with pytest.raises(ScalarError, match=r"^value of coordinate 'y' is 3\.0, "):
        Point(on, (("x", 2), ("y", 3.0), ("z", Fraction(-2, 3)))).parts()


def test_action_order_validation():
    on = torus_chart(1)
    z1 = on.generator("z1")
    with pytest.raises(ActionError):
        action(on, "bad", {"z1": -z1}, 3)  # true order is 2
    ok = action(on, "negate", {"z1": -z1}, 2)
    assert ok.order == 2


def test_action_order_is_checked_by_repeated_squaring():
    on = torus_chart(3)
    z1, z2, z3 = on.generators()
    cycle = {"z1": z2, "z2": z3, "z3": -z1}  # a signed 3-cycle of order 6
    for order in (6, 12, 600):
        assert action(on, "cycle", cycle, order).order == order
    for order in (1, 3, 5, 7, 601):
        with pytest.raises(ActionError, match=f"after {order} iterations$"):
            action(on, "cycle", cycle, order)
    # 2*log2(order) compositions, not order of them
    result = run_snippet("""
from volform import parse
from volform.errors import SemanticError
model = parse("chart { vars x, y; } action s: x -> y, y -> x order 100000000;")
print(model.actions["s"].order)
try:
    parse("chart { vars x, y; } action s: x -> y, y -> x order 100000001;")
except SemanticError as exc:
    print(exc)
""")
    assert result.stdout.splitlines() == [
        "100000000",
        "1:22: substitution is not of order 100000001: coordinate 'x' maps to y "
        "after 100000001 iterations",
    ], result.stderr


def test_action_preserves_ideal():
    on = surface_chart()
    x, y, z = on.generators()
    with pytest.raises(ActionError):
        action(on, "bad", {"x": -x}, 2)  # x -> -x does not fix the relation
    swap = action(on, "swap", {"x": y, "y": x}, 2)
    assert swap.image("z") == z


def test_invariance_examples():
    torus = torus_chart(1)
    z1 = torus.generator("z1")
    negate = action(torus, "negate", {"z1": -z1}, 2)
    nu = vector_field(torus, {"z1": z1})
    assert is_invariant(nu, negate)
    assert not is_invariant(z1, negate)

    torus2 = torus_chart(2)
    za, zb = torus2.generators()
    both = action(torus2, "negate", {"z1": -za, "z2": -zb}, 2)
    assert is_invariant(za * zb, both)


def test_invariance_of_composite_identity():
    on = torus_chart(2)
    za, zb = on.generators()
    sigma = action(on, "swap", {"z1": zb, "z2": za}, 2)
    rng = random.Random(22)
    for _ in range(20):
        p = random_poly(rng, on)
        image = p
        for _ in range(sigma.order):
            image = image.substitute(sigma.as_dict())
        assert on.normal_form(image) == on.normal_form(p)


def test_field_transform_under_swap_is_negation():
    on = surface_chart()
    fields = surface_fields(on)
    x, y, _ = on.generators()
    swap = action(on, "swap", {"x": y, "y": x}, 2)
    # swap sends dz to -dz and exchanges dx and dy
    assert not is_invariant(fields["dz"], swap)
    assert is_invariant(fields["dx"] + fields["dy"], swap)
    assert not is_invariant(fields["dy"] - fields["dx"], swap)


def test_identity_action_with_non_unit_jacobian_fixes_every_field():
    # s moves z by a multiple of the relation, so it is the identity on the
    # surface, although its ambient Jacobian determinant 1 + x**2*y is no unit
    on = surface_chart()
    fields = surface_fields(on)
    x, y, z = on.generators()
    s = action(on, "s", {"z": z + x * (x + y + x * y * z - 1)}, 1)
    assert is_invariant(fields["dz"], s)
    assert is_invariant(fields["dx"], s)
    assert is_invariant(surface_volume(on), s)


XY = ("x", "y")
X, Y = (LaurentPoly.variable(XY, v) for v in XY)
PLANE = chart(XY)

# public constructors and lookups reject bad input with these messages
VARIETY_INPUT_ERRORS = {
    "no_coordinate": (lambda: chart([]), ChartError, "a chart needs at least one coordinate"),
    "unknown_invertible": (lambda: chart(["x"], ["y"]), ChartError,
                           "invertible flags for unknown coordinates: ['y']"),
    "unknown_solvable": (lambda: chart(XY, (), [(X - 1, "q")]), ChartError,
                         "solvable coordinate 'q' is not a coordinate"),
    "solved_twice": (lambda: chart(XY, (), [(X - 1, "x"), (X - 2, "x")]), ChartError,
                     "coordinate 'x' solved by two relations"),
    "leading_not_monomial": (lambda: chart(XY, (), [(X * Y + X - 1, "x")]), ChartError,
                             "leading coefficient y + 1 of 'x' is not a single monomial"),
    "point_missing": (lambda: PLANE.point({"x": 1}), PointError,
                      "missing value for coordinate 'y'"),
    "point_unknown": (lambda: PLANE.point({"x": 1, "y": 1, "q": 2}), PointError,
                      "unknown coordinates in point: ['q']"),
    "action_unknown": (lambda: action(PLANE, "s", {"q": 1}, 2), ActionError,
                       "images for unknown coordinates: ['q']"),
    "image_unknown": (lambda: action(PLANE, "s", {"x": Y, "y": X}, 2).image("q"),
                      UnknownVariableError, "no image for coordinate 'q'"),
}


@pytest.mark.parametrize("case", VARIETY_INPUT_ERRORS)
def test_variety_input_errors(case):
    build, error, message = VARIETY_INPUT_ERRORS[case]
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message
