"""Exterior calculus: frozen worked examples plus randomized identity suites."""

import math
import random
from fractions import Fraction

import pytest

from volform import (
    DiffForm,
    LaurentPoly,
    action,
    chart,
    contract_volume,
    diff_form,
    divergence,
    exterior_derivative,
    forms_equal,
    interior_product,
    is_invariant,
    lie_bracket,
    lnd_flow,
    pullback_form,
    scalar_form,
    scenario_by_name,
    vector_field,
    volume_form,
    wedge,
)
from volform.errors import (
    ChartError,
    DimensionError,
    NilpotencyError,
    NotTangentError,
    VariableMismatchError,
    VolumeFormError,
)

from oracles import (
    brute_force_contraction,
    brute_force_d,
    brute_force_wedge,
    field_invariant_by_inverse_jacobian,
)

from helpers import (
    lie_derivative,
    random_form,
    random_poly,
    random_tangent_field,
    run_snippet,
    sl2_chart,
    surface_chart,
    surface_fields,
    surface_volume,
    torus_chart,
    torus_volume,
)


def charts_under_test():
    return [torus_chart(2), surface_chart(), sl2_chart()]


def test_volume_form_validation():
    # divergence relies on this unit test and does not repeat it
    on = surface_chart()
    x, y, z = on.generators()
    with pytest.raises(VolumeFormError):
        volume_form(on, x + y)  # not a single monomial
    with pytest.raises(VolumeFormError):
        volume_form(on, LaurentPoly.zero(on.coordinates))
    torus = torus_chart(1)
    with pytest.raises(VolumeFormError):
        # z is not invertible on the surface chart, x*... would vanish
        volume_form(on, on.generator("z"))
    assert volume_form(torus, torus.generator("z1") ** -1).degree == 1


def test_wedge_basics_and_torus_volume():
    on = torus_chart(2)
    z1, z2 = on.generators()
    dz1 = diff_form(on, 1, {("z1",): 1})
    dz2 = diff_form(on, 1, {("z2",): 1})
    assert wedge(dz1, dz1).is_zero
    built = wedge(z1 ** -1 * dz1, z2 ** -1 * dz2)
    assert forms_equal(built, torus_volume(on))


def test_wedge_overflow_gives_zero_form():
    on = torus_chart(2)
    top = torus_volume(on)
    one_form = diff_form(on, 1, {("z1",): 1})
    assert wedge(top, one_form).is_zero


def test_graded_commutativity_on_random_forms():
    rng = random.Random(31)
    for on in charts_under_test():
        n = len(on.free_coordinates)
        for _ in range(40):
            da = rng.randint(0, n)
            db = rng.randint(0, n)
            a = random_form(rng, on, da)
            b = random_form(rng, on, db)
            sign = (-1) ** (da * db)
            assert forms_equal(wedge(a, b), sign * wedge(b, a))


def test_form_operations_match_permutation_sums():
    rng = random.Random(41)
    for on in (torus_chart(4), surface_chart()):
        n = len(on.free_coordinates)
        for _ in range(25):
            a = random_form(rng, on, rng.randint(0, n))
            b = random_form(rng, on, rng.randint(0, n))
            xi = random_tangent_field(rng, on)
            assert dict(wedge(a, b).coefficients) == brute_force_wedge(a, b)
            assert dict(exterior_derivative(a).coefficients) == brute_force_d(a)
            assert dict(interior_product(xi, a).coefficients) == brute_force_contraction(xi, a)


def test_diff_form_merges_raw_pairs_with_signs():
    on = torus_chart(3)
    z1, z2, z3 = on.generators()
    two = diff_form(on, 2, [
        (("z2", "z1"), z3),
        (("z1", "z2"), 2 * z3),
        (("z3", "z1"), 1),
        (("z1", "z3"), 1),
        (("z2", "z2"), z1),
        (("z3", "z2"), z1),
    ])
    assert two.coefficients == ((("z1", "z2"), z3), (("z2", "z3"), -z1))
    three = diff_form(on, 3, [(("z3", "z1", "z2"), 1), (("z2", "z1", "z3"), 2)])
    assert three.coefficients == ((("z1", "z2", "z3"), on.poly(-1)),)


def test_interior_product_examples():
    # torus: contracting nu_i removes the i-th factor up to sign
    on = torus_chart(2)
    z1, z2 = on.generators()
    w = torus_volume(on)
    nu1 = vector_field(on, {"z1": z1})
    expected = diff_form(on, 1, {("z2",): z2 ** -1})
    assert forms_equal(contract_volume(nu1, w), expected)

    # surface: contracting dy against omega gives -dy
    s = surface_chart()
    fields = surface_fields(s)
    w_s = surface_volume(s)
    got = interior_product(fields["dy"], w_s)
    assert forms_equal(got, diff_form(s, 1, {("y",): -1}))


def test_double_contraction_vanishes():
    rng = random.Random(32)
    for on in charts_under_test():
        n = len(on.free_coordinates)
        for _ in range(40):
            xi = random_tangent_field(rng, on)
            alpha = random_form(rng, on, rng.randint(1, n))
            assert interior_product(xi, interior_product(xi, alpha)).is_zero


def test_d_squared_zero_on_random_forms():
    rng = random.Random(33)
    for on in charts_under_test():
        n = len(on.free_coordinates)
        for _ in range(40):
            alpha = random_form(rng, on, rng.randint(0, n))
            assert exterior_derivative(exterior_derivative(alpha)).is_zero


def test_lie_derivative_on_scalars_is_application():
    rng = random.Random(34)
    for on in charts_under_test():
        for _ in range(20):
            xi = random_tangent_field(rng, on)
            f = random_poly(rng, on)
            got = lie_derivative(xi, scalar_form(on, f))
            assert forms_equal(got, scalar_form(on, xi.apply(f)))


def test_lie_derivative_of_torus_volume_vanishes():
    on = torus_chart(3)
    w = torus_volume(on)
    for name in on.coordinates:
        nu = vector_field(on, {name: on.generator(name)})
        assert lie_derivative(nu, w).is_zero


def test_lie_derivative_matches_field_application_on_surface():
    # frozen: applying dz to the coordinate y gives -(p'(x) + y*z)
    s = surface_chart()
    fields = surface_fields(s)
    y = s.generator("y")
    got = lie_derivative(fields["dz"], scalar_form(s, y))
    expected = s.normal_form(-(1 + y * s.generator("z")))
    assert forms_equal(got, scalar_form(s, expected))
    assert fields["dz"].apply(y) == expected


def test_bracket_contraction_equals_d_of_yz_on_surface():
    # the bracket of (dz, dy) contracts to d(y*z): the constant in the
    # potential 1 + y*z dies under d
    s = surface_chart()
    fields = surface_fields(s)
    w = surface_volume(s)
    y, z = s.generator("y"), s.generator("z")
    lhs = contract_volume(lie_bracket(fields["dz"], fields["dy"]), w)
    rhs = exterior_derivative(scalar_form(s, s.normal_form(y * z)))
    assert forms_equal(lhs, rhs)


def test_contraction_of_zero_field_is_zero():
    s = surface_chart()
    w = surface_volume(s)
    assert contract_volume(vector_field(s, {}), w).is_zero


def test_lie_bracket_examples():
    sl2 = sl2_chart()
    a1, a2, b1, b2 = sl2.generators()
    xi = vector_field(sl2, {"a1": b1, "a2": b2})
    eta = vector_field(sl2, {"b1": a1, "b2": a2})
    assert lie_bracket(xi, xi).is_zero
    bracket = lie_bracket(xi, eta)
    expected = vector_field(sl2, {"a1": -a1, "a2": -a2, "b1": b1, "b2": b2})
    assert bracket.coefficients == expected.coefficients


def test_jacobi_identity_on_random_triples():
    rng = random.Random(35)
    for on in charts_under_test():
        for _ in range(25):
            a = random_tangent_field(rng, on, max_degree=1)
            b = random_tangent_field(rng, on, max_degree=1)
            c = random_tangent_field(rng, on, max_degree=1)
            total = (
                lie_bracket(a, lie_bracket(b, c))
                + lie_bracket(b, lie_bracket(c, a))
                + lie_bracket(c, lie_bracket(a, b))
            )
            assert total.is_zero


def test_divergence_examples_and_product_rule():
    on = torus_chart(2)
    w = torus_volume(on)
    z1, z2 = on.generators()
    nu1 = vector_field(on, {"z1": z1})
    assert divergence(nu1, w).is_zero

    s = surface_chart()
    ws = surface_volume(s)
    for f in surface_fields(s).values():
        assert divergence(f, ws).is_zero

    rng = random.Random(36)
    for _ in range(40):
        xi = random_tangent_field(rng, on)
        f = random_poly(rng, on)
        lhs = divergence(f * xi, w)
        rhs = on.normal_form(f * divergence(xi, w) + xi.apply(f))
        assert lhs == rhs


@pytest.mark.parametrize("address", [
    "torus:2", "surface:p=2*x+x**3,q=y**2+y", "sl2", "xm1:2", "product:sl2|torus:1"])
def test_divergence_is_the_top_coefficient_of_d_of_the_contraction(address):
    # a volume w = u dx_1^...^dx_n is closed, so L_xi(w) = d(i_xi w): div(xi)*u
    # is the top coefficient of d(i_xi w), here built from permutation sums
    model = scenario_by_name(address)
    on, w = model.chart, model.volume
    top = on.free_coordinates
    rng = random.Random(42)
    for _ in range(10):
        xi = random_tangent_field(rng, on)
        contraction = brute_force_contraction(xi, w)
        d = brute_force_d(DiffForm(on, on.dimension - 1, tuple(sorted(contraction.items()))))
        expected = d.get(top, LaurentPoly.zero(on.coordinates))
        assert divergence(xi, w) * w.unit_coefficient() == expected


def test_divergence_is_kept_per_volume():
    # each volume object gives its own divergence, however often it is asked
    on = torus_chart(1)
    (z,) = on.generators()
    nu = vector_field(on, {"z1": z})
    invariant, flat = torus_volume(on), volume_form(on, 1)
    for _ in range(2):
        assert divergence(nu, invariant).is_zero
        assert divergence(nu, flat) == on.poly(1)  # L_nu(dz) = d(z) = dz
    assert divergence(nu, volume_form(on, z**-1)).is_zero  # equal to invariant


def test_divergence_requires_tangency():
    s = surface_chart()
    ws = surface_volume(s)
    with pytest.raises(NotTangentError):
        divergence(vector_field(s, {"x": 1}), ws)


def test_contract_volume_injectivity_on_random_fields():
    rng = random.Random(37)
    for on, w in ((torus_chart(2), None), (surface_chart(), None)):
        w = torus_volume(on) if not on.relations else surface_volume(on)
        for _ in range(30):
            xi = random_tangent_field(rng, on)
            if contract_volume(xi, w).is_zero:
                assert all(c.is_zero for c in xi.free_components().values())


def test_closedness_of_divergence_free_contractions():
    # d(theta(xi)) = 0 whenever div(xi) = 0; brackets of kernel-scaled fields
    s = surface_chart()
    ws = surface_volume(s)
    fields = surface_fields(s)
    z = s.generator("z")
    y = s.generator("y")
    rng = random.Random(38)
    for _ in range(15):
        i, j = rng.randint(0, 3), rng.randint(0, 3)
        a = s.normal_form(z ** i) * fields["dz"]
        b = s.normal_form(y ** j) * fields["dy"]
        xi = lie_bracket(a, b)
        assert divergence(xi, ws).is_zero
        assert exterior_derivative(contract_volume(xi, ws)).is_zero


def test_cartan_formula_and_bracket_contraction_identity():
    rng = random.Random(39)
    for on in charts_under_test():
        n = len(on.free_coordinates)
        for _ in range(35):
            xi = random_tangent_field(rng, on, max_degree=1)
            eta = random_tangent_field(rng, on, max_degree=1)
            alpha = random_form(rng, on, rng.randint(0, n), max_degree=1)
            lhs = interior_product(lie_bracket(xi, eta), alpha)
            rhs = lie_derivative(xi, interior_product(eta, alpha)) - interior_product(
                eta, lie_derivative(xi, alpha)
            )
            assert forms_equal(lhs, rhs)


def test_lie_derivative_leibniz_over_wedge():
    rng = random.Random(40)
    for on in charts_under_test():
        n = len(on.free_coordinates)
        for _ in range(25):
            xi = random_tangent_field(rng, on, max_degree=1)
            a = random_form(rng, on, rng.randint(0, n), max_degree=1)
            b = random_form(rng, on, rng.randint(0, n), max_degree=1)
            lhs = lie_derivative(xi, wedge(a, b))
            rhs = wedge(lie_derivative(xi, a), b) + wedge(a, lie_derivative(xi, b))
            assert forms_equal(lhs, rhs)


def time_t_flow(xi, parameters=("t",), bound=8):
    """exp(t*xi) built from lnd_flow's iterates, on xi's chart with the free
    coordinates ``parameters`` appended; returns that chart, the image of each
    coordinate and the variable t (the first parameter)."""
    on = xi.chart
    names = on.coordinates + parameters
    with_t = chart(names, on.invertible,
                   [(rel.poly.extend_variables(names), rel.solves) for rel in on.relations])
    t = with_t.generator(parameters[0])
    images = {}
    for name, iterates in lnd_flow(xi, bound).items():
        images[name] = with_t.generator(name) + sum(
            (Fraction(1, math.factorial(k)) * t ** k * iterate.extend_variables(names)
             for k, iterate in enumerate(iterates, 1)),
            LaurentPoly.zero(names),
        )
    return with_t, images, t


def test_lnd_flow_on_sl2():
    sl2 = sl2_chart()
    a1, a2, b1, b2 = sl2.generators()
    xi = vector_field(sl2, {"a1": b1, "a2": b2})
    flow = lnd_flow(xi, 4)
    assert flow == {"a1": [b1], "a2": [sl2.normal_form(b2)], "b1": [], "b2": []}
    with_t, images, t = time_t_flow(xi)
    a1, a2, b1, b2 = (c.extend_variables(with_t.coordinates) for c in (a1, a2, b1, b2))
    for name, expected in (("a1", a1 + t * b1), ("a2", a2 + t * b2), ("b1", b1), ("b2", b2)):
        assert with_t.normal_form(images[name]) == with_t.normal_form(expected)


def test_lnd_flow_identity_for_zero_field():
    on = torus_chart(2)
    assert lnd_flow(vector_field(on, {}), 1) == {name: [] for name in on.coordinates}


def test_lnd_flow_rejects_semisimple_field():
    on = torus_chart(1)
    nu = vector_field(on, {"z1": on.generator("z1")})
    with pytest.raises(NilpotencyError, match=r"^xi\^13\(z1\) is still nonzero; .* bound 12$"):
        lnd_flow(nu, 12)


def flow_composes_additively(xi, bound=8):
    # exp(t*xi) after exp(s*xi) is exp((t + s)*xi)
    with_ts, flow_t, t = time_t_flow(xi, ("t", "s"), bound)
    _, flow_s, s = time_t_flow(xi, ("s", "t"), bound)
    flow_s = {c: image.extend_variables(with_ts.coordinates) for c, image in flow_s.items()}
    s = s.extend_variables(with_ts.coordinates)
    for name in xi.chart.coordinates:
        composed = flow_t[name].substitute(flow_s)
        direct = flow_t[name].substitute({"t": t + s})
        assert with_ts.normal_form(composed) == with_ts.normal_form(direct)


def test_flow_composition_in_two_formal_parameters():
    # triangular shear on affine 3-space exercises the factorial terms
    c3 = chart(("x", "y", "z"))
    x, y, z = c3.generators()
    shear = vector_field(c3, {"x": y, "y": z})
    assert lnd_flow(shear, 4) == {"x": [y, z], "y": [z], "z": []}
    with_t, images, t = time_t_flow(shear)
    x, y, z = (c.extend_variables(with_t.coordinates) for c in (x, y, z))
    assert images["x"] == x + t * y + Fraction(1, 2) * t ** 2 * z
    flow_composes_additively(shear)

    # and on a chart with a relation, where the flow stays polynomial
    names = ("x", "y", "u", "v")
    x_, y_, u_, v_ = LaurentPoly.generators(names)
    xm = chart(names, invertible=("x",), relations=[(x_ ** 2 * v_ - y_ * u_ - 1, "v")])
    nu = vector_field(xm, {"y": x_ ** 2, "v": u_})
    flow_composes_additively(nu, bound=4)


@pytest.mark.parametrize("address, name", [
    ("sl2", "xi"), ("sl2", "eta"),
    *((f"xm1:{m}", name) for m in (1, 2, 3) for name in ("nu_y", "nu_u")),
])
def test_lnd_flow_maps_relations_into_the_ideal(address, name):
    # tangency makes the time-t flow a chart endomorphism; lnd_flow does not
    # re-check it, so this is the oracle
    xi = scenario_by_name(address).fields[name]
    with_t, images, _ = time_t_flow(xi)
    assert any(images[c] != with_t.generator(c) for c in xi.chart.coordinates)
    assert xi.chart.relations
    for rel in xi.chart.relations:
        lifted = rel.poly.extend_variables(with_t.coordinates)
        assert with_t.normal_form(lifted.substitute(images)).is_zero


@pytest.mark.parametrize("address", [
    "sl2", "surface:p=x,q=y", "surface:p=x**2,q=y**3", "surface:p=2*x-x**3,q=y**2+y",
    "xm1:1", "xm1:2", "xm1:3", "torus:3",
])
def test_brackets_of_tangent_fields_are_tangent(address):
    # a bracket's contraction takes no tangency test of its own: [a, b] maps
    # the ideal into itself when a and b do.  This is the oracle, recomputed
    # from scratch on a field rebuilt from the bracket's coefficients
    fields = list(scenario_by_name(address).fields.values())
    assert len(fields) >= 2
    for i, a in enumerate(fields):
        for b in fields[i + 1:]:
            fresh = vector_field(a.chart, lie_bracket(a, b).as_dict())
            assert all(fresh.apply(rel.poly).is_zero for rel in a.chart.relations)


def test_lnd_flow_stops_at_a_negative_bound():
    # the bound test is len(iterates) >= bound, so a negative bound ends at
    # the first nonzero iterate instead of iterating forever
    result = run_snippet("""
from volform import lnd_flow, parse
from volform.errors import NilpotencyError
try:
    lnd_flow(parse("chart { vars z*; } field nu = (z) d/dz;").fields["nu"], -1)
except NilpotencyError as exc:
    print(exc)
""")
    assert result.stdout.endswith("at bound -1\n"), result.stderr


def test_scalar_multiplication_of_forms_and_fields():
    on = surface_chart()
    w = surface_volume(on)
    x = on.generator("x")
    scaled = x * w
    assert scaled.coefficient(tuple(on.free_coordinates)) == on.normal_form(
        x * w.unit_coefficient()
    )
    fields = surface_fields(on)
    doubled = 2 * fields["dz"]
    assert doubled.coefficient("x") == 2 * fields["dz"].coefficient("x")


def test_form_addition_degree_mismatch():
    on = torus_chart(2)
    one_form = diff_form(on, 1, {("z1",): 1})
    with pytest.raises(DimensionError):
        one_form + torus_volume(on)


# every built-in action: negate, swap_xy, the lifted factor actions and the
# product diagonals (negate_negate, swap_xy_negate)
@pytest.mark.parametrize("address", [
    "torus:2",
    "surface:p=x,q=y",
    "product:torus:1|torus:1",
    "product:surface:p=x,q=y|torus:1",
])
def test_field_invariance_matches_inverse_jacobian_oracle(address):
    model = scenario_by_name(address)
    on = model.chart
    rng = random.Random(address)
    fields = list(model.fields.values())
    base = fields + [f + g for i, f in enumerate(fields) for g in fields[i + 1:]]
    assert model.actions
    for act in model.actions.values():
        p = random_poly(rng, on, max_terms=2, max_degree=2)
        symmetric = p + p.substitute(act.as_dict())  # fixed by an action of order 2
        # g * f and p d/dc move one coordinate's coefficient at a time, the
        # latter also along solvable coordinates, off the tangent fields
        cases = base + [symmetric * f for f in base[:3]] + [
            g * fields[0] for g in on.generators()
        ] + [vector_field(on, {c: p}) for c in on.coordinates] + [
            vector_field(on, {c: random_poly(rng, on, max_terms=2, max_degree=2)
                              for c in on.coordinates})
        ]
        verdicts = [is_invariant(f, act) for f in cases]
        assert verdicts == [field_invariant_by_inverse_jacobian(f, act) for f in cases], act.name
        assert True in verdicts and False in verdicts, act.name


def test_calculus_input_errors():
    xy = ("x", "y")
    x, y = (LaurentPoly.variable(xy, v) for v in xy)
    plane = chart(xy)
    swap = action(plane, "s", {"x": y, "y": x}, 2)
    cases = [
        (lambda: vector_field(plane, {"x": 1}).coefficient("q"), ChartError,
         "no coefficient for coordinate 'q'"),
        (lambda: vector_field(plane, {"q": 1}), ChartError,
         "coefficients for unknown coordinates: ['q']"),
        (lambda: diff_form(plane, 1, {("x", "y"): 1}), DimensionError,
         "key ('x', 'y') does not match degree 1"),
        (lambda: diff_form(chart(xy, (), [(x - 1, "x")]), 1, {("x",): 1}), ChartError,
         "'x' is not a free coordinate of the chart"),
        (lambda: is_invariant(3, swap), TypeError, "cannot test invariance of int"),
    ]
    # an action reads objects of its own chart only: torus:1's under surface's swap_xy
    surface, torus = scenario_by_name("surface:p=x,q=y"), scenario_by_name("torus:1")
    swap_xy = surface.actions["swap_xy"]
    for obj in (torus.fields["nu1"], torus.forms["w_without_1"], torus.volume):
        cases += [(lambda obj=obj: is_invariant(obj, swap_xy), VariableMismatchError,
                   "objects live on different charts")]
    cases += [
        (lambda: is_invariant(torus.chart.generator("z1"), swap_xy), VariableMismatchError,
         "polynomial over ('z1',) does not match chart coordinates ('x', 'y', 'z')"),
        (lambda: pullback_form(torus.volume, swap_xy), VariableMismatchError,
         "objects live on different charts"),
    ]
    for build, error, message in cases:
        with pytest.raises(error) as raised:
            build()
        assert str(raised.value) == message
    # a polynomial is read on the action's chart, which needs no third argument
    assert is_invariant(x + y, swap) and not is_invariant(x, swap)
