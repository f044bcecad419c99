"""Built-in scenarios: every expected record executes, products behave."""

import itertools
import time
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

from volform import (
    CheckDirective,
    LaurentPoly,
    RunFlags,
    VectorField,
    action,
    chart,
    diff_form,
    execute,
    forms_equal,
    is_invariant,
    kernel_basis,
    lie_bracket,
    parse,
    product,
    run_check,
    scenario_by_name,
    sl2,
    surface,
    torus,
    vector_field,
    volume_form,
    xm1,
)
from volform.algebra import _integral
from volform.errors import ChartError, SemanticError
from volform.linalg import SpanBuilder
from volform.model import Model

from helpers import grlex_key, run_snippet
from test_golden import PRODUCTS

XYZ = ("x", "y", "z")
DATA = Path(__file__).parent / "data"


def xvar():
    return LaurentPoly.variable(XYZ, "x")


def yvar():
    return LaurentPoly.variable(XYZ, "y")


def run_all(scenario):
    records = execute(scenario, RunFlags())
    assert len(records) == len(scenario.checks)
    for record in records:
        # the one-sided semicompat test of xm1:m, m >= 2, stays UNKNOWN at bound 1
        want = "UNKNOWN" if record.name == "semicompat(nu_y, nu_u, 1)" else "PASS"
        assert record.status == want, (
            f"{scenario.name}: {record.name} -> {record.status} ({record.detail})"
        )
    return records


@pytest.mark.parametrize(
    "maker",
    [
        lambda: torus(1),
        lambda: torus(2),
        lambda: torus(3),
        sl2,
        lambda: surface(xvar(), yvar()),
        lambda: surface(xvar() ** 2, yvar() ** 3),
        lambda: xm1(1),
        lambda: xm1(2),
        lambda: xm1(3),
        lambda: product(surface(xvar(), yvar()), torus(1)),
        lambda: product(sl2(), torus(1)),
    ],
)
def test_all_expected_records_pass(maker):
    run_all(maker())


def test_torus_requires_positive_dimension():
    with pytest.raises(ChartError):
        torus(0)


def test_xm1_requires_positive_exponent():
    with pytest.raises(ChartError):
        xm1(0)


def test_xm1_one_has_no_primitive_form():
    assert "tau" not in xm1(1).forms
    assert "tau" in xm1(2).forms


def test_surface_rejects_nonzero_constant_terms():
    with pytest.raises(ChartError):
        surface(xvar() + 1, yvar())


def rename(p: LaurentPoly, mapping) -> LaurentPoly:
    """p with its variables renamed in place and its terms as they are."""
    return LaurentPoly(tuple(mapping.get(v, v) for v in p.variables), p.terms)


def test_product_of_tori_matches_bigger_torus_up_to_renaming():
    prod = product(torus(1), torus(1))
    assert prod.chart.coordinates == ("z1", "z1_2")
    mapping = {"z1_2": "z2"}
    on = chart([mapping.get(c, c) for c in prod.chart.coordinates],
               [mapping.get(c, c) for c in prod.chart.invertible])
    reference = torus(2)
    assert on == reference.chart
    coeff = rename(prod.volume.unit_coefficient(), mapping)
    assert volume_form(on, coeff) == reference.volume

    def renamed(name):
        coeffs = prod.fields[name].coefficients
        return vector_field(on, {mapping.get(n, n): rename(c, mapping) for n, c in coeffs})

    assert renamed("nu1") == reference.fields["nu1"]
    assert renamed("nu1_2") == reference.fields["nu2"]


def test_product_is_associative_up_to_renaming():
    a, b, c = torus(1), sl2(), xm1(2)
    left = product(product(a, b), c)
    right = product(a, product(b, c))
    assert left.chart == right.chart
    assert left.volume == right.volume
    assert left.fields == right.fields
    assert left.polys == right.polys
    assert set(left.actions) == set(right.actions)


def test_product_lifted_fields_commute():
    prod = product(sl2(), torus(1))
    bracket = lie_bracket(prod.fields["xi"], prod.fields["nu1"])
    assert bracket.is_zero


def test_product_diagonal_action_invariants():
    prod = product(surface(xvar(), yvar()), torus(1))
    assert "swap_xy_negate" in prod.actions
    diag = prod.actions["swap_xy_negate"]
    # the torus scaling field lifts to an invariant field
    assert is_invariant(prod.fields["nu1"], diag)
    # the anti-invariant surface shear becomes invariant after scaling by z1
    assert "z1dz" in prod.fields
    assert is_invariant(prod.fields["z1dz"], diag)
    # same mechanism for the volume form
    assert "z1w" in prod.forms
    assert is_invariant(prod.forms["z1w"], diag)
    # and the unscaled objects are genuinely anti-invariant, not invariant
    assert not is_invariant(prod.fields["dz"], diag)
    assert not is_invariant(prod.volume, diag)


@pytest.mark.parametrize("address, kept, added", [
    ("product:torus:1|torus:1|torus:1",
     ("negate_negate", ["z1", "z1_2"]), ("negate_negate_2", ["z1", "z1_3"])),
    ("product:surface:p=x,q=y|torus:1|torus:1",
     ("swap_xy_negate", ["z1"]), ("swap_xy_negate_2", ["z1_2"])),
])
def test_diagonal_actions_take_fresh_names(address, kept, added):
    # the first product's diagonal stays; the diagonal pairing the same
    # actions with the third factor gets the next free name
    prod = scenario_by_name(address)
    for name, negated in (kept, added):
        act = prod.actions[name]
        assert act.name == name
        assert [c for c, img in act.images if img == -prod.chart.generator(c)] == negated


def test_lifted_actions_are_named_by_their_keys():
    prod = scenario_by_name("product:torus:1|torus:1")
    assert {key: act.name for key, act in prod.actions.items()} == {
        "negate": "negate", "negate_2": "negate_2", "negate_negate": "negate_negate"}
    record = run_check(prod, CheckDirective("invariant", ("nu1_2", "negate_2")), RunFlags())
    assert (record.status, record.detail) == ("PASS", "nu1_2 is invariant under negate_2")


def test_three_factor_product_records_each_check_once():
    # z1dz is a field of the first product and also z1 times its dz
    prod = scenario_by_name("product:surface:p=x,q=y|torus:1|torus:1")
    labels = [d.label() for d in prod.checks]
    assert len(labels) == len(set(labels)) == 45
    assert "invariant(z1dz, swap_xy_negate_negate)" in labels
    run_all(prod)


# every golden product, a product of two equal xm1 factors, three factors, and
# a p = q surface, whose swap action gives a diagonal
LIFTED = tuple(dict.fromkeys(PRODUCTS + (
    "product:sl2|sl2",
    "product:xm1:2|xm1:2",
    "product:torus:1|torus:1|torus:1",
    "product:surface:p=2*x,q=2*y|torus:1",
)))


def _factors(address: str):
    """The two models whose product ``address`` builds last."""
    *head, last = address[len("product:"):].split("|")
    first = scenario_by_name(head[0] if len(head) == 1 else "product:" + "|".join(head))
    return first, scenario_by_name(last)


@pytest.mark.parametrize("address", LIFTED)
def test_product_lifts_what_the_validating_constructors_build(address):
    # product assembles its chart and lifted objects from the factors' parts;
    # rebuilt from the same lifted data by chart, vector_field, diff_form and
    # action, which solve, normalise, sort and test order and ideal again,
    # each is equal
    s1, s2 = _factors(address)
    prod = product(s1, s2)
    coords = prod.chart.coordinates
    renamed = [{}, dict(zip(s2.chart.coordinates, coords[len(s1.chart.coordinates):]))]

    def lift(p, rn):
        return rename(p, rn).extend_variables(coords)

    both = chart(coords, [rn.get(c, c) for s, rn in zip((s1, s2), renamed) for c in s.chart.invertible],
                 [(lift(rel.poly, rn), rn.get(rel.solves, rel.solves))
                  for s, rn in zip((s1, s2), renamed) for rel in s.chart.relations])
    assert prod.chart == both
    fields, forms, actions = (iter(table.values()) for table in (prod.fields, prod.forms, prod.actions))
    images = []
    for s, rn in zip((s1, s2), renamed):
        for f in s.fields.values():
            assert next(fields) == vector_field(
                both, {rn.get(n, n): lift(c, rn) for n, c in f.coefficients})
        for f in s.forms.values():
            assert next(forms) == diff_form(
                both, f.degree, {tuple(rn.get(n, n) for n in k): lift(c, rn) for k, c in f.coefficients})
        images.append([({rn.get(n, n): lift(img, rn) for n, img in a.images}, a.order)
                       for a in s.actions.values()])
    lifted = [*images[0], *images[1]]
    lifted += [({**i1, **i2}, o1) for i1, o1 in images[0] for i2, o2 in images[1] if o1 == o2]
    assert len(prod.actions) == len(lifted)
    for (images_of, order), act in zip(lifted, actions):
        assert act == action(both, act.name, images_of, order)


def test_product_re_sorts_the_renamed_keys_of_a_form():
    # z1 of the second factor becomes z1_2, which sorts after z10, so the
    # lifted 1-form dz1 + dz10 lists its keys in another order
    names = ("z1", "z10")
    plane = chart(names, invertible=names)
    one = LaurentPoly.one(names)
    form = diff_form(plane, 1, {("z1",): one, ("z10",): one})
    second = Model(name="plane", chart=plane, volume=volume_form(plane, one), volume_name="w",
                   forms={"f": form})
    prod = product(torus(1), second)
    on = prod.chart
    assert [key for key, _ in prod.forms["f"].coefficients] == [("z10",), ("z1_2",)]
    assert prod.forms["f"] == diff_form(on, 1, {("z1_2",): on.poly(1), ("z10",): on.poly(1)})


def test_product_runs_no_validating_constructor(monkeypatch):
    from volform import scenarios

    built = [scenario_by_name(a) for a in ("sl2", "surface:p=x,q=y", "xm1:2", "torus:2")]

    def refuse(*args, **kwargs):
        raise AssertionError("product re-validated a lifted object")

    for name in ("chart", "action", "vector_field", "diff_form"):
        monkeypatch.setattr(scenarios, name, refuse)
    for s1, s2 in itertools.permutations(built, 2):
        assert product(product(s1, s2), s1).checks


def test_quadric_surface_times_torus_spot_check():
    # u*v = x^2 - 1 with all coordinates negated, times a negated torus factor
    names = ("u", "v", "x")
    u, v, x = LaurentPoly.generators(names)
    quadric = chart(names, invertible=("u",), relations=[(u * v - x ** 2 + 1, "v")])
    w1 = volume_form(quadric, u.unit_inverse())
    xi_u = vector_field(quadric, {"x": u, "v": 2 * x})
    xi_v = vector_field(quadric, {"x": v, "u": 2 * x})
    from volform import Model, divergence, is_tangent

    assert is_tangent(xi_u) and is_tangent(xi_v)
    assert divergence(xi_u, w1).is_zero and divergence(xi_v, w1).is_zero
    base = Model(
        name="quadric",
        chart=quadric,
        volume=w1,
        volume_name="w",
        fields={"xi_u": xi_u, "xi_v": xi_v},
        actions={
            "negate": action(quadric, "negate", {"u": -u, "v": -v, "x": -x}, 2)
        },
    )
    prod = product(base, torus(1))
    diag = prod.actions["negate_negate"]
    for name in ("xi_u", "xi_v", "nu1"):
        assert is_invariant(prod.fields[name], diag)


def test_scenario_addresses():
    assert scenario_by_name("torus:2").name == "torus:2"
    assert scenario_by_name("sl2").name == "sl2"
    s = scenario_by_name("surface:p=x**2,q=y**3")
    assert s.chart.coordinates == ("x", "y", "z")
    assert scenario_by_name("xm1:2").forms
    prod = scenario_by_name("product:torus:1|torus:1")
    assert len(prod.chart.coordinates) == 2
    with pytest.raises(ChartError):
        scenario_by_name("nonsense")
    with pytest.raises(ChartError):
        scenario_by_name("torus:x")
    with pytest.raises(ChartError):
        scenario_by_name("surface:p=x")


def test_exactness_field_contraction_is_exact():
    # torus stores z_j*nu_i, which is [nu_j, z_j*nu_i], so its contraction
    # with omega is d of the double contraction of (nu_j, z_j*nu_i)
    from volform import contract_volume, exterior_derivative, forms_equal, interior_product

    for n in (2, 3):
        s = torus(n)
        for i, j in itertools.permutations(range(1, n + 1), 2):
            nu_i, nu_j = s.fields[f"nu{i}"], s.fields[f"nu{j}"]
            scaled = s.chart.generator(f"z{j}") * nu_i
            primitive = interior_product(nu_j, interior_product(scaled, s.volume))
            assert forms_equal(contract_volume(s.fields[f"nu{i}x{j}"], s.volume),
                               exterior_derivative(primitive))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exactness_fields_equal_their_brackets(n):
    # torus builds z_j*nu_i without computing [nu_j, z_j*nu_i]; this is the oracle
    s = torus(n)
    for i, j in itertools.permutations(range(1, n + 1), 2):
        nu_i, nu_j = s.fields[f"nu{i}"], s.fields[f"nu{j}"]
        z_j = s.chart.generator(f"z{j}")
        assert s.fields[f"nu{i}x{j}"] == lie_bracket(nu_j, z_j * nu_i)


def test_torus_makes_no_bracket_call(monkeypatch):
    from volform import calculus, scenarios

    calls = []
    bracket = calculus.lie_bracket

    def counted(a, b):
        calls.append((a, b))
        return bracket(a, b)

    for module in (calculus, scenarios):
        monkeypatch.setattr(module, "lie_bracket", counted, raising=False)
    torus(5)
    assert calls == []


@pytest.mark.parametrize("p, q", [
    ("x", "y"), ("x", "2*y"), ("x**2", "y**2"), ("2*x-x**3", "2*y-y**3"), ("x**2", "y**3"),
])
def test_swap_action_exactly_when_p_and_q_swap(p, q):
    # surface tests p(y) == q only; q(x) == p follows, as p is in x alone
    from volform import parse_polynomial

    p, q = parse_polynomial(p, XYZ), parse_polynomial(q, XYZ)
    swaps = p.substitute({"x": yvar()}) == q and q.substitute({"y": xvar()}) == p
    assert ("swap_xy" in surface(p, q).actions) == swaps


def test_volume_coefficients_are_nonzero_at_sampled_points():
    from volform import sample_point

    for maker in (lambda: torus(2), sl2, lambda: surface(xvar(), yvar()), lambda: xm1(2)):
        s = maker()
        coeff = s.volume.unit_coefficient()
        for seed in range(5):
            point = sample_point(s.chart, seed)
            assert coeff.evaluate(point.as_dict()) != 0


def test_torus_contraction_forms_match_up_to_sign():
    from volform import contract_volume

    s = torus(3)
    for i in (1, 2, 3):
        got = contract_volume(s.fields[f"nu{i}"], s.volume)
        expected = s.forms[f"w_without_{i}"]
        assert forms_equal(got, expected) or forms_equal(got, -expected)


@pytest.mark.parametrize("degree_bound", [1, 2])
def test_omitted_degree_bound_reads_the_flag(degree_bound):
    record = run_check(sl2(), CheckDirective("semicompat", ("xi", "eta")),
                       RunFlags(degree_bound=degree_bound))
    assert record.status == "PASS"
    assert f"at bound {degree_bound}," in record.detail


@pytest.mark.parametrize("directive", [
    CheckDirective("lnd", ("xi",)),
    CheckDirective("flow_jacobian", ("xi", "f", (("a1", 1), ("a2", 1), ("b1", 0), ("b2", 1)))),
], ids=["lnd", "flow_jacobian"])
def test_omitted_lnd_bound_reads_the_flag(directive):
    # xi(a1) = b1 and xi(b1) = 0: bound 0 stops one step short, bound 1 suffices
    short = run_check(sl2(), directive, RunFlags(lnd_bound=0))
    assert short.status == "ERROR" and short.detail.startswith("NilpotencyError:")
    assert run_check(sl2(), directive, RunFlags(lnd_bound=1)).status == "PASS"


@pytest.mark.parametrize("args", [(), ("xi", 5, 6)], ids=["too_few", "too_many"])
def test_run_check_holds_library_directives_to_the_arity(args):
    record = run_check(sl2(), CheckDirective("tangent", args), RunFlags())
    message = f"check tangent takes 1 argument(s), got {len(args)}"
    assert (record.status, record.detail) == ("ERROR", f"SemanticError: {message}")
    # the document parser words the same fault the same way
    text = ", ".join(str(a) for a in args)
    with pytest.raises(SemanticError) as parsed:
        parse(f"chart {{ vars x; }}\nfield xi = (1) d/dx;\ncheck tangent({text});\n")
    assert str(parsed.value) == f"3:7: {message}"


@pytest.mark.parametrize("generator, status, detail", [
    ("px", "FAIL", "(x)**1 is outside the computed kernel"),
    ("pz", "PASS", "kernel is exactly the span of powers of z (dim 4)"),
    ("one", "FAIL", "(1) has constant normal form 1; its powers are dependent"),
])
def test_kernel_spans_reads_each_power_of_the_generator(generator, status, detail):
    # Ker dz at bound 3 on the cubic surface is spanned by 1, z, z^2, z^3:
    # x^0 = 1 lies in it and x^1 does not; every power of 1 lies in it, but
    # they span only the constants
    s = scenario_by_name("surface:p=2*x+x**3,q=y**2+y")
    record = run_check(s, CheckDirective("kernel_spans", ("dz", 3, generator, 4)), RunFlags())
    assert (record.status, record.detail) == (status, detail)


def test_kernel_spans_scales_rational_powers_of_the_generator():
    # the kernel's span takes integer vectors; the powers of (z + 2/3)/2
    # have Fraction coefficients and span what the powers of z span
    doc = parse((DATA / "surface_xy.vf").read_text()
                + "poly half = (1/2)*z + 1/3; check kernel_spans(dz, 4, half, 5);")
    record = run_check(doc, doc.checks[-1], RunFlags())
    assert (record.status, record.detail) == (
        "PASS", "kernel is exactly the span of powers of 1/2*z + 1/3 (dim 5)")


def kernel_spans_by_polynomial_powers(field, bound, generator, text, expected_dim):
    """The kernel_spans check as it was before it read the kernel's own
    packed span: the members re-spanned by exponent tuples, and each power a
    LaurentPoly product.  The reference for the differential test."""
    basis = kernel_basis(field, bound)
    if len(basis) != expected_dim:
        return "FAIL", f"kernel dimension {len(basis)}, expected {expected_dim}"
    reduced = field.chart.normal_form(generator)
    if expected_dim >= 2 and not reduced.support():
        return "FAIL", f"({text}) has constant normal form {reduced}; its powers are dependent"
    span = SpanBuilder(key_order=grlex_key)
    for member in basis:
        span.insert(dict(_integral(member.terms)[1]))
    power = LaurentPoly.one(field.chart.coordinates)
    for k in range(expected_dim):
        if k:
            power = power * reduced
        if not span.contains(dict(_integral(power.terms)[1])):
            return "FAIL", f"({text})**{k} is outside the computed kernel"
    return "PASS", f"kernel is exactly the span of powers of {text} (dim {expected_dim})"


@pytest.mark.parametrize("address", ["sl2", "xm1:2", "torus:2"])
def test_kernel_spans_matches_polynomial_powers(address):
    # the check multiplies integer codes in the kernel's own span; the
    # reference multiplies LaurentPolys in a re-span of the members.  last**10
    # leaves the table's box at every bound here, and first*second, the
    # inverse and the rational generator are outside most kernels
    model = scenario_by_name(address)
    on = next(iter(model.fields.values())).chart
    first, second, last = (on.generator(c) for c in (on.coordinates[0], on.coordinates[1],
                                                     on.coordinates[-1]))
    inverse = on.generator(next(c for c in on.coordinates if c in on.invertible)) ** -1
    generators = {"g_last": last, "g_first": first, "g_last10": last ** 10,
                  "g_rational": last / 2 + Fraction(1, 3), "g_product": first * second,
                  "g_inverse": inverse}
    model.polys.update(generators)
    seen = set()
    for name, field in model.fields.items():
        for bound in range(5):
            for g, poly in generators.items():
                for dim in sorted({1, 2, 3, bound + 1, bound + 2}):
                    record = run_check(model, CheckDirective("kernel_spans", (name, bound, g, dim)),
                                       RunFlags())
                    expected = kernel_spans_by_polynomial_powers(field, bound, poly, str(poly), dim)
                    assert (record.status, record.detail) == expected, (name, bound, g, dim)
                    seen.add("dimension" if record.detail.startswith("kernel dimension")
                             else "outside" if "outside" in record.detail else record.status)
    # passes, power failures and dimension failures all occur
    assert {"PASS", "outside", "dimension"} <= seen


def test_kernel_spans_keeps_a_generator_outside_the_box_outside():
    # Ker nu1 at bound 1 on torus:2 is spanned by 1 and z2.  A generator far
    # outside the table's box overflows the packing's digits: with
    # a = 2**(2w) + 1, c = 1 - 2**w and b = -a*2**w - c*2**(2w), the
    # exponents (a, b) pack to code 0, the code of the constant 1
    model = scenario_by_name("torus:2")
    field = model.fields["nu1"]
    packing = kernel_basis(field, 1).packing
    w = packing.width
    a, c = 2 ** (2 * w) + 1, 1 - 2 ** w
    exps = (a, -a * 2 ** w - c * 2 ** (2 * w))
    assert packing.pack(exps) == 0
    model.polys["g"] = alias = LaurentPoly.monomial(model.chart.coordinates, exps)
    record = run_check(model, CheckDirective("kernel_spans", ("nu1", 1, "g", 2)), RunFlags())
    assert (record.status, record.detail) == kernel_spans_by_polynomial_powers(
        field, 1, alias, str(alias), 2) == ("FAIL", f"({alias})**1 is outside the computed kernel")


def test_kernel_spans_inserts_only_what_its_kernel_basis_does(monkeypatch):
    # the check tests powers in the span kernel_basis built, so it stores no
    # vector of its own
    model = scenario_by_name("surface:p=2*x+x**3,q=y**2+y")
    calls = []
    insert = SpanBuilder.insert
    monkeypatch.setattr(SpanBuilder, "insert", lambda span, vec: calls.append(1) or insert(span, vec))
    kernel_basis(model.fields["dz"], 4)
    basis_inserts, calls[:] = len(calls), []
    record = run_check(model, CheckDirective("kernel_spans", ("dz", 4, "pz", 5)), RunFlags())
    assert record.status == "PASS"
    assert basis_inserts > 0 and len(calls) == basis_inserts


@pytest.mark.parametrize("witness, detail", [
    # dz ^ dy vanishes at the fifth sampled point
    ("one", "wedges do not span at x = -2, y = 1, z = -1"),
    # a zero witness gates its pair out at the first point
    ("zero", "wedges do not span at x = 4, y = 5, z = -2/5"),
])
def test_wedge_span_names_the_failing_point_by_coordinates(witness, detail):
    doc = parse((DATA / "surface_xy.vf").read_text()
                + f"poly zero = 0; check wedge_span(((dz, dy, {witness})));")
    record = run_check(doc, doc.checks[-1], RunFlags())
    assert (record.status, record.detail) == ("FAIL", detail)


@pytest.mark.parametrize("points, status, detail", [
    (324, "PASS", "wedges span the wedge square at 324 sampled points"),
    (325, "ERROR", "could only sample 324 distinct points"),
    (20000, "ERROR", "could only sample 324 distinct points"),
])
def test_wedge_span_knows_how_many_distinct_points_a_chart_has(points, status, detail):
    # torus:2 has 18**2 = 324 sample points; asking for more is an ERROR at
    # once, not after 50 * points draws
    doc = scenario_by_name("torus:2")
    (directive,) = [d for d in doc.checks if d.kind == "wedge_span"]
    started = time.perf_counter()
    record = run_check(doc, directive, RunFlags(points=points))
    assert (record.status, record.detail) == (status, detail)
    assert time.perf_counter() - started < 1.0


def test_a_document_computes_each_fields_residuals_once(monkeypatch):
    # every check reads a field's cached residuals, and the brackets of the
    # identity and potential checks are contracted without a tangency test
    computed = []
    residuals = VectorField.__dict__["residuals"].func

    def counted(field):
        computed.append(field)
        return residuals(field)

    prop = cached_property(counted)
    prop.__set_name__(VectorField, "residuals")
    monkeypatch.setattr(VectorField, "residuals", prop)
    doc = parse((DATA / "surface_xy.vf").read_text())
    assert {r.status for r in execute(doc, RunFlags())} == {"PASS"}
    assert len({id(f) for f in computed}) == len(computed) == len(doc.fields)


@pytest.mark.parametrize("flag, value, minimum", [
    ("points", 0, 1), ("degree_bound", -1, 0), ("lnd_bound", -1, 0),
])
def test_run_flags_hold_the_cli_minimums(flag, value, minimum):
    # below these a check passed vacuously ("status FULL_RING at bound -1",
    # "at 0 sampled points") or iterated forever (lnd)
    with pytest.raises(SemanticError, match=f"^{flag} must be at least {minimum}, got {value}$"):
        RunFlags(**{flag: value})
    assert getattr(RunFlags(**{flag: minimum}), flag) == minimum


def test_a_negative_lnd_bound_ends_at_once():
    result = run_snippet("""
from volform import CheckDirective, RunFlags, parse, run_check
from volform.errors import SemanticError
model = parse("chart { vars z*; } field nu = (z) d/dz;")
try:
    print(run_check(model, CheckDirective("lnd", ("nu",)), RunFlags(lnd_bound=-1)))
except SemanticError as exc:
    print(exc)
""")
    assert result.stdout == "lnd_bound must be at least 0, got -1\n", result.stderr


def test_product_needs_two_charted_scenarios():
    with pytest.raises(ChartError, match="^product needs two scenarios with charts and volume forms$"):
        product(Model(), torus(1))
