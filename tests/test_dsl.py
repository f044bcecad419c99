"""Document language: golden productions, errors with positions, round trips."""

from pathlib import Path

import pytest

from volform import (
    LaurentPoly,
    execute,
    format_document,
    parse,
    parse_polynomial,
    surface,
)
from volform.errors import ParseError, SemanticError

DATA = Path(__file__).parent / "data"

CHART_ONLY = """
chart {
  vars x, y, z;
  invert x, y;
  rel x + y + x*y*z - 1 solve z;
}
"""


def xy_surface():
    x = LaurentPoly.variable(("x", "y", "z"), "x")
    y = LaurentPoly.variable(("x", "y", "z"), "y")
    return surface(x, y)


# ------------------------------------------------------ golden productions


def test_chart_production():
    doc = parse(CHART_ONLY)
    assert doc.chart.coordinates == ("x", "y", "z")
    assert doc.chart.invertible == frozenset({"x", "y"})
    assert doc.chart.free_coordinates == ("x", "y")


def test_star_suffix_marks_invertibility():
    doc = parse("chart { vars z1*, z2*; }")
    assert doc.chart.invertible == frozenset({"z1", "z2"})


def test_volume_production():
    doc = parse(CHART_ONLY + "volume w = (1/(x*y)) dx^dy;")
    assert doc.volume_name == "w"
    assert doc.volume.unit_coefficient() == LaurentPoly.monomial(
        ("x", "y", "z"), (-1, -1, 0)
    )


def test_field_production_with_bare_and_parenthesized_coefficients():
    doc = parse(
        CHART_ONLY
        + "field v = x d/dx + (1 + y*z) d/dy - d/dz;"
    )
    v = doc.fields["v"]
    on = doc.chart
    assert v.coefficient("x") == on.generator("x")
    assert v.coefficient("y") == on.normal_form(1 + on.generator("y") * on.generator("z"))
    assert v.coefficient("z") == -LaurentPoly.one(on.coordinates)


def test_form_production_and_solvable_differential():
    doc = parse(CHART_ONLY + "form a = (x) dx^dy + (2) dy^dx;")
    a = doc.forms["a"]
    # dy^dx folds into -dx^dy
    on = doc.chart
    assert a.coefficient(("x", "y")) == on.generator("x") - 2
    # the differential of an eliminated coordinate expands through the relation
    doc2 = parse(CHART_ONLY + "form b = (1) dz;")
    b = doc2.forms["b"]
    z_solution = dict(doc2.chart.solutions)["z"]
    assert b.coefficient(("x",)) == z_solution.partial_derivative("x")


def test_poly_and_action_productions():
    doc = parse(CHART_ONLY + "poly f = x**2 - 1/2; action s: x -> y, y -> x order 2;")
    assert doc.polys["f"].evaluate({"x": 2, "y": 1, "z": 1}) == 3.5
    assert doc.actions["s"].order == 2


def test_group_production():
    doc = parse((DATA / "sl2_group.vf").read_text())
    assert set(doc.groups) == {"N", "G"}
    records = execute(doc)
    assert [r.status for r in records] == ["PASS", "PASS", "PASS"]


def test_check_production_with_expect_and_tuples():
    doc = parse(
        CHART_ONLY
        + "field v = x d/dx;"
        + "check tangent(v);"
        + "check flow_jacobian(v, one, ((x, 1), (y, 1), (z, -1)), 4);"
        + "poly one = 1;"
    )
    first, second = doc.checks
    assert second.args[2] == (("x", 1), ("y", 1), ("z", -1))


def test_parse_polynomial_helper():
    p = parse_polynomial("x**2 + 2*x", ("x", "y", "z"))
    assert p.degree_in("x") == 2
    with pytest.raises(SemanticError):
        parse_polynomial("x + w", ("x", "y", "z"))


# ------------------------------------------------------------------ errors


def test_empty_input_is_a_parse_error_at_origin():
    with pytest.raises(ParseError) as err:
        parse("")
    assert err.value.line == 1 and err.value.col == 1


def test_rel_without_solve_is_triangularity_error():
    with pytest.raises(SemanticError) as err:
        parse("chart { vars x, y; rel x + y - 1; }")
    assert "triangular presentation required" in str(err.value)


def test_unknown_identifier_has_position():
    with pytest.raises(SemanticError) as err:
        parse(CHART_ONLY + "poly f = x + nope;")
    assert "nope" in str(err.value)
    assert err.value.line > 1


def test_unknown_statement_and_bad_character():
    with pytest.raises(ParseError):
        parse("bogus stuff;")
    with pytest.raises(ParseError):
        parse("chart { vars x; } poly f = x @ 2;")


def test_form_literal_terms_are_never_empty():
    # a 0-form is its coefficient alone; an empty term or a dangling "^" is an error
    for body in ("form a = ;", "form a = (x) dx + ;", "form a = (x) dx^;"):
        with pytest.raises(ParseError):
            parse(CHART_ONLY + body)
    with pytest.raises(SemanticError) as err:
        parse(CHART_ONLY + "form a = (x) + dx;")
    assert "cannot add forms of degree 0 and 1" in str(err.value)


def test_check_may_name_an_object_defined_after_it():
    doc = parse(CHART_ONLY + "check tangent(dz); field dz = (1 + x*z) d/dx - (1 + y*z) d/dy;")
    assert [r.status for r in execute(doc)] == ["PASS"]


def test_duplicate_names_rejected():
    with pytest.raises(SemanticError):
        parse(CHART_ONLY + "poly f = x; poly f = y;")
    with pytest.raises(SemanticError):
        parse(CHART_ONLY + "poly x = y;")  # collides with a coordinate
    with pytest.raises(SemanticError):
        parse(CHART_ONLY + "volume w = (x**-1*y**-1) dx^dy; field w = x d/dx;")


def test_statements_requiring_chart():
    with pytest.raises(SemanticError):
        parse("poly f = 1;")
    with pytest.raises(SemanticError):
        parse("field v = d/dx;")


def test_division_by_non_unit_is_semantic_error():
    with pytest.raises(SemanticError):
        parse(CHART_ONLY + "poly f = 1/(x + y);")
    # and dividing by a non-invertible coordinate is a chart violation
    with pytest.raises(SemanticError):
        parse(CHART_ONLY + "poly f = 1/z;")


def test_nontriangular_or_invalid_actions_rejected():
    with pytest.raises(SemanticError):
        parse(CHART_ONLY + "action bad: x -> -x order 2;")  # breaks the ideal
    with pytest.raises(SemanticError):
        parse(CHART_ONLY + "action bad: x -> y, y -> x order 3;")  # wrong order


# ------------------------------------------------------------- round trips


def test_golden_surface_document_equals_builtin_scenario():
    doc = parse((DATA / "surface_xy.vf").read_text(), source="surface_xy.vf")
    scenario = xy_surface()
    assert doc.chart == scenario.chart
    assert doc.volume == scenario.volume
    assert doc.volume_name == scenario.volume_name
    assert doc.fields == scenario.fields
    assert doc.polys == scenario.polys
    assert doc.actions == scenario.actions
    assert doc.forms == scenario.forms
    assert doc.checks == scenario.checks
    assert doc == scenario  # name is excluded from comparison


def test_parse_format_parse_is_fixed_point():
    for text in (
        (DATA / "surface_xy.vf").read_text(),
        (DATA / "sl2_group.vf").read_text(),
        CHART_ONLY + "poly f = x**-1 - 1/2; field v = (x) d/dx; "
        "form a = (x) dx^dy; action s: x -> y, y -> x order 2; check tangent(v);",
        CHART_ONLY + "form c = (x); form o = (0);",
    ):
        doc = parse(text)
        printed = format_document(doc)
        again = parse(printed)
        assert again == doc
        assert format_document(again) == printed


def test_scenario_documents_round_trip():
    from volform import sl2, torus, xm1

    for scenario in (xy_surface(), torus(1), torus(2), torus(3), sl2(), xm1(1), xm1(2)):
        printed = format_document(scenario)
        doc = parse(printed)
        assert doc == scenario, scenario.name


def test_poly_references_inside_field_coefficients():
    doc = parse(
        CHART_ONLY
        + "poly qprime = 1;"
        + "field dzq = (qprime + x*z) d/dx - (qprime + y*z) d/dy;"
    )
    on = doc.chart
    x, y, z = on.generators()
    assert doc.fields["dzq"].coefficient("x") == on.normal_form(1 + x * z)
    assert doc.fields["dzq"].coefficient("y") == on.normal_form(-(1 + y * z))
