"""Document language: golden productions, errors with positions, round trips."""

import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volform import (
    LaurentPoly,
    execute,
    format_document,
    parse,
    parse_polynomial,
    surface,
)
from volform import avdp, calculus, checks, dsl
from volform.calculus import exterior_derivative, scalar_form, wedge
from volform.checks import RunFlags, run_check
from volform.dsl import MAX_NESTING, tokenize
from volform.errors import ParseError, SemanticError, VolformError

DATA = Path(__file__).parent / "data"
XYZ = ("x", "y", "z")

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
    # an element name is scoped to its group: N and G both name A0
    assert doc.groups["N"].element("A0") == doc.groups["G"].element("A0")
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

ONE_LINE_CHART = "chart { vars x, y, z; invert x, y; rel x + y + x*y*z - 1 solve z; }\n"

# one malformed document per raise in the parser: name -> (document, error
# class, exact "line:col: message")
PARSE_ERRORS = {
    "bad_character": ("chart { vars x; }\npoly f = x @ 2;",
                      ParseError, "2:12: unexpected character '@'"),
    "expected_operator": ("chart { vars x y; }", ParseError, "1:16: expected ';', found 'y'"),
    # a trailing comment does not move the end-of-input position
    "expected_operator_at_end": ("chart {\n  vars x;\n\tinvert x; # no closing brace",
                                 ParseError, "3:12: expected '}', found 'end of input'"),
    "expected_kind": ("chart { vars ; }", ParseError, "1:14: expected coordinate name, found ';'"),
    "expected_keyword": ("chart { x; }", ParseError, "1:9: expected 'vars', found 'x'"),
    "empty_document": ("", ParseError, "1:1: empty document"),
    "comment_only_document": ("# nothing here\n\n", ParseError, "1:1: empty document"),
    "expected_statement": ("; chart", ParseError, "1:1: expected a statement, found ';'"),
    # a derivation token is named as written, not by its coordinate alone
    "derivation_as_statement": ("d/dx;", ParseError, "1:1: expected a statement, found 'd/dx'"),
    "unknown_statement": ("bogus stuff;", ParseError, "1:1: unknown statement 'bogus'"),
    "construction_error": (ONE_LINE_CHART + "action bad: x -> -x order 2;", SemanticError,
                           "2:1: substitution does not preserve the ideal: "
                           "relation x*y*z + x + y - 1 maps outside"),
    "chart_error": ("chart { vars x, y; rel x*y - 1 solve y; }", SemanticError,
                    "1:1: leading coefficient x of 'y' involves non-invertible coordinates"),
    "needs_chart": ("poly f = 1;", SemanticError, "1:1: this statement needs a chart block first"),
    "reserved_word": (ONE_LINE_CHART + "poly order = x;",
                      SemanticError, "2:6: 'order' is a reserved word"),
    "already_defined": (ONE_LINE_CHART + "poly f = x;\npoly f = y;",
                        SemanticError, "3:6: name 'f' is already defined"),
    "second_chart": (ONE_LINE_CHART + "chart { vars u; }",
                     SemanticError, "2:1: only one chart block per document"),
    "unknown_invert_coordinate": ("chart { vars x; invert y; }",
                                  SemanticError, "1:24: unknown coordinate 'y'"),
    "rel_without_solve": ("chart { vars x, y; rel x + y - 1; }", SemanticError,
                          "1:20: triangular presentation required: every rel needs a solve clause"),
    "unknown_solve_coordinate": ("chart { vars x, y; rel x + y - 1 solve w; }",
                                 SemanticError, "1:40: unknown coordinate 'w'"),
    "unknown_identifier": (ONE_LINE_CHART + "poly f = x + nope;",
                           SemanticError, "2:14: unknown identifier 'nope'"),
    "division_by_non_unit": (ONE_LINE_CHART + "poly f = 1/(x + y);", SemanticError,
                             "2:12: division by non-unit x + y: x + y is not a single-term monomial"),
    "power_of_non_unit": (ONE_LINE_CHART + "poly f = (x + y)**-1;",
                          SemanticError, "2:21: x + y is not a single-term monomial"),
    "non_integer_exponent": (ONE_LINE_CHART + "poly f = x**y;",
                             ParseError, "2:13: expected integer exponent, found 'y'"),
    "unclosed_exponent": (ONE_LINE_CHART + "poly f = x**(-2;",
                          ParseError, "2:16: expected ')', found ';'"),
    "expected_atom": (ONE_LINE_CHART + "poly f = x + ;",
                      ParseError, "2:14: expected a polynomial atom, found ';'"),
    "unknown_derivation_coordinate": (ONE_LINE_CHART + "field v = x d/dw;",
                                      SemanticError, "2:13: unknown coordinate 'w' in derivation"),
    "missing_derivation": (ONE_LINE_CHART + "field v = x;", ParseError,
                           "2:12: expected a derivation token d/d<coordinate>, found ';'"),
    "second_volume": (ONE_LINE_CHART + "volume w = (x**-1*y**-1) dx^dy;\nvolume u = (1) dx^dy;",
                      SemanticError, "3:1: only one volume block per document"),
    "volume_not_top_degree": (ONE_LINE_CHART + "volume w = (1) dx;", SemanticError,
                              "2:1: volume literal must be a single top-degree term"),
    "empty_form_term": (ONE_LINE_CHART + "form a = ;", ParseError,
                        "2:10: expected a coefficient or a differential d<coordinate> "
                        "in the form literal"),
    "dangling_wedge": (ONE_LINE_CHART + "form a = (x) dx^;", ParseError,
                       "2:17: expected a differential d<coordinate> in the form literal"),
    "unknown_action_coordinate": (ONE_LINE_CHART + "action s: w -> x order 2;",
                                  SemanticError, "2:11: unknown coordinate 'w'"),
    "missing_action_order": (ONE_LINE_CHART + "action s: x -> y, y -> x;",
                             ParseError, "2:25: expected 'order', found ';'"),
    # the last image would win: x -> y, x -> x is the identity
    "repeated_action_coordinate": (ONE_LINE_CHART + "action s: x -> y, x -> x order 1;",
                                   SemanticError, "2:19: coordinate 'x' already has an image"),
    # group_presentation refuses it; the parser points at the group statement
    "repeated_group_element": ("group M { ambient 2; basis [[1, 0], [0, -1]];\n"
                               "  element A = [[0, -1], [1, 0]];\n"
                               "  element A = [[2, 0], [0, 1/2]]; }",
                               SemanticError, "1:1: element 'A' is already defined"),
    "zero_denominator": ("group M { ambient 2; basis [[1, 0], [0, 1/0]]; }",
                         SemanticError, "1:43: zero denominator"),
    "missing_denominator": ("group M { ambient 2; basis [[1, 0], [0, 1/x]]; }",
                            ParseError, "1:43: expected a denominator, found 'x'"),
    "check_arity": (ONE_LINE_CHART + "check tangent();",
                    SemanticError, "2:7: check tangent takes 1 argument(s), got 0"),
    "bad_check_argument": (ONE_LINE_CHART + "check tangent(;);",
                           ParseError, "2:15: expected a check argument, found ';'"),
    "derivation_as_check_argument": (ONE_LINE_CHART + "check tangent(d/dx);", ParseError,
                                     "2:15: expected a check argument, found 'd/dx'"),
}


@pytest.mark.parametrize("text, error, message", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
def test_parse_error_table(text, error, message):
    with pytest.raises(error) as err:
        parse(text)
    assert type(err.value) is error
    assert str(err.value) == message



def test_empty_input_is_a_parse_error_at_origin():
    with pytest.raises(ParseError) as err:
        parse("")
    assert err.value.line == 1 and err.value.col == 1


def test_rel_without_solve_is_triangularity_error():
    with pytest.raises(SemanticError) as err:
        parse("chart { vars x, y; rel x + y - 1; }")
    assert "triangular presentation required" in str(err.value)


def test_cyclic_relations_whose_cycle_cancels_solve():
    # x depends on y and t, and y on x, but substituting both into x cancels x
    model = parse("chart { vars x, y, t, s; rel x - y - t solve x; "
                  "rel y - x - s solve y; rel t + x solve t; }")
    s = model.chart.generator("s")
    assert dict(model.chart.solutions) == {"x": s, "y": 2 * s, "t": -s}


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


def test_words_start_with_a_letter_and_integers_are_decimal_digits():
    # "d/d²" derives along no coordinate: it is the words d and d²
    assert [(t.kind, t.text, t.col) for t in tokenize("x² d/d² ٣٢")] == [
        ("IDENT", "x²", 1), ("IDENT", "d", 4), ("OP", "/", 5), ("IDENT", "d²", 6),
        ("INT", "٣٢", 9), ("EOF", "", 11),
    ]
    with pytest.raises(ParseError) as err:
        tokenize("x**²")
    assert str(err.value) == "1:4: unexpected character '²'"


@settings(max_examples=300, deadline=500)
@given(st.text())
def test_any_text_tokenizes_or_fails_with_a_positioned_error(text):
    try:
        tokens = tokenize(text)
    except ParseError as exc:
        assert exc.line >= 1 and exc.col >= 1
    else:
        assert tokens[-1].kind == "EOF"
    try:
        parse(text)
    except VolformError:
        pass


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


# ------------------------------------------------------------------ nesting

NEXT_LINE = CHART_ONLY.count("\n") + 1  # the line of a statement after CHART_ONLY


def nested_poly(openers: str) -> str:
    """``poly p = <openers>x<closers>;``, each "(" in ``openers`` closed."""
    return f"poly p = {openers}x{')' * openers.count('(')};"


def nested_tuple(depth: int) -> str:
    """A check whose one argument is ``dz`` inside ``depth`` tuples."""
    return f"check tangent({'(' * depth}dz{')' * depth});"


def test_nesting_up_to_the_limit_parses():
    x = LaurentPoly.variable(XYZ, "x")
    assert parse(CHART_ONLY + nested_poly("(" * MAX_NESTING)).polys["p"] == x
    assert parse_polynomial("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, XYZ) == x
    # the check's own parentheses are the first level
    (arg,) = parse(CHART_ONLY + nested_tuple(MAX_NESTING - 1)).checks[0].args
    for _ in range(MAX_NESTING - 1):
        (arg,) = arg
    assert arg == "dz"
    # unary minuses do not nest: their count only sets the sign
    assert parse(CHART_ONLY + nested_poly("-" * 5000)).polys["p"] == x
    assert parse(CHART_ONLY + nested_poly("-" * 5001)).polys["p"] == -x


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 200, 5000])
def test_nesting_past_the_limit_is_a_positioned_parse_error(depth):
    message = f"parentheses nested more than {MAX_NESTING} deep"
    # the error points at the first parenthesis past the limit
    col = len("poly p = ") + MAX_NESTING + 1
    with pytest.raises(ParseError, match=f"^{NEXT_LINE}:{col}: {message}$"):
        parse(CHART_ONLY + nested_poly("(" * depth))
    col = len("check tangent(") + MAX_NESTING
    with pytest.raises(ParseError, match=f"^{NEXT_LINE}:{col}: {message}$"):
        parse(CHART_ONLY + nested_tuple(depth))
    with pytest.raises(ParseError, match=f"^1:{MAX_NESTING + 1}: {message}$"):
        parse_polynomial("(" * depth + "x" + ")" * depth, XYZ)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 * MAX_NESTING), st.integers(0, 2 * MAX_NESTING),
       st.randoms(use_true_random=False), st.integers(0, 2 * MAX_NESTING))
def test_nested_input_parses_or_fails_with_a_volform_error(parens, minuses, rng, depth):
    openers = ["("] * parens + ["-"] * minuses
    rng.shuffle(openers)
    x = LaurentPoly.variable(XYZ, "x")
    try:
        value = parse(CHART_ONLY + nested_poly("".join(openers))).polys["p"]
    except VolformError:
        assert parens > MAX_NESTING
    else:
        assert parens <= MAX_NESTING and value == (-x if minuses % 2 else x)
    try:
        parse(CHART_ONLY + nested_tuple(depth))
    except VolformError:
        assert depth >= MAX_NESTING
    else:
        assert depth < MAX_NESTING


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


def test_zero_field_prints_one_zero_component():
    doc = parse("chart { vars x, y; } field v = (0) d/dy;")
    assert "field v = (0) d/dx;\n" in format_document(doc)
    assert parse(format_document(doc)) == doc


def test_check_details_and_documents_print_forms_alike():
    # one printer serves FAIL details and format_document; a 0-form is (c)
    doc = parse("chart { vars z*; } volume w = (1/z) dz; field nu = (z) d/dz; "
                "form t = (2); form r = (z) dz; "
                "check theta_equals(nu, w, t); check exact_volume(r, w);")
    assert [(r.status, r.detail) for r in execute(doc)] == [
        ("FAIL", "contraction is (1)"),
        ("FAIL", "residual form: (-z**-1) dz"),
    ]
    assert "form t = (2);\nform r = (z) dz;\n" in format_document(doc)


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


# ------------------------------------------------------ per-document work

# p(x) + q(y) + x*y*z = 1 with p = 2*x + x**3, q = y**2 + y: three shear
# fields, one volume, and every check of the surface class
CUBIC_SURFACE = """
chart {
  vars x, y, z;
  invert x, y;
  rel 2*x + x**3 + y**2 + y + x*y*z - 1 solve z;
}
volume w = (1/(x*y)) dx^dy;
poly pz = z;
poly px = x;
poly py = y;
poly pprime_plus_yz = 2 + 3*x**2 + y*z;
field dz = (2*y + 1 + x*z) d/dx - (2 + 3*x**2 + y*z) d/dy;
field dy = -(x*y) d/dx + (2 + 3*x**2 + y*z) d/dz;
field dx = -(x*y) d/dy + (2*y + 1 + x*z) d/dz;
check tangent(dz);
check tangent(dy);
check tangent(dx);
check divergence_zero(dz, w);
check divergence_zero(dy, w);
check divergence_zero(dx, w);
check identity1(dz, dy, w);
check identity1(dz, dx, w);
check identity1(dy, dx, w);
check potential(pz, dz, w);
check potential(py, dy, w);
check potential(px, dx, w);
check bracket_potential(dz, dy, w, pprime_plus_yz);
check kernel_spans(dz, 2, pz, 3);
check kernel_spans(dy, 2, py, 3);
check kernel_spans(dx, 2, px, 3);
"""


def test_document_computes_each_divergence_once(monkeypatch):
    # divergence_zero, identity1 (for both fields) and bracket_potential each
    # read the divergence from its formula, which builds no form
    calls, forms_built = [], []
    original, original_form = calculus.divergence, calculus.diff_form

    def counted(field, volume):
        calls.append(field)
        return original(field, volume)

    def counted_form(*args):
        if any(frame.f_code is original.__code__ for frame, _ in traceback.walk_stack(None)):
            forms_built.append(args)
        return original_form(*args)

    for module in (checks, avdp):
        monkeypatch.setattr(module, "divergence", counted)
    monkeypatch.setattr(calculus, "diff_form", counted_form)
    doc = parse(CUBIC_SURFACE)
    records = execute(doc)
    assert len(calls) == 11 and forms_built == []
    assert all(r.status == "PASS" for r in records)
    # the same records as when every check runs on a document of its own
    alone = [run_check(parse(CUBIC_SURFACE), d, RunFlags()) for d in doc.checks]
    assert [(r.name, r.status, r.detail) for r in records] == [
        (r.name, r.status, r.detail) for r in alone]


def test_form_literals_compute_each_differential_once(monkeypatch):
    calls = []
    original = dsl.exterior_derivative

    def counted(form):
        calls.append(form)
        return original(form)

    monkeypatch.setattr(dsl, "exterior_derivative", counted)
    # dz is the solved coordinate's differential, rewritten through the relation
    doc = parse(CUBIC_SURFACE + "form t = (x) dz^dx + (y) dz^dy - dz^dx;")
    assert len(calls) == 3  # dx and dy for the volume, then dz
    on = doc.chart
    x, y, _ = on.generators()
    d = {c: exterior_derivative(scalar_form(on, on.generator(c))) for c in on.coordinates}
    expected = (x * wedge(d["z"], d["x"]) + y * wedge(d["z"], d["y"])
                - wedge(d["z"], d["x"]))
    assert doc.forms["t"] == expected
    assert doc.volume.coefficients == ((("x", "y"), on.normal_form(x**-1 * y**-1)),)
