"""Command line behaviour: exit codes, JSON schema, determinism."""

import ast
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from volform import parse
from volform.checks import REGISTRY, RunFlags, run_check
from volform.cli import SCHEMA_PATH, build_parser, main
from volform.model import CheckDirective

DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "volform", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def test_scenarios_listing(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    assert "torus:N" in out and "sl2" in out


def test_check_surface_scenario_json_exits_zero_and_validates():
    proc = run_cli("check", "surface:p=x,q=y", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validate(payload, schema)
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["error"] == 0
    assert payload["summary"]["pass"] == len(payload["checks"])


def test_corrupted_potential_document_exits_one():
    proc = run_cli("check", str(DATA / "corrupt_potential.vf"))
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
    assert "residual" in proc.stdout


def test_unknown_status_warns_but_exits_zero(capsys):
    code = main(["check", "xm1:2"])
    captured = capsys.readouterr()
    assert code == 0
    assert "UNKNOWN" in captured.out
    assert "warning" in captured.err


def test_identical_seeds_give_byte_identical_json():
    a = run_cli("check", "torus:2", "--format", "json", "--seed", "11")
    b = run_cli("check", "torus:2", "--format", "json", "--seed", "11")
    assert a.stdout == b.stdout
    c = run_cli("check", "torus:2", "--format", "json", "--seed", "12")
    assert json.loads(c.stdout)["seed"] == 12


def test_parse_subcommand(capsys):
    assert main(["parse", str(DATA / "surface_xy.vf")]) == 0
    assert "OK" in capsys.readouterr().out
    code = main(["parse", str(DATA / "missing-file.vf")])
    assert code == 2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.vf"
    bad.write_text("chart { vars x, y; rel x + y - 1; }")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "triangular" in err


def test_document_that_is_not_utf8_exits_two(tmp_path, capsys):
    doc = tmp_path / "latin1.vf"
    doc.write_bytes(b"chart { vars x; }\npoly \xff = x;\n")
    for command in ("check", "parse"):
        assert main([command, str(doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read {doc}: 'utf-8' codec can't decode byte 0xff"), err


@pytest.mark.parametrize("flag, value", [
    ("--points", "-3"),
    ("--points", "0"),
    ("--degree-bound", "-1"),
    ("--lnd-bound", "-1"),
])
def test_out_of_range_flags_exit_two(flag, value, capsys):
    assert main(["check", "torus:2", flag, value, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be at least" in captured.err


@pytest.mark.parametrize("statement", [
    "check tangent();",
    "check kernel_spans(v, 2, one);",
    "check lnd(v, 2, 3);",
    "check semicompat(v);",
    "check submodular(v, v, 1, 2);",
])
def test_wrong_check_arity_is_a_semantic_error(statement, tmp_path, capsys):
    doc = tmp_path / "arity.vf"
    doc.write_text(f"chart {{ vars x*; }}\nfield v = (x) d/dx;\npoly one = 1;\n{statement}\n")
    assert main(["check", str(doc)]) == 2
    assert main(["parse", str(doc)]) == 2
    err = capsys.readouterr().err
    assert "argument(s), got" in err and "Traceback" not in err


CASE_PREAMBLE = """chart { vars x, y, z; invert x, y; rel x + y + x*y*z - 1 solve z; }
field dz = (1 + x*z) d/dx - (1 + y*z) d/dy;
field dy = -(x*y) d/dx + (1 + y*z) d/dz;
poly pz = z;
group N { ambient 2; basis [[1, 0], [0, -1]]; element A0 = [[0, -1], [1, 0]]; }
"""


NINES = "9" * 3000

# statement -> the full detail of its one ERROR record (exit 1); each wording
# is part of the contract.  A statement that opens its own chart block is the
# whole document; every other one follows CASE_PREAMBLE.
ERROR_DETAILS = {
    # bounds below 0 would pass vacuously
    "check semicompat(dz, dy, -1);": "SemanticError: degree bound must be at least 0, got -1",
    "check kernel_spans(dz, -1, pz, 0);": "SemanticError: degree bound must be at least 0, got -1",
    "check lnd(dz, -1);": "SemanticError: bound must be at least 0, got -1",
    "check flow_jacobian(dz, pz, ((x, 1), (y, 1), (z, -1)), -1);":
        "SemanticError: bound must be at least 0, got -1",
    "check kernel_spans(dz, 2, pz, -1);": "SemanticError: dimension must be at least 0, got -1",
    # argument kinds and shapes
    "check wedge_span(dz);":
        "SemanticError: expected a non-empty tuple of (field, field, witness) triples, got 'dz'",
    "check wedge_span(());":
        "SemanticError: expected a non-empty tuple of (field, field, witness) triples, got ()",
    "check wedge_span(((dz, dy, 1)));": "SemanticError: expected a polynomial name, got 1",
    "check flow_jacobian(dz, pz, ab);":
        "SemanticError: expected a non-empty tuple of (coordinate, value) pairs, got 'ab'",
    "check flow_jacobian(dz, pz, ((x, y), (y, 1), (z, -1)));":
        "SemanticError: expected a number for the coordinate value, got 'y'",
    "check flow_jacobian(dz, pz, ((x, 1), (y, 1), (z, -1)), 1/2);":
        "SemanticError: expected an integer bound, got Fraction(1, 2)",
    # the last value would win: this point would be read at x = 5
    "check flow_jacobian(dz, pz, ((x, 1), (y, 0), (x, 5)), 4);":
        "SemanticError: coordinate 'x' already has a value",
    "check submodular(N, A0, x);": "SemanticError: expected a number for the determinant, got 'x'",
    "check submodular(N, A0, (1, 2));":
        "SemanticError: expected a number for the determinant, got (1, 2)",
    "check submodular(N, B0, 1);": "GroupError: no test element named 'B0'",
    "check submodular(dz, A0, 1);": "SemanticError: 'dz' is not a group",
    "check semicompat(dz, dz, 1, 7);":
        "SemanticError: expected verdict FULL_RING or IDEAL_WITNESS, got 7",
    "check semicompat(dz, dy, dz);": "SemanticError: expected an integer degree bound, got 'dz'",
    "check kernel_spans(dz, 2, pz, x);": "SemanticError: expected an integer dimension, got 'x'",
    "check tangent(nope);": "SemanticError: unknown identifier 'nope'",
    "check tangent(pz);": "SemanticError: 'pz' is not a vector field",
    "check tangent((dz, dy));": "SemanticError: expected a vector field name, got ('dz', 'dy')",
    "check divergence_zero(dz, dz);": "SemanticError: 'dz' is not a volume form",
    "check exact_volume(dz, dz);": "SemanticError: 'dz' is not a differential form",
    "check potential(dz, dz, dz);": "SemanticError: 'dz' is not a polynomial",
    "volume w = (x**-1*y**-1) dx^dy; check theta_equals(dz, w, pz);":
        "SemanticError: 'pz' is not a differential form",
    "check invariant(nope, nope);": "SemanticError: unknown identifier 'nope'",
    "check invariant(dz, nope);": "SemanticError: unknown action 'nope'",
    "action s: x -> y, y -> x order 2; check invariant(s, s);":
        "SemanticError: 's' is not a polynomial, coordinate, field, form or volume",
    "action s: x -> y, y -> x order 2; check invariant(N, s);":
        "SemanticError: 'N' is not a polynomial, coordinate, field, form or volume",
    # work budgets: an ERROR record in seconds instead of a run that never ends
    "chart { vars z*; } field nu = (z) d/dz; check lnd(nu, 100000);":
        "NilpotencyError: xi^100001(z) is still nonzero; field not verified locally "
        "nilpotent at bound 100000",
    "check kernel_spans(dz, 40, pz, 41);": "ResourceLimitError: 12341 monomials of degree <= 40 "
                                           "in 3 coordinates exceed the budget of 300",
    "check semicompat(dz, dy, 40);": "ResourceLimitError: 12341 monomials of degree <= 40 "
                                     "in 3 coordinates exceed the budget of 300",
    # surface checks on a chart of dimension 3
    "chart { vars x, y, z; } field a = (1) d/dx; volume u = (1) dx^dy^dz; poly p = x; "
    "check bracket_potential(a, a, u, p);": "DimensionError: chart has dimension 3, expected 2",
    "chart { vars x, y, z; } field a = (1) d/dx; volume u = (1) dx^dy^dz; poly p = x; "
    "check potential(p, a, u);": "DimensionError: chart has dimension 3, expected 2",
    # a detail whose coefficient is longer than Python prints
    "volume w = (x**-1*y**-1) dx^dy; poly bad = 2**20000*z; check potential(bad, dz, w);":
        "ResourceLimitError: a coefficient of 20001 bits is too long to print",
    # and one whose exponent is: (10**3000 - 1)**2 has 6000 digits
    f"poly g = (x**{NINES})**{NINES}; check kernel_spans(dz, 1, g, 2);":
        "ResourceLimitError: an exponent of 19932 bits is too long to print",
}


def _error_row(statement: str, detail: str):
    status = "ERROR:ResourceLimitError" if detail.startswith("ResourceLimitError") else "ERROR"
    # a statement too long to read as a test id is named by its length
    name = f"{len(statement)}-character-statement-1-{status}" if len(statement) > 200 else None
    return pytest.param(statement, 1, status, id=name)


# the third column names the record's status (None: a positioned error, exit 2)
# and, for budget rows, the error class; it is also part of each test id
@pytest.mark.parametrize("statement, code, status", [
    *(_error_row(statement, detail) for statement, detail in ERROR_DETAILS.items()),
    # positioned errors in the document itself
    ("group M { ambient 2; basis [[1, 0], [0, 1/0]]; }", 2, None),
    # a basis whose bracket [E, F] = H leaves its span
    ("group M { ambient 2; basis [[0, 1], [0, 0]], [[0, 0], [1, 0]]; "
     "element I = [[1, 0], [0, 1]]; } check submodular(M, I, 1);", 2, None),
    ("check submodular(N, A0, 1/0);", 2, None),
    ("check tangent(dz) expect FAIL;", 2, None),
    ("check tangent(dz) expect BOGUS;", 2, None),
    ("form a = dx + dx^dy;", 2, None),
    ("poly p = x**²;", 2, None),
    # past Python's int-to-string digit limit: a literal, and an action's order
    # message that prints a coefficient 2**20000
    pytest.param("poly p = " + "1" * 5000 + ";", 2, None, id="5000-digit-literal-2-None"),
    ("chart { vars x*; } action s: x -> 2*x order 20000;", 2, None),
    # nested past the parser's limit: once a RecursionError, exit 1
    pytest.param("poly p = " + "(" * 200 + "x" + ")" * 200 + ";", 2, None,
                 id="200-parentheses-2-None"),
    pytest.param("check tangent(" + "(" * 5000 + "dz" + ")" * 5000 + ");", 2, None,
                 id="5000-tuples-2-None"),
])
def test_bad_document_input_never_ends_in_a_traceback(statement, code, status, tmp_path, capsys):
    doc = tmp_path / "case.vf"
    preamble = "" if statement.startswith("chart") else CASE_PREAMBLE
    doc.write_text(preamble + statement + "\n")
    assert main(["check", str(doc), "--format", "json"]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if status is None:
        line = preamble.count("\n") + 1
        assert captured.out == ""
        assert captured.err.startswith(f"{doc}:{line}:"), captured.err
        assert main(["parse", str(doc)]) == 2
        assert capsys.readouterr().err.startswith(f"{doc}:{line}:")
    else:
        records = json.loads(captured.out)["checks"]
        assert [(r["status"], r["detail"]) for r in records] == [
            ("ERROR", ERROR_DETAILS[statement])
        ]


SL2_CHART = ("chart { vars a1, a2, b1, b2; invert a1; rel a1*b2 - a2*b1 - 1 solve b2; } "
             "field xi = (b1) d/da1 + (a1**-1*a2*b1 + a1**-1) d/da2; "
             "field eta = (a1) d/db1 + (a2) d/db2; ")
Z_CHART = "chart { vars z*; } volume w = (z**-1) dz; "

# statement -> the full detail of its one FAIL record (exit 1), one statement
# per check kind, under CASE_PREAMBLE as in ERROR_DETAILS
FAIL_DETAILS = {
    SL2_CHART + "field da2 = (1) d/da2; check tangent(da2);": "relation residuals: ['-b1']",
    Z_CHART + "field d = (1) d/dz; check divergence_zero(d, w);": "divergence is -z**-1",
    "chart { vars x*, y*; } volume w = (x**-1*y**-1) dx^dy; field nu = (x) d/dx; poly p = x; "
    "check potential(p, nu, w);": "no sign matches; residual for c=+1: (1) dx + (-y**-1) dy",
    "volume w = (x**-1*y**-1) dx^dy; check bracket_potential(dz, dy, w, pz);":
        "potential is -x**-1*y + x**-1, expected +/- (z)",
    "poly px = x; check kernel_spans(dz, 3, px, 4);": "(x)**1 is outside the computed kernel",
    SL2_CHART + "check semicompat(xi, eta, 2, IDEAL_WITNESS);":
        "status FULL_RING at bound 2, witness 1, expected IDEAL_WITNESS",
    "poly one = 1; check wedge_span(((dz, dy, one)));":
        "wedges do not span at x = -2, y = 1, z = -1",
    Z_CHART + "form r = (z) dz; check exact_volume(r, w);": "residual form: (-z**-1) dz",
    Z_CHART + "field d = (1) d/dz; action s: z -> -z order 2; check invariant(d, s);":
        "d is not invariant under s",
    SL2_CHART + "check commute(xi, eta);":
        "bracket is ['-a1', '-a2', 'b1', 'a1**-1*a2*b1 + a1**-1']",
    Z_CHART + "field nu = (z) d/dz; form t = (2); check theta_equals(nu, w, t);":
        "contraction is (1)",
    "check submodular(N, A0, 1);": "determinant is -1, expected 1",
}

# check kinds with no FAIL record, and why
FAIL_FREE = {
    "lnd": "it only PASSes, or is an ERROR when the field is not nilpotent within the bound",
    "identity1": "Cartan's formula holds for tangent, divergence-free fields, and the check "
                 "is an ERROR for any other",
    "flow_jacobian": "the Jacobian identity holds at a zero of a kernel element, and the check "
                     "is an ERROR anywhere else",
}


def _kind(statement):
    return statement.rsplit("check ", 1)[1].split("(", 1)[0]


@pytest.mark.parametrize("statement", FAIL_DETAILS, ids=_kind)
def test_each_check_kind_fails_with_its_detail(statement, tmp_path, capsys):
    doc = tmp_path / "fail.vf"
    doc.write_text(("" if statement.startswith("chart") else CASE_PREAMBLE) + statement + "\n")
    assert main(["check", str(doc), "--format", "json"]) == 1
    records = json.loads(capsys.readouterr().out)["checks"]
    assert [(r["name"].split("(")[0], r["status"], r["detail"]) for r in records] == [
        (_kind(statement), "FAIL", FAIL_DETAILS[statement])]


def test_every_check_kind_has_a_fail_example_or_a_reason():
    # a new check kind lands with a FAIL example, or with the reason it has none
    examples = [_kind(statement) for statement in FAIL_DETAILS]
    assert len(set(examples)) == len(examples)
    assert not set(examples) & set(FAIL_FREE)
    assert sorted(examples + list(FAIL_FREE)) == sorted(REGISTRY)


def test_cyclic_relations_are_a_positioned_error(tmp_path, capsys):
    doc = tmp_path / "cyclic.vf"
    doc.write_text("chart { vars x, y; rel x - y solve x; rel y - x solve y; }\n")
    for command in ("check", "parse"):
        assert main([command, str(doc)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"{doc}:1:1: relation for 'x' is self-referential\n")


def test_unknown_check_kind_is_a_positioned_error(tmp_path, capsys):
    # the registry's kinds are known when the document is parsed
    doc = tmp_path / "unknown.vf"
    doc.write_text("chart { vars x; }\ncheck nope(x);\n")
    for command in ("check", "parse"):
        assert main([command, str(doc)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"{doc}:2:7: unknown check kind 'nope'\n")
    # a directive built through the library gets the same message as an ERROR
    model = parse("chart { vars x; }")
    record = run_check(model, CheckDirective("nope", ("x",)), RunFlags())
    assert (record.status, record.detail) == ("ERROR", "SemanticError: unknown check kind 'nope'")


# a target -> the one line its command prints to stderr, and the exit code; a
# document target is written to a file and its line starts with the file name
USER_ERRORS = {
    "product:sl2": ("error: product address needs two parts: 'product:sl2'", 2),
    "surface:p=y,q=y": ("error: p must be a polynomial in x only, got y", 2),
    "chart { vars x; }\naction s: x -> 2*x order 0;":
        ("2:1: declared order must be positive, got 0", 2),
    "chart { vars z*, w; }\naction s: z -> z + 1 order 2;":
        ("2:1: invertible coordinate 'z' must map to a unit monomial, got z + 1", 2),
    "chart { vars z*, w; }\naction s: z -> w, w -> z order 2;":
        ("2:1: image of invertible coordinate 'z' involves non-invertible coordinates", 2),
    "chart { vars x*; }\nvolume v = (1 + x) dx;": ("2:1: volume form coefficient x + 1 is not "
                                                   "a single Laurent monomial; this shape is "
                                                   "not supported", 2),
    "chart { vars x, y; }\nvolume v = (x) dx^dy;": ("2:1: volume form coefficient x involves "
                                                   "non-invertible coordinates and would "
                                                   "vanish somewhere", 2),
    "group G { ambient 2; basis [[1, 0]]; }": ("1:1: basis matrix is not a 2x2 matrix", 2),
}


@pytest.mark.parametrize("target", USER_ERRORS, ids=lambda t: t.split("\n")[-1])
def test_user_errors_print_their_message_and_exit_code(target, tmp_path, capsys):
    message, code = USER_ERRORS[target]
    if not message.startswith("error:"):
        doc = tmp_path / "case.vf"
        doc.write_text(target + "\n")
        target, message = str(doc), f"{doc}:{message}"
    assert main(["check", target]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")


def test_deeply_nested_scenario_address_is_a_positioned_error(capsys):
    address = "surface:p=" + "(" * 101 + "x" + ")" * 101 + ",q=y"
    assert main(["check", address]) == 2
    assert capsys.readouterr().err == f"{address}:1:101: parentheses nested more than 100 deep\n"


# a coordinate may carry any name, including the formal time variable the
# flow checks once added to the chart
@pytest.mark.parametrize("document, detail", [
    ("chart { vars s, t; }\nfield nu = (t) d/ds;\ncheck lnd(nu);\n",
     "locally nilpotent within bound 32; flow moves ['s']"),
    ("chart { vars s, _flow_t; }\nfield nu = (_flow_t) d/ds;\npoly f = _flow_t;\n"
     "check flow_jacobian(nu, f, ((s, 1), (_flow_t, 0)));\n",
     "flow Jacobian equals identity plus the rank-one shear"),
], ids=["lnd_on_t", "flow_jacobian_on__flow_t"])
def test_flow_checks_accept_any_coordinate_name(document, detail, tmp_path, capsys):
    doc = tmp_path / "flow.vf"
    doc.write_text(document)
    assert main(["check", str(doc), "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)["checks"]
    assert [(r["status"], r["detail"]) for r in records] == [("PASS", detail)]


def test_scenario_address_longer_than_a_file_name_resolves(capsys):
    # a name over the file system's 255-byte limit is no file, so it is an address
    address = "surface:p=x" + "+0*x" * 70 + ",q=y"
    assert len(address.encode()) > 255
    assert main(["check", address, "--format", "json"]) == 0
    report = capsys.readouterr().out
    assert main(["check", "surface:p=x,q=y", "--format", "json"]) == 0
    assert report == capsys.readouterr().out


def test_unknown_scenario_address(capsys):
    assert main(["check", "torus:none"]) == 2
    assert main(["check", "does-not-exist"]) == 2


def test_scenario_flag_alternative(capsys):
    # the positional target is the only way to name a document or scenario
    assert main(["check"]) == 2
    assert "the following arguments are required: target" in capsys.readouterr().err


def test_group_document_runs(capsys):
    assert main(["check", str(DATA / "sl2_group.vf")]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "pass: 3" in out


def test_reused_parser_answers_as_a_fresh_process(capsys, monkeypatch):
    # main builds its parser once per process; no call may leave state in it
    # that changes a later call
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    doc = str(Path(__file__).parent.parent / "docs" / "examples" / "xm1_2.vf")
    assert build_parser() is build_parser()
    codes = []
    for argv in (["check", doc, "--format", "json", "--seed", "3"],
                 ["check", doc, "--points", "0"],
                 ["check", doc],
                 ["parse", doc]):
        code = main(argv)
        captured = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (captured.out, captured.err, code) == (
            fresh.stdout, fresh.stderr, fresh.returncode), argv
        codes.append(code)
    assert codes == [0, 2, 0, 0]


def test_flag_defaults_are_the_run_flag_defaults():
    args = build_parser().parse_args(["check", "x"])
    for field in dataclasses.fields(RunFlags):
        assert getattr(args, field.name) == getattr(RunFlags(), field.name), field.name


def test_flags_are_threaded_through(capsys):
    assert main(["check", "torus:2", "--points", "3", "--seed", "4",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["points"] == 3 and payload["seed"] == 4
    span_records = [r for r in payload["checks"] if r["name"].startswith("wedge_span")]
    assert span_records and "3 sampled points" in span_records[0]["detail"]


def test_timings_flag_text_output(capsys):
    assert main(["check", "sl2", "--timings"]) == 0
    out = capsys.readouterr().out
    assert "ms]" in out


def test_every_public_name_resolves():
    import volform

    assert [name for name in volform.__all__ if not hasattr(volform, name)] == []


def test_no_public_object_has_two_names():
    # a second name for one class or function is a concept defined twice
    import volform

    names: dict[int, list[str]] = {}
    for name in volform.__all__:
        names.setdefault(id(getattr(volform, name)), []).append(name)
    assert [group for group in names.values() if len(group) > 1] == []


# Top-level definitions of src/volform that no package code uses, each with
# the reason it stays.  A listed name counts as in use, and so does what it
# uses (format_document's _format_* helpers).
UNUSED_BY_DESIGN = {
    "format_document": "the DSL printer, inverse of parse; round-trip tests pin it",
    "verify_bracket_identity": "bench/vfbench/tracing.py wraps it by name",
    "verify_potential": "bench/vfbench/tracing.py wraps it by name",
    "SCHEMA_PATH": "where callers and tests find the report schema the JSON output follows",
}


def test_every_definition_is_used_by_package_code():
    # A top-level definition of src/volform stays in use while another one in
    # use names it.  Module-level statements (such as __main__'s call of
    # cli.main) and decorated functions (the registered checks) are always in
    # use; __init__ only re-exports and does not count.  A definition that
    # falls out, public or private, is code that no check, DSL statement or
    # CLI path reaches.
    import volform

    mentions: dict[str, set[str]] = {}  # top-level name -> names its code loads
    for path in Path(volform.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            registered = isinstance(node, ast.FunctionDef) and node.decorator_list
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not registered:
                keys = [node.name]
            elif isinstance(node, ast.Assign):
                keys = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                keys = [f"<{path.name}:{node.lineno}>"]
            loads = {
                n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            for key in keys:
                mentions.setdefault(key, set()).update(loads)

    def unnamed(in_use: set[str]) -> set[str]:
        return {key for key in in_use if not key.startswith("<")
                and not any(key in mentions[other] for other in in_use if other != key)}

    in_use = set(mentions)
    while dropped := unnamed(in_use) - set(UNUSED_BY_DESIGN):
        in_use -= dropped
    assert sorted(set(mentions) - in_use) == []
    # every entry names a definition that nothing else in use names
    assert sorted(unnamed(in_use)) == sorted(UNUSED_BY_DESIGN)


# Public methods and properties (Class.name) that no package code loads, each
# with the reason it stays.
METHODS_UNUSED_BY_DESIGN: dict[str, str] = {
    "LaurentPoly.evaluate": "the validating front for a value mapping from a caller; package "
                            "code holds points in coordinate order and calls its kernel",
}


def test_every_public_method_is_used_by_package_code():
    # the test above sees top-level names only, so not a method that only
    # tests call.  Each public method or property of a class defined in
    # src/volform must be loaded as an attribute (obj.name) in package code;
    # the name alone counts, whichever object it is loaded from, so a method
    # name shared by several classes hides the unused ones.
    import volform

    defined, loaded = set(), set()
    for path in Path(volform.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                defined.update(f"{node.name}.{item.name}" for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unused = {name for name in defined if name.split(".")[1] not in loaded}
    assert sorted(unused) == sorted(METHODS_UNUSED_BY_DESIGN)


def test_console_entry_point_parse_check():
    proc = run_cli("parse", str(DATA / "sl2_group.vf"))
    assert proc.returncode == 0
    assert "OK" in proc.stdout


def test_shipped_example_documents_pass(capsys):
    examples = sorted((Path(__file__).parent.parent / "docs" / "examples").glob("*.vf"))
    assert examples
    for path in examples:
        assert main(["check", str(path)]) == 0, path.name
        capsys.readouterr()
