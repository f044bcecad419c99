"""Recorded JSON reports: `volform check <target> --format json --seed 3`
must reproduce tests/data/golden/ byte for byte, with the same exit code.
Product scenarios are also pinned structurally: their document text, each
action's key and name, and their check labels (tests/data/golden/products.json).
Every scenario's printed document parses back to it and runs the same checks.
The printed kernel bases and semicompat verdicts of the benchmark's kernel
and certify cases, and of larger bounds beyond them, are pinned too
(tests/data/golden/searches.json).

The reports were recorded once and are the reference for refactors that must
not change behaviour.  When a report change is intended, rewrite them and the
product snapshot from the current tree with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from pathlib import Path

import pytest

from volform import execute, format_document, kernel_basis, parse, scenario_by_name
from volform import semicompat_bounded
from volform.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

SCENARIOS = (
    "torus:1",
    "torus:2",
    "torus:4",
    "sl2",
    "surface:p=x,q=y",
    "surface:p=x**2,q=y**3",
    "surface:p=2*x-x**3,q=y**2+y",
    "xm1:1",
    "xm1:2",
    "xm1:3",
    "product:torus:1|torus:1",
    "product:sl2|torus:1",
    "product:surface:p=x,q=y|torus:1",
)
DOCUMENTS = tuple(
    sorted(
        p.relative_to(ROOT).as_posix()
        for pattern in ("docs/examples/*.vf", "tests/data/*.vf")
        for p in ROOT.glob(pattern)
    )
)
TARGETS = SCENARIOS + DOCUMENTS
# two-factor products: each factor contributes at most one action, so no
# diagonal name can clash with a lifted one
PRODUCTS = (
    "product:torus:2|torus:3",
    "product:torus:2|torus:2",
    "product:xm1:2|torus:1",
    "product:xm1:1|xm1:2",
    "product:sl2|sl2",
    "product:surface:p=x,q=y|surface:p=x,q=y",
    "product:surface:p=2*x+x**3,q=y**2+y|torus:2",
) + tuple(t for t in SCENARIOS if t.startswith("product:"))
PRODUCT_SNAPSHOT = GOLDEN / "products.json"
# every address above, and three-factor products, whose diagonals pair the
# first product's diagonal again; product names come from dict order, so CI
# runs these under two hash seeds
ROUND_TRIPS = tuple(dict.fromkeys(SCENARIOS + PRODUCTS + (
    "product:torus:1|torus:1|torus:1",
    "product:surface:p=x,q=y|torus:1|torus:1",
)))

# (address, a, b, bound): the kernel of a and semicompat(a, b) at the bound.
# The first surface of each class of the benchmark's kernels workload at seed
# 1, its field paired with the next of dz, dy, dx; then every certify class,
# both field orders
SEARCHES = (
    ("surface:p=-3*x,q=-3*y", "dz", "dy", 4),
    ("surface:p=3*x,q=-2*y-3*y**2", "dy", "dx", 5),
    ("surface:p=2*x,q=-2*y", "dx", "dz", 6),
    ("surface:p=-1*x-2*x**2,q=3*y", "dz", "dy", 5),
    ("surface:p=-1*x+2*x**2+3*x**3,q=-1*y-2*y**2-1*y**3", "dy", "dx", 4),
    ("surface:p=-2*x+2*x**2,q=2*y+3*y**2+2*y**3", "dx", "dz", 4),
    ("surface:p=1*x-3*x**2,q=1*y+3*y**2", "dz", "dy", 6),
    ("surface:p=-1*x-1*x**2,q=1*y", "dy", "dx", 6),
    ("surface:p=2*x-3*x**2-2*x**3,q=-1*y-1*y**2", "dx", "dz", 5),
) + tuple(
    (address, *pair, bound)
    for address, fields, bounds in (
        ("sl2", ("xi", "eta"), (3, 4)),
        ("xm1:1", ("nu_y", "nu_u"), (2, 3, 4)),
        ("xm1:2", ("nu_y", "nu_u"), (2, 3, 4)),
        ("xm1:3", ("nu_y", "nu_u"), (2, 3, 4)),
    )
    for bound in bounds
    for pair in (fields, fields[::-1])
) + tuple(
    # beyond the benchmark's classes: larger bounds, and the largest surface
    # searches the monomial budget admits
    (f"xm1:{k}", *pair, bound)
    for k in (1, 2, 3)
    for bound in (5, 6)
    for pair in (("nu_y", "nu_u"), ("nu_u", "nu_y"))
) + (
    ("sl2", "xi", "eta", 6),
    ("surface:p=x**3+x,q=y**3+2*y", "dz", "dx", 10),
    ("surface:p=x**3+x,q=y**3+2*y", "dx", "dz", 10),
    ("surface:p=2*x+x**3,q=y**2+y", "dz", "dy", 10),
)
SEARCH_SNAPSHOT = GOLDEN / "searches.json"


def golden_path(target: str) -> Path:
    return GOLDEN / (re.sub(r"[^A-Za-z0-9]+", "_", target).strip("_") + ".json")


def run_report(target: str) -> tuple[int, str]:
    """Exit code and stdout of the CLI, run in process from the repo root so
    that document paths (and hence the report's ``source``) are relative."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["check", target, "--format", "json", "--seed", "3"])
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("target", TARGETS)
def test_report_matches_golden(target):
    code, text = run_report(target)
    assert text == golden_path(target).read_text(encoding="utf-8")
    assert code == json.loads(EXIT_CODES.read_text(encoding="utf-8"))[target]


def product_snapshot(address: str) -> dict:
    s = scenario_by_name(address)
    return {
        "document": format_document(s).splitlines(),
        "actions": [[key, act.name] for key, act in s.actions.items()],
        "checks": [directive.label() for directive in s.checks],
    }


@pytest.mark.parametrize("address", PRODUCTS)
def test_product_matches_snapshot(address):
    recorded = json.loads(PRODUCT_SNAPSHOT.read_text(encoding="utf-8"))
    assert product_snapshot(address) == recorded[address]


@pytest.mark.parametrize("address", ROUND_TRIPS)
def test_printed_scenario_parses_back(address):
    s = scenario_by_name(address)
    doc = parse(format_document(s))
    assert doc == s
    assert [(r.name, r.status, r.detail) for r in execute(doc)] == [
        (r.name, r.status, r.detail) for r in execute(s)]


def search_record(address: str, a: str, b: str, bound: int) -> dict:
    fields = scenario_by_name(address).fields
    verdict = semicompat_bounded(fields[a], fields[b], bound)
    return {
        "kernel": [str(row) for row in kernel_basis(fields[a], bound)],
        "status": verdict.status,
        "witness": None if verdict.witness is None else str(verdict.witness),
    }


def search_key(search: tuple) -> str:
    return " ".join(map(str, search))


@pytest.mark.parametrize("search", SEARCHES, ids=search_key)
def test_search_matches_snapshot(search):
    recorded = json.loads(SEARCH_SNAPSHOT.read_text(encoding="utf-8"))
    assert search_record(*search) == recorded[search_key(search)]


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    codes = {}
    for target in TARGETS:
        codes[target], text = run_report(target)
        golden_path(target).write_text(text, encoding="utf-8")
    EXIT_CODES.write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")
    snapshot = {address: product_snapshot(address) for address in PRODUCTS}
    PRODUCT_SNAPSHOT.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    searches = {search_key(s): search_record(*s) for s in SEARCHES}
    SEARCH_SNAPSHOT.write_text(json.dumps(searches, indent=1) + "\n", encoding="utf-8")
