"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from vfbench import answers, generate, tracing  # noqa: E402
from vfbench.measure import Timer, percentile, tail_percentile  # noqa: E402
from vfbench.workloads import WORKLOADS, Docs  # noqa: E402

STATUSES = {answers.PASS, answers.FAIL, answers.UNKNOWN}


def _inputs(seed: int):
    surfaces = generate.kernel_surfaces(seed)
    return (
        surfaces,
        [generate.kernel_cycle(seed, k, surfaces) for k in range(4)],
        [generate.certify_cycle(seed, k) for k in range(4)],
        [generate.doc_pool(seed, v) for v in range(generate.DOC_VARIANTS)],
        [generate.docs_cycle(seed, k, generate.doc_pool(seed, 0)) for k in range(3)],
    )


def test_same_seed_gives_same_inputs():
    assert _inputs(7) == _inputs(7)
    assert _inputs(7) != _inputs(8)


def test_cycles_hold_one_op_per_class():
    surfaces = generate.kernel_surfaces(3)
    for k in range(6):
        ops = generate.kernel_cycle(3, k, surfaces)
        assert sorted(op.klass for op in ops) == list(range(len(generate.KERNEL_CLASSES)))
        ops = generate.certify_cycle(3, k)
        assert sorted(op.klass for op in ops) == list(range(len(generate.CERTIFY_CLASSES)))
    for variant in range(generate.DOC_VARIANTS):
        pool = generate.doc_pool(3, variant)
        assert sorted(generate.docs_cycle(3, 0, pool), key=lambda s: s.klass) == pool
        assert len(pool) % 2 == 1
    # two consecutive certify cycles cover both field orders of every pair
    pairs = {(op.klass, op.a) for k in (0, 1) for op in generate.certify_cycle(3, k)}
    assert len(pairs) == 2 * len(generate.CERTIFY_CLASSES)
    # every surface set-up builds is used by a run, and later cycles repeat
    # earlier ones, so the repeat check runs on kernels too
    used = {op.address for k in range(WORKLOADS["kernels"].min_cycles)
            for op in generate.kernel_cycle(3, k, surfaces)}
    assert used == set(surfaces.values())


@pytest.mark.parametrize("seed", [1, 2, 3, 11])
def test_answer_table_covers_every_generated_operation(seed):
    surfaces, kernel_cycles, certify_cycles, pools, _ = _inputs(seed)
    for ops in kernel_cycles:
        for op in ops:
            assert op.generator == answers.KERNEL_GENERATOR[op.field]
            assert op.dimension == answers.kernel_dimension(op.bound)
            assert op.address in surfaces.values()
    for ops in certify_cycles:
        for op in ops:
            assert (op.status, op.verdict) == answers.SEMICOMPAT[op.address]
    for spec in (spec for pool in pools for spec in pool):
        if spec.text is None:
            assert spec.name.startswith("product:") and spec.checks is None
            assert spec.exit_code == 0
            continue
        assert spec.checks
        assert {status for _, status in spec.checks} <= STATUSES
        assert spec.exit_code == answers.exit_code([s for _, s in spec.checks])
        # every check of the document has exactly one expected verdict
        assert spec.text.count("\ncheck ") == len(spec.checks)


def test_generated_surfaces_are_valid():
    from volform import dsl, scenarios

    names = ("x", "y", "z")
    for address in generate.kernel_surfaces(5).values():
        p_text, q_text = address[len("surface:p="):].split(",q=")
        for text, var in ((p_text, "x"), (q_text, "y")):
            poly = dsl.parse_polynomial(text, names)
            assert poly.support() == {var}
            assert poly.min_degree_in(var) >= 1 and 1 <= poly.degree_in(var) <= 3
            assert all(c.denominator == 1 and c != 0 for _, c in poly.terms)
        assert scenarios.scenario_by_name(address).chart is not None


def test_self_time_on_synthetic_span_tree():
    spans = [
        ("op", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 9.0, 0),   # the same name twice: self times add up
        ("c", 6.0, 7.0, 3),
        ("c", 6.5, 8.0, 3),   # overlaps its sibling: covered time counts once
        ("d", 9.5, 11.0, 0),  # runs past its parent: only the inside counts
    ]
    got = tracing.self_times(spans)
    assert got["op"] == pytest.approx(10 - 3 - 4 - 0.5)
    assert got["a"] == pytest.approx((3 - 1) + (4 - 2))
    assert got["b"] == pytest.approx(1)
    assert got["c"] == pytest.approx(1 + 1.5)
    assert got["d"] == pytest.approx(1.5)


def test_percentiles():
    assert percentile([3, 1, 2], 0.5) == 2
    assert percentile(range(11), 0.9) == pytest.approx(9)
    # kernels, certify, docs: mid-class, with at least 10 samples beyond
    assert tail_percentile(9, 7) == pytest.approx(7.5 / 9)
    assert tail_percentile(11, 7) == pytest.approx(9.5 / 11)
    assert tail_percentile(23, 10) == pytest.approx(21.5 / 23)
    for classes, cycles in ((9, 7), (11, 7), (23, 10), (5, 100)):
        assert (1 - tail_percentile(classes, cycles)) * classes * cycles >= 10


def _kernel_op():
    import volform
    from volform import checks, model

    m = volform.scenario_by_name("surface:p=x,q=y")
    directive = model.CheckDirective("kernel_spans", ("dz", 2, "pz", 3))
    return lambda: checks.run_check(m, directive, checks.RunFlags())


def test_tracer_wraps_every_alias_and_restores_originals():
    import volform
    from volform import algebra, avdp, checks

    before = tracing.snapshot()
    original = avdp.kernel_basis
    mul = algebra.LaurentPoly.__dict__["__mul__"]
    op = _kernel_op()
    tracer = tracing.Tracer()
    with tracer:
        for alias in (checks.kernel_basis, avdp.kernel_basis, volform.kernel_basis):
            assert alias is not original and alias.__wrapped__ is original
        assert algebra.LaurentPoly.__dict__["__rmul__"] is algebra.LaurentPoly.__dict__["__mul__"]
        assert algebra.LaurentPoly.__dict__["__mul__"] is not mul
        record = tracer.run_op(op)
        tracer.fold()
    assert record.status == answers.PASS
    totals = tracer.totals
    assert totals.ops == 1
    assert totals.calls["checks.run_check"] == 1
    assert totals.calls["avdp.kernel_basis"] == 1
    assert totals.calls["algebra.mul"] > 0 and totals.calls["linalg.insert"] > 0
    assert sum(totals.self_s.values()) == pytest.approx(totals.op_seconds)
    # the untraced run that follows sees the original functions again
    assert tracing.snapshot() == before
    assert avdp.kernel_basis is original and checks.kernel_basis is original
    assert algebra.LaurentPoly.__dict__["__mul__"] is mul
    assert not hasattr(checks.run_check, "__wrapped__")
    assert op().status == answers.PASS


def test_timer_reports_reference_units():
    timer = Timer()
    result, wall, cost = timer.time(lambda: 42)
    assert result == 42 and wall >= 0 and cost >= 0
    assert len(timer.ref_s) == 2 and all(r > 0 for r in timer.ref_s)


@pytest.mark.parametrize("name", ["kernels", "certify"])
def test_first_cycle_ops_match_answer_table(name):
    workload = WORKLOADS[name](4, ROOT)
    workload.setup()
    # the three lowest-bound operations of a cycle keep the test short; the
    # benchmark run itself checks every operation
    ops = sorted(workload.cycle(0), key=lambda op: op.bound)[:3]
    for op in ops:
        assert workload.verify(op, workload.prepare(op)()) is None


def test_docs_match_answer_table_and_reports_repeat_byte_identical(monkeypatch):
    monkeypatch.chdir(ROOT)  # documents are addressed relative to the checkout
    first, second = Docs(6, ROOT), Docs(6, ROOT)
    first.setup()
    outputs = []
    for spec in first.pools[0]:
        observed = first.prepare(spec)()
        assert first.verify(spec, observed) is None, spec.name
        outputs.append(observed)
    # a repeat of the same operation with the same output passes
    spec = first.pools[0][0]
    assert first.verify(spec, outputs[0]) is None
    assert first.verify(spec, (outputs[0][0], outputs[0][1] + " ")) is not None
    assert first.deferred_failures() == []
    # a report with a field the schema does not allow fails after the loop
    code, text = outputs[1]
    report = dict(json.loads(text), extra=1)
    assert first.verify(first.pools[0][1], (code, json.dumps(report))) is not None  # repeat
    third = Docs(6, ROOT)
    third.setup()
    assert third.verify(third.pools[0][1], (code, json.dumps(report))) is None
    assert [ops for _, ops in third.deferred_failures()] == [1]
    # a second workload with the same seed writes the same documents, and
    # every report comes out byte-identical
    second.setup()
    for spec, earlier in zip(second.pools[0], outputs):
        assert second.prepare(spec)() == earlier


REPORT_DIGEST = """
import hashlib, sys
from pathlib import Path
sys.path[:0] = [{src!r}, {bench!r}]
from vfbench.workloads import Docs
docs = Docs(6, Path({root!r}))
docs.setup()
digest = hashlib.sha256()
for spec in docs.pools[0]:
    code, text = docs.prepare(spec)()
    digest.update(str(code).encode() + text.encode())
print(digest.hexdigest())
"""


def test_reports_byte_identical_across_processes():
    code = REPORT_DIGEST.format(src=str(ROOT / "src"), bench=str(BENCH), root=str(ROOT))
    digests = []
    for hash_seed in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=300, env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1]


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "docs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
