#!/usr/bin/env python3
"""Layered time-to-verdict benchmark for volform.

Run from the root of a checkout (volform is imported from ./src):

    python3 bench/run.py --workload kernels --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  kernels  run_check of kernel_spans on seeded p(x)+q(y)+xyz=1 surfaces
  certify  run_check of semicompat on sl2 and xm1:1..3 at bounds 2..4
  docs     in-process `volform check <doc> --format json` on generated docs

Every verdict is checked against a hand-written answer table
(bench/vfbench/answers.py).  With --trace 0 the run measures end-to-end
metrics with tracing off; with --trace 1 it runs whole cycles untraced, then
the same operations again with every volform module wrapped, and reports
per-layer metrics.  Human-readable details go to bench/out/; the last line
of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from vfbench.measure import (REF_NOMINAL_S, Timer, percentile, reference_loop,
                             reference_seconds, tail_percentile)
from vfbench.tracing import LAYERS, OP, Tracer, layer_of, snapshot
from vfbench.workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 9
# reference loops on each side of one set-up
SETUP_REF_LOOPS = 3
# the untraced share of a --trace 1 run; the traced replay takes the rest
TRACE_UNTRACED_SHARE = 1 / 3
FIRST_OP_SPAN_LIMIT = 20000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("kernels", "certify", "docs"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # one timed set-up, for setup_s
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ------------------------------------------------------------------ set-up


def setup_probe(workload) -> dict:
    """Import volform and build the workload's models.  Returns the wall
    seconds taken and the same time scaled to the reference host, from the
    reference loops run just before and just after."""
    if any(key == "volform" or key.startswith("volform.") for key in sys.modules):
        raise RuntimeError("volform already imported; the probe must start cold")
    before = [reference_loop() for _ in range(SETUP_REF_LOOPS)]
    started = time.perf_counter()
    workload.setup()
    wall = time.perf_counter() - started
    after = [reference_loop() for _ in range(SETUP_REF_LOOPS)]
    return {"wall_s": wall, "setup_s": reference_seconds(wall, before, after)}


def measure_setup(args) -> list[dict]:
    """Set-up time of fresh processes, one per probe."""
    samples = []
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


# ------------------------------------------------------------------ loops


def run_cycles(workload, timer, *, seconds=None, min_cycles=1, cycles=None, tracer=None):
    """Run whole cycles: a fixed count, or until `seconds` have passed and at
    least `min_cycles` are done.  Returns one record per operation."""
    records = []
    started = time.perf_counter()
    k = 0
    while True:
        if cycles is not None:
            if k >= cycles:
                break
        elif k >= min_cycles and time.perf_counter() - started >= seconds:
            break
        for op in workload.cycle(k):
            call = workload.prepare(op)

            def guarded():
                try:
                    return call()
                except Exception as exc:  # an operation that raises is a failure
                    return exc

            timed = guarded if tracer is None else (lambda: tracer.run_op(guarded))
            observed, wall, cost = timer.time(timed)
            if tracer is not None:
                tracer.fold()
            if isinstance(observed, Exception):
                reason = f"raised {type(observed).__name__}: {observed}"
            else:
                reason = workload.verify(op, observed)
            records.append({"cycle": k, "class": op.klass, "wall_s": wall,
                            "ref": cost, "failure": reason})
        k += 1
    return records, k


# ----------------------------------------------------------------- metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(records, setup_samples, tail_q, rss_mb) -> dict:
    """The gated metrics: set-up, per-operation cost in reference units, and
    the peak memory of the timed loop."""
    costs = [r["ref"] for r in records]
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setup_samples), "s"),
        "verdict_p50_ref": (statistics.median(costs), "ref"),
        "verdict_tail_ref": (percentile(costs, tail_q), "ref"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def wall_clock(records) -> dict:
    """What a user sees, reported beside the gated metrics but not gated:
    the host's speed drifts by more than any useful bound between runs."""
    walls = [r["wall_s"] for r in records]
    return {
        "verdict_p50_ms": {"value": statistics.median(walls) * 1000, "unit": "ms"},
        "checks_per_s": {"value": len(walls) / sum(walls), "unit": "1/s"},
        "failed_ratio": {"value": sum(1 for r in records if r["failure"]) / len(records),
                         "unit": "ratio"},
    }


SPAN_METRICS = (
    # (span name, include a .calls metric)
    ("algebra.mul", True), ("algebra.add", True), ("algebra.from_dict", True),
    ("algebra.substitute", True), ("algebra.evaluate", True),
    ("variety.normal_form", True), ("variety.chart", False),
    ("variety.sample_point", True),
    ("linalg.insert", True), ("linalg.contains", True), ("linalg.dense", False),
    ("avdp.kernel_basis", True), ("avdp.semicompat", False),
    ("avdp.wedge_span", False), ("avdp.identities", False),
    ("calculus.apply", True), ("calculus.is_tangent", False),
    ("calculus.forms", False), ("calculus.bracket", False),
    ("calculus.divergence", False), ("calculus.lnd_flow", False),
    ("calculus.invariance", False),
    ("dsl.parse", True), ("scenarios.build", False),
    ("groups.submodular", False), ("groups.presentation", False),
    ("checks.run_check", True), ("cli.main", False),
)


def per_layer(totals, overhead_ratio: float, ref_ms: float) -> dict:
    ops = totals.ops
    calls, self_s, counters = totals.calls, totals.self_s, totals.counters

    def per_op(value):
        return value / ops

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name, with_calls in SPAN_METRICS:
        if with_calls:
            m[f"{name}.calls"] = (per_op(calls.get(name, 0)), "count/op")
        m[f"{name}.self_ms"] = (per_op(self_s.get(name, 0.0)) * 1000, "ms/op")
    m["algebra.mul.terms_out"] = (
        ratio(counters.get("algebra.mul.terms_out", 0), calls.get("algebra.mul", 0)), "terms/call")
    m["variety.normal_form.terms_out"] = (
        ratio(counters.get("variety.normal_form.terms_out", 0),
              calls.get("variety.normal_form", 0)), "terms/call")
    m["linalg.insert.new_ratio"] = (
        ratio(counters.get("linalg.insert.new", 0), calls.get("linalg.insert", 0)), "ratio")
    m["linalg.contains.hit_ratio"] = (
        ratio(counters.get("linalg.contains.hits", 0), calls.get("linalg.contains", 0)), "ratio")
    m["linalg.contains.aug_entries"] = (
        per_op(counters.get("linalg.contains.aug_entries", 0)), "entries/op")
    m["linalg.peak_rank"] = (counters.get("linalg.peak_rank", 0), "count")
    m["avdp.monomials.count"] = (per_op(counters.get("avdp.monomials.count", 0)), "count/op")
    m["dsl.parse.kb_per_s"] = (
        ratio(counters.get("dsl.parse.bytes", 0) / 1024, self_s.get("dsl.parse", 0.0)), "KiB/s")
    shares = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_s.items():
        if name != OP:
            shares[layer_of(name)] += seconds
    for layer, seconds in shares.items():
        m[f"share.{layer}"] = (ratio(seconds, totals.op_seconds), "ratio")
    m["share.bench"] = (ratio(self_s.get(OP, 0.0), totals.op_seconds), "ratio")
    m["ref.ms"] = (ref_ms, "ms")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "volform" / "__init__.py").is_file():
        print(f"error: no volform sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    if args.setup_probe:
        print(json.dumps(setup_probe(workload)))
        return 0

    setup_samples = measure_setup(args)
    bench_rss_mb = peak_rss_mb()
    workload.setup()
    import volform

    if not Path(volform.__file__).resolve().is_relative_to(SRC):
        print(f"error: volform imported from {volform.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tail_q = tail_percentile(len(workload.classes), workload.min_cycles)
    timer = Timer()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "python": platform.python_version(), "cores": os.cpu_count(),
              "machine": platform.machine()}
    restored = True
    if args.trace == 0:
        records, cycles = run_cycles(workload, timer, seconds=args.seconds,
                                     min_cycles=workload.min_cycles)
        # read before the deferred checks below import their own libraries
        metrics = end_to_end(records, setup_samples, tail_q, peak_rss_mb())
        detail.update(wall_clock(records), tail_percentile=tail_q,
                      setup_samples=setup_samples, ref_nominal_ms=REF_NOMINAL_S * 1000,
                      bench_rss_mb=bench_rss_mb)
    else:
        plain, cycles = run_cycles(workload, timer,
                                   seconds=args.seconds * TRACE_UNTRACED_SHARE)
        tracer = Tracer()
        originals = snapshot()
        with tracer:
            traced, _ = run_cycles(workload, timer, cycles=cycles, tracer=tracer)
        restored = originals == snapshot()
        records = plain + traced
        overhead = sum(r["ref"] for r in traced) / sum(r["ref"] for r in plain)
        metrics = per_layer(tracer.totals, overhead, statistics.median(timer.ref_s) * 1000)
        spans = tracer.first_op_spans or []
        detail.update(first_op_spans=spans[:FIRST_OP_SPAN_LIMIT],
                      first_op_spans_total=len(spans))

    failures = [r["failure"] for r in records if r["failure"]]
    for reason, ops in workload.deferred_failures():
        failures += [reason] * ops
    ref_ms = [x * 1000 for x in timer.ref_s]
    detail.update(samples=len(records), cycles=cycles,
                  ref_ms={"median": statistics.median(ref_ms), "min": min(ref_ms),
                          "max": max(ref_ms)},
                  failures=failures[:20])
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(dict(detail, records=records,
                                        metrics={k: v for k, (v, _) in metrics.items()}),
                                   indent=1), encoding="utf-8")
    summary = {k: v for k, v in detail.items() if k not in ("first_op_spans",)}
    print(json.dumps(summary))
    for failure in failures[:5]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and restored,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
