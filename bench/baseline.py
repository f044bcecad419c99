#!/usr/bin/env python3
"""Record a baseline: every workload on two sets of seeds, plus one traced run.

    python3 bench/baseline.py        # writes bench/results/baseline.json

For each workload this runs ``bench/run.py --trace 0`` once per seed of two
sets of ten seeds and ``--trace 1`` on the first seed, then writes one JSON
file with a machine and Python header, for each set the median and quartile
spread of every end-to-end metric and the sample counts, how far the second
set's medians are from the first's against each metric's bound, and the
traced layer shares.  The spread of a metric is (Q3 - Q1) / median over the
seeds of a set, with the quartiles of ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "results" / "baseline.json"
SEED_SETS = (list(range(1, 11)), list(range(11, 21)))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def run_set(workload: str, seeds: list[int], seconds: int) -> dict:
    runs = [run(workload, seed, seconds, 0) for seed in seeds]
    if not all(final["correct"] for _, final in runs):
        raise RuntimeError(f"{workload}: a run reported correct=false")
    metrics = {}
    for name, first in runs[0][1]["metrics"].items():
        metrics[name] = summarise([final["metrics"][name]["value"] for _, final in runs])
        metrics[name]["unit"] = first["unit"]
    for name in ("verdict_p50_ms", "checks_per_s"):
        metrics[name] = summarise([detail[name]["value"] for detail, _ in runs])
        metrics[name]["unit"] = runs[0][0][name]["unit"]
    return {
        "seeds": seeds,
        "samples": [detail["samples"] for detail, _ in runs],
        "attempted": sum(final["attempted"] for _, final in runs),
        "failed": sum(final["failed"] for _, final in runs),
        "tail_percentile": runs[0][0]["tail_percentile"],
        "ref_ms_median": [detail["ref_ms"]["median"] for detail, _ in runs],
        "end_to_end": metrics,
    }


def agreement(first: dict, second: dict, gated: list[dict]) -> dict:
    """How much worse the second set's median is than the first's, as a
    share of the first; within its bound if no more than the bound."""
    out = {}
    for spec in gated:
        a = first["end_to_end"][spec["name"]]["median"]
        b = second["end_to_end"][spec["name"]]["median"]
        worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
        out[spec["name"]] = {"worse_by": worse, "bound": spec["bound"],
                             "within": worse <= spec["bound"]}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    result = {
        "header": {
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "cores": os.cpu_count(),
            "run_seconds": seconds,
            "seed_sets": SEED_SETS,
        },
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [run_set(workload, seeds, seconds) for seeds in SEED_SETS]
        traced_detail, traced = run(workload, SEED_SETS[0][0], seconds, 1)
        result["workloads"][workload] = {
            "sets": sets,
            "agreement": agreement(sets[0], sets[1], spec["end_to_end"]),
            "traced": {
                "seed": SEED_SETS[0][0],
                "samples": traced_detail["samples"],
                "correct": traced["correct"],
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
        for i, found in enumerate(sets, start=1):
            print(f"{workload} set {i}: " + ", ".join(
                f"{k} {v['median']:.4g} (spread {v['spread']:.3f})"
                for k, v in found["end_to_end"].items()), flush=True)
        print(f"{workload} agreement: " + ", ".join(
            f"{k} {v['worse_by']:+.3f}/{v['bound']}"
            for k, v in result["workloads"][workload]["agreement"].items()), flush=True)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
