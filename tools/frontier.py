"""Time the exact searches at the edge of what the package decides: the
semicompat pairs of SL3 (tests/data/sl3.vf) at bounds 3 and 4, the cubic and
sextic surfaces and sl2 at larger bounds, and one large surface kernel.

Each case prints one JSON line: its verdict and witness (a kernel prints its
size) and the best of three process times, in seconds.  A case whose
monomial table exceeds the package's budget prints the refusal instead; the
script runs the package as it is and never raises the budget.

Usage: python tools/frontier.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from volform import kernel_basis, parse, scenario_by_name, semicompat_bounded  # noqa: E402
from volform.errors import ResourceLimitError  # noqa: E402

SL3 = ROOT / "tests" / "data" / "sl3.vf"
SL3_PAIRS = (("r12", "r23"), ("r23", "c32"), ("r12", "c21"), ("r13", "c31"))
# (target, search, first field, second field or None, bound)
CASES = (
    *(("sl3", "semicompat", a, b, bound) for bound in (3, 4) for a, b in SL3_PAIRS),
    ("surface:p=x**3+x,q=y**3+2*y", "semicompat", "dz", "dx", 10),
    ("surface:p=x**6-2*x,q=y**2+y", "semicompat", "dz", "dx", 10),
    ("sl2", "semicompat", "xi", "eta", 6),
    ("surface:p=2*x+x**3,q=y**2+y", "kernel_basis", "dz", None, 10),
)
REPEATS = 3


def run(fields: dict, search: str, a: str, b: str | None, bound: int) -> dict:
    if search == "kernel_basis":
        return {"kernel": len(kernel_basis(fields[a], bound))}
    verdict = semicompat_bounded(fields[a], fields[b], bound)
    witness = None if verdict.witness is None else str(verdict.witness)
    return {"status": verdict.status, "witness": witness}


def main() -> int:
    for target, search, a, b, bound in CASES:
        model = parse(SL3.read_text(encoding="utf-8")) if target == "sl3" else (
            scenario_by_name(target))
        record = {"case": " ".join(str(x) for x in (target, search, a, b, bound) if x)}
        try:
            times = []
            for _ in range(REPEATS):
                start = time.process_time()
                result = run(model.fields, search, a, b, bound)
                times.append(time.process_time() - start)
            record.update(result, seconds=round(min(times), 4))
        except ResourceLimitError as exc:
            record["refused"] = str(exc)
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
