"""Reference-normalised timing.

The host's speed drifts by tens of percent within minutes, and CPU time
drifts with it, so raw wall times of two runs are hard to compare.  Every
operation is therefore bracketed by a fixed reference loop of plain
``fractions.Fraction`` arithmetic (no volform code, so no change to volform
can move it) and its cost is reported in *reference units*: operation wall
time divided by the mean of the reference loops just before and just after.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

# Loop length chosen so that one reference loop takes about 10 ms on a
# 2-core x86-64 host with CPython 3.11.
REF_ITERATIONS = 1100
# Wall seconds of one reference loop on the host that set-up times are
# scaled to (see ``reference_seconds``).
REF_NOMINAL_S = 0.010


def reference_loop() -> float:
    """Wall seconds of a fixed exact-rational workload."""
    started = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, REF_ITERATIONS + 1):
        acc += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 1)
        if acc > 1000:
            acc -= 1000
    return time.perf_counter() - started


def reference_seconds(wall: float, before: list[float], after: list[float]) -> float:
    """Scale `wall` to a host whose reference loop takes ``REF_NOMINAL_S``,
    using the median reference loops run just before and just after it."""
    return wall / ((statistics.median(before) + statistics.median(after)) / 2) * REF_NOMINAL_S


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1] (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(classes: int, cycles: int) -> float:
    """The tail percentile of a run of whole cycles of `classes` operations.

    It is the highest percentile with at least 10 samples beyond it after
    `cycles` cycles, among those that sit in the middle of a class's share of
    the sorted samples ((j - 1/2) / classes for class j): a percentile on
    the edge between two classes jumps between their costs from run to run.
    """
    for j in range(classes, 0, -1):
        q = (j - 0.5) / classes
        if (1 - q) * classes * cycles >= 10:
            return q
    return 0.5 / classes


class Timer:
    """Times operations between reference loops; the loop after one
    operation is the loop before the next."""

    def __init__(self) -> None:
        self._last_ref = reference_loop()
        self.ref_s = [self._last_ref]

    def time(self, fn):
        """Run fn(); return (result, wall seconds, cost in reference units)."""
        started = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - started
        before, after = self._last_ref, reference_loop()
        self._last_ref = after
        self.ref_s.append(after)
        return result, wall, wall / ((before + after) / 2)
