"""Layered time-to-verdict benchmark for volform.

``bench/run.py`` is the entry point; this package holds the seeded input
generators (:mod:`vfbench.generate`), the hand-written answer table
(:mod:`vfbench.answers`), the reference-normalised timing loop
(:mod:`vfbench.measure`) and the per-module tracer (:mod:`vfbench.tracing`).
"""
