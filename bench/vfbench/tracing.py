"""Per-module tracing of volform from the outside.

For the traced run, :class:`Tracer` replaces the public functions and methods
listed in :data:`TARGETS` with wrappers that record a span (name, start, end,
parent) per call, on every name through which callers reach them: the
defining module, every volform module that imported the name, and every
class attribute that holds it.  :meth:`Tracer.uninstall` puts the originals
back.  Spans are kept in memory per operation (one operation is one
request), folded into per-name totals when the operation ends, and the
spans of the first operation are kept whole for the trace file.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

# (span name, module, attribute).  A dotted attribute names a class member.
TARGETS = (
    ("algebra.mul", "volform.algebra", "LaurentPoly.__mul__"),
    ("algebra.add", "volform.algebra", "LaurentPoly.__add__"),
    ("algebra.from_dict", "volform.algebra", "LaurentPoly.from_dict"),
    ("algebra.substitute", "volform.algebra", "LaurentPoly.substitute"),
    ("algebra.evaluate", "volform.algebra", "LaurentPoly.evaluate"),
    ("variety.normal_form", "volform.variety", "Chart.normal_form"),
    ("variety.chart", "volform.variety", "chart"),
    ("variety.sample_point", "volform.variety", "sample_point"),
    ("linalg.insert", "volform.linalg", "SpanBuilder.insert"),
    ("linalg.contains", "volform.linalg", "SpanBuilder.contains"),
    ("linalg.dense", "volform.linalg", "det_bareiss"),
    ("linalg.dense", "volform.linalg", "solve_exact"),
    ("linalg.dense", "volform.linalg", "mat_inverse"),
    ("linalg.dense", "volform.linalg", "mat_mul"),
    ("avdp.kernel_basis", "volform.avdp", "kernel_basis"),
    ("avdp.semicompat", "volform.avdp", "semicompat_bounded"),
    ("avdp.wedge_span", "volform.avdp", "spans_wedge_square"),
    ("avdp.monomials", "volform.avdp", "monomials_up_to"),
    ("avdp.identities", "volform.avdp", "verify_bracket_identity"),
    ("avdp.identities", "volform.avdp", "bracket_potential"),
    ("avdp.identities", "volform.avdp", "verify_potential"),
    ("avdp.identities", "volform.avdp", "verify_flow_jacobian"),
    ("calculus.apply", "volform.calculus", "VectorField.apply"),
    ("calculus.is_tangent", "volform.calculus", "is_tangent"),
    ("calculus.forms", "volform.calculus", "exterior_derivative"),
    ("calculus.forms", "volform.calculus", "wedge"),
    ("calculus.forms", "volform.calculus", "interior_product"),
    ("calculus.forms", "volform.calculus", "contract_volume"),
    ("calculus.bracket", "volform.calculus", "lie_bracket"),
    ("calculus.divergence", "volform.calculus", "divergence"),
    ("calculus.lnd_flow", "volform.calculus", "lnd_flow"),
    ("calculus.invariance", "volform.calculus", "is_invariant"),
    ("dsl.parse", "volform.dsl", "parse"),
    ("scenarios.build", "volform.scenarios", "scenario_by_name"),
    ("scenarios.build", "volform.scenarios", "torus"),
    ("scenarios.build", "volform.scenarios", "sl2"),
    ("scenarios.build", "volform.scenarios", "surface"),
    ("scenarios.build", "volform.scenarios", "xm1"),
    ("scenarios.build", "volform.scenarios", "product"),
    ("groups.submodular", "volform.groups", "submodular"),
    ("groups.presentation", "volform.groups", "group_presentation"),
    ("checks.run_check", "volform.checks", "run_check"),
    ("cli.main", "volform.cli", "main"),
)

# Span name of the benchmark's own span around each operation.
OP = "op"

# Layers are the module names; a span belongs to the layer before its dot.
LAYERS = ("algebra", "variety", "linalg", "avdp", "calculus", "dsl",
          "scenarios", "groups", "checks", "cli")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def volform_modules() -> list:
    """Every loaded volform module, after importing those TARGETS name."""
    for _, module_name, _ in TARGETS:
        importlib.import_module(module_name)
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "volform" or key.startswith("volform."))]


def snapshot() -> dict:
    """Identity of every attribute of volform's modules and of the classes
    they define; equal snapshots mean nothing was left wrapped."""
    out = {}
    for module in volform_modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("volform"):
                for member, raw in vars(value).items():
                    out[(module.__name__, name, member)] = id(raw)
    return out


def self_times(spans) -> dict[str, float]:
    """Per-name self time: each span's duration minus the part of its
    interval that its child spans cover.

    ``spans`` is a sequence of (name, start, end, parent), where parent is the
    index of the parent span in the sequence or -1.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for a, b in sorted(children.get(index, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


@dataclass
class Totals:
    """Per-name sums over every traced operation."""

    ops: int = 0
    op_seconds: float = 0.0
    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    def add_counter(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak_counter(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)


def _terms_out(totals, key, args, result):
    terms = getattr(result, "terms", None)
    if terms is not None:
        totals.add_counter(key + ".terms_out", len(terms))


def _insert(totals, key, args, result):
    totals.add_counter(key + ".new", 1 if result[0] else 0)
    totals.peak_counter("linalg.peak_rank", len(args[0]))


def _contains(totals, key, args, result):
    totals.add_counter(key + ".hits", 1 if result else 0)
    # the augmentation contains() allocates and discards: one entry per
    # vector inserted so far, plus one
    totals.add_counter(key + ".aug_entries", getattr(args[0], "_n_inserted", 0) + 1)


def _monomials(totals, key, args, result):
    totals.add_counter(key + ".count", len(result))


def _parse(totals, key, args, result):
    totals.add_counter(key + ".bytes", len(args[0].encode("utf-8")))


# per-span counters, read from the call's arguments and result
HOOKS = {
    "algebra.mul": _terms_out,
    "variety.normal_form": _terms_out,
    "linalg.insert": _insert,
    "linalg.contains": _contains,
    "avdp.monomials": _monomials,
    "dsl.parse": _parse,
}


class Tracer:
    def __init__(self) -> None:
        self.totals = Totals()
        self.first_op_spans: list[tuple[str, float, float, int]] | None = None
        self._spans: list = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        spans, stack = self._spans, self._stack
        clock = time.perf_counter
        hook = HOOKS.get(name)
        totals = self.totals

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(totals, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = volform_modules()
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[member]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                # every alias on the class, e.g. __rmul__ = __mul__
                for key, value in list(cls.__dict__.items()):
                    if value is raw:
                        self._replace(cls, key, raw, wrapped)
            else:
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, key, original, wrapped)

    def _replace(self, owner, key: str, original, wrapped) -> None:
        self._saved.append((owner, key, original))
        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()  # leave nothing half wrapped
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ---------------------------------------------------------- operations

    def run_op(self, fn):
        """Run one operation under a root span; :meth:`fold` must follow."""
        spans, stack = self._spans, self._stack
        spans.clear()
        spans.append(None)
        stack.append(0)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[0] = (OP, start, end, -1)

    def fold(self) -> None:
        """Add the last operation's spans to the totals (kept out of the
        operation's timed region)."""
        spans, t = self._spans, self.totals
        t.ops += 1
        t.op_seconds += spans[0][2] - spans[0][1]
        for name, _, _, _ in spans:
            t.calls[name] = t.calls.get(name, 0) + 1
        for name, seconds in self_times(spans).items():
            t.self_s[name] = t.self_s.get(name, 0.0) + seconds
        if self.first_op_spans is None:
            self.first_op_spans = list(spans)
        spans.clear()
