"""The three workloads: set-up, one operation, and its verdict check.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  ``setup`` imports volform and builds
every model the workload holds; ``prepare`` turns a generated operation into
a zero-argument call (the only part that is timed); ``verify`` compares the
call's result with the answer table and returns a failure reason or None;
checks that need libraries of their own wait for ``deferred_failures``,
after the timed loop, so that those libraries stay out of its peak memory.

Calls go through module attributes (``volform.checks.run_check``,
``volform.cli.main``) at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from collections import Counter
from pathlib import Path

from . import answers, generate


class Workload:
    name = ""
    classes: tuple = ()
    # whole cycles a run makes at least; sets the tail percentile
    min_cycles = 1

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self._seen: dict[object, int] = {}

    def reproducible(self, key, observed: str) -> str | None:
        """Same operation, same output: the first output is the reference.
        Only a 64-bit digest of it is kept (``hash``: no hashing library in
        the measured process's memory, and stable within the process)."""
        digest = hash(observed)
        first = self._seen.setdefault(key, digest)
        return None if first == digest else "output differs from an earlier run of the same input"

    def deferred_failures(self) -> list[tuple[str, int]]:
        """Checks run after the timed loop: (reason, operations it fails)."""
        return []


class Kernels(Workload):
    """run_check of kernel_spans(f, d, g, d+1) on seeded surfaces."""

    name = "kernels"
    classes = generate.KERNEL_CLASSES
    min_cycles = 7

    def setup(self) -> None:
        from volform import checks, model, scenarios

        self.checks, self.directive = checks, model.CheckDirective
        self.flags = checks.RunFlags()
        self.surfaces = generate.kernel_surfaces(self.seed)
        self.models = {a: scenarios.scenario_by_name(a) for a in self.surfaces.values()}

    def cycle(self, k: int):
        return generate.kernel_cycle(self.seed, k, self.surfaces)

    def prepare(self, op: generate.KernelOp):
        model = self.models[op.address]
        directive = self.directive("kernel_spans", op.args)
        return lambda: self.checks.run_check(model, directive, self.flags)

    def verify(self, op: generate.KernelOp, record) -> str | None:
        if record.status != answers.KERNEL_STATUS:
            return f"status {record.status}: {record.detail}"
        if f"(dim {op.dimension})" not in record.detail:
            return f"unexpected detail: {record.detail}"
        return self.reproducible(op, f"{record.status}: {record.detail}")


class Certify(Workload):
    """run_check of semicompat(a, b, d) on sl2 and xm1:1..3."""

    name = "certify"
    classes = generate.CERTIFY_CLASSES
    min_cycles = 7

    def setup(self) -> None:
        from volform import checks, model, scenarios

        self.checks, self.directive = checks, model.CheckDirective
        self.flags = checks.RunFlags()
        self.models = {a: scenarios.scenario_by_name(a) for a in generate.CERTIFY_SCENARIOS}

    def cycle(self, k: int):
        return generate.certify_cycle(self.seed, k)

    def prepare(self, op: generate.CertifyOp):
        model = self.models[op.address]
        directive = self.directive("semicompat", op.args)
        return lambda: self.checks.run_check(model, directive, self.flags)

    def verify(self, op: generate.CertifyOp, record) -> str | None:
        if record.status != op.status:
            return f"status {record.status}, expected {op.status}: {record.detail}"
        if not record.detail.startswith(f"status {op.verdict} at bound {op.bound}"):
            return f"verdict differs from {op.verdict}: {record.detail}"
        return self.reproducible(op, f"{record.status}: {record.detail}")


class Docs(Workload):
    """In-process `volform check <doc> --format json --seed s`."""

    name = "docs"
    min_cycles = 10

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.pools = [generate.doc_pool(seed, v) for v in range(generate.DOC_VARIANTS)]
        self.classes = tuple(self.pools[0])
        self.doc_dir = Path("bench", "out", "docs", f"seed{seed}")
        # one file per distinct report, validated against the schema at the
        # end; the counter holds how many operations gave each report
        self.report_dir = Path("bench", "out", "reports", f"seed{seed}")
        self._reports: Counter[int] = Counter()

    def target(self, spec: generate.DocSpec) -> str:
        if spec.text is None:
            return spec.name
        return (self.doc_dir / f"{spec.name}.vf").as_posix()

    def setup(self) -> None:
        import volform.cli

        self.cli = volform.cli
        (self.root / self.doc_dir).mkdir(parents=True, exist_ok=True)
        for pool in self.pools:
            for spec in pool:
                if spec.text is not None:
                    (self.root / self.target(spec)).write_text(spec.text, encoding="utf-8")

    def cycle(self, k: int):
        return generate.docs_cycle(self.seed, k, self.pools[k % len(self.pools)])

    def prepare(self, spec: generate.DocSpec):
        argv = ["check", self.target(spec), "--format", "json", "--seed", str(spec.cli_seed)]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            return code, out.getvalue()

        return call

    def verify(self, spec: generate.DocSpec, observed) -> str | None:
        code, text = observed
        if code != spec.exit_code:
            return f"exit code {code}, expected {spec.exit_code}"
        try:
            report = json.loads(text)
            source, checks, summary = report["source"], report["checks"], report["summary"]
            got = [(c["name"], c["status"]) for c in checks]
        except (ValueError, KeyError, TypeError) as exc:
            return f"report is not a JSON check report: {exc!r}"
        if spec.text is not None and source != self.target(spec):
            return f"report source {source!r}"
        if spec.checks is not None:
            if got != list(spec.checks):
                return f"checks differ from the answer table: {got}"
        elif not got or any(status != answers.SCENARIO_CHECK for _, status in got):
            return f"scenario checks not all {answers.SCENARIO_CHECK}: {got}"
        counts = {k: 0 for k in ("pass", "fail", "error", "unknown")}
        for _, status in got:
            counts[status.lower()] += 1
        if summary != counts:
            return f"summary {summary} does not count the checks"
        digest = hash(text)
        if digest not in self._reports:
            self._save_report(digest, text)
        self._reports[digest] += 1
        return self.reproducible((spec.name, spec.cli_seed), text)

    def _report_path(self, digest: int) -> Path:
        return self.root / self.report_dir / f"{digest & (2**64 - 1):016x}.json"

    def _save_report(self, digest: int, text: str) -> None:
        if not self._reports:  # the first report of this run: drop older runs'
            shutil.rmtree(self.root / self.report_dir, ignore_errors=True)
            (self.root / self.report_dir).mkdir(parents=True)
        self._report_path(digest).write_text(text, encoding="utf-8")

    def deferred_failures(self) -> list[tuple[str, int]]:
        """Every distinct report validated against src/volform/report.schema.json."""
        import jsonschema

        schema_path = self.root / "src" / "volform" / "report.schema.json"
        validator = jsonschema.Draft7Validator(
            json.loads(schema_path.read_text(encoding="utf-8")))
        failures = []
        for digest, ops in self._reports.items():
            report = json.loads(self._report_path(digest).read_text(encoding="utf-8"))
            errors = sorted(validator.iter_errors(report), key=str)
            if errors:
                failures.append((f"report violates the schema: {errors[0].message}", ops))
        return failures


WORKLOADS = {w.name: w for w in (Kernels, Certify, Docs)}
