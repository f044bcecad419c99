"""Command line interface: run check suites on documents or built-in scenarios.

Exit codes: 0 when every check passes (UNKNOWN counts as a pass with a
warning), 1 when any check fails or errors, 2 for usage and parse problems.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

from .checks import FLAG_MINIMUMS, CheckRecord, RunFlags, execute
from .dsl import parse
from .errors import ParseError, SemanticError, VolformError
from .model import Model
from .scenarios import SCENARIO_SUMMARY, scenario_by_name

SCHEMA_PATH = Path(__file__).with_name("report.schema.json")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing arguments
    leaves it unchanged, so every call of :func:`main` shares it."""
    parser = argparse.ArgumentParser(
        prog="volform",
        description="Exact checks for divergence-free vector field calculus "
                    "on explicitly presented affine varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the check suite of a document or scenario")
    check.add_argument("target", help="path to a document, or a scenario address")
    defaults = RunFlags()
    check.add_argument("--seed", type=int, default=defaults.seed,
                       help=f"sampling seed (default {defaults.seed})")
    check.add_argument("--degree-bound", type=int, default=defaults.degree_bound,
                       help="default degree bound for kernel/semicompat checks")
    check.add_argument("--lnd-bound", type=int, default=defaults.lnd_bound,
                       help="default bound for local nilpotency verification")
    check.add_argument("--points", type=int, default=defaults.points,
                       help="sample-point count for pointwise span checks")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument("--timings", action="store_true",
                       help="show per-check wall time (text format only)")

    parse_cmd = sub.add_parser("parse", help="syntax-check a document")
    parse_cmd.add_argument("target", metavar="file", help="path to a document")

    sub.add_parser("scenarios", help="list built-in scenario addresses")
    return parser


def _load(args: argparse.Namespace) -> Model:
    """The document at path ``args.target``; for ``check``, the scenario with
    that address when no such file exists.  ``os.path.exists`` reads a name
    the file system rejects (one over 255 bytes, say) as no file."""
    if args.command == "check" and not os.path.exists(args.target):
        return scenario_by_name(args.target)
    path = Path(args.target)
    return parse(path.read_text(encoding="utf-8"), source=str(path))


def _emit_text(model: Model, records: list[CheckRecord], timings: bool) -> None:
    width = max((len(r.name) for r in records), default=0)
    for record in records:
        clock = f"  [{record.wall_ms:8.1f} ms]" if timings else ""
        print(f"{record.status:7s} {record.name:<{width}}{clock}  {record.detail}")
    counts = _summary(records)
    print(
        f"checks: {len(records)}  pass: {counts['pass']}  fail: {counts['fail']}  "
        f"error: {counts['error']}  unknown: {counts['unknown']}"
    )


def _summary(records: list[CheckRecord]) -> dict[str, int]:
    counts = {"pass": 0, "fail": 0, "error": 0, "unknown": 0}
    for record in records:
        counts[record.status.lower()] += 1
    return counts


def _emit_json(model: Model, records: list[CheckRecord], flags: RunFlags) -> None:
    # no wall-clock entries: reports must be byte-identical for a fixed seed
    payload = {
        "source": model.name,
        **dataclasses.asdict(flags),
        "checks": [
            {"name": r.name, "status": r.status, "detail": r.detail} for r in records
        ],
        "summary": _summary(records),
    }
    print(json.dumps(payload, indent=2))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for name, minimum in FLAG_MINIMUMS if args.command == "check" else ():
            if getattr(args, name) < minimum:
                parser.error(f"argument --{name.replace('_', '-')}: must be at least {minimum}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command == "scenarios":
        for address, summary in SCENARIO_SUMMARY:
            print(f"{address:26s} {summary}")
        return 0

    try:
        model = _load(args)
    except (ParseError, SemanticError) as exc:
        print(f"{args.target}:{exc}", file=sys.stderr)
        return 2
    except VolformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.target}: {exc}", file=sys.stderr)
        return 2

    if args.command == "parse":
        counted = sum(
            (model.chart is not None, model.volume is not None)
        ) + len(model.fields) + len(model.forms) + len(model.polys) + len(
            model.actions
        ) + len(model.groups) + len(model.checks)
        print(f"OK: {counted} definitions and checks")
        return 0

    flags = RunFlags(**{f.name: getattr(args, f.name) for f in dataclasses.fields(RunFlags)})
    records = execute(model, flags)
    if args.format == "json":
        _emit_json(model, records, flags)
    else:
        _emit_text(model, records, args.timings)
    counts = _summary(records)
    if counts["unknown"]:
        print(
            f"warning: {counts['unknown']} check(s) returned UNKNOWN "
            f"(one-sided tests; not failures)",
            file=sys.stderr,
        )
    return 1 if counts["fail"] or counts["error"] else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
