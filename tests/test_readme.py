"""README.md against the code it documents: the check vocabulary, the check
flags table and the library quick start."""

import dataclasses
import re
from pathlib import Path

from volform.checks import FLAG_MINIMUMS, REGISTRY, RunFlags

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _section(heading: str) -> str:
    """The README text from ``heading`` to the next heading of any level."""
    start = README.index(heading + "\n") + len(heading)
    end = re.compile(r"^#", re.M).search(README, start)
    return README[start:end.start() if end else len(README)]


def _table_rows(text: str) -> list[list[str]]:
    """The cells of each table row in ``text`` that starts with a code span,
    which skips header and separator rows; an escaped ``\\|`` stays in its cell."""
    return [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in text.splitlines() if line.startswith("| `")]


def _code_spans(cell: str) -> list[str]:
    return re.findall(r"`([^`]*)`", cell)


def test_check_vocabulary_lists_each_declaration():
    declared = {}
    for row in _table_rows(_section("### Check vocabulary")):
        kind = _code_spans(row[0])[0].split("(")[0]
        assert kind not in declared, kind
        declared[kind] = _code_spans(row[1])[0]
    assert declared == {kind: " ".join(check.kinds) for kind, check in REGISTRY.items()}


def test_check_flags_table_matches_run_flags():
    flags = _section("## Command line").split("Flags for `check`:")[1]
    defaults, minimums = {}, {}
    for flag, default, meaning in _table_rows(flags):
        name = _code_spans(flag)[0].split()[0].removeprefix("--").replace("-", "_")
        if name not in {f.name for f in dataclasses.fields(RunFlags)}:
            continue  # --format and --timings shape the report only
        defaults[name] = int(default)
        if (least := re.search(r"at least (\d+)", meaning)) is not None:
            minimums[name] = int(least.group(1))
    assert defaults == dataclasses.asdict(RunFlags())
    assert minimums == dict(FLAG_MINIMUMS)


def test_library_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", _section("## Library quick start"), re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
