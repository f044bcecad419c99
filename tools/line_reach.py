"""Run the tier-1 suite under a line tracer and compare the function-body
lines of src/volform that it never reaches with the list in
tools/line_reach.json.

Each list entry names a line by module, function (qualified name) and
stripped source text, with the reason it stays unreached; a text that occurs
k times in a function is listed k times.  The script exits 1 when a tier-1
test fails, when an unreached line is not listed, when a listed line is
reached, or when an entry has no reason, and prints a list entry for each
unlisted line.  Tier-1 runs about four times slower under the tracer.

Usage: python tools/line_reach.py
"""

from __future__ import annotations

import ast
import json
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "volform"
LIST = Path(__file__).with_name("line_reach.json")


def body_lines(path: Path) -> dict[int, str]:
    """Each line that begins a statement in a function body and carries
    bytecode, with the qualified name of its innermost function."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    executable = set()
    pending = [compile(tree, str(path), "exec")]
    while pending:
        code = pending.pop()
        executable.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    owner: dict[int, str] = {}

    def visit(node: ast.AST, scope: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name,
                      not isinstance(child, ast.ClassDef))
                continue
            if (in_function and isinstance(child, ast.stmt)
                    and child.lineno in executable):
                owner.setdefault(child.lineno, scope)
            visit(child, scope, in_function)

    visit(tree, "", False)
    return owner


def main() -> int:
    import pytest

    # this checkout's package, in this process and in the CLI tests' subprocesses
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    prefix = str(PACKAGE) + "/"
    reached: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    # read before the run, so the lines are those of the code that ran
    sources = {path: (body_lines(path), path.read_text(encoding="utf-8").splitlines())
               for path in sorted(PACKAGE.glob("*.py"))}
    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)

    unreached: Counter = Counter()
    where = {}
    for path, (lines, text) in sources.items():
        for line, function in sorted(lines.items()):
            if (str(path), line) not in reached:
                key = (path.stem, function, text[line - 1].strip())
                unreached[key] += 1
                where.setdefault(key, line)
    entries = json.loads(LIST.read_text(encoding="utf-8"))
    listed = Counter((e["module"], e["function"], e["source"]) for e in entries)
    problems = 0
    for e in entries:
        if not e.get("reason", "").strip():
            print(f"no reason: {e['module']}.{e['function']}: {e['source']}")
            problems += 1
    for key in sorted(listed - unreached):
        print(f"listed, but reached: {key[0]}.{key[1]}: {key[2]}")
        problems += 1
    for key in sorted(unreached - listed):
        print(f"unreached, not listed ({key[0]}.py:{where[key]}):")
        print("  " + json.dumps(dict(zip(("module", "function", "source"), key), reason="")))
        problems += 1
    print(f"{sum(unreached.values())} unreached function-body lines, "
          f"{len(entries)} listed, {problems} problem(s)")
    return 1 if status != 0 or problems else 0


if __name__ == "__main__":
    sys.exit(main())
