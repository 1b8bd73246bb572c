"""Print each executable line of ``src/quantmcp/`` that no tier-1 test runs in process.

Usage: python3 scripts/line_report.py [extra pytest arguments]

Runs the tier-1 suite (``pytest tests``) in this interpreter under ``sys.settrace``, and under
``threading.settrace`` for the threads it starts (the http GET workers, concurrent mode's pool), and
records every line of the package that runs. A line counts as executable when its file's compiled
code holds an instruction on it, less the body of an ``if TYPE_CHECKING:`` block, which never runs.
Child processes the tests start are not traced.

Then it prints, per file, each executable line that no test ran and that ``line_report_allow.txt``
(beside this script) does not list. Each entry there names a file, one of ``REASONS`` and the
line's text, stripped, which occurs exactly once in that file; it is matched by text, not by line
number. Exits 0 when nothing is printed, 1 when a line is, and pytest's status when a test fails.
Tracing roughly doubles the suite's wall time; standard library and pytest only.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from types import CodeType
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "quantmcp"
ALLOW_LIST = Path(__file__).resolve().parent / "line_report_allow.txt"

REASONS = {
    "subprocess-only": "runs only in a child process that a test starts, which the tracer does not follow",
    "benchmark-only": "runs only under perfbench, which patches the package from outside",
    "timing-race": "runs only when two threads interleave in one order, which no test can force",
    "own-bug-guard": "answers a bug of this package's own, which no client or config can cause",
}


class Entry(NamedTuple):
    file: str  # relative to src/quantmcp/
    reason: str
    text: str  # the line, stripped


def read_allow_list(path: Path = ALLOW_LIST) -> list[Entry]:
    """The allow-list's entries: ``<file> <reason> <line text>`` per line; ``#`` comments and blank lines skipped."""
    entries = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        if raw.strip() and not raw.lstrip().startswith("#"):
            file, reason, text = raw.split(None, 2)
            entries.append(Entry(file, reason, text.strip()))
    return entries


def _code_objects(code: CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` its compiled code has an instruction on, outside ``if TYPE_CHECKING:`` bodies."""
    source = path.read_text(encoding="utf-8")
    lines = {line for code in _code_objects(compile(source, str(path), "exec"))
             for _, _, line in code.co_lines() if line}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            lines -= set(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in process under the tracer; its exit status and the lines run, by file path."""
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran.setdefault(filename, set())
        lines.add(frame.f_lineno)

        def trace_lines(frame, event, arg):
            lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(REPO / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    status, ran = run_traced(argv)
    if not ran:
        print(f"no line of {PACKAGE} ran: was quantmcp imported from somewhere else?")  # pyproject puts src/ first
        return 1
    allowed = {(entry.file, entry.text) for entry in read_allow_list()}
    unreported = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        name = path.name
        missed = [n for n in sorted(executable_lines(path) - ran.get(str(path), set()))
                  if (name, source[n - 1].strip()) not in allowed]
        if missed:
            print(f"src/quantmcp/{name}: {len(missed)} line(s) no test ran")
            for n in missed:
                print(f"  {n}: {source[n - 1].strip()}")
        unreported += len(missed)
    print(f"{unreported} line(s) of src/quantmcp/ ran in no test and are not allow-listed")
    return status or (1 if unreported else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
