"""Line audit of tier-1: which statement lines of ``src/widecnn`` no test runs.

Run from the root of a checkout::

    python3 tests/line_audit.py [extra pytest arguments]

It runs the tier-1 suite in this process, minus acceptance 09 (the desk
sweep, whose lines the rest of the suite runs as well), under a
``sys.settrace`` tracer that follows only frames of ``src/widecnn``, and
prints ``path:line: source`` for every statement line that never ran,
then a count. A statement line is the first line of a statement that
compiles to bytecode. Child processes are not traced: the demos, the CLI
out-of-memory child and the seed-1 digest child. The run takes about a
minute on a 2-CPU machine. Pytest does not collect this file.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "widecnn"
DESELECT = "tests/test_acceptance.py::test_09_desk_scale_sweep"


def statement_lines(path: Path) -> set[int]:
    """The first line of every statement in ``path`` that compiles to
    bytecode, in nested functions and classes too; a docstring compiles to
    none."""
    source = path.read_text()
    starts = {node.lineno for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.stmt)}
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line in starts)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE)
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", DESELECT,
                              str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(statement_lines(path) - ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} statement lines never ran (pytest exit status {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
