"""Line audit of tier-1: which statement lines of ``src/widecnn`` no test runs.

Run from the root of a checkout::

    python3 tests/line_audit.py [extra pytest arguments]

It runs the tier-1 suite in this process, minus acceptance 09 (the desk
sweep, whose lines the rest of the suite runs as well), under a
``sys.settrace`` tracer that follows only frames of ``src/widecnn``, and
prints ``path:line: source`` for every statement line that never ran,
then a count. A statement line is the first line of a statement that
compiles to bytecode. Child processes are not traced: the demos, the CLI
out-of-memory child and the seed-1 digest child. The run takes about
90 s on a 2-CPU machine. Pytest does not collect this file.

``tests/line_audit_allow.txt`` lists the lines that may stay unexecuted,
one ``path :: function :: statement :: reason`` entry each, keyed by the
enclosing function's qualified name and the statement's stripped first
line rather than a line number, so edits elsewhere keep it valid. The
audit exits 1 when a line that never ran is not on the list, or when an
entry matches no such line: a line that a test now reaches leaves the
list, so the list can only shrink. ``tests/test_line_audit_allow.py``
checks in tier-1 that every entry still names a statement line.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "widecnn"
DESELECT = "tests/test_acceptance.py::test_09_desk_scale_sweep"
ALLOW = ROOT / "tests" / "line_audit_allow.txt"
SEP = " :: "


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


def enclosing_functions(path: Path) -> dict[int, str]:
    """Line -> qualified name of the innermost function or class whose
    body holds it; lines outside every one are absent (``<module>``)."""
    names: dict[int, str] = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}" if prefix else child.name
                names.update(dict.fromkeys(range(child.lineno, child.end_lineno + 1), name))
            visit(child, name)

    visit(ast.parse(path.read_text()), "")
    return names


def statement_keys(path: Path) -> dict[int, tuple[str, str, str]]:
    """Statement line -> its allow-list key: the path relative to the
    root, the enclosing function and the stripped source line."""
    source = path.read_text().splitlines()
    functions = enclosing_functions(path)
    return {line: (str(path.relative_to(ROOT)), functions.get(line, "<module>"),
                   source[line - 1].strip())
            for line in sorted(statement_lines(path))}


def read_allowed(path: Path) -> Counter:
    """(path, function, statement) keys of the allow list, each counted as
    often as it is listed; blank lines and ``#`` comments are skipped."""
    allowed = Counter()
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        key, _, reason = line.rpartition(SEP)
        fields = key.split(SEP, 2)
        if len(fields) != 3 or not reason.strip():
            raise SystemExit(f"{path}:{number}: expected path{SEP}function{SEP}"
                             f"statement{SEP}reason")
        allowed[tuple(fields)] += 1
    return allowed


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

    allowed, missed, unexplained = read_allowed(ALLOW), Counter(), 0
    for path in sorted(PACKAGE.glob("*.py")):
        executed = ran.get(str(path), set())
        for line, key in statement_keys(path).items():
            if line in executed:
                continue
            missed[key] += 1
            listed = missed[key] <= allowed[key]
            unexplained += not listed
            print(f"{key[0]}:{line}: {key[2]}{'' if listed else '  [not on the allow list]'}")
    stale = allowed - missed
    for key, count in sorted(stale.items()):
        print(f"{SEP.join(key)}: listed {count} more time(s) than it is missed; "
              f"remove it from {ALLOW.relative_to(ROOT)}")
    print(f"{sum(missed.values())} statement lines never ran, {unexplained} of them "
          f"not on the allow list; {sum(stale.values())} stale entries "
          f"(pytest exit status {int(status)})")
    return int(status) or int(bool(unexplained or stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
