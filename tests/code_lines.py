"""Count the code lines of Python files.

Run from the root of a checkout::

    python3 tests/code_lines.py [file.py ...]

Without arguments it counts ``src/widecnn/*.py``. It prints one
``count path`` line per file, then ``count total``. A code line is a line
that holds a token other than a comment and lies outside every docstring,
where a docstring is the first statement of a module, class or function
when that statement is a string. A line inside any other string counts,
as does a line that a backslash continues. Pytest does not collect this
file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "widecnn"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstrings(source: str) -> list[tuple[tuple[int, int], int]]:
    """Each docstring's start (line, column) and last line."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset), first.end_lineno))
    return spans


def code_lines(source: str) -> set[int]:
    """The numbers of the code lines of ``source``."""
    spans = docstrings(source)
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in NOT_CODE or (token.type == tokenize.STRING and any(
                start <= token.start and token.end[0] <= last for start, last in spans)):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return lines


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(PACKAGE.glob("*.py"))
    total = 0
    for path in paths:
        count = len(code_lines(path.read_text()))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
