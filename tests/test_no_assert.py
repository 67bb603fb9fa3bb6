"""``python -O`` strips ``assert`` statements, so the package checks what
it must check with statements that raise and keeps no ``assert``."""

import ast

from line_audit import PACKAGE


def test_package_has_no_assert_statement():
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src/widecnn: " + ", ".join(found)
