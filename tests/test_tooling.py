"""Checks on the source tree itself rather than on its behaviour."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chirex"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check written as one
    # silently disappears; every check must raise an exception instead
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_sympy_is_not_imported_by_the_package():
    # sympy is an independent oracle for the tests, never a runtime
    # dependency of chirex
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += ["%s:%d" % (path.name, node.lineno)
                      for name in names if name.split(".")[0] == "sympy"]
    assert found == []
