"""Properties of the package source itself."""

import ast
from pathlib import Path

import coefflab

PACKAGE = Path(coefflab.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert, so a check written as one silently vanishes
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
