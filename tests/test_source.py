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


def test_search_holds_no_region_bound():
    # the region (its inequalities, radii, sampler and predicate) lives in
    # class_u; search imports the projection, sampler and predicate, no bound
    tree = ast.parse((PACKAGE / "search.py").read_text())
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "class_u"
        for alias in node.names
    }
    assert {"pull_back", "region_violation", "sample_point"} <= names
    assert not names & {"schwarz_feasible", "A2_RADIUS", "FEASIBILITY_TOL"}
    assert not [n for n in names if "bound" in n or "limit" in n or "RADIUS" in n]
