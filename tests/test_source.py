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


def test_sampler_and_row_conversion_have_one_home():
    # one sampler loop: in class_u only sample_rows_per_stream draws uniforms
    # from a Generator; and the row <-> point conversion is class_u's, which
    # search imports rather than defines
    tree = ast.parse((PACKAGE / "class_u.py").read_text())
    drawers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "random"
    }
    assert drawers == {"sample_rows_per_stream"}
    tree = ast.parse((PACKAGE / "search.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "class_u"
        for alias in node.names
    }
    assert not defined & {"_point", "_rows"}
    assert {"_point", "_rows"} <= imported
