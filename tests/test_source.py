"""Properties of the package source itself."""

import ast
import importlib
import re
from pathlib import Path

import coefflab
from coefflab.cli import ORACLE_MAP_SEED, ORACLE_WINDOW_SEED
from coefflab.search import DOCUMENTED_SEEDS

PACKAGE = Path(coefflab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


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


def _calling(tree: ast.AST, attr: str) -> set[str]:
    """The functions of tree that call something named attr, a bare name or an attribute."""
    return {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and attr in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    }


def test_sampler_and_row_conversion_have_one_home():
    # one sampler loop: in the package only class_u._sample_rows turns
    # uniforms into points; and the row <-> point conversion is class_u's,
    # which search imports rather than defines
    loops = {
        path.name: _calling(ast.parse(path.read_text()), "_region_rows")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: fns for name, fns in loops.items() if fns} == {"class_u.py": {"_sample_rows"}}
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


def test_campaigns_is_the_one_way_into_the_pool():
    # the engine checks no point: campaign starts lie in the region by
    # construction and campaigns checks each winner, so no other entry may exist
    found = {
        path.name: fns
        for path in sorted(PACKAGE.glob("*.py"))
        if (fns := _calling(ast.parse(path.read_text()), "_pool"))
    }
    assert found == {"search.py": {"campaigns"}}


def test_no_array_is_reinterpreted_with_view():
    # a region point has one stored form, the complex row [a2, c1, c2, c3]:
    # no module reads an array's bytes as another dtype through .view(
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "view"
    ]
    assert found == []


def test_every_uniform_comes_from_the_streams():
    # campaigns, sample_point and both report oracles draw from class_u's
    # SplitMix64 streams: no module calls random, default_rng or SeedSequence,
    # and only sample_point calls integers, to draw the key of its one stream
    found = [
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "attr", None) or getattr(node.func, "id", None))
        in ("random", "default_rng", "SeedSequence", "integers")
    ]
    assert found == [("class_u.py", "integers")]
    assert _calling(ast.parse((PACKAGE / "class_u.py").read_text()), "integers") == {"sample_point"}


def test_every_circle_point_takes_numpy_cos_and_sin():
    # membership's grid and the sampler's discs take numpy's cos and sin,
    # which the tests pin against libm's bit for bit: no module reaches
    # math.cos or math.sin (called or mapped) or builds an array with
    # np.fromiter, a second route to the same points
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and (node.attr == "fromiter"
                 or node.attr in ("cos", "sin") and getattr(node.value, "id", None) == "math")
        ]
        found += [f"{path.name}: {name}" for name, module in _imported_names(tree).items()
                  if (module, name) in (("math", "cos"), ("math", "sin")) or name == "fromiter"]
    assert found == []


def test_search_builds_no_generator():
    # campaign draws its starts from class_u's SplitMix64 streams: no
    # Generator, SeedSequence or bit generator in search.py at all
    tree = ast.parse((PACKAGE / "search.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"default_rng", "SeedSequence", "Generator", "PCG64"}


def _imported_names(tree: ast.AST) -> dict[str, str]:
    """Each name an import binds, mapped to the module it comes from."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name.split(".")[0], a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update((a.asname or a.name, node.module or "") for a in node.names)
    return names


#: Names a module imports only to re-export them, as its docstring says:
#: search re-exports class_u's sampler.
_RE_EXPORTS = {"search.py": {"sample_point"}}


def test_every_imported_name_is_used():
    # a simplification that deletes the last use of an import leaves it
    # stranded; and a re-export its module no longer imports is a stale
    # exemption, which would let a later unused import of that name pass
    stranded, stale = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # the package's public surface
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set(_imported_names(tree))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        re_exports = _RE_EXPORTS.get(path.name, set())
        stranded += [f"{path.name}: {name}" for name in sorted(imported - used - re_exports)]
        stale += [f"{path.name}: {name}" for name in sorted(re_exports - imported)]
    assert stranded == []
    assert stale == []
    assert _RE_EXPORTS.keys() <= {path.name for path in PACKAGE.glob("*.py")}


#: The package modules whose names bench/ reads.
_BENCH_MODULES = ("class_u", "cli", "functionals", "search", "series")


def test_names_bench_reads_resolve():
    # bench/ calls into the package by name, and a name deleted or renamed
    # here breaks every benchmark run; so each <module>.<attr> it reads on a
    # package module must resolve.  bench/ is parsed, not imported.  The
    # tracer's PATCHES are strings it looks up itself, skipping a missing one
    reads = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {a.asname or a.name: a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "coefflab"
                 for a in node.names if a.name in _BENCH_MODULES}
        reads |= {(bound[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in bound}
    assert {("class_u", "project_feasible"), ("cli", "campaign"), ("cli", "DEFAULT_SAMPLES"),
            ("search", "catalog_witness")} <= reads
    missing = [f"{module}.{attr}" for module, attr in sorted(reads)
               if not hasattr(importlib.import_module(f"coefflab.{module}"), attr)]
    assert missing == []


def test_cli_compares_no_coefficient_routes_itself():
    # the map oracle goes through class_u's one map-vs-series comparison
    names = _imported_names(ast.parse((PACKAGE / "cli.py").read_text()))
    assert not [name for name, module in names.items() if module == "series"]
    assert names["_coefficient_routes"] == "class_u"


def test_cli_writes_no_determinant_formula():
    # the closed-form oracle takes the closed forms and the matrix layout
    # (DeterminantId._cells, _det_entries) from functionals, as the map
    # oracle takes _coefficient_routes from class_u: cli.py holds no
    # difference of products (a2 * a4 - a3 * a3, e0 * e3 - e1 * e2) and
    # no index table of its own
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    names = _imported_names(tree)
    assert names["closed_form_function"] == names["_det_entries"] == "functionals"
    assert "_cells" in {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not {"operator", "itemgetter", "_CLOSED_FORMS"} & set(names)

    def product(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)

    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
        and product(node.left) and product(node.right)
    ]
    assert found == []


def test_cli_holds_no_verdict_rule():
    # a membership verdict is DefectReport's own field, set by class_u's one
    # rule; no comparison in cli.py reads max_defect, as an attribute, a
    # dict key or a name, to decide one again
    def reads_max_defect(node):
        return (getattr(node, "attr", None) == "max_defect"
                or getattr(node, "id", None) == "max_defect"
                or isinstance(node, ast.Constant) and node.value == "max_defect")

    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and any(map(reads_max_defect, ast.walk(node)))
    ]
    assert found == []


def test_public_names_are_sorted_unique_and_resolve():
    # a name left in __all__ after its definition is deleted first fails at
    # `from coefflab import *`
    names = coefflab.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(coefflab, name)] == []


def test_version_matches_pyproject():
    # both are bumped by hand each release; Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r'(?m)^version = "([^"]+)"$', text) == [coefflab.__version__]


def test_readme_holds_no_changelog_and_names_every_seed():
    # CHANGES.md is the one home of the release history.  The README states
    # the present, report's seeds included: a table row per documented
    # campaign, and the two oracle seeds that cli says are documented there
    text = (ROOT / "README.md").read_text()
    assert not re.search(r"^#+ *Changes in", text, re.MULTILINE)
    rows = []
    for label, seed in DOCUMENTED_SEEDS.items():
        det, mode = label.split("|")
        rows.append(rf"^\| `{det}` {'a2=0' if mode == 'zero' else mode} +\| {seed} +\|")
    assert [row for row in rows if not re.search(row, text, re.MULTILINE)] == []
    assert [s for s in (ORACLE_WINDOW_SEED, ORACLE_MAP_SEED) if not re.search(rf"\b{s}\b", text)] == []
