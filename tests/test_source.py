"""Properties of the package source itself."""

import ast
import importlib
import re
import sys
from pathlib import Path

import coefflab
from coefflab.class_u import ORACLE_MAP_SEED, ORACLE_WINDOW_SEED
from coefflab.search import DOCUMENTED_SEEDS, Objective

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
    # the map oracle is class_u.map_oracle, which goes through class_u's one
    # map-vs-series comparison; cli.py imports nothing from series and only
    # calls map_oracle for its row
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    names = _imported_names(tree)
    assert not [name for name, module in names.items() if module == "series"]
    assert "_coefficient_routes" not in names
    assert names["map_oracle"] == "class_u"
    assert "map_oracle" in {getattr(node.func, "id", None)
                            for node in ast.walk(tree) if isinstance(node, ast.Call)}
    class_u = ast.parse((PACKAGE / "class_u.py").read_text())
    assert "map_oracle" in _calling(class_u, "_coefficient_routes")


def test_cli_writes_no_determinant_formula():
    # the closed-form oracle is class_u.closed_form_oracle, which takes its
    # gaps from functionals.closed_form_gaps: the closed forms and the matrix
    # layout (DeterminantId._cells, _det_entries) stay in functionals.
    # cli.py holds no difference of products (a2 * a4 - a3 * a3,
    # e0 * e3 - e1 * e2) and no index table of its own
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    names = _imported_names(tree)
    assert names["closed_form_oracle"] == "class_u"
    assert not {"operator", "itemgetter", "_CLOSED_FORMS", "_det_entries"} & set(names)
    functionals = ast.parse((PACKAGE / "functionals.py").read_text())
    assert {"det_value", "closed_form_gaps"} <= _calling(functionals, "_det_entries")
    class_u = ast.parse((PACKAGE / "class_u.py").read_text())
    assert "closed_form_oracle" in _calling(class_u, "closed_form_gaps")

    def product(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)

    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
        and product(node.left) and product(node.right)
    ]
    assert found == []


def _private(name: str) -> bool:
    """A single-underscore name, such as _keys; dunders such as __version__ are not."""
    return name.startswith("_") and not name.startswith("__")


def test_cli_holds_no_oracle_and_private_names_stay_home():
    # report's oracles live in class_u (the draws and the map-vs-series
    # gaps) and functionals (the closed-form gaps); cli only renders their
    # rows.  So cli.py imports no numpy, nothing from operator and no
    # single-underscore name of the package, and reads no single-underscore
    # attribute; only functionals.py reads its matrix layout and closed-form
    # table, and only class_u.py calls the streams and the polar turn, which
    # both of its disc draws go through
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    tree = trees["cli.py"]
    found = [f"cli.py imports {name} from {module}"
             for name, module in _imported_names(tree).items()
             if module.split(".")[0] in ("numpy", "operator") or _private(name)]
    found += [f"cli.py:{node.lineno} reads .{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and _private(node.attr)]
    for name, module_tree in trees.items():
        if name != "functionals.py":
            found += [f"{name}:{node.lineno} reads {word}" for node in ast.walk(module_tree)
                      for word in (getattr(node, "id", None), getattr(node, "attr", None),
                                   getattr(node, "name", None))
                      if word in ("_cells", "_det_entries", "_CLOSED_FORMS")]
        if name != "class_u.py":
            called = {getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                      for node in ast.walk(module_tree) if isinstance(node, ast.Call)}
            found += [f"{name} calls {attr}" for attr in ("_keys", "_uniforms", "_polar")
                      if attr in called]
    assert found == []
    assert _calling(trees["class_u.py"], "_polar") == {"_region_rows", "_oracle_windows"}


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


#: The fields a flag of concern is decided from.
_FLAG_FIELDS = {"best_value", "stated_value", "computed_value", "match", "note",
                "within_reference"}


def test_cli_holds_no_flag_rule():
    # every flag of concern is decided in search (chain_flags and judge):
    # cli.py holds no REFERENCE_SLACK, no flag text, and no comparison or
    # truth test that reads a flag's field, as an attribute, a name or a
    # dict key.  The one exception is the bounds summary's mismatch_ids
    tree = ast.parse((PACKAGE / "cli.py").read_text())

    def reads_flag_field(node):
        return any({getattr(n, "attr", None), getattr(n, "id", None),
                    n.value if isinstance(n, ast.Constant) else None} & _FLAG_FIELDS
                   for n in ast.walk(node))

    exempt = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["mismatch_ids"]
              for n in ast.walk(node)}
    tests = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
            tests.append(node.test)
        elif isinstance(node, ast.comprehension):
            tests += node.ifs
        elif isinstance(node, ast.BoolOp):
            tests += node.values
        elif isinstance(node, ast.Compare) or isinstance(getattr(node, "op", None), ast.Not):
            tests.append(node)
    found = sorted({f"test at {node.lineno}" for node in tests
                    if id(node) not in exempt and reads_flag_field(node)})
    found += [f"REFERENCE_SLACK at {node.lineno}" for node in ast.walk(tree)
              if "REFERENCE_SLACK" in (getattr(node, "id", None), getattr(node, "name", None))]
    found += [f"flag text at {node.lineno}" for node in ast.walk(tree)
              if isinstance(node, ast.JoinedStr) and any(
                  isinstance(v, ast.Constant) and ("exceeds" in v.value or "recomputed" in v.value)
                  for v in node.values)]
    assert found == []


def test_cli_parses_no_objective_label():
    # Objective.parse is the one inverse of Objective.label: cli.py holds no
    # "|" string constant, the separator a label would be split on
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value == "|"]
    assert found == []


def test_runtime_imports_are_stdlib_or_numpy():
    # pyproject.toml's one runtime dependency is numpy: every absolute import
    # in the package is of the standard library or of numpy
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found |= {(path.name, a.name.split(".")[0]) for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert ("search.py", "numpy") in found
    assert sorted((f, m) for f, m in found if m not in sys.stdlib_module_names | {"numpy"}) == []


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
        o = Objective.parse(label)
        mode = "a2=0" if o.a2_mode == "zero" else o.a2_mode
        rows.append(rf"^\| `{o.det}` {mode} +\| {seed} +\|")
    assert [row for row in rows if not re.search(row, text, re.MULTILINE)] == []
    assert [s for s in (ORACLE_WINDOW_SEED, ORACLE_MAP_SEED) if not re.search(rf"\b{s}\b", text)] == []
