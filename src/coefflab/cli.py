"""Command line front end.

    coefflab eval --function f1 --det T3,3
    coefflab eval --coeffs "1,2i,-3,-4i,5" --det T2,2 --format csv
    coefflab bounds --all
    coefflab bounds --theorem thm3_i
    coefflab search --objective T3,2 --a2zero --starts 200 --seed 7
    coefflab membership --function f1 --radius 0.99
    coefflab report --all --format json --out report.json

Every command emits one document with the same top-level shape:
tool_version, command, inputs, results, flags_of_concern.  JSON is the
canonical format (complex numbers as [re, im] pairs, keys sorted).  Each
result row is built from the library object it renders, vars() of a
BoundChain, DefectReport, SearchConfig, SearchResult or SchwarzParams, so a
new field of one reaches the JSON with no edit here; a membership verdict is
DefectReport's own field, so no verdict rule lives here.  csv and text are
flattened renderings of the same payload whose columns are chosen in
_COLUMNS: nested keys joined with '_' (reference.id is reference_id) and
lists and tuples joined with ';'.  The text header's inputs line renders
each input the same way, a dict as key=value items joined with ';'.
Identical inputs produce byte-identical output.

Exit codes: 0 success, 2 argument or parse errors (non-finite literals,
membership requests over the sample cap, determinant orders over the order
cap and an --out path that cannot be written included), 3 runtime evaluation
failures (window too short, an evaluator that fails or vanishes on the
sampling grid, a non-finite defect or result, a failed numerical
cross-check).  A refusal of the library prints one line on stderr, error:
and the message; a refusal of argparse (an unknown option, a value of the
wrong type) prints its usage lines first and then its own error: line.
report's two oracles draw from class_u's streams of uniforms and each runs
as one array pass over its ORACLE_COUNT draws.  The map oracle's points are
class_u's sampler rows for streams (ORACLE_MAP_SEED, i), the starts a free
campaign at that seed draws, and it keeps the largest gap of one call of
class_u's map-vs-series comparison, which is elementwise.  The closed-form
oracle's window i takes its 8 uniforms from stream (ORACLE_WINDOW_SEED, i);
the windows are five planes a1..a5, on which each supported id's closed form
is compared with the determinant of functionals' matrix layout.  An oracle
whose largest delta is not within its tolerance (a NaN included) raises
CrossCheckFailed, exit 3.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import sys
from functools import reduce
from pathlib import Path

import numpy as np

from . import __version__
from .bound_calculus import (
    UnknownConstant,
    UnknownTheorem,
    theorem_chain,
    THEOREM_IDS,
)
from .class_u import (
    CATALOG_NAMES,
    DEFAULT_SAMPLES,
    MAP_AGREEMENT_TOL,
    CrossCheckFailed,
    EvaluationFailure,
    UnknownName,
    _coefficient_routes,
    _keys,
    _sample_rows,
    _uniforms,
    catalog,
    membership_max_defect,
    named_evaluator,
)
from .functionals import (
    SUPPORTED_CLOSED_FORM_IDS,
    CoefficientWindow,
    DeterminantId,
    UnsupportedId,
    WindowTooShort,
    _det_entries,
    closed_form,
    closed_form_function,
    det_value,
)
from .search import (
    DOCUMENTED_SEEDS,
    Objective,
    SearchConfig,
    campaign,
    campaigns,
    catalog_witness,
    objective_reference,
)

#: Tolerance for "campaign stayed at or under its reference bound".
REFERENCE_SLACK = 1e-6

#: Default radii for membership sampling.
DEFAULT_RADII = (0.9, 0.99)

#: Seeds for the report's oracle sweeps (documented in the README).
ORACLE_WINDOW_SEED = 1357
ORACLE_MAP_SEED = 2468
ORACLE_COUNT = 1000

#: The closed-form oracle's tolerance on |closed form - determinant|.
_CLOSED_FORM_TOL = 1e-9


# ---------------------------------------------------------------------------
# Parsing and rendering helpers
# ---------------------------------------------------------------------------


def parse_complex(text: str) -> complex:
    """Parse finite 'a+bi' style literals: 1, -3, 2i, -4i, 1.5-0.25i."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    try:
        z = complex(s.replace("i", "j").replace("I", "j"))
    except ValueError:
        raise ValueError(
            f"bad complex literal {text!r}; use forms like 1, -3, 2i, 1-4i"
        ) from None
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite complex literal {text!r}")
    return z


def jsonable(x):
    """Lower a payload to plain JSON types; complex becomes [re, im]; any
    other type raises TypeError rather than reach the document as its str."""
    if isinstance(x, complex):
        return [x.real + 0.0, x.imag + 0.0]  # + 0.0 drops negative zero
    if isinstance(x, float):
        return x + 0.0
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    raise TypeError(f"no JSON form for {type(x).__name__}: {x!r}")


def document(command: str, inputs: dict, results: dict, flags: list[str]) -> dict:
    return {
        "tool_version": __version__,
        "command": command,
        "inputs": inputs,
        "results": results,
        "flags_of_concern": flags,
    }


def render_json(doc: dict) -> str:
    return json.dumps(jsonable(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _fmt(x) -> str:
    if isinstance(x, complex):
        if x.imag == 0.0:
            return _fmt(x.real)
        if x.real == 0.0:
            return _fmt(x.imag) + "i"
        return f"{_fmt(x.real)}{'+' if x.imag >= 0 else '-'}{_fmt(abs(x.imag))}i"
    if isinstance(x, float):
        return format(x, ".12g")
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return ""
    return str(x)


def _cell(x) -> str:
    """x as one csv/text field: lists and tuples joined with ';', dicts as
    key=value items joined with ';', anything else through _fmt."""
    if isinstance(x, (list, tuple)):
        return ";".join(map(_fmt, x))
    if isinstance(x, dict):
        return ";".join(f"{k}={_fmt(v)}" for k, v in x.items())
    return _fmt(x)


#: The csv/text columns of each command: paths into one result row, with "."
#: stepping into a nested dict.  bounds has a row per chain, the others one.
_COLUMNS = {
    "eval": ("function", "determinant", "value", "modulus", "closed_form",
             "crosscheck_delta"),
    "bounds": ("theorem_id", "determinant", "function_class", "a2_zero",
               "computed_value", "stated_value", "match", "delta", "note"),
    "search": ("objective", "a2_mode", "seed", "restarts", "best_value",
               "evaluations_used", "reference.id", "reference.value",
               "witness.name", "witness.value"),
    "membership": ("function", "radii", "samples", "max_defect", "argmax", "verdict"),
}


def _report_table(r: dict) -> list[list[str]]:
    rows = []
    for row in r["sharp_values"]:
        rows.append(["sharp_values", f"{row['function']} {row['determinant']}",
                     _fmt(row["modulus"]), f"delta={_fmt(row['crosscheck_delta'])}"])
    for ch in r["bound_chains"]:
        rows.append(["bound_chains", ch["theorem_id"], _fmt(ch["computed_value"]),
                     f"stated={ch['stated_text']} match={_fmt(ch['match'])}"])
    cf, cm = r["closed_form_oracle"], r["coefficient_map_oracle"]
    rows.append(["oracles", "closed_form_vs_determinant", _fmt(cf["max_delta"]),
                 f"windows={cf['windows']} tolerance={_fmt(cf['tolerance'])}"])
    rows.append(["oracles", "map_vs_series", _fmt(cm["max_delta"]),
                 f"points={cm['points']} tolerance={_fmt(cm['tolerance'])}"])
    for row in r["campaigns"]:
        rows.append(["campaigns", row["objective"], _fmt(row["best_value"]),
                     f"reference={_fmt(row['reference']['value'])} "
                     f"within={_fmt(row['within_reference'])}"])
    for row in r["membership"]:
        rows.append(["membership", row["function"], _fmt(row["max_defect"]),
                     row["verdict"]])
    return rows


def _csv_table(doc: dict) -> tuple[list[str], list[list[str]]]:
    cmd = doc["command"]
    r = doc["results"]
    if cmd == "report":
        return ["section", "item", "value", "detail"], _report_table(r)
    columns = _COLUMNS[cmd]
    header = [path.replace(".", "_") for path in columns]
    rows = []
    for row in r["chains"] if cmd == "bounds" else [r]:
        values = [reduce(dict.__getitem__, path.split("."), row) for path in columns]
        rows.append(list(map(_cell, values)))
    return header, rows


def render_csv(doc: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header, rows = _csv_table(doc)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_text(doc: dict) -> str:
    lines = [f"coefflab {doc['command']} (v{doc['tool_version']})"]
    inputs = ", ".join(f"{k}={_cell(v)}" for k, v in doc["inputs"].items())
    lines.append(f"inputs: {inputs}" if inputs else "inputs: (none)")
    header, rows = _csv_table(doc)
    widths = [max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
              for i in range(len(header))]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    if doc["flags_of_concern"]:
        lines.append("flags of concern:")
        for flag in doc["flags_of_concern"]:
            lines.append(f"  - {flag}")
    else:
        lines.append("flags of concern: none")
    return "\n".join(lines) + "\n"


def emit(doc: dict, fmt: str, out: str | None) -> None:
    text = {"json": render_json, "csv": render_csv, "text": render_text}[fmt](doc)
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:  # an --out path that cannot be written is an argument error
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _eval_row(label: str, det: DeterminantId, window: CoefficientWindow) -> dict:
    """One determinant by direct evaluation, cross-checked by its closed form."""
    value = det_value(window, det)
    try:
        cf = closed_form(window, det)
        delta = abs(cf - value)
    except UnsupportedId:
        cf, delta = None, None
    row = {
        "function": label,
        "determinant": str(det),
        "value": value,
        "modulus": abs(value),
        "closed_form": cf,
        "crosscheck_delta": delta,
    }
    if not all(cmath.isfinite(x) for x in (value, row["modulus"], cf, delta) if x is not None):
        raise EvaluationFailure(f"{det} overflows on this window")
    return row


def cmd_eval(args) -> dict:
    det = DeterminantId.parse(args.det)
    if args.function is not None:
        window = catalog(args.function).window
    else:
        window = CoefficientWindow(tuple(parse_complex(c) for c in args.coeffs.split(",")))
    results = dict(_eval_row(args.function or "coeffs", det, window), window=list(window.a))
    inputs = {"function": args.function, "coeffs": args.coeffs, "det": args.det}
    return document("eval", inputs, results, [])


def _chain_flags(chains) -> list[str]:
    flags = []
    for ch in chains:
        if not ch["match"]:
            flags.append(
                f"{ch['theorem_id']}: recomputed {_fmt(ch['computed_value'])} "
                f"vs stated {ch['stated_text']} (delta {_fmt(ch['delta'])})"
            )
        if ch["note"]:
            flags.append(f"{ch['theorem_id']}: {ch['note']}")
    return flags


def cmd_bounds(args) -> dict:
    ids = THEOREM_IDS if args.all else (args.theorem,)
    chains = [vars(theorem_chain(tid)) for tid in ids]
    mismatch_ids = [ch["theorem_id"] for ch in chains if not ch["match"]]
    results = {
        "chains": chains,
        "summary": {"total": len(chains), "matches": len(chains) - len(mismatch_ids),
                    "mismatch_ids": mismatch_ids},
    }
    inputs = {"theorem": args.theorem, "all": args.all}
    return document("bounds", inputs, results, _chain_flags(chains))


def _campaign_row(objective: Objective, config: SearchConfig,
                  result) -> tuple[dict, bool, list[str]]:
    """The fields search and report share for one campaign, whether its best
    stayed within its reference bound, and its flags."""
    ref_kind, ref_id, ref_value = objective_reference(objective)
    wit_name, wit_value = catalog_witness(objective)
    best = result.best_value
    within = best <= ref_value + REFERENCE_SLACK
    row = dict(vars(config), best_value=best, evaluations_used=result.evaluations_used,
               reference={"kind": ref_kind, "id": ref_id, "value": ref_value},
               witness={"name": wit_name, "value": wit_value})
    flags = []
    if not within:
        flags.append(
            f"{objective.label}: campaign best {_fmt(best)} exceeds its reference "
            f"{ref_id} = {_fmt(ref_value)}"
        )
    if ref_kind == "chain":
        ch = theorem_chain(ref_id)
        if not ch.match and best > ch.stated_value + 1e-9:
            flags.append(
                f"{objective.label}: campaign best {_fmt(best)} exceeds the published "
                f"statement {ch.stated_text} = {_fmt(ch.stated_value)} "
                f"(recomputed chain allows {_fmt(ch.computed_value)})"
            )
    return row, within, flags


def cmd_search(args) -> dict:
    objective = Objective(DeterminantId.parse(args.objective),
                          "zero" if args.a2zero else "free")
    config = SearchConfig(seed=args.seed, restarts=args.starts, refine_budget=args.budget)
    result = campaign(objective, config)
    row, _, flags = _campaign_row(objective, config, result)
    p = result.best_point
    # every SearchResult field, the best point lowered to its coordinates
    results = dict(vars(result), **row, objective=str(objective.det),
                   a2_mode=objective.a2_mode, best_point=dict(a2=p.a2, **vars(p.schwarz)))
    inputs = {"objective": args.objective, "a2zero": args.a2zero, "seed": args.seed,
              "starts": args.starts, "budget": args.budget}
    return document("search", inputs, results, flags)


def _membership_row(name: str, radii: tuple[float, ...], samples: int) -> dict:
    rep = membership_max_defect(named_evaluator(name), radii, samples)
    return dict(vars(rep), function=name, radii=radii)


def cmd_membership(args) -> dict:
    radii = tuple(args.radius) if args.radius else DEFAULT_RADII
    results = dict(_membership_row(args.function, radii, args.samples),
                   samples=args.samples)
    inputs = {"function": args.function, "radius": list(radii), "samples": args.samples}
    return document("membership", inputs, results, [])


# Sharp attainments surfaced in the standard report: catalog witnesses for
# the free-mode bounds and for the a2 = 0 bounds.
_SHARP_ROWS = (
    ("f1", "T2,2"), ("f1", "T2,3"), ("f1", "T3,1"), ("f1", "T3,2"), ("f1", "T3,3"),
    ("f2", "T2,2"), ("f2", "T2,3"), ("f3", "T3,1"), ("f4", "T3,2"),
)


def _oracle_windows() -> np.ndarray:
    """The closed-form oracle's windows as five planes a1..a5 of shape
    (ORACLE_COUNT,): a1 = 1, and a2..a5 of window i on the disc of radius 5,
    each drawn from stream (ORACLE_WINDOW_SEED, i) as radius then angle."""
    u = _uniforms(_keys(ORACLE_WINDOW_SEED, np.arange(ORACLE_COUNT)), 0, 8).reshape(-1, 4, 2)
    r, th = 5.0 * np.sqrt(u[..., 0]), 2.0 * np.pi * u[..., 1]
    a = np.ones((5, ORACLE_COUNT), complex)
    a.real[1:], a.imag[1:] = (r * np.cos(th)).T, (r * np.sin(th)).T
    return a


def _oracle(name: str, deltas: list[np.ndarray], tolerance: float) -> dict:
    """The largest of an oracle's deltas and its tolerance; CrossCheckFailed
    unless that delta is within it (np.max keeps a NaN, which is not)."""
    worst = float(np.max(deltas))
    if not worst <= tolerance:
        raise CrossCheckFailed(
            f"{name} oracle: max delta {_fmt(worst)} is not within its tolerance {_fmt(tolerance)}")
    return {"max_delta": worst, "tolerance": tolerance}


def _report_closed_form_oracle() -> dict:
    a = _oracle_windows()
    deltas = [abs(closed_form_function(det)(*a[1:]) - _det_entries(det._cells(a), det.q))
              for det in SUPPORTED_CLOSED_FORM_IDS]
    return dict(_oracle("closed-form", deltas, _CLOSED_FORM_TOL),
                windows=ORACLE_COUNT, seed=ORACLE_WINDOW_SEED)


def _report_map_oracle() -> dict:
    rows = _sample_rows(ORACLE_MAP_SEED, np.arange(ORACLE_COUNT))
    gaps = _coefficient_routes(*rows.T, 5)[2]
    return dict(_oracle("coefficient-map", list(np.broadcast_arrays(*gaps)), MAP_AGREEMENT_TOL),
                points=ORACLE_COUNT, seed=ORACLE_MAP_SEED)


def cmd_report(args) -> dict:
    # the oracles first: a breached tolerance exits 3 before any campaign runs
    oracles = {"closed_form_oracle": _report_closed_form_oracle(),
               "coefficient_map_oracle": _report_map_oracle()}
    sharp = [_eval_row(name, DeterminantId.parse(det), catalog(name).window)
             for name, det in _SHARP_ROWS]
    for row in sharp:
        del row["closed_form"]  # the report shows the closed form only by its delta
    chains = [vars(theorem_chain(tid)) for tid in THEOREM_IDS]
    flags = _chain_flags(chains)
    jobs = [(Objective(DeterminantId.parse(label.split("|")[0]), label.split("|")[1]),
             SearchConfig(seed=seed)) for label, seed in DOCUMENTED_SEEDS.items()]
    campaign_rows = []
    for label, job, result in zip(DOCUMENTED_SEEDS, jobs, campaigns(jobs)):  # one pool for all
        row, within, row_flags = _campaign_row(*job, result)
        campaign_rows.append(dict(row, objective=label, within_reference=within))
        flags.extend(row_flags)
    membership = [_membership_row(name, DEFAULT_RADII, DEFAULT_SAMPLES)
                  for name in CATALOG_NAMES]
    membership.append(_membership_row("z+2z3", (0.7,), DEFAULT_SAMPLES))
    results = {
        "sharp_values": sharp,
        "bound_chains": chains,
        **oracles,
        "campaigns": campaign_rows,
        "membership": membership,
    }
    inputs = {"all": True, "starts": SearchConfig.restarts, "budget": SearchConfig.refine_budget,
              "campaign_seeds": dict(DOCUMENTED_SEEDS),
              "oracle_seeds": {"windows": ORACLE_WINDOW_SEED, "map": ORACLE_MAP_SEED}}
    return document("report", inputs, results, flags)


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coefflab",
        description="Toeplitz and Hankel coefficient determinant laboratory",
    )
    parser.add_argument("--version", action="version", version=f"coefflab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="json")
    common.add_argument("--out", default=None, help="write the document to this path")

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate one determinant on a window")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--function", help=f"catalog name, one of {CATALOG_NAMES}")
    group.add_argument("--coeffs", help="comma-separated a1,a2,... with a1 = 1")
    p.add_argument("--det", required=True, help="determinant id, e.g. T3,3 or H2,3")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("bounds", parents=[common],
                       help="recompute published bound chains")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--theorem", help=f"one of {THEOREM_IDS}")
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("search", parents=[common],
                       help="seeded multi-start maximization of |det|")
    p.add_argument("--objective", required=True, help="determinant id, e.g. T2,2")
    p.add_argument("--a2zero", action="store_true", help="pin a2 = 0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=SearchConfig.restarts)
    p.add_argument("--budget", type=int, default=SearchConfig.refine_budget)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("membership", parents=[common],
                       help="sample the defect on circles")
    p.add_argument("--function", required=True,
                   help=f"catalog name or the specimen 'z+2z3'; catalog: {CATALOG_NAMES}")
    p.add_argument("--radius", type=float, action="append",
                   help="repeatable; default 0.9 and 0.99")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.set_defaults(handler=cmd_membership)

    p = sub.add_parser("report", parents=[common],
                       help="run the full verification sweep")
    p.add_argument("--all", action="store_true", help="accepted for symmetry; the report is always complete")
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        # emit renders the whole document before it writes any of it
        emit(args.handler(args), args.format, args.out)
    except (WindowTooShort, EvaluationFailure, CrossCheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UnknownName, UnsupportedId, UnknownTheorem, UnknownConstant,
            ValueError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
