"""The benchmark's three closed-loop workloads.

Each workload turns (workload seed, op index) into the inputs of one op, runs
the op against coefflab, and checks the op's output with the benchmark's own
checks (plain comparisons, not ``assert``, so they hold under ``python -O``).
A check returns a list of ``(kind, message)`` problems; kind ``"verdict"``
marks a membership verdict that disagrees with the exact defect, every other
kind is a wrong output of another sort.  Kind ``"known-defect"`` is a wrong
verdict on one of the KNOWN_DEFECT circles: it is counted and printed on every
run, but the op it came from is not a failed op.

Ops ``0 .. cycle - 1`` visit every distinct op key once (one per objective,
one per membership circle).  They are rerun after the timed loop to check
determinism, and the exact counts are taken over them, so those counts depend
only on the seed and the code.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math

import numpy as np

from coefflab import class_u, cli, functionals, search, series

#: Two routes to the same number must agree this well (criteria 4 and 5).
DET_TOL = 1e-9
MAP_TOL = 1e-10
#: Campaign values are compared to their references with this slack.
VALUE_TOL = 1e-9

IDS = functionals.SUPPORTED_CLOSED_FORM_IDS


def _disc(rng: np.random.Generator, radius, n: int) -> np.ndarray:
    """n area-uniform draws from discs of the given radius (scalar or array)."""
    return radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def region_points(rng: np.random.Generator, n: int) -> list[tuple[complex, ...]]:
    """n points (a2, c1, c2, c3) of the parameter region, drawn without coefflab."""
    a2 = _disc(rng, 2.0, n)
    c1 = _disc(rng, 1.0, n)
    m1 = np.abs(c1)
    c2 = _disc(rng, 0.5 * (1.0 - m1 * m1), n)
    m2 = np.abs(c2)
    c3 = _disc(rng, np.maximum(0.0, (1.0 - m1 * m1 - 4.0 * m2 * m2 / (1.0 + m1)) / 3.0), n)
    return [tuple(complex(v) for v in row) for row in zip(a2, c1, c2, c3)]


# Exact defect |(z/f)^2 f'(z) - 1| of each function membership is sampled on.
# For z/f = D the defect is |D - z D' - 1|, which is |z|^2 for f1, f2, f3 and
# koebe, and |z^2 w'(z)| = |z|^2 |(alpha + z)/(1 + alpha z)| for f4.
_ALPHA = 1.0 / math.sqrt(2.0)
EXACT_DEFECT = {
    "identity": lambda z: 0.0,
    "f1": lambda z: abs(z) ** 2,
    "f2": lambda z: abs(z) ** 2,
    "f3": lambda z: abs(z) ** 2,
    "f4": lambda z: abs(z * z * (_ALPHA + z) / (1.0 + _ALPHA * z)),
    "koebe": lambda z: abs(z) ** 2,
    "z+2z3": lambda z: abs((1.0 + 6.0 * z * z) / (1.0 + 2.0 * z * z) ** 2 - 1.0),
}


def exact_max_defect(name: str, radii, samples: int) -> float:
    """Largest exact defect over the grid membership_max_defect samples."""
    defect = EXACT_DEFECT[name]
    return max(
        defect(complex(r * math.cos(t), r * math.sin(t)))
        for r in radii
        for t in (2.0 * math.pi * k / samples for k in range(samples))
    )


#: Circles (function, radius) on which membership_max_defect gives a wrong
#: verdict at 512 samples: its central-difference step 1e-6*r reaches past the
#: pole at z = 1 (ROADMAP item 4).  Wrong verdicts there are reported as the
#: known defect; a wrong verdict on any other circle is a failed op.
KNOWN_DEFECT = frozenset({("f2", 1 - 1e-5), ("f2", 1 - 1e-6), ("koebe", 1 - 1e-6)})


def verdict_problem(name: str, radii, samples: int, sampled: float) -> list[tuple[str, str]]:
    exact = exact_max_defect(name, radii, samples)
    if (sampled < 1.0) == (exact < 1.0):
        return []
    known = all((name, r) in KNOWN_DEFECT for r in radii)
    return [("known-defect" if known else "verdict",
             f"{name} r={list(radii)}: sampled defect {sampled!r}, exact {exact!r}")]


def wrong_verdicts(workload, pairs) -> int:
    """Wrong membership verdicts, known defect included, over (input, output) pairs."""
    return sum(kind in ("verdict", "known-defect")
               for inp, out in pairs for kind, _ in workload.check(inp, out))


def unseeded_hits(result) -> tuple[int, int]:
    """(unseeded restarts within VALUE_TOL of the campaign best, unseeded restarts)."""
    unseeded = [v for k, v in result.per_restart if k >= 0]
    return sum(v >= result.best_value - VALUE_TOL for v in unseeded), len(unseeded)


def campaign_counts(results) -> dict:
    hits = restarts = 0
    for r in results:
        h, n = unseeded_hits(r)
        hits += h
        restarts += n
    return {
        "search.evaluations": sum(r.evaluations_used for r in results),
        "search.unseeded_hits": hits,
        "search.unseeded_restarts": restarts,
    }


class Report:
    """`coefflab report --all` through cli.main, stdout captured."""

    name = "report"
    why = ("the command users run to verify the paper: ~0.8M objective evaluations in deep "
           "pattern-search chains, so the per-proposal cost in search dominates")
    cycle = 1
    argv = ("report", "--all")
    #: Documented campaign best values the report must reproduce.
    expected = {"T2,2|free": 13.0, "T2,3|free": 25.0, "T3,1|free": 24.0,
                "T3,2|free": 84.0, "T3,2|zero": 0.25, "T3,3|free": 208.0}

    def __init__(self):
        self.reference = None
        # Called after each campaign of an op.  run.py makes it recalibrate
        # there, so that a change of core speed within the ~3 s op is tracked.
        self.checkpoint = lambda: None

    def make_input(self, seed: int, i: int):
        # The report takes no random input: every op is the same command.
        return self.argv

    def run(self, argv):
        # The campaign results are captured so reruns compare them bit for bit.
        found = []
        real = cli.campaign

        def capture(*args, **kwargs):
            result = real(*args, **kwargs)
            found.append(result)
            self.checkpoint()
            return result

        cli.campaign = capture
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(list(argv))
        finally:
            cli.campaign = real
        return rc, out.getvalue(), tuple(found)

    def check(self, argv, out) -> list[tuple[str, str]]:
        rc, text, _ = out
        if rc != 0:
            return [("output", f"exit code {rc}")]
        if self.reference is None:
            self.reference = text
        problems = []
        if text != self.reference:
            problems.append(("output", "canonical JSON differs from the first op's"))
        results = json.loads(text)["results"]
        best = {row["objective"]: row["best_value"] for row in results["campaigns"]}
        for label, value in self.expected.items():
            if label not in best or abs(best[label] - value) > VALUE_TOL:
                problems.append(("output", f"campaign {label}: {best.get(label)!r}, expected {value}"))
        if results["closed_form_oracle"]["max_delta"] > DET_TOL:
            problems.append(("output", "closed-form oracle exceeds its tolerance"))
        if results["coefficient_map_oracle"]["max_delta"] > MAP_TOL:
            problems.append(("output", "coefficient-map oracle exceeds its tolerance"))
        for row in results["membership"]:
            problems += verdict_problem(row["function"], row["radii"], cli.DEFAULT_SAMPLES,
                                        row["max_defect"])
        return problems

    def counts(self, pairs) -> dict:
        counts = campaign_counts([r for _, (_, _, found) in pairs for r in found])
        counts["class_u.membership_wrong_verdicts"] = wrong_verdicts(self, pairs)
        return counts


class SearchWide:
    """One shallow screening campaign per op, cycling over all 14 objectives."""

    name = "search_wide"
    why = ("shallow campaigns (200 restarts, 32 proposals each) where per-restart set-up is a "
           "third of the time; covers H2,2, H2,3 and zero-mode objectives the report never runs")
    objectives = tuple(search.Objective(det, mode) for det in IDS for mode in ("free", "zero"))
    cycle = len(objectives)
    restarts = 200
    refine_budget = 32

    def __init__(self):
        self.witness = {}

    def make_input(self, seed: int, i: int):
        campaign_seed = int(np.random.default_rng([seed, i]).integers(2**32))
        config = search.SearchConfig(seed=campaign_seed, restarts=self.restarts,
                                     refine_budget=self.refine_budget)
        return self.objectives[i % self.cycle], config

    def run(self, inp):
        objective, config = inp
        return search.campaign(objective, config)

    def check(self, inp, result) -> list[tuple[str, str]]:
        objective, config = inp
        label = f"{objective.label} seed={config.seed}"
        problems = []
        window = functionals.CoefficientWindow(result.best_window)
        official = abs(functionals.closed_form(window, objective.det))
        if abs(official - result.best_value) > VALUE_TOL:
            problems.append(("output", f"{label}: window route {official!r} vs {result.best_value!r}"))
        if not class_u.schwarz_feasible(result.best_point.schwarz).feasible:
            problems.append(("output", f"{label}: best point outside the region"))
        if objective not in self.witness:
            self.witness[objective] = search.catalog_witness(objective)[1]
        if result.best_value < self.witness[objective] - VALUE_TOL:
            problems.append(("output", f"{label}: best {result.best_value!r} below the catalog witness"))
        return problems

    def counts(self, pairs) -> dict:
        counts = campaign_counts([result for _, result in pairs])
        counts["class_u.membership_wrong_verdicts"] = 0
        return counts


class Verify:
    """The window/object routes of functionals, class_u and series, plus one membership circle."""

    name = "verify"
    why = ("random windows and parameter points through the public window/object routes the "
           "search hot loop bypasses, and membership circles out to r = 1-1e-6; search stays idle")
    windows = 50
    points = 50
    samples = 512
    functions = class_u.CATALOG_NAMES + ("z+2z3",)
    radii = (0.5, 0.7, 0.9, 0.99, 1 - 1e-4, 1 - 1e-5, 1 - 1e-6)
    circles = tuple(itertools.product(functions, radii))
    cycle = len(circles)

    def __init__(self):
        self.order = {}

    def make_input(self, seed: int, i: int):
        if seed not in self.order:
            self.order[seed] = np.random.default_rng([seed]).permutation(self.cycle)
        rng = np.random.default_rng([seed, i])
        windows = [tuple(complex(v) for v in _disc(rng, 5.0, 4)) for _ in range(self.windows)]
        points = region_points(rng, self.points)
        return windows, points, self.circles[self.order[seed][i % self.cycle]]

    def run(self, inp):
        windows, points, (name, r) = inp
        dets = []
        for coeffs in windows:
            w = functionals.CoefficientWindow((1.0, *coeffs))
            dets.append(tuple((functionals.closed_form(w, d), functionals.det_value(w, d))
                              for d in IDS))
        maps = []
        for a2, c1, c2, c3 in points:
            pt = class_u.UParamPoint(a2, class_u.SchwarzParams(c1, c2, c3))
            direct = class_u.u_coefficients(pt, 5).a
            via = series.series_reciprocal(series.TruncatedSeries((1.0, -a2, -c1, -c2, -c3)))
            maps.append((direct, via.coeffs))
        defect = class_u.membership_max_defect(class_u.named_evaluator(name), (r,), self.samples)
        return dets, maps, defect

    def check(self, inp, out) -> list[tuple[str, str]]:
        _, _, (name, r) = inp
        dets, maps, defect = out
        problems = []
        worst = max(abs(cf - dv) for row in dets for cf, dv in row)
        if worst > DET_TOL:
            problems.append(("output", f"closed form and determinant differ by {worst!r}"))
        worst = max(abs(x - y) for direct, via in maps for x, y in zip(direct, via))
        if worst > MAP_TOL:
            problems.append(("output", f"coefficient map and series differ by {worst!r}"))
        return problems + verdict_problem(name, (r,), self.samples, defect.max_defect)

    def counts(self, pairs) -> dict:
        return {"search.evaluations": 0, "search.unseeded_hits": 0,
                "search.unseeded_restarts": 0,
                "class_u.membership_wrong_verdicts": wrong_verdicts(self, pairs)}


WORKLOADS = {w.name: w for w in (Report, SearchWide, Verify)}

#: Small commands run through cli.main before timing; they touch every module.
WARM_UP = (
    ("search", "--objective", "T2,2", "--starts", "2", "--budget", "16"),
    ("bounds", "--all"),
    ("membership", "--function", "f1", "--radius", "0.5", "--samples", "8"),
    ("eval", "--function", "f1", "--det", "T3,3"),
)


def quiet_cli(argv) -> int:
    """cli.main with its document discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def warm_up() -> None:
    for argv in WARM_UP:
        quiet_cli(argv)
