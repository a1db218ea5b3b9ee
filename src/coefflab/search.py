"""Seeded multi-start maximization of determinant moduli over the parameter
region.

The region searched is the necessary-conditions box (|a2| <= 2 plus the three
c-inequalities) intersected with the class coefficient caps |a3| <= 3,
|a4| <= 4, |a5| <= 5 from the ledger.  The caps matter: without them the box
admits windows no class member can produce (for example a2 = 2, c1 = 1 gives
|a3| = 5) and the searched suprema would drift above the published sharp
values.  Everything found here is still relaxation evidence, not a
membership proof.

A search point is the list [a2, c1, c2, c3] of complex parameters.  Each
restart is one coordinate pattern search with a fixed schedule: the step
starts at STEP_INIT and halves after every sweep without an acceptance, until
it drops below STEP_MIN or the restart's proposal budget is spent.  Each
proposal moves one real or imaginary part, is pulled back by the |a2| clamp
and class_u.project_coefficients (the package's one projection), and is
scored only if _capped_quintet (the one cap check, shared with the sampler
and the start check) accepts it.

A campaign evaluates at most restarts * (refine_budget + 1) points over its
sampled restarts (each scores its start and then up to refine_budget
proposals); that product may not exceed EVAL_CAP.

Determinism contract: restart k draws from an RNG stream derived only from
(seed, k), acceptance inside a restart is sequential and tie-free, and the
cross-restart reduction (max value, then lowest restart index) is order
independent, so results are bit-identical no matter how restarts are
scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bound_calculus import THEOREM_IDS, constant, theorem_chain
from .class_u import (
    A2_RADIUS,
    FEASIBILITY_TOL,
    CrossCheckFailed,
    SchwarzParams,
    UParamPoint,
    c2_limit_abs,
    c3_limit_abs,
    catalog,
    CATALOG_NAMES,
    coefficient_quintet,
    project_coefficients,
    schwarz_feasible,
    u_coefficients,
)
from .functionals import DeterminantId, closed_form, closed_form_function

#: Hard cap on restarts * (refine_budget + 1), the evaluations of a campaign's
#: sampled restarts.
EVAL_CAP = 10_000_000

#: Pattern-search schedule: the first step, halved down to the last one.
STEP_INIT = 0.25
STEP_MIN = 1e-7

#: Class coefficient caps on |a3|, |a4|, |a5| from the ledger, with the feasibility slack.
_CAP3, _CAP4, _CAP5 = (constant(f"U.a{k}max").value + FEASIBILITY_TOL for k in (3, 4, 5))

A2_MODES = ("free", "zero")

#: Campaign seeds used by the standard report and the acceptance suite.
DOCUMENTED_SEEDS: dict[str, int] = {
    "T2,2|free": 42,
    "T2,3|free": 43,
    "T3,1|free": 44,
    "T3,2|free": 45,
    "T3,2|zero": 7,
    "T3,3|free": 46,
}


class InfeasibleStart(ValueError):
    """refine() was handed a start outside the search region."""


@dataclass(frozen=True)
class Objective:
    """What to maximize: |det| over the region, with a2 free or pinned to 0."""

    det: DeterminantId
    a2_mode: str = "free"

    def __post_init__(self) -> None:
        closed_form_function(self.det)  # raises UnsupportedId outside the table
        if self.a2_mode not in A2_MODES:
            raise ValueError(f"a2_mode must be one of {A2_MODES}, got {self.a2_mode!r}")

    @property
    def label(self) -> str:
        return f"{self.det}|{self.a2_mode}"


@dataclass(frozen=True)
class SearchConfig:
    seed: int
    restarts: int = 200
    refine_budget: int = 20_000

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.refine_budget < 0:
            raise ValueError(f"refine_budget must be >= 0, got {self.refine_budget}")


@dataclass(frozen=True)
class SearchResult:
    best_value: float
    best_point: UParamPoint
    best_window: tuple[complex, ...]
    per_restart: tuple[tuple[int, float], ...]
    evaluations_used: int


def _capped_quintet(
    a2: complex, c1: complex, c2: complex, c3: complex
) -> tuple[complex, complex, complex] | None:
    """(a3, a4, a5) of the point, or None when one of them breaks its class cap."""
    a3, a4, a5 = coefficient_quintet(a2, c1, c2, c3)
    if abs(a3) > _CAP3 or abs(a4) > _CAP4 or abs(a5) > _CAP5:
        return None
    return a3, a4, a5


def _draw_disc(rng: np.random.Generator, radius: float) -> complex:
    # Area-uniform: radius scaled by sqrt of a uniform draw.
    r = radius * math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    return complex(r * math.cos(theta), r * math.sin(theta))


def sample_point(rng: np.random.Generator, a2_mode: str = "free") -> UParamPoint:
    """Draw a region point: a2 on its disc (skipped in zero mode), then c1,
    then c2 and c3 on the discs the earlier draws leave open.

    Draws violating a class coefficient cap are rejected and redrawn from the
    same stream, which keeps the construction deterministic per stream.  In
    zero mode the caps can never bind, so the first draw is returned.
    """
    if a2_mode not in A2_MODES:
        raise ValueError(f"a2_mode must be one of {A2_MODES}, got {a2_mode!r}")
    for _ in range(100_000):
        a2 = _draw_disc(rng, A2_RADIUS) if a2_mode == "free" else 0j
        c1 = _draw_disc(rng, 1.0)
        c2 = _draw_disc(rng, c2_limit_abs(abs(c1)))
        c3 = _draw_disc(rng, c3_limit_abs(abs(c1), abs(c2)))
        if _capped_quintet(a2, c1, c2, c3) is not None:
            return UParamPoint(a2, SchwarzParams(c1, c2, c3))
    raise RuntimeError("sampler failed to find a cap-respecting point")  # pragma: no cover


def _repair(y: list[complex], free: bool) -> None:
    """Pull a proposal [a2, c1, c2, c3] back into the region: the |a2| <= 2
    clamp (free mode only) and class_u.project_coefficients.  Mutates y.
    """
    if free:
        a2 = y[0]
        m = math.hypot(a2.real, a2.imag)
        if m > A2_RADIUS:
            s = A2_RADIUS / m
            y[0] = complex(a2.real * s, a2.imag * s)
    y[1], y[2], y[3] = project_coefficients(y[1], y[2], y[3])


#: (coordinate, axis) of each move: the real (0) and then the imaginary (1)
#: axis of a2, c1, c2, c3.  Zero mode skips a2's two moves.
_MOVES = tuple((i, axis) for i in range(4) for axis in (0, 1))


def refine(
    objective: Objective, start: UParamPoint, budget: int = SearchConfig.refine_budget
) -> tuple[UParamPoint, float]:
    """Climb from a feasible start; returns (point, value), value >= start value.

    With budget 0 the start is simply evaluated and returned.
    """
    pt, val, _ = _refine_counted(objective, start, budget)
    return pt, val


def _refine_counted(
    objective: Objective, start: UParamPoint, budget: int
) -> tuple[UParamPoint, float, int]:
    """One restart: coordinate pattern search with strict-increase acceptance.

    Tries +-step along each live move of the state [a2, c1, c2, c3]
    (repairing each proposal first), halves the step after any full sweep
    without an acceptance, and stops below STEP_MIN or once `budget`
    proposals have been scored.  Returns the final point, its value, and the
    evaluation count (start included).
    """
    p = start.schwarz
    if not schwarz_feasible(p).feasible:
        raise InfeasibleStart(f"start violates the region inequalities: {p}")
    if objective.a2_mode == "zero" and abs(start.a2) > FEASIBILITY_TOL:
        raise InfeasibleStart(f"zero-mode start needs a2 = 0, got a2 = {start.a2}")
    if _capped_quintet(start.a2, p.c1, p.c2, p.c3) is None:
        raise InfeasibleStart("start violates a class coefficient cap")
    fn = closed_form_function(objective.det)

    def value(y: list[complex]) -> float:
        # -1.0 marks a cap-rejected point, which is never accepted
        quintet = _capped_quintet(*y)
        return -1.0 if quintet is None else abs(fn(y[0], *quintet))

    free = objective.a2_mode == "free"
    moves = _MOVES if free else _MOVES[2:]
    y = [start.a2, p.c1, p.c2, p.c3]
    fx = value(y)
    evals = 1  # the start, then one per proposal
    step = STEP_INIT
    while step >= STEP_MIN and evals <= budget:
        improved = False
        # The untouched part of each delta is -0.0, and x + -0.0 is x bit for
        # bit (signed zeros included), so a move changes exactly one float.
        deltas = (
            (complex(step, -0.0), complex(-step, -0.0)),
            (complex(-0.0, step), complex(-0.0, -step)),
        )
        for i, axis in moves:
            for delta in deltas[axis]:
                if evals > budget:
                    break
                cand = list(y)
                cand[i] += delta
                _repair(cand, free)
                fy = value(cand)
                evals += 1
                if fy > fx:
                    y, fx = cand, fy
                    improved = True
                    break
        if not improved:
            step *= 0.5
    return UParamPoint(y[0], SchwarzParams(*y[1:])), fx, evals


def _catalog_entries(objective: Objective):
    """(name, entry) of each catalog entry in the objective's a2 mode: all of
    them when a2 is free, those with a2 = 0 in zero mode.
    """
    for name in CATALOG_NAMES:
        entry = catalog(name)
        if objective.a2_mode == "free" or abs(entry.param.a2) <= FEASIBILITY_TOL:
            yield name, entry


def witness_starts(objective: Objective) -> tuple[tuple[str, UParamPoint], ...]:
    """Catalog parameter points compatible with the objective's a2 mode.

    These seed the deterministic leading chains of every campaign, which is
    what guarantees best_value never falls below a known attainment.
    """
    return tuple((name, entry.param) for name, entry in _catalog_entries(objective))


def campaign(objective: Objective, config: SearchConfig) -> SearchResult:
    """Run witness-seeded chains plus independent seeded restarts; keep the best.

    Catalog witnesses run first under negative restart indices (-W..-1), so
    sharp attainments such as the |T(2,2)| = 13 point are always in the pool;
    the cfg.restarts sampled chains follow at indices 0..restarts-1.  Ties
    keep the lowest index.  The winner is re-evaluated through the public
    window route as a final consistency check against the fast path; a
    disagreement raises CrossCheckFailed.
    """
    evals = config.restarts * (config.refine_budget + 1)
    if evals > EVAL_CAP:
        raise ValueError(
            f"restarts * (refine_budget + 1) = {evals} exceeds the evaluation cap {EVAL_CAP}"
        )
    seed = config.seed & 0xFFFFFFFFFFFFFFFF
    best_val = -1.0
    best_pt: UParamPoint | None = None
    per: list[tuple[int, float]] = []
    total = 0
    witnesses = witness_starts(objective)
    for k in range(-len(witnesses), config.restarts):
        if k < 0:
            start = witnesses[k][1]  # witness j runs as k = j - W
        else:
            rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
            start = sample_point(rng, objective.a2_mode)
        pt, val, used = _refine_counted(objective, start, config.refine_budget)
        total += used
        per.append((k, val))
        if val > best_val:
            best_val, best_pt = val, pt

    window = u_coefficients(best_pt, 5)
    official = abs(closed_form(window, objective.det))
    if not abs(official - best_val) <= 1e-12:
        raise CrossCheckFailed(f"fast path and window route disagree: {best_val} vs {official}")
    return SearchResult(
        best_value=best_val,
        best_point=best_pt,
        best_window=window.a,
        per_restart=tuple(per),
        evaluations_used=total,
    )


# ---------------------------------------------------------------------------
# Context for reporting: which published bound and which catalog witness
# corresponds to an objective.
# ---------------------------------------------------------------------------

_LEDGER_BY_OBJECTIVE = {
    ("H", 2, 2, "free"): "U.H22",
    ("H", 2, 2, "zero"): "U.H22",
    ("H", 2, 3, "free"): "U.H23",
    ("H", 2, 3, "zero"): "U.H23_a2zero",
}


def objective_reference(objective: Objective) -> tuple[str, str, float]:
    """(kind, id, value) of the bound this objective is compared against.

    kind is 'chain' (the class-U chain for the same determinant and a2 mode)
    or 'ledger' (bare constant, for the Hankel objectives, which have no chain).
    """
    key = (*objective.det.key, objective.a2_mode)
    if key in _LEDGER_BY_OBJECTIVE:
        tid = _LEDGER_BY_OBJECTIVE[key]
        return ("ledger", tid, constant(tid).value)
    det, a2_zero = str(objective.det), objective.a2_mode == "zero"
    chain = next(
        ch
        for ch in map(theorem_chain, THEOREM_IDS)
        if ch.function_class == "U" and ch.determinant == det and ch.a2_zero == a2_zero
    )
    return ("chain", chain.theorem_id, chain.computed_value)


def catalog_witness(objective: Objective) -> tuple[str, float]:
    """Best catalog attainment of the objective (zero mode filters to a2 = 0)."""
    best_name, best_val = "", -1.0
    for name, entry in _catalog_entries(objective):
        val = abs(closed_form(entry.window, objective.det))
        if val > best_val:
            best_name, best_val = name, val
    return best_name, best_val
