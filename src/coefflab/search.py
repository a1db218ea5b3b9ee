"""Seeded multi-start maximization of determinant moduli over the parameter
region of class_u (the Schwarz-parameter inequalities and the class
coefficient caps).  Everything found here is relaxation evidence, not a
membership proof.  The region, its sampler (sample_point, re-exported here,
and the rejection loop _sample_rows, which draws a campaign's starts) and
its predicate (region_violation) live in class_u.

A search point is held as its complex row [a2, c1, c2, c3]; class_u's
_point and _rows convert between a row and a UParamPoint.  Each restart is
one chain of coordinate pattern search with first-improvement acceptance.
A sweep tries +step, then -step, on the real and then the imaginary part of
each entry in turn (zero mode skips a2); the first move that strictly
raises the value is taken, and the sweep goes on with the next part from
the new point.  The step starts at STEP_INIT, grows by 1.5 after
every accepted move, up to STEP_INIT, and halves after every sweep without
one (the expansion and contraction of generating set search), until it
drops below STEP_MIN or the chain's proposal budget is spent.  Each
proposal is pulled back into the region by class_u.pull_back (the
package's one projection), and is scored only if class_u.within_caps (the
one cap check) accepts it.  No point is checked inside the engine: a
campaign's starts lie in the region, catalog points by selection with
class_u.region_violation and sampler draws by construction, and campaigns
checks each winner with region_violation (CrossCheckFailed).

The chains of all the jobs of one campaigns() call (campaign runs one job)
share one lockstep pool of at most _BLOCK live chains, whose state (point,
value, step, place in the sweep, evaluations left) is held in numpy arrays.
Finished chains leave, and the next pending starts, drawn a block of _BLOCK
at a time in job order, take their slots; so memory stays bounded, and the
live set stays ordered by job, each objective's closed form running on one
slice of it.  Each iteration scores, in one vectorised pass, every move of
each live chain's sweep from its current point.  A chain tries them in
cyclic order from its position (the rest of its sweep, then the next sweep's
moves before the position, from the same point and step) and takes the first
improving one, as the sequential loop would; if none improves, a whole sweep
has failed and the step halves.  Tables indexed by the chain's place give
that order, the charge and the next place.  Moves after the taken one are
computed but never charged: a chain is charged for the moves it tries up to
the taken one, and for no more than budget + 1 evaluations in all, so
evaluations_used counts what the sequential loop evaluates.  A run takes
about as many iterations as its longest chain has acceptances plus step
halvings, plus those its start waited for a slot.  An iteration holds its
proposals entry-first, the form class_u.pull_back and _values take: four
contiguous planes z[0..3] (a2, c1, c2, c3) of shape (live chains, moves),
with their moduli m in four more.  A move changes one entry of its chain's
point, so each plane is filled by broadcasting its chains' entries and
moduli, taken once per chain, and then each move changes only its own
entry's column: +step or -step on its real or imaginary part, and that
entry's new np.hypot.  The proposals are pulled back with these shared
moduli, which equal np.hypot of the proposals' entries bit for bit.

Determinism contract: restart k draws its start from its own stream of
uniforms, class_u's stream (seed, k), which _sample_rows reads for a block
of restarts together in uint64 arrays, so its start depends only on
(seed, k).  Every array operation of the engine is elementwise, so a
chain's result does not depend on which chains share the pool, and the
cross-restart reduction (max value, then lowest restart index) is order
independent: results are bit-identical across reruns, restart counts, pool
sizes and the jobs run together.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bound_calculus import BoundChain, THEOREM_IDS, constant, theorem_chain
from .class_u import (
    CrossCheckFailed,
    UParamPoint,
    _check_a2_mode,
    _point,
    _rows,
    _sample_rows,
    catalog,
    CATALOG_NAMES,
    coefficient_quintet,
    pull_back,
    region_violation,
    sample_point,
    u_coefficients,
    within_caps,
)
from .functionals import DeterminantId, _integer, closed_form, closed_form_function

#: Hard cap on restarts * (refine_budget + 1), the evaluations of a campaign's
#: sampled restarts.
EVAL_CAP = 10_000_000

#: Pattern-search schedule: the first step, halved down to the last one.
STEP_INIT = 0.25
STEP_MIN = 1e-7

#: Campaign seeds used by the standard report and the acceptance suite.
DOCUMENTED_SEEDS: dict[str, int] = {
    "T2,2|free": 42,
    "T2,3|free": 43,
    "T3,1|free": 44,
    "T3,2|free": 45,
    "T3,2|zero": 7,
    "T3,3|free": 46,
}


@dataclass(frozen=True)
class Objective:
    """What to maximize: |det| over the region, with a2 free or pinned to 0."""

    det: DeterminantId
    a2_mode: str = "free"

    def __post_init__(self) -> None:
        closed_form_function(self.det)  # raises UnsupportedId outside the table
        _check_a2_mode(self.a2_mode)

    @property
    def label(self) -> str:
        return f"{self.det}|{self.a2_mode}"

    @classmethod
    def parse(cls, label: str) -> "Objective":
        """label's inverse ("T3,2|zero"); a malformed label gets the constructor's
        refusal: ValueError, or UnsupportedId for an id without a closed form."""
        det, _, a2_mode = label.partition("|")
        return cls(DeterminantId.parse(det), a2_mode)


@dataclass(frozen=True)
class SearchConfig:
    """One campaign's settings, printed by search and report through vars().
    seed: keys every sampled restart's stream of uniforms; an int, 0 <= seed < 2**64.
    restarts: chains started from sampler draws, after the catalog witnesses; an int >= 1.
    refine_budget: proposals each chain may score after its start; an int >= 0."""
    seed: int
    restarts: int = 200
    refine_budget: int = 20_000

    def __post_init__(self) -> None:
        for name, least, below in (("seed", 0, 2**64), ("restarts", 1, math.inf),
                                   ("refine_budget", 0, math.inf)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least, below))


@dataclass(frozen=True)
class SearchResult:
    """One campaign's outcome, printed by search through vars().
    best_value: the largest |det| at any chain's final point.
    best_point: the final point that reaches it, the lowest k's on a tie; in the region.
    best_window: the window a1..a5 of best_point, by u_coefficients.
    per_restart: (k, final value) of every chain in k order, k < 0 for catalog witnesses.
    evaluations_used: |det| evaluations of all chains, each chain's start included."""
    best_value: float
    best_point: UParamPoint
    best_window: tuple[complex, ...]
    per_restart: tuple[tuple[int, float], ...]
    evaluations_used: int


#: Each a2 mode's first code and moves per sweep (zero mode leaves out a2's four
#: moves); a chain's code is its mode's first code plus its place in its sweep.
_MODES = {"free": (0, 16), "zero": (16, 12)}

#: Most chains live in the lockstep pool at once, however many restarts a run
#: has: enough for report's six campaigns (1236 chains) to run nearly side by
#: side.  Each extra 512 live chains cost about 1.7 MB of traced peak memory.
_BLOCK = 768


def _code_tables():
    """Tables indexed by code.  OFFSET[code, c]: how many moves the chain
    tries before move c of a free sweep (zero mode's are its last 12): the
    rest of its sweep, then the next sweep's before its position; above 16
    outside its sweep.  With t the offset taken, 16 if none: CHARGE, t + 1 or
    the failed sweep's evaluations before the budget cut; NEXT, the code after."""
    offset = np.full((28, 16), np.iinfo(np.intp).max)
    charge, nxt = np.zeros((28, 17), np.int64), np.zeros((28, 17), np.intp)
    for base, w in _MODES.values():
        for p in range(w):
            tried = (p + np.arange(w)) % w  # the sweep's moves in the order tried
            offset[base + p, 16 - w + tried] = np.arange(w)
            charge[base + p] = [*range(1, 17), w + -p % w]
            nxt[base + p] = [*base + (np.resize(tried, 16) // 2 * 2 + 2) % w, base]
    return offset, charge, nxt


_OFFSET, _CHARGE, _NEXT = _code_tables()


def _values(z: np.ndarray, fn) -> np.ndarray:
    """|fn| at each point, z entry-first as class_u.pull_back takes it (z[0..3]
    are a2, c1, c2, c3 over any trailing shape; start rows pass rows.T);
    -1.0, which is never accepted, where the point breaks a class coefficient cap.
    """
    a3, a4, a5 = coefficient_quintet(*z)
    return np.where(within_caps(a3, a4, a5), np.abs(fn(z[0], a3, a4, a5)), -1.0)


def _pool(tasks):
    """Run the chains of every task, (objective, budget, blocks) with blocks
    an iterable of (first chain index, start rows), in one lockstep pool.
    Yields (task, chains, points, values, evaluations) as chains finish:
    their indices, final rows, values and evaluations (start included).
    """
    fns = [closed_form_function(o.det) for o, _, _ in tasks]
    feed = ((j, first, rows) for j, (_, _, blocks) in enumerate(tasks) for first, rows in blocks)
    # each chain's task, index, point, value, evaluations it may still make,
    # step and code; the first _BLOCK chains are live, the rest pending
    chains, fn = (np.empty(0, np.intp), np.empty(0, np.int64), np.empty((0, 4), complex),
                  np.empty(0), np.empty(0, np.int64), np.empty(0), np.empty(0, np.intp)), None
    while True:
        while len(chains[0]) < _BLOCK and (item := next(feed, None)):
            task, first, rows = item  # starts are drawn a block at a time, in task order
            (objective, budget, _), n = tasks[task], len(rows)
            chains, fn = tuple(map(np.concatenate, zip(chains, (
                np.full(n, task), np.arange(first, first + n), rows,
                _values(rows.T, fns[task]), np.full(n, budget),
                np.full(n, STEP_INIT), np.full(n, _MODES[objective.a2_mode][0]))))), None
        done = (chains[5] < STEP_MIN) | (chains[4] < 1)  # a pending chain only if budget 0
        if done.any():  # finished chains leave; the next pending ones take their slots
            out = [v[done] for v in chains[:5]]
            cuts = np.searchsorted(out[0], np.arange(len(tasks) + 1)).tolist()
            for j, (a, b) in enumerate(zip(cuts, cuts[1:])):
                if a < b:
                    yield j, out[1][a:b], out[2][a:b], out[3][a:b], tasks[j][1] + 1 - out[4][a:b]
            chains, fn = tuple(v[~done] for v in chains), None
            continue
        if not len(chains[0]):
            return
        task, _, px, pf, left, step, code = (v[:_BLOCK] for v in chains)
        if fn is None:  # the live set changed: its width, each task's rows, the proposal planes
            cuts = np.searchsorted(task, np.arange(len(tasks) + 1)).tolist()
            parts = [(j, slice(a, b)) for j, (a, b) in enumerate(zip(cuts, cuts[1:])) if a < b]
            width = max(_MODES[tasks[j][0].a2_mode][1] for j, _ in parts)
            offset, lead = _OFFSET[:, 16 - width:], 4 - width // 4
            fn = fns[parts[0][0]] if len(parts) == 1 else lambda *a: np.concatenate(
                [fns[j](*(v[rows] for v in a)) for j, rows in parts])
            # z[k, i, j]: entry k of chain i's proposal j, m[k, i, j] its modulus,
            # reused until the live set changes.  Move j changes entry lead + j // 4
            # alone, by +step and -step on its real part, then on its imaginary
            # part: moved[e, i, c], an einsum diagonal (a writable view, as dm is
            # of m), is z[lead + e, i, 4e + c], the entry column 4e + c moves
            z, m = np.empty((4, len(px), width), complex), np.empty((4, len(px), width))
            moved, dm = (np.einsum("eiec->eic", a.reshape(4, len(px), -1, 4)[lead:])
                         for a in (z, m))
            re, im = moved.real, moved.imag
        # every proposal starts as its chain's point, with its chain's moduli
        z[:] = px.T[:, :, None]
        m[:] = np.hypot(px.real, px.imag).T[:, :, None]
        re[..., 0] += step
        re[..., 1] -= step
        im[..., 2] += step
        im[..., 3] -= step
        np.hypot(re, im, out=dm)
        pull_back(z, m)
        val = _values(z, fn)
        key = np.where(val > pf[:, None], offset[code], 16)
        t = key.min(axis=1)  # the offset of the first improving move, 16 if none
        t[t >= left] = 16  # past the budget: the chain spends the rest of it on its sweep
        took = np.flatnonzero(t < 16)
        move = key[took].argmin(axis=1)
        px[took] = z[:, took, move].T
        pf[took] = val[took, move]
        left -= np.minimum(_CHARGE[code, t], left)
        # a move grows the step by 1.5 up to STEP_INIT; a whole sweep without one halves it
        step[:] = np.where(t < 16, np.minimum(1.5 * step, STEP_INIT), 0.5 * step)
        code[:] = _NEXT[code, t]


@functools.cache
def _catalog_entries(a2_mode: str) -> tuple:
    """(name, entry) of each catalog entry in the a2 mode's region (by
    region_violation): all of them when a2 is free, those with a2 = 0 in zero
    mode.  The catalog is fixed, so each mode's selection is made once.
    """
    entries = ((name, catalog(name)) for name in CATALOG_NAMES)
    return tuple((name, e) for name, e in entries if region_violation(e.param, a2_mode) is None)


def _starts(witnesses: np.ndarray, config: SearchConfig, a2_mode: str):
    """A campaign's (first chain index, start rows) in blocks of at most
    _BLOCK rows, drawn as the pool asks for them: the witnesses, then
    restart k's point from its stream for k = 0..restarts-1.
    """
    indices = range(-len(witnesses), config.restarts)  # witness j runs as k = j - W
    for lo in range(0, len(indices), _BLOCK):
        block = indices[lo:lo + _BLOCK]
        ks = np.arange(max(block.start, 0), block.stop)
        yield lo, np.concatenate([witnesses[lo:lo + _BLOCK],
                                  _sample_rows(config.seed, ks, a2_mode)])


def campaigns(jobs) -> list[SearchResult]:
    """Each (Objective, SearchConfig) job's campaign, in job order, with all
    of their chains in one lockstep pool.

    A campaign runs witness-seeded chains plus independent seeded restarts
    and keeps the best.  Catalog witnesses run first under negative restart
    indices (-W..-1), so sharp attainments such as the |T(2,2)| = 13 point
    are always in the pool; the sampled chains follow at indices
    0..restarts-1.  Ties keep the lowest index.  Each winner must lie in the
    search region and agree with the public window route, else
    CrossCheckFailed.  Every job is checked before any start is drawn: one
    whose parts are not an Objective and a SearchConfig, or whose restarts *
    (refine_budget + 1) exceeds EVAL_CAP, raises ValueError.
    """
    jobs = list(jobs)
    for objective, config in jobs:
        if not (isinstance(objective, Objective) and isinstance(config, SearchConfig)):
            raise ValueError(f"a job is (Objective, SearchConfig), got ({objective!r}, {config!r})")
        if (evals := config.restarts * (config.refine_budget + 1)) > EVAL_CAP:
            raise ValueError(f"restarts * (refine_budget + 1) = {evals} exceeds the "
                             f"evaluation cap {EVAL_CAP}")
    witnesses = [_rows(e.param for _, e in _catalog_entries(o.a2_mode)) for o, _ in jobs]
    values = [np.empty(len(w) + c.restarts) for w, (_, c) in zip(witnesses, jobs)]
    best, totals = [(-math.inf, 0, None)] * len(jobs), [0] * len(jobs)  # value, -chain, point
    for j, chains, x, fx, used in _pool([(o, c.refine_budget, _starts(w, c, o.a2_mode))
                                         for w, (o, c) in zip(witnesses, jobs)]):
        values[j][chains] = fx
        totals[j] += int(used.sum())
        i = int(np.argmax(fx))  # the first maximum: ties keep the lowest index
        best[j] = max(best[j], (float(fx[i]), -int(chains[i]), x[i]), key=lambda b: b[:2])
    results = []
    for (objective, config), w, vals, (best_val, _, row), total in zip(
            jobs, witnesses, values, best, totals):
        best_pt = _point(row)
        if (why := region_violation(best_pt, objective.a2_mode)) is not None:
            raise CrossCheckFailed(f"the winner {why}")
        window = u_coefficients(best_pt, 5)
        official = abs(closed_form(window, objective.det))
        if not abs(official - best_val) <= WINDOW_ROUTE_TOL:
            raise CrossCheckFailed(f"fast path and window route disagree: {best_val} vs {official}")
        results.append(SearchResult(best_val, best_pt, window.a, tuple(
            zip(range(-len(w), config.restarts), vals.tolist())), total))
    return results


def campaign(objective: Objective, config: SearchConfig) -> SearchResult:
    """One job's campaigns() result: see there."""
    return campaigns([(objective, config)])[0]


# ---------------------------------------------------------------------------
# Context for reporting: which published bound and which catalog witness
# corresponds to an objective, and the package's one rule for each flag of
# concern, which cli renders as given.
# ---------------------------------------------------------------------------

#: Tolerance for "campaign stayed at or under its reference bound".
REFERENCE_SLACK = 1e-6
#: Tolerance for "campaign best above a mismatched chain's published statement".
STATEMENT_SLACK = 1e-9
#: Tolerance campaigns allows between a winner's value and its window route.
WINDOW_ROUTE_TOL = 1e-12

_LEDGER_BY_OBJECTIVE = {Objective.parse(label): tid for label, tid in (
    ("H2,2|free", "U.H22"), ("H2,2|zero", "U.H22"),
    ("H2,3|free", "U.H23"), ("H2,3|zero", "U.H23_a2zero"))}


def chain_flags(chain: BoundChain) -> list[str]:
    """A bound chain's flags of concern: a recomputation that does not match
    its statement, and the chain's note."""
    flags = []
    if not chain.match:
        flags.append(f"{chain.theorem_id}: recomputed {chain.computed_value:.12g} "
                     f"vs stated {chain.stated_text} (delta {chain.delta:.12g})")
    if chain.note:
        flags.append(f"{chain.theorem_id}: {chain.note}")
    return flags


def catalog_witness(objective: Objective) -> tuple[str, float]:
    """Best catalog attainment over the entries campaigns start from; the first on a tie."""
    return max(((name, abs(closed_form(e.window, objective.det)))
                for name, e in _catalog_entries(objective.a2_mode)), key=lambda nv: nv[1])


def judge(objective: Objective, result: SearchResult) -> tuple[dict, list[str]]:
    """A campaign's judged fields, which search and report render as given:
    reference {kind, id, value}, witness (its catalog witness {name, value})
    and within_reference (its best within the reference, up to REFERENCE_SLACK);
    and its flags: a best above the reference, or above the published statement
    (up to STATEMENT_SLACK) of a chain that does not match it.  The reference
    is the U chain for the objective's determinant and a2 mode ('chain'), or a
    ledger constant for the Hankel objectives, which have no chain ('ledger')."""
    if (tid := _LEDGER_BY_OBJECTIVE.get(objective)) is not None:
        chain, reference = None, {"kind": "ledger", "id": tid, "value": constant(tid).value}
    else:
        det, a2_zero = str(objective.det), objective.a2_mode == "zero"
        chain = next(ch for ch in map(theorem_chain, THEOREM_IDS) if ch.function_class == "U"
                     and ch.determinant == det and ch.a2_zero == a2_zero)
        reference = {"kind": "chain", "id": chain.theorem_id, "value": chain.computed_value}
    best, ref_value = result.best_value, reference["value"]
    within = best <= ref_value + REFERENCE_SLACK
    flags = [] if within else [f"{objective.label}: campaign best {best:.12g} exceeds its "
                               f"reference {reference['id']} = {ref_value:.12g}"]
    if chain is not None and not chain.match and best > chain.stated_value + STATEMENT_SLACK:
        flags.append(f"{objective.label}: campaign best {best:.12g} exceeds the published "
                     f"statement {chain.stated_text} = {chain.stated_value:.12g} "
                     f"(recomputed chain allows {chain.computed_value:.12g})")
    name, value = catalog_witness(objective)
    return {"reference": reference, "witness": {"name": name, "value": value},
            "within_reference": within}, flags
