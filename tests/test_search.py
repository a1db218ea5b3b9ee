"""Sampler, refiner, and campaign determinism on small configurations."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import coefflab.search as search
from coefflab.class_u import (
    A2_RADIUS,
    CrossCheckFailed,
    SchwarzParams,
    UParamPoint,
    _C1_RADIUS,
    _c2_bound,
    _c3_bound,
    _point,
    _rows,
    coefficient_quintet,
    pull_back,
    sample_rows_per_stream,
    schwarz_feasible,
    within_caps,
)
from coefflab.functionals import (
    SUPPORTED_CLOSED_FORM_IDS,
    DeterminantId,
    UnsupportedId,
    closed_form_function,
)
from coefflab.search import (
    A2_MODES,
    DOCUMENTED_SEEDS,
    InfeasibleStart,
    Objective,
    SearchConfig,
    campaign,
    catalog_witness,
    objective_reference,
    refine,
    sample_point,
    witness_starts,
)

T22 = Objective(DeterminantId.parse("T2,2"))
F1_POINT = UParamPoint(2j, SchwarzParams(1, 0, 0))
T33 = Objective(DeterminantId.parse("T3,3"))
ALL_OBJECTIVES = [Objective(det, mode) for det in SUPPORTED_CLOSED_FORM_IDS for mode in A2_MODES]


def _draw_disc(rng, radius):
    # Area-uniform: radius scaled by sqrt of a uniform draw.
    r = radius * math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    return complex(r * math.cos(theta), r * math.sin(theta))


def sequential_sample_point(rng, a2_mode):
    """The sampler as a scalar loop, one attempt and one disc at a time on
    Python complex numbers: the oracle the array sampler is checked against
    bit for bit."""
    while True:
        a2 = _draw_disc(rng, A2_RADIUS) if a2_mode == "free" else 0j
        c1 = _draw_disc(rng, _C1_RADIUS)
        c2 = _draw_disc(rng, np.maximum(_c2_bound(abs(c1)), 0.0))
        c3 = _draw_disc(rng, np.maximum(_c3_bound(abs(c1), abs(c2)), 0.0))
        if within_caps(*coefficient_quintet(a2, c1, c2, c3)):
            return UParamPoint(a2, SchwarzParams(c1, c2, c3))


def sequential_climb(objective, start, budget):
    """One restart as a plain first-improvement loop: the oracle the lockstep
    engine is checked against; (point as 8 floats, value, evaluations with
    the start), see counted_climb."""
    return counted_climb(objective, start, budget)[:3]


def counted_climb(objective, start, budget):
    """sequential_climb, also counting the moves it accepts.

    It starts from a row of 8 floats and scores one proposal at a time, on
    length-1 arrays, through the package's projection (class_u.pull_back)
    and value kernel, and returns (point as 8 floats, value, evaluations with
    the start, acceptances).
    """
    fn = closed_form_function(objective.det)
    y = start.reshape(1, 8).copy()
    fy = search._values(y, fn)[0]
    evals, accepted = 1, 0
    step = search.STEP_INIT
    while step >= search.STEP_MIN and evals <= budget:
        improved = False
        for slot in range(0 if objective.a2_mode == "free" else 2, 8):
            for sign in (1.0, -1.0):
                if evals > budget:
                    break
                cand = y.copy()
                cand[0, slot] += sign * step
                pull_back(cand.view(complex))
                fc = search._values(cand, fn)[0]
                evals += 1
                if fc > fy:
                    y, fy, improved = cand, fc, True
                    accepted += 1
                    break
        if not improved:
            step *= 0.5
    return y[0], fy, evals, accepted


def campaign_starts(objective, config):
    """The starts of a campaign's chains, in restart-index order, as rows of
    8 floats; restart k's from the sequential sampler on its own stream."""
    starts = [pt for _, pt in witness_starts(objective)]
    for k in range(config.restarts):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, k]))
        starts.append(sequential_sample_point(rng, objective.a2_mode))
    return _rows(starts)


class TestObjective:
    def test_label(self):
        assert T22.label == "T2,2|free"
        assert Objective(DeterminantId.parse("T3,2"), "zero").label == "T3,2|zero"

    def test_rejects_unsupported_determinant(self):
        with pytest.raises(UnsupportedId):
            Objective(DeterminantId("T", 4, 1))

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            Objective(DeterminantId.parse("T2,2"), "pinned")


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"restarts": 0},
            {"refine_budget": -1},
            {"refine_budget": 2.5},
            {"restarts": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(seed=1, **kwargs)

    @pytest.mark.parametrize("seed", [-1, 2**64, True, np.True_],
                             ids=["-1", "2**64", "True", "numpy-True"])
    def test_seed_outside_its_range_rejected(self, seed):
        # -1 and 2**64 - 1 used to run the same campaign under two printed seeds
        with pytest.raises(ValueError, match="seed must be"):
            SearchConfig(seed=seed)

    def test_seed_range_ends(self):
        cfg = SearchConfig(seed=0, restarts=1, refine_budget=0)
        top = SearchConfig(seed=2**64 - 1, restarts=1, refine_budget=0)
        assert campaign(T22, top).per_restart != campaign(T22, cfg).per_restart

    @pytest.mark.parametrize("field", ["step_init", "step_min"])
    def test_step_schedule_is_not_a_setting(self, field):
        with pytest.raises(TypeError):
            SearchConfig(seed=1, **{field: 0.1})

    def test_numpy_integer_seed_runs(self):
        config = SearchConfig(seed=np.int64(3), restarts=2, refine_budget=10)
        assert type(config.seed) is int
        assert campaign(T22, config) == campaign(T22, SearchConfig(seed=3, restarts=2,
                                                                   refine_budget=10))


class TestSampler:
    def test_deterministic(self):
        a = sample_point(np.random.default_rng(np.random.SeedSequence([5, 0])), "free")
        b = sample_point(np.random.default_rng(np.random.SeedSequence([5, 0])), "free")
        assert a == b

    def test_zero_mode_pins_a2(self):
        rng = np.random.default_rng(3)
        assert all(sample_point(rng, "zero").a2 == 0 for _ in range(50))

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="a2_mode"):
            sample_point(np.random.default_rng(0), "pinned")

    @pytest.mark.parametrize("mode", A2_MODES)
    def test_one_stream_draws_match_the_oracle(self, mode):
        # a Generator listed n times gives the points of n sequential draws,
        # bit for bit though not in order, and is left where those draws leave it
        for n in (0, 1, 2, 1500):
            rng, ref = np.random.default_rng([13, n]), np.random.default_rng([13, n])
            rows = sample_rows_per_stream([rng] * n, mode)
            want = _rows([sequential_sample_point(ref, mode) for _ in range(n)]).reshape(n, 8)
            assert rows.shape == (n, 8)
            assert sorted(r.tobytes() for r in rows) == sorted(r.tobytes() for r in want)
            assert rng.random() == ref.random()
        rng, ref = np.random.default_rng(14), np.random.default_rng(14)
        assert [sample_point(rng, mode) for _ in range(20)] == [
            sequential_sample_point(ref, mode) for _ in range(20)]
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("mode", A2_MODES)
    def test_per_stream_draws_match_campaign_starts(self, mode):
        objective = Objective(DeterminantId.parse("T3,2"), mode)
        config = SearchConfig(seed=21, restarts=700)
        rows = sample_rows_per_stream(
            [np.random.default_rng([config.seed, k]) for k in range(config.restarts)], mode)
        skip = len(witness_starts(objective))
        assert rows.tobytes() == campaign_starts(objective, config)[skip:].tobytes()
        assert sample_rows_per_stream([], mode).shape == (0, 8)

    def test_draws_feasible_and_capped(self):
        # 10^4 draws per a2 mode through the array sampler campaigns run: all
        # pass the region inequalities, and the windows they induce (through
        # the series route, not the sampler's coefficient map) respect the
        # caps |a3| <= 3, |a4| <= 4, |a5| <= 5; campaigns run their draws
        # unchecked, so this is what covers them
        from coefflab.class_u import u_coefficients

        for mode in A2_MODES:
            rows = sample_rows_per_stream([np.random.default_rng(11)] * 10_000, mode)
            top = np.zeros(3)
            for a2, c1, c2, c3 in rows.view(complex).tolist():
                pt = UParamPoint(a2, SchwarzParams(c1, c2, c3))
                assert schwarz_feasible(pt.schwarz).feasible
                assert abs(pt.a2) <= 2.0 + 1e-12 and (mode == "free" or pt.a2 == 0)
                w = u_coefficients(pt, 5)
                top = np.maximum(top, [abs(w.coeff(k)) for k in (3, 4, 5)])
            assert (top <= np.array([3.0, 4.0, 5.0]) + 1e-9).all(), (mode, top)


class TestRefine:
    def test_budget_zero_evaluates_start(self):
        pt, val = refine(T22, F1_POINT, budget=0)
        assert pt == F1_POINT
        assert val == pytest.approx(13.0, abs=1e-12)

    def test_region_maximum_is_a_fixed_point(self):
        pt, val = refine(T22, F1_POINT, budget=20_000)
        assert val == pytest.approx(13.0, abs=1e-9)
        assert abs(pt.a2 - 2j) <= 1e-6
        assert abs(pt.schwarz.c1 - 1) <= 1e-6

    def test_monotone_from_interior(self):
        start = UParamPoint(1.9j, SchwarzParams(0.9, 0, 0))
        _, v0 = refine(T22, start, budget=0)
        _, v1 = refine(T22, start, budget=3000)
        assert v1 >= v0

    def test_infeasible_start(self):
        with pytest.raises(InfeasibleStart):
            refine(T22, UParamPoint(0, SchwarzParams(0.5, 0.5, 0)))

    def test_zero_mode_start_needs_zero_a2(self):
        obj = Objective(DeterminantId.parse("T2,2"), "zero")
        with pytest.raises(InfeasibleStart):
            refine(obj, UParamPoint(0.5, SchwarzParams(0, 0, 0)))
        # zero mode is a2 == 0 exactly: the climb never moves a2, so a start
        # 5e-13 off the slice would return a point off it
        obj = Objective(DeterminantId.parse("T3,2"), "zero")
        with pytest.raises(InfeasibleStart, match="a2 = 0"):
            refine(obj, UParamPoint(5e-13, SchwarzParams(0.3, 0.1, 0.05)), 2000)

    @pytest.mark.parametrize("budget", [-5, 2.5])
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be"):
            refine(T22, F1_POINT, budget)

    def test_cap_violating_start(self):
        # a2 = 2, c1 = 1 gives a3 = 5, outside the class cap
        with pytest.raises(InfeasibleStart):
            refine(T22, UParamPoint(2, SchwarzParams(1, 0, 0)))


class TestWitnesses:
    def test_free_mode_uses_whole_catalog(self):
        assert [n for n, _ in witness_starts(T22)] == [
            "identity", "f1", "f2", "f3", "f4", "koebe",
        ]

    def test_zero_mode_filters(self):
        obj = Objective(DeterminantId.parse("T3,2"), "zero")
        assert [n for n, _ in witness_starts(obj)] == ["identity", "f2", "f3", "f4"]

    @pytest.mark.parametrize("objective", ALL_OBJECTIVES, ids=lambda o: o.label)
    def test_every_witness_passes_the_entry_check(self, objective):
        # campaigns run their witness chains unchecked; refine checks its start
        for _, pt in witness_starts(objective):
            assert refine(objective, pt, 0)[0] == pt

    def test_catalog_witness_values(self):
        assert catalog_witness(T22) == ("f1", pytest.approx(13.0))
        obj = Objective(DeterminantId.parse("T3,2"), "zero")
        assert catalog_witness(obj) == ("f4", pytest.approx(0.25))
        obj = Objective(DeterminantId.parse("T3,1"), "zero")
        assert catalog_witness(obj) == ("f3", pytest.approx(2.0))


class TestReference:
    def test_chain_backed(self):
        assert objective_reference(T22) == ("chain", "thm1_i", pytest.approx(13.0))

    def test_ledger_backed(self):
        obj = Objective(DeterminantId.parse("H2,3"))
        assert objective_reference(obj) == ("ledger", "U.H23", pytest.approx(1.4946575))
        obj0 = Objective(DeterminantId.parse("H2,3"), "zero")
        assert objective_reference(obj0) == ("ledger", "U.H23_a2zero", 1.0)

    @pytest.mark.parametrize(("label", "kind", "ref_id"), [
        ("T2,2|free", "chain", "thm1_i"),
        ("T2,3|free", "chain", "thm1_ii"),
        ("T3,1|free", "chain", "thm1_iii"),
        ("T3,2|free", "chain", "thm1_iv"),
        ("T3,3|free", "chain", "thm1_v"),
        ("T2,2|zero", "chain", "thm2_i"),
        ("T2,3|zero", "chain", "thm2_ii"),
        ("T3,1|zero", "chain", "thm2_iii"),
        ("T3,2|zero", "chain", "thm2_iv"),
        ("T3,3|zero", "chain", "thm2_v"),
        ("H2,2|free", "ledger", "U.H22"),
        ("H2,2|zero", "ledger", "U.H22"),
        ("H2,3|free", "ledger", "U.H23"),
        ("H2,3|zero", "ledger", "U.H23_a2zero"),
    ])
    def test_every_objective(self, label, kind, ref_id):
        det_text, mode = label.split("|")
        assert objective_reference(Objective(DeterminantId.parse(det_text), mode))[:2] == (
            kind, ref_id)


class TestCampaign:
    def test_deterministic_rerun(self):
        cfg = SearchConfig(seed=12, restarts=8, refine_budget=1500)
        a = campaign(T22, cfg)
        b = campaign(T22, cfg)
        assert a.per_restart == b.per_restart
        assert a.best_value == b.best_value
        assert a.best_point == b.best_point

    def test_index_layout(self):
        cfg = SearchConfig(seed=12, restarts=8, refine_budget=500)
        res = campaign(T22, cfg)
        indices = [i for i, _ in res.per_restart]
        assert indices == list(range(-6, 8))

    def test_best_is_max_of_per_restart(self):
        res = campaign(T22, SearchConfig(seed=1, restarts=5, refine_budget=1000))
        assert res.best_value == max(v for _, v in res.per_restart)

    def test_stays_under_chain_and_over_witness(self):
        res = campaign(T22, SearchConfig(seed=2, restarts=5, refine_budget=2000))
        assert res.best_value <= 13.0 + 1e-6
        assert res.best_value >= 13.0 - 1e-9  # witness chain guarantees this

    def test_budget_zero_reports_witness_value(self):
        obj = Objective(DeterminantId.parse("T2,3"))
        res = campaign(obj, SearchConfig(seed=1, restarts=1, refine_budget=0))
        assert res.best_value == pytest.approx(25.0, abs=1e-12)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            campaign(T22, SearchConfig(seed=1, restarts=10_000, refine_budget=10_000))

    def test_cap_counts_start_evaluations(self, monkeypatch):
        # every restart scores its start, then up to refine_budget proposals
        monkeypatch.setattr(search, "EVAL_CAP", 10)
        campaign(T22, SearchConfig(seed=1, restarts=5, refine_budget=1))  # 5 * 2 = 10
        campaign(T22, SearchConfig(seed=1, restarts=10, refine_budget=0))  # 10 * 1 = 10
        with pytest.raises(ValueError, match="cap"):
            campaign(T22, SearchConfig(seed=1, restarts=6, refine_budget=1))  # 6 * 2 = 12

    def test_winner_recheck_raises(self, monkeypatch):
        real = search.closed_form
        monkeypatch.setattr(search, "closed_form", lambda w, det: real(w, det) + 1.0)
        with pytest.raises(CrossCheckFailed, match="disagree"):
            campaign(T22, SearchConfig(seed=1, restarts=1, refine_budget=0))

    def test_winner_outside_the_region_raises(self, monkeypatch):
        # without the pull-back T3,2's winner reads 84.00000000007762 at a
        # point that schwarz_feasible rejects; the exit check must catch it
        monkeypatch.setattr(search, "pull_back", lambda z: None)
        with pytest.raises(CrossCheckFailed, match="winner violates the region"):
            campaign(Objective(DeterminantId.parse("T3,2")),
                     SearchConfig(seed=1, restarts=5, refine_budget=2000))

    def test_winner_recheck_survives_python_O(self):
        # python -O strips assert statements; the re-check must still raise
        script = textwrap.dedent("""
            import coefflab.search as search
            from coefflab import CrossCheckFailed, DeterminantId, Objective, SearchConfig
            if __debug__:
                raise SystemExit("not running under -O")
            real = search.closed_form
            search.closed_form = lambda w, det: real(w, det) + 1.0
            try:
                search.campaign(Objective(DeterminantId.parse("T2,2")),
                                SearchConfig(seed=1, restarts=1, refine_budget=0))
            except CrossCheckFailed:
                raise SystemExit(0)
            raise SystemExit("campaign returned despite the disagreement")
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_documented_values_hold(self):
        # the six documented campaigns reach the sharp values to 1e-9
        sharp = {"T2,2|free": 13, "T2,3|free": 25, "T3,1|free": 24, "T3,2|free": 84,
                 "T3,2|zero": 0.25, "T3,3|free": 208}
        assert sharp.keys() == DOCUMENTED_SEEDS.keys()
        for label, seed in DOCUMENTED_SEEDS.items():
            det_text, mode = label.split("|")
            res = campaign(Objective(DeterminantId.parse(det_text), mode),
                           SearchConfig(seed=seed))
            assert abs(res.best_value - sharp[label]) <= 1e-9, label

    def test_documented_seed_labels_parse(self):
        for label in DOCUMENTED_SEEDS:
            det_text, mode = label.split("|")
            Objective(DeterminantId.parse(det_text), mode)  # must not raise


class TestLockstepEngine:
    """The lockstep engine against the sequential oracle, and the determinism
    contract of the search docstring."""

    # 0 and 1 stop before or inside the first sweep; 11/12/15/16/17 bracket
    # the 12-move (zero mode) and 16-move (free mode) sweeps; at 500 some
    # chains run out of budget and others finish their step schedule first.
    BUDGETS = (0, 1, 11, 12, 15, 16, 17, 500)

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("label", ["T3,3|free", "T3,2|zero"])
    def test_matches_sequential_oracle(self, label, budget):
        det, mode = label.split("|")
        objective = Objective(DeterminantId.parse(det), mode)
        config = SearchConfig(seed=5, restarts=4, refine_budget=budget)
        res = campaign(objective, config)
        runs = [sequential_climb(objective, s, budget)
                for s in campaign_starts(objective, config)]
        assert [v for _, v in res.per_restart] == [fy for _, fy, _ in runs]
        assert res.evaluations_used == sum(evals for _, _, evals in runs)
        x, fx, evals = search._climb(objective, campaign_starts(objective, config), budget)
        assert x.tobytes() == np.array([y for y, _, _ in runs]).tobytes()
        assert evals.tolist() == [e for _, _, e in runs]

    def test_oracle_covers_both_stopping_rules(self):
        # at budget 500 T3,3|free has chains cut by the budget (501
        # evaluations) and chains that end their step schedule first
        config = SearchConfig(seed=5, restarts=4, refine_budget=500)
        evals = [sequential_climb(T33, s, 500)[2] for s in campaign_starts(T33, config)]
        assert 501 in evals and min(evals) < 501

    @pytest.mark.parametrize("label", ["T3,3|free", "T3,2|zero"])
    def test_one_iteration_per_acceptance_or_halving(self, label, monkeypatch):
        # each lockstep iteration pulls back once and either takes a move or
        # halves the step, so a chain that ends by its step schedule takes
        # acceptances + H iterations; a sweep per iteration would take more
        halvings, step = 0, search.STEP_INIT
        while step >= search.STEP_MIN:
            step *= 0.5
            halvings += 1
        calls = []
        real = search.pull_back

        def counting(z):
            calls.append(z.shape)
            real(z)

        monkeypatch.setattr(search, "pull_back", counting)
        det, mode = label.split("|")
        objective = Objective(DeterminantId.parse(det), mode)
        budget = 5000
        for start in campaign_starts(objective, SearchConfig(seed=5, restarts=4)):
            _, _, evals, accepted = counted_climb(objective, start, budget)
            assert evals <= budget  # the chain ended by its step schedule
            calls.clear()
            search._climb(objective, start[None], budget)
            assert len(calls) == accepted + halvings

    @pytest.mark.parametrize("label", ["T2,3|free", "T3,1|zero"])
    def test_restart_results_do_not_depend_on_the_batch(self, label):
        det, mode = label.split("|")
        objective = Objective(DeterminantId.parse(det), mode)
        small = campaign(objective, SearchConfig(seed=9, restarts=4, refine_budget=800))
        large = campaign(objective, SearchConfig(seed=9, restarts=12, refine_budget=800))
        assert large.per_restart[:len(small.per_restart)] == small.per_restart
        starts = dict(zip((k for k, _ in large.per_restart),
                          campaign_starts(objective, SearchConfig(seed=9, restarts=12))))
        values = dict(large.per_restart)
        for k in (-1, 0, 7, 11):
            assert refine(objective, _point(starts[k]), 800)[1] == values[k]

    def test_blocking_does_not_change_results(self, monkeypatch):
        config = SearchConfig(seed=3, restarts=9, refine_budget=300)
        whole = campaign(T22, config)
        monkeypatch.setattr(search, "_BLOCK", 4)
        assert campaign(T22, config) == whole
