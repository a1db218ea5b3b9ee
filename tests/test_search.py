"""Sampler, refiner, and campaign determinism on small configurations."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import coefflab.search as search
from coefflab.class_u import CrossCheckFailed, SchwarzParams, UParamPoint, schwarz_feasible
from coefflab.functionals import DeterminantId, UnsupportedId
from coefflab.search import (
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
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(seed=1, **kwargs)

    @pytest.mark.parametrize("field", ["step_init", "step_min"])
    def test_step_schedule_is_not_a_setting(self, field):
        with pytest.raises(TypeError):
            SearchConfig(seed=1, **{field: 0.1})


class TestSampler:
    def test_deterministic(self):
        a = sample_point(np.random.default_rng(np.random.SeedSequence([5, 0])), "free")
        b = sample_point(np.random.default_rng(np.random.SeedSequence([5, 0])), "free")
        assert a == b

    def test_zero_mode_pins_a2(self):
        rng = np.random.default_rng(3)
        assert all(sample_point(rng, "zero").a2 == 0 for _ in range(50))

    def test_draws_feasible_and_capped(self):
        # 10^4 draws: all pass the region inequalities, and the windows they
        # induce respect the class coefficient caps used by the objective
        from coefflab.class_u import u_coefficients

        rng = np.random.default_rng(11)
        max_a3 = 0.0
        for _ in range(10_000):
            pt = sample_point(rng, "free")
            assert schwarz_feasible(pt.schwarz).feasible
            assert abs(pt.a2) <= 2.0 + 1e-12
            max_a3 = max(max_a3, abs(u_coefficients(pt, 5).coeff(3)))
        assert max_a3 <= 3.0 + 1e-9


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

    def test_documented_seed_labels_parse(self):
        for label in DOCUMENTED_SEEDS:
            det_text, mode = label.split("|")
            Objective(DeterminantId.parse(det_text), mode)  # must not raise
