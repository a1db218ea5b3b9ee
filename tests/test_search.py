"""Sampler, engine, and campaign determinism on small configurations."""

import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import coefflab.search as search
from coefflab.class_u import (
    A2_MODES,
    A2_RADIUS,
    CrossCheckFailed,
    SchwarzParams,
    UParamPoint,
    _C1_RADIUS,
    _c2_bound,
    _c3_bound,
    _keys,
    _point,
    _region_rows,
    _rows,
    _sample_rows,
    _uniforms,
    coefficient_quintet,
    pull_back,
    region_violation,
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
    DOCUMENTED_SEEDS,
    Objective,
    SearchConfig,
    SearchResult,
    campaign,
    campaigns,
    REFERENCE_SLACK,
    STATEMENT_SLACK,
    catalog_witness,
    chain_flags,
    judge,
    sample_point,
)
from coefflab.bound_calculus import constant, theorem_chain
from test_class_u import EDGE_ROWS
from test_restart_stream import SplitMix64

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
    engine is checked against; (point as a complex row, value, evaluations
    with the start), see counted_climb."""
    return counted_climb(objective, start, budget)[:3]


def counted_climb(objective, start, budget):
    """sequential_climb, also counting the moves it accepts and its step halvings.

    It starts from a complex row [a2, c1, c2, c3] and scores one proposal at
    a time, on length-1 arrays, through the package's projection
    (class_u.pull_back) and value kernel.  It moves the row's own float slots
    [re a2, im a2, re c1, ..., im c3], through a float view, one at a time,
    +step then -step; each accepted move grows the step by 1.5, up to
    STEP_INIT, and each sweep without one halves it.  Returns (point as a
    complex row, value, evaluations with the start, acceptances, halvings).
    """
    fn = closed_form_function(objective.det)
    y = start.reshape(1, 4).copy()
    fy = search._values(y.T, fn)[0]
    evals, accepted, halved = 1, 0, 0
    step = search.STEP_INIT
    while step >= search.STEP_MIN and evals <= budget:
        improved = False
        for slot in range(0 if objective.a2_mode == "free" else 2, 8):
            for sign in (1.0, -1.0):
                if evals > budget:
                    break
                cand = y.copy()
                cand.view(float)[0, slot] += sign * step
                pull_back(cand.T, np.hypot(cand.real, cand.imag).T)
                fc = search._values(cand.T, fn)[0]
                evals += 1
                if fc > fy:
                    y, fy, improved = cand, fc, True
                    accepted += 1
                    step = min(1.5 * step, search.STEP_INIT)
                    break
        if not improved:
            step *= 0.5
            halved += 1
    return y[0], fy, evals, accepted, halved


def pooled(objective, starts, budget):
    """Every chain of one pool run of the engine from starts (complex rows),
    in start order: (final points, values, evaluations)."""
    x, fx = np.empty_like(starts), np.empty(len(starts))
    evals = np.zeros(len(starts), dtype=np.int64)
    for _, chains, xs, fs, es in search._pool([(objective, budget, [(0, starts)])]):
        x[chains], fx[chains], evals[chains] = xs, fs, es
    return x, fx, evals


def campaign_starts(objective, config):
    """The starts of a campaign's chains, in restart-index order, as complex
    rows; restart k's from the sequential sampler on its own stream, the
    scalar SplitMix64 oracle."""
    starts = [entry.param for _, entry in search._catalog_entries(objective.a2_mode)]
    for k in range(config.restarts):
        starts.append(sequential_sample_point(SplitMix64(config.seed, k), objective.a2_mode))
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

    @pytest.mark.parametrize("objective", ALL_OBJECTIVES, ids=lambda o: o.label)
    def test_parse_inverts_label(self, objective):
        assert Objective.parse(objective.label) == objective

    @pytest.mark.parametrize("label", ["T2,2", "T2,2|", "T2,2|half", "T2,2|free|zero", "X9|free"])
    def test_parse_refuses_malformed_labels(self, label):
        # the constructor's own refusals: an id DeterminantId.parse refuses,
        # or a mode the region does not have, the rest after a "|" included
        with pytest.raises(ValueError):
            Objective.parse(label)

    def test_parse_refuses_an_id_without_a_closed_form(self):
        with pytest.raises(UnsupportedId):
            Objective.parse("H3,1|free")


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
        # sample_point draws one key k with rng.integers and gives the point
        # the sequential sampler draws from stream (0, k), leaving rng where
        # that one call leaves it
        rng, ref = np.random.default_rng(14), np.random.default_rng(14)
        for _ in range(20):
            k = int(ref.integers(2**63))
            assert sample_point(rng, mode) == sequential_sample_point(SplitMix64(0, k), mode)
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("mode", A2_MODES)
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 1000])
    def test_one_call_per_round_is_one_call_per_attempt(self, mode, n):
        # each round draws the attempts of all rows still missing a point in
        # one _uniforms and one _region_rows call; that gives the rows of one
        # call per attempt of each row on its own, attempt r from uniforms
        # r w + 1 .. (r + 1) w of its stream
        width = 8 if mode == "free" else 6
        for seed in range(5):
            ks = np.arange(3 * n)[::3]  # keys that are not the row indices
            want = np.empty((n, 4), complex)
            for i, k in enumerate(ks.tolist()):
                for r in range(100):
                    got, ok = _region_rows(_uniforms(_keys(seed, np.array([k])), r * width, width))
                    if ok[0]:
                        break
                want[i] = got[0]
            assert _sample_rows(seed, ks, mode).tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", A2_MODES)
    def test_per_stream_draws_match_campaign_starts(self, mode):
        # the restart streams campaign draws from give, for every k, the point
        # the sequential sampler draws from restart k's scalar stream
        objective = Objective(DeterminantId.parse("T3,2"), mode)
        config = SearchConfig(seed=21, restarts=700)
        ks = np.arange(config.restarts)
        rows = _sample_rows(config.seed, ks, mode)
        skip = len(search._catalog_entries(objective.a2_mode))
        assert rows.tobytes() == campaign_starts(objective, config)[skip:].tobytes()
        assert _sample_rows(config.seed, ks[:0], mode).shape == (0, 4)

    def test_draws_feasible_and_capped(self):
        # 10^4 draws per a2 mode through the array sampler campaigns run: all
        # pass the region inequalities, and the windows they induce (through
        # the series route, not the sampler's coefficient map) respect the
        # caps |a3| <= 3, |a4| <= 4, |a5| <= 5; campaigns run their draws
        # unchecked, so this is what covers them
        from coefflab.class_u import u_coefficients

        for mode in A2_MODES:
            rows = _sample_rows(11, np.arange(10_000), mode)
            top = np.zeros(3)
            for a2, c1, c2, c3 in rows.tolist():
                pt = UParamPoint(a2, SchwarzParams(c1, c2, c3))
                assert schwarz_feasible(pt.schwarz).feasible
                assert abs(pt.a2) <= 2.0 + 1e-12 and (mode == "free" or pt.a2 == 0)
                w = u_coefficients(pt, 5)
                top = np.maximum(top, [abs(w.a[k - 1]) for k in (3, 4, 5)])
            assert (top <= np.array([3.0, 4.0, 5.0]) + 1e-9).all(), (mode, top)


class TestRefine:
    """One restart's climb, run as a one-chain pool."""

    def test_budget_zero_evaluates_start(self):
        x, fx, evals = pooled(T22, _rows([F1_POINT]), 0)
        assert _point(x[0]) == F1_POINT
        assert fx[0] == pytest.approx(13.0, abs=1e-12)
        assert evals.tolist() == [1]

    def test_region_maximum_is_a_fixed_point(self):
        x, fx, _ = pooled(T22, _rows([F1_POINT]), 20_000)
        pt = _point(x[0])
        assert fx[0] == pytest.approx(13.0, abs=1e-9)
        assert abs(pt.a2 - 2j) <= 1e-6
        assert abs(pt.schwarz.c1 - 1) <= 1e-6

    def test_monotone_from_interior(self):
        start = _rows([UParamPoint(1.9j, SchwarzParams(0.9, 0, 0))])
        v0 = pooled(T22, start, 0)[1][0]
        v1 = pooled(T22, start, 3000)[1][0]
        assert v1 >= v0


class TestWitnesses:
    def test_free_mode_uses_whole_catalog(self):
        assert [n for n, _ in search._catalog_entries("free")] == [
            "identity", "f1", "f2", "f3", "f4", "koebe",
        ]

    def test_zero_mode_filters(self):
        assert [n for n, _ in search._catalog_entries("zero")] == ["identity", "f2", "f3", "f4"]

    @pytest.mark.parametrize("mode", A2_MODES)
    def test_entries_outside_the_region_are_not_selected(self, mode, monkeypatch):
        # an a2 = 0 entry with |c2| = 0.9 > (1 - |c1|^2)/2 starts no chain in
        # either mode, though its a2 alone would pass zero mode's rule; the
        # selection is cached, so the patched catalog goes through the
        # uncached selector, which must see it: a copy of identity renamed
        # "inside" is selected
        select = search._catalog_entries.__wrapped__
        before = select(mode)
        assert search._catalog_entries(mode) == before
        outside = replace(search.catalog("identity"), name="outside",
                          param=UParamPoint(0, SchwarzParams(0, 0.9, 0)))
        inside = replace(search.catalog("identity"), name="inside")
        patched = {"outside": outside, "inside": inside}
        real = search.catalog
        monkeypatch.setattr(search, "CATALOG_NAMES", (*search.CATALOG_NAMES, *patched))
        monkeypatch.setattr(search, "catalog", lambda n: patched.get(n) or real(n))
        assert select(mode) == (*before, ("inside", inside))

    @pytest.mark.parametrize("objective", ALL_OBJECTIVES, ids=lambda o: o.label)
    def test_every_witness_passes_the_entry_check(self, objective):
        # campaigns run their witness chains unchecked, so each must lie in
        # the region of the objective's a2 mode; at budget 0 a chain is its start
        points = [entry.param for _, entry in search._catalog_entries(objective.a2_mode)]
        for pt in points:
            assert region_violation(pt, objective.a2_mode) is None, pt
        starts = _rows(points)
        assert pooled(objective, starts, 0)[0].tobytes() == starts.tobytes()

    def test_catalog_witness_values(self):
        assert catalog_witness(T22) == ("f1", pytest.approx(13.0))
        obj = Objective(DeterminantId.parse("T3,2"), "zero")
        assert catalog_witness(obj) == ("f4", pytest.approx(0.25))
        obj = Objective(DeterminantId.parse("T3,1"), "zero")
        assert catalog_witness(obj) == ("f3", pytest.approx(2.0))


def judged(objective, best_value):
    """judge's judged fields and flags on a constructed result whose best
    value is best_value."""
    return judge(objective, SearchResult(best_value, F1_POINT, (), (), 0))


def reference(objective):
    """judge's reference for an objective, which no best value bears on."""
    return judged(objective, 0.0)[0]["reference"]


def verdict(objective, best_value):
    """judge's within_reference and flags for a best value."""
    fields, flags = judged(objective, best_value)
    return fields["within_reference"], flags


class TestReference:
    def test_chain_backed(self):
        assert reference(T22) == {"kind": "chain", "id": "thm1_i", "value": pytest.approx(13.0)}

    def test_ledger_backed(self):
        obj = Objective(DeterminantId.parse("H2,3"))
        assert reference(obj) == {"kind": "ledger", "id": "U.H23",
                                  "value": pytest.approx(1.4946575)}
        obj0 = Objective(DeterminantId.parse("H2,3"), "zero")
        assert reference(obj0) == {"kind": "ledger", "id": "U.H23_a2zero", "value": 1.0}

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
        ref = reference(Objective.parse(label))
        assert (ref["kind"], ref["id"]) == (kind, ref_id)
        # a chain reference is the chain's recomputed value, a ledger one the constant's
        value = theorem_chain(ref_id).computed_value if kind == "chain" else constant(ref_id).value
        assert ref["value"] == value

    @pytest.mark.parametrize("det", SUPPORTED_CLOSED_FORM_IDS, ids=str)
    @pytest.mark.parametrize("mode", A2_MODES)
    def test_parsed_and_constructed_ids_agree(self, det, mode):
        # the ledger table is keyed by the objective itself
        parsed = Objective(DeterminantId.parse(str(det)), mode)
        built = Objective(DeterminantId(det.kind, det.q, det.n), mode)
        assert reference(parsed) == reference(built)


class TestJudge:
    def test_judged_fields(self):
        # the fields search and report render as given, and nothing else
        assert judged(T22, 13.0) == ({
            "reference": {"kind": "chain", "id": "thm1_i", "value": reference(T22)["value"]},
            "witness": {"name": "f1", "value": catalog_witness(T22)[1]},
            "within_reference": True}, [])

    def test_witness_is_catalog_witness(self):
        obj = Objective(DeterminantId.parse("T3,2"), "zero")
        assert judged(obj, 0.0)[0]["witness"] == {"name": "f4", "value": catalog_witness(obj)[1]}

    @pytest.mark.parametrize(("label", "text"), [
        ("T2,2|free", "campaign best 13.000001 exceeds its reference thm1_i = 13"),
        ("H2,3|free", "campaign best 1.4946585 exceeds its reference U.H23 = 1.4946575"),
    ])
    def test_reference_slack_edge(self, label, text):
        # a best of exactly reference + REFERENCE_SLACK is within, the next
        # float above it is not, and only that reads the reference flag
        obj = Objective.parse(label)
        edge = reference(obj)["value"] + REFERENCE_SLACK
        assert verdict(obj, edge) == (True, [])
        assert verdict(obj, math.nextafter(edge, math.inf)) == (False, [f"{label}: {text}"])

    def test_published_statement_edge(self):
        # thm2_iv recomputes to 1/4 against its statement 3/16: a best just
        # above 3/16 + STATEMENT_SLACK is flagged against the statement, one
        # at it is not
        obj = Objective(DeterminantId.parse("T3,2"), "zero")
        edge = 3 / 16 + STATEMENT_SLACK
        assert verdict(obj, edge) == (True, [])
        above = math.nextafter(edge, math.inf)
        assert verdict(obj, above) == (True, [
            "T3,2|zero: campaign best 0.187500001 exceeds the published statement "
            "3/16 = 0.1875 (recomputed chain allows 0.25)"])

    def test_a_best_above_both_reads_both_flags(self):
        obj = Objective(DeterminantId.parse("T3,2"), "zero")
        assert judged(obj, 0.5)[1] == [
            "T3,2|zero: campaign best 0.5 exceeds its reference thm2_iv = 0.25",
            "T3,2|zero: campaign best 0.5 exceeds the published statement 3/16 = 0.1875 "
            "(recomputed chain allows 0.25)"]

    def test_only_a_mismatched_chain_has_a_statement_flag(self):
        # thm1_i matches its statement 13, so a best within its reference
        # reads no flag; thm1_v recomputes to 211.95726 against its statement
        # 211.8771..., so a best between the two is within and still flagged
        assert verdict(T22, 13.0) == (True, [])
        assert verdict(T33, 211.9) == (True, [
            "T3,3|free: campaign best 211.9 exceeds the published statement "
            "211.8771... = 211.8771 (recomputed chain allows 211.95726)"])

    def test_chain_flags(self):
        assert chain_flags(theorem_chain("thm1_i")) == []
        flags = chain_flags(theorem_chain("thm2_iv"))
        assert flags[0] == "thm2_iv: recomputed 0.25 vs stated 3/16 (delta 0.0625)"
        assert flags[1:] == [f"thm2_iv: {theorem_chain('thm2_iv').note}"]


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
        monkeypatch.setattr(search, "pull_back", lambda z, m: None)
        with pytest.raises(CrossCheckFailed, match="winner violates the region"):
            campaign(Objective(DeterminantId.parse("T3,2")),
                     SearchConfig(seed=1, restarts=5, refine_budget=2000))

    def test_winner_check_agrees_with_the_engine_at_the_cap_edge(self):
        # points a few ulps either side of |a5| = 5 + FEASIBILITY_TOL, made by
        # setting c3 along a5's direction: scalar complex arithmetic reads
        # some of them as breaking the cap where the engine's arrays accept
        # them, and such a winner would raise CrossCheckFailed
        rng = np.random.default_rng(5)
        edge, ulp = 5.0 + 1e-12, math.ulp(5.0)
        points = []
        while len(points) < 350:
            p = sample_point(rng, "free")
            a2, c1, c2 = p.a2, p.schwarz.c1, p.schwarz.c2
            rest = 2.0 * a2 * c2 + c1 * c1 + 3.0 * a2 * a2 * c1 + a2 ** 4
            if not abs(edge - abs(rest)) <= 0.9 * _c3_bound(abs(c1), abs(c2)):
                continue  # c3 cannot reach the edge inside its disc
            for k in range(-3, 4):
                c3 = (edge + k * ulp) * rest / abs(rest) - rest
                a3, a4, _ = coefficient_quintet(a2, c1, c2, c3)
                if abs(a3) > 2.9 or abs(a4) > 3.9:
                    break  # another cap would decide
                points.append(UParamPoint(a2, SchwarzParams(c1, c2, c3)))
        planes = np.ascontiguousarray(_rows(points).T)  # as the engine builds them
        engine = search._values(planes, lambda a2, a3, a4, a5: a5) >= 0.0
        assert 0 < engine.sum() < len(points)
        assert [region_violation(p, "free") is None for p in points] == engine.tolist()

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

    def test_documented_values_hold(self, documented_campaigns):
        # the six documented campaigns reach the sharp values to 1e-9
        sharp = {"T2,2|free": 13, "T2,3|free": 25, "T3,1|free": 24, "T3,2|free": 84,
                 "T3,2|zero": 0.25, "T3,3|free": 208}
        assert list(sharp) == list(documented_campaigns) == list(DOCUMENTED_SEEDS)
        for label, (_, res) in documented_campaigns.items():
            assert abs(res.best_value - sharp[label]) <= 1e-9, label

    def test_documented_seed_labels_parse(self):
        for label in DOCUMENTED_SEEDS:
            assert Objective.parse(label).label == label


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
        objective = Objective.parse(label)
        config = SearchConfig(seed=5, restarts=4, refine_budget=budget)
        res = campaign(objective, config)
        runs = [sequential_climb(objective, s, budget)
                for s in campaign_starts(objective, config)]
        assert [v for _, v in res.per_restart] == [fy for _, fy, _ in runs]
        assert res.evaluations_used == sum(evals for _, _, evals in runs)
        x, fx, evals = pooled(objective, campaign_starts(objective, config), budget)
        assert x.tobytes() == np.array([y for y, _, _ in runs]).tobytes()
        assert fx.tolist() == [fy for _, fy, _ in runs]
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
        # acceptances + halvings iterations; a sweep per iteration would take more
        calls = []
        real = search.pull_back

        def counting(z, m):
            calls.append(z.shape)
            real(z, m)

        monkeypatch.setattr(search, "pull_back", counting)
        objective = Objective.parse(label)
        budget = 5000
        for start in campaign_starts(objective, SearchConfig(seed=5, restarts=4)):
            _, _, evals, accepted, halved = counted_climb(objective, start, budget)
            assert evals <= budget  # the chain ended by its step schedule
            calls.clear()
            pooled(objective, start[None], budget)
            assert len(calls) == accepted + halved

    @pytest.mark.parametrize("label", ["T2,3|free", "T3,1|zero"])
    def test_restart_results_do_not_depend_on_the_batch(self, label):
        objective = Objective.parse(label)
        small = campaign(objective, SearchConfig(seed=9, restarts=4, refine_budget=800))
        large = campaign(objective, SearchConfig(seed=9, restarts=12, refine_budget=800))
        assert large.per_restart[:len(small.per_restart)] == small.per_restart
        starts = dict(zip((k for k, _ in large.per_restart),
                          campaign_starts(objective, SearchConfig(seed=9, restarts=12))))
        values = dict(large.per_restart)
        for k in (-1, 0, 7, 11):
            assert pooled(objective, starts[k][None], 800)[1][0] == values[k]

    @pytest.mark.parametrize("modes, width", [(("free",), 16), (("zero",), 12),
                                              (("free", "zero"), 16)])
    def test_shared_moduli_equal_the_full_projection(self, modes, width, monkeypatch):
        # the engine takes each chain's moduli once and only the moved
        # entry's per proposal, on four contiguous entry planes; they must be
        # np.hypot of the proposals, and the pull-back with them that of the
        # full proposals, bit for bit
        rng = np.random.default_rng(23)
        edge = np.array(EDGE_ROWS, dtype=complex)
        far = 5.0 * (rng.normal(size=(20, 4)) + 1j * rng.normal(size=(20, 4)))
        tasks = []
        for mode in modes:
            pts = np.concatenate([edge, far])
            if mode == "zero":
                pts[pts[:, 0] != 0, 0] = 0
            rows = np.concatenate([pts, _sample_rows(23, np.arange(20), mode)])
            tasks.append((Objective(DeterminantId.parse("T3,2"), mode), 30, [(0, rows)]))
        seen = []
        real = search.pull_back

        def checking(z, m):
            full = z.copy()
            real(full, np.hypot(full.real, full.imag))
            same_moduli = m.tobytes() == np.hypot(z.real, z.imag).tobytes()
            real(z, m)
            planes = z.flags.c_contiguous and m.flags.c_contiguous and len(z) == 4
            seen.append((z.shape[-1], planes, same_moduli, z.tobytes() == full.tobytes()))

        monkeypatch.setattr(search, "pull_back", checking)
        for _ in search._pool(tasks):
            pass
        assert len(seen) > 1
        assert seen == [(width, True, True, True)] * len(seen)

    @pytest.mark.parametrize("det", SUPPORTED_CLOSED_FORM_IDS, ids=str)
    def test_values_on_contiguous_planes_equal_the_row_layout(self, det):
        # the engine scores contiguous entry planes, where numpy may run other
        # loops (SIMD or not) than on the strided entries of rows; the layout
        # must not move a bit of any value on the CPUs and numpy versions CI runs
        rows = np.concatenate([_sample_rows(31, np.arange(1000), mode) for mode in A2_MODES])
        strided = rows.T
        planes = np.ascontiguousarray(strided)
        fn = closed_form_function(det)
        assert search._values(planes, fn).tobytes() == search._values(strided, fn).tobytes()

    def test_blocking_does_not_change_results(self, monkeypatch):
        config = SearchConfig(seed=3, restarts=9, refine_budget=300)
        whole = campaign(T22, config)
        monkeypatch.setattr(search, "_BLOCK", 4)
        assert campaign(T22, config) == whole


def by_field(result):
    """repr of every SearchResult field: bit-level equality of floats and points."""
    return [repr(getattr(result, f.name)) for f in fields(SearchResult)]


def mixed_jobs(budgets):
    """Jobs over four determinants in both a2 modes, 333 chains in all: more
    than a pool of 256 holds, so one of that size is refilled mid-run."""
    specs = [("T2,2", "free", 11, 90), ("T3,2", "zero", 12, 40), ("H2,3", "free", 13, 150),
             ("T3,3", "zero", 14, 20), ("T3,1", "free", 15, 7)]
    return [(Objective(DeterminantId.parse(det), mode),
             SearchConfig(seed=seed, restarts=restarts, refine_budget=budget))
            for (det, mode, seed, restarts), budget in zip(specs, budgets)]


def documented_jobs(shift):
    """report's six campaigns, each documented seed shifted by shift."""
    return [(Objective.parse(label), SearchConfig(seed=seed + shift))
            for label, seed in DOCUMENTED_SEEDS.items()]


class TestCampaigns:
    """campaigns runs the chains of all its jobs in one pool; every result is
    the one campaign returns for that job alone."""

    @pytest.mark.parametrize("budget", [0, 1, 17, 500])
    def test_equals_standalone_campaigns(self, budget, monkeypatch):
        monkeypatch.setattr(search, "_BLOCK", 256)  # the pool is refilled mid-run
        jobs = mixed_jobs([budget] * 5)
        assert [by_field(r) for r in campaigns(jobs)] == [by_field(campaign(*job)) for job in jobs]

    def test_jobs_with_different_budgets(self, monkeypatch):
        monkeypatch.setattr(search, "_BLOCK", 256)  # the pool is refilled mid-run
        jobs = mixed_jobs([500, 0, 17, 1, 200])
        assert [by_field(r) for r in campaigns(jobs)] == [by_field(campaign(*job)) for job in jobs]

    def test_no_jobs(self):
        assert campaigns([]) == []

    def test_refills_keep_the_pool_bounded(self, monkeypatch):
        jobs = mixed_jobs([60, 30, 45, 60, 10])
        alone = [by_field(campaign(*job)) for job in jobs]
        monkeypatch.setattr(search, "_BLOCK", 5)
        live = []  # the live chains of each iteration, one pull_back call each
        finished = []  # the iterations run before each batch of finished chains
        real_pull_back, real_pool = search.pull_back, search._pool
        monkeypatch.setattr(search, "pull_back",
                            lambda z, m: (live.append(z.shape[1]), real_pull_back(z, m)))

        def pool(tasks):
            for batch in real_pool(tasks):
                finished.append(len(live))
                yield batch

        monkeypatch.setattr(search, "_pool", pool)
        assert [by_field(r) for r in campaigns(jobs)] == alone
        assert max(live) == 5
        # full until the last start is in, then the pool only drains
        assert live == sorted(live, reverse=True)
        # chains finished while the pool was full, and their slots were refilled
        assert any(k < live.count(5) for k in finished)

    def test_bad_late_job_raises_before_any_start_is_drawn(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a start was drawn")

        monkeypatch.setattr(search, "_sample_rows", no_draws)
        good = mixed_jobs([5] * 5)
        for bad in [(T22, SearchConfig(seed=1, restarts=10_000, refine_budget=10_000)),
                    (T22, "not a config"), (SearchConfig(seed=1), T22),
                    ("T2,2", SearchConfig(seed=1))]:
            with pytest.raises(ValueError, match="cap|Objective, SearchConfig"):
                campaigns(good + [bad])

    @pytest.mark.parametrize("shift", [0, 1000, 3000])
    def test_documented_campaigns_take_few_iterations(self, shift, monkeypatch):
        # one pull_back per lockstep iteration.  A run takes as many
        # iterations as its longest chain has acceptances plus halvings, plus
        # those its start waited for a slot.  A step that only shrank let one
        # chain crawl along a ridge for thousands of them (2564 and 2483 at
        # the shifts +1000 and +3000), so report's time hung on seed luck;
        # growing the step after each accepted move bounds that.  A pool of
        # 256 kept T3,3's chains, the last in job order, waiting for slots
        # (502, 420 and 501 iterations); one of 768 runs the six nearly side
        # by side (372, 323 and 423).
        calls = []
        real = search.pull_back
        monkeypatch.setattr(search, "pull_back", lambda z, m: (calls.append(1), real(z, m)))
        campaigns(documented_jobs(shift))
        assert len(calls) < 450

    def test_documented_campaigns_memory_stays_small(self):
        # the pool's arrays grow with its size: the six documented campaigns
        # peak at about 1.0 MB traced with a pool of 256 and 2.7 MB with 768
        tracemalloc.start()
        try:
            campaigns(documented_jobs(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_documented_campaigns_do_not_depend_on_the_pool_size(self, monkeypatch):
        # every engine operation is elementwise, so the pool's size changes
        # only which chains share an iteration, never a chain's result
        jobs = documented_jobs(0)
        default = [by_field(r) for r in campaigns(jobs)]
        monkeypatch.setattr(search, "_BLOCK", 256)
        assert [by_field(r) for r in campaigns(jobs)] == default

    def test_report_rows_equal_standalone_campaigns(self, report_docs, documented_campaigns):
        # each report row is its config, best value and evaluations and the
        # judged fields of the campaign run alone
        doc = json.loads(report_docs["json"])
        rows = {row.pop("objective"): row for row in doc["results"]["campaigns"]}
        assert list(rows) == list(documented_campaigns) == list(DOCUMENTED_SEEDS)
        for label, ((objective, config), result) in documented_campaigns.items():
            row = dict(vars(config), **judge(objective, result)[0], best_value=result.best_value,
                       evaluations_used=result.evaluations_used)
            assert json.loads(json.dumps(row)) == rows[label], label
