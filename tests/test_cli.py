"""CLI surface: parsing, payload shapes, exit codes, format stability."""

import csv
import inspect
import io
import json
import re
import tracemalloc

import numpy as np
import pytest

import coefflab.class_u as class_u
import coefflab.cli as cli
import coefflab.functionals as functionals
import coefflab.search as search
from coefflab.bound_calculus import THEOREM_IDS
from coefflab.class_u import EvaluationFailure
from coefflab.cli import main, parse_complex
from coefflab.functionals import (
    SUPPORTED_CLOSED_FORM_IDS,
    CoefficientWindow,
    _det_entries,
    closed_form,
    closed_form_function,
    det_value,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1", 1 + 0j),
            ("-3", -3 + 0j),
            ("2i", 2j),
            ("-4i", -4j),
            ("1-4i", 1 - 4j),
            ("1.5+0.25i", 1.5 + 0.25j),
            (" 2 + 3i ", 2 + 3j),
            ("0", 0j),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("bad", ["", "abc", "1+", "i+i+i", "2x", "nan", "nani", "1e400"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_complex(bad)


class TestEval:
    def test_catalog_function(self, capsys):
        code, out, _ = run(capsys, "eval", "--function", "f1", "--det", "T3,3")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "eval"
        assert doc["results"]["value"] == [-208.0, 0.0]
        assert doc["results"]["modulus"] == 208.0
        assert doc["results"]["crosscheck_delta"] <= 1e-9

    def test_identity_t31(self, capsys):
        code, out, _ = run(capsys, "eval", "--function", "identity", "--det", "T3,1")
        assert code == 0
        assert json.loads(out)["results"]["value"] == [1.0, 0.0]

    def test_coeff_list(self, capsys):
        code, out, _ = run(capsys, "eval", "--coeffs", "1,2,3,4,5", "--det", "T2,2")
        assert code == 0
        assert json.loads(out)["results"]["value"] == [-5.0, 0.0]

    def test_complex_coeff_list(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--coeffs", "1,2i,-3,-4i,5", "--det", "T3,2"
        )
        assert code == 0
        assert json.loads(out)["results"]["value"] == [0.0, -84.0]

    def test_complex_value_in_csv_and_text(self, capsys):
        # a value with both parts non-zero prints as re+imi in csv and text
        argv = ("eval", "--coeffs", "1,0.3-2i,1.5,-0.25i,4,7,-3i", "--det", "H3,1")
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert list(csv.reader(io.StringIO(out)))[1][2:4] == ["16.8275+4.575i", "17.4383308046"]
        code, out, _ = run(capsys, *argv, "--format", "text")
        assert code == 0
        assert "  16.8275+4.575i  " in out
        assert cli._fmt(1.5 - 0.25j) == "1.5-0.25i"

    def test_determinant_without_a_closed_form(self, capsys):
        # T4,1 has no closed form: its cross-check fields are null in JSON
        # and empty cells in csv
        argv = ("eval", "--coeffs", "1,2i,-3,-4i,5", "--det", "T4,1")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["closed_form"] is None and results["crosscheck_delta"] is None
        assert results["modulus"] == pytest.approx(116)
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        header, row = list(csv.reader(io.StringIO(out)))
        cells = dict(zip(header, row))
        assert (cells["closed_form"], cells["crosscheck_delta"]) == ("", "")
        assert cells["determinant"] == "T4,1"

    def test_exit_2_on_bad_det(self, capsys):
        assert run(capsys, "eval", "--function", "f1", "--det", "X1,1")[0] == 2

    def test_exit_2_on_unknown_function(self, capsys):
        assert run(capsys, "eval", "--function", "f7", "--det", "T2,2")[0] == 2

    def test_exit_2_on_bad_coeff_literal(self, capsys):
        assert run(capsys, "eval", "--coeffs", "1,zz", "--det", "T2,2")[0] == 2

    def test_exit_2_on_denormalized_window(self, capsys):
        assert run(capsys, "eval", "--coeffs", "2,1,1", "--det", "T2,2")[0] == 2

    def test_exit_3_on_short_window(self, capsys):
        assert run(capsys, "eval", "--coeffs", "1,2i,-3", "--det", "T3,3")[0] == 3

    def test_exit_3_on_overflow_in_every_format(self, capsys, tmp_path):
        # a2^2 overflows to inf; no format may print it or leave a file behind
        for fmt in ("json", "csv", "text"):
            target = tmp_path / f"doc.{fmt}"
            argv = ("eval", "--coeffs", "1,1e308,3,0,0", "--det", "T2,2", "--format", fmt)
            assert run(capsys, *argv) == (3, "", "error: T2,2 overflows on this window\n")
            assert run(capsys, *argv, "--out", str(target))[0] == 3
            assert not target.exists()

    def test_exit_3_at_once_on_a_huge_id_in_every_format(self, capsys):
        # the window check comes before anything is built for q = 100000
        for fmt in ("json", "csv", "text"):
            tracemalloc.start()
            try:
                argv = ("eval", "--coeffs", "1,2,3", "--det", "T100000,1", "--format", fmt)
                assert run(capsys, *argv) == (
                    3, "", "error: T100000,1 needs a window of length >= 100000, got 3\n")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000

    def test_exit_2_at_once_on_an_order_over_the_cap(self, capsys):
        # a window long enough for T(cap + 1, 1) passes the window check; the
        # order cap refuses it before any of its q^2 entries is laid out
        q = functionals._DET_ORDER_CAP + 1
        coeffs = ",".join(["1"] + ["0.5"] * (q - 1))
        tracemalloc.start()
        try:
            got = run(capsys, "eval", "--coeffs", coeffs, "--det", f"T{q},1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (2, "", f"error: T{q},1 has order {q}, above the cap of {q - 1}\n")
        assert peak < 1_000_000

    def test_exit_2_on_missing_required(self, capsys):
        assert run(capsys, "eval", "--det", "T2,2")[0] == 2


class TestBounds:
    def test_all_flags_mismatches(self, capsys):
        code, out, _ = run(capsys, "bounds", "--all")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["summary"]["mismatch_ids"] == ["thm1_v", "thm2_iv"]
        joined = "\n".join(doc["flags_of_concern"])
        assert "thm1_v" in joined and "thm2_iv" in joined

    def test_single_theorem(self, capsys):
        code, out, _ = run(capsys, "bounds", "--theorem", "thm3_i")
        assert code == 0
        (chain,) = json.loads(out)["results"]["chains"]
        assert chain["computed_value"] == pytest.approx(86.1684)
        assert chain["match"] is True

    def test_exit_2_on_unknown_theorem(self, capsys):
        assert run(capsys, "bounds", "--theorem", "thm7_x")[0] == 2

    def test_csv_has_header(self, capsys):
        code, out, _ = run(capsys, "bounds", "--all", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "theorem_id"
        assert len(rows) == 15  # header + 14 chains


class TestSearch:
    def test_budget_zero_single_start(self, capsys):
        code, out, _ = run(
            capsys, "search", "--objective", "T2,3", "--starts", "1",
            "--seed", "1", "--budget", "0",
        )
        assert code == 0
        doc = json.loads(out)
        r = doc["results"]
        # witness chains win the pool; the one sampled chain (index 0) is
        # evaluated without refinement
        assert r["best_value"] == pytest.approx(25.0, abs=1e-9)
        per = {i: v for i, v in r["per_restart"]}
        assert set(per) == set(range(-6, 1))
        assert 0.0 <= per[0] < 25.0
        assert r["reference"]["id"] == "thm1_ii"
        assert r["witness"]["name"] == "f1"

    def test_zero_mode_discrepancy_flag(self, capsys):
        code, out, _ = run(
            capsys, "search", "--objective", "T3,2", "--a2zero", "--starts", "2",
            "--seed", "7", "--budget", "200",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["best_value"] == pytest.approx(0.25, abs=1e-6)
        # the best is within its recomputed reference 1/4 and above the statement 3/16
        assert doc["results"]["within_reference"] is True
        assert any("3/16" in f for f in doc["flags_of_concern"])

    def test_rerun_is_byte_identical(self, capsys):
        argv = ("search", "--objective", "T2,2", "--starts", "3", "--seed", "9",
                "--budget", "500")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_exit_2_on_unsupported_objective(self, capsys):
        assert run(capsys, "search", "--objective", "T4,1")[0] == 2

    def test_exit_2_over_cap(self, capsys):
        code, _, err = run(
            capsys, "search", "--objective", "T2,2", "--starts", "10001",
            "--budget", "1000",
        )
        assert code == 2
        assert "cap" in err

    def test_exit_2_over_cap_on_start_evaluations(self, capsys, monkeypatch):
        # 6 restarts * (1 proposal + 1 start) = 12 evaluations against a cap of 10
        monkeypatch.setattr(search, "EVAL_CAP", 10)
        code, out, err = run(
            capsys, "search", "--objective", "T2,2", "--starts", "6", "--budget", "1",
        )
        assert (code, out) == (2, "")
        assert "cap" in err

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_exit_2_on_seed_outside_its_range(self, capsys, seed):
        code, out, err = run(capsys, "search", "--objective", "T2,2", "--seed", seed)
        assert (code, out) == (2, "")
        assert "seed must be" in err

    @pytest.mark.parametrize("flag", ["--step-init", "--step-min"])
    def test_exit_2_on_step_flags(self, capsys, flag):
        code, out, _ = run(capsys, "search", "--objective", "T2,2", flag, "0.1")
        assert (code, out) == (2, "")

    def test_csv_single_row(self, capsys):
        code, out, _ = run(
            capsys, "search", "--objective", "T2,2", "--starts", "1",
            "--seed", "3", "--budget", "0", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "objective"
        assert len(rows) == 2


class TestMembership:
    def test_member_verdict(self, capsys):
        code, out, _ = run(
            capsys, "membership", "--function", "f1", "--radius", "0.99",
        )
        assert code == 0
        r = json.loads(out)["results"]
        assert r["verdict"] == "evidence-member"
        assert r["max_defect"] == pytest.approx(0.9801, abs=1e-5)

    def test_non_member_verdict(self, capsys):
        code, out, _ = run(
            capsys, "membership", "--function", "z+2z3", "--radius", "0.7",
        )
        assert code == 0
        r = json.loads(out)["results"]
        assert r["verdict"] == "non-member-witness"
        assert r["max_defect"] > 1

    def test_koebe_next_to_its_pole(self, capsys):
        code, out, _ = run(capsys, "membership", "--function", "koebe", "--radius", "0.999999")
        assert code == 0
        assert json.loads(out)["results"]["verdict"] == "evidence-member"

    def test_exit_2_over_sample_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(class_u, "MEMBERSHIP_SAMPLE_CAP", 100)
        code, out, err = run(capsys, "membership", "--function", "f1", "--samples", "51")
        assert (code, out) == (2, "")
        assert "cap" in err

    def test_default_radii(self, capsys):
        code, out, _ = run(capsys, "membership", "--function", "koebe")
        assert code == 0
        assert json.loads(out)["results"]["radii"] == [0.9, 0.99]

    def test_default_samples_come_from_class_u(self, capsys):
        default = inspect.signature(class_u.membership_max_defect).parameters[
            "samples_per_circle"].default
        assert cli.DEFAULT_SAMPLES == class_u.DEFAULT_SAMPLES == default == 256
        code, out, _ = run(capsys, "membership", "--function", "f2")
        assert code == 0
        assert json.loads(out)["results"]["samples"] == 256

    def test_exit_2_on_bad_radius(self, capsys):
        # 1e-320 is inside (0, 1), but its difference step underflows to 0
        for radius in ("1.5", "1e-320"):
            code, out, err = run(capsys, "membership", "--function", "f1", "--radius", radius)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1, err
        assert run(capsys, "membership", "--function", "f1", "--radius", "1e-300")[0] == 0

    def test_exit_3_on_evaluation_failure(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise EvaluationFailure("pole on the grid")

        monkeypatch.setattr(cli, "membership_max_defect", boom)
        code, _, err = run(capsys, "membership", "--function", "f1")
        assert code == 3
        assert "pole" in err

    def test_csv_header(self, capsys):
        code, out, _ = run(
            capsys, "membership", "--function", "f2", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("function,radii,samples,max_defect")


class TestReport:
    def test_report_is_deterministic_and_complete(self, capsys, report_docs):
        code, out, _ = run(capsys, "report", "--all")
        assert (code, out) == (0, report_docs["json"])
        r = json.loads(out)["results"]
        assert set(r) == {
            "sharp_values", "bound_chains", "closed_form_oracle",
            "coefficient_map_oracle", "campaigns", "membership",
        }
        assert len(r["bound_chains"]) == 14
        assert len(r["campaigns"]) == 6
        assert r["closed_form_oracle"]["max_delta"] <= r["closed_form_oracle"]["tolerance"] == 1e-9
        assert (r["coefficient_map_oracle"]["max_delta"]
                <= r["coefficient_map_oracle"]["tolerance"] == class_u.MAP_AGREEMENT_TOL)
        assert all(row["within_reference"] for row in r["campaigns"])
        # membership sweep covers the catalog and the specimen
        names = [row["function"] for row in r["membership"]]
        assert names[-1] == "z+2z3"
        verdicts = {row["function"]: row["verdict"] for row in r["membership"]}
        assert verdicts["z+2z3"] == "non-member-witness"
        assert all(v == "evidence-member" for f, v in verdicts.items() if f != "z+2z3")

    def test_runs_the_documented_configuration(self, report_docs):
        # each campaign row and the inputs carry SearchConfig's defaults
        doc = json.loads(report_docs["json"])
        defaults = (search.SearchConfig.restarts, search.SearchConfig.refine_budget)
        assert (doc["inputs"]["starts"], doc["inputs"]["budget"]) == defaults == (200, 20000)
        rows = doc["results"]["campaigns"]
        assert [row["objective"] for row in rows] == list(search.DOCUMENTED_SEEDS)
        assert {(row["restarts"], row["refine_budget"]) for row in rows} == {defaults}

    @pytest.mark.parametrize("flag,value", [("--starts", "1"), ("--budget", "0")])
    def test_exit_2_on_search_flags(self, capsys, flag, value):
        code, out, _ = run(capsys, "report", flag, value)
        assert (code, out) == (2, "")

    def test_report_csv_sections(self, report_docs):
        rows = list(csv.reader(io.StringIO(report_docs["csv"])))
        assert rows[0] == ["section", "item", "value", "detail"]
        sections = {row[0] for row in rows[1:]}
        assert sections == {
            "sharp_values", "bound_chains", "oracles", "campaigns", "membership",
        }
        details = {row[1]: row[3] for row in rows[1:] if row[0] == "oracles"}
        assert details == {"closed_form_vs_determinant": "windows=1000 tolerance=1e-09",
                           "map_vs_series": "points=1000 tolerance=1e-10"}


def _drift(values):
    return values + 1e-6


def _poison(values):
    values = np.array(values)  # a copy, one entry of it NaN
    values[17] = np.nan
    return values


class TestReportOracles:
    """Each oracle is one array pass; a delta beyond its tolerance, or a NaN,
    fails the report with exit 3 before anything is written."""

    def test_closed_form_arrays_match_the_scalar_routes(self):
        # the oracle's planes through each supported id's closed form and
        # functionals' matrix layout agree with the scalar closed_form and
        # det_value on the same windows (|T3,3| reaches 519 there, where an
        # ulp is 1.1e-13); closed_form_gaps is their difference, bit for bit
        a = class_u._oracle_windows()
        windows = [CoefficientWindow(tuple(col)) for col in a.T.tolist()]
        assert len(windows) == class_u.ORACLE_COUNT
        gaps = functionals.closed_form_gaps(a)
        assert len(gaps) == len(SUPPORTED_CLOSED_FORM_IDS)
        for det, gap in zip(SUPPORTED_CLOSED_FORM_IDS, gaps):
            cf = closed_form_function(det)(*a[1:])
            dv = _det_entries(det._cells(a), det.q)
            assert gap.tobytes() == abs(cf - dv).tobytes(), det
            assert np.max(np.abs(cf - [closed_form(w, det) for w in windows])) <= 1e-12, det
            assert np.max(np.abs(dv - [det_value(w, det) for w in windows])) <= 1e-12, det

    @staticmethod
    def plant(monkeypatch, oracle, fault):
        # the fault reaches the oracle's deltas through the name class_u calls
        if oracle == "closed-form":
            real = class_u.closed_form_gaps
            monkeypatch.setattr(class_u, "closed_form_gaps", lambda a: [fault(g) for g in real(a)])
        else:
            real = class_u._coefficient_routes

            def routes(*args):
                direct, series, gaps = real(*args)
                return direct, series, gaps[:2] + (fault(gaps[2]),) + gaps[3:]

            monkeypatch.setattr(class_u, "_coefficient_routes", routes)

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("fault,shown", [(_drift, "e-06 is not"), (_poison, "nan is not")],
                             ids=["drift", "nan"])
    @pytest.mark.parametrize("oracle", ["closed-form", "coefficient-map"])
    def test_breach_exits_3(self, capsys, monkeypatch, tmp_path, oracle, fault, shown, fmt):
        self.plant(monkeypatch, oracle, fault)
        # the oracles run first, so a breach fails before any campaign work
        ran = []
        monkeypatch.setattr(cli, "campaigns", lambda jobs: ran.append(jobs) or [])
        target = tmp_path / f"report.{fmt}"
        code, out, err = run(capsys, "report", "--format", fmt, "--out", str(target))
        assert (code, out, ran) == (3, "", [])
        assert err.startswith(f"error: {oracle} oracle: max delta ") and err.count("\n") == 1
        assert f"{shown} within its tolerance" in err
        assert not target.exists()


class TestPlumbing:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "doc.json"
        code, out, _ = run(
            capsys, "eval", "--function", "f2", "--det", "T2,2",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["results"]["modulus"] == 1.0

    @pytest.mark.parametrize("target", ["missing/dir/doc.json", "."], ids=["no-dir", "a-dir"])
    def test_exit_2_when_out_cannot_be_written(self, capsys, tmp_path, target):
        path = tmp_path / target
        code, out, err = run(capsys, "bounds", "--all", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}") and "Traceback" not in err

    @pytest.mark.parametrize("argv,by_argparse", [
        pytest.param(("search", "--objective", "T2,2", "--seed", "abc"), True, id="argparse-type"),
        pytest.param(("report", "--starts", "1"), True, id="argparse-unknown"),
        pytest.param(("search", "--objective", "T2,2", "--seed", "-1"), False, id="library"),
    ])
    def test_refusals_print_as_the_docstring_says(self, capsys, argv, by_argparse):
        # a refusal of the library is one line, error: and the message;
        # argparse prints its usage lines, then its own error: line
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        if by_argparse:
            assert len(lines) > 1 and lines[0].startswith("usage: coefflab")
            assert re.fullmatch(r"coefflab( search)?: error: .+", lines[-1]), lines[-1]
        else:
            assert len(lines) == 1 and lines[0].startswith("error: seed must be")

    @pytest.mark.parametrize("argv,message", [
        pytest.param(("eval", "--function", "nope", "--det", "T2,2"),
                     f"unknown catalog name 'nope'; known: {class_u.CATALOG_NAMES}",
                     id="unknown-name"),
        pytest.param(("search", "--objective", "T4,1"), "no closed form for T4,1",
                     id="unsupported-id"),
        pytest.param(("bounds", "--theorem", "nope"),
                     f"no chain 'nope'; known: {THEOREM_IDS}", id="unknown-theorem"),
    ])
    def test_lookup_errors_print_their_message(self, capsys, argv, message):
        # the lookup errors are KeyErrors, whose str() would wrap the message in quotes
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--function", "f1", "--det", "T2,2",
            "--format", "text",
        )
        assert code == 0
        assert out.startswith("coefflab eval")
        assert out.endswith("\n")
        assert "flags of concern: none" in out

    @pytest.mark.parametrize("argv,json_rows", [
        pytest.param(("eval", "--function", "f1", "--det", "T3,3"), lambda r: 1, id="eval"),
        pytest.param(("bounds", "--all"), lambda r: len(r["chains"]), id="bounds"),
        pytest.param(("search", "--objective", "T2,2", "--starts", "1", "--budget", "0"),
                     lambda r: 1, id="search"),
        pytest.param(("membership", "--function", "f1", "--radius", "0.5"), lambda r: 1,
                     id="membership"),
        pytest.param(("report", "--all"),
                     lambda r: sum(len(r[k]) for k in ("sharp_values", "bound_chains",
                                                       "campaigns", "membership")) + 2,
                     id="report"),  # + 2: the two oracle rows
    ])
    def test_format_contract(self, capsys, request, argv, json_rows):
        # csv and text render the same table; csv has one row per JSON result row
        if argv[0] == "report":
            docs = request.getfixturevalue("report_docs")
        else:
            docs = {fmt: run(capsys, *argv, "--format", fmt)[1] for fmt in ("json", "csv", "text")}
        rows = list(csv.reader(io.StringIO(docs["csv"])))
        text_header = docs["text"].splitlines()[2].split()
        assert text_header == rows[0]
        assert len(rows) - 1 == json_rows(json.loads(docs["json"])["results"])

    _CHAIN = {"a2_zero", "computed_value", "delta", "determinant", "function_class", "match",
              "note", "stated_text", "stated_value", "steps", "theorem_id", "truncated"}
    _DEFECT = {"argmax", "function", "max_defect", "radii", "verdict"}

    @pytest.mark.parametrize("argv,inputs,rows", [
        pytest.param(("eval", "--function", "f1", "--det", "T3,3"), ("function", "coeffs", "det"),
                     {None: {"closed_form", "crosscheck_delta", "determinant", "function",
                             "modulus", "value", "window"}}, id="eval"),
        pytest.param(("bounds", "--all"), ("theorem", "all"), {"chains": _CHAIN}, id="bounds"),
        pytest.param(("search", "--objective", "T2,2", "--starts", "2", "--budget", "10"),
                     ("objective", "a2zero", "seed", "starts", "budget"),
                     {None: {"a2_mode", "best_point", "best_value", "best_window",
                             "evaluations_used", "objective", "per_restart", "reference",
                             "refine_budget", "restarts", "seed", "within_reference",
                             "witness"}}, id="search"),
        pytest.param(("membership", "--function", "f1", "--radius", "0.5"),
                     ("function", "radius", "samples"), {None: _DEFECT | {"samples"}},
                     id="membership"),
        pytest.param(("report", "--all"),
                     ("all", "starts", "budget", "campaign_seeds", "oracle_seeds"),
                     {"campaigns": {"best_value", "evaluations_used", "objective", "reference",
                                    "refine_budget", "restarts", "seed", "within_reference",
                                    "witness"},
                      "membership": _DEFECT, "bound_chains": _CHAIN,
                      "closed_form_oracle": {"max_delta", "seed", "tolerance", "windows"},
                      "coefficient_map_oracle": {"max_delta", "points", "seed", "tolerance"}},
                     id="report"),
    ])
    def test_document_shapes(self, request, argv, inputs, rows):
        # the rows are built from the library's result objects, so a field
        # renamed or added there shows here; text prints inputs in their order
        if argv[0] == "report":
            doc = request.getfixturevalue("report_docs")["doc"]
        else:
            args = cli.build_parser().parse_args(argv)
            doc = args.handler(args)
        assert tuple(doc["inputs"]) == inputs
        results = json.loads(cli.render_json(doc))["results"]
        for section, keys in rows.items():
            row = results[section] if section else results  # a list section by its first row
            assert set(row[0] if isinstance(row, list) else row) == keys, section
        if argv[0] == "search":
            assert set(results["best_point"]) == {"a2", "c1", "c2", "c3"}
            pairs = results["per_restart"]  # the catalog witnesses' chains, then 2 restarts
            assert len(pairs) > 2 and {tuple(map(type, pair)) for pair in pairs} == {(int, float)}

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_tuple_cells_are_joined_like_lists(self, fmt):
        row = {"function": "f1", "radii": (0.9, 0.99), "samples": 8, "max_defect": 0.5,
               "argmax": 0.9 + 0j, "verdict": "evidence-member"}
        doc = cli.document("membership", {}, row, [])
        listed = cli.document("membership", {}, dict(row, radii=[0.9, 0.99]), [])
        render = cli.render_csv if fmt == "csv" else cli.render_text
        assert render(doc) == render(listed)
        assert "0.9;0.99" in render(doc) and "(0.9" not in render(doc)

    def test_text_inputs_line_joins_like_the_cells(self, capsys):
        # the inputs line renders a list as its cell does, and a dict as
        # key=value items, never as a Python repr
        _, out, _ = run(capsys, "membership", "--function", "f4", "--radius", "0.5",
                        "--radius", "0.9", "--radius", "0.999", "--format", "text")
        assert out.splitlines()[1] == "inputs: function=f4, radius=0.5;0.9;0.999, samples=256"
        assert out.splitlines()[3].split()[1] == "0.5;0.9;0.999"
        doc = cli.document("membership", {"seeds": {"a|free": 1, "b": 2.5}, "pair": (1j, 2)},
                           {"function": "f1", "radii": [0.5], "samples": 8, "max_defect": 0.5,
                            "argmax": 0.5 + 0j, "verdict": "evidence-member"}, [])
        assert cli.render_text(doc).splitlines()[1] == "inputs: seeds=a|free=1;b=2.5, pair=1i;2"

    def test_no_arguments_is_exit_2(self, capsys):
        assert main([]) == 2

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "bounds", "--theorem", "thm1_i")
        doc = json.loads(out)
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out

    @pytest.mark.parametrize("value", [np.bool_(True), class_u.SchwarzParams(0, 0, 0)],
                             ids=["numpy-bool", "dataclass"])
    def test_jsonable_rejects_unknown_types(self, value):
        # no str() fallback: a stray type fails loudly instead of entering the document
        with pytest.raises(TypeError, match="no JSON form"):
            cli.jsonable({"x": [value]})
