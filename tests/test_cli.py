"""CLI surface: parsing, payload shapes, exit codes, format stability."""

import csv
import io
import json

import numpy as np
import pytest

import coefflab.class_u as class_u
import coefflab.cli as cli
import coefflab.search as search
from coefflab.bound_calculus import THEOREM_IDS
from coefflab.class_u import EvaluationFailure
from coefflab.cli import main, parse_complex


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

    def test_exit_2_on_bad_radius(self, capsys):
        code = run(capsys, "membership", "--function", "f1", "--radius", "1.5")[0]
        assert code == 2

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
    def test_small_report_is_deterministic_and_complete(self, capsys):
        argv = ("report", "--all", "--starts", "1", "--budget", "0")
        code, first, _ = run(capsys, *argv)
        assert code == 0
        code, second, _ = run(capsys, *argv)
        assert first == second
        doc = json.loads(first)
        r = doc["results"]
        assert set(r) == {
            "sharp_values", "bound_chains", "closed_form_oracle",
            "coefficient_map_oracle", "campaigns", "membership",
        }
        assert len(r["bound_chains"]) == 14
        assert len(r["campaigns"]) == 6
        assert r["closed_form_oracle"]["max_delta"] <= 1e-9
        assert r["coefficient_map_oracle"]["max_delta"] <= 1e-10
        assert all(row["within_reference"] for row in r["campaigns"])
        # membership sweep covers the catalog and the specimen
        names = [row["function"] for row in r["membership"]]
        assert names[-1] == "z+2z3"
        verdicts = {row["function"]: row["verdict"] for row in r["membership"]}
        assert verdicts["z+2z3"] == "non-member-witness"
        assert all(v == "evidence-member" for f, v in verdicts.items() if f != "z+2z3")

    def test_report_csv_sections(self, capsys):
        code, out, _ = run(
            capsys, "report", "--starts", "1", "--budget", "0", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["section", "item", "value", "detail"]
        sections = {row[0] for row in rows[1:]}
        assert sections == {
            "sharp_values", "bound_chains", "oracles", "campaigns", "membership",
        }


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
        pytest.param(("report", "--starts", "1", "--budget", "0"),
                     lambda r: sum(len(r[k]) for k in ("sharp_values", "bound_chains",
                                                       "campaigns", "membership")) + 2,
                     id="report"),  # + 2: the two oracle rows
    ])
    def test_format_contract(self, capsys, argv, json_rows):
        # csv and text render the same table; csv has one row per JSON result row
        docs = {fmt: run(capsys, *argv, "--format", fmt)[1] for fmt in ("json", "csv", "text")}
        rows = list(csv.reader(io.StringIO(docs["csv"])))
        text_header = docs["text"].splitlines()[2].split()
        assert text_header == rows[0]
        assert len(rows) - 1 == json_rows(json.loads(docs["json"])["results"])

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
