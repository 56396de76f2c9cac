import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyndml.cli
import dyndml.oracle
from helpers_surrogate import two_sample_ref
from dyndml import (
    PanelDataset,
    SurrogatePair,
    ValidationError,
    read_panel_csv,
    read_surrogate_csvs,
    write_panel_csv,
    write_surrogate_csvs,
)
from dyndml.cli import _distinct_rows, load_dgp, load_plan, main

DGP1 = """\
# one-period reference process
periods = 1
state_arity = 2
treatment_arity = 2
initial = 0.5 0.5
propensity_1 = 0.5 0.5  0.75 0.25
outcome = 0 1  1 2
sigma_y = 0
seed = 3
"""

DGP2 = """\
periods = 2
state_arity = 2 2
treatment_arity = 2 2
initial = 0.5 0.5
propensity_1 = 0.5 0.5  0.75 0.25
propensity_2 = 0.6 0.4  0.4 0.6
transition_1 = 0.7 0.3  0.3 0.7  0.5 0.5  0.1 0.9
outcome = 0 3  1 4
sigma_y = 1.0
seed = 5
"""

PLAN_FIXED_1 = "kind = fixed\ntreatments = 1\n"
PLAN_FIXED_11 = "kind = fixed\ntreatments = 1 1\n"
CONFIG_TAB = "features = tabular\nQ = 5\nseed = 0\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in {
        "dgp1": DGP1,
        "dgp2": DGP2,
        "plan1": PLAN_FIXED_1,
        "plan11": PLAN_FIXED_11,
        "config": CONFIG_TAB,
    }.items():
        p = tmp_path / f"{name}.cfg"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


class TestSimulate:
    def test_schema_and_rows(self, files, capsys):
        out = files["dir"] / "d.csv"
        assert main(["simulate", "--dgp", files["dgp1"], "--n", "5", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "s1_1,t1,y"
        assert len(lines) == 6

    def test_same_seed_byte_identical(self, files):
        a = files["dir"] / "a.csv"
        b = files["dir"] / "b.csv"
        for out in (a, b):
            main(["simulate", "--dgp", files["dgp2"], "--n", "50", "--seed", "9", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_dgp_seed_is_default(self, files):
        a = files["dir"] / "a.csv"
        b = files["dir"] / "b.csv"
        main(["simulate", "--dgp", files["dgp1"], "--n", "20", "--out", str(a)])
        main(["simulate", "--dgp", files["dgp1"], "--n", "20", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_override(self, files, monkeypatch):
        monkeypatch.setenv("DYNDML_SEED", "3")
        a = files["dir"] / "a.csv"
        main(["simulate", "--dgp", files["dgp1"], "--n", "20", "--out", str(a)])
        monkeypatch.delenv("DYNDML_SEED")
        b = files["dir"] / "b.csv"
        main(["simulate", "--dgp", files["dgp1"], "--n", "20", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_n_exit_2(self, files, capsys):
        rc = main(["simulate", "--dgp", files["dgp1"], "--n", "0", "--out", "x.csv"])
        assert rc == 2
        assert ">= 1" in capsys.readouterr().err

    def test_bad_table_exit_2_names_table_and_row(self, files, capsys):
        bad = files["dir"] / "bad.cfg"
        bad.write_text(DGP1.replace("0.5 0.5  0.75 0.25", "0.5 0.4  0.75 0.25"))
        rc = main(["simulate", "--dgp", str(bad), "--n", "5", "--out", "x.csv"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "propensity table 1" in err and "row 0" in err


class TestEstimate:
    def test_report_covers_reference_value(self, files, capsys):
        data = files["dir"] / "d.csv"
        main(["simulate", "--dgp", files["dgp1"], "--n", "4000", "--seed", "2", "--out", str(data)])
        out = files["dir"] / "report.json"
        rc = main(
            [
                "estimate",
                "--data",
                str(data),
                "--plan",
                files["plan1"],
                "--config",
                files["config"],
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["ci_lower"] < 1.5 < report["ci_upper"]
        assert report["n"] == 4000 and report["Q"] == 5
        assert report["config"]["feature_maps"][0]["kind"] == "TabularFeatures"
        assert "theta_hat=" in capsys.readouterr().out

    def test_huge_outcomes_estimate_and_an_infinite_clip_is_strict_json(self, files, capsys):
        # Y of order 1e160 squares past the float range; the variance is formed
        # from scaled deviations, so the estimate exits 0. The report is strict
        # JSON: an infinite clip reads "inf".
        data, config = files["dir"] / "d.csv", files["dir"] / "inf.cfg"
        main(["simulate", "--dgp", files["dgp2"], "--n", "2000", "--seed", "3", "--out", str(data)])
        panel = read_panel_csv(str(data))
        write_panel_csv(PanelDataset(panel.states, panel.treatments, panel.outcome * 1e160,
                                     panel.treatment_arities), str(data))
        config.write_text("clip = inf\n")
        out = files["dir"] / "report.json"
        rc = main(["estimate", "--data", str(data), "--plan", files["plan11"], "--config",
                   str(config), "--out", str(out)])
        assert rc == 0, capsys.readouterr().err

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(out.read_text(), parse_constant=reject)
        assert report["config"]["clip"] == "inf"
        assert 1e159 < report["sigma_hat"] < math.inf

    def test_subnormal_outcomes_estimate_to_strict_json(self, files, capsys):
        # Y of order 1e-320 is subnormal: the outcome's scale, a power of two
        # past 2^1023, is carried as an exponent, so the estimate exits 0.
        data = files["dir"] / "d.csv"
        main(["simulate", "--dgp", files["dgp2"], "--n", "600", "--seed", "0", "--out", str(data)])
        panel = read_panel_csv(str(data))
        write_panel_csv(PanelDataset(panel.states, panel.treatments, panel.outcome * 1e-320,
                                     panel.treatment_arities), str(data))
        out = files["dir"] / "report.json"
        rc, err = _exit_code(["estimate", "--data", str(data), "--plan", files["plan11"],
                              "--out", str(out)])
        assert rc == 0, err

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(out.read_text(), parse_constant=reject)
        assert 0.0 < report["sigma_hat"] < 2.0 ** -1022
        assert report["ci_lower"] < report["theta_hat"] < report["ci_upper"]

    @pytest.mark.parametrize("scale, config, plan, message", [
        (1.0, "", "kind = contrast\ncoefficients = 1e308 -1e308\nsequence_1 = 1 1\n"
                  "sequence_2 = 0 0\n",
         "fold 0: period 1: the plan's weights overflow the fit's right-hand side"),
        (1e60, "features = polynomial\ndegree = 3\n", PLAN_FIXED_11,
         "fold 0: period 1: the state basis's Gram overflows the float range"),
    ], ids=["plan-weights", "state-gram"])
    def test_an_overflowing_fit_exit_2(self, files, scale, config, plan, message):
        data, cfg, plan_file = (files["dir"] / name for name in ("d.csv", "c.cfg", "p.cfg"))
        main(["simulate", "--dgp", files["dgp2"], "--n", "2000", "--seed", "0", "--out", str(data)])
        panel = read_panel_csv(str(data))
        write_panel_csv(PanelDataset(tuple(s * scale for s in panel.states), panel.treatments,
                                     panel.outcome, panel.treatment_arities), str(data))
        cfg.write_text(config)
        plan_file.write_text(plan)
        rc, err = _exit_code(["estimate", "--data", str(data), "--plan", str(plan_file),
                              "--config", str(cfg), "--out", str(files["dir"] / "r.json")])
        assert rc == 2 and message in err and "Traceback" not in err

    def test_target_outside_the_panels_levels_exit_2(self, files, capsys):
        # The panel's period 2 has codes 0 and 1; the plan targets code 2.
        data, plan = files["dir"] / "d.csv", files["dir"] / "plan12.cfg"
        plan.write_text("kind = fixed\ntreatments = 1 2\n")
        main(["simulate", "--dgp", files["dgp2"], "--n", "4000", "--seed", "3", "--out", str(data)])
        out = files["dir"] / "r.json"
        rc = main(["estimate", "--data", str(data), "--plan", str(plan), "--seed", "1",
                   "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert "period 2, term 0: treatment code 2 outside 0..1" in capsys.readouterr().err

    def test_targeted_level_no_row_has_exit_3(self, files, capsys):
        # Codes {0, 2} in period 2 make three levels, and no row has code 1.
        data = files["dir"] / "d.csv"
        main(["simulate", "--dgp", files["dgp2"], "--n", "400", "--seed", "3", "--out", str(data)])
        panel = read_panel_csv(str(data))
        codes = panel.treatments * np.array([1, 2])
        write_panel_csv(PanelDataset(panel.states, codes, panel.outcome, (2, 3)), str(data))
        capsys.readouterr()
        rc = main(["estimate", "--data", str(data), "--plan", files["plan11"],
                   "--out", str(files["dir"] / "r.json")])
        assert rc == 3
        assert capsys.readouterr().err == ("numerical failure: period 2: the plan targets "
                                           "treatment code 1, which no row has\n")

    def test_missing_period_column_exit_2(self, files, capsys):
        data = files["dir"] / "d.csv"
        main(["simulate", "--dgp", files["dgp1"], "--n", "100", "--out", str(data)])
        rc = main(
            [
                "estimate",
                "--data",
                str(data),
                "--plan",
                files["plan11"],
                "--config",
                files["config"],
                "--out",
                str(files["dir"] / "r.json"),
            ]
        )
        assert rc == 2
        assert "t2" in capsys.readouterr().err

    @pytest.mark.parametrize("command, plan_text, message", [
        ("estimate", "kind = fixed\ntreatments = 1\n", "data has 2 periods but the plan covers 1"),
        ("mc", "kind = fixed\ntreatments = 1 1 1\n", "plan covers 3 periods, process has 2"),
    ])
    def test_plan_and_data_period_counts_differ_exit_2(self, files, capsys, command, plan_text,
                                                       message):
        data, plan = files["dir"] / "d.csv", files["dir"] / "plan.cfg"
        main(["simulate", "--dgp", files["dgp2"], "--n", "100", "--seed", "1", "--out", str(data)])
        plan.write_text(plan_text)
        capsys.readouterr()
        argv = [command, "--plan", str(plan), "--out", str(files["dir"] / "r.out")] + {
            "estimate": ["--data", str(data)],
            "mc": ["--dgp", files["dgp2"], "--reps", "2", "--n", "100"]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_clever_covariate_diagnostics(self, files):
        data = files["dir"] / "d.csv"
        main(["simulate", "--dgp", files["dgp2"], "--n", "3000", "--seed", "4", "--out", str(data)])
        out = files["dir"] / "clever.json"
        rc = main(
            [
                "estimate",
                "--data",
                str(data),
                "--plan",
                files["plan11"],
                "--config",
                files["config"],
                "--clever-covariate",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        for fold in report["per_fold"]:
            assert all(abs(c) <= 1e-8 for c in fold["clever_correction_means"])

    def test_numerical_failure_exit_3(self, files, capsys):
        # 12 rows with a zero penalty leave empty tabular cells in the folds
        data = files["dir"] / "tiny.csv"
        main(["simulate", "--dgp", files["dgp2"], "--n", "12", "--seed", "1", "--out", str(data)])
        cfg = files["dir"] / "zero.cfg"
        cfg.write_text("features = tabular\nridge = 0\nQ = 3\nseed = 0\n")
        rc = main(
            [
                "estimate",
                "--data",
                str(data),
                "--plan",
                files["plan11"],
                "--config",
                str(cfg),
                "--out",
                str(files["dir"] / "r.json"),
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "fold" in err

    def test_rank_deficient_design_exit_3(self, files, capsys):
        # Constant states make the polynomial basis 1, s, s^2 one column three times.
        sample = dyndml.oracle.simulate(dyndml.oracle.dgp_ref_2(), 2000, 3)
        ones = np.ones((sample.n_units, 1))
        data = files["dir"] / "ones.csv"
        write_panel_csv(PanelDataset((ones, ones), sample.treatments, sample.outcome,
                                     sample.treatment_arities), str(data))
        cfg = files["dir"] / "poly0.cfg"
        cfg.write_text("features = polynomial\nridge = 0\n")
        argv = ["estimate", "--data", str(data), "--plan", files["plan11"], "--config", str(cfg),
                "--out", str(files["dir"] / "r.json")]
        assert main(argv) == 3
        assert ("fold 0: period 1: singular normal equations (rank-deficient design); set a "
                "positive ridge penalty") in capsys.readouterr().err

    @pytest.mark.parametrize("setting, message", [
        ("ridge = nan", "ridge penalty must be finite, got nan"),
        ("ridge = inf", "ridge penalty must be finite, got inf"),
        ("ridge = 1e-3 inf", "ridge penalty must be finite, got inf"),
        ("clip = nan", "clip bound must be positive"),
        ("ridge = 1e308", "fold 0: period 1: ridge penalty 1e+308 swamps the Gram"),
    ])
    def test_non_finite_settings_exit_2(self, files, capsys, setting, message):
        data = files["dir"] / "d.csv"
        main(["simulate", "--dgp", files["dgp2"], "--n", "200", "--seed", "1", "--out", str(data)])
        cfg = files["dir"] / "bad.cfg"
        cfg.write_text(CONFIG_TAB + setting + "\n")
        argv = ["estimate", "--data", str(data), "--plan", files["plan11"], "--config", str(cfg),
                "--out", str(files["dir"] / "r.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["polynomial", "fourier"])
    def test_nonparametric_feature_kinds(self, files, kind, capsys):
        data = files["dir"] / "d.csv"
        main(["simulate", "--dgp", files["dgp1"], "--n", "4000", "--seed", "6", "--out", str(data)])
        cfg = files["dir"] / f"{kind}.cfg"
        cfg.write_text(
            f"features = {kind}\ndegree = 1\nn_features = 8\nlengthscale = 1.0\nQ = 5\nseed = 0\n"
        )
        out = files["dir"] / f"{kind}.json"
        rc = main(
            ["estimate", "--data", str(data), "--plan", files["plan1"], "--config", str(cfg), "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        # binary states: degree-1 polynomials / fouriers span the truth
        assert abs(report["theta_hat"] - 1.5) <= 6.0 * report["sigma_hat"] / np.sqrt(4000)

    def test_continuous_states_with_tabular_features_exit_2(self, files, capsys):
        rng = np.random.default_rng(3)
        panel = files["dir"] / "continuous.csv"
        write_panel_csv(PanelDataset((rng.normal(size=(40, 1)),), rng.integers(0, 2, (40, 1)),
                                     rng.normal(size=40), (2,)), str(panel))
        argv = ["estimate", "--data", str(panel), "--plan", files["plan1"],
                "--out", str(files["dir"] / "r.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "tabular feature map for period 1 has 80 cells, more than its 40 rows" in err
        assert "features = polynomial | fourier" in err
        config = files["dir"] / "poly.cfg"
        config.write_text("features = polynomial\n")
        assert main(argv + ["--config", str(config)]) == 0

    def test_json_config_accepted(self, files):
        data = files["dir"] / "d.csv"
        main(["simulate", "--dgp", files["dgp1"], "--n", "500", "--out", str(data)])
        jcfg = files["dir"] / "cfg.json"
        jcfg.write_text(json.dumps({"features": "tabular", "Q": 4, "seed": 1}))
        out = files["dir"] / "r.json"
        rc = main(
            ["estimate", "--data", str(data), "--plan", files["plan1"], "--config", str(jcfg), "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["Q"] == 4

    def test_json_dgp_with_nested_tables(self, files, capsys):
        jdgp = files["dir"] / "dgp.json"
        jdgp.write_text(
            json.dumps(
                {
                    "periods": 1,
                    "state_arity": [2],
                    "treatment_arity": [2],
                    "initial": [0.5, 0.5],
                    "propensity_1": [[0.5, 0.5], [0.75, 0.25]],  # nested rows flatten
                    "outcome": [[0, 1], [1, 2]],
                    "sigma_y": 0,
                    "seed": 3,
                }
            )
        )
        rc = main(["oracle", "--dgp", str(jdgp), "--plan", files["plan1"]])
        assert rc == 0
        assert capsys.readouterr().out.startswith("theta=1.5")


class TestOracleAndDiagnose:
    def test_oracle_prints_theta(self, files, capsys):
        rc = main(["oracle", "--dgp", files["dgp2"], "--plan", files["plan11"]])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("theta=3.8")
        assert "f_1=" in out and "a_2=" in out

    def test_oracle_out_matches_the_oracles(self, files, capsys):
        out = files["dir"] / "oracle.json"
        rc = main(["oracle", "--dgp", files["dgp2"], "--plan", files["plan11"], "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        dgp, plan = load_dgp(files["dgp2"]), load_plan(files["plan11"])
        assert payload["theta"] == dyndml.oracle.oracle_theta(dgp, plan)
        for key, tables in (("f_tables", dyndml.oracle.oracle_nested_regressions(dgp, plan)),
                            ("a_tables", dyndml.oracle.oracle_riesz(dgp, plan))):
            assert len(payload[key]) == len(tables)
            for got, want in zip(payload[key], tables):
                np.testing.assert_array_equal(np.array(got), want)

    def test_oracle_requires_dgp_file(self, files, capsys):
        rc = main(["oracle", "--dgp", str(files["dir"] / "missing.cfg"), "--plan", files["plan11"]])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_diagnose_all_pass(self, files, capsys):
        out = files["dir"] / "diag.json"
        rc = main(["diagnose", "--dgp", files["dgp1"], "--plan", files["plan1"], "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["all_passed"] is True
        for check in payload["checks"]:
            assert check["passed"], check
        residuals = {
            c["name"]: c["value"]
            for c in payload["checks"]
            if "slope" not in c["name"]
        }
        assert all(v <= 1e-10 for v in residuals.values())


    @pytest.mark.parametrize("plan_text", [
        "kind = policy\npolicy_1 = 1 0\npolicy_2 = 0 1\n",
        "kind = contrast\ncoefficients = 1 -1\nsequence_1 = 1 1\nsequence_2 = 0 0\n",
    ], ids=["policy", "contrast"])
    def test_riesz_identity_fails_for_a_wrong_riesz_step(self, files, monkeypatch, plan_text):
        plan = files["dir"] / "plan.cfg"
        plan.write_text(plan_text)
        out = files["dir"] / "diag.json"
        argv = ["diagnose", "--dgp", files["dgp2"], "--plan", str(plan), "--out", str(out)]

        def riesz_check():
            assert main(argv) == 0
            return next(c for c in json.loads(out.read_text())["checks"]
                        if c["name"] == "riesz_identity")

        assert riesz_check()["passed"]
        right = dyndml.oracle.riesz_step

        def wrong(*args):
            return 2.0 * right(*args) + 1.0

        # Replaced wherever the step is looked up, as an edit of its body would be.
        monkeypatch.setattr(dyndml.oracle, "riesz_step", wrong)
        monkeypatch.setattr(dyndml.cli, "riesz_step", wrong, raising=False)
        check = riesz_check()
        assert not check["passed"] and check["value"] > 1e-3


class TestMonteCarlo:
    def test_failure_reasons_on_stderr(self, files, capsys):
        # Tiny folds with a zero penalty leave empty design cells in some reps.
        config = files["dir"] / "ridge0.cfg"
        config.write_text("ridge = 0\n")
        argv = ["mc", "--dgp", files["dgp2"], "--plan", files["plan11"], "--reps", "30",
                "--n", "24", "--Q", "3", "--seed", "13", "--config", str(config),
                "--out", str(files["dir"] / "mc.csv")]
        assert main(argv) == 0
        captured = capsys.readouterr()
        n_failed = json.loads(captured.out)["n_failed"]
        lines = captured.err.splitlines()
        assert n_failed > 0 and lines
        assert all(" failed replicate(s): fold " in line for line in lines)
        assert sum(int(line.split()[0]) for line in lines) == n_failed
        assert len(set(lines)) == len(lines)

    def test_every_replicate_failed_exit_3(self, files, capsys):
        # With n = 4 and Q = 2 no replicate fits; the summary would be all NaN.
        config = files["dir"] / "tiny.cfg"
        config.write_text("ridge = 0\nQ = 2\n")
        out = files["dir"] / "mc.csv"
        rc = main(["mc", "--dgp", files["dgp2"], "--plan", files["plan11"], "--reps", "5",
                   "--n", "4", "--config", str(config), "--out", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        *causes, last = captured.err.splitlines()
        assert last == "numerical failure: all 5 replicates failed"
        assert causes and sum(int(line.split()[0]) for line in causes) == 5
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 5 and all(row.endswith(",1") for row in rows)

    def test_rows_csv_and_summary(self, files, capsys):
        out = files["dir"] / "mc.csv"
        rc = main(
            [
                "mc",
                "--dgp",
                files["dgp2"],
                "--plan",
                files["plan11"],
                "--reps",
                "5",
                "--n",
                "400",
                "--Q",
                "4",
                "--seed",
                "8",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rep,theta_hat,sigma_hat,ci_lower,ci_upper,covered,failed"
        assert len(lines) == 6
        summary = json.loads(capsys.readouterr().out)
        assert summary["reps"] == 5 and summary["n_failed"] == 0

    def test_full_scale_coverage_through_cli(self, files, capsys):
        out = files["dir"] / "mc_full.csv"
        rc = main(
            [
                "mc",
                "--dgp",
                files["dgp2"],
                "--plan",
                files["plan11"],
                "--reps",
                "500",
                "--n",
                "2000",
                "--Q",
                "5",
                "--seed",
                "4242",
                "--jobs",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert 0.92 <= summary["coverage"] <= 0.98
        assert summary["n_failed"] == 0
        assert len(out.read_text().strip().splitlines()) == 501

    def test_jobs_bitwise_identical(self, files, capsys):
        a = files["dir"] / "a.csv"
        b = files["dir"] / "b.csv"
        base = [
            "mc",
            "--dgp",
            files["dgp2"],
            "--plan",
            files["plan11"],
            "--reps",
            "6",
            "--n",
            "300",
            "--Q",
            "3",
            "--seed",
            "2",
        ]
        main(base + ["--jobs", "1", "--out", str(a)])
        main(base + ["--jobs", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSurrogateCommand:
    def test_end_to_end(self, files, capsys):
        tsd = two_sample_ref()
        data = tsd.simulate(1500, 1500, 3)
        short = files["dir"] / "short.csv"
        long_ = files["dir"] / "long.csv"
        write_surrogate_csvs(data, str(short), str(long_))
        out = files["dir"] / "sur.json"
        rc = main(
            [
                "surrogate-estimate",
                "--short",
                str(short),
                "--long",
                str(long_),
                "--out",
                str(out),
                "--seed",
                "4",
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["n_short"] == 1500 and report["n_long"] == 1500
        band = 5.0 * report["sigma_hat"] / np.sqrt(1500)
        assert abs(report["theta_hat"] - tsd.theta()) <= band

    def test_surrogate_round_trip_exact(self, files):
        tsd = two_sample_ref()
        data = tsd.simulate(50, 60, 11)
        short = files["dir"] / "s.csv"
        long_ = files["dir"] / "l.csv"
        write_surrogate_csvs(data, str(short), str(long_))
        from dyndml import read_surrogate_csvs

        back = read_surrogate_csvs(str(short), str(long_))
        np.testing.assert_array_equal(back.short_t, data.short_t)
        np.testing.assert_array_equal(back.long_y, data.long_y)
        np.testing.assert_array_equal(back.short_s, data.short_s)

    def test_continuous_surrogates_with_tabular_features_exit_2(self, files, capsys):
        data = two_sample_ref().simulate(60, 50, 2)
        long_s = data.long_s + np.random.default_rng(0).normal(size=data.long_s.shape)
        data = SurrogatePair(data.short_x, data.short_t, data.short_s, data.long_x, long_s,
                             data.long_y)
        short, long_ = files["dir"] / "short.csv", files["dir"] / "long.csv"
        write_surrogate_csvs(data, str(short), str(long_))
        argv = ["surrogate-estimate", "--short", str(short), "--long", str(long_),
                "--out", str(files["dir"] / "sur.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "tabular feature map for (S, X) has" in err and "more than its 50 rows" in err
        assert "features = polynomial | fourier" in err

    @pytest.mark.parametrize("sample", ["short", "long"])
    def test_surrogate_sample_with_fewer_rows_than_folds_exit_2(self, files, capsys, sample):
        sizes = {"short": 60, "long": 50, sample: 2}
        data = two_sample_ref().simulate(sizes["short"], sizes["long"], 2)
        short, long_ = files["dir"] / "short.csv", files["dir"] / "long.csv"
        write_surrogate_csvs(data, str(short), str(long_))
        argv = ["surrogate-estimate", "--short", str(short), "--long", str(long_), "--Q", "3",
                "--out", str(files["dir"] / "sur.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {sample} sample: cannot split 2 observations into 3 folds\n"

    def test_files_without_controls(self, files):
        """No x_* columns: one tabular cell for the controls, so the estimate
        is a plain treatment contrast of the surrogate index."""
        rng = np.random.default_rng(5)
        t = rng.integers(0, 2, 200)
        s = (rng.random(200) < 0.3 + 0.4 * t).astype(int)
        s_long = rng.integers(0, 2, 200)
        short = files["dir"] / "short.csv"
        long_ = files["dir"] / "long.csv"
        short.write_text("t,s_1\n" + "".join(f"{a},{b}\n" for a, b in zip(t, s)))
        long_.write_text("s_1,y\n" + "".join(f"{b},{2.0 * b}\n" for b in s_long))
        out = files["dir"] / "sur.json"
        argv = ["surrogate-estimate", "--short", str(short), "--long", str(long_),
                "--out", str(out)]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        assert report["config"]["feature_maps"][0]["dim"] == 2
        assert report["n_short"] == 200 and np.isfinite(report["theta_hat"])


class TestPlanFiles:
    def test_policy_and_contrast_plans(self, files, capsys):
        policy = files["dir"] / "policy.cfg"
        policy.write_text("kind = policy\npolicy_1 = 1 0\npolicy_2 = 1 1\n")
        rc = main(["oracle", "--dgp", files["dgp2"], "--plan", str(policy)])
        assert rc == 0
        contrast = files["dir"] / "contrast.cfg"
        contrast.write_text(
            "kind = contrast\ncoefficients = 1 -1\nsequence_1 = 1 1\nsequence_2 = 0 0\n"
        )
        rc = main(["oracle", "--dgp", files["dgp2"], "--plan", str(contrast)])
        assert rc == 0

    @pytest.mark.parametrize("command", ["oracle", "estimate"])
    def test_policy_table_shorter_than_state_grid_exit_2(self, files, capsys, command):
        policy = files["dir"] / "short.cfg"
        policy.write_text("kind = policy\npolicy_1 = 1\npolicy_2 = 1 1\n")
        if command == "oracle":
            argv = ["oracle", "--dgp", files["dgp2"], "--plan", str(policy)]
        else:
            data = files["dir"] / "d.csv"
            main(["simulate", "--dgp", files["dgp2"], "--n", "200", "--out", str(data)])
            argv = ["estimate", "--data", str(data), "--plan", str(policy),
                    "--out", str(files["dir"] / "r.json")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "policy table of length 1 has no code for state value 1" in err
        assert "Traceback" not in err

    def test_policy_on_vector_states_exit_2(self, files, capsys):
        # A grid policy reads scalar states; period 1's two state coordinates
        # are refused, not looked up by the first coordinate alone.
        rng = np.random.Generator(np.random.PCG64(4))
        data = PanelDataset(
            states=(rng.integers(0, 2, (60, 2)).astype(float),
                    rng.integers(0, 2, (60, 1)).astype(float)),
            treatments=rng.integers(0, 2, (60, 2)), outcome=rng.standard_normal(60),
            treatment_arities=(2, 2))
        panel, policy = files["dir"] / "vector.csv", files["dir"] / "policy.cfg"
        write_panel_csv(data, str(panel))
        policy.write_text("kind = policy\npolicy_1 = 0 1\npolicy_2 = 1 0\n")
        capsys.readouterr()
        assert main(["estimate", "--data", str(panel), "--plan", str(policy),
                     "--out", str(files["dir"] / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "grid policy takes scalar states; got state dimension 2" in err
        assert "Traceback" not in err

    def test_unknown_kind_exit_2(self, files, capsys):
        bad = files["dir"] / "bad.cfg"
        bad.write_text("kind = banana\n")
        rc = main(["oracle", "--dgp", files["dgp1"], "--plan", str(bad)])
        assert rc == 2
        assert "banana" in capsys.readouterr().err


class TestCsvSchemaErrors:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("s1_1,treat,y\n0,1,2\n", "unrecognized column 'treat'"),
            ("s1_1,t1,y\n0,1,2\n1,0,abc\n", "line 3, column 'y': 'abc' is not a number"),
            ("s1_1,t1,y\n0,1.5,2\n", "line 2, column 't1': '1.5' is not an integer"),
            ("s1_1,t1,y\n0,1,2\n1,0\n", "line 3 has 2 fields, the header has 3"),
            ("s1_1,t1,y\n0,1,2\n\n1,0,3\n", "line 3 has 0 fields, the header has 3"),
            ("s1_1,t1,y\n0,1,2\n1,0,nan\n", "non-finite value in outcome y, row 1"),
            ("s1_1,s3_1,t0,t1,y\n0,1,1,1,2\n", "column 's3_1' is outside the file's periods 1..1"),
            ("s1_1,t1,t1,y,y\n0,1,0,2,3\n", "repeated column 't1'"),
            ("s1_1,s1_3,t1,y\n0,1,1,2\n", "column 's1_3': indices of s1_* must run from 1"),
            ("s1_1,t01,y\n0,1,2\n", "unrecognized column 't01'"),
            ("s1_1,t1,y\n0,123456789012345678901234567890,1.0\n",
             "line 2, column 't1': '123456789012345678901234567890' is outside the int64 range"),
            ("s1_1,t1,y\n" + "0,0,1.0\n" * 39 + "1,9223372036854775807,2.0\n",
             "column t1: treatment code 9223372036854775807 implies"),
        ],
    )
    def test_panel_schema_errors_exit_2(self, files, capsys, text, message):
        panel = files["dir"] / "bad_panel.csv"
        panel.write_text(text)
        argv = ["estimate", "--data", str(panel), "--plan", files["plan1"], "--out", "r.json"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        if "non-finite" not in message:
            assert str(panel) in err

    @pytest.mark.parametrize(
        "short_text, long_text, bad, message",
        [
            ("x_a,t,s_1\n0,1,2\n", "x_1,s_1,y\n0,1,2\n", "short", "unrecognized column 'x_a'"),
            ("x_1,t,s_1\n0,1,2\n", "x_1,s_1,y\n0,1,oops\n", "long", "line 2, column 'y'"),
            ("x_1,t,s_1\n0,1,2,3\n", "x_1,s_1,y\n0,1,2\n", "short", "line 2 has 4 fields"),
            ("x_1,t,s_1,t\n0,1,2,0\n", "x_1,s_1,y\n0,1,2\n", "short", "repeated column 't'"),
            ("x_1,x_1,t,s_1\n0,0,1,2\n", "x_1,s_1,y\n0,1,2\n", "short", "repeated column 'x_1'"),
            ("x_1,x_2,t,s_1\n0,0,1,2\n", "x_1,x_3,s_1,y\n0,0,1,2\n", "long",
             "column 'x_3': indices of x_* must run from 1"),
            ("x_1,t,s_1,y\n0,1,2,3\n", "x_1,s_1,y\n0,1,2\n", "short", "unrecognized column 'y'"),
            ("x_1,t,s_1\n0,99999999999999999999,2\n", "x_1,s_1,y\n0,1,2\n", "short",
             "line 2, column 't': '99999999999999999999' is outside the int64 range"),
            ("x_1,s_1\n0,2\n", "x_1,s_1,y\n0,1,2\n", "short", "missing column t"),
            ("x_1,t,s_1\n0,1,2\n", "x_1,s_1\n0,1\n", "long", "missing column y"),
        ],
    )
    def test_surrogate_schema_errors_exit_2(self, files, capsys, short_text, long_text, bad, message):
        paths = {"short": files["dir"] / "short.csv", "long": files["dir"] / "long.csv"}
        paths["short"].write_text(short_text)
        paths["long"].write_text(long_text)
        argv = ["surrogate-estimate", "--short", str(paths["short"]), "--long", str(paths["long"]),
                "--out", "r.json"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and str(paths[bad]) in err and "Traceback" not in err

    @pytest.mark.parametrize("content", [None, b"s1_1,t1,y\n0,1,\xff\n"])
    def test_unreadable_data_file_exit_2(self, files, capsys, content):
        panel = files["dir"] / "panel.csv"
        if content is not None:
            panel.write_bytes(content)
        argv = ["estimate", "--data", str(panel), "--plan", files["plan1"], "--out", "r.json"]
        assert main(argv) == 2
        assert f"cannot read {panel}" in capsys.readouterr().err


def test_quoted_and_crlf_panels_read_the_same(files):
    """One panel as `simulate` writes it (CRLF ends), with LF ends, with every
    cell quoted, and with an R-style quoted header over a CRLF body: the same
    arrays and a byte-identical report from each."""
    crlf = files["dir"] / "crlf.csv"
    argv = ["simulate", "--dgp", files["dgp2"], "--n", "300", "--seed", "4", "--out", str(crlf)]
    assert main(argv) == 0
    with crlf.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert crlf.read_bytes().count(b"\r\n") == len(rows)
    texts = {
        "lf": "".join(",".join(row) + "\n" for row in rows),
        "r": ",".join(f'"{name}"' for name in rows[0]) + "\r\n"
        + "".join(",".join(row) + "\r\n" for row in rows[1:]),
    }
    paths = {"crlf": crlf}
    for name, text in texts.items():
        paths[name] = files["dir"] / f"{name}.csv"
        paths[name].write_bytes(text.encode())
    paths["quoted"] = files["dir"] / "quoted.csv"
    with paths["quoted"].open("w", newline="") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(rows)
    reports = {}
    for name, path in paths.items():
        data = read_panel_csv(str(path))
        arrays = (*data.states, data.treatments, data.outcome)
        reports[name] = ([a.tobytes() for a in arrays], data.treatment_arities)
        out = files["dir"] / f"{name}.json"
        argv = ["estimate", "--data", str(path), "--plan", files["plan11"], "--config",
                files["config"], "--out", str(out)]
        assert main(argv) == 0
        reports[name] += (out.read_bytes(),)
    assert all(report == reports["crlf"] for report in reports.values())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3).flatmap(lambda d: st.lists(
    st.lists(st.sampled_from([-1.5, -0.0, 0.0, 1.0, 2.0]), min_size=d, max_size=d),
    min_size=1, max_size=30,
)))
def test_distinct_rows_match_numpy_unique(rows):
    s = np.array(rows)
    np.testing.assert_array_equal(_distinct_rows(s), np.unique(s, axis=0))


class TestSettings:
    def mc_argv(self, files, plan=None, config=None, dgp=None):
        return ["mc", "--reps", "2", "--n", "100", "--out", str(files["dir"] / "mc.csv"),
                "--dgp", dgp or files["dgp2"], "--plan", plan or files["plan11"],
                "--config", config or files["config"]]

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("--plan", "kind =\n", "missing key 'kind'"),
            ("--plan", "kind = policy\npolicy_1 = 1 0.6\npolicy_2 = 1 1\n",
             "key 'policy_1': '0.6' is not an integer"),
            ("--plan", "kind = fixed\ntreatments = 1.7 1\n",
             "key 'treatments': '1.7' is not an integer"),
            ("--config", "Q = 3 4\n", "key 'Q' needs 1 values, got 2"),
            ("--config", '{"Q": 3,}\n', "invalid JSON"),
            ("--config", "Q = 3\nridge 0.1\n", ":2: expected `key = value`"),
            ("--config", "features = splines\n", "unknown feature kind 'splines'"),
            ("--dgp", "periods = 0\n", "periods must be >= 1"),
            ("--plan", "kind = policy\n", "policy plan needs policy_1, policy_2, ..."),
        ],
    )
    def test_malformed_file_exit_2(self, files, capsys, flag, text, message):
        bad = files["dir"] / "bad.cfg"
        bad.write_text(text)
        argv = self.mc_argv(files, **{flag[2:]: str(bad)})
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and str(bad) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "env, extra, message",
        [
            ({"DYNDML_SEED": "abc"}, [], "environment DYNDML_SEED: 'abc' is not an integer"),
            ({"DYNDML_Q": "abc"}, [], "environment DYNDML_Q: 'abc' is not an integer"),
            ({"DYNDML_JOBS": "abc"}, [], "environment DYNDML_JOBS: 'abc' is not an integer"),
            ({}, ["--jobs", "0"], "jobs must be >= 1"),
        ],
    )
    def test_malformed_jobs_or_environment_exit_2(
        self, files, capsys, monkeypatch, env, extra, message
    ):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(self.mc_argv(files) + extra) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "estimate", "diagnose"])
    def test_negative_seed_exit_2(self, files, capsys, command):
        data, out = files["dir"] / "d.csv", str(files["dir"] / "out.json")
        main(["simulate", "--dgp", files["dgp2"], "--n", "200", "--seed", "1", "--out", str(data)])
        argv = {
            "simulate": ["--dgp", files["dgp2"], "--n", "200", "--seed", "-3", "--out", str(data)],
            "estimate": ["--data", str(data), "--plan", files["plan11"], "--config",
                         files["config"], "--seed", "-1", "--out", out],
            "diagnose": ["--dgp", files["dgp2"], "--plan", files["plan11"], "--seed", "-1",
                         "--out", out],
        }[command]
        capsys.readouterr()
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert "seed must be a non-negative integer, got -" in err and "Traceback" not in err

    def test_mc_mixes_any_integer_seed(self, files):
        # mc's seed only reaches a generator through mix_seed's 64-bit mask.
        assert main(self.mc_argv(files) + ["--seed", "-1"]) == 0

    def test_precedence_and_empty_values(self, files, capsys, monkeypatch):
        data = files["dir"] / "d.csv"
        main(["simulate", "--dgp", files["dgp1"], "--n", "400", "--seed", "2", "--out", str(data)])
        empty = files["dir"] / "empty.cfg"
        empty.write_text("features =\nclip =\n" + CONFIG_TAB)

        def estimate(config, *flags):
            out = files["dir"] / "r.json"
            argv = ["estimate", "--data", str(data), "--plan", files["plan1"],
                    "--config", config, "--out", str(out), *flags]
            assert main(argv) == 0
            return out.read_bytes()

        assert estimate(str(empty)) == estimate(files["config"])
        # DYNDML_JOBS applies only to commands that take --jobs.
        monkeypatch.setenv("DYNDML_JOBS", "abc")
        monkeypatch.setenv("DYNDML_Q", "3")
        assert json.loads(estimate(files["config"]))["Q"] == 3
        assert json.loads(estimate(files["config"], "--Q", "4"))["Q"] == 4

    def test_integer_tokens_parsed_exactly(self, files):
        big = files["dir"] / "big.cfg"
        big.write_text(DGP1.replace("periods = 1", "periods = 1.0").replace(
            "seed = 3", "seed = 9007199254740993"))
        dgp = load_dgp(str(big))
        assert dgp.num_periods == 1 and dgp.seed == 9007199254740993


NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "+Infinity", "-Infinity"])


def _replace_cell(path: Path, row: int, column: str, text: str) -> None:
    lines = path.read_text().splitlines()
    j = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[j] = text
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _exit_code(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


class TestNonFiniteInput:
    """A NaN or an infinity in any cell is a ValidationError: through the
    constructors, through the CSV readers (a treatment cell is not an integer)
    and, from a file, exit 2 of the CLI."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), text=NON_FINITE)
    def test_panel(self, data, text):
        n = data.draw(st.integers(2, 6))
        dims = data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
        m = len(dims)
        row = data.draw(st.integers(0, n - 1))
        column = data.draw(st.sampled_from(
            ["y"] + [f"t{t}" for t in range(1, m + 1)]
            + [f"s{t}_{j}" for t, d in enumerate(dims, 1) for j in range(1, d + 1)]))
        rng = np.random.default_rng(n)
        states = [rng.normal(size=(n, d)) for d in dims]
        treatments, outcome = rng.integers(0, 2, (n, m)), rng.normal(size=n)
        if not column.startswith("t"):
            bad = [s.copy() for s in states] + [outcome.copy()]
            if column == "y":
                bad[-1][row] = float(text)
            else:
                t, j = map(int, column[1:].split("_"))
                bad[t - 1][row, j - 1] = float(text)
            with pytest.raises(ValidationError, match=f"non-finite value in .*, row {row}$"):
                PanelDataset(tuple(bad[:-1]), treatments, bad[-1], (2,) * m)
        message = "is not an integer" if column.startswith("t") else f"row {row}$"
        with tempfile.TemporaryDirectory() as tmp:
            panel, plan = Path(tmp) / "panel.csv", Path(tmp) / "plan.cfg"
            write_panel_csv(PanelDataset(tuple(states), treatments, outcome, (2,) * m), str(panel))
            _replace_cell(panel, row, column, text)
            with pytest.raises(ValidationError, match=message):
                read_panel_csv(str(panel))
            plan.write_text("kind = fixed\ntreatments =" + " 1" * m + "\n")
            rc, err = _exit_code(["estimate", "--data", str(panel), "--plan", str(plan),
                                  "--out", str(Path(tmp) / "r.json")])
        assert rc == 2 and "Traceback" not in err

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), text=NON_FINITE)
    def test_surrogate(self, data, text):
        p, q = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        n_short, n_long = data.draw(st.integers(2, 5)), data.draw(st.integers(2, 5))
        sample = data.draw(st.sampled_from(["short", "long"]))
        row = data.draw(st.integers(0, (n_short if sample == "short" else n_long) - 1))
        other = "t" if sample == "short" else "y"
        column = data.draw(st.sampled_from(
            [other] + [f"x_{j}" for j in range(1, p + 1)] + [f"s_{j}" for j in range(1, q + 1)]))
        rng = np.random.default_rng(p + q)
        arrays = {"short_x": rng.normal(size=(n_short, p)), "short_t": rng.integers(0, 2, n_short),
                  "short_s": rng.normal(size=(n_short, q)), "long_x": rng.normal(size=(n_long, p)),
                  "long_s": rng.normal(size=(n_long, q)), "long_y": rng.normal(size=n_long)}
        if column != "t":
            field = f"{sample}_{column[0]}"
            bad = dict(arrays, **{field: arrays[field].copy()})
            cell = (row,) if column == "y" else (row, int(column[2:]) - 1)
            bad[field][cell] = float(text)
            with pytest.raises(ValidationError, match=f"non-finite value in {sample} sample "
                                                      f"{column}, row {row}$"):
                SurrogatePair(**bad)
        message = "is not an integer" if column == "t" else f"row {row}$"
        with tempfile.TemporaryDirectory() as tmp:
            paths = {"short": Path(tmp) / "short.csv", "long": Path(tmp) / "long.csv"}
            write_surrogate_csvs(SurrogatePair(**arrays), str(paths["short"]), str(paths["long"]))
            _replace_cell(paths[sample], row, column, text)
            with pytest.raises(ValidationError, match=message):
                read_surrogate_csvs(str(paths["short"]), str(paths["long"]))
            rc, err = _exit_code(["surrogate-estimate", "--short", str(paths["short"]),
                                  "--long", str(paths["long"]), "--out", str(Path(tmp) / "r.json")])
        assert rc == 2 and "Traceback" not in err
