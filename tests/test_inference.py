import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_ulp_off, tabular_config
from dyndml import (
    ConstantFn,
    Contrast,
    DiscreteDGP,
    DynamicPolicy,
    EstimateReport,
    FitConfig,
    FixedSequence,
    NuisanceSet,
    PanelDataset,
    PolynomialFeatures,
    RandomFourierFeatures,
    TabularFeatures,
    PlanError,
    PositivityError,
    SolverError,
    ValidationError,
    dgp_ref_2,
    dml_estimate,
    fit_nested_regressions,
    grid_policy,
    make_folds,
    mc_experiment,
    mix_seed,
    moment_scores,
    normal_quantile,
    oracle_nuisances,
    oracle_theta,
    random_dgp,
    rate_diagnostics,
    simulate,
)
from dyndml import inference, nuisance
from dyndml.inference import _failure_cause
from dyndml.nuisance import fit_nuisances


def spy_chunks(monkeypatch, shift=None):
    """The (replicates, units) of each stage-engine pass of `mc_experiment`, its
    replicates' panels passed through `shift` if given."""
    seen, cross_fit = [], inference.cross_fit

    def spy(units, *args, **kwargs):
        seen.append((len(units.scale), len(units.outcome)))
        return cross_fit(units, *args, **kwargs)

    monkeypatch.setattr("dyndml.inference.cross_fit", spy)
    if shift is not None:
        monkeypatch.setattr("dyndml.inference.simulate", lambda *a: shift(simulate(*a)))
    return seen


class TestNormalQuantile:
    def test_reference_values(self):
        # frozen high-precision constants
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, rel=1e-10)
        assert normal_quantile(0.995) == pytest.approx(2.5758293035489004, rel=1e-10)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert normal_quantile(0.0013498980316300946) == pytest.approx(-3.0, rel=1e-9)

    def test_symmetry(self):
        for p in (0.6, 0.9, 0.999, 1e-6):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), rel=1e-9, abs=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValidationError):
                normal_quantile(bad)


class TestFolds:
    def test_even_split(self):
        plan = make_folds(10, 5, 0)
        assert [f.shape[0] for f in plan.folds] == [2] * 5

    def test_remainder_distribution(self):
        plan = make_folds(10, 3, 0)
        assert [f.shape[0] for f in plan.folds] == [4, 3, 3]

    def test_determinism(self):
        a = make_folds(100, 5, 7)
        b = make_folds(100, 5, 7)
        for fa, fb in zip(a.folds, b.folds):
            np.testing.assert_array_equal(fa, fb)

    def test_too_many_folds_rejected(self):
        with pytest.raises(ValidationError):
            make_folds(3, 4, 0)

    @pytest.mark.parametrize("q_folds, seed, message", [
        (2.5, 0, "the fold count must be an integer, got 2.5"),
        (3.0, 0, "the fold count must be an integer, got 3.0"),
        (3, -1, "seed must be a non-negative integer, got -1"),
        (3, 1.0, "seed must be a non-negative integer, got 1.0"),
        (1, 0, "need at least two folds"),
    ])
    def test_fold_count_and_seed_must_be_integers(self, dgp2, plan2, q_folds, seed, message):
        with pytest.raises(ValidationError, match=message):
            make_folds(10, q_folds, seed)
        with pytest.raises(ValidationError, match=message):
            dml_estimate(simulate(dgp2, 60, 1), plan2, tabular_config(dgp2), q_folds, seed)

    @pytest.mark.parametrize("n, message", [
        (2.5, "n must be an integer, got 2.5"),
        (10.0, "n must be an integer, got 10.0"),
    ])
    def test_row_count_must_be_an_integer(self, n, message):
        with pytest.raises(ValidationError) as err:
            make_folds(n, 2, 0)
        assert str(err.value) == message

    def test_numpy_integer_fold_count_and_seed_fold_alike(self):
        a, b = make_folds(50, np.int64(3), np.uint32(9)), make_folds(50, 3, 9)
        for fa, fb in zip(a.folds, b.folds):
            np.testing.assert_array_equal(fa, fb)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 300), q=st.integers(2, 12), seed=st.integers(0, 2**31))
    def test_partition_property(self, n, q, seed):
        if q > n:
            return
        plan = make_folds(n, q, seed)
        merged = np.sort(np.concatenate(plan.folds))
        np.testing.assert_array_equal(merged, np.arange(n))
        sizes = {f.shape[0] for f in plan.folds}
        assert sizes <= {n // q, n // q + 1}


class TestDmlEstimate:
    def test_ref1_within_clt_band(self, dgp1, plan1):
        data = simulate(dgp1, 4000, 19)
        report = dml_estimate(data, plan1, tabular_config(dgp1), 5, 23)
        band = 4.0 * report.sigma_hat / math.sqrt(4000)
        assert abs(report.theta_hat - 1.5) <= band
        assert report.ci_lower <= report.theta_hat <= report.ci_upper

    def test_bit_identical_reports(self, dgp2, plan2):
        data = simulate(dgp2, 1500, 3)
        cfg = tabular_config(dgp2)
        a = dml_estimate(data, plan2, cfg, 5, 11)
        b = dml_estimate(data, plan2, cfg, 5, 11)
        assert a.to_json() == b.to_json()

    def test_fold_relabeling_invariance_with_injected_nuisances(self, dgp2, plan2):
        # with fixed nuisances the score of each unit does not depend on fold
        # membership, so any fold seed yields the same estimate
        data = simulate(dgp2, 1000, 5)
        nus = oracle_nuisances(dgp2, plan2)
        cfg = tabular_config(dgp2)
        a = dml_estimate(data, plan2, cfg, 5, 1, nuisances=nus)
        b = dml_estimate(data, plan2, cfg, 5, 999, nuisances=nus)
        assert a.theta_hat == b.theta_hat
        assert a.sigma_hat == b.sigma_hat

    def test_injected_oracle_equals_plain_score_mean(self, dgp2, plan2):
        data = simulate(dgp2, 2000, 6)
        nus = oracle_nuisances(dgp2, plan2)
        report = dml_estimate(data, plan2, tabular_config(dgp2), 4, 2, nuisances=nus)
        values, _, _ = moment_scores(data, plan2, nus)
        assert report.theta_hat == pytest.approx(values.mean(), abs=1e-13)

    def test_sigma_consistent_for_population_score_variance(self, plan2):
        dgp = DiscreteDGP(
            initial=np.array([0.5, 0.5]),
            propensities=(np.full((2, 2), 0.5),) * 2,
            transitions=(np.array([[[0.8, 0.2], [0.4, 0.6]], [[0.3, 0.7], [0.5, 0.5]]]),),
            outcome_mean=np.array([[0.0, 2.0], [1.0, 3.0]]),
            sigma_y=0.0,
        )
        nus = oracle_nuisances(dgp, plan2)
        theta = oracle_theta(dgp, plan2)
        paths = dgp.paths()
        scores, _, _ = moment_scores(paths.data, plan2, nus)
        pop_var = float(paths.prob @ (scores - theta) ** 2)
        data = simulate(dgp, 50_000, 77)
        report = dml_estimate(data, plan2, tabular_config(dgp), 5, 7)
        assert report.sigma_hat**2 == pytest.approx(pop_var, rel=0.05)

    def test_clever_mode_correction_means_vanish(self, dgp2, plan2):
        data = simulate(dgp2, 3000, 8)
        report = dml_estimate(data, plan2, tabular_config(dgp2), 5, 3, clever=True)
        for fold in report.per_fold:
            for c in fold["clever_correction_means"]:
                assert abs(c) <= 1e-8

    def test_location_equivariance(self, dgp2, plan2):
        # exact with an unpenalized saturated class: every fitted table shifts
        # by the constant, the representers and residuals do not move
        shifted = DiscreteDGP(
            initial=dgp2.initial,
            propensities=dgp2.propensities,
            transitions=dgp2.transitions,
            outcome_mean=dgp2.outcome_mean + 10.0,
            sigma_y=dgp2.sigma_y,
        )
        cfg = tabular_config(dgp2, ridge=0.0)
        a = dml_estimate(simulate(dgp2, 3000, 9), plan2, cfg, 5, 4)
        b = dml_estimate(simulate(shifted, 3000, 9), plan2, cfg, 5, 4)
        assert b.theta_hat - a.theta_hat == pytest.approx(10.0, abs=1e-10)
        assert b.sigma_hat == pytest.approx(a.sigma_hat, abs=1e-10)

    def test_report_json_round_trip(self, dgp1, plan1):
        data = simulate(dgp1, 500, 10)
        report = dml_estimate(data, plan1, tabular_config(dgp1), 5, 5)
        loaded = json.loads(report.to_json())
        assert loaded["n"] == 500 and loaded["Q"] == 5
        assert loaded["ci_lower"] == report.ci_lower
        assert "n_short" not in loaded
        assert len(loaded["per_fold"]) == 5

    @pytest.mark.parametrize("bounds", [(1 - 0.196, 1e6), (-1e6, 1 + 0.196)])
    def test_both_interval_ends_must_match_theta_and_sigma(self, bounds):
        # Each interval end is checked against theta_hat -+ 1.96 sigma/sqrt(n);
        # the matching end alone does not make a report valid.
        lower, upper = bounds
        with pytest.raises(ValidationError, match="interval does not match"):
            EstimateReport(theta_hat=1.0, sigma_hat=1.0, ci_lower=lower, ci_upper=upper,
                           n=100, Q=2, seed=0, per_fold=[], config={})
        report = EstimateReport(theta_hat=1.0, sigma_hat=1.0, ci_lower=1 - 0.196,
                                ci_upper=1 + 0.196, n=100, Q=2, seed=0, per_fold=[], config={})
        assert report.interval() == (1 - 0.196, 1 + 0.196)

    def test_other_confidence_levels(self, dgp1, plan1):
        data = simulate(dgp1, 500, 10)
        report = dml_estimate(data, plan1, tabular_config(dgp1), 5, 5)
        assert report.interval(0.95) == (report.ci_lower, report.ci_upper)
        lo99, hi99 = report.interval(0.99)
        z99 = normal_quantile(0.995)
        assert hi99 - lo99 == pytest.approx(
            2 * z99 * report.sigma_hat / math.sqrt(500), rel=1e-12
        )
        assert lo99 < report.ci_lower and hi99 > report.ci_upper

    def test_three_period_estimation(self):
        rng = np.random.Generator(np.random.PCG64(2718))
        dgp = random_dgp(rng, periods=3, max_states=3, sigma_y=0.5)
        plan = FixedSequence((1, 0, 1))
        truth = oracle_theta(dgp, plan)
        data = simulate(dgp, 6000, 3)
        report = dml_estimate(data, plan, tabular_config(dgp), 5, 4)
        assert abs(report.theta_hat - truth) <= 4.0 * report.sigma_hat / math.sqrt(6000)

    def test_policy_plan_estimation(self, dgp2):
        plan = DynamicPolicy((grid_policy([1, 0]), grid_policy([0, 1])))
        truth = oracle_theta(dgp2, plan)
        data = simulate(dgp2, 6000, 5)
        report = dml_estimate(data, plan, tabular_config(dgp2), 5, 6)
        assert abs(report.theta_hat - truth) <= 4.0 * report.sigma_hat / math.sqrt(6000)

    def test_contrast_plan_estimation(self, dgp2):
        plan = Contrast.of_sequences([1.0, -1.0], [(1, 1), (0, 0)])
        truth = oracle_theta(dgp2, plan)
        data = simulate(dgp2, 6000, 7)
        report = dml_estimate(data, plan, tabular_config(dgp2), 5, 8)
        assert abs(report.theta_hat - truth) <= 4.0 * report.sigma_hat / math.sqrt(6000)

    def test_normality_of_oracle_scores(self, dgp2, plan2):
        # Jarque-Bera style statistic for sqrt(n)(theta-hat - theta)/sigma over
        # replicates, with the truth injected so no fitting noise enters and
        # sigma the exact population score deviation
        nus = oracle_nuisances(dgp2, plan2)
        theta = oracle_theta(dgp2, plan2)
        paths = dgp2.paths()
        pop_scores, _, _ = moment_scores(paths.data, plan2, nus)
        sigma = math.sqrt(
            float(paths.prob @ (pop_scores - theta) ** 2) + dgp2.sigma_y**2 * float(
                paths.prob
                @ nus.representers[-1].batch(paths.data.states[-1], paths.treatments[:, -1]) ** 2
            )
        )
        reps, n = 500, 2000
        zs = np.empty(reps)
        for r in range(reps):
            data = simulate(dgp2, n, mix_seed(321, r))
            values, _, _ = moment_scores(data, plan2, nus)
            zs[r] = math.sqrt(n) * (values.mean() - theta) / sigma
        zc = zs - zs.mean()
        m2 = np.mean(zc**2)
        skew = np.mean(zc**3) / m2**1.5
        kurt = np.mean(zc**4) / m2**2 - 3.0
        jb = reps / 6.0 * (skew**2 + kurt**2 / 4.0)
        assert jb < 9.21  # 1% critical value of chi^2_2


class TestTargetedCodes:
    """A targeted code that no row has has no inverse propensity, so the
    representer does not exist: a PositivityError, not an estimate."""

    @pytest.mark.parametrize("fit", [
        lambda data, plan, cfg: dml_estimate(data, plan, cfg, 5, 1), fit_nested_regressions,
    ], ids=["dml_estimate", "fit_nested_regressions"])
    def test_declared_but_unseen_level(self, dgp2, fit):
        # Period 2 declares three levels; the process draws only codes 0 and 1.
        sample = simulate(dgp2, 500, 5)
        data = PanelDataset(sample.states, sample.treatments, sample.outcome, (2, 3))
        maps = (TabularFeatures(np.arange(2.0), 2), TabularFeatures(np.arange(2.0), 3))
        with pytest.raises(PositivityError, match=r"^period 2: the plan targets treatment code "
                                                  r"2, which no row has$"):
            fit(data, FixedSequence((1, 2)), FitConfig(feature_maps=maps))

    def test_replicates_without_the_targeted_code_fail(self):
        # P(T = 1) = 0.02 in both states: 21 of 40 replicates of 30 rows have no
        # code-1 row, and each is a failed replicate under one cause.
        dgp = DiscreteDGP(
            initial=np.array([0.5, 0.5]),
            propensities=(np.array([[0.98, 0.02], [0.98, 0.02]]),),
            transitions=(),
            outcome_mean=np.array([[0.0, 1.0], [1.0, 2.0]]),
            sigma_y=0.0,
        )
        result = mc_experiment(dgp, FixedSequence((1,)), tabular_config(dgp), 40, 30, 3, seed=5)
        missing = [r for r in range(40) if not simulate(dgp, 30, mix_seed(5, r)).treatments.any()]
        assert len(missing) == 21
        assert [row.rep for row in result.rows if row.failed] == missing
        assert result.failure_counts == {"the plan targets treatment code 1, which no row has": 21}


class TestMonteCarlo:
    def test_single_rep_reproduces_dml_estimate(self, dgp2, plan2):
        cfg = tabular_config(dgp2)
        result = mc_experiment(dgp2, plan2, cfg, 1, 800, 4, seed=55)
        rep_seed = mix_seed(55, 0)
        manual = dml_estimate(simulate(dgp2, 800, rep_seed), plan2, cfg, 4, mix_seed(rep_seed, 1))
        row = result.rows[0]
        assert row.theta_hat == manual.theta_hat
        assert row.sigma_hat == manual.sigma_hat
        assert result.rmse == abs(manual.theta_hat - result.theta_true)

    def test_jobs_bitwise_equal(self, monkeypatch, dgp2, plan2):
        # Replicates one ulp off the grid are fitted row by row, 5 of 1500 rows
        # to a chunk, so the threads have chunks to share.
        cfg = tabular_config(dgp2)
        seen = spy_chunks(monkeypatch, one_ulp_off)
        serial = mc_experiment(dgp2, plan2, cfg, 12, 1500, 4, seed=9, jobs=1)
        assert [k for k, _ in seen] == [5, 5, 2]
        parallel = mc_experiment(dgp2, plan2, cfg, 12, 1500, 4, seed=9, jobs=4)
        assert seen[3:] == seen[:3]
        for a, b in zip(serial.rows, parallel.rows):
            assert (a.rep, a.theta_hat, a.sigma_hat, a.covered) == (
                b.rep,
                b.theta_hat,
                b.sigma_hat,
                b.covered,
            )
        assert serial.summary_dict() == parallel.summary_dict()

    def test_bias_within_clt_band(self, dgp2, plan2):
        result = mc_experiment(dgp2, plan2, tabular_config(dgp2), 60, 500, 4, seed=77)
        assert result.n_failed == 0
        assert abs(result.bias) <= 4.0 * result.rmse / math.sqrt(60)

    def test_failures_flagged_not_fatal(self, dgp2, plan2):
        # tiny folds with a zero penalty leave empty design cells in some reps
        cfg = tabular_config(dgp2, ridge=0.0)
        result = mc_experiment(dgp2, plan2, cfg, 30, 24, 3, seed=13)
        assert result.n_failed > 0
        failed_rows = [r for r in result.rows if r.failed]
        assert failed_rows and all(math.isnan(r.theta_hat) for r in failed_rows)
        assert len(result.rows) == 30
        counts = result.failure_counts
        assert sum(counts.values()) == result.n_failed
        assert list(counts) == list(dict.fromkeys(_failure_cause(r.message) for r in failed_rows))
        assert not any(cause.startswith("fold ") for cause in counts)

    def test_failures_are_counted_by_cause(self, dgp2, plan2):
        # The zero-penalty failures of different folds, periods and design
        # columns are one cause, with the first failing replicate's message.
        result = mc_experiment(dgp2, plan2, tabular_config(dgp2, ridge=0.0), 200, 24, 3, seed=13)
        messages = [r.message for r in result.rows if r.failed]
        assert len(set(messages)) > 1
        cause = "singular system with zero penalty: design column has no mass (rank deficient)"
        assert result.failure_counts == {cause: result.n_failed}
        assert result.failure_examples == {cause: messages[0]}

    def test_jobs_must_be_positive(self, dgp2, plan2):
        with pytest.raises(ValidationError, match="jobs must be >= 1"):
            mc_experiment(dgp2, plan2, tabular_config(dgp2), 2, 100, 2, seed=1, jobs=0)

    @pytest.mark.parametrize("reps, n, jobs, message", [
        (2.5, 100, 1, "reps must be an integer, got 2.5"),
        (2, 100.0, 1, "n must be an integer, got 100.0"),
        (2, 100, 2.0, "jobs must be an integer, got 2.0"),
    ])
    def test_counts_must_be_integers(self, dgp2, plan2, reps, n, jobs, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            mc_experiment(dgp2, plan2, tabular_config(dgp2), reps, n, 3, 0, jobs=jobs)

    def test_numpy_integer_counts_run_alike(self, dgp2, plan2):
        cfg = tabular_config(dgp2)
        a = mc_experiment(dgp2, plan2, cfg, np.int64(2), np.int32(100), 3, 0, jobs=np.int64(1))
        assert a.rows == mc_experiment(dgp2, plan2, cfg, 2, 100, 3, 0).rows

    def test_csv_schema(self, dgp2, plan2, tmp_path):
        result = mc_experiment(dgp2, plan2, tabular_config(dgp2), 3, 300, 3, seed=1)
        out = tmp_path / "mc.csv"
        result.write_csv(str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rep,theta_hat,sigma_hat,ci_lower,ci_upper,covered,failed"
        assert len(lines) == 4

    def test_ci_width_scales_with_sqrt_n(self, dgp2, plan2):
        cfg = tabular_config(dgp2)
        widths = {}
        for n in (1000, 4000):
            r = mc_experiment(dgp2, plan2, cfg, 30, n, 4, seed=5)
            widths[n] = np.mean(
                [row.ci_upper - row.ci_lower for row in r.rows if not row.failed]
            )
        assert widths[1000] / widths[4000] == pytest.approx(2.0, rel=0.1)


class TestStackedReplicates:
    """`mc_experiment` fits a chunk of up to MC_CHUNK_UNITS units of replicates
    in one stage-engine pass; every replicate still gets what dml_estimate
    gives it alone, and a chunk that fails is split in halves until each
    failing replicate is fitted alone."""

    @staticmethod
    def alone(dgp, plan, cfg, n, q, seed, r, shift=None):
        rep_seed = mix_seed(seed, r)
        data = simulate(dgp, n, rep_seed)
        return dml_estimate(data if shift is None else shift(data), plan, cfg, q,
                            mix_seed(rep_seed, 1))

    @pytest.mark.parametrize("packed", [None, 1], ids=["all-folds", "fold-by-fold"])
    @pytest.mark.parametrize("n, q, reps, shift, chunks", [
        (2000, 5, 10, None, [10]),               # at most 5 * 16 distinct histories each
        (2000, 5, 10, one_ulp_off, [4, 4, 2]),   # per row: 2000 units each
        (24, 3, 20, None, [20]),                 # key space 3 * 16 = 48 > 24: per row
    ], ids=["distinct-histories", "one-ulp-off", "per-row"])
    def test_each_replicate_matches_its_own_estimate(self, monkeypatch, n, q, reps, shift,
                                                     chunks, packed):
        dgp, cfg = dgp_ref_2(), tabular_config(dgp_ref_2())
        plan = DynamicPolicy((grid_policy([1, 0]), grid_policy([0, 1])))
        seen = spy_chunks(monkeypatch, shift)
        with monkeypatch.context() as patch:
            if packed:  # value the chunk's training sets one fold at a time (`_PACKED`)
                patch.setattr("dyndml.nuisance._PACKED", packed)
            result = mc_experiment(dgp, plan, cfg, reps, n, q, seed=21)
        assert [k for k, _ in seen] == chunks and result.n_failed == 0
        assert all(units <= inference.MC_CHUNK_UNITS for _, units in seen)
        for r, row in enumerate(result.rows):
            want = self.alone(dgp, plan, cfg, n, q, 21, r, shift)
            for key in ("theta_hat", "sigma_hat", "ci_lower", "ci_upper"):
                got, expected = getattr(row, key), getattr(want, key)
                assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_tabular_cells_are_checked_against_a_replicates_rows(self):
        # Eight replicates of 3 rows stack to 24 rows, but each replicate has
        # 3 rows for a map of 4 cells.
        dgp = dgp_ref_2()
        for jobs in (1, 2):
            with pytest.raises(ValidationError, match=r"^tabular feature map for period 1 has "
                                                      r"4 cells, more than its 3 rows"):
                mc_experiment(dgp, FixedSequence((1, 1)), tabular_config(dgp), 8, 3, 2, seed=0,
                              jobs=jobs)

    def test_a_replicate_without_the_targeted_code_fails_alone(self, monkeypatch):
        # P(T = 1) = 0.1: of replicates 0-4 (one chunk) only replicate 3 has no
        # code-1 row.
        dgp = DiscreteDGP(initial=np.array([0.5, 0.5]),
                          propensities=(np.array([[0.9, 0.1], [0.9, 0.1]]),), transitions=(),
                          outcome_mean=np.array([[0.0, 1.0], [1.0, 2.0]]), sigma_y=1.0)
        plan, cfg = FixedSequence((1,)), tabular_config(dgp)
        seen = spy_chunks(monkeypatch)
        result = mc_experiment(dgp, plan, cfg, 5, 30, 3, seed=12)
        # the chunk, then halves until replicate 3 stands alone: [0, 1] and
        # [2, 3, 4], then [2] and [3, 4], then [3] and [4]
        assert [k for k, _ in seen] == [5, 2, 3, 1, 2, 1, 1]
        assert [row.failed for row in result.rows] == [0, 0, 0, 1, 0]
        with pytest.raises(PositivityError) as alone:
            self.alone(dgp, plan, cfg, 30, 3, 12, 3)
        assert result.rows[3].message == str(alone.value) == (
            "period 1: the plan targets treatment code 1, which no row has")
        for r in (0, 1, 2, 4):
            assert result.rows[r].theta_hat == self.alone(dgp, plan, cfg, 30, 3, 12, r).theta_hat

    def test_a_failing_chunk_is_halved_down_to_its_failures(self, monkeypatch):
        # P(T = 1) = 0.0015 at n = 2000: 2 of 100 replicates, one chunk, have
        # no code-1 row. Halving finds them in at most 1 + 2 k ceil(log2 R)
        # fits (25 here), where refitting each replicate alone took 101.
        dgp = DiscreteDGP(initial=np.array([0.5, 0.5]),
                          propensities=(np.array([[0.9985, 0.0015], [0.9985, 0.0015]]),),
                          transitions=(), outcome_mean=np.array([[0.0, 1.0], [1.0, 2.0]]),
                          sigma_y=1.0)
        plan, cfg = FixedSequence((1,)), tabular_config(dgp)
        seen = spy_chunks(monkeypatch)
        result = mc_experiment(dgp, plan, cfg, 100, 2000, 3, seed=1)
        failed = [row.rep for row in result.rows if row.failed]
        assert seen[0][0] == 100 and len(failed) == 2
        assert len(seen) <= 1 + 2 * len(failed) * math.ceil(math.log2(100))
        for r in failed:
            with pytest.raises(PositivityError) as alone:
                self.alone(dgp, plan, cfg, 2000, 3, 1, r)
            assert result.rows[r].message == str(alone.value)
        threads = mc_experiment(dgp, plan, cfg, 100, 2000, 3, seed=1, jobs=2)
        assert threads.rows == result.rows

    def test_a_singular_replicate_leaves_the_others_estimates(self):
        # A zero penalty: of replicates 0-5 only replicate 3 has an empty cell.
        dgp, plan = dgp_ref_2(), FixedSequence((1, 1))
        cfg = tabular_config(dgp, ridge=0.0)
        result = mc_experiment(dgp, plan, cfg, 6, 60, 3, seed=30)
        assert [row.failed for row in result.rows] == [0, 0, 0, 1, 0, 0]
        with pytest.raises(SolverError) as alone:
            self.alone(dgp, plan, cfg, 60, 3, 30, 3)
        assert result.rows[3].message == str(alone.value)
        assert result.rows[3].message.startswith("fold 1: period 1: singular system")
        for r in (0, 1, 2, 4, 5):
            want = self.alone(dgp, plan, cfg, 60, 3, 30, r)
            assert result.rows[r].theta_hat == want.theta_hat
            assert result.rows[r].sigma_hat == want.sigma_hat


class TestRateDiagnostics:
    NS = (1000, 4000, 16000, 64000)

    def test_tabular_products_trend_to_zero(self, dgp1, plan1):
        table = rate_diagnostics(dgp1, plan1, tabular_config(dgp1), self.NS, 3, reps=8)
        assert table.products_trend_to_zero
        assert table.product_slope < -0.3
        assert np.all(table.f_norms[-1] < table.f_norms[0])
        f_slope = np.polyfit(np.log(table.ns), np.log(table.f_norms[:, 0]), 1)[0]
        a_slope = np.polyfit(np.log(table.ns), np.log(table.a_norms[:, 0]), 1)[0]
        assert f_slope == pytest.approx(-0.5, abs=0.15)
        assert a_slope == pytest.approx(-0.5, abs=0.15)

    def test_both_nuisance_norms_at_parametric_rate_two_periods(self, dgp2, plan2):
        table = rate_diagnostics(dgp2, plan2, tabular_config(dgp2), self.NS, 11, reps=8)
        for t in range(2):
            f_slope = np.polyfit(np.log(table.ns), np.log(table.f_norms[:, t]), 1)[0]
            a_slope = np.polyfit(np.log(table.ns), np.log(table.a_norms[:, t]), 1)[0]
            assert f_slope == pytest.approx(-0.5, abs=0.15)
            assert a_slope == pytest.approx(-0.5, abs=0.15)

    def test_oracle_injection_is_exact_zero(self, dgp1, plan1):
        from dyndml import population_l2, oracle_nested_regressions, oracle_riesz, tabular_fn

        f = tabular_fn(oracle_nested_regressions(dgp1, plan1)[0])
        a = tabular_fn(oracle_riesz(dgp1, plan1)[0])
        assert population_l2(dgp1, 1, f, f) == 0.0
        assert population_l2(dgp1, 1, a, a) == 0.0

    def test_frozen_penalty_flags_violation(self, dgp1, plan1):
        cfg = tabular_config(dgp1, ridge=5.0)
        table = rate_diagnostics(dgp1, plan1, cfg, (1000, 4000, 16000), 3, reps=3)
        assert not table.products_trend_to_zero

    def test_requires_oracle(self, plan1, dgp1):
        with pytest.raises(ValidationError, match="oracle"):
            rate_diagnostics(None, plan1, tabular_config(dgp1), (100, 200), 0)

    @pytest.mark.parametrize("ns, reps, message", [
        ([200, 400], 0, "reps must be at least 1, got 0"),
        ([200, 400], -1, "reps must be at least 1, got -1"),
        ([200, 400], 1.5, "reps must be an integer, got 1.5"),
        ([400, 400], 1, "ns must hold at least two distinct sample sizes, got [400, 400]"),
        ([400], 1, "ns must hold at least two distinct sample sizes, got [400]"),
    ])
    def test_bad_reps_or_sizes_are_rejected(self, dgp2, plan2, ns, reps, message):
        with pytest.raises(ValidationError) as err:
            rate_diagnostics(dgp2, plan2, tabular_config(dgp2), ns, 0, reps=reps)
        assert str(err.value) == message


class TestTypedFoldErrors:
    def test_plan_error_keeps_its_type(self, dgp2):
        data = simulate(dgp2, 200, 1)
        message = "^period 1, term 0: treatment code 2 outside 0..1"
        with pytest.raises(PlanError, match=message):
            dml_estimate(data, FixedSequence((2, 2)), tabular_config(dgp2), 4, 0)

    def test_off_grid_tabular_state_is_rejected(self, dgp2, plan2):
        # A period-1 state of 7.0 on the grid {0, 1} used to be snapped to 1.
        data = simulate(dgp2, 3000, 1)
        s1 = data.states[0].copy()
        s1[5, 0] = 7.0
        off = PanelDataset((s1, data.states[1]), data.treatments, data.outcome, (2, 2))
        with pytest.raises(ValidationError, match=r"^period 1: row 5: state \[7\.0\] is off"):
            dml_estimate(off, plan2, tabular_config(dgp2), 5, 1)
        s1[5, 0] = data.states[0][5, 0] + 1e-12  # within the tolerance: the grid row itself
        near = PanelDataset((s1, data.states[1]), data.treatments, data.outcome, (2, 2))
        # Every state one ulp above its grid row: like `near`, fitted row by row.
        ulp = PanelDataset((np.nextafter(data.states[0], np.inf), data.states[1]),
                           data.treatments, data.outcome, (2, 2))
        want = dml_estimate(ulp, plan2, tabular_config(dgp2), 5, 1)
        assert dml_estimate(near, plan2, tabular_config(dgp2), 5, 1).theta_hat == want.theta_hat

    def test_continuous_states_with_tabular_features_are_rejected(self):
        # A grid with a row per distinct continuous state makes an n x n basis;
        # the engine rejects the map before building any basis.
        rng = np.random.default_rng(3)
        s = rng.normal(size=(40, 1))
        data = PanelDataset((s,), rng.integers(0, 2, (40, 1)), rng.normal(size=40), (2,))
        cfg = FitConfig(feature_maps=(TabularFeatures(grid=np.unique(s, axis=0), arity=2),))
        message = (r"^tabular feature map for period 1 has 80 cells, more than its 40 rows "
                   r"\(continuous states\?\); set features = polynomial \| fourier")
        for clever in (False, True):
            with pytest.raises(ValidationError, match=message):
                dml_estimate(data, FixedSequence((1,)), cfg, 5, 0, clever=clever)
        one_per_row = FitConfig(feature_maps=(TabularFeatures(grid=s[:20], arity=2),))
        with pytest.raises(ValidationError, match="^period 1: row 20: .* off the tabular grid"):
            dml_estimate(data, FixedSequence((1,)), one_per_row, 5, 0)  # 40 cells pass the rule

    def test_non_finite_scores_are_a_numerical_failure(self, dgp2, plan2):
        data = simulate(dgp2, 50, 2)
        blowup = NuisanceSet(
            regressions=(ConstantFn(np.inf), ConstantFn(0.0)),
            representers=(ConstantFn(1.0), ConstantFn(1.0)),
        )
        with np.errstate(invalid="ignore"), pytest.raises(SolverError, match="^fold 0: non-finite"):
            dml_estimate(data, plan2, tabular_config(dgp2), 3, 0, nuisances=blowup)

    @pytest.mark.parametrize("shift", [False, True], ids=["distinct", "per-row"])
    def test_cross_fitted_non_finite_scores_name_their_fold(self, monkeypatch, dgp2, plan2,
                                                            shift):
        # Fold 2's held-out plug-ins blow up; the error names fold 2, not 0.
        regressions = nuisance._Stages.regressions

        def blown(self, *args):
            out = regressions(self, *args)
            out[4][self.designs[0].sets.fold == 2] = np.inf
            return out

        monkeypatch.setattr(nuisance._Stages, "regressions", blown)
        data = simulate(dgp2, 500, 2)
        if shift:
            data = PanelDataset(tuple(np.nextafter(s, np.inf) for s in data.states),
                                data.treatments, data.outcome, data.treatment_arities)
        with np.errstate(invalid="ignore"), pytest.raises(
                SolverError, match="^fold 2: non-finite held-out scores$"):
            dml_estimate(data, plan2, tabular_config(dgp2), 5, 0)

    @pytest.mark.parametrize("plan, periods, message", [
        (FixedSequence((1,)), 2, "^plan covers 1 periods, data has 2$"),
        (FixedSequence((1, 1)), 1, "^need one feature map per period$"),
    ], ids=["plan", "maps"])
    def test_a_setup_with_another_period_count_is_rejected(self, dgp2, plan, periods, message):
        cfg = FitConfig(feature_maps=tabular_config(dgp2).feature_maps[:periods])
        with pytest.raises(ValidationError, match=message):
            dml_estimate(simulate(dgp2, 200, 1), plan, cfg, 5, 0)

    @pytest.mark.parametrize("ridge, period", [(1e308, 1), ((1e-3, 1e308), 2)],
                             ids=["scalar", "per-period"])
    def test_a_ridge_that_swamps_the_gram_is_rejected(self, dgp2, plan2, ridge, period):
        # Every Gram diagonal entry g (a cell's share, at most 1) has
        # g + ridge == ridge: the fit would be 0, and theta_hat 0 with a
        # zero-width interval.
        cfg = tabular_config(dgp2, ridge=ridge)
        message = (f"^fold 0: period {period}: ridge penalty 1e\\+308 swamps the Gram "
                   r"\(every diagonal entry g has g \+ ridge == ridge\)")
        for clever in (False, True):
            with pytest.raises(ValidationError, match=message):
                dml_estimate(simulate(dgp2, 500, 2), plan2, cfg, 5, 0, clever=clever)
        with pytest.raises(ValidationError, match=message):
            mc_experiment(dgp2, plan2, cfg, 3, 500, 5, seed=0)

    @pytest.mark.parametrize("clever", [False, True], ids=["plain", "clever"])
    def test_each_design_is_checked_once(self, monkeypatch, dgp2, plan2, clever):
        calls, positive_definite = [], nuisance._positive_definite

        def spy(a):
            calls.append(a.shape)
            return positive_definite(a)

        monkeypatch.setattr(nuisance, "_positive_definite", spy)
        dml_estimate(simulate(dgp2, 500, 2), plan2, tabular_config(dgp2), 5, 0, clever=clever)
        assert calls == [(5, 2, 2, 2)] * 2  # one stack of 5 sets x 2 codes per period

    def test_mc_raises_caller_mistakes(self, dgp2, plan2):
        with pytest.raises(ValidationError, match="cannot split 3 observations into 5 folds"):
            mc_experiment(dgp2, plan2, tabular_config(dgp2), 3, 3, 5, seed=0)


class TestUnitScores:
    """theta_hat, sigma_hat and the per-fold means as weighted sums over units."""

    @pytest.mark.parametrize("clever", [False, True], ids=["plain", "clever"])
    def test_fold_means_and_sigma_match_the_folds_row_scores(self, monkeypatch, dgp2, clever):
        # A panel fitted on distinct histories whose rows of one history differ
        # in Y: per fold, the nuisances fitted on its complement score each of
        # its rows with that row's own Y.
        data = simulate(dgp2, 1500, 21)
        noise = 2.0 * np.random.Generator(np.random.PCG64(22)).standard_normal(data.n_units)
        data = PanelDataset(data.states, data.treatments, data.outcome + noise,
                            data.treatment_arities)
        units, sizes = nuisance._units, []

        def spy(columns, *args):
            reduced = units(columns, *args)
            sizes.append(len(reduced.codes[0]))
            return reduced

        monkeypatch.setattr(nuisance, "_units", spy)
        plan, cfg = Contrast.of_sequences([1.0, -1.0], [(1, 1), (0, 0)]), tabular_config(dgp2)
        report = dml_estimate(data, plan, cfg, 5, 4, clever=clever)
        assert len(sizes) == 1 and sizes[0] <= 5 * 16
        folds, scores = make_folds(data.n_units, 5, 4), np.empty(data.n_units)
        for q, idx in enumerate(folds.folds):
            regs, reps = fit_nuisances(data.subset(folds.complement(q)), plan, cfg, clever=clever)
            values, _, corrections = moment_scores(data.subset(idx), plan,
                                                   NuisanceSet(tuple(regs), tuple(reps)))
            scores[idx] = values
            tol = 1e-10 * (1.0 + np.abs(values).max())
            assert abs(report.per_fold[q]["score_mean"] - values.mean()) <= tol
            np.testing.assert_allclose(report.per_fold[q]["correction_means"],
                                       corrections.mean(axis=1), rtol=0, atol=tol)
        assert abs(report.theta_hat - scores.mean()) <= 1e-10 * (1.0 + abs(scores.mean()))
        assert abs(report.sigma_hat - scores.std()) <= 1e-10 * scores.std()

    @pytest.mark.parametrize("factor", [2.0 ** 530, 2.0 ** 1015], ids=["2^530", "2^1015"])
    @pytest.mark.parametrize("clever", [False, True], ids=["plain", "clever"])
    @pytest.mark.parametrize("shift", [False, True], ids=["distinct", "per-row"])
    def test_estimates_scale_exactly_with_the_outcome(self, dgp2, plan2, shift, clever, factor):
        # Y x 2^530 squares past the float range, and a fold's sum of
        # Y x 2^1015 passes it. Scores are linear in Y and a power of two
        # scales exactly, so nothing overflows and theta_hat, sigma_hat and
        # every per-fold mean scale by the factor.
        data = simulate(dgp2, 2000, 3)
        states = tuple(np.nextafter(s, np.inf) for s in data.states) if shift else data.states

        def estimate(c):
            panel = PanelDataset(states, data.treatments, data.outcome * c, data.treatment_arities)
            return dml_estimate(panel, plan2, tabular_config(dgp2), 5, 1, clever=clever)

        base = estimate(1.0)
        with np.errstate(over="raise", invalid="raise"):
            big = estimate(factor)
        assert big.theta_hat == pytest.approx(factor * base.theta_hat, rel=1e-14, abs=0)
        assert big.sigma_hat == pytest.approx(factor * base.sigma_hat, rel=1e-14, abs=0)
        for got, want in zip(big.per_fold, base.per_fold):
            for key in ("score_mean", "correction_means", "clever_correction_means"):
                assert np.array_equal(got.get(key, 0.0), factor * np.array(want.get(key, 0.0)))

    def test_sigma_of_scores_near_the_float_range(self, dgp2, plan2):
        # Injected nuisances make each row's score its own Y, close to the
        # largest float: their fold sums, their deviations from theta_hat and
        # the squares are not representable, theta_hat and sigma_hat are.
        data = simulate(dgp2, 400, 5)
        truth = NuisanceSet(regressions=(ConstantFn(0.0), ConstantFn(0.0)),
                            representers=(ConstantFn(1.0), ConstantFn(1.0)))
        z = np.where(np.arange(data.n_units) % 3 == 0, -1.9, 1.9) + 1e-3 * data.outcome
        reports = [dml_estimate(PanelDataset(data.states, data.treatments, z * c,
                                             data.treatment_arities), plan2,
                                tabular_config(dgp2), 5, 1, nuisances=truth)
                   for c in (1.0, 2.0 ** 1023)]
        assert reports[0].sigma_hat == pytest.approx(z.std(), rel=1e-14)
        assert reports[1].theta_hat == 2.0 ** 1023 * reports[0].theta_hat
        assert reports[1].sigma_hat == 2.0 ** 1023 * reports[0].sigma_hat

    def test_an_interval_past_the_float_range_is_a_numerical_failure(self, dgp2, plan2):
        # Each row's score is its own Y, below the largest float, as are
        # theta_hat and sigma_hat; theta_hat + 1.96 sigma_hat / 2 is not.
        y = np.array([1.999, 1.999, 1.999, 1.0]) * 2.0 ** 1023
        data = PanelDataset((np.zeros((4, 1)),) * 2, np.ones((4, 2), dtype=np.int64), y, (2, 2))
        truth = NuisanceSet(regressions=(ConstantFn(0.0), ConstantFn(0.0)),
                            representers=(ConstantFn(1.0), ConstantFn(1.0)))
        with pytest.raises(SolverError, match=r"^theta_hat 1\.57231e\+308 with sigma_hat "
                                              r"3\.88823e\+307: the held-out scores overflow$"):
            dml_estimate(data, plan2, tabular_config(dgp2), 2, 0, nuisances=truth)

    def test_injected_oracle_with_an_outcome_near_the_float_range(self, dgp2, plan2):
        # With the oracle's nuisances and Y x 2^1000, each score is
        # a_2 Y 2^1000 plus terms some 300 decades smaller; its sums and
        # squares pass the float range, the report does not.
        data = simulate(dgp2, 1000, 4)
        nus = oracle_nuisances(dgp2, plan2)
        big = PanelDataset(data.states, data.treatments, data.outcome * 2.0 ** 1000,
                           data.treatment_arities)
        with np.errstate(over="raise", invalid="raise"):
            report = dml_estimate(big, plan2, tabular_config(dgp2), 5, 1, nuisances=nus)
        numbers = [report.theta_hat, report.sigma_hat, report.ci_lower, report.ci_upper]
        numbers += [f["score_mean"] for f in report.per_fold]
        assert np.isfinite(numbers).all()
        scores = nus.representers[1].batch(data.states[1], data.treatments[:, 1]) * data.outcome
        assert report.theta_hat / 2.0 ** 1000 == pytest.approx(scores.mean(), rel=1e-12)
        assert report.sigma_hat / 2.0 ** 1000 == pytest.approx(scores.std(), rel=1e-12)

    def test_an_infinite_clip_is_written_as_a_string(self, dgp2, plan2):
        data = simulate(dgp2, 500, 2)
        report = dml_estimate(data, plan2, tabular_config(dgp2, clip=math.inf), 5, 0)
        loaded = json.loads(report.to_json(), parse_constant=lambda token: 1 / 0)
        assert loaded["config"]["clip"] == "inf"
        finite = dml_estimate(data, plan2, tabular_config(dgp2, clip=3.0), 5, 0)
        assert finite.to_json() == json.dumps(finite.to_dict(), indent=2, sort_keys=True)


class TestCrossFitSchedule:
    @settings(max_examples=30, deadline=None)
    @given(
        dgp_seed=st.integers(0, 2**16),
        periods=st.integers(1, 3),
        n=st.integers(10, 150),
        q=st.integers(2, 5),
        seed=st.integers(0, 2**31),
        clever=st.booleans(),
    )
    def test_rerun_is_bit_identical(self, dgp_seed, periods, n, q, seed, clever):
        dgp = random_dgp(np.random.Generator(np.random.PCG64(dgp_seed)), periods=periods)
        data = simulate(dgp, n, seed)
        plan = FixedSequence((1,) * periods)

        def run():
            try:
                return dml_estimate(data, plan, tabular_config(dgp), q, seed, clever=clever).to_json()
            except (SolverError, PositivityError) as exc:
                return f"{type(exc).__name__}: {exc}"

        assert run() == run()

    @staticmethod
    def panel_treated_in_one_fold(folds, held, n, seed):
        """Continuous 1-d states; period-1 treatment 1 only on rows of fold `held`."""
        rng = np.random.Generator(np.random.PCG64(seed))
        codes = np.zeros((n, 2), dtype=np.int64)
        codes[folds[held], 0] = 1
        codes[:, 1] = rng.integers(0, 2, n)
        states = (rng.uniform(0.0, 1.0, (n, 1)), rng.uniform(0.0, 1.0, (n, 1)))
        return PanelDataset(states, codes, rng.standard_normal(n), (2, 2))

    @pytest.mark.parametrize("kind", ["tabular", "polynomial", "fourier"])
    def test_zero_ridge_empty_block_names_its_fold(self, kind):
        # The rows of fold 1 are the only ones treated in period 1, so fold 1's
        # training rows leave the treatment-1 block of the design empty: its
        # Gram block must be exactly zero, and a zero penalty cannot solve it.
        # The one-column Fourier block has no constant to give it away; on its
        # panel (seed 8) the full Gram minus fold 1's Gram leaves a positive
        # residue of a few ulps there, which a zero penalty would solve.
        n, q = 240, 3
        folds = make_folds(n, q, 4).folds
        data = self.panel_treated_in_one_fold(folds, 1, n, 8 if kind == "fourier" else 5)
        if kind == "tabular":
            data = PanelDataset(
                tuple(np.floor(3 * s) for s in data.states), data.treatments, data.outcome, (2, 2)
            )
            maps = (TabularFeatures(grid=np.arange(3.0), arity=2),) * 2
        elif kind == "polynomial":
            maps = (PolynomialFeatures(1, 3, 2),) * 2
        else:
            maps = (RandomFourierFeatures(1, 1, 2, include_constant=False),) * 2
        cfg = FitConfig(feature_maps=maps, ridge=0.0)
        with pytest.raises(SolverError, match="^fold 1: period 1: singular system with zero penalty"):
            dml_estimate(data, FixedSequence((1, 1)), cfg, q, 4)
        # a penalty repairs it
        dml_estimate(data, FixedSequence((1, 1)), FitConfig(feature_maps=maps, ridge=1e-6), q, 4)

    @settings(max_examples=100, deadline=None)
    @given(
        features=st.sampled_from(["tabular", "polynomial"]),
        plan_kind=st.sampled_from(["fixed", "policy", "contrast"]),
        clever=st.booleans(),
        n=st.integers(300, 500),
        q=st.integers(2, 4),
        seed=st.integers(0, 2**31),
    )
    def test_row_permutation_carrying_folds_leaves_estimate(
        self, features, plan_kind, clever, n, q, seed
    ):
        # Shuffling the rows within each fold keeps every unit in its fold, so
        # the cross-fit sees the same training sets in another row order. The
        # processes keep every (state, treatment) cell populated in every
        # training set: a cell left with one or two rows gives representers of
        # order 1e5 (a finite-sample positivity failure), whose fit amplifies
        # the reordered sums' rounding past 1e-12.
        rng = np.random.Generator(np.random.PCG64(seed))
        if features == "tabular":
            dgp = random_dgp(rng, periods=2, max_states=3, min_propensity=0.25)
            data = simulate(dgp, n, seed)
            maps = tuple(TabularFeatures(np.arange(float(g)), k)
                         for g, k in zip(dgp.state_arities, dgp.treatment_arities))
            policy = DynamicPolicy(tuple(grid_policy([(i + t) % 2 for i in range(g)])
                                         for t, g in enumerate(dgp.state_arities)))
        else:
            codes = rng.integers(0, 2, (n, 2))
            states = (rng.standard_normal((n, 2)), rng.standard_normal((n, 2)))
            outcome = states[1].sum(axis=1) + codes[:, 1] + rng.standard_normal(n)
            data = PanelDataset(states, codes, outcome, (2, 2))
            maps = (PolynomialFeatures(2, 2, 2),) * 2
            policy = DynamicPolicy(((lambda s: (s[:, 0] > 0).astype(np.int64)),) * 2)
        plan = {
            "fixed": FixedSequence((1, 1)),
            "policy": policy,
            "contrast": Contrast.of_sequences([1.0, -1.0], [(1, 1), (0, 0)]),
        }[plan_kind]
        perm = np.arange(n)
        for idx in make_folds(n, q, seed).folds:
            perm[idx] = rng.permutation(idx)
        shuffled = data.subset(perm)
        cfg = FitConfig(feature_maps=maps)
        a = dml_estimate(data, plan, cfg, q, seed, clever=clever)
        b = dml_estimate(shuffled, plan, cfg, q, seed, clever=clever)
        # Summation order changes, so the match is relative, not bitwise: to
        # the scale of the scores, |theta| + sigma, because theta is a mean of
        # scores of size sigma (a contrast's theta may be near zero).
        scale = abs(a.theta_hat) + a.sigma_hat
        assert abs(b.theta_hat - a.theta_hat) <= 1e-12 * scale
        assert abs(b.sigma_hat - a.sigma_hat) <= 1e-12 * scale
