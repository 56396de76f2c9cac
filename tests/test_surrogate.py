import math

import numpy as np
import pytest

from conftest import tabular_config, value_table
from helpers_surrogate import TwoSampleDGP, two_sample_ref
from dyndml import (
    Contrast,
    FitConfig,
    PositivityError,
    SurrogatePair,
    TabularFeatures,
    ValidationError,
    dgp_ref_1,
    dml_estimate,
    simulate,
    surrogate_estimate,
    surrogate_fit,
    surrogate_scores,
)


@pytest.fixture
def tsd() -> TwoSampleDGP:
    return two_sample_ref()


def fit_cfg(tsd: TwoSampleDGP, ridge=None) -> FitConfig:
    return FitConfig(feature_maps=tsd.feature_maps(), ridge=ridge)


class TestSurrogatePair:
    def test_dimension_checks(self):
        with pytest.raises(ValidationError, match="binary"):
            SurrogatePair(
                short_x=np.zeros((3, 1)),
                short_t=np.array([0, 1, 2]),
                short_s=np.zeros((3, 1)),
                long_x=np.zeros((2, 1)),
                long_s=np.zeros((2, 1)),
                long_y=np.zeros(2),
            )

    def test_nonempty_required(self, tsd):
        data = tsd.simulate(10, 10, 0)
        with pytest.raises(ValidationError):
            SurrogatePair(
                short_x=data.short_x[:0],
                short_t=data.short_t[:0],
                short_s=data.short_s[:0],
                long_x=data.long_x,
                long_s=data.long_s,
                long_y=data.long_y,
            )


    @pytest.mark.parametrize("field, shape, message", [
        ("long_x", (10, 2), "^control dimensions differ across samples$"),
        ("long_s", (10, 2), "^surrogate dimensions differ across samples$"),
        ("long_y", (10, 1), "^long outcome must be one value per record$"),
    ])
    def test_shape_mismatches_are_rejected(self, tsd, field, shape, message):
        data = tsd.simulate(10, 10, 0)
        arrays = {f: getattr(data, f) for f in
                  ("short_x", "short_t", "short_s", "long_x", "long_s", "long_y")}
        arrays[field] = np.zeros(shape)
        with pytest.raises(ValidationError, match=message):
            SurrogatePair(**arrays)

    @pytest.mark.parametrize(
        "field, row, col, named",
        [("short_x", 3, 0, "short sample x_1"), ("short_s", 0, 0, "short sample s_1"),
         ("long_s", 5, 0, "long sample s_1"), ("long_y", 2, None, "long sample y")],
    )
    def test_non_finite_rejected_naming_sample_and_column(self, tsd, field, row, col, named):
        data = tsd.simulate(10, 10, 0)
        arrays = {f: getattr(data, f).copy() for f in
                  ("short_x", "short_t", "short_s", "long_x", "long_s", "long_y")}
        arrays[field][(row,) if col is None else (row, col)] = np.nan if row % 2 else np.inf
        with pytest.raises(ValidationError, match=f"non-finite value in {named}, row {row}"):
            SurrogatePair(**arrays)


class TestSurrogateFit:
    def test_a1_matches_inverse_propensities(self, tsd):
        data = tsd.simulate(60_000, 60_000, 3)
        nus = surrogate_fit(data, fit_cfg(tsd))
        truth = tsd.a1_table()  # indexed (t, x)
        assert value_table(nus.a1, np.arange(tsd.gx), 2) == pytest.approx(truth.T, abs=0.12)

    def test_randomized_treatment_without_controls(self):
        dgp = TwoSampleDGP(
            px=np.array([1.0]),
            pt=np.array([[0.5, 0.5]]),
            ps=np.array([[[0.7, 0.3]], [[0.2, 0.8]]]),
            long_xs=np.array([[0.5, 0.5]]),
            mu=np.array([[0.0], [1.0]]),
        )
        data = dgp.simulate(40_000, 2000, 5)
        nus = surrogate_fit(data, fit_cfg(dgp))
        got = nus.a1.batch(np.zeros((2, 1)), np.array([1, 0]))
        assert got == pytest.approx(np.array([2.0, -2.0]), abs=0.1)

    def test_h_and_g_match_tables(self, tsd):
        data = tsd.simulate(50_000, 50_000, 7)
        nus = surrogate_fit(data, fit_cfg(tsd))
        g_true, h_true = tsd.g_table(), tsd.h_table()
        assert value_table(nus.g, np.arange(tsd.gx), 2) == pytest.approx(g_true.T, abs=0.1)
        pairs = np.array([(s, x) for s in range(tsd.gs) for x in range(tsd.gx)], dtype=float)
        got = nus.h.batch(pairs, np.zeros(len(pairs), dtype=np.int64))
        assert got == pytest.approx(h_true.ravel(), abs=0.1)

    def test_matched_laws_reduce_a2_to_one_sample_representer(self, tsd):
        # long sample re-uses the short sample's (X, S) rows, so the fitted a2
        # solves exactly the one-sample Riesz problem of E_s[a1 * a(S, X)]
        data = tsd.simulate(5000, 5000, 9)
        matched = SurrogatePair(
            short_x=data.short_x,
            short_t=data.short_t,
            short_s=data.short_s,
            long_x=data.short_x,
            long_s=data.short_s,
            long_y=np.zeros(data.n_short),
        )
        cfg = fit_cfg(tsd)
        nus = surrogate_fit(matched, cfg)
        phi = cfg.feature_maps[1]
        sx = matched.short_sx
        dummy = np.zeros(matched.n_short, dtype=np.int64)
        x_mat = phi.batch(sx, dummy)
        gram = x_mat.T @ x_mat / matched.n_short
        lam = cfg.stage_ridge(2, gram, matched.n_short)
        a1_vals = nus.a1.batch(matched.short_x, matched.short_t)
        rhs = (a1_vals[:, None] * x_mat).mean(axis=0)
        expected = np.linalg.solve(gram + lam * np.eye(phi.dim), rhs)
        np.testing.assert_allclose(nus.a2.weights, expected, atol=1e-10)


class TestPopulationIdentities:
    def test_cross_sample_risk_identity(self, tsd):
        a0 = tsd.a2_table()
        base = tsd.cross_sample_risk(a0)
        rng = np.random.Generator(np.random.PCG64(21))
        for _ in range(10):
            cand = a0 + rng.uniform(-2, 2, size=a0.shape)
            gap = tsd.cross_sample_risk(cand) - base
            assert gap == pytest.approx(tsd.long_l2(cand, a0) ** 2, abs=1e-10)

    def test_mixed_bias_identity(self, tsd):
        theta = tsd.theta()
        h0, g0, a10, a20 = tsd.h_table(), tsd.g_table(), tsd.a1_table(), tsd.a2_table()
        assert tsd.population_moment(h0, g0, a10, a20) == pytest.approx(theta, abs=1e-12)
        rng = np.random.Generator(np.random.PCG64(31))
        for _ in range(20):
            dh = rng.uniform(-1, 1, h0.shape)
            dg = rng.uniform(-1, 1, g0.shape)
            da1 = rng.uniform(-1, 1, a10.shape)
            da2 = rng.uniform(-1, 1, a20.shape)
            direct = tsd.population_moment(h0 + dh, g0 + dg, a10 + da1, a20 + da2) - theta
            formula = tsd.short_expect(
                lambda t, x, s: da1[t, x] * (dh[s, x] - dg[t, x])
            ) - tsd.long_expect(lambda x, s: da2[s, x] * dh[s, x])
            assert direct == pytest.approx(formula, abs=1e-10)

    def test_one_sided_robustness(self, tsd):
        theta = tsd.theta()
        h0, g0, a10, a20 = tsd.h_table(), tsd.g_table(), tsd.a1_table(), tsd.a2_table()
        rng = np.random.Generator(np.random.PCG64(41))
        bad_h = h0 + rng.uniform(-2, 2, h0.shape)
        bad_g = g0 + rng.uniform(-2, 2, g0.shape)
        assert tsd.population_moment(bad_h, bad_g, a10, a20) == pytest.approx(theta, abs=1e-10)
        bad_a1 = a10 + rng.uniform(-2, 2, a10.shape)
        bad_a2 = a20 + rng.uniform(-2, 2, a20.shape)
        assert tsd.population_moment(h0, g0, bad_a1, bad_a2) == pytest.approx(theta, abs=1e-10)


class TestSurrogateEstimate:
    def test_recovers_enumerated_effect(self, tsd):
        data = tsd.simulate(4000, 4000, 17)
        report = surrogate_estimate(data, fit_cfg(tsd), 5, 23)
        band = 4.0 * report.sigma_hat / math.sqrt(report.n_short)
        assert abs(report.theta_hat - tsd.theta()) <= band
        assert report.n_short == 4000 and report.n_long == 4000
        assert "n_short" in report.to_dict()

    def test_deterministic(self, tsd):
        data = tsd.simulate(2000, 1500, 19)
        cfg = fit_cfg(tsd)
        a = surrogate_estimate(data, cfg, 4, 3)
        b = surrogate_estimate(data, cfg, 4, 3)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("factor", [2.0 ** 530, 2.0 ** 1020], ids=["2^530", "2^1020"])
    @pytest.mark.parametrize("shift", [False, True], ids=["distinct", "per-row"])
    def test_estimate_scales_exactly_with_the_long_outcome(self, tsd, shift, factor):
        # y x 2^530 squares past the float range, and a training set's sum of
        # y x 2^1020 passes it (|y| < 16, so y x 2^1020 is finite); both
        # samples' scores are linear in y, so theta_hat and sigma_hat scale
        # exactly by the factor.
        data = tsd.simulate(600, 500, 3)
        up = (lambda a: np.nextafter(a, np.inf)) if shift else (lambda a: a)

        def estimate(c):
            pair = SurrogatePair(up(data.short_x), data.short_t, up(data.short_s),
                                 up(data.long_x), up(data.long_s), data.long_y * c)
            return surrogate_estimate(pair, fit_cfg(tsd), 3, 5)

        base = estimate(1.0)
        with np.errstate(over="raise", invalid="raise"):
            big = estimate(factor)
        assert big.theta_hat == pytest.approx(factor * base.theta_hat, rel=1e-14, abs=0)
        assert big.sigma_hat == pytest.approx(factor * base.sigma_hat, rel=1e-14, abs=0)

    def test_one_arm_short_sample_is_a_positivity_error(self, tsd):
        # The contrast targets both arms; with no treated record a1 does not exist.
        data = tsd.simulate(400, 400, 19)
        one_arm = SurrogatePair(data.short_x, np.zeros(data.n_short), data.short_s,
                                data.long_x, data.long_s, data.long_y)
        with pytest.raises(PositivityError, match=r"^short sample \(X, T\): the plan targets "
                                                  r"treatment code 1, which no row has$"):
            surrogate_estimate(one_arm, fit_cfg(tsd), 4, 3)

    @pytest.mark.parametrize("sample", ["short", "long"])
    def test_fewer_rows_than_folds_names_the_sample(self, tsd, sample):
        sizes = {"short": 100, "long": 100, sample: 2}
        data = tsd.simulate(sizes["short"], sizes["long"], 1)
        with pytest.raises(ValidationError, match=f"^{sample} sample: cannot split 2 observations "
                                                  "into 3 folds$"):
            surrogate_estimate(data, fit_cfg(tsd), 3, 0)

    def test_reduces_to_one_period_aipw(self):
        # append S == Y to a one-period panel and use it as both samples:
        # the two-sample machinery must reproduce the M=1 contrast estimate
        dgp = dgp_ref_1()
        panel = simulate(dgp, 2000, 29)
        x = panel.states[0]
        t = panel.treatments[:, 0]
        y = panel.outcome
        pair = SurrogatePair(
            short_x=x, short_t=t, short_s=y[:, None], long_x=x, long_s=y[:, None], long_y=y
        )
        from dyndml import TabularFeatures

        maps = (
            TabularFeatures(grid=np.arange(2.0), arity=2),
            TabularFeatures(
                grid=np.unique(np.hstack([y[:, None], x]), axis=0), arity=1
            ),
        )
        s_report = surrogate_estimate(pair, FitConfig(feature_maps=maps, ridge=0.0), 5, 31)
        ate_plan = Contrast.of_sequences([1.0, -1.0], [(1,), (0,)])
        d_report = dml_estimate(panel, ate_plan, tabular_config(dgp, ridge=0.0), 5, 31)
        assert s_report.theta_hat == pytest.approx(d_report.theta_hat, abs=1e-8)
        assert s_report.sigma_hat == pytest.approx(d_report.sigma_hat, abs=1e-8)

    def test_validation_error_keeps_its_type(self, tsd):
        data = tsd.simulate(100, 100, 5)
        cfg = FitConfig(feature_maps=tsd.feature_maps()[:1])
        with pytest.raises(ValidationError, match="^surrogate fits need two feature maps"):
            surrogate_estimate(data, cfg, 3, 0)

    def test_a_treatment_map_of_another_arity_is_rejected(self, tsd):
        phi_tx, phi_sx = tsd.feature_maps()
        cfg = FitConfig(feature_maps=(TabularFeatures(phi_tx.grid, 3), phi_sx))
        for fit in (lambda: surrogate_estimate(tsd.simulate(100, 100, 5), cfg, 3, 0),
                    lambda: surrogate_fit(tsd.simulate(100, 100, 5), cfg)):
            with pytest.raises(ValidationError,
                               match=r"^the \(T, X\) feature map must have treatment arity 2$"):
                fit()

    def test_off_grid_surrogate_state_names_its_sample(self, tsd):
        data = tsd.simulate(100, 100, 5)
        long_s = data.long_s.copy()
        long_s[3, 0] += 0.5
        off = SurrogatePair(data.short_x, data.short_t, data.short_s, data.long_x, long_s,
                            data.long_y)
        with pytest.raises(ValidationError, match=r"long sample \(S, X\): row 3: .* off the"):
            surrogate_estimate(off, fit_cfg(tsd), 3, 0)

    @pytest.mark.parametrize("design, x_name, s_name, state, nearest", [
        ("short sample (X, T)", "short_x", None, "[0.5]", "[0.0]"),
        ("short sample (S, X)", "short_x", "short_s", "[0.5, 1.0]", "[0.0, 1.0]"),
        ("long sample (S, X)", "long_x", "long_s", "[0.5, 1.0]", "[0.0, 1.0]"),
    ])
    def test_off_grid_messages_of_each_design(self, tsd, design, x_name, s_name, state, nearest):
        # Row 11 of one sample is off the grid; the message names the design
        # and the row in the sample's own order, with or without folds.
        data = tsd.simulate(100, 100, 5)
        columns = {name: getattr(data, name).copy()
                   for name in ("short_x", "short_t", "short_s", "long_x", "long_s", "long_y")}
        columns[x_name][11, 0] = 0.5 if s_name is None else 1.0
        if s_name is not None:
            columns[s_name][11, 0] = 0.5
        off = SurrogatePair(**columns)
        message = (f"{design}: row 11: state {state} is off the tabular grid (nearest grid row "
                   f"{nearest}, tolerance 1e-09 x (1 + |grid value|))")
        for fit in (lambda: surrogate_estimate(off, fit_cfg(tsd), 3, 0),
                    lambda: surrogate_fit(off, fit_cfg(tsd))):
            with pytest.raises(ValidationError) as err:
                fit()
            assert str(err.value) == message

    def test_continuous_surrogates_with_tabular_features_are_rejected(self, tsd):
        # The (S, X) map is fitted on the long sample, so its cells are counted
        # against the long sample's rows.
        data = tsd.simulate(60, 50, 2)
        long_s = data.long_s + np.random.default_rng(0).normal(size=data.long_s.shape)
        cont = SurrogatePair(data.short_x, data.short_t, data.short_s, data.long_x, long_s,
                             data.long_y)
        grid = np.unique(np.vstack([cont.short_sx, cont.long_sx]), axis=0)
        cfg = FitConfig(feature_maps=(tsd.feature_maps()[0], TabularFeatures(grid, 1)))
        message = (rf"^tabular feature map for \(S, X\) has {grid.shape[0]} cells, more than its "
                   r"50 rows \(continuous states\?\); set features = polynomial \| fourier")
        with pytest.raises(ValidationError, match=message):
            surrogate_estimate(cont, cfg, 3, 0)
        with pytest.raises(ValidationError, match=message):
            surrogate_fit(cont, cfg)

    def test_scores_split_by_sample(self, tsd):
        data = tsd.simulate(300, 200, 7)
        nus = surrogate_fit(data, fit_cfg(tsd))
        short_term, long_term = surrogate_scores(data, nus)
        assert short_term.shape == (300,)
        assert long_term.shape == (200,)
