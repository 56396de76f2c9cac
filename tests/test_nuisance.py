import json

import numpy as np
import pytest

from conftest import tabular_config, value_table
from dyndml import (
    Contrast,
    DiscreteDGP,
    FitConfig,
    FixedSequence,
    LinearFn,
    NuisanceSet,
    PanelDataset,
    PolynomialFeatures,
    RandomFourierFeatures,
    SolverError,
    TabularFeatures,
    ValidationError,
    dml_estimate,
    fit_nested_regressions,
    fit_nuisances,
    fit_recursive_riesz,
    moment_scores,
    oracle_nested_regressions,
    oracle_riesz,
    population_l2,
    population_riesz_loss,
    riesz_loss,
    riesz_step,
    simulate,
    tabular_fn,
)


class TestFactoredMaps:
    @pytest.mark.parametrize("phi, dim", [
        (TabularFeatures(np.arange(3.0), 2), 1),
        (PolynomialFeatures(2, 2, 3), 2),
        (RandomFourierFeatures(2, 4, 2, seed=1), 2),
    ], ids=["tabular", "polynomial", "fourier"])
    def test_batch_is_the_basis_in_its_code_block(self, phi, dim):
        # The engine's contract: batch places basis row i in the column block
        # of codes[i], in the order state_major names.
        rng = np.random.Generator(np.random.PCG64(3))
        states = rng.integers(0, 3, (40, dim)).astype(float)
        codes = rng.integers(0, phi.arity, 40)
        basis = phi.basis(states)
        want = np.zeros((40, phi.arity, basis.shape[1]))
        want[np.arange(40), codes] = basis
        if phi.state_major:
            want = want.transpose(0, 2, 1)
        np.testing.assert_array_equal(phi.batch(states, codes), want.reshape(40, -1))

    def test_map_without_basis_is_rejected(self):
        class Dense:  # a map that is not a state basis times treatment indicators
            dim, arity = 4, 2

            def batch(self, states, codes):
                return np.ones((np.atleast_2d(states).shape[0], 4))

        with pytest.raises(ValidationError, match="feature map 1 .* needs basis"):
            FitConfig(feature_maps=(Dense(),))
        with pytest.raises(ValidationError, match="feature map .* needs basis"):
            LinearFn(Dense(), np.zeros(4))


class TestFitConfig:
    MAPS = (TabularFeatures(grid=np.arange(2.0), arity=2),) * 2

    @pytest.mark.parametrize("setting, message", [
        ({"ridge": np.nan}, "ridge penalty must be finite, got nan"),
        ({"ridge": np.inf}, "ridge penalty must be finite, got inf"),
        ({"ridge": (1e-3, -np.inf)}, "ridge penalty must be finite, got -inf"),
        ({"ridge": np.array([1e-3, np.nan])}, "ridge penalty must be finite, got nan"),
        ({"ridge": -1.0}, "ridge penalty must be nonnegative"),
        ({"clip": np.nan}, "clip bound must be positive"),
        ({"clip": 0.0}, "clip bound must be positive"),
    ])
    def test_bad_settings_are_a_validation_error(self, setting, message):
        with pytest.raises(ValidationError) as err:
            FitConfig(feature_maps=self.MAPS, **setting)
        assert str(err.value) == message

    @pytest.mark.parametrize("clip", [np.nan, 0.0, -1.0])
    def test_a_function_takes_the_configs_clip_rule(self, clip):
        for make in (lambda: FitConfig(feature_maps=self.MAPS, clip=clip),
                     lambda: LinearFn(self.MAPS[0], np.zeros(4), clip=clip)):
            with pytest.raises(ValidationError) as err:
                make()
            assert str(err.value) == "clip bound must be positive"

    def test_array_ridge_is_per_period_and_infinite_clip_clips_nothing(self, dgp2, plan2):
        cfg = FitConfig(feature_maps=self.MAPS, ridge=np.array([1e-3, 1e-2]), clip=np.inf)
        assert cfg.ridge == (1e-3, 1e-2)
        with pytest.raises(ValidationError, match="^need one ridge value per period$"):
            FitConfig(feature_maps=self.MAPS, ridge=np.array([1e-3]))
        data = simulate(dgp2, 400, 3)
        unclipped = FitConfig(feature_maps=self.MAPS, ridge=(1e-3, 1e-2))
        for got, want in zip(fit_recursive_riesz(data, plan2, cfg),
                             fit_recursive_riesz(data, plan2, unclipped)):
            assert np.array_equal(got.weights, want.weights)

    def test_numpy_scalar_settings_are_reported_as_floats(self, dgp2, plan2):
        # A report echoes the settings as JSON, which takes no numpy scalar.
        cfg = FitConfig(feature_maps=self.MAPS, ridge=np.float32(0.5), clip=np.array(2.0))
        assert (type(cfg.ridge), type(cfg.clip)) == (float, float)
        report = dml_estimate(simulate(dgp2, 300, 1), plan2, cfg, 3, 0)
        assert json.loads(report.to_json())["config"]["ridge"] == 0.5


class TestNestedRegressions:
    def test_ref1_large_sample(self, dgp1, plan1):
        data = simulate(dgp1, 100_000, 21)
        cfg = tabular_config(dgp1, ridge=1e-8)
        (f1,) = fit_nested_regressions(data, plan1, cfg)
        oracle = oracle_nested_regressions(dgp1, plan1)[0]
        assert value_table(f1, [0.0, 1.0], 2) == pytest.approx(oracle, abs=0.05)

    def test_constant_outcome_exact(self):
        dgp = DiscreteDGP(
            initial=np.array([0.5, 0.5]),
            propensities=(np.array([[0.5, 0.5], [0.5, 0.5]]),) * 2,
            transitions=(np.full((2, 2, 2), 0.5),),
            outcome_mean=np.full((2, 2), 3.25),
            sigma_y=0.0,
        )
        data = simulate(dgp, 400, 17)
        cfg = tabular_config(dgp, ridge=0.0)
        for fn in fit_nested_regressions(data, FixedSequence((1, 0)), cfg):
            assert value_table(fn, [0.0, 1.0], 2) == pytest.approx(np.full((2, 2), 3.25), abs=1e-12)

    def test_deterministic_transition_composes_exactly(self):
        # S_2 = 1 - S_1 regardless of treatment; f_1 must equal f_2 after the flip
        trans = np.zeros((2, 2, 2))
        trans[0, :, 1] = 1.0
        trans[1, :, 0] = 1.0
        dgp = DiscreteDGP(
            initial=np.array([0.5, 0.5]),
            propensities=(np.array([[0.5, 0.5], [0.5, 0.5]]),) * 2,
            transitions=(trans,),
            outcome_mean=np.array([[0.0, 2.0], [1.0, 5.0]]),
            sigma_y=0.0,
        )
        plan = FixedSequence((1, 1))
        data = simulate(dgp, 600, 3)
        f1, f2 = fit_nested_regressions(data, plan, tabular_config(dgp, ridge=0.0))
        flipped = f2.batch(np.array([[1.0], [0.0]]), np.ones(2, dtype=np.int64))  # f2(1 - s, 1)
        assert value_table(f1, [0.0, 1.0], 2) == pytest.approx(
            np.column_stack([flipped, flipped]), abs=1e-12
        )

    def test_determinism_bit_identical(self, dgp2, plan2):
        data = simulate(dgp2, 2000, 5)
        cfg = tabular_config(dgp2)
        a = fit_nested_regressions(data, plan2, cfg)
        b = fit_nested_regressions(data, plan2, cfg)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.weights, fb.weights)

    def test_degenerate_cell_errors_with_period(self, dgp2, plan2):
        data = simulate(dgp2, 2000, 5).subset(np.arange(6))
        with pytest.raises(SolverError, match="period"):
            fit_nested_regressions(data, plan2, tabular_config(dgp2, ridge=0.0))


class TestRieszLoss:
    def test_zero_candidate_zero_loss(self, dgp1, plan1):
        data = simulate(dgp1, 500, 1)
        zero = LinearFn(TabularFeatures(np.arange(2.0), 2), np.zeros(4))
        assert riesz_loss(zero, data, plan1, 1, None) == 0.0

    def test_population_loss_at_truth(self, dgp1, plan1):
        # L(a_true) = -E[a^2] = -(0.5*0.5*4 + 0.5*0.25*16) = -3
        a1 = tabular_fn(oracle_riesz(dgp1, plan1)[0])
        assert population_riesz_loss(dgp1, plan1, 1, a1, None) == pytest.approx(-3.0, abs=1e-12)
        data = simulate(dgp1, 200_000, 2)
        assert riesz_loss(a1, data, plan1, 1, None) == pytest.approx(-3.0, abs=0.1)

    def test_quadratic_identity_around_truth(self, dgp2, plan2):
        # population L(a) - L(a_true) == ||a - a_true||^2 when the previous
        # stage input is the oracle representer
        rng = np.random.Generator(np.random.PCG64(11))
        truth = oracle_riesz(dgp2, plan2)
        for t in (1, 2):
            prev = None if t == 1 else tabular_fn(truth[t - 2])
            a_true = tabular_fn(truth[t - 1])
            base = population_riesz_loss(dgp2, plan2, t, a_true, prev)
            for _ in range(5):
                cand = tabular_fn(truth[t - 1] + rng.uniform(-2, 2, size=(2, 2)))
                gap = population_riesz_loss(dgp2, plan2, t, cand, prev) - base
                dist = population_l2(dgp2, t, cand, a_true) ** 2
                assert gap == pytest.approx(dist, abs=1e-10)


class TestRecursiveRiesz:
    def test_ref1_large_sample(self, dgp1, plan1):
        data = simulate(dgp1, 100_000, 31)
        (a1,) = fit_recursive_riesz(data, plan1, tabular_config(dgp1, ridge=1e-8))
        oracle = oracle_riesz(dgp1, plan1)[0]
        assert value_table(a1, [0.0, 1.0], 2) == pytest.approx(oracle, abs=0.15)

    def test_uniform_propensity_constant_representer(self):
        dgp = DiscreteDGP(
            initial=np.array([0.4, 0.6]),
            propensities=(np.full((2, 2), 0.5),),
            transitions=(),
            outcome_mean=np.zeros((2, 2)),
        )
        data = simulate(dgp, 40_000, 4)
        (a1,) = fit_recursive_riesz(data, FixedSequence((1,)), tabular_config(dgp, ridge=1e-8))
        treated = a1.batch(np.array([[0.0], [1.0]]), np.ones(2, dtype=np.int64))
        assert treated == pytest.approx(np.full(2, 2.0), abs=0.1)

    def test_normal_equations_residual(self, dgp2, plan2):
        data = simulate(dgp2, 3000, 6)
        cfg = tabular_config(dgp2)
        fitted = fit_recursive_riesz(data, plan2, cfg)
        n = data.n_units
        prev = np.ones(n)
        for t in (1, 2):
            phi = cfg.feature_maps[t - 1]
            x = phi.batch(data.states[t - 1], data.treatments[:, t - 1])
            gram = x.T @ x / n
            lam = cfg.stage_ridge(t, gram, n)
            combo = np.zeros((n, phi.dim))
            for term in plan2.period_terms(t):
                w = term.weights(data, t)
                d = term.targets(data, t)
                combo += w[:, None] * phi.batch(data.states[t - 1], d)
            rhs = (combo * prev[:, None]).mean(axis=0)
            resid = (gram + lam * np.eye(phi.dim)) @ fitted[t - 1].weights - rhs
            assert np.max(np.abs(resid)) <= 1e-10
            prev = fitted[t - 1].batch(data.states[t - 1], data.treatments[:, t - 1])

    def test_clip_bound_enforced(self, dgp1, plan1):
        data = simulate(dgp1, 5000, 8)
        (a1,) = fit_recursive_riesz(data, plan1, tabular_config(dgp1, clip=1.5))
        vals = a1.batch(data.states[0], data.treatments[:, 0])
        assert np.max(np.abs(vals)) <= 1.5

    def test_error_propagation_bounded(self, dgp2, plan2):
        # population Riesz step is linear in the previous representer, so the
        # induced error is c * ||perturbation|| with a finite fitted c
        truth = oracle_riesz(dgp2, plan2)
        rng = np.random.Generator(np.random.PCG64(14))
        direction = rng.uniform(-1, 1, size=(2, 2))
        base = tabular_fn(truth[0])
        ratios = []
        for delta in (0.01, 0.1, 0.5):
            corrupted = tabular_fn(truth[0] + delta * direction)
            stepped = riesz_step(dgp2, plan2, 2, corrupted)
            err = population_l2(dgp2, 2, tabular_fn(stepped), tabular_fn(truth[1]))
            size = population_l2(dgp2, 1, corrupted, base)
            ratios.append(err / size)
        assert all(np.isfinite(r) for r in ratios)
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-8)  # exact linearity
        print(f"error-propagation constant c = {max(ratios):.6f}")

    def test_determinism(self, dgp2, plan2):
        data = simulate(dgp2, 1500, 9)
        cfg = tabular_config(dgp2)
        a = fit_recursive_riesz(data, plan2, cfg)
        b = fit_recursive_riesz(data, plan2, cfg)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.weights, fb.weights)


class TestCleverCovariate:
    def test_first_order_conditions_vanish(self, dgp2, plan2):
        data = simulate(dgp2, 4000, 13)
        cfg = tabular_config(dgp2)
        regs, reps = fit_nuisances(data, plan2, cfg, clever=True)
        _, _, corrections = moment_scores(
            data, plan2, NuisanceSet(tuple(regs), tuple(reps))
        )
        for t in range(2):
            assert abs(corrections[t].mean()) <= 1e-8

    def test_zero_representer_reduces_to_plain_fit(self, dgp2):
        # A zero-weight contrast has the representer 0 in every period (d = 0).
        data = simulate(dgp2, 2000, 23)
        cfg = tabular_config(dgp2)
        plan = Contrast.of_sequences([0.0], [(1, 1)])
        clever, reps = fit_nuisances(data, plan, cfg, clever=True)
        assert all(not a.weights.any() for a in reps)
        plain = fit_nested_regressions(data, plan, cfg)
        for fc, fp in zip(clever, plain):
            (one, linear), (gamma, _) = fc.parts
            np.testing.assert_array_equal(linear.weights, fp.weights)
            assert (one, gamma) == (1.0, 0.0)

    def test_plug_in_equals_debiased(self, dgp2, plan2):
        data = simulate(dgp2, 4000, 29)
        cfg = tabular_config(dgp2)
        regs, reps = fit_nuisances(data, plan2, cfg, clever=True)
        values, plug, _ = moment_scores(data, plan2, NuisanceSet(tuple(regs), tuple(reps)))
        assert plug.mean() == pytest.approx(values.mean(), abs=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 21, 137])
    def test_zero_ridge_border_in_the_span_keeps_the_plain_estimate(self, dgp1, plan1, seed):
        # At zero ridge a fitted representer lies in its own design's span, so
        # its Schur complement is 0 up to rounding: the border rule, not the
        # sign of that rounding, decides, and the plain fit is kept.
        data = simulate(dgp1, 500, seed)
        cfg = FitConfig((TabularFeatures(np.arange(2.0), 2),), ridge=0.0)
        clever = dml_estimate(data, plan1, cfg, 2, 1, clever=True)
        plain = dml_estimate(data, plan1, cfg, 2, 1)
        assert clever.theta_hat == plain.theta_hat
        assert all(abs(c) <= 1e-8 for f in clever.per_fold for c in f["clever_correction_means"])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_zero_ridge_one_sample_fit_has_gamma_zero(self, dgp2, plan2, seed):
        data = simulate(dgp2, 2000, seed)
        regs, reps = fit_nuisances(data, plan2, tabular_config(dgp2, ridge=0.0), clever=True)
        assert [fit.parts[1][0] for fit in regs] == [0.0, 0.0]
        _, _, corrections = moment_scores(data, plan2, NuisanceSet(tuple(regs), tuple(reps)))
        for t in range(2):
            assert abs(corrections[t].mean()) <= 1e-8

    def test_rank_deficient_design_at_zero_ridge_is_a_solver_error(self, dgp2, plan2):
        # Constant states make the degree-2 monomials 1, s, s^2 one column three
        # times: every Gram block has mass but no Cholesky factor.
        data = simulate(dgp2, 2000, 3)
        ones = np.ones((data.n_units, 1))
        panel = PanelDataset((ones, ones), data.treatments, data.outcome, data.treatment_arities)
        cfg = FitConfig((PolynomialFeatures(1, 2, 2),) * 2, ridge=0.0)
        with pytest.raises(SolverError) as err:
            dml_estimate(panel, plan2, cfg, 5, 0)
        assert str(err.value) == ("fold 0: period 1: singular normal equations (rank-deficient "
                                  "design); set a positive ridge penalty")


class TestConsistencyRate:
    def test_riesz_error_shrinks_with_n(self, dgp1, plan1):
        truth = tabular_fn(oracle_riesz(dgp1, plan1)[0])
        errs = []
        for n in (1000, 16_000):
            data = simulate(dgp1, n, 41)
            (a1,) = fit_recursive_riesz(data, plan1, tabular_config(dgp1))
            errs.append(population_l2(dgp1, 1, a1, truth))
        assert errs[1] < errs[0] / 2
