import math

import numpy as np
import pytest

from dyndml import (
    ConstantFn,
    NuisanceSet,
    Perturbation,
    ValidationError,
    mixed_bias,
    moment_scores,
    oracle_nuisances,
    oracle_theta,
    orthogonality_slope,
    perturbation_bias,
    population_moment,
    simulate,
    tabular_fn,
)


def rnd_table(rng, scale=1.0):
    return rng.uniform(-scale, scale, size=(2, 2))


class TestOrthogonalMoment:
    def test_one_period_aipw_reduction(self, dgp1, plan1):
        nus = oracle_nuisances(dgp1, plan1)
        data = simulate(dgp1, 50, 3)
        values, _, _ = moment_scores(data, plan1, nus)
        f, a = nus.regressions[0], nus.representers[0]
        s, t = data.states[0][:10], data.treatments[:10, 0]
        expected = f.batch(s, np.ones(10, dtype=np.int64)) + a.batch(s, t) * (
            data.outcome[:10] - f.batch(s, t))
        np.testing.assert_allclose(values[:10], expected, rtol=0, atol=1e-13)

    def test_zero_representer_leaves_plug_in(self, dgp2, plan2):
        truth = oracle_nuisances(dgp2, plan2)
        zeroed = NuisanceSet(
            regressions=truth.regressions,
            representers=(ConstantFn(0.0), ConstantFn(0.0)),
        )
        data = simulate(dgp2, 20, 4)
        values, plug, corrections = moment_scores(data, plan2, zeroed)
        np.testing.assert_array_equal(values, plug)
        np.testing.assert_array_equal(corrections, np.zeros((2, 20)))

    def test_decomposition_identity_bitwise(self, dgp2, plan2):
        rng = np.random.Generator(np.random.PCG64(5))
        nus = NuisanceSet(
            regressions=tuple(tabular_fn(rnd_table(rng, 3)) for _ in range(2)),
            representers=tuple(tabular_fn(rnd_table(rng, 3)) for _ in range(2)),
        )
        data = simulate(dgp2, 200, 6)
        values, plug, corrections = moment_scores(data, plan2, nus)
        for i in range(data.n_units):
            total = plug[i]
            for t in range(2):
                total += corrections[t, i]
            assert values[i] == total  # fixed summation order, bit-equal
            row, _, _ = moment_scores(data.subset([i]), plan2, nus)
            assert row[0] == pytest.approx(values[i], abs=1e-12)

    def test_empirical_mean_near_theta_with_oracle_nuisances(self, dgp2, plan2):
        nus = oracle_nuisances(dgp2, plan2)
        data = simulate(dgp2, 100_000, 7)
        values, _, _ = moment_scores(data, plan2, nus)
        sd = values.std()
        assert abs(values.mean() - 3.8) <= 4.0 * sd / math.sqrt(data.n_units)


class TestMixedBias:
    def test_truth_vs_truth_is_zero(self, dgp2, plan2):
        truth = oracle_nuisances(dgp2, plan2)
        direct, formula = mixed_bias(dgp2, plan2, truth, truth)
        assert direct == pytest.approx(0.0, abs=1e-13)
        assert formula == pytest.approx(0.0, abs=1e-13)

    def test_representer_only_corruption_is_zero(self, dgp2, plan2):
        truth = oracle_nuisances(dgp2, plan2)
        rng = np.random.Generator(np.random.PCG64(9))
        alt = Perturbation(
            a_directions={1: tabular_fn(rnd_table(rng)), 2: tabular_fn(rnd_table(rng))}
        ).apply(truth, 1.0)
        direct, formula = mixed_bias(dgp2, plan2, alt, truth)
        assert direct == pytest.approx(0.0, abs=1e-12)
        assert formula == pytest.approx(0.0, abs=1e-12)

    def test_joint_shift_matches_formula_and_inner_product(self, dgp2, plan2):
        truth = oracle_nuisances(dgp2, plan2)
        c = 0.7
        rng = np.random.Generator(np.random.PCG64(10))
        g_tab = rnd_table(rng)
        alt = Perturbation(
            f_directions={1: ConstantFn(1.0)},
            a_directions={1: tabular_fn(g_tab)},
        ).apply(truth, c)
        direct, formula = mixed_bias(dgp2, plan2, alt, truth)
        assert direct == pytest.approx(formula, abs=1e-10)
        paths = dgp2.paths()
        g_vals = tabular_fn(g_tab).batch(paths.data.states[0], paths.treatments[:, 0])
        expected = -c * c * float(paths.prob @ g_vals)
        assert direct == pytest.approx(expected, abs=1e-10)

    def test_random_perturbations_match_formula(self, dgp2, plan2):
        truth = oracle_nuisances(dgp2, plan2)
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(50):
            alt = Perturbation(
                f_directions={t: tabular_fn(rnd_table(rng)) for t in (1, 2)},
                a_directions={t: tabular_fn(rnd_table(rng)) for t in (1, 2)},
            ).apply(truth, 1.0)
            direct, formula = mixed_bias(dgp2, plan2, alt, truth)
            assert direct == pytest.approx(formula, abs=1e-10)


class TestOrthogonalitySlope:
    EPS = (1e-1, 1e-2, 1e-3)

    def test_single_regression_direction(self, dgp2, plan2):
        rng = np.random.Generator(np.random.PCG64(12))
        for t in (1, 2):
            d = Perturbation(f_directions={t: tabular_fn(rnd_table(rng))})
            assert orthogonality_slope(dgp2, plan2, d, self.EPS) >= 1.9

    def test_single_representer_direction(self, dgp2, plan2):
        rng = np.random.Generator(np.random.PCG64(13))
        for t in (1, 2):
            d = Perturbation(a_directions={t: tabular_fn(rnd_table(rng))})
            assert orthogonality_slope(dgp2, plan2, d, self.EPS) >= 1.9

    def test_joint_same_period_quadratic(self, dgp2, plan2):
        rng = np.random.Generator(np.random.PCG64(14))
        h_tab, g_tab = rnd_table(rng), rnd_table(rng)
        d = Perturbation(f_directions={1: tabular_fn(h_tab)}, a_directions={1: tabular_fn(g_tab)})
        slope = orthogonality_slope(dgp2, plan2, d, self.EPS)
        assert slope == pytest.approx(2.0, abs=0.02)
        eps = 1e-2
        paths = dgp2.paths()
        inner = float(
            paths.prob
            @ (
                tabular_fn(g_tab).batch(paths.data.states[0], paths.treatments[:, 0])
                * tabular_fn(h_tab).batch(paths.data.states[0], paths.treatments[:, 0])
            )
        )
        bias = perturbation_bias(dgp2, plan2, d, eps)
        assert bias == pytest.approx(-eps * eps * inner, abs=1e-10)

    def test_cross_period_flat(self, dgp2, plan2):
        rng = np.random.Generator(np.random.PCG64(15))
        # (a_2, f_1): periods 1 not in {2, 3}
        d = Perturbation(
            f_directions={1: tabular_fn(rnd_table(rng))},
            a_directions={2: tabular_fn(rnd_table(rng))},
        )
        assert abs(perturbation_bias(dgp2, plan2, d, 1e-2)) < 1e-12
        assert orthogonality_slope(dgp2, plan2, d, self.EPS) == math.inf

    def test_adjacent_period_pair_is_second_order(self, dgp2, plan2):
        # (a_1, f_2) is the one genuinely coupled cross pair
        rng = np.random.Generator(np.random.PCG64(16))
        d = Perturbation(
            f_directions={2: tabular_fn(rnd_table(rng))},
            a_directions={1: tabular_fn(rnd_table(rng))},
        )
        assert orthogonality_slope(dgp2, plan2, d, self.EPS) >= 1.9

    def test_grid_validation(self, dgp2, plan2):
        d = Perturbation(f_directions={1: ConstantFn(1.0)})
        with pytest.raises(ValidationError):
            orthogonality_slope(dgp2, plan2, d, (1e-1, 1e-2))
        with pytest.raises(ValidationError):
            orthogonality_slope(dgp2, plan2, d, (1e-1, 5e-2, 3e-2))


class TestPerturbationType:
    def test_scale_must_be_positive(self):
        with pytest.raises(ValidationError):
            Perturbation(scale=0.0)

    def test_apply_shifts_only_named_periods(self, dgp2, plan2):
        truth = oracle_nuisances(dgp2, plan2)
        shifted = Perturbation(f_directions={2: ConstantFn(1.0)}).apply(truth, 0.5)
        s, c = np.array([[1.0]]), np.array([1])
        assert shifted.regressions[0].batch(s, c)[0] == truth.regressions[0].batch(s, c)[0]
        assert shifted.regressions[1].batch(s, c)[0] == pytest.approx(
            truth.regressions[1].batch(s, c)[0] + 0.5, abs=1e-14
        )
        assert population_moment(dgp2, plan2, shifted) == pytest.approx(
            oracle_theta(dgp2, plan2), abs=1e-12
        )
