"""Pins for the single implementations: the one-row and population forms of the
score and of plan-term evaluation must agree with the batch code they view.

The reference loops below are the per-period ladders that the population and
mixed-bias forms used to spell out; they must stay bit-equal to `moment_scores`.
"""

import numpy as np
import pytest

import dyndml
from dyndml import (
    ConstantFn,
    Contrast,
    DynamicPolicy,
    FixedSequence,
    LinearFn,
    NuisanceSet,
    PanelDataset,
    TabularFeatures,
    evaluate_moment,
    grid_policy,
    mixed_bias,
    moment_batch,
    moment_scores,
    oracle_nuisances,
    orthogonal_moment,
    population_moment,
    random_dgp,
    simulate,
    tabular_fn,
)
from dyndml.core import _term_sum
from dyndml.moment import nuisance_difference

PLANS = {
    "fixed": FixedSequence((1, 1)),
    "policy": DynamicPolicy((grid_policy([1, 0]), grid_policy([0, 1]))),
    "contrast": Contrast.of_sequences([1.0, -1.0], [(1, 1), (0, 0)]),
}


def random_nuisances(rng, m=2):
    return NuisanceSet(
        regressions=tuple(tabular_fn(rng.uniform(-3, 3, (2, 2))) for _ in range(m)),
        representers=tuple(tabular_fn(rng.uniform(-3, 3, (2, 2))) for _ in range(m)),
    )


def ladder(data, plan, nus, outcome):
    """The correction ladder written out period by period."""
    m = plan.num_periods
    total = moment_batch(plan, 1, data, nus.regressions[0])
    for t in range(1, m + 1):
        a_vals = nus.representers[t - 1].batch(data.states[t - 1], data.treatments[:, t - 1])
        u = outcome if t == m else moment_batch(plan, t + 1, data, nus.regressions[t])
        f_vals = nus.regressions[t - 1].batch(data.states[t - 1], data.treatments[:, t - 1])
        total = total + a_vals * (u - f_vals)
    return total


@pytest.mark.parametrize("kind", sorted(PLANS))
class TestScoreViews:
    def test_population_moment_is_weighted_moment_scores(self, dgp2, kind):
        plan = PLANS[kind]
        nus = random_nuisances(np.random.Generator(np.random.PCG64(1)))
        paths = dgp2.paths()
        value = population_moment(dgp2, plan, nus)
        assert value == float(paths.prob @ moment_scores(paths.data, plan, nus)[0])
        assert value == float(paths.prob @ ladder(paths.data, plan, nus, paths.mu))

    def test_mixed_bias_formula_is_zero_outcome_corrections(self, dgp2, kind):
        plan = PLANS[kind]
        rng = np.random.Generator(np.random.PCG64(2))
        truth = oracle_nuisances(dgp2, plan)
        alt = random_nuisances(rng)
        _, formula = mixed_bias(dgp2, plan, alt, truth)
        diff = nuisance_difference(alt, truth)
        paths = dgp2.paths()
        reference = 0.0
        for t in range(1, 3):
            a_vals = diff.representers[t - 1].batch(
                paths.data.states[t - 1], paths.treatments[:, t - 1]
            )
            u = np.zeros(paths.prob.shape[0]) if t == 2 else moment_batch(
                plan, t + 1, paths.data, diff.regressions[t]
            )
            f_vals = diff.regressions[t - 1].batch(
                paths.data.states[t - 1], paths.treatments[:, t - 1]
            )
            reference += float(paths.prob @ (a_vals * (u - f_vals)))
        assert formula == reference

    def test_one_row_views_match_batch_rows(self, dgp2, kind):
        plan = PLANS[kind]
        nus = random_nuisances(np.random.Generator(np.random.PCG64(3)))
        data = simulate(dgp2, 40, 4)
        values, plug, corrections = moment_scores(data, plan, nus)
        for t in (1, 2):
            batch = moment_batch(plan, t, data, nus.regressions[t - 1])
            for i in range(data.n_units):
                assert evaluate_moment(plan, t, data.trajectory(i), nus.regressions[t - 1]) == batch[i]
        for i in range(data.n_units):
            mv = orthogonal_moment(data.trajectory(i), plan, nus)
            assert mv.value == values[i]
            assert mv.plug_in == plug[i]
            assert mv.corrections == tuple(corrections[:, i])


def test_constant_function_accepts_targets_beyond_observed_codes():
    plan = FixedSequence((5, 5))
    data = PanelDataset(
        states=(np.zeros((3, 1)), np.ones((3, 1))),
        treatments=np.zeros((3, 2), dtype=np.int64),
        outcome=np.arange(3.0),
        treatment_arities=(6, 6),
    )
    g = ConstantFn(2.5)
    batch = moment_batch(plan, 2, data, g)
    for i in range(3):
        assert evaluate_moment(plan, 2, data.trajectory(i), g) == batch[i] == 2.5
    nus = NuisanceSet(regressions=(g, g), representers=(ConstantFn(1.0), ConstantFn(-1.0)))
    values, plug, corrections = moment_scores(data, plan, nus)
    for i in range(3):
        mv = orthogonal_moment(data.trajectory(i), plan, nus)
        assert (mv.value, mv.plug_in, mv.corrections) == (
            values[i], plug[i], tuple(corrections[:, i])
        )


def test_feature_image_matches_moment_batch_on_zero_weight_rows():
    # After period 1 each term's weight 1{T_{t-1} == previous target} vanishes
    # on part of the rows, so the loop's partial-live branch is exercised.
    dgp = random_dgp(np.random.Generator(np.random.PCG64(7)), periods=3)
    plan = Contrast.of_sequences([2.0, -1.0], [(1, 1, 0), (0, 0, 1)])
    data = simulate(dgp, 500, 8)
    rng = np.random.Generator(np.random.PCG64(9))
    for t in (2, 3):
        phi = TabularFeatures(grid=np.arange(dgp.state_arities[t - 1], dtype=float), arity=2)
        beta = rng.normal(size=phi.dim)
        image = _term_sum(plan, t, data, phi.batch, phi.arity, (phi.dim,))
        for term in plan.period_terms(t):
            live = term.weights(data, t) != 0.0
            assert live.any() and not live.all()
        np.testing.assert_allclose(
            image @ beta, moment_batch(plan, t, data, LinearFn(phi, beta)), rtol=0, atol=1e-12
        )


def test_public_names_pinned():
    assert sorted(dyndml.__all__) == [
        "CombinedFn", "ConstantFn", "Contrast", "DiscreteDGP", "DynamicPolicy",
        "EstimateReport", "EvalTerm", "ExtendedFeatures", "FitConfig", "FixedSequence",
        "FoldPlan", "LinearFn", "MCResult", "MomentValue", "NuisanceSet", "PanelDataset",
        "Perturbation", "PlanError", "PolynomialFeatures", "PositivityError", "Prefix",
        "RandomFourierFeatures", "RateTable", "SolverError", "SurrogateNuisances",
        "SurrogatePair", "TabularFeatures", "Trajectory", "TreatmentPlan", "ValidationError",
        "core", "dgp_ref_1", "dgp_ref_2", "dml_estimate", "evaluate_moment",
        "fit_clever_covariate", "fit_nested_regressions", "fit_recursive_riesz", "fit_ridge",
        "grid_policy", "inference", "make_folds", "mc_experiment", "mix_seed", "mixed_bias",
        "moment", "moment_batch", "moment_scores", "normal_quantile", "nuisance", "oracle",
        "oracle_nested_regressions", "oracle_nuisances", "oracle_riesz", "oracle_theta",
        "oracle_theta_potential", "orthogonal_moment", "orthogonality_slope",
        "perturbation_bias", "population_l2", "population_moment", "population_riesz_loss",
        "random_dgp", "rate_diagnostics", "read_panel_csv", "read_surrogate_csvs",
        "riesz_loss", "riesz_step", "simulate", "surrogate", "surrogate_estimate",
        "surrogate_fit", "surrogate_scores", "tabular_fn", "write_panel_csv",
        "write_surrogate_csvs",
    ]
