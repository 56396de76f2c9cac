"""Pins for the single implementations: the population forms of the score and
of plan-term evaluation must agree with the batch code they view.

The reference loops below are the per-period ladders that the population and
mixed-bias forms used to spell out; they must stay bit-equal to `moment_scores`.
The stage-major cross-fits of the panel and the two-sample estimators are
pinned to the per-fold definition of cross-fitting (refit on each complement,
score each fold), and the incremental monomials to their closed form.
"""

import itertools
import math

import numpy as np
import pytest

import dyndml
from dyndml import (
    ConstantFn,
    Contrast,
    DynamicPolicy,
    EvalTerm,
    FitConfig,
    FixedSequence,
    LinearFn,
    NuisanceSet,
    PanelDataset,
    PolynomialFeatures,
    RandomFourierFeatures,
    SolverError,
    SurrogatePair,
    TabularFeatures,
    dgp_ref_2,
    dml_estimate,
    grid_policy,
    make_folds,
    mix_seed,
    mixed_bias,
    moment_batch,
    moment_scores,
    oracle_nuisances,
    population_moment,
    random_dgp,
    simulate,
    surrogate_estimate,
    surrogate_fit,
    surrogate_scores,
    tabular_fn,
)
from dyndml.moment import nuisance_difference
from dyndml.nuisance import _Design, _TrainingSets, _units, fit_nuisances
from conftest import one_ulp_off
from helpers_surrogate import two_sample_ref

# FixedSequence((1, 1)) spelled with batch rules alone.
BATCH_TERMS = Contrast(terms=tuple(
    (EvalTerm(weight_batch=lambda d: np.ones(d.n_units),
              target_batch=lambda d: np.ones(d.n_units, dtype=np.int64)),) for _ in (1, 2)))

PLANS = {
    "batch-terms": BATCH_TERMS,
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

    def test_moment_scores_is_the_ladder(self, dgp2, kind):
        plan = PLANS[kind]
        nus = random_nuisances(np.random.Generator(np.random.PCG64(5)))
        data = simulate(dgp2, 60, 6)
        values, plug, corrections = moment_scores(data, plan, nus)
        assert np.array_equal(values, ladder(data, plan, nus, data.outcome))
        assert np.array_equal(plug, moment_batch(plan, 1, data, nus.regressions[0]))
        for t in (1, 2):
            a_vals = nus.representers[t - 1].batch(data.states[t - 1], data.treatments[:, t - 1])
            u = data.outcome if t == 2 else moment_batch(plan, t + 1, data, nus.regressions[t])
            f_vals = nus.regressions[t - 1].batch(data.states[t - 1], data.treatments[:, t - 1])
            assert np.array_equal(corrections[t - 1], a_vals * (u - f_vals))

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


def test_constant_function_accepts_targets_beyond_observed_codes():
    plan = FixedSequence((5, 5))
    data = PanelDataset(
        states=(np.zeros((3, 1)), np.ones((3, 1))),
        treatments=np.zeros((3, 2), dtype=np.int64),
        outcome=np.arange(3.0),
        treatment_arities=(6, 6),
    )
    g = ConstantFn(2.5)
    np.testing.assert_array_equal(moment_batch(plan, 2, data, g), np.full(3, 2.5))
    nus = NuisanceSet(regressions=(g, g), representers=(ConstantFn(1.0), ConstantFn(-1.0)))
    values, plug, corrections = moment_scores(data, plan, nus)
    np.testing.assert_array_equal(plug, np.full(3, 2.5))
    np.testing.assert_array_equal(values, 2.5 - (data.outcome - 2.5))


def test_feature_image_matches_moment_batch_on_zero_weight_rows():
    # After period 1 each term's weight 1{T_{t-1} == previous target} vanishes
    # on part of the rows, so each code carries weight on only some rows.
    dgp = random_dgp(np.random.Generator(np.random.PCG64(7)), periods=3)
    plan = Contrast.of_sequences([2.0, -1.0], [(1, 1, 0), (0, 0, 1)])
    data = simulate(dgp, 500, 8)
    rng = np.random.Generator(np.random.PCG64(9))
    for t in (2, 3):
        phi = TabularFeatures(grid=np.arange(dgp.state_arities[t - 1], dtype=float), arity=2)
        beta = rng.normal(size=phi.dim)
        image = sum(
            term.weights(data, t)[:, None] * phi.batch(data.states[t - 1], term.targets(data, t))
            for term in plan.period_terms(t)
        )
        for term in plan.period_terms(t):
            live = term.weights(data, t) != 0.0
            assert live.any() and not live.all()
        np.testing.assert_allclose(
            image @ beta, moment_batch(plan, t, data, LinearFn(phi, beta)), rtol=0, atol=1e-12
        )


def test_public_names_pinned():
    assert sorted(dyndml.__all__) == [
        "CombinedFn", "ConstantFn", "Contrast", "DiscreteDGP", "DynamicPolicy",
        "EstimateReport", "EvalTerm", "FitConfig", "FixedSequence",
        "FoldPlan", "LinearFn", "MCResult", "NuisanceSet", "PanelDataset",
        "Perturbation", "PlanError", "PolynomialFeatures", "PositivityError",
        "RandomFourierFeatures", "RateTable", "SolverError", "SurrogateNuisances",
        "SurrogatePair", "TabularFeatures", "TreatmentPlan", "ValidationError",
        "core", "dgp_ref_1", "dgp_ref_2", "dml_estimate",
        "fit_nested_regressions", "fit_nuisances", "fit_recursive_riesz",
        "grid_policy", "inference", "make_folds", "mc_experiment", "mix_seed", "mixed_bias",
        "moment", "moment_batch", "moment_scores", "normal_quantile", "nuisance", "oracle",
        "oracle_nested_regressions", "oracle_nuisances", "oracle_riesz", "oracle_theta",
        "oracle_theta_potential", "orthogonality_slope",
        "perturbation_bias", "population_l2", "population_moment", "population_riesz_loss",
        "random_dgp", "rate_diagnostics", "read_panel_csv", "read_surrogate_csvs",
        "riesz_loss", "riesz_step", "simulate", "surrogate", "surrogate_estimate",
        "surrogate_fit", "surrogate_scores", "tabular_fn", "write_panel_csv",
        "write_surrogate_csvs",
    ]


# ---------------------------------------------------------------------------
# Stage-major cross-fitting against the per-fold definition
# ---------------------------------------------------------------------------


def per_fold_reference(data, plan, cfg, q_folds, seed, clever):
    """Cross-fitting as defined: per fold, fit both sequences on a subset
    holding the complement, then score a subset holding the fold."""
    folds = make_folds(data.n_units, q_folds, seed)
    scores = np.empty(data.n_units)
    per_fold = []
    for q, idx in enumerate(folds.folds):
        train = data.subset(folds.complement(q))
        regs, reps = fit_nuisances(train, plan, cfg, clever=clever)
        bundle = NuisanceSet(regressions=tuple(regs), representers=tuple(reps))
        vals, _, corrections = moment_scores(data.subset(idx), plan, bundle)
        scores[idx] = vals
        info = {
            "fold": q,
            "size": int(idx.shape[0]),
            "score_mean": float(vals.mean()),
            "correction_means": [float(c.mean()) for c in corrections],
        }
        if clever:
            info["clever_correction_means"] = [
                float(c.mean()) for c in moment_scores(train, plan, bundle)[2]
            ]
        per_fold.append(info)
    theta = float(scores.mean())
    return theta, float(np.sqrt(np.mean((scores - theta) ** 2))), per_fold


def continuous_panel(n, seed, periods=2, dim=2):
    """Gaussian states with logistic binary treatments and a linear outcome."""
    rng = np.random.Generator(np.random.PCG64(seed))
    s = rng.standard_normal((n, dim))
    states, codes = [], np.empty((n, periods), dtype=np.int64)
    for t in range(periods):
        states.append(s)
        codes[:, t] = rng.random(n) < 1.0 / (1.0 + np.exp(-0.5 * s[:, 0]))
        s = 0.5 * s + 0.4 * codes[:, t, None] + 0.5 * rng.standard_normal(s.shape)
    outcome = s.sum(axis=1) + codes[:, -1] + rng.standard_normal(n)
    return PanelDataset(tuple(states), codes, outcome, (2,) * periods)


def equivalence_case(features, plan_kind):
    if features == "tabular":
        dgp = random_dgp(np.random.Generator(np.random.PCG64(11)), periods=2)
        data = simulate(dgp, 400, 12)
        maps = tuple(
            TabularFeatures(grid=np.arange(float(g)), arity=k)
            for g, k in zip(dgp.state_arities, dgp.treatment_arities)
        )
        policy = DynamicPolicy(
            tuple(grid_policy([(i + t) % 2 for i in range(g)]) for t, g in enumerate(dgp.state_arities))
        )
    else:
        data = continuous_panel(400, 13)
        if features == "polynomial":
            maps = (PolynomialFeatures(2, 2, 2),) * 2
        else:
            maps = tuple(RandomFourierFeatures(2, 6, 2, seed=t) for t in range(2))

        def sign(s):
            return (s[:, 0] > 0).astype(np.int64)

        policy = DynamicPolicy((sign, sign))
    plans = {
        "batch-terms": BATCH_TERMS,
        "fixed": FixedSequence((1, 1)),
        "policy": policy,
        "contrast": Contrast.of_sequences([1.0, -1.0], [(1, 1), (0, 0)]),
    }
    return data, maps, plans[plan_kind]


@pytest.mark.parametrize("ridge", [None, (1e-3, 1e-2)], ids=["default-ridge", "per-period-ridge"])
@pytest.mark.parametrize("clip", [None, 2.5], ids=["no-clip", "clip"])
@pytest.mark.parametrize("clever", [False, True], ids=["plain", "clever"])
@pytest.mark.parametrize("features", ["tabular", "polynomial", "fourier"])
@pytest.mark.parametrize("plan_kind", sorted(PLANS))
def test_stage_major_cross_fit_matches_per_fold_refits(plan_kind, features, clever, clip, ridge):
    data, maps, plan = equivalence_case(features, plan_kind)
    cfg = FitConfig(feature_maps=maps, ridge=ridge, clip=clip)
    report = dml_estimate(data, plan, cfg, 3, 5, clever=clever)
    theta, sigma, per_fold = per_fold_reference(data, plan, cfg, 3, 5, clever)
    tol = 1e-10 * (1.0 + abs(theta))
    assert abs(report.theta_hat - theta) <= tol
    assert abs(report.sigma_hat - sigma) <= tol
    assert [sorted(f) for f in report.per_fold] == [sorted(f) for f in per_fold]
    for got, want in zip(report.per_fold, per_fold):
        assert (got["fold"], got["size"]) == (want["fold"], want["size"])
        for key in set(want) - {"fold", "size"}:
            np.testing.assert_allclose(got[key], want[key], rtol=0, atol=tol)


# ---------------------------------------------------------------------------
# Distinct histories against the per-row engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("clever", [False, True], ids=["plain", "clever"])
@pytest.mark.parametrize("features", ["tabular", "polynomial"])
def test_fold_by_fold_runs_match_the_per_fold_refits(monkeypatch, features, clever):
    # A panel too large to value every training set at once is valued one run
    # of folds at a time (`_PACKED`); one fold per run must give the same fits.
    monkeypatch.setattr(dyndml.nuisance, "_PACKED", 1)
    test_stage_major_cross_fit_matches_per_fold_refits("policy", features, clever, 2.5, None)


def panel_units(data, maps, folds):
    """The units the engine fits a panel on (`_units`, as `nuisance.panel_units` calls it)."""
    fold = np.empty(data.n_units, dtype=np.intp)
    for q, idx in enumerate(folds):
        fold[idx] = q
    return _units(list(zip(maps, data.states, data.treatments.T)), data.outcome, fold,
                  len(folds), [f"period {t}" for t in range(1, len(maps) + 1)])


@pytest.mark.parametrize("ridge", [None, (1e-3, 1e-2)], ids=["default-ridge", "per-period-ridge"])
@pytest.mark.parametrize("clip", [None, 2.5], ids=["no-clip", "clip"])
@pytest.mark.parametrize("clever", [False, True], ids=["plain", "clever"])
@pytest.mark.parametrize("plan_kind", sorted(PLANS))
def test_distinct_histories_match_the_per_row_engine(plan_kind, clever, clip, ridge):
    # The process's outcome is a function of the history; noise makes the rows
    # of one history differ, so a score must use its own row's Y.
    data, maps, plan = equivalence_case("tabular", plan_kind)
    noise = np.random.Generator(np.random.PCG64(14)).standard_normal(data.n_units)
    data = PanelDataset(data.states, data.treatments, data.outcome + noise, data.treatment_arities)
    shifted = one_ulp_off(data)
    folds = make_folds(data.n_units, 3, 5).folds
    assert len(panel_units(data, maps, folds).codes[0]) < data.n_units
    assert panel_units(shifted, maps, folds).weights is None  # the rows themselves
    cfg = FitConfig(feature_maps=maps, ridge=ridge, clip=clip)
    got = dml_estimate(data, plan, cfg, 3, 5, clever=clever)
    want = dml_estimate(shifted, plan, cfg, 3, 5, clever=clever)
    tol = 1e-10 * (1.0 + abs(want.theta_hat))
    for key in ("theta_hat", "sigma_hat", "ci_lower", "ci_upper"):
        assert abs(getattr(got, key) - getattr(want, key)) <= tol
    assert [sorted(f) for f in got.per_fold] == [sorted(f) for f in want.per_fold]
    for g, w in zip(got.per_fold, want.per_fold):
        assert (g["fold"], g["size"]) == (w["fold"], w["size"])
        for key in set(w) - {"fold", "size"}:
            np.testing.assert_allclose(g[key], w[key], rtol=0, atol=tol)


def test_zero_penalty_failure_reads_the_same_on_both_paths():
    # Code 1 in grid state 1 at period 2 is kept on fold 1's rows only, so
    # training set 1 has no mass in that design column.
    data, maps, plan = equivalence_case("tabular", "fixed")
    folds = make_folds(data.n_units, 3, 5).folds
    held = np.zeros(data.n_units, dtype=bool)
    held[folds[1]] = True
    codes = data.treatments.copy()
    codes[(data.states[1][:, 0] == 1.0) & (codes[:, 1] == 1) & ~held, 1] = 0
    data = PanelDataset(data.states, codes, data.outcome, data.treatment_arities)
    assert len(panel_units(data, maps, folds).codes[0]) < data.n_units
    cfg = FitConfig(feature_maps=maps, ridge=0.0)
    messages = []
    for panel in (data, one_ulp_off(data)):
        with pytest.raises(SolverError) as err:
            dml_estimate(panel, plan, cfg, 3, 5)
        messages.append(str(err.value))
    assert messages[0].startswith(
        "fold 1: period 2: singular system with zero penalty: design column ")
    assert messages[0] == messages[1]


@pytest.mark.parametrize("period", [1, 2])
def test_grid_rows_of_the_decision_build_the_per_row_basis(period):
    # One period one ulp off: the decision looked up the grid rows of the
    # periods up to it, and their designs build the one-hot from those.
    data, maps, plan = equivalence_case("tabular", "contrast")
    states = list(data.states)
    states[period - 1] = np.nextafter(states[period - 1], np.inf)
    shifted = PanelDataset(tuple(states), data.treatments, data.outcome, data.treatment_arities)
    folds = make_folds(data.n_units, 3, 5).folds
    units = panel_units(shifted, maps, folds)
    assert units.weights is None and [c is not None for c in units.cells] == [True, True]
    sets = _TrainingSets(units.counts, q_folds=3)
    cfg = FitConfig(feature_maps=maps)
    for t, phi in enumerate(maps, start=1):
        basis = _Design(phi, units, t - 1, sets, cfg, t, "").basis
        assert np.array_equal(basis, phi.basis(units.states[t - 1]))
    got, want = dml_estimate(data, plan, cfg, 3, 5), dml_estimate(shifted, plan, cfg, 3, 5)
    assert abs(got.theta_hat - want.theta_hat) <= 1e-10 * (1.0 + abs(want.theta_hat))


def test_negative_zero_states_fit_on_distinct_histories():
    # -0.0 is its grid row 0.0 by value, though not bit for bit; a CSV cell
    # `-0` reads as -0.0.
    data = simulate(dgp_ref_2(), 20_000, 5)
    even = (np.arange(data.n_units) % 2 == 0)[:, None]
    signed = np.where(even & (data.states[0] == 0.0), -0.0, data.states[0])
    assert np.signbit(signed).any()
    panel = PanelDataset((signed, data.states[1]), data.treatments, data.outcome,
                         data.treatment_arities)
    maps = (TabularFeatures(np.arange(2.0), 2),) * 2
    assert len(panel_units(panel, maps, make_folds(data.n_units, 5, 1).folds).codes[0]) <= 5 * 16
    cfg, plan = FitConfig(feature_maps=maps), FixedSequence((1, 1))
    got, want = dml_estimate(panel, plan, cfg, 5, 1), dml_estimate(data, plan, cfg, 5, 1)
    assert got.theta_hat == want.theta_hat


def test_tabular_plan_terms_see_only_distinct_histories():
    # dgp_ref_2 has two states and two codes per period: at most 5 * (2 * 2)^2
    # distinct (fold, history) rows reach the plan's rules.
    seen = []

    def weight_batch(d):
        seen.append(d.n_units)
        return np.ones(d.n_units)

    plan = Contrast(terms=tuple(
        (EvalTerm(weight_batch=weight_batch,
                  target_batch=lambda d: np.ones(d.n_units, dtype=np.int64)),) for _ in (1, 2)))
    maps = (TabularFeatures(np.arange(2.0), 2),) * 2
    dml_estimate(simulate(dgp_ref_2(), 10_000, 3), plan, FitConfig(feature_maps=maps), 5, 1)
    assert seen and max(seen) <= 5 * (2 * 2) ** 2


def test_clip_is_active_in_the_equivalence_cases():
    # The clipped cases must exercise representer values beyond the bound.
    for features in ("tabular", "polynomial", "fourier"):
        data, maps, plan = equivalence_case(features, "contrast")
        reps = fit_nuisances(data, plan, FitConfig(feature_maps=maps))[1]
        assert max(float(np.abs(a.batch(data.states[t], data.treatments[:, t])).max())
                   for t, a in enumerate(reps)) > 2.5


@pytest.mark.parametrize("dim", range(1, 6))
@pytest.mark.parametrize("degree", range(0, 5))
def test_incremental_monomials_match_powers(dim, degree):
    s = np.random.Generator(np.random.PCG64(dim * 10 + degree)).uniform(-2.0, 2.0, (50, dim))
    exponents = [
        np.bincount(np.array(combo, dtype=np.int64), minlength=dim)
        for total in range(degree + 1)
        for combo in itertools.combinations_with_replacement(range(dim), total)
    ]
    want = np.stack([np.prod(s ** e, axis=1) for e in exponents], axis=1)
    got = PolynomialFeatures(dim, degree, 1)._monomials(s)
    assert got.shape == want.shape == (50, math.comb(dim + degree, degree))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# The two-sample cross-fit against the per-fold definition
# ---------------------------------------------------------------------------


def sample_pair(data, idx_s, idx_l):
    """The records idx_s of the short sample and idx_l of the long one."""
    return SurrogatePair(
        data.short_x[idx_s], data.short_t[idx_s], data.short_s[idx_s],
        data.long_x[idx_l], data.long_s[idx_l], data.long_y[idx_l],
    )


def surrogate_per_fold_reference(data, cfg, q_folds, seed):
    """Two-sample cross-fitting as defined: per fold, fit on a pair holding both
    complements, then score a pair holding both folds."""
    folds_s = make_folds(data.n_short, q_folds, seed)
    folds_l = make_folds(data.n_long, q_folds, mix_seed(seed, 1))
    short_scores, long_scores = np.empty(data.n_short), np.empty(data.n_long)
    per_fold = []
    for q, (idx_s, idx_l) in enumerate(zip(folds_s.folds, folds_l.folds)):
        nus = surrogate_fit(sample_pair(data, folds_s.complement(q), folds_l.complement(q)), cfg)
        s_term, l_term = surrogate_scores(sample_pair(data, idx_s, idx_l), nus)
        short_scores[idx_s], long_scores[idx_l] = s_term, l_term
        per_fold.append({
            "fold": q, "short_size": int(idx_s.shape[0]), "long_size": int(idx_l.shape[0]),
            "short_mean": float(s_term.mean()), "long_mean": float(l_term.mean()),
        })
    theta = float(short_scores.mean() + long_scores.mean())
    v_short = np.mean((short_scores - short_scores.mean()) ** 2)
    v_long = np.mean((long_scores - long_scores.mean()) ** 2)
    return theta, float(np.sqrt(v_short + v_long * data.n_short / data.n_long)), per_fold


def continuous_pair(n_short, n_long, seed):
    """Gaussian controls, a logistic treatment, a surrogate shifted by it, and a
    long sample whose outcome is linear in (S, X)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal((n_short, 1))
    t = (rng.random(n_short) < 1.0 / (1.0 + np.exp(-1.5 * x[:, 0]))).astype(np.int64)
    s = 0.5 * x + t[:, None] + 0.5 * rng.standard_normal((n_short, 1))
    x_long = rng.standard_normal((n_long, 1))
    s_long = 0.5 * x_long + 0.5 + 0.7 * rng.standard_normal((n_long, 1))
    y = 2.0 * s_long[:, 0] - x_long[:, 0] + rng.standard_normal(n_long)
    return SurrogatePair(x, t, s, x_long, s_long, y)


def surrogate_case(features):
    if features == "tabular":
        tsd = two_sample_ref()
        return tsd.simulate(600, 500, 3), tsd.feature_maps()
    return continuous_pair(600, 500, 4), (PolynomialFeatures(1, 2, 2), PolynomialFeatures(2, 2, 1))


SURROGATE_CLIP = 1.25


@pytest.mark.parametrize("ridge", [None, (1e-3, 1e-2)], ids=["default-ridge", "per-stage-ridge"])
@pytest.mark.parametrize("clip", [None, SURROGATE_CLIP], ids=["no-clip", "clip"])
@pytest.mark.parametrize("features", ["tabular", "polynomial"])
def test_surrogate_cross_fit_matches_per_fold_refits(features, clip, ridge):
    data, maps = surrogate_case(features)
    cfg = FitConfig(feature_maps=maps, ridge=ridge, clip=clip)
    report = surrogate_estimate(data, cfg, 3, 5)
    theta, sigma, per_fold = surrogate_per_fold_reference(data, cfg, 3, 5)
    tol = 1e-10 * (1.0 + abs(theta))
    assert abs(report.theta_hat - theta) <= tol
    assert abs(report.sigma_hat - sigma) <= tol
    assert [sorted(f) for f in report.per_fold] == [sorted(f) for f in per_fold]
    for got, want in zip(report.per_fold, per_fold):
        for key in ("fold", "short_size", "long_size"):
            assert got[key] == want[key]
        for key in ("short_mean", "long_mean"):
            assert abs(got[key] - want[key]) <= tol


@pytest.mark.parametrize("features", ["tabular", "polynomial"])
def test_surrogate_fold_by_fold_runs_match_the_per_fold_refits(monkeypatch, features):
    monkeypatch.setattr(dyndml.nuisance, "_PACKED", 1)  # one fold per run, as on large samples
    test_surrogate_cross_fit_matches_per_fold_refits(features, SURROGATE_CLIP, None)


def one_ulp_off_pair(data):
    """The samples with every control and surrogate one ulp above its grid row:
    within GRID_TOLERANCE of it, so the engine fits this copy row by row."""
    up = np.nextafter
    return SurrogatePair(up(data.short_x, np.inf), data.short_t, up(data.short_s, np.inf),
                         up(data.long_x, np.inf), up(data.long_s, np.inf), data.long_y)


@pytest.mark.parametrize("ridge", [None, (1e-3, 1e-2)], ids=["default-ridge", "per-stage-ridge"])
@pytest.mark.parametrize("clip", [None, SURROGATE_CLIP], ids=["no-clip", "clip"])
def test_surrogate_distinct_rows_match_the_per_row_engine(monkeypatch, clip, ridge):
    # The long outcome is noisy, so the rows of one distinct (fold, x, t, s)
    # row differ in y and each long score must use its own row's y.
    data, maps = surrogate_case("tabular")
    sizes, units = [], dyndml.surrogate._units

    def spy(columns, *args):  # (units, rows) of each sample the engine reduces
        reduced = units(columns, *args)
        sizes.append((len(reduced.codes[0]), columns[0][1].shape[0]))
        return reduced

    monkeypatch.setattr(dyndml.surrogate, "_units", spy)
    cfg = FitConfig(feature_maps=maps, ridge=ridge, clip=clip)
    got = surrogate_estimate(data, cfg, 3, 5)
    assert len(sizes) == 2 and all(u < n for u, n in sizes)
    sizes.clear()
    want = surrogate_estimate(one_ulp_off_pair(data), cfg, 3, 5)
    assert len(sizes) == 2 and all(u == n for u, n in sizes)
    tol = 1e-10 * (1.0 + abs(want.theta_hat))
    for key in ("theta_hat", "sigma_hat", "ci_lower", "ci_upper"):
        assert abs(getattr(got, key) - getattr(want, key)) <= tol
    assert [sorted(f) for f in got.per_fold] == [sorted(f) for f in want.per_fold]
    for g, w in zip(got.per_fold, want.per_fold):
        for key in ("fold", "short_size", "long_size"):
            assert g[key] == w[key]
        for key in ("short_mean", "long_mean"):
            assert abs(g[key] - w[key]) <= tol


@pytest.mark.parametrize("clip", [None, SURROGATE_CLIP], ids=["no-clip", "clip"])
@pytest.mark.parametrize("features", ["tabular", "polynomial"])
def test_surrogate_scores_are_the_two_sample_formula(features, clip):
    # The short-sample terms g(1, X) - g(0, X) + a1 (h - g) and the long-sample
    # terms a2 (y - h), written out from the nuisances' batch values.
    data, maps = surrogate_case(features)
    nus = surrogate_fit(data, FitConfig(feature_maps=maps, clip=clip))
    x, t = data.short_x, data.short_t
    ones, zeros = np.ones(data.n_short, dtype=np.int64), np.zeros(data.n_short, dtype=np.int64)
    long_zeros = np.zeros(data.n_long, dtype=np.int64)
    short_term, long_term = surrogate_scores(data, nus)
    h_short = nus.h.batch(data.short_sx, zeros)
    assert np.array_equal(short_term, nus.g.batch(x, ones) - nus.g.batch(x, zeros)
                          + nus.a1.batch(x, t) * (h_short - nus.g.batch(x, t)))
    h_long = nus.h.batch(data.long_sx, long_zeros)
    assert np.array_equal(long_term,
                          nus.a2.batch(data.long_sx, long_zeros) * (data.long_y - h_long))


@pytest.mark.parametrize("features", ["tabular", "polynomial"])
def test_surrogate_clip_is_active_in_the_equivalence_cases(features):
    # Both clipped representers must take values beyond the bound.
    data, maps = surrogate_case(features)
    nus = surrogate_fit(data, FitConfig(feature_maps=maps))
    a1 = nus.a1.batch(data.short_x, data.short_t)
    a2 = nus.a2.batch(data.long_sx, np.zeros(data.n_long, dtype=np.int64))
    assert np.abs(a1).max() > SURROGATE_CLIP and np.abs(a2).max() > SURROGATE_CLIP


def test_surrogate_zero_ridge_fails_the_fold_missing_a_long_cell():
    # Every long record of one (S, X) cell falls in long fold 1, so fold 1's
    # complement has no mass on that cell's column and its h stage is singular.
    tsd = two_sample_ref()
    data = tsd.simulate(600, 500, 3)
    fold = np.zeros(data.n_long, dtype=bool)
    fold[make_folds(data.n_long, 3, mix_seed(5, 1)).folds[1]] = True
    long_s = data.long_s.copy()
    cell = (data.long_s[:, 0] == 2.0) & (data.long_x[:, 0] == 1.0)
    assert (cell & fold).any()
    long_s[cell & ~fold] = 1.0
    data = SurrogatePair(data.short_x, data.short_t, data.short_s, data.long_x, long_s, data.long_y)
    cfg = FitConfig(feature_maps=tsd.feature_maps(), ridge=0.0)
    with pytest.raises(SolverError, match=r"^fold 1: h \(long-sample regression\): singular"):
        surrogate_estimate(data, cfg, 3, 5)
