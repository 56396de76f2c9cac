import hashlib

import numpy as np
from numpy.typing import NDArray
import pytest

from conftest import one_ulp_off, tabular_config
from dyndml import (
    CombinedFn,
    ConstantFn,
    Contrast,
    DiscreteDGP,
    DynamicPolicy,
    FixedSequence,
    NuisanceSet,
    PanelDataset,
    PlanError,
    PositivityError,
    SolverError,
    ValidationError,
    dml_estimate,
    grid_policy,
    mc_experiment,
    mix_seed,
    moment_batch,
    moment_scores,
    oracle_nested_regressions,
    oracle_nuisances,
    oracle_riesz,
    oracle_theta,
    oracle_theta_potential,
    population_moment,
    random_dgp,
    riesz_step,
    simulate,
    tabular_fn,
)
from dyndml import inference
from dyndml.inference import _fold_labels


class TestSimulate:
    def test_deterministic_outcome_table(self, dgp1):
        data = simulate(dgp1, 1, 0)
        s = data.states[0][0, 0]
        t = data.treatments[0, 0]
        assert s in (0.0, 1.0) and t in (0, 1)
        assert data.outcome[0] == s + t

    def test_same_seed_bit_identical(self, dgp2):
        a = simulate(dgp2, 1000, 123)
        b = simulate(dgp2, 1000, 123)
        np.testing.assert_array_equal(a.treatments, b.treatments)
        np.testing.assert_array_equal(a.outcome, b.outcome)
        for sa, sb in zip(a.states, b.states):
            np.testing.assert_array_equal(sa, sb)
        c = simulate(dgp2, 1000, 124)
        assert not np.array_equal(a.outcome, c.outcome)

    def test_draws_are_pinned(self, dgp2):
        # The sha256 of the arrays' C-order bytes, recorded when every draw
        # still took a cumulative sum of its gathered probability rows.
        data = simulate(dgp2, 2000, 7)
        digest = hashlib.sha256()
        for a in (*data.states, data.treatments, data.outcome):
            digest.update(np.ascontiguousarray(a).tobytes())
        assert digest.hexdigest() == (
            "e271ef5ebb5f4b5087b9bb9dacf623b69fc2da9ee95dacf00fc913ed2344a36f")

    def test_propensity_frequency(self, dgp1):
        data = simulate(dgp1, 100_000, 5)
        s = data.states[0][:, 0]
        t = data.treatments[:, 0]
        mask = s == 1.0
        rate = t[mask].mean()
        assert abs(rate - 0.25) <= 3.0 * np.sqrt(0.25 * 0.75 / mask.sum())

    def test_n_must_be_positive(self, dgp1):
        with pytest.raises(ValidationError, match=">= 1"):
            simulate(dgp1, 0, 0)

    @pytest.mark.parametrize("n", [2.5, 10.0])
    def test_n_must_be_an_integer(self, dgp1, n):
        with pytest.raises(ValidationError, match=f"^n must be an integer, got {n}$"):
            simulate(dgp1, n, 0)

    def test_numpy_integer_n_draws_alike(self, dgp1):
        a, b = simulate(dgp1, np.int64(10), 3), simulate(dgp1, 10, 3)
        np.testing.assert_array_equal(a.treatments, b.treatments)
        np.testing.assert_array_equal(a.outcome, b.outcome)

    @pytest.mark.parametrize("seed", [-3, 2.0, "1"])
    def test_seed_must_be_a_non_negative_integer(self, dgp1, seed):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            simulate(dgp1, 10, seed)

    def test_mix_seed_deterministic_and_distinct(self):
        assert mix_seed(7, 3) == mix_seed(7, 3)
        streams = {mix_seed(7, r) for r in range(100)}
        assert len(streams) == 100


class TestDGPValidation:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sums to"):
            DiscreteDGP(
                initial=np.array([0.6, 0.6]),
                propensities=(np.array([[0.5, 0.5], [0.5, 0.5]]),),
                transitions=(),
                outcome_mean=np.zeros((2, 2)),
            )

    def test_positivity_checked_on_positive_mass_states(self):
        with pytest.raises(ValidationError, match="positivity"):
            DiscreteDGP(
                initial=np.array([0.5, 0.5]),
                propensities=(np.array([[1.0, 0.0], [0.5, 0.5]]),),
                transitions=(),
                outcome_mean=np.zeros((2, 2)),
            )

    def test_positivity_escape_hatch_then_riesz_rejects(self):
        dgp = DiscreteDGP(
            initial=np.array([0.5, 0.5]),
            propensities=(np.array([[1.0, 0.0], [0.5, 0.5]]),),
            transitions=(),
            outcome_mean=np.zeros((2, 2)),
            check_positivity=False,
        )
        with pytest.raises(PositivityError, match="period 1, state 0"):
            oracle_riesz(dgp, FixedSequence((1,)))


class TestNestedRegressions:
    def test_ref1_additive_table(self, dgp1, plan1):
        (f1,) = oracle_nested_regressions(dgp1, plan1)
        for s in range(2):
            for k in range(2):
                assert f1[s, k] == pytest.approx(s + k, abs=1e-14)

    def test_ref2_tables(self, dgp2, plan2):
        f1, f2 = oracle_nested_regressions(dgp2, plan2)
        for s in range(2):
            assert f2[s, 1] == pytest.approx(3 + s, abs=1e-14)
            assert f1[s, 1] == pytest.approx(3.7 + 0.2 * s, abs=1e-14)

    def test_constant_outcome_gives_constant_tables(self):
        rng = np.random.Generator(np.random.PCG64(2))
        dgp = random_dgp(rng, periods=3)
        const = DiscreteDGP(
            initial=dgp.initial,
            propensities=dgp.propensities,
            transitions=dgp.transitions,
            outcome_mean=np.full_like(dgp.outcome_mean, 4.25),
            sigma_y=0.0,
        )
        for tbl in oracle_nested_regressions(const, FixedSequence((1, 0, 1))):
            np.testing.assert_allclose(tbl, 4.25, atol=1e-14)

    def test_recursion_consistency_with_transition_product(self, dgp2, plan2):
        f1, f2 = oracle_nested_regressions(dgp2, plan2)
        for s in range(2):
            for k in range(2):
                composed = dgp2.transitions[0][s, k] @ f2[:, plan2.treatments[1]]
                assert f1[s, k] == pytest.approx(composed, abs=1e-12)


class TestTheta:
    def test_reference_values(self, dgp1, dgp2, plan1, plan2):
        assert oracle_theta(dgp1, plan1) == pytest.approx(1.5, abs=1e-14)
        assert oracle_theta(dgp2, plan2) == pytest.approx(3.8, abs=1e-14)

    def test_self_contrast_is_zero(self, dgp2):
        plan = Contrast.of_sequences([1.0, -1.0], [(1, 1), (1, 1)])
        assert oracle_theta(dgp2, plan) == pytest.approx(0.0, abs=1e-14)

    def test_potential_outcomes_need_component_plans(self, dgp2, plan2):
        raw = Contrast(terms=Contrast.of_plan(plan2).terms)
        with pytest.raises(ValidationError, match="^potential-outcome enumeration needs a plan "
                                                  "with counterfactual semantics$"):
            oracle_theta_potential(dgp2, raw)

    def test_potential_outcome_crosscheck_randomized(self):
        rng = np.random.Generator(np.random.PCG64(99))
        for _ in range(20):
            periods = int(rng.integers(1, 4))
            dgp = random_dgp(rng, periods=periods)
            taus = tuple(int(rng.integers(0, 2)) for _ in range(periods))
            plan = FixedSequence(taus)
            assert oracle_theta(dgp, plan) == pytest.approx(
                oracle_theta_potential(dgp, plan), abs=1e-12
            )


class TestRiesz:
    def test_ref1_inverse_propensities(self, dgp1, plan1):
        (a1,) = oracle_riesz(dgp1, plan1)
        np.testing.assert_allclose(a1, [[0.0, 2.0], [0.0, 4.0]], atol=1e-14)

    def test_uniform_propensity_gives_arity(self):
        k = 3
        dgp = DiscreteDGP(
            initial=np.array([0.3, 0.7]),
            propensities=(np.full((2, k), 1.0 / k),),
            transitions=(),
            outcome_mean=np.zeros((2, k)),
        )
        (a1,) = oracle_riesz(dgp, FixedSequence((2,)))
        np.testing.assert_allclose(a1[:, 2], k, atol=1e-12)
        assert np.all(a1[:, :2] == 0.0)

    def test_ref2_second_period_value(self, dgp2, plan2):
        a1, a2 = oracle_riesz(dgp2, plan2)
        assert a2[1, 1] == pytest.approx((0.8 / 0.55) / 0.6, abs=1e-12)

    def test_riesz_identity_full_basis(self):
        # E[a_t(S_t,T_t) g(S_t,T_t)] == E[a_{t-1} m_t(Z; g)] for every
        # indicator g, with expectations taken directly over enumerated paths
        # (independent of the propensity-formula construction of a_t).
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(8):
            periods = int(rng.integers(1, 4))
            dgp = random_dgp(rng, periods=periods)
            plan = FixedSequence(tuple(int(rng.integers(0, 2)) for _ in range(periods)))
            tables = oracle_riesz(dgp, plan)
            paths = dgp.paths()
            for t in range(1, periods + 1):
                prev = (
                    np.ones(paths.prob.shape[0])
                    if t == 1
                    else tabular_fn(tables[t - 2]).batch(
                        paths.data.states[t - 2], paths.treatments[:, t - 2]
                    )
                )
                for s in range(dgp.state_arities[t - 1]):
                    for k in range(dgp.treatment_arities[t - 1]):
                        basis = np.zeros((dgp.state_arities[t - 1], dgp.treatment_arities[t - 1]))
                        basis[s, k] = 1.0
                        g = tabular_fn(basis)
                        lhs = float(
                            paths.prob
                            @ (
                                tabular_fn(tables[t - 1]).batch(
                                    paths.data.states[t - 1], paths.treatments[:, t - 1]
                                )
                                * g.batch(paths.data.states[t - 1], paths.treatments[:, t - 1])
                            )
                        )
                        rhs = float(
                            paths.prob @ (prev * moment_batch(plan, t, paths.data, g))
                        )
                        assert abs(lhs - rhs) <= 1e-10

    def test_general_plan_step_matches_fixed_formula(self, dgp2, plan2):
        wrapped = Contrast.of_plan(plan2)
        for t, ref in enumerate(oracle_riesz(dgp2, plan2), start=1):
            prev = None if t == 1 else tabular_fn(oracle_riesz(dgp2, plan2)[t - 2])
            general = riesz_step(dgp2, wrapped, t, prev)
            np.testing.assert_allclose(general, ref, atol=1e-12)

    @pytest.mark.parametrize("wrap", [False, True])
    def test_out_of_range_target_is_plan_error(self, dgp2, wrap):
        plan = FixedSequence((1, 2))
        plan = Contrast.of_plan(plan) if wrap else plan
        with pytest.raises(PlanError, match="period 2, term 0: treatment code 2 outside 0..1"):
            oracle_riesz(dgp2, plan)
        prev = tabular_fn(oracle_riesz(dgp2, FixedSequence((1, 1)))[0])
        with pytest.raises(PlanError, match="period 2, term 0"):
            riesz_step(dgp2, Contrast.of_plan(FixedSequence((1, 2))), 2, prev)

    def test_plan_weights_that_overflow_the_representer_are_rejected(self, dgp2, plan2):
        # Finite weights over a cell's mass leave the float range: a
        # ValidationError naming the period; an infinite prev passes through.
        plan = Contrast.of_sequences([1e308, -1e308], [(1, 1), (0, 0)])
        message = (r"^period 1: the plan's weights overflow the representer past the float "
                   r"range; rescale them$")
        for call in (lambda: oracle_riesz(dgp2, plan), lambda: oracle_nuisances(dgp2, plan)):
            with pytest.raises(ValidationError, match=message):
                call()
        assert np.isinf(riesz_step(dgp2, plan2, 2, ConstantFn(np.inf))).any()

    def test_zero_mass_cells_flagged(self):
        # state 2 at period 2 is unreachable; its cells carry no mass
        trans = np.zeros((2, 2, 3))
        trans[:, :, 0] = 0.5
        trans[:, :, 1] = 0.5
        dgp = DiscreteDGP(
            initial=np.array([0.5, 0.5]),
            propensities=(
                np.array([[0.5, 0.5], [0.5, 0.5]]),
                np.full((3, 2), 0.5),
            ),
            transitions=(trans,),
            outcome_mean=np.zeros((3, 2)),
        )
        plan = Contrast.of_plan(FixedSequence((1, 1)))
        with pytest.warns(RuntimeWarning, match="zero-mass"):
            tables = oracle_riesz(dgp, plan)
        assert tables[1][2, 1] == 0.0


class TestFixedSequenceRiesz:
    """PAPER.md's inverse-propensity form of a fixed sequence's representers,
    against `oracle_riesz`, which solves `riesz_step`'s indicator system for
    every plan; and the edge cases of that system."""

    @pytest.mark.parametrize("periods", [1, 2, 3])
    def test_inverse_propensity_form(self, periods):
        # a_t(s, tau_t) = E[a_{t-1} | S_t = s] / P(T_t = tau_t | S_t = s), and 0
        # at every other code, written out on the enumerated paths.
        for seed in range(40):
            rng = np.random.Generator(np.random.PCG64(seed))
            dgp = random_dgp(rng, periods=periods)
            taus = tuple(int(rng.integers(0, 2)) for _ in range(periods))
            paths = dgp.paths()
            prev = np.ones(paths.prob.shape[0])  # a_0 = 1
            for t, (got, tau) in enumerate(zip(oracle_riesz(dgp, FixedSequence(taus)), taus)):
                s_col = paths.states[:, t]
                mass = np.bincount(s_col, paths.prob, got.shape[0])
                given = np.bincount(s_col, paths.prob * prev, got.shape[0]) / mass
                want = np.zeros_like(got)
                want[:, tau] = given / dgp.propensities[t][:, tau]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
                prev = want[s_col, paths.treatments[:, t]]

    @staticmethod
    def two_period(props_2: list, transition: NDArray) -> DiscreteDGP:
        return DiscreteDGP(
            initial=np.array([0.5, 0.5]),
            propensities=(np.full((2, 2), 0.5), np.array(props_2)),
            transitions=(transition,),
            outcome_mean=np.zeros((transition.shape[-1], 2)),
            check_positivity=False,
        )

    def test_on_sequence_zero_propensity_is_a_positivity_error(self):
        # State 1 of period 2 is reached on the sequence, and never takes code 1.
        dgp = self.two_period([[0.5, 0.5], [1.0, 0.0]], np.full((2, 2, 2), 0.5))
        with pytest.raises(PositivityError, match=r"^positivity violation at period 2, state 1: "
                                                  r"targeted treatment 1 has zero probability$"):
            oracle_riesz(dgp, FixedSequence((1, 1)))

    def test_unreached_targeted_cell_warns_and_is_zero(self):
        # No path reaches state 2 of period 2.
        transition = np.zeros((2, 2, 3))
        transition[..., :2] = 0.5
        dgp = self.two_period(np.full((3, 2), 0.5).tolist(), transition)
        with pytest.warns(RuntimeWarning, match=r"^period 2: zero-mass cells \[\(2, 1\)\] "
                                                r"assigned minimum-norm value 0$"):
            tables = oracle_riesz(dgp, FixedSequence((1, 1)))
        assert tables[1][2, 1] == 0.0

    def test_zero_propensity_reached_off_the_sequence_warns_and_is_zero(self):
        # State 1 of period 2 is reached only after code 0 at period 1, off the
        # sequence, so a_1 is 0 on every path to it: it is not targeted mass.
        transition = np.zeros((2, 2, 2))
        transition[:, 0, 1] = transition[:, 1, 0] = 1.0
        dgp = self.two_period([[0.5, 0.5], [1.0, 0.0]], transition)
        with pytest.warns(RuntimeWarning, match=r"^period 2: zero-mass cells \[\(1, 1\)\] "
                                                r"assigned minimum-norm value 0$"):
            tables = oracle_riesz(dgp, FixedSequence((1, 1)))
        assert tables[1][1, 1] == 0.0
        np.testing.assert_array_equal(tables[1][0], [0.0, 4.0])


class TestPopulationMoment:
    def test_oracle_nuisances_reproduce_theta(self, dgp1, plan1):
        nus = oracle_nuisances(dgp1, plan1)
        assert population_moment(dgp1, plan1, nus) == pytest.approx(1.5, abs=1e-13)

    def test_double_robustness_each_leg(self, dgp2, plan2):
        truth = oracle_nuisances(dgp2, plan2)
        theta = oracle_theta(dgp2, plan2)
        rng = np.random.Generator(np.random.PCG64(8))
        garbage = [tabular_fn(rng.normal(size=(2, 2))) for _ in range(2)]
        bad_a = NuisanceSet(regressions=truth.regressions, representers=tuple(garbage))
        assert population_moment(dgp2, plan2, bad_a) == pytest.approx(theta, abs=1e-12)
        garbage_f = [tabular_fn(rng.normal(size=(2, 2))) for _ in range(2)]
        bad_f = NuisanceSet(regressions=tuple(garbage_f), representers=truth.representers)
        assert population_moment(dgp2, plan2, bad_f) == pytest.approx(theta, abs=1e-12)

    def test_constant_representer_zero(self, dgp1, plan1):
        truth = oracle_nuisances(dgp1, plan1)
        zeroed = NuisanceSet(
            regressions=truth.regressions,
            representers=(CombinedFn(((0.0, ConstantFn(1.0)),)),),
        )
        assert population_moment(dgp1, plan1, zeroed) == pytest.approx(1.5, abs=1e-13)


def empirical_law(data: PanelDataset, dgp: DiscreteDGP) -> DiscreteDGP:
    """The empirical law of a panel on dgp's grids (states are grid indices):
    its initial, propensity and transition tables are the panel's
    frequencies, a uniform row wherever a row has no mass, and its outcome
    table is the panel's cell means of Y (0 in an empty cell)."""
    s = [states[:, 0].astype(np.int64) for states in data.states]
    t, g, k = data.treatments, dgp.state_arities, dgp.treatment_arities

    def rows(key: NDArray, shape: tuple[int, ...]) -> NDArray:
        counts = np.bincount(key, minlength=int(np.prod(shape))).reshape(shape).astype(float)
        total = counts.sum(axis=-1, keepdims=True)
        return np.where(total > 0, counts / np.maximum(total, 1.0), 1.0 / shape[-1])

    cells = [s[i] * k[i] + t[:, i] for i in range(data.num_periods)]
    last = np.bincount(cells[-1], minlength=g[-1] * k[-1])
    mu = np.bincount(cells[-1], data.outcome, last.shape[0]) / np.maximum(last, 1)
    return DiscreteDGP(
        initial=rows(s[0], (g[0],)),
        propensities=tuple(rows(cells[i], (g[i], k[i])) for i in range(data.num_periods)),
        transitions=tuple(rows(cells[i] * g[i + 1] + s[i + 1], (g[i], k[i], g[i + 1]))
                          for i in range(data.num_periods - 1)),
        outcome_mean=mu.reshape(g[-1], k[-1]), check_positivity=False)


def oracle_cross_fit(data: PanelDataset, dgp: DiscreteDGP, plan, q_folds: int, seed: int):
    """theta, sigma and per fold (score mean, correction means) of the scores
    `moment_scores` gives each held-out fold under `oracle_nuisances` of its
    complement's empirical law, the folds those `dml_estimate` draws."""
    fold = _fold_labels(data.n_units, q_folds, seed)
    scores, per_fold = np.empty(data.n_units), []
    for q in range(q_folds):
        law = empirical_law(data.subset(np.flatnonzero(fold != q)), dgp)
        values, _, corrections = moment_scores(data.subset(np.flatnonzero(fold == q)), plan,
                                               oracle_nuisances(law, plan))
        scores[fold == q] = values
        per_fold.append((values.mean(), corrections.mean(axis=1)))
    return scores.mean(), scores.std(), per_fold


def assert_matches_oracle(report, oracle) -> None:
    theta, sigma, per_fold = oracle

    def close(got, want):
        assert np.all(np.abs(np.asarray(got) - want) <= 1e-10 * (1.0 + np.abs(want)))

    close(report.theta_hat, theta)
    close(report.sigma_hat, sigma)
    for got, (mean, corrections) in zip(report.per_fold, per_fold, strict=True):
        close(got["score_mean"], mean)
        close(got["correction_means"], corrections)


def random_plan(rng: np.random.Generator, dgp: DiscreteDGP, kind: str):
    m = dgp.num_periods
    if kind == "fixed":
        return FixedSequence(tuple(int(c) for c in rng.integers(0, 2, m)))
    if kind == "policy":
        return DynamicPolicy(tuple(grid_policy(rng.integers(0, 2, g).tolist())
                                   for g in dgp.state_arities))
    return Contrast.of_sequences([1.0, -1.0], [(1,) * m, (0,) * m])


CASES = [(m, kind) for m in (1, 2, 3) for kind in ("fixed", "policy")] + [
    (2, "contrast"), (3, "contrast")]


class TestFiniteSampleOracle:
    """At ridge 0, no clip and saturated tabular maps, each training set's
    fitted nuisances are the enumeration oracles' on its empirical law, so the
    engine's estimate is the oracle's scores of each held-out fold: an
    arbiter of the engine (units, block sums, stacking) that shares none of
    its fitting code."""

    @staticmethod
    def case(m: int, kind: str, seed: int):
        rng = np.random.Generator(np.random.PCG64(700 + 10 * m + len(kind)))
        dgp = random_dgp(rng, m, sigma_y=1.0)
        return dgp, random_plan(rng, dgp, kind), simulate(dgp, 3000, seed)

    @pytest.mark.parametrize("m, kind", CASES)
    @pytest.mark.parametrize("path", ["distinct", "per-row", "clever"])
    def test_cross_fit_is_the_oracle_of_each_training_sets_empirical_law(self, m, kind, path):
        dgp, plan, data = self.case(m, kind, 31)
        panel = one_ulp_off(data) if path == "per-row" else data
        report = dml_estimate(panel, plan, tabular_config(dgp, ridge=0.0), 3, 8,
                              clever=path == "clever")
        assert_matches_oracle(report, oracle_cross_fit(data, dgp, plan, 3, 8))

    @pytest.mark.parametrize("m, kind", [(2, "policy"), (3, "contrast")])
    def test_stacked_replicates_each_match_their_own_oracle(self, monkeypatch, m, kind):
        dgp, plan, _ = self.case(m, kind, 0)
        chunks, cross_fit = [], inference.cross_fit

        def spy(units, *args, **kwargs):
            chunks.append(len(units.scale))
            return cross_fit(units, *args, **kwargs)

        monkeypatch.setattr(inference, "cross_fit", spy)
        result = mc_experiment(dgp, plan, tabular_config(dgp, ridge=0.0), 4, 3000, 3, seed=6)
        assert chunks == [4]
        for row in result.rows:
            seed = mix_seed(6, row.rep)  # the replicate's panel, then its folds
            theta, sigma, _ = oracle_cross_fit(simulate(dgp, 3000, seed), dgp, plan, 3,
                                               mix_seed(seed, 1))
            assert abs(row.theta_hat - theta) <= 1e-10 * (1.0 + abs(theta))
            assert abs(row.sigma_hat - sigma) <= 1e-10 * sigma

    def test_a_targeted_cell_empty_in_a_training_set_is_refused_by_both(self):
        # Every row of the targeted cell (state 0, code 1) lies in fold 0, so
        # fold 0's complement has no mass there: the engine's Gram is singular
        # and the oracle's representer does not exist.
        dgp, plan, data = self.case(1, "fixed", 31)
        plan = FixedSequence((1,))
        fold = _fold_labels(data.n_units, 3, 8)
        codes = data.treatments.copy()
        codes[(data.states[0][:, 0] == 0.0) & (codes[:, 0] == 1) & (fold != 0), 0] = 0
        data = PanelDataset(data.states, codes, data.outcome, data.treatment_arities)
        with pytest.raises(SolverError, match="^fold 0: period 1: singular system with zero "
                                              "penalty: design column 1 has no mass"):
            dml_estimate(data, plan, tabular_config(dgp, ridge=0.0), 3, 8)
        with pytest.raises(PositivityError, match="^positivity violation at period 1, state 0: "
                                                  "targeted treatment 1 has zero probability$"):
            oracle_cross_fit(data, dgp, plan, 3, 8)
