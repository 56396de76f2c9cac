import hashlib

import numpy as np
import pytest

from dyndml import (
    CombinedFn,
    ConstantFn,
    Contrast,
    DiscreteDGP,
    FixedSequence,
    NuisanceSet,
    PlanError,
    PositivityError,
    ValidationError,
    mix_seed,
    moment_batch,
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
