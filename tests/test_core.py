import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tabular_config

from dyndml import (
    ConstantFn,
    Contrast,
    DynamicPolicy,
    EvalTerm,
    FixedSequence,
    LinearFn,
    PanelDataset,
    PlanError,
    PolynomialFeatures,
    RandomFourierFeatures,
    SurrogatePair,
    TabularFeatures,
    Trajectory,
    ValidationError,
    dml_estimate,
    evaluate_moment,
    grid_policy,
    moment_batch,
    oracle_theta,
    oracle_theta_potential,
    random_dgp,
    read_panel_csv,
    read_surrogate_csvs,
    simulate,
    tabular_fn,
    write_panel_csv,
)
from dyndml.core import _write_csv


def traj(states, treatments, y=0.0):
    return Trajectory(
        states=tuple(np.atleast_1d(np.asarray(s, dtype=float)) for s in states),
        treatments=tuple(treatments),
        outcome=y,
    )


class TestDataModel:
    def test_trajectory_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Trajectory(states=(np.zeros(1),), treatments=(0, 1), outcome=0.0)

    def test_dataset_code_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            PanelDataset(
                states=(np.zeros((3, 1)),),
                treatments=np.array([[0], [1], [2]]),
                outcome=np.zeros(3),
                treatment_arities=(2,),
            )

    def test_dataset_needs_rows(self):
        with pytest.raises(ValidationError):
            PanelDataset(
                states=(np.zeros((0, 1)),),
                treatments=np.zeros((0, 1), dtype=int),
                outcome=np.zeros(0),
                treatment_arities=(2,),
            )

    @pytest.mark.parametrize(
        "period, col, value, named",
        [(None, None, np.nan, "outcome y"), (1, 1, np.inf, "period 2 state s2_2"),
         (0, 0, -np.inf, "period 1 state s1_1")],
    )
    def test_dataset_rejects_non_finite_values(self, period, col, value, named):
        states = [np.zeros((4, 1)), np.zeros((4, 2))]
        outcome = np.zeros(4)
        if period is None:
            outcome[2] = value
        else:
            states[period][2, col] = value
        with pytest.raises(ValidationError, match=f"non-finite value in {named}, row 2"):
            PanelDataset(tuple(states), np.zeros((4, 2), dtype=int), outcome, (2, 2))

    def test_from_trajectories_round_trip(self):
        zs = [traj([0.0, 1.0], [1, 0], 2.5), traj([1.0, 0.0], [0, 1], -1.0)]
        data = PanelDataset.from_trajectories(zs, (2, 2))
        assert data.n_units == 2
        back = data.trajectory(1)
        assert back.treatments == (0, 1)
        assert back.outcome == -1.0


class TestEvaluateMoment:
    def test_fixed_sequence_constant_function(self):
        plan = FixedSequence((1, 1))
        z = traj([0.0, 1.0], [0, 0])
        assert evaluate_moment(plan, 2, z, ConstantFn(7.0)) == 7.0

    def test_contrast_linearity_example(self):
        # terms {(+1, target 1), (-1, target 0)} with g(s, a) = a gives 1 - 0 = 1
        terms = (
            (
                EvalTerm(weight=lambda p: 1.0, target=lambda p: 1),
                EvalTerm(weight=lambda p: -1.0, target=lambda p: 0),
            ),
        )
        plan = Contrast(terms=terms)
        g = tabular_fn(np.array([[0.0, 1.0], [0.0, 1.0]]))
        z = traj([1.0], [0])
        assert evaluate_moment(plan, 1, z, g) == pytest.approx(1.0, abs=1e-15)

    def test_tabular_lookup_example(self):
        plan = FixedSequence((1,))
        g = tabular_fn(np.array([[0.0, 2.0], [0.0, 4.0]]))
        z = traj([1.0], [0])
        assert evaluate_moment(plan, 1, z, g) == 4.0

    def test_invalid_period_rejected(self):
        plan = FixedSequence((1,))
        z = traj([0.0], [0])
        with pytest.raises(PlanError, match="period"):
            evaluate_moment(plan, 2, z, ConstantFn(0.0))

    def test_out_of_range_target_names_period_and_term(self):
        plan = FixedSequence((3,))
        g = tabular_fn(np.zeros((2, 2)))
        z = traj([0.0], [0])
        with pytest.raises(PlanError, match="period 1, term 0"):
            evaluate_moment(plan, 1, z, g)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(-3, 3, allow_nan=False),
        beta=st.floats(-3, 3, allow_nan=False),
        gv=st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4),
        hv=st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4),
        s=st.integers(0, 1),
        t=st.integers(0, 1),
    )
    def test_linearity_property(self, alpha, beta, gv, hv, s, t):
        plan = Contrast.of_sequences([1.0, -1.0], [(1,), (0,)])
        g_tab = np.array(gv).reshape(2, 2)
        h_tab = np.array(hv).reshape(2, 2)
        g, h = tabular_fn(g_tab), tabular_fn(h_tab)
        combo = tabular_fn(alpha * g_tab + beta * h_tab)
        z = traj([float(s)], [t])
        lhs = evaluate_moment(plan, 1, z, combo)
        rhs = alpha * evaluate_moment(plan, 1, z, g) + beta * evaluate_moment(plan, 1, z, h)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestPlans:
    def test_fixed_and_policy_are_contrast_special_cases(self, dgp2, plan2):
        policy = DynamicPolicy((grid_policy([1, 1]), grid_policy([1, 1])))
        wrapped_fixed = Contrast.of_plan(plan2)
        wrapped_policy = Contrast.of_plan(policy)
        data = simulate(dgp2, 200, 3)
        g = tabular_fn(np.arange(4.0).reshape(2, 2))
        for t in (1, 2):
            base = moment_batch(plan2, t, data, g)
            np.testing.assert_array_equal(base, moment_batch(wrapped_fixed, t, data, g))
            np.testing.assert_array_equal(base, moment_batch(policy, t, data, g))
            np.testing.assert_array_equal(base, moment_batch(wrapped_policy, t, data, g))

    def test_policy_differs_from_fixed_when_state_dependent(self, dgp2):
        policy = DynamicPolicy((grid_policy([0, 1]), grid_policy([1, 0])))
        data = simulate(dgp2, 50, 4)
        g = tabular_fn(np.arange(4.0).reshape(2, 2))
        vals = moment_batch(policy, 1, data, g)
        codes = data.states[0][:, 0].astype(int)
        expected = g.batch(data.states[0], codes)
        np.testing.assert_allclose(vals, expected)

    def test_policy_error_surfaces_after_one_call(self, dgp2):
        calls = []

        def broken(s):
            calls.append(np.shape(s))
            raise RuntimeError("policy table unavailable")

        policy = DynamicPolicy((broken, grid_policy([1, 1])))
        g = tabular_fn(np.arange(4.0).reshape(2, 2))
        with pytest.raises(RuntimeError, match="policy table unavailable"):
            moment_batch(policy, 1, simulate(dgp2, 20, 1), g)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "table,state,message",
        [
            ([1], 1.0, "policy table of length 1 has no code for state value 1"),
            ([0, 1], -1.0, "policy table of length 2 has no code for state value -1"),
            ([0, 1], 1.6, "policy table of length 2 has no code for state value 1.6"),
        ],
    )
    def test_grid_policy_rejects_states_outside_its_table(self, table, state, message):
        pi = grid_policy(table)
        with pytest.raises(PlanError, match=message):
            pi(np.array([[0.0], [state]]))
        with pytest.raises(PlanError, match=message):
            pi(np.array([state]))
        assert pi(np.array([0.4])) == table[0]

    @pytest.mark.parametrize("states", [
        [[0.0, 5.0], [1.0, -3.0], [1.0, 0.0]],   # a batch of 2-d states
        [1.0, 7.0],                              # one 2-d state
    ])
    def test_grid_policy_rejects_states_with_several_coordinates(self, states):
        pi = grid_policy([0, 1])
        with pytest.raises(PlanError, match="state dimension 2"):
            pi(np.array(states))

    def test_grid_policy_rounds_scalar_states(self):
        pi = grid_policy([0, 1])
        np.testing.assert_array_equal(pi(np.array([[0.2], [0.9], [1.4]])), [0, 1, 1])
        assert pi(np.array([0.7])) == 1
        assert pi(0.3) == 0

    def test_short_policy_table_surfaces_after_one_call(self, dgp2):
        calls = []
        inner = grid_policy([1])

        def short(s):
            calls.append(np.shape(s))
            return inner(s)

        policy = DynamicPolicy((short, grid_policy([1, 1])))
        g = tabular_fn(np.arange(4.0).reshape(2, 2))
        with pytest.raises(PlanError, match="length 1 has no code for state value 1"):
            moment_batch(policy, 1, simulate(dgp2, 20, 1), g)
        assert len(calls) == 1

    def test_scalar_policy_falls_back_to_rows(self, dgp2):
        data = simulate(dgp2, 30, 2)
        g = tabular_fn(np.arange(4.0).reshape(2, 2))
        scalar = DynamicPolicy((lambda s: int(s[0] > 0), grid_policy([1, 1])))
        grid = DynamicPolicy((grid_policy([0, 1]), grid_policy([1, 1])))
        np.testing.assert_array_equal(
            moment_batch(scalar, 1, data, g), moment_batch(grid, 1, data, g)
        )

    @pytest.mark.parametrize(
        "coefs,seqs",
        [
            ([1.0, -1.0], [(1, 1), (0, 0)]),   # distinct from period 1
            ([1.0, -1.0], [(1, 1), (1, 0)]),   # shared first treatment
            ([1.0, -1.0], [(1, 1), (0, 1)]),   # controlled direct effect
            ([2.0, -0.5, 1.5], [(1, 1), (0, 1), (0, 0)]),
            ([1.0, -1.0], [(1, 1), (1, 1)]),   # self-contrast must vanish
        ],
    )
    def test_contrast_matches_potential_outcomes(self, coefs, seqs):
        rng = np.random.Generator(np.random.PCG64(12))
        for _ in range(4):
            dgp = random_dgp(rng, periods=2)
            plan = Contrast.of_sequences(coefs, seqs)
            recursion = oracle_theta(dgp, plan)
            direct = sum(
                c * oracle_theta_potential(dgp, FixedSequence(s)) for c, s in zip(coefs, seqs)
            )
            assert recursion == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize(
        "coefs,seqs",
        [
            ([1.0, -1.0], [(1, 0, 1), (1, 0, 0)]),             # split at the horizon
            ([1.0, -1.0], [(1, 1, 1), (0, 0, 0)]),             # fully distinct
            ([1.0, -1.0], [(1, 0, 1), (1, 1, 0)]),             # contiguous disagreement
            ([1.0, -1.0, 0.5], [(1, 1, 1), (1, 1, 0), (0, 0, 0)]),
        ],
    )
    def test_three_period_contrast(self, coefs, seqs):
        rng = np.random.Generator(np.random.PCG64(5))
        dgp = random_dgp(rng, periods=3)
        plan = Contrast.of_sequences(coefs, seqs)
        direct = sum(
            c * oracle_theta_potential(dgp, FixedSequence(s)) for c, s in zip(coefs, seqs)
        )
        assert oracle_theta(dgp, plan) == pytest.approx(direct, abs=1e-12)

    def test_merge_and_resplit_contrast_rejected(self):
        # Branch identity is unrecoverable from (S_t, T_t) once the plans
        # pass through a shared treatment and split again.
        with pytest.raises(PlanError, match="history-augmented"):
            Contrast.of_sequences([1.0, -1.0], [(1, 1, 1), (0, 1, 0)])

    def test_plain_terms_without_batch_callables(self, dgp2):
        # user-defined terms fall back to the per-row prefix loop everywhere:
        # identification, representer recursion, and population moments
        plan_fast = FixedSequence((1, 1))
        slow_terms = tuple(
            (EvalTerm(weight=lambda p: 1.0, target=lambda p: 1),) for _ in range(2)
        )
        plan_slow = Contrast(terms=slow_terms)
        assert oracle_theta(dgp2, plan_slow) == pytest.approx(
            oracle_theta(dgp2, plan_fast), abs=1e-12
        )
        data = simulate(dgp2, 50, 2)
        g = tabular_fn(np.arange(4.0).reshape(2, 2))
        np.testing.assert_allclose(
            moment_batch(plan_slow, 2, data, g), moment_batch(plan_fast, 2, data, g)
        )

    @pytest.mark.parametrize("forms", [
        ("weight", "target"),
        ("weight_batch", "target_batch"),
        ("weight", "target_batch"),
        ("weight_batch", "target"),
    ])
    def test_terms_in_either_form_match_the_fixed_sequence(self, dgp2, forms):
        # Each of a term's weight and target may come as a prefix rule, a
        # batch rule, or both; every form gives the fixed sequence's values.
        rules = {
            "weight": lambda p: 1.0,
            "target": lambda p: 1,
            "weight_batch": lambda d: np.ones(d.n_units),
            "target_batch": lambda d: np.ones(d.n_units, dtype=np.int64),
        }
        plan = Contrast(terms=tuple((EvalTerm(**{f: rules[f] for f in forms}),) for _ in (1, 2)))
        fixed = FixedSequence((1, 1))
        data = simulate(dgp2, 80, 2)
        g = tabular_fn(np.arange(4.0).reshape(2, 2))
        for t in (1, 2):
            np.testing.assert_array_equal(moment_batch(plan, t, data, g),
                                          moment_batch(fixed, t, data, g))
            z = data.trajectory(3)
            assert evaluate_moment(plan, t, z, g) == evaluate_moment(fixed, t, z, g)
        assert oracle_theta(dgp2, plan) == oracle_theta(dgp2, fixed)
        cfg = tabular_config(dgp2)
        assert (dml_estimate(data, plan, cfg, 3, 4).to_dict()
                == dml_estimate(data, fixed, cfg, 3, 4).to_dict())

    @pytest.mark.parametrize("forms, missing", [
        ({"target": lambda p: 1}, "weight"),
        ({"target_batch": lambda d: np.ones(d.n_units, dtype=np.int64)}, "weight"),
        ({"weight": lambda p: 1.0}, "target"),
        ({"weight_batch": lambda d: np.ones(d.n_units)}, "target"),
        ({}, "weight"),
    ])
    def test_term_without_either_form_rejected(self, forms, missing):
        with pytest.raises(PlanError, match=f"needs {missing} or {missing}_batch"):
            EvalTerm(**forms)

    def test_randomized_policy_via_probability_weighted_terms(self):
        # A randomized policy is a contrast with per-period terms weighted by
        # the policy's state-dependent probabilities; its value must match
        # the forced-chain mixture.
        rng = np.random.Generator(np.random.PCG64(77))
        dgp = random_dgp(rng, periods=2, max_states=2)
        pi = [rng.dirichlet(np.ones(2), size=2) for _ in range(2)]  # per period: (state, code)

        def term(t, k):
            return EvalTerm(
                weight=lambda p, t=t, k=k: float(pi[t - 1][int(p.states[t - 1][0]), k]),
                target=lambda p, k=k: k,
                weight_batch=lambda d, t=t, k=k: pi[t - 1][
                    d.states[t - 1][:, 0].astype(int), k
                ],
                target_batch=lambda d, k=k: np.full(d.n_units, k, dtype=np.int64),
            )

        plan = Contrast(terms=tuple(tuple(term(t, k) for k in range(2)) for t in (1, 2)))
        # forced-chain mixture over the finite treatment paths
        direct = 0.0
        for s1 in range(dgp.state_arities[0]):
            for k1 in range(2):
                for s2 in range(dgp.state_arities[1]):
                    for k2 in range(2):
                        direct += (
                            dgp.initial[s1]
                            * pi[0][s1, k1]
                            * dgp.transitions[0][s1, k1, s2]
                            * pi[1][s2, k2]
                            * dgp.outcome_mean[s2, k2]
                        )
        assert oracle_theta(dgp, plan) == pytest.approx(direct, abs=1e-12)


class TestFeatureMaps:
    def test_random_fourier_deterministic_across_instances(self):
        a = RandomFourierFeatures(state_dim=2, n_features=16, arity=3, seed=42)
        b = RandomFourierFeatures(state_dim=2, n_features=16, arity=3, seed=42)
        states = np.random.default_rng(0).normal(size=(20, 2))
        codes = np.random.default_rng(1).integers(0, 3, 20)
        np.testing.assert_array_equal(a.batch(states, codes), b.batch(states, codes))
        np.testing.assert_array_equal(a.batch(states, codes), a.batch(states, codes))

    def test_random_fourier_seed_changes_features(self):
        a = RandomFourierFeatures(state_dim=1, n_features=8, arity=2, seed=0)
        b = RandomFourierFeatures(state_dim=1, n_features=8, arity=2, seed=1)
        s = np.ones((3, 1))
        c = np.zeros(3, dtype=int)
        assert not np.array_equal(a.batch(s, c), b.batch(s, c))

    def test_polynomial_features_shape_and_values(self):
        pm = PolynomialFeatures(state_dim=1, degree=2, arity=2)
        row = pm(np.array([3.0]), 1)
        assert pm.dim == 6
        np.testing.assert_allclose(row, [0, 0, 0, 1, 3, 9])

    def test_tabular_one_hot(self):
        tf = TabularFeatures(grid=np.array([0.0, 1.0]), arity=2)
        np.testing.assert_array_equal(tf(np.array([1.0]), 0), [0, 0, 1, 0])

    def test_linear_fn_clip(self):
        tf = TabularFeatures(grid=np.array([0.0]), arity=1)
        fn = LinearFn(tf, np.array([5.0]), clip=2.0)
        assert fn(np.array([0.0]), 0) == 2.0
        unclipped = LinearFn(tf, np.array([5.0]))
        assert unclipped(np.array([0.0]), 0) == 5.0


class TestCsvRoundTrip:
    def test_exact_round_trip(self, dgp2, tmp_path):
        data = simulate(dgp2, 500, 9)
        path = tmp_path / "panel.csv"
        write_panel_csv(data, str(path))
        back = read_panel_csv(str(path))
        assert back.treatment_arities == data.treatment_arities
        np.testing.assert_array_equal(back.treatments, data.treatments)
        np.testing.assert_array_equal(back.outcome, data.outcome)
        for a, b in zip(back.states, data.states):
            np.testing.assert_array_equal(a, b)

    def test_missing_column_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s1_1,t1\n0.0,1\n")
        with pytest.raises(ValidationError, match="y"):
            read_panel_csv(str(path))

    def test_columns_identified_by_name_not_position(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text("y,t1,s1_2,s1_1\n1.5,0,9,5\n")
        data = read_panel_csv(str(path))
        np.testing.assert_array_equal(data.states[0], [[5.0, 9.0]])
        assert data.outcome[0] == 1.5

    def test_chunked_write_is_byte_identical(self, dgp2, tmp_path):
        data = simulate(dgp2, 50, 9)
        whole, pieces = tmp_path / "whole.csv", tmp_path / "pieces.csv"
        write_panel_csv(data, str(whole))
        header = whole.read_text().splitlines()[0].split(",")
        _write_csv(str(pieces), header, [*data.states, data.treatments, data.outcome], chunk=7)
        assert pieces.read_bytes() == whole.read_bytes()


_WEIRD_CELLS = st.sampled_from([
    "", " ", "nan", "-NaN", "inf", "+inf", "-Infinity", "1_0", "1__0", "_1", "1_", "0x10",
    "１２", "３.５", "3.0", "-0", "+0", "-0.0", ".5", "5.", "1e5", "-1E-3",
    "1e400", "-1e400", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "123456789012345678901234567890", '"', '"3"', "1,5", "abc", "1 2",
])
_PADDING = st.sampled_from(["", " ", "\t", "  "])


def _cells(valid):
    core = st.one_of(
        valid,
        _WEIRD_CELLS,
        st.floats().map(repr),
        st.integers(-(2**70), 2**70).map(str),
        st.text(alphabet="0123456789+-._eE ", max_size=6),
    )
    return st.tuples(_PADDING, core, _PADDING).map("".join)


_FLOAT_CELLS = _cells(st.floats(-1e6, 1e6).map(repr))
_CODE_CELLS = _cells(st.integers(0, 1).map(str))


def _table(header):
    row = st.tuples(*(_CODE_CELLS if name.startswith("t") else _FLOAT_CELLS for name in header))
    return st.lists(row, min_size=1, max_size=4)


def _write_cells(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _reference_columns(path, header, rows):
    """Per-cell int()/float() in row-major order: the parsed columns by name, or
    the message naming the first bad cell."""
    for line, row in enumerate(rows, start=2):
        for name, cell in zip(header, row):
            kind = int if name.startswith("t") else float
            try:
                value = kind(cell)
            except ValueError:
                what = "an integer" if kind is int else "a number"
                return f"{path}: line {line}, column {name!r}: {cell!r} is not {what}"
            if kind is int and not -(2**63) <= value < 2**63:
                return f"{path}: line {line}, column {name!r}: {cell!r} is outside the int64 range"
    return {
        name: np.array([(int if name.startswith("t") else float)(r[j]) for r in rows],
                       dtype=np.int64 if name.startswith("t") else float)
        for j, name in enumerate(header)
    }


def _outcome(build):
    """What `build` returns, or the message of the ValidationError it raises."""
    try:
        return build()
    except ValidationError as exc:
        return str(exc)


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # bitwise: signs of zero included


class TestCsvCellParsing:
    """Both readers accept a cell exactly when Python's int()/float() does, give
    the same bits, and name the first bad cell in row-major order."""

    PANEL = ["s1_1", "s1_2", "t1", "s2_1", "t2", "y"]

    @settings(max_examples=300, deadline=None)
    @given(rows=_table(PANEL))
    def test_panel_reader_matches_per_cell_reference(self, tmp_path_factory, rows):
        path = str(tmp_path_factory.mktemp("cells") / "panel.csv")
        _write_cells(path, self.PANEL, rows)
        ref = _reference_columns(path, self.PANEL, rows)
        got = _outcome(lambda: read_panel_csv(path, (2, 2)))
        if isinstance(ref, str):
            assert got == ref
            return
        want = _outcome(lambda: PanelDataset(
            (np.column_stack([ref["s1_1"], ref["s1_2"]]), ref["s2_1"][:, None]),
            np.column_stack([ref["t1"], ref["t2"]]), ref["y"], (2, 2),
        ))
        if isinstance(want, str):
            assert got == want
            return
        _assert_same_arrays(
            (*got.states, got.treatments, got.outcome),
            (*want.states, want.treatments, want.outcome),
        )

    SHORT, LONG = ["x_1", "t", "s_1"], ["x_1", "s_1", "y"]

    @settings(max_examples=300, deadline=None)
    @given(short_rows=_table(SHORT), long_rows=_table(LONG))
    def test_surrogate_reader_matches_per_cell_reference(
        self, tmp_path_factory, short_rows, long_rows
    ):
        folder = tmp_path_factory.mktemp("cells")
        short, long_ = str(folder / "short.csv"), str(folder / "long.csv")
        _write_cells(short, self.SHORT, short_rows)
        _write_cells(long_, self.LONG, long_rows)
        got = _outcome(lambda: read_surrogate_csvs(short, long_))
        refs = (_reference_columns(short, self.SHORT, short_rows),
                _reference_columns(long_, self.LONG, long_rows))
        bad = [ref for ref in refs if isinstance(ref, str)]
        if bad:
            assert got == bad[0]
            return
        s, l = refs
        want = _outcome(lambda: SurrogatePair(
            s["x_1"][:, None], s["t"], s["s_1"][:, None], l["x_1"][:, None], l["s_1"][:, None],
            l["y"],
        ))
        if isinstance(want, str):
            assert got == want
            return
        fields = ("short_x", "short_t", "short_s", "long_x", "long_s", "long_y")
        _assert_same_arrays(
            [getattr(got, f) for f in fields], [getattr(want, f) for f in fields]
        )


class TestScalarGridLookup:
    @staticmethod
    def brute_force(grid, states):
        g = np.asarray(grid, dtype=float)[:, None]
        s = np.asarray(states, dtype=float)[:, None]
        return ((s[:, None, :] - g[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)

    @pytest.mark.parametrize(
        "grid",
        [
            [0.0, 1.0, 2.0, 3.0],
            [3.0, -1.0, 0.5, 2.0, 0.0],          # unsorted
            [2.0, 0.0, 2.0, 1.0, 0.0],           # unsorted with repeats
            [0.1, 0.7, 0.3, -2.2, 5.9],          # midpoints not exact in binary
            [4.0],
        ],
    )
    def test_matches_argmin_on_random_states_and_midpoints(self, grid):
        fmap = TabularFeatures(grid=np.array(grid), arity=1)
        rng = np.random.Generator(np.random.PCG64(len(grid)))
        values = np.unique(grid)
        mids = (values[:-1] + values[1:]) / 2.0
        states = np.concatenate([
            rng.uniform(min(grid) - 2.0, max(grid) + 2.0, 500),
            mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf),
            np.asarray(grid), [-1e6, 1e6],
        ])
        np.testing.assert_array_equal(
            fmap.state_index(states[:, None]), self.brute_force(grid, states)
        )

    def test_exact_midpoint_takes_the_lower_grid_index(self):
        fmap = TabularFeatures(grid=np.array([2.0, 0.0, 1.0]), arity=1)
        # 0.5 ties grid rows 1 and 2, 1.5 ties rows 2 and 0
        np.testing.assert_array_equal(fmap.state_index(np.array([[0.5], [1.5]])), [1, 0])

    @settings(max_examples=50, deadline=None)
    @given(
        grid=st.lists(st.integers(-6, 6).map(lambda v: v / 2.0), min_size=1, max_size=8),
        states=st.lists(st.integers(-16, 16).map(lambda v: v / 4.0), min_size=1, max_size=20),
    )
    def test_property_matches_argmin(self, grid, states):
        fmap = TabularFeatures(grid=np.array(grid), arity=1)
        np.testing.assert_array_equal(
            fmap.state_index(np.array(states)[:, None]), self.brute_force(grid, states)
        )
