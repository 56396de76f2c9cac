"""The stage engine's memory layout and its training-set sums.

The engine keeps every per-row array column-major and lays a map's basis out
so once, whatever order the map returns; these tests pin that the order a map
chooses cannot change a single bit of any result. Every sum over a training
set, a Gram or a right-hand side, shared by the sets or valued per set, is
reduced once per fold block and summed per set, never differenced. Sets are
valued a run of folds at a time, which bounds the memory a fit takes.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import one_ulp_off
from helpers_surrogate import two_sample_ref
from dyndml import (
    Contrast,
    DiscreteDGP,
    DynamicPolicy,
    FitConfig,
    FixedSequence,
    LinearFn,
    PanelDataset,
    PolynomialFeatures,
    RandomFourierFeatures,
    TabularFeatures,
    dgp_ref_2,
    dml_estimate,
    grid_policy,
    make_folds,
    mc_experiment,
    simulate,
    surrogate_estimate,
)
from dyndml import inference, nuisance
from dyndml.nuisance import _TrainingSets


def row_major(phi):
    """The same map, but its basis is returned as a C-ordered (row-major) copy;
    the subclass keeps the class name, which reports echo."""
    cls = type(phi)
    wrapped = type(cls.__name__, (cls,), {
        "basis": lambda self, states: np.ascontiguousarray(cls.basis(self, states))})
    return wrapped(**{f.name: getattr(phi, f.name) for f in dataclasses.fields(phi)})


def continuous_panel(n: int, seed: int) -> PanelDataset:
    rng = np.random.Generator(np.random.PCG64(seed))
    codes = rng.integers(0, 2, (n, 2))
    states = (rng.standard_normal((n, 2)), rng.standard_normal((n, 2)))
    outcome = states[1].sum(axis=1) + codes[:, 1] + rng.standard_normal(n)
    return PanelDataset(states, codes, outcome, (2, 2))


MAPS = {
    "tabular": TabularFeatures(np.arange(2.0), 2),
    "polynomial": PolynomialFeatures(2, 2, 2),
    "fourier": RandomFourierFeatures(2, 5, 2, seed=3),
}


class TestMemoryOrder:
    @pytest.mark.parametrize("kind", list(MAPS))
    def test_wrapped_basis_is_row_major(self, kind):
        states = np.random.default_rng(0).integers(0, 2, (30, 2 if kind != "tabular" else 1))
        builtin, wrapped = MAPS[kind].basis(states), row_major(MAPS[kind]).basis(states)
        assert builtin.flags.f_contiguous and not builtin.flags.c_contiguous
        assert wrapped.flags.c_contiguous and not wrapped.flags.f_contiguous
        np.testing.assert_array_equal(builtin, wrapped)

    @pytest.mark.parametrize("kind", list(MAPS))
    @pytest.mark.parametrize("clever", [False, True])
    def test_dml_estimate_is_byte_identical(self, kind, clever):
        if kind == "tabular":
            data = simulate(dgp_ref_2(), 1500, 4)
            plan = Contrast.of_sequences([1.0, -1.0], [(1, 1), (0, 0)])
        else:
            data, plan = continuous_panel(600, 5), FixedSequence((1, 1))
        phi = MAPS[kind]
        reports = [dml_estimate(data, plan, FitConfig(feature_maps=(m, m)), 4, 7,
                                clever=clever).to_json()
                   for m in (phi, row_major(phi))]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("kind", ["tabular", "polynomial"])
    def test_surrogate_estimate_is_byte_identical(self, kind):
        tsd = two_sample_ref()
        data = tsd.simulate(400, 300, 6)
        maps = tsd.feature_maps() if kind == "tabular" else (
            PolynomialFeatures(1, 2, 2), PolynomialFeatures(2, 2, 1))
        reports = [surrogate_estimate(data, FitConfig(feature_maps=ms), 3, 2).to_json()
                   for ms in (maps, tuple(row_major(m) for m in maps))]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("kind", list(MAPS))
    @pytest.mark.parametrize("clip", [None, 0.5])
    def test_code_values_and_batch_are_byte_identical(self, kind, clip):
        rng = np.random.Generator(np.random.PCG64(11))
        phi = MAPS[kind]
        states = rng.integers(0, 2, (50, 1 if kind == "tabular" else 2)).astype(float)
        codes = rng.integers(0, 2, 50)
        weights = rng.standard_normal(phi.dim)
        fns = [LinearFn(m, weights, clip) for m in (phi, row_major(phi))]
        values = [f.code_values(f.features.basis(states)) for f in fns]
        assert values[0].shape == (50, 2)
        assert values[0].tobytes() == values[1].tobytes()
        assert fns[0].batch(states, codes).tobytes() == fns[1].batch(states, codes).tobytes()


class TestSharedRightHandSides:
    def test_equals_the_per_set_mean(self):
        rng = np.random.Generator(np.random.PCG64(2))
        n, q = 500, 5
        sets = _TrainingSets([f.shape[0] for f in make_folds(n, q, 3).folds], q_folds=q)
        basis = np.asfortranarray(rng.standard_normal((n, 4)))  # units in fold-major order
        weights = rng.standard_normal((3, n))
        outside = [np.r_[0:sets.bounds[s], sets.bounds[s + 1]:n] for s in range(q)]
        want = np.stack([weights[:, r] @ basis[r] / r.shape[0] for r in outside])
        every = sets.means(np.stack([weights] * q), basis, slice(0, q))[0]  # one replicate
        for got in (sets.means(weights, basis), every):
            assert got.shape == (q, 3, 4)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_without_folds_it_is_the_sample_mean(self):
        rng = np.random.Generator(np.random.PCG64(4))
        sets = _TrainingSets([200])
        basis, weights = rng.standard_normal((200, 3)), rng.standard_normal((200, 2))
        np.testing.assert_allclose(sets.means(weights.T, basis)[0], weights.T @ basis / 200,
                                   rtol=1e-12)

    def test_a_cell_empty_in_a_training_set_is_exactly_zero(self):
        # Code 1 is observed only on fold 1's rows, so training set 1 (every
        # other fold) has no code-1 row: its code-1 block must be exactly zero,
        # as the matching Gram block is.
        rng = np.random.Generator(np.random.PCG64(6))
        n, q = 300, 3
        folds = make_folds(n, q, 8).folds
        sets = _TrainingSets([f.shape[0] for f in folds], q_folds=q)
        codes = np.zeros(n, dtype=np.int64)
        codes[sets.bounds[1]:sets.bounds[2]] = rng.integers(0, 2, folds[1].shape[0])
        y = rng.standard_normal(n) * 1e3
        scattered = np.zeros((2, n))
        scattered[codes, np.arange(n)] = y
        basis = np.asfortranarray(rng.standard_normal((n, 4)) + 10.0)
        rhs = sets.means(scattered, basis)
        assert (rhs[1, 1] == 0.0).all()
        assert (rhs[[0, 2], 1] != 0.0).all()

    def test_a_cell_empty_in_a_training_set_is_exactly_zero_for_per_set_inputs(self):
        # As above, with a different input per set, valued for a run of sets.
        rng = np.random.Generator(np.random.PCG64(7))
        n, q = 300, 3
        sets = _TrainingSets([f.shape[0] for f in make_folds(n, q, 8).folds], q_folds=q)
        codes = np.zeros(n, dtype=np.int64)
        codes[sets.bounds[1]:sets.bounds[2]] = rng.integers(0, 2, sets.bounds[2] - sets.bounds[1])
        packed = np.zeros((q, 2, n))
        packed[:, codes, np.arange(n)] = rng.standard_normal((q, n)) * 1e3
        basis = np.asfortranarray(rng.standard_normal((n, 4)) + 10.0)
        for run in (slice(0, q), slice(1, 2)):
            rhs = dict(zip(range(run.start, run.stop), sets.means(packed[run], basis, run)[0]))
            assert (rhs[1][1] == 0.0).all()
            assert all((rhs[s][1] != 0.0).all() for s in rhs if s != 1)

    @pytest.mark.parametrize("weighted", [False, True], ids=["rows", "weighted"])
    def test_replicates_and_runs_equal_the_per_set_sums(self, weighted):
        # Three replicates of four folds of unequal sizes; every input is
        # compared with each set's weighted sum over its own units.
        rng = np.random.Generator(np.random.PCG64(10))
        reps, q, counts = 3, 4, np.array([3, 5, 2, 7, 4, 4, 6, 1, 9, 2, 3, 5])
        n, bounds = counts.sum(), np.concatenate([[0], np.cumsum(counts)])
        weights = rng.integers(1, 6, n).astype(float) if weighted else None
        sets = _TrainingSets(counts, weights, q_folds=q)
        w = np.ones(n) if weights is None else weights
        rep = np.repeat(np.arange(reps), np.add.reduceat(counts, np.arange(0, len(counts), q)))
        basis = np.asfortranarray(rng.standard_normal((n, 3)))
        codes = rng.integers(0, 2, n)
        shared, per_set = rng.standard_normal((2, n)), rng.standard_normal((len(counts), 2, n))

        def inside(s):  # set s: replicate s // q outside its fold s
            span = np.arange(bounds[s - s % q], bounds[s - s % q + q])
            return span[(span < bounds[s]) | (span >= bounds[s + 1])]

        def brute(x_of_set):
            return np.stack([x_of_set(s)[..., u] * w[u] @ basis[u] / w[u].sum()
                             for s, u in enumerate(map(inside, range(len(counts))))])

        def close(got, want):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        close(sets.means(shared, basis), brute(lambda s: shared))
        for run in (slice(0, q), slice(1, 3), slice(3, 4)):  # every fold, and narrower runs
            # unit i takes the value of set (r Q + j) for the run's j-th fold, r its replicate
            packed = np.stack([per_set[rep * q + j, :, np.arange(n)].T
                               for j in range(run.start, run.stop)])
            close(sets.means(packed, basis, run),
                  brute(lambda s: per_set[s]).reshape(reps, q, 2, 3)[:, run])
        onehot = np.eye(2)[codes].T  # (K, n): a unit's Gram counts in its code's block only
        close(sets.grams(basis, codes, 2),
              np.stack([brute(lambda s: onehot[c] * basis.T) for c in range(2)], axis=1))


class TestRunsBoundMemory:
    @pytest.mark.parametrize("clever", [False, True], ids=["plain", "clever"])
    def test_peak_is_a_few_dozen_doubles_per_row(self, monkeypatch, clever):
        # States one ulp off the grid make the units the 20 000 rows, and 2^12
        # packed entries per code make each run one fold. Valuing every set
        # at once would take about 50 n (plain) and 65 n (clever) doubles.
        monkeypatch.setattr(nuisance, "_PACKED", 2 ** 12)
        n = 20_000
        assert len(_TrainingSets(np.full(5, n // 5), q_folds=5).runs) == 5
        data = simulate(dgp_ref_2(), n, 3)
        panel = PanelDataset(tuple(np.nextafter(s, np.inf) for s in data.states),
                             data.treatments, data.outcome, data.treatment_arities)
        plan = Contrast.of_sequences([1.0, -1.0], [(1, 1), (0, 0)])
        cfg = FitConfig(feature_maps=(TabularFeatures(np.arange(2.0), 2),) * 2)
        tracemalloc.start()
        try:
            dml_estimate(panel, plan, cfg, 5, 1, clever=clever)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 8 * n


class TestMonteCarloChunksBoundMemory:
    """A Monte Carlo chunk holds its replicates' units, not their rows, and no
    array of a replicate's rows outlives its reduction to units; nor do its
    Grams pass what a chunk of MC_CHUNK_UNITS rows held."""

    @staticmethod
    def run(monkeypatch, dgp, plan, cfg, reps):
        """The (replicates, units) of each chunk, and the tracemalloc peak."""
        seen, cross_fit = [], inference.cross_fit

        def spy(units, *args, **kwargs):
            seen.append((len(units.scale), len(units.outcome)))
            return cross_fit(units, *args, **kwargs)

        monkeypatch.setattr(inference, "cross_fit", spy)
        tracemalloc.start()
        try:
            mc_experiment(dgp, plan, cfg, reps, 2000, 5, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return seen, peak

    @pytest.mark.parametrize("reps, shift, chunks", [
        (100, False, None),                # at most 5 * 16 distinct histories each: one chunk
        (10, True, [8000, 8000, 4000]),    # one ulp off the grid: 2000 rows as units each
    ], ids=["distinct-histories", "per-row"])
    def test_peak_is_a_few_dozen_doubles_per_chunk_unit(self, monkeypatch, reps, shift, chunks):
        # Measured at about 64 (distinct histories) and 60 (per row) doubles
        # per unit of the largest chunk; the bound leaves 1.5x of that.
        if shift:
            monkeypatch.setattr(inference, "simulate", lambda *a: one_ulp_off(simulate(*a)))
        plan = DynamicPolicy((grid_policy([1, 0]), grid_policy([0, 1])))
        cfg = FitConfig(feature_maps=(TabularFeatures(np.arange(2.0), 2),) * 2)
        seen, peak = self.run(monkeypatch, dgp_ref_2(), plan, cfg, reps)
        units = [u for _, u in seen]
        assert units == chunks if chunks else len(units) == 1
        assert peak <= 96 * 8 * max(units)

    def test_wide_grids_with_few_histories_chunk_by_rows(self, monkeypatch):
        # A 64-row grid with every state on 3 of its rows: about 30 units but
        # 5 * 2 * 64^2 Gram entries a replicate, so a chunk takes the 4
        # replicates 8192 rows of n = 2000 take. Measured at about 3.7 doubles
        # per Gram entry of a chunk; the bound leaves 1.5x of that. One chunk
        # of all 12 would take about 15 MB.
        g = 64
        initial = np.zeros(g)
        initial[:3] = 1 / 3
        dgp = DiscreteDGP(initial=initial, propensities=(np.full((g, 2), 0.5),), transitions=(),
                          outcome_mean=np.arange(2.0 * g).reshape(g, 2), sigma_y=1.0)
        cfg = FitConfig(feature_maps=(TabularFeatures(np.arange(float(g)), 2),))
        seen, peak = self.run(monkeypatch, dgp, FixedSequence((1,)), cfg, 12)
        assert [k for k, _ in seen] == [4, 4, 4]
        assert max(u for _, u in seen) <= 4 * 5 * 3 * 2
        assert peak <= 6 * 8 * (4 * 5 * 2 * g * g)
