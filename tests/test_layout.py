"""The stage engine's memory layout and its fold-block right-hand sides.

The engine keeps every per-row array column-major and lays a map's basis out
so once, whatever order the map returns; these tests pin that the order a map
chooses cannot change a single bit of any result. Right-hand sides that every
training set shares are reduced once per fold and summed per set, never
differenced, like the Grams.
"""

import dataclasses

import numpy as np
import pytest

from helpers_surrogate import two_sample_ref
from dyndml import (
    Contrast,
    FitConfig,
    FixedSequence,
    LinearFn,
    PanelDataset,
    PolynomialFeatures,
    RandomFourierFeatures,
    TabularFeatures,
    dgp_ref_2,
    dml_estimate,
    make_folds,
    simulate,
    surrogate_estimate,
)
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
        sets = _TrainingSets(n, make_folds(n, q, 3).folds)
        basis = sets.rows(np.asfortranarray(rng.standard_normal((n, 4))))
        weights = sets.rows(rng.standard_normal((3, n)).T).T
        outside = [np.r_[0:sets.bounds[s], sets.bounds[s + 1]:n] for s in range(q)]
        want = np.stack([weights[:, r] @ basis[r] / r.shape[0] for r in outside])
        every = sets.means(np.stack([weights] * q), basis, slice(0, q))[0]  # one replicate
        for got in (sets.shared(weights, basis), every):
            assert got.shape == (q, 3, 4)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_without_folds_it_is_the_sample_mean(self):
        rng = np.random.Generator(np.random.PCG64(4))
        sets = _TrainingSets(200)
        basis, weights = rng.standard_normal((200, 3)), rng.standard_normal((200, 2))
        np.testing.assert_allclose(sets.shared(weights.T, basis)[0], weights.T @ basis / 200,
                                   rtol=1e-12)

    def test_a_cell_empty_in_a_training_set_is_exactly_zero(self):
        # Code 1 is observed only on fold 1's rows, so training set 1 (every
        # other fold) has no code-1 row: its code-1 block must be exactly zero,
        # as the matching Gram block is.
        rng = np.random.Generator(np.random.PCG64(6))
        n, q = 300, 3
        folds = make_folds(n, q, 8).folds
        codes = np.zeros(n, dtype=np.int64)
        codes[folds[1]] = rng.integers(0, 2, folds[1].shape[0])
        y = rng.standard_normal(n) * 1e3
        scattered = np.zeros((2, n))
        scattered[codes, np.arange(n)] = y
        sets = _TrainingSets(n, folds)
        basis = sets.rows(np.asfortranarray(rng.standard_normal((n, 4)) + 10.0))
        rhs = sets.shared(sets.rows(scattered.T).T, basis)
        assert (rhs[1, 1] == 0.0).all()
        assert (rhs[[0, 2], 1] != 0.0).all()
