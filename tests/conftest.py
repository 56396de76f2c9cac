import numpy as np
import pytest

from dyndml import (DiscreteDGP, FitConfig, FixedSequence, PanelDataset, TabularFeatures, dgp_ref_1,
                    dgp_ref_2)


@pytest.fixture
def dgp1() -> DiscreteDGP:
    return dgp_ref_1()


@pytest.fixture
def dgp2() -> DiscreteDGP:
    return dgp_ref_2()


@pytest.fixture
def plan1() -> FixedSequence:
    return FixedSequence((1,))


@pytest.fixture
def plan2() -> FixedSequence:
    return FixedSequence((1, 1))


def tabular_maps(dgp: DiscreteDGP) -> tuple[TabularFeatures, ...]:
    return tuple(
        TabularFeatures(grid=np.arange(g, dtype=float), arity=k)
        for g, k in zip(dgp.state_arities, dgp.treatment_arities)
    )


def tabular_config(dgp: DiscreteDGP, ridge=None, clip=None) -> FitConfig:
    return FitConfig(feature_maps=tabular_maps(dgp), ridge=ridge, clip=clip)


def value_table(fn, states, arity: int) -> np.ndarray:
    """fn's (G, arity) values at every (state row, code) pair, from one batch call."""
    states = np.asarray(states, dtype=float).reshape(len(states), -1)
    rows = states.shape[0]
    codes = np.tile(np.arange(arity), rows)
    return fn.batch(np.repeat(states, arity, axis=0), codes).reshape(rows, arity)


def one_ulp_off(data: PanelDataset) -> PanelDataset:
    """The panel with every state one ulp above its grid row: within
    GRID_TOLERANCE of it, so the engine fits this copy row by row."""
    return PanelDataset(tuple(np.nextafter(s, np.inf) for s in data.states), data.treatments,
                        data.outcome, data.treatment_arities)
