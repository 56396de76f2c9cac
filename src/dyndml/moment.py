"""Diagnostics of the debiased moment.

The per-trajectory score lives in `core` and is re-exported here.
`moment_scores` is its one implementation: the scalar form
`orthogonal_moment` is its one-row view, and the population form
`oracle.population_moment` is its probability-weighted mean over the
enumerated path table. Diagnostics evaluate the score's population expectation exactly on
enumerable processes: mixed-bias equality, numerical orthogonality slopes,
double-robustness probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import (
    CombinedFn,
    Fn,
    MomentValue,
    NuisanceSet,
    PanelDataset,
    TreatmentPlan,
    ValidationError,
    moment_scores,
    orthogonal_moment,
)
from .oracle import DiscreteDGP, oracle_nuisances, oracle_theta, population_moment


# ---------------------------------------------------------------------------
# Nuisance arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Perturbation:
    """Directions for shifting nuisances: period -> function, plus a scale.

    Periods are 1-based; absent periods are left untouched.
    """

    f_directions: Mapping[int, Fn] = field(default_factory=dict)
    a_directions: Mapping[int, Fn] = field(default_factory=dict)
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValidationError("perturbation scale must be positive")

    def apply(self, truth: NuisanceSet, eps: float) -> NuisanceSet:
        c = eps * self.scale
        regs = list(truth.regressions)
        reps = list(truth.representers)
        for t, h in self.f_directions.items():
            regs[t - 1] = CombinedFn(((1.0, regs[t - 1]), (c, h)))
        for t, g in self.a_directions.items():
            reps[t - 1] = CombinedFn(((1.0, reps[t - 1]), (c, g)))
        return NuisanceSet(regressions=tuple(regs), representers=tuple(reps))


def nuisance_difference(alt: NuisanceSet, truth: NuisanceSet) -> NuisanceSet:
    """Componentwise alt - truth (used by mixed-bias evaluation)."""
    return NuisanceSet(
        regressions=tuple(
            CombinedFn(((1.0, a), (-1.0, b)))
            for a, b in zip(alt.regressions, truth.regressions)
        ),
        representers=tuple(
            CombinedFn(((1.0, a), (-1.0, b)))
            for a, b in zip(alt.representers, truth.representers)
        ),
    )


# ---------------------------------------------------------------------------
# Population diagnostics on enumerable processes
# ---------------------------------------------------------------------------


def mixed_bias(
    dgp: DiscreteDGP, plan: TreatmentPlan, alt: NuisanceSet, truth: NuisanceSet
) -> tuple[float, float]:
    """(direct, formula): the population bias of `alt` against `truth`, and
    the exact second-order expansion sum_t E[a-diff_t * (next-moment diff -
    f-diff_t)]: the summed corrections of `moment_scores` with the difference
    nuisances on the path table with a zero outcome, because the horizon's
    next-moment difference is 0 (f_{M+1} is pinned at Y on both sides)."""
    direct = population_moment(dgp, plan, alt) - population_moment(dgp, plan, truth)
    paths = dgp.paths()
    d = paths.data
    zero_outcome = PanelDataset(d.states, d.treatments, np.zeros(d.n_units), d.treatment_arities)
    _, _, corrections = moment_scores(zero_outcome, plan, nuisance_difference(alt, truth))
    return direct, sum(float(paths.prob @ c) for c in corrections)


_BIAS_FLOOR = 1e-13


def orthogonality_slope(
    dgp: DiscreteDGP,
    plan: TreatmentPlan,
    direction: Perturbation,
    eps_grid: Sequence[float],
    truth: NuisanceSet | None = None,
) -> float:
    """Fitted log-log slope of |population bias| against the perturbation size.

    Orthogonality predicts slope >= 2 for any direction; directions whose
    bias vanishes identically (single-nuisance or cross-period pairs) sit at
    rounding noise, are treated as exact zeros, and report slope = inf.
    """
    eps = np.asarray(list(eps_grid), dtype=float)
    if eps.size < 3 or np.any(eps <= 0):
        raise ValidationError("epsilon grid needs >= 3 strictly positive points")
    if eps.max() / eps.min() < 100.0 * (1.0 - 1e-12):
        raise ValidationError("epsilon grid must span at least two decades")
    if truth is None:
        truth = oracle_nuisances(dgp, plan)
    theta = oracle_theta(dgp, plan)
    floor = _BIAS_FLOOR * max(1.0, abs(theta))
    biases = np.array(
        [abs(population_moment(dgp, plan, direction.apply(truth, e)) - theta) for e in eps]
    )
    live = biases > floor
    if live.sum() < 2:
        return math.inf
    slope, _ = np.polyfit(np.log(eps[live]), np.log(biases[live]), 1)
    return float(slope)


def perturbation_bias(
    dgp: DiscreteDGP,
    plan: TreatmentPlan,
    direction: Perturbation,
    eps: float,
    truth: NuisanceSet | None = None,
) -> float:
    """Signed population bias at one perturbation size."""
    if truth is None:
        truth = oracle_nuisances(dgp, plan)
    return population_moment(dgp, plan, direction.apply(truth, eps)) - oracle_theta(dgp, plan)
