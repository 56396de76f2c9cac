"""Discrete ground-truth processes with simulation and exact enumeration oracles.

States live on small integer grids embedded in R^1, so every population
quantity (the target, the nested regressions, the Riesz representers, the
orthogonal moment's expectation) can be computed exactly by enumerating the
joint law of (S_1, T_1, ..., S_M, T_M). Outcome noise is Gaussian and
integrates out of every oracle. The population forms reuse the sample code on
the enumerated path table, whose outcome is each path's mean: the moment's
expectation `population_moment` is the probability-weighted mean of
`moment_scores`, and `population_riesz_loss` weights the per-row loss of
`riesz_loss`.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import (
    Contrast,
    DynamicPolicy,
    FixedSequence,
    Fn,
    NuisanceSet,
    PanelDataset,
    PositivityError,
    TreatmentPlan,
    ValidationError,
    _check_codes,
    _check_integer,
    _code_weights,
    _rng,
    _rule_values,
    moment_batch,
    moment_scores,
    tabular_fn,
)
from .nuisance import _prev_values, _riesz_loss_rows

_ROW_SUM_TOL = 1e-12
_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_seed(seed: int, stream: int) -> int:
    """Derive an independent child seed: splitmix64(splitmix64(seed) + stream).

    Replicate r of an experiment uses mix_seed(seed, r), so replicate-level
    parallelism never changes results.
    """
    return _splitmix64((_splitmix64(seed & _MASK64) + stream) & _MASK64)


def _check_rows(table: NDArray, name: str) -> None:
    if np.any(table < 0):
        raise ValidationError(f"{name}: negative probability entry")
    sums = table.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > _ROW_SUM_TOL):
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise ValidationError(f"{name}: row {bad} sums to {sums.ravel()[bad]!r}, not 1")


@dataclass(frozen=True, eq=False)
class DiscreteDGP:
    """Tabular data-generating process over integer state grids.

    initial:      P(S_1 = s), shape (G_1,)
    propensities: per period t, P(T_t = k | S_t = s), shape (G_t, K_t)
    transitions:  per period t < M, P(S_{t+1} = s' | S_t = s, T_t = k),
                  shape (G_t, K_t, G_{t+1})
    outcome_mean: mu(s_M, k_M), shape (G_M, K_M); Y = mu + sigma_y * N(0,1)
    seed:         default simulation seed (the CLI uses it when --seed is
                  omitted); simulate() itself depends only on its arguments.
    """

    initial: NDArray
    propensities: tuple[NDArray, ...]
    transitions: tuple[NDArray, ...]
    outcome_mean: NDArray
    sigma_y: float = 0.0
    seed: int = 0
    check_positivity: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial", np.asarray(self.initial, dtype=float))
        object.__setattr__(
            self, "propensities", tuple(np.asarray(p, dtype=float) for p in self.propensities)
        )
        object.__setattr__(
            self, "transitions", tuple(np.asarray(q, dtype=float) for q in self.transitions)
        )
        object.__setattr__(self, "outcome_mean", np.asarray(self.outcome_mean, dtype=float))
        m = len(self.propensities)
        if m < 1:
            raise ValidationError("need at least one period")
        if len(self.transitions) != m - 1:
            raise ValidationError("need one transition table per period pair")
        if self.sigma_y < 0:
            raise ValidationError("sigma_y must be nonnegative")
        _check_rows(self.initial[None, :], "initial distribution")
        for t, p in enumerate(self.propensities, start=1):
            if p.ndim != 2 or p.shape[0] != self.state_arities[t - 1]:
                raise ValidationError(f"propensity table {t}: wrong shape")
            _check_rows(p, f"propensity table {t}")
        for t, q in enumerate(self.transitions, start=1):
            expected = (self.state_arities[t - 1], self.treatment_arities[t - 1], self.state_arities[t])
            if q.shape != expected:
                raise ValidationError(f"transition table {t}: shape {q.shape}, expected {expected}")
            _check_rows(q.reshape(-1, q.shape[-1]), f"transition table {t}")
        if self.outcome_mean.shape != (self.state_arities[-1], self.treatment_arities[-1]):
            raise ValidationError("outcome table: wrong shape")
        if self.check_positivity:
            for t, (mass, p) in enumerate(zip(self.state_marginals(), self.propensities), start=1):
                for s in np.flatnonzero(mass > 0):
                    if p[s].min() <= 0.0:
                        raise ValidationError(
                            f"positivity violated: zero propensity on positive-mass state "
                            f"(period {t}, state {int(s)})"
                        )

    @property
    def num_periods(self) -> int:
        return len(self.propensities)

    @property
    def state_arities(self) -> tuple[int, ...]:
        arities = [self.initial.shape[0]]
        for q in self.transitions:
            arities.append(q.shape[-1])
        return tuple(arities)

    @property
    def treatment_arities(self) -> tuple[int, ...]:
        return tuple(p.shape[1] for p in self.propensities)

    def state_marginals(self) -> tuple[NDArray, ...]:
        """P(S_t = s) for every period, by forward propagation."""
        margs = [self.initial.copy()]
        for t in range(self.num_periods - 1):
            joint = margs[-1][:, None] * self.propensities[t]           # (G_t, K_t)
            margs.append(np.einsum("sk,sku->u", joint, self.transitions[t]))
        return tuple(margs)

    def paths(self) -> "PathLaw":
        cached = self.__dict__.get("_paths")
        if cached is None:
            cached = _enumerate_paths(self)
            object.__setattr__(self, "_paths", cached)
        return cached


@dataclass(frozen=True, eq=False)
class PathLaw:
    """Exhaustive enumeration of treatment-state paths with their probabilities."""

    states: NDArray        # (P, M) grid indices
    treatments: NDArray    # (P, M) codes
    prob: NDArray          # (P,)
    mu: NDArray            # (P,) outcome mean along each path
    data: PanelDataset     # path table viewed as a weighted dataset

    def cell_mass(self, period: int, arity_s: int, arity_k: int) -> NDArray:
        """P(S_t = s, T_t = k) as a (G_t, K_t) table for 1-based period."""
        out = np.zeros((arity_s, arity_k))
        np.add.at(out, (self.states[:, period - 1], self.treatments[:, period - 1]), self.prob)
        return out


def _enumerate_paths(dgp: DiscreteDGP) -> PathLaw:
    m = dgp.num_periods
    combos = list(
        itertools.product(*[range(g * k) for g, k in zip(dgp.state_arities, dgp.treatment_arities)])
    )
    n_paths = len(combos)
    states = np.zeros((n_paths, m), dtype=np.int64)
    treats = np.zeros((n_paths, m), dtype=np.int64)
    for t, k_t in enumerate(dgp.treatment_arities):
        col = np.array([c[t] for c in combos], dtype=np.int64)
        states[:, t] = col // k_t
        treats[:, t] = col % k_t
    prob = dgp.initial[states[:, 0]].copy()
    for t in range(m):
        prob *= dgp.propensities[t][states[:, t], treats[:, t]]
        if t < m - 1:
            prob *= dgp.transitions[t][states[:, t], treats[:, t], states[:, t + 1]]
    mu = dgp.outcome_mean[states[:, -1], treats[:, -1]]
    data = PanelDataset(
        states=tuple(states[:, t].astype(float)[:, None] for t in range(m)),
        treatments=treats,
        outcome=mu,
        treatment_arities=dgp.treatment_arities,
    )
    return PathLaw(states=states, treatments=treats, prob=prob, mu=mu, data=data)


def _check_plan(dgp: DiscreteDGP, plan: TreatmentPlan) -> None:
    if plan.num_periods != dgp.num_periods:
        raise ValidationError(
            f"plan covers {plan.num_periods} periods, process has {dgp.num_periods}"
        )


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def simulate(dgp: DiscreteDGP, n: int, seed: int) -> PanelDataset:
    """Draw n i.i.d. trajectories; deterministic given (dgp, n, seed)."""
    _check_integer(n, "n")
    if n < 1:
        raise ValidationError("n must be >= 1")
    rng = _rng(seed)
    m = dgp.num_periods
    states = np.zeros((m, n), dtype=np.int64)
    treats = np.zeros((m, n), dtype=np.int64)
    # Each table's cumulative rows once; a row's cumsum is the same sequential sum.
    states[0] = _draw_rows(rng, np.cumsum(dgp.initial)[None], np.zeros(n, dtype=np.intp))
    for t in range(m):
        treats[t] = _draw_rows(rng, np.cumsum(dgp.propensities[t], axis=-1), states[t])
        if t < m - 1:
            table = dgp.transitions[t]
            states[t + 1] = _draw_rows(rng, np.cumsum(table, axis=-1).reshape(-1, table.shape[-1]),
                                       states[t] * table.shape[1] + treats[t])
    y = np.take(dgp.outcome_mean, states[-1] * dgp.outcome_mean.shape[1] + treats[-1])
    if dgp.sigma_y > 0:
        y += dgp.sigma_y * rng.standard_normal(n)
    return PanelDataset(
        states=tuple(s.astype(float)[:, None] for s in states),
        treatments=treats.T,
        outcome=y,
        treatment_arities=dgp.treatment_arities,
    )


def _draw_rows(rng: np.random.Generator, cum: NDArray, rows: NDArray) -> NDArray:
    """Inverse-CDF draw of one category per unit i from row rows[i] of a
    cumulative probability table cum (R, C): the number of the row's first C - 1
    entries at or below a uniform draw."""
    u = rng.random(rows.shape[0])
    idx = np.zeros(rows.shape[0], dtype=np.int64)
    for column in cum.T[:-1]:
        idx += u >= np.take(column, rows)
    return idx


# ---------------------------------------------------------------------------
# Enumeration oracles
# ---------------------------------------------------------------------------


def oracle_nested_regressions(dgp: DiscreteDGP, plan: TreatmentPlan) -> list[NDArray]:
    """Exact backward recursion: tables f_1..f_M of shape (G_t, K_t).

    f_M(s, k) = mu(s, k); earlier periods condition the next period's moment
    on (S_t, T_t) under the enumerated joint law. Cells with zero mass are
    set to 0 (they never enter any expectation).
    """
    _check_plan(dgp, plan)
    paths = dgp.paths()
    m = dgp.num_periods
    tables: list[NDArray] = [np.zeros(0)] * m
    tables[m - 1] = dgp.outcome_mean.copy()
    for t in range(m - 1, 0, -1):
        vals = moment_batch(plan, t + 1, paths.data, tabular_fn(tables[t]))
        num = np.zeros((dgp.state_arities[t - 1], dgp.treatment_arities[t - 1]))
        np.add.at(num, (paths.states[:, t - 1], paths.treatments[:, t - 1]), paths.prob * vals)
        den = paths.cell_mass(t, *num.shape)
        with np.errstate(invalid="ignore", divide="ignore"):
            tbl = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
        tables[t - 1] = tbl
    return tables


def oracle_theta(dgp: DiscreteDGP, plan: TreatmentPlan) -> float:
    """theta = E[m_1(Z; f_1)] with the oracle f_1, by enumeration."""
    _check_plan(dgp, plan)
    paths = dgp.paths()
    f1 = oracle_nested_regressions(dgp, plan)[0]
    vals = moment_batch(plan, 1, paths.data, tabular_fn(f1))
    return float(paths.prob @ vals)


def oracle_theta_potential(dgp: DiscreteDGP, plan: TreatmentPlan) -> float:
    """Direct potential-outcome enumeration: force treatments along the plan.

    Supports fixed sequences, deterministic policies, and contrasts built
    from fixed sequences (which carry their component plans).
    """
    _check_plan(dgp, plan)
    if isinstance(plan, FixedSequence):
        return _forced_value(dgp, lambda t, grid: np.full(len(grid), plan.treatments[t]))
    if isinstance(plan, DynamicPolicy):
        return _forced_value(dgp, lambda t, grid: _rule_values(
            plan.policies[t](grid), len(grid), f"period {t + 1}: policy", integral=True))
    if isinstance(plan, Contrast) and plan.component_plans is not None:
        return sum(c * oracle_theta_potential(dgp, p) for c, p in plan.component_plans)
    raise ValidationError("potential-outcome enumeration needs a plan with counterfactual semantics")


def _forced_value(dgp: DiscreteDGP, choose) -> float:
    """The value of forcing period t's codes choose(t, grid) on its (G_t, 1) grid column."""
    dist = dgp.initial.copy()
    m = dgp.num_periods
    total = 0.0
    for t in range(m):
        grid = np.arange(float(dgp.state_arities[t]))[:, None]
        codes = choose(t, grid)
        _check_codes(codes, dgp.treatment_arities[t], f"period {t + 1}")
        if t < m - 1:
            dist = np.einsum("s,su->u", dist, dgp.transitions[t][np.arange(len(codes)), codes])
        else:
            total = float(dist @ dgp.outcome_mean[np.arange(len(codes)), codes])
    return total


def riesz_step(dgp: DiscreteDGP, plan: TreatmentPlan, period: int, prev: Fn) -> NDArray:
    """One forward Riesz step: the representer table of g -> E[prev * m_t(Z; g)].

    Solves the finite linear system over indicator functions: for each cell,
    a_t(s, k) P(S_t=s, T_t=k) = E[prev(S_{t-1}, T_{t-1}) * m_t(Z; 1_{(s,k)})].
    Raises when a targeted cell has zero mass but nonzero numerator; cells
    with zero mass and zero numerator get the minimum-norm value 0.
    """
    _check_plan(dgp, plan)
    paths = dgp.paths()
    g_s, k_s = dgp.state_arities[period - 1], dgp.treatment_arities[period - 1]
    weights = _code_weights(plan, period, paths.data, k_s)
    s_col = paths.states[:, period - 1]
    num = np.zeros((g_s, k_s))
    np.add.at(num, s_col, (paths.prob * _prev_values(paths.data, period, prev))[:, None] * weights)
    targeted = np.zeros((g_s, k_s), dtype=bool)
    np.logical_or.at(targeted, s_col, weights != 0.0)
    den = paths.cell_mass(period, g_s, k_s)
    table = np.zeros((g_s, k_s))
    zero_mass: list[tuple[int, int]] = []
    for s in range(g_s):
        for k in range(k_s):
            if den[s, k] > 0:
                table[s, k] = num[s, k] / den[s, k]
            elif abs(num[s, k]) > 1e-300:
                raise PositivityError(
                    f"positivity violation at period {period}, state {s}: targeted treatment "
                    f"{k} has zero probability"
                )
            elif targeted[s, k]:
                zero_mass.append((s, k))
    if zero_mass:
        warnings.warn(
            f"period {period}: zero-mass cells {zero_mass} assigned minimum-norm value 0",
            RuntimeWarning,
            stacklevel=2,
        )
    return table


def oracle_riesz(dgp: DiscreteDGP, plan: TreatmentPlan) -> list[NDArray]:
    """Exact representer tables a_1..a_M by forward recursion: each period
    solves the indicator linear system of `riesz_step`. For a fixed sequence
    this is the inverse-propensity form
    a_t(s, tau_t) = E[a_{t-1} | S_t = s] / P(T_t = tau_t | S_t = s)."""
    _check_plan(dgp, plan)
    tables: list[NDArray] = []
    prev: Fn | None = None
    for t in range(1, dgp.num_periods + 1):
        tables.append(riesz_step(dgp, plan, t, prev))
        prev = tabular_fn(tables[-1])
    return tables


def population_moment(dgp: DiscreteDGP, plan: TreatmentPlan, nuisances: NuisanceSet) -> float:
    """Exact E[m_M(Z; f-bar, a-bar)] under the enumerated law: the probability-
    weighted `moment_scores` of the path table (noise integrates out)."""
    _check_plan(dgp, plan)
    paths = dgp.paths()
    return float(paths.prob @ moment_scores(paths.data, plan, nuisances)[0])


def oracle_nuisances(dgp: DiscreteDGP, plan: TreatmentPlan) -> NuisanceSet:
    """Bundle the exact regression and representer tables as callable nuisances."""
    f_tabs = oracle_nested_regressions(dgp, plan)
    a_tabs = oracle_riesz(dgp, plan)
    return NuisanceSet(
        regressions=tuple(tabular_fn(tb) for tb in f_tabs),
        representers=tuple(tabular_fn(tb) for tb in a_tabs),
    )


def population_riesz_loss(
    dgp: DiscreteDGP, plan: TreatmentPlan, period: int, candidate: Fn, prev: Fn
) -> float:
    """Population value of the stagewise representer loss
    E[a(S_t,T_t)^2 - 2 prev(S_{t-1},T_{t-1}) m_t(Z; a)]."""
    _check_plan(dgp, plan)
    paths = dgp.paths()
    return float(paths.prob @ _riesz_loss_rows(candidate, paths.data, plan, period, prev))


def population_l2(dgp: DiscreteDGP, period: int, fn_a: Fn, fn_b: Fn | None = None) -> float:
    """L2(P) distance between two functions of (S_t, T_t) under the enumerated law."""
    paths = dgp.paths()
    va = fn_a.batch(paths.data.states[period - 1], paths.treatments[:, period - 1])
    vb = 0.0 if fn_b is None else fn_b.batch(
        paths.data.states[period - 1], paths.treatments[:, period - 1]
    )
    return float(np.sqrt(paths.prob @ (va - vb) ** 2))


def random_dgp(
    rng: np.random.Generator,
    periods: int,
    max_states: int = 4,
    treatment_arity: int = 2,
    min_propensity: float = 0.1,
    sigma_y: float = 0.0,
) -> DiscreteDGP:
    """Draw a random well-posed process (used by property and acceptance tests)."""
    arities = [int(rng.integers(2, max_states + 1)) for _ in range(periods)]

    def simplex(shape: tuple[int, ...], floor: float) -> NDArray:
        raw = rng.random(shape) + floor
        return raw / raw.sum(axis=-1, keepdims=True)

    initial = simplex((arities[0],), 0.2)

    def propensity(t: int) -> NDArray:
        raw = np.maximum(simplex((arities[t], treatment_arity), 0.0), min_propensity)
        return raw / raw.sum(axis=-1, keepdims=True)  # entries stay bounded away from 0

    props = tuple(propensity(t) for t in range(periods))
    transitions = tuple(
        simplex((arities[t], treatment_arity, arities[t + 1]), 0.05) for t in range(periods - 1)
    )
    outcome = rng.normal(0.0, 2.0, size=(arities[-1], treatment_arity))
    return DiscreteDGP(
        initial=initial,
        propensities=props,
        transitions=transitions,
        outcome_mean=outcome,
        sigma_y=sigma_y,
    )


def dgp_ref_1() -> DiscreteDGP:
    """One-period binary reference process: Y = S + T exactly."""
    return DiscreteDGP(
        initial=np.array([0.5, 0.5]),
        propensities=(np.array([[0.5, 0.5], [0.75, 0.25]]),),
        transitions=(),
        outcome_mean=np.array([[0.0, 1.0], [1.0, 2.0]]),
        sigma_y=0.0,
    )


def dgp_ref_2(sigma_y: float = 1.0) -> DiscreteDGP:
    """Two-period binary reference process; theta(1,1) = 3.8."""
    return DiscreteDGP(
        initial=np.array([0.5, 0.5]),
        propensities=(
            np.array([[0.5, 0.5], [0.75, 0.25]]),
            np.array([[0.6, 0.4], [0.4, 0.6]]),
        ),
        transitions=(
            np.array(
                [
                    [[0.7, 0.3], [0.3, 0.7]],
                    [[0.5, 0.5], [0.1, 0.9]],
                ]
            ),
        ),
        outcome_mean=np.array([[0.0, 3.0], [1.0, 4.0]]),
        sigma_y=sigma_y,
    )
