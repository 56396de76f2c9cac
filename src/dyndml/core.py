"""Data model for multi-period panels, counterfactual plans, and linear function classes.

A unit's record is a trajectory (S_1, T_1, ..., S_M, T_M, Y): per-period state
vectors, integer treatment codes, and a final scalar outcome. Counterfactual
plans describe, for each period, a weighted set of treatment points at which a
function of (state, treatment) is evaluated; that evaluation is linear in the
function, which is what makes the whole debiasing pipeline work with a single
linear function-approximation primitive shared by regressions and Riesz
representers.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np
from numpy.typing import NDArray


class ValidationError(ValueError):
    """Invalid inputs: bad shapes, probabilities, configs."""


class PlanError(ValidationError):
    """Invalid counterfactual plan or out-of-range treatment target."""


class SolverError(RuntimeError):
    """Numerical failure in a linear solve."""


class PositivityError(RuntimeError):
    """A targeted treatment has zero propensity on a positive-mass state."""


@dataclass(frozen=True, eq=False)
class PanelDataset:
    """n trajectories stored columnwise: per-period state matrices plus code/outcome arrays.

    Invariants: all units share the period count M, the per-period state
    dimensions d_t, and the treatment arities K_t; every code lies in
    0..K_t-1.
    """

    states: tuple[NDArray, ...]          # M arrays of shape (n, d_t)
    treatments: NDArray                  # (n, M) integer codes
    outcome: NDArray                     # (n,)
    treatment_arities: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(np.asarray(s, dtype=float) for s in self.states))
        object.__setattr__(self, "treatments", np.asarray(self.treatments, dtype=np.int64))
        object.__setattr__(self, "outcome", np.asarray(self.outcome, dtype=float))
        object.__setattr__(self, "treatment_arities", tuple(int(k) for k in self.treatment_arities))
        m = len(self.states)
        if m < 1:
            raise ValidationError("dataset needs at least one period")
        if len(self.treatment_arities) != m:
            raise ValidationError("one treatment arity per period required")
        n = self.states[0].shape[0]
        if n < 1:
            raise ValidationError("dataset needs at least one trajectory")
        for t, s in enumerate(self.states):
            if s.ndim != 2 or s.shape[0] != n:
                raise ValidationError(f"state matrix for period {t + 1} must be (n, d_t)")
            _check_finite(s, lambda j: f"period {t + 1} state s{t + 1}_{j + 1}")
        if self.treatments.shape != (n, m):
            raise ValidationError("treatments must have shape (n, M)")
        if self.outcome.shape != (n,):
            raise ValidationError("outcome must have shape (n,)")
        _check_finite(self.outcome, lambda j: "outcome y")
        for t, k in enumerate(self.treatment_arities):
            col = self.treatments[:, t]
            if col.min() < 0 or col.max() >= k:
                raise ValidationError(
                    f"treatment code out of range 0..{k - 1} in period {t + 1}"
                )

    @property
    def n_units(self) -> int:
        return self.states[0].shape[0]

    @property
    def num_periods(self) -> int:
        return len(self.states)

    @property
    def period_dims(self) -> tuple[int, ...]:
        return tuple(s.shape[1] for s in self.states)

    def subset(self, idx: NDArray) -> "PanelDataset":
        idx = np.asarray(idx)
        return PanelDataset(
            states=tuple(s[idx] for s in self.states),
            treatments=self.treatments[idx],
            outcome=self.outcome[idx],
            treatment_arities=self.treatment_arities,
        )


def _check_integer(value: int, name: str) -> None:
    """A count must be a Python or numpy integer (a ValidationError otherwise)."""
    if not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _check_clip(clip: float | None) -> None:
    """A clip bound must be positive (a ValidationError otherwise, NaN too);
    inf clips nothing."""
    if clip is not None and not clip > 0:
        raise ValidationError("clip bound must be positive")


def _rng(seed: int) -> np.random.Generator:
    """The PCG64 generator of a seed, which must be a non-negative integer
    (a ValidationError otherwise): every seeded draw in the package."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(seed))


def _check_finite(values: NDArray, column: Callable[[int], str]) -> None:
    """Reject NaN and inf, naming the first offending column (by index) and row."""
    if np.isfinite(values).all():
        return
    row, *col = np.argwhere(~np.isfinite(values))[0]
    raise ValidationError(f"non-finite value in {column(col[0] if col else 0)}, row {row}")


# ---------------------------------------------------------------------------
# Counterfactual plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalTerm:
    """One weighted evaluation point inside a period's moment.

    `weight_batch` and `target_batch` each map a PanelDataset of n rows to n
    values: the rows' weights and their integer target codes. `weights` and
    `targets` are the only callers of the rules, and each checks the result
    once: another shape (a scalar included), a non-finite weight or a
    non-integral target is a PlanError naming the period. The rules must be
    row-wise functions of each row's own states and treatments, never of
    `outcome` or other rows: on all-tabular panels the estimators pass them
    one row per distinct history.
    """

    weight_batch: Callable[[PanelDataset], NDArray] | None = None
    target_batch: Callable[[PanelDataset], NDArray] | None = None

    def __post_init__(self) -> None:
        for name in ("weight_batch", "target_batch"):
            if getattr(self, name) is None:
                raise PlanError(f"evaluation term needs {name}")

    def weights(self, data: PanelDataset, period: int) -> NDArray:
        return _rule_values(self.weight_batch(data), data.n_units,
                            f"period {period}: weight rule", integral=False)

    def targets(self, data: PanelDataset, period: int) -> NDArray:
        return _rule_values(self.target_batch(data), data.n_units,
                            f"period {period}: target rule", integral=True)


def _rule_values(out: NDArray, n: int, where: str, integral: bool) -> NDArray:
    """A plan rule's result as n finite floats, or as n int64 codes when
    `integral`; another shape, a non-finite weight or a non-integral code is a
    PlanError naming `where`."""
    out = np.asarray(out)
    if out.shape != (n,):
        raise PlanError(f"{where} gave shape {out.shape}, expected ({n},)")
    if integral and out.dtype.kind not in "biu":
        whole = np.isfinite(out) & (out == np.rint(out))
        if not whole.all():
            raise PlanError(f"{where} gave the non-integral code {float(out[~whole][0]):g}")
    values = out.astype(np.int64 if integral else float, copy=False)
    if not (integral or np.isfinite(values).all()):
        raise PlanError(f"{where} gave the non-finite value {values[~np.isfinite(values)][0]:g}")
    return values


@dataclass(frozen=True)
class FixedSequence:
    """Static counterfactual plan: treat with tau_t in every period."""

    treatments: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "treatments", tuple(int(c) for c in self.treatments))
        if len(self.treatments) < 1:
            raise PlanError("fixed sequence needs at least one period")
        if any(c < 0 for c in self.treatments):
            raise PlanError("treatment codes must be nonnegative")

    @property
    def num_periods(self) -> int:
        return len(self.treatments)

    def period_terms(self, period: int) -> tuple[EvalTerm, ...]:
        _check_period(period, self.num_periods)
        return (_code_term(1.0, self.treatments[period - 1]),)


Policy = Callable[[NDArray], NDArray]


@dataclass(frozen=True)
class DynamicPolicy:
    """Deterministic state-feedback plan: treat with pi_t(S_t) in period t.

    Each policy maps the period's (n, d_t) state matrix to n codes: period t's
    one term is the unit weight and the target rule pi_t(data.states[t - 1])."""

    policies: tuple[Policy, ...]

    def __post_init__(self) -> None:
        if len(self.policies) < 1:
            raise PlanError("policy plan needs at least one period")

    @property
    def num_periods(self) -> int:
        return len(self.policies)

    def period_terms(self, period: int) -> tuple[EvalTerm, ...]:
        _check_period(period, self.num_periods)
        pi = self.policies[period - 1]
        return (EvalTerm(weight_batch=lambda d: np.ones(d.n_units),
                         target_batch=lambda d: pi(d.states[period - 1])),)


def grid_policy(codes: Sequence[int]) -> Policy:
    """Policy over integer-embedded scalar states: state value s maps to codes[round(s)].

    A state with more than one coordinate, or whose rounded value lies outside
    0..len(codes)-1, is a PlanError."""
    table = np.asarray(codes, dtype=np.int64)

    def lookup(s: NDArray) -> NDArray:
        cell = np.rint(s)
        outside = (cell < 0) | (cell >= table.shape[0])
        if outside.any():
            raise PlanError(
                f"policy table of length {table.shape[0]} has no code for state "
                f"value {float(s[outside][0]):g}"
            )
        return table[cell.astype(np.int64)]

    def pi(s: NDArray) -> int | NDArray:
        s = np.asarray(s, dtype=float)
        dim = s.shape[-1] if s.ndim else 1
        if dim != 1:
            raise PlanError(f"grid policy takes scalar states; got state dimension {dim}")
        return lookup(s[:, 0]) if s.ndim == 2 else int(lookup(s.reshape(1))[0])

    return pi


@dataclass(frozen=True)
class Contrast:
    """General plan: per period, a list of weighted evaluation terms.

    Fixed sequences and deterministic policies are the single-unit-weight
    special case; weighted combinations (contrasts of plans, controlled
    direct effects) carry several terms whose weights may depend on the
    realized treatment prefix.
    """

    terms: tuple[tuple[EvalTerm, ...], ...]
    component_plans: tuple[tuple[float, FixedSequence], ...] | None = None

    def __post_init__(self) -> None:
        if len(self.terms) < 1:
            raise PlanError("contrast needs at least one period")

    @property
    def num_periods(self) -> int:
        return len(self.terms)

    def period_terms(self, period: int) -> tuple[EvalTerm, ...]:
        _check_period(period, self.num_periods)
        return self.terms[period - 1]

    @staticmethod
    def of_plan(plan: "TreatmentPlan") -> "Contrast":
        """Wrap any plan as a contrast with its own terms."""
        terms = tuple(plan.period_terms(t) for t in range(1, plan.num_periods + 1))
        comps = None
        if isinstance(plan, FixedSequence):
            comps = ((1.0, plan),)
        elif isinstance(plan, Contrast):
            comps = plan.component_plans
        return Contrast(terms=terms, component_plans=comps)

    @staticmethod
    def of_sequences(
        coefficients: Sequence[float], sequences: Sequence[Sequence[int]]
    ) -> "Contrast":
        """Weighted combination sum_j c_j * theta(tau_j) of fixed sequences.

        Terms carry weights that look back exactly one treatment (the one the
        nested recursion conditions on): one term per edge (previous target,
        current target) of the plans' layered value graph, weight
        gamma * 1{T_{t-1} == previous target}. A plan's coefficient enters
        where it first occupies an edge alone; edges shared by several plans
        carry unit weight. Plans whose targets merge to a common value and
        split again later are not expressible this way (branch identity is
        not recoverable from (S_t, T_t)) and are rejected; encode treatment
        history into the states to estimate such contrasts.

        Hence any two (merged) sequences j, k differ on one run of 0-based
        periods [a_jk, b_jk], and j's edge at t is its alone exactly when t
        lies in [a_jk, b_jk + 1] for every k. These intervals meet pairwise
        (two that miss would make k and l differ, agree, then differ again),
        so j's coefficient goes on its edge at t_j = max_k a_jk (0 when j
        stands alone), the first period it holds alone; every other edge
        weighs 1.
        """
        if len(coefficients) != len(sequences) or not sequences:
            raise PlanError("need one coefficient per sequence")
        m = len(sequences[0])
        if any(len(s) != m for s in sequences):
            raise PlanError("all sequences must share the period count")
        if m == 0:
            raise PlanError("contrast needs at least one period")
        merged: dict[tuple[int, ...], float] = {}
        for c, s in zip(coefficients, sequences):
            key = tuple(int(v) for v in s)
            merged[key] = merged.get(key, 0.0) + float(c)
        seqs = list(merged)
        alone = [0] * len(seqs)  # t_j, the first period at which j holds its edge alone
        for (j, u), (k, v) in itertools.combinations(enumerate(seqs), 2):
            diff = [t for t in range(m) if u[t] != v[t]]
            if any(u[t] == v[t] for t in range(diff[0], diff[-1] + 1)):
                raise PlanError(
                    f"sequences {u} and {v} merge to a shared treatment "
                    "and split again; such contrasts need history-augmented states"
                )
            alone[j], alone[k] = max(alone[j], diff[0]), max(alone[k], diff[0])

        def edge(s: tuple[int, ...], t: int) -> tuple[int, int]:
            return (s[t - 1] if t else -1, s[t])

        placed = {(t, edge(s, t)): merged[s] for s, t in zip(seqs, alone)}
        terms = tuple(
            tuple(_code_term(placed.get((t, (prev, code)), 1.0), code,
                             (t - 1, prev) if t else None)
                  for prev, code in sorted({edge(s, t) for s in seqs}))
            for t in range(m))
        comps = tuple((c, FixedSequence(s)) for s, c in merged.items())
        return Contrast(terms=terms, component_plans=comps)


def _code_term(scale: float, code: int, after: tuple[int, int] | None = None) -> EvalTerm:
    """Term with the constant target `code` and weight `scale`, times
    1{T_{p+1} == c} when `after` = (p, c) conditions on the 0-based period p's
    code (a negative scale gives -0.0 on the rows it excludes)."""

    def weight_batch(d: PanelDataset) -> NDArray:
        ok = (np.ones(d.n_units, dtype=bool) if after is None
              else d.treatments[:, after[0]] == after[1])
        return scale * ok.astype(float)

    return EvalTerm(weight_batch=weight_batch,
                    target_batch=lambda d: np.full(d.n_units, code, dtype=np.int64))


TreatmentPlan = FixedSequence | DynamicPolicy | Contrast


def _check_period(period: int, m: int) -> None:
    if not 1 <= period <= m:
        raise PlanError(f"period {period} outside 1..{m}")


# ---------------------------------------------------------------------------
# Feature maps and linear functions
# ---------------------------------------------------------------------------


@runtime_checkable
class FeatureMap(Protocol):
    """Deterministic map from (period-t state vector, treatment code) to R^p: a
    state basis times treatment indicators.

    `basis(states)` is the (n, q) state basis, q = dim / arity. `batch(states,
    codes)` is that basis with row i moved into the column block of code
    codes[i] and zeros elsewhere. `state_major` names the column order both
    `batch` and `LinearFn.weights` keep: code-major (False: column c*q + j,
    polynomial and Fourier maps) or state-major (True: column j*arity + c,
    tabular maps, whose weights read as a (G, arity) table). `basis` (in either
    memory order; the built-in maps return column-major views) and `batch`
    return new arrays, which their caller may modify. `FitConfig` and
    `LinearFn` take only maps with a `basis` and `state_major`."""

    state_major: bool

    @property
    def dim(self) -> int: ...

    @property
    def arity(self) -> int: ...

    def basis(self, states: NDArray) -> NDArray: ...

    def batch(self, states: NDArray, codes: NDArray) -> NDArray: ...


def _check_codes(codes: NDArray, arity: int, where: str) -> None:
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() >= arity):
        bad = int(codes[(codes < 0) | (codes >= arity)][0])
        raise PlanError(f"{where}: treatment code {bad} outside 0..{arity - 1}")


def _check_factored(phi: FeatureMap, name: str) -> None:
    """Reject a map that is not a state basis times treatment indicators."""
    if not (callable(getattr(phi, "basis", None)) and hasattr(phi, "state_major")):
        raise ValidationError(
            f"{name} ({type(phi).__name__}) is not a state basis times treatment "
            "indicators: it needs basis() and state_major"
        )


def _code_blocks(phi: FeatureMap, v: NDArray) -> NDArray:
    """A (K, q) view of a vector v over phi's design columns: entry (c, j) is the
    entry of basis column j under code c, in the order `phi.state_major` names.
    Of np.arange(phi.dim), it is the design column numbers."""
    return v.reshape(-1, phi.arity).T if phi.state_major else v.reshape(phi.arity, -1)


def _one_hot(index: NDArray, width: int) -> NDArray:
    """Row i is the unit vector e_{index[i]} of length `width`, column-major."""
    out = np.zeros((width, index.shape[0]))
    cells = index * index.shape[0]
    cells += np.arange(index.shape[0])
    out.ravel()[cells] = 1.0
    return out.T


class _FactoredMap:
    """A feature map given by its state basis: `batch` places each row's basis
    in the column block of its code, in the order `_code_blocks` gives."""

    def batch(self, states: NDArray, codes: NDArray) -> NDArray:
        codes = np.asarray(codes, dtype=np.int64)
        _check_codes(codes, self.arity, type(self).__name__)
        basis = self.basis(states)
        out = np.zeros((basis.shape[0], self.dim))
        columns = _code_blocks(self, np.arange(self.dim))[codes]
        out[np.arange(basis.shape[0])[:, None], columns] = basis
        return out


@dataclass(frozen=True, eq=False)
class TabularFeatures(_FactoredMap):
    """One-hot over a finite grid of (state, treatment) cells; exact on discrete processes.

    States are matched to the nearest grid row (the lowest grid index on a
    tie), so integer-embedded discrete states resolve exactly.
    """

    grid: NDArray                       # (G, d) representative state points
    arity: int
    state_major = True

    def __post_init__(self) -> None:
        g = np.asarray(self.grid, dtype=float)
        if g.ndim == 1:
            g = g[:, None]
        object.__setattr__(self, "grid", g)
        if self.arity < 1 or g.shape[0] < 1:
            raise ValidationError("tabular features need a nonempty grid and arity >= 1")
        if g.shape[1] == 1:  # scalar states: `_scalar_index`'s sorted values, found once
            object.__setattr__(self, "_sorted", np.unique(g[:, 0], return_index=True))

    @property
    def dim(self) -> int:
        return self.grid.shape[0] * self.arity

    def state_index(self, states: NDArray) -> NDArray:
        s = np.atleast_2d(np.asarray(states, dtype=float))
        if self.grid.shape[1] == 1:
            return self._scalar_index(s[:, 0])
        d2 = np.zeros((s.shape[0], self.grid.shape[0]))  # zero-width grids: every row ties
        for j in range(self.grid.shape[1]):  # squared distances summed coordinate by coordinate
            d2 += (s[:, j, None] - self.grid[:, j]) ** 2
        return d2.argmin(axis=1)

    def _scalar_index(self, s: NDArray) -> NDArray:
        """Nearest grid row of scalar states by binary search over the sorted
        grid values, the first index of a repeated value standing for it. A
        state equal to a grid value takes that value; any other takes the
        nearer of the two values around it by squared distance, the lower grid
        index on a tie, which is what argmin over all distances returns."""
        values, first = self._sorted
        pos = np.minimum(np.searchsorted(values, s), values.shape[0] - 1)
        off = values[pos] != s
        if off.any():
            s_off, hi = s[off], pos[off]
            lo = np.maximum(hi - 1, 0)
            d_lo, d_hi = (s_off - values[lo]) ** 2, (s_off - values[hi]) ** 2
            take_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (first[hi] < first[lo]))
            pos[off] = np.where(take_hi, hi, lo)
        return first[pos]

    def basis(self, states: NDArray) -> NDArray:
        """The one-hot (n, G) indicator of each state's grid row."""
        return _one_hot(self.state_index(states), self.grid.shape[0])


def _monomial_steps(dim: int, degree: int) -> tuple[tuple[int, int], ...]:
    """Monomials of total degree <= `degree` in graded order after the constant:
    step j builds monomial j + 1 as (index of its parent monomial, coordinate),
    the parent being the monomial with the highest coordinate's power lowered
    by one."""
    index = {(): 0}
    steps = []
    for total in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(dim), total):
            steps.append((index[combo[:-1]], combo[-1]))
            index[combo] = len(index)
    return tuple(steps)


@dataclass(frozen=True, eq=False)
class PolynomialFeatures(_FactoredMap):
    """State monomials up to a total degree, interacted with treatment indicators."""

    state_dim: int
    degree: int
    arity: int
    state_major = False

    def __post_init__(self) -> None:
        if self.state_dim < 1 or self.degree < 0 or self.arity < 1:
            raise ValidationError("bad polynomial feature configuration")
        object.__setattr__(self, "_steps", _monomial_steps(self.state_dim, self.degree))

    @property
    def dim(self) -> int:
        return (len(self._steps) + 1) * self.arity

    def _monomials(self, states: NDArray) -> NDArray:
        """Each monomial is its parent monomial times one coordinate, built in a
        (monomial, row) buffer so every product runs over contiguous rows."""
        s = np.atleast_2d(np.asarray(states, dtype=float)).T.copy()
        out = np.empty((len(self._steps) + 1, s.shape[1]))
        out[0] = 1.0
        for j, (parent, coord) in enumerate(self._steps, start=1):
            np.multiply(out[parent], s[coord], out=out[j])
        return out.T

    def basis(self, states: NDArray) -> NDArray:
        return self._monomials(states)


@dataclass(frozen=True, eq=False)
class RandomFourierFeatures(_FactoredMap):
    """Seeded cosine features of the state, interacted with treatment indicators.

    Frequencies and phases are drawn once at construction from the given
    seed and never change, so evaluation is bit-identical across calls.
    """

    state_dim: int
    n_features: int
    arity: int
    lengthscale: float = 1.0
    seed: int = 0
    include_constant: bool = True
    state_major = False

    def __post_init__(self) -> None:
        if self.state_dim < 1 or self.n_features < 1 or self.arity < 1:
            raise ValidationError("bad random Fourier feature configuration")
        if self.lengthscale <= 0:
            raise ValidationError("lengthscale must be positive")
        rng = _rng(self.seed)
        omega = rng.standard_normal((self.n_features, self.state_dim)) / self.lengthscale
        phase = rng.uniform(0.0, 2.0 * np.pi, self.n_features)
        object.__setattr__(self, "_omega", omega)
        object.__setattr__(self, "_phase", phase)

    @property
    def dim(self) -> int:
        return (self.n_features + int(self.include_constant)) * self.arity

    def basis(self, states: NDArray) -> NDArray:
        s = np.atleast_2d(np.asarray(states, dtype=float))
        z = np.ones((self.n_features + int(self.include_constant), s.shape[0]))  # (feature, row)
        z[-self.n_features:] = np.cos(self._omega @ s.T + self._phase[:, None])
        z[-self.n_features:] *= np.sqrt(2.0 / self.n_features)
        return z.T


class Fn(Protocol):
    """A function of (state vector, treatment code), evaluated on batches: row i
    of `batch(states, codes)` is its value at (states[i], codes[i])."""

    def batch(self, states: NDArray, codes: NDArray) -> NDArray: ...


@dataclass(frozen=True, eq=False)
class LinearFn:
    """weights . features(state, code), optionally truncated to [-clip, clip].

    The features factor as a state basis B times treatment indicators, so the
    value at code c is B beta_c, beta_c the weights of c's column block."""

    features: FeatureMap
    weights: NDArray
    clip: float | None = None

    def __post_init__(self) -> None:
        _check_factored(self.features, "feature map")
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.shape != (self.features.dim,):
            raise ValidationError(
                f"weight length {w.shape} does not match feature dimension {self.features.dim}"
            )
        _check_clip(self.clip)
        object.__setattr__(self, "_blocks", _code_blocks(self.features, w))  # row c: beta_c

    @property
    def arity(self) -> int:
        return self.features.arity

    def code_values(self, basis: NDArray) -> NDArray:
        """(n, K), column-major: the value at every code of the rows whose state
        basis is `basis` (features.basis(states)), B beta_c clipped; a new array."""
        v = self._blocks @ basis.T
        return (v if self.clip is None else np.clip(v, -self.clip, self.clip, out=v)).T

    def batch(self, states: NDArray, codes: NDArray) -> NDArray:
        """Each row's value at its own code."""
        codes = np.asarray(codes, dtype=np.int64)
        _check_codes(codes, self.arity, type(self.features).__name__)
        v = self.code_values(self.features.basis(states))
        return np.take_along_axis(v, codes[:, None], axis=1)[:, 0]


@dataclass(frozen=True)
class ConstantFn:
    """The constant function; stands in for the period-0 representer (== 1)."""

    value: float = 1.0

    @property
    def arity(self) -> int | None:
        return None

    def batch(self, states: NDArray, codes: NDArray) -> NDArray:
        return np.full(np.atleast_2d(states).shape[0], self.value)


@dataclass(frozen=True)
class CombinedFn:
    """Linear combination of functions of (state, treatment); a part whose
    coefficient is zero is never evaluated."""

    parts: tuple[tuple[float, Fn], ...]

    @property
    def arity(self) -> int | None:
        for _, fn in self.parts:
            a = getattr(fn, "arity", None)
            if a is not None:
                return a
        return None

    def batch(self, states: NDArray, codes: NDArray) -> NDArray:
        out = np.zeros(np.atleast_2d(states).shape[0])
        for c, fn in self.parts:
            if c != 0.0:
                out += c * np.asarray(fn.batch(states, codes), dtype=float)
        return out


def tabular_fn(table: NDArray, grid: NDArray | None = None, clip: float | None = None) -> LinearFn:
    """Wrap a (G, K) value table as a function on the integer-embedded grid."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 2:
        raise ValidationError("value table must be two-dimensional (states x treatments)")
    g = np.arange(table.shape[0], dtype=float) if grid is None else np.asarray(grid, dtype=float)
    fmap = TabularFeatures(grid=g, arity=table.shape[1])
    return LinearFn(features=fmap, weights=table.ravel(), clip=clip)


@dataclass(frozen=True)
class NuisanceSet:
    """Per-fold nuisance bundle: regressions f_1..f_M and representers a_1..a_M.

    The period-0 representer is the constant 1 and is fixed, not a field.
    """

    regressions: tuple[Fn, ...]
    representers: tuple[Fn, ...]

    def __post_init__(self) -> None:
        if len(self.regressions) != len(self.representers) or not self.regressions:
            raise ValidationError("regressions and representers must have equal length M >= 1")

    @property
    def num_periods(self) -> int:
        return len(self.regressions)


# ---------------------------------------------------------------------------
# Moment evaluation and the orthogonal score
# ---------------------------------------------------------------------------

def _code_weights(
    plan: TreatmentPlan, period: int, data: PanelDataset, arity: int | None
) -> NDArray:
    """The (n, K) code weights W_c = sum of w_k over the terms with d_k = c, so
    that m_period(Z; g) = sum_c W_c(Z) g(S_period, c) for any g: the plan terms'
    weights and targets alone, no function evaluated. Targets must lie in
    0..K-1, K being `arity`, or the data's arity for the period when `arity`
    is None. The column-major view of a (K, n) buffer."""
    _check_period(period, plan.num_periods)
    if period > data.num_periods:
        raise PlanError(f"data has {data.num_periods} periods, plan asks for {period}")
    bound = data.treatment_arities[period - 1] if arity is None else arity
    terms = plan.period_terms(period)
    targets = [term.targets(data, period) for term in terms]
    for j, d in enumerate(targets):
        _check_codes(d, bound, f"period {period}, term {j}")
    out = np.zeros((bound, data.n_units))
    cells = np.arange(data.n_units)
    for term, d in zip(terms, targets):
        out.ravel()[d * data.n_units + cells] += term.weights(data, period)
    return out.T


def moment_batch(plan: TreatmentPlan, period: int, data: PanelDataset, g: Fn) -> NDArray:
    """Vectorized m_period(Z_i; g) = sum_c W_c(Z_i) g(S_period, c) over the codes
    c that carry weight, W from `_code_weights`; linear in g. Targets must lie
    below g's arity, or the data's when g has none. A row whose sum leaves the
    float range though g is finite on it is a ValidationError naming the
    period; a non-finite value of g itself passes through."""
    weights = _code_weights(plan, period, data, getattr(g, "arity", None))
    s, out = data.states[period - 1], np.zeros(data.n_units)
    finite = np.ones(data.n_units, dtype=bool)
    for c in np.flatnonzero(weights.any(axis=0)):
        values = g.batch(s, np.full(data.n_units, c))
        finite &= np.isfinite(values)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            out += weights[:, c] * values
    if not np.isfinite(out[finite]).all():
        raise ValidationError(f"period {period}: the plan's weights overflow the moment "
                              "past the float range; rescale them")
    return out


def moment_scores(
    data: PanelDataset, plan: TreatmentPlan, nuisances: NuisanceSet
) -> tuple[NDArray, NDArray, NDArray]:
    """Vectorized scores: (values, plug-ins, corrections (M, n)).

    The score is the plug-in m_1(Z; f_1) plus one correction per period,
    a_t(S_t, T_t) * (u_t - f_t(S_t, T_t)), where the pseudo-outcome u_t is
    m_{t+1}(Z; f_{t+1}), or Y at the horizon. Summation order is fixed
    (plug-in first, then periods 1..M) so the decomposition is bit-reproducible.
    """
    m = plan.num_periods
    if nuisances.num_periods != m:
        raise ValidationError("nuisance set does not cover every period")

    def observed(g: Fn, t: int) -> NDArray:
        return g.batch(data.states[t - 1], data.treatments[:, t - 1])

    plug = moment_batch(plan, 1, data, nuisances.regressions[0])
    return _ladder(plug, (
        (observed(nuisances.representers[t - 1], t),
         data.outcome if t == m else moment_batch(plan, t + 1, data, nuisances.regressions[t]),
         observed(nuisances.regressions[t - 1], t))
        for t in range(1, m + 1)))


def _ladder(
    plug: NDArray, terms: Iterable[tuple[NDArray, NDArray, NDArray]]
) -> tuple[NDArray, NDArray, NDArray]:
    """The orthogonal score plug + sum_t a_t (u_t - f_t) from the plug-in and
    the terms (a_t, u_t, f_t) of periods t = 1..M: (values, plug, corrections
    (M, n)). The one place a correction is formed and summed; plug-in first,
    then periods 1..M."""
    corrections = np.array([a * (u - f) for a, u, f in terms])
    values = plug.copy()
    for c in corrections:
        values += c
    return values, plug, corrections


# ---------------------------------------------------------------------------
# Wide CSV schema
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_panel_csv(data: PanelDataset, path: str) -> None:
    """Wide layout: s{t}_{j} columns, then t{t} codes, then y."""
    header: list[str] = []
    for t, d in enumerate(data.period_dims, start=1):
        header.extend(f"s{t}_{j}" for j in range(1, d + 1))
    header.extend(f"t{t}" for t in range(1, data.num_periods + 1))
    header.append("y")
    _write_csv(path, header, [*data.states, data.treatments, data.outcome])


def _write_csv(
    path: str, header: Sequence[str], blocks: Sequence[NDArray], chunk: int = 65536
) -> None:
    """Rows made of the blocks' columns side by side: integer blocks as integers,
    the rest in round-trip-exact decimal. Columns are formatted whole, `chunk`
    rows at a time, so only one chunk's cells are Python objects at once."""
    columns = [
        (str if b.dtype.kind == "i" else _fmt, col)
        for b in blocks
        for col in b.reshape(b.shape[0], -1).T
    ]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for lo in range(0, blocks[0].shape[0], chunk):
            w.writerows(zip(*(map(f, col[lo : lo + chunk].tolist()) for f, col in columns)))


def _read_csv(path: str) -> tuple[list[str], list[str], int]:
    """Stripped header names, each once, the data cells in row-major order,
    unparsed (`_columns` parses them), and the number of data rows; every row
    must be as wide as the header."""
    try:
        with open(path, newline="") as fh:
            fields, cells, n, ragged = _tokens(fh.read())
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if fields is None:
        raise ValidationError(f"{path}: empty file")
    header = [h.strip() for h in fields]
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:
        raise ValidationError(f"{path}: repeated column {repeated[0]!r}")
    if ragged is not None:
        line, width = ragged
        raise ValidationError(
            f"{path}: line {line} has {width} fields, the header has {len(header)}"
        )
    return header, cells, n


def _tokens(
    text: str,
) -> tuple[list[str] | None, list[str], int, tuple[int, int] | None]:
    """`text` split as `csv.reader` splits it: the header's fields (None for an
    empty text), the data cells in row-major order, the number of data rows, and
    the line and field count of the first data row not as wide as the header
    (None when every row is).

    Records end at \\n, \\r\\n or a bare \\r, and fields are split on ","; a blank
    record is a row of 0 fields, and a field longer than
    `csv.field_size_limit()` raises csv.Error. Only a text with a '"' (RFC 4180
    quoting) or a NUL (rejected before Python 3.11) goes to `csv.reader`."""
    if not text:
        return None, [], 0, None
    if '"' in text or "\0" in text:
        fields, *rows = csv.reader(io.StringIO(text, newline=""))
    else:
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        records = text.split("\n")
        del text
        if not records[-1]:
            records.pop()  # the final newline ends the last record
        limit = csv.field_size_limit()
        if max(map(len, records)) > limit and any(
            len(cell) > limit for record in records for cell in record.split(",")
        ):
            raise csv.Error(f"field larger than field limit ({limit})")
        first = records.pop(0)
        fields = first.split(",") if first else []
        p, n = len(fields), len(records)
        # One split for the whole body, a "\n" cell between records: every row
        # is p wide exactly when the n - 1 separators fall every p + 1 cells.
        cells = ",\n,".join(records).split(",")
        if "" not in records and len(cells) == n * (p + 1) - 1:
            if cells[p :: p + 1].count("\n") == n - 1:
                del cells[p :: p + 1]
                return fields, cells, n, None
        del cells
        rows = [record.split(",") if record else [] for record in records]
    ragged = next(
        ((line, len(row)) for line, row in enumerate(rows, start=2) if len(row) != len(fields)),
        None,
    )
    return fields, list(itertools.chain.from_iterable(rows)), len(rows), ragged


def _columns(path: str, header: list[str], cells: list[str], n: int) -> dict[str, NDArray]:
    """Each column parsed once, by name, from the row-major `cells` of `n` rows:
    treatment columns (named t...) with Python's `int()` into int64, every other
    column with `float()`, so a cell is accepted exactly when that call accepts
    it and the code fits in int64. Only when a column fails are the cells walked
    in order, to raise ValidationError naming the file, line and column of the
    first bad cell."""
    p = len(header)
    kinds = [(int, np.int64) if name.startswith("t") else (float, np.float64) for name in header]
    try:
        return {
            name: np.fromiter(map(kind, cells[j::p]), dtype, n)
            for j, (name, (kind, dtype)) in enumerate(zip(header, kinds))
        }
    except (ValueError, OverflowError):
        for i, cell in enumerate(cells):
            name, (kind, dtype) = header[i % p], kinds[i % p]
            try:
                dtype(kind(cell))
            except (ValueError, OverflowError) as exc:
                problem = (
                    "outside the int64 range" if isinstance(exc, OverflowError)
                    else "not an integer" if kind is int else "not a number"
                )
                raise ValidationError(
                    f"{path}: line {i // p + 2}, column {name!r}: {cell!r} is {problem}"
                ) from None
        raise


def _block(columns: dict[str, NDArray], names: Sequence[str], rows: int) -> NDArray:
    """The named columns side by side; (rows, 0) when there are none."""
    return np.column_stack([columns[name] for name in names]) if names else np.empty((rows, 0))


def _indexed_columns(path: str, header: list[str], prefix: str) -> list[str]:
    """The columns `prefix`1..`prefix`p in index order; the indices of the
    columns named `prefix` and a number must run from 1 without a gap."""
    found = [name for name in header if re.fullmatch(re.escape(prefix) + r"\d+", name)]
    names = [f"{prefix}{j}" for j in range(1, len(found) + 1)]
    for name in found:
        if name not in names:
            raise ValidationError(
                f"{path}: column {name!r}: indices of {prefix}* must run from 1 without gaps"
            )
    return names


_PANEL_COLUMN = re.compile(r"s([1-9]\d*|0)_\d+|t([1-9]\d*|0)|y")


def read_panel_csv(path: str, treatment_arities: Sequence[int] | None = None) -> PanelDataset:
    """Load the wide schema; arities default to max observed code + 1 per period,
    which may not exceed the number of rows."""
    header, cells, n = _read_csv(path)
    periods: dict[str, int] = {}
    for name in header:
        match = _PANEL_COLUMN.fullmatch(name)
        if match is None:
            raise ValidationError(f"{path}: unrecognized column {name!r}")
        if name != "y":
            periods[name] = int(match.group(1) or match.group(2))
    if "y" not in header:
        raise ValidationError(f"{path}: missing column y")
    m = max((p for name, p in periods.items() if name[0] == "t"), default=0)
    state_cols = [_indexed_columns(path, header, f"s{t}_") for t in range(1, max(m, 1) + 1)]
    for t, cols in enumerate(state_cols, start=1):
        if f"t{t}" not in periods:
            raise ValidationError(f"{path}: missing column t{t}")
        if not cols:
            raise ValidationError(f"{path}: missing columns s{t}_*")
    for name, period in periods.items():
        if not 1 <= period <= m:
            raise ValidationError(f"{path}: column {name!r} is outside the file's periods 1..{m}")
    if not n:
        raise ValidationError(f"{path}: no data rows")
    columns = _columns(path, header, cells, n)
    states = tuple(_block(columns, names, n) for names in state_cols)
    treatments = _block(columns, [f"t{t}" for t in range(1, m + 1)], n)
    outcome = columns["y"]
    if treatment_arities is None:
        treatment_arities = tuple(int(treatments[:, t].max()) + 1 for t in range(m))
        for t, k in enumerate(treatment_arities, start=1):
            # Every code level below the largest is a column of the feature
            # maps; more levels than rows cannot all be observed.
            if k > n:
                raise ValidationError(
                    f"{path}: column t{t}: treatment code {k - 1} implies {k} treatment "
                    f"levels, more than the file's {n} rows"
                )
    return PanelDataset(states, treatments, outcome, tuple(treatment_arities))
