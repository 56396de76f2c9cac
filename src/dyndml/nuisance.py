"""Fitting the two recursive nuisance sequences over a linear function class.

Forward pass: Riesz representers, each period minimizing the quadratic
representer loss whose evaluation term reuses the previous period's fitted
representer. Backward pass: nested regressions, each period ridge-regressing
a pseudo-outcome (the next period's moment evaluation, or Y at the horizon)
on features of the observed (state, treatment). Both problems are convex
quadratics over a linear class and are solved in closed form, so acceptance
tests see no optimizer noise.

Both passes run stage-major in one implementation, `_Stages`, on factored
designs (`_Design`): a feature map is a state basis times treatment
indicators, so per period the engine keeps one basis B_t = phi_t.basis(S_t)
and the code weights W_t of the plan's terms (m_t(Z; g) = sum_c W_c g(S_t, c))
and never builds the n x p design or moment image. Every per-row array is
column-major, so elementwise passes run along contiguous columns. Grams are
block-diagonal by code: each (fold, code) block is computed once and a
training set's Gram is the sum of the other folds' blocks, as is a right-hand
side every set shares (t = 1 Riesz, t = M regression); each stage's set x code
systems are solved in one batched call. The training sets are `_TrainingSets`,
which the surrogate estimator shares. Cross-fitting (`cross_fit`) solves one
training set per fold and scores the held-out rows from the same bases; the
public fits are the one-training-set case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .core import (
    CombinedFn,
    FeatureMap,
    Fn,
    LinearFn,
    PanelDataset,
    SolverError,
    TabularFeatures,
    TreatmentPlan,
    ValidationError,
    _check_codes,
    _check_factored,
    _code_blocks,
    _code_weights,
    _ladder,
    moment_batch,
)

DEFAULT_RIDGE_SCALE = 1e-3

# A tabular state may differ from its grid row by at most this much, relative to
# 1 + |grid value|, in each coordinate; the estimators reject one farther off.
GRID_TOLERANCE = 1e-9


@dataclass(frozen=True)
class FitConfig:
    """Estimator settings shared by the regression and representer passes.

    feature_maps: one map per period, used for both f_t and a_t; each must
        factor as a state basis times treatment indicators (`FeatureMap`).
    ridge: penalty added to the n-normalized Gram (comparable across n);
        a scalar applies to every stage, a sequence sets one value per
        period, None selects the scale-free default
        1e-3 * n^(-1/2) * trace(Gram)/p.
    clip: optional bound B; representer evaluations are truncated to
        [-B, B]. Off by default.
    """

    feature_maps: tuple[FeatureMap, ...]
    ridge: float | tuple[float, ...] | None = None
    clip: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature_maps", tuple(self.feature_maps))
        if isinstance(self.ridge, Sequence):
            object.__setattr__(self, "ridge", tuple(float(r) for r in self.ridge))
            if len(self.ridge) != len(self.feature_maps):
                raise ValidationError("need one ridge value per period")
        if self.clip is not None and self.clip <= 0:
            raise ValidationError("clip bound must be positive")
        ridges = self.ridge if isinstance(self.ridge, tuple) else (self.ridge,)
        for r in ridges:
            if r is not None and r < 0:
                raise ValidationError("ridge penalty must be nonnegative")
        for t, phi in enumerate(self.feature_maps, start=1):
            _check_factored(phi, f"feature map {t}")

    def stage_ridge(self, period: int, gram: NDArray, n: int) -> float:
        """Resolved normalized-Gram penalty for a 1-based period; `gram` is the
        p x p Gram or its (K, q, q) diagonal blocks (p = K q)."""
        if isinstance(self.ridge, tuple):
            return self.ridge[period - 1]
        if self.ridge is not None:
            return float(self.ridge)
        p = gram.size // gram.shape[-1]
        return DEFAULT_RIDGE_SCALE * n ** -0.5 * float(np.trace(gram, axis1=-2, axis2=-1).sum()) / p


def _solve_spd(
    a: NDArray, b: NDArray, lam: NDArray, columns: NDArray, name: Callable[[tuple], str],
) -> NDArray:
    """x with a x = b for symmetric positive definite systems stacked on the
    leading axes: a (..., m, m), b (..., m), lam each system's penalty. One
    Cholesky call checks every system and one call solves them. The first
    failing system, at index i in C order, raises SolverError prefixed by
    name(i): under a zero penalty for its first column with no mass (numbered
    by columns[i]), else for failing the Cholesky check."""
    stack = a.shape[:-2]
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    empty = (np.broadcast_to(lam, stack)[..., None] == 0.0) & (diag <= 0.0)
    if empty.any() or not _positive_definite(a):
        cols = np.broadcast_to(columns, diag.shape)
        for i in np.ndindex(stack):
            if empty[i].any():
                raise SolverError(
                    f"{name(i)}singular system with zero penalty: design column "
                    f"{int(cols[i][empty[i]].min())} has no mass (rank deficient)"
                )
            if not _positive_definite(a[i]):
                raise SolverError(f"{name(i)}singular normal equations (rank-deficient design); "
                                  "set a positive ridge penalty")
    return np.linalg.solve(a, b[..., None])[..., 0]


def _positive_definite(a: NDArray) -> bool:
    """Whether every stacked matrix has a Cholesky factor."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


class _TrainingSets:
    """Training sets over n rows, held in fold-major order (`rows` permutes an
    array into it): with `folds`, set s is every row outside folds[s], the two
    runs around fold s's run `held(s)`; without, the one set is every row."""

    def __init__(self, n: int, folds: Sequence[NDArray] | None = None) -> None:
        # Sorted, a fold's rows are gathered in memory order.
        self.folds = None if folds is None else tuple(np.sort(idx) for idx in folds)
        self.order = None if folds is None else np.concatenate(self.folds)
        counts = [n] if folds is None else [idx.shape[0] for idx in self.folds]
        self.bounds = np.concatenate([[0], np.cumsum(counts)])
        self.sizes = [n] if folds is None else [n - c for c in counts]

    def rows(self, a: NDArray) -> NDArray:
        """a's rows in fold-major order, gathered along memory order."""
        return a if self.order is None else np.take(a.T, self.order, axis=-1).T

    def held(self, s: int) -> slice:
        return slice(self.bounds[s], self.bounds[s + 1])

    def _train(self, s: int) -> tuple[slice, ...]:
        if self.folds is None:
            return (slice(None),)
        return slice(0, self.bounds[s]), slice(self.bounds[s + 1], None)

    def mean(self, s: int, basis: NDArray, weights: NDArray, v: NDArray | None = None) -> NDArray:
        """The (K, q) mean over set s's rows of weights_ic v_i basis_i (v = 1
        when None): per code c, basis'(W_c v) / n_s."""
        parts = ((weights.T[:, r] if v is None else weights.T[:, r] * v[r]) @ basis[r]
                 for r in self._train(s))
        return sum(parts) / self.sizes[s]

    def shared(self, basis: NDArray, weights: NDArray) -> NDArray:
        """Every set's `mean` (v = 1) of an input all sets share, (S, K, q), from
        each fold's block basis'W_c computed once (`_per_set`)."""
        return self._per_set(np.stack([weights.T[:, self.held(f)] @ basis[self.held(f)]
                                       for f in range(len(self.sizes))]))

    def _per_set(self, blocks: NDArray) -> NDArray:
        """Each set's normalized sum of the other folds' blocks (Q, ...), never a
        difference, so a block zero in every training fold stays exactly zero."""
        if self.folds is not None:
            blocks = np.stack([blocks[:s].sum(axis=0) + blocks[s + 1:].sum(axis=0)
                               for s in range(len(blocks))])
        return blocks / np.reshape(self.sizes, (-1,) + (1,) * (blocks.ndim - 1))

    def grams(self, basis: NDArray, codes: NDArray, k: int) -> NDArray:
        """Every set's normalized Gram of the rows basis_i in the block of
        codes[i], as its K diagonal blocks: (S, K, q, q). Rows are grouped by
        (fold, code) with one stable sort on a small-int key, gathered along
        memory order, and each block's Gram is computed once (`_per_set`)."""
        n_folds, q = self.bounds.shape[0] - 1, basis.shape[1]
        small = np.min_scalar_type(n_folds * k)
        key = np.repeat(np.arange(n_folds, dtype=small) * small.type(k), np.diff(self.bounds))
        key += codes.astype(small)
        grouped = np.take(basis.T, np.argsort(key, kind="stable"), axis=1).T
        counts = np.bincount(key, minlength=n_folds * k)
        return self._per_set(np.stack([grouped[end - c:end].T @ grouped[end - c:end]
                                       for c, end in zip(counts, np.cumsum(counts))])
                             .reshape(n_folds, k, q, q))


class _Design:
    """A factored design over the rows of `sets`, held in their fold-major
    order: row i is phi(s_i, c_i), the state basis row B_i = phi.basis(s_i) in
    the column block of code c_i. Its Gram over any row set is block-diagonal
    by code, so each training set's system is K blocks of size q (built on the
    first `solve`). The basis is laid out column-major once; values B beta_c
    (`LinearFn.code_values` of `basis`) are picked at each row's code through
    the column-major flat index c_i*n + i. A code
    outside 0..K-1 is a PlanError, and a tabular state farther than
    GRID_TOLERANCE from its grid row a ValidationError, naming `name`."""

    def __init__(
        self, phi: FeatureMap, states: NDArray, codes: NDArray, sets: _TrainingSets,
        cfg: FitConfig, period: int, name: str,
    ) -> None:
        self.phi, self.sets, self.cfg, self.period = phi, sets, cfg, period
        _check_codes(codes, phi.arity, name)
        self.codes = sets.rows(np.asarray(codes)).astype(np.min_scalar_type(phi.arity - 1))
        states = sets.rows(states)
        self.basis = np.asfortranarray(phi.basis(states))
        if isinstance(phi, TabularFeatures):  # one-hot: basis @ grid is each state's grid row
            nearest = self.basis @ phi.grid
            if (states != nearest).any():  # the gaps are weighed only if some state is off
                gap = np.abs(states - nearest) > GRID_TOLERANCE * (1.0 + np.abs(nearest))
                rows = np.flatnonzero(gap.any(axis=1))
                if rows.size:
                    source = rows if sets.order is None else sets.order[rows]
                    i = rows[source.argmin()]
                    raise ValidationError(
                        f"{name}: row {source.min()}: state {states[i].tolist()} is off the "
                        f"tabular grid (nearest grid row {nearest[i].tolist()}, tolerance "
                        f"{GRID_TOLERANCE:g} x (1 + |grid value|))")
        self.flat = np.multiply(self.codes, self.codes.shape[0], dtype=np.intp)
        self.flat += np.arange(self.codes.shape[0])
        self.layout = _code_blocks(phi, np.arange(phi.dim))
        self._systems: tuple[NDArray, NDArray] | None = None

    def fn(self, coef: NDArray, clip: float | None = None) -> LinearFn:
        """The linear function of phi whose (K, q) coefficient blocks are `coef`."""
        w = np.empty(self.phi.dim)
        w[self.layout] = coef
        return LinearFn(self.phi, w, clip)

    def pick(self, values: NDArray, rows: slice = slice(None)) -> NDArray:
        """Each row's entry at its own code, from column-major `values` on `rows`."""
        m = values.shape[0]
        flat = self.flat if rows == slice(None) else (
            np.multiply(self.codes[rows], m, dtype=np.intp) + np.arange(m))
        return values.T.ravel()[flat]

    def scatter(self, v: NDArray) -> NDArray:
        """(n, K), column-major: v_i at each row's own code, zero at the others."""
        out = np.zeros(self.phi.arity * self.flat.shape[0])
        out[self.flat] = v
        return out.reshape(self.phi.arity, -1).T

    def solve(
        self, rhs: NDArray, where: str, border: tuple[NDArray, NDArray, NDArray] | None = None,
    ) -> tuple[NDArray, NDArray]:
        """Per set s, the coefficient blocks (S, K, q) of (G_s + lam_s I) beta =
        rhs_s, lam_s resolved from the full Gram G_s by cfg.stage_ridge, in one
        batched call; a SolverError names the set and `where`. A border
        (b, d, e) = (X'c/n_s, c'c/n_s, c'u/n_s) appends one unpenalized design
        column c with coefficient gamma: the blocks are solved for [rhs, b],
        then gamma from the Schur complement d - b'A^-1 b. A set with d = 0
        keeps the plain fit, gamma 0. Returns (beta, gamma), gamma 0 without
        a border."""
        if self._systems is None:
            grams = self.sets.grams(self.basis, self.codes, self.phi.arity)
            self._systems = grams, np.array([self.cfg.stage_ridge(self.period, g, n_s)
                                             for g, n_s in zip(grams, self.sets.sizes)])
        grams, lam = self._systems
        a = grams + lam[:, None, None, None] * np.eye(grams.shape[-1])

        def name(index: tuple) -> str:
            return ("" if self.sets.folds is None else f"fold {index[0]}: ") + f"{where}: "

        if border is None:
            return _solve_spd(a, rhs, lam[:, None], self.layout, name), np.zeros(len(rhs))
        b, d, e = border
        x = _solve_spd(a[:, :, None], np.stack([rhs, b], axis=2), lam[:, None, None],
                       self.layout[:, None], name)
        live, schur = d > 0.0, d - np.einsum("skj,skj->s", b, x[:, :, 1])
        bad = np.flatnonzero(live & ~(schur > 0.0))
        if bad.size:  # the bordered system is not positive definite
            raise SolverError(f"{name((bad[0],))}singular normal equations (rank-deficient "
                              "design); set a positive ridge penalty")
        gamma = np.where(live, e - np.einsum("skj,skj->s", b, x[:, :, 0]), 0.0)
        gamma /= np.where(live, schur, 1.0)
        return x[:, :, 0] - gamma[:, None, None] * x[:, :, 1], gamma


class _Stages:
    """Both nuisance passes over one panel, solved for several training sets
    (`_TrainingSets`; with `folds`, one per fold).

    Per period the engine keeps one factored design (`_Design`: the state basis
    B_t, the observed codes and, once solved, the per-set Gram blocks) and the
    (n, K) code weights W_t of the plan's terms, so m_t(Z; g) = sum_c W_c g(S_t, c).
    Each pass visits the periods once and solves every training set's stage in
    one batched call. Right-hand sides are B_t'(W_c v) (forward) and
    B_t'(1{T_t = c} u) (backward) over a set's rows, per fold if all sets share v or u.
    """

    def __init__(
        self, data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig,
        folds: Sequence[NDArray] | None = None,
    ) -> None:
        _check_setup(data, plan, cfg)
        self.data, self.plan, self.cfg = data, plan, cfg
        self.sets = sets = _TrainingSets(data.n_units, folds)
        self.designs, self.code_weights = [], []
        for t, phi in enumerate(cfg.feature_maps, start=1):
            states, codes = data.states[t - 1], data.treatments[:, t - 1]
            self.designs.append(_Design(phi, states, codes, sets, cfg, t, f"period {t}"))
            self.code_weights.append(sets.rows(_code_weights(plan, t, data, phi.arity)))

    def _values(self, t: int, g: Fn, rows: slice) -> NDArray:
        """(m, K), a new array: g(S_t, c) on `rows` for every code c. A g linear
        in phi_t is valued from the basis (a clip applies to each value), a
        `CombinedFn` part by part; any other g is evaluated at each code."""
        design = self.designs[t - 1]
        if isinstance(g, LinearFn) and g.features is design.phi:
            return g.code_values(design.basis[rows])
        if isinstance(g, CombinedFn):
            out = np.zeros((design.phi.arity, design.basis[rows].shape[0])).T
            for c, fn in g.parts:
                if c != 0.0:
                    v = self._values(t, fn, rows)
                    v *= c
                    out += v
            return out
        states = self.sets.rows(self.data.states[t - 1])[rows]
        return np.stack([g.batch(states, np.full(states.shape[0], c))
                         for c in range(design.phi.arity)]).T

    def _observed(self, t: int, g: Fn, rows: slice = slice(None)) -> NDArray:
        """g(S_t, T_t) on `rows`."""
        return self.designs[t - 1].pick(self._values(t, g, rows), rows)

    def _moment(self, t: int, g: Fn, rows: slice = slice(None)) -> NDArray:
        """m_t(Z; g) on `rows`."""
        return np.einsum("ik,ik->i", self.code_weights[t - 1][rows], self._values(t, g, rows))

    def riesz(self) -> list[list[LinearFn]]:
        """The forward pass of `fit_recursive_riesz` for every training set: the
        right-hand side is B_t'(W_c a_{t-1}(S_{t-1}, T_{t-1})) over the set's rows."""
        sets = self.sets
        fitted: list[list[LinearFn]] = [[] for _ in sets.sizes]
        for t in range(1, self.data.num_periods + 1):
            design, weights = self.designs[t - 1], self.code_weights[t - 1]
            rhs = sets.shared(design.basis, weights) if t == 1 else np.stack([
                sets.mean(s, design.basis, weights, self._observed(t - 1, reps[-1]))
                for s, reps in enumerate(fitted)])
            for reps, coef in zip(fitted, design.solve(rhs, f"period {t}")[0]):
                reps.append(design.fn(coef, self.cfg.clip))
        return fitted

    def regressions(
        self, representers: Sequence[Sequence[Fn]] | None, clever: bool
    ) -> tuple[list[list[Fn]], list[list[tuple]], NDArray]:
        """The backward pass of `fit_nested_regressions` for every training set.
        With `clever`, training set s's representer for the period joins its
        design as an unpenalized column (`fit_clever_covariate`), and the fit
        is the `CombinedFn` of the linear part and gamma times that
        representer. Returns (fits, held, train_means): with folds, held[s]
        holds the (a_t, u_t, f_t) of periods 1..M on fold s's held-out rows,
        with the set's own nuisances (`representers` per set), and with
        `clever` train_means[s, t-1] is the mean of a_t (u_t - f_t) over the
        set's training rows, from its normal equations."""
        m, sets = self.data.num_periods, self.sets
        fitted: list[list[Fn]] = [[None] * m for _ in sets.sizes]  # type: ignore[list-item]
        held: list[list[tuple]] = [[()] * m for _ in sets.sizes] if sets.folds else []
        train_means = np.zeros((len(sets.sizes), m))
        outcome = sets.rows(self.data.outcome)
        for t in range(m, 0, -1):
            design = self.designs[t - 1]
            reps = [r[t - 1] for r in representers] if representers else [None] * len(fitted)
            rhs, border = [], []
            for s, fs in enumerate(fitted):
                u = outcome if t == m else self._moment(t + 1, fs[t])
                if t < m:
                    rhs.append(sets.mean(s, design.basis, design.scatter(u)))
                if clever:
                    a = self._observed(t, reps[s])
                    border.append((sets.mean(s, design.basis, design.scatter(a)),  # X'a, a'a, a'u
                                   *sets.mean(s, np.stack([a, u]).T, a[:, None])[0]))
                if held:  # copies, so that no full-panel array outlives its set's step
                    h = sets.held(s)
                    held[s][t - 1] = (a[h].copy() if clever else self._observed(t, reps[s], h),
                                      u[h].copy())
            rhs = sets.shared(design.basis, design.scatter(outcome)) if t == m else np.stack(rhs)
            coefs, gammas = design.solve(rhs, f"period {t}",
                                         [np.array(part) for part in zip(*border)] or None)
            for s, (coef, gamma) in enumerate(zip(coefs, gammas)):
                f = design.fn(coef)
                if clever:
                    f = CombinedFn(((1.0, f), (float(gamma), reps[s])))
                    b, d, e = border[s]  # the mean of a (u - f) on the training rows
                    train_means[s, t - 1] = e - np.sum(b * coef) - d * gamma
                fitted[s][t - 1] = f
                if held:
                    held[s][t - 1] += (self._observed(t, f, sets.held(s)),)
        return fitted, held, train_means


def cross_fit(
    data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig, folds: Sequence[NDArray],
    clever: bool = False,
) -> tuple[NDArray, NDArray, NDArray]:
    """Fit both nuisance sequences once per fold on the rows outside it, and
    score the fold's rows with them (`core._ladder`). Returns the held-out
    score of every row and, per fold and period (Q, M), the mean correction
    a_t (u_t - f_t) over the fold's rows and, with `clever`, over its
    training rows."""
    stages = _Stages(data, plan, cfg, folds)
    fitted, held, train_means = stages.regressions(stages.riesz(), clever)
    values, means = np.empty(data.n_units), np.empty(train_means.shape)
    for s, (fs, terms) in enumerate(zip(fitted, held)):
        values[stages.sets.folds[s]], _, corrections = _ladder(
            stages._moment(1, fs[0], stages.sets.held(s)), terms)
        means[s] = corrections.mean(axis=1)
    return values, means, train_means


def fit_nested_regressions(
    data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig
) -> list[LinearFn]:
    """Backward pass t = M..1; pseudo-outcome is Y at the horizon, else the
    next period's moment evaluated at the already-fitted regression."""
    return _Stages(data, plan, cfg).regressions(None, clever=False)[0][0]


def riesz_loss(
    candidate: Fn, data: PanelDataset, plan: TreatmentPlan, period: int, prev: Fn | None
) -> float:
    """Empirical representer loss
    E_n[a(S_t, T_t)^2 - 2 prev(S_{t-1}, T_{t-1}) m_t(Z; a)]; prev is the
    previous period's representer, or the constant 1 when t == 1."""
    return float(np.mean(_riesz_loss_rows(candidate, data, plan, period, prev)))


def _riesz_loss_rows(
    candidate: Fn, data: PanelDataset, plan: TreatmentPlan, period: int, prev: Fn | None
) -> NDArray:
    """Per-row representer loss a(S_t, T_t)^2 - 2 prev(S_{t-1}, T_{t-1}) m_t(Z; a)."""
    a_obs = candidate.batch(data.states[period - 1], data.treatments[:, period - 1])
    m_vals = moment_batch(plan, period, data, candidate)
    return a_obs**2 - 2.0 * _prev_values(data, period, prev) * m_vals


def _prev_values(data: PanelDataset, period: int, prev: Fn | None) -> NDArray:
    """prev(S_{t-1}, T_{t-1}) per row, or the constant 1 when t == 1."""
    if period == 1 or prev is None:
        if period > 1:
            raise ValidationError("periods after the first need the previous representer")
        return np.ones(data.n_units)
    return prev.batch(data.states[period - 2], data.treatments[:, period - 2])


def fit_recursive_riesz(
    data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig
) -> list[LinearFn]:
    """Forward pass t = 1..M: minimize the penalized representer loss in
    closed form, (E_n[phi phi'] + lam I) beta = E_n[prev * Phi_t(Z)], where
    Phi_t(Z) = sum_k w_k(Z) phi_t(S_t, d_k(Z)) is the feature image of the
    period moment, so m_t(Z; a_beta) = Phi_t(Z) . beta."""
    return _Stages(data, plan, cfg).riesz()[0]


def fit_clever_covariate(
    data: PanelDataset,
    plan: TreatmentPlan,
    representers: Sequence[Fn],
    cfg: FitConfig,
) -> list[CombinedFn]:
    """Backward regression pass with the period's representer appended as an
    unpenalized design column, so every debiasing correction term has
    empirical mean zero by the normal equations and plug-in estimation
    already equals the debiased estimate. Period t's fit is
    CombinedFn(((1.0, LinearFn(phi_t, w)), (gamma, representers[t-1])))."""
    stages = _Stages(data, plan, cfg)
    if len(representers) != data.num_periods:
        raise ValidationError("need one representer per period")
    return stages.regressions([tuple(representers)], clever=True)[0][0]


def fit_nuisances(
    data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig, clever: bool = False
):
    """Fit both sequences on one sample; returns (regressions, representers)."""
    stages = _Stages(data, plan, cfg)
    (representers,) = stages.riesz()
    (regressions,), _, _ = stages.regressions([representers], clever)
    return regressions, representers


def _check_tabular_cells(maps: Sequence[FeatureMap], names: list[str], rows: list[int]) -> None:
    """Reject a tabular map with more cells than the rows it is fitted on: its
    grid has a row per distinct state, so continuous states would make the
    basis alone rows x rows."""
    for phi, name, n in zip(maps, names, rows):
        if isinstance(phi, TabularFeatures) and phi.dim > n:
            raise ValidationError(
                f"tabular feature map for {name} has {phi.dim} cells, more than its {n} rows "
                "(continuous states?); set features = polynomial | fourier")


def _check_setup(data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig) -> None:
    if plan.num_periods != data.num_periods:
        raise ValidationError(
            f"plan covers {plan.num_periods} periods, data has {data.num_periods}"
        )
    if len(cfg.feature_maps) != data.num_periods:
        raise ValidationError("need one feature map per period")
    _check_tabular_cells(cfg.feature_maps, [f"period {t}" for t in range(1, data.num_periods + 1)],
                         [data.n_units] * data.num_periods)
