"""Fitting the two recursive nuisance sequences over a linear function class.

Forward pass: Riesz representers, each period minimizing the quadratic
representer loss whose evaluation term reuses the previous period's fitted
representer. Backward pass: nested regressions, each period ridge-regressing
a pseudo-outcome (the next period's moment evaluation, or Y at the horizon)
on features of the observed (state, treatment). Both problems are convex
quadratics over a linear class and are solved in closed form, so acceptance
tests see no optimizer noise.

Both passes run stage-major in one implementation, `_Stages`: each period's
design X_t = phi_t(S_t, T_t) and moment image Phi_t = sum_k w_k phi_t(S_t, d_k)
are built once on the whole panel and solved for every training set. The
training sets are `_TrainingSets`, which the surrogate estimator shares: a
set enters through a 0/1 row mask on the right-hand sides, and its Gram is
the sum of the Grams of the fold blocks it contains. Cross-fitting
(`cross_fit`) solves one training set per fold and scores the held-out rows
from the same designs; the public fits are the one-training-set case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .core import (
    ExtendedFeatures,
    FeatureMap,
    Fn,
    LinearFn,
    PanelDataset,
    SolverError,
    TreatmentPlan,
    ValidationError,
    _term_sum,
    moment_batch,
)

DEFAULT_RIDGE_SCALE = 1e-3


@dataclass(frozen=True)
class FitConfig:
    """Estimator settings shared by the regression and representer passes.

    feature_maps: one map per period, used for both f_t and a_t.
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

    def stage_ridge(self, period: int, gram: NDArray, n: int) -> float:
        """Resolved normalized-Gram penalty for a 1-based period."""
        if isinstance(self.ridge, tuple):
            return self.ridge[period - 1]
        if self.ridge is not None:
            return float(self.ridge)
        p = gram.shape[0]
        return DEFAULT_RIDGE_SCALE * n ** -0.5 * float(np.trace(gram)) / p


def fit_ridge(features: NDArray, targets: NDArray, lam: float) -> NDArray:
    """argmin_b sum_i (y_i - b.x_i)^2 + lam * ||b||^2 via (X'X + lam I) b = X'y."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or y.shape != (x.shape[0],) or x.shape[0] < 1:
        raise ValidationError("features must be (n, p) with matching targets")
    if lam < 0:
        raise ValidationError("ridge penalty must be nonnegative")
    a = x.T @ x + lam * np.eye(x.shape[1])
    return _solve_spd(a, x.T @ y, lam)


def _solve_spd(a: NDArray, b: NDArray, lam: float) -> NDArray:
    if lam == 0.0:
        diag = np.diag(a)
        if diag.size and diag.min() <= 0.0:
            raise SolverError(
                f"singular system with zero penalty: design column {int(diag.argmin())} "
                "has no mass (rank deficient)"
            )
    try:
        np.linalg.cholesky(a)  # the positive-definiteness check only
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            "singular normal equations (rank-deficient design); "
            "set a positive ridge penalty"
        ) from exc
    return np.linalg.solve(a, b)


def _ridge_stage(gram: NDArray, n: int, cfg: FitConfig, period: int,
                 prefix: str = "") -> Callable[..., NDArray]:
    """One penalized quadratic stage over a normalized Gram G = X'X/n of n rows:
    returns solve(rhs, where, border=None) for (G + lam I) beta = rhs, with lam
    resolved from G by cfg.stage_ridge; a SolverError names prefix + where. A
    border (X'c/n, c'c/n) appends one unpenalized design column c, and `rhs`
    then ends with its entry."""
    lam = cfg.stage_ridge(period, gram, n)

    def solve(
        rhs: NDArray, where: str, border: tuple[NDArray, float] | None = None
    ) -> NDArray:
        a = gram + lam * np.eye(gram.shape[0])
        if border is not None:
            cross, corner = border[0][:, None], np.array([[border[1]]])
            a = np.block([[a, cross], [cross.T, corner]])
        try:
            return _solve_spd(a, rhs, lam)
        except SolverError as exc:
            raise SolverError(f"{prefix}{where}: {exc}") from exc

    return solve


class HeldOutScores(NamedTuple):
    """Cross-fitted scores: the held-out score of every row, and per fold and
    period the mean correction a_t (u_t - f_t) over the fold's held-out rows
    and, with the clever covariate, over its training rows."""

    values: NDArray
    correction_means: NDArray        # (Q, M)
    train_correction_means: NDArray  # (Q, M)


class _TrainingSets:
    """Training sets over n rows: with `folds`, set q is every row outside
    folds[q]; without, the one set is every row. A set's rows enter the
    right-hand sides through a 0/1 mask, and its Gram is the sum of the Grams
    of the fold blocks it contains, each computed once on sorted fold rows, so
    an exactly empty design column stays exactly zero."""

    def __init__(self, n: int, folds: Sequence[NDArray] | None = None) -> None:
        # Sorted, a fold's rows are gathered in memory order.
        self.folds = None if folds is None else tuple(np.sort(idx) for idx in folds)
        self.label = None if folds is None else np.empty(n, dtype=np.intp)
        for q, idx in enumerate(self.folds or ()):
            self.label[idx] = q
        self.sizes = [n] if folds is None else [n - idx.shape[0] for idx in self.folds]

    def train(self, q: int, v: NDArray) -> NDArray:
        """v on the rows of set q, zero elsewhere."""
        return v if self.label is None else np.where(self.label != q, v, 0.0)

    def mean(self, q: int, x: NDArray, v: NDArray) -> NDArray:
        """The mean of v x over the rows of set q, x' v / n_q."""
        return x.T @ self.train(q, v) / self.sizes[q]

    def solvers(self, x: NDArray, cfg: FitConfig, period: int) -> list[Callable[..., NDArray]]:
        """Per set, the `_ridge_stage` over design x restricted to its rows;
        with folds, set q's errors name fold q."""
        if self.folds is None:
            return [_ridge_stage(x.T @ x / self.sizes[0], self.sizes[0], cfg, period)]
        blocks = [xb.T @ xb for xb in (x[idx] for idx in self.folds)]
        grams = (sum(g for r, g in enumerate(blocks) if r != q) for q in range(len(blocks)))
        return [_ridge_stage(g / n_q, n_q, cfg, period, f"fold {q}: ")
                for q, (g, n_q) in enumerate(zip(grams, self.sizes))]


class _Stages:
    """Both nuisance passes over one panel, solved for several training sets
    (`_TrainingSets`; with `folds`, one per fold).

    Each pass visits the periods once: it builds the period's design X_t and
    moment image Phi_t on the full panel and solves that stage for every
    training set. At most two full-panel matrices are live besides the one
    being built: the forward pass keeps X_{t-1} until Phi_t has served every
    right-hand side, the backward pass keeps Phi_{t+1} until X_t has, and the
    forward pass hands its last X_M and Phi_M to the backward pass.
    """

    def __init__(
        self, data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig,
        folds: Sequence[NDArray] | None = None,
    ) -> None:
        _check_setup(data, plan, cfg)
        self.data, self.plan, self.cfg = data, plan, cfg
        self.sets = _TrainingSets(data.n_units, folds)
        self._handover: tuple | None = None   # the forward pass's last X_M, Phi_M, solvers

    def _design(self, t: int) -> NDArray:
        phi = self.cfg.feature_maps[t - 1]
        return phi.batch(self.data.states[t - 1], self.data.treatments[:, t - 1])

    def _image(self, t: int) -> NDArray:
        phi = self.cfg.feature_maps[t - 1]
        return _term_sum(self.plan, t, self.data, phi.batch, phi.arity, (phi.dim,))

    def _evaluate(self, t: int, g: Fn, m: NDArray, observed: bool) -> NDArray:
        """g per row, read off a full-panel matrix m where g is linear in phi_t:
        with `observed`, g(S_t, T_t) from the design X_t; else the period
        moment m_t(Z; g) from the image Phi_t, which a clip does not pass
        through. Any other g is evaluated directly."""
        phi = self.cfg.feature_maps[t - 1]
        if isinstance(g, LinearFn) and g.features is phi and (observed or g.clip is None):
            return g.at_features(m)
        if isinstance(g, LinearFn) and g.clip is None and isinstance(g.features, ExtendedFeatures) \
                and g.features.base is phi:
            base, gamma = m @ g.weights[:-1], g.weights[-1]
            if gamma == 0.0:
                return base
            return base + gamma * self._evaluate(t, g.features.extra, m, observed)
        if observed:
            return g.batch(self.data.states[t - 1], self.data.treatments[:, t - 1])
        return moment_batch(self.plan, t, self.data, g)

    def riesz(self) -> list[list[LinearFn]]:
        """The forward pass of `fit_recursive_riesz` for every training set; the
        previous representer's values come from the design X_{t-1} it was
        fitted on."""
        cfg, m, sets = self.cfg, self.data.num_periods, self.sets
        fitted: list[list[LinearFn]] = [[] for _ in sets.sizes]
        x = None
        for t in range(1, m + 1):
            image = None  # Phi_{t-1} has served; release it before Phi_t is built
            image = self._image(t)
            rhs = []
            for q, reps in enumerate(fitted):
                prev = np.ones(self.data.n_units) if x is None else reps[-1].at_features(x)
                rhs.append(sets.mean(q, image, prev))
            x = None  # X_{t-1} has served; release it before X_t is built
            x = self._design(t)
            solvers = sets.solvers(x, cfg, t)
            for q, solve in enumerate(solvers):
                beta = solve(rhs[q], f"period {t}")
                fitted[q].append(LinearFn(cfg.feature_maps[t - 1], beta, clip=cfg.clip))
        self._handover = (x, image, solvers)
        return fitted

    def regressions(
        self, representers: Sequence[Sequence[Fn]] | None, clever: bool,
        scores: HeldOutScores | None = None,
    ) -> list[list[LinearFn]]:
        """The backward pass of `fit_nested_regressions` for every training set.
        With `clever`, training set q's representer for the period joins its
        design as an unpenalized column (`fit_clever_covariate`). With
        `scores`, each fold's held-out rows are scored with its nuisances
        (`representers` per fold) while the designs are live: the correction
        a_t (u_t - f_t) of every period, then the plug-in m_1(Z; f_1)."""
        m, sets = self.data.num_periods, self.sets
        fitted: list[list[LinearFn]] = [[None] * m for _ in sets.sizes]  # type: ignore[list-item]
        x, image, solvers = self._handover or (None, None, None)
        self._handover = None
        next_image = None
        for t in range(m, 0, -1):
            phi = self.cfg.feature_maps[t - 1]
            if x is None:
                x = self._design(t)
                solvers = sets.solvers(x, self.cfg, t)
            for q, solve in enumerate(solvers):
                n_q, where = sets.sizes[q], f"period {t}"
                if t == m:
                    u = self.data.outcome
                else:
                    u = self._evaluate(t + 1, fitted[q][t], next_image, observed=False)
                u_train = sets.train(q, u)
                rhs = x.T @ u_train / n_q
                rep = None if representers is None else representers[q][t - 1]
                a = None if rep is None else self._evaluate(t, rep, x, observed=True)
                if not clever:
                    f = LinearFn(phi, solve(rhs, where))
                else:
                    a_train = sets.train(q, a)
                    if np.any(a_train):
                        border = (x.T @ a_train / n_q, a_train @ a_train / n_q)
                        beta = solve(np.append(rhs, a_train @ u_train / n_q), where, border)
                    else:
                        # Degenerate clever column: keep the plain fit, coefficient 0.
                        beta = np.append(solve(rhs, where), 0.0)
                    f = LinearFn(ExtendedFeatures(phi, rep), beta)
                fitted[q][t - 1] = f
                if scores is not None:
                    corr = a * (u - self._evaluate(t, f, x, observed=True))
                    idx = sets.folds[q]
                    scores.values[idx] += corr[idx]
                    scores.correction_means[q, t - 1] = corr[idx].mean()
                    if clever:
                        scores.train_correction_means[q, t - 1] = sets.train(q, corr).sum() / n_q
            x = next_image = None  # X_t and Phi_{t+1} have served
            if t > 1 or scores is not None:
                next_image = self._image(t) if image is None else image
            image = None
        if scores is not None:
            for q, idx in enumerate(sets.folds):
                plug = self._evaluate(1, fitted[q][0], next_image, observed=False)
                scores.values[idx] += plug[idx]
        return fitted


def cross_fit(
    data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig, folds: Sequence[NDArray],
    clever: bool = False,
) -> HeldOutScores:
    """Fit both nuisance sequences once per fold on the rows outside it, and
    score the fold's rows with them."""
    stages = _Stages(data, plan, cfg, folds)
    shape = (len(folds), data.num_periods)
    scores = HeldOutScores(np.zeros(data.n_units), np.zeros(shape), np.zeros(shape))
    stages.regressions(stages.riesz(), clever, scores)
    return scores


def fit_nested_regressions(
    data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig
) -> list[LinearFn]:
    """Backward pass t = M..1; pseudo-outcome is Y at the horizon, else the
    next period's moment evaluated at the already-fitted regression."""
    return _Stages(data, plan, cfg).regressions(None, clever=False)[0]


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
) -> list[LinearFn]:
    """Backward regression pass with the period's representer appended as an
    unpenalized design column, so every debiasing correction term has
    empirical mean zero by the normal equations and plug-in estimation
    already equals the debiased estimate."""
    stages = _Stages(data, plan, cfg)
    if len(representers) != data.num_periods:
        raise ValidationError("need one representer per period")
    return stages.regressions([tuple(representers)], clever=True)[0]


def fit_nuisances(
    data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig, clever: bool = False
):
    """Fit both sequences on one sample; returns (regressions, representers)."""
    stages = _Stages(data, plan, cfg)
    (representers,) = stages.riesz()
    (regressions,) = stages.regressions([representers], clever)
    return regressions, representers


def _check_setup(data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig) -> None:
    if plan.num_periods != data.num_periods:
        raise ValidationError(
            f"plan covers {plan.num_periods} periods, data has {data.num_periods}"
        )
    if len(cfg.feature_maps) != data.num_periods:
        raise ValidationError("need one feature map per period")
