"""Fitting the two recursive nuisance sequences over a linear function class.

Backward pass: nested regressions, each period ridge-regressing a
pseudo-outcome (the next period's moment evaluation, or Y at the horizon) on
features of the observed (state, treatment). Forward pass: Riesz
representers, each period minimizing the quadratic representer loss whose
evaluation term reuses the previous period's fitted representer. Both
problems are convex quadratics over a linear class and are solved in closed
form, so acceptance tests see no optimizer noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            "singular normal equations (rank-deficient design); "
            "set a positive ridge penalty"
        ) from exc
    z = np.linalg.solve(chol, b)
    return np.linalg.solve(chol.T, z)


def _ridge_stage(x: NDArray, cfg: FitConfig, period: int) -> Callable[..., NDArray]:
    """One penalized quadratic stage over design x: returns solve(rhs, where,
    border=None) for (G + lam I) beta = rhs, with the normalized Gram G = X'X/n
    formed once and lam resolved from it by cfg.stage_ridge. A border
    (X'c/n, c'c/n) appends one unpenalized design column c, and `rhs` then ends
    with its entry. The design itself is not retained."""
    n = x.shape[0]
    gram = x.T @ x / n
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
            raise SolverError(f"{where}: {exc}") from exc

    return solve


def _backward_pass(
    data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig, representers: Sequence[Fn] | None
) -> list[LinearFn]:
    """Regress t = M..1 the pseudo-outcome (Y at the horizon, else the next
    period's moment at the already-fitted regression) on phi_t(S_t, T_t); with
    `representers`, each period's representer joins the design unpenalized."""
    m = data.num_periods
    n = data.n_units
    fitted: list[LinearFn | None] = [None] * m
    for t in range(m, 0, -1):
        phi = cfg.feature_maps[t - 1]
        x = phi.batch(data.states[t - 1], data.treatments[:, t - 1])
        u = data.outcome if t == m else moment_batch(plan, t + 1, data, fitted[t])
        solve = _ridge_stage(x, cfg, t)
        rhs = x.T @ u / n
        if representers is None:
            fitted[t - 1] = LinearFn(phi, solve(rhs, f"period {t}"))
            continue
        a_vals = representers[t - 1].batch(data.states[t - 1], data.treatments[:, t - 1])
        if np.any(a_vals):
            border = (x.T @ a_vals / n, a_vals @ a_vals / n)
            beta = solve(np.append(rhs, a_vals @ u / n), f"period {t}", border)
        else:
            # Degenerate clever column: keep the plain fit, coefficient 0.
            beta = np.append(solve(rhs, f"period {t}"), 0.0)
        fitted[t - 1] = LinearFn(ExtendedFeatures(phi, representers[t - 1]), beta)
    return fitted  # type: ignore[return-value]


def fit_nested_regressions(
    data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig
) -> list[LinearFn]:
    """Backward pass t = M..1; pseudo-outcome is Y at the horizon, else the
    next period's moment evaluated at the already-fitted regression."""
    _check_setup(data, plan, cfg)
    return _backward_pass(data, plan, cfg, None)


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
    _check_setup(data, plan, cfg)
    fitted: list[LinearFn] = []
    prev_vals = np.ones(data.n_units)
    for t in range(1, data.num_periods + 1):
        phi = cfg.feature_maps[t - 1]
        x = phi.batch(data.states[t - 1], data.treatments[:, t - 1])
        combo = _term_sum(plan, t, data, phi.batch, phi.arity, (phi.dim,))
        rhs = (combo * prev_vals[:, None]).mean(axis=0)
        a_t = LinearFn(phi, _ridge_stage(x, cfg, t)(rhs, f"period {t}"), clip=cfg.clip)
        fitted.append(a_t)
        prev_vals = a_t.at_features(x)
    return fitted


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
    _check_setup(data, plan, cfg)
    if len(representers) != data.num_periods:
        raise ValidationError("need one representer per period")
    return _backward_pass(data, plan, cfg, representers)


def fit_nuisances(
    data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig, clever: bool = False
):
    """Fit both sequences on one sample; returns (regressions, representers)."""
    representers = fit_recursive_riesz(data, plan, cfg)
    if clever:
        regressions = fit_clever_covariate(data, plan, representers, cfg)
    else:
        regressions = fit_nested_regressions(data, plan, cfg)
    return regressions, representers


def _check_setup(data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig) -> None:
    if plan.num_periods != data.num_periods:
        raise ValidationError(
            f"plan covers {plan.num_periods} periods, data has {data.num_periods}"
        )
    if len(cfg.feature_maps) != data.num_periods:
        raise ValidationError("need one feature map per period")
