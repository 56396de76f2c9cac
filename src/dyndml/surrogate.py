"""Long-term treatment effects from a short-term and a long-term sample.

The short sample carries (X, T, S): controls, a binary treatment, and
surrogates. The long sample carries (X, S, Y). Under surrogacy,
conditional exogeneity, and the invariance of E[Y | S, X] across samples,
the effect of T on the unobserved long-term Y is the contrast of
g(T, X) = E_short[h(S, X) | T, X] with h(S, X) = E_long[Y | S, X]. The
debiased moment adds two corrections: the treatment representer a1(T, X) on
the short sample, and the change-of-measure representer a2(S, X), trained
under the long-sample norm against a short-sample functional, on the long
sample.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import (
    Fn,
    LinearFn,
    SolverError,
    ValidationError,
    _check_finite,
    _parse_rows,
    _read_csv,
    _write_csv,
)
from .inference import EstimateReport, _check_fold_scores, _config_echo, make_folds
from .nuisance import FitConfig, _ridge_stage
from .oracle import mix_seed

_DUMMY_CODE = 0  # h and a2 are functions of (S, X) only; arity-1 treatment slot


@dataclass(frozen=True, eq=False)
class SurrogatePair:
    """The two samples; X and S dimensions must agree across them, T is binary."""

    short_x: NDArray
    short_t: NDArray
    short_s: NDArray
    long_x: NDArray
    long_s: NDArray
    long_y: NDArray

    def __post_init__(self) -> None:
        object.__setattr__(self, "short_x", np.atleast_2d(np.asarray(self.short_x, dtype=float)))
        object.__setattr__(self, "short_t", np.asarray(self.short_t, dtype=np.int64))
        object.__setattr__(self, "short_s", np.atleast_2d(np.asarray(self.short_s, dtype=float)))
        object.__setattr__(self, "long_x", np.atleast_2d(np.asarray(self.long_x, dtype=float)))
        object.__setattr__(self, "long_s", np.atleast_2d(np.asarray(self.long_s, dtype=float)))
        object.__setattr__(self, "long_y", np.asarray(self.long_y, dtype=float))
        if self.n_short < 1 or self.n_long < 1:
            raise ValidationError("both samples must be nonempty")
        if self.short_x.shape[1] != self.long_x.shape[1]:
            raise ValidationError("control dimensions differ across samples")
        if self.short_s.shape[1] != self.long_s.shape[1]:
            raise ValidationError("surrogate dimensions differ across samples")
        if self.short_t.shape != (self.n_short,) or not np.isin(self.short_t, (0, 1)).all():
            raise ValidationError("treatment must be binary codes 0/1")
        if self.long_y.shape != (self.n_long,):
            raise ValidationError("long outcome must be one value per record")
        _check_finite(self.short_x, lambda j: f"short sample x_{j + 1}")
        _check_finite(self.short_s, lambda j: f"short sample s_{j + 1}")
        _check_finite(self.long_x, lambda j: f"long sample x_{j + 1}")
        _check_finite(self.long_s, lambda j: f"long sample s_{j + 1}")
        _check_finite(self.long_y, lambda j: "long sample y")

    @property
    def n_short(self) -> int:
        return self.short_x.shape[0]

    @property
    def n_long(self) -> int:
        return self.long_x.shape[0]

    @property
    def short_sx(self) -> NDArray:
        return np.hstack([self.short_s, self.short_x])

    @property
    def long_sx(self) -> NDArray:
        return np.hstack([self.long_s, self.long_x])

    def subset(self, short_idx: NDArray, long_idx: NDArray) -> "SurrogatePair":
        return SurrogatePair(
            short_x=self.short_x[short_idx],
            short_t=self.short_t[short_idx],
            short_s=self.short_s[short_idx],
            long_x=self.long_x[long_idx],
            long_s=self.long_s[long_idx],
            long_y=self.long_y[long_idx],
        )


@dataclass(frozen=True)
class SurrogateNuisances:
    """h = E_long[Y | S, X]; g = E_short[h | T, X]; a1 the treatment
    representer under the short law; a2 the surrogate score: the
    long-law representer of the short-sample functional E_s[a1 * h-eval]."""

    h: Fn
    g: Fn
    a1: Fn
    a2: Fn


def _check_cfg(cfg: FitConfig) -> None:
    if len(cfg.feature_maps) != 2:
        raise ValidationError(
            "surrogate fits need two feature maps: (controls, binary treatment) "
            "and (surrogates+controls)"
        )
    if cfg.feature_maps[0].arity != 2:
        raise ValidationError("the (T, X) feature map must have treatment arity 2")


def surrogate_fit(data: SurrogatePair, cfg: FitConfig) -> SurrogateNuisances:
    """Fit all four nuisances on the given samples.

    a1 minimizes E_s[a(T,X)^2 - 2(a(1,X) - a(0,X))]; a2 minimizes the
    cross-sample risk E_l[a(S,X)^2] - 2 E_s[a1(T,X) a(S,X)], each with a
    ridge penalty on the normalized Gram.
    """
    _check_cfg(cfg)
    phi_tx, phi_sx = cfg.feature_maps
    n_s, n_l = data.n_short, data.n_long
    dummy_s = np.zeros(n_s, dtype=np.int64)

    x_sx_long = phi_sx.batch(data.long_sx, np.zeros(n_l, dtype=np.int64))
    solve_sx = _ridge_stage(x_sx_long.T @ x_sx_long / n_l, n_l, cfg, 2)
    h = LinearFn(
        phi_sx, solve_sx(x_sx_long.T @ data.long_y / n_l, "h (long-sample regression)")
    )

    x_tx = phi_tx.batch(data.short_x, data.short_t)
    solve_tx = _ridge_stage(x_tx.T @ x_tx / n_s, n_s, cfg, 1)
    rhs_a1 = (
        phi_tx.batch(data.short_x, np.ones(n_s, dtype=np.int64))
        - phi_tx.batch(data.short_x, dummy_s)
    ).mean(axis=0)
    a1 = LinearFn(phi_tx, solve_tx(rhs_a1, "a1 (treatment representer)"), clip=cfg.clip)

    x_sx_short = phi_sx.batch(data.short_sx, dummy_s)
    h_short = h.at_features(x_sx_short)
    g = LinearFn(phi_tx, solve_tx(x_tx.T @ h_short / n_s, "g (short-sample projection)"))

    rhs_a2 = (a1.at_features(x_tx)[:, None] * x_sx_short).mean(axis=0)
    a2 = LinearFn(phi_sx, solve_sx(rhs_a2, "a2 (surrogate score)"), clip=cfg.clip)

    return SurrogateNuisances(h=h, g=g, a1=a1, a2=a2)


def surrogate_scores(
    data: SurrogatePair, nuisances: SurrogateNuisances
) -> tuple[NDArray, NDArray]:
    """Per-record score contributions: (short-sample terms, long-sample terms)."""
    n_s, n_l = data.n_short, data.n_long
    dummy_s = np.zeros(n_s, dtype=np.int64)
    dummy_l = np.zeros(n_l, dtype=np.int64)
    g1 = nuisances.g.batch(data.short_x, np.ones(n_s, dtype=np.int64))
    g0 = nuisances.g.batch(data.short_x, np.zeros(n_s, dtype=np.int64))
    g_obs = nuisances.g.batch(data.short_x, data.short_t)
    h_short = nuisances.h.batch(data.short_sx, dummy_s)
    a1 = nuisances.a1.batch(data.short_x, data.short_t)
    short_term = g1 - g0 + a1 * (h_short - g_obs)
    h_long = nuisances.h.batch(data.long_sx, dummy_l)
    a2 = nuisances.a2.batch(data.long_sx, dummy_l)
    long_term = a2 * (data.long_y - h_long)
    return short_term, long_term


def surrogate_estimate(
    data: SurrogatePair, cfg: FitConfig, q_folds: int, seed: int
) -> EstimateReport:
    """Cross-fitted two-sample estimate.

    Each sample is split into Q folds independently (the samples share no
    units); fold q of the short sample reuses the h trained on the
    complement of fold q of the long sample. The two samples are treated as
    independent for the variance: the reported sigma^2 is
    V_short + V_long * n_short/n_long under the single-sqrt(n_short) report
    convention, so sigma^2 / n_short = V_s/n_s + V_l/n_l.
    """
    folds_s = make_folds(data.n_short, q_folds, seed)
    folds_l = make_folds(data.n_long, q_folds, mix_seed(seed, 1))
    short_scores = np.empty(data.n_short)
    long_scores = np.empty(data.n_long)
    per_fold: list[dict] = []
    for q in range(q_folds):
        train = data.subset(folds_s.complement(q), folds_l.complement(q))
        try:
            nus = surrogate_fit(train, cfg)
        except (SolverError, ValidationError) as exc:
            raise type(exc)(f"fold {q}: {exc}") from exc
        hold = data.subset(folds_s.folds[q], folds_l.folds[q])
        s_term, l_term = surrogate_scores(hold, nus)
        _check_fold_scores(q, s_term, l_term)
        short_scores[folds_s.folds[q]] = s_term
        long_scores[folds_l.folds[q]] = l_term
        per_fold.append(
            {
                "fold": q,
                "short_size": int(folds_s.folds[q].shape[0]),
                "long_size": int(folds_l.folds[q].shape[0]),
                "short_mean": float(s_term.mean()),
                "long_mean": float(l_term.mean()),
            }
        )
    theta = float(short_scores.mean() + long_scores.mean())
    v_short = float(np.mean((short_scores - short_scores.mean()) ** 2))
    v_long = float(np.mean((long_scores - long_scores.mean()) ** 2))
    sigma = math.sqrt(v_short + v_long * data.n_short / data.n_long)
    config = _config_echo(
        cfg, variance_convention="sigma^2 = V_short + V_long * n_short/n_long; n = n_short"
    )
    return EstimateReport._with_interval(
        theta, sigma, data.n_short, q_folds, seed, per_fold, config,
        n_short=data.n_short, n_long=data.n_long,
    )


# ---------------------------------------------------------------------------
# CSV schemas: short `x_1..x_p,t,s_1..s_q`; long `x_1..x_p,s_1..s_q,y`
# ---------------------------------------------------------------------------


def write_surrogate_csvs(data: SurrogatePair, short_path: str, long_path: str) -> None:
    p, q = data.short_x.shape[1], data.short_s.shape[1]
    xs, ss = [f"x_{j}" for j in range(1, p + 1)], [f"s_{j}" for j in range(1, q + 1)]
    _write_csv(short_path, xs + ["t"] + ss, [data.short_x, data.short_t, data.short_s])
    _write_csv(long_path, xs + ss + ["y"], [data.long_x, data.long_s, data.long_y])


_SURROGATE_COLUMN = re.compile(r"([xs])_(\d+)|t|y")


def _split_columns(header: list[str], path: str) -> tuple[list[int], list[int], int | None, int | None]:
    cols: dict[str, list[tuple[int, int]]] = {"x": [], "s": []}
    t_col = y_col = None
    for i, name in enumerate(header):
        match = _SURROGATE_COLUMN.fullmatch(name)
        if match is None:
            raise ValidationError(f"{path}: unrecognized column {name!r}")
        if name == "t":
            t_col = i
        elif name == "y":
            y_col = i
        else:
            cols[match.group(1)].append((int(match.group(2)), i))
    return [i for _, i in sorted(cols["x"])], [i for _, i in sorted(cols["s"])], t_col, y_col


def read_surrogate_csvs(short_path: str, long_path: str) -> SurrogatePair:
    short_header, sb = _read_csv(short_path)
    long_header, lb = _read_csv(long_path)
    if not sb or not lb:
        raise ValidationError("surrogate samples must be nonempty")
    xs, ss, t_col, _ = _split_columns(short_header, short_path)
    if t_col is None:
        raise ValidationError(f"{short_path}: missing column t")
    xl, sl, _, y_col = _split_columns(long_header, long_path)
    if y_col is None:
        raise ValidationError(f"{long_path}: missing column y")
    short_x, short_t, short_s = _parse_rows(short_path, short_header, sb, lambda: (
        np.array([[float(r[c]) for c in xs] for r in sb]),
        np.array([int(r[t_col]) for r in sb]),
        np.array([[float(r[c]) for c in ss] for r in sb]),
    ))
    long_x, long_s, long_y = _parse_rows(long_path, long_header, lb, lambda: (
        np.array([[float(r[c]) for c in xl] for r in lb]),
        np.array([[float(r[c]) for c in sl] for r in lb]),
        np.array([float(r[y_col]) for r in lb]),
    ))
    return SurrogatePair(short_x, short_t, short_s, long_x, long_s, long_y)
