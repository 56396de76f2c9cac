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

`surrogate_fit` and `surrogate_estimate` take the `fit` and `scores` of one
engine, `_stages`: a two-period recursion on the panel's `nuisance._Stages`.
Each sample becomes its units as a panel does (`nuisance._units`: distinct
(fold, x, t, s) rows when all-tabular), with a `nuisance._TrainingSets` per
sample. Period 1 is phi_tx(X, T) on the short units, its code weights the
contrast W = [-1, +1]: a1 = a_1 and g = f_1. Period 2 is phi_sx(S, X) fitted
on the long units, its moment h(S, X) formed on the short units (W = 1 at
code 0): h = f_2 and a2 = a_2. Each sample is scored on its units as a panel
is (`nuisance._UnitScores`), a2 (y - h) standing for a_M.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import (
    Fn,
    ValidationError,
    _check_finite,
    _block,
    _columns,
    _indexed_columns,
    _ladder,
    _read_csv,
    _write_csv,
)
from .inference import (EstimateReport, _check_fold_scores, _config_echo, _fold_labels,
                        _fold_sizes)
from .nuisance import FitConfig, _check_tabular_cells, _Design, _Stages, _TrainingSets, _units
from .oracle import mix_seed


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


@dataclass(frozen=True)
class SurrogateNuisances:
    """h = E_long[Y | S, X]; g = E_short[h | T, X]; a1 the treatment
    representer under the short law; a2 the surrogate score: the
    long-law representer of the short-sample functional E_s[a1 * h-eval]."""

    h: Fn
    g: Fn
    a1: Fn
    a2: Fn


def _stages(
    data: SurrogatePair, cfg: FitConfig, q_folds: int | None = None,
    fold_s: NDArray | None = None, fold_l: NDArray | None = None,
) -> _Stages:
    """The module's two-period recursion on `nuisance._Stages`, over three
    factored designs built once on the samples' units (`nuisance._units`):
    with each sample's row folds (fold_s, fold_l, of q_folds), one training
    set per pair (short fold q's complement, long fold q's), else the one
    set of the whole samples. Both samples are in the long outcome's scale.

    a1 minimizes E_s[a(T,X)^2 - 2(a(1,X) - a(0,X))]; a2 minimizes the
    cross-sample risk E_l[a(S,X)^2] - 2 E_s[a1(T,X) a(S,X)], each with a ridge
    penalty on the normalized Gram. The short sample (X, T) Gram is checked
    first, then the long sample (S, X) one.
    """
    if len(cfg.feature_maps) != 2:
        raise ValidationError(
            "surrogate fits need two feature maps: (controls, binary treatment) "
            "and (surrogates+controls)"
        )
    if cfg.feature_maps[0].arity != 2:
        raise ValidationError("the (T, X) feature map must have treatment arity 2")
    _check_tabular_cells(cfg.feature_maps, ["(X, T)", "(S, X)"], [data.n_short, data.n_long])
    phi_tx, phi_sx = cfg.feature_maps
    names = ("short sample (X, T)", "short sample (S, X)", "long sample (S, X)")
    zeros_s, zeros_l = (np.zeros(n, dtype=np.int64) for n in (data.n_short, data.n_long))
    su = _units([(phi_tx, data.short_x, data.short_t), (phi_sx, data.short_sx, zeros_s)],
                np.zeros(data.n_short), fold_s, q_folds or 1, names[:2])  # no outcome: no spread
    lu = _units([(phi_sx, data.long_sx, zeros_l)], data.long_y, fold_l, q_folds or 1, names[2:])
    short = _TrainingSets(su.counts, su.weights, q_folds)
    long = _TrainingSets(lu.counts, lu.weights, q_folds)
    x_tx, n = _Design(phi_tx, su, 0, short, cfg, 1, names[0]), len(su.codes[0])
    return _Stages(
        [x_tx, _Design(phi_sx, lu, 0, long, cfg, 2, names[2])],
        [x_tx, _Design(phi_sx, su, 1, short, cfg, 2, names[1])],
        [np.broadcast_to(np.array([[-1.0], [1.0]]), (2, n)),
         np.broadcast_to(np.eye(phi_sx.arity, 1), (phi_sx.arity, n))], lu, cfg)


def surrogate_fit(data: SurrogatePair, cfg: FitConfig) -> SurrogateNuisances:
    """Fit all four nuisances on the given samples: `_stages`' one-set fit."""
    (g, h), (a1, a2) = _stages(data, cfg).fit()
    return SurrogateNuisances(h=h, g=g, a1=a1, a2=a2)


def surrogate_scores(
    data: SurrogatePair, nuisances: SurrogateNuisances
) -> tuple[NDArray, NDArray]:
    """Per-record score contributions by `core._ladder`: short-sample terms
    g(1, X) - g(0, X) + a1 (h - g), and long-sample terms a2 (y - h)."""
    x, t, g, h = data.short_x, data.short_t, nuisances.g, nuisances.h
    ones, zeros = np.ones(data.n_short, dtype=np.int64), np.zeros(data.n_short, dtype=np.int64)
    long_zeros = np.zeros(data.n_long, dtype=np.int64)
    return (_ladder(g.batch(x, ones) - g.batch(x, zeros),
                    [(nuisances.a1.batch(x, t), h.batch(data.short_sx, zeros), g.batch(x, t))])[0],
            _ladder(np.zeros(data.n_long), [(nuisances.a2.batch(data.long_sx, long_zeros),
                                             data.long_y, h.batch(data.long_sx, long_zeros))])[0])


def surrogate_estimate(
    data: SurrogatePair, cfg: FitConfig, q_folds: int, seed: int
) -> EstimateReport:
    """Cross-fitted two-sample estimate.

    Each sample is split into Q folds independently (the samples share no
    units); fold q of the short sample reuses the h trained on the
    complement of fold q of the long sample; the designs are built once and
    solved for every fold (`_stages`). The two samples are treated as
    independent for the variance: the reported sigma^2 is
    V_short + V_long * n_short/n_long under the single-sqrt(n_short) report
    convention, so sigma^2 / n_short = V_s/n_s + V_l/n_l.
    """
    sizes_s = _fold_sizes(data.n_short, q_folds, "short sample: ")
    sizes_l = _fold_sizes(data.n_long, q_folds, "long sample: ")
    fold_s = _fold_labels(data.n_short, q_folds, seed)
    fold_l = _fold_labels(data.n_long, q_folds, mix_seed(seed, 1))
    (short, long), _ = _stages(data, cfg, q_folds, fold_s, fold_l).scores()[0]
    means_s, means_l = short.fold_means(sizes_s)[0], long.fold_means(sizes_l)[0]
    _check_fold_scores(means_s, means_l)
    per_fold = [{"fold": q, "short_size": sizes_s[q], "long_size": sizes_l[q],
                 "short_mean": float(means_s[q]), "long_mean": float(means_l[q])}
                for q in range(q_folds)]
    (theta_s, sd_s), (theta_l, sd_l) = short.mean_sd(), long.mean_sd()
    theta, sigma = theta_s + theta_l, math.hypot(sd_s, sd_l * math.sqrt(data.n_short / data.n_long))
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


def _split_columns(path: str, header: list[str], other: str) -> tuple[list[str], list[str]]:
    """The x_* and s_* columns in index order; the one other column is t in the
    short file and y in the long one."""
    for name in header:
        if name != other and re.fullmatch(r"[xs]_\d+", name) is None:
            raise ValidationError(f"{path}: unrecognized column {name!r}")
    if other not in header:
        raise ValidationError(f"{path}: missing column {other}")
    xs, ss = (_indexed_columns(path, header, prefix) for prefix in ("x_", "s_"))
    return xs, ss


def read_surrogate_csvs(short_path: str, long_path: str) -> SurrogatePair:
    short_header, short_cells, ns = _read_csv(short_path)
    long_header, long_cells, nl = _read_csv(long_path)
    if not ns or not nl:
        raise ValidationError("surrogate samples must be nonempty")
    xs, ss = _split_columns(short_path, short_header, "t")
    xl, sl = _split_columns(long_path, long_header, "y")
    short = _columns(short_path, short_header, short_cells, ns)
    long_ = _columns(long_path, long_header, long_cells, nl)
    return SurrogatePair(
        _block(short, xs, ns), short["t"], _block(short, ss, ns),
        _block(long_, xl, nl), _block(long_, sl, nl), long_["y"],
    )
