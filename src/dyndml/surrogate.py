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

`surrogate_fit` and `surrogate_estimate` share one engine, `_cross_fit`, on
the factored designs of `nuisance._Design` over a `nuisance._TrainingSets`
per sample: the bases of phi_sx(long S, X), phi_tx(X, T) and
phi_sx(short S, X) are built once per call; phi_sx is evaluated at code 0,
and phi_tx(X, 1) - phi_tx(X, 0) is the code weights W = [-1, +1]. Each of
the stages h, a1, g and a2 is solved for every pair of training sets in one
batched call, and held-out records are scored from the same bases.
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
from .inference import EstimateReport, _check_fold_scores, _config_echo, make_folds
from .nuisance import FitConfig, _check_tabular_cells, _Design, _TrainingSets
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


def _cross_fit(
    data: SurrogatePair, cfg: FitConfig, short: _TrainingSets, long: _TrainingSets,
    scores: tuple[NDArray, NDArray] | None = None,
) -> list[SurrogateNuisances]:
    """All four nuisances for every pair (short set s, long set s) of training
    sets, each stage solved for every pair in one batched call on three
    factored designs built once on the whole samples; with `scores` (short,
    long), each fold's held-out records are scored from them.

    a1 minimizes E_s[a(T,X)^2 - 2(a(1,X) - a(0,X))], whose right-hand side
    carries the code weights W = [-1, +1]; a2 minimizes the cross-sample risk
    E_l[a(S,X)^2] - 2 E_s[a1(T,X) a(S,X)], each with a ridge penalty on the
    normalized Gram. phi_sx is evaluated at code 0 throughout.
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
    zeros_long, zeros_short = (np.zeros(n, dtype=np.int64) for n in (data.n_long, data.n_short))
    x_tx = _Design(phi_tx, data.short_x, data.short_t, short, cfg, 1, "short sample (X, T)")
    x_long = _Design(phi_sx, data.long_sx, zeros_long, long, cfg, 2, "long sample (S, X)")
    x_short = _Design(phi_sx, data.short_sx, zeros_short, short, cfg, 2, "short sample (S, X)")
    contrast = np.broadcast_to(np.array([[-1.0], [1.0]]), (2, data.n_short))
    x_tx.require(contrast)
    y = long.rows(data.long_y)
    h = x_long.solve(long.shared(x_long.scatter(y), x_long.basis), "h (long-sample regression)")[0]
    a1 = x_tx.solve(short.shared(contrast, x_tx.basis), "a1 (treatment representer)")[0]
    rhs_g, rhs_a2 = [], []
    held = np.empty((4, data.n_short))  # each record's a1, h, g(1, X) - g(0, X), g
    for run in short.runs:
        h_short = x_short.pick(x_short.values(h, None, run))
        a1_vals = x_tx.pick(x_tx.values(a1, cfg.clip, run))
        rhs_g.append(short.means(x_tx.scatter(h_short), x_tx.basis, run))
        rhs_a2.append(short.means(x_short.scatter(a1_vals), x_short.basis, run))
        if scores is not None:
            short.own(a1_vals, run, held[0])
            short.own(h_short, run, held[1])
    g = x_tx.solve(short.joined(rhs_g), "g (short-sample projection)")[0]
    a2 = x_long.solve(short.joined(rhs_a2), "a2 (surrogate score)")[0]
    if scores is not None:
        for run in short.runs:
            g_vals = x_tx.values(g, None, run)
            short.own(g_vals[:, 1] - g_vals[:, 0], run, held[2])
            x_tx.own(g_vals, run, held[3])
        h_long, a2_long = np.empty((2, data.n_long))
        for run in long.runs:
            x_long.own(x_long.values(h, None, run), run, h_long)
            x_long.own(x_long.values(a2, cfg.clip, run), run, a2_long)
        scores[0][short.order], scores[1][long.order] = _two_sample_scores(
            held[2], (held[0], held[1], held[3]), (a2_long, y, h_long))
    return [SurrogateNuisances(h=x_long.fn(h[s]), g=x_tx.fn(g[s]), a1=x_tx.fn(a1[s], cfg.clip),
                               a2=x_long.fn(a2[s], cfg.clip)) for s in range(len(short.sizes))]


def surrogate_fit(data: SurrogatePair, cfg: FitConfig) -> SurrogateNuisances:
    """Fit all four nuisances on the given samples: `_cross_fit`'s one-set case."""
    return _cross_fit(data, cfg, _TrainingSets(data.n_short), _TrainingSets(data.n_long))[0]


def surrogate_scores(
    data: SurrogatePair, nuisances: SurrogateNuisances
) -> tuple[NDArray, NDArray]:
    """Per-record score contributions: (short-sample terms, long-sample terms)."""
    x, t, g = data.short_x, data.short_t, nuisances.g
    ones, zeros = np.ones(data.n_short, dtype=np.int64), np.zeros(data.n_short, dtype=np.int64)
    long_zeros = np.zeros(data.n_long, dtype=np.int64)
    return _two_sample_scores(
        g.batch(x, ones) - g.batch(x, zeros),
        (nuisances.a1.batch(x, t), nuisances.h.batch(data.short_sx, zeros), g.batch(x, t)),
        (nuisances.a2.batch(data.long_sx, long_zeros), data.long_y,
         nuisances.h.batch(data.long_sx, long_zeros)))


def _two_sample_scores(contrast: NDArray, short: tuple, long: tuple) -> tuple[NDArray, NDArray]:
    """The two-sample score of evaluated nuisances by `core._ladder`: short-sample
    terms g(1, X) - g(0, X) + a1 (h - g) from the contrast and (a1, h, g), and
    long-sample terms a2 (y - h) from a zero plug-in and (a2, y, h)."""
    return _ladder(contrast, [short])[0], _ladder(np.zeros(len(long[1])), [long])[0]


def surrogate_estimate(
    data: SurrogatePair, cfg: FitConfig, q_folds: int, seed: int
) -> EstimateReport:
    """Cross-fitted two-sample estimate.

    Each sample is split into Q folds independently (the samples share no
    units); fold q of the short sample reuses the h trained on the
    complement of fold q of the long sample; the designs are built once and
    solved for every fold (`_cross_fit`). The two samples are treated as
    independent for the variance: the reported sigma^2 is
    V_short + V_long * n_short/n_long under the single-sqrt(n_short) report
    convention, so sigma^2 / n_short = V_s/n_s + V_l/n_l.
    """
    folds_s = make_folds(data.n_short, q_folds, seed).folds
    folds_l = make_folds(data.n_long, q_folds, mix_seed(seed, 1)).folds
    short_scores, long_scores = np.empty(data.n_short), np.empty(data.n_long)
    sets = (_TrainingSets(data.n_short, folds_s), _TrainingSets(data.n_long, folds_l))
    _cross_fit(data, cfg, *sets, scores=(short_scores, long_scores))
    per_fold: list[dict] = []
    for q, (idx_s, idx_l) in enumerate(zip(folds_s, folds_l)):
        s_term, l_term = short_scores[idx_s], long_scores[idx_l]
        _check_fold_scores(q, s_term, l_term)
        per_fold.append({
            "fold": q, "short_size": int(idx_s.shape[0]), "long_size": int(idx_l.shape[0]),
            "short_mean": float(s_term.mean()), "long_mean": float(l_term.mean()),
        })
    theta = float(short_scores.mean() + long_scores.mean())
    v_short, v_long = float(short_scores.var()), float(long_scores.var())
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
    short_header, sb = _read_csv(short_path)
    long_header, lb = _read_csv(long_path)
    if not sb or not lb:
        raise ValidationError("surrogate samples must be nonempty")
    xs, ss = _split_columns(short_path, short_header, "t")
    xl, sl = _split_columns(long_path, long_header, "y")
    short, long_ = _columns(short_path, short_header, sb), _columns(long_path, long_header, lb)
    return SurrogatePair(
        _block(short, xs, len(sb)), short["t"], _block(short, ss, len(sb)),
        _block(long_, xl, len(lb)), _block(long_, sl, len(lb)), long_["y"],
    )
