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
and never builds the n x p design or moment image. A period may be fitted on
one sample and its moment formed on the previous period's: the surrogate
estimator is a two-period `_Stages` over its two samples. Every per-row array
is column-major, so elementwise passes run along contiguous columns. Every
sum over a set, a Gram (block-diagonal by code) or a right-hand side, whether
every set shares its input or not, is one reduction: one product per fold
block (per (fold, code) block for Grams), then each set adds the other folds'
blocks of its replicate. Each design's set x code systems are formed and
checked once, as the stages are built, and each stage solves them in one
batched call. The engine gives two results: `_Stages.scores`, the held-out
scores of one training set per fold (`cross_fit`), and `_Stages.fit`, the
one-training-set fit as functions (the public fits).

The training sets are grouped by replicate: the engine may fit the stacked
units of several replicates (a Monte Carlo chunk, `stack_units`), each
reduced with its own folds, and a set is one fold's complement within its
replicate. Every sum stays within a replicate, each set's fitted functions
are valued on its replicate's units only, all the sets of a replicate in one
product, and every check a lone panel gets is made per replicate, so each
replicate's estimate is the one it gets alone, up to rounding.

Every sample, a replicate's panel or a surrogate sample, becomes its units in
one step, `_units`, the only reordering: on all-tabular samples on their grids
the distinct (fold, history) rows weighted by their counts w (Grams
B' diag(w) B), with their rows' mean outcome and its spread, else the rows
sorted fold by fold (w = 1, no spread). The score is affine in Y, through
a_M (Y - f_M), so a unit's score at its mean outcome is its rows' mean score
and |a_M| times its outcome spread is theirs: units are scored, not rows.
Every fit is linear in Y, so the step scales Y once by a power of two (exact)
and the estimates are divided by it last: no sum of Y overflows where the
estimate is representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .core import (
    CombinedFn,
    FeatureMap,
    Fn,
    LinearFn,
    PanelDataset,
    PositivityError,
    SolverError,
    TabularFeatures,
    TreatmentPlan,
    ValidationError,
    _check_clip,
    _check_codes,
    _check_factored,
    _code_blocks,
    _code_weights,
    _ladder,
    _one_hot,
    moment_batch,
)

DEFAULT_RIDGE_SCALE = 1e-3

# A tabular state may differ from its grid row by at most this much, relative to
# 1 + |grid value|, in each coordinate; the estimators reject one farther off.
GRID_TOLERANCE = 1e-9

# Training sets are valued a run of folds at a time (`_TrainingSets.runs`), with
# at most this many packed entries (1 MB) per code: every fold at once on small
# panels, as few as one on large ones.
_PACKED = 2 ** 17

# A clever border's Schur complement at most this share of its d is rounding (over 1000
# times the largest measured): the column is in the design's span; the set keeps the plain fit.
_IN_SPAN = 2.0 ** -40


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
        if np.ndim(self.ridge) == 1:  # a sequence or a 1-d array: one value per period
            object.__setattr__(self, "ridge", tuple(float(r) for r in self.ridge))
            if len(self.ridge) != len(self.feature_maps):
                raise ValidationError("need one ridge value per period")
        elif self.ridge is not None:  # numpy scalars read as floats, as reports echo them
            object.__setattr__(self, "ridge", float(self.ridge))
        if self.clip is not None:
            object.__setattr__(self, "clip", float(self.clip))
        _check_clip(self.clip)
        for r in self.ridge if isinstance(self.ridge, tuple) else (self.ridge,):
            if r is not None and not math.isfinite(r):
                raise ValidationError(f"ridge penalty must be finite, got {r}")
            if r is not None and r < 0:
                raise ValidationError("ridge penalty must be nonnegative")
        for t, phi in enumerate(self.feature_maps, start=1):
            _check_factored(phi, f"feature map {t}")

    def stage_ridge(self, period: int, gram: NDArray, n: int | NDArray) -> float | NDArray:
        """Resolved normalized-Gram penalty for a 1-based period; `gram` is the
        p x p Gram or its (K, q, q) diagonal blocks (p = K q), or the blocks
        (S, K, q, q) of S training sets whose sizes are n (S,)."""
        if isinstance(self.ridge, tuple):
            return self.ridge[period - 1]
        if self.ridge is not None:
            return float(self.ridge)
        trace, p = np.trace(gram, axis1=-2, axis2=-1), gram.shape[-1]
        if gram.ndim > 2:
            trace, p = trace.sum(axis=-1), p * gram.shape[-3]
        return DEFAULT_RIDGE_SCALE * np.asarray(n, dtype=float) ** -0.5 * trace / p


def _positive_definite(a: NDArray) -> bool:
    """Whether every stacked matrix has a Cholesky factor."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


class _TrainingSets:
    """Training sets over units held in fold-major order (`_units`), given the
    unit count of each fold. With `q_folds`, the units are one or more
    replicates, each split into `q_folds` folds (counts[r Q + q] is fold q of
    replicate r), and set s = r Q + q is every unit of replicate r outside its
    fold q, the run `held(s)`. Without, counts is (1,) and the one set is every
    unit. Unit i counts weights[i] times in every sum (once when `weights` is
    None), so `sizes`, the sets' weight totals, normalize the means and Grams,
    both one reduction: block sums over runs of units (`_blocks`), combined
    per set (`_combine`).

    A value each set takes on the units of its replicate is packed (Q', ..., n)
    for a run of Q' folds (`runs`): entry [j, ..., i] is set (r Q + q)'s, q the
    run's j-th fold and r the replicate of unit i, so the sets of every
    replicate share one array and no set is valued on another replicate's
    units. A run is every fold unless its packed values would pass _PACKED
    entries per code, so the memory they take is bounded whatever n is."""

    def __init__(self, counts: NDArray, weights: NDArray | None = None,
                 q_folds: int | None = None) -> None:
        self.folded, self.q, self.weights = q_folds is not None, q_folds or 1, weights
        self.bounds = np.concatenate([[0], np.cumsum(counts)])
        self.spans = self.bounds[::self.q]
        step = max(1, _PACKED // int(self.bounds[-1]))
        self.runs = [slice(lo, min(lo + step, self.q)) for lo in range(0, self.q, step)]
        reps = len(counts) // self.q
        self.fold = np.repeat(np.tile(np.arange(self.q, dtype=np.min_scalar_type(self.q)), reps),
                              counts)
        self.rep = np.repeat(np.arange(reps, dtype=np.min_scalar_type(reps)), np.diff(self.spans))
        held = counts if weights is None else np.add.reduceat(weights, self.bounds[:-1])
        held = np.asarray(held, dtype=float).reshape(-1, self.q)
        self.sizes = (held.sum(axis=1, keepdims=True) - held if self.folded else held).ravel()

    def own(self, x: NDArray, run: slice, out: NDArray, at: NDArray | None = None) -> None:
        """Write into out (n,) each unit's entry of packed x (Q', m) for the set
        its fold is held out of, for the units of the folds in `run`: entry i of
        unit i, or at[i] (m = K n for per-code values, at a unit's own code)."""
        units = np.flatnonzero((self.fold >= run.start) & (self.fold < run.stop))
        pick = np.multiply(self.fold[units] - run.start, x.shape[-1], dtype=np.intp)
        pick += units if at is None else at[units]
        out[units] = x.reshape(-1)[pick]

    def spread(self, v: NDArray, run: slice) -> NDArray:
        """Per-set scalars v (S,) packed (Q', n) for `run`."""
        return v.reshape(-1, self.q)[:, run].T[:, self.rep]

    def means(self, x: NDArray, basis: NDArray, run: slice | None = None) -> NDArray:
        """The weighted mean over each set's units of x_i basis_i: for an input
        every set shares, x (..., n), every set's (S, ..., q); for x packed
        (Q', ..., n) for `run`, (R, Q', ..., q) (`joined` stacks the runs'
        parts). The weights scale the basis, not the wider packed x."""
        if self.weights is not None:
            basis = basis * self.weights[:, None]
        return self._combine(_blocks(x, basis, self.bounds), run)

    def joined(self, parts: Sequence[NDArray]) -> NDArray:
        """(S, ...): the runs' (R, Q', ...) parts in set order."""
        x = np.concatenate(parts, axis=1)
        return x.reshape((-1,) + x.shape[2:])

    def grams(self, basis: NDArray, codes: NDArray, k: int) -> NDArray:
        """Every set's normalized Gram B' diag(w) B of the units basis_i in the
        block of codes[i], as its K diagonal blocks: (S, K, q, q). Units are
        grouped by (fold, code) with one stable sort on a small-int key and
        gathered along memory order, so each (fold, code) block is one run."""
        n_folds, q = self.bounds.shape[0] - 1, basis.shape[1]
        small = np.min_scalar_type(n_folds * k)
        key = np.repeat(np.arange(n_folds, dtype=small) * small.type(k), np.diff(self.bounds))
        key += codes.astype(small)
        order = np.argsort(key, kind="stable")
        grouped = np.take(basis.T, order, axis=1).T
        weighted = grouped if self.weights is None else grouped * self.weights[order, None]
        bounds = np.concatenate([[0], np.cumsum(np.bincount(key, minlength=n_folds * k))])
        return self._combine(_blocks(weighted.T, grouped, bounds).reshape(n_folds, k, q, q))

    def _combine(self, blocks: NDArray, run: slice | None = None) -> NDArray:
        """Each set's sum of the other folds' blocks of its replicate (its own
        block without folds) over its weight: never a difference, so a block
        zero in every fold of a set stays exactly zero. Blocks (F, ...) that
        every set shares give (S, ...); blocks (F, Q', ...) packed for `run`
        ([f, j] is set (r Q + q)'s, q the run's j-th fold) give (R, Q', ...)."""
        shared = run is None
        if shared:
            run, blocks = slice(0, self.q), blocks[:, None]
        by_rep, parts = blocks.reshape((-1, self.q) + blocks.shape[1:]), []
        for s in range(run.start, run.stop):
            mine = by_rep[:, :, 0 if shared else s - run.start]  # (R, Q, ...): set s's blocks
            parts.append(mine[:, :s].sum(axis=1) + mine[:, s + 1:].sum(axis=1) if self.folded
                         else mine[:, s])
        sums = np.stack(parts, axis=1)
        sums /= self.sizes.reshape((-1, self.q) + (1,) * (sums.ndim - 2))[:, run]
        return sums.reshape((-1,) + sums.shape[2:]) if shared else sums


def _blocks(x: NDArray, basis: NDArray, bounds: NDArray) -> NDArray:
    """(B, ..., q): x[..., a:b] @ basis[a:b] for each run [a, b) between
    consecutive bounds, one GEMM per run, each into its own slice."""
    flat, cuts = x.reshape(-1, x.shape[-1]), bounds.tolist()
    sums = np.empty((len(cuts) - 1, flat.shape[0], basis.shape[1]))
    for out, a, b in zip(sums, cuts[:-1], cuts[1:]):
        np.matmul(flat[:, a:b], basis[a:b], out=out)
    return sums.reshape(sums.shape[:1] + x.shape[:-1] + basis.shape[1:])


class _Design:
    """A factored design over the units of `sets` (`_units`, column `column`):
    unit i is phi(s_i, c_i), the state basis row B_i = phi.basis(s_i) in the
    column block of code c_i, a tabular basis being the one-hot of the units'
    grid rows. Its Gram over any unit set is block-diagonal by code, so each
    training set's system is K blocks of size q (`systems`, computed once).
    The basis is laid out column-major once. Per-code values (..., K, n) are
    picked at each unit's code through the flat index c_i*n + i."""

    def __init__(self, phi: FeatureMap, units: _Units, column: int, sets: _TrainingSets,
                 cfg: FitConfig, period: int, name: str) -> None:
        self.phi, self.sets, self.cfg, self.period, self.name = phi, sets, cfg, period, name
        self.codes = units.codes[column].astype(np.min_scalar_type(phi.arity - 1))
        cells = units.cells[column]
        self.basis = np.asfortranarray(phi.basis(units.states[column]) if cells is None
                                       else _one_hot(cells, phi.grid.shape[0]))
        self.flat = np.multiply(self.codes, self.codes.shape[0], dtype=np.intp)
        self.flat += np.arange(self.codes.shape[0])
        self.layout = _code_blocks(phi, np.arange(phi.dim))
        self._systems: NDArray | None = None

    def require(self, weights: NDArray) -> None:
        """A PositivityError naming the first code that carries weight in
        `weights` (K, n) on some replicate's units but that none of them has:
        the representer there, an inverse propensity, does not exist."""
        spans = self.sets.spans
        seen = np.zeros((spans.shape[0] - 1, self.phi.arity), dtype=bool)
        seen[self.sets.rep, self.codes] = True
        missing = np.logical_or.reduceat(weights != 0.0, spans[:-1], axis=1).T & ~seen
        if missing.any():
            raise PositivityError(f"{self.name}: the plan targets treatment code "
                                  f"{np.argwhere(missing)[0, 1]}, which no row has")

    def fn(self, coef: NDArray, clip: float | None = None) -> LinearFn:
        """The linear function of phi whose (K, q) coefficient blocks are `coef`."""
        w = np.empty(self.phi.dim)
        w[self.layout] = coef
        return LinearFn(self.phi, w, clip)

    def values(self, coef: NDArray, clip: float | None, run: slice) -> NDArray:
        """Packed (Q', K, n) for `run`: every set's linear function with (K, q)
        coefficient blocks coef[s] (S, K, q) at every code, on its replicate's
        units, clipped to [-clip, clip]."""
        spans = self.sets.spans.tolist()
        by_rep = coef.reshape((-1, self.sets.q) + coef.shape[1:])[:, run]
        out = np.empty(by_rep.shape[1:3] + (spans[-1],))
        flat = out.reshape(-1, spans[-1])  # each replicate's product into its own columns
        for c, a, b in zip(by_rep, spans[:-1], spans[1:]):
            np.matmul(c.reshape(-1, c.shape[-1]), self.basis[a:b].T, out=flat[:, a:b])
        return out if clip is None else np.clip(out, -clip, clip, out=out)

    def own(self, values: NDArray, run: slice, out: NDArray) -> None:
        """`_TrainingSets.own` of packed per-code values (Q', K, n) at each unit's code."""
        self.sets.own(values.reshape(values.shape[0], -1), run, out, self.flat)

    def pick(self, values: NDArray) -> NDArray:
        """(..., n): each unit's entry at its own code, of `values` (..., K, n)."""
        return np.take(values.reshape(values.shape[:-2] + (-1,)), self.flat, axis=-1)

    def scatter(self, v: NDArray) -> NDArray:
        """(..., K, n): v (..., n) at each unit's own code, zero at the others."""
        out = np.zeros(v.shape[:-1] + (self.phi.arity * self.flat.shape[0],))
        out[..., self.flat] = v
        return out.reshape(v.shape[:-1] + (self.phi.arity, -1))

    def systems(self) -> NDArray:
        """Every set's penalized Gram blocks G_s + lam_s I (S, K, q, q), lam_s
        resolved from G_s by cfg.stage_ridge: formed and checked once, as
        `_Stages` is built. The first failing set (then code), named by its fold
        and the design, raises a ValidationError if lam_s swamps the Gram (every
        diagonal entry g has g + lam_s == lam_s: the fit would be 0), else a
        SolverError under a zero penalty for its first column with no mass, else
        for failing the Cholesky check (one call checks every block)."""
        if self._systems is None:
            grams, sizes = self.sets.grams(self.basis, self.codes, self.phi.arity), self.sets.sizes
            lam = np.broadcast_to(self.cfg.stage_ridge(self.period, grams, sizes), sizes.shape)
            diag = np.diagonal(grams, axis1=-2, axis2=-1)
            top = diag.max(axis=(1, 2))
            swamped = (top > 0.0) & (top + lam == lam)  # then so is every smaller entry
            empty = (lam[:, None, None] == 0.0) & (diag <= 0.0)
            a = grams + lam[:, None, None, None] * np.eye(grams.shape[-1])
            if swamped.any() or empty.any() or not _positive_definite(a):
                for s, k in np.ndindex(a.shape[:2]):
                    where = (f"fold {s % self.sets.q}: " if self.sets.folded else "") + self.name
                    if swamped[s]:
                        raise ValidationError(
                            f"{where}: ridge penalty {lam[s]:g} swamps the Gram (every diagonal "
                            "entry g has g + ridge == ridge), so the fit would be 0; lower it")
                    if empty[s, k].any():
                        column = int(self.layout[k][empty[s, k]].min())
                        raise SolverError(f"{where}: singular system with zero penalty: design "
                                          f"column {column} has no mass (rank deficient)")
                    if not _positive_definite(a[s, k]):
                        raise SolverError(f"{where}: singular normal equations (rank-deficient "
                                          "design); set a positive ridge penalty")
            self._systems = a
        return self._systems

    def solve(
        self, rhs: NDArray, border: tuple[NDArray, NDArray, NDArray] | None = None,
    ) -> tuple[NDArray, NDArray]:
        """Per set s, the coefficient blocks (S, K, q) of (G_s + lam_s I) beta =
        rhs_s (`systems`), in one batched call. A border (b, d, e) = (X'c/n_s,
        c'c/n_s, c'u/n_s) appends one unpenalized design column c with
        coefficient gamma: the blocks are solved for rhs and for b, one
        right-hand side per factorization, then gamma from the Schur complement
        d - b'A^-1 b, never negative in exact arithmetic. A set whose complement
        is at most _IN_SPAN d (c = 0, or c in the span of the blocks at zero
        penalty) keeps the plain fit, gamma 0, whose normal equations already
        give c'(u - X beta) = 0 there. Returns (beta, gamma), gamma 0 without a
        border."""
        a = self.systems()
        if border is None:
            return np.linalg.solve(a, rhs[..., None])[..., 0], np.zeros(len(rhs))
        b, d, e = border
        x = np.linalg.solve(a[:, :, None], np.stack([rhs, b], axis=2)[..., None])[..., 0]
        schur = d - np.einsum("skj,skj->s", b, x[:, :, 1])
        live = schur > _IN_SPAN * d
        gamma = np.where(live, e - np.einsum("skj,skj->s", b, x[:, :, 0]), 0.0)
        gamma /= np.where(live, schur, 1.0)
        return x[:, :, 0] - gamma[:, None, None] * x[:, :, 1], gamma


class _Stages:
    """Both nuisance passes of an M-period recursion, each stage solved for
    every training set (`_TrainingSets`) in one batched call. Period t has a
    fit design (`_Design`: the state basis B_t, the codes and the per-set Gram
    blocks), on whose units f_t and a_t are fitted and valued, and an image
    design on the units of period t-1's sample (its own for t = 1), where the
    (K, n) code weights W_t form m_t(Z; g) = sum_c W_c g(S_t, c) and where
    u_{t-1} and a_{t-1} live; the last period's units carry the outcome. A
    panel (`_panel_stages`) is one sample, each image its period's design; the
    surrogate (`surrogate._stages`) is two, their sets paired by fold.

    Every check is made as the stages are built: each image's targeted codes
    (`_Design.require`), then each design's systems (`_Design.systems`). Each
    pass visits the periods once. Right-hand sides are B_t'(W_c a_{t-1})
    (forward) and B_t'(1{T_t = c} u_t) (backward) over a set's units
    (`_TrainingSets.means`); fitted functions are valued packed, every set of
    a replicate in one product. Consumers take `fit` (the one-set fit as
    functions) or `scores` (the held-out scores).
    """

    def __init__(self, designs: Sequence[_Design], images: Sequence[_Design],
                 weights: Sequence[NDArray], units: _Units, cfg: FitConfig) -> None:
        self.designs, self.images, self.code_weights, self.cfg = designs, images, weights, cfg
        self.outcome, self.spread, self.scales = units.outcome, units.spread, units.scale
        for image, w in zip(images, weights):
            image.require(w)
        for design in designs:
            design.systems()  # every Gram before the passes allocate their values

    def fit(self, clever: bool = False) -> tuple[list[Fn], list[LinearFn]]:
        """The one-set fit as functions, the outcome's scale undone:
        (regressions, representers), one per period. With `clever`, period t's
        regression is CombinedFn(((1.0, linear part), (gamma, a_t)))."""
        coefs = self.riesz()[0]
        representers = [d.fn(c[0], self.cfg.clip) for d, c in zip(self.designs, coefs)]
        fitted, gammas = self.regressions(coefs if clever else None)[:2]
        scale = self.scales[0]  # the fits are linear in the scaled outcome
        fns = [d.fn(c[0] / scale) for d, c in zip(self.designs, fitted)]
        if clever:
            fns = [CombinedFn(((1.0, f), (float(g[0] / scale), a)))
                   for f, g, a in zip(fns, gammas, representers)]
        return fns, representers

    def scores(self, clever: bool = False) -> list[tuple[tuple[_UnitScores, ...], NDArray]]:
        """Per replicate, each sample's held-out `_UnitScores`, in the order of
        the periods fitted on them, and with `clever` per fold and period (Q, M)
        the mean correction a_t (u_t - f_t) over the fold's training rows
        (zeros without). A unit's score is `core._ladder` of the nuisances of
        the set its fold holds out: the plug-in m_1(Z; f_1) on period 1's units,
        correction t on period t's, and |a_M| times the outcome spread on the
        last period's, in the replicate's outcome scale (`_units`)."""
        coefs, held_a = self.riesz()
        _, _, held, train_means, plug = self.regressions(coefs if clever else None)
        first, last, samples = self.designs[0].sets, self.designs[-1].sets, []
        for sets in dict.fromkeys(d.sets for d in self.designs):
            values, _, corrections = _ladder(
                plug if sets is first else np.zeros(len(sets.fold)),
                [(a, u, f) for d, a, (u, f) in zip(self.designs, held_a, held) if d.sets is sets])
            spread = np.abs(held_a[-1]) * self.spread if sets is last else np.zeros(len(values))
            weights = np.ones(len(values)) if sets.weights is None else sets.weights
            samples.append([_UnitScores.scaled(values[a:b], corrections[:, a:b], weights[a:b],
                                               sets.fold[a:b], spread[a:b], scale)
                            for a, b, scale in zip(sets.spans[:-1], sets.spans[1:],
                                                   self.scales.tolist())])
        means = train_means.reshape(len(self.scales), -1, len(held)) / self.scales[:, None, None]
        return list(zip(zip(*samples), means))

    def riesz(self) -> tuple[list[NDArray], list[NDArray]]:
        """The forward pass of `fit_recursive_riesz` for every training set: per
        period the (S, K, q) coefficients, and held[t-1], each unit's
        a_t(S_t, T_t) from the set its fold holds out (the one set without
        folds). The right-hand side is B_t'(W_c a_{t-1}) over a set's image units."""
        m, first = len(self.designs), self.images[0]
        coefs: list[NDArray] = []
        held = [np.empty(len(d.codes)) for d in self.designs]
        rhs = first.sets.means(self.code_weights[0], first.basis)
        for t, design in enumerate(self.designs, start=1):
            coefs.append(design.solve(rhs)[0])
            parts = []
            for run in design.sets.runs:
                a = design.pick(design.values(coefs[-1], self.cfg.clip, run))
                design.sets.own(a, run, held[t - 1])
                if t < m:
                    parts.append(design.sets.means(self.code_weights[t] * a[:, None],
                                                   self.images[t].basis, run))
            rhs = design.sets.joined(parts) if t < m else rhs
        return coefs, held

    def regressions(
        self, representers: Sequence[NDArray] | None
    ) -> tuple[list[NDArray], NDArray, list[NDArray], NDArray, NDArray]:
        """The backward pass of `fit_nested_regressions` for every training set.
        Given the sets' representer coefficients (per period (S, K, q), from
        `riesz`), the fit is clever: set s's representer for the period,
        clipped by cfg.clip, joins its design as an unpenalized column, and the
        fit is the linear part plus gamma_s times it. Each solved stage is
        valued on its image a run of sets at a time, and the run's
        pseudo-outcomes go straight into the previous period's right-hand side.
        Returns (coefs, gammas (M, S), held, train_means, plug): held[t-1] holds
        (u_t, f_t) (2, units) on period t's units, from the nuisances of the
        set its fold holds out (the one set without folds), and plug
        m_1(Z; f_1) likewise; when clever, train_means[s, t-1] is the mean of
        a_t (u_t - f_t) over the set's training rows, from its normal equations."""
        m, last, clever = len(self.designs), self.designs[-1], representers is not None
        coefs: list[NDArray] = [np.empty(0)] * m
        gammas = np.zeros((m, len(last.sets.sizes)))
        held = [np.empty((2, len(d.codes))) for d in self.designs]
        plug, train_means = np.empty_like(held[0][0]), np.zeros((len(last.sets.sizes), m))
        y, sets = self.outcome, last.sets
        rhs = sets.means(last.scatter(y), last.basis)
        borders = [self._border(m, representers[-1], y, run) for run in sets.runs] if clever else []
        for t in range(m, 0, -1):
            design, image, border = self.designs[t - 1], self.images[t - 1], None
            if clever:
                b, de = (design.sets.joined(parts) for parts in zip(*borders))
                border = (b, *de[..., 0].T)
            coefs[t - 1], gammas[t - 1] = design.solve(rhs, border)
            if clever:  # the mean of a (u - f) on the training rows
                b, d, e = border
                train_means[:, t - 1] = (e - np.einsum("skj,skj->s", b, coefs[t - 1])
                                         - d * gammas[t - 1])
            if image is not design:  # f_t on its own units, u_{t-1} on the image's below
                for run in design.sets.runs:
                    design.own(design.values(coefs[t - 1], None, run), run, held[t - 1][1])
            parts, borders = [], []
            for run in image.sets.runs:
                values = image.values(coefs[t - 1], None, run)
                if clever:
                    values += image.sets.spread(gammas[t - 1], run)[:, None] * image.values(
                        representers[t - 1], self.cfg.clip, run)
                # m_t(Z; g) on the image's units: u_{t-1}, or the plug-in m_1(Z; f_1) at t = 1
                u = np.einsum("kn,...kn->...n", self.code_weights[t - 1], values)
                if image is design:
                    design.own(values, run, held[t - 1][1])
                del values  # before the previous period's packed right-hand side
                image.sets.own(u, run, held[t - 2][0] if t > 1 else plug)
                if t > 1:
                    prev = self.designs[t - 2]
                    parts.append(prev.sets.means(prev.scatter(u), prev.basis, run))
                    if clever:
                        borders.append(self._border(t - 1, representers[t - 2], u, run))
                del u  # before the next run or period values theirs
            rhs = image.sets.joined(parts) if t > 1 else rhs
        held[m - 1][0] = y
        return coefs, gammas, held, train_means, plug

    def _border(self, t: int, rep: NDArray, u: NDArray, run: slice) -> tuple[NDArray, NDArray]:
        """For the sets of `run`, the border sums of period t's representer a,
        the sets' coefficient blocks rep clipped by cfg.clip, given the
        pseudo-outcome u: X'a and (a'a, a'u) (`_Design.solve`)."""
        design = self.designs[t - 1]
        a, means = design.pick(design.values(rep, self.cfg.clip, run)), design.sets.means
        return (means(design.scatter(a), design.basis, run),
                means(np.stack([a * a, a * u], axis=1), np.ones((a.shape[-1], 1)), run))


def _panel_stages(units: _Units, plan: TreatmentPlan, cfg: FitConfig,
                  q_folds: int | None = None) -> _Stages:
    """The stages of a panel's units, one or more replicates stacked
    (`stack_units`): one sample, each period's image its own design. With
    `q_folds`, each fold of each replicate holds out one training set;
    without, the one replicate is one set."""
    view = PanelDataset(tuple(units.states), np.stack(units.codes, axis=1), units.outcome,
                        tuple(phi.arity for phi in cfg.feature_maps))
    code_weights = [_code_weights(plan, t, view, phi.arity).T
                    for t, phi in enumerate(cfg.feature_maps, start=1)]
    sets = _TrainingSets(units.counts, units.weights, q_folds)
    designs = [_Design(phi, units, t - 1, sets, cfg, t, f"period {t}")
               for t, phi in enumerate(cfg.feature_maps, start=1)]
    del view  # the designs exist: the Grams need no stacked codes
    return _Stages(designs, designs, code_weights, units, cfg)


def stack_units(parts: Sequence[_Units]) -> _Units:
    """The units of several replicates (`panel_units`) one after another, as
    `_Stages` fits them: when some replicate's units are weighted, the units
    of one whose units are its rows count once (weights 1)."""
    if any(u.weights is not None for u in parts):
        parts = [u if u.weights is not None else u._replace(weights=np.ones(len(u.outcome)))
                 for u in parts]
    fields = list(zip(*parts))  # each field's values, replicate by replicate
    return _Units(*([_joined(c) for c in zip(*field)] for field in fields[:3]),
                  *map(_joined, fields[3:]))


def _joined(arrays: Sequence[NDArray | None]) -> NDArray | None:
    """The arrays one after another (one array itself), or None if any is None."""
    if any(a is None for a in arrays):
        return None
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def panel_units(
    data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig, fold: NDArray | None = None,
    q_folds: int = 1,
) -> _Units:
    """The units the engine fits a panel on (`_units`), its rows in folds
    fold[i] of q_folds (one fold without), after the checks the panel gets
    alone (`_check_setup`). No array of the panel's rows outlives the call."""
    _check_setup(data, plan, cfg)
    return _units(list(zip(cfg.feature_maps, data.states, data.treatments.T)), data.outcome,
                  fold, q_folds, [f"period {t}" for t in range(1, data.num_periods + 1)])


def cross_fit(
    units: _Units, plan: TreatmentPlan, cfg: FitConfig, q_folds: int,
    clever: bool = False,
) -> list[tuple[tuple[_UnitScores], NDArray]]:
    """Fit both nuisance sequences once per fold of each replicate, given the
    replicates' stacked units (`stack_units`, each folded in q_folds folds),
    on its units outside it, and score the fold's units with them, in one
    pass of the stage engine; each replicate gets the estimate it gets alone,
    up to rounding: per replicate, `_Stages.scores` of its one sample."""
    return _panel_stages(units, plan, cfg, q_folds).scores(clever)


def fit_nested_regressions(
    data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig
) -> list[LinearFn]:
    """Backward pass t = M..1; pseudo-outcome is Y at the horizon, else the
    next period's moment evaluated at the already-fitted regression."""
    return _panel_stages(panel_units(data, plan, cfg), plan, cfg).fit()[0]


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
    return _panel_stages(panel_units(data, plan, cfg), plan, cfg).fit()[1]


def fit_nuisances(
    data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig, clever: bool = False
):
    """Fit both sequences on one sample; returns (regressions, representers).
    With `clever`, each regression has its period's fitted representer a_t as
    an unpenalized design column, so every debiasing correction term has
    empirical mean zero by the normal equations and plug-in estimation already
    equals the debiased estimate: period t's fit is CombinedFn(((1.0,
    LinearFn(phi_t, w)), (gamma, a_t))), gamma 0 where a_t lies in phi_t's span
    (`_Design.solve`), as an unclipped one does at zero ridge."""
    return _panel_stages(panel_units(data, plan, cfg), plan, cfg).fit(clever)


class _Units(NamedTuple):
    """A sample's units in fold-major order (`_units`). Per column: states, codes
    and grid rows (None unless tabular); then the mean outcome, its rows'
    spread about it (root of sum (Y_i - mean)^2), both times `scale`, the unit
    count per fold, the weights (None when the units are the rows) and
    `scale`, the power of two the outcome was scaled by, (1,) (one per
    replicate once stacked)."""

    states: list[NDArray]
    codes: list[NDArray]
    cells: list[NDArray | None]
    outcome: NDArray
    spread: NDArray
    counts: NDArray
    weights: NDArray | None
    scale: NDArray

    def halves(self, q_folds: int) -> tuple[_Units, _Units]:
        """The stacked replicates' units in two halves, R // 2 replicates first
        (views; `stack_units` undone, rows as units keep their weights 1)."""
        half = len(self.scale) // 2  # (units, folds, replicates) of the first half
        cuts = (int(self.counts[:half * q_folds].sum()), half * q_folds, half)
        return tuple(_Units(*([None if c is None else c[rows] for c in field]
                              for field in (self.states, self.codes, self.cells)),
                            self.outcome[rows], self.spread[rows], self.counts[folds],
                            None if self.weights is None else self.weights[rows], self.scale[reps])
                     for rows, folds, reps in ([slice(c) for c in cuts],
                                               [slice(c, None) for c in cuts]))


class _UnitScores(NamedTuple):
    """A sample's held-out scores on its units, times `scale`: unit u stands
    for weights[u] rows of fold fold[u] whose scores have mean values[u]
    (corrections[:, u] per period) and root sum of squared deviations
    spread[u] about it. Made by `scaled`, whose power-of-two scale puts every
    entry below 1 in magnitude; the means and sd are divided by it last."""

    values: NDArray
    corrections: NDArray
    weights: NDArray
    fold: NDArray
    spread: NDArray
    scale: float

    @classmethod
    def scaled(cls, values: NDArray, corrections: NDArray, weights: NDArray, fold: NDArray,
               spread: NDArray, scale: float = 1.0) -> "_UnitScores":
        """The scores (times `scale`, the outcome's, `_units`) times `_scale` of
        them all, folded into `scale`: exact, once per sample."""
        s = _scale(values, corrections, spread)
        return cls(values * s, corrections * s, weights, fold, spread * s, scale * s)

    def fold_means(self, sizes: Sequence[int]) -> NDArray:
        """(1 + M, Q): per fold, the mean score and corrections over its sizes[q] rows."""
        return np.array([np.bincount(self.fold, self.weights * v, len(sizes))
                         for v in (self.values, *self.corrections)]) / sizes / self.scale

    def mean_sd(self) -> tuple[float, float]:
        """The mean and standard deviation of the n = sum w rows' scores:
        n sd^2 = sum_u w_u (s_u - mean)^2 + sum_u spread_u^2."""
        n = self.weights.sum()
        mean = (self.weights * self.values).sum() / n
        dev = self.values - mean
        var = ((self.weights * dev * dev).sum() + (self.spread * self.spread).sum()) / n
        return float(mean) / self.scale, math.sqrt(var) / self.scale


def _scale(*arrays: NDArray) -> float:
    """The power of two that puts every entry of the arrays below 1 in magnitude
    (1 if one is not finite). Scaling by it is exact, so sums and squares of
    the scaled entries overflow only where their result is not representable."""
    top = max(max(a.max(initial=0.0), -a.min(initial=0.0)) for a in arrays)
    return math.ldexp(1.0, -int(np.frexp(top)[1])) if math.isfinite(top) else 1.0


def _units(
    columns: Sequence[tuple[FeatureMap, NDArray, NDArray]], outcome: NDArray,
    fold: NDArray | None, q_folds: int, names: Sequence[str],
) -> _Units:
    """The units the engine fits a sample on, from its columns (map, states,
    codes), its outcome and each row's fold, fold[i] of q_folds (None: one
    fold). A code outside its map's arity is a PlanError naming the column
    (`names`), and a tabular state farther than GRID_TOLERANCE from its grid
    row a ValidationError naming the column and the first such row in the
    caller's order. The outcome is scaled once, by the power of two `_scale`
    gives (exact), so that no sum of it or square of a deviation overflows
    where the estimate is representable; the units carry that scale.

    The units are the distinct (fold, per-column grid row and code) rows,
    weighted by their counts, with their rows' mean outcome and its spread,
    when every map is tabular, every state equals its grid row by value (-0.0
    equals 0.0) and the key space Q * prod(G K) is at most n: one int64 key
    per row, the fold's digit leading, `bincount` over the key space (no
    sort), each unit decoded from its key. Otherwise the units are the rows,
    unweighted and with zero spread, sorted within each fold and taken one
    fold after another."""
    n, cells, exact = columns[0][1].shape[0], [], True
    for (phi, states, codes), name in zip(columns, names):
        _check_codes(codes, phi.arity, name)
        cells.append(phi.state_index(states) if isinstance(phi, TabularFeatures) else None)
        if cells[-1] is not None and not np.array_equal(nearest := phi.grid[cells[-1]], states):
            exact = False  # the gaps are weighed only if some state is off
            gap = np.abs(states - nearest) > GRID_TOLERANCE * (1.0 + np.abs(nearest))
            if (rows := np.flatnonzero(gap.any(axis=1))).size:
                raise ValidationError(
                    f"{name}: row {rows[0]}: state {states[rows[0]].tolist()} is off the "
                    f"tabular grid (nearest grid row {nearest[rows[0]].tolist()}, tolerance "
                    f"{GRID_TOLERANCE:g} x (1 + |grid value|))")
    scale = _scale(outcome)
    shape = [q_folds] + [size for phi, _, _ in columns if isinstance(phi, TabularFeatures)
                         for size in (phi.grid.shape[0], phi.arity)]
    if exact and len(shape) == 1 + 2 * len(columns) and math.prod(shape) <= n:
        key = np.zeros(n, dtype=np.int64) if fold is None else fold.astype(np.int64)
        for (phi, _, codes), cell in zip(columns, cells):
            key *= phi.grid.shape[0]
            key += cell
            key *= phi.arity
            key += codes
        counts = np.bincount(key, minlength=math.prod(shape))
        units = np.flatnonzero(counts)
        held, *digits = np.unravel_index(units, shape)
        mean = np.bincount(key, outcome * scale, counts.shape[0])
        np.divide(mean, counts, out=mean, where=counts > 0)
        dev = (mean / scale)[key]  # Y - mean, then scaled: exact, and one n-array
        np.subtract(outcome, dev, out=dev)
        dev *= scale
        spread = np.sqrt(np.bincount(key, np.square(dev, out=dev), counts.shape[0])[units])
        return _Units(
            [phi.grid[c] for (phi, _, _), c in zip(columns, digits[::2])], digits[1::2],
            digits[::2], mean[units], spread, np.bincount(held, minlength=q_folds),
            counts[units].astype(float), np.array([scale]))
    # a fold's rows in memory order, one fold after another
    order = np.arange(n) if fold is None else np.argsort(fold, kind="stable")

    def rows(a: NDArray | None) -> NDArray | None:  # gathered along memory order
        return None if a is None else np.take(a.T, order, axis=-1).T

    y = rows(outcome)
    y *= scale
    return _Units([rows(c[1]) for c in columns], [rows(c[2]) for c in columns],
                  list(map(rows, cells)), y, np.zeros(n),
                  np.array([n]) if fold is None else np.bincount(fold, minlength=q_folds),
                  None, np.array([scale]))


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
