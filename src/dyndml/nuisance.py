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

The training sets are grouped by replicate: a panel may stack several
replicates' rows (a Monte Carlo chunk), each with its own folds, and a set
is one fold's complement within its replicate. Every sum stays within a
replicate, each set's fitted functions are valued on its replicate's units
only, all the sets of a replicate in one product, and every check a lone
panel gets is made per replicate, so each replicate's estimate is the one it
gets alone, up to rounding.

On all-tabular panels whose states lie on their grids, the engine fits the
distinct (fold, history) rows weighted by their counts (`_units`; Grams
B' diag(w) B) and gathers the held-out values back to the rows, each scored
with its own Y; otherwise it fits the rows themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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
    """Training sets over n units, held in fold-major order (`rows` permutes an
    array into it). With `folds`, the units are one or more replicates, each
    split into `q_folds` folds (folds[r Q + q] is fold q of replicate r), and
    set s = r Q + q is every unit of replicate r outside its fold q: the runs
    of the replicate (`spans`) around fold s's run `held(s)`. Without, the one
    set is every unit. Unit i counts weights[i] times in every sum (once when
    `weights` is None), so `sizes`, the sets' weight totals, normalize the
    means and Grams.

    A value each set takes on the units of its replicate is packed (Q', ..., n)
    for a run of Q' folds (`runs`): entry [j, ..., i] is set (r Q + q)'s, q the
    run's j-th fold and r the replicate of unit i, so the sets of every
    replicate share one array and no set is valued on another replicate's
    units. A run is every fold unless its packed values would pass _PACKED
    entries per code, so the memory they take is bounded whatever n is."""

    def __init__(
        self, n: int, folds: Sequence[NDArray] | None = None, weights: NDArray | None = None,
        q_folds: int | None = None,
    ) -> None:
        # Sorted, a fold's rows are gathered in memory order.
        self.folds = None if folds is None else tuple(np.sort(idx) for idx in folds)
        self.order = None if folds is None else np.concatenate(self.folds)
        counts = np.array([n] if folds is None else [idx.shape[0] for idx in self.folds])
        self.q = 1 if folds is None else q_folds or len(counts)
        self.bounds = np.concatenate([[0], np.cumsum(counts)])
        self.spans = self.bounds[::self.q]
        step = max(1, _PACKED // n)
        self.runs = [slice(lo, min(lo + step, self.q)) for lo in range(0, self.q, step)]
        reps = len(counts) // self.q
        self.fold = np.repeat(np.tile(np.arange(self.q, dtype=np.min_scalar_type(self.q)), reps),
                              counts)
        self.rep = np.repeat(np.arange(reps, dtype=np.min_scalar_type(reps)), counts.reshape(
            reps, -1).sum(axis=1))
        self.weights = None if weights is None else self.rows(np.asarray(weights, dtype=float))
        held = counts if weights is None else np.add.reduceat(self.weights, self.bounds[:-1])
        held = held.reshape(-1, self.q).astype(float)
        self.sizes = (held if folds is None else held.sum(axis=1, keepdims=True) - held).ravel()

    def rows(self, a: NDArray) -> NDArray:
        """a's rows in fold-major order, gathered along memory order."""
        return a if self.order is None else np.take(a.T, self.order, axis=-1).T

    def held(self, s: int) -> slice:
        return slice(self.bounds[s], self.bounds[s + 1])

    def own(self, x: NDArray, run: slice, out: NDArray, at: NDArray | None = None) -> None:
        """Write into out (n,) each unit's entry of packed x (Q', m) for the set
        its fold is held out of, for the units of the folds in `run`: entry i of
        unit i, or at[i] (m = K n for per-code values, at a unit's own code)."""
        flat, m = x.reshape(-1), x.shape[-1]
        for r in range(self.spans.shape[0] - 1):  # a replicate's folds in `run`: one run of memory
            part = slice(self.bounds[r * self.q + run.start], self.bounds[r * self.q + run.stop])
            pick = np.multiply(self.fold[part] - run.start, m, dtype=np.intp)
            pick += np.arange(part.start, part.stop) if at is None else at[part]
            out[part] = flat[pick]

    def spread(self, v: NDArray, run: slice) -> NDArray:
        """Per-set scalars v (S,) packed (Q', n) for `run`."""
        return v.reshape(-1, self.q)[:, run].T[:, self.rep]

    def means(self, x: NDArray, basis: NDArray, run: slice) -> NDArray:
        """(R, Q', ..., q): the weighted mean over each set's units of x_i basis_i,
        x packed (Q', ..., n) for `run`, a temporary this may overwrite; one
        product per replicate for all its sets in the run (`joined` stacks the
        runs' parts)."""
        if self.weights is not None:
            x = x * self.weights
        if self.folds is not None:  # zero each set's own fold, one run of memory
            for r in range(self.spans.shape[0] - 1):
                for q in range(run.start, run.stop):
                    x[q - run.start, ..., self.held(r * self.q + q)] = 0.0
        sums = np.stack([(x[..., a:b].reshape(-1, b - a) @ basis[a:b]).reshape(
            x.shape[:-1] + basis.shape[1:]) for a, b in zip(self.spans[:-1], self.spans[1:])])
        return sums / self.sizes.reshape((-1, self.q) + (1,) * (sums.ndim - 2))[:, run]

    def joined(self, parts: Sequence[NDArray]) -> NDArray:
        """(S, ...): the runs' (R, Q', ...) parts in set order."""
        x = np.concatenate(parts, axis=1)
        return x.reshape((-1,) + x.shape[2:])

    def shared(self, x: NDArray, basis: NDArray) -> NDArray:
        """Every set's `means` of an input all sets share, x (K, n): (S, K, q),
        from each fold's block x basis computed once (`_per_set`)."""
        if self.weights is not None:
            x = x * self.weights
        return self._per_set(np.stack([x[:, self.held(f)] @ basis[self.held(f)]
                                       for f in range(len(self.sizes))]))

    def _per_set(self, blocks: NDArray) -> NDArray:
        """Each set's normalized sum of the other folds' blocks of its replicate
        (S, ...), never a difference, so a block zero in every training fold
        stays exactly zero."""
        if self.folds is not None:
            by_rep = blocks.reshape((-1, self.q) + blocks.shape[1:])
            blocks = np.stack([by_rep[:, :s].sum(axis=1) + by_rep[:, s + 1:].sum(axis=1)
                               for s in range(self.q)], axis=1).reshape(blocks.shape)
        return blocks / self.sizes.reshape((-1,) + (1,) * (blocks.ndim - 1))

    def grams(self, basis: NDArray, codes: NDArray, k: int) -> NDArray:
        """Every set's normalized Gram B' diag(w) B of the units basis_i in the
        block of codes[i], as its K diagonal blocks: (S, K, q, q). Units are
        grouped by (fold, code) with one stable sort on a small-int key,
        gathered along memory order, and each block's Gram is computed once
        (`_per_set`)."""
        n_folds, q = self.bounds.shape[0] - 1, basis.shape[1]
        small = np.min_scalar_type(n_folds * k)
        key = np.repeat(np.arange(n_folds, dtype=small) * small.type(k), np.diff(self.bounds))
        key += codes.astype(small)
        order = np.argsort(key, kind="stable")
        grouped = np.take(basis.T, order, axis=1).T
        weighted = grouped if self.weights is None else grouped * self.weights[order, None]
        counts = np.bincount(key, minlength=n_folds * k)
        return self._per_set(np.stack([weighted[end - c:end].T @ grouped[end - c:end]
                                       for c, end in zip(counts, np.cumsum(counts))])
                             .reshape(n_folds, k, q, q))


class _Design:
    """A factored design over the units of `sets`, held in their fold-major order:
    unit i is phi(s_i, c_i), the state basis row B_i = phi.basis(s_i) in the column
    block of code c_i. Its Gram over any unit set is block-diagonal by code, so
    each training set's system is K blocks of size q (`systems`, computed once).
    The basis is laid out column-major once. Per-code values (..., K, n) are
    picked at each unit's code through the flat index c_i*n + i. Given `cells`
    (the states' grid rows), a tabular basis is their one-hot. A code outside
    0..K-1 is a PlanError, and a tabular state farther than GRID_TOLERANCE from
    its grid row a ValidationError, naming `name`."""

    def __init__(
        self, phi: FeatureMap, states: NDArray, codes: NDArray, sets: _TrainingSets,
        cfg: FitConfig, period: int, name: str, cells: NDArray | None = None,
    ) -> None:
        self.phi, self.sets, self.cfg, self.period, self.name = phi, sets, cfg, period, name
        _check_codes(codes, phi.arity, name)
        self.codes = sets.rows(np.asarray(codes)).astype(np.min_scalar_type(phi.arity - 1))
        states = sets.rows(states)
        self.basis = np.asfortranarray(phi.basis(states) if cells is None
                                       else _one_hot(sets.rows(cells), phi.grid.shape[0]))
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
        spans = self.sets.spans
        by_rep = coef.reshape((-1, self.sets.q) + coef.shape[1:])[:, run]
        parts = [(c.reshape(-1, c.shape[-1]) @ self.basis[a:b].T).reshape(c.shape[:2] + (b - a,))
                 for c, a, b in zip(by_rep, spans[:-1], spans[1:])]
        out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
        return out if clip is None else np.clip(out, -clip, clip, out=out)

    def own(self, values: NDArray, run: slice, out: NDArray) -> None:
        """`_TrainingSets.own` of packed per-code values (Q', K, n) at each unit's code."""
        self.sets.own(values.reshape(values.shape[0], -1), run, out, self.flat)

    def pick(self, values: NDArray) -> NDArray:
        """(..., n): each unit's entry at its own code, of `values` (..., K, n)."""
        return values.reshape(values.shape[:-2] + (-1,))[..., self.flat]

    def scatter(self, v: NDArray) -> NDArray:
        """(..., K, n): v (..., n) at each unit's own code, zero at the others."""
        out = np.zeros(v.shape[:-1] + (self.phi.arity * self.flat.shape[0],))
        out[..., self.flat] = v
        return out.reshape(v.shape[:-1] + (self.phi.arity, -1))

    def systems(self) -> tuple[NDArray, NDArray]:
        """Every set's Gram blocks (S, K, q, q) and penalty (S,), computed once."""
        if self._systems is None:
            grams, sizes = self.sets.grams(self.basis, self.codes, self.phi.arity), self.sets.sizes
            self._systems = grams, np.broadcast_to(
                self.cfg.stage_ridge(self.period, grams, sizes), sizes.shape)
        return self._systems

    def solve(
        self, rhs: NDArray, where: str, border: tuple[NDArray, NDArray, NDArray] | None = None,
    ) -> tuple[NDArray, NDArray]:
        """Per set s, the coefficient blocks (S, K, q) of (G_s + lam_s I) beta =
        rhs_s, lam_s resolved from the full Gram G_s by cfg.stage_ridge, in one
        batched call; a SolverError names the set's fold and `where`. A border
        (b, d, e) = (X'c/n_s, c'c/n_s, c'u/n_s) appends one unpenalized design
        column c with coefficient gamma: the blocks are solved for [rhs, b],
        then gamma from the Schur complement d - b'A^-1 b. A set with d = 0
        keeps the plain fit, gamma 0. Returns (beta, gamma), gamma 0 without
        a border."""
        grams, lam = self.systems()
        a = grams + lam[:, None, None, None] * np.eye(grams.shape[-1])

        def name(index: tuple) -> str:
            return ("" if self.sets.folds is None else f"fold {index[0] % self.sets.q}: ") + (
                f"{where}: ")

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
    """Both nuisance passes over the panels of one or more replicates, solved
    for several training sets (`_TrainingSets`). With `folds`, folds[r] are
    replicate r's fold index arrays into its own rows, and each fold of each
    replicate holds out one training set; without, the one panel is one set.

    Each replicate is checked and reduced to its units (`_units`) as it would
    be alone, and the units of all replicates are stacked. Per period the
    engine keeps one factored design (`_Design`: the state basis B_t, the
    observed codes and the per-set Gram blocks) and the (K, n) code weights
    W_t of the plan's terms, so m_t(Z; g) = sum_c W_c g(S_t, c), over the
    stacked units (`index[r]` places replicate r's rows among them, and
    `outcomes[r]` keeps its rows' Y). Each pass visits the periods once and
    solves every training set's stage in one batched call. Right-hand sides
    are B_t'(W_c v) (forward) and B_t'(1{T_t = c} u) (backward) over a set's
    units, per fold if all sets share v or u; the sets' fitted functions are
    valued packed (`_TrainingSets`), every set of a replicate in one product.
    """

    def __init__(
        self, panels: Iterable[PanelDataset], plan: TreatmentPlan, cfg: FitConfig,
        folds: Sequence[Sequence[NDArray]] | None = None,
    ) -> None:
        self.plan, self.cfg, parts = plan, cfg, []
        for r, data in enumerate(panels):  # each replicate's rows live only for its units
            _check_setup(data, plan, cfg)
            parts.append((data.outcome, *_units(data, cfg.feature_maps,
                                                None if folds is None else folds[r])))
        self.outcomes, units, unit_folds, weights, index, cells = (list(x) for x in zip(*parts))
        starts = np.cumsum([0] + [u.n_units for u in units])
        self.data = units[0] if len(units) == 1 else PanelDataset(
            tuple(map(np.concatenate, zip(*(u.states for u in units)))),
            np.concatenate([u.treatments for u in units]),
            np.concatenate([u.outcome for u in units]), units[0].treatment_arities)
        if any(w is not None for w in weights):  # rows as units count once
            weights = [np.ones(u.n_units) if w is None else w for u, w in zip(units, weights)]
        self.sets = sets = _TrainingSets(
            starts[-1], None if folds is None else [
                idx + start for fs, start in zip(unit_folds, starts) for idx in fs],
            _joined(weights), None if folds is None else len(folds[0]))
        index = [i if i is None or a == 0 else i + a for i, a in zip(index, starts)]
        if folds is not None and any(i is None for i in index):  # rows as units: their places
            place = np.empty(starts[-1], dtype=np.intp)
            place[sets.order] = np.arange(starts[-1])
            index = [place[a:b] if i is None else i for i, a, b in zip(index, starts, starts[1:])]
        self.index = index
        self.designs, self.code_weights = [], []
        for t, (phi, cell) in enumerate(zip(cfg.feature_maps, zip(*cells)), start=1):
            states, codes = self.data.states[t - 1], self.data.treatments[:, t - 1]
            self.designs.append(_Design(phi, states, codes, sets, cfg, t, f"period {t}",
                                        _joined(cell)))
            self.code_weights.append(sets.rows(_code_weights(plan, t, self.data, phi.arity)).T)
        for design, weights in zip(self.designs, self.code_weights):
            design.require(weights)
        for design in self.designs:  # every Gram before the passes allocate their values
            design.systems()

    def representer(self, t: int, a: NDArray | Fn, run: slice) -> NDArray:
        """Packed per-code values (Q', K, n) for `run` of period t's representers:
        the sets' fitted (S, K, q) coefficient blocks a, clipped by cfg.clip, or
        with one set any function a, evaluated at every code."""
        if isinstance(a, np.ndarray):
            return self.designs[t - 1].values(a, self.cfg.clip, run)
        states = self.sets.rows(self.data.states[t - 1])
        return np.stack([a.batch(states, np.full(states.shape[0], c))
                         for c in range(self.designs[t - 1].phi.arity)])[None]

    def moment(self, t: int, values: NDArray) -> NDArray:
        """m_t(Z; g) on the units, of g's per-code values (..., K, n)."""
        return np.einsum("kn,...kn->...n", self.code_weights[t - 1], values)

    def riesz(self) -> tuple[list[NDArray], NDArray | None]:
        """The forward pass of `fit_recursive_riesz` for every training set: per
        period the (S, K, q) coefficients, and with folds held[t-1], each unit's
        a_t(S_t, T_t) from the set its fold holds out. The right-hand side is
        B_t'(W_c a_{t-1}(S_{t-1}, T_{t-1})) over the set's units, valued a run
        of sets at a time."""
        sets, m = self.sets, len(self.designs)
        coefs: list[NDArray] = []
        held = np.empty((m, self.data.n_units)) if sets.folds else None
        rhs = sets.shared(self.code_weights[0], self.designs[0].basis)
        for t, design in enumerate(self.designs, start=1):
            coefs.append(design.solve(rhs, f"period {t}")[0])
            parts = []
            for run in sets.runs:
                a = design.pick(design.values(coefs[-1], self.cfg.clip, run))
                if held is not None:
                    sets.own(a, run, held[t - 1])
                if t < m:
                    parts.append(sets.means(self.code_weights[t] * a[:, None],
                                            self.designs[t].basis, run))
            rhs = sets.joined(parts) if t < m else rhs
        return coefs, held

    def regressions(
        self, representers: Sequence[NDArray | Fn] | None, clever: bool
    ) -> tuple[list[NDArray], NDArray, NDArray | None, NDArray, NDArray | None]:
        """The backward pass of `fit_nested_regressions` for every training set.
        With `clever`, set s's representer for the period joins its design as
        an unpenalized column (`fit_clever_covariate`): the fit is the linear
        part plus gamma_s times that representer, representers[t-1] as
        `representer` takes it. Each solved stage is valued a run of sets at a
        time, and the run's pseudo-outcomes go straight into the previous
        period's right-hand side. Returns (coefs, gammas (M, S),
        held, train_means, plug): with folds, held[t-1] holds (u_t, f_t)
        (2, units) on every unit, from the nuisances of the set its fold holds
        out, and plug m_1(Z; f_1) likewise; with `clever` train_means[s, t-1]
        is the mean of a_t (u_t - f_t) over the set's training rows, from its
        normal equations."""
        m, sets, n = self.data.num_periods, self.sets, self.data.n_units
        coefs: list[NDArray] = [np.empty(0)] * m
        gammas = np.zeros((m, len(sets.sizes)))
        held = np.empty((m, 2, n)) if sets.folds else None
        plug = np.empty(n) if sets.folds else None
        train_means = np.zeros((len(sets.sizes), m))
        y, last = sets.rows(self.data.outcome), self.designs[-1]
        rhs = sets.shared(last.scatter(y), last.basis)
        borders = [self._border(m, representers[-1], y, run) for run in sets.runs] if clever else []
        for t in range(m, 0, -1):
            design, border = self.designs[t - 1], None
            if clever:
                b, de = (sets.joined(parts) for parts in zip(*borders))
                border = (b, *de[..., 0].T)
            coefs[t - 1], gammas[t - 1] = design.solve(rhs, f"period {t}", border)
            if clever:  # the mean of a (u - f) on the training rows
                b, d, e = border
                train_means[:, t - 1] = (e - np.einsum("skj,skj->s", b, coefs[t - 1])
                                         - d * gammas[t - 1])
            parts, borders = [], []
            for run in sets.runs:
                values = design.values(coefs[t - 1], None, run)
                if clever:
                    values += sets.spread(gammas[t - 1], run)[:, None] * self.representer(
                        t, representers[t - 1], run)
                u = self.moment(t, values)  # u_{t-1}, or the plug-in m_1(Z; f_1) at t = 1
                if held is not None:
                    design.own(values, run, held[t - 1, 1])
                    sets.own(u, run, held[t - 2, 0] if t > 1 else plug)
                if t > 1:
                    prev = self.designs[t - 2]
                    parts.append(sets.means(prev.scatter(u), prev.basis, run))
                    if clever:
                        borders.append(self._border(t - 1, representers[t - 2], u, run))
            rhs = sets.joined(parts) if t > 1 else rhs
        if held is not None:
            held[m - 1, 0] = y
        return coefs, gammas, held, train_means, plug

    def _border(self, t: int, rep: NDArray | Fn, u: NDArray, run: slice) -> tuple[NDArray, NDArray]:
        """For the sets of `run`, the border sums of period t's representer a
        (`representer`) given the pseudo-outcome u: X'a and (a'a, a'u)
        (`_Design.solve`)."""
        design = self.designs[t - 1]
        a = design.pick(self.representer(t, rep, run))
        return (self.sets.means(design.scatter(a), design.basis, run),
                self.sets.means(np.stack([a * a, a * u], axis=1), np.ones((a.shape[-1], 1)), run))


def _joined(arrays: Sequence[NDArray | None]) -> NDArray | None:
    """The replicates' arrays one after another, or None if any is None; one
    replicate's array itself."""
    if any(a is None for a in arrays):
        return None
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def cross_fit(
    panels: Iterable[PanelDataset], plan: TreatmentPlan, cfg: FitConfig,
    folds: Sequence[Sequence[NDArray]], clever: bool = False,
) -> list[tuple[NDArray, NDArray, NDArray]]:
    """Fit both nuisance sequences once per fold of each panel (a replicate,
    folds[r] being its folds) on the panel's rows outside it, and score the
    fold's rows with them: each unit's held-out plug-in and (a_t, u_t, f_t)
    are gathered to its rows, with u_M each row's own Y, for `core._ladder`.
    All are fitted in one pass of the stage engine, and each gets the
    estimate it gets alone, up to rounding. Yields, panel by panel (so each
    panel's row arrays can go before the next panel's are made), the held-out
    score of every row, its corrections (M, n_r) and, with `clever`, per fold
    and period (Q, M) the mean correction a_t (u_t - f_t) over the fold's
    training rows."""
    stages = _Stages(panels, plan, cfg, folds)
    representers, held_a = stages.riesz()
    _, _, held, train_means, plug = stages.regressions(representers, clever)
    m = len(held)
    for index, y, means in zip(stages.index, stages.outcomes,
                               train_means.reshape(len(folds), -1, m)):
        values, _, corrections = _ladder(plug[index], (
            (a[index], y if t == m else u[index], f[index])
            for t, (a, (u, f)) in enumerate(zip(held_a, held), start=1)))
        yield values, corrections, means


def fit_nested_regressions(
    data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig
) -> list[LinearFn]:
    """Backward pass t = M..1; pseudo-outcome is Y at the horizon, else the
    next period's moment evaluated at the already-fitted regression."""
    stages = _Stages([data], plan, cfg)
    coefs = stages.regressions(None, clever=False)[0]
    return [design.fn(coef[0]) for design, coef in zip(stages.designs, coefs)]


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
    stages = _Stages([data], plan, cfg)
    return [design.fn(coef[0], cfg.clip) for design, coef in zip(stages.designs, stages.riesz()[0])]


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
    stages = _Stages([data], plan, cfg)
    if len(representers) != data.num_periods:
        raise ValidationError("need one representer per period")
    return _regression_fns(stages, representers, representers, clever=True)


def fit_nuisances(
    data: PanelDataset, plan: TreatmentPlan, cfg: FitConfig, clever: bool = False
):
    """Fit both sequences on one sample; returns (regressions, representers)."""
    stages = _Stages([data], plan, cfg)
    coefs = stages.riesz()[0]
    representers = [design.fn(coef[0], cfg.clip) for design, coef in zip(stages.designs, coefs)]
    return _regression_fns(stages, coefs, representers, clever), representers


def _regression_fns(
    stages: _Stages, fitted: Sequence[NDArray | Fn], representers: Sequence[Fn], clever: bool,
) -> list:
    """The one-set backward pass as functions, given the representers as
    `_Stages.regressions` takes them: with `clever`, period t's is
    CombinedFn(((1.0, linear part), (gamma, representers[t-1])))."""
    coefs, gammas = stages.regressions(fitted, clever)[:2]
    fns = [design.fn(coef[0]) for design, coef in zip(stages.designs, coefs)]
    if not clever:
        return fns
    return [CombinedFn(((1.0, f), (float(g[0]), a))) for f, g, a in zip(fns, gammas, representers)]


def _units(
    data: PanelDataset, maps: Sequence[FeatureMap], folds: Sequence[NDArray] | None,
) -> tuple[PanelDataset, Sequence[NDArray] | None, NDArray | None, NDArray | None,
           list[NDArray | None]]:
    """The units one replicate is fitted on: (panel, folds, weights, index,
    cells), the index placing each row among the units in fold-major order
    (None when the units are the rows), and per period the rows' grid rows if
    the decision computed them and the units are the rows (else None).
    The units are the distinct (fold, per-period grid row and code) histories,
    weighted by their counts, with their rows' mean Y, already in fold-major
    order, when every map is tabular, every code is below its map's arity,
    every state equals its grid row by value (-0.0 equals 0.0), and the key
    space Q * prod_t(G_t K_t) is at most n: one int64 key per row, the
    history's digits period by period and the fold's last (so a panel that
    fails the grid test pays no fold pass), `bincount` over the key space (no
    sort), each unit decoded from its key. Otherwise they are the rows,
    unweighted, with the given folds."""
    n, cells = data.n_units, []
    shape = [1 if folds is None else len(folds)]
    shape += [size for phi in maps if isinstance(phi, TabularFeatures)
              for size in (phi.grid.shape[0], phi.arity)]
    if len(shape) == 1 + 2 * len(maps) and math.prod(shape) <= n and all(
            data.treatments[:, t].max() < phi.arity for t, phi in enumerate(maps)):
        key = np.zeros(n, dtype=np.int64)
        for t, phi in enumerate(maps):
            cells.append(cell := phi.state_index(data.states[t]))
            if not np.array_equal(phi.grid[cell], data.states[t]):
                break
            key *= phi.grid.shape[0]
            key += cell
            key *= phi.arity
            key += data.treatments[:, t]
        else:
            if folds is not None:  # the fold digit leads: every fold's keys after the last's
                digit = np.empty(n, dtype=np.int64)
                for q, idx in enumerate(folds):
                    digit[idx] = q * math.prod(shape[1:])
                key += digit
            counts = np.bincount(key, minlength=math.prod(shape))
            units = np.flatnonzero(counts)
            fold, *digits = np.unravel_index(units, shape)
            mean_y = np.bincount(key, data.outcome, counts.shape[0])[units] / counts[units]
            panel = PanelDataset(tuple(phi.grid[c] for phi, c in zip(maps, digits[::2])),
                                 np.stack(digits[1::2], axis=1), mean_y, data.treatment_arities)
            held = None if folds is None else np.split(
                np.arange(units.shape[0]), np.searchsorted(fold, np.arange(1, len(folds))))
            index = None if folds is None else (np.cumsum(counts > 0) - 1)[key]
            return panel, held, counts[units], index, [None] * len(maps)
    return data, folds, None, None, cells + [None] * (len(maps) - len(cells))


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
