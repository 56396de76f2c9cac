"""Cross-fitted estimation: folds, point estimate, variance, confidence interval,
and the Monte Carlo coverage harness.

Per fold, both nuisance sequences are trained on the complement and the
debiased score is evaluated on the held-out units; the point estimate is the
grand mean of held-out scores and sigma^2 is the mean squared centered score
(the moment is affine in theta with unit slope, so no Jacobian correction is
needed). The 95% interval uses the conventional 1.96; other levels come from
a built-in Gaussian quantile.

Cross-fitting runs stage-major: `nuisance.cross_fit` builds each period's
design once on the whole panel and solves it for every fold's training rows,
scoring the held-out units from the same designs (see the `nuisance` module).
A unit stands for w_u rows (`nuisance._UnitScores`), so theta = sum_u w_u s_u / n,
n sigma^2 = sum_u w_u (s_u - theta)^2 + sum_u r_u^2, and fold means are unit sums.
Its training sets are grouped by replicate, so the Monte Carlo harness
reduces each replicate to its units and fits a chunk of up to MC_CHUNK_UNITS
units of replicates in one pass (`_estimates`), each replicate folded,
checked and reported as `dml_estimate` does it alone.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from itertools import islice
from typing import Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from .core import (
    NuisanceSet,
    PanelDataset,
    PositivityError,
    SolverError,
    TreatmentPlan,
    ValidationError,
    _check_integer,
    _rng,
    _write_csv,
    tabular_fn,
)
from .moment import moment_scores
from .nuisance import (FitConfig, _Units, _UnitScores, cross_fit, fit_nuisances, panel_units,
                       stack_units)
from .oracle import (
    DiscreteDGP,
    mix_seed,
    oracle_nested_regressions,
    oracle_riesz,
    oracle_theta,
    population_l2,
    simulate,
)

Z_95 = 1.96  # conventional 97.5% Gaussian quantile for the 95% interval


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF."""
    if not 0.0 < p < 1.0:
        raise ValidationError("quantile level must lie strictly between 0 and 1")
    return statistics.NormalDist().inv_cdf(p)


@dataclass(frozen=True)
class FoldPlan:
    """Disjoint covering index sets; sizes differ by at most one."""

    folds: tuple[NDArray, ...]
    seed: int

    def complement(self, q: int) -> NDArray:
        return np.sort(np.concatenate([f for i, f in enumerate(self.folds) if i != q]))


def _fold_sizes(n: int, q_folds: int, sample: str = "") -> list[int]:
    """The sizes of the Q folds of n observations: the first n mod Q folds take
    the remainder observations. More folds than observations is an error
    prefixed by `sample`, naming the sample they belong to."""
    _check_integer(n, "n")
    _check_integer(q_folds, "the fold count")
    if q_folds < 2:
        raise ValidationError("need at least two folds")
    if q_folds > n:
        raise ValidationError(f"{sample}cannot split {n} observations into {q_folds} folds")
    return [n // q_folds + (1 if q < n % q_folds else 0) for q in range(q_folds)]


def make_folds(n: int, q_folds: int, seed: int) -> FoldPlan:
    """Seeded uniform shuffle, then contiguous split into `_fold_sizes`."""
    sizes = _fold_sizes(n, q_folds)
    perm = _rng(seed).permutation(n)
    return FoldPlan(folds=tuple(np.split(perm, np.cumsum(sizes)[:-1])), seed=seed)


def _fold_labels(n: int, q_folds: int, seed: int) -> NDArray:
    """Each observation's fold in make_folds(n, q_folds, seed), as small ints."""
    sizes = _fold_sizes(n, q_folds)
    labels = np.empty(n, dtype=np.min_scalar_type(q_folds - 1))
    labels[_rng(seed).permutation(n)] = np.repeat(np.arange(q_folds, dtype=labels.dtype), sizes)
    return labels


@dataclass
class EstimateReport:
    """Cross-fitted estimate with its interval and per-fold diagnostics."""

    theta_hat: float
    sigma_hat: float
    ci_lower: float
    ci_upper: float
    n: int
    Q: int
    seed: int
    per_fold: list[dict]
    config: dict
    n_short: int | None = None
    n_long: int | None = None

    def __post_init__(self) -> None:
        if self.sigma_hat < 0:
            raise ValidationError("sigma_hat must be nonnegative")
        half = Z_95 * (self.sigma_hat / math.sqrt(self.n))  # sigma_hat near the float range too
        tol = 1e-9 * max(1.0, abs(self.theta_hat))
        if not (abs(self.ci_lower - (self.theta_hat - half)) <= tol
                and abs(self.ci_upper - (self.theta_hat + half)) <= tol):
            raise ValidationError("interval does not match theta_hat +- 1.96 sigma/sqrt(n)")
        if not self.ci_lower <= self.theta_hat <= self.ci_upper:
            raise ValidationError("interval must contain the point estimate")

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.n_short is None:
            out.pop("n_short")
            out.pop("n_long")
        return out

    def to_json(self, indent: int = 2) -> str:
        """Strict JSON (`allow_nan=False`); `_config_echo` writes an infinite clip "inf"."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, allow_nan=False)

    def interval(self, level: float = 0.95) -> tuple[float, float]:
        """Two-sided interval; 0.95 returns the stored conventional-1.96 bounds,
        other levels use the built-in Gaussian quantile."""
        if level == 0.95:
            return self.ci_lower, self.ci_upper
        if not 0.0 < level < 1.0:
            raise ValidationError("confidence level must lie strictly between 0 and 1")
        half = normal_quantile(0.5 + level / 2.0) * (self.sigma_hat / math.sqrt(self.n))
        return self.theta_hat - half, self.theta_hat + half

    @classmethod
    def _with_interval(
        cls, theta: float, sigma: float, n: int, q_folds: int, seed: int,
        per_fold: list[dict], config: dict, **sample_sizes: int,
    ) -> "EstimateReport":
        """Report carrying the conventional interval theta +- 1.96 sigma / sqrt(n);
        a SolverError if a bound or sigma overflows."""
        half = Z_95 * (sigma / math.sqrt(n))
        if not all(map(math.isfinite, (theta, sigma, theta - half, theta + half))):
            raise SolverError(f"theta_hat {theta:g} with sigma_hat {sigma:g}: the held-out "
                              "scores overflow")
        return cls(
            theta_hat=theta,
            sigma_hat=sigma,
            ci_lower=theta - half,
            ci_upper=theta + half,
            n=n,
            Q=q_folds,
            seed=seed,
            per_fold=per_fold,
            config=config,
            **sample_sizes,
        )


def _config_echo(cfg: FitConfig, **extra) -> dict:
    """The estimator settings a report echoes, plus estimator-specific entries."""
    return {
        "feature_maps": [
            {"kind": type(fm).__name__, "dim": fm.dim, "arity": fm.arity}
            for fm in cfg.feature_maps
        ],
        "ridge": cfg.ridge if not isinstance(cfg.ridge, tuple) else list(cfg.ridge),
        "clip": "inf" if cfg.clip == math.inf else cfg.clip,
        **extra,
    }


def _check_fold_scores(*means: NDArray) -> None:
    """Held-out scores must be finite, as then are their fold means (Q
    columns); a blow-up is a numerical failure of the lowest fold it reaches."""
    bad = np.flatnonzero(~np.isfinite(np.vstack(means)).all(axis=0))
    if bad.size:
        raise SolverError(f"fold {bad[0]}: non-finite held-out scores")


def dml_estimate(
    data: PanelDataset,
    plan: TreatmentPlan,
    cfg: FitConfig,
    q_folds: int = 5,
    seed: int = 0,
    clever: bool = False,
    nuisances: NuisanceSet | None = None,
) -> EstimateReport:
    """Cross-fitted debiased estimate.

    Per fold, nuisances are fitted on the complement (unless an explicit
    `nuisances` bundle is injected, e.g. the enumeration oracle's truth, which
    then scores every fold) and scores are evaluated out of fold: the
    one-replicate case of `_estimates`. Deterministic given all inputs.
    """
    if nuisances is None:
        units = panel_units(data, plan, cfg, _fold_labels(data.n_units, q_folds, seed), q_folds)
        return _estimates(units, data.n_units, plan, cfg, q_folds, [seed], clever)[0]
    fold = _fold_labels(data.n_units, q_folds, seed)
    scores, _, corrections = moment_scores(data, plan, nuisances)
    rows = _UnitScores.scaled(scores, corrections, np.ones(data.n_units), fold,
                              np.zeros(data.n_units))
    return _report(rows, data.n_units, q_folds, cfg, seed, clever)


def _estimates(
    units: _Units,
    n: int,
    plan: TreatmentPlan,
    cfg: FitConfig,
    q_folds: int,
    seeds: Sequence[int],
    clever: bool = False,
) -> list[EstimateReport]:
    """The cross-fitted estimate of each replicate of n rows, given as their
    stacked units (`nuisance.stack_units` of `nuisance.panel_units`, replicate
    r's rows folded with seeds[r]), all fitted in one stage-engine pass
    (`nuisance.cross_fit`). Each report is the one the replicate gets alone,
    up to rounding; an error names no replicate."""
    fits = cross_fit(units, plan, cfg, q_folds, clever)
    return [_report(scores, n, q_folds, cfg, s, clever, train_means if clever else None)
            for ((scores,), train_means), s in zip(fits, seeds)]


def _report(
    units: _UnitScores, n: int, q_folds: int, cfg: FitConfig, seed: int, clever: bool,
    train_means: NDArray | None = None,
) -> EstimateReport:
    """The report of a sample's held-out unit scores, its n rows in folds of
    `_fold_sizes`. With `train_means` (Q, M), each fold also reports the clever
    covariate's training-row correction means."""
    sizes = _fold_sizes(n, q_folds)
    means = units.fold_means(sizes)
    _check_fold_scores(means)
    per_fold: list[dict] = []
    for q, size in enumerate(sizes):
        fold_info = {
            "fold": q,
            "size": int(size),
            "score_mean": float(means[0, q]),
            "correction_means": [float(c) for c in means[1:, q]],
        }
        if train_means is not None:
            # The unpenalized clever column zeroes the corrections on the
            # sample the regressions were fitted on; report that residual.
            fold_info["clever_correction_means"] = [float(c) for c in train_means[q]]
        per_fold.append(fold_info)
    config = _config_echo(
        cfg,
        ridge_default="1e-3 * n^-0.5 * trace-normalized" if cfg.ridge is None else None,
        clever_covariate=clever,
    )
    return EstimateReport._with_interval(*units.mean_sd(), n, q_folds, seed, per_fold, config)


# ---------------------------------------------------------------------------
# Monte Carlo experiment harness
# ---------------------------------------------------------------------------

MC_CSV_HEADER = ("rep", "theta_hat", "sigma_hat", "ci_lower", "ci_upper", "covered", "failed")


@dataclass
class MCRow:
    rep: int
    theta_hat: float = math.nan
    sigma_hat: float = math.nan
    ci_lower: float = math.nan
    ci_upper: float = math.nan
    covered: int = 0
    failed: int = 0
    message: str = ""


@dataclass
class MCResult:
    """Replicated-experiment summary against the enumeration oracle."""

    theta_true: float
    reps: int
    bias: float
    rmse: float
    avg_sigma_hat: float
    coverage: float
    n_failed: int
    rows: list[MCRow] = field(repr=False, default_factory=list)

    def write_csv(self, path: str) -> None:
        rows = self.rows
        blocks = [
            np.array([r.rep for r in rows], dtype=np.int64),
            np.array([[r.theta_hat, r.sigma_hat, r.ci_lower, r.ci_upper] for r in rows]),
            np.array([[r.covered, r.failed] for r in rows], dtype=np.int64),
        ]
        _write_csv(path, MC_CSV_HEADER, blocks)

    @property
    def failure_counts(self) -> dict[str, int]:
        """The failed replicates per cause (`_failure_cause`), in order of first
        failing replicate."""
        return dict(Counter(_failure_cause(row.message) for row in self.rows if row.failed))

    @property
    def failure_examples(self) -> dict[str, str]:
        """The first failure message of each cause, keyed as `failure_counts`."""
        examples: dict[str, str] = {}
        for row in self.rows:
            if row.failed:
                examples.setdefault(_failure_cause(row.message), row.message)
        return examples

    def summary_dict(self) -> dict:
        return {
            "theta_true": self.theta_true,
            "reps": self.reps,
            "bias": self.bias,
            "rmse": self.rmse,
            "avg_sigma_hat": self.avg_sigma_hat,
            "coverage": self.coverage,
            "n_failed": self.n_failed,
        }


def _failure_cause(message: str) -> str:
    """A failure message without its `fold q: `/`period t: ` prefix and column number."""
    return re.sub(r"column \d+ ", "column ", re.sub(r"^(fold \d+: )?(period \d+: )?", "", message))


# A Monte Carlo chunk is as many whole replicates as fit in this many units (the
# rows of a replicate fitted row by row, its distinct histories on its grids;
# `nuisance.panel_units`), and at least one; `mc_experiment` fits each chunk in
# one stage-engine pass. A replicate counts as its units or, if more, its Gram
# entries (Q K_t q_t^2 per period, `nuisance._Design.systems`), but never as
# more than its rows: so a chunk holds no more Gram entries than this or than
# a chunk of this many rows did, and never fewer replicates. It is a constant,
# so the chunks, and every result, are the same for any `jobs`.
MC_CHUNK_UNITS = 8192


def mc_experiment(
    dgp: DiscreteDGP,
    plan: TreatmentPlan,
    cfg: FitConfig,
    reps: int,
    n: int,
    q_folds: int,
    seed: int,
    jobs: int = 1,
    clever: bool = False,
) -> MCResult:
    """Run `reps` independent seed-mixed replicates of dml_estimate.

    Replicate r simulates with mix_seed(seed, r), folds with a further derived
    seed and is reduced to its units at once (`nuisance.panel_units`); a chunk
    closes before the replicate whose units (or Gram entries, up to its n
    rows, if more) would take it past MC_CHUNK_UNITS, and is fitted in one
    stage-engine pass (`_estimates`). So results are identical for any jobs
    count, and each replicate's estimate is its own dml_estimate's up to
    rounding. Up to `jobs` chunks are reduced, then fitted on as many
    threads; a lone chunk is fitted in the calling thread, so jobs = 1, or a
    run of one chunk, starts no thread. A chunk that raises is halved, each
    half refitted on its units, until each failing replicate is fitted alone
    (k failures in about k log2(R) fits), so each failure reads as it does
    alone. Numerical failures (SolverError, PositivityError) are flagged rows
    excluded from the coverage summary; invalid inputs (ValidationError)
    abort the experiment.
    """
    for value, name in ((reps, "reps"), (n, "n"), (jobs, "jobs")):
        _check_integer(value, name)
    if reps < 1:
        raise ValidationError("need at least one replicate")
    if jobs < 1:
        raise ValidationError("jobs must be >= 1")
    _fold_sizes(n, q_folds)  # before any replicate is simulated
    theta_true = oracle_theta(dgp, plan)

    def fold_seed(r: int) -> int:
        return mix_seed(mix_seed(seed, r), 1)

    def fit(chunk: tuple[list[int], _Units]) -> list[MCRow]:
        taken, units = chunk
        try:
            reports = _estimates(units, n, plan, cfg, q_folds, list(map(fold_seed, taken)), clever)
        except (ValidationError, SolverError, PositivityError) as exc:
            if len(taken) > 1:  # halve it until each failing replicate stands alone
                half = len(taken) // 2
                return [row for part in zip((taken[:half], taken[half:]), units.halves(q_folds))
                        for row in fit(part)]
            if isinstance(exc, ValidationError):
                raise
            return [MCRow(rep=taken[0], failed=1, message=str(exc))]
        return [MCRow(rep=r, theta_hat=report.theta_hat, sigma_hat=report.sigma_hat,
                      ci_lower=report.ci_lower, ci_upper=report.ci_upper,
                      covered=int(report.ci_lower <= theta_true <= report.ci_upper))
                for r, report in zip(taken, reports)]

    grams = q_folds * sum(phi.dim ** 2 // phi.arity for phi in cfg.feature_maps)

    def chunks() -> Iterator[tuple[list[int], _Units]]:
        taken: list[int] = []
        parts: list[_Units] = []
        size = 0
        for r in range(reps):
            units = panel_units(simulate(dgp, n, mix_seed(seed, r)), plan, cfg,
                                _fold_labels(n, q_folds, fold_seed(r)), q_folds)
            cost = max(len(units.outcome), min(grams, n))
            if parts and size + cost > MC_CHUNK_UNITS:
                chunk, taken, parts, size = (taken, stack_units(parts)), [], [], 0
                yield chunk  # its replicates' units live on in the stack alone
                del chunk    # from here the caller alone holds the stack
            taken.append(r)
            parts.append(units)
            size += cost
        del units
        chunk, parts = (taken, stack_units(parts)), []
        yield chunk

    pending, rows = chunks(), []
    with ThreadPoolExecutor(max_workers=jobs) as pool:  # a thread starts only at a submit
        while batch := list(islice(pending, jobs)):
            fitted = pool.map(fit, batch) if len(batch) > 1 else [fit(batch[0])]
            rows += [row for part in fitted for row in part]
            del batch, fitted  # no fitted chunk is held while the next are reduced
    ok = [row for row in rows if not row.failed]
    if ok:
        thetas = np.array([row.theta_hat for row in ok])
        sigmas = np.array([row.sigma_hat for row in ok])
        bias = float(thetas.mean() - theta_true)
        rmse = float(np.sqrt(np.mean((thetas - theta_true) ** 2)))
        avg_sigma = float(sigmas.mean())
        coverage = float(np.mean([row.covered for row in ok]))
    else:
        bias = rmse = avg_sigma = coverage = math.nan
    return MCResult(
        theta_true=theta_true,
        reps=reps,
        bias=bias,
        rmse=rmse,
        avg_sigma_hat=avg_sigma,
        coverage=coverage,
        n_failed=len(rows) - len(ok),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Rate diagnostics against the enumeration oracle
# ---------------------------------------------------------------------------


@dataclass
class RateTable:
    """Nuisance-error norms across sample sizes and the scaled product check."""

    ns: tuple[int, ...]
    f_norms: NDArray          # (len(ns), M) L2 errors of the regressions
    a_norms: NDArray          # (len(ns), M) L2 errors of the representers
    scaled_products: NDArray  # (len(ns), M) sqrt(n) * f-err * a-err
    product_slope: float
    products_trend_to_zero: bool

    def summary_dict(self) -> dict:
        return {
            "ns": list(self.ns),
            "f_norms": self.f_norms.tolist(),
            "a_norms": self.a_norms.tolist(),
            "scaled_products": self.scaled_products.tolist(),
            "product_slope": self.product_slope,
            "products_trend_to_zero": self.products_trend_to_zero,
        }


def rate_diagnostics(
    dgp: DiscreteDGP | None,
    plan: TreatmentPlan,
    cfg: FitConfig,
    ns: Sequence[int],
    seed: int,
    reps: int = 1,
) -> RateTable:
    """Track ||f-hat - f||_2, ||a-hat - a||_2 against the enumeration oracle
    across sample sizes, plus the inference-critical scaled products
    sqrt(n) * ||a-err|| * ||f-err||; flags products that fail to trend to 0.

    Needs an enumerable process; norms are exact population L2 distances,
    averaged over `reps` seed-mixed fits per sample size.
    """
    if dgp is None:
        raise ValidationError("rate diagnostics need an enumerable process (oracle mode)")
    if len(set(ns)) < 2:
        raise ValidationError(f"ns must hold at least two distinct sample sizes, got {list(ns)}")
    _check_integer(reps, "reps")
    if reps < 1:
        raise ValidationError(f"reps must be at least 1, got {reps}")
    m = dgp.num_periods
    f_truth = [tabular_fn(tb) for tb in oracle_nested_regressions(dgp, plan)]
    a_truth = [tabular_fn(tb) for tb in oracle_riesz(dgp, plan)]
    f_norms = np.zeros((len(ns), m))
    a_norms = np.zeros((len(ns), m))
    for i, n in enumerate(sorted(ns)):
        for r in range(reps):
            data = simulate(dgp, n, mix_seed(seed, i * 7919 + r))
            regs, reps_fit = fit_nuisances(data, plan, cfg)
            for t in range(1, m + 1):
                f_norms[i, t - 1] += population_l2(dgp, t, regs[t - 1], f_truth[t - 1])
                a_norms[i, t - 1] += population_l2(dgp, t, reps_fit[t - 1], a_truth[t - 1])
    f_norms /= reps
    a_norms /= reps
    ns_sorted = tuple(sorted(int(v) for v in ns))
    scaled = np.sqrt(np.array(ns_sorted))[:, None] * f_norms * a_norms
    worst = scaled.max(axis=1)
    floor = 1e-14
    if np.all(worst <= floor):
        slope = -math.inf
    else:
        slope = float(np.polyfit(np.log(ns_sorted), np.log(np.maximum(worst, floor)), 1)[0])
    return RateTable(
        ns=ns_sorted,
        f_norms=f_norms,
        a_norms=a_norms,
        scaled_products=scaled,
        product_slope=slope,
        products_trend_to_zero=bool(slope < -0.1),
    )
