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
scoring the held-out rows from the same designs (see the `nuisance` module).
Its training sets are grouped by replicate, so the Monte Carlo harness fits a
chunk of MC_CHUNK_ROWS rows of replicates in one pass (`_estimates`), each
replicate folded, checked and reported as `dml_estimate` does it alone.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from .core import (
    NuisanceSet,
    PanelDataset,
    PositivityError,
    SolverError,
    TreatmentPlan,
    ValidationError,
    _write_csv,
)
from .moment import moment_scores
from .nuisance import FitConfig, cross_fit, fit_nuisances
from .oracle import (
    DiscreteDGP,
    mix_seed,
    oracle_nested_regressions,
    oracle_riesz,
    oracle_theta,
    population_l2,
    simulate,
)
from .core import tabular_fn

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


def make_folds(n: int, q_folds: int, seed: int) -> FoldPlan:
    """Seeded uniform shuffle, then contiguous split; the first n mod Q folds
    take the remainder observations."""
    if q_folds < 2:
        raise ValidationError("need at least two folds")
    if q_folds > n:
        raise ValidationError(f"cannot split {n} observations into {q_folds} folds")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    sizes = [n // q_folds + (1 if q < n % q_folds else 0) for q in range(q_folds)]
    return FoldPlan(folds=tuple(np.split(perm, np.cumsum(sizes)[:-1])), seed=seed)


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
        half, tol = Z_95 * self.sigma_hat / math.sqrt(self.n), 1e-9 * max(1.0, abs(self.theta_hat))
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
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def interval(self, level: float = 0.95) -> tuple[float, float]:
        """Two-sided interval; 0.95 returns the stored conventional-1.96 bounds,
        other levels use the built-in Gaussian quantile."""
        if level == 0.95:
            return self.ci_lower, self.ci_upper
        if not 0.0 < level < 1.0:
            raise ValidationError("confidence level must lie strictly between 0 and 1")
        half = normal_quantile(0.5 + level / 2.0) * self.sigma_hat / math.sqrt(self.n)
        return self.theta_hat - half, self.theta_hat + half

    @classmethod
    def _with_interval(
        cls, theta: float, sigma: float, n: int, q_folds: int, seed: int,
        per_fold: list[dict], config: dict, **sample_sizes: int,
    ) -> "EstimateReport":
        """Report carrying the conventional interval theta +- 1.96 sigma / sqrt(n)."""
        half = Z_95 * sigma / math.sqrt(n)
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
        "clip": cfg.clip,
        **extra,
    }


def _check_fold_scores(q: int, *scores: NDArray) -> None:
    """Held-out scores must be finite; a blow-up is a numerical failure of fold q."""
    if not all(np.isfinite(s).all() for s in scores):
        raise SolverError(f"fold {q}: non-finite held-out scores")


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
        return _estimates([data], [data.n_units], plan, cfg, q_folds, [seed], clever)[0]
    folds = make_folds(data.n_units, q_folds, seed).folds
    scores, _, corrections = moment_scores(data, plan, nuisances)
    return _report(scores, corrections, folds, cfg, seed, clever)


def _estimates(
    panels: Iterable[PanelDataset],
    sizes: Sequence[int],
    plan: TreatmentPlan,
    cfg: FitConfig,
    q_folds: int,
    seeds: Sequence[int],
    clever: bool = False,
) -> list[EstimateReport]:
    """The cross-fitted estimate of each panel (a replicate of sizes[r] rows,
    folded with seeds[r]), all fitted in one stage-engine pass
    (`nuisance.cross_fit`), which takes the panels one at a time. Each report
    is the one the panel gets alone, up to rounding, and each panel is checked
    as it is alone; an error names no panel."""
    folds = [make_folds(n, q_folds, s).folds for n, s in zip(sizes, seeds)]
    fits = cross_fit(panels, plan, cfg, folds, clever)
    return [_report(scores, corrections, f, cfg, s, clever, train_means if clever else None)
            for (scores, corrections, train_means), f, s in zip(fits, folds, seeds)]


def _report(
    scores: NDArray, corrections: NDArray, folds: Sequence[NDArray], cfg: FitConfig, seed: int,
    clever: bool, train_means: NDArray | None = None,
) -> EstimateReport:
    """The report of held-out scores and corrections (M, n); a non-finite score
    is a SolverError naming its fold. With `train_means` (Q, M), each fold
    also reports the clever covariate's training-row correction means."""
    per_fold: list[dict] = []
    for q, idx in enumerate(folds):
        vals = scores[idx]
        _check_fold_scores(q, vals)
        fold_info = {
            "fold": q,
            "size": int(idx.shape[0]),
            "score_mean": float(vals.mean()),
            "correction_means": [float(c) for c in np.take(corrections, idx, 1).mean(axis=1)],
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
    theta = float(scores.mean())
    sigma = float(np.sqrt(np.mean((scores - theta) ** 2)))
    return EstimateReport._with_interval(theta, sigma, len(scores), len(folds), seed, per_fold,
                                         config)


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


# A Monte Carlo chunk is as many whole replicates as fit in this many rows, and
# at least one; `mc_experiment` fits each chunk in one stage-engine pass. It is
# a constant, so the chunks, and every result, are the same for any `jobs`.
MC_CHUNK_ROWS = 8192


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

    Replicate r simulates with mix_seed(seed, r) and folds with a further
    derived seed. Replicates are fitted in chunks of MC_CHUNK_ROWS rows
    (`_estimates`), and `jobs` threads take whole chunks, so results are
    identical for any jobs count and each replicate's estimate is its own
    dml_estimate's up to rounding. A chunk that raises is rerun one replicate
    at a time, so each failure reads as it does alone. Numerical failures
    (SolverError, PositivityError) are flagged rows excluded from the
    coverage summary; invalid inputs (ValidationError) abort the experiment.
    """
    if reps < 1:
        raise ValidationError("need at least one replicate")
    if jobs < 1:
        raise ValidationError("jobs must be >= 1")
    theta_true = oracle_theta(dgp, plan)

    def run(chunk: range) -> list[MCRow]:
        seeds = [mix_seed(seed, r) for r in chunk]
        try:
            reports = _estimates((simulate(dgp, n, s) for s in seeds), [n] * len(chunk), plan, cfg,
                                 q_folds, [mix_seed(s, 1) for s in seeds], clever)
        except (ValidationError, SolverError, PositivityError) as exc:
            if len(chunk) > 1:
                return [row for r in chunk for row in run(range(r, r + 1))]
            if isinstance(exc, ValidationError):
                raise
            return [MCRow(rep=chunk[0], failed=1, message=str(exc))]
        return [MCRow(rep=r, theta_hat=report.theta_hat, sigma_hat=report.sigma_hat,
                      ci_lower=report.ci_lower, ci_upper=report.ci_upper,
                      covered=int(report.ci_lower <= theta_true <= report.ci_upper))
                for r, report in zip(chunk, reports)]

    size = max(1, MC_CHUNK_ROWS // max(n, 1))
    chunks = [range(lo, min(lo + size, reps)) for lo in range(0, reps, size)]
    if jobs == 1:
        rows = [row for chunk in chunks for row in run(chunk)]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = [row for part in pool.map(run, chunks) for row in part]
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
    if len(ns) < 2:
        raise ValidationError("need at least two sample sizes")
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
