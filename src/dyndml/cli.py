"""Batch front door: config parsing, data ingestion, orchestration, reports.

Config files use a plain key-value grammar, one `key = value` pair per line
(`#` starts a comment; list values are whitespace-separated); a file whose
first non-blank character is `{` is parsed as JSON with the same keys. An
empty value counts as an absent key, and an int key takes integral values
only (`3` or `3.0`, not `0.6`).

Process spec keys (`--dgp`):
    periods        int
    state_arity    one int per period
    treatment_arity one int per period
    initial        P(S_1 = s), state_arity[0] numbers
    propensity_T   row-major P(T_T = k | S_T = s), states x codes
    transition_T   row-major P(S_{T+1} = s' | S_T = s, T_T = k),
                   (state, code) pairs x next states, for T = 1..periods-1
    outcome        row-major mu(s_M, k_M), states x codes
    sigma_y        float >= 0 (optional, default 0)
    seed           int (optional, default 0; used when --seed is omitted)

Plan spec keys (`--plan`):
    kind = fixed     with `treatments = c_1 .. c_M`
    kind = policy    with `policy_T = code per state grid value` per period
    kind = contrast  with `coefficients = w_1 .. w_J` and
                     `sequence_j = c_1 .. c_M` for j = 1..J

Estimator config keys (`--config`):
    features     tabular | polynomial | fourier   (default tabular)
    degree       polynomial degree (default 2)
    n_features   fourier feature count (default 32)
    lengthscale  fourier lengthscale (default 1.0)
    ridge        normalized-Gram penalty; omit for the scale-free default
    clip         representer clip bound (optional)
    Q            folds (default 5)
    seed         fold/simulation seed (default 0)

An omitted --seed, --Q or --jobs is read from DYNDML_SEED, DYNDML_Q or
DYNDML_JOBS, only by the commands that take the flag, before the config file
and the default; a malformed value exits 2.

Exit codes: 0 success; 2 usage or validation error, such as a plan target at
or above the treatment levels (`estimate`: the panel's largest code + 1 per
period; `mc`: the process's treatment_arity); 3 numerical failure, such as a
targeted level that no row has, or an `mc` run whose every replicate failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from .core import (
    Contrast,
    DynamicPolicy,
    FeatureMap,
    FixedSequence,
    PolynomialFeatures,
    PositivityError,
    RandomFourierFeatures,
    SolverError,
    TabularFeatures,
    TreatmentPlan,
    ValidationError,
    _rng,
    grid_policy,
    moment_batch,
    read_panel_csv,
    tabular_fn,
    write_panel_csv,
)
from .inference import dml_estimate, mc_experiment
from .moment import Perturbation, mixed_bias, orthogonality_slope, perturbation_bias
from .nuisance import FitConfig
from .oracle import (
    DiscreteDGP,
    oracle_nested_regressions,
    oracle_nuisances,
    oracle_riesz,
    oracle_theta,
    oracle_theta_potential,
    population_moment,
    simulate,
)
from .surrogate import read_surrogate_csvs, surrogate_estimate


# ---------------------------------------------------------------------------
# Key-value / JSON config parsing
# ---------------------------------------------------------------------------


def parse_config_file(path: str) -> dict[str, list[str]]:
    """Normalize either grammar to {key: list of string tokens}."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc

        def flat(v) -> list[str]:
            if isinstance(v, (list, tuple)):
                return [tok for item in v for tok in flat(item)]
            return [str(v)]

        return {str(k): flat(v) for k, v in raw.items()}
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValidationError(f"{path}:{lineno}: expected `key = value`")
        key, _, value = body.partition("=")
        out[key.strip()] = value.split()
    return out


_REQUIRED = object()


def _parse_token(token: str, kind: type, where: str):
    """One token as `kind`. An int token is exact when int() accepts it, and
    otherwise must be an integral number (`3.0` is 3, `0.6` an error)."""
    try:
        return kind(token)
    except ValueError:
        pass
    if kind is int:
        try:
            value = float(token)
        except ValueError:
            value = math.nan
        if value.is_integer():
            return int(value)
    raise ValidationError(
        f"{where}: {token!r} is not " + ("an integer" if kind is int else "a number")
    )


class Config:
    """A config file's tokens read as typed values. An empty value counts as an
    absent key; every error names the file and the key."""

    def __init__(self, path: str | None) -> None:
        self.path = path or "<defaults>"
        self.tokens = parse_config_file(path) if path else {}

    def values(self, key: str, kind: type = float, count: int | None = None,
               default=_REQUIRED) -> list:
        tokens = self.tokens.get(key)
        if not tokens:
            if default is _REQUIRED:
                raise ValidationError(f"{self.path}: missing key {key!r}")
            return default
        if count is not None and len(tokens) != count:
            raise ValidationError(
                f"{self.path}: key {key!r} needs {count} values, got {len(tokens)}"
            )
        return [_parse_token(tok, kind, f"{self.path}: key {key!r}") for tok in tokens]

    def value(self, key: str, kind: type = float, default=_REQUIRED):
        if default is not _REQUIRED and not self.tokens.get(key):
            return default
        return self.values(key, kind, 1)[0]


def load_dgp(path: str) -> DiscreteDGP:
    cfg = Config(path)
    m = cfg.value("periods", int)
    if m < 1:
        raise ValidationError(f"{path}: periods must be >= 1")
    s_ar = cfg.values("state_arity", int, m)
    t_ar = cfg.values("treatment_arity", int, m)
    initial = np.array(cfg.values("initial", float, s_ar[0]))
    props = []
    for t in range(1, m + 1):
        vals = cfg.values(f"propensity_{t}", float, s_ar[t - 1] * t_ar[t - 1])
        props.append(np.array(vals).reshape(s_ar[t - 1], t_ar[t - 1]))
    trans = []
    for t in range(1, m):
        vals = cfg.values(f"transition_{t}", float, s_ar[t - 1] * t_ar[t - 1] * s_ar[t])
        trans.append(np.array(vals).reshape(s_ar[t - 1], t_ar[t - 1], s_ar[t]))
    outcome = np.array(cfg.values("outcome", float, s_ar[-1] * t_ar[-1])).reshape(
        s_ar[-1], t_ar[-1]
    )
    return DiscreteDGP(
        initial=initial,
        propensities=tuple(props),
        transitions=tuple(trans),
        outcome_mean=outcome,
        sigma_y=cfg.value("sigma_y", float, 0.0),
        seed=cfg.value("seed", int, 0),
    )


def load_plan(path: str) -> TreatmentPlan:
    cfg = Config(path)
    kind = cfg.value("kind", str)
    if kind == "fixed":
        return FixedSequence(tuple(cfg.values("treatments", int)))
    if kind == "policy":
        policies = []
        t = 1
        while f"policy_{t}" in cfg.tokens:
            policies.append(grid_policy(cfg.values(f"policy_{t}", int)))
            t += 1
        if not policies:
            raise ValidationError(f"{path}: policy plan needs policy_1, policy_2, ...")
        return DynamicPolicy(tuple(policies))
    if kind == "contrast":
        coefs = cfg.values("coefficients", float)
        seqs = [cfg.values(f"sequence_{j}", int) for j in range(1, len(coefs) + 1)]
        return Contrast.of_sequences(coefs, seqs)
    raise ValidationError(f"{path}: unknown plan kind {kind!r}")


# ---------------------------------------------------------------------------
# Estimator config -> FitConfig against a dataset
# ---------------------------------------------------------------------------


def _distinct_rows(s: np.ndarray) -> np.ndarray:
    """The sorted distinct rows of `s`, as `np.unique(s, axis=0)` gives them,
    from one lexsort and a compare of neighbours (rows with no columns are all
    equal, and keep one)."""
    if s.shape[1]:
        s = s[np.lexsort(s.T[::-1])]
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = (s[1:] != s[:-1]).any(axis=1)
    return s[keep]


def _build_feature_maps(
    cfg: Config, states: Sequence[np.ndarray], arities: Sequence[int]
) -> tuple[FeatureMap, ...]:
    """One feature map per state sample: tabular over its distinct rows, or
    polynomial / Fourier features of its dimension."""
    kind = cfg.value("features", str, "tabular")
    maps: list[FeatureMap] = []
    for t, (s, k) in enumerate(zip(states, arities), start=1):
        if kind == "tabular":
            maps.append(TabularFeatures(grid=_distinct_rows(s), arity=k))
        elif kind == "polynomial":
            maps.append(
                PolynomialFeatures(
                    state_dim=s.shape[1], degree=cfg.value("degree", int, 2), arity=k
                )
            )
        elif kind == "fourier":
            maps.append(
                RandomFourierFeatures(
                    state_dim=s.shape[1],
                    n_features=cfg.value("n_features", int, 32),
                    arity=k,
                    lengthscale=cfg.value("lengthscale", float, 1.0),
                    seed=cfg.value("seed", int, 0) + t,
                )
            )
        else:
            raise ValidationError(f"{cfg.path}: unknown feature kind {kind!r}")
    return tuple(maps)


def _fit_settings(
    args: argparse.Namespace, states: Sequence[np.ndarray], arities: Sequence[int]
) -> tuple[FitConfig, int, int]:
    """FitConfig over `states` from --config, with Q and the seed resolved as
    flag (or its DYNDML_* variable) > config file > default."""
    cfg = Config(args.config)
    ridge = cfg.values("ridge", float, default=None)
    fit = FitConfig(
        feature_maps=_build_feature_maps(cfg, states, arities),
        ridge=ridge[0] if ridge is not None and len(ridge) == 1 else ridge,
        clip=cfg.value("clip", float, None),
    )
    q_folds = cfg.value("Q", int, 5) if args.Q is None else args.Q
    seed = cfg.value("seed", int, 0) if args.seed is None else args.seed
    return fit, q_folds, seed


def _apply_environment(args: argparse.Namespace) -> None:
    """Fill each integer flag the command takes but was not given from its
    DYNDML_<NAME> variable."""
    for name in ("seed", "Q", "jobs"):
        var = f"DYNDML_{name.upper()}"
        if getattr(args, name, 0) is None and var in os.environ:
            setattr(args, name, _parse_token(os.environ[var], int, f"environment {var}"))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _cmd_simulate(args: argparse.Namespace) -> int:
    dgp = load_dgp(args.dgp)
    seed = dgp.seed if args.seed is None else args.seed
    write_panel_csv(simulate(dgp, args.n, seed), args.out)
    print(f"wrote {args.n} trajectories to {args.out} (seed={seed})")
    return 0


def _validate_columns(path: str, data_m: int, plan: TreatmentPlan) -> None:
    if plan.num_periods > data_m:
        raise ValidationError(
            f"{path}: missing column t{data_m + 1} (plan covers {plan.num_periods} periods)"
        )
    if plan.num_periods < data_m:
        raise ValidationError(
            f"{path}: data has {data_m} periods but the plan covers {plan.num_periods}"
        )


def _cmd_estimate(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan)
    data = read_panel_csv(args.data)
    _validate_columns(args.data, data.num_periods, plan)
    fit, q_folds, seed = _fit_settings(args, data.states, data.treatment_arities)
    report = dml_estimate(data, plan, fit, q_folds, seed, clever=args.clever_covariate)
    _write_text(args.out, report.to_json())
    print(
        f"theta_hat={report.theta_hat:.10g} sigma_hat={report.sigma_hat:.10g} "
        f"ci=[{report.ci_lower:.10g}, {report.ci_upper:.10g}] n={report.n} Q={report.Q}"
    )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    dgp = load_dgp(args.dgp)
    plan = load_plan(args.plan)
    theta = oracle_theta(dgp, plan)
    f_tabs = oracle_nested_regressions(dgp, plan)
    a_tabs = oracle_riesz(dgp, plan)
    print(f"theta={theta:.12g}")
    for t, (f, a) in enumerate(zip(f_tabs, a_tabs), start=1):
        print(f"f_{t}=" + json.dumps(f.tolist()))
        print(f"a_{t}=" + json.dumps(a.tolist()))
    if args.out:
        payload = {
            "theta": theta,
            "f_tables": [f.tolist() for f in f_tabs],
            "a_tables": [a.tolist() for a in a_tabs],
        }
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _diagnose_checks(dgp: DiscreteDGP, plan: TreatmentPlan, seed: int) -> list[dict]:
    rng = _rng(seed)
    truth = oracle_nuisances(dgp, plan)
    theta = oracle_theta(dgp, plan)
    m = dgp.num_periods
    checks: list[dict] = []

    def rnd_tab(t: int) -> np.ndarray:
        shape = (dgp.state_arities[t - 1], dgp.treatment_arities[t - 1])
        return rng.uniform(-1.0, 1.0, size=shape)

    eps_grid = (1e-1, 1e-2, 1e-3)
    worst_single = float("inf")
    for t in range(1, m + 1):
        for which in ("f", "a"):
            direction = Perturbation(
                f_directions={t: tabular_fn(rnd_tab(t))} if which == "f" else {},
                a_directions={t: tabular_fn(rnd_tab(t))} if which == "a" else {},
            )
            slope = orthogonality_slope(dgp, plan, direction, eps_grid, truth=truth)
            worst_single = min(worst_single, slope)
    checks.append(
        {
            "name": "orthogonality_single_nuisance_slope",
            "value": worst_single,
            "passed": bool(worst_single >= 1.9),
        }
    )

    worst_cross = 0.0
    for t in range(1, m + 1):
        for t2 in range(1, m + 1):
            if t2 in (t, t + 1):
                continue
            direction = Perturbation(
                f_directions={t2: tabular_fn(rnd_tab(t2))},
                a_directions={t: tabular_fn(rnd_tab(t))},
            )
            worst_cross = max(
                worst_cross, abs(perturbation_bias(dgp, plan, direction, 1e-2, truth=truth))
            )
    checks.append(
        {
            "name": "cross_period_bias_at_1e-2",
            "value": worst_cross,
            "passed": bool(worst_cross < 1e-12),
        }
    )

    worst_mb = 0.0
    for _ in range(20):
        alt = Perturbation(
            f_directions={t: tabular_fn(rnd_tab(t)) for t in range(1, m + 1)},
            a_directions={t: tabular_fn(rnd_tab(t)) for t in range(1, m + 1)},
        ).apply(truth, 1.0)
        direct, formula = mixed_bias(dgp, plan, alt, truth)
        worst_mb = max(worst_mb, abs(direct - formula))
    checks.append(
        {"name": "mixed_bias_equality", "value": worst_mb, "passed": bool(worst_mb <= 1e-10)}
    )

    corrupt_a = Perturbation(
        a_directions={t: tabular_fn(rnd_tab(t)) for t in range(1, m + 1)}
    ).apply(truth, 1.0)
    corrupt_f = Perturbation(
        f_directions={t: tabular_fn(rnd_tab(t)) for t in range(1, m + 1)}
    ).apply(truth, 1.0)
    dr = max(
        abs(population_moment(dgp, plan, corrupt_a) - theta),
        abs(population_moment(dgp, plan, corrupt_f) - theta),
    )
    checks.append({"name": "double_robustness", "value": dr, "passed": bool(dr <= 1e-10)})

    worst_riesz = _riesz_identity_residual(dgp, plan)
    checks.append(
        {"name": "riesz_identity", "value": worst_riesz, "passed": bool(worst_riesz <= 1e-10)}
    )

    resid = abs(oracle_theta_potential(dgp, plan) - theta)
    checks.append(
        {"name": "potential_outcome_crosscheck", "value": resid, "passed": bool(resid <= 1e-12)}
    )
    return checks


def _riesz_identity_residual(dgp: DiscreteDGP, plan: TreatmentPlan) -> float:
    """The largest |a_t(s,k) P(S_t=s, T_t=k) - E[a_{t-1} m_t(Z; 1_(s,k))]| over
    periods and cells, for the oracle representers a_t (a_0 = 1), with the
    right side from `moment_batch` on the path table."""
    a_tabs = oracle_riesz(dgp, plan)
    paths = dgp.paths()
    worst, prev = 0.0, paths.prob
    for t, table in enumerate(a_tabs, start=1):
        lhs = table * paths.cell_mass(t, *table.shape)
        for cell in np.ndindex(table.shape):
            indicator = np.zeros(table.shape)
            indicator[cell] = 1.0
            rhs = float(prev @ moment_batch(plan, t, paths.data, tabular_fn(indicator)))
            worst = max(worst, abs(lhs[cell] - rhs))
        a_t = tabular_fn(table).batch(paths.data.states[t - 1], paths.treatments[:, t - 1])
        prev = paths.prob * a_t
    return worst


def _cmd_diagnose(args: argparse.Namespace) -> int:
    dgp = load_dgp(args.dgp)
    plan = load_plan(args.plan)
    seed = dgp.seed if args.seed is None else args.seed
    checks = _diagnose_checks(dgp, plan, seed)
    payload = {"checks": checks, "all_passed": all(c["passed"] for c in checks)}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        _write_text(args.out, text)
    print(text)
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    dgp = load_dgp(args.dgp)
    plan = load_plan(args.plan)
    seed = dgp.seed if args.seed is None else args.seed
    grids = [np.arange(g, dtype=float)[:, None] for g in dgp.state_arities]
    fit, q_folds, _ = _fit_settings(args, grids, dgp.treatment_arities)
    jobs = 1 if args.jobs is None else args.jobs
    result = mc_experiment(dgp, plan, fit, args.reps, args.n, q_folds, seed, jobs=jobs)
    result.write_csv(args.out)
    examples = result.failure_examples
    for cause, count in result.failure_counts.items():
        print(f"{count} failed replicate(s): {examples[cause]}", file=sys.stderr)
    if result.n_failed == result.reps:
        print(f"numerical failure: all {result.reps} replicates failed", file=sys.stderr)
        return 3
    print(json.dumps(result.summary_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_surrogate(args: argparse.Namespace) -> int:
    data = read_surrogate_csvs(args.short, args.long)
    # The stacked samples are built inside the call so that they are freed
    # once the feature maps exist.
    fit, q_folds, seed = _fit_settings(
        args,
        (np.vstack([data.short_x, data.long_x]), np.vstack([data.short_sx, data.long_sx])),
        (2, 1),
    )
    report = surrogate_estimate(data, fit, q_folds, seed)
    _write_text(args.out, report.to_json())
    print(
        f"theta_hat={report.theta_hat:.10g} sigma_hat={report.sigma_hat:.10g} "
        f"ci=[{report.ci_lower:.10g}, {report.ci_upper:.10g}] "
        f"n_short={report.n_short} n_long={report.n_long}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyndml",
        description="Dynamic treatment effects by automated debiasing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {"dgp": {"required": True}, "plan": {"required": True}, "config": {},
              "Q": {"type": int}, "seed": {"type": int}}

    def command(name, func, help_text, *flags, out_required=True):
        """A subcommand taking --out and the named shared flags; an omitted
        optional flag is None."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag in flags:
            p.add_argument(f"--{flag}", **shared[flag])
        p.add_argument("--out", required=out_required)
        return p

    p = command("simulate", _cmd_simulate, "draw trajectories from a process spec into a CSV",
                "dgp", "seed")
    p.add_argument("--n", type=int, required=True)
    p = command("estimate", _cmd_estimate, "cross-fitted debiased estimate from a CSV",
                "plan", "config", "Q", "seed")
    p.add_argument("--data", required=True)
    p.add_argument("--clever-covariate", action="store_true")
    command("oracle", _cmd_oracle, "print exact theta and nuisance tables for a process",
            "dgp", "plan", out_required=False)
    command("diagnose", _cmd_diagnose, "orthogonality/mixed-bias/robustness checks",
            "dgp", "plan", "seed", out_required=False)
    p = command("mc", _cmd_mc, "Monte Carlo coverage experiment",
                "dgp", "plan", "config", "Q", "seed")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jobs", type=int)
    p = command("surrogate-estimate", _cmd_surrogate, "two-sample long-term effect estimate",
                "config", "Q", "seed")
    p.add_argument("--short", required=True)
    p.add_argument("--long", required=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_environment(args)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, PositivityError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
