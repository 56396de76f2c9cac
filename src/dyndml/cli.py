"""Batch front door: config parsing, data ingestion, orchestration, reports.

Config files use a plain key-value grammar, one `key = value` pair per line
(`#` starts a comment; list values are whitespace-separated); a file whose
first non-blank character is `{` is parsed as JSON with the same keys.

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

Defaults for --seed, --jobs and Q may also come from the environment via the
prefix DYNDML_ (DYNDML_SEED, DYNDML_JOBS, DYNDML_Q); explicit flags win.

Exit codes: 0 success, 2 usage or validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Contrast,
    DynamicPolicy,
    FeatureMap,
    FixedSequence,
    PanelDataset,
    PlanError,
    PolynomialFeatures,
    PositivityError,
    RandomFourierFeatures,
    SolverError,
    TabularFeatures,
    TreatmentPlan,
    ValidationError,
    grid_policy,
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
    riesz_step,
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
    except OSError as exc:
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


def _get_int(cfg: dict, key: str, path: str, default: int | None = None) -> int:
    if key not in cfg:
        if default is not None:
            return default
        raise ValidationError(f"{path}: missing key {key!r}")
    try:
        return int(cfg[key][0])
    except (ValueError, IndexError) as exc:
        raise ValidationError(f"{path}: key {key!r} must be an integer") from exc


def _get_float(cfg: dict, key: str, path: str, default: float | None = None) -> float:
    if key not in cfg or not cfg[key]:
        if default is not None:
            return default
        raise ValidationError(f"{path}: missing key {key!r}")
    try:
        return float(cfg[key][0])
    except ValueError as exc:
        raise ValidationError(f"{path}: key {key!r} must be a number") from exc


def _get_floats(cfg: dict, key: str, path: str, count: int | None = None) -> list[float]:
    if key not in cfg:
        raise ValidationError(f"{path}: missing key {key!r}")
    try:
        vals = [float(v) for v in cfg[key]]
    except ValueError as exc:
        raise ValidationError(f"{path}: key {key!r} must list numbers") from exc
    if count is not None and len(vals) != count:
        raise ValidationError(f"{path}: key {key!r} needs {count} values, got {len(vals)}")
    return vals


def _get_ints(cfg: dict, key: str, path: str, count: int | None = None) -> list[int]:
    vals = _get_floats(cfg, key, path, count)
    return [int(v) for v in vals]


def load_dgp(path: str) -> DiscreteDGP:
    cfg = parse_config_file(path)
    m = _get_int(cfg, "periods", path)
    if m < 1:
        raise ValidationError(f"{path}: periods must be >= 1")
    s_ar = _get_ints(cfg, "state_arity", path, m)
    t_ar = _get_ints(cfg, "treatment_arity", path, m)
    initial = np.array(_get_floats(cfg, "initial", path, s_ar[0]))
    props = []
    for t in range(1, m + 1):
        vals = _get_floats(cfg, f"propensity_{t}", path, s_ar[t - 1] * t_ar[t - 1])
        props.append(np.array(vals).reshape(s_ar[t - 1], t_ar[t - 1]))
    trans = []
    for t in range(1, m):
        vals = _get_floats(cfg, f"transition_{t}", path, s_ar[t - 1] * t_ar[t - 1] * s_ar[t])
        trans.append(np.array(vals).reshape(s_ar[t - 1], t_ar[t - 1], s_ar[t]))
    outcome = np.array(_get_floats(cfg, "outcome", path, s_ar[-1] * t_ar[-1])).reshape(
        s_ar[-1], t_ar[-1]
    )
    return DiscreteDGP(
        initial=initial,
        propensities=tuple(props),
        transitions=tuple(trans),
        outcome_mean=outcome,
        sigma_y=_get_float(cfg, "sigma_y", path, 0.0),
        seed=_get_int(cfg, "seed", path, 0),
    )


def load_plan(path: str) -> TreatmentPlan:
    cfg = parse_config_file(path)
    if "kind" not in cfg:
        raise ValidationError(f"{path}: missing key 'kind'")
    kind = cfg["kind"][0]
    if kind == "fixed":
        return FixedSequence(tuple(_get_ints(cfg, "treatments", path)))
    if kind == "policy":
        policies = []
        t = 1
        while f"policy_{t}" in cfg:
            policies.append(grid_policy(_get_ints(cfg, f"policy_{t}", path)))
            t += 1
        if not policies:
            raise ValidationError(f"{path}: policy plan needs policy_1, policy_2, ...")
        return DynamicPolicy(tuple(policies))
    if kind == "contrast":
        coefs = _get_floats(cfg, "coefficients", path)
        seqs = []
        for j in range(1, len(coefs) + 1):
            seqs.append(_get_ints(cfg, f"sequence_{j}", path))
        return Contrast.of_sequences(coefs, seqs)
    raise ValidationError(f"{path}: unknown plan kind {kind!r}")


# ---------------------------------------------------------------------------
# Estimator config -> FitConfig against a dataset
# ---------------------------------------------------------------------------


def required_arities(plan: TreatmentPlan, data: PanelDataset) -> tuple[int, ...]:
    """Per-period arity covering both the observed codes and the plan's targets."""
    arities = []
    for t in range(1, data.num_periods + 1):
        k = data.treatment_arities[t - 1]
        for term in plan.period_terms(t):
            targets = term.targets(data, t)
            if targets.size:
                if targets.min() < 0:
                    raise PlanError(f"period {t}: negative target code")
                k = max(k, int(targets.max()) + 1)
        arities.append(k)
    return tuple(arities)


def _build_feature_maps(
    cfg: dict, path: str, states: Sequence[np.ndarray], arities: Sequence[int]
) -> tuple[FeatureMap, ...]:
    """One feature map per state sample: tabular over its distinct rows, or
    polynomial / Fourier features of its dimension."""
    kind = cfg.get("features", ["tabular"])[0]
    maps: list[FeatureMap] = []
    for t, (s, k) in enumerate(zip(states, arities), start=1):
        if kind == "tabular":
            maps.append(TabularFeatures(grid=np.unique(s, axis=0), arity=k))
        elif kind == "polynomial":
            maps.append(
                PolynomialFeatures(
                    state_dim=s.shape[1], degree=_get_int(cfg, "degree", path, 2), arity=k
                )
            )
        elif kind == "fourier":
            maps.append(
                RandomFourierFeatures(
                    state_dim=s.shape[1],
                    n_features=_get_int(cfg, "n_features", path, 32),
                    arity=k,
                    lengthscale=_get_float(cfg, "lengthscale", path, 1.0),
                    seed=_get_int(cfg, "seed", path, 0) + t,
                )
            )
        else:
            raise ValidationError(f"{path}: unknown feature kind {kind!r}")
    return tuple(maps)


def _fit_config(cfg: dict, path: str, maps: tuple[FeatureMap, ...]) -> FitConfig:
    ridge = None
    if "ridge" in cfg and cfg["ridge"]:
        vals = _get_floats(cfg, "ridge", path)
        ridge = vals[0] if len(vals) == 1 else tuple(vals)
    clip = None
    if "clip" in cfg and cfg["clip"]:
        clip = _get_float(cfg, "clip", path)
    return FitConfig(feature_maps=maps, ridge=ridge, clip=clip)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved estimation settings; built by parse-validate so that a
    malformed file or flag never reaches estimation. Every field defaults."""

    fit: FitConfig
    q_folds: int = 5
    seed: int = 0
    clever: bool = False
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.q_folds < 2:
            raise ValidationError("need at least two folds")
        if self.jobs < 1:
            raise ValidationError("jobs must be >= 1")


def resolve_run_config(
    cfg_raw: dict,
    path: str,
    maps: tuple[FeatureMap, ...],
    q_flag: int | None,
    seed_flag: int | None,
    clever: bool = False,
    jobs: int = 1,
) -> RunConfig:
    return RunConfig(
        fit=_fit_config(cfg_raw, path, maps),
        q_folds=q_flag if q_flag is not None else _get_int(cfg_raw, "Q", path, 5),
        seed=seed_flag if seed_flag is not None else _get_int(cfg_raw, "seed", path, 0),
        clever=clever,
        jobs=jobs,
    )


def _resolved_env_default(name: str, fallback: int) -> int:
    raw = os.environ.get(f"DYNDML_{name}")
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"environment DYNDML_{name} must be an integer") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _cmd_simulate(args: argparse.Namespace) -> int:
    dgp = load_dgp(args.dgp)
    if args.n < 1:
        raise ValidationError("n must be >= 1")
    seed = dgp.seed if args.seed is None else args.seed
    data = simulate(dgp, args.n, seed)
    write_panel_csv(data, args.out)
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
    arities = required_arities(plan, data)
    if arities != data.treatment_arities:
        data = PanelDataset(data.states, data.treatments, data.outcome, arities)
    cfg_raw = parse_config_file(args.config) if args.config else {}
    maps = _build_feature_maps(cfg_raw, args.config or "<defaults>", data.states, arities)
    run = resolve_run_config(
        cfg_raw, args.config or "<defaults>", maps, args.Q, args.seed,
        clever=args.clever_covariate,
    )
    report = dml_estimate(data, plan, run.fit, run.q_folds, run.seed, clever=run.clever)
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
    rng = np.random.Generator(np.random.PCG64(seed))
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

    try:
        pot = oracle_theta_potential(dgp, plan)
        resid = abs(pot - theta)
        checks.append(
            {"name": "potential_outcome_crosscheck", "value": resid, "passed": bool(resid <= 1e-12)}
        )
    except ValidationError:
        pass
    return checks


def _riesz_identity_residual(dgp: DiscreteDGP, plan: TreatmentPlan) -> float:
    a_tabs = oracle_riesz(dgp, plan)
    paths = dgp.paths()
    worst = 0.0
    for t in range(1, dgp.num_periods + 1):
        target = riesz_step(
            dgp, plan, t, tabular_fn(a_tabs[t - 2]) if t > 1 else None
        )
        mass = paths.cell_mass(t, dgp.state_arities[t - 1], dgp.treatment_arities[t - 1])
        worst = max(worst, float(np.max(np.abs((a_tabs[t - 1] - target) * mass))))
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
    if args.reps < 1:
        raise ValidationError("reps must be >= 1")
    if args.n < 1:
        raise ValidationError("n must be >= 1")
    seed = dgp.seed if args.seed is None else args.seed
    cfg_raw = parse_config_file(args.config) if args.config else {}
    probe = simulate(dgp, min(args.n, 256), seed)
    arities = required_arities(plan, probe)
    grids = [np.arange(g, dtype=float)[:, None] for g in dgp.state_arities]
    kind = cfg_raw.get("features", ["tabular"])[0]
    if kind == "tabular":
        maps: tuple[FeatureMap, ...] = tuple(
            TabularFeatures(grid=grids[t], arity=arities[t]) for t in range(dgp.num_periods)
        )
    else:
        maps = _build_feature_maps(cfg_raw, args.config or "<defaults>", probe.states, arities)
    run = resolve_run_config(
        cfg_raw, args.config or "<defaults>", maps, args.Q, seed, jobs=args.jobs
    )
    result = mc_experiment(
        dgp, plan, run.fit, args.reps, args.n, run.q_folds, run.seed, jobs=run.jobs
    )
    result.write_csv(args.out)
    print(json.dumps(result.summary_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_surrogate(args: argparse.Namespace) -> int:
    data = read_surrogate_csvs(args.short, args.long)
    cfg_raw = parse_config_file(args.config) if args.config else {}
    path = args.config or "<defaults>"
    maps = _build_feature_maps(
        cfg_raw,
        path,
        (np.vstack([data.short_x, data.long_x]), np.vstack([data.short_sx, data.long_sx])),
        (2, 1),
    )
    run = resolve_run_config(cfg_raw, path, maps, args.Q, args.seed)
    report = surrogate_estimate(data, run.fit, run.q_folds, run.seed)
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

    env_seed = os.environ.get("DYNDML_SEED")
    default_seed = int(env_seed) if env_seed is not None else None
    default_jobs = _resolved_env_default("JOBS", 1)
    env_q = os.environ.get("DYNDML_Q")
    default_q = int(env_q) if env_q is not None else None

    p = sub.add_parser("simulate", help="draw trajectories from a process spec into a CSV")
    p.add_argument("--dgp", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="cross-fitted debiased estimate from a CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--Q", type=int, default=default_q)
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--clever-covariate", action="store_true")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("oracle", help="print exact theta and nuisance tables for a process")
    p.add_argument("--dgp", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("diagnose", help="orthogonality/mixed-bias/robustness checks")
    p.add_argument("--dgp", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("mc", help="Monte Carlo coverage experiment")
    p.add_argument("--dgp", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--Q", type=int, default=default_q)
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--jobs", type=int, default=default_jobs)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("surrogate-estimate", help="two-sample long-term effect estimate")
    p.add_argument("--short", required=True)
    p.add_argument("--long", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--Q", type=int, default=default_q)
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_surrogate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, PlanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, PositivityError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
