"""The four seeded workloads of the dyndml benchmark.

A workload turns a seed into inputs (`generate`), runs one operation on them
(`operation`) and reduces the result to a flat record of numbers
(`summarize`). `check` compares a record with the truth the generator knows:
the enumeration oracle for the discrete processes, a closed form for the
continuous panel and the two-sample surrogate process.

Every operation builds fresh datasets, plans, feature maps and configs, so no
cache keyed on object identity can make a later operation cheaper than a
user's single call. Package functions are looked up on their module at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from dyndml import cli, core, inference, nuisance, oracle

Q_FOLDS = 5
SE_LIMIT = 5.0  # |theta_hat - truth| must stay within this many standard errors


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int      # input rows estimated by one operation
    units: int     # rows x periods, the base of the per-unit work ratios
    generate: Callable[[int, str], Any]          # (seed, scratch dir) -> inputs
    operation: Callable[[Any], Any]              # inputs -> output
    summarize: Callable[[Any], dict]             # output -> flat record
    check: Callable[[dict], list[str]]           # record -> problems
    tolerance: Callable[[dict], float]           # record -> reference tolerance


def _within_se(label: str, theta: float, sigma: float, n: int, truth: float) -> list[str]:
    se = sigma / math.sqrt(n)
    if not (math.isfinite(theta) and math.isfinite(sigma) and sigma > 0):
        return [f"{label}: non-finite or degenerate estimate theta={theta} sigma={sigma}"]
    if abs(theta - truth) > SE_LIMIT * se:
        return [f"{label}: theta_hat {theta:.6g} is {abs(theta - truth) / se:.1f} SE from {truth:.6g}"]
    return []


def _report_record(report) -> dict:
    return {
        "theta_hat": report.theta_hat,
        "sigma_hat": report.sigma_hat,
        "ci_lower": report.ci_lower,
        "ci_upper": report.ci_upper,
    }


def _categorical(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """One inverse-CDF draw per row of a probability matrix."""
    u = rng.random(probs.shape[0])
    idx = (u[:, None] >= np.cumsum(probs, axis=1)).sum(axis=1)
    return np.minimum(idx, probs.shape[1] - 1)


# ---------------------------------------------------------------------------
# tab-contrast-1e6: dgp_ref_2, two-plan contrast, tabular features
# ---------------------------------------------------------------------------

TAB_N = 1_000_000
CONTRAST = ([1.0, -1.0], [(1, 1), (0, 0)])
CONTRAST_TRUTH = oracle.oracle_theta(oracle.dgp_ref_2(), core.Contrast.of_sequences(*CONTRAST))


def _tab_generate(seed: int, workdir: str) -> dict:
    data = oracle.simulate(oracle.dgp_ref_2(), TAB_N, seed)
    return {
        "states": data.states,
        "treatments": data.treatments,
        "outcome": data.outcome,
        "arities": data.treatment_arities,
        "seed": seed,
    }


def _tab_operation(inputs: dict):
    data = core.PanelDataset(
        inputs["states"], inputs["treatments"], inputs["outcome"], inputs["arities"]
    )
    plan = core.Contrast.of_sequences(*CONTRAST)
    maps = tuple(core.TabularFeatures(grid=np.arange(2.0), arity=2) for _ in range(2))
    cfg = nuisance.FitConfig(feature_maps=maps)
    return inference.dml_estimate(data, plan, cfg, Q_FOLDS, inputs["seed"])


def _tab_check(rec: dict) -> list[str]:
    return _within_se("contrast", rec["theta_hat"], rec["sigma_hat"], TAB_N, CONTRAST_TRUTH)


def _estimate_tolerance(n: int) -> Callable[[dict], float]:
    return lambda rec: 1e-6 * rec["sigma_hat"] / math.sqrt(n)


# ---------------------------------------------------------------------------
# poly-d5-M3: continuous 5-d states, logistic treatments, degree-3 polynomials
# ---------------------------------------------------------------------------

POLY_N = 5_000
POLY_M = 3
POLY_D = 5
POLY_GAMMA = np.array([0.5, -0.3, 0.2, 0.0, 0.1])   # propensity logit slope
POLY_B = np.array([0.5, 0.2, 0.0, -0.3, 0.1])       # treatment shift of the next state
POLY_C = np.array([1.0, 0.5, -0.5, 0.2, 0.0])       # outcome slope on the last state
POLY_RHO = 0.5
POLY_DELTA = 1.0
# Under treat-always, E[S_3] = (1 + rho) b, so theta(1,1,1) = (1 + rho) c.b + delta.
POLY_TRUTH = float((1.0 + POLY_RHO) * POLY_C @ POLY_B + POLY_DELTA)


def _poly_generate(seed: int, workdir: str) -> dict:
    """S_1 ~ N(0, I); T_t ~ Bernoulli(logistic(gamma.S_t));
    S_{t+1} = rho S_t + b T_t + 0.5 N(0, I); Y = c.S_M + delta T_M + N(0, 1)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    s = rng.standard_normal((POLY_N, POLY_D))
    states = []
    treatments = np.empty((POLY_N, POLY_M), dtype=np.int64)
    for t in range(POLY_M):
        states.append(s)
        p = 1.0 / (1.0 + np.exp(-(s @ POLY_GAMMA)))
        treatments[:, t] = rng.random(POLY_N) < p
        if t < POLY_M - 1:
            s = POLY_RHO * s + treatments[:, t, None] * POLY_B + 0.5 * rng.standard_normal(s.shape)
    outcome = s @ POLY_C + POLY_DELTA * treatments[:, -1] + rng.standard_normal(POLY_N)
    return {"states": tuple(states), "treatments": treatments, "outcome": outcome, "seed": seed}


def _poly_operation(inputs: dict):
    data = core.PanelDataset(inputs["states"], inputs["treatments"], inputs["outcome"], (2,) * POLY_M)
    plan = core.FixedSequence((1,) * POLY_M)
    maps = tuple(core.PolynomialFeatures(state_dim=POLY_D, degree=3, arity=2) for _ in range(POLY_M))
    cfg = nuisance.FitConfig(feature_maps=maps)
    return inference.dml_estimate(data, plan, cfg, Q_FOLDS, inputs["seed"])


def _poly_check(rec: dict) -> list[str]:
    return _within_se("treat-always", rec["theta_hat"], rec["sigma_hat"], POLY_N, POLY_TRUTH)


# ---------------------------------------------------------------------------
# mc-policy-2000: Monte Carlo over dgp_ref_2 with a state-feedback policy
# ---------------------------------------------------------------------------

MC_REPS = 100
MC_N = 2_000
MC_JOBS = 2
MC_POLICY = ([1, 0], [0, 1])   # period-t code for each state grid value
MC_MIN_COVERAGE = 0.85


def _mc_plan() -> core.DynamicPolicy:
    return core.DynamicPolicy(tuple(core.grid_policy(codes) for codes in MC_POLICY))


MC_TRUTH = oracle.oracle_theta(oracle.dgp_ref_2(), _mc_plan())


def _mc_generate(seed: int, workdir: str) -> dict:
    return {"seed": seed}


def _mc_operation(inputs: dict):
    maps = tuple(core.TabularFeatures(grid=np.arange(2.0), arity=2) for _ in range(2))
    cfg = nuisance.FitConfig(feature_maps=maps)
    return inference.mc_experiment(
        oracle.dgp_ref_2(), _mc_plan(), cfg, MC_REPS, MC_N, Q_FOLDS, inputs["seed"], jobs=MC_JOBS
    )


def _mc_summarize(result) -> dict:
    return {key: float(value) for key, value in result.summary_dict().items()}


def _mc_check(rec: dict) -> list[str]:
    problems = []
    if rec["n_failed"] != 0:
        problems.append(f"{rec['n_failed']:.0f} replicates failed")
    if rec["theta_true"] != MC_TRUTH:
        problems.append(f"theta_true {rec['theta_true']} differs from the oracle {MC_TRUTH}")
    # rmse / sqrt(reps) bounds the standard error of the mean estimate
    if not abs(rec["bias"]) <= SE_LIMIT * rec["rmse"] / math.sqrt(MC_REPS):
        problems.append(f"bias {rec['bias']:.4g} exceeds {SE_LIMIT} SE of the replicate mean")
    if not rec["coverage"] >= MC_MIN_COVERAGE:
        problems.append(f"coverage {rec['coverage']:.3f} below {MC_MIN_COVERAGE}")
    return problems


# ---------------------------------------------------------------------------
# cli-files: `estimate --clever-covariate` and `surrogate-estimate` on CSV files
# ---------------------------------------------------------------------------

CLI_PANEL_N = 100_000
SUR_N_SHORT = 50_000
SUR_N_LONG = 50_000
SUR_PX = np.array([0.3, 0.4, 0.3])            # short-sample P(X = x)
SUR_PX_LONG = np.array([0.4, 0.35, 0.25])     # long-sample P(X = x)
SUR_PT = np.array([0.3, 0.5, 0.7])            # P(T = 1 | X = x)
SUR_PS = np.array(                            # P(S = s | T = t, X = x), shape (2, 3, 4)
    [
        [[0.4, 0.3, 0.2, 0.1], [0.3, 0.3, 0.2, 0.2], [0.25, 0.25, 0.25, 0.25]],
        [[0.1, 0.2, 0.3, 0.4], [0.2, 0.2, 0.3, 0.3], [0.1, 0.2, 0.3, 0.4]],
    ]
)
SUR_MU = np.array(                            # E[Y | S = s, X = x], shape (4, 3)
    [[0.0, 0.5, 1.0], [1.0, 1.0, 1.5], [2.0, 2.5, 2.0], [3.0, 3.5, 4.0]]
)
SUR_TRUTH = float(np.sum(SUR_PX[:, None] * (SUR_PS[1] - SUR_PS[0]) * SUR_MU.T))
PLAN_TEXT = "kind = contrast\ncoefficients = 1 -1\nsequence_1 = 1 1\nsequence_2 = 0 0\n"


def _surrogate_samples(rng: np.random.Generator, n: int, px: np.ndarray):
    x = _categorical(rng, np.broadcast_to(px, (n, px.shape[0])))
    t = (rng.random(n) < SUR_PT[x]).astype(np.int64)
    s = _categorical(rng, SUR_PS[t, x])
    y = SUR_MU[s, x] + rng.standard_normal(n)
    return x, t, s, y


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Integer columns as integers, float columns in shortest round-trip form."""
    text = [
        c.astype(str).tolist() if c.dtype.kind in "iu" else [repr(v) for v in c.tolist()]
        for c in columns
    ]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("\n".join(map(",".join, zip(*text))) + "\n")


def _cli_generate(seed: int, workdir: str) -> dict:
    """A 2-period panel from dgp_ref_2 in the wide CSV schema, a contrast plan
    file, and short/long surrogate CSVs drawn from a discrete two-sample law."""
    paths = {
        name: os.path.join(workdir, name)
        for name in ("panel.csv", "plan.txt", "short.csv", "long.csv", "estimate.json", "surrogate.json")
    }
    panel = oracle.simulate(oracle.dgp_ref_2(), CLI_PANEL_N, seed)
    _write_csv(
        paths["panel.csv"],
        ["s1_1", "s2_1", "t1", "t2", "y"],
        [panel.states[0][:, 0].astype(np.int64), panel.states[1][:, 0].astype(np.int64),
         panel.treatments[:, 0], panel.treatments[:, 1], panel.outcome],
    )
    with open(paths["plan.txt"], "w") as fh:
        fh.write(PLAN_TEXT)
    rng = np.random.Generator(np.random.PCG64(seed))
    x, t, s, _ = _surrogate_samples(rng, SUR_N_SHORT, SUR_PX)
    _write_csv(paths["short.csv"], ["x_1", "t", "s_1"], [x, t, s])
    x, _, s, y = _surrogate_samples(rng, SUR_N_LONG, SUR_PX_LONG)
    _write_csv(paths["long.csv"], ["x_1", "s_1", "y"], [x, s, y])
    return {"paths": paths, "seed": seed}


def _cli_operation(inputs: dict) -> dict:
    paths, seed = inputs["paths"], str(inputs["seed"])
    commands = {
        "estimate": ["estimate", "--data", paths["panel.csv"], "--plan", paths["plan.txt"],
                     "--out", paths["estimate.json"], "--Q", str(Q_FOLDS), "--seed", seed,
                     "--clever-covariate"],
        "surrogate": ["surrogate-estimate", "--short", paths["short.csv"], "--long",
                      paths["long.csv"], "--out", paths["surrogate.json"], "--Q", str(Q_FOLDS),
                      "--seed", seed],
    }
    out = {}
    for key, argv in commands.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"dyndml {argv[0]} exited with code {code}")
        with open(paths[f"{key}.json"], "rb") as fh:
            out[key] = fh.read()
    return out


def _cli_summarize(out: dict) -> dict:
    rec = {}
    for key, raw in out.items():
        report = json.loads(raw)
        for field in ("theta_hat", "sigma_hat", "ci_lower", "ci_upper"):
            rec[f"{key}.{field}"] = float(report[field])
        # The digest pins byte identity against a rerun of the same command.
        rec[f"{key}.sha256"] = hashlib.sha256(raw).hexdigest()
    return rec


def _cli_check(rec: dict) -> list[str]:
    return _within_se(
        "cli estimate", rec["estimate.theta_hat"], rec["estimate.sigma_hat"], CLI_PANEL_N,
        CONTRAST_TRUTH,
    ) + _within_se(
        "cli surrogate", rec["surrogate.theta_hat"], rec["surrogate.sigma_hat"], SUR_N_SHORT,
        SUR_TRUTH,
    )


def _cli_tolerance(rec: dict) -> float:
    return 1e-6 * min(
        rec["estimate.sigma_hat"] / math.sqrt(CLI_PANEL_N),
        rec["surrogate.sigma_hat"] / math.sqrt(SUR_N_SHORT),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tab-contrast-1e6", TAB_N, TAB_N * 2, _tab_generate, _tab_operation,
            _report_record, _tab_check, _estimate_tolerance(TAB_N),
        ),
        Workload(
            "poly-d5-M3", POLY_N, POLY_N * POLY_M, _poly_generate, _poly_operation,
            _report_record, _poly_check, _estimate_tolerance(POLY_N),
        ),
        Workload(
            "mc-policy-2000", MC_REPS * MC_N, MC_REPS * MC_N * 2, _mc_generate, _mc_operation,
            _mc_summarize, _mc_check, lambda rec: 1e-6 * rec["avg_sigma_hat"] / math.sqrt(MC_N),
        ),
        Workload(
            "cli-files", CLI_PANEL_N + SUR_N_SHORT + SUR_N_LONG,
            CLI_PANEL_N * 2 + SUR_N_SHORT + SUR_N_LONG, _cli_generate, _cli_operation,
            _cli_summarize, _cli_check, _cli_tolerance,
        ),
    )
}

