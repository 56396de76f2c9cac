"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

import math
import time

import numpy as np

from conftest import tabular_config
from helpers_surrogate import two_sample_ref
from dyndml import (
    FixedSequence,
    NuisanceSet,
    Perturbation,
    dgp_ref_1,
    dgp_ref_2,
    dml_estimate,
    fit_nuisances,
    fit_recursive_riesz,
    mc_experiment,
    mix_seed,
    moment_batch,
    moment_scores,
    mixed_bias,
    oracle_nuisances,
    oracle_riesz,
    oracle_theta,
    oracle_theta_potential,
    orthogonality_slope,
    perturbation_bias,
    population_l2,
    population_moment,
    random_dgp,
    simulate,
    surrogate_estimate,
    tabular_fn,
)
from dyndml.cli import main as cli_main


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _sweep_dgps(seed: int = 2024, count: int = 20):
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(count):
        periods = int(rng.integers(1, 4))
        dgp = random_dgp(rng, periods=periods, max_states=4, treatment_arity=2)
        plan = FixedSequence(tuple(int(rng.integers(0, 2)) for _ in range(periods)))
        out.append((dgp, plan))
    return out


def test_criterion_1_identification_equivalence():
    start = time.time()
    worst = 0.0
    for dgp, plan in _sweep_dgps():
        gap = abs(oracle_theta(dgp, plan) - oracle_theta_potential(dgp, plan))
        worst = max(worst, gap)
    elapsed = time.time() - start
    _report(
        1,
        worst <= 1e-10 and elapsed < 5.0,
        f"recursion vs potential-outcome enumeration, max gap {worst:.2e} "
        f"on 20 randomized processes in {elapsed:.2f}s",
    )


def test_criterion_2_riesz_identity_full_basis():
    worst = 0.0
    for dgp, plan in _sweep_dgps():
        tables = oracle_riesz(dgp, plan)
        paths = dgp.paths()
        for t in range(1, dgp.num_periods + 1):
            if t == 1:
                prev = np.ones(paths.prob.shape[0])
            else:
                prev = tabular_fn(tables[t - 2]).batch(
                    paths.data.states[t - 2], paths.treatments[:, t - 2]
                )
            a_vals = tabular_fn(tables[t - 1]).batch(
                paths.data.states[t - 1], paths.treatments[:, t - 1]
            )
            for s in range(dgp.state_arities[t - 1]):
                for k in range(dgp.treatment_arities[t - 1]):
                    basis = np.zeros(
                        (dgp.state_arities[t - 1], dgp.treatment_arities[t - 1])
                    )
                    basis[s, k] = 1.0
                    g = tabular_fn(basis)
                    lhs = float(
                        paths.prob
                        @ (a_vals * g.batch(paths.data.states[t - 1], paths.treatments[:, t - 1]))
                    )
                    rhs = float(paths.prob @ (prev * moment_batch(plan, t, paths.data, g)))
                    worst = max(worst, abs(lhs - rhs))
    _report(2, worst <= 1e-10, f"full indicator basis sweep, max residual {worst:.2e}")


def _bounded_table(rng, dgp, t):
    return tabular_fn(
        rng.uniform(-1, 1, size=(dgp.state_arities[t - 1], dgp.treatment_arities[t - 1]))
    )


def test_criterion_3_neyman_orthogonality():
    eps_grid = (1e-1, 1e-2, 1e-3)
    rng = np.random.Generator(np.random.PCG64(7))
    worst_slope = math.inf
    worst_cross = 0.0
    cases = [(dgp_ref_2(), FixedSequence((1, 1)))]
    cases += [_sweep_dgps(seed=911, count=3)[i] for i in range(3)]
    for dgp, plan in cases:
        truth = oracle_nuisances(dgp, plan)
        m = dgp.num_periods
        for t in range(1, m + 1):
            for kind in ("f", "a"):
                d = Perturbation(
                    f_directions={t: _bounded_table(rng, dgp, t)} if kind == "f" else {},
                    a_directions={t: _bounded_table(rng, dgp, t)} if kind == "a" else {},
                )
                worst_slope = min(
                    worst_slope, orthogonality_slope(dgp, plan, d, eps_grid, truth=truth)
                )
        for t in range(1, m + 1):
            for t2 in range(1, m + 1):
                if t2 in (t, t + 1):
                    continue
                d = Perturbation(
                    f_directions={t2: _bounded_table(rng, dgp, t2)},
                    a_directions={t: _bounded_table(rng, dgp, t)},
                )
                worst_cross = max(
                    worst_cross, abs(perturbation_bias(dgp, plan, d, 1e-2, truth=truth))
                )
    _report(
        3,
        worst_slope >= 1.9 and worst_cross < 1e-12,
        f"single-nuisance log-log slope >= {worst_slope:.3g}, "
        f"cross-period bias {worst_cross:.2e} at eps=1e-2",
    )


def test_criterion_4_mixed_bias_equality():
    rng = np.random.Generator(np.random.PCG64(13))
    worst = 0.0
    for dgp, plan in _sweep_dgps(seed=31, count=20):
        truth = oracle_nuisances(dgp, plan)
        m = dgp.num_periods
        for _ in range(100):
            alt = Perturbation(
                f_directions={t: _bounded_table(rng, dgp, t) for t in range(1, m + 1)},
                a_directions={t: _bounded_table(rng, dgp, t) for t in range(1, m + 1)},
            ).apply(truth, 1.0)
            direct, formula = mixed_bias(dgp, plan, alt, truth)
            worst = max(worst, abs(direct - formula))
    _report(4, worst <= 1e-10, f"100 random perturbations per process, max |direct - formula| {worst:.2e}")


def test_criterion_5_double_robustness():
    rng = np.random.Generator(np.random.PCG64(17))
    worst = 0.0
    for dgp, plan in _sweep_dgps(seed=41, count=20):
        truth = oracle_nuisances(dgp, plan)
        theta = oracle_theta(dgp, plan)
        m = dgp.num_periods
        bad_a = NuisanceSet(
            regressions=truth.regressions,
            representers=tuple(_bounded_table(rng, dgp, t) for t in range(1, m + 1)),
        )
        bad_f = NuisanceSet(
            regressions=tuple(_bounded_table(rng, dgp, t) for t in range(1, m + 1)),
            representers=truth.representers,
        )
        worst = max(
            worst,
            abs(population_moment(dgp, plan, bad_a) - theta),
            abs(population_moment(dgp, plan, bad_f) - theta),
        )
    _report(5, worst <= 1e-10, f"one-sided corruptions leave theta unchanged, max bias {worst:.2e}")


def test_criterion_6_riesz_learning_rate():
    start = time.time()
    ns = (1000, 4000, 16_000, 64_000)
    reps = 8
    results = {}
    for name, dgp, plan in (
        ("ref-1", dgp_ref_1(), FixedSequence((1,))),
        ("ref-2", dgp_ref_2(), FixedSequence((1, 1))),
    ):
        cfg = tabular_config(dgp)
        truth = [tabular_fn(tb) for tb in oracle_riesz(dgp, plan)]
        errs = np.zeros((len(ns), dgp.num_periods))
        last_single = None
        for i, n in enumerate(ns):
            for r in range(reps):
                data = simulate(dgp, n, mix_seed(97 + i, r))
                fitted = fit_recursive_riesz(data, plan, cfg)
                for t in range(1, dgp.num_periods + 1):
                    err = population_l2(dgp, t, fitted[t - 1], truth[t - 1])
                    errs[i, t - 1] += err / reps
                    if name == "ref-1" and n == 64_000 and r == 0:
                        last_single = err
        slopes = [
            float(np.polyfit(np.log(ns), np.log(errs[:, t]), 1)[0])
            for t in range(dgp.num_periods)
        ]
        results[name] = (slopes, last_single)
    all_slopes = results["ref-1"][0] + results["ref-2"][0]
    slope_ok = all(abs(s + 0.5) <= 0.15 for s in all_slopes)
    final_err_sq = results["ref-1"][1] ** 2
    elapsed = time.time() - start
    _report(
        6,
        slope_ok and final_err_sq <= 0.01 and elapsed < 60.0,
        f"log-log slopes {['%.3f' % s for s in all_slopes]} (target -0.5 +- 0.15), "
        f"ref-1 final squared error {final_err_sq:.2e} <= 0.01, {elapsed:.1f}s",
    )


def test_criterion_7_coverage():
    start = time.time()
    dgp = dgp_ref_2()
    plan = FixedSequence((1, 1))
    result = mc_experiment(dgp, plan, tabular_config(dgp), reps=500, n=2000, q_folds=5, seed=4242)
    elapsed = time.time() - start
    cover_ok = 0.92 <= result.coverage <= 0.98
    bias_ok = abs(result.bias) <= 4.0 * result.rmse / math.sqrt(500)
    _report(
        7,
        cover_ok and bias_ok and result.n_failed == 0 and elapsed < 300.0,
        f"coverage {result.coverage:.3f} in [0.92, 0.98], bias {result.bias:.4g} "
        f"within {4.0 * result.rmse / math.sqrt(500):.4g}, {elapsed:.1f}s for 500 reps",
    )


def test_criterion_8_clever_covariate():
    dgp = dgp_ref_2()
    plan = FixedSequence((1, 1))
    cfg = tabular_config(dgp)
    data = simulate(dgp, 6000, 171)
    regressions, representers = fit_nuisances(data, plan, cfg, clever=True)
    bundle = NuisanceSet(tuple(regressions), tuple(representers))
    values, plug, corrections = moment_scores(data, plan, bundle)
    worst_corr = max(abs(float(c.mean())) for c in corrections)
    plug_gap = abs(float(plug.mean()) - float(values.mean()))
    _report(
        8,
        worst_corr <= 1e-8 and plug_gap <= 1e-8,
        f"max |mean correction| {worst_corr:.2e} <= 1e-8, "
        f"|plug-in - debiased| {plug_gap:.2e} <= 1e-8",
    )


def test_criterion_9_surrogate():
    tsd = two_sample_ref()
    rng = np.random.Generator(np.random.PCG64(23))
    a0 = tsd.a2_table()
    base = tsd.cross_sample_risk(a0)
    worst_risk = max(
        abs(
            (tsd.cross_sample_risk(a0 + (d := rng.uniform(-2, 2, a0.shape))) - base)
            - tsd.long_l2(a0 + d, a0) ** 2
        )
        for _ in range(20)
    )
    h0, g0, a10, a20 = tsd.h_table(), tsd.g_table(), tsd.a1_table(), tsd.a2_table()
    theta = tsd.theta()
    worst_mb = 0.0
    for _ in range(50):
        dh = rng.uniform(-1, 1, h0.shape)
        dg = rng.uniform(-1, 1, g0.shape)
        da1 = rng.uniform(-1, 1, a10.shape)
        da2 = rng.uniform(-1, 1, a20.shape)
        direct = tsd.population_moment(h0 + dh, g0 + dg, a10 + da1, a20 + da2) - theta
        formula = tsd.short_expect(
            lambda t, x, s: da1[t, x] * (dh[s, x] - dg[t, x])
        ) - tsd.long_expect(lambda x, s: da2[s, x] * dh[s, x])
        worst_mb = max(worst_mb, abs(direct - formula))
    rob = max(
        abs(
            tsd.population_moment(
                h0 + rng.uniform(-2, 2, h0.shape), g0 + rng.uniform(-2, 2, g0.shape), a10, a20
            )
            - theta
        ),
        abs(
            tsd.population_moment(
                h0, g0, a10 + rng.uniform(-2, 2, a10.shape), a20 + rng.uniform(-2, 2, a20.shape)
            )
            - theta
        ),
    )
    from test_surrogate import fit_cfg

    data = tsd.simulate(4000, 4000, 555)
    report = surrogate_estimate(data, fit_cfg(tsd), 5, 556)
    band = 4.0 * report.sigma_hat / math.sqrt(report.n_short)
    est_gap = abs(report.theta_hat - theta)
    _report(
        9,
        worst_risk <= 1e-10 and worst_mb <= 1e-10 and rob <= 1e-10 and est_gap <= band,
        f"risk identity {worst_risk:.2e}, mixed bias {worst_mb:.2e}, robustness {rob:.2e}, "
        f"estimate off truth by {est_gap:.4g} (band {band:.4g})",
    )


def test_criterion_10_determinism_and_round_trips(tmp_path):
    dgp = dgp_ref_2()
    plan = FixedSequence((1, 1))
    cfg = tabular_config(dgp)

    rep_a = dml_estimate(simulate(dgp, 1200, 5), plan, cfg, 5, 6)
    rep_b = dml_estimate(simulate(dgp, 1200, 5), plan, cfg, 5, 6)
    json_identical = rep_a.to_json() == rep_b.to_json()

    dgp_file = tmp_path / "dgp.cfg"
    dgp_file.write_text(
        "periods = 2\nstate_arity = 2 2\ntreatment_arity = 2 2\n"
        "initial = 0.5 0.5\npropensity_1 = 0.5 0.5 0.75 0.25\n"
        "propensity_2 = 0.6 0.4 0.4 0.6\n"
        "transition_1 = 0.7 0.3 0.3 0.7 0.5 0.5 0.1 0.9\n"
        "outcome = 0 3 1 4\nsigma_y = 1.0\nseed = 5\n"
    )
    plan_file = tmp_path / "plan.cfg"
    plan_file.write_text("kind = fixed\ntreatments = 1 1\n")
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    for p in (csv_a, csv_b):
        cli_main(["simulate", "--dgp", str(dgp_file), "--n", "300", "--seed", "7", "--out", str(p)])
    cli_identical = csv_a.read_bytes() == csv_b.read_bytes()

    from dyndml import read_panel_csv

    original = simulate(dgp, 300, 7)
    loaded = read_panel_csv(str(csv_a))
    round_trip = (
        np.array_equal(loaded.outcome, original.outcome)
        and np.array_equal(loaded.treatments, original.treatments)
        and all(np.array_equal(a, b) for a, b in zip(loaded.states, original.states))
    )

    mc_a = tmp_path / "mc1.csv"
    mc_b = tmp_path / "mcN.csv"
    base = [
        "mc", "--dgp", str(dgp_file), "--plan", str(plan_file),
        "--reps", "8", "--n", "250", "--Q", "4", "--seed", "3",
    ]
    cli_main(base + ["--jobs", "1", "--out", str(mc_a)])
    cli_main(base + ["--jobs", "4", "--out", str(mc_b)])
    jobs_identical = mc_a.read_bytes() == mc_b.read_bytes()

    _report(
        10,
        json_identical and cli_identical and round_trip and jobs_identical,
        f"report determinism {json_identical}, CLI byte-identity {cli_identical}, "
        f"simulate->load exact {round_trip}, jobs N == jobs 1 {jobs_identical}",
    )
