"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance is
pinned here, not calibrated after the fact. Criteria that a faithful
implementation cannot attain are asserted as stated anyway and fail with
the measured values in the message; the closed-form oracles elsewhere in
the test suite back those measurements.
"""

import time

import numpy as np
import pytest
from scipy import stats

from aoisim import (
    BestEffortUniform,
    SimConfig,
    ThresholdUnitBattery,
    UpdateLog,
    accumulate_reward,
    compare_unit_battery,
    idle_interval_pmf,
    inter_update_moments,
    optimal_threshold,
    optimize_scalar,
    run_ensemble,
    run_path,
    sweep_battery,
)
from aoisim.cli import main as cli_main
from aoisim.runner import unit_beta_objective, unit_uniform_period_objective
from reference_sim import integrate_trace


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def uniform_inf_runs():
    """Shared best-effort-uniform ensembles for criteria 3 and 4."""
    t0 = time.perf_counter()
    short = run_ensemble(
        SimConfig(BestEffortUniform(1.0), None, 500.0, seed=1), 1000)
    long = run_ensemble(
        SimConfig(BestEffortUniform(1.0), None, 1.0e5, seed=1), 1000,
        collect_idle_runs=True)
    elapsed = time.perf_counter() - t0
    return short, long, elapsed


def test_criterion_1_analytic_optimum():
    t0 = time.perf_counter()
    tau_star, h_star = optimal_threshold(1e-6)
    elapsed = time.perf_counter() - t0
    ok = (abs(tau_star - 0.901) <= 1e-3 and abs(h_star - 0.9012) <= 5e-4
          and elapsed < 1.0)
    _report("1", ok, f"tau*={tau_star:.7f} h*={h_star:.7f} "
                     f"runtime={elapsed:.3f}s")
    assert abs(tau_star - 0.901) <= 1e-3
    assert abs(h_star - 0.9012) <= 5e-4
    assert elapsed < 1.0


def test_criterion_2_threshold_closed_form_agreement():
    t0 = time.perf_counter()
    cfg = SimConfig(ThresholdUnitBattery(0.901), 1, 1.0e5, seed=2)
    res = run_ensemble(cfg, 100)
    elapsed = time.perf_counter() - t0
    mean_ref, second_ref = inter_update_moments(0.901)
    mean_err = abs(res.delay_mean - mean_ref) / mean_ref
    second_err = abs(res.delay_second_moment - second_ref) / second_ref
    ok = (abs(res.mean_avg_aoi - 0.9012) <= 0.01
          and mean_err <= 0.01 and second_err <= 0.01 and elapsed < 60.0)
    _report("2", ok, f"mean={res.mean_avg_aoi:.5f} "
                     f"E[X] rel err={mean_err:.2e} "
                     f"E[X^2] rel err={second_err:.2e} "
                     f"runtime={elapsed:.1f}s")
    assert abs(res.mean_avg_aoi - 0.9012) <= 0.01
    assert mean_err <= 0.01
    assert second_err <= 0.01
    assert elapsed < 60.0


def test_criterion_3_infinite_battery_optimality(uniform_inf_runs):
    short, long, elapsed = uniform_inf_runs
    ok_short = 0.50 <= short.mean_avg_aoi <= 0.52
    ok_long = 0.500 <= long.mean_avg_aoi <= 0.505
    ok = ok_short and ok_long and elapsed < 120.0
    _report("3", ok, f"mean(T=500)={short.mean_avg_aoi:.4f} "
                     f"(target [0.50,0.52]) "
                     f"mean(T=1e5)={long.mean_avg_aoi:.4f} "
                     f"(target [0.500,0.505]) runtime={elapsed:.0f}s")
    assert elapsed < 120.0
    assert 0.500 <= long.mean_avg_aoi <= 0.505
    assert 0.50 <= short.mean_avg_aoi <= 0.52, (
        f"measured {short.mean_avg_aoi:.4f}: a cold-start battery forces "
        f"about sqrt(T) idle runs, so the T=500 ensemble mean sits near "
        f"0.554; see the decisions ledger")


def test_criterion_4_idle_interval_law(uniform_inf_runs):
    _, long, _ = uniform_inf_runs
    counts = long.idle_run_counts
    n_runs = int(counts.sum())
    observed = [int(counts[k]) if k < len(counts) else 0 for k in range(1, 9)]
    observed.append(n_runs - sum(observed))  # pooled tail k >= 9
    probs = [idle_interval_pmf(k) for k in range(1, 9)]
    probs.append(1.0 - sum(probs))
    expected = [n_runs * p for p in probs]
    result = stats.chisquare(observed, expected)
    ok = result.pvalue > 0.01 and n_runs >= 100_000
    _report("4", ok, f"n_runs={n_runs} chi2={result.statistic:.2f} "
                     f"p={result.pvalue:.4f}")
    assert n_runs >= 100_000
    assert result.pvalue > 0.01


def test_criterion_5_adaptive_gap_scaling():
    t0 = time.perf_counter()
    cells = sweep_battery([1.0], [30, 60, 100, 200], horizon=1.0e5,
                          n_paths=1000, base_seed=3)
    elapsed = time.perf_counter() - t0
    gaps = [c.mean_gap for c in cells]
    stderrs = [c.stderr for c in cells]
    constants = [c.mean_gap / c.gap_bound for c in cells]
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    non_negative = all(g >= -2 * s for g, s in zip(gaps, stderrs))
    spread = max(constants) / min(constants)
    ok = decreasing and non_negative and spread < 2.0 and elapsed < 600.0
    _report("5", ok, "gaps=" + ",".join(f"{g:.6f}" for g in gaps)
            + f" constants=" + ",".join(f"{c:.3f}" for c in constants)
            + f" spread=x{spread:.2f} runtime={elapsed:.0f}s")
    assert elapsed < 600.0
    assert decreasing, f"gaps not strictly decreasing: {gaps}"
    assert non_negative
    assert spread < 2.0, (
        f"fitted constants {constants} vary by x{spread:.2f}: the cold-start "
        f"climb to B/2 inflates the B=200 gap at T=1e5; the stationary "
        f"constant is stable near 0.15 (see the decisions ledger)")


def test_criterion_6_unit_battery_numeric_optima():
    uniform_obj = unit_uniform_period_objective(horizon=1.0e5, n_paths=200,
                                                base_seed=1)
    with pytest.warns(UserWarning):
        # the simulated objective is increasing in the period, so the
        # optimizer reports the bracket endpoint with a flatness warning
        opt_u = optimize_scalar(uniform_obj, (0.1, 1.5), tol=5e-3)
    beta_obj = unit_beta_objective(horizon=1.0e5, n_paths=200, base_seed=1)
    opt_b = optimize_scalar(beta_obj, (-0.5, 0.5), tol=5e-3)
    ok_u = abs(opt_u.arg - 0.43) <= 0.02
    ok_b = abs(opt_b.arg - (-0.145)) <= 0.02
    _report("6", ok_u and ok_b,
            f"period*={opt_u.arg:.4f} (target 0.43+-0.02, flat={opt_u.flat}) "
            f"beta*={opt_b.arg:.4f} (target -0.145+-0.02)")
    assert ok_u, (
        f"recovered period {opt_u.arg:.4f} with objective "
        f"{opt_u.value:.5f}: the B=1 uniform objective "
        f"p(2-q)/(2q), q=1-exp(-p), is strictly increasing on (0.1, 1.5], "
        f"so the search ends at the bracket endpoint, not 0.43; see the "
        f"decisions ledger")
    assert ok_b, (
        f"recovered beta {opt_b.arg:.4f} with objective {opt_b.value:.5f}: "
        f"the renewal closed form for the B=1 adaptive policy has its "
        f"minimum near -0.22, not -0.145; see the decisions ledger")


def test_criterion_7_policy_ordering():
    checkpoints = np.unique(np.rint(np.geomspace(1.0e4, 1.0e5, 12)))
    results = compare_unit_battery(horizon=1.0e5, n_paths=1000, base_seed=5,
                                   checkpoints=checkpoints)
    thr = results["threshold"].mean_avg_aoi
    ada = results["adaptive"].mean_avg_aoi
    uni = results["uniform"].mean_avg_aoi
    ok = (thr < ada and thr < uni and abs(thr - 0.9012) <= 0.01)
    _report("7", ok, f"threshold={thr:.5f} adaptive={ada:.5f} "
                     f"uniform={uni:.5f} "
                     f"(observed order: threshold < "
                     f"{'uniform < adaptive' if uni < ada else 'adaptive < uniform'})")
    assert thr < ada
    assert thr < uni
    assert abs(thr - 0.9012) <= 0.01
    assert min(thr, ada, uni) >= 0.5  # universal bound
    # ergodicity: the running average settles over the last decade of T
    for name, res in results.items():
        final = res.checkpoint_means[-1]
        fluctuation = np.max(np.abs(res.checkpoint_means - final)) / final
        assert fluctuation < 0.05, (name, fluctuation)


def test_criterion_8_oracle_equivalence_and_conservation():
    rng = np.random.default_rng(8)
    lengths = np.concatenate((
        [0, 1, 2], rng.integers(3, 10_000, size=997))).astype(int)
    worst = 0.0
    for n in lengths:
        scale = float(rng.choice([0.01, 1.0, 50.0]))
        delays = rng.exponential(scale=scale, size=n) + 1e-9
        log = UpdateLog.from_delays(delays)
        horizon = float(log.epochs[-1] if n else 0.0) + float(
            rng.uniform(0.0, 2.0 * scale))
        closed = accumulate_reward(log, horizon).reward
        traced = integrate_trace(log, horizon, step=max(scale, 0.05))
        if closed > 0:
            worst = max(worst, abs(traced - closed) / closed)
    ok_oracle = worst < 1e-9

    from aoisim import AdaptiveUnitBattery, EnergyAwareAdaptive
    configs = [
        (BestEffortUniform(1.0), None),
        (BestEffortUniform(0.43), 1),
        (EnergyAwareAdaptive(1.0), 30),
        (EnergyAwareAdaptive(2.0), 100),
        (ThresholdUnitBattery(0.901), 1),
        (AdaptiveUnitBattery(-0.145), 1),
        (ThresholdUnitBattery(0.0), 1),
    ]
    ok_conservation = True
    for policy, cap in configs:
        for seed in (1, 99, 4096):
            s, _ = run_path(SimConfig(policy, cap, 20_000.0, seed))
            balanced = (s.arrivals_seen
                        == s.final_level + s.updates + s.wasted_units)
            ok_conservation = ok_conservation and balanced
    ok = ok_oracle and ok_conservation
    _report("8", ok, f"worst oracle rel diff={worst:.2e} over 1000 logs; "
                     f"conservation exact on {len(configs) * 3} paths")
    assert ok_oracle
    assert ok_conservation


def test_criterion_9_reproduce_determinism(tmp_path):
    presets = [
        (["reproduce", "--figure", "2", "--out", None, "--seed", "1"],
         "fig2"),
        (["reproduce", "--figure", "4", "--out", None, "--seed", "1"],
         "fig4"),
    ]
    identical = True
    for args, name in presets:
        outdir = tmp_path / name
        args = [a if a is not None else str(outdir) for a in args]
        assert cli_main(args) == 0
        first = {p.name: p.read_bytes() for p in outdir.iterdir()}
        assert cli_main(args) == 0
        second = {p.name: p.read_bytes() for p in outdir.iterdir()}
        identical = identical and (first == second)
    _report("9", identical, "figure-2 and figure-4 presets byte-identical "
                            "across re-runs")
    assert identical
