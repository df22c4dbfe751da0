"""Ensemble orchestration: convergence curves, parameter sweeps, and scalar
optimization over simulated objectives.

Determinism discipline: path i of an ensemble keyed by base seed s runs on
the stream derive_seed(s, i); paths are aggregated in seed order with numpy
(pairwise) reductions, so repeated calls are bit-identical. Optimization
and policy comparisons reuse one fixed seed set across candidates (common
random numbers), which makes simulated objectives deterministic functions
of their parameter.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .analytics import AOI_LOWER_BOUND, adaptive_gap_bound, optimal_threshold
from .arrivals import derive_seed
from .aoi_metrics import UpdateLog
from .policies import (
    AdaptiveUnitBattery,
    BestEffortUniform,
    ConfigError,
    EnergyAwareAdaptive,
    ThresholdUnitBattery,
    adaptive_beta,
)
from .search import golden_section
from .simkernel import SimConfig, run_path

# Numerically optimized parameters used by the three-policy B=1 comparison.
DEFAULT_B1_UNIFORM_PERIOD = 0.43
DEFAULT_B1_BETA = -0.145


@dataclass
class EnsembleResult:
    """Aggregate of n independent sample paths of one configuration."""

    n_paths: int
    mean_avg_aoi: float
    stderr: float
    checkpoints: np.ndarray = field(default_factory=lambda: np.empty(0))
    checkpoint_means: np.ndarray = field(default_factory=lambda: np.empty(0))
    checkpoint_stderrs: np.ndarray = field(default_factory=lambda: np.empty(0))
    delay_mean: float = float("nan")
    delay_second_moment: float = float("nan")
    n_delays: int = 0
    idle_run_counts: np.ndarray | None = None  # index k = runs of length k

    @property
    def mean_gap(self) -> float:
        return self.mean_avg_aoi - AOI_LOWER_BOUND


def running_averages(log: UpdateLog, checkpoints: np.ndarray) -> np.ndarray:
    """Running time-average age R(t)/t of one path at each checkpoint."""
    d = log.delays
    csum = np.concatenate(([0.0], np.cumsum(d * d)))
    if len(log.epochs):
        j = np.searchsorted(log.epochs, checkpoints, side="right")
        last = np.where(j > 0, log.epochs[np.maximum(j - 1, 0)], 0.0)
    else:
        j = np.zeros(len(checkpoints), dtype=np.intp)
        last = np.zeros(len(checkpoints))
    reward = 0.5 * (csum[j] + (checkpoints - last) ** 2)
    return reward / checkpoints


def uniform_idle_runs(delays: np.ndarray, period: float) -> np.ndarray:
    """Lengths of completed infeasible-epoch runs under a uniform grid.

    A delay spanning m > 1 grid slots closes a run of m-1 silent epochs;
    a run still open at the horizon never closes and is not counted.
    """
    slots = np.rint(delays / period).astype(np.int64)
    runs = slots[slots > 1] - 1
    return runs


def run_ensemble(config: SimConfig, n_paths: int, checkpoints=(),
                 collect_idle_runs: bool = False) -> EnsembleResult:
    """Run n paths on derived seeds and aggregate in fixed seed order."""
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1")
    config.validate()
    ts = np.asarray(checkpoints, dtype=np.float64)
    if not np.all((ts > 0) & (ts <= config.horizon)):  # NaN fails too
        raise ConfigError("checkpoints must lie in (0, horizon]")
    if collect_idle_runs and not isinstance(config.policy, BestEffortUniform):
        raise ConfigError("idle-run collection applies to the uniform policy")

    avgs = np.empty(n_paths)
    series = np.empty((n_paths, len(ts))) if len(ts) else None
    sum_x = 0.0
    sum_x2 = 0.0
    n_delays = 0
    idle_hist = np.zeros(1, dtype=np.int64)
    for i in range(n_paths):
        cfg = replace(config, seed=derive_seed(config.seed, i))
        summary, log = run_path(cfg)
        avgs[i] = summary.time_avg_aoi
        if series is not None:
            series[i] = running_averages(log, ts)
        d = log.delays
        sum_x += float(np.sum(d))
        sum_x2 += float(np.sum(d * d))
        n_delays += len(d)
        if collect_idle_runs:
            binned = np.bincount(uniform_idle_runs(d, config.policy.period),
                                 minlength=len(idle_hist))
            binned[:len(idle_hist)] += idle_hist
            idle_hist = binned

    stderr = float(np.std(avgs, ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return EnsembleResult(
        n_paths=n_paths,
        mean_avg_aoi=float(np.mean(avgs)),
        stderr=stderr,
        checkpoints=ts,
        checkpoint_means=(np.mean(series, axis=0) if series is not None
                          else np.empty(0)),
        checkpoint_stderrs=(np.std(series, axis=0, ddof=1) / np.sqrt(n_paths)
                            if series is not None and n_paths > 1
                            else np.zeros(len(ts))),
        delay_mean=(sum_x / n_delays) if n_delays else float("nan"),
        delay_second_moment=(sum_x2 / n_delays) if n_delays else float("nan"),
        n_delays=n_delays,
        idle_run_counts=idle_hist if collect_idle_runs else None,
    )


@dataclass
class SweepCell:
    k: float
    cap: int
    beta: float
    mean_gap: float
    stderr: float
    gap_bound: float
    error: str | None = None


def sweep_battery(k_values, cap_values, horizon: float, n_paths: int,
                  base_seed: int) -> list[SweepCell]:
    """Gap of the adaptive policy on a (k, B) grid; invalid cells are
    reported with their configuration error and skipped, not fatal."""
    cells = []
    for k in k_values:
        for cap in cap_values:
            try:
                beta = adaptive_beta(k, cap)
                bound = adaptive_gap_bound(k, cap)
            except ConfigError as exc:
                cells.append(SweepCell(k=k, cap=cap, beta=float("nan"),
                                       mean_gap=float("nan"),
                                       stderr=float("nan"),
                                       gap_bound=float("nan"),
                                       error=str(exc)))
                continue
            cfg = SimConfig(policy=EnergyAwareAdaptive(k=k), capacity=cap,
                            horizon=horizon, seed=base_seed)
            res = run_ensemble(cfg, n_paths)
            cells.append(SweepCell(k=k, cap=cap, beta=beta,
                                   mean_gap=res.mean_gap, stderr=res.stderr,
                                   gap_bound=bound))
    return cells


@dataclass
class ScalarOptimum:
    arg: float
    value: float
    flat: bool
    evaluations: list[tuple[float, float]]


def optimize_scalar(objective, bracket: tuple[float, float],
                    tol: float) -> ScalarOptimum:
    """Golden-section minimization of a deterministic scalar objective.

    When no interior probe improves on the bracket endpoints the best
    endpoint is returned and a flatness warning is emitted.
    """
    lo, hi = bracket
    if not lo < hi:
        raise ConfigError("bracket must satisfy lo < hi")
    if not tol > 0:
        raise ConfigError("tol must be positive")
    f_lo = objective(lo)
    f_hi = objective(hi)
    res = golden_section(objective, lo, hi, tol)
    arg, value, flat = res.x, res.fx, False
    if min(f_lo, f_hi) <= value:
        flat = True
        warnings.warn("no interior improvement over the bracket; "
                      "returning the best endpoint", stacklevel=2)
        arg, value = (lo, f_lo) if f_lo <= f_hi else (hi, f_hi)
    evals = sorted({(lo, f_lo), (hi, f_hi), *res.evaluations})
    return ScalarOptimum(arg=arg, value=value, flat=flat, evaluations=evals)


def unit_uniform_period_objective(horizon: float, n_paths: int,
                                  base_seed: int):
    """Ensemble-mean age of the B=1 uniform policy as a function of period,
    on common random numbers."""
    def objective(period: float) -> float:
        cfg = SimConfig(policy=BestEffortUniform(period=period), capacity=1,
                        horizon=horizon, seed=base_seed)
        return run_ensemble(cfg, n_paths).mean_avg_aoi
    return objective


def unit_beta_objective(horizon: float, n_paths: int, base_seed: int):
    """Ensemble-mean age of the B=1 adaptive policy as a function of beta,
    on common random numbers."""
    def objective(beta: float) -> float:
        cfg = SimConfig(policy=AdaptiveUnitBattery(beta=beta), capacity=1,
                        horizon=horizon, seed=base_seed)
        return run_ensemble(cfg, n_paths).mean_avg_aoi
    return objective


def compare_unit_battery(horizon: float, n_paths: int, base_seed: int,
                         checkpoints=()) -> dict[str, EnsembleResult]:
    """Three-policy B=1 comparison on common random numbers, at the
    module's default period and beta and the optimal threshold."""
    policies = {
        "uniform": BestEffortUniform(period=DEFAULT_B1_UNIFORM_PERIOD),
        "adaptive": AdaptiveUnitBattery(beta=DEFAULT_B1_BETA),
        "threshold": ThresholdUnitBattery(tau0=optimal_threshold(1e-6)[0]),
    }
    out = {}
    for name, policy in policies.items():
        cfg = SimConfig(policy=policy, capacity=1, horizon=horizon,
                        seed=base_seed)
        out[name] = run_ensemble(cfg, n_paths, checkpoints=checkpoints)
    return out
