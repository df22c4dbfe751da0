"""Ensemble orchestration: convergence curves, parameter sweeps, and scalar
optimization over simulated objectives.

Determinism discipline: path i of an ensemble keyed by base seed s runs on
the stream derive_seed(s, i); paths are aggregated in seed order with numpy
(pairwise) reductions, so repeated calls are bit-identical. Optimization
and policy comparisons reuse one fixed seed set across candidates (common
random numbers), which makes simulated objectives deterministic functions
of their parameter. A policy comparison and a battery sweep draw each
path once and run every policy, or every (k, B) cell, on it. Each
path's arrivals come from the thread's one Philox generator, reset to
(key=seed, counter 0) for the path, which gives the same bits as a
freshly built generator. A path's record is what run_path's tally
leaves: the time average, the sums of the delays and of their squares,
and the row of running averages that run_path writes into the
ensemble's series; the delays themselves are formed only for idle-run
collection.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .analytics import AOI_LOWER_BOUND, adaptive_gap_bound, optimal_threshold
from .arrivals import derive_seed, sample_path
# running_averages stays importable from here, where perfbench spans it.
from .aoi_metrics import UpdateLog, running_averages  # noqa: F401
from .policies import (
    AdaptiveUnitBattery,
    BestEffortUniform,
    ConfigError,
    EnergyAwareAdaptive,
    ThresholdUnitBattery,
    adaptive_beta,
)
from .search import golden_section
from .simkernel import SimConfig, SimSummary, run_path

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


def uniform_idle_runs(delays: np.ndarray, period: float) -> np.ndarray:
    """Lengths of completed infeasible-epoch runs under a uniform grid.

    A delay spanning m > 1 grid slots closes a run of m-1 silent epochs;
    a run still open at the horizon never closes and is not counted.
    """
    slots = np.rint(delays / period).astype(np.int64)
    runs = slots[slots > 1] - 1
    return runs


class _Records:
    """One policy's per-path records, reduced in seed order."""

    def __init__(self, n_paths: int, ts: np.ndarray, idle_period=None):
        self.ts = ts
        self.avgs = np.empty(n_paths)
        self.series = np.empty((n_paths, len(ts))) if len(ts) else None
        # The checkpoints as run_path's tally reads them: contiguous, with
        # the order that sorts them.
        self.points = (np.ascontiguousarray(ts),
                       np.argsort(ts, kind="stable").astype(np.int64))
        self.sum_x = 0.0
        self.sum_x2 = 0.0
        self.n_delays = 0
        self.idle_period = idle_period
        self.idle_hist = np.zeros(1, dtype=np.int64)

    def row(self, i: int):
        """run_path's series argument for path i: None without
        checkpoints."""
        if self.series is None:
            return None
        return (*self.points, self.series[i])

    def add(self, i: int, summary: SimSummary, log: UpdateLog) -> None:
        """Path i's record; run_path has written its series row."""
        self.avgs[i] = summary.time_avg_aoi
        self.sum_x += summary.delay_sum
        self.sum_x2 += summary.square_sum
        self.n_delays += summary.updates
        if self.idle_period is not None:
            binned = np.bincount(uniform_idle_runs(log.delays,
                                                   self.idle_period),
                                 minlength=len(self.idle_hist))
            binned[:len(self.idle_hist)] += self.idle_hist
            self.idle_hist = binned

    def result(self) -> EnsembleResult:
        n_paths, ts, series = len(self.avgs), self.ts, self.series
        n_delays = self.n_delays
        stderr = (float(np.std(self.avgs, ddof=1) / np.sqrt(n_paths))
                  if n_paths > 1 else 0.0)
        return EnsembleResult(
            n_paths=n_paths,
            mean_avg_aoi=float(np.mean(self.avgs)),
            stderr=stderr,
            checkpoints=ts,
            checkpoint_means=(np.mean(series, axis=0) if series is not None
                              else np.empty(0)),
            checkpoint_stderrs=(np.std(series, axis=0, ddof=1)
                                / np.sqrt(n_paths)
                                if series is not None and n_paths > 1
                                else np.zeros(len(ts))),
            delay_mean=(self.sum_x / n_delays) if n_delays else float("nan"),
            delay_second_moment=((self.sum_x2 / n_delays) if n_delays
                                 else float("nan")),
            n_delays=n_delays,
            idle_run_counts=(self.idle_hist if self.idle_period is not None
                             else None),
        )


def _run_policies(configs: list[SimConfig], n_paths: int, checkpoints=(),
                  collect_idle_runs: bool = False) -> list[EnsembleResult]:
    """Run every configuration on paths 0..n-1 of their common seed.

    The configurations share seed, horizon and rate, and differ only in
    policy and capacity: path i's arrivals are drawn once and every
    policy runs on them.
    """
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1")
    base = configs[0]
    for cfg in configs:
        cfg.validate()
    ts = np.asarray(checkpoints, dtype=np.float64)
    if not np.all((ts > 0) & (ts <= base.horizon)):  # NaN fails too
        raise ConfigError("checkpoints must lie in (0, horizon]")
    if collect_idle_runs and not all(isinstance(cfg.policy, BestEffortUniform)
                                     for cfg in configs):
        raise ConfigError("idle-run collection applies to the uniform policy")

    records = [_Records(n_paths, ts, cfg.policy.period if collect_idle_runs
                        else None) for cfg in configs]
    for i in range(n_paths):
        seed = derive_seed(base.seed, i)
        # The previous path's arrivals and log are freed as they are
        # replaced. Freeing them before this draw would save one epoch
        # buffer of peak memory, but malloc would then return the heap
        # top after each path, and the next path would fault its pages
        # in again: a fig3 command (6 paths of T=1e5, 8 cells) takes
        # 3336 minor faults that way against 838 this way, and a fig5
        # command 1989 against 1212.
        arrivals = sample_path(seed, base.horizon, base.rate)
        for cfg, rec in zip(configs, records):
            summary, log = run_path(cfg, arrivals, rec.row(i))
            rec.add(i, summary, log)
    return [rec.result() for rec in records]


def run_ensemble(config: SimConfig, n_paths: int, checkpoints=(),
                 collect_idle_runs: bool = False) -> EnsembleResult:
    """Run n paths on derived seeds and aggregate in fixed seed order."""
    return _run_policies([config], n_paths, checkpoints,
                         collect_idle_runs)[0]


@dataclass
class SweepCell:
    k: float
    cap: int
    beta: float
    mean_gap: float
    stderr: float
    gap_bound: float


def sweep_battery(k_values, cap_values, horizon: float, n_paths: int,
                  base_seed: int) -> list[SweepCell]:
    """Gap of the adaptive policy on a (k, B) grid, k-major.

    Every cell is checked before any path is drawn: an invalid (k, B)
    raises its ConfigError. All cells share the base seed, so each path
    is drawn once and every cell runs on it.
    """
    grid = [(k, cap, adaptive_beta(k, cap), adaptive_gap_bound(k, cap))
            for k in k_values for cap in cap_values]
    if not grid:
        return []
    configs = [SimConfig(policy=EnergyAwareAdaptive(k=k), capacity=cap,
                         horizon=horizon, seed=base_seed)
               for k, cap, _, _ in grid]
    return [SweepCell(k=k, cap=cap, beta=beta, mean_gap=res.mean_gap,
                      stderr=res.stderr, gap_bound=bound)
            for (k, cap, beta, bound), res
            in zip(grid, _run_policies(configs, n_paths))]


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
    configs = [SimConfig(policy=policy, capacity=1, horizon=horizon,
                         seed=base_seed) for policy in policies.values()]
    return dict(zip(policies, _run_policies(configs, n_paths, checkpoints)))
