"""Ensemble orchestration: convergence curves, parameter sweeps, and scalar
optimization over simulated objectives.

Determinism discipline: path i of an ensemble keyed by base seed s runs on
the stream derive_seed(s, i); paths are aggregated in seed order with numpy
(pairwise) reductions, so repeated calls are bit-identical. Optimization
and policy comparisons reuse one fixed seed set across candidates (common
random numbers), which makes simulated objectives deterministic functions
of their parameter. A policy comparison and a battery sweep draw each
path once and run every policy, or every (k, B) cell, on it. The two
simulated objectives keep the paths they draw in their first evaluation,
while their buffers fit in _DRAWN_BYTES (256 MiB, 200 paths of T=1e5),
and run every later evaluation on them: a search draws each path once.
All the objectives alive on one (seed, horizon) share one such store,
which dies with the last of them. Paths are drawn a chunk of
rows at a time by arrivals.sample_rows, as many as fit in its
_CHUNK_BYTES (256 KiB: 58 paths of T=500, one of T=1e5), with the C
Philox on the "c" backend; a path's bits do not depend on the chunk it
is drawn in, so each is sample_path's, a chunk of one row. Each
configuration's simkernel plan (its loop, parameters, checkpoints and
series rows) is resolved once, and run_path runs path i of it in one
call. A path's record is what that call's tally leaves: the time
average, the sums of the delays and of their squares, and the row of
running averages written into the ensemble's series; the delays
themselves are formed only for idle-run collection.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

from .analytics import AOI_LOWER_BOUND, adaptive_gap_bound, optimal_threshold
from .arrivals import chunk_rows, derive_seed, sample_rows
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
from .simkernel import SimConfig, SimSummary, _fill, _Plan, run_path

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

    def __init__(self, config: SimConfig, n_paths: int, ts: np.ndarray,
                 order: np.ndarray, idle_period=None):
        self.ts = ts
        self.avgs = np.empty(n_paths)
        self.series = np.empty((n_paths, len(ts))) if len(ts) else None
        # What run_path needs of this configuration, resolved once.
        self.plan = _Plan(config.policy, config.capacity,
                          float(config.horizon), ts, order, self.series)
        self.sum_x = 0.0
        self.sum_x2 = 0.0
        self.n_delays = 0
        self.idle_period = idle_period
        self.idle_hist = np.zeros(1, dtype=np.int64)

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


# Bytes of arrivals that a `drawn` list keeps: 200 paths of T=1e5 fit.
_DRAWN_BYTES = 256 << 20


def _pinned(arrivals: np.ndarray) -> int:
    """Bytes that keeping these arrivals holds: its buffer's, if a view."""
    return (arrivals if arrivals.base is None else arrivals.base).nbytes


def _paths(base: SimConfig, n_paths: int, drawn):
    """Path i's arrivals for i in 0..n-1: drawn[i] while drawn has it,
    then each later path drawn a chunk of paths at a time. When drawn is
    a list, the paths drawn here are appended to it, in order, while the
    bytes that all of its paths pin fit in _DRAWN_BYTES; a path that
    shares its chunk with others is kept as a copy, so that it pins its
    own bytes and not the chunk's."""
    yield from drawn[:n_paths]
    keep = isinstance(drawn, list)
    held = sum(map(_pinned, drawn)) if keep else 0
    per = chunk_rows(base.horizon, base.rate)
    for start in range(len(drawn), n_paths, per):
        seeds = [derive_seed(base.seed, i)
                 for i in range(start, min(start + per, n_paths))]
        for arrivals in sample_rows(seeds, base.horizon, base.rate,
                                    _fill()):
            if keep:
                if per > 1:
                    arrivals = arrivals.copy()
                held += _pinned(arrivals)
                # The first path that does not fit ends the keeping.
                keep = held <= _DRAWN_BYTES
                if keep:
                    drawn.append(arrivals)
            yield arrivals


def _run_policies(configs: list[SimConfig], n_paths: int, checkpoints=(),
                  collect_idle_runs: bool = False, *,
                  drawn=()) -> list[EnsembleResult]:
    """Run every configuration on paths 0..n-1 of their common seed.

    The configurations share seed, horizon and rate, and differ only in
    policy and capacity: path i's arrivals are drawn once and every
    policy runs on them. Path i < len(drawn) runs on drawn[i], which
    must be what sample_path gives for it; every other path is drawn
    through this module's sample_rows, after every configuration has
    been checked. A list drawn keeps the paths drawn here as _paths says.
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

    # The checkpoints as the tally reads them: contiguous, with the order
    # that sorts them.
    ts = np.ascontiguousarray(ts)
    order = np.argsort(ts, kind="stable").astype(np.int64)
    records = [_Records(cfg, n_paths, ts, order,
                        cfg.policy.period if collect_idle_runs else None)
               for cfg in configs]
    # The previous chunk (unless drawn holds its paths) and log are freed
    # as they are replaced. Freeing them before the next draw would save
    # one epoch buffer of peak memory, but malloc would then return the
    # heap top after each path, and the next path would fault its pages
    # in again: a fig3 command (6 paths of T=1e5, 8 cells) takes 3336
    # minor faults that way against 838 this way, and a fig5 command 1989
    # against 1212.
    for i, arrivals in enumerate(_paths(base, n_paths, drawn)):
        for cfg, rec in zip(configs, records):
            summary, log = run_path(cfg, arrivals, (rec.plan, i))
            rec.add(i, summary, log)
    return [rec.result() for rec in records]


def run_ensemble(config: SimConfig, n_paths: int, checkpoints=(),
                 collect_idle_runs: bool = False, *,
                 drawn=()) -> EnsembleResult:
    """Run n paths on derived seeds and aggregate in fixed seed order;
    drawn is _run_policies'."""
    return _run_policies([config], n_paths, checkpoints, collect_idle_runs,
                         drawn=drawn)[0]


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


class _Store(list):
    """The paths that the objectives on one stream keep."""


_STORES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _store(seed: int, horizon: float) -> list:
    """The list of drawn paths shared by every live objective on (seed,
    horizon), all at rate 1: a new one when none is alive."""
    store = _STORES.get((seed, horizon))
    if store is None:
        store = _STORES[seed, horizon] = _Store()
    return store


def unit_uniform_period_objective(horizon: float, n_paths: int,
                                  base_seed: int):
    """Ensemble-mean age of the B=1 uniform policy as a function of period,
    on common random numbers. The objective keeps the paths it draws, up
    to _DRAWN_BYTES, for its later evaluations, in its stream's store."""
    drawn = _store(base_seed, horizon)

    def objective(period: float) -> float:
        cfg = SimConfig(policy=BestEffortUniform(period=period), capacity=1,
                        horizon=horizon, seed=base_seed)
        return run_ensemble(cfg, n_paths, drawn=drawn).mean_avg_aoi
    return objective


def unit_beta_objective(horizon: float, n_paths: int, base_seed: int):
    """Ensemble-mean age of the B=1 adaptive policy as a function of beta,
    on common random numbers. The objective keeps the paths it draws, up
    to _DRAWN_BYTES, for its later evaluations, in its stream's store."""
    drawn = _store(base_seed, horizon)

    def objective(beta: float) -> float:
        cfg = SimConfig(policy=AdaptiveUnitBattery(beta=beta), capacity=1,
                        horizon=horizon, seed=base_seed)
        return run_ensemble(cfg, n_paths, drawn=drawn).mean_avg_aoi
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
