"""Slow reference simulator and the oracles the kernels are checked against.

The reference draws its own arrival stream one uniform at a time, keeps
the battery in a ``BatteryState`` and asks the scalar schedule functions
below for each next epoch. It mirrors the kernels' arithmetic expression
by expression, so results must agree bit-for-bit. ``integrate_trace`` is
the independent oracle for the closed-form reward: it integrates the
piecewise-linear age curve segment by segment.
"""

import math
from dataclasses import dataclass

import numpy as np

from aoisim import (
    AdaptiveUnitBattery,
    BestEffortUniform,
    ConfigError,
    EnergyAwareAdaptive,
    ThresholdUnitBattery,
    UpdateLog,
    adaptive_beta,
)


# ---------------------------------------------------------------------------
# battery

@dataclass
class BatteryState:
    """Integer energy level plus waste / infeasibility counters.

    ``capacity=None`` models the unbounded battery: no clamp ever applies.
    Counters are monotone over a run: ``wasted_units`` accumulates every
    unit dropped by the capacity clamp, ``infeasible_epochs`` every failed
    discharge attempt.
    """

    level: int = 0
    capacity: int | None = None  # None = unbounded
    wasted_units: int = 0
    infeasible_epochs: int = 0

    def __post_init__(self):
        if self.capacity is not None and self.capacity < 1:
            raise ValueError("capacity must be a positive integer or None")
        if self.level < 0:
            raise ValueError("level must be non-negative")
        if self.capacity is not None and self.level > self.capacity:
            raise ValueError("level exceeds capacity")

    def harvest(self, units: int) -> None:
        """Add ``units`` arrivals, clamping at capacity; overflow is wasted."""
        if units < 0:
            raise ValueError("units must be non-negative")
        if self.capacity is None:
            self.level += units
            return
        total = self.level + units
        if total > self.capacity:
            self.wasted_units += total - self.capacity
            self.level = self.capacity
        else:
            self.level = total

    def try_discharge(self) -> bool:
        """Spend one unit if available.

        Returns True when the update went through. An empty battery is a
        modeled outcome, not a fault: the infeasibility counter increments
        and the call returns False.
        """
        if self.level >= 1:
            self.level -= 1
            return True
        self.infeasible_epochs += 1
        return False


# ---------------------------------------------------------------------------
# scalar schedules

def uniform_schedule(n: int, period: float) -> float:
    """n-th scheduled epoch of the uniform grid, n >= 1 (epoch 0 is implicit)."""
    if n < 1:
        raise ValueError("n must be >= 1; the time-0 update is implicit")
    if period <= 0:
        raise ConfigError("period must be positive")
    return n * period


def adaptive_next_epoch(prev_epoch: float, level_before_prev: int,
                        cap: int, beta: float) -> float:
    """Next scheduled epoch of the energy-aware adaptive recursion.

    The branch is decided by the exact integer comparison 2*level vs B, so
    the middle (unit-delay) branch is reachable only for even B.
    """
    if cap < 2:
        raise ConfigError("adaptive policy requires battery capacity >= 2")
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta = {beta:.6g} violates 0 < beta < 1")
    doubled = 2 * level_before_prev
    if doubled < cap:
        return prev_epoch + 1.0 / (1.0 - beta)
    if doubled == cap:
        return prev_epoch + 1.0
    return prev_epoch + 1.0 / (1.0 + beta)


def threshold_delay(gamma: float, tau0: float) -> float:
    """Inter-update delay of the B=1 threshold rule: wait until age tau0,
    or update at the arrival itself when it comes later than tau0."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if tau0 < 0:
        raise ConfigError("tau0 must be non-negative")
    return max(gamma, tau0)


def adaptive_unit_next_epoch(prev_epoch: float, full_before_prev: bool,
                             beta: float) -> float:
    """Next scheduled epoch of the B=1 adaptive rule."""
    if not -1.0 < beta < 1.0:
        raise ConfigError(f"beta = {beta:.6g} violates -1 < beta < 1")
    if full_before_prev:
        return prev_epoch + 1.0 / (1.0 + beta)
    return prev_epoch + 1.0 / (1.0 - beta)


# ---------------------------------------------------------------------------
# reward trace oracle

def age_at(log: UpdateLog, t: float) -> float:
    """Instantaneous age at time t: t minus the largest epoch <= t (or 0)."""
    if t < 0:
        raise ValueError("t must be non-negative")
    idx = int(np.searchsorted(log.epochs, t, side="right"))
    base = log.epochs[idx - 1] if idx > 0 else 0.0
    return t - base


def integrate_trace(log: UpdateLog, horizon: float, step: float = 1.0) -> float:
    """Trace-integration oracle for the reward: integrate age_at over [0, T].

    The age curve is piecewise linear between consecutive epochs, so each
    segment is integrated analytically as a sum of trapezoids subdivided no
    coarser than ``step``; subdivision does not change the value, only the
    granularity of the walk. Pieces are summed exactly with math.fsum.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    inside = log.epochs[log.epochs <= horizon]
    bounds = np.concatenate(([0.0], inside, [horizon]))
    widths = np.diff(bounds)
    keep = widths > 0
    starts, widths = bounds[:-1][keep], widths[keep]
    if len(widths) == 0:
        return 0.0
    # Age at each segment start (0 at an update epoch, t at t before S_1).
    if len(log.epochs):
        idx = np.searchsorted(log.epochs, starts, side="right")
        bases = np.where(idx > 0, log.epochs[np.maximum(idx - 1, 0)], 0.0)
    else:
        bases = np.zeros(len(starts))
    start_age = starts - bases
    pieces = np.maximum(1, np.ceil(widths / step)).astype(np.int64)
    pw = widths / pieces
    seg = np.repeat(np.arange(len(widths)), pieces)
    offsets = np.concatenate(([0], np.cumsum(pieces)))
    j = np.arange(offsets[-1]) - offsets[seg]
    # Trapezoid over piece j of a segment with linear age start_age + x.
    areas = (2.0 * start_age[seg] + (2 * j + 1) * pw[seg]) * pw[seg] * 0.5
    return math.fsum(areas)


# ---------------------------------------------------------------------------
# reference runs

@dataclass
class ReferenceResult:
    epochs: np.ndarray
    wasted: int
    infeasible: int
    final_level: int
    n_arrivals: int


class PhiloxStream:
    """The Poisson stream keyed by ``seed``, one uniform and one addition
    per arrival: t_n = t_{n-1} + -log1p(-U_n) / rate."""

    def __init__(self, seed, rate=1.0):
        key = int(seed) & ((1 << 64) - 1)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self._rate = rate
        self._t = 0.0

    def next_arrival(self):
        # np.log1p, not math.log1p: the two differ in the last bit on a few
        # arrivals in ten thousand.
        self._t = self._t + float(-np.log1p(-self._gen.random()) / self._rate)
        return self._t


class _ArrayStream:
    """The instants of a sorted arrival array, then no arrival ever."""

    def __init__(self, arrivals):
        self._instants = iter(np.asarray(arrivals, dtype=np.float64).tolist())

    def next_arrival(self):
        return next(self._instants, float("inf"))


class _Lookahead:
    """One-arrival lookahead over a stream, bounded by the horizon."""

    def __init__(self, stream, horizon):
        self.stream = stream
        self.horizon = horizon
        self.pending = None
        self.seen = 0

    def peek(self):
        if self.pending is None:
            self.pending = self.stream.next_arrival()
        return self.pending

    def pop(self):
        t = self.peek()
        self.pending = None
        if t <= self.horizon:
            self.seen += 1
        return t


def _run_scheduled(feed, battery, next_epoch, horizon):
    epochs = []
    s = 0.0
    level_before_prev = 1  # unit present right before the time-0 update
    while True:
        s = next_epoch(s, level_before_prev)
        if s > horizon:
            break
        while feed.peek() < s:
            battery.harvest(1)
            feed.pop()
        level_before_prev = battery.level
        if battery.try_discharge():
            epochs.append(s)
    while feed.peek() <= horizon:
        battery.harvest(1)
        feed.pop()
    return epochs


def _run_unit_renewal(feed, battery, tau0, horizon):
    epochs = []
    s = 0.0
    while True:
        trigger = feed.peek()
        if trigger > horizon:
            break
        x = threshold_delay(trigger - s, tau0)
        s_next = s + x
        if s_next > horizon:
            break
        feed.pop()
        battery.harvest(1)
        while feed.peek() <= s_next:
            battery.harvest(1)  # slot already full: clamp counts the waste
            feed.pop()
        assert battery.try_discharge()
        epochs.append(s_next)
        s = s_next
    while feed.peek() <= horizon:
        battery.harvest(1)
        feed.pop()
    return epochs


def reference_run(seed, policy, capacity, horizon, rate=1.0) -> ReferenceResult:
    return _reference(PhiloxStream(seed, rate), policy, capacity, horizon)


def reference_on_arrivals(arrivals, policy, capacity,
                          horizon) -> ReferenceResult:
    """Reference run over a given sorted arrival array in (0, horizon]."""
    return _reference(_ArrayStream(arrivals), policy, capacity, horizon)


def _reference(stream, policy, capacity, horizon) -> ReferenceResult:
    feed = _Lookahead(stream, horizon)
    battery = BatteryState(level=0, capacity=capacity)

    if isinstance(policy, BestEffortUniform):
        counter = {"n": 0}

        def next_epoch(prev, level_before):
            counter["n"] += 1
            return uniform_schedule(counter["n"], policy.period)

        epochs = _run_scheduled(feed, battery, next_epoch, horizon)
    elif isinstance(policy, EnergyAwareAdaptive):
        beta = adaptive_beta(policy.k, capacity)

        def next_epoch(prev, level_before):
            return adaptive_next_epoch(prev, level_before, capacity, beta)

        epochs = _run_scheduled(feed, battery, next_epoch, horizon)
    elif isinstance(policy, AdaptiveUnitBattery):

        def next_epoch(prev, level_before):
            return adaptive_unit_next_epoch(prev, level_before >= 1,
                                            policy.beta)

        epochs = _run_scheduled(feed, battery, next_epoch, horizon)
    elif isinstance(policy, ThresholdUnitBattery):
        epochs = _run_unit_renewal(feed, battery, policy.tau0, horizon)
    else:
        raise TypeError(f"unsupported policy {policy!r}")

    return ReferenceResult(
        epochs=np.array(epochs, dtype=np.float64),
        wasted=battery.wasted_units,
        infeasible=battery.infeasible_epochs,
        final_level=battery.level,
        n_arrivals=feed.seen,
    )
