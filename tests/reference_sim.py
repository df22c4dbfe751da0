"""Slow reference simulator used as an independent oracle for the kernels.

Consumes the arrival stream one event at a time through BatteryState and
the pure policy functions, mirroring the kernels' arithmetic expression by
expression so results must agree bit-for-bit.
"""

from dataclasses import dataclass

import numpy as np

from aoisim import (
    AdaptiveUnitBattery,
    ArrivalStream,
    BatteryState,
    BestEffortUniform,
    EnergyAwareAdaptive,
    GreedyUnitBattery,
    ThresholdUnitBattery,
    adaptive_beta,
    adaptive_next_epoch,
    adaptive_unit_next_epoch,
    threshold_delay,
    uniform_schedule,
)


@dataclass
class ReferenceResult:
    epochs: np.ndarray
    wasted: int
    infeasible: int
    final_level: int
    n_arrivals: int


class _Lookahead:
    """One-arrival lookahead over a stream, bounded by the horizon."""

    def __init__(self, stream, horizon):
        self.stream = stream
        self.horizon = horizon
        self.pending = None
        self.seen = 0

    def peek(self):
        if self.pending is None:
            t = self.stream.next_arrival()
            self.pending = t
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


class _ArrayStream:
    """The instants of a sorted arrival array, then no arrival ever."""

    def __init__(self, arrivals):
        self._instants = iter(np.asarray(arrivals, dtype=np.float64).tolist())

    def next_arrival(self):
        return next(self._instants, float("inf"))


def reference_run(seed, policy, capacity, horizon, rate=1.0) -> ReferenceResult:
    return _reference(ArrivalStream(seed, rate), policy, capacity, horizon)


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
    elif isinstance(policy, (ThresholdUnitBattery, GreedyUnitBattery)):
        tau0 = policy.tau0 if isinstance(policy, ThresholdUnitBattery) else 0.0
        epochs = _run_unit_renewal(feed, battery, tau0, horizon)
    else:
        raise TypeError(f"unsupported policy {policy!r}")

    return ReferenceResult(
        epochs=np.array(epochs, dtype=np.float64),
        wasted=battery.wasted_units,
        infeasible=battery.infeasible_epochs,
        final_level=battery.level,
        n_arrivals=feed.seen,
    )
