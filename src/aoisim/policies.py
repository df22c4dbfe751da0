"""Status-update policies: one frozen dataclass per rule, plus the
bounds that tie each rule to a battery capacity.

Four policy types are supported:

* ``BestEffortUniform(period)``: update at every grid epoch n*period when
  the battery is non-empty, otherwise stay silent until the next grid epoch.
* ``EnergyAwareAdaptive(k)``: recursive schedule that perturbs a unit
  period by beta = k*ln(B)/B depending on whether the battery sits below,
  at, or above half capacity (requires B >= 2).
* ``ThresholdUnitBattery(tau0)``: B=1 renewal rule, wait for the first
  arrival after the last update, then fire once the age reaches tau0 (or
  immediately if it already has).
* ``AdaptiveUnitBattery(beta)``: B=1 scheduled-epoch rule with delay
  1/(1+beta) after a feasible epoch and 1/(1-beta) after an infeasible one;
  beta may be negative.

The greedy rule, update at every energy arrival, is ThresholdUnitBattery(0).

Infeasible scheduled epochs consume no energy and do not reset the age;
the schedule recursion always continues from the scheduled epoch, not from
the last actual update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union


class ConfigError(ValueError):
    """A policy or simulation configuration violates a documented bound."""


@dataclass(frozen=True)
class BestEffortUniform:
    period: float = 1.0


@dataclass(frozen=True)
class EnergyAwareAdaptive:
    k: float = 1.0


@dataclass(frozen=True)
class ThresholdUnitBattery:
    tau0: float = 0.0


@dataclass(frozen=True)
class AdaptiveUnitBattery:
    beta: float = 0.0


Policy = Union[BestEffortUniform, EnergyAwareAdaptive, ThresholdUnitBattery,
               AdaptiveUnitBattery]

# Variants that only make sense with a one-unit battery.
UNIT_BATTERY_VARIANTS = (ThresholdUnitBattery, AdaptiveUnitBattery)


def adaptive_beta(k: float, cap: int) -> float:
    """Perturbation beta = k*ln(B)/B for battery size B; must land in (0, 1).

    ln is the natural logarithm; any other base is absorbed into k.
    """
    if cap < 2:
        raise ConfigError("adaptive policy requires battery capacity >= 2")
    if k <= 0:
        raise ConfigError("k must be positive")
    beta = k * math.log(cap) / cap
    if not 0.0 < beta < 1.0:
        raise ConfigError(
            f"beta = k*ln(B)/B = {beta:.6g} violates 0 < beta < 1 "
            f"(k={k:g}, B={cap})")
    return beta


def validate_policy(policy: Policy, capacity: int | None) -> None:
    """Raise ConfigError when (policy, capacity) violates a variant bound."""
    if isinstance(policy, UNIT_BATTERY_VARIANTS):
        if capacity != 1:
            raise ConfigError(
                f"{type(policy).__name__} requires battery capacity 1, "
                f"got {'unbounded' if capacity is None else capacity}")
    if isinstance(policy, BestEffortUniform):
        if not policy.period > 0:  # NaN fails too
            raise ConfigError("period must be positive")
    elif isinstance(policy, EnergyAwareAdaptive):
        if capacity is None or capacity < 2:
            raise ConfigError(
                "EnergyAwareAdaptive requires a finite battery capacity >= 2")
        adaptive_beta(policy.k, capacity)  # raises when beta leaves (0, 1)
    elif isinstance(policy, ThresholdUnitBattery):
        if not policy.tau0 >= 0:  # NaN fails too
            raise ConfigError("tau0 must be non-negative")
    elif isinstance(policy, AdaptiveUnitBattery):
        if not -1.0 < policy.beta < 1.0:
            raise ConfigError(f"beta = {policy.beta:.6g} violates -1 < beta < 1")
