import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aoisim import (
    AdaptiveUnitBattery,
    BestEffortUniform,
    ConfigError,
    EnergyAwareAdaptive,
    SimConfig,
    ThresholdUnitBattery,
    adaptive_beta,
    run_path,
    sample_path,
)
from aoisim.policies import validate_policy
from aoisim.simkernel import _unit_gammas
from reference_sim import (
    adaptive_next_epoch,
    adaptive_unit_next_epoch,
    threshold_delay,
    uniform_schedule,
)


def test_uniform_schedule_values():
    assert uniform_schedule(3, 1.0) == 3.0
    assert uniform_schedule(1, 0.43) == 0.43
    with pytest.raises(ValueError):
        uniform_schedule(0, 1.0)


def test_adaptive_beta_values():
    assert adaptive_beta(1.0, 100) == pytest.approx(0.0460517, abs=1e-7)
    assert adaptive_beta(2.0, 10) == pytest.approx(0.4605170, abs=1e-7)


def test_adaptive_beta_bound_violation_is_named():
    with pytest.raises(ConfigError, match="0 < beta < 1"):
        adaptive_beta(50.0, 10)
    with pytest.raises(ConfigError):
        adaptive_beta(1.0, 1)
    with pytest.raises(ConfigError):
        adaptive_beta(-1.0, 100)


def test_adaptive_next_epoch_three_branches():
    # exact equality branch: 2*2 == 4
    assert adaptive_next_epoch(5.0, 2, 4, 0.3) == 6.0
    # frozen from direct evaluation with beta = ln(100)/100
    beta = adaptive_beta(1.0, 100)
    assert adaptive_next_epoch(0.0, 10, 100, beta) == pytest.approx(
        1.0482748404, abs=1e-9)
    assert adaptive_next_epoch(0.0, 80, 100, beta) == pytest.approx(
        0.9559756924, abs=1e-9)


def test_adaptive_next_epoch_validation():
    with pytest.raises(ConfigError):
        adaptive_next_epoch(0.0, 1, 1, 0.5)
    with pytest.raises(ConfigError):
        adaptive_next_epoch(0.0, 1, 4, 1.5)


@given(beta=st.floats(min_value=1e-9, max_value=1 - 1e-9))
def test_adaptive_branch_delay_ordering(beta):
    fast = 1.0 / (1.0 + beta)
    slow = 1.0 / (1.0 - beta)
    assert fast < 1.0 < slow
    lo = adaptive_next_epoch(0.0, 0, 4, beta)
    mid = adaptive_next_epoch(0.0, 2, 4, beta)
    hi = adaptive_next_epoch(0.0, 4, 4, beta)
    assert (lo, mid, hi) == (slow, 1.0, fast)


def test_odd_capacity_middle_branch_unreachable():
    beta = 0.2
    for level in range(0, 6):
        d = adaptive_next_epoch(0.0, level, 5, beta)
        assert d != 1.0  # 2*level == 5 has no integer solution


def test_threshold_delay_values():
    assert threshold_delay(0.5, 0.901) == 0.901
    assert threshold_delay(2.0, 0.901) == 2.0
    assert threshold_delay(0.7, 0.0) == 0.7
    with pytest.raises(ValueError):
        threshold_delay(0.0, 0.5)
    with pytest.raises(ConfigError):
        threshold_delay(0.5, -0.1)


@given(gamma=st.floats(min_value=1e-12, max_value=1e6),
       tau0=st.floats(min_value=0.0, max_value=1e6))
def test_threshold_delay_is_max(gamma, tau0):
    x = threshold_delay(gamma, tau0)
    assert x == max(gamma, tau0)
    assert x >= gamma  # energy causality: never update before the arrival
    if tau0 == 0.0:
        assert x == gamma


def test_adaptive_unit_next_epoch_values():
    assert adaptive_unit_next_epoch(0.0, True, -0.145) == pytest.approx(
        1.0 / 0.855, rel=1e-12)
    assert adaptive_unit_next_epoch(0.0, False, -0.145) == pytest.approx(
        1.0 / 1.145, rel=1e-12)
    assert adaptive_unit_next_epoch(3.0, True, 0.0) == 4.0
    assert adaptive_unit_next_epoch(3.0, False, 0.0) == 4.0
    with pytest.raises(ConfigError):
        adaptive_unit_next_epoch(0.0, True, 1.0)
    with pytest.raises(ConfigError):
        adaptive_unit_next_epoch(0.0, False, -1.0)


def test_validate_policy_capacity_rules():
    validate_policy(BestEffortUniform(1.0), None)
    validate_policy(BestEffortUniform(1.0), 1)
    validate_policy(EnergyAwareAdaptive(1.0), 100)
    validate_policy(ThresholdUnitBattery(0.9), 1)
    validate_policy(ThresholdUnitBattery(0.0), 1)
    with pytest.raises(ConfigError):
        validate_policy(ThresholdUnitBattery(0.9), 2)
    with pytest.raises(ConfigError):
        validate_policy(AdaptiveUnitBattery(0.1), None)
    with pytest.raises(ConfigError):
        validate_policy(EnergyAwareAdaptive(1.0), None)
    with pytest.raises(ConfigError):
        validate_policy(EnergyAwareAdaptive(1.0), 1)
    with pytest.raises(ConfigError):
        validate_policy(EnergyAwareAdaptive(50.0), 10)
    with pytest.raises(ConfigError):
        validate_policy(BestEffortUniform(0.0), None)


def test_threshold_renewals_look_iid():
    # Renewal structure: inter-update delays of the threshold policy are
    # i.i.d., so the lag-1 autocorrelation over 1e5 renewals sits at 0.
    cfg = SimConfig(ThresholdUnitBattery(0.901), 1, 140_000.0, seed=8)
    _, log = run_path(cfg)
    x = log.delays
    assert len(x) >= 100_000
    rho = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(rho) <= 0.01
    # and the marginal matches the threshold rule applied to gammas
    # (delays come back through an epoch difference, hence the tiny atol)
    gammas = _unit_gammas(sample_path(cfg.seed, cfg.horizon), log.epochs)
    assert np.allclose(np.maximum(gammas, 0.901), x, rtol=0, atol=1e-9)
