import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from aoisim import (
    AOI_LOWER_BOUND,
    BestEffortUniform,
    SimConfig,
    ThresholdUnitBattery,
    UpdateLog,
    accumulate_reward,
    adaptive_gap_bound,
    idle_interval_pmf,
    inter_update_moments,
    optimal_threshold,
    run_ensemble,
    run_path,
    threshold_average_aoi,
)


def quad_moment(tau0: float, m: int) -> float:
    """Independent oracle: E[max(Gamma, tau0)^m] for Gamma ~ Exp(1).

    Integrated piecewise around the kink at tau0 so the quadrature error
    estimate stays far below the comparison tolerance.
    """
    below, err1 = quad(lambda g: tau0 ** m * math.exp(-g), 0.0, tau0)
    above, err2 = quad(lambda g: g ** m * math.exp(-g), tau0, np.inf,
                       limit=200)
    assert err1 + err2 < 1e-6  # quad's estimate is very conservative here
    return below + above


def test_lower_bound_value():
    assert AOI_LOWER_BOUND == 0.5


def test_lower_bound_attained_by_unit_uniform_log():
    log = UpdateLog.from_delays(np.ones(1000))
    assert accumulate_reward(log, 1000.0).time_average == 0.5


def test_threshold_average_aoi_values():
    assert threshold_average_aoi(0.0) == 1.0
    assert threshold_average_aoi(0.901) == pytest.approx(0.9012, abs=5e-5)
    assert threshold_average_aoi(2.0) == pytest.approx(1.12676, abs=1e-5)
    with pytest.raises(ValueError):
        threshold_average_aoi(-0.1)


@pytest.mark.parametrize("tau0", [0.0, 0.25, 0.901, 2.0, 5.0])
def test_threshold_average_aoi_against_quadrature(tau0):
    expected = quad_moment(tau0, 2) / (2.0 * quad_moment(tau0, 1))
    assert threshold_average_aoi(tau0) == pytest.approx(expected, rel=1e-10)


def test_inter_update_moments_values():
    assert inter_update_moments(0.0) == (1.0, 2.0)
    mean, second = inter_update_moments(0.901)
    assert mean == pytest.approx(1.30720, abs=1e-4)
    assert second == pytest.approx(2.35606, abs=1e-4)
    assert second / (2 * mean) == pytest.approx(0.9012, abs=5e-5)


@pytest.mark.parametrize("tau0", [0.0, 0.5, 0.901, 3.0, 8.0])
def test_inter_update_moments_against_quadrature(tau0):
    mean, second = inter_update_moments(tau0)
    assert mean == pytest.approx(quad_moment(tau0, 1), rel=1e-10)
    assert second == pytest.approx(quad_moment(tau0, 2), rel=1e-10)


def test_moments_large_tau_asymptote():
    mean, _ = inter_update_moments(40.0)
    assert abs(mean - 40.0) / 40.0 < 1e-6


def test_ratio_identity_random_tau():
    rng = np.random.default_rng(3)
    for tau0 in rng.uniform(0.0, 10.0, size=100):
        mean, second = inter_update_moments(tau0)
        h = threshold_average_aoi(tau0)
        assert h * 2.0 * mean == pytest.approx(second, rel=1e-12)


def test_optimal_threshold():
    tau_star, h_star = optimal_threshold(1e-6)
    assert tau_star == pytest.approx(0.901, abs=1e-3)
    assert h_star == pytest.approx(0.9012, abs=5e-4)
    # The search observes the fixed point h(tau*) = tau*; it is not assumed.
    assert abs(threshold_average_aoi(tau_star) - tau_star) < 1e-3
    # No point of a grid over [0, 5] beats the minimizer.
    grid = [threshold_average_aoi(t) for t in np.linspace(0.0, 5.0, 51)]
    assert grid[0] == 1.0
    assert h_star <= min(grid)
    with pytest.raises(ValueError):
        optimal_threshold(0.0)


def test_optimal_threshold_against_root_oracle():
    # Setting h'(t) = 0 reduces to t^2 = 2 e^{-t}; solve independently.
    root = brentq(lambda t: t * t - 2.0 * math.exp(-t), 0.5, 1.5, xtol=1e-13)
    tau_star, h_star = optimal_threshold(1e-8)
    assert tau_star == pytest.approx(root, abs=1e-6)
    assert h_star == pytest.approx(threshold_average_aoi(root), rel=1e-10)


def test_h_unimodal_on_grid():
    grid = np.linspace(0.0, 5.0, 10_000)
    values = np.array([threshold_average_aoi(t) for t in grid])
    signs = np.sign(np.diff(values))
    changes = np.count_nonzero(np.diff(signs) != 0)
    assert changes == 1  # first decreasing, then increasing


def test_idle_interval_pmf_values():
    assert idle_interval_pmf(1) == pytest.approx(0.6321206, abs=1e-7)
    assert idle_interval_pmf(2) == pytest.approx(0.2325442, abs=1e-7)
    assert idle_interval_pmf(3) == pytest.approx(0.0855482, abs=1e-7)
    with pytest.raises(ValueError):
        idle_interval_pmf(0)


def test_idle_interval_pmf_normalizes():
    partial = sum(idle_interval_pmf(k) for k in range(1, 31))
    assert partial == pytest.approx(1.0, abs=1e-12)


def test_adaptive_gap_bound_values():
    assert adaptive_gap_bound(1.0, 100) == pytest.approx(0.0106038, abs=1e-7)
    bounds = [adaptive_gap_bound(1.0, b) for b in (30, 60, 100, 200)]
    assert all(x > y for x, y in zip(bounds, bounds[1:]))
    assert adaptive_gap_bound(1.0, 10**6) < 1e-8
    with pytest.raises(ValueError):
        adaptive_gap_bound(50.0, 10)


@pytest.mark.parametrize("period", [0.1, 0.43, 1.0, 1.5])
def test_unit_uniform_closed_form_against_ensemble(period):
    # B=1 uniform grid at unit rate: the battery is empty after every
    # epoch, so each epoch is feasible on its own with probability
    # q = 1 - e^{-p}. Delays are p times a Geometric(q) count, which gives
    # the long-term average age p(2 - q) / (2q).
    q = -math.expm1(-period)
    expected = period * (2.0 - q) / (2.0 * q)
    cfg = SimConfig(BestEffortUniform(period), 1, 20_000.0, seed=2718)
    result = run_ensemble(cfg, 20)
    assert abs(result.mean_avg_aoi - expected) < 4.0 * result.stderr


@pytest.mark.parametrize("tau0", [0.0, 0.5, 0.901, 2.0])
def test_monte_carlo_agreement_with_moments(tau0):
    mean, second = inter_update_moments(tau0)
    horizon = 110_000.0 * mean  # about 1.1e5 renewals
    cfg = SimConfig(ThresholdUnitBattery(tau0), 1, horizon, seed=909)
    _, log = run_path(cfg)
    x = log.delays
    assert len(x) >= 100_000
    assert x.mean() == pytest.approx(mean, rel=0.01)
    assert np.mean(x * x) == pytest.approx(second, rel=0.01)
