"""Closed-form results: bounds, the threshold-policy age function and its
minimizer, renewal moments, the idle-interval law, and the adaptive-policy
gap-scaling expression.

Everything here is normalized to unit arrival rate.
"""

from __future__ import annotations

import math

from .policies import ConfigError, adaptive_beta
from .search import bisect_sign_change, golden_section

# Universal lower bound on the long-term average age at unit rate.
AOI_LOWER_BOUND = 0.5


def _check_tau0(tau0: float) -> None:
    # Written so that NaN fails too: it would come out as a bare NaN,
    # which strict JSON cannot carry.
    if not 0.0 <= tau0 < math.inf:
        raise ConfigError("tau0 must be finite and non-negative")


def threshold_average_aoi(tau0: float) -> float:
    """Long-term average age h(tau0) of the B=1 threshold policy."""
    _check_tau0(tau0)
    e = math.exp(-tau0)
    return ((2.0 * tau0 + 2.0) * e + tau0 * tau0) / (2.0 * (e + tau0))


def inter_update_moments(tau0: float) -> tuple[float, float]:
    """First and second moments of the threshold-policy inter-update delay.

    The ratio second/(2*mean) reproduces threshold_average_aoi exactly;
    the consistency is enforced to 1e-12 relative in the tests.
    """
    _check_tau0(tau0)
    e = math.exp(-tau0)
    mean = e + tau0
    second = (tau0 * tau0 + 2.0 * tau0 + 2.0) * e + tau0 * tau0 * (1.0 - e)
    return mean, second


def _h_derivative(tau0: float) -> float:
    # Central difference; a symbolic derivative would invite transcription
    # errors for no accuracy gain at this tolerance. Next to 0, where h is
    # not defined to the left, a forward difference.
    step = 1e-6 * max(1.0, tau0)
    if tau0 < step:
        return (threshold_average_aoi(tau0 + step)
                - threshold_average_aoi(tau0)) / step
    return (threshold_average_aoi(tau0 + step)
            - threshold_average_aoi(tau0 - step)) / (2.0 * step)


def optimal_threshold(tol: float = 1e-6) -> tuple[float, float]:
    """Minimize h by golden-section on [0, 5], then bisection on h'.

    Returns (tau_star, h(tau_star)) with the final bracket narrower than
    ``tol``. Unimodality of h on [0, 5] is checked separately by a grid
    property test, which certifies the bracketed search.
    """
    if not tol > 0:
        raise ConfigError("tol must be positive")
    coarse = golden_section(threshold_average_aoi, 0.0, 5.0,
                            tol=max(tol, 1e-3))
    lo, hi = coarse.bracket
    # Widen until h' straddles zero; the coarse bracket almost always does.
    span = hi - lo
    while _h_derivative(lo) > 0 and lo > 0.0:
        lo = max(0.0, lo - span)
    while _h_derivative(hi) < 0 and hi < 5.0:
        hi = min(5.0, hi + span)
    tau_star = bisect_sign_change(_h_derivative, lo, hi, tol)
    return tau_star, threshold_average_aoi(tau_star)


def idle_interval_pmf(k: int) -> float:
    """P[idle run of k consecutive infeasible epochs], k >= 1 (geometric)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return math.exp(-(k - 1)) * (1.0 - math.exp(-1.0))


def adaptive_gap_bound(k: float, cap: int) -> float:
    """Scaling expression 2^(k+1) k (ln B)^2 / B^(k+1) + (ln B / B)^2.

    Evaluated literally, with no hidden constant; empirical gaps are
    compared through a fitted multiplicative constant.
    """
    adaptive_beta(k, cap)  # validates k, cap and beta in (0, 1)
    logb = math.log(cap)
    return (2.0 ** (k + 1) * k * logb * logb / float(cap) ** (k + 1)
            + (logb / cap) ** 2)

