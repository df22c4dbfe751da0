"""Values the workload outputs are checked against, computed here rather
than taken from the program: closed forms, renewal-reward error scales,
running averages of a path's epochs, the golden-section evaluation count,
and the slow reference simulator under tests/.
"""

from __future__ import annotations

import functools
import math
import sys
from pathlib import Path

import numpy as np

SEED_STRIDE = 0x9E3779B97F4A7C15
INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def derive_seed(base_seed: int, path_index: int) -> int:
    """Seed of path ``path_index`` of an ensemble, as aoisim documents it."""
    mask = (1 << 64) - 1
    return (base_seed & mask) ^ ((path_index * SEED_STRIDE) & mask)


def threshold_h(tau0: float) -> float:
    """Average age of the B=1 threshold rule,
    ((2 tau0 + 2) e^-tau0 + tau0^2) / (2 (e^-tau0 + tau0))."""
    e = math.exp(-tau0)
    return ((2.0 * tau0 + 2.0) * e + tau0 * tau0) / (2.0 * (e + tau0))


def threshold_optimum() -> tuple[float, float]:
    """(tau*, h(tau*)) by ternary search of h on [0, 5]."""
    lo, hi = 0.0, 5.0
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if threshold_h(m1) <= threshold_h(m2):
            hi = m2
        else:
            lo = m1
    tau = 0.5 * (lo + hi)
    return tau, threshold_h(tau)


def unit_uniform_mean(period: float) -> float:
    """Average age of the B=1 uniform grid: p (2 - q) / (2 q), q = 1 - e^-p."""
    q = -math.expm1(-period)
    return period * (2.0 - q) / (2.0 * q)


def _uniform_b1_cycle(period: float):
    """Inter-update delay of the B=1 uniform grid: period * Geometric(q)."""
    q = -math.expm1(-period)
    g = np.arange(1, int(60.0 / q) + 2, dtype=np.float64)
    weights = q * (1.0 - q) ** (g - 1.0)
    return period * g, weights


def _threshold_cycle(tau0: float, n: int = 20_001):
    """Inter-update delay max(tau0, Exp(1)) as a point mass plus a grid."""
    xs = np.linspace(tau0, tau0 + 40.0, n)
    dens = np.exp(-xs)
    w = dens * (xs[1] - xs[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return (np.concatenate(([tau0], xs)),
            np.concatenate(([-math.expm1(-tau0)], w)))


def renewal_sd(xs: np.ndarray, weights: np.ndarray, horizon: float) -> float:
    """Standard deviation of one path's time-average age over ``horizon``
    for i.i.d. update cycles X, by the renewal-reward central limit
    theorem: Var(X^2/2 - a X) / (E[X] T), with a = E[X^2/2] / E[X]."""
    weights = weights / weights.sum()
    ex = float(np.dot(weights, xs))
    a = float(np.dot(weights, 0.5 * xs * xs)) / ex
    resid = 0.5 * xs * xs - a * xs
    var = float(np.dot(weights, resid * resid))
    return math.sqrt(var / (ex * horizon))


@functools.lru_cache(maxsize=None)
def uniform_b1_scale(period: float, horizon: float) -> float:
    return renewal_sd(*_uniform_b1_cycle(period), horizon)


@functools.lru_cache(maxsize=None)
def threshold_scale(tau0: float, horizon: float) -> float:
    return renewal_sd(*_threshold_cycle(tau0), horizon)


def near(value: float, target: float, sd_path: float, n_paths: int,
         horizon: float) -> bool:
    """Ensemble mean within six standard errors of the long-run value, plus
    20/T for the start-up and tail terms of a finite horizon."""
    tol = 6.0 * sd_path / math.sqrt(n_paths) + 20.0 / horizon
    return abs(value - target) <= tol


def adaptive_beta(k: float, cap: int) -> float:
    return k * math.log(cap) / cap


def adaptive_gap_bound(k: float, cap: int) -> float:
    """2^(k+1) k (ln B)^2 / B^(k+1) + (ln B / B)^2."""
    lb = math.log(cap)
    return 2.0 ** (k + 1) * k * lb * lb / cap ** (k + 1) + (lb / cap) ** 2


def running_averages(epochs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """R(t)/t of one path at each t: squared delays of the epochs up to t,
    plus the squared open interval to t, halved."""
    out = np.empty(len(ts))
    delays = np.diff(epochs, prepend=0.0)
    for i, t in enumerate(ts):
        n = int(np.searchsorted(epochs, t, side="right"))
        last = epochs[n - 1] if n else 0.0
        out[i] = 0.5 * (math.fsum(delays[:n] ** 2) + (t - last) ** 2) / t
    return out


def golden_evaluations(lo: float, hi: float, tol: float) -> int:
    """Distinct objective calls of a bracketed golden-section search with
    hi - lo > tol: the two endpoints, the two first interior probes, and
    one new probe for every shrink after the first."""
    width, shrinks = hi - lo, 0
    while width > tol:
        width *= INVPHI
        shrinks += 1
    return shrinks + 3


def load_reference(root: Path):
    """The bit-for-bit reference simulator kept with the tests."""
    tests = str(root / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import reference_sim

    return reference_sim.reference_run
