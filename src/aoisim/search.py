"""Bracketed scalar minimization: golden-section plus bisection refinement."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .policies import ConfigError

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class ScalarOptimum:
    arg: float
    value: float
    flat: bool  # no interior probe beat the better endpoint
    evaluations: list[tuple[float, float]]  # (x, f(x)), sorted by x
    bracket: tuple[float, float]  # the final one


def golden_section(f, lo: float, hi: float, tol: float) -> ScalarOptimum:
    """Probe lo and hi, shrink [lo, hi] by golden-section until the bracket
    is below ``tol`` or too narrow for floats to split, and return the best
    probe; on a tie the earlier one, so an endpoint beats the interior and
    lo beats hi. f is memoized, so a deterministic f is probed once per
    point. A bad bracket or tol raises ConfigError before f is called."""
    if not -math.inf < lo < hi < math.inf:
        raise ConfigError("bracket must be finite, with lo < hi")
    if not tol > 0:
        raise ConfigError("tol must be positive")
    cache: dict[float, float] = {}

    def ev(x: float) -> float:
        if x not in cache:
            cache[x] = f(x)
        return cache[x]

    ev(lo)
    ev(hi)
    a, b = lo, hi
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    while b - a > tol and a < c < d < b:
        if ev(c) <= ev(d):
            b, d = d, c
            c = b - INVPHI * (b - a)
        else:
            a, c = c, d
            d = a + INVPHI * (b - a)
    x_best = min(cache, key=cache.get)
    return ScalarOptimum(arg=x_best, value=cache[x_best],
                         flat=x_best in (lo, hi),
                         evaluations=sorted(cache.items()), bracket=(a, b))


def bisect_sign_change(g, lo: float, hi: float, tol: float,
                       max_iter: int = 200) -> float:
    """Bisection for a root of g on [lo, hi]; g(lo) and g(hi) must differ in sign."""
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if (glo < 0) == (ghi < 0):
        raise ValueError("no sign change over the bracket")
    for _ in range(max_iter):
        if (hi - lo) <= tol:
            break
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm < 0) == (glo < 0):
            lo, glo = mid, gm
        else:
            hi, ghi = mid, gm
    return 0.5 * (lo + hi)
