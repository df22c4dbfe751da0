"""Seeded Poisson energy-arrival paths in continuous time.

Arrival instants are generated by inverse-CDF exponential sampling,
``increment = -log(1 - U) / rate``, with uniforms drawn from a Philox
counter-based generator and summed left to right. The pair (seed, rate)
pins the entire arrival sequence bit-for-bit: the uniforms are drawn in
blocks, but the running sum carries from one block to the next, so the
instants are those of one uniform and one addition per arrival.

Ensembles derive one independent stream per sample path via

    derived_seed = base_seed XOR (path_index * 0x9E3779B97F4A7C15)  (mod 2**64)
"""

from __future__ import annotations

import math

import numpy as np

SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_MAX_BLOCK = 1 << 20  # uniforms drawn at once


def derive_seed(base_seed: int, path_index: int) -> int:
    """Per-path seed for path ``path_index`` of an ensemble keyed by ``base_seed``."""
    if path_index < 0:
        raise ValueError("path_index must be non-negative")
    return (base_seed & _MASK) ^ ((path_index * SEED_STRIDE) & _MASK)


def sample_path(seed: int, horizon: float, rate: float = 1.0) -> np.ndarray:
    """All arrival instants in (0, horizon] of the stream keyed by ``seed``."""
    if not 0.0 < rate < math.inf:
        raise ValueError("rate must be positive and finite")
    gen = np.random.Generator(np.random.Philox(key=int(seed) & _MASK))
    blocks = []
    tail = 0.0  # last generated instant
    while tail <= horizon:
        # Size the block from the expected remaining count.
        expect = (horizon - tail) * rate
        n = min(int(expect + 6.0 * math.sqrt(expect + 1.0)) + 64, _MAX_BLOCK)
        inst = -np.log1p(-gen.random(n)) / rate
        inst[0] += tail
        np.cumsum(inst, out=inst)
        tail = float(inst[-1])
        blocks.append(inst)
    if not blocks:  # horizon below 0 (or NaN)
        return np.empty(0)
    path = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return path[:np.searchsorted(path, horizon, side="right")]
