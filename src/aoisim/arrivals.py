"""Seeded Poisson energy-arrival paths in continuous time.

Arrival instants are generated by inverse-CDF exponential sampling,
``increment = -log(1 - U) / rate``, with uniforms drawn from a Philox
counter-based generator and summed left to right. The pair (seed, rate)
pins the entire arrival sequence bit-for-bit: the uniforms are drawn in
blocks, but the running sum carries from one block to the next, so the
instants are those of one uniform and one addition per arrival. Each
path is filled into one array sized from the expected count, which grows
only when that estimate falls short.

Each thread keeps one Philox generator and resets it to the start of a
path's stream, key ``seed`` and counter 0 with an empty buffer, before
drawing that path. Building a generator costs far more than resetting
one, mostly for the OS entropy that an explicit key then overrides; the
reset stream is bit-identical to a freshly built
``np.random.Generator(np.random.Philox(key=seed))``.

Ensembles derive one independent stream per sample path via

    derived_seed = base_seed XOR (path_index * 0x9E3779B97F4A7C15)  (mod 2**64)
"""

from __future__ import annotations

import math
import threading

import numpy as np

SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_MAX_BLOCK = 1 << 20  # uniforms drawn at once

_local = threading.local()


def derive_seed(base_seed: int, path_index: int) -> int:
    """Per-path seed for path ``path_index`` of an ensemble keyed by ``base_seed``."""
    if path_index < 0:
        raise ValueError("path_index must be non-negative")
    return (base_seed & _MASK) ^ ((path_index * SEED_STRIDE) & _MASK)


def _stream(seed: int) -> np.random.Generator:
    """This thread's generator, reset to the start of seed's stream."""
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = np.random.Generator(np.random.Philox(key=0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [int(seed) & _MASK, 0]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4,  # empty: refill first
        "has_uint32": 0, "uinteger": 0,
    }
    return gen


def _expected(count: float) -> int:
    """Room for `count` expected arrivals: two standard deviations over.
    A path that falls short grows, which 0.40 % of 30010 paths of T=500
    and 2.6 % of 1200 paths of T=1e5 did; a wider margin would make every
    path draw more uniforms past its horizon."""
    return int(count + 2.0 * math.sqrt(count + 1.0)) + 16


def sample_path(seed: int, horizon: float, rate: float = 1.0) -> np.ndarray:
    """All arrival instants in (0, horizon] of the stream keyed by ``seed``."""
    if not 0.0 < rate < math.inf:
        raise ValueError("rate must be positive and finite")
    gen = _stream(seed)
    path = np.empty(0)
    filled = 0
    tail = 0.0  # last generated instant
    while tail <= horizon:
        if filled == len(path):  # the estimate fell short: grow
            grown = np.empty(filled + _expected((horizon - tail) * rate))
            grown[:filled] = path
            path = grown
        # Each block is transformed in place, one ufunc at a time, with
        # the same operations as -log1p(-u) / rate.
        block = path[filled:filled + _MAX_BLOCK]
        gen.random(out=block)
        np.negative(block, out=block)
        np.log1p(block, out=block)
        np.negative(block, out=block)
        np.divide(block, rate, out=block)
        block[0] += tail
        block.cumsum(out=block)
        tail = float(block[-1])
        filled += len(block)
    return path[:path[:filled].searchsorted(horizon, side="right")]
