"""Seeded Poisson energy-arrival paths in continuous time.

Arrival instants are generated by inverse-CDF exponential sampling,
``increment = -log(1 - U) / rate``, with uniforms drawn from a Philox
counter-based generator and summed left to right. The pair (seed, rate)
pins the entire arrival sequence bit-for-bit: the uniforms are drawn in
blocks, but the running sum carries from one block to the next, so the
instants are those of one uniform and one addition per arrival. Each
path is filled into one array sized from the expected count, which grows
only when that estimate falls short.

``sample_path`` is the definition. Each thread keeps one Philox
generator and resets it to the start of a path's stream, key ``seed``
and counter 0 with an empty buffer, before drawing that path. Building a
generator costs far more than resetting one, mostly for the OS entropy
that an explicit key then overrides; the reset stream is bit-identical
to a freshly built ``np.random.Generator(np.random.Philox(key=seed))``.

``sample_rows`` draws the paths of several seeds at once, as the rows of
one chunk of ``_expected(T * rate)`` uniforms each, the size of
``sample_path``'s first block. A ``fill`` may write every row's uniforms
in one call: simkernel passes the Philox4x64-10 of ``_loops.c`` on the
"c" backend, which its import check holds to numpy's bits. Without one,
each row comes from this thread's reset generator. The transform of
``sample_path`` then runs once over the chunk, and one ``cumsum`` along
the rows forms every running sum, the same additions in the same order.
A row whose last instant is still within T fell short, and is drawn again
through ``sample_path``. So each row holds ``sample_path``'s bits.

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
_CHUNK_BYTES = 256 << 10  # uniforms drawn at once across paths

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


def _increments(uniforms, rate):
    """Turn uniforms in place into the increments -log1p(-u) / rate, one
    ufunc at a time with the same operations."""
    np.negative(uniforms, out=uniforms)
    np.log1p(uniforms, out=uniforms)
    np.negative(uniforms, out=uniforms)
    if rate != 1.0:  # x / 1.0 is x, bit for bit
        np.divide(uniforms, rate, out=uniforms)


def chunk_rows(horizon: float, rate: float = 1.0) -> int:
    """How many paths sample_rows should draw at once: as many rows as fit
    in _CHUNK_BYTES, and at least one, so that a long path is a chunk of
    its own."""
    return max(1, _CHUNK_BYTES // (8 * _expected(horizon * rate)))


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
        block = path[filled:filled + _MAX_BLOCK]
        gen.random(out=block)
        _increments(block, rate)
        block[0] += tail
        block.cumsum(out=block)
        tail = float(block[-1])
        filled += len(block)
    return path[:path[:filled].searchsorted(horizon, side="right")]


def sample_rows(seeds, horizon: float, rate: float = 1.0,
                fill=None) -> list[np.ndarray]:
    """sample_path(seed, horizon, rate) for each of the seeds, drawn as the
    rows of one chunk. fill(keys, chunk), when given, writes into row r of
    the C-contiguous float64 chunk the first uniforms of the Philox stream
    keyed keys[r] (uint64); it must give numpy's bits. A row that falls
    short of the horizon is drawn again through sample_path. The other
    paths are views of the chunk."""
    if not 0.0 < rate < math.inf:
        raise ValueError("rate must be positive and finite")
    width = _expected(horizon * rate)
    chunk = np.empty((len(seeds), width))
    if fill is not None:
        fill(np.array(seeds, dtype=np.uint64), chunk)
    else:
        for r, seed in enumerate(seeds):
            _stream(seed).random(out=chunk[r])
    _increments(chunk, rate)
    chunk.cumsum(axis=1, out=chunk)
    paths = [row[:row.searchsorted(horizon, side="right")]
             if row[-1] > horizon else None for row in chunk]
    # A chunk of short rows alone is freed before they are drawn again.
    del chunk
    return [sample_path(seed, horizon, rate) if path is None else path
            for seed, path in zip(seeds, paths)]
