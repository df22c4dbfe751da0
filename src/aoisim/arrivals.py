"""Seeded Poisson energy-arrival paths in continuous time.

Arrival instants are generated by inverse-CDF exponential sampling,
``increment = -log(1 - U) / rate``, with uniforms drawn from a Philox
counter-based generator and summed left to right. The pair (seed, rate)
pins the entire arrival sequence bit-for-bit: one uniform and one
addition per arrival.

``sample_rows`` is the definition. It draws the paths of several seeds
at once, as the rows of one chunk of ``_expected(T * rate)`` uniforms
each. A ``fill`` may write every row's uniforms in one call: simkernel
passes the Philox4x64-10 of ``_loops.c`` on the "c" backend, which its
import check holds to numpy's bits. Without one, each row comes from
this thread's numpy Philox generator, reset to the start of the row's
stream, key ``seed`` and counter 0 with an empty buffer. Building a
generator costs far more than resetting one, mostly for the OS entropy
that an explicit key then overrides; the reset stream is bit-identical
to a freshly built ``np.random.Generator(np.random.Philox(key=seed))``.
The transform then runs once over the chunk, and one ``cumsum`` along
the rows forms every running sum. A row whose last instant is still
within T fell short, and is drawn again from its start in a wider row.
A Philox stream's first n uniforms do not depend on how many are drawn,
so a row drawn again holds the same bits. ``sample_path`` is one row.

Ensembles derive one independent stream per sample path via

    derived_seed = base_seed XOR (path_index * 0x9E3779B97F4A7C15)  (mod 2**64)
"""

from __future__ import annotations

import math
import threading

import numpy as np

SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_CHUNK_BYTES = 256 << 10  # uniforms drawn at once across paths

_local = threading.local()


def derive_seed(base_seed: int, path_index: int) -> int:
    """Per-path seed for path ``path_index`` of an ensemble keyed by ``base_seed``."""
    if path_index < 0:
        raise ValueError("path_index must be non-negative")
    return (base_seed & _MASK) ^ ((path_index * SEED_STRIDE) & _MASK)


def _expected(count: float) -> int:
    """Room for `count` expected arrivals: two standard deviations over.
    A path that falls short is drawn again, which 0.40 % of 30010 paths of
    T=500 and 2.6 % of 1200 paths of T=1e5 did; a wider margin would make
    every path draw more uniforms past its horizon."""
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


def _numpy_fill(keys, chunk):
    """Row r of chunk gets the first uniforms of the stream keyed keys[r],
    from this thread's generator, reset to the start of that stream."""
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = np.random.Generator(np.random.Philox(key=0))
    for key, row in zip(keys.tolist(), chunk):
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [key, 0]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4,  # empty: refill first
            "has_uint32": 0, "uinteger": 0,
        }
        gen.random(out=row)


def sample_rows(seeds, horizon: float, rate: float = 1.0,
                fill=None) -> list[np.ndarray]:
    """The arrival instants in (0, horizon] of the stream keyed by each of
    the seeds, taken mod 2**64, drawn as the rows of one chunk. fill(keys,
    chunk), when given, writes into row r of the C-contiguous float64
    chunk the first uniforms of the Philox stream keyed keys[r] (uint64);
    it must give numpy's bits. The rows that fall short of the horizon are
    drawn again, by the same fill, into a chunk of their own. Each path is
    a view of the chunk it was completed in; a horizon of 0 or less gives
    empty rows."""
    if not 0.0 < rate < math.inf:
        raise ValueError("rate must be positive and finite")
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, not {horizon}")
    keys = np.array([int(seed) & _MASK for seed in seeds], np.uint64)
    paths = [None] * len(keys)
    todo = list(range(len(keys)))
    width = _expected(max(horizon, 0.0) * rate)  # empty rows for T <= 0
    while todo:
        chunk = np.empty((len(todo), width))
        (fill or _numpy_fill)(keys[todo], chunk)
        _increments(chunk, rate)
        chunk.cumsum(axis=1, out=chunk)
        for i, row in zip(todo, chunk):
            if row[-1] > horizon:
                paths[i] = row[:row.searchsorted(horizon, side="right")]
        todo = [i for i in todo if paths[i] is None]
        if todo:  # wider by the count expected past the shortest row
            width += _expected((horizon - float(chunk[:, -1].min())) * rate)
        # A chunk of short rows alone is freed before they are drawn again.
        del chunk, row
    return paths


def sample_path(seed: int, horizon: float, rate: float = 1.0) -> np.ndarray:
    """All arrival instants in (0, horizon] of the stream keyed by ``seed``."""
    return sample_rows([seed], horizon, rate)[0]
