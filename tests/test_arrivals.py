import math
import sys
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from aoisim import (BestEffortUniform, SimConfig, arrivals, derive_seed,
                    runner, sample_path, simkernel)
from aoisim.arrivals import _MASK, SEED_STRIDE
from reference_sim import PhiloxStream

_MAX_BLOCK = 1 << 20  # the reference's blocks, which carry the running sum


def _manual_path(seed, n, rate=1.0):
    """n arrivals from a hand-written Philox loop: the uniforms in one
    draw, then one addition per arrival, left to right."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    t, out = 0.0, []
    for inc in (-np.log1p(-gen.random(n)) / rate).tolist():
        t = t + inc
        out.append(t)
    return np.array(out)


def _fresh_path(seed, horizon, rate=1.0):
    """A path drawn in blocks that carry the running sum from one to the
    next, on a freshly built generator, with blocks sized six standard
    deviations over the expected count and concatenated at the end."""
    gen = np.random.Generator(np.random.Philox(key=seed & _MASK))
    blocks, tail = [], 0.0
    while tail <= horizon:
        expect = (horizon - tail) * rate
        n = min(int(expect + 6.0 * math.sqrt(expect + 1.0)) + 64, _MAX_BLOCK)
        inst = -np.log1p(-gen.random(n)) / rate
        inst[0] += tail
        np.cumsum(inst, out=inst)
        tail = float(inst[-1])
        blocks.append(inst)
    path = np.concatenate(blocks)
    return path[:np.searchsorted(path, horizon, side="right")]


STREAM_SEEDS = [0, 1, 2**64 - 1, SEED_STRIDE, derive_seed(2024, 17)]


@pytest.mark.parametrize("rate", [0.3, 2.5])
@pytest.mark.parametrize("horizon", [0.5, 500.0, 1e5, "blocks"])
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_reset_stream_matches_fresh_generator(seed, horizon, rate):
    # The per-thread generator, reset for each path, draws what a freshly
    # built one draws; "blocks" holds more than 2**20 arrivals.
    if horizon == "blocks":
        horizon = 1.05 * _MAX_BLOCK / rate
    path = sample_path(seed, horizon, rate)
    assert path.tobytes() == _fresh_path(seed, horizon, rate).tobytes()
    if horizon > _MAX_BLOCK / rate:
        assert len(path) > _MAX_BLOCK


@pytest.mark.parametrize("horizon", [500.0, 1.05 * _MAX_BLOCK])
def test_grown_path_matches_fresh_generator(horizon, monkeypatch):
    # Sized for half its expected arrivals, every path falls short and is
    # drawn again in a wider row, some more than once; the bits are still
    # a freshly built generator's, past the 2**20 block edge too.
    calls = []

    def short(count):
        calls.append(count)
        return int(count / 2) + 1
    monkeypatch.setattr(arrivals, "_expected", short)
    for seed in STREAM_SEEDS:
        calls.clear()
        path = sample_path(seed, horizon)
        assert len(calls) > 1
        assert path.tobytes() == _fresh_path(seed, horizon).tobytes()


def test_interleaved_streams_restart():
    a = sample_path(11, 3000.0)
    b = sample_path(12, 3000.0, rate=2.5)
    assert np.array_equal(sample_path(11, 3000.0), a)
    assert np.array_equal(sample_path(12, 3000.0, rate=2.5), b)
    assert not np.array_equal(a[:100], b[:100])


def test_threads_draw_what_serial_calls_draw():
    # Each thread resets its own generator: threads switching every
    # microsecond, more of them than cores, still draw the serial paths.
    n_threads = 4
    seeds = [derive_seed(5, i) for i in range(40)]
    serial = [sample_path(s, 5000.0) for s in seeds]
    start = threading.Barrier(n_threads)
    drawn = [None] * n_threads

    def draw(k):
        start.wait()
        drawn[k] = [sample_path(s, 5000.0) for s in seeds[k::n_threads] * 3]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(k,))
                   for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(n_threads):
        expected = serial[k::n_threads] * 3
        assert len(drawn[k]) == len(expected)
        for got, want in zip(drawn[k], expected):
            assert np.array_equal(got, want)


def test_sample_path_memory_is_its_result():
    # The path is filled in place in one array, not concatenated from
    # blocks, so the peak is the result plus the estimate's slack.
    sample_path(7, 10.0)  # this thread's generator exists before tracing
    tracemalloc.start()
    try:
        path = sample_path(7, 3e6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(path) > 2 * _MAX_BLOCK
    assert peak <= 1.3 * path.nbytes


def test_arrivals_strictly_increasing():
    arr = sample_path(2024, 20_000.0)
    assert len(arr) > 19_000
    assert np.all(np.diff(arr) > 0)
    assert arr[0] > 0


def test_same_seed_same_sequence():
    a = sample_path(99, 5000.0, rate=1.0)
    b = sample_path(99, 5000.0, rate=1.0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a[:100], sample_path(100, 5000.0)[:100])


def test_scalar_block_and_manual_consumption_agree():
    # One running sum over more than 2**20 arrivals is the hand-written
    # loop's, and its start is the reference simulator's scalar stream.
    horizon = 1.1 * 2**20
    block = sample_path(123, horizon)
    assert len(block) > 2**20
    manual = _manual_path(123, len(block) + 1)
    assert np.array_equal(block, manual[:-1])
    assert manual[-1] > horizon
    # The reference simulator's scalar stream, one uniform per arrival.
    stream = PhiloxStream(123)
    scalar = np.array([stream.next_arrival() for _ in range(5000)])
    assert np.array_equal(scalar, block[:5000])


def test_sample_path_matches_stream_and_horizon():
    arr = sample_path(55, 2000.0)
    assert np.all(arr <= 2000.0)
    assert np.all(np.diff(arr) > 0)
    # A longer horizon extends the same stream: the shorter path is its
    # prefix, and the next arrival lies past the shorter horizon.
    longer = sample_path(55, 2500.0)
    assert np.array_equal(longer[:len(arr)], arr)
    assert longer[len(arr)] > 2000.0
    stream = PhiloxStream(55)
    scalar = [stream.next_arrival() for _ in range(len(arr) + 1)]
    assert np.array_equal(arr, scalar[:-1])
    assert scalar[-1] == longer[len(arr)]
    assert len(sample_path(55, 1e-9)) == 0


def test_poisson_window_mean_and_variance():
    arr = sample_path(314159, 1_000_000.0)
    edges = np.arange(1_000_001, dtype=np.float64)
    # Windows (i, i+1]: arrivals at or before each edge, differenced.
    counts = np.diff(np.searchsorted(arr, edges, side="right"))
    assert len(counts) == 1_000_000
    assert counts.mean() == pytest.approx(1.0, abs=0.01)
    assert counts.var() == pytest.approx(1.0, abs=0.02)


def test_interarrival_mean_law_of_large_numbers():
    arr = sample_path(271828, 1_000_000.0)
    inter = np.diff(arr, prepend=0.0)
    assert len(inter) > 900_000
    assert inter.mean() == pytest.approx(1.0, abs=0.01)


def test_interarrival_ks_exponential():
    arr = sample_path(41, 100_000.0)
    inter = np.diff(arr, prepend=0.0)
    assert len(inter) >= 99_000
    res = stats.kstest(inter, "expon")
    assert res.pvalue > 0.01


def test_memorylessness_of_residuals():
    arr = sample_path(43, 400_000.0)
    inter = np.diff(arr, prepend=0.0)
    s = 0.7
    residual = inter[inter > s] - s
    assert len(residual) > 100_000
    res = stats.kstest(residual, "expon")
    assert res.pvalue > 0.01


def test_rate_scales_mean():
    arr = sample_path(11, 50_000.0, rate=4.0)
    inter = np.diff(arr, prepend=0.0)
    assert inter.mean() == pytest.approx(0.25, abs=0.005)
    assert np.array_equal(arr[:1000], _manual_path(11, 1000, rate=4.0))


def test_rate_must_be_positive():
    for rate in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            sample_path(1, 10.0, rate=rate)


def test_derive_seed_formula():
    mask = (1 << 64) - 1
    for base, i in [(0, 0), (123, 1), (2**63, 7), (999, 10**6)]:
        assert derive_seed(base, i) == (base ^ ((i * SEED_STRIDE) & mask))
    assert derive_seed(42, 0) == 42
    seeds = {derive_seed(42, i) for i in range(2000)}
    assert len(seeds) == 2000
    with pytest.raises(ValueError):
        derive_seed(1, -1)


# The chunked draw: rows of one chunk, against sample_path.

FILLS = ["numpy", "c"] if simkernel.BACKEND == "c" else ["numpy"]
PHILOX_KEYS = [0, 1, 1 << 63, (1 << 64) - 1, SEED_STRIDE,
               derive_seed(2024, 17)]


def _numpy_rows(keys, n):
    return np.array([np.random.Generator(np.random.Philox(key=k)).random(n)
                     for k in keys]).reshape(len(keys), n)


def test_recorded_philox_bits_are_numpys():
    # The import check compares the C Philox with a record of numpy's
    # bits; the record is numpy's.
    crc = 0
    for n in simkernel._PHILOX_LENGTHS:
        crc = zlib.crc32(_numpy_rows(simkernel._PHILOX_KEYS, n).tobytes(),
                         crc)
    assert crc == simkernel._PHILOX_CRC


@pytest.mark.skipif(simkernel.BACKEND != "c", reason="C loops not built")
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 8, 9, 563, 4097])
def test_c_philox_is_numpys(n):
    # Every row length, mod 4 and across many blocks, with keys at both
    # ends of 64 bits, at the top bit and derived.
    keys = np.array(PHILOX_KEYS, np.uint64)
    chunk = np.full((len(keys), n), np.nan)
    simkernel._philox(keys, chunk)
    assert chunk.tobytes() == _numpy_rows(PHILOX_KEYS, n).tobytes()


def _halved(count):
    """An estimate that falls short: every row is drawn again."""
    return int(count / 2) + 1


@st.composite
def _chunked_cases(draw):
    """(fill, n_paths, rows per chunk, drawn prefix, as a list, rate,
    horizon, short estimate)."""
    fill = draw(st.sampled_from(FILLS))
    rate = draw(st.sampled_from([1.0, 0.3, 2.5]))
    horizon = draw(st.sampled_from([1e-3, 0.7, 6.0, 40.0, 500.0]))
    per = draw(st.integers(1, 5))
    n_paths = draw(st.integers(1, 13))
    prefix = draw(st.integers(0, n_paths))
    return (fill, n_paths, per, prefix, draw(st.booleans()), rate, horizon,
            draw(st.booleans()))


@given(case=_chunked_cases())
@settings(max_examples=150)
def test_chunked_draw_is_sample_path(case):
    # Path i of the ensemble's draw holds sample_path's bits, for any
    # chunk size, with paths given up front as a tuple or a list, on
    # every fill, and when rows fall short and are drawn again.
    fill, n_paths, per, prefix, as_list, rate, horizon, short = case
    base = SimConfig(BestEffortUniform(1.0), None, horizon, seed=71,
                     rate=rate)
    want = [sample_path(derive_seed(71, i), horizon, rate)
            for i in range(n_paths)]
    drawn = [w.copy() for w in want[:prefix]]
    drawn = drawn if as_list else tuple(drawn)
    given_paths = list(drawn)
    with pytest.MonkeyPatch.context() as mp:
        width = arrivals._expected(horizon * rate)
        mp.setattr(arrivals, "_CHUNK_BYTES", 8 * width * per)
        mp.setattr(simkernel, "BACKEND", "c" if fill == "c" else "python")
        if short:
            mp.setattr(arrivals, "_expected", _halved)
        got = list(runner._paths(base, n_paths, drawn))
    assert len(got) == n_paths
    assert all(a is b for a, b in zip(got, given_paths))
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == np.float64 and g.flags.c_contiguous, i
        assert g.tobytes() == w.tobytes(), i
    if as_list:  # the paths drawn here are kept, as copies of their rows
        assert len(drawn) == n_paths
        for i, (d, w) in enumerate(zip(drawn, want)):
            assert d.tobytes() == w.tobytes(), i
            assert d.base is None and d.nbytes == w.nbytes, i


def _counted(fill, calls):
    """fill ("numpy" or "c"), recording the keys of each call."""
    inner = arrivals._numpy_fill if fill == "numpy" else simkernel._philox

    def counted(keys, chunk):
        calls.append(keys.tolist())
        inner(keys, chunk)
    return counted


@pytest.mark.parametrize("fill", FILLS)
def test_short_rows_are_drawn_again(fill):
    # A row whose last instant is still within T is drawn again, by the
    # same fill, and only such a row: at T=500, 3 of 300 rows fall short
    # of the usual estimate.
    seeds = [derive_seed(3, i) for i in range(300)]
    want = [sample_path(s, 500.0) for s in seeds]
    short = [s for s, w in zip(seeds, want)
             if w.base.size > arrivals._expected(500.0)]
    calls = []
    got = arrivals.sample_rows(seeds, 500.0, 1.0, _counted(fill, calls))
    assert len(short) == 3 and calls == [seeds, short]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("rate", [1.0, 2.5])
def test_rows_key_their_seeds_mod_2_64(fill, rate):
    # Every fill keys a row by its seed mod 2**64, as sample_path does.
    seeds = [-1, 1 << 64, 1 << 70, 5]
    keys = [(1 << 64) - 1, 0, 0, 5]
    calls = []
    got = arrivals.sample_rows(seeds, 300.0, rate, _counted(fill, calls))
    assert calls[0] == keys
    for g, seed, key in zip(got, seeds, keys):
        want = sample_path(seed, 300.0, rate).tobytes()
        assert g.tobytes() == want == _fresh_path(key, 300.0, rate).tobytes()


@pytest.mark.parametrize("fill", FILLS)
def test_bad_horizons(fill):
    # A horizon of 0 or less gives empty rows; a non-finite one is
    # refused with a message that names it.
    calls = []
    for horizon in (0.0, -1.0, -1.5, -1e300):
        got = arrivals.sample_rows([1, 2], horizon, 2.5, _counted(fill, calls))
        assert [(g.dtype, g.size) for g in got] == [(np.float64, 0)] * 2
        assert sample_path(1, horizon).size == 0
    for horizon in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="horizon must be finite"):
            arrivals.sample_rows([1], horizon, 1.0, _counted(fill, calls))
        with pytest.raises(ValueError, match="horizon must be finite"):
            sample_path(1, horizon)


def test_chunk_rows_fit_the_chunk():
    # fig2's paths share chunks; a path of T=1e5 is a chunk of its own.
    assert arrivals.chunk_rows(500.0) == 58
    assert arrivals.chunk_rows(500.0, rate=0.5) > 58
    assert arrivals.chunk_rows(1e5) == 1
    assert arrivals.chunk_rows(1e-9) * 8 * 18 <= arrivals._CHUNK_BYTES
