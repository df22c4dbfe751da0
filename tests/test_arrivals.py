import numpy as np
import pytest
from scipy import stats

from aoisim import derive_seed, sample_path
from aoisim.arrivals import SEED_STRIDE
from reference_sim import PhiloxStream


def _manual_path(seed, n, rate=1.0):
    """n arrivals from a hand-written Philox loop: the uniforms in one
    draw, then one addition per arrival, left to right."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    t, out = 0.0, []
    for inc in (-np.log1p(-gen.random(n)) / rate).tolist():
        t = t + inc
        out.append(t)
    return np.array(out)


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
    # sample_path draws uniforms in blocks of at most 2**20 and carries the
    # running sum across blocks; a horizon holding more than 2**20 arrivals
    # crosses a block edge.
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
