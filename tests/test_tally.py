"""The per-path tally: the C pass of _loops.c, reached through the one
call per path, against the numpy definition in aoi_metrics, the
checkpoint series it writes, its memory, and the import-time check that
refuses a C tally numpy disagrees with."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from aoisim import (
    AdaptiveUnitBattery,
    BestEffortUniform,
    EnergyAwareAdaptive,
    SimConfig,
    ThresholdUnitBattery,
    UpdateLog,
    derive_seed,
    run_ensemble,
    run_path,
    sample_path,
)
from aoisim import simkernel
from aoisim.aoi_metrics import running_averages, tally
from aoisim.runner import _run_policies

BACKENDS = ["c", "python"] if simkernel.BACKEND == "c" else ["python"]
c_only = pytest.mark.skipif(simkernel.BACKEND != "c",
                            reason="C loops not built")

# One policy of each family, with a battery it runs at.
FAMILIES = {
    "uniform-inf": (BestEffortUniform(1.0), None),
    "uniform-b1": (BestEffortUniform(0.43), 1),
    "adaptive-b30": (EnergyAwareAdaptive(1.0), 30),
    "adaptive-b1": (AdaptiveUnitBattery(-0.145), 1),
    "threshold": (ThresholdUnitBattery(0.9012), 1),
}


def _order(ts):
    return np.argsort(ts, kind="stable").astype(np.int64)


def assert_c_tally_is_numpy(epochs, ts):
    """The C tally, as the C path call runs it on the log of greedy
    renewals at arrivals on the epochs, and the numpy one on the same log
    agree bit for bit: both sums, the smallest delay and the series. The
    log is as long as the epochs, and equal to them up to the rounding of
    s + (a - s) where a delay exceeds the epoch before it."""
    arrivals = np.asarray(epochs, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    got, want = np.full(len(ts), np.nan), np.full(len(ts), np.nan)
    horizon = float(max([arrivals[-1] + 1.0 if len(arrivals) else 1.0, *ts]))
    plan = simkernel._Plan(ThresholdUnitBattery(0.0), 1, horizon, ts,
                           _order(ts), got)
    walked = simkernel._entry(simkernel._LOOPS, plan, arrivals,
                              arrivals.size + 1, 0)
    log = UpdateLog(epochs=walked[0])
    assert log.n == len(arrivals)
    assert tuple(walked[6:]) == tally(log, ts, want)
    assert got.tobytes() == want.tobytes()


@c_only
@given(delays=st.lists(st.floats(min_value=1e-6, max_value=1e3),
                       max_size=400),
       fractions=st.lists(st.floats(min_value=1e-6, max_value=1.0),
                          max_size=12))
@example(delays=[], fractions=[])
@example(delays=[0.5], fractions=[1.0, 0.25, 1.0])
def test_c_tally_matches_numpy(delays, fractions):
    epochs = np.cumsum(np.asarray(delays, dtype=np.float64))
    horizon = float(epochs[-1]) + 1.0 if len(epochs) else 1.0
    assert_c_tally_is_numpy(epochs, [f * horizon for f in fractions])


@c_only
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 127, 128, 129, 136])
def test_c_tally_pinned_lengths(n):
    # Below 8, one block of 8 to 128, and split above 128; the delays
    # span six orders of magnitude so that any other order of addition
    # rounds differently.
    delays = np.geomspace(1e-3, 1e3, n)[::-1] * (1.0 + np.arange(n) % 7)
    epochs = np.cumsum(delays)
    ts = [float(epochs[-1]) + 0.5] if n else [0.5]
    assert_c_tally_is_numpy(epochs, ts + [0.1, 2.0, 0.1])


@c_only
@pytest.mark.parametrize("horizon", [500.0, 1e5, 1e6])
@pytest.mark.parametrize("family", FAMILIES)
def test_c_tally_on_real_logs(family, horizon):
    policy, capacity = FAMILIES[family]
    _, log = run_path(SimConfig(policy, capacity, horizon, 17))
    ts = np.geomspace(horizon / 100.0, horizon, 40)
    assert_c_tally_is_numpy(log.epochs, ts)


@pytest.mark.parametrize("backend", BACKENDS)
def test_series_at_awkward_checkpoints(backend, monkeypatch):
    # Unsorted, repeated, before the first epoch, exactly on an epoch and
    # at T: the row one path writes, and the ensemble's means, are the
    # definition's to the bit on every backend.
    monkeypatch.setattr(simkernel, "BACKEND", backend)
    cfg = SimConfig(BestEffortUniform(1.0), 3, 50.0, 5)
    epochs = run_path(cfg)[1].epochs
    assert epochs[0] > 0 and len(epochs) > 4
    ts = np.array([50.0, epochs[3], 0.25 * epochs[0], 17.3, epochs[3],
                   epochs[0], 50.0, 2.0])
    rows = np.array([running_averages(run_path(replace(
        cfg, seed=derive_seed(5, i)))[1], ts) for i in range(3)])
    one = run_ensemble(cfg, 1, checkpoints=ts)  # the mean of one row is it
    assert one.checkpoint_means.tobytes() == rows[0].tobytes()
    result = run_ensemble(cfg, 3, checkpoints=ts)
    assert result.checkpoint_means.tobytes() == rows.mean(axis=0).tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_path_sums_are_the_definition(backend, monkeypatch):
    # run_path's sums and reward are those of the numpy expressions.
    monkeypatch.setattr(simkernel, "BACKEND", backend)
    for policy, capacity in FAMILIES.values():
        summary, log = run_path(SimConfig(policy, capacity, 2000.0, 3))
        assert summary.delay_sum == float(np.add.reduce(log.delays))
        assert summary.square_sum == float(np.add.reduce(log.squares))
        assert summary.updates == log.n


def test_run_path_refuses_a_log_that_does_not_increase(monkeypatch):
    # The tally's smallest delay stands in for UpdateLog.validate: a path
    # call that returns two updates at one epoch, with energy conserved,
    # and the definition's tally of them, is refused on every backend.
    def stuck(lib, plan, arrivals, room, i):
        epochs = np.array([1.0, 1.0])
        return (epochs, 0, 0, 0, 2, 2,
                *tally(UpdateLog(epochs=epochs), plan.ts, plan.ts.copy()))
    monkeypatch.setattr(simkernel, "_entry", stuck)
    for backend in BACKENDS:
        monkeypatch.setattr(simkernel, "BACKEND", backend)
        with pytest.raises(ValueError, match="strictly increasing"):
            run_path(SimConfig(BestEffortUniform(1.0), None, 3.0, 1),
                     np.array([0.5, 0.7]))


@c_only
@pytest.mark.parametrize("family", FAMILIES)
def test_path_memory_beyond_arrivals(family):
    # One T=1e6 path with a 40-point series holds its arrivals, its epoch
    # buffer and nothing else that grows with T: no delay, square or
    # cumulative-sum array.
    policy, capacity = FAMILIES[family]
    horizon = 1e6
    cfg = SimConfig(policy, capacity, horizon, 23)
    arrival_bytes = sample_path(derive_seed(23, 0), horizon).nbytes
    ts = np.geomspace(horizon / 100.0, horizon, 40)
    tracemalloc.start()
    try:
        _run_policies([cfg], 1, ts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - arrival_bytes <= 1.5 * arrival_bytes


@c_only
def test_disagreeing_numpy_refuses_the_c_tally():
    # A numpy whose np.add.reduce sums in another order, here one unit in
    # the last place off, fails the import check: the C library is
    # refused, BACKEND is "python" and each path runs the numpy tally.
    code = """
import numpy as np
real = np.add
class Skewed:
    def __getattr__(self, name):
        return getattr(real, name)
    def reduce(self, *args, **kwargs):
        return np.nextafter(real.reduce(*args, **kwargs), np.inf)
np.add = Skewed()
from aoisim import simkernel
np.add = real
from aoisim import BestEffortUniform, SimConfig
calls = []
numpy_tally = simkernel.tally
simkernel.tally = lambda *args: calls.append(1) or numpy_tally(*args)
simkernel.run_path(SimConfig(BestEffortUniform(1.0), None, 100.0, 1))
print(simkernel.BACKEND, simkernel._LOOPS is None, len(calls))
"""
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(simkernel.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["python", "True", "1"]
