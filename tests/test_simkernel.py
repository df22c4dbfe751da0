import dataclasses
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from aoisim import (
    AdaptiveUnitBattery,
    BestEffortUniform,
    ConfigError,
    EnergyAwareAdaptive,
    SimConfig,
    ThresholdUnitBattery,
    UpdateLog,
    accumulate_reward,
    derive_seed,
    run_path,
    sample_path,
)
from aoisim import simkernel
from aoisim.aoi_metrics import running_averages
from aoisim.cli import main as cli_main
from aoisim.simkernel import _unit_gammas, simulate_path
from reference_sim import integrate_trace, reference_on_arrivals, reference_run

# Every backend this machine has: the C loops when they were built, and
# always the Python fallback, forced by patching simkernel.BACKEND.
BACKENDS = ["c", "python"] if simkernel.BACKEND == "c" else ["python"]


def assert_backends_match_reference(arrivals, policy, capacity, horizon):
    """simulate_path on every backend equals the reference simulator."""
    ref = reference_on_arrivals(arrivals, policy, capacity, horizon)
    for backend in BACKENDS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simkernel, "BACKEND", backend)
            epochs, wasted, infeasible, level = simulate_path(
                arrivals, policy, capacity, horizon)
        assert np.array_equal(epochs, ref.epochs), backend
        assert (wasted, infeasible, level) == (
            ref.wasted, ref.infeasible, ref.final_level), backend


ALL_POLICIES = [
    (BestEffortUniform(1.0), None),
    (BestEffortUniform(1.0), 3),
    (BestEffortUniform(0.43), 1),
    (EnergyAwareAdaptive(1.0), 30),
    (EnergyAwareAdaptive(2.0), 100),
    (ThresholdUnitBattery(0.901), 1),
    (ThresholdUnitBattery(2.5), 1),
    (AdaptiveUnitBattery(-0.145), 1),
    (AdaptiveUnitBattery(0.3), 1),
    (ThresholdUnitBattery(0.0), 1),  # greedy
]


def test_threshold_hand_path():
    # two arrivals at 0.4 and 2.3, threshold 0.901, horizon 2.3
    arrivals = np.array([0.4, 2.3])
    epochs, wasted, infeasible, level = simulate_path(
        arrivals, ThresholdUnitBattery(0.901), 1, 2.3)
    assert np.allclose(epochs, [0.901, 2.3], rtol=0, atol=1e-12)
    assert (wasted, infeasible, level) == (0, 0, 0)
    log = UpdateLog(epochs=epochs)
    tally = accumulate_reward(log, 2.3)
    assert tally.reward == pytest.approx(1.384501, abs=1e-6)
    assert tally.time_average == pytest.approx(0.601957, abs=1e-6)


def test_uniform_hand_path_all_feasible():
    arrivals = np.array([0.5, 1.5, 2.5])
    epochs, wasted, infeasible, level = simulate_path(
        arrivals, BestEffortUniform(1.0), None, 3.0)
    assert np.array_equal(epochs, [1.0, 2.0, 3.0])
    assert (wasted, infeasible, level) == (0, 0, 0)
    assert accumulate_reward(UpdateLog(epochs=epochs), 3.0).time_average == 0.5


def test_uniform_no_arrivals():
    epochs, wasted, infeasible, level = simulate_path(
        np.empty(0), BestEffortUniform(1.0), None, 3.0)
    assert len(epochs) == 0
    assert infeasible == 3
    assert accumulate_reward(UpdateLog(), 3.0).time_average == 1.5


def test_left_limit_arrival_at_epoch_not_usable():
    # An arrival exactly at a scheduled epoch is available only afterwards.
    epochs, wasted, infeasible, level = simulate_path(
        np.array([1.0]), BestEffortUniform(1.0), None, 2.0)
    assert np.array_equal(epochs, [2.0])
    assert infeasible == 1


def test_unit_battery_tie_arrival_at_update_instant_is_wasted():
    # Renewal fires at exactly t=1.0 (age reaches tau0); the arrival landing
    # on that instant hits a battery that is still full at the left limit.
    epochs, wasted, infeasible, level = simulate_path(
        np.array([0.5, 1.0, 3.0]), ThresholdUnitBattery(1.0), 1, 3.0)
    assert np.allclose(epochs, [1.0, 3.0], rtol=0, atol=1e-12)
    assert wasted == 1
    assert level == 0


def test_greedy_equals_threshold_zero(tmp_path):
    # The CLI's greedy policy is the threshold rule at tau0 = 0: same
    # series, same update log (gamma column included), byte for byte.
    outputs = []
    for name, flags in [("greedy", ["--policy", "greedy"]),
                        ("thr0", ["--policy", "threshold", "--tau0", "0"])]:
        out, log = tmp_path / f"{name}.csv", tmp_path / f"{name}-log.csv"
        assert cli_main(["simulate", *flags, "--battery", "1",
                         "--horizon", "2000", "--paths", "3", "--seed", "404",
                         "--out", str(out), "--update-log", str(log)]) == 0
        outputs.append((out.read_bytes(), log.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].startswith(b"index,epoch,delay,gamma\n")


def test_run_path_deterministic():
    cfg = SimConfig(ThresholdUnitBattery(0.901), 1, 5000.0, seed=321)
    s1, log1 = run_path(cfg)
    s2, log2 = run_path(cfg)
    assert s1 == s2
    assert np.array_equal(log1.epochs, log2.epochs)


@pytest.mark.parametrize("policy,capacity,horizon", [
    *(pytest.param(p, c, 300.0, id=f"policy{i}-{c}")
      for i, (p, c) in enumerate(ALL_POLICIES)),
    # 10 000 grid epochs, most of them infeasible at B=1
    pytest.param(BestEffortUniform(0.1), 1, 1000.0, id="grid-blocks-1"),
    pytest.param(BestEffortUniform(0.1), None, 1000.0, id="grid-blocks-None"),
    pytest.param(BestEffortUniform(1.0), None, 300.7, id="T300.7-None"),
    pytest.param(BestEffortUniform(0.43), 1, 300.7, id="T300.7-1"),
])
@pytest.mark.parametrize("seed", [0, 7, 1234, 2**63 + 11])
def test_kernel_matches_reference(policy, capacity, horizon, seed):
    ref = reference_run(seed, policy, capacity, horizon)
    summary, log = run_path(SimConfig(policy, capacity, horizon, seed))
    assert np.array_equal(log.epochs, ref.epochs)
    assert summary.wasted_units == ref.wasted
    assert summary.infeasible_epochs == ref.infeasible
    assert summary.final_level == ref.final_level
    assert summary.arrivals_seen == ref.n_arrivals


@st.composite
def _grid_arrivals(draw):
    """(period, horizon, arrivals) for the uniform grid: the grid may run
    to thousands of epochs or hold none at all, the horizon may sit on,
    just below or between grid epochs, and arrivals may be absent, tie
    exactly with grid epochs n * period, or come in dense runs that fill
    an unbounded battery."""
    period = draw(st.sampled_from([0.1, 0.25, 0.43, 1.0, 3.0]))
    n_last = draw(st.sampled_from([0, 1, 4095, 4096, 4097, 8192])
                  | st.integers(0, 300))
    horizon = draw(st.sampled_from([
        n_last * period,
        float(np.nextafter(n_last * period, 0.0)),
        (n_last + 0.5) * period]))
    if horizon <= 0:
        horizon = 0.5 * period  # a period longer than the horizon
    ties = draw(st.lists(st.integers(1, n_last + 1), max_size=30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rate = draw(st.sampled_from([0.0, 0.3, 1.0, 2.5])) / period
    inside = rng.uniform(0.0, horizon, rng.poisson(rate * horizon))
    arrivals = np.sort(np.concatenate([np.array(ties) * period, inside]))
    return period, horizon, arrivals[arrivals <= horizon]


@pytest.mark.parametrize("capacity", [None, 1, 2, 5, 30])
@given(case=_grid_arrivals())
# T / period misjudges the last grid epoch both ways: 11 * 0.43 / 0.43
# rounds below 11, and T just under 9 * 0.43 gives T / 0.43 = 9.0. Only
# the arrivals at or before T land (4.73 lies past 11 * 0.43).
@example(case=(0.43, 11 * 0.43, np.array([0.43, 4.0, 4.73])))
@example(case=(0.43, float(np.nextafter(9 * 0.43, 0.0)), np.array([3.0])))
def test_uniform_matches_reference(capacity, case):
    period, horizon, arrivals = case
    assert_backends_match_reference(arrivals, BestEffortUniform(period),
                                    capacity, horizon)


@st.composite
def _idle_grid_arrivals(draw):
    """(period, horizon, arrivals) with long idle runs for the uniform
    grid's jump: a few arrivals on grid epochs n * period, one ulp below
    or above one, at T, past T, and at or below 0, on a grid of up to
    20000 epochs whose horizon may sit on a grid epoch or off it."""
    period = draw(st.sampled_from([0.1, 0.148, 0.43, 1.0, 3.7]))
    n_last = draw(st.integers(1, 20000))
    horizon = draw(st.sampled_from([
        n_last * period,
        float(np.nextafter(n_last * period, 0.0)),
        float(np.nextafter(n_last * period, np.inf)),
        (n_last + 0.37) * period]))
    arrivals = []
    for n in draw(st.lists(st.integers(1, n_last + 2), max_size=12)):
        on = n * period
        arrivals.append(draw(st.sampled_from([
            on, float(np.nextafter(on, 0.0)), float(np.nextafter(on, np.inf)),
        ])))
    arrivals += draw(st.lists(st.sampled_from([
        horizon, float(np.nextafter(horizon, np.inf)), 2.0 * horizon,
        0.0, -0.0, -1.0, float(np.nextafter(0.0, 1.0))]), max_size=4))
    return period, horizon, np.sort(np.array(arrivals, dtype=np.float64))


@pytest.mark.parametrize("capacity", [None, 1, 2, 30])
@given(case=_idle_grid_arrivals())
# One arrival one ulp past an epoch, one on the next, one an ulp before
# the one after: each run ends one epoch later than its arrival's floor.
@example(case=(0.1, 300 * 0.1, np.array([float(np.nextafter(50 * 0.1, 1.0)),
                                         51 * 0.1,
                                         float(np.nextafter(90 * 0.1, 0.0))])))
@example(case=(0.43, 11 * 0.43, np.array([-1.0, 0.0, 11 * 0.43, 9.0])))
def test_uniform_jump_matches_reference(capacity, case):
    # The jump over idle epochs lands where stepping epoch by epoch does,
    # on every backend, in epochs, waste, infeasible count and level.
    period, horizon, arrivals = case
    assert_backends_match_reference(arrivals, BestEffortUniform(period),
                                    capacity, horizon)


@pytest.mark.parametrize("capacity", [None, 1, 30])
@pytest.mark.parametrize("late", [
    7.0, 65432.15, float(np.nextafter(654321 * 0.1, 0.0)), 654321 * 0.1,
    float(np.nextafter(654321 * 0.1, np.inf)), 99999.95,
], ids=["early", "between", "ulp-below", "on-epoch", "ulp-above", "last"])
def test_uniform_jump_one_late_arrival(capacity, late):
    # One arrival in a grid of 1e6 epochs: one update, at the first grid
    # epoch past the arrival, and every other epoch infeasible, as the
    # grid n * period (numpy's int64 * float64, the same product) says.
    period, horizon = 0.1, 1.0e5
    grid = np.arange(1, 1_000_002) * period
    grid = grid[grid <= horizon]
    assert len(grid) == 1_000_000
    expected = grid[grid > late][:1]
    for backend in BACKENDS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simkernel, "BACKEND", backend)
            epochs, wasted, infeasible, level = simulate_path(
                np.array([late]), BestEffortUniform(period), capacity,
                horizon)
        assert np.array_equal(epochs, expected), backend
        assert (wasted, infeasible, level) == (0, len(grid) - 1, 0), backend


@pytest.mark.parametrize("period,horizon", [(0.1, 1.0e5), (0.43, 11 * 0.43),
                                            (3.7, 3.6)])
def test_uniform_jump_no_arrivals(period, horizon):
    # An empty path is one idle run: every grid epoch up to T infeasible.
    n_grid = int(np.count_nonzero(
        np.arange(1, int(horizon / period) + 3) * period <= horizon))
    for backend in BACKENDS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simkernel, "BACKEND", backend)
            for capacity in (None, 1, 2, 30):
                epochs, wasted, infeasible, level = simulate_path(
                    np.empty(0), BestEffortUniform(period), capacity, horizon)
                assert len(epochs) == 0
                assert (wasted, infeasible, level) == (0, n_grid, 0), backend


def _entry_libs():
    """_entry's first argument for every backend: the C library, or None
    for the Python loops."""
    return [simkernel._LOOPS if b == "c" else None for b in BACKENDS]


def test_uniform_jump_then_short_epoch_buffer():
    # A jump over a long idle run does not skip the room check: the
    # updates after it still stop at the room given, and _entry raises.
    arrivals = 5000.0 + np.arange(10) * 0.5
    plan = simkernel._Plan(BestEffortUniform(0.1), None, 6000.0)
    if simkernel.BACKEND == "c":
        out = np.full(8, -7.0)
        assert simkernel._LOOPS.path(
            plan.address, arrivals.ctypes.data, arrivals.size,
            out.ctypes.data, 3, None) == -1
        assert np.all(out[:3] > 5000.0) and np.all(out[3:] == -7.0)
    for lib in _entry_libs():
        with pytest.raises(RuntimeError, match="more than 3 epochs"):
            simkernel._entry(lib, plan, arrivals, 3, 0)


@st.composite
def _loop_arrivals(draw):
    """(horizon, arrivals) for the per-epoch loops: arrivals in (0, T], none
    at all, sparse or dense, with quarter-unit instants mixed in so that
    renewals with a dyadic tau0 or unit delays often meet an arrival
    exactly at an epoch s + x."""
    horizon = draw(st.sampled_from([3.0, 40.0, 300.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rate = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    inside = rng.uniform(0.0, horizon, rng.poisson(rate * horizon))
    quarters = 0.25 * rng.integers(1, 4 * int(horizon) + 1,
                                   rng.poisson(rate * horizon / 2))
    arrivals = np.unique(np.concatenate([inside, quarters]))
    return horizon, arrivals[arrivals > 0.0]


@pytest.mark.parametrize("policy,capacity", [
    (AdaptiveUnitBattery(-0.5), 1),
    (AdaptiveUnitBattery(0.0), 1),
    (AdaptiveUnitBattery(0.3), 1),
    (EnergyAwareAdaptive(1.0), 3),
    (EnergyAwareAdaptive(1.0), 5),
    (EnergyAwareAdaptive(1.0), 2),
    (EnergyAwareAdaptive(2.0), 4),
], ids=["b1-beta-0.5", "b1-beta0", "b1-beta0.3", "B3", "B5", "B2", "B4"])
@given(case=_loop_arrivals())
@example(case=(40.0, np.empty(0)))
def test_adaptive_loop_matches_reference(policy, capacity, case):
    horizon, arrivals = case
    assert_backends_match_reference(arrivals, policy, capacity, horizon)


@pytest.mark.parametrize("tau0", [0.0, 0.5, 0.901, 1.0, 2.5])
@given(case=_loop_arrivals())
@example(case=(40.0, np.empty(0)))
# The first renewal fires at tau0 = 1.0 and meets the arrival there; the
# next trigger, 1.25, fires at 2.25 and meets another.
@example(case=(3.0, np.array([0.25, 1.0, 1.25, 2.25, 2.5])))
def test_unit_renewal_loop_matches_reference(tau0, case):
    horizon, arrivals = case
    assert_backends_match_reference(arrivals, ThresholdUnitBattery(tau0), 1,
                                    horizon)


@pytest.mark.parametrize("policy,capacity", ALL_POLICIES)
def test_arrivals_after_horizon_never_land(policy, capacity):
    # Arrivals past T are not energy: the run over them equals the run
    # over the arrivals up to T, and the reference's, in every count.
    arrivals = np.array([0.5, 2.0, 2.7, 3.1, 4.0])
    ref = reference_on_arrivals(arrivals, policy, capacity, 1.0)
    epochs, wasted, infeasible, level = simulate_path(
        arrivals, policy, capacity, 1.0)
    assert np.array_equal(epochs, ref.epochs)
    assert (wasted, infeasible, level) == (ref.wasted, ref.infeasible,
                                           ref.final_level)
    assert simulate_path(arrivals[:1], policy, capacity, 1.0)[1:] == (
        wasted, infeasible, level)


def test_broken_kernel_is_a_bug_not_a_usage_error(tmp_path):
    # A kernel that miscounts waste breaks energy conservation, which
    # simulate_path and run_path check once for every policy: a
    # RuntimeError, never a ConfigError that the CLI would turn into exit
    # 2. Every path, on every backend, is one call of _entry.
    entry = simkernel._entry

    def leaky(*args):
        epochs, wasted, *rest = entry(*args)
        return (epochs, wasted + 1, *rest)
    for backend in BACKENDS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simkernel, "BACKEND", backend)
            mp.setattr(simkernel, "_entry", leaky)
            with pytest.raises(RuntimeError, match="energy not conserved"):
                simulate_path(np.array([0.5, 2.0]), ThresholdUnitBattery(0.0),
                              1, 3.0)
            with pytest.raises(RuntimeError, match="energy not conserved"):
                cli_main(["simulate", "--policy", "greedy", "--battery", "1",
                          "--horizon", "50", "--out",
                          str(tmp_path / f"{backend}.csv")])


@pytest.mark.parametrize("policy,capacity", [
    (BestEffortUniform(1.0), 3),
    (EnergyAwareAdaptive(1.0), 3),
    (ThresholdUnitBattery(0.0), 1),
], ids=["uniform", "adaptive", "renewal"])
def test_short_epoch_buffer_is_a_bug_not_a_crash(policy, capacity):
    # Each C loop stops at the room it is given, says so, and writes
    # nothing past it; on every backend _entry turns a loop that runs out
    # of room into a RuntimeError.
    arrivals = np.arange(1, 50) - 0.5
    ts = np.array([50.0, 1.0])
    rows = np.full(2, -7.0)
    plan = simkernel._Plan(policy, capacity, 50.0, ts,
                           np.array([1, 0], np.int64), rows)
    if simkernel.BACKEND == "c":
        out = np.full(8, -7.0)
        assert simkernel._LOOPS.path(
            plan.address, arrivals.ctypes.data, arrivals.size,
            out.ctypes.data, 3, rows.ctypes.data) == -1
        assert np.all(out[:3] > 0) and np.all(out[3:] == -7.0)
        assert np.all(rows == -7.0)  # nor tallied
    for lib in _entry_libs():
        with pytest.raises(RuntimeError, match="more than 3 epochs"):
            simkernel._entry(lib, plan, arrivals, 3, 0)


# Each regime at every battery among inf, 1, 2 and 30 that it runs at.
ENTRY_POLICIES = [
    *((BestEffortUniform(p), c) for p in (0.43, 1.0) for c in (None, 1, 2, 30)),
    (EnergyAwareAdaptive(1.0), 2),
    (EnergyAwareAdaptive(1.0), 30),
    (EnergyAwareAdaptive(2.0), 30),
    (AdaptiveUnitBattery(-0.145), 1),
    (AdaptiveUnitBattery(0.3), 1),
    (ThresholdUnitBattery(0.0), 1),
    (ThresholdUnitBattery(0.901), 1),
]


@st.composite
def _entry_cases(draw):
    """(policy, capacity, horizon, arrivals, checkpoints) for one path call:
    the loops' arrivals with some past T, and checkpoints in (0, T],
    unsorted, some repeated, one of them T itself at times."""
    policy, capacity = draw(st.sampled_from(ENTRY_POLICIES))
    horizon, arrivals = draw(_loop_arrivals())
    late = draw(st.lists(st.floats(horizon, 2.0 * horizon, exclude_min=True),
                         max_size=3))
    arrivals = np.sort(np.concatenate([arrivals, late]))
    ts = [f * horizon for f in draw(st.lists(
        st.floats(1e-3, 1.0), max_size=8))]
    ts += draw(st.lists(st.sampled_from(ts), max_size=3)) if ts else []
    return policy, capacity, horizon, arrivals, np.array(ts, np.float64)


@given(case=_entry_cases())
@example(case=(BestEffortUniform(1.0), 2, 3.0, np.array([0.5, 0.6, 0.7, 4.0]),
               np.array([3.0, 0.5, 3.0])))
@example(case=(ThresholdUnitBattery(0.901), 1, 3.0,
               np.array([0.12292057, np.nextafter(3.0, 4.0)]), np.array([])))
def test_entry_matches_reference(case):
    # One path call on every backend: its epochs, counts, sums and series
    # are the reference simulator's run and the definition's tally of it,
    # bit for bit, and it writes only its own row of the series.
    policy, capacity, horizon, arrivals, ts = case
    ref = reference_on_arrivals(arrivals, policy, capacity, horizon)
    log = UpdateLog(epochs=np.asarray(ref.epochs, dtype=np.float64))
    want = (log.epochs.tobytes(), ref.wasted, ref.infeasible,
            ref.final_level,
            int(arrivals.searchsorted(horizon, side="right")),
            float(np.add.reduce(log.delays)), float(np.add.reduce(log.squares)),
            float(log.delays.min()) if log.n else math.inf)
    series = running_averages(log, ts).tobytes()
    seen = set()
    for lib in _entry_libs():
        rows = np.full((3, len(ts)), np.nan)
        plan = simkernel._Plan(policy, capacity, horizon, ts,
                               np.argsort(ts, kind="stable").astype(np.int64),
                               rows)
        epochs, wasted, infeasible, level, n_seen, landed, *sums = (
            simkernel._entry(lib, plan, arrivals, arrivals.size + 1, 1))
        assert (epochs.tobytes(), wasted, infeasible, level, landed,
                *sums) == want, lib
        assert rows[1].tobytes() == series, lib
        assert np.isnan(rows[[0, 2]]).all(), lib
        seen.add(n_seen)
    assert len(seen) == 1


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 0.0, -1.0,
                                     2e7])
def test_bad_horizon_is_a_usage_error(horizon, monkeypatch):
    # simulate_path bounds its horizon as SimConfig.validate does, before
    # any loop runs: no loop stops at a NaN horizon, which every
    # comparison fails.
    monkeypatch.setattr(simkernel, "_entry", None)
    for policy, capacity in ALL_POLICIES:
        with pytest.raises(ConfigError, match="horizon must lie in"):
            simulate_path(np.array([0.5, 1.5, 2.5]), policy, capacity,
                          horizon)


def test_too_dense_grid_is_a_usage_error(monkeypatch):
    # 1e13 grid epochs up to T=1e7: refused before the loop would walk them.
    monkeypatch.setattr(simkernel, "_entry", None)
    for capacity in (None, 1, 3):
        with pytest.raises(ConfigError, match="too dense"):
            simulate_path(np.array([0.5]), BestEffortUniform(1e-6), capacity,
                          1e7)


@pytest.mark.parametrize("capacity", [2**63, 2**64 + 5])
def test_capacity_past_int64_is_a_usage_error(capacity, tmp_path, capsys):
    # The C plan holds the capacity as an int64, so a larger one would
    # wrap: it is refused on every backend before any loop runs, and the
    # CLI exits 2.
    for backend in BACKENDS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simkernel, "BACKEND", backend)
            mp.setattr(simkernel, "_entry", None)
            for policy in (BestEffortUniform(1.0), EnergyAwareAdaptive(1.0)):
                with pytest.raises(ConfigError, match=r"below 2\*\*63"):
                    run_path(SimConfig(policy, capacity, 200.0, seed=3))
                with pytest.raises(ConfigError, match=r"below 2\*\*63"):
                    simulate_path(np.array([0.5]), policy, capacity, 200.0)
    out = tmp_path / "x.csv"
    assert cli_main(["simulate", "--policy", "adaptive", "--battery",
                     str(capacity), "--horizon", "200", "--seed", "3",
                     "--out", str(out)]) == 2
    assert "below 2**63" in capsys.readouterr().err
    assert not out.exists()
    # The largest capacity allowed runs alike on every backend.
    for policy in (BestEffortUniform(1.0), EnergyAwareAdaptive(1.0)):
        cfg = SimConfig(policy, 2**63 - 1, 200.0, seed=3)
        runs = set()
        for backend in BACKENDS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(simkernel, "BACKEND", backend)
                summary, log = run_path(cfg)
                runs.add((log.epochs.tobytes(), summary.wasted_units,
                          summary.final_level))
        assert len(runs) == 1


@pytest.mark.parametrize("capacity", [2.5, 2.0, np.float64(3.0)])
def test_non_integer_capacity_is_a_usage_error(capacity):
    # The plan would truncate it, while the adaptive policy's beta came
    # from the float: it is refused on every backend before any loop runs.
    for backend in BACKENDS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simkernel, "BACKEND", backend)
            mp.setattr(simkernel, "_entry", None)
            for policy in (BestEffortUniform(1.0), EnergyAwareAdaptive(1.0)):
                with pytest.raises(ConfigError, match="positive integer"):
                    run_path(SimConfig(policy, capacity, 100.0, seed=1))
                with pytest.raises(ConfigError, match="positive integer"):
                    simulate_path(np.array([0.5]), policy, capacity, 100.0)
    # Python and numpy integers run alike on every backend.
    for policy in (BestEffortUniform(1.0), EnergyAwareAdaptive(1.0)):
        runs = set()
        for backend in BACKENDS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(simkernel, "BACKEND", backend)
                for cap in (3, np.int64(3), np.int32(3), np.uint8(3)):
                    summary, log = run_path(SimConfig(policy, cap, 100.0, 1))
                    runs.add((log.epochs.tobytes(), summary.wasted_units,
                              summary.final_level))
        assert len(runs) == 1


@pytest.mark.parametrize("arrivals,policy,capacity", [
    ([0.5, 5.0, 1.5], BestEffortUniform(1.0), None),
    ([2.0, 0.5, 1.5], ThresholdUnitBattery(0.5), 1),
    ([0.5, np.nan, 1.5], EnergyAwareAdaptive(1.0), 3),
    ([0.5, 1.5, np.inf], BestEffortUniform(1.0), 3),
    ([[0.5, 1.5]], AdaptiveUnitBattery(0.0), 1),
], ids=["unsorted-uniform", "unsorted-threshold", "nan", "inf", "2-d"])
def test_bad_arrivals_are_usage_errors(arrivals, policy, capacity):
    # The kernels walk the arrivals in order and trust what they read.
    with pytest.raises(ConfigError, match="non-decreasing"):
        simulate_path(np.array(arrivals), policy, capacity, 3.0)
    # Ties are fine.
    simulate_path(np.array([0.5, 0.5, 1.5]), policy, capacity, 3.0)


@pytest.mark.parametrize("arrivals", [
    [5.0, 0.5, 2.5],
    [0.5, np.nan, 2.5],
    [[0.5, 1.5]],
], ids=["unsorted", "nan", "2-d"])
@pytest.mark.parametrize("policy,capacity", ALL_POLICIES)
def test_run_path_refuses_bad_arrivals(arrivals, policy, capacity):
    # run_path checks given arrivals before any loop runs over them.
    cfg = SimConfig(policy, capacity, 10.0, seed=1)
    with pytest.raises(ConfigError, match="non-decreasing"):
        run_path(cfg, np.array(arrivals))
    # Ties are fine.
    run_path(cfg, np.array([0.5, 0.5, 2.5]))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("policy,capacity", ALL_POLICIES)
def test_arrivals_seen_are_those_that_land(backend, policy, capacity,
                                           monkeypatch):
    # Arrivals past T never happen, so they are not seen: the count is
    # the arrivals up to T, and it balances the level, the updates and
    # the waste.
    monkeypatch.setattr(simkernel, "BACKEND", backend)
    arrivals = np.array([0.5, 1.5, 2.5, 9.5, 10.0, 11.0, 12.0])
    summary, _ = run_path(SimConfig(policy, capacity, 10.0, seed=1),
                          arrivals)
    assert summary.arrivals_seen == 5
    assert (summary.arrivals_seen
            == summary.final_level + summary.updates + summary.wasted_units)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
@pytest.mark.parametrize("old,new", [
    ("M1 0xCA5A826395121157u", "M1 0xCA5A826395121155u"),
    ("W1 0xBB67AE8584CAA73Bu", "W1 0xBB67AE8584CAA73Au"),
    ("ctr[4] = {0, 0, 0, 0}", "ctr[4] = {1, 0, 0, 0}"),
    ("x[k] >> 11", "x[k] >> 12"),
], ids=["multiplier", "key-increment", "counter", "uniform"])
def test_loader_refuses_a_philox_that_is_not_numpys(tmp_path, old, new):
    # A library whose Philox gives other uniforms than numpy's is refused
    # at load, and the fallback runs.
    source = open(simkernel._SOURCE).read()
    assert source.count(old) == 1
    broken = tmp_path / "_loops.c"
    broken.write_text(source.replace(old, new))
    assert simkernel._load_loops(str(broken), str(tmp_path)) is None
    assert simkernel._load_loops(simkernel._SOURCE,
                                 str(tmp_path)) is not None


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_loader_builds_once_and_falls_back(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    assert simkernel._load_loops(simkernel._SOURCE, str(cache)) is not None
    built = list(cache.iterdir())
    assert len(built) == 1 and built[0].name.startswith("_loops-")
    # A cache hit compiles nothing.
    monkeypatch.setattr(subprocess, "run", None)
    assert simkernel._load_loops(simkernel._SOURCE, str(cache)) is not None
    monkeypatch.undo()
    # A failed build returns None and leaves no library, whole or partial.
    broken = tmp_path / "_loops.c"
    broken.write_text("int uniform_path(void) { return }\n")
    assert simkernel._load_loops(str(broken), str(cache)) is None
    assert list(cache.iterdir()) == built
    # So do an unwritable cache and a PATH without a compiler.
    assert simkernel._load_loops(simkernel._SOURCE,
                                 str(built[0] / "sub")) is None
    monkeypatch.setenv("PATH", str(tmp_path))
    assert simkernel._load_loops(simkernel._SOURCE, str(cache)) is None


@pytest.mark.skipif(simkernel.BACKEND != "c", reason="C loops not built")
def test_cached_backend_loads_without_subprocess_or_hashlib():
    # Once built, importing the kernel spawns nothing and loads neither
    # subprocess nor hashlib (which pulls in OpenSSL).
    code = ("import sys; from aoisim import simkernel; "
            "print(simkernel.BACKEND, 'subprocess' in sys.modules, "
            "'hashlib' in sys.modules)")
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(simkernel.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == [simkernel.BACKEND, "False", "False"]


@pytest.mark.parametrize("flags,capacity,policy", [
    (["--policy", "threshold", "--tau0", "0.901", "--battery", "1"], 1,
     ThresholdUnitBattery(0.901)),
    (["--policy", "adaptive-b1", "--beta", "-0.145", "--battery", "1"], 1,
     AdaptiveUnitBattery(-0.145)),
    (["--policy", "uniform", "--period", "1", "--battery", "3"], 3,
     BestEffortUniform(1.0)),
    (["--policy", "adaptive", "--k", "1", "--battery", "3"], 3,
     EnergyAwareAdaptive(1.0)),
], ids=["threshold-B1", "adaptive-B1", "uniform-B3", "adaptive-B3"])
def test_update_log_is_path_zero(tmp_path, flags, capacity, policy):
    # The update log holds the epochs of path 0 of the ensemble, bit for
    # bit, and its gamma column (B=1) comes from the same arrivals.
    logfile = tmp_path / "log.csv"
    assert cli_main(["simulate", *flags, "--horizon", "2000", "--paths", "2",
                     "--seed", "909", "--out", str(tmp_path / "r.csv"),
                     "--update-log", str(logfile)]) == 0
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in logfile.read_text().splitlines()[1:]])
    seed = derive_seed(909, 0)
    ref = reference_run(seed, policy, capacity, 2000.0)
    assert np.array_equal(rows[:, 1], ref.epochs)
    if capacity == 1:
        gammas = _unit_gammas(sample_path(seed, 2000.0), ref.epochs)
        assert np.array_equal(rows[:, 3], gammas)


@pytest.mark.parametrize("policy,capacity", ALL_POLICIES)
def test_read_only_arrivals_match_reference(policy, capacity):
    # A read-only array cannot export its buffer to ctypes; the C loops
    # then read its address the slower way, with the same result.
    arrivals = sample_path(13, 400.0)
    arrivals.flags.writeable = False
    assert_backends_match_reference(arrivals, policy, capacity, 400.0)


@pytest.mark.parametrize("policy,capacity", ALL_POLICIES)
def test_numpy_scalar_parameters_give_same_array(policy, capacity):
    # The plain-Python loops write through a memoryview; what leaves the
    # kernel is still the array behind it. numpy scalar parameters are
    # coerced to Python ones without changing the result.
    as_numpy = type(policy)(**{
        f.name: np.float64(getattr(policy, f.name))
        for f in dataclasses.fields(policy)})
    arrivals = sample_path(11, 300.0)
    plain = simulate_path(arrivals, policy, capacity, 300.0)
    numpy = simulate_path(arrivals, as_numpy,
                          None if capacity is None else np.int64(capacity),
                          np.float64(300.0))
    for epochs in (plain[0], numpy[0]):
        assert type(epochs) is np.ndarray
        assert epochs.dtype == np.float64
        assert epochs.flags.c_contiguous
    assert np.array_equal(numpy[0], plain[0])
    assert numpy[1:] == plain[1:]


@pytest.mark.parametrize("policy,capacity", ALL_POLICIES)
def test_energy_conservation_exact(policy, capacity):
    summary, _ = run_path(SimConfig(policy, capacity, 20_000.0, seed=5150))
    assert (summary.arrivals_seen
            == summary.final_level + summary.updates + summary.wasted_units)


@pytest.mark.parametrize("policy,capacity", ALL_POLICIES)
def test_reward_matches_trace_oracle(policy, capacity):
    cfg = SimConfig(policy, capacity, 5000.0, seed=60)
    summary, log = run_path(cfg)
    traced = integrate_trace(log, cfg.horizon, step=3.7)
    assert traced == pytest.approx(summary.reward, rel=1e-9)


@pytest.mark.parametrize("policy", [ThresholdUnitBattery(0.901),
                                    AdaptiveUnitBattery(-0.145),
                                    BestEffortUniform(0.43),
                                    ThresholdUnitBattery(0.0)])
def test_unit_battery_energy_causality(policy):
    # Every unit-battery update waits for energy: X_n >= Gamma_n exactly,
    # where Gamma_n runs from S_{n-1} to the first arrival strictly after.
    cfg = SimConfig(policy, 1, 20_000.0, seed=77)
    _, log = run_path(cfg)
    arr = sample_path(cfg.seed, cfg.horizon)
    prev = np.concatenate(([0.0], log.epochs[:-1]))
    idx = np.searchsorted(arr, prev, side="right")
    gammas = arr[idx] - prev
    assert np.all(log.delays >= gammas - 1e-12)
    # The update-log CLI's gamma column comes from _unit_gammas.
    assert np.array_equal(_unit_gammas(arr, log.epochs), gammas)


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(ThresholdUnitBattery(0.9), 2, 10.0, 1).validate()
    with pytest.raises(ConfigError):
        SimConfig(ThresholdUnitBattery(0.9), None, 10.0, 1).validate()
    with pytest.raises(ConfigError):
        SimConfig(EnergyAwareAdaptive(1.0), None, 10.0, 1).validate()
    with pytest.raises(ConfigError):
        SimConfig(EnergyAwareAdaptive(50.0), 10, 10.0, 1).validate()
    with pytest.raises(ConfigError):
        SimConfig(BestEffortUniform(1.0), 0, 10.0, 1).validate()
    with pytest.raises(ConfigError):
        SimConfig(BestEffortUniform(1.0), None, 0.0, 1).validate()
    with pytest.raises(ConfigError):
        SimConfig(BestEffortUniform(1.0), None, 2e7, 1).validate()
    # Rate 2 at T=1e7 expects 2e7 arrivals, past the cap of 1e7.
    for rate in (0.0, float("nan"), float("inf"), 1e300, 2.0):
        with pytest.raises(ConfigError):
            SimConfig(BestEffortUniform(1.0), None, 1e7, 1,
                      rate=rate).validate()
    SimConfig(BestEffortUniform(1.0), None, 1e7, 1, rate=1.0).validate()
    with pytest.raises(ConfigError):
        SimConfig(BestEffortUniform(1e-6), None, 1e7, 1).validate()
    SimConfig(BestEffortUniform(1.0), None, 100.0, 1).validate()


def test_unbounded_battery_never_wastes():
    summary, _ = run_path(SimConfig(BestEffortUniform(1.0), None, 50_000.0, 9))
    assert summary.wasted_units == 0


def test_rate_parameter_scales_arrivals():
    greedy = ThresholdUnitBattery(0.0)
    fast, _ = run_path(SimConfig(greedy, 1, 5000.0, 2, rate=4.0))
    slow, _ = run_path(SimConfig(greedy, 1, 5000.0, 2, rate=1.0))
    # Greedy updates at every arrival, so update counts scale with the rate.
    assert fast.updates > 3.5 * slow.updates
