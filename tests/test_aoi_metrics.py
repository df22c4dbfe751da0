import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoisim import UpdateLog, accumulate_reward
from reference_sim import age_at, integrate_trace

delays_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=1e3, allow_nan=False,
              allow_infinity=False),
    min_size=0, max_size=300)


def test_reward_uniform_unit_updates():
    log = UpdateLog.from_delays([1.0, 1.0])
    tally = accumulate_reward(log, 2.0)
    assert tally.reward == 1.0
    assert tally.time_average == 0.5
    assert tally.updates == 2


def test_reward_no_updates_single_triangle():
    tally = accumulate_reward(UpdateLog(), 5.0)
    assert tally.reward == 12.5
    assert tally.time_average == 2.5
    assert tally.updates == 0


def test_reward_with_tail():
    log = UpdateLog.from_delays([2.0])
    tally = accumulate_reward(log, 3.0)
    assert tally.reward == pytest.approx(2.5, rel=1e-12)
    assert tally.time_average == pytest.approx(0.8333, abs=1e-4)
    assert integrate_trace(log, 3.0) == pytest.approx(2.5, rel=1e-12)


def test_reward_zero_iff_zero_horizon():
    assert accumulate_reward(UpdateLog(), 0.0).reward == 0.0
    assert accumulate_reward(UpdateLog(), 0.0).time_average == 0.0
    assert accumulate_reward(UpdateLog(), 1e-9).reward > 0.0


def test_epoch_beyond_horizon_rejected():
    log = UpdateLog.from_delays([2.0, 2.0])
    with pytest.raises(ValueError):
        accumulate_reward(log, 3.0)


def test_age_at_examples():
    log = UpdateLog(epochs=np.array([1.0]))
    assert age_at(log, 1.0) == 0.0
    assert age_at(log, 2.5) == 1.5
    assert age_at(UpdateLog(), 4.0) == 4.0
    with pytest.raises(ValueError):
        age_at(log, -0.1)


def test_integrate_trace_examples():
    assert integrate_trace(UpdateLog.from_delays([1.0, 1.0]), 2.0) == 1.0
    assert integrate_trace(UpdateLog.from_delays([2.0]), 3.0) == 2.5
    assert integrate_trace(UpdateLog(), 5.0) == pytest.approx(12.5, rel=1e-12)
    assert integrate_trace(UpdateLog(), 0.0) == 0.0
    with pytest.raises(ValueError):
        integrate_trace(UpdateLog(), 1.0, step=0.0)


def test_integrate_trace_step_invariant():
    log = UpdateLog.from_delays([0.3, 1.7, 2.2, 0.9])
    horizon = 6.0
    vals = [integrate_trace(log, horizon, step=s) for s in (0.01, 0.37, 1.0, 100.0)]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-12)


@given(delays=delays_strategy,
       tail=st.floats(min_value=0.0, max_value=50.0),
       step=st.floats(min_value=0.05, max_value=10.0))
@settings(max_examples=150)
def test_oracle_equivalence(delays, tail, step):
    log = UpdateLog.from_delays(delays)
    horizon = float(log.epochs[-1] + tail) if len(delays) else tail
    closed = accumulate_reward(log, horizon).reward
    traced = integrate_trace(log, horizon, step=step)
    assert traced == pytest.approx(closed, rel=1e-9, abs=1e-12)


@given(delays=delays_strategy, c=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=100)
def test_reward_scale_covariance(delays, c):
    log = UpdateLog.from_delays(delays)
    horizon = float(log.epochs[-1]) + 1.0 if len(delays) else 1.0
    base = accumulate_reward(log, horizon).reward
    scaled = accumulate_reward(UpdateLog(epochs=log.epochs * c), horizon * c)
    assert scaled.reward == pytest.approx(base * c * c, rel=1e-9)


def test_update_log_validation():
    UpdateLog.from_delays([1.0, 2.0]).validate()
    with pytest.raises(ValueError):
        UpdateLog(epochs=np.array([1.0, 1.0])).validate()
    with pytest.raises(ValueError):
        UpdateLog(epochs=np.array([2.0, 1.0])).validate()
    with pytest.raises(ValueError):
        UpdateLog(epochs=np.array([0.0, 1.0])).validate()


def test_update_log_delays_roundtrip():
    d = np.array([0.5, 1.25, 0.125])
    log = UpdateLog.from_delays(d)
    assert np.allclose(log.delays, d, rtol=0, atol=1e-15)
    assert log.n == 3


def test_update_log_is_frozen_and_diffs_once():
    # Every reader of a log shares one delay array, which stays right
    # because the epochs cannot be swapped out from under it.
    log = UpdateLog(epochs=np.array([1.0, 2.5]))
    assert log.delays is log.delays
    with pytest.raises(ValueError):
        log.delays[0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        log.epochs = np.array([3.0])


@given(epochs=st.lists(st.floats(min_value=1e-300, max_value=1e7,
                                 allow_nan=False, allow_infinity=False),
                       min_size=0, max_size=200))
@example(epochs=[])
@example(epochs=[2.5])
@settings(max_examples=200)
def test_update_log_delays_and_squares_are_bit_exact(epochs):
    # The delays are the subtraction np.diff(prepend=0.0) performs, and
    # the squares are their product, bit for bit; both are read-only.
    e = np.sort(np.array(epochs, dtype=np.float64))
    log = UpdateLog(epochs=e)
    assert log.delays.tobytes() == np.diff(e, prepend=0.0).tobytes()
    assert log.squares.tobytes() == (log.delays * log.delays).tobytes()
    assert log.squares is log.squares
    for arr in (log.delays, log.squares):
        assert not arr.flags.writeable
        if len(arr):
            with pytest.raises(ValueError):
                arr[0] = 1.0
