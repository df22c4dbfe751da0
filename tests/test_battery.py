import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_sim import BatteryState


def test_harvest_fills_to_capacity():
    b = BatteryState(level=0, capacity=1)
    b.harvest(1)
    assert (b.level, b.wasted_units) == (1, 0)


def test_harvest_clamps_and_counts_waste():
    b = BatteryState(level=1, capacity=1)
    b.harvest(2)
    assert (b.level, b.wasted_units) == (1, 2)


def test_unbounded_never_wastes():
    b = BatteryState(level=3, capacity=None)
    b.harvest(5)
    assert (b.level, b.wasted_units) == (8, 0)


def test_try_discharge_success():
    b = BatteryState(level=1, capacity=1)
    assert b.try_discharge() is True
    assert (b.level, b.infeasible_epochs) == (0, 0)


def test_try_discharge_empty_counts_infeasible():
    b = BatteryState(level=0, capacity=1)
    assert b.try_discharge() is False
    assert (b.level, b.infeasible_epochs) == (0, 1)


def test_try_discharge_leaves_counters_alone_when_charged():
    b = BatteryState(level=5, capacity=10)
    assert b.try_discharge() is True
    assert (b.level, b.wasted_units, b.infeasible_epochs) == (4, 0, 0)


def test_invalid_construction():
    with pytest.raises(ValueError):
        BatteryState(level=0, capacity=0)
    with pytest.raises(ValueError):
        BatteryState(level=-1, capacity=None)
    with pytest.raises(ValueError):
        BatteryState(level=3, capacity=2)
    with pytest.raises(ValueError):
        BatteryState(level=0, capacity=1).harvest(-1)


@given(
    capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    ops=st.lists(
        st.one_of(st.integers(min_value=0, max_value=4), st.just("discharge")),
        max_size=200,
    ),
)
def test_conservation_identity(capacity, ops):
    b = BatteryState(level=0, capacity=capacity)
    harvested = 0
    discharges = 0
    prev_waste, prev_inf = 0, 0
    for op in ops:
        if op == "discharge":
            if b.try_discharge():
                discharges += 1
        else:
            b.harvest(op)
            harvested += op
        # Counters are monotone and the ledger always balances.
        assert b.wasted_units >= prev_waste
        assert b.infeasible_epochs >= prev_inf
        prev_waste, prev_inf = b.wasted_units, b.infeasible_epochs
        assert harvested == b.level + discharges + b.wasted_units
        if capacity is not None:
            assert 0 <= b.level <= capacity
            assert b.wasted_units >= 0
        else:
            assert b.wasted_units == 0
