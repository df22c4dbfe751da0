"""Event-driven execution of one policy on one arrival sample path.

One run walks a materialized arrival array in exact epoch arithmetic (no
time discretization), one per-epoch loop per regime: the uniform grid,
the adaptive schedule and the B=1 threshold renewals. The loops run as C
(``_loops.c``), compiled with the system's ``cc`` on first import, cached
in ``__pycache__`` and called through ctypes; ``BACKEND`` says "c". With
no compiler, or when the build or load fails, ``BACKEND`` is "python" and
the same loops run in plain Python, reading the arrivals and writing the
epochs through memoryviews of the same arrays, which hand out and take
Python floats, so that no numpy scalar is boxed per access. Both backends
compute the same float operations in the same order, so results are
bit-identical whichever runs; the tests compare each with
``tests/reference_sim.py``.

One path of one policy is one call of ``_entry``: ``path`` of
``_loops.c`` on "c", the Python loop and the numpy ``aoi_metrics.tally``
on "python", with the same bits. It walks the loop into a fresh epoch
buffer, one slot longer than the arrivals; the uniform loop jumps over
each run of epochs that find the battery empty, with the counts of
stepping bit for bit, so a dense grid costs its arrivals and updates,
not its T / period epochs. It then lands the arrivals left up to T,
clamps the level to the capacity, counting the overflow as wasted, and
tallies the log: the sums of the delays and of their squares, which give
the reward, the smallest delay, and R(t)/t at the caller's checkpoints.
Python checks energy conservation and that the smallest delay is
positive. What stays the same from path to path is resolved once into a
``_Plan``: one per plain call of ``run_path``, and one per configuration
in an ensemble, which hands it to ``run_path`` with the row of the
series that the path writes, its configurations checked and its arrivals
sorted by construction, so that neither is checked again per path.
``simulate_path`` is ``run_path`` on given arrivals, with its result as
a tuple. On "c", ``_fill`` hands ``arrivals.sample_rows`` the Philox of
``_loops.c``, which draws the uniforms of a chunk of paths in one call.
The import refuses a C library whose ``path`` tallies a fixed set of
logs otherwise than numpy does, or whose ``philox`` gives other uniforms
than numpy's Philox.

Conventions baked in here:

* The battery holds one unit right before t=0 and the time-0 update
  consumes it, so every path starts at level 0, age 0, S_0 = 0.
* Left-limit semantics: an arrival exactly at a decision epoch is not yet
  available at that epoch. Batch harvesting therefore consumes arrivals
  strictly before each scheduled epoch.
* A unit-battery arrival landing exactly on an update instant is counted
  as wasted (probability-zero tie; keeps epochs strictly increasing).
* The horizon only truncates: events later than T, arrivals included,
  never happen; the tail age (T - S_N)^2 / 2 is added by the reward
  accounting.
"""

from __future__ import annotations

import ctypes
import math
import os
import shutil
import tempfile
import zlib
from dataclasses import dataclass

import numpy as np

from .aoi_metrics import UpdateLog, tally
from .arrivals import sample_path
from .policies import (
    AdaptiveUnitBattery,
    BestEffortUniform,
    ConfigError,
    EnergyAwareAdaptive,
    Policy,
    ThresholdUnitBattery,
    adaptive_beta,
    validate_policy,
)

MAX_HORIZON = 1.0e7  # keeps absolute epoch rounding below ~1e-8
# Cap on rate * horizon, the expected number of arrivals that one path
# holds in memory (80 MB of float64): every horizon at unit rate fits.
MAX_EXPECTED_ARRIVALS = 1.0e7
_MAX_GRID_EPOCHS = 1.0e8


def _uniform_path(arrivals, horizon, cap, period, epochs):
    """Best-effort uniform grid; cap < 0 means unbounded.

    When the battery is empty and no arrival comes before the next epoch
    n, it stays empty until the next arrival a, or T when none is left
    before it: the loop counts epochs n to m - 1 as infeasible and goes
    on at epoch m = int(a / period) + 1, lowered while epoch m - 1 lies
    past a. _loops.c says why this lands where stepping would.
    """
    n_arr = arrivals.shape[0]
    arr = memoryview(arrivals)
    out = memoryview(epochs)
    level = 0
    idx = 0
    n_up = 0
    wasted = 0
    infeasible = 0
    n = 1
    s = period
    while s <= horizon:
        while idx < n_arr and arr[idx] < s:
            level += 1
            idx += 1
        if cap >= 0 and level > cap:
            wasted += level - cap
            level = cap
        if level >= 1:
            level -= 1
            out[n_up] = s
            n_up += 1
        else:
            infeasible += 1
        n += 1
        s = n * period
        if level == 0 and not (idx < n_arr and arr[idx] < s) and s <= horizon:
            a = arr[idx] if idx < n_arr and arr[idx] < horizon else horizon
            m = int(a / period) + 1
            while (m - 1) * period > a:
                m -= 1
            infeasible += m - n
            n = m
            s = n * period
    return n_up, wasted, infeasible, level, idx


def _adaptive_path(arrivals, horizon, cap, d_low, d_mid, d_high, epochs):
    """Recursive schedule with the delay picked by 2*level vs cap.

    Covers the finite-battery adaptive policy (cap >= 2) and its B=1
    variant (cap = 1, where the middle branch is unreachable).
    """
    n_arr = arrivals.shape[0]
    arr = memoryview(arrivals)
    out = memoryview(epochs)
    level = 0
    level_before = 1  # battery right before the time-0 update
    idx = 0
    n_up = 0
    wasted = 0
    infeasible = 0
    s = 0.0
    while True:
        doubled = 2 * level_before
        if doubled < cap:
            s = s + d_low
        elif doubled == cap:
            s = s + d_mid
        else:
            s = s + d_high
        if s > horizon:
            break
        while idx < n_arr and arr[idx] < s:
            level += 1
            idx += 1
        if level > cap:
            wasted += level - cap
            level = cap
        level_before = level
        if level >= 1:
            level -= 1
            out[n_up] = s
            n_up += 1
        else:
            infeasible += 1
    return n_up, wasted, infeasible, level, idx


def _unit_renewal_path(arrivals, horizon, tau0, epochs):
    """B=1 threshold renewals: each update consumes the first arrival after
    the previous update; later arrivals before the update are wasted. An
    arrival past T never triggers one, although s + (a - s) may round
    down to T."""
    n_arr = arrivals.shape[0]
    arr = memoryview(arrivals)
    out = memoryview(epochs)
    idx = 0
    n_up = 0
    wasted = 0
    s = 0.0
    while idx < n_arr and arr[idx] <= horizon:
        gamma = arr[idx] - s
        x = gamma if gamma > tau0 else tau0
        s_next = s + x
        if s_next > horizon:
            break
        idx += 1  # the triggering arrival is consumed by this update
        while idx < n_arr and arr[idx] <= s_next:
            wasted += 1
            idx += 1
        out[n_up] = s_next
        n_up += 1
        s = s_next
    return n_up, wasted, 0, 0, idx


_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_loops.c")
_CFLAGS = ("-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")


def _load_loops(source=_SOURCE, cache=None):
    """The compiled loops of _loops.c, or None when they cannot be had.

    The library is cached in __pycache__ beside the source under a key
    over the source, the flags and the compiler's real path, size and
    mtime, so a cache hit stats the compiler but runs nothing. A build
    goes to a temporary file that is renamed into place once complete.
    """
    cache = cache or os.path.join(os.path.dirname(source), "__pycache__")
    try:
        cc = shutil.which("cc")
        if cc is None:
            return None
        cc = os.path.realpath(cc)
        stat = os.stat(cc)
        with open(source, "rb") as fh:
            key = zlib.crc32(fh.read())
        key = zlib.crc32(f"{_CFLAGS} {cc} {stat.st_size} "
                         f"{stat.st_mtime_ns}".encode(), key)
        path = os.path.join(cache, f"_loops-{key:08x}.so")
        if not os.path.exists(path):
            _build(cc, source, cache, path)
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    pointer, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.path.argtypes = [pointer, pointer, i64, pointer, i64, pointer]
    lib.path.restype = ctypes.c_int
    lib.philox.argtypes = [pointer, i64, pointer, i64]
    lib.philox.restype = None
    # The C tally must add in numpy's order, and the C Philox give numpy's
    # uniforms: otherwise the fallback runs, not different CSVs.
    return lib if _path_agrees(lib) and _philox_agrees(lib) else None


def _path_agrees(lib):
    """Whether lib's path, run as greedy renewals on arrivals at the
    epochs of logs whose lengths take each branch of the pairwise sum
    (below 8, 8 to 128 and split), returns those epochs with no waste and
    aoi_metrics.tally's sums and series to the bit, at checkpoints
    unsorted, repeated, before the first epoch, on an epoch and past the
    last. No delay of these logs exceeds the epoch before it, so each
    s + (a - s) is exactly a."""
    epochs = np.cumsum(1.0 / np.arange(1.0, 301.0))
    ts = np.array([7.0, 0.5, 7.0, float(epochs[8]), 3.25, 1.0e3])
    got, want = np.empty(len(ts)), np.empty(len(ts))
    plan = _Plan(ThresholdUnitBattery(0.0), 1, 1.0e3, ts,
                 np.argsort(ts, kind="stable").astype(np.int64), got)
    for n in (0, 1, 7, 8, 9, 127, 128, 129, 136, 300):
        log = UpdateLog(epochs=epochs[:n])
        walked = _entry(lib, plan, log.epochs, n + 1, 0)
        if (walked[0].tobytes() != log.epochs.tobytes()
                or walked[1:6] != (0, 0, 0, n, n)
                or walked[6:] != tally(log, ts, want)
                or got.tobytes() != want.tobytes()):
            return False
    return True


# numpy's Philox bits, recorded: zlib.crc32 over the bytes of
# np.random.Generator(np.random.Philox(key=k)).random(n) for each length n
# and, within it, each key k in turn. Drawing them here would import
# numpy.random, and with it hashlib and OpenSSL, on every import;
# tests/test_arrivals.py checks the record against numpy.
_PHILOX_KEYS = (0, 1, 1 << 63, (1 << 64) - 1)
_PHILOX_LENGTHS = (1, 2, 3, 5, 10, 563)
_PHILOX_CRC = 0x56464BAD


def _philox_agrees(lib):
    """Whether lib's philox gives numpy's Philox uniforms to the bit, for
    keys at both ends of 64 bits and at the top bit, in rows of every
    length mod 4, within one block of four and over several. The
    counter's carry past 2**64 blocks cannot be reached here."""
    keys = np.array(_PHILOX_KEYS, np.uint64)
    crc = 0
    for n in _PHILOX_LENGTHS:
        chunk = np.empty((len(keys), n))
        lib.philox(_address(keys), len(keys), _address(chunk), n)
        crc = zlib.crc32(chunk.tobytes(), crc)
    return crc == _PHILOX_CRC


def _build(cc, source, cache, path):
    """Compile source into the shared library at path, atomically."""
    import subprocess

    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        proc = subprocess.run([cc, *_CFLAGS, "-o", tmp, source],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise OSError(f"{cc} failed: {proc.stderr.strip()}")
        os.chmod(tmp, 0o755)  # mkstemp made it private to this user
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


_NO_BYTES = ctypes.c_char * 0


def _address(array):
    """Address of a contiguous array's first element. Exporting the buffer
    to ctypes costs a third of ndarray.ctypes.data, but only a writable
    buffer can be exported."""
    try:
        return ctypes.addressof(_NO_BYTES.from_buffer(array))
    except TypeError:  # read-only
        return array.ctypes.data


class _CPlan(ctypes.Structure):
    """struct plan of _loops.c."""

    _fields_ = [("regime", ctypes.c_int64), ("cap", ctypes.c_int64),
                ("horizon", ctypes.c_double), ("p", ctypes.c_double * 3),
                ("ts", ctypes.c_void_p), ("order", ctypes.c_void_p),
                ("n_ts", ctypes.c_int64), ("counts", ctypes.c_int64 * 6),
                ("sums", ctypes.c_double * 3)]


_NO_POINTS = np.empty(0)
_NO_ORDER = np.empty(0, np.int64)
# The loops by regime, in the order of _loops.c's enum.
_REGIMES = (_uniform_path, _adaptive_path, _unit_renewal_path)


class _Plan:
    """What the paths of one checked (policy, capacity, float horizon)
    share: the loop, its parameters, and the checkpoints, the int64 order
    that sorts them and the float64 rows, one per path, that the series
    goes to (a 1-d row for one path).
    Its struct plan holds the same for _loops.c and receives each C
    call's counts and sums."""

    def __init__(self, policy, capacity, horizon, checkpoints=_NO_POINTS,
                 order=_NO_ORDER, rows=None):
        cap = -1 if capacity is None else int(capacity)
        if isinstance(policy, BestEffortUniform):
            self.loop, params = _uniform_path, (float(policy.period),)
        elif isinstance(policy, ThresholdUnitBattery):
            self.loop, params = _unit_renewal_path, (float(policy.tau0),)
        elif isinstance(policy, (EnergyAwareAdaptive, AdaptiveUnitBattery)):
            # Delays for levels below, at and above half the battery; the
            # B=1 variant runs at cap == 1, which validate_policy enforces.
            beta = float(policy.beta if isinstance(policy, AdaptiveUnitBattery)
                         else adaptive_beta(policy.k, cap))
            self.loop = _adaptive_path
            params = (1.0 / (1.0 - beta), 1.0, 1.0 / (1.0 + beta))
        else:
            raise ConfigError(f"unknown policy variant {type(policy).__name__}")
        # The Python loop's arguments between the arrivals and the epochs.
        self.args = ((horizon, *params) if self.loop is _unit_renewal_path
                     else (horizon, cap, *params))
        self.horizon, self.cap = horizon, cap
        n_ts = len(checkpoints) if rows is not None else 0
        self.ts = checkpoints if n_ts else _NO_POINTS
        self.rows = rows.reshape(-1, n_ts) if n_ts else None
        # The arrays that the struct points to live as long as the plan.
        self.order = order
        self.c = _CPlan(_REGIMES.index(self.loop), cap, horizon,
                        (*params, 0.0, 0.0)[:3],
                        _address(checkpoints) if n_ts else None,
                        _address(order) if n_ts else None, n_ts)
        self.address = ctypes.addressof(self.c)
        # Views of the struct's arrays, made once rather than per read.
        self.counts, self.sums = self.c.counts, self.c.sums
        # Row i of the series starts at series + i * stride.
        self.series = _address(self.rows) if n_ts else 0
        self.stride = self.rows.strides[0] if n_ts else 0


def _entry(lib, plan, arrivals, room, i):
    """One path of plan on the sorted float64 arrivals, with room for
    `room` epochs in a fresh buffer (the caller keeps the log); as lib's
    path or, with lib None, the Python loop and aoi_metrics.tally; the
    series goes to row i. Returns (epochs, wasted, infeasible, level,
    seen, landed, delay sum, square sum, smallest delay); a loop that
    needs more room is a sizing bug and raises RuntimeError."""
    epochs = np.empty(room, np.float64)
    if lib is not None:
        if lib.path(plan.address, _address(arrivals), arrivals.size,
                    _address(epochs), room, plan.series + i * plan.stride):
            raise RuntimeError(
                f"{plan.loop.__name__} needs more than {room} epochs")
        n_up, *counts = plan.counts[:]
        return (epochs[:n_up], *counts, *plan.sums[:])
    try:
        n_up, wasted, infeasible, level, seen = plan.loop(
            arrivals, *plan.args, epochs)
    except IndexError:  # the memoryview refused a write past `room`
        raise RuntimeError(
            f"{plan.loop.__name__} needs more than {room} epochs") from None
    # The arrivals left up to T land; a full battery loses the overflow.
    landed = int(arrivals.searchsorted(plan.horizon, side="right"))
    level += landed - seen
    if plan.cap >= 0 and level > plan.cap:
        wasted += level - plan.cap
        level = plan.cap
    epochs = epochs[:n_up]
    sums = tally(UpdateLog(epochs=epochs), plan.ts,
                 _NO_POINTS if plan.rows is None else plan.rows[i])
    return (epochs, wasted, infeasible, level, seen, landed, *sums)


_LOOPS = _load_loops()
# "c" when the loops of _loops.c run, "python" for the fallback loops.
BACKEND = "python" if _LOOPS is None else "c"


def _fill():
    """The fill of arrivals.sample_rows on this backend: _loops.c's
    philox on "c", and None, numpy's Philox row by row, on "python"."""
    return _philox if BACKEND == "c" else None


def _philox(keys, chunk):
    """Row r of the float64 chunk gets the first uniforms of the Philox
    stream keyed keys[r], from _loops.c."""
    _LOOPS.philox(_address(keys), len(keys), _address(chunk), chunk.shape[1])


def _unconserved(landed, updates, wasted, level):
    """The RuntimeError of a path whose energy does not add up."""
    return RuntimeError(f"energy not conserved: {landed} arrivals, "
                        f"{updates} updates, {wasted} wasted, level {level}")


def _check_horizon(policy, horizon):
    """Raise ConfigError unless 0 < horizon <= MAX_HORIZON (NaN fails too)
    and a uniform grid holds at most _MAX_GRID_EPOCHS epochs up to it."""
    if not 0.0 < horizon <= MAX_HORIZON:
        raise ConfigError(f"horizon must lie in (0, {MAX_HORIZON:g}]")
    if (isinstance(policy, BestEffortUniform)
            and horizon / policy.period > _MAX_GRID_EPOCHS):
        raise ConfigError("uniform grid too dense for this horizon")


@dataclass(frozen=True)
class SimConfig:
    """One reproducible run: policy, capacity (None = unbounded), horizon T,
    base seed and arrival rate."""

    policy: Policy
    capacity: int | None
    horizon: float
    seed: int
    rate: float = 1.0

    def validate(self) -> None:
        validate_policy(self.policy, self.capacity)
        # The C plan holds it as an int64; _Plan's int() truncates a float.
        if self.capacity is not None and not (
                isinstance(self.capacity, (int, np.integer))
                and 1 <= self.capacity < 2**63):
            raise ConfigError(
                "capacity must be a positive integer below 2**63 or None")
        _check_horizon(self.policy, self.horizon)
        if not 0.0 < self.rate < math.inf:  # NaN fails too
            raise ConfigError("rate must be positive and finite")
        if self.rate * self.horizon > MAX_EXPECTED_ARRIVALS:
            raise ConfigError(
                f"rate * horizon must not exceed {MAX_EXPECTED_ARRIVALS:g} "
                "expected arrivals")


@dataclass
class SimSummary:
    """Per-path outcome: time-average age, the sums of the delays and of
    their squares, and energy accounting. The arrivals seen are those that
    land by T, final_level + updates + wasted_units of them."""

    time_avg_aoi: float
    reward: float
    updates: int
    wasted_units: int
    infeasible_epochs: int
    final_level: int
    horizon: float
    arrivals_seen: int
    delay_sum: float
    square_sum: float


def simulate_path(arrivals: np.ndarray, policy: Policy,
                  capacity: int | None, horizon: float):
    """run_path(SimConfig(policy, capacity, horizon, seed=0), arrivals) as
    (epochs, wasted, infeasible, final_level), for tests that drive
    hand-crafted arrival sequences; perfbench spans it here."""
    summary, log = run_path(SimConfig(policy, capacity, horizon, seed=0),
                            arrivals)
    return (log.epochs, summary.wasted_units, summary.infeasible_epochs,
            summary.final_level)


def _sorted(arrivals):
    """The arrivals as a contiguous float64 array; ConfigError unless they
    are a 1-d array of finite, non-decreasing times."""
    arrivals = np.ascontiguousarray(arrivals, dtype=np.float64)
    if (arrivals.ndim != 1 or not np.isfinite(arrivals).all()
            or (arrivals[1:] < arrivals[:-1]).any()):
        raise ConfigError(
            "arrivals must be a 1-d array of finite, non-decreasing times")
    return arrivals


def _unit_gammas(arrivals: np.ndarray, epochs: np.ndarray) -> np.ndarray:
    """Per-renewal delay to the first arrival strictly after each S_{n-1}."""
    prev = np.concatenate(([0.0], epochs[:-1]))
    idx = np.searchsorted(arrivals, prev, side="right")
    return arrivals[idx] - prev


def run_path(config: SimConfig, arrivals: np.ndarray | None = None,
             series=None) -> tuple[SimSummary, UpdateLog]:
    """Simulate one sample path up to the horizon.

    ``arrivals``, when given, are used as they are and ``config.seed`` is
    not read, so one draw can serve several policies; they must be a 1-d
    array of finite, non-decreasing times, or ConfigError is raised. By
    default they are drawn here with ``sample_path(config.seed,
    config.horizon, config.rate)``. An ensemble passes ``series``, a pair
    (plan, i): the _Plan of this configuration, which the ensemble has
    checked, and the row i of its series that this path writes R(t)/t
    into; its arrivals are sample_path's, and neither is checked again
    here.
    """
    if series is not None:
        plan, i = series
    else:
        config.validate()
        arrivals = (sample_path(config.seed, config.horizon, config.rate)
                    if arrivals is None else _sorted(arrivals))
        # A Python float keeps numpy scalar arithmetic out of the
        # plain-Python loops; float() of a numpy float64 is exact.
        plan, i = _Plan(config.policy, config.capacity,
                        float(config.horizon)), 0
    # Every update spends an arrival that landed before it, so one more
    # slot than the arrivals always suffices.
    (epochs, wasted, infeasible, level, _, landed, delay_sum, square_sum,
     smallest) = _entry(_LOOPS if BACKEND == "c" else None, plan, arrivals,
                        arrivals.size + 1, i)
    if landed != level + len(epochs) + wasted:
        raise _unconserved(landed, len(epochs), wasted, level)
    if smallest <= 0:
        raise ValueError("update epochs must be strictly increasing from 0")
    # The closed form of aoi_metrics.accumulate_reward, on the tally's sum.
    last = epochs[-1] if len(epochs) else 0.0
    reward = 0.5 * (square_sum + (config.horizon - last) ** 2)
    summary = SimSummary(
        time_avg_aoi=reward / config.horizon,
        reward=reward,
        updates=len(epochs),
        wasted_units=wasted,
        infeasible_epochs=infeasible,
        final_level=level,
        horizon=config.horizon,
        arrivals_seen=landed,
        delay_sum=delay_sum,
        square_sum=square_sum,
    )
    return summary, UpdateLog(epochs=epochs)
