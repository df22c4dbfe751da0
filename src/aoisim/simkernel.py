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

On either backend, each loop writes the update epochs into the buffer
that ``_walk`` passes in, and returns (updates, wasted, infeasible, level, seen),
with the level after the last epoch and the arrivals consumed.
``simulate_path`` settles the battery once for all: it lands the arrivals
left up to T, clamps the level to the capacity, counts the overflow as
wasted, and checks energy conservation.

``run_path`` then tallies the update log in one call: the tally of
``_loops.c`` on the "c" backend, the numpy expressions of
``aoi_metrics.tally`` on "python", with the same bits. The tally gives
the sums of the delays and of their squares, from which the reward
follows, and the smallest delay, which must be positive; it writes the
running average R(t)/t at the caller's checkpoints. The import refuses a
C library whose tally differs from numpy's on a fixed set of logs.

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
    """Best-effort uniform grid; cap < 0 means unbounded."""
    n_arr = arrivals.shape[0]
    arr = memoryview(arrivals)
    out = memoryview(epochs)
    level = 0
    idx = 0
    n_up = 0
    wasted = 0
    infeasible = 0
    n = 1
    while True:
        s = n * period
        if s > horizon:
            break
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
    the previous update; later arrivals before the update are wasted."""
    n_arr = arrivals.shape[0]
    arr = memoryview(arrivals)
    out = memoryview(epochs)
    idx = 0
    n_up = 0
    wasted = 0
    s = 0.0
    while idx < n_arr:
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
    pointer, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    for name, params in [("uniform_path", [i64, f64]),
                         ("adaptive_path", [i64, f64, f64, f64]),
                         ("unit_renewal_path", [f64])]:
        fn = getattr(lib, name)
        fn.argtypes = [pointer, i64, f64, *params, pointer, i64, pointer]
        fn.restype = ctypes.c_int
    lib.tally.argtypes = [pointer, i64, pointer, pointer, i64, pointer,
                          pointer]
    lib.tally.restype = None
    # The C tally must add in numpy's order: a numpy whose np.add.reduce
    # sums otherwise gets the numpy tally, not different CSVs.
    return lib if _tally_agrees(lib) else None


def _c_tally(lib, log, checkpoints, order, out):
    """The tally of _loops.c in lib, as _tally takes its arguments."""
    sums = (ctypes.c_double * 3)()
    lib.tally(_address(log.epochs), log.epochs.size, _address(checkpoints),
              _address(order), checkpoints.size, _address(out), sums)
    return tuple(sums)


def _tally_agrees(lib):
    """Whether lib's tally gives the numpy tally's bits on logs whose
    lengths take each branch of the pairwise sum: below 8, 8 to 128 and
    split, with checkpoints unsorted, repeated, before the first epoch,
    on an epoch and past the last."""
    epochs = np.cumsum(1.0 / np.arange(1.0, 301.0))
    ts = np.array([7.0, 0.5, 7.0, float(epochs[8]), 3.25, 1.0e3])
    order = np.argsort(ts, kind="stable").astype(np.int64)
    for n in (0, 1, 7, 8, 9, 127, 128, 129, 136, 300):
        log = UpdateLog(epochs=epochs[:n])
        want, got = np.empty(len(ts)), np.empty(len(ts))
        if (_c_tally(lib, log, ts, order, got) != tally(log, ts, want)
                or got.tobytes() != want.tobytes()):
            return False
    return True


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


_LOOPS = _load_loops()
# "c" when the loops of _loops.c run, "python" for the fallback loops.
BACKEND = "python" if _LOOPS is None else "c"


def _walk(loop, room, arrivals, *params):
    """Run `loop` with room for `room` epochs, as its C twin (its name
    without the underscore) on the "c" backend. Returns (epochs, wasted,
    infeasible, level, seen); a loop that needs more room is a sizing
    bug and raises RuntimeError."""
    epochs = np.empty(room, np.float64)
    if BACKEND == "c":
        counts = (ctypes.c_int64 * 5)()
        full = getattr(_LOOPS, loop.__name__[1:])(
            _address(arrivals), arrivals.size, *params, _address(epochs),
            room, counts)
    else:
        try:
            counts, full = loop(arrivals, *params, epochs), 0
        except IndexError:  # the memoryview refused a write past `room`
            full = -1
    if full:
        raise RuntimeError(f"{loop.__name__} needs more than {room} epochs")
    n_up, wasted, infeasible, level, seen = counts
    return epochs[:n_up], wasted, infeasible, level, seen


_NO_POINTS = np.empty(0)
_NO_ORDER = np.empty(0, np.int64)


def _tally(log, checkpoints=_NO_POINTS, order=_NO_ORDER, out=_NO_POINTS):
    """aoi_metrics.tally of the log, as the tally of _loops.c on the "c"
    backend, which reads the checkpoints in the int64 `order` that sorts
    them. Every array is contiguous; out is written."""
    if BACKEND == "c":
        return _c_tally(_LOOPS, log, checkpoints, order, out)
    return tally(log, checkpoints, out)


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
        if self.capacity is not None and self.capacity < 1:
            raise ConfigError("capacity must be a positive integer or None")
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
    their squares, and energy accounting."""

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
                  capacity: int | None, horizon: float, *, check=True):
    """Run one policy over a sorted, materialized arrival array.

    Returns (epochs, wasted, infeasible, final_level). Raises ConfigError
    unless the horizon passes the bounds SimConfig.validate sets and the
    arrivals are a 1-d array of finite, non-decreasing times; check=False
    skips the arrivals scan for arrivals sorted by construction, as
    sample_path output is. Exposed separately from run_path so tests can
    drive hand-crafted arrival sequences.
    """
    validate_policy(policy, capacity)
    # Python scalars keep numpy scalar arithmetic out of the plain-Python
    # loops; float() of a numpy float64 is exact, so results do not change.
    horizon = float(horizon)
    _check_horizon(policy, horizon)
    arrivals = np.ascontiguousarray(arrivals, dtype=np.float64)
    if check and (arrivals.ndim != 1 or not np.isfinite(arrivals).all()
                  or (arrivals[1:] < arrivals[:-1]).any()):
        raise ConfigError(
            "arrivals must be a 1-d array of finite, non-decreasing times")
    cap = -1 if capacity is None else int(capacity)
    # Room for every update: no more than the arrivals, nor than the
    # schedule holds up to T.
    room = arrivals.size + 1
    if isinstance(policy, BestEffortUniform):
        period = float(policy.period)
        walked = _walk(_uniform_path, min(int(horizon / period) + 2, room),
                       arrivals, horizon, cap, period)
    elif isinstance(policy, ThresholdUnitBattery):
        walked = _walk(_unit_renewal_path, room, arrivals, horizon,
                       float(policy.tau0))
    elif isinstance(policy, (EnergyAwareAdaptive, AdaptiveUnitBattery)):
        # Delays for levels below, at and above half the battery; the B=1
        # variant runs at cap == 1, which validate_policy enforces.
        beta = float(policy.beta if isinstance(policy, AdaptiveUnitBattery)
                     else adaptive_beta(policy.k, cap))
        delays = (1.0 / (1.0 - beta), 1.0, 1.0 / (1.0 + beta))
        walked = _walk(_adaptive_path,
                       min(int(horizon / min(delays)) + 4, room),
                       arrivals, horizon, cap, *delays)
    else:
        raise ConfigError(f"unknown policy variant {type(policy).__name__}")
    epochs, wasted, infeasible, level, seen = walked
    # The arrivals left up to T land; a full battery loses the overflow.
    landed = int(arrivals.searchsorted(horizon, side="right"))
    level += landed - seen
    if cap >= 0 and level > cap:
        wasted += level - cap
        level = cap
    if landed != level + len(epochs) + wasted:
        raise RuntimeError(f"energy not conserved: {landed} arrivals, "
                           f"{len(epochs)} updates, {wasted} wasted, "
                           f"level {level}")
    return epochs, wasted, infeasible, level


def _unit_gammas(arrivals: np.ndarray, epochs: np.ndarray) -> np.ndarray:
    """Per-renewal delay to the first arrival strictly after each S_{n-1}."""
    prev = np.concatenate(([0.0], epochs[:-1]))
    idx = np.searchsorted(arrivals, prev, side="right")
    return arrivals[idx] - prev


def run_path(config: SimConfig, arrivals: np.ndarray | None = None,
             series=None) -> tuple[SimSummary, UpdateLog]:
    """Simulate one sample path up to the horizon.

    ``arrivals``, when given, are used as they are and ``config.seed`` is
    not read, so one draw can serve several policies. By default they are
    drawn here with ``sample_path(config.seed, config.horizon,
    config.rate)``. ``series``, when given, is a triple (checkpoints,
    order, row) of contiguous arrays: the checkpoints in (0, T], in any
    order, the int64 order that sorts them, and a float64 row as long,
    into which R(t)/t at each checkpoint is written.
    """
    config.validate()
    if arrivals is None:
        arrivals = sample_path(config.seed, config.horizon, config.rate)
    epochs, wasted, infeasible, level = simulate_path(
        arrivals, config.policy, config.capacity, config.horizon,
        check=False)
    log = UpdateLog(epochs=epochs)
    delay_sum, square_sum, smallest = _tally(log, *(series or ()))
    if smallest <= 0:
        raise ValueError("update epochs must be strictly increasing from 0")
    # The closed form of aoi_metrics.accumulate_reward, on the tally's sum.
    last = epochs[-1] if len(epochs) else 0.0
    reward = 0.5 * (square_sum + (config.horizon - last) ** 2)
    summary = SimSummary(
        time_avg_aoi=reward / config.horizon,
        reward=reward,
        updates=len(epochs),
        wasted_units=int(wasted),
        infeasible_epochs=int(infeasible),
        final_level=int(level),
        horizon=config.horizon,
        arrivals_seen=len(arrivals),
        delay_sum=delay_sum,
        square_sum=square_sum,
    )
    return summary, log
