"""Age-of-information accounting over one sample path.

The reward R(T) is computed in closed form: half the sum of squared
inter-update delays plus the squared tail after the last update. The test
suite checks it to 1e-9 relative against an independent oracle that
integrates the piecewise-linear age curve segment by segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class UpdateLog:
    """Ordered actual update epochs S_1 < S_2 < ... of one sample path.

    The time-0 update is implicit (S_0 = 0) and never stored. The log is
    frozen, so its delays and their squares are computed once and shared
    by every reader.
    """

    epochs: np.ndarray = field(default_factory=lambda: np.empty(0))

    @classmethod
    def from_delays(cls, delays) -> "UpdateLog":
        d = np.asarray(delays, dtype=np.float64)
        return cls(epochs=np.cumsum(d))

    @property
    def n(self) -> int:
        return len(self.epochs)

    @cached_property
    def delays(self) -> np.ndarray:
        """X_n = S_n - S_{n-1} with S_0 = 0 (read-only: readers share it)."""
        e = np.asarray(self.epochs, dtype=np.float64)
        delays = np.empty(len(e))
        if len(e):
            # The subtraction np.diff(e, prepend=0.0) does, without its
            # concatenation.
            delays[0] = e[0]
            np.subtract(e[1:], e[:-1], out=delays[1:])
        delays.flags.writeable = False
        return delays

    @cached_property
    def squares(self) -> np.ndarray:
        """X_n ** 2, formed once for the reward, the series and the
        moments (read-only: readers share it)."""
        d = self.delays
        squares = d * d
        squares.flags.writeable = False
        return squares

    def validate(self) -> None:
        d = self.delays
        if len(d) and d.min() <= 0:
            raise ValueError("update epochs must be strictly increasing from 0")


@dataclass
class AoiTally:
    """Accumulated age reward R(T) over [0, T] with N(T) updates."""

    reward: float
    horizon: float
    updates: int

    @property
    def time_average(self) -> float:
        return self.reward / self.horizon if self.horizon > 0 else 0.0


def accumulate_reward(log: UpdateLog, horizon: float) -> AoiTally:
    """Exact reward (sum of X_i^2 plus squared tail, halved) for epochs <= T."""
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    epochs = log.epochs
    if len(epochs) and epochs[-1] > horizon:
        raise ValueError("log contains an epoch beyond the horizon")
    last = epochs[-1] if len(epochs) else 0.0
    # np.add.reduce (np.sum) uses pairwise accumulation, which keeps
    # rounding in check for logs far beyond 1e6 delays.
    sum_sq = float(np.add.reduce(log.squares))
    reward = 0.5 * (sum_sq + (horizon - last) ** 2)
    return AoiTally(reward=reward, horizon=horizon, updates=len(epochs))

