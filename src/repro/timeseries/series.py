"""The :class:`TimeSeries` container.

A ``TimeSeries`` pairs a float64 value array with (optionally implicit)
monotonically increasing timestamps.  It is the unit of data flowing through
every ASAP operator: batch smoothing consumes one, the streaming operator
emits a sequence of them, and the visualization substrate rasterizes them.

The container is deliberately immutable-by-convention (the underlying numpy
arrays are set non-writeable) so that operators can share slices without
defensive copies — the style used throughout time-series engines the paper
targets (InfluxDB, Gorilla, MacroBase).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from . import stats

__all__ = ["TimeSeries", "regular_timestamps"]


def regular_timestamps(n: int, start: float = 0.0, step: float = 1.0) -> np.ndarray:
    """Evenly spaced timestamps ``start, start+step, ...`` of length *n*."""
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    if step <= 0:
        raise ValueError(f"timestamp step must be positive, got {step}")
    return start + step * np.arange(n, dtype=np.float64)


def checked_values(values, copy: bool = True) -> np.ndarray:
    """*values* as a 1-D finite float64 array — :class:`TimeSeries`'s rules.

    The one definition of what a series' values may be, and of the errors
    for what they may not.  ``copy=False`` validates in place when *values*
    already is a float64 array, for callers that only read it.
    """
    arr = np.array(values, dtype=np.float64) if copy else np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"values must be 1-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite (no NaN/inf)")
    return arr


class TimeSeries:
    """An ordered sequence of (timestamp, value) pairs.

    Parameters
    ----------
    values:
        One-dimensional array-like of real values.
    timestamps:
        Optional array-like of the same length; must be strictly increasing.
        When omitted, implicit indices ``0..n-1`` are used.
    name:
        Optional label carried through transformations for display.
    """

    __slots__ = ("_values", "_timestamps", "name")

    def __init__(self, values, timestamps=None, name: str = "") -> None:
        arr = checked_values(values)
        if timestamps is None:
            ts = regular_timestamps(arr.size)
        else:
            ts = np.array(timestamps, dtype=np.float64)
            if ts.shape != arr.shape:
                raise ValueError(
                    f"timestamps shape {ts.shape} != values shape {arr.shape}"
                )
            # Pairwise ``>`` is ``np.diff(ts) > 0`` for every float pair
            # (``inf - inf`` is NaN, and NaN compares false either way),
            # without the difference array.
            if not (ts[1:] > ts[:-1]).all():
                raise ValueError("timestamps must be strictly increasing")
        arr.setflags(write=False)
        ts.setflags(write=False)
        self._values = arr
        self._timestamps = ts
        self.name = name

    @classmethod
    def _trusted(cls, values: np.ndarray, timestamps: np.ndarray, name: str = "") -> "TimeSeries":
        """A series over arrays that already satisfy this class's rules.

        For a producer that owns *values* and *timestamps* — equal-length
        1-D float64 arrays, finite values, strictly increasing timestamps —
        because it checked its input where that input entered the program
        (the streaming operator's frames): no copy and no second validation.
        The arrays are frozen in place, as ``__init__`` freezes its copies.
        """
        series = object.__new__(cls)
        values.setflags(write=False)
        timestamps.setflags(write=False)
        series._values = values
        series._timestamps = timestamps
        series.name = name
        return series

    # -- basic protocol ----------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The (read-only) value array."""
        return self._values

    @property
    def timestamps(self) -> np.ndarray:
        """The (read-only) timestamp array."""
        return self._timestamps

    def __len__(self) -> int:
        return int(self._values.size)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return zip(self._timestamps.tolist(), self._values.tolist())

    def __getitem__(self, key):
        if isinstance(key, slice):
            return TimeSeries(
                self._values[key], self._timestamps[key], name=self.name
            )
        return (float(self._timestamps[key]), float(self._values[key]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return bool(
            np.array_equal(self._values, other._values)
            and np.array_equal(self._timestamps, other._timestamps)
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<TimeSeries{label} n={len(self)}>"

    # -- statistics --------------------------------------------------------

    def mean(self) -> float:
        """Arithmetic mean of the values."""
        return stats.mean(self._values)

    def std(self) -> float:
        """Population standard deviation of the values."""
        return stats.std(self._values)

    def variance(self) -> float:
        """Population variance of the values."""
        return stats.variance(self._values)

    def kurtosis(self) -> float:
        """Non-excess kurtosis of the values (normal = 3)."""
        return stats.kurtosis(self._values)

    def roughness(self) -> float:
        """Standard deviation of the first-difference series."""
        return stats.roughness(self._values)

    # -- transformations ---------------------------------------------------

    def zscore(self) -> "TimeSeries":
        """Standardized copy (zero mean, unit variance), timestamps kept."""
        return TimeSeries(
            stats.zscore(self._values), self._timestamps, name=self.name
        )

    def with_values(self, values, timestamps=None) -> "TimeSeries":
        """A new series with the same name and fresh values/timestamps."""
        return TimeSeries(
            values,
            self._timestamps if timestamps is None else timestamps,
            name=self.name,
        )

    def head(self, n: int) -> "TimeSeries":
        """The first *n* points."""
        return self[: max(n, 0)]

    def tail(self, n: int) -> "TimeSeries":
        """The last *n* points."""
        if n <= 0:
            return self[len(self):]
        return self[-n:]

    def slice_time(self, start: float, end: float) -> "TimeSeries":
        """Points with ``start <= timestamp < end``."""
        if end < start:
            raise ValueError(f"end {end} precedes start {start}")
        lo = int(np.searchsorted(self._timestamps, start, side="left"))
        hi = int(np.searchsorted(self._timestamps, end, side="left"))
        return self[lo:hi]

    @staticmethod
    def concat(parts: Sequence["TimeSeries"], name: str = "") -> "TimeSeries":
        """Concatenate series whose timestamp ranges do not overlap."""
        parts = [p for p in parts if len(p) > 0]
        if not parts:
            return TimeSeries([], name=name)
        values = np.concatenate([p.values for p in parts])
        timestamps = np.concatenate([p.timestamps for p in parts])
        return TimeSeries(values, timestamps, name=name or parts[0].name)
