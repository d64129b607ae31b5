"""Multi-resolution views: geometric rollup levels, resolved on demand.

A view at some pixel width is the window bucketed at the direct pipeline's
point-to-pixel ratio.  :func:`resolve_view` serves it in two stages: level
buckets at the coarsest geometric ratio (1/4/16/64 by default) that divides
the view's ratio, then a residual re-bucket of ``ratio / level_ratio`` level
buckets per view bucket.  Buckets are aligned to *global* base indices
(level bucket ``b`` always covers base values ``[b*level_ratio,
(b+1)*level_ratio)`` no matter when it was computed), so any two clients
asking for the same span get the same buckets.

Nothing is maintained between views.  Every bucket a view serves lies inside
the retained window, and :func:`~repro.core.preaggregation.bucket_means`
reduces each bucket on its own, so computing the level buckets when the view
is asked for gives the values an incrementally maintained level would hold,
bit for bit.  A consumer that already retains the window (the streaming
operator's pane buffer) calls :func:`resolve_view` on it directly;
:class:`Pyramid` is the standalone spelling: a bounded base window plus
:meth:`Pyramid.view`.
"""

from __future__ import annotations

import numpy as np

from ..core.preaggregation import bucket_means, expected_ratio
from ..stream.panes import RollingArray
from .view import PyramidView, ViewSpec

__all__ = [
    "Pyramid",
    "PyramidError",
    "DEFAULT_LEVEL_RATIOS",
    "resolve_view",
]

#: Geometric rollup ratios: each level buckets 4x coarser than the previous.
DEFAULT_LEVEL_RATIOS = (1, 4, 16, 64)


class PyramidError(RuntimeError):
    """A view cannot be served (e.g. the window is empty)."""


def _level_ratios(level_ratios) -> tuple[int, ...]:
    """*level_ratios* sorted and deduplicated, with ratio 1 always present."""
    ratios = sorted({int(r) for r in level_ratios} | {1})
    if ratios[0] < 1:
        raise ValueError(f"level ratios must be >= 1, got {ratios[0]}")
    return tuple(ratios)


def _serving_plan(
    window_length: int, window_start: int, ratio: int, level_ratios
) -> tuple[int, int, int, int]:
    """``(level_ratio, residual, first_bucket, view_buckets)`` for *ratio*.

    Prefers the coarsest dividing level, degrading to a finer one when head
    alignment leaves it unable to fill even one view bucket (tiny windows);
    the base level always can (``window // ratio >= 1`` by construction of
    the ratio).  ``first_bucket`` is the first level bucket wholly inside the
    window, in global level-bucket units.
    """
    if ratio < 1:
        raise ValueError(f"ratio must be >= 1, got {ratio}")
    total = window_start + window_length
    divisors = [r for r in level_ratios if r <= ratio and ratio % r == 0]
    for level_ratio in reversed(divisors):
        residual = ratio // level_ratio
        first = -(-window_start // level_ratio)
        buckets = (total // level_ratio - first) // residual
        if buckets >= 1:
            return level_ratio, residual, first, buckets
    raise PyramidError(
        f"window of {window_length} base values cannot fill one ratio-{ratio} bucket"
    )


def resolve_view(
    values: np.ndarray,
    timestamps: np.ndarray,
    window_start: int,
    spec: ViewSpec | int,
    level_ratios=DEFAULT_LEVEL_RATIOS,
) -> PyramidView:
    """Resolve one client view over a retained window.

    *values*/*timestamps* are the window, oldest first, and *window_start*
    is the global base index of its first value; *level_ratios* are the
    bucket sizes a view may serve from (ratio 1 is always added).  The
    ratio is the direct pipeline's
    (:func:`~repro.core.preaggregation.expected_ratio`); the values are
    ``bucket_means(bucket_means(window[span], level_ratio),
    residual)`` over the bucket-aligned span the plan picks, so they equal
    direct bucketing of that span bit for bit when ``residual == 1`` or
    ``level_ratio == 1``, and within 1e-9 otherwise.  Up to
    ``level_ratio - 1`` of the oldest window values fall before the first
    whole level bucket and are not served (the window head is mid-eviction
    anyway).  With ``include_partial`` the values after the last complete
    view bucket are appended as one final (under-weighted) point.
    """
    if isinstance(spec, (int, np.integer)):
        spec = ViewSpec(resolution=int(spec))
    n = values.size
    if n == 0:
        raise PyramidError("cannot view an empty window")
    ratio = expected_ratio(n, spec.resolution)
    level_ratio, residual, first, buckets = _serving_plan(
        n, window_start, ratio, _level_ratios(level_ratios)
    )
    base_start = first * level_ratio
    base_end = base_start + buckets * ratio
    start = base_start - window_start
    stop = base_end - window_start
    view_values = bucket_means(bucket_means(values[start:stop], level_ratio), residual)
    view_times = timestamps[start:stop:ratio].copy()
    partial_points = 0
    if spec.include_partial and stop < n:
        view_values = np.append(view_values, values[stop:].mean())
        view_times = np.append(view_times, timestamps[stop])
        partial_points = n - stop
        base_end = window_start + n
    return PyramidView(
        values=view_values,
        timestamps=view_times,
        ratio=ratio,
        level_ratio=level_ratio,
        residual=residual,
        base_start=base_start,
        base_end=base_end,
        partial_points=partial_points,
    )


class Pyramid:
    """A bounded window of base values that serves multi-resolution views.

    Parameters
    ----------
    capacity:
        Base values retained (the sliding window; older values are evicted).
    level_ratios:
        Rollup bucket sizes a view may serve from.  Ratio 1 is always
        present; the remaining ratios should grow geometrically (the default
        1/4/16/64 keeps every view's residual re-bucket small).
    """

    def __init__(self, capacity: int, level_ratios=DEFAULT_LEVEL_RATIOS) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.level_ratios = _level_ratios(level_ratios)
        self._values = RollingArray(capacity)
        self._times = RollingArray(capacity)
        self._appended = 0

    # -- ingest ----------------------------------------------------------------

    @property
    def total_appended(self) -> int:
        """Base values ever ingested — the version counter for view caches."""
        return self._appended

    def append(self, value: float, timestamp: float | None = None) -> None:
        """Fold one base value in (convenience wrapper over :meth:`extend`)."""
        self.extend([value], None if timestamp is None else [timestamp])

    def extend(self, values, timestamps=None) -> None:
        """Append a batch of base values, evicting beyond ``capacity``.

        *timestamps* defaults to the global base index (as float64), so a
        pyramid fed values alone still has a consistent time axis.
        """
        vs = np.asarray(values, dtype=np.float64)
        if vs.ndim != 1:
            raise ValueError(f"expected a 1-D batch, got shape {vs.shape}")
        if timestamps is None:
            ts = np.arange(self._appended, self._appended + vs.size, dtype=np.float64)
        else:
            ts = np.asarray(timestamps, dtype=np.float64)
            if ts.shape != vs.shape:
                raise ValueError(
                    f"timestamps and values must have equal lengths, "
                    f"got {ts.size} and {vs.size}"
                )
        keep = min(vs.size, self.capacity)
        self._values.append_many(np.ascontiguousarray(vs[vs.size - keep :]))
        self._times.append_many(np.ascontiguousarray(ts[ts.size - keep :]))
        overflow = len(self._values) - self.capacity
        if overflow > 0:
            self._values.popleft(overflow)
            self._times.popleft(overflow)
        self._appended += vs.size

    def clear(self) -> None:
        """Drop all state (e.g. the consumer's window was reset)."""
        self._values.clear()
        self._times.clear()
        self._appended = 0

    @classmethod
    def build_from(
        cls,
        values,
        timestamps=None,
        capacity: int | None = None,
        level_ratios=DEFAULT_LEVEL_RATIOS,
    ) -> "Pyramid":
        """Construct a pyramid over a full history in one call.

        *capacity* defaults to the history length (retain everything).
        """
        vs = np.asarray(values, dtype=np.float64)
        if vs.ndim != 1:
            raise ValueError(f"expected a 1-D history, got shape {vs.shape}")
        if capacity is None:
            capacity = max(vs.size, 1)
        pyramid = cls(capacity=capacity, level_ratios=level_ratios)
        pyramid.extend(vs, timestamps)
        return pyramid

    # -- serialization ---------------------------------------------------------

    def state_dict(self) -> dict:
        """The retained window and the append counter (exact resume)."""
        return {
            "capacity": self.capacity,
            "level_ratios": list(self.level_ratios),
            "values": self._values.view().copy(),
            "timestamps": self._times.view().copy(),
            "total_appended": self._appended,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Pyramid":
        """Rebuild a pyramid from :meth:`state_dict` output."""
        pyramid = cls(
            capacity=int(state["capacity"]),
            level_ratios=tuple(int(r) for r in state["level_ratios"]),
        )
        pyramid._values.append_many(np.asarray(state["values"], dtype=np.float64))
        pyramid._times.append_many(np.asarray(state["timestamps"], dtype=np.float64))
        pyramid._appended = int(state["total_appended"])
        return pyramid

    # -- introspection ---------------------------------------------------------

    @property
    def window_start(self) -> int:
        """Global base index of the oldest retained base value."""
        return self._appended - len(self._values)

    @property
    def window_length(self) -> int:
        """Base values currently retained."""
        return len(self._values)

    def base_values(self) -> np.ndarray:
        """The retained base window, oldest first (a copy)."""
        return self._values.view().copy()

    def base_timestamps(self) -> np.ndarray:
        return self._times.view().copy()

    def __repr__(self) -> str:
        return (
            f"Pyramid(capacity={self.capacity}, ratios={self.level_ratios}, "
            f"window={self.window_length}, appended={self.total_appended})"
        )

    # -- view resolution -------------------------------------------------------

    def view_ratio(self, resolution: int) -> int:
        """The point-to-pixel ratio a view at *resolution* uses right now.

        Delegates to the direct pipeline's one rule
        (:func:`repro.core.preaggregation.expected_ratio`): 1 below the
        oversampling threshold, ``floor(window / resolution)`` above it.
        """
        return expected_ratio(self.window_length, resolution)

    def resolve_level(self, ratio: int) -> tuple[int, int]:
        """``(level_ratio, residual)`` a view at effective *ratio* serves from.

        The nearest coarser level whose ratio divides the requested one and
        whose window-aligned buckets can fill at least one view bucket right
        now; ratio 1 always qualifies.  This is the selection :meth:`view`
        makes (one shared plan), so predicting a view's serving level is
        reliable.
        """
        plan = _serving_plan(self.window_length, self.window_start, ratio, self.level_ratios)
        return plan[0], plan[1]

    def view(self, spec: ViewSpec | int) -> PyramidView:
        """Resolve one client view; see :func:`resolve_view`."""
        return resolve_view(
            self._values.view(), self._times.view(), self.window_start, spec, self.level_ratios
        )
