"""Multi-resolution views: geometric rollup levels, resolved on demand.

A view at some pixel width is the window bucketed at the direct pipeline's
point-to-pixel ratio.  :func:`resolve_view` serves it in two stages: level
buckets at the coarsest geometric ratio of :data:`DEFAULT_LEVEL_RATIOS`
(1/4/16/64) that divides the view's ratio, then a residual re-bucket of
``ratio / level_ratio`` level buckets per view bucket.  Buckets are aligned to *global* base indices
(level bucket ``b`` always covers base values ``[b*level_ratio,
(b+1)*level_ratio)`` no matter when it was computed), so any two clients
asking for the same span get the same buckets.

Nothing is maintained between views.  Every bucket a view serves lies inside
the retained window, and :func:`~repro.core.preaggregation.bucket_means`
reduces each bucket on its own, so computing the level buckets when the view
is asked for gives the values an incrementally maintained level would hold,
bit for bit.  The consumer retains the window (the streaming operator's pane
buffer) and calls :func:`resolve_view` on it.
"""

from __future__ import annotations

import numpy as np

from ..core.preaggregation import bucket_means, expected_ratio
from .view import PyramidView, ViewSpec

__all__ = [
    "PyramidError",
    "DEFAULT_LEVEL_RATIOS",
    "resolve_view",
]

#: Geometric rollup ratios: each level buckets 4x coarser than the previous.
DEFAULT_LEVEL_RATIOS = (1, 4, 16, 64)


class PyramidError(RuntimeError):
    """A view cannot be served (e.g. the window is empty)."""


def _serving_plan(window_length: int, window_start: int, ratio: int) -> tuple[int, int, int, int]:
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
    divisors = [r for r in DEFAULT_LEVEL_RATIOS if r <= ratio and ratio % r == 0]
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
) -> PyramidView:
    """Resolve one client view over a retained window.

    *values*/*timestamps* are the window, oldest first, and *window_start*
    is the global base index of its first value.  The ratio is the direct
    pipeline's (:func:`~repro.core.preaggregation.expected_ratio`), the
    level one of :data:`DEFAULT_LEVEL_RATIOS`, and the values are
    ``bucket_means(bucket_means(window[span], level_ratio), residual)``
    over the bucket-aligned span the plan picks, so they equal
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
    level_ratio, residual, first, buckets = _serving_plan(n, window_start, ratio)
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
