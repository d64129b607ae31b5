"""Piecewise Aggregate Approximation (Keogh et al., KAIS 2001).

PAA reduces a series to *k* segments, each represented by its mean.  It was
designed for indexing/similarity search rather than visualization, but the
paper uses PAA100 and PAA800 as user-study baselines (Section 5.1): PAA with
few segments is effectively aggressive uniform smoothing, PAA with many
segments is close to the raw plot at study resolution.
"""

from __future__ import annotations

import numpy as np

from ..timeseries.series import TimeSeries

__all__ = ["paa", "paa_series"]


def paa(values, segments: int) -> np.ndarray:
    """Mean of each of *segments* near-equal contiguous chunks.

    Segment boundaries follow the standard PAA convention
    ``bounds[j] = floor(j * n / k)`` so lengths differ by at most one point
    when ``k`` does not divide ``n``.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-D series")
    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    if segments >= arr.size:
        return arr.copy()
    bounds = (np.arange(segments + 1) * arr.size) // segments
    prefix = np.concatenate(([0.0], np.cumsum(arr)))
    sums = prefix[bounds[1:]] - prefix[bounds[:-1]]
    counts = (bounds[1:] - bounds[:-1]).astype(np.float64)
    return sums / counts


def paa_series(series: TimeSeries, segments: int) -> TimeSeries:
    """PAA-reduce a :class:`TimeSeries`; timestamps are segment midpoints."""
    reduced = paa(series.values, segments)
    if reduced.size == len(series):
        return series
    bounds = (np.arange(segments + 1) * len(series)) // segments
    mids = ((bounds[:-1] + bounds[1:] - 1) // 2).astype(np.int64)
    return TimeSeries(
        reduced, series.timestamps[mids], name=f"{series.name}:paa({segments})"
    )
