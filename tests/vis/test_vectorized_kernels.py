"""Bit-identity of the vectorized vis kernels vs their scalar references.

The per-column Python loops of the raster/reduction path (column extents,
polyline bridging, M4 selection) were replaced by segmented reductions and
shifted comparisons; these tests pin each one against a straight port of the
original loop, over structured and fuzzed inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.vis.m4 import m4_aggregate
from repro.vis.rasterize import _normalize, column_extents, pixel_columns, rasterize


def column_extents_reference(values, width, positions=None, x_range=None):
    """The original per-column loop, kept verbatim as the oracle."""
    arr = np.asarray(values, dtype=np.float64)
    cols = pixel_columns(arr.size, width, positions=positions, x_range=x_range)
    extents = np.full((width, 2), np.nan)
    for col in range(width):
        mask = cols == col
        if np.any(mask):
            segment = arr[mask]
            extents[col, 0] = segment.min()
            extents[col, 1] = segment.max()
    populated = ~np.isnan(extents[:, 0])
    if not np.all(populated):
        idx = np.arange(width)
        for axis in (0, 1):
            extents[~populated, axis] = np.interp(
                idx[~populated], idx[populated], extents[populated, axis]
            )
    return extents


def rasterize_reference(values, width, height, value_range=None, positions=None, x_range=None):
    """The original sequential bridging loop, kept verbatim as the oracle."""
    arr = np.asarray(values, dtype=np.float64)
    extents = column_extents(arr, width, positions=positions, x_range=x_range)
    if value_range is None:
        lo, hi = float(extents[:, 0].min()), float(extents[:, 1].max())
    else:
        lo, hi = value_range
    norm_lo = _normalize(extents[:, 0], lo, hi)
    norm_hi = _normalize(extents[:, 1], lo, hi)
    row_hi = np.clip(((1.0 - norm_lo) * (height - 1)).round().astype(int), 0, height - 1)
    row_lo = np.clip(((1.0 - norm_hi) * (height - 1)).round().astype(int), 0, height - 1)
    grid = np.zeros((height, width), dtype=bool)
    prev_lo = prev_hi = None
    for col in range(width):
        lo_px, hi_px = int(row_lo[col]), int(row_hi[col])
        if prev_hi is not None and lo_px > prev_hi:
            lo_px = prev_hi + 1
        elif prev_lo is not None and hi_px < prev_lo:
            hi_px = prev_lo - 1
        grid[lo_px : hi_px + 1, col] = True
        prev_lo, prev_hi = int(row_lo[col]), int(row_hi[col])
    return grid


def m4_reference(values, width):
    """The original per-column argmin/argmax loop, kept verbatim."""
    arr = np.asarray(values, dtype=np.float64)
    cols = pixel_columns(arr.size, width)
    boundaries = np.searchsorted(cols, np.arange(width + 1))
    keep_indices: list[int] = []
    for col in range(width):
        lo, hi = int(boundaries[col]), int(boundaries[col + 1])
        if lo == hi:
            continue
        segment = arr[lo:hi]
        chosen = {lo, lo + int(np.argmin(segment)), lo + int(np.argmax(segment)), hi - 1}
        keep_indices.extend(sorted(chosen))
    index_array = np.asarray(keep_indices, dtype=np.int64)
    return index_array, arr[index_array]


def scenarios():
    rng = np.random.default_rng(271828)
    for trial in range(25):
        n = int(rng.integers(1, 2500))
        width = int(rng.integers(1, 350))
        height = int(rng.integers(1, 90))
        values = rng.normal(size=n)
        if trial % 5 == 0:
            values = np.round(values)  # ties exercise first-occurrence rules
        if trial % 7 == 0:
            values[:] = 1.0  # constant series
        positions = x_range = None
        if trial % 3 == 0:
            positions = np.sort(rng.uniform(0.0, 1000.0, size=n))
            x_range = (0.0, 1000.0)
        yield trial, n, width, height, values, positions, x_range


@pytest.mark.parametrize(
    "trial, n, width, height, values, positions, x_range",
    list(scenarios()),
    ids=lambda v: None,
)
class TestBitIdentity:
    def test_column_extents(self, trial, n, width, height, values, positions, x_range):
        fast = column_extents(values, width, positions=positions, x_range=x_range)
        reference = column_extents_reference(
            values, width, positions=positions, x_range=x_range
        )
        assert np.array_equal(fast, reference, equal_nan=True)

    def test_rasterize(self, trial, n, width, height, values, positions, x_range):
        fast = rasterize(values, width, height, positions=positions, x_range=x_range)
        reference = rasterize_reference(
            values, width, height, positions=positions, x_range=x_range
        )
        assert np.array_equal(fast, reference)

    def test_m4(self, trial, n, width, height, values, positions, x_range):
        fast_idx, fast_vals = m4_aggregate(values, width)
        ref_idx, ref_vals = m4_reference(values, width)
        assert np.array_equal(fast_idx, ref_idx)
        assert np.array_equal(fast_vals, ref_vals)


class TestM4NaN:
    def test_nan_segments_match_argmin_convention(self, rng):
        # np.argmin/argmax return the first NaN's index; the segmented
        # reduction must reproduce that rather than crash.
        values = rng.normal(size=64)
        values[[5, 6, 40]] = np.nan
        fast_idx, fast_vals = m4_aggregate(values, 8)
        ref_idx, ref_vals = m4_reference(values, 8)
        assert np.array_equal(fast_idx, ref_idx)
        assert np.array_equal(fast_vals, ref_vals, equal_nan=True)
