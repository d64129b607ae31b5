"""Tests for the standalone multi-resolution window (repro.pyramid.Pyramid).

Views are resolved on demand from the retained base window, so the level
buckets a view serves are checked against direct bucketing of the same
global span, whatever chunking fed the window.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.preaggregation import bucket_means
from repro.pyramid import (
    DEFAULT_LEVEL_RATIOS,
    Pyramid,
    PyramidError,
    ViewSpec,
)


def feed_chunked(pyramid: Pyramid, values, seed: int = 0, max_chunk: int = 97) -> None:
    """Feed values in randomized chunk sizes."""
    rng = np.random.default_rng(seed)
    i = 0
    while i < len(values):
        step = int(rng.integers(1, max_chunk))
        pyramid.extend(values[i : i + step])
        i += step


def exact_level_view(pyramid: Pyramid, ratio: int):
    """A view whose ratio is exactly *ratio* (served from that level, residual 1)."""
    view = pyramid.view(ViewSpec(pyramid.window_length // ratio))
    assert (view.ratio, view.level_ratio, view.residual) == (ratio, ratio, 1)
    return view


class TestLevelMaintenance:
    def test_level_means_match_direct_bucketing_bit_for_bit(self, rng):
        values = rng.normal(size=4096)
        pyramid = Pyramid(capacity=4096)
        feed_chunked(pyramid, values, seed=1)
        for ratio in DEFAULT_LEVEL_RATIOS[1:]:
            view = exact_level_view(pyramid, ratio)
            expected = bucket_means(values, ratio)
            assert np.array_equal(view.values, expected)

    def test_carry_over_across_chunk_boundaries(self, rng):
        # Chunks of 1 put every bucket across extend calls.
        values = rng.normal(size=300)
        pyramid = Pyramid(capacity=300, level_ratios=(1, 7))
        for value in values:
            pyramid.append(value)
        view = pyramid.view(ViewSpec(300 // 7, include_partial=True))
        assert (view.ratio, view.level_ratio) == (7, 7)
        assert np.array_equal(view.values[:-1], bucket_means(values, 7))
        assert view.partial_points == 300 % 7
        bulk = Pyramid.build_from(values, level_ratios=(1, 7))
        assert bulk.view(ViewSpec(300 // 7, include_partial=True)).values.tobytes() == (
            view.values.tobytes()
        )

    def test_base_level_mirrors_window(self, rng):
        values = rng.normal(size=1000)
        pyramid = Pyramid(capacity=256)
        feed_chunked(pyramid, values, seed=2)
        assert np.array_equal(pyramid.base_values(), values[-256:])
        assert pyramid.window_start == 1000 - 256
        assert pyramid.total_appended == 1000

    def test_eviction_keeps_alignment(self, rng):
        values = rng.normal(size=10_000)
        pyramid = Pyramid(capacity=512)
        feed_chunked(pyramid, values, seed=3)
        for ratio in (4, 16, 64):
            view = exact_level_view(pyramid, ratio)
            # View bucket b covers values[b*ratio : (b+1)*ratio] globally.
            assert view.base_start % ratio == 0
            assert view.base_start >= pyramid.window_start
            expected = bucket_means(values[view.base_start : view.base_end], ratio)
            assert np.array_equal(view.values, expected)

    def test_default_timestamps_are_global_indices(self):
        pyramid = Pyramid(capacity=64, level_ratios=(1, 4))
        pyramid.extend(np.ones(10))
        pyramid.extend(np.ones(10))
        assert np.array_equal(pyramid.base_timestamps(), np.arange(20.0))
        assert np.array_equal(pyramid.view(5).timestamps, [0.0, 4.0, 8.0, 12.0, 16.0])

    def test_explicit_timestamps(self):
        pyramid = Pyramid(capacity=64, level_ratios=(1, 3))
        pyramid.extend([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        view = pyramid.view(2)
        assert np.array_equal(view.timestamps, [10.0, 40.0])
        assert np.array_equal(view.values, [2.0, 5.0])

    def test_clear(self, rng):
        pyramid = Pyramid(capacity=64)
        pyramid.extend(rng.normal(size=100))
        pyramid.clear()
        assert pyramid.total_appended == 0
        assert pyramid.window_length == 0
        with pytest.raises(PyramidError, match="empty"):
            pyramid.view(4)


class TestValidation:
    def test_capacity_and_ratio_validation(self):
        with pytest.raises(ValueError):
            Pyramid(capacity=0)
        with pytest.raises(ValueError):
            Pyramid(capacity=10, level_ratios=(0, 4))

    def test_ratio_one_always_present(self):
        pyramid = Pyramid(capacity=16, level_ratios=(4, 16))
        assert pyramid.level_ratios[0] == 1

    def test_mismatched_timestamps_rejected(self):
        pyramid = Pyramid(capacity=16)
        with pytest.raises(ValueError, match="equal lengths"):
            pyramid.extend([1.0, 2.0], [0.0])

    def test_empty_view_rejected(self):
        with pytest.raises(PyramidError, match="empty"):
            Pyramid(capacity=16).view(4)
