"""Tests for view resolution: ViewSpec -> level + residual re-bucket.

Every view is resolved by :func:`repro.pyramid.resolve_view` over a retained
window (values, timestamps and the global base index of its first value), the
call the streaming operator makes on its pane window.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from repro.core.preaggregation import MIN_OVERSAMPLING, bucket_means, preaggregate
from repro.pyramid import DEFAULT_LEVEL_RATIOS, PyramidError, ViewSpec, resolve_view


class Window(NamedTuple):
    values: np.ndarray
    timestamps: np.ndarray
    start: int

    def view(self, spec):
        return resolve_view(self.values, self.timestamps, self.start, spec)

    def span(self, view) -> np.ndarray:
        """The window values the view claims to cover."""
        return self.values[view.base_start - self.start : view.base_end - self.start]


def trailing_window(history: np.ndarray, capacity: int) -> Window:
    """The last *capacity* values of *history*, timestamped by global index."""
    start = max(history.size - capacity, 0)
    return Window(history[start:], np.arange(start, history.size, dtype=np.float64), start)


def view_at_ratio(window: Window, ratio: int):
    """A view whose point-to-pixel ratio is exactly *ratio*."""
    view = window.view(window.values.size // ratio)
    assert view.ratio == ratio
    return view


@pytest.fixture(scope="module")
def window():
    rng = np.random.default_rng(42)
    values = np.sin(np.arange(7000) / 30.0) + 0.2 * rng.normal(size=7000)
    return trailing_window(values, 2000)


class TestViewSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ViewSpec(resolution=0)

    def test_int_shorthand(self, window):
        assert np.array_equal(window.view(100).values, window.view(ViewSpec(100)).values)

    def test_empty_window_rejected(self):
        with pytest.raises(PyramidError, match="empty"):
            resolve_view(np.empty(0), np.empty(0), 0, 4)


class TestResolveLevel:
    def test_exact_level_hit(self, window):
        for ratio in (16, 64):
            view = view_at_ratio(window, ratio)
            assert (view.level_ratio, view.residual) == (ratio, 1)

    @pytest.mark.parametrize("ratio, level", [(32, 16), (12, 4)])
    def test_residual_rebucket(self, window, ratio, level):
        view = view_at_ratio(window, ratio)
        assert (view.level_ratio, view.residual) == (level, ratio // level)

    @pytest.mark.parametrize("ratio", [1, 2, 3, 5, 6, 8, 20, 24, 40, 48, 80, 100])
    def test_plan_picks_coarsest_dividing_level(self, window, ratio):
        view = view_at_ratio(window, ratio)
        coarsest = max(r for r in DEFAULT_LEVEL_RATIOS if ratio % r == 0)
        assert (view.level_ratio, view.residual) == (coarsest, ratio // coarsest)
        assert view.base_start % coarsest == 0
        assert (view.base_end - view.base_start) % ratio == 0
        direct = bucket_means(window.span(view), ratio)
        if view.residual == 1 or view.level_ratio == 1:
            assert view.values.tobytes() == direct.tobytes()
        else:
            np.testing.assert_allclose(view.values, direct, rtol=0, atol=1e-9)

    def test_falls_back_to_base_when_nothing_divides(self, window):
        for ratio in (10, 7):
            view = view_at_ratio(window, ratio)
            assert (view.level_ratio, view.residual) == (1, ratio)

    def test_degrades_when_head_alignment_leaves_no_bucket(self):
        # Four values from global index 1: level 4 would start at index 4 and
        # cannot fill one bucket, so the view re-buckets the base level.
        values = np.array([1.0, 2.0, 4.0, 8.0])
        view = resolve_view(values, np.arange(1.0, 5.0), 1, 1)
        assert (view.ratio, view.level_ratio, view.residual) == (4, 1, 4)
        assert (view.base_start, view.base_end) == (1, 5)
        assert np.array_equal(view.values, bucket_means(values, 4))

    def test_ratio_matches_direct_pipeline_rule(self, window):
        n = window.values.size
        for resolution in (10, 100, 999, n // 2, n, 2 * n):
            expected = preaggregate(np.zeros(n), resolution).ratio
            assert window.view(resolution).ratio == expected


class TestLevelBuckets:
    def test_level_means_match_direct_bucketing_bit_for_bit(self, rng):
        window = trailing_window(rng.normal(size=4096), 4096)
        for ratio in DEFAULT_LEVEL_RATIOS[1:]:
            view = view_at_ratio(window, ratio)
            assert (view.level_ratio, view.residual) == (ratio, 1)
            assert np.array_equal(view.values, bucket_means(window.values, ratio))

    def test_buckets_align_to_global_indices(self, rng):
        history = rng.normal(size=10_000)
        window = trailing_window(history, 512)
        for ratio in (4, 16, 64):
            view = view_at_ratio(window, ratio)
            # View bucket b covers history[b*ratio : (b+1)*ratio] globally.
            assert view.base_start % ratio == 0
            assert view.base_start >= window.start
            expected = bucket_means(history[view.base_start : view.base_end], ratio)
            assert np.array_equal(view.values, expected)

    def test_explicit_timestamps(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        timestamps = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        view = resolve_view(values, timestamps, 0, 2)
        assert (view.ratio, view.level_ratio) == (3, 1)
        assert np.array_equal(view.timestamps, [10.0, 40.0])
        assert np.array_equal(view.values, [2.0, 5.0])

    def test_partial_tail_at_a_level(self, rng):
        values = rng.normal(size=300)
        window = trailing_window(values, 300)
        view = window.view(ViewSpec(300 // 4, include_partial=False))
        assert (view.ratio, view.level_ratio, view.partial_points) == (4, 4, 0)
        partial = window.view(ViewSpec(300 // 16, include_partial=True))
        assert (partial.ratio, partial.level_ratio) == (16, 16)
        assert partial.partial_points == 300 % 16
        assert np.array_equal(partial.values[:-1], bucket_means(values, 16))
        assert partial.values[-1] == values[-(300 % 16) :].mean()


class TestViewEquivalence:
    @pytest.mark.parametrize("resolution", [25, 31, 50, 100, 125, 333, 500, 999])
    def test_values_match_direct_bucketing(self, window, resolution):
        view = window.view(resolution)
        direct = bucket_means(window.span(view), view.ratio)
        assert view.values.size == direct.size
        scale = max(1.0, float(np.abs(direct).max()))
        assert np.abs(view.values - direct).max() <= 1e-9 * scale
        if view.level_ratio == 1 or view.residual == 1:
            assert np.array_equal(view.values, direct)

    @pytest.mark.parametrize("resolution", [25, 100, 333])
    def test_include_partial_matches_direct(self, window, resolution):
        view = window.view(ViewSpec(resolution, include_partial=True))
        direct = bucket_means(window.span(view), view.ratio, include_partial=True)
        assert view.values.size == direct.size
        assert np.allclose(view.values, direct, rtol=0, atol=1e-9)
        if view.partial_points:
            # The partial bucket is always recomputed from raw base values.
            assert view.values[-1] == direct[-1]

    def test_below_oversampling_serves_raw_window(self, window):
        view = window.view(window.values.size)  # window < 2 * resolution
        assert view.ratio == 1 and not view.applied
        assert np.array_equal(view.values, window.values)

    def test_bucket_count_matches_preaggregate_up_to_alignment(self, window):
        # A view may trim < level_ratio head values for bucket alignment,
        # so its bucket count is within one of the direct path's.
        for resolution in (50, 100, 250):
            view = window.view(resolution)
            direct = preaggregate(window.values, resolution)
            assert direct.ratio == view.ratio
            assert abs(int(direct.values.size) - int(view.values.size)) <= 1

    def test_view_metadata(self, window):
        view = window.view(100)
        assert view.base_length == view.values.size * view.ratio
        assert view.base_start % view.level_ratio == 0
        assert view.timestamps.size == view.values.size
        # timestamps are the first base timestamp of each bucket
        assert view.timestamps[0] == window.timestamps[view.base_start - window.start]

    def test_window_round_trip(self, window):
        view = window.view(100)
        for size in (1, 2, 5, view.values.size // 10):
            original = view.window_in_original_units(size)
            assert original == size * view.ratio
            assert original // view.ratio == size

    def test_oversampling_threshold_matches_direct(self):
        # Exactly at the threshold the ratio engages, below it it does not —
        # the same MIN_OVERSAMPLING rule as preaggregate.
        assert trailing_window(np.arange(160.0), 160).view(80).ratio == MIN_OVERSAMPLING
        assert trailing_window(np.arange(159.0), 159).view(80).ratio == 1
