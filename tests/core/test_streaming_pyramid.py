"""Tests for StreamingASAP's multi-resolution views (resolved from its pane window)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.preaggregation import bucket_means
from repro.core.streaming import StreamingASAP
from repro.pyramid import PyramidError, ViewSpec
from repro.spec import AsapSpec


def make_stream(n: int, seed: int = 11) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    return t, np.sin(2 * np.pi * t / 180) + 0.3 * rng.normal(size=n)


def drive(operator: StreamingASAP, ts, values, chunk: int = 257):
    frames = []
    for start in range(0, values.size, chunk):
        frames.extend(operator.push_many(ts[start : start + chunk], values[start : start + chunk]))
    return frames


class TestAttachment:
    def test_pyramid_true_builds_matching_capacity(self):
        # Views cover the operator's window: `resolution` panes once full.
        operator = StreamingASAP(AsapSpec(pane_size=4, resolution=200))
        ts, values = make_stream(4 * 500)
        drive(operator, ts, values)
        view = operator.pyramid_view(200)
        assert view.ratio == 1 and view.base_length == 200
        assert (view.base_start, view.base_end) == (300, 500)


class TestFeed:
    def test_pyramid_mirrors_window_after_sync(self):
        ts, values = make_stream(12_000)
        operator = StreamingASAP(
            AsapSpec(pane_size=5, resolution=400, refresh_interval=20)
        )
        drive(operator, ts, values)
        # A ratio-1 view is the window itself, timestamps included.
        view = operator.pyramid_view(operator.pane_count)
        assert view.ratio == 1
        assert np.array_equal(view.values, operator.aggregated_values())
        assert view.base_end == operator.panes_completed

    def test_view_matches_direct_bucketing_of_window(self):
        ts, values = make_stream(12_000)
        operator = StreamingASAP(
            AsapSpec(pane_size=5, resolution=400, refresh_interval=20)
        )
        drive(operator, ts, values)
        for resolution in (40, 55, 100, 199):
            view = operator.pyramid_view(resolution)
            base = operator.aggregated_values()
            start = view.base_start - (operator.panes_completed - operator.pane_count)
            direct = bucket_means(base[start : start + view.base_length], view.ratio)
            assert np.allclose(view.values, direct, rtol=0, atol=1e-9)

    def test_view_timestamps_are_pane_starts(self):
        ts, values = make_stream(4000)
        operator = StreamingASAP(
            AsapSpec(pane_size=4, resolution=500, refresh_interval=25)
        )
        drive(operator, ts, values)
        view = operator.pyramid_view(ViewSpec(100))
        # pane start timestamps step by pane_size; view buckets by ratio panes
        expected_step = 4 * view.ratio
        assert np.all(np.diff(view.timestamps) == expected_step)

    def test_frames_identical_with_and_without_pyramid(self):
        # Views are computed on demand: polling them between chunks changes
        # no frame of the operator that serves them.
        ts, values = make_stream(9000, seed=3)
        spec = AsapSpec(pane_size=3, resolution=300, refresh_interval=30)
        polled, plain = StreamingASAP(spec), StreamingASAP(spec)
        frames_a, frames_b = [], []
        for start in range(0, values.size, 257):
            chunk = slice(start, start + 257)
            frames_a.extend(polled.push_many(ts[chunk], values[chunk]))
            frames_b.extend(plain.push_many(ts[chunk], values[chunk]))
            if polled.pane_count:
                polled.pyramid_view(ViewSpec(max(polled.pane_count // 3, 1), True))
        assert len(frames_a) == len(frames_b) > 0
        for a, b in zip(frames_a, frames_b):
            assert a == b

    def test_reset_clears_pyramid(self):
        ts, values = make_stream(2000)
        operator = StreamingASAP(AsapSpec(pane_size=2, resolution=200))
        drive(operator, ts, values)
        operator.reset()
        with pytest.raises(PyramidError, match="empty"):
            operator.pyramid_view(50)
        operator.push_many(ts[:400] + 1e6, values[:400])
        assert operator.pyramid_view(50).base_start == 0

    def test_panes_completed_is_monotone_version(self):
        ts, values = make_stream(1000)
        operator = StreamingASAP(AsapSpec(pane_size=4, resolution=50))
        seen = []
        for start in range(0, 1000, 100):
            operator.push_many(ts[start : start + 100], values[start : start + 100])
            seen.append(operator.panes_completed)
        assert seen == sorted(seen)
        assert seen[-1] == 250  # includes panes evicted beyond the window
