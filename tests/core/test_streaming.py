"""Tests for streaming ASAP (Algorithm 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import smooth
from repro.core.streaming import Frame, StreamingASAP
from repro.stream.operators import run_stream
from repro.stream.sources import ReplaySource, StreamPoint
from repro.timeseries import TimeSeries

from research_spec import research_spec


def stream_series(operator, series):
    return list(run_stream(operator, ReplaySource(series)))


class TestRefreshCadence:
    def test_frames_emitted_every_interval(self, periodic_series):
        series = TimeSeries(periodic_series)
        operator = StreamingASAP(research_spec(pane_size=4, resolution=300, refresh_interval=25))
        frames = stream_series(operator, series)
        # 2400 points / 4 per pane = 600 panes -> one frame per 25 panes,
        # minus the warm-up frames skipped below the minimum pane count.
        assert 20 <= len(frames) <= 24
        assert all(isinstance(f, Frame) for f in frames)

    def test_no_frames_below_minimum_panes(self):
        operator = StreamingASAP(research_spec(pane_size=1, resolution=100, refresh_interval=1))
        for i in range(7):
            assert operator.push(StreamPoint(float(i), 1.0 * i)) == ()

    def test_flush_emits_pending_frame(self, periodic_series):
        series = TimeSeries(periodic_series[:500])
        operator = StreamingASAP(
            research_spec(pane_size=1, resolution=600, refresh_interval=10_000)
        )
        frames = []
        for point in ReplaySource(series):
            frames.extend(operator.push(point))
        assert frames == []
        flushed = list(operator.flush())
        assert len(flushed) == 1

    def test_flush_is_noop_when_aligned(self, periodic_series):
        series = TimeSeries(periodic_series[:100])
        operator = StreamingASAP(research_spec(pane_size=1, resolution=200, refresh_interval=50))
        stream_series(operator, series)
        assert list(operator.flush()) == []

    def test_refresh_interval_validated(self):
        with pytest.raises(ValueError):
            StreamingASAP(research_spec(pane_size=1, refresh_interval=0))


class TestWindowQuality:
    def test_final_frame_matches_batch(self, periodic_series):
        # Once the full series is in the window, the streamed search must
        # agree with a batch search over the same aggregates.
        series = TimeSeries(periodic_series)
        operator = StreamingASAP(research_spec(pane_size=2, resolution=1200, refresh_interval=50))
        frames = stream_series(operator, series)
        # Compare against batch on the aggregated stream: pane_size 2 halves
        # the series, so smooth the bucket means directly.
        aggregated = periodic_series.reshape(-1, 2).mean(axis=1)
        batch_agg = smooth(aggregated, resolution=1200, use_preaggregation=False)
        assert frames[-1].window == batch_agg.window

    def test_frames_track_regime_change(self, rng):
        # A stream that shifts from period-20 to aperiodic noise should
        # adapt its window after the change floods the buffer.
        t = np.arange(3000, dtype=np.float64)
        periodic = np.sin(2 * np.pi * t / 20)[:1500] + 0.2 * rng.normal(size=1500)
        noise = rng.normal(size=1500)
        series = TimeSeries(np.concatenate([periodic, noise]))
        operator = StreamingASAP(research_spec(pane_size=1, resolution=1000, refresh_interval=100))
        frames = stream_series(operator, series)
        early = frames[len(frames) // 3]
        late = frames[-1]
        assert early.window != late.window

    def test_frame_series_is_smoothed_window(self, periodic_series):
        series = TimeSeries(periodic_series)
        operator = StreamingASAP(research_spec(pane_size=2, resolution=400, refresh_interval=100))
        frames = stream_series(operator, series)
        last = frames[-1]
        assert len(last.series) <= 400
        assert last.search.window == last.window


class TestCounters:
    def test_counters_accumulate(self, periodic_series):
        series = TimeSeries(periodic_series)
        operator = StreamingASAP(research_spec(pane_size=2, resolution=400, refresh_interval=50))
        frames = stream_series(operator, series)
        assert operator.refresh_count == len(frames)
        assert operator.searches_run == len(frames)
        assert operator.candidates_evaluated >= len(frames)
        assert operator.points_ingested == len(series)

    def test_reset_clears_state(self, periodic_series):
        series = TimeSeries(periodic_series[:600])
        operator = StreamingASAP(research_spec(pane_size=1, resolution=300, refresh_interval=20))
        stream_series(operator, series)
        operator.reset()
        assert operator.points_ingested == 0
        assert operator.push(StreamPoint(0.0, 1.0)) == ()


class TestConfigurations:
    def test_exhaustive_strategy_works(self, periodic_series):
        series = TimeSeries(periodic_series[:800])
        operator = StreamingASAP(
            research_spec(pane_size=1, resolution=900, refresh_interval=200, strategy="exhaustive")
        )
        frames = stream_series(operator, series)
        assert frames

    def test_seeding_preserves_window_quality(self, periodic_series):
        # CHECKLASTWINDOW reuses the previous feasible window to seed pruning
        # (Section 4.5); the selected windows must not degrade relative to
        # fresh searches, and the only extra evaluations are the per-refresh
        # revalidation smooths.
        series = TimeSeries(periodic_series)

        def run(seed_from_previous):
            operator = StreamingASAP(
                research_spec(
                    pane_size=1,
                    resolution=2400,
                    refresh_interval=200,
                    seed_from_previous=seed_from_previous,
                )
            )
            frames = stream_series(operator, series)
            return [f.window for f in frames], operator.candidates_evaluated

        seeded_windows, seeded_evals = run(True)
        fresh_windows, fresh_evals = run(False)
        assert seeded_windows[-1] == fresh_windows[-1]
        assert seeded_evals <= fresh_evals + len(seeded_windows) + 2

    def test_max_window_respected(self, periodic_series):
        series = TimeSeries(periodic_series)
        operator = StreamingASAP(
            research_spec(pane_size=1, resolution=2400, refresh_interval=300, max_window=15)
        )
        frames = stream_series(operator, series)
        assert all(f.window <= 15 for f in frames)
