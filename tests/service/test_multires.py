"""Tests for StreamHub multi-resolution serving (snapshot(resolution=...))."""

from __future__ import annotations

import numpy as np
import pytest

from repro import smooth
from repro.core.preaggregation import bucket_means
from repro.service import HubError, ResolutionSnapshot, StreamHub
from repro.spec import AsapSpec, SpecError
from repro.timeseries import TimeSeries


def make_hub(n: int = 24_000, seed: int = 5, **config):
    defaults = dict(pane_size=6, resolution=1024, refresh_interval=32)
    defaults.update(config)
    hub = StreamHub(default_config=AsapSpec(**defaults))
    sid = hub.create_stream("metric")
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    values = np.sin(2 * np.pi * t / 700) + 0.3 * rng.normal(size=n)
    for start in range(0, n, 1536):
        hub.ingest(sid, t[start : start + 1536], values[start : start + 1536])
        hub.tick()
    return hub, sid


class TestResolutionSnapshot:
    def test_returns_resolution_snapshot(self):
        hub, sid = make_hub()
        snap = hub.snapshot(sid, resolution=128)
        assert isinstance(snap, ResolutionSnapshot)
        assert snap.resolution == 128
        assert snap.window >= 1
        assert snap.series.values.size >= 1

    def test_equivalent_to_direct_pipeline_on_preaggregated_span(self):
        # The acceptance criterion: the snapshot must equal running the
        # from-scratch operator on the directly pre-aggregated series.
        hub, sid = make_hub()
        operator = hub._sessions["metric"].operator
        for resolution in (64, 100, 128, 256, 500):
            snap = hub.snapshot(sid, resolution=resolution)
            base = operator.aggregated_values()
            times = operator.aggregated_timestamps()
            window_start = operator.panes_completed - operator.pane_count
            start = snap.base_start - window_start
            stop = snap.base_end - window_start
            direct_values = bucket_means(base[start:stop], snap.ratio)
            direct_times = times[start:stop:snap.ratio][: direct_values.size]
            direct = smooth(
                TimeSeries(direct_values, direct_times), use_preaggregation=False
            )
            assert direct.window == snap.window
            scale = max(1.0, float(np.abs(direct.series.values).max()))
            assert (
                np.abs(direct.series.values - snap.series.values).max() <= 1e-9 * scale
            )

    def test_window_unit_translations(self):
        hub, sid = make_hub()
        snap = hub.snapshot(sid, resolution=128)
        assert snap.window_base_units == snap.window * snap.ratio
        assert snap.window_original_units == snap.window * snap.ratio * 6  # pane_size

    def test_many_widths_one_session(self):
        hub, sid = make_hub()
        widths = (64, 100, 128, 256)
        snaps = [hub.snapshot(sid, resolution=w) for w in widths]
        ratios = {snap.ratio for snap in snaps}
        assert len(ratios) == len(widths)  # genuinely different views
        assert hub.stats.views_served == len(widths)
        assert len(hub) == 1  # still one session

    def test_view_cache_until_new_panes(self):
        hub, sid = make_hub()
        first = hub.snapshot(sid, resolution=100)
        second = hub.snapshot(sid, resolution=100)
        assert second is first
        assert hub.stats.view_cache_hits == 1
        # New data invalidates the cache.
        t = np.arange(24_000, 24_600, dtype=np.float64)
        hub.ingest(sid, t, np.zeros(t.size))
        hub.tick()
        third = hub.snapshot(sid, resolution=100)
        assert third is not first

    def test_session_max_window_bounds_views_in_pane_units(self):
        hub, sid = make_hub(max_window=40)
        for resolution in (64, 256, 500):
            snap = hub.snapshot(sid, resolution=resolution)
            assert snap.window_base_units <= 40 or snap.window == 1

    def test_max_window_too_small_serves_unsmoothed(self):
        hub, sid = make_hub(max_window=5)
        snap = hub.snapshot(sid, resolution=64)  # ratio 16 > max_window
        assert snap.window == 1
        assert snap.search is None
        assert snap.series.values.size == snap.view_length

    def test_view_cache_bounded_and_stale_purged(self):
        hub, sid = make_hub()
        session = hub._sessions["metric"]
        for width in range(10, 10 + 2 * StreamHub.MAX_CACHED_VIEWS_PER_SESSION):
            hub.snapshot(sid, resolution=width)
        assert len(session.view_cache) <= StreamHub.MAX_CACHED_VIEWS_PER_SESSION
        # New data makes every cached entry stale; the next insert purges them.
        t = np.arange(24_000, 24_600, dtype=np.float64)
        hub.ingest(sid, t, np.zeros(t.size))
        hub.tick()
        hub.snapshot(sid, resolution=100)
        assert len(session.view_cache) == 1

    def test_include_partial(self):
        hub, sid = make_hub()
        snap = hub.snapshot(sid, resolution=100, include_partial=True)
        if snap.partial_points:
            assert snap.base_end - snap.base_start > snap.ratio * (snap.view_length - 1)

    def test_legacy_snapshot_unchanged(self):
        hub, sid = make_hub()
        snap = hub.snapshot(sid)
        assert snap.stream_id == sid
        assert snap.panes == 1024


class TestErrors:
    def test_pyramid_disabled_names_remediation(self):
        # Every session serves views; the retired switch is an unknown field
        # whose error lists the fields a spec does take.
        hub, _sid = make_hub(n=100)
        with pytest.raises(SpecError, match=r"unknown spec field\(s\): pyramid; known fields"):
            hub.create_stream(pyramid=False)

    def test_insufficient_data(self):
        hub = StreamHub(default_config=AsapSpec(pane_size=1, resolution=100))
        sid = hub.create_stream()
        hub.ingest(sid, np.arange(5.0), np.ones(5))
        with pytest.raises(HubError, match="ingest more data"):
            hub.snapshot(sid, resolution=2)

    def test_bad_resolution(self):
        hub, sid = make_hub()
        with pytest.raises(HubError, match=">= 1"):
            hub.snapshot(sid, resolution=0)


class TestPaneBudgetValidation:
    def test_message_names_both_remedies(self):
        hub = StreamHub(max_panes_per_session=256)
        with pytest.raises(HubError, match="raise the hub's max_panes_per_session"):
            hub.create_stream(resolution=1000)
        with pytest.raises(HubError, match="lower the stream's resolution"):
            hub.create_stream(resolution=257)

    def test_boundary_resolution_equal_to_budget_accepted(self):
        hub = StreamHub(max_panes_per_session=256)
        sid = hub.create_stream(resolution=256)
        assert sid in hub
        assert hub.snapshot(sid).config.resolution == 256

    def test_explicit_default_config_over_budget_fails_fast(self):
        with pytest.raises(HubError, match="max_panes_per_session"):
            StreamHub(
                max_panes_per_session=100,
                default_config=AsapSpec(resolution=200),
            )

    def test_builtin_default_config_not_preemptively_validated(self):
        # A small pane budget with per-stream resolutions keeps working.
        hub = StreamHub(max_panes_per_session=256)
        assert hub.create_stream(resolution=128) in hub
