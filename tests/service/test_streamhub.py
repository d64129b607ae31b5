"""Tests for the multi-tenant StreamHub serving layer."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.streaming import StreamingASAP
from repro.service import (
    HubAtCapacityError,
    HubError,
    StreamHub,
    UnknownStreamError,
)
from repro.spec import AsapSpec
from repro.stream.sources import StreamPoint


def make_streams(n_streams: int, length: int, seed: int = 11) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    streams = []
    t = np.arange(length, dtype=np.float64)
    for _ in range(n_streams):
        period = float(rng.integers(8, 40))
        streams.append(np.sin(2 * np.pi * t / period) + 0.3 * rng.normal(size=length))
    return streams


def drive_baseline(config: AsapSpec, values: np.ndarray) -> list:
    operator = StreamingASAP(
        AsapSpec(
            pane_size=config.pane_size,
            resolution=config.resolution,
            refresh_interval=config.refresh_interval,
            strategy=config.strategy,
            max_window=config.max_window,
            seed_from_previous=config.seed_from_previous,
        )
    )
    frames = []
    for i, v in enumerate(values):
        frames.extend(operator.push(StreamPoint(float(i), float(v))))
    return frames


def drive_hub(hub: StreamHub, ids: list[str], streams: list[np.ndarray], chunk: int):
    length = streams[0].size
    ts = np.arange(length, dtype=np.float64)
    frames: dict[str, list] = {sid: [] for sid in ids}
    i = 0
    while i < length:
        for sid, values in zip(ids, streams):
            frames[sid].extend(hub.ingest(sid, ts[i : i + chunk], values[i : i + chunk]))
        emitted = hub.tick()
        for sid in ids:
            frames[sid].extend(emitted.get(sid, []))
        i += chunk
    return frames


def assert_frames_equivalent(fresh, hub_frames):
    assert len(fresh) == len(hub_frames)
    for a, b in zip(fresh, hub_frames):
        assert a.window == b.window
        assert a.points_ingested == b.points_ingested
        assert np.array_equal(a.series.values, b.series.values)
        assert a.search.roughness == pytest.approx(b.search.roughness, rel=1e-9, abs=1e-9)


class TestLifecycle:
    def test_create_ingest_close(self):
        hub = StreamHub(default_config=AsapSpec(resolution=100))
        sid = hub.create_stream()
        assert sid in hub and len(hub) == 1
        frames = hub.ingest(sid, np.arange(30.0), np.sin(np.arange(30.0)))
        assert isinstance(frames, list)
        final = hub.close(sid)
        assert sid not in hub
        assert isinstance(final, list)
        with pytest.raises(UnknownStreamError):
            hub.close(sid)
        with pytest.raises(UnknownStreamError):
            hub.ingest(sid, [0.0], [1.0])

    def test_explicit_and_duplicate_ids(self):
        hub = StreamHub()
        assert hub.create_stream("cpu.load") == "cpu.load"
        with pytest.raises(HubError):
            hub.create_stream("cpu.load")
        auto = hub.create_stream()
        assert auto != "cpu.load"

    def test_config_overrides(self):
        hub = StreamHub(default_config=AsapSpec(pane_size=1, resolution=200))
        sid = hub.create_stream(pane_size=4, refresh_interval=5)
        snapshot = hub.snapshot(sid)
        assert snapshot.config.pane_size == 4
        assert snapshot.config.refresh_interval == 5
        assert snapshot.config.resolution == 200

    def test_snapshot_reflects_progress(self):
        hub = StreamHub(default_config=AsapSpec(resolution=50, refresh_interval=10))
        sid = hub.create_stream()
        hub.ingest(sid, np.arange(25.0), np.sin(np.arange(25.0)))
        snapshot = hub.snapshot(sid)
        assert snapshot.points_ingested == 25
        assert snapshot.panes == 25
        assert snapshot.refresh_count >= 1
        assert snapshot.stream_id == sid

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamHub(max_sessions=0)
        with pytest.raises(ValueError):
            StreamHub(max_panes_per_session=0)
        with pytest.raises(ValueError):
            StreamHub(eviction_policy="fifo")
        with pytest.raises(ValueError):
            StreamHub(idle_ticks_before_eviction=0)


class TestParityWithLoopedStreaming:
    def test_hub_frames_match_looped_operators(self):
        # The headline contract: a hub serving N streams emits, per stream,
        # exactly the frames an independent per-point StreamingASAP would.
        config = AsapSpec(pane_size=2, resolution=150, refresh_interval=15)
        streams = make_streams(8, 900)
        hub = StreamHub(default_config=config)
        ids = [hub.create_stream() for _ in streams]
        hub_frames = drive_hub(hub, ids, streams, chunk=60)  # aligned: defers to tick
        for sid, values in zip(ids, streams):
            assert_frames_equivalent(drive_baseline(config, values), hub_frames[sid])

    def test_parity_with_unaligned_chunks(self):
        # Chunks that cross refresh boundaries mid-batch refresh inline and
        # must still land on identical buffer states.
        config = AsapSpec(pane_size=1, resolution=120, refresh_interval=11)
        streams = make_streams(4, 700, seed=23)
        hub = StreamHub(default_config=config)
        ids = [hub.create_stream() for _ in streams]
        hub_frames = drive_hub(hub, ids, streams, chunk=37)
        for sid, values in zip(ids, streams):
            assert_frames_equivalent(drive_baseline(config, values), hub_frames[sid])

    def test_grid_strategy_coalescing_is_exact(self):
        config = AsapSpec(pane_size=1, resolution=90, refresh_interval=30, strategy="grid2")
        streams = make_streams(6, 600, seed=37)
        hub = StreamHub(default_config=config)
        ids = [hub.create_stream() for _ in streams]
        hub_frames = drive_hub(hub, ids, streams, chunk=30)
        for sid, values in zip(ids, streams):
            assert_frames_equivalent(drive_baseline(config, values), hub_frames[sid])


class TestBackpressureAndEviction:
    def test_lru_eviction_at_capacity(self):
        hub = StreamHub(max_sessions=3, default_config=AsapSpec(resolution=50))
        first, second, third = (hub.create_stream() for _ in range(3))
        hub.tick()  # advance the clock so activity ordering is visible
        hub.ingest(first, [0.0], [1.0])  # first is now the most recent
        fourth = hub.create_stream()
        assert len(hub) == 3
        assert second not in hub  # least recently active went first
        assert first in hub and third in hub and fourth in hub
        assert hub.stats.sessions_evicted == 1

    def test_reject_policy(self):
        hub = StreamHub(max_sessions=2, eviction_policy="reject")
        hub.create_stream()
        hub.create_stream()
        with pytest.raises(HubAtCapacityError):
            hub.create_stream()
        assert hub.stats.sessions_evicted == 0

    def test_max_panes_per_session(self):
        hub = StreamHub(max_panes_per_session=256)
        with pytest.raises(HubError):
            hub.create_stream(resolution=1000)
        hub.create_stream(resolution=256)  # at the bound is fine

    def test_idle_eviction_on_tick(self):
        hub = StreamHub(
            idle_ticks_before_eviction=2,
            default_config=AsapSpec(resolution=50),
        )
        active = hub.create_stream()
        idle = hub.create_stream()
        for i in range(4):
            hub.ingest(active, [float(i)], [1.0])
            hub.tick()
        assert active in hub
        assert idle not in hub
        assert hub.stats.sessions_evicted == 1

    def test_stats_accounting(self):
        hub = StreamHub(default_config=AsapSpec(resolution=60, refresh_interval=10))
        sid = hub.create_stream()
        hub.ingest(sid, np.arange(40.0), np.sin(np.arange(40.0)))
        hub.tick()
        hub.close(sid)
        stats = hub.stats
        assert stats.sessions_created == 1
        assert stats.sessions_closed == 1
        assert stats.points_ingested == 40
        assert stats.frames_emitted >= 1
        assert stats.ticks == 1


class TestThreadSafety:
    def test_concurrent_ingest_across_streams(self):
        hub = StreamHub(default_config=AsapSpec(resolution=100, refresh_interval=10))
        streams = make_streams(8, 400, seed=91)
        ids = [hub.create_stream() for _ in streams]
        ts = np.arange(400, dtype=np.float64)

        def feed(pair):
            sid, values = pair
            collected = []
            for i in range(0, 400, 25):
                collected.extend(hub.ingest(sid, ts[i : i + 25], values[i : i + 25]))
            collected.extend(f for frames in [hub.tick()] for f in frames.get(sid, []))
            return sid, collected

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = dict(pool.map(feed, zip(ids, streams)))
        assert hub.stats.points_ingested == 8 * 400
        for sid in ids:
            # every stream made progress and its own frames arrived in order
            assert hub.snapshot(sid).points_ingested == 400
            indices = [f.refresh_index for f in results[sid]]
            assert indices == sorted(indices)

    def test_ingest_racing_close_is_rejected(self):
        # A close() that lands between ingest's registry lookup and its
        # session-lock acquisition must make the ingest fail, not silently
        # feed an orphaned operator.
        hub = StreamHub(default_config=AsapSpec(resolution=50))
        sid = hub.create_stream()
        stale = hub._sessions[sid]
        hub.close(sid)
        assert stale.closed
        # Simulate the race: the lookup resolved before close() removed it.
        hub._get = lambda _sid: stale
        with pytest.raises(UnknownStreamError):
            hub.ingest(sid, [0.0], [1.0])
        assert hub.stats.points_ingested == 0
        with pytest.raises(UnknownStreamError):
            hub.snapshot(sid)

    def test_concurrent_create_and_close(self):
        hub = StreamHub(max_sessions=64)
        barrier = threading.Barrier(4)

        def churn(worker: int):
            barrier.wait()
            for i in range(20):
                sid = hub.create_stream(f"w{worker}-{i}", resolution=50)
                hub.ingest(sid, [float(i)], [float(i)])
                hub.close(sid)

        threads = [threading.Thread(target=churn, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(hub) == 0
        assert hub.stats.sessions_created == 80
        assert hub.stats.sessions_closed == 80
