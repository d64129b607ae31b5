"""The tentpole equivalence bar, pinned tier by tier.

Two guarantees:

* **dense no-op** — finite, ordered, exactly-regular input produces
  bit-identical frames with the quality stage on or off, at every tier
  (operator, serving hub, multi-resolution pyramid view, sharded cluster);
* **messy streams keep their ledger** — gap fills, NaN drops, and late
  arrivals are counted, surface in snapshots/stats, and survive a
  checkpoint/restore round trip (schema 4).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ShardedHub
from repro.core.streaming import FrameQuality, StreamingASAP
from repro.persist import checkpoint, restore
from repro.service import StreamHub
from repro.spec import AsapSpec


LENGTH = 4000
BATCH = 137

BASE = dict(pane_size=2, resolution=200, refresh_interval=10)
QUALITY = dict(normalize=True, cadence=1.0, watermark=16)


def dense_arrivals(seed=20170501):
    rng = np.random.default_rng(seed)
    ts = np.arange(LENGTH, dtype=np.float64)
    vs = np.sin(2 * np.pi * ts / 96) + 0.3 * rng.normal(size=LENGTH)
    return ts, vs


def drive_operator(operator, ts, vs, batch=BATCH):
    frames = []
    for start in range(0, ts.size, batch):
        frames.extend(operator.push_many(ts[start : start + batch], vs[start : start + batch]))
    frames.extend(operator.flush())
    return frames


def assert_frames_bit_identical(ours, theirs):
    assert len(ours) == len(theirs) > 0
    for a, b in zip(ours, theirs):
        assert a.window == b.window
        assert a.series.values.tobytes() == b.series.values.tobytes()
        assert a.series.timestamps.tobytes() == b.series.timestamps.tobytes()


class TestDenseNoOp:
    @pytest.mark.parametrize(
        "knobs",
        [
            dict(normalize=True, cadence=1.0),
            dict(watermark=16),
            QUALITY,
        ],
        ids=["normalize", "watermark", "both"],
    )
    def test_operator_frames_bit_identical(self, knobs):
        ts, vs = dense_arrivals()
        base = drive_operator(StreamingASAP(AsapSpec(**BASE)), ts, vs)
        quality = drive_operator(StreamingASAP(AsapSpec(**BASE, **knobs)), ts, vs)
        assert_frames_bit_identical(quality, base)
        for frame in quality:
            assert frame.quality == FrameQuality()  # all-clean report

    def test_operator_batch_granularity_irrelevant(self):
        # Releasing through the watermark in different batch sizes cannot
        # change the frames: the released sequence is prefix-deterministic.
        ts, vs = dense_arrivals()
        a = drive_operator(StreamingASAP(AsapSpec(**BASE, **QUALITY)), ts, vs, batch=137)
        b = drive_operator(StreamingASAP(AsapSpec(**BASE, **QUALITY)), ts, vs, batch=1000)
        assert_frames_bit_identical(a, b)

    def test_hub_frames_and_snapshot(self):
        ts, vs = dense_arrivals()
        frames = {}
        for on in (False, True):
            config = AsapSpec(**BASE, **(QUALITY if on else {}))
            hub = StreamHub(default_config=config)
            sid = hub.create_stream()
            frames[on] = []
            for start in range(0, ts.size, BATCH):
                frames[on].extend(
                    hub.ingest(sid, ts[start : start + BATCH], vs[start : start + BATCH])
                )
        assert_frames_bit_identical(frames[True], frames[False])
        snapshot = hub.snapshot(sid)
        assert snapshot.completeness == 1.0
        assert snapshot.gaps_filled == 0
        assert snapshot.late_accepted == 0
        stats = hub.stats
        assert (stats.gaps_filled, stats.nan_dropped, stats.late_dropped) == (0, 0, 0)

    def test_pyramid_view_unchanged(self):
        # Normalize only: a snapshot reads the *current* window, and a
        # watermark legitimately holds the newest points back (bounded
        # latency), so the view tier's no-op is pinned for the normalizer.
        ts, vs = dense_arrivals()
        views = {}
        for on in (False, True):
            config = AsapSpec(**BASE, **(dict(normalize=True, cadence=1.0) if on else {}))
            hub = StreamHub(default_config=config)
            sid = hub.create_stream()
            hub.ingest(sid, ts, vs)
            views[on] = hub.snapshot(sid, resolution=100)
        assert views[True].series.values.tobytes() == views[False].series.values.tobytes()
        assert views[True].window == views[False].window

    def test_sharded_cluster_frames(self):
        ts, vs = dense_arrivals()
        frames = {}
        for on in (False, True):
            config = AsapSpec(**BASE, **(QUALITY if on else {}))
            hub = ShardedHub(shards=3, default_config=config)
            for i in range(4):
                hub.create_stream(f"s{i}")
            frames[on] = {f"s{i}": [] for i in range(4)}
            for start in range(0, ts.size, BATCH):
                for sid in frames[on]:
                    frames[on][sid].extend(
                        hub.ingest(sid, ts[start : start + BATCH], vs[start : start + BATCH])
                    )
                for sid, emitted in hub.tick().items():
                    frames[on][sid].extend(emitted)
            if on:
                stats = hub.stats
                assert (stats.gaps_filled, stats.late_dropped) == (0, 0)
            for sid in list(frames[on]):
                # Drain the watermark's held-back tail so both runs end at
                # the same boundary.
                frames[on][sid].extend(hub.close(sid, flush=True))
        for sid in frames[True]:
            assert_frames_bit_identical(frames[True][sid], frames[False][sid])


class TestMessyLedger:
    def messy_arrivals(self):
        ts, vs = dense_arrivals()
        vs = vs.copy()
        vs[500:510] = np.nan  # 10 NaN holes -> dropped, then filled as a gap
        keep = np.ones(LENGTH, dtype=bool)
        keep[2000:2040] = False  # a 40-point outage
        return ts[keep], vs[keep]

    def test_operator_counters_and_frame_quality(self):
        ts, vs = self.messy_arrivals()
        operator = StreamingASAP(AsapSpec(**BASE, **QUALITY))
        frames = drive_operator(operator, ts, vs)
        assert operator.nan_dropped == 10
        assert operator.gaps_filled == 50  # 40 outage + 10 NaN slots refilled
        last = frames[-1].quality
        assert last.nan_dropped == 10
        assert last.gaps_filled == 50
        assert 0.0 < last.completeness <= 1.0

    def test_hub_snapshot_aggregates(self):
        ts, vs = self.messy_arrivals()
        hub = StreamHub(default_config=AsapSpec(**BASE, **QUALITY))
        sid = hub.create_stream()
        hub.ingest(sid, ts, vs)
        snapshot = hub.snapshot(sid)
        assert snapshot.nan_dropped == 10
        assert snapshot.gaps_filled == 50
        assert hub.stats.gaps_filled == 50

    def test_reset_keeps_lifetime_counters(self):
        ts, vs = self.messy_arrivals()
        ts, vs = ts[:3000].copy(), vs[:3000].copy()
        ts[[1000, 1001]] = ts[[1001, 1000]]  # reordered inside the watermark
        ts[2500] = ts[2400]  # 100 points late: beyond the watermark
        operator = StreamingASAP(AsapSpec(**BASE, **QUALITY))
        drive_operator(operator, ts, vs)
        fields = ("gaps_filled", "nan_dropped", "late_accepted", "late_dropped")
        before = {name: getattr(operator, name) for name in fields}
        assert all(before.values()), before
        operator.reset()
        assert {name: getattr(operator, name) for name in fields} == before
        tail = ts[-1] + 1.0 + np.arange(600, dtype=np.float64)
        frames = drive_operator(operator, tail, np.sin(tail / 15.0))
        for name in fields:
            assert getattr(frames[-1].quality, name) >= before[name], name

    def test_counters_survive_checkpoint_round_trip(self):
        ts, vs = self.messy_arrivals()
        hub = StreamHub(default_config=AsapSpec(**BASE, **QUALITY))
        sid = hub.create_stream()
        half = ts.size // 2
        before = list(hub.ingest(sid, ts[:half], vs[:half]))
        revived = restore(checkpoint(hub))
        resumed = list(revived.ingest(sid, ts[half:], vs[half:]))
        straight = list(hub.ingest(sid, ts[half:], vs[half:]))
        assert_frames_bit_identical(before + resumed, before + straight)
        assert revived.snapshot(sid).gaps_filled == hub.snapshot(sid).gaps_filled
        assert revived.snapshot(sid).nan_dropped == hub.snapshot(sid).nan_dropped

    def test_shuffled_counters_survive_sharded_checkpoint(self):
        ts, vs = dense_arrivals()
        rng = np.random.default_rng(3)
        order = np.arange(ts.size)
        for start in range(0, ts.size, 16):
            order[start : start + 16] = start + rng.permutation(min(16, ts.size - start))
        hub = ShardedHub(shards=2, default_config=AsapSpec(**BASE, **QUALITY))
        hub.create_stream("s0")
        hub.ingest("s0", ts[order][:2000], vs[order][:2000])
        assert hub.stats.late_accepted > 0
        revived = restore(checkpoint(hub))
        assert revived.stats.late_accepted == hub.stats.late_accepted
        assert revived.stats.late_dropped == hub.stats.late_dropped == 0
