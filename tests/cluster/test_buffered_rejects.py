"""A rejected buffered batch does not wedge a ShardedHub.

``ingest(buffered=True)`` queues a batch at the coordinator; the next
``tick`` ships it to its shard with the tick.  A batch the shard's hub
rejects (:class:`~repro.errors.DataQualityError`: a NaN, a replayed or a
duplicate timestamp) changes nothing.  The shard still delivers its other
buffered batches and ticks, the coordinator collects every shard's reply,
and the tick raises naming the rejected stream.  The frames that tick
collected surface at the next tick, so each stream's frames equal a lone
:class:`~repro.core.streaming.StreamingASAP` fed only the good batches, and
the hub stays usable (no uncollected shard reply).  A shard whose own tick
raises is collected around the same way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ShardedHub
from repro.core.streaming import StreamingASAP
from repro.errors import DataQualityError
from repro.service import StreamHub
from repro.spec import AsapSpec

SPEC = AsapSpec(pane_size=10, resolution=200, refresh_interval=10)
BATCH = 100
STREAMS = ("a", "b", "c", "d")


def good_batches(seed: int, count: int = 24):
    rng = np.random.default_rng(seed)
    n = count * BATCH
    ts = np.arange(n, dtype=np.float64)
    vs = np.sin(ts / 47.0) + 0.3 * rng.normal(size=n)
    return [(ts[i : i + BATCH], vs[i : i + BATCH]) for i in range(0, n, BATCH)]


def bad_batch(kind: str, batches, at: int):
    ts, vs = batches[at]
    if kind == "nan":
        vs = vs.copy()
        vs[37] = np.nan
        return ts, vs
    if kind == "replayed":
        return batches[at - 1]
    ts = ts.copy()
    ts[50] = ts[49]
    return ts, vs


def frame_bytes(frame):
    return (
        frame.window,
        frame.refresh_index,
        frame.points_ingested,
        frame.series.values.tobytes(),
        frame.series.timestamps.tobytes(),
        repr(frame.search),
    )


@pytest.mark.parametrize("kind", ["nan", "replayed", "duplicate"])
@pytest.mark.parametrize("backend", ["inprocess", "process"])
def test_rejected_buffered_batch_leaves_the_cluster_serving(backend, kind):
    traffic = {sid: good_batches(20172200 + i) for i, sid in enumerate(STREAMS)}
    # (round, stream): a bad batch buffered ahead of that round's good one.
    bad_at = {(5, "a"), (11, "c"), (11, "d")}
    hub = ShardedHub(shards=2, backend=backend, default_config=SPEC)
    try:
        for sid in STREAMS:
            hub.create_stream(sid)
        assert len({hub.shard_of(sid) for sid in STREAMS}) == 2
        frames = {sid: [] for sid in STREAMS}
        for round_no in range(len(traffic["a"])):
            rejected = []
            for sid in STREAMS:
                if (round_no, sid) in bad_at:
                    hub.ingest(sid, *bad_batch(kind, traffic[sid], round_no), buffered=True)
                    rejected.append(sid)
                hub.ingest(sid, *traffic[sid][round_no], buffered=True)
            if rejected:
                with pytest.raises(DataQualityError) as raised:
                    hub.tick()
                for sid in rejected:
                    assert f"stream {sid!r} rejected" in str(raised.value)
                assert str(raised.value).count("buffered batch for") == len(rejected)
                continue
            for sid, emitted in hub.tick().items():
                frames[sid].extend(emitted)
        # The frames collected by the raising tick surfaced at the next one;
        # nothing is left behind and every shard still answers.
        assert hub.tick() == {}
        for sid in STREAMS:
            assert hub.snapshot(sid).points_ingested == len(traffic[sid]) * BATCH
    finally:
        hub.shutdown()

    for sid in STREAMS:
        lone = StreamingASAP(SPEC)
        expected = [frame for ts, vs in traffic[sid] for frame in lone.push_many(ts, vs)]
        assert len(expected) > 10
        assert [frame_bytes(f) for f in frames[sid]] == [frame_bytes(f) for f in expected]


def test_rejection_found_by_an_out_of_tick_flush_raises_at_the_next_tick():
    batches = good_batches(20172210, count=6)
    hub = ShardedHub(shards=2, default_config=SPEC)
    hub.create_stream("a")
    for ts, vs in batches[:3]:
        hub.ingest("a", ts, vs, buffered=True)
    hub.ingest("a", *bad_batch("nan", batches, 3), buffered=True)
    hub.ingest("a", *batches[3], buffered=True)
    # A backfill delivers the stream's buffered batches first; their inline
    # frames are stashed for the next tick, the backfill's own come back.
    backfilled = hub.backfill("a", *batches[4]).frames
    with pytest.raises(DataQualityError, match="stream 'a' rejected"):
        hub.tick()
    hub.ingest("a", *batches[5], buffered=True)
    ticked = hub.tick()["a"]
    hub.shutdown()

    # The single-hub contract: a StreamHub fed only the good batches.
    single = StreamHub(default_config=SPEC)
    single.create_stream("a")
    inline = [f for ts, vs in batches[:4] for f in single.ingest("a", ts, vs)]
    expected_backfill = list(single.backfill("a", *batches[4]).frames)
    later = single.tick().get("a", [])
    later += single.ingest("a", *batches[5]) + single.tick().get("a", [])
    assert inline and expected_backfill
    assert [frame_bytes(f) for f in backfilled] == [frame_bytes(f) for f in expected_backfill]
    assert [frame_bytes(f) for f in ticked] == [frame_bytes(f) for f in inline + later]


def test_a_raising_shard_tick_still_collects_every_reply(monkeypatch):
    batches = good_batches(20172211, count=4)
    hub = ShardedHub(shards=2, default_config=SPEC)
    for sid in STREAMS:
        hub.create_stream(sid)
    broken = hub.shard_of("a")

    def failing_tick():
        raise RuntimeError("refresh failed")

    monkeypatch.setattr(hub._shards[broken].hub, "tick", failing_tick)
    for sid in STREAMS:
        hub.ingest(sid, *batches[0], buffered=True)
    with pytest.raises(RuntimeError, match="refresh failed"):
        hub.tick()
    monkeypatch.undo()
    # No shard holds an uncollected reply: the hub keeps serving.
    for ts, vs in batches[1:]:
        for sid in STREAMS:
            hub.ingest(sid, ts, vs, buffered=True)
        hub.tick()
    for sid in STREAMS:
        assert hub.snapshot(sid).points_ingested == 4 * BATCH
