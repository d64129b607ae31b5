"""Tests for the ShardedHub: API parity, equivalence, rebalance, recovery.

Most tests run the in-process backend (deterministic, coverage-visible); a
small marked set exercises the real ``multiprocessing`` backend end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    ClusterError,
    ShardDownError,
    ShardedHub,
    ShardProtocolError,
)
from repro.persist.codec import CheckpointError
from repro.service import StreamHub, UnknownStreamError
from repro.spec import AsapSpec

CONFIG = AsapSpec(pane_size=4, resolution=100, refresh_interval=8)
CHUNK = 96


def make_traffic(n_streams=8, length=1600, seed=13):
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    return t, {
        f"s{i}": np.sin(2 * np.pi * t / 120) + 0.3 * rng.normal(size=length)
        for i in range(n_streams)
    }


def drive_rounds(hub, ts, traffic, lo, hi, buffered=True, on_round=None):
    """Feed [lo, hi) in CHUNK rounds; returns frames keyed by stream id."""
    frames = {sid: [] for sid in traffic}
    for round_no, start in enumerate(range(lo, hi, CHUNK)):
        if on_round is not None:
            on_round(round_no, hub)
        stop = min(start + CHUNK, hi)
        for sid, values in traffic.items():
            emitted = hub.ingest(sid, ts[start:stop], values[start:stop], buffered=buffered)
            frames[sid].extend(emitted)
        for sid, emitted in hub.tick().items():
            frames[sid].extend(emitted)
    return frames


def single_hub_frames(ts, traffic, lo=0, hi=None):
    hi = ts.size if hi is None else hi
    hub = StreamHub(default_config=CONFIG)
    frames = {sid: [] for sid in traffic}
    for sid in traffic:
        hub.create_stream(sid)
    for start in range(lo, hi, CHUNK):
        stop = min(start + CHUNK, hi)
        for sid, values in traffic.items():
            frames[sid].extend(hub.ingest(sid, ts[start:stop], values[start:stop]))
        for sid, emitted in hub.tick().items():
            frames[sid].extend(emitted)
    return frames


def assert_frames_equal(reference, candidate):
    assert set(reference) == set(candidate)
    for sid in reference:
        assert len(reference[sid]) == len(candidate[sid]), sid
        for a, b in zip(reference[sid], candidate[sid]):
            assert a.window == b.window
            assert np.array_equal(a.series.values, b.series.values)


@pytest.fixture
def cluster():
    hub = ShardedHub(shards=3, backend="inprocess", default_config=CONFIG)
    yield hub
    hub.shutdown()


# -- equivalence ---------------------------------------------------------------


@pytest.mark.parametrize("buffered", [True, False])
def test_sharded_frames_bit_identical_to_single_hub(cluster, buffered):
    ts, traffic = make_traffic()
    for sid in traffic:
        cluster.create_stream(sid)
    frames = drive_rounds(cluster, ts, traffic, 0, ts.size, buffered=buffered)
    assert_frames_equal(single_hub_frames(ts, traffic), frames)


def test_streams_are_spread_across_shards(cluster):
    ts, traffic = make_traffic(n_streams=32)
    for sid in traffic:
        cluster.create_stream(sid)
    owners = {cluster.shard_of(sid) for sid in traffic}
    assert len(owners) > 1
    assert sum(s.sessions_active for s in cluster.shard_stats().values()) == 32


# -- API parity ----------------------------------------------------------------


def test_streamhub_api_surface(cluster):
    ts, traffic = make_traffic(n_streams=2)
    ids = sorted(traffic)
    for sid in ids:
        assert cluster.create_stream(sid) == sid
    assert len(cluster) == 2
    assert ids[0] in cluster and "ghost" not in cluster
    assert cluster.stream_ids() == ids

    drive_rounds(cluster, ts, traffic, 0, 800)
    snap = cluster.snapshot(ids[0])
    assert snap.stream_id == ids[0] and snap.panes > 0
    view = cluster.snapshot(ids[0], resolution=25)
    assert view.resolution == 25 and view.series.values.size > 0

    stats = cluster.stats
    assert stats.sessions_active == 2
    assert stats.points_ingested == 2 * 800
    assert stats.ticks > 0

    frames = cluster.close(ids[0], flush=True)
    assert isinstance(frames, list)
    assert ids[0] not in cluster
    with pytest.raises(UnknownStreamError):
        cluster.snapshot(ids[0])


def test_auto_ids_and_duplicate_rejection(cluster):
    sid = cluster.create_stream()
    assert sid.startswith("stream-")
    with pytest.raises(ClusterError, match="already exists"):
        cluster.create_stream(sid)


def test_create_with_config_and_overrides(cluster):
    sid = cluster.create_stream(config=CONFIG, pane_size=2)
    assert cluster.snapshot(sid).config.pane_size == 2


def test_unknown_stream_everywhere(cluster):
    with pytest.raises(UnknownStreamError):
        cluster.ingest("ghost", [0.0], [1.0])
    with pytest.raises(UnknownStreamError):
        cluster.close("ghost")
    with pytest.raises(UnknownStreamError):
        cluster.shard_of("ghost")


def test_constructor_validation():
    with pytest.raises(ValueError, match="shards"):
        ShardedHub(shards=0)
    with pytest.raises(ValueError, match="backend"):
        ShardedHub(shards=1, backend="carrier-pigeon")


# -- rebalancing ---------------------------------------------------------------


def test_add_shard_migrates_and_preserves_frames(cluster):
    ts, traffic = make_traffic()
    for sid in traffic:
        cluster.create_stream(sid)

    def grow(round_no, hub):
        if round_no == 6:
            hub.add_shard()

    frames = drive_rounds(cluster, ts, traffic, 0, ts.size, on_round=grow)
    assert len(cluster.shard_ids) == 4
    assert cluster.streams_migrated > 0
    assert_frames_equal(single_hub_frames(ts, traffic), frames)
    # Migrated sessions stay consistent with the ring.
    for sid in traffic:
        assert cluster.shard_of(sid) == cluster._ring.node_for(sid)


def test_remove_shard_migrates_and_preserves_frames(cluster):
    ts, traffic = make_traffic()
    for sid in traffic:
        cluster.create_stream(sid)

    def shrink(round_no, hub):
        if round_no == 6:
            hub.remove_shard(hub.shard_ids[0])

    frames = drive_rounds(cluster, ts, traffic, 0, ts.size, on_round=shrink)
    assert len(cluster.shard_ids) == 2
    assert_frames_equal(single_hub_frames(ts, traffic), frames)


def test_remove_shard_flushes_buffered_ingests_first(cluster):
    ts, traffic = make_traffic(n_streams=6, length=400)
    for sid in traffic:
        cluster.create_stream(sid)
    for sid, values in traffic.items():
        cluster.ingest(sid, ts[:100], values[:100], buffered=True)
    cluster.remove_shard(cluster.shard_ids[0])
    cluster.tick()  # delivers the surviving shards' still-buffered batches
    # Nothing dropped: every stream holds its 100 points (migrated sessions
    # carried theirs), and the aggregate counter includes the retired shard.
    for sid in traffic:
        assert cluster.snapshot(sid).points_ingested == 100
    assert cluster.stats.points_ingested == 6 * 100


def test_shard_membership_validation(cluster):
    with pytest.raises(ClusterError, match="no shard"):
        cluster.remove_shard("ghost")
    with pytest.raises(ClusterError, match="no shard"):
        cluster.kill_shard("ghost")
    with pytest.raises(ClusterError, match="no shard"):
        cluster.drop_shard("ghost")
    with pytest.raises(ClusterError, match="already exists"):
        cluster.add_shard(cluster.shard_ids[0])
    lonely = ShardedHub(shards=1, backend="inprocess")
    with pytest.raises(ClusterError, match="last shard"):
        lonely.remove_shard(lonely.shard_ids[0])
    with pytest.raises(ClusterError, match="last shard"):
        lonely.drop_shard(lonely.shard_ids[0])


def test_add_shard_with_buffered_ingests_loses_nothing(cluster):
    # Regression: buffered batches queued under a stream's old owner must be
    # delivered before the stream migrates, and their inline frames must
    # still surface at the next tick.
    ts, traffic = make_traffic()
    for sid in traffic:
        cluster.create_stream(sid)

    def grow(round_no, hub):
        if round_no == 6:
            # Buffer a full round *then* rebalance, so pending batches exist
            # for streams that are about to move.
            start = 6 * CHUNK
            for sid, values in traffic.items():
                span = slice(start, start + CHUNK)
                hub.ingest(sid, ts[span], values[span], buffered=True)
            hub.add_shard()

    frames = {sid: [] for sid in traffic}
    for round_no, start in enumerate(range(0, ts.size, CHUNK)):
        grow(round_no, cluster)
        if round_no == 6:
            # This round's data was buffered inside grow(); just tick.
            for sid, emitted in cluster.tick().items():
                frames[sid].extend(emitted)
            continue
        stop = min(start + CHUNK, ts.size)
        for sid, values in traffic.items():
            cluster.ingest(sid, ts[start:stop], values[start:stop], buffered=True)
        for sid, emitted in cluster.tick().items():
            frames[sid].extend(emitted)
    assert cluster.streams_migrated > 0
    assert_frames_equal(single_hub_frames(ts, traffic), frames)


def test_close_with_flush_delivers_buffered_ingests(cluster):
    # Regression: close(flush=True) must deliver the stream's buffered
    # batches first — same frames as a single StreamHub ingest + close.
    ts, traffic = make_traffic(n_streams=1, length=400)
    (sid,) = traffic
    cluster.create_stream(sid)
    cluster.ingest(sid, ts, traffic[sid], buffered=True)
    frames = cluster.close(sid, flush=True)

    single = StreamHub(default_config=CONFIG)
    single.create_stream(sid)
    expected = single.ingest(sid, ts, traffic[sid])
    expected += single.close(sid, flush=True)
    assert len(frames) == len(expected) > 0
    for a, b in zip(expected, frames):
        assert a.window == b.window
        assert np.array_equal(a.series.values, b.series.values)


def test_close_without_flush_discards_buffered_ingests(cluster):
    ts, traffic = make_traffic(n_streams=1, length=400)
    (sid,) = traffic
    cluster.create_stream(sid)
    cluster.ingest(sid, ts, traffic[sid], buffered=True)
    assert cluster.close(sid, flush=False) == []
    assert cluster.stats.points_ingested == 0


def test_shard_side_eviction_reconciles_placement_map():
    # Regression: a shard evicting sessions autonomously (LRU capacity) must
    # not leave the coordinator's map stale — the id must become reusable.
    hub = ShardedHub(
        shards=1, backend="inprocess", max_sessions_per_shard=2, default_config=CONFIG
    )
    for sid in ("a", "b", "c"):
        hub.create_stream(sid)  # the shard silently LRU-evicts "a"
    assert len(hub) == 3  # stale until the next reply carries live ids
    hub.tick()
    assert len(hub) == 2 and "a" not in hub
    assert hub.create_stream("a") == "a"  # the id is reusable again
    hub.shutdown()


def test_buffered_ingest_for_evicted_stream_is_dropped_like_single_hub():
    hub = ShardedHub(
        shards=1, backend="inprocess", max_sessions_per_shard=2, default_config=CONFIG
    )
    ts, traffic = make_traffic(n_streams=2, length=200)
    for sid in traffic:
        hub.create_stream(sid)
    victim = sorted(traffic)[0]
    hub.ingest(victim, ts[:50], traffic[victim][:50], buffered=True)
    hub.create_stream("newcomer")  # LRU-evicts `victim` with a batch pending
    hub.tick()  # must not blow up the whole shard's tick
    assert victim not in hub
    with pytest.raises(UnknownStreamError):
        hub.snapshot(victim)
    hub.shutdown()


def test_direct_operations_heal_placement_after_eviction():
    hub = ShardedHub(
        shards=1, backend="inprocess", max_sessions_per_shard=2, default_config=CONFIG
    )
    for sid in ("a", "b", "c"):
        hub.create_stream(sid)
    with pytest.raises(UnknownStreamError):
        hub.snapshot("a")  # shard evicted it; the failed call heals the map
    assert "a" not in hub
    hub.shutdown()


def test_rebalancing_skips_streams_evicted_since_the_last_reply():
    # Regression: remove_shard used to abort half-done (shard off the ring,
    # still a member) when the map still named a stream the shard's LRU
    # admission had evicted.
    hub = ShardedHub(shards=2, max_sessions_per_shard=2, default_config=CONFIG)
    for i in range(6):
        hub.create_stream(f"s{i}")  # each shard silently evicts its oldest
    hub.remove_shard("shard-0")
    assert hub.shard_ids == ["shard-1"]
    hub.tick()  # reconciles the survivor's own evictions
    assert 0 < len(hub) <= 2
    for sid in hub.stream_ids():
        assert hub.shard_of(sid) == "shard-1"
        hub.snapshot(sid)
    hub.shutdown()


# -- crash recovery ------------------------------------------------------------


def test_kill_drop_restore_streams(cluster):
    ts, traffic = make_traffic()
    for sid in traffic:
        cluster.create_stream(sid)
    drive_rounds(cluster, ts, traffic, 0, 800)
    blob = cluster.checkpoint()

    victim = cluster.shard_of(next(iter(traffic)))
    cluster.kill_shard(victim)
    with pytest.raises(ShardDownError) as excinfo:
        drive_rounds(cluster, ts, traffic, 800, 800 + CHUNK)
    assert victim in excinfo.value.shard_ids

    lost = cluster.drop_shard(victim)
    assert lost and victim not in cluster.shard_ids
    restored = cluster.restore_streams(blob, lost)
    assert sorted(restored) == sorted(lost)
    # Everything serves again; restored streams resume from the checkpoint.
    for sid in traffic:
        assert cluster.snapshot(sid).panes > 0

    # The restored streams' future frames are bit-identical to an
    # uninterrupted run fed the same post-checkpoint points.
    reference = single_hub_frames(ts, traffic)
    head = single_hub_frames(ts, traffic, hi=800)
    tails = {sid: reference[sid][len(head[sid]) :] for sid in lost}
    lost_traffic = {sid: traffic[sid] for sid in lost}
    frames = drive_rounds(cluster, ts, lost_traffic, 800, ts.size)
    assert_frames_equal(tails, frames)


def test_restore_streams_defaults_to_missing(cluster):
    ts, traffic = make_traffic(n_streams=4, length=400)
    for sid in traffic:
        cluster.create_stream(sid)
    drive_rounds(cluster, ts, traffic, 0, 400)
    blob = cluster.checkpoint()
    closed = sorted(traffic)[:2]
    for sid in closed:
        cluster.close(sid, flush=False)
    restored = cluster.restore_streams(blob)
    assert sorted(restored) == closed


def test_restore_streams_rejects_live_and_unknown(cluster):
    ts, traffic = make_traffic(n_streams=2, length=400)
    for sid in traffic:
        cluster.create_stream(sid)
    blob = cluster.checkpoint()
    live = next(iter(traffic))
    with pytest.raises(ClusterError, match="already being served"):
        cluster.restore_streams(blob, [live])
    cluster.close(live, flush=False)
    with pytest.raises(CheckpointError, match="no session"):
        cluster.restore_streams(blob, ["never-existed"])


def test_dead_shard_surfaces_on_direct_operations(cluster):
    sid = cluster.create_stream()
    owner = cluster.shard_of(sid)
    cluster.kill_shard(owner)
    with pytest.raises(ShardDownError):
        cluster.ingest(sid, [0.0], [1.0])
    with pytest.raises(ShardDownError):
        cluster.snapshot(sid)
    with pytest.raises(ShardDownError):
        _ = cluster.stats  # the property fans out to every shard


def test_tick_attaches_partial_frames_on_shard_death(cluster):
    ts, traffic = make_traffic()
    for sid in traffic:
        cluster.create_stream(sid)
    drive_rounds(cluster, ts, traffic, 0, 800)
    victim = cluster.shard_of(next(iter(traffic)))
    survivors = {sid for sid in traffic if cluster.shard_of(sid) != victim}
    cluster.kill_shard(victim)
    for sid, values in traffic.items():
        cluster.ingest(sid, ts[800 : 800 + CHUNK], values[800 : 800 + CHUNK], buffered=True)
    with pytest.raises(ShardDownError) as excinfo:
        cluster.tick()
    assert set(excinfo.value.partial_frames) <= survivors


# -- durability ----------------------------------------------------------------


def test_cluster_checkpoint_restore_round_trip(tmp_path, cluster):
    ts, traffic = make_traffic()
    for sid in traffic:
        cluster.create_stream(sid)
    frames_head = drive_rounds(cluster, ts, traffic, 0, 800)
    path = cluster.checkpoint(tmp_path / "cluster.npz")
    assert path.exists()

    restored = ShardedHub.restore(path)
    assert restored.backend == "inprocess"
    assert sorted(restored.stream_ids()) == sorted(cluster.stream_ids())
    assert restored.stats.points_ingested == cluster.stats.points_ingested

    # Continue both; frames must stay bit-identical to the single hub.
    frames_a = drive_rounds(cluster, ts, traffic, 800, ts.size)
    frames_b = drive_rounds(restored, ts, traffic, 800, ts.size)
    assert_frames_equal(frames_a, frames_b)
    reference = single_hub_frames(ts, traffic)
    for sid in traffic:
        combined = frames_head[sid] + frames_a[sid]
        assert len(combined) == len(reference[sid])
    restored.shutdown()


def test_checkpoint_carries_buffered_ingests(cluster):
    # Buffered batches are serialized verbatim; the restored cluster's next
    # tick delivers them — and the live cluster's next tick emits the same
    # frames, bit for bit (nothing was flushed away by checkpointing).
    ts, traffic = make_traffic(n_streams=3, length=400)
    for sid in traffic:
        cluster.create_stream(sid)
    for sid, values in traffic.items():
        cluster.ingest(sid, ts[:100], values[:100], buffered=True)
    restored = ShardedHub.restore(cluster.checkpoint())
    assert restored.stats.points_ingested == 0  # still queued, not dropped
    live_frames = cluster.tick()
    restored_frames = restored.tick()
    assert restored.stats.points_ingested == 3 * 100
    assert_frames_equal(live_frames, restored_frames)
    restored.shutdown()


def test_checkpoint_carries_stashed_frames(cluster):
    # Frames stashed by a rebalancing flush must survive checkpoint/restore:
    # both the live and the restored cluster surface them at the next tick.
    ts, traffic = make_traffic(n_streams=6)
    for sid in traffic:
        cluster.create_stream(sid)
    # Buffer enough to cross refresh boundaries, then rebalance: the flush
    # inside add_shard generates inline frames that land in the stash.
    for sid, values in traffic.items():
        cluster.ingest(sid, ts[:400], values[:400], buffered=True)
    cluster.add_shard()
    assert cluster._stashed_frames, "rebalance flush should have stashed frames"
    restored = ShardedHub.restore(cluster.checkpoint())
    live_frames = cluster.tick()
    restored_frames = restored.tick()
    assert any(live_frames.values())
    assert_frames_equal(live_frames, restored_frames)
    restored.shutdown()


def test_tick_requeues_dead_shards_pending_batch(cluster):
    ts, traffic = make_traffic(n_streams=6, length=400)
    for sid in traffic:
        cluster.create_stream(sid)
    victim_stream = next(iter(traffic))
    victim = cluster.shard_of(victim_stream)
    cluster.ingest(victim_stream, ts[:100], traffic[victim_stream][:100], buffered=True)
    cluster.kill_shard(victim)
    with pytest.raises(ShardDownError):
        cluster.tick()
    # The acknowledged-but-undelivered batch is still held, not GC'd; only
    # an explicit drop_shard discards it along with the shard's state.
    assert any(entry[0] == victim_stream for entry in cluster._pending.get(victim, []))
    cluster.drop_shard(victim)
    assert victim not in cluster._pending


def test_restore_rejects_wrong_kind(cluster):
    hub = StreamHub()
    from repro.persist import checkpoint as persist_checkpoint

    blob = persist_checkpoint(hub)
    with pytest.raises(CheckpointError, match="expected a 'sharded-hub'"):
        ShardedHub.restore(blob)


def test_generic_restore_dispatches_to_cluster(cluster):
    from repro.persist import restore as persist_restore

    cluster.create_stream("s")
    restored = persist_restore(cluster.checkpoint())
    assert isinstance(restored, ShardedHub)
    assert "s" in restored
    restored.shutdown()


# -- the process backend (real multiprocessing workers) ------------------------


@pytest.fixture
def process_cluster():
    hub = ShardedHub(shards=2, backend="process", default_config=CONFIG)
    yield hub
    hub.shutdown()


def test_process_backend_frames_bit_identical(process_cluster):
    ts, traffic = make_traffic(n_streams=4, length=800)
    for sid in traffic:
        process_cluster.create_stream(sid)
    frames = drive_rounds(process_cluster, ts, traffic, 0, ts.size)
    assert_frames_equal(single_hub_frames(ts, traffic), frames)


def test_process_backend_propagates_hub_exceptions(process_cluster):
    process_cluster.create_stream("s")
    with pytest.raises(ClusterError, match="already exists"):
        process_cluster.create_stream("s")
    process_cluster.close("s", flush=False)
    with pytest.raises(UnknownStreamError):
        process_cluster.snapshot("s")


def test_process_backend_kill_and_recover(process_cluster):
    ts, traffic = make_traffic(n_streams=4, length=800)
    for sid in traffic:
        process_cluster.create_stream(sid)
    drive_rounds(process_cluster, ts, traffic, 0, 400)
    blob = process_cluster.checkpoint()
    victim = process_cluster.shard_of(next(iter(traffic)))
    process_cluster.kill_shard(victim)
    with pytest.raises(ShardDownError):
        drive_rounds(process_cluster, ts, traffic, 400, 400 + CHUNK)
    lost = process_cluster.drop_shard(victim)
    process_cluster.restore_streams(blob, lost)
    for sid in traffic:
        assert process_cluster.snapshot(sid).panes > 0


def test_process_backend_restores_from_checkpoint_of_process_cluster(process_cluster):
    ts, traffic = make_traffic(n_streams=3, length=400)
    for sid in traffic:
        process_cluster.create_stream(sid)
    drive_rounds(process_cluster, ts, traffic, 0, 400)
    # Backend override: a process-shard checkpoint inspected in-process.
    restored = ShardedHub.restore(process_cluster.checkpoint(), backend="inprocess")
    assert restored.backend == "inprocess"
    assert sorted(restored.stream_ids()) == sorted(traffic)
    restored.shutdown()


def test_shard_protocol_misuse_is_loud(cluster):
    handle = cluster._shards[cluster.shard_ids[0]]
    with pytest.raises(ShardProtocolError, match="no pending reply"):
        handle.result()
    handle.submit("ping")
    with pytest.raises(ShardProtocolError, match="uncollected reply"):
        handle.submit("ping")
    assert handle.result() == "pong"
    with pytest.raises(ShardProtocolError, match="unknown shard command"):
        handle.request("frobnicate")
