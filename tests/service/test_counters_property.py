"""Lifetime counters never decrease: the HubStats monotonicity law.

Every :class:`~repro.service.HubStats` field except ``sessions_active`` is a
lifetime total (``ticks`` included: a clock never runs backwards).  The
property drives random operation sequences over messy streams — NaN holes,
cadence gaps, shuffles inside the watermark and points beyond it, so the
quality, warm-start and backfill counters all move — through every way a
session can leave or move:

* a :class:`~repro.service.StreamHub`: create, ingest, backfill, tick,
  close with and without flush, LRU eviction (a small ``max_sessions``),
  idle eviction, export/import migration, and a checkpoint -> restore swap;
* an in-process :class:`~repro.cluster.ShardedHub`: the same plus buffered
  ingest and ``add_shard``/``remove_shard`` rebalancing.

After every step, every counter is >= its previous value.  The explicit
tests below pin each removal path on its own, the exact totals a close
(after its final flush) and a migration leave behind, the same law under
concurrent threads, and two counting rules: ``points_ingested`` counts
arrivals (the same for ``ingest`` and ``backfill``), and restore rejects a
malformed counter mapping.

These run under the ``ci`` profile on every PR and under ``nightly`` with
10x examples; see ``tests/conftest.py``.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ShardedHub
from repro.core.streaming import StreamingASAP
from repro.persist import CheckpointError, checkpoint, restore
from repro.service import HubStats, StreamHub, UnknownStreamError
from repro.spec import AsapSpec

MESSY = AsapSpec(
    pane_size=2,
    resolution=40,
    refresh_interval=4,
    normalize=True,
    cadence=1.0,
    watermark=4,
)

MONOTONE = [field.name for field in dataclasses.fields(HubStats) if field.name != "sessions_active"]

#: Counters that only a session's operator moves — the ones a hub used to
#: lose when the session left.
OPERATOR_COUNTERS = (
    "warm_prefetches",
    "gaps_filled",
    "nan_dropped",
    "late_accepted",
    "late_dropped",
    "backfills",
    "backfill_points",
    "backfill_elided",
)


class Feed:
    """Per-stream messy arrivals: each chunk continues its stream's clock."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.clock: dict[str, float] = {}

    def next(self, stream_id: str, size: int) -> tuple[np.ndarray, np.ndarray]:
        rng = self.rng
        t0 = self.clock.get(stream_id, 0.0)
        ts = t0 + np.arange(size, dtype=np.float64)
        vs = np.sin(ts / 7.0) + 0.3 * rng.normal(size=size)
        if rng.random() < 0.5:  # a NaN hole: dropped, then refilled as a gap
            vs[rng.integers(size)] = np.nan
        keep = np.ones(size, dtype=bool)
        if size > 12 and rng.random() < 0.5:  # a short outage: a cadence gap
            at = int(rng.integers(2, size - 6))
            keep[at : at + 3] = False
        ts, vs = ts[keep], vs[keep]
        order = np.arange(ts.size)  # shuffled inside the watermark
        for start in range(0, ts.size, MESSY.watermark):
            stop = min(start + MESSY.watermark, ts.size)
            order[start:stop] = start + rng.permutation(stop - start)
        ts, vs = ts[order], vs[order]
        if t0 > 20 and rng.random() < 0.3:  # far beyond the watermark
            ts = np.append(ts, t0 - 20.0)
            vs = np.append(vs, 0.0)
        self.clock[stream_id] = t0 + size
        self.last_size = ts.size
        return ts, vs


def assert_monotone(before: HubStats, after: HubStats, step) -> None:
    for name in MONOTONE:
        assert getattr(after, name) >= getattr(before, name), (
            f"{name} went {getattr(before, name)} -> {getattr(after, name)} at {step}"
        )


HUB_OPS = (
    "create",
    "ingest",
    "backfill",
    "tick",
    "close",
    "close_noflush",
    "migrate",
    "restore",
)
CLUSTER_OPS = (
    "create",
    "ingest",
    "ingest_buffered",
    "backfill",
    "tick",
    "close",
    "close_noflush",
    "add_shard",
    "remove_shard",
    "restore",
)


def operations(names):
    return st.lists(
        st.tuples(st.sampled_from(names), st.integers(min_value=0, max_value=2**16)),
        min_size=8,
        max_size=40,
    )


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), ops=operations(HUB_OPS))
@settings(deadline=None)
def test_streamhub_counters_never_decrease(seed, ops):
    feed = Feed(np.random.default_rng(seed))
    hub = StreamHub(max_sessions=2, idle_ticks_before_eviction=2, default_config=MESSY)
    previous = hub.stats
    for step, (op, pick) in enumerate(ops):
        ids = hub.stream_ids()
        sid = ids[pick % len(ids)] if ids else None
        size = 8 + pick % 60
        if op == "create" or sid is None:
            hub.create_stream()
        elif op == "ingest":
            hub.ingest(sid, *feed.next(sid, size))
        elif op == "backfill":
            hub.backfill(sid, *feed.next(sid, size))
        elif op == "tick":
            hub.tick()
        elif op in ("close", "close_noflush"):
            hub.close(sid, flush=op == "close")
        elif op == "migrate":
            hub.import_session(hub.export_session(sid, remove=True))
        else:
            hub = restore(checkpoint(hub))
        current = hub.stats
        assert_monotone(previous, current, (step, op))
        previous = current


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), ops=operations(CLUSTER_OPS))
@settings(deadline=None)
def test_sharded_counters_never_decrease(seed, ops):
    feed = Feed(np.random.default_rng(seed))
    cluster = ShardedHub(
        shards=2,
        max_sessions_per_shard=2,
        idle_ticks_before_eviction=2,
        default_config=MESSY,
    )
    previous = cluster.stats
    for step, (op, pick) in enumerate(ops):
        ids = cluster.stream_ids()
        sid = ids[pick % len(ids)] if ids else None
        size = 8 + pick % 60
        try:
            if op == "create" or sid is None:
                cluster.create_stream()
            elif op in ("ingest", "ingest_buffered"):
                cluster.ingest(sid, *feed.next(sid, size), buffered=op == "ingest_buffered")
            elif op == "backfill":
                cluster.backfill(sid, *feed.next(sid, size))
            elif op == "tick":
                cluster.tick()
            elif op in ("close", "close_noflush"):
                cluster.close(sid, flush=op == "close")
            elif op == "add_shard":
                if len(cluster.shard_ids) < 4:
                    cluster.add_shard()
            elif op == "remove_shard":
                shards = cluster.shard_ids
                if len(shards) > 1:
                    cluster.remove_shard(shards[pick % len(shards)])
            else:
                cluster = ShardedHub.restore(cluster.checkpoint())
        except UnknownStreamError:
            pass  # evicted shard-side; the coordinator's map just healed
        current = cluster.stats
        assert_monotone(previous, current, (step, op))
        previous = current


# -- one explicit test per removal path ----------------------------------------


def busy_hub(**kwargs) -> tuple[StreamHub, Feed]:
    """A hub with one stream whose operator counters have all moved."""
    feed = Feed(np.random.default_rng(2017))
    hub = StreamHub(default_config=MESSY, **kwargs)
    hub.create_stream("s0", history=feed.next("s0", 400))
    for _ in range(6):
        hub.ingest("s0", *feed.next("s0", 60))
        hub.tick()
    return hub, feed


def assert_moved(stats: HubStats) -> None:
    for name in OPERATOR_COUNTERS:
        assert getattr(stats, name) > 0, name


@pytest.mark.parametrize("flush", [True, False])
def test_close_keeps_lifetime_totals(flush):
    hub, _feed = busy_hub()
    before = hub.stats
    assert_moved(before)
    hub.close("s0", flush=flush)
    after = hub.stats
    assert after.sessions_active == 0 and after.sessions_closed == 1
    assert_monotone(before, after, "close")
    if not flush:  # nothing ran after the snapshot: totals carry over exactly
        for name in OPERATOR_COUNTERS:
            assert getattr(after, name) == getattr(before, name), name


def test_close_folds_counters_after_the_final_flush():
    hub, feed = busy_hub()
    hub.ingest("s0", *feed.next("s0", 7))  # a partial interval for flush
    twin = StreamingASAP.from_state(hub.export_session("s0")["operator"])
    assert twin.flush()  # the final refresh moves the warm counters
    hub.close("s0", flush=True)
    stats = hub.stats
    assert {name: getattr(stats, name) for name in twin.counters} == twin.counters


def test_migration_moves_counters_without_double_counting():
    hub, _feed = busy_hub()
    before = hub.stats
    target = StreamHub(default_config=MESSY)
    target.import_session(hub.export_session("s0", remove=True))
    for name in OPERATOR_COUNTERS:
        assert getattr(hub.stats, name) == 0, name
        assert getattr(target.stats, name) == getattr(before, name), name
    hub.import_session(target.export_session("s0", remove=True))
    after = hub.stats
    for name in OPERATOR_COUNTERS:
        assert getattr(after, name) == getattr(before, name), name


def test_lru_eviction_keeps_lifetime_totals():
    hub, _feed = busy_hub(max_sessions=1)
    before = hub.stats
    assert_moved(before)
    hub.create_stream("s1")  # evicts s0
    after = hub.stats
    assert hub.stream_ids() == ["s1"] and after.sessions_evicted == 1
    assert_monotone(before, after, "lru eviction")
    for name in OPERATOR_COUNTERS:
        assert getattr(after, name) == getattr(before, name), name


def test_idle_eviction_keeps_lifetime_totals():
    hub, _feed = busy_hub(idle_ticks_before_eviction=1)
    before = hub.stats
    assert_moved(before)
    hub.tick()
    hub.tick()  # s0 idle for 2 ticks > 1: reaped
    after = hub.stats
    assert len(hub) == 0 and after.sessions_evicted == 1
    assert_monotone(before, after, "idle eviction")
    for name in OPERATOR_COUNTERS:
        assert getattr(after, name) == getattr(before, name), name


def test_remove_shard_keeps_lifetime_totals():
    feed = Feed(np.random.default_rng(4))
    with ShardedHub(shards=2, default_config=MESSY) as cluster:
        for i in range(4):
            cluster.create_stream(f"s{i}", history=feed.next(f"s{i}", 300))
        for _ in range(4):
            for sid in cluster.stream_ids():
                cluster.ingest(sid, *feed.next(sid, 60), buffered=True)
            cluster.tick()
        before = cluster.stats
        assert_moved(before)
        # Close two streams on one shard, then retire that shard: its folded
        # totals must survive in the cluster's retired mapping.
        victim = cluster.shard_of("s0")
        for sid in [s for s in cluster.stream_ids() if cluster.shard_of(s) == victim][:2]:
            cluster.close(sid, flush=False)
        cluster.remove_shard(victim)
        after = cluster.stats
        assert_monotone(before, after, "remove_shard")
        assert after.ticks == before.ticks == 4  # a clock, not a sum
        for name in OPERATOR_COUNTERS:
            assert getattr(after, name) == getattr(before, name), name


def test_restore_keeps_lifetime_totals():
    hub, feed = busy_hub(max_sessions=2)
    hub.create_stream("s1", history=feed.next("s1", 200))
    before = hub.stats
    hub.close("s0", flush=False)
    hub.create_stream("s2")
    hub.create_stream("s3")  # evicts s1
    restored = restore(checkpoint(hub))
    assert restored.stats == hub.stats
    assert_monotone(before, restored.stats, "restore")
    for name in OPERATOR_COUNTERS:
        assert getattr(restored.stats, name) == getattr(before, name), name

    with ShardedHub(shards=2, default_config=MESSY) as cluster:
        for i in range(4):
            cluster.create_stream(f"s{i}", history=feed.next(f"c{i}", 300))
        cluster.tick()
        before = cluster.stats
        cluster.close("s0", flush=False)
        cluster.remove_shard(cluster.shard_of("s1"))
        revived = ShardedHub.restore(cluster.checkpoint())
        assert revived.stats == cluster.stats
        assert_monotone(before, revived.stats, "cluster restore")
        revived.shutdown()


def test_counters_stay_exact_and_monotone_under_thread_churn():
    # Six workers on a three-session hub: ingests, backfills, closes and LRU
    # evictions interleave while a reader polls stats.  A lost update or a
    # session caught between leaving the registry and being folded shows up
    # as a dip or as totals that disagree with what the workers did.
    hub = StreamHub(max_sessions=3, default_config=MESSY)
    done = threading.Event()
    dips: list[str] = []
    offered = [0] * 6
    backfills = [0] * 6

    def reader():
        previous = hub.stats
        while not done.is_set():
            current = hub.stats
            dips.extend(
                name for name in MONOTONE if getattr(current, name) < getattr(previous, name)
            )
            previous = current

    def worker(w: int):
        feed = Feed(np.random.default_rng(100 + w))
        for i in range(12):
            sid = hub.create_stream(f"w{w}-{i}")
            try:
                hub.backfill(sid, *feed.next(sid, 120))
                backfills[w] += 1
                offered[w] += feed.last_size
                for _ in range(3):
                    hub.ingest(sid, *feed.next(sid, 40))
                    offered[w] += feed.last_size
                hub.close(sid, flush=i % 2 == 0)
            except UnknownStreamError:
                pass  # another worker's create evicted this session

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
        polling = threading.Thread(target=reader)
        polling.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        done.set()
        polling.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in [*threads, polling])
    assert dips == []
    stats = hub.stats
    assert stats.sessions_created == 72
    assert stats.sessions_closed + stats.sessions_evicted + stats.sessions_active == 72
    assert stats.points_ingested == sum(offered)
    assert stats.backfills == sum(backfills)


# -- counting rules ------------------------------------------------------------


def messy_archive():
    ts = np.arange(3000, dtype=np.float64)
    vs = np.sin(ts / 10.0)
    vs[[10, 700, 1400]] = np.nan
    return ts, vs


def test_points_ingested_counts_arrivals_on_every_path():
    ts, vs = messy_archive()
    spec = AsapSpec(pane_size=2, resolution=100, normalize=True, watermark=5)
    via = {}
    for path in ("ingest", "backfill"):
        hub = StreamHub(default_config=spec)
        sid = hub.create_stream()
        getattr(hub, path)(sid, ts, vs)
        assert hub.snapshot(sid).nan_dropped == 3
        via[path] = hub.stats.points_ingested
        with ShardedHub(shards=2, default_config=spec) as cluster:
            sid = cluster.create_stream()
            getattr(cluster, path)(sid, ts, vs)
            via[f"sharded {path}"] = cluster.stats.points_ingested
    assert via == dict.fromkeys(via, ts.size)


@pytest.mark.parametrize(
    "counters, reason",
    [
        ({"sessions_created": 1, "bogus": 3}, "unknown counters"),
        ({"sessions_created": -1}, "non-negative integer"),
        ({"views_served": 2.5}, "non-negative integer"),
        ({"views_served": True}, "non-negative integer"),
        (["sessions_created"], "must be a mapping"),
    ],
)
def test_restore_rejects_malformed_counters(counters, reason):
    hub, _feed = busy_hub()
    state = hub.state_dict()
    state["counters"] = counters
    with pytest.raises(CheckpointError, match=reason):
        StreamHub.from_state(state)


def test_restore_rejects_malformed_operator_counters():
    hub, _feed = busy_hub()
    for counters, reason in (
        ({"warm_prefetches": -5}, "non-negative integer"),
        ({"gaps_filled": 1}, "unknown counters"),  # owned by the quality stage
    ):
        state = hub.state_dict()
        state["sessions"][0]["operator"]["counters"] = counters
        with pytest.raises(CheckpointError, match=reason):
            StreamHub.from_state(state)
