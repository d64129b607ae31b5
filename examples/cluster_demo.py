"""Demo: a 4-shard cluster surviving a shard crash via checkpoint/restore.

The story in five acts:

1. bring up a :class:`~repro.cluster.ShardedHub` with 4 process shards and
   a dozen live streams;
2. serve a while (buffered ingest, one batched IPC round per shard per
   tick), then take a durable checkpoint (:mod:`repro.persist` — one
   file: a JSON manifest plus raw array bytes, no pickle);
3. hard-kill one shard worker, mid-service;
4. the next tick raises :class:`~repro.cluster.ShardDownError` — drop the
   dead shard and restore its streams from the checkpoint onto the
   surviving shards;
5. keep serving every stream, and show a restored stream's snapshot.

This demo drives the cluster tier directly because it exercises the
cluster-only operations (shard membership, crash recovery).  Programs that
only need the serving lifecycle should use :func:`repro.connect`
(``backend="sharded"``) — and can still reach these operations through
``client.hub``.

Run::

    PYTHONPATH=src python examples/cluster_demo.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import AsapSpec
from repro.cluster import ShardDownError, ShardedHub

N_SHARDS = 4
N_STREAMS = 12
CHUNK = 100
WARM_ROUNDS = 8
FINAL_ROUNDS = 4


def main() -> None:
    rng = np.random.default_rng(20170501)
    length = (WARM_ROUNDS + FINAL_ROUNDS + 2) * CHUNK
    ts = np.arange(length, dtype=np.float64)
    traffic = [
        np.sin(2 * np.pi * ts / rng.integers(60, 200)) + 0.3 * rng.normal(size=length)
        for _ in range(N_STREAMS)
    ]
    # The unified spec configures the cluster exactly as it does smooth()
    # and the hub tier; it crosses the coordinator->shard IPC boundary as a
    # plain dict and travels inside the checkpoint unchanged.
    config = AsapSpec(pane_size=4, resolution=200, refresh_interval=10)

    print(f"1) starting {N_SHARDS} process shards, {N_STREAMS} streams")
    hub = ShardedHub(shards=N_SHARDS, backend="process", default_config=config)
    ids = [hub.create_stream(f"metric-{i}") for i in range(N_STREAMS)]
    for sid in ids:
        print(f"   {sid:10s} -> {hub.shard_of(sid)}")

    position = 0
    frames_served = 0
    for _ in range(WARM_ROUNDS):
        for index, sid in enumerate(ids):
            hub.ingest(
                sid,
                ts[position : position + CHUNK],
                traffic[index][position : position + CHUNK],
                buffered=True,
            )
        frames_served += sum(len(f) for f in hub.tick().values())
        position += CHUNK
    print(f"2) served {WARM_ROUNDS} rounds ({frames_served} frames); checkpointing")
    checkpoint_path = Path(tempfile.mkstemp(suffix=".ckpt", prefix="cluster-")[1])
    hub.checkpoint(checkpoint_path)
    print(f"   wrote {checkpoint_path} ({checkpoint_path.stat().st_size} bytes)")

    victim = hub.shard_of(ids[0])
    print(f"3) killing {victim} (hosts {sum(1 for s in ids if hub.shard_of(s) == victim)} streams)")
    hub.kill_shard(victim)

    try:
        for index, sid in enumerate(ids):
            hub.ingest(
                sid,
                ts[position : position + CHUNK],
                traffic[index][position : position + CHUNK],
                buffered=True,
            )
        hub.tick()
        raise SystemExit("the dead shard went unnoticed — this should not happen")
    except ShardDownError as exc:
        print(f"4) tick failed as expected: {exc}")
        lost = hub.drop_shard(exc.shard_ids[0])
        restored = hub.restore_streams(checkpoint_path, lost)
        print(
            f"   dropped {exc.shard_ids[0]}; restored {len(restored)} streams "
            f"from the checkpoint onto {len(hub.shard_ids)} surviving shards:"
        )
        for sid in restored:
            print(f"   {sid:10s} -> {hub.shard_of(sid)}")
    position += CHUNK

    # Restored streams lost the points after the checkpoint (that is the
    # durability contract) and simply resume from where the checkpoint was.
    print(f"5) serving {FINAL_ROUNDS} more rounds with every stream alive")
    frames_after = 0
    for _ in range(FINAL_ROUNDS):
        for index, sid in enumerate(ids):
            hub.ingest(
                sid,
                ts[position : position + CHUNK],
                traffic[index][position : position + CHUNK],
                buffered=True,
            )
        frames_after += sum(len(f) for f in hub.tick().values())
        position += CHUNK
    snap = hub.snapshot(ids[0])
    stats = hub.stats
    print(
        f"   {frames_after} frames after recovery; {ids[0]} has "
        f"{snap.panes} panes, window {snap.last_window}"
    )
    print(
        f"   cluster stats: {stats.sessions_active} sessions on "
        f"{len(hub.shard_ids)} shards, {stats.points_ingested} points, "
        f"{stats.frames_emitted} frames, {stats.sessions_imported} imports"
    )
    hub.shutdown()
    checkpoint_path.unlink()
    print("done: the cluster outlived its shard")


if __name__ == "__main__":
    main()
