"""Benchmark: sharded cluster serving + durable restore vs one StreamHub.

The workload is the ROADMAP's production scenario pushed past one process:
hundreds of concurrent streams, each delivering one scrape interval of
points per round, served by a :class:`~repro.cluster.ShardedHub` whose
shards are real ``multiprocessing`` workers.  Three properties are checked,
in order:

1. **Sharding changes nothing.**  A 4-shard process-backed cluster (and the
   in-process backend) is fed identical data to a single
   :class:`~repro.service.StreamHub`; every stream's frames must be
   bit-identical (sessions are partitioned, never split).
2. **Durability changes nothing.**  A run is checkpointed part-way
   (:mod:`repro.persist`), the serving object discarded ("kill"), restored,
   and continued; the post-restore frames must be bit-identical to an
   uninterrupted run — for the single hub *and* for the cluster's
   kill-one-shard -> ``drop_shard`` -> ``restore_streams`` recovery path.
3. **Shards buy throughput.**  Aggregate ingest+tick wall time for the same
   rounds on 4 process shards vs 1 process shard (both pay the same IPC
   protocol, so the ratio isolates parallelism).

The process exits non-zero on any equivalence violation (the acceptance
gate; run before timing).  Timing never fails the smoke run — CI asserts
equivalence, not speed — and full runs enforce ``--min-speedup`` only when
the machine actually has >= 2 usable cores (process parallelism cannot beat
1x on a single core; the report says so instead of failing).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_cluster.py
    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke --json out.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.cluster import ShardDownError, ShardedHub
from repro.persist import checkpoint, restore
from repro.service import StreamHub
from repro.spec import AsapSpec


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def make_streams(n_streams: int, length: int, seed: int) -> list[np.ndarray]:
    """Dashboard-shaped traffic: noisy periodic series with occasional spikes."""
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    streams = []
    for index in range(n_streams):
        period = float(rng.integers(20, max(length // 20, 21)))
        values = np.sin(2 * np.pi * t / period) + 0.3 * rng.normal(size=length)
        if index % 7 == 0:
            values[rng.integers(0, length)] += 8.0
        streams.append(values)
    return streams


def drive_single(streams, ts, chunk, config, start=0, stop=None, hub=None):
    """One StreamHub over rounds [start, stop); returns (hub, frames, seconds)."""
    stop = ts.size if stop is None else stop
    if hub is None:
        hub = StreamHub(max_sessions=len(streams), default_config=config)
        for index in range(len(streams)):
            hub.create_stream(f"stream-{index}")
    frames = {f"stream-{index}": [] for index in range(len(streams))}
    started = time.perf_counter()
    for position in range(start, stop, chunk):
        end = min(position + chunk, stop)
        for index, values in enumerate(streams):
            sid = f"stream-{index}"
            frames[sid].extend(hub.ingest(sid, ts[position:end], values[position:end]))
        for sid, emitted in hub.tick().items():
            frames[sid].extend(emitted)
    return hub, frames, time.perf_counter() - started


def drive_sharded(streams, ts, chunk, config, shards, backend, start=0, stop=None, hub=None):
    """A ShardedHub over rounds [start, stop); returns (hub, frames, seconds)."""
    stop = ts.size if stop is None else stop
    if hub is None:
        hub = ShardedHub(
            shards=shards,
            backend=backend,
            max_sessions_per_shard=len(streams),
            default_config=config,
        )
        for index in range(len(streams)):
            hub.create_stream(f"stream-{index}")
    frames = {f"stream-{index}": [] for index in range(len(streams))}
    started = time.perf_counter()
    for position in range(start, stop, chunk):
        end = min(position + chunk, stop)
        for index, values in enumerate(streams):
            sid = f"stream-{index}"
            hub.ingest(sid, ts[position:end], values[position:end], buffered=True)
        for sid, emitted in hub.tick().items():
            frames[sid].extend(emitted)
    return hub, frames, time.perf_counter() - started


def check_frames_equal(reference, candidate, label: str) -> int:
    """Frame-for-frame bit-identity; exits non-zero on any violation."""
    checked = 0
    for sid, ref_frames in reference.items():
        got_frames = candidate.get(sid, [])
        if len(ref_frames) != len(got_frames):
            print(
                f"FAIL [{label}]: {sid}: {len(ref_frames)} reference frames vs "
                f"{len(got_frames)}",
                file=sys.stderr,
            )
            sys.exit(1)
        for a, b in zip(ref_frames, got_frames):
            checked += 1
            if a.window != b.window or not np.array_equal(a.series.values, b.series.values):
                print(
                    f"FAIL [{label}]: {sid} refresh {a.refresh_index}: window "
                    f"{a.window} vs {b.window} or smoothed values differ",
                    file=sys.stderr,
                )
                sys.exit(1)
    return checked


def verify_sharded(streams, ts, chunk, config, shards, reference) -> dict:
    """Sharded frames (both backends) == single-hub frames, bit for bit."""
    counts = {}
    for backend in ("inprocess", "process"):
        hub, frames, _ = drive_sharded(streams, ts, chunk, config, shards, backend)
        hub.shutdown()
        counts[backend] = check_frames_equal(reference, frames, f"sharded-{backend}")
    return counts


def verify_restore(streams, ts, chunk, config, shards, reference, split) -> dict:
    """checkpoint -> kill -> restore frames == uninterrupted, bit for bit."""
    # The uninterrupted run's tail: frames emitted strictly after `split`
    # (the head run tells us how many frames each stream emitted before it).
    single, head_frames, _ = drive_single(streams, ts, chunk, config, stop=split)
    tail = {sid: reference[sid][len(head_frames[sid]) :] for sid in reference}

    # (a) single hub: checkpoint, discard, restore, continue.
    blob = checkpoint(single)
    del single
    restored = restore(blob)
    _, post_frames, _ = drive_single(streams, ts, chunk, config, start=split, hub=restored)
    checked_single = check_frames_equal(tail, post_frames, "restore-single")

    # (b) cluster: checkpoint, kill one worker mid-service, drop it, restore
    # its streams from the checkpoint, continue serving everything.
    cluster, cluster_head, _ = drive_sharded(
        streams, ts, chunk, config, shards, "process", stop=split
    )
    cluster_blob = cluster.checkpoint()
    victim = cluster.shard_of("stream-0")
    cluster.kill_shard(victim)
    try:
        for index, values in enumerate(streams):
            sid = f"stream-{index}"
            cluster.ingest(sid, ts[split : split + 1], values[split : split + 1], buffered=True)
        cluster.tick()
        print("FAIL [restore-cluster]: killed shard did not surface", file=sys.stderr)
        sys.exit(1)
    except ShardDownError as exc:
        lost = cluster.drop_shard(exc.shard_ids[0])
        cluster.restore_streams(cluster_blob, lost)
    # The killed shard's streams resume from the checkpoint; feed them the
    # full post-split range and compare against the uninterrupted tail.
    # (Healthy shards already consumed one point; their equivalence is
    # covered by phase 1, so only the restored streams are driven on.)
    lost_set = set(lost)
    post_cluster = {sid: [] for sid in lost_set}
    for position in range(split, ts.size, chunk):
        end = min(position + chunk, ts.size)
        for index, values in enumerate(streams):
            sid = f"stream-{index}"
            if sid in lost_set:
                cluster.ingest(sid, ts[position:end], values[position:end], buffered=True)
        for sid, emitted in cluster.tick().items():
            if sid in lost_set:
                post_cluster[sid].extend(emitted)
    cluster.shutdown()
    checked_cluster = check_frames_equal(
        {sid: tail[sid] for sid in lost_set}, post_cluster, "restore-cluster"
    )
    return {
        "frames_checked_single": checked_single,
        "frames_checked_cluster": checked_cluster,
        "streams_killed": len(lost_set),
        "checkpoint_bytes": len(blob),
    }


def run(args: argparse.Namespace) -> int:
    config = AsapSpec(
        pane_size=args.pane_size,
        resolution=args.resolution,
        refresh_interval=args.refresh_interval,
        strategy=args.strategy,
    )
    streams = make_streams(args.streams, args.length, args.seed)
    ts = np.arange(args.length, dtype=np.float64)
    chunk = args.chunk or args.pane_size * args.refresh_interval
    split = (args.length // (2 * chunk)) * chunk
    cpus = usable_cpus()
    print(
        f"cluster: {len(streams)} streams x {args.length} points, "
        f"pane_size={config.pane_size}, resolution={config.resolution}, "
        f"refresh_interval={config.refresh_interval}, chunk={chunk}, "
        f"shards={args.shards} (process backend), cpus={cpus}"
    )

    _, reference, _ = drive_single(streams, ts, chunk, config)
    total_frames = sum(len(f) for f in reference.values())

    print("verifying sharded == single hub (frames bit-identical):")
    sharded_checked = verify_sharded(streams, ts, chunk, config, args.shards, reference)
    for backend, checked in sharded_checked.items():
        print(f"  {backend}: {checked} frames identical across {len(streams)} streams")

    print("verifying checkpoint -> kill -> restore == uninterrupted:")
    restore_checked = verify_restore(streams, ts, chunk, config, args.shards, reference, split)
    print(
        f"  single hub: {restore_checked['frames_checked_single']} post-restore "
        f"frames identical ({restore_checked['checkpoint_bytes']} byte checkpoint)"
    )
    print(
        f"  cluster: killed 1 of {args.shards} shards "
        f"({restore_checked['streams_killed']} streams), "
        f"{restore_checked['frames_checked_cluster']} post-restore frames identical"
    )

    timings = {}
    for shards in (1, args.shards):
        best = float("inf")
        for _ in range(args.repeats):
            hub, _, seconds = drive_sharded(streams, ts, chunk, config, shards, "process")
            hub.shutdown()
            best = min(best, seconds)
        timings[shards] = best
    _, _, single_seconds = drive_single(streams, ts, chunk, config)

    total_points = len(streams) * args.length
    speedup = timings[1] / timings[args.shards] if timings[args.shards] > 0 else float("inf")
    print()
    print(f"{'driver':18s} {'seconds':>9s} {'points/s':>12s} {'frames/s':>10s}")
    print("-" * 52)
    for label, seconds in (
        ("single StreamHub", single_seconds),
        ("1 process shard", timings[1]),
        (f"{args.shards} process shards", timings[args.shards]),
    ):
        print(
            f"{label:18s} {seconds:9.3f} {total_points / seconds:12.0f} "
            f"{total_frames / seconds:10.1f}"
        )
    print(
        f"\naggregate ingest+tick throughput: {speedup:.2f}x with "
        f"{args.shards} process shards vs 1"
    )

    if args.json:
        payload = {
            "benchmark": "cluster",
            "params": {
                "streams": len(streams),
                "length": args.length,
                "chunk": chunk,
                "split": split,
                "pane_size": config.pane_size,
                "resolution": config.resolution,
                "refresh_interval": config.refresh_interval,
                "strategy": config.strategy,
                "shards": args.shards,
                "repeats": args.repeats,
                "seed": args.seed,
                "smoke": args.smoke,
                "cpus": cpus,
            },
            "equivalence": {
                "ok": True,
                "sharded_frames_checked": sharded_checked,
                **restore_checked,
            },
            "frames": total_frames,
            "single_hub_seconds": single_seconds,
            "one_shard_seconds": timings[1],
            "sharded_seconds": timings[args.shards],
            "speedup_vs_one_shard": speedup,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    if not args.smoke and speedup < args.min_speedup:
        if cpus < 2:
            print(
                f"NOTE: speedup {speedup:.2f}x below {args.min_speedup:.2f}x, but "
                f"only {cpus} usable core(s) — process parallelism cannot exceed "
                f"1x here; timing gate skipped (equivalence already verified)"
            )
        else:
            print(
                f"FAIL: cluster speedup {speedup:.2f}x below required "
                f"{args.min_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--streams", type=int, default=240, help="concurrent streams")
    parser.add_argument("--length", type=int, default=4000, help="points per stream")
    parser.add_argument("--pane-size", type=int, default=4, help="points per pane")
    parser.add_argument("--resolution", type=int, default=800, help="panes per window")
    parser.add_argument(
        "--refresh-interval", type=int, default=25, help="panes between refreshes"
    )
    parser.add_argument("--strategy", default="asap", help="search strategy per session")
    parser.add_argument("--shards", type=int, default=4, help="process shards to time")
    parser.add_argument(
        "--chunk", type=int, default=None, help="points per ingest batch (default: one refresh)"
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument("--seed", type=int, default=20170501, help="stream seed")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="required 4-shard/1-shard throughput ratio (full runs, >= 2 cores)",
    )
    parser.add_argument("--json", default=None, help="write results to this JSON file")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: verifies equivalence; never fails on timing",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.streams = min(args.streams, 12)
        args.length = min(args.length, 1200)
        args.resolution = min(args.resolution, 200)
        args.repeats = 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
