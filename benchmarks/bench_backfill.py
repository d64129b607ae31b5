"""Benchmark: bulk backfill vs point-by-point archive replay.

The workload is an archive of monitoring-shaped traffic provisioned into a
fresh :class:`~repro.core.streaming.StreamingASAP` twice: once streamed
through ``push_many`` (the pre-backfill replay path, one real refresh per
boundary) and once through :meth:`~repro.core.streaming.StreamingASAP.
backfill` (one batched quality pass, bulk pane folding, chunk-cadence rolling
replay, a single closing search).  The headline number
is the *replay speedup* — backfill throughput over ``push_many`` throughput —
which the ratchet floors.

The headline configuration is **fast-lane eligible** (``asap`` strategy with
``seed_from_previous=False``): a seeded search chain must re-run every
boundary search to stay exact (CHECKLASTWINDOW feeds each winner into the
next search), so the seeded lane is timed for information only, and both
lanes are verified bit-identical before any timing — the process exits
non-zero on any violation:

* **fast lane** — ``backfill(prefix)`` then streaming the suffix produces
  frames bit-identical to streaming everything, and the elision ledger
  balances (frames elided + emitted == point-by-point frames);
* **replay lane** — the same bar on the seeded configuration;
* **provision-by-checkpoint** — ``backfill -> checkpoint -> restore`` at the
  :class:`~repro.service.StreamHub` tier streams on bit-identically to the
  uninterrupted hub.

Timing uses CPU time (``time.process_time``): ingest is pure compute and
wall clock on shared runners is too noisy to ratchet.  Smoke runs never
fail on timing (CI asserts identity, not speed); full runs enforce
``--min-speedup``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_backfill.py
    PYTHONPATH=src python benchmarks/bench_backfill.py --smoke --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.core.streaming import StreamingASAP
from repro.persist import checkpoint, restore
from repro.service import StreamHub
from repro.spec import AsapSpec


def make_series(length: int, seed: int) -> np.ndarray:
    """Multi-periodic monitoring-shaped traffic: three nested seasonalities."""
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    return (
        np.sin(2 * np.pi * t / 24)
        + 0.8 * np.sin(2 * np.pi * t / 96)
        + 0.6 * np.sin(2 * np.pi * t / 480)
        + 0.3 * rng.normal(size=length)
    )


def make_operator(args: argparse.Namespace, seeded: bool) -> StreamingASAP:
    return StreamingASAP(
        AsapSpec(
            pane_size=args.pane_size,
            resolution=args.resolution,
            refresh_interval=args.refresh_interval,
            strategy="asap",
            seed_from_previous=seeded,
            incremental=True,
        )
    )


def fail(message: str):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_frames_bit_identical(label, ours, theirs):
    if len(ours) != len(theirs):
        fail(f"{label}: {len(ours)} frames vs {len(theirs)}")
    for a, b in zip(ours, theirs):
        if a.window != b.window:
            fail(f"{label}: refresh {a.refresh_index}: window {a.window} vs {b.window}")
        if a.refresh_index != b.refresh_index:
            fail(f"{label}: refresh index {a.refresh_index} vs {b.refresh_index}")
        if a.series.values.tobytes() != b.series.values.tobytes():
            fail(f"{label}: refresh {a.refresh_index}: smoothed bytes differ")
        if a.series.timestamps.tobytes() != b.series.timestamps.tobytes():
            fail(f"{label}: refresh {a.refresh_index}: timestamps differ")


def stream_suffix(operator, ts, vs, start: int, batch: int):
    frames = []
    for lo in range(start, ts.size, batch):
        frames.extend(operator.push_many(ts[lo : lo + batch], vs[lo : lo + batch]))
    return frames


def verify_lane(label, args, ts, vs, seeded: bool) -> dict:
    """backfill(prefix) + stream(suffix) == stream everything, bit for bit."""
    split = int(ts.size * 0.8)
    batch = 137
    reference = make_operator(args, seeded)
    ref_prefix = list(reference.push_many(ts[:split], vs[:split]))
    ref_suffix = stream_suffix(reference, ts, vs, split, batch)

    operator = make_operator(args, seeded)
    result = operator.backfill(ts[:split], vs[:split])
    if result.frames:
        check_frames_bit_identical(
            f"{label} closing frames", list(result.frames), ref_prefix[-len(result.frames) :]
        )
    if result.frames_elided + len(result.frames) != len(ref_prefix):
        fail(
            f"{label}: ledger does not balance — {result.frames_elided} elided + "
            f"{len(result.frames)} emitted != {len(ref_prefix)} point-by-point frames"
        )
    suffix = stream_suffix(operator, ts, vs, split, batch)
    check_frames_bit_identical(f"{label} streamed suffix", suffix, ref_suffix)
    ours = operator.pyramid_view(64)
    theirs = reference.pyramid_view(64)
    if ours.values.tobytes() != theirs.values.tobytes():
        fail(f"{label}: pyramid views diverge after backfill")
    return {
        f"{result.mode}_frames_checked": len(suffix) + len(result.frames),
        f"{result.mode}_frames_elided": result.frames_elided,
        f"{result.mode}_searches_run": result.searches_run,
    }


def verify_provisioning(args, ts, vs) -> dict:
    """backfill -> checkpoint -> restore streams on bit-identically (hub tier)."""
    split = int(ts.size * 0.8)
    batch = 251
    config = AsapSpec(
        pane_size=args.pane_size,
        resolution=args.resolution,
        refresh_interval=args.refresh_interval,
        strategy="asap",
        seed_from_previous=False,
        incremental=True,
    )
    hub = StreamHub(default_config=config)
    sid = hub.create_stream(history=(ts[:split], vs[:split]))
    provisioned = restore(checkpoint(hub))

    ours, theirs = [], []
    for lo in range(split, ts.size, batch):
        ours.extend(provisioned.ingest(sid, ts[lo : lo + batch], vs[lo : lo + batch]))
        theirs.extend(hub.ingest(sid, ts[lo : lo + batch], vs[lo : lo + batch]))
        for frames in provisioned.tick().values():
            ours.extend(frames)
        for frames in hub.tick().values():
            theirs.extend(frames)
    check_frames_bit_identical("provision-by-checkpoint", ours, theirs)
    stats = provisioned.stats
    if stats.backfills != 1:
        fail(f"provision-by-checkpoint: restored hub reports {stats.backfills} backfills")
    return {"provisioned_frames_checked": len(ours)}


def run(args: argparse.Namespace) -> int:
    values = make_series(args.length, args.seed)
    ts = np.arange(args.length, dtype=np.float64)
    print(
        f"backfill: {args.length} points, pane_size={args.pane_size}, "
        f"resolution={args.resolution}, refresh_interval={args.refresh_interval}, "
        f"repeats={args.repeats}"
    )

    print("verifying backfill identities:")
    identity = verify_lane("fast lane", args, ts, values, seeded=False)
    identity.update(verify_lane("replay lane", args, ts, values, seeded=True))
    identity.update(verify_provisioning(args, ts, values))
    print(
        f"  fast lane: {identity['fast_frames_checked']} frames bit-identical, "
        f"{identity['fast_frames_elided']} elided, "
        f"{identity['fast_searches_run']} search(es)"
    )
    print(
        f"  replay lane: {identity['replay_frames_checked']} frames bit-identical, "
        f"{identity['replay_frames_elided']} elided, "
        f"{identity['replay_searches_run']} searches"
    )
    print(
        f"  provision-by-checkpoint: {identity['provisioned_frames_checked']} "
        f"post-restore frames bit-identical"
    )

    base_best = float("inf")
    fast_best = float("inf")
    seeded_base_best = float("inf")
    seeded_replay_best = float("inf")
    for _ in range(args.repeats):
        operator = make_operator(args, seeded=False)
        started = time.process_time()
        operator.push_many(ts, values)
        base_best = min(base_best, time.process_time() - started)

        operator = make_operator(args, seeded=False)
        started = time.process_time()
        operator.backfill(ts, values)
        fast_best = min(fast_best, time.process_time() - started)

        operator = make_operator(args, seeded=True)
        started = time.process_time()
        operator.push_many(ts, values)
        seeded_base_best = min(seeded_base_best, time.process_time() - started)

        operator = make_operator(args, seeded=True)
        started = time.process_time()
        operator.backfill(ts, values)
        seeded_replay_best = min(seeded_replay_best, time.process_time() - started)

    # Headline: the fast lane on the seed-free configuration — the only lane
    # where eliding interior searches is frame-exact, hence the one worth
    # ratcheting.  The seeded replay lane still searches every boundary and
    # is reported for information.
    speedup = base_best / fast_best if fast_best > 0 else float("inf")
    replay_speedup = (
        seeded_base_best / seeded_replay_best if seeded_replay_best > 0 else float("inf")
    )

    print()
    print(f"{'lane':22s} {'cpu s':>10s} {'points/s':>14s}")
    print("-" * 48)
    print(f"{'push_many':22s} {base_best:10.3f} {ts.size / base_best:14.0f}")
    print(f"{'backfill (fast)':22s} {fast_best:10.3f} {ts.size / fast_best:14.0f}")
    print(
        f"{'push_many (seeded)':22s} {seeded_base_best:10.3f} "
        f"{ts.size / seeded_base_best:14.0f}"
    )
    print(
        f"{'backfill (replay)':22s} {seeded_replay_best:10.3f} "
        f"{ts.size / seeded_replay_best:14.0f}"
    )
    print(f"\nbackfill replay speedup: {speedup:.2f}x (fast lane, ratcheted)")
    print(f"seeded replay-lane speedup: {replay_speedup:.2f}x (informational)")

    if args.json:
        payload = {
            "benchmark": "backfill",
            "params": {
                "length": args.length,
                "pane_size": args.pane_size,
                "resolution": args.resolution,
                "refresh_interval": args.refresh_interval,
                "repeats": args.repeats,
                "seed": args.seed,
                "smoke": args.smoke,
            },
            "identity": {"ok": True, **identity},
            "push_many_seconds": base_best,
            "backfill_seconds": fast_best,
            "seeded_push_many_seconds": seeded_base_best,
            "seeded_backfill_seconds": seeded_replay_best,
            "push_many_points_per_second": ts.size / base_best if base_best > 0 else 0.0,
            "backfill_points_per_second": ts.size / fast_best if fast_best > 0 else 0.0,
            "replay_speedup": replay_speedup,
            "speedup": speedup,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    if not args.smoke and speedup < args.min_speedup:
        print(
            f"FAIL: backfill replay speedup {speedup:.2f}x below required "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=100_000, help="points in the archive")
    parser.add_argument("--pane-size", type=int, default=10, help="points per pane")
    parser.add_argument("--resolution", type=int, default=2000, help="panes per window")
    parser.add_argument("--refresh-interval", type=int, default=10, help="panes between refreshes")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument("--seed", type=int, default=20170501, help="series seed")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="required backfill/push_many throughput ratio (full runs only)",
    )
    parser.add_argument("--json", default=None, help="write results to this JSON file")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: verifies identity; never fails on timing",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.length = min(args.length, 12_000)
        args.resolution = min(args.resolution, 300)
        args.repeats = 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
