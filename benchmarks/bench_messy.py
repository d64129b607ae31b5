"""Benchmark: the data-quality stage on dense and messy streams.

The workload is a monitoring stream ingested through
:class:`~repro.core.streaming.StreamingASAP` twice: once with the quality
stage off (the pre-quality pipeline) and once with normalization plus a
reordering watermark on.  The headline number is the *dense-input overhead
ratio* — quality-on ingest throughput divided by quality-off — which the
ratchet floors: the fast paths must keep clean data nearly free.

Before timing, three identities are verified and the process exits non-zero
on any violation:

* **dense no-op** — on finite, ordered, regular arrivals, the quality
  operator's frames are bit-identical to the baseline's (same windows, same
  smoothed bytes, all-clean quality reports), at the operator and at the
  :class:`~repro.service.StreamHub` serving tier;
* **shuffle-within-watermark** — arrivals block-shuffled with displacement
  at most the watermark produce frames bit-identical to the in-order run,
  with zero drops;
* **per-point == batched** — one-point ``push`` and bulk ``push_many``
  produce identical frames with the quality stage active.

Timing uses CPU time (``time.process_time``): ingest is pure compute and
wall clock on shared runners is too noisy to ratchet.  Smoke runs never
fail on timing (CI asserts identity, not speed); full runs enforce
``--min-speedup``.  A messy lane (gaps + NaNs + reordering) is timed for
information only.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_messy.py
    PYTHONPATH=src python benchmarks/bench_messy.py --smoke --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.core.streaming import StreamingASAP
from repro.service import StreamHub
from repro.spec import AsapSpec
from repro.stream.sources import StreamPoint


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


def block_shuffle(ts, vs, block: int, seed: int):
    """Shuffle within consecutive blocks: displacement is at most ``block``."""
    rng = np.random.default_rng(seed)
    order = np.arange(ts.size)
    for start in range(0, ts.size, block):
        stop = min(start + block, ts.size)
        order[start:stop] = start + rng.permutation(stop - start)
    return ts[order], vs[order]


def make_messy(values, ts, seed: int):
    """Gaps, NaN holes, and bounded reordering — the messy-lane arrivals."""
    rng = np.random.default_rng(seed)
    vs = values.copy()
    for _ in range(max(1, vs.size // 4000)):
        at = int(rng.integers(0, vs.size - 12))
        vs[at : at + 8] = np.nan
    keep = np.ones(vs.size, dtype=bool)
    for _ in range(max(1, vs.size // 8000)):
        at = int(rng.integers(0, vs.size - 40))
        keep[at : at + 25] = False
    return block_shuffle(ts[keep], vs[keep], 16, seed + 1)


def make_operator(quality: bool, resolution, refresh_interval, watermark):
    return StreamingASAP(
        AsapSpec(
            pane_size=2,
            resolution=resolution,
            refresh_interval=refresh_interval,
            strategy="asap",
            incremental=True,
            normalize=quality,
            cadence=1.0 if quality else None,
            watermark=watermark if quality else 0,
        )
    )


def drive(operator, ts, vs, batch):
    """Push everything in batches plus a flush; returns (frames, cpu seconds)."""
    frames = []
    started = time.process_time()
    for start in range(0, ts.size, batch):
        stop = min(start + batch, ts.size)
        frames.extend(operator.push_many(ts[start:stop], vs[start:stop]))
    frames.extend(operator.flush())
    return frames, time.process_time() - started


def fail(message: str):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_frames_bit_identical(label, ours, theirs):
    if len(ours) != len(theirs):
        fail(f"{label}: {len(ours)} frames vs {len(theirs)}")
    for a, b in zip(ours, theirs):
        if a.window != b.window:
            fail(f"{label}: refresh {a.refresh_index}: window {a.window} vs {b.window}")
        if a.series.values.tobytes() != b.series.values.tobytes():
            fail(f"{label}: refresh {a.refresh_index}: smoothed bytes differ")


def verify_dense_noop(ts, vs, batch, resolution, refresh_interval, watermark) -> dict:
    """Quality-on frames over clean input == quality-off frames, bit for bit."""
    base, _ = drive(make_operator(False, resolution, refresh_interval, watermark), ts, vs, batch)
    quality, _ = drive(make_operator(True, resolution, refresh_interval, watermark), ts, vs, batch)
    check_frames_bit_identical("dense no-op", quality, base)
    for frame in quality:
        q = frame.quality
        if q.completeness != 1.0 or q.gaps_filled or q.nan_dropped or q.late_dropped:
            fail(f"dense no-op: refresh {frame.refresh_index} reports non-clean quality {q}")
    return {"dense_frames_checked": len(base)}


def verify_hub_dense_noop(ts, vs, batch, resolution, refresh_interval, watermark) -> dict:
    """The serving tier preserves the no-op: hub frames and clean counters."""
    results = {}
    for quality in (False, True):
        config = AsapSpec(
            pane_size=2,
            resolution=resolution,
            refresh_interval=refresh_interval,
            normalize=quality,
            cadence=1.0 if quality else None,
            watermark=watermark if quality else 0,
        )
        hub = StreamHub(default_config=config)
        sid = hub.create_stream()
        frames = []
        for start in range(0, ts.size, batch):
            stop = min(start + batch, ts.size)
            frames.extend(hub.ingest(sid, ts[start:stop], vs[start:stop]))
        results[quality] = (frames, hub.snapshot(sid), hub.stats)
    check_frames_bit_identical("hub dense no-op", results[True][0], results[False][0])
    snapshot, stats = results[True][1], results[True][2]
    if snapshot.completeness != 1.0 or snapshot.gaps_filled or snapshot.late_dropped:
        fail(f"hub dense no-op: snapshot reports non-clean quality ({snapshot})")
    if stats.gaps_filled or stats.nan_dropped or stats.late_accepted or stats.late_dropped:
        fail("hub dense no-op: hub stats report non-zero quality counters")
    return {"hub_frames_checked": len(results[True][0])}


def verify_shuffle_identity(ts, vs, batch, resolution, refresh_interval, watermark) -> dict:
    """Shuffled-within-watermark arrivals reproduce the in-order frames."""
    ordered, _ = drive(make_operator(True, resolution, refresh_interval, watermark), ts, vs, batch)
    shuffled_ts, shuffled_vs = block_shuffle(ts, vs, watermark, seed=9)
    operator = make_operator(True, resolution, refresh_interval, watermark)
    shuffled, _ = drive(operator, shuffled_ts, shuffled_vs, batch)
    check_frames_bit_identical("shuffle-within-watermark", shuffled, ordered)
    if operator.late_dropped != 0:
        fail(f"shuffle-within-watermark: {operator.late_dropped} drops (expected 0)")
    return {
        "shuffled_frames_checked": len(ordered),
        "late_accepted": operator.late_accepted,
    }


def verify_point_batch_identity(ts, vs, resolution, refresh_interval, watermark) -> dict:
    """push(StreamPoint) one at a time == push_many, quality stage active."""
    n = min(ts.size, 4000)
    batched, _ = drive(
        make_operator(True, resolution, refresh_interval, watermark), ts[:n], vs[:n], 137
    )
    operator = make_operator(True, resolution, refresh_interval, watermark)
    pointwise = []
    for i in range(n):
        pointwise.extend(operator.push(StreamPoint(ts[i], vs[i])))
    pointwise.extend(operator.flush())
    check_frames_bit_identical("per-point == batched", pointwise, batched)
    return {"pointwise_frames_checked": len(batched)}


def run(args: argparse.Namespace) -> int:
    values = make_series(args.length, args.seed)
    ts = np.arange(args.length, dtype=np.float64)
    print(
        f"messy: {args.length} points, resolution={args.resolution}, "
        f"refresh_interval={args.refresh_interval}, watermark={args.watermark}, "
        f"batch={args.batch}, repeats={args.repeats}"
    )

    print("verifying quality-stage identities:")
    identity = verify_dense_noop(
        ts, values, args.batch, args.resolution, args.refresh_interval, args.watermark
    )
    identity.update(
        verify_hub_dense_noop(
            ts, values, args.batch, args.resolution, args.refresh_interval, args.watermark
        )
    )
    identity.update(
        verify_shuffle_identity(
            ts, values, args.batch, args.resolution, args.refresh_interval, args.watermark
        )
    )
    identity.update(
        verify_point_batch_identity(
            ts, values, args.resolution, args.refresh_interval, args.watermark
        )
    )
    print(
        f"  dense no-op: {identity['dense_frames_checked']} operator + "
        f"{identity['hub_frames_checked']} hub frames bit-identical, all-clean reports"
    )
    print(
        f"  shuffle-within-watermark: {identity['shuffled_frames_checked']} frames "
        f"bit-identical, {identity['late_accepted']} reordered, 0 dropped"
    )
    print(f"  per-point == batched: {identity['pointwise_frames_checked']} frames")

    off_best = float("inf")
    on_best = float("inf")
    messy_ts, messy_vs = make_messy(values, ts, args.seed + 7)
    messy_best = float("inf")
    for _ in range(args.repeats):
        _, off_seconds = drive(
            make_operator(False, args.resolution, args.refresh_interval, args.watermark),
            ts,
            values,
            args.batch,
        )
        _, on_seconds = drive(
            make_operator(True, args.resolution, args.refresh_interval, args.watermark),
            ts,
            values,
            args.batch,
        )
        _, messy_seconds = drive(
            make_operator(True, args.resolution, args.refresh_interval, args.watermark),
            messy_ts,
            messy_vs,
            args.batch,
        )
        off_best = min(off_best, off_seconds)
        on_best = min(on_best, on_seconds)
        messy_best = min(messy_best, messy_seconds)

    # Headline: dense ingest throughput with the stage on vs off.  >= 1.0
    # would mean free; the ratchet floors how much overhead the fast paths
    # may cost on clean data.
    speedup = off_best / on_best if on_best > 0 else float("inf")
    messy_operator = make_operator(True, args.resolution, args.refresh_interval, args.watermark)
    drive(messy_operator, messy_ts, messy_vs, args.batch)

    print()
    print(f"{'lane':16s} {'cpu s':>10s} {'points/s':>14s}")
    print("-" * 42)
    print(f"{'dense, off':16s} {off_best:10.3f} {ts.size / off_best:14.0f}")
    print(f"{'dense, on':16s} {on_best:10.3f} {ts.size / on_best:14.0f}")
    print(f"{'messy, on':16s} {messy_best:10.3f} {messy_ts.size / messy_best:14.0f}")
    print(f"\ndense quality-stage throughput ratio: {speedup:.2f}x (1.0 = free)")
    print(
        f"messy accounting: {messy_operator.gaps_filled} gap points filled, "
        f"{messy_operator.nan_dropped} NaN dropped, "
        f"{messy_operator.late_accepted} reordered, "
        f"{messy_operator.late_dropped} dropped"
    )

    if args.json:
        payload = {
            "benchmark": "messy",
            "params": {
                "length": args.length,
                "batch": args.batch,
                "pane_size": 2,
                "resolution": args.resolution,
                "refresh_interval": args.refresh_interval,
                "watermark": args.watermark,
                "repeats": args.repeats,
                "seed": args.seed,
                "smoke": args.smoke,
            },
            "identity": {"ok": True, **identity},
            "dense_off_seconds": off_best,
            "dense_on_seconds": on_best,
            "messy_on_seconds": messy_best,
            "dense_off_points_per_second": ts.size / off_best if off_best > 0 else 0.0,
            "dense_on_points_per_second": ts.size / on_best if on_best > 0 else 0.0,
            "messy_points_per_second": messy_ts.size / messy_best if messy_best > 0 else 0.0,
            "gaps_filled": messy_operator.gaps_filled,
            "nan_dropped": messy_operator.nan_dropped,
            "late_accepted": messy_operator.late_accepted,
            "late_dropped": messy_operator.late_dropped,
            "speedup": speedup,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    if not args.smoke and speedup < args.min_speedup:
        print(
            f"FAIL: dense quality-stage ratio {speedup:.2f}x below required "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=200_000, help="points in the stream")
    parser.add_argument("--resolution", type=int, default=800, help="panes per window")
    parser.add_argument("--refresh-interval", type=int, default=50, help="panes between refreshes")
    parser.add_argument("--watermark", type=int, default=64, help="reorder buffer size (points)")
    parser.add_argument("--batch", type=int, default=137, help="arrival batch size (points)")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument("--seed", type=int, default=20170501, help="series seed")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.5,
        help="required dense on/off ingest throughput ratio (full runs only)",
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
