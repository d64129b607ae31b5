"""Benchmark: StreamHub serving vs looping per-point StreamingASAP operators.

The workload is the ROADMAP's serving scenario: hundreds of concurrent
streams, each delivering one scrape interval of points per round, each
refreshing its smoothed frame at its on-demand boundary.  Two drivers
process identical data:

* ``loop`` — one from-scratch :class:`~repro.core.streaming.StreamingASAP`
  per stream, fed point by point (the pre-StreamHub serving shape: the
  operator's public push contract in a Python loop);
* ``hub``  — one :class:`~repro.service.StreamHub` hosting every stream:
  vectorized batch ingestion, refreshes deferred to a shared tick, and
  incremental ACF/moment state (O(new panes) per refresh).

Before timing, the two drivers' frames are verified equivalent stream by
stream — same refresh boundaries, identical selected windows, bit-identical
smoothed values, search moments within 1e-9 — and the process exits non-zero
on any violation.  Timing never fails the smoke run (CI asserts identity,
not speed); full runs enforce ``--min-speedup``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_streamhub.py
    PYTHONPATH=src python benchmarks/bench_streamhub.py --smoke --json out.json
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


def baseline_config(config: AsapSpec) -> dict:
    return dict(
        pane_size=config.pane_size,
        resolution=config.resolution,
        refresh_interval=config.refresh_interval,
        strategy=config.strategy,
        max_window=config.max_window,
        seed_from_previous=config.seed_from_previous,
    )


def drive_loop(streams, ts, chunk, config: AsapSpec):
    """Per-point looped operators; returns (frames_by_stream, seconds)."""
    operators = [
        StreamingASAP(AsapSpec(**baseline_config(config), incremental=False)) for _ in streams
    ]
    frames = [[] for _ in streams]
    length = ts.size
    started = time.perf_counter()
    for start in range(0, length, chunk):
        stop = min(start + chunk, length)
        for index, values in enumerate(streams):
            push = operators[index].push
            out = frames[index]
            for i in range(start, stop):
                out.extend(push(StreamPoint(ts[i], values[i])))
    return frames, time.perf_counter() - started


def drive_hub(streams, ts, chunk, config: AsapSpec):
    """StreamHub serving; returns (frames_by_stream, seconds)."""
    hub = StreamHub(max_sessions=len(streams), default_config=config)
    ids = [hub.create_stream() for _ in streams]
    frames = [[] for _ in streams]
    length = ts.size
    started = time.perf_counter()
    for start in range(0, length, chunk):
        stop = min(start + chunk, length)
        for index, sid in enumerate(ids):
            frames[index].extend(hub.ingest(sid, ts[start:stop], streams[index][start:stop]))
        emitted = hub.tick()
        for index, sid in enumerate(ids):
            frames[index].extend(emitted.get(sid, []))
    elapsed = time.perf_counter() - started
    return frames, elapsed, hub.stats


def verify_equivalence(loop_frames, hub_frames) -> dict:
    """Frame-for-frame equivalence; exits non-zero on any violation."""
    checked = 0
    max_moment_diff = 0.0
    for index, (loop_stream, hub_stream) in enumerate(zip(loop_frames, hub_frames)):
        if len(loop_stream) != len(hub_stream):
            print(
                f"FAIL: stream {index}: {len(loop_stream)} looped frames vs "
                f"{len(hub_stream)} hub frames",
                file=sys.stderr,
            )
            sys.exit(1)
        for a, b in zip(loop_stream, hub_stream):
            checked += 1
            if a.window != b.window or not np.array_equal(a.series.values, b.series.values):
                print(
                    f"FAIL: stream {index} refresh {a.refresh_index}: "
                    f"window {a.window} vs {b.window} or smoothed values differ",
                    file=sys.stderr,
                )
                sys.exit(1)
            diff = max(
                abs(a.search.roughness - b.search.roughness),
                abs(a.search.kurtosis - b.search.kurtosis),
            )
            max_moment_diff = max(max_moment_diff, diff)
            if diff > 1e-9:
                print(
                    f"FAIL: stream {index} refresh {a.refresh_index}: "
                    f"search moments differ by {diff:.3e} (> 1e-9)",
                    file=sys.stderr,
                )
                sys.exit(1)
    return {"frames_checked": checked, "max_moment_diff": max_moment_diff}


def run(args: argparse.Namespace) -> int:
    from repro.core.search import STRATEGIES

    if args.strategy not in STRATEGIES:
        print(
            f"unknown strategy {args.strategy!r}; available: {', '.join(STRATEGIES)}",
            file=sys.stderr,
        )
        return 2
    config = AsapSpec(
        pane_size=args.pane_size,
        resolution=args.resolution,
        refresh_interval=args.refresh_interval,
        strategy=args.strategy,
    )
    streams = make_streams(args.streams, args.length, args.seed)
    ts = np.arange(args.length, dtype=np.float64)
    chunk = args.chunk or args.pane_size * args.refresh_interval
    print(
        f"serving: {len(streams)} streams x {args.length} points, "
        f"pane_size={config.pane_size}, resolution={config.resolution}, "
        f"refresh_interval={config.refresh_interval}, strategy={config.strategy!r}, "
        f"chunk={chunk}, repeats={args.repeats}"
    )

    print("verifying frame equivalence (hub == looped StreamingASAP):")
    loop_frames, _ = drive_loop(streams, ts, chunk, config)
    hub_frames, _, _ = drive_hub(streams, ts, chunk, config)
    identity = verify_equivalence(loop_frames, hub_frames)
    total_frames = sum(len(f) for f in loop_frames)
    print(
        f"  {identity['frames_checked']} frames identical across {len(streams)} streams "
        f"(max search-moment diff {identity['max_moment_diff']:.2e})"
    )

    loop_best = float("inf")
    hub_best = float("inf")
    hub_stats = None
    for _ in range(args.repeats):
        _, loop_seconds = drive_loop(streams, ts, chunk, config)
        _, hub_seconds, stats = drive_hub(streams, ts, chunk, config)
        loop_best = min(loop_best, loop_seconds)
        hub_best = min(hub_best, hub_seconds)
        hub_stats = stats

    loop_throughput = total_frames / loop_best if loop_best > 0 else float("inf")
    hub_throughput = total_frames / hub_best if hub_best > 0 else float("inf")
    speedup = loop_best / hub_best if hub_best > 0 else float("inf")
    print()
    print(f"{'driver':8s} {'seconds':>10s} {'frames/s':>12s}")
    print("-" * 32)
    print(f"{'loop':8s} {loop_best:10.3f} {loop_throughput:12.1f}")
    print(f"{'hub':8s} {hub_best:10.3f} {hub_throughput:12.1f}")
    print(f"\naggregate refresh throughput: {speedup:.2f}x over looped StreamingASAP")
    if hub_stats is not None:
        print(
            f"hub accounting: {hub_stats.frames_emitted} frames over "
            f"{hub_stats.ticks} ticks, {hub_stats.warm_prefetches} warm prefetches "
            f"({hub_stats.warm_fallbacks} fell back)"
        )

    if args.json:
        payload = {
            "benchmark": "streamhub",
            "params": {
                "streams": len(streams),
                "length": args.length,
                "chunk": chunk,
                "pane_size": config.pane_size,
                "resolution": config.resolution,
                "refresh_interval": config.refresh_interval,
                "strategy": config.strategy,
                "repeats": args.repeats,
                "seed": args.seed,
                "smoke": args.smoke,
            },
            "identity": {"ok": True, **identity},
            "frames": total_frames,
            "loop_seconds": loop_best,
            "hub_seconds": hub_best,
            "loop_frames_per_second": loop_throughput,
            "hub_frames_per_second": hub_throughput,
            "speedup": speedup,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    if not args.smoke and speedup < args.min_speedup:
        print(
            f"FAIL: hub speedup {speedup:.2f}x below required {args.min_speedup:.2f}x",
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
    parser.add_argument(
        "--chunk", type=int, default=None, help="points per ingest batch (default: one refresh)"
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument("--seed", type=int, default=20170501, help="stream seed")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="required hub/loop throughput ratio (full runs only)",
    )
    parser.add_argument("--json", default=None, help="write results to this JSON file")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: verifies equivalence; never fails on timing",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.streams = min(args.streams, 24)
        args.length = min(args.length, 1200)
        args.resolution = min(args.resolution, 200)
        args.repeats = 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
