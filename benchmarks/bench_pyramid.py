"""Benchmark: multi-resolution serving from one session vs per-client smoothing.

The workload is the ROADMAP's multi-tenant charting scenario: many streams,
each charted by several clients at *different pixel widths*, polled every
round.  Two serving shapes process identical data:

* ``naive`` — per-client full-resolution smoothing: every poll re-runs the
  smoothing pipeline over the stream's full-resolution window from scratch
  (no pre-aggregation stage, no shared state between clients — the shape a
  server has before the pyramid tier exists; the paper's ASAPno-agg
  configuration, Figure 9).
* ``hub``  — one :class:`~repro.service.StreamHub` session per stream: every
  poll is ``snapshot(sid, resolution=R)``, bucketed on demand from the
  session's window through the rollup level nearest the ratio plus a
  residual re-bucket, and cached per (resolution, data-version) so
  concurrent viewers of the same chart share one computation.

Before timing, every (stream, resolution) snapshot is verified equivalent to
running the from-scratch operator on the **directly pre-aggregated** span —
selected windows equal, smoothed values within 1e-9 — and the process exits
non-zero on any violation.  Timing never fails the smoke run (CI asserts
equivalence, not speed); full runs enforce ``--min-speedup`` on the best of
``--repeats`` timed passes, each over a freshly warmed hub.  For
transparency the report also includes the stronger stateless baseline that
*does* pre-aggregate per request (``direct``), plus per-request costs.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_pyramid.py
    PYTHONPATH=src python benchmarks/bench_pyramid.py --smoke --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro import smooth
from repro.core.preaggregation import bucket_means
from repro.service import StreamHub
from repro.spec import AsapSpec
from repro.timeseries import TimeSeries


def make_streams(n_streams: int, length: int, seed: int) -> list[np.ndarray]:
    """Dashboard-shaped traffic: noisy periodic series with occasional spikes."""
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    streams = []
    for index in range(n_streams):
        period = float(rng.integers(200, max(length // 10, 201)))
        values = np.sin(2 * np.pi * t / period) + 0.3 * rng.normal(size=length)
        if index % 5 == 0:
            values[rng.integers(0, length)] += 8.0
        streams.append(values)
    return streams


def build_hub(streams, ts, config: AsapSpec, warm_points: int):
    hub = StreamHub(max_sessions=len(streams), default_config=config)
    ids = [hub.create_stream(f"stream-{i}") for i in range(len(streams))]
    for start in range(0, warm_points, 4096):
        stop = min(start + 4096, warm_points)
        for index, sid in enumerate(ids):
            hub.ingest(sid, ts[start:stop], streams[index][start:stop])
        hub.tick()
    return hub, ids


def verify_equivalence(hub, ids, resolutions) -> dict:
    """Snapshot == from-scratch pipeline on the directly pre-aggregated span.

    Exits non-zero on any violation (the acceptance gate; run before timing).
    """
    checked = 0
    max_value_diff = 0.0
    for sid in ids:
        operator = hub._sessions[sid].operator
        for resolution in resolutions:
            snap = hub.snapshot(sid, resolution=resolution)
            base = operator.aggregated_values()
            times = operator.aggregated_timestamps()
            window_start = operator.panes_completed - operator.pane_count
            start = snap.base_start - window_start
            stop = snap.base_end - window_start
            direct_values = bucket_means(base[start:stop], snap.ratio)
            direct_times = times[start : stop : snap.ratio][: direct_values.size]
            direct = smooth(
                TimeSeries(direct_values, direct_times),
                use_preaggregation=False,
            )
            checked += 1
            if direct.window != snap.window:
                print(
                    f"FAIL: {sid} @{resolution}px: window {snap.window} vs "
                    f"direct {direct.window}",
                    file=sys.stderr,
                )
                sys.exit(1)
            scale = max(1.0, float(np.abs(direct.series.values).max()))
            diff = float(np.abs(direct.series.values - snap.series.values).max())
            max_value_diff = max(max_value_diff, diff / scale)
            if diff > 1e-9 * scale:
                print(
                    f"FAIL: {sid} @{resolution}px: smoothed values differ by "
                    f"{diff:.3e} (> 1e-9 relative)",
                    file=sys.stderr,
                )
                sys.exit(1)
    return {"views_checked": checked, "max_value_diff": max_value_diff}


def drive_naive(windows, resolutions, polls: int, use_preaggregation: bool) -> tuple[int, float]:
    """Stateless per-client smoothing; returns (views_served, seconds)."""
    served = 0
    started = time.perf_counter()
    for series in windows:
        for resolution in resolutions:
            for _ in range(polls):
                smooth(
                    series,
                    resolution=resolution,
                    use_preaggregation=use_preaggregation,
                )
                served += 1
    return served, time.perf_counter() - started


def drive_hub_round(hub, ids, resolutions, polls: int) -> tuple[int, float]:
    """Multi-resolution snapshots; returns (views_served, seconds)."""
    served = 0
    started = time.perf_counter()
    for sid in ids:
        for resolution in resolutions:
            for _ in range(polls):
                hub.snapshot(sid, resolution=resolution)
                served += 1
    return served, time.perf_counter() - started


def time_rounds(hub, ids, streams, ts, warm, resolutions, args):
    """One timed pass over the serving rounds on a warmed *hub*.

    Returns ``(views_per_driver, naive_noagg_s, naive_direct_s, hub_s)``.
    """
    naive_noagg_seconds = 0.0
    naive_direct_seconds = 0.0
    hub_seconds = 0.0
    views_per_driver = 0
    position = warm
    for _ in range(args.rounds):
        stop = min(position + args.chunk, args.length)
        for index, sid in enumerate(ids):
            hub.ingest(sid, ts[position:stop], streams[index][position:stop])
        hub.tick()
        position = stop
        # The stateless server's full-resolution windows (it stores the same
        # aggregated history; acquiring it is not charged to either driver).
        windows = [
            TimeSeries(
                hub._sessions[sid].operator.aggregated_values(),
                hub._sessions[sid].operator.aggregated_timestamps(),
            )
            for sid in ids
        ]
        served, seconds = drive_naive(windows, resolutions, args.polls, False)
        naive_noagg_seconds += seconds
        _, seconds = drive_naive(windows, resolutions, args.polls, True)
        naive_direct_seconds += seconds
        served_hub, seconds = drive_hub_round(hub, ids, resolutions, args.polls)
        hub_seconds += seconds
        assert served == served_hub
        views_per_driver += served
    return views_per_driver, naive_noagg_seconds, naive_direct_seconds, hub_seconds


def run(args: argparse.Namespace) -> int:
    resolutions = tuple(args.resolutions)
    config = AsapSpec(
        pane_size=args.pane_size,
        resolution=args.window,
        refresh_interval=args.refresh_interval,
    )
    length = args.length
    streams = make_streams(args.streams, length, args.seed)
    ts = np.arange(length, dtype=np.float64)
    chunk = args.chunk
    rounds = args.rounds
    warm = length - rounds * chunk
    if args.repeats < 1:
        print("--repeats must be >= 1", file=sys.stderr)
        return 2
    if warm < args.window * args.pane_size:
        # Warm-up must fill every session's window so the timed rounds
        # measure steady-state serving, not partially-filled windows.
        print("stream too short for the requested rounds/chunk", file=sys.stderr)
        return 2
    print(
        f"serving: {len(streams)} streams x {len(resolutions)} resolutions "
        f"{resolutions} x {args.polls} viewers, window={args.window} panes "
        f"(pane_size={args.pane_size}), {rounds} rounds of {chunk} points, "
        f"repeats={args.repeats}"
    )

    hub, ids = build_hub(streams, ts, config, warm)

    print("verifying equivalence (snapshot == from-scratch on pre-aggregated span):")
    identity = verify_equivalence(hub, ids, resolutions)
    print(
        f"  {identity['views_checked']} views equivalent "
        f"(max relative value diff {identity['max_value_diff']:.2e})"
    )

    naive_noagg_seconds = naive_direct_seconds = hub_seconds = float("inf")
    for repeat in range(args.repeats):
        if repeat:
            hub, ids = build_hub(streams, ts, config, warm)
        views_per_driver, noagg, direct, served = time_rounds(
            hub, ids, streams, ts, warm, resolutions, args
        )
        naive_noagg_seconds = min(naive_noagg_seconds, noagg)
        naive_direct_seconds = min(naive_direct_seconds, direct)
        hub_seconds = min(hub_seconds, served)

    stats = hub.stats

    def throughput(seconds: float) -> float:
        return views_per_driver / seconds if seconds > 0 else float("inf")

    speedup_noagg = naive_noagg_seconds / hub_seconds if hub_seconds > 0 else float("inf")
    speedup_direct = naive_direct_seconds / hub_seconds if hub_seconds > 0 else float("inf")
    print()
    print(f"{'driver':14s} {'seconds':>9s} {'views/s':>10s} {'ms/view':>9s}")
    print("-" * 46)
    for name, seconds in (
        ("naive no-agg", naive_noagg_seconds),
        ("naive direct", naive_direct_seconds),
        ("hub views", hub_seconds),
    ):
        print(
            f"{name:14s} {seconds:9.3f} {throughput(seconds):10.1f} "
            f"{1000.0 * seconds / views_per_driver:9.3f}"
        )
    print(
        f"\naggregate snapshot throughput: {speedup_noagg:.2f}x over naive "
        f"per-client full-resolution smoothing ({speedup_direct:.2f}x over the "
        f"per-request pre-aggregating variant)"
    )
    print(
        f"hub accounting: {stats.views_served} views served, "
        f"{stats.view_cache_hits} from cache "
        f"({100.0 * stats.view_cache_hits / max(stats.views_served, 1):.0f}%)"
    )

    if args.json:
        payload = {
            "benchmark": "pyramid",
            "params": {
                "streams": len(streams),
                "length": length,
                "resolutions": list(resolutions),
                "polls_per_view": args.polls,
                "window": args.window,
                "pane_size": args.pane_size,
                "refresh_interval": args.refresh_interval,
                "rounds": rounds,
                "chunk": chunk,
                "repeats": args.repeats,
                "seed": args.seed,
                "smoke": args.smoke,
            },
            "equivalence": {"ok": True, **identity},
            "views_served": views_per_driver,
            "naive_noagg_seconds": naive_noagg_seconds,
            "naive_direct_seconds": naive_direct_seconds,
            "hub_seconds": hub_seconds,
            "speedup_vs_noagg": speedup_noagg,
            "speedup_vs_direct": speedup_direct,
            "view_cache_hits": stats.view_cache_hits,
            "views_total": stats.views_served,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    if not args.smoke and speedup_noagg < args.min_speedup:
        print(
            f"FAIL: multi-resolution speedup {speedup_noagg:.2f}x below required "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--streams", type=int, default=60, help="concurrent streams")
    parser.add_argument(
        "--resolutions",
        type=int,
        nargs="+",
        default=[50, 100, 200, 400],
        help="client pixel widths served per stream",
    )
    parser.add_argument(
        "--polls",
        type=int,
        default=3,
        help="concurrent viewers polling each (stream, width) chart per round",
    )
    parser.add_argument("--length", type=int, default=24_000, help="points per stream")
    parser.add_argument("--pane-size", type=int, default=5, help="points per pane")
    parser.add_argument(
        "--window", type=int, default=2048, help="panes per session window"
    )
    parser.add_argument(
        "--refresh-interval", type=int, default=32, help="panes between refreshes"
    )
    parser.add_argument("--rounds", type=int, default=4, help="serving rounds timed")
    parser.add_argument("--repeats", type=int, default=3, help="best-of timed passes")
    parser.add_argument(
        "--chunk", type=int, default=1600, help="points ingested per stream per round"
    )
    parser.add_argument("--seed", type=int, default=20170501, help="stream seed")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="required hub/naive throughput ratio (full runs only)",
    )
    parser.add_argument("--json", default=None, help="write results to this JSON file")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: verifies equivalence; never fails on timing",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.streams = min(args.streams, 8)
        args.length = min(args.length, 8000)
        args.window = min(args.window, 512)
        args.rounds = min(args.rounds, 2)
        args.chunk = min(args.chunk, 800)
        args.polls = min(args.polls, 2)
        args.repeats = 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
