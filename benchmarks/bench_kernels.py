"""Benchmark: warm-started window search and the stacked probe kernel.

The workload is a long multi-periodic stream refreshed every pane — the
regime where the streaming operator's cost is dominated by single-window
moment evaluations inside the search.  Two operators process identical
arrivals:

* ``cold`` — ``warm_start=False``: every refresh searches from scratch,
  one kernel dispatch per candidate window;
* ``warm`` — ``warm_start=True``: each refresh prefetches the previous
  refresh's touched-window trace through one stacked
  :func:`~repro.spectral.convolution.sma_probe_moments` call and replays
  the search over the pre-filled cache, falling back to single-window
  evaluations only when the data drifts off the trace.

Before timing, the two operators' frames are verified **bit-identical**
refresh by refresh — same selected window, same smoothed bytes — and the
process exits non-zero on any violation.  A second identity gate checks the
stacked probe kernel against the single-window kernel bit for bit.

Timing uses CPU time (``time.process_time``): refresh work is pure compute
and wall clock on shared runners is too noisy to ratchet.  Smoke runs never
fail on timing (CI asserts identity, not speed); full runs enforce
``--min-speedup``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_kernels.py
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.core.streaming import StreamingASAP
from repro.spec import AsapSpec
from repro.spectral.convolution import (
    sma_grid_moments,
    sma_probe_moments,
    sma_window_moments,
)


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


def make_operator(warm_start, resolution, refresh_interval):
    return StreamingASAP(
        AsapSpec(
            pane_size=1,
            resolution=resolution,
            refresh_interval=refresh_interval,
            strategy="asap",
            warm_start=warm_start,
        )
    )


def drive_pair(values, ts, batch, resolution, refresh_interval):
    """Advance a cold and a warm operator in lockstep, timing each refresh.

    Each round is exactly one refresh interval, pushed with
    ``defer_boundary=True`` so the boundary refresh runs inside the timed
    ``refresh_if_due`` call rather than inside ingestion.  Interleaving the
    two operators batch by batch means CPU-frequency drift over the run hits
    both timers equally — separate full passes can disagree by 30% on shared
    runners.  Returns ``(cold_frames, warm_frames, cold_seconds,
    warm_seconds, warm_operator)``.
    """
    cold = make_operator(False, resolution, refresh_interval)
    warm = make_operator(True, resolution, refresh_interval)
    frames = {"cold": [], "warm": []}
    seconds = {"cold": 0.0, "warm": 0.0}
    for start in range(0, values.size, batch):
        stop = min(start + batch, values.size)
        for label, op in (("cold", cold), ("warm", warm)):
            frames[label].extend(
                op.push_many(ts[start:stop], values[start:stop], defer_boundary=True)
            )
            started = time.process_time()
            frame = op.refresh_if_due()
            seconds[label] += time.process_time() - started
            if frame is not None:
                frames[label].append(frame)
    return frames["cold"], frames["warm"], seconds["cold"], seconds["warm"], warm


def verify_frames_bit_identical(cold_frames, warm_frames) -> dict:
    """Frame-for-frame bit identity; exits non-zero on any violation."""
    if len(cold_frames) != len(warm_frames):
        print(
            f"FAIL: {len(cold_frames)} cold frames vs {len(warm_frames)} warm frames",
            file=sys.stderr,
        )
        sys.exit(1)
    for a, b in zip(cold_frames, warm_frames):
        if a.window != b.window:
            print(
                f"FAIL: refresh {a.refresh_index}: cold window {a.window} "
                f"vs warm window {b.window}",
                file=sys.stderr,
            )
            sys.exit(1)
        if a.series.values.tobytes() != b.series.values.tobytes():
            print(
                f"FAIL: refresh {a.refresh_index}: smoothed values differ bitwise "
                f"at window {a.window}",
                file=sys.stderr,
            )
            sys.exit(1)
    return {"frames_checked": len(cold_frames)}


def verify_probe_kernel(values, seed) -> dict:
    """Stacked probe kernel vs single-window kernel, bit for bit."""
    rng = np.random.default_rng(seed)
    n = min(values.size, 2000)
    sample = values[:n]
    checked = 0
    for _ in range(8):
        count = int(rng.integers(2, 24))
        windows = sorted(set(rng.integers(2, n + 1, size=count).tolist()))
        rough, kurt = sma_probe_moments(sample, windows)
        for i, window in enumerate(windows):
            rough_s, kurt_s = sma_window_moments(sample, window)
            if (
                np.float64(rough_s).tobytes() != rough[i].tobytes()
                or np.float64(kurt_s).tobytes() != kurt[i].tobytes()
            ):
                print(
                    f"FAIL: probe kernel differs from single kernel at window {window}",
                    file=sys.stderr,
                )
                sys.exit(1)
            checked += 1
    return {"probe_windows_checked": checked}


def time_float32_lane(values, repeats) -> dict:
    """Informational: grid kernel moment pass with float32 vs float64 storage."""
    sample = values[: min(values.size, 4000)]
    windows = list(range(2, 202, 2))
    results = {}
    for storage in ("float64", "float32"):
        best = float("inf")
        for _ in range(repeats):
            started = time.process_time()
            sma_grid_moments(sample, windows, storage=storage)
            best = min(best, time.process_time() - started)
        results[f"grid_{storage}_seconds"] = best
    return results


def run(args: argparse.Namespace) -> int:
    values = make_series(args.length, args.seed)
    ts = np.arange(args.length, dtype=np.float64)
    batch = args.refresh_interval  # pane_size=1: one refresh boundary per round
    print(
        f"kernels: {args.length} points, resolution={args.resolution}, "
        f"refresh_interval={args.refresh_interval}, strategy='asap', "
        f"batch={batch}, repeats={args.repeats}"
    )

    print("verifying warm == cold frame bit-identity:")
    cold_frames, warm_frames, _, _, warm_op = drive_pair(
        values, ts, batch, args.resolution, args.refresh_interval
    )
    identity = verify_frames_bit_identical(cold_frames, warm_frames)
    identity.update(verify_probe_kernel(values, args.seed))
    print(
        f"  {identity['frames_checked']} frames bit-identical; "
        f"{identity['probe_windows_checked']} probe windows match singles bitwise"
    )

    cold_best = float("inf")
    warm_best = float("inf")
    for _ in range(args.repeats):
        _, _, cold_seconds, warm_seconds, warm_op = drive_pair(
            values, ts, batch, args.resolution, args.refresh_interval
        )
        cold_best = min(cold_best, cold_seconds)
        warm_best = min(warm_best, warm_seconds)

    refreshes = len(cold_frames)
    speedup = cold_best / warm_best if warm_best > 0 else float("inf")
    fallback_rate = (
        warm_op.warm_fallbacks / warm_op.warm_prefetches if warm_op.warm_prefetches else 0.0
    )
    float32 = time_float32_lane(values, args.repeats)

    print()
    print(f"{'search':8s} {'cpu s':>10s} {'refreshes/s':>14s}")
    print("-" * 34)
    print(f"{'cold':8s} {cold_best:10.3f} {refreshes / cold_best:14.1f}")
    print(f"{'warm':8s} {warm_best:10.3f} {refreshes / warm_best:14.1f}")
    print(f"\nwarm-start refresh speedup: {speedup:.2f}x over cold search")
    print(
        f"warm accounting: {warm_op.warm_prefetches} prefetches, "
        f"{warm_op.warm_fallbacks} fallbacks ({fallback_rate:.1%})"
    )
    print(
        f"float32 storage lane: grid moment pass "
        f"{float32['grid_float64_seconds']:.3f}s float64 vs "
        f"{float32['grid_float32_seconds']:.3f}s float32"
    )

    if args.json:
        payload = {
            "benchmark": "kernels",
            "params": {
                "length": args.length,
                "batch": batch,
                "pane_size": 1,
                "resolution": args.resolution,
                "refresh_interval": args.refresh_interval,
                "strategy": "asap",
                "repeats": args.repeats,
                "seed": args.seed,
                "smoke": args.smoke,
            },
            "identity": {"ok": True, **identity},
            "refreshes": refreshes,
            "cold_seconds": cold_best,
            "warm_seconds": warm_best,
            "cold_refreshes_per_second": refreshes / cold_best if cold_best > 0 else 0.0,
            "warm_refreshes_per_second": refreshes / warm_best if warm_best > 0 else 0.0,
            "warm_prefetches": warm_op.warm_prefetches,
            "warm_fallbacks": warm_op.warm_fallbacks,
            "fallback_rate": fallback_rate,
            **float32,
            "speedup": speedup,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    if not args.smoke and speedup < args.min_speedup:
        print(
            f"FAIL: warm-start speedup {speedup:.2f}x below required "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=80_000, help="points in the stream")
    parser.add_argument("--resolution", type=int, default=4000, help="panes per window")
    parser.add_argument("--refresh-interval", type=int, default=25, help="panes between refreshes")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument("--seed", type=int, default=20170501, help="series seed")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="required warm/cold refresh throughput ratio (full runs only)",
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
        args.resolution = min(args.resolution, 600)
        args.repeats = 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
