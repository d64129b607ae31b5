"""Benchmark: the network serving tier vs in-process serving.

A :class:`~repro.net.AsapServer` serves a :class:`~repro.service.StreamHub`
over localhost TCP.  Before any timing, the **equivalence gate** drives the
same arrivals through a remote client (``connect("tcp://...")``) and a local
one (``connect("local")``) and requires every frame — request/response,
server-push subscription, and post-checkpoint continuation — to be
bit-identical; the process exits non-zero on any violation.

Two timed comparisons follow:

* **concurrent clients** — N threads, each with its own connection, pull M
  snapshots; against the same N*M snapshots in a plain local loop.  This
  prices the wire: serialization, syscalls, and round trips.  The ratio
  ``wire_overhead`` (remote over in-process) has a ceiling in the ratchet
  (``max_ratio`` in ``benchmarks/baselines.json``): it may only go down.
* **pipelining** — the same K requests issued one round trip at a time vs
  batched through :meth:`~repro.net.RemoteBackend.call_many` (one write, K
  responses).  The headline ``pipelining_speedup`` floors in the ratchet:
  batching must keep beating per-request round trips.

Timing uses wall clock (``time.perf_counter``): the cost being measured *is*
I/O, so CPU time would hide exactly the thing the benchmark prices.  Smoke
runs never fail on timing (CI asserts equivalence, not speed); full runs
enforce ``--min-speedup`` on the pipelining headline.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_net.py
    PYTHONPATH=src python benchmarks/bench_net.py --smoke --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

import numpy as np

import repro
from repro.net.remote import RemoteBackend
from repro.net.server import serve
from repro.persist import restore
from repro.service import StreamHub
from repro.spec import AsapSpec


def make_series(length: int, seed: int) -> np.ndarray:
    """Multi-periodic monitoring-shaped traffic (same shape the tier
    benchmarks use)."""
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    return (
        np.sin(2 * np.pi * t / 24)
        + 0.8 * np.sin(2 * np.pi * t / 96)
        + 0.3 * rng.normal(size=length)
    )


def make_spec(args: argparse.Namespace) -> AsapSpec:
    return AsapSpec(
        pane_size=args.pane_size,
        resolution=args.resolution,
        refresh_interval=args.refresh_interval,
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
        if a.series.values.tobytes() != b.series.values.tobytes():
            fail(f"{label}: refresh {a.refresh_index}: smoothed bytes differ")
        if a.series.timestamps.tobytes() != b.series.timestamps.tobytes():
            fail(f"{label}: refresh {a.refresh_index}: timestamps differ")


def verify_equivalence(args, ts, vs) -> dict:
    """Remote == local, bit for bit, on every path the wire serves."""
    spec = make_spec(args)
    handle = serve(StreamHub(default_config=spec))
    try:
        remote = repro.connect(handle.url, spec=spec)
        local = repro.connect("local", spec=spec)
        remote.stream(stream_id="s")
        local.stream(stream_id="s")
        remote.subscribe("s")

        # Request/response lane, ragged batches to cross interior and
        # deferred boundaries both.
        checked = 0
        expected_pushes = []
        batch = 173
        for lo in range(0, ts.size, batch):
            chunk = slice(lo, lo + batch)
            mine = remote.ingest("s", ts[chunk], vs[chunk])
            ref = local.ingest("s", ts[chunk], vs[chunk])
            check_frames_bit_identical("ingest", mine, ref)
            expected_pushes.extend(ref)
            mine_tick = remote.tick().get("s", [])
            ref_tick = local.tick().get("s", [])
            check_frames_bit_identical("tick", mine_tick, ref_tick)
            expected_pushes.extend(ref_tick)
            checked += len(ref) + len(ref_tick)
        if remote.snapshot("s") != local.snapshot("s"):
            fail("session snapshots differ")
        view = remote.snapshot("s", resolution=args.view_resolution)
        ref_view = local.snapshot("s", resolution=args.view_resolution)
        if view.series.values.tobytes() != ref_view.series.values.tobytes():
            fail("resolution-view values differ")
        if view.window != ref_view.window:
            fail("resolution-view windows differ")

        # Push lane: everything the local witness emitted must arrive,
        # in order, bit-identical.
        pushed = []
        deadline = time.perf_counter() + 30.0
        while len(pushed) < len(expected_pushes) and time.perf_counter() < deadline:
            pushed.extend(f for e in remote.pushes(timeout=0.2) for f in e.frames)
        check_frames_bit_identical("server push", pushed, expected_pushes)

        # Durability lane: checkpoint through the remote client, restore
        # locally, and stream on — all three continuations identical.
        revived = restore(remote.checkpoint())
        more_ts = np.arange(ts.size, ts.size + 400, dtype=np.float64)
        more_vs = make_series(400, args.seed + 1)
        tail = remote.ingest("s", more_ts, more_vs)
        check_frames_bit_identical(
            "post-restore continuation", revived.ingest("s", more_ts, more_vs), tail
        )
        check_frames_bit_identical(
            "local continuation", local.ingest("s", more_ts, more_vs), tail
        )
        checked += len(tail)
        remote.close()
        local.close()
        return {"ok": True, "frames_checked": checked, "pushes_checked": len(pushed)}
    finally:
        handle.stop()


def time_concurrent_snapshots(args, handle, spec) -> float:
    """N clients, each its own connection, pull M snapshots; wall seconds."""
    barrier = threading.Barrier(args.clients + 1)
    errors = []

    def worker():
        client = RemoteBackend(*handle.address, spec=spec)
        try:
            barrier.wait()
            for _ in range(args.requests):
                client.snapshot("s")
        except Exception as exc:  # pragma: no cover - surfaced via fail()
            errors.append(exc)
        finally:
            client.shutdown()

    threads = [threading.Thread(target=worker) for _ in range(args.clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        fail(f"concurrent client raised: {errors[0]!r}")
    return elapsed


def run(args: argparse.Namespace) -> int:
    values = make_series(args.points, args.seed)
    ts = np.arange(args.points, dtype=np.float64)
    spec = make_spec(args)
    total = args.clients * args.requests
    print(
        f"net: {args.points} points, {args.clients} clients x {args.requests} "
        f"snapshots, pipeline depth {args.pipeline}, repeats={args.repeats}"
    )

    print("verifying remote == local bit-identically:")
    equivalence = verify_equivalence(args, ts, values)
    print(
        f"  {equivalence['frames_checked']} frames bit-identical "
        f"({equivalence['pushes_checked']} of them via server push)"
    )

    # Timing server: one stream, fully provisioned, snapshots from N clients.
    hub = StreamHub(default_config=spec)
    hub.create_stream("s", history=(ts, values))
    handle = serve(hub)
    local_best = float("inf")
    remote_best = float("inf")
    sequential_best = float("inf")
    pipelined_best = float("inf")
    try:
        for _ in range(args.repeats):
            started = time.perf_counter()
            for _ in range(total):
                hub.snapshot("s")
            local_best = min(local_best, time.perf_counter() - started)

            remote_best = min(remote_best, time_concurrent_snapshots(args, handle, spec))

            client = RemoteBackend(*handle.address, spec=spec)
            started = time.perf_counter()
            for _ in range(args.pipeline):
                client.snapshot("s")
            sequential_best = min(sequential_best, time.perf_counter() - started)
            started = time.perf_counter()
            client.call_many([("snapshot", {"stream_id": "s"})] * args.pipeline)
            pipelined_best = min(pipelined_best, time.perf_counter() - started)
            client.shutdown()
    finally:
        handle.stop()

    local_rate = total / local_best if local_best > 0 else 0.0
    remote_rate = total / remote_best if remote_best > 0 else 0.0
    overhead = local_rate / remote_rate if remote_rate > 0 else float("inf")
    speedup = sequential_best / pipelined_best if pipelined_best > 0 else float("inf")

    print()
    print(f"{'lane':26s} {'wall s':>10s} {'snapshots/s':>14s}")
    print("-" * 52)
    print(f"{'local loop':26s} {local_best:10.3f} {local_rate:14.0f}")
    print(f"{'remote, concurrent':26s} {remote_best:10.3f} {remote_rate:14.0f}")
    print(
        f"{'remote, one at a time':26s} {sequential_best:10.3f} "
        f"{args.pipeline / sequential_best:14.0f}"
    )
    print(
        f"{'remote, pipelined':26s} {pipelined_best:10.3f} "
        f"{args.pipeline / pipelined_best:14.0f}"
    )
    print(f"\nwire overhead: {overhead:.1f}x slower than in-process (ratcheted ceiling)")
    print(f"pipelining speedup: {speedup:.2f}x (ratcheted)")

    if args.json:
        payload = {
            "benchmark": "net",
            "params": {
                "points": args.points,
                "clients": args.clients,
                "requests": args.requests,
                "pipeline": args.pipeline,
                "pane_size": args.pane_size,
                "resolution": args.resolution,
                "refresh_interval": args.refresh_interval,
                "repeats": args.repeats,
                "seed": args.seed,
                "smoke": args.smoke,
            },
            "equivalence": equivalence,
            "local_seconds": local_best,
            "remote_seconds": remote_best,
            "sequential_seconds": sequential_best,
            "pipelined_seconds": pipelined_best,
            "local_snapshots_per_second": local_rate,
            "remote_snapshots_per_second": remote_rate,
            "wire_overhead": overhead,
            "pipelining_speedup": speedup,
        }
        with open(args.json, "w") as handle_:
            json.dump(payload, handle_, indent=2)
        print(f"wrote {args.json}")

    if not args.smoke and speedup < args.min_speedup:
        print(
            f"FAIL: pipelining speedup {speedup:.2f}x below required "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=20_000, help="points provisioned per stream")
    parser.add_argument("--clients", type=int, default=4, help="concurrent remote clients")
    parser.add_argument("--requests", type=int, default=200, help="snapshots per client")
    parser.add_argument("--pipeline", type=int, default=200, help="pipelined batch depth")
    parser.add_argument("--pane-size", type=int, default=10, help="points per pane")
    parser.add_argument("--resolution", type=int, default=200, help="panes per window")
    parser.add_argument("--refresh-interval", type=int, default=10, help="panes between refreshes")
    parser.add_argument("--view-resolution", type=int, default=50, help="resolution-view width")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument("--seed", type=int, default=20170501, help="series seed")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.05,
        help="required pipelined/sequential throughput ratio (full runs only)",
    )
    parser.add_argument("--json", default=None, help="write results to this JSON file")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: verifies equivalence; never fails on timing",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.points = min(args.points, 4_000)
        args.clients = min(args.clients, 2)
        args.requests = min(args.requests, 25)
        args.pipeline = min(args.pipeline, 50)
        args.repeats = 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
