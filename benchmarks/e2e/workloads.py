"""The five end-to-end workloads and the loop that measures them.

Every workload follows one life cycle, driven by :func:`run`:

1. ``start`` — generate the inputs from the seed (and start the TCP server);
   untimed.
2. ``provision`` — the set-up a user waits for; timed ``setup_repeats``
   times (``unprovision`` in between) and reported as the median.
3. ``verify`` — drive a prefix of the workload and require its outputs to be
   bit-identical to a lone ``StreamingASAP`` witness (for ``batch_dashboard``,
   to looped ``smooth()``).  Verification comes before any timing.
4. ``measure`` — the measured phase: a closed loop of ``step`` calls, or an
   open loop for ``live_tcp``.

In a traced run the measured phase alternates untraced and traced blocks of
:data:`BLOCK_S` seconds, so the tracing overhead is measured in the same run
under the same conditions, and the last set-up and the verification run
with the wrappers installed.

The program is driven through public API only: ``repro.connect``,
``repro.serve`` (in ``server.py``), ``ShardedHub.ingest(buffered=True)`` via
``Client.hub``, and ``RemoteBackend.call_many`` for pipelining.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro import AsapSpec, StreamingASAP, TimeSeries, ViewSpec
from repro.net import wire

import loadgen
import measure
from trace import SETUP_STAGES, STAGES, Tracer

#: The one stream spec (defaults for everything else: asap strategy, warm
#: start, incremental statistics, pyramid).
SPEC = AsapSpec(pane_size=loadgen.PANE_SIZE, resolution=800, refresh_interval=10)

#: Length of each untraced/traced block in a traced run.
BLOCK_S = 1.0

#: End-to-end metrics every workload reports, with units.  What one unit of
#: throughput is differs per workload (see ``Workload.work_unit``); the
#: latency is that of the workload's operation (see ``Workload.op``).  Times
#: are stated at the machine's nominal speed (:class:`measure.Speed`).
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p80": "ms",
    "peak_rss_mb": "MB",
}

#: The tail percentile.  p90 and above repeated only within 10% over ten
#: seeds: in some workloads about a tenth of operations land in a slower
#: mode, and p90 sits on its edge.  p80 repeats as well as the median and
#: still has tens of samples beyond it in every workload.
TAIL = 80

HERE = Path(__file__).resolve().parent


@dataclass
class Run:
    """Everything one workload run measured."""

    #: ``time.perf_counter`` at the start of the run and of the measured
    #: phase, and at the end of both.
    started: float = 0.0
    began: float = 0.0
    ended: float = 0.0
    #: ``(start, end)`` of every set-up.
    setups: list[tuple[float, float]] = field(default_factory=list)
    #: One ``(start, latency, work, traced)`` per operation: start time,
    #: seconds (``None`` outside the latency sample), units of work, and
    #: whether tracing was on.
    samples: list[tuple] = field(default_factory=list)
    #: Set by a workload whose throughput is not work per nominal second.
    throughput: float | None = None
    #: :class:`measure.SpeedProbe` records of each core the workload ran on.
    probes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    #: Extra printed metrics: name -> (value, unit, note).
    notes: dict = field(default_factory=dict)
    #: Useful-outcome ratios over the measured phase: name -> value.
    ratios: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: Trace summaries by process role ("client", "server").
    traces: dict = field(default_factory=dict)


class ServerProcess:
    """``server.py`` as a child process; see that file for the protocol."""

    def __init__(self, cpu: int) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--cpu", str(cpu)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self._proc.stdout.readline()
        if not line.startswith("PORT "):
            self._proc.kill()
            self._proc.wait()
            raise RuntimeError(f"benchmark server did not start (said {line!r})")
        self.url = f"tcp://127.0.0.1:{int(line.split()[1])}"

    def command(self, line: str) -> None:
        self._proc.stdin.write(line + "\n")
        self._proc.stdin.flush()

    def stop(self) -> dict:
        """Shut the server down and return its exit report."""
        try:
            out, _ = self._proc.communicate("stop\n", timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            raise
        return json.loads(out.strip().splitlines()[-1])


def frames_differ(label: str, got: list, want: list) -> list[str]:
    """Mismatches between two frame sequences, compared bit for bit."""
    if len(got) != len(want):
        return [f"{label}: {len(got)} frames, witness emitted {len(want)}"]
    out = []
    for a, b in zip(got, want):
        if (
            (a.window, a.refresh_index, a.points_ingested)
            != (b.window, b.refresh_index, b.points_ingested)
            or a.series.values.tobytes() != b.series.values.tobytes()
            or a.series.timestamps.tobytes() != b.series.timestamps.tobytes()
        ):
            out.append(f"{label}: frame {b.refresh_index} differs from the witness")
    return out


def witness_view(operator: StreamingASAP, resolution: int):
    """What a hub serves as ``snapshot(sid, resolution)`` for *operator*'s
    stream: its pyramid view, smoothed anew (``max_window`` unset)."""
    view = operator.pyramid_view(ViewSpec(resolution=resolution))
    return repro.smooth(
        TimeSeries(view.values, view.timestamps),
        strategy=operator.strategy,
        use_preaggregation=False,
    )


def view_differs(label: str, snap, want) -> list[str]:
    if snap.window != want.window or snap.series.values.tobytes() != want.series.values.tobytes():
        return [f"{label}: view differs from the witness (window {snap.window} vs {want.window})"]
    return []


class Workload:
    """Base life cycle; subclasses fill in the steps (see the module docstring)."""

    name = ""
    #: What one unit of ``throughput_per_s`` is.
    work_unit = ""
    #: The operation behind ``latency_ms_*``.
    op = ""
    #: Operations one ``step`` attempts (charged as failed if it raises).
    ops_per_step = 1
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 3
    uses_server = False
    #: Whether the load generator is pinned to the first core (the TCP
    #: server then gets the second).
    pinned = True

    def __init__(self, seed: int, seconds: float, tracer: Tracer | None, cores: list[int]) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.cores = cores
        self.server: ServerProcess | None = None
        self.server_report: dict = {}
        self.client = None

    def busy_cores(self) -> list[int]:
        """The cores the system under test runs on, whose speed normalizes times."""
        return self.cores if self.uses_server or not self.pinned else self.cores[:1]

    # -- life cycle ----------------------------------------------------------

    def start(self) -> None:
        if self.pinned:
            measure.pin(self.cores[0])
        if self.uses_server:
            self.server = ServerProcess(self.cores[1])

    def provision(self) -> None:
        raise NotImplementedError

    def unprovision(self) -> None:
        raise NotImplementedError

    def verify(self) -> tuple[int, list[str]]:
        """Returns ``(outputs checked, mismatches)``."""
        raise NotImplementedError

    def step(self) -> tuple[float, int, int, float | None]:
        """One closed-loop operation: ``(work, attempted, failed, latency_s)``;
        latency ``None`` for an operation outside the latency sample."""
        raise NotImplementedError

    def counters(self) -> dict:
        """Monotone counters sampled before and after the measured phase."""
        return {}

    def ratios(self, before: dict, after: dict) -> dict:
        """Useful-outcome ratios over the measured phase."""
        return {}

    def close(self) -> float:
        """Release everything; returns the peak RSS (MB) of the processes under test."""
        try:
            if self.client is not None:
                self.client.close()
                self.client = None
        finally:
            if self.server is not None:
                self.server_report = self.server.stop()
                self.server = None
        if self.uses_server:
            return self.server_report.get("peak_rss_kb", 0) / 1024.0
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- tracing ---------------------------------------------------------------

    def trace_on(self, window: str) -> None:
        self.tracer.start(window)
        if self.server is not None:
            self.server.command(f"on {window}")

    def trace_off(self) -> None:
        self.tracer.stop()
        if self.server is not None:
            self.server.command("off")

    def trace_block(self, elapsed: float, traced: bool) -> bool:
        """In a traced run, switch tracing on or off for the block *elapsed*
        seconds into the measured phase; returns whether it is now on."""
        want = self.tracer is not None and int(elapsed / BLOCK_S) % 2 == 1
        if want != traced:
            self.trace_on("measure") if want else self.trace_off()
        return want

    # -- the measured phase ------------------------------------------------------

    def measure(self, run: Run) -> None:
        """Closed loop: call :meth:`step` until :attr:`seconds` have passed."""
        clock = time.perf_counter
        began = run.began = clock()
        traced = False
        steps = errors = 0
        while (now := clock()) < began + self.seconds:
            traced = self.trace_block(now - began, traced)
            if self.tracer is not None:
                self.tracer.round_id = steps
            steps += 1
            try:
                work, attempted, failed, latency = self.step()
            except Exception:
                if not errors:
                    traceback.print_exc()
                errors += 1
                run.attempted += self.ops_per_step
                run.failed += self.ops_per_step
                continue
            run.samples.append((now, latency, work, traced))
            run.attempted += attempted
            run.failed += failed
        if traced:
            self.trace_off()
        run.ended = clock()


class IngestHub(Workload):
    """64 streams with a 12k-point history; each round ingests 100 points into
    every stream, then ticks once.  Closed loop."""

    name = "ingest_hub"
    work_unit = "points ingested"
    op = "round (64 ingests + tick)"
    streams = 64
    history = 12_000
    round_points = 100
    #: Generated rounds per stream; longer runs cycle through them.
    pool_rounds = 50
    verify_rounds = 3
    #: Streams checked against a witness: ten cover every history stagger.
    witnesses = 10
    ops_per_step = streams + 1

    def start(self) -> None:
        super().start()
        self.inputs = loadgen.StreamInputs(
            self.seed, self.streams, self.history, self.round_points, self.pool_rounds
        )
        self.sids = [self.inputs.stream_id(i) for i in range(self.streams)]

    def connect(self):
        return repro.connect("hub", SPEC)

    def provision(self) -> None:
        self.client = self.connect()
        for i, sid in enumerate(self.sids):
            self.client.stream(stream_id=sid, history=self.inputs.history(i))
        self.round = 0
        self.last_refresh: dict[str, int] = {}

    def unprovision(self) -> None:
        self.client.close()
        self.client = None
        gc.collect()

    def ingest(self, sid, timestamps, values) -> list:
        return self.client.ingest(sid, timestamps, values)

    def do_round(self) -> dict:
        r = self.round
        self.round += 1
        frames: dict[str, list] = {}
        for i, sid in enumerate(self.sids):
            emitted = self.ingest(sid, *self.inputs.batch(i, r))
            if emitted:
                frames[sid] = list(emitted)
        for sid, emitted in self.client.tick().items():
            frames.setdefault(sid, []).extend(emitted)
        return frames

    def verify(self) -> tuple[int, list[str]]:
        witnesses = []
        for i in range(self.witnesses):
            operator = StreamingASAP.from_spec(SPEC)
            operator.backfill(*self.inputs.history(i))
            witnesses.append(operator)
        got = {sid: [] for sid in self.sids[: self.witnesses]}
        want = {sid: [] for sid in self.sids[: self.witnesses]}
        for _ in range(self.verify_rounds):
            r = self.round
            frames = self.do_round()
            for i, operator in enumerate(witnesses):
                sid = self.sids[i]
                want[sid].extend(operator.push_many(*self.inputs.batch(i, r)))
                got[sid].extend(frames.get(sid, []))
            self.check_round(frames)
        mismatches = []
        for sid in got:
            mismatches += frames_differ(sid, got[sid], want[sid])
        return sum(len(frames) for frames in want.values()), mismatches

    def check_round(self, frames: dict) -> int:
        """Each round crosses exactly one refresh boundary per stream: count
        streams that did not emit exactly the next frame."""
        bad = 0
        for sid in self.sids:
            emitted = frames.get(sid, ())
            last = self.last_refresh.get(sid)
            if len(emitted) != 1 or (last is not None and emitted[0].refresh_index != last + 1):
                bad += 1
            else:
                self.last_refresh[sid] = emitted[0].refresh_index
        return bad

    def step(self):
        began = time.perf_counter()
        frames = self.do_round()
        latency = time.perf_counter() - began
        return self.streams * self.round_points, self.ops_per_step, self.check_round(frames), latency

    def counters(self) -> dict:
        stats = self.client.stats
        return {"warm_prefetches": stats.warm_prefetches, "warm_fallbacks": stats.warm_fallbacks}

    def ratios(self, before: dict, after: dict) -> dict:
        prefetches = after["warm_prefetches"] - before["warm_prefetches"]
        fallbacks = after["warm_fallbacks"] - before["warm_fallbacks"]
        return {"streaming.warm_hit_ratio": 1.0 - fallbacks / prefetches if prefetches else 0.0}


class IngestSharded(IngestHub):
    """``ingest_hub``'s inputs and rounds through a 2-shard process cluster,
    with buffered ingest shipped once per shard per tick."""

    name = "ingest_sharded"
    shards = 2
    #: Shard workers inherit the coordinator's affinity, so nothing is
    #: pinned: the shards spread over both cores.
    pinned = False

    def connect(self):
        return repro.connect("sharded", SPEC, shards=self.shards, shard_backend="process")

    def ingest(self, sid, timestamps, values) -> list:
        return self.client.hub.ingest(sid, timestamps, values, buffered=True)

    def close(self) -> float:
        own = super().close()
        # Shards have exited and been waited for; getrusage reports the
        # largest child's peak, charged to each shard.
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return own + self.shards * child


class TcpWorkload(Workload):
    """Shared plumbing of the two TCP workloads: streams with history created
    over the wire on a server in its own process."""

    uses_server = True
    streams = 64
    history = 12_000
    round_points = 100
    pool_rounds = 50
    spec = SPEC

    def start(self) -> None:
        super().start()
        self.inputs = self.make_inputs()
        self.sids = [self.inputs.stream_id(i) for i in range(self.streams)]
        self.client = repro.connect(self.server.url, self.spec)

    def make_inputs(self) -> loadgen.StreamInputs:
        return loadgen.StreamInputs(
            self.seed, self.streams, self.history, self.round_points, self.pool_rounds
        )

    def provision(self) -> None:
        for i, sid in enumerate(self.sids):
            self.client.stream(stream_id=sid, history=self.inputs.history(i))

    def unprovision(self) -> None:
        for sid in self.sids:
            self.client.close_stream(sid, flush=False)

    def ingest_call(self, i: int, r: int) -> tuple:
        timestamps, values = self.inputs.batch(i, r)
        return ("ingest", {"stream_id": self.sids[i], "timestamps": timestamps, "values": values})

    def witness(self, i: int) -> StreamingASAP:
        operator = StreamingASAP.from_spec(self.spec)
        operator.backfill(*self.inputs.history(i))
        return operator


class PollTcp(TcpWorkload):
    """One connection polls views: pipelined batches of 16 snapshots cycling
    through streams and widths; every 8th batch writes instead."""

    name = "poll_tcp"
    work_unit = "views polled"
    op = "pipelined batch of 16 snapshots"
    batch = 16
    widths = (100, 200, 400)
    write_every = 8
    write_streams = 8
    ops_per_step = batch

    def provision(self) -> None:
        super().provision()
        self.batch_index = 0
        self.polls = 0
        self.writes = 0
        self.write_rounds = [0] * self.streams

    def read_batch(self) -> list:
        calls = []
        for _ in range(self.batch):
            j = self.polls
            self.polls += 1
            sid, width = self.sids[j % self.streams], self.widths[j % len(self.widths)]
            calls.append(("snapshot", {"stream_id": sid, "resolution": width}))
        replies = self.client.hub.call_many(calls)
        return [
            (args["stream_id"], args["resolution"], wire.snapshot_from_state(reply))
            for (_op, args), reply in zip(calls, replies)
        ]

    def write_batch(self) -> None:
        calls = []
        for k in range(self.write_streams):
            i = (self.writes * self.write_streams + k) % self.streams
            calls.append(self.ingest_call(i, self.write_rounds[i]))
            self.write_rounds[i] += 1
        self.writes += 1
        calls.append(("tick", {}))
        self.client.hub.call_many(calls)

    def verify(self) -> tuple[int, list[str]]:
        # The first batch reads streams 0..15 before any write.
        snaps = self.read_batch()
        self.batch_index += 1
        mismatches = []
        for i, (sid, width, snap) in enumerate(snaps):
            mismatches += view_differs(f"{sid}@{width}", snap, witness_view(self.witness(i), width))
        return len(snaps), mismatches

    def step(self):
        k = self.batch_index
        self.batch_index += 1
        if k % self.write_every == self.write_every - 1:
            self.write_batch()
            return 0, self.write_streams + 1, 0, None
        began = time.perf_counter()
        snaps = self.read_batch()
        latency = time.perf_counter() - began
        bad = sum(1 for sid, width, snap in snaps if (snap.stream_id, snap.resolution) != (sid, width))
        return len(snaps), len(snaps), bad, latency

    def counters(self) -> dict:
        stats = self.client.stats
        return {"views": stats.views_served, "hits": stats.view_cache_hits}

    def ratios(self, before: dict, after: dict) -> dict:
        views = after["views"] - before["views"]
        hits = after["hits"] - before["hits"]
        return {"service.view_cache_hit_ratio": hits / views if views else 0.0}


class LiveTcp(TcpWorkload):
    """Open loop at 8 rounds/s of 20 messy points into 32 streams, one
    pipelined ``call_many`` per round; a second connection subscribes to a
    200-pixel view of every stream and times each push from its round's due
    time."""

    name = "live_tcp"
    work_unit = "pushes received within 250 ms, over the whole phase"
    op = "round due -> view push received"
    streams = 32
    round_points = 20
    #: A round costs about 50 ms of service on a 2-core machine, so 8 rounds/s
    #: keeps utilisation near 40%: latency is service time, not backlog.
    rate = 8.0
    resolution = 200
    verify_rounds = 15
    witnesses = 8
    #: A push later than this counts toward push_miss_ratio.
    late_s = 0.25
    #: After the last round, how long to wait for its pushes.
    drain_s = 1.0
    spec = SPEC.merge(watermark=16, normalize=True)
    subscriber = None

    def make_inputs(self) -> loadgen.StreamInputs:
        rounds = self.verify_rounds + math.ceil(self.seconds * self.rate) + 1
        return loadgen.StreamInputs(
            self.seed, self.streams, self.history, self.round_points, rounds, messy=True
        )

    def start(self) -> None:
        super().start()
        self.subscriber = repro.connect(self.server.url, self.spec)

    def provision(self) -> None:
        super().provision()
        self.subscriptions = [
            self.subscriber.subscribe(sid, resolution=self.resolution) for sid in self.sids
        ]

    def unprovision(self) -> None:
        for subscription in self.subscriptions:
            self.subscriber.unsubscribe(subscription)
        super().unprovision()

    def send_round(self, r: int) -> dict:
        """Ingest round ``r`` into every stream and tick, pipelined; returns
        how many pushes each stream's emissions should produce."""
        calls = [self.ingest_call(i, r) for i in range(self.streams)]
        calls.append(("tick", {}))
        replies = self.client.hub.call_many(calls)
        emitted = {sid: int(bool(reply["frames"])) for sid, reply in zip(self.sids, replies)}
        for sid, frames in replies[-1]["frames"].items():
            emitted[sid] += int(bool(frames))
        return emitted

    def verify(self) -> tuple[int, list[str]]:
        witnesses = [self.witness(i) for i in range(self.witnesses)]
        want: dict[str, list] = {sid: [] for sid in self.sids[: self.witnesses]}
        expected = dict.fromkeys(self.sids, 0)
        for r in range(self.verify_rounds):
            for sid, count in self.send_round(r).items():
                expected[sid] += count
            for i, operator in enumerate(witnesses):
                if operator.push_many(*self.inputs.batch(i, r)):
                    want[self.sids[i]].append(witness_view(operator, self.resolution))
        events = self.subscriber.hub.wait_pushes(sum(expected.values()), timeout=10.0)
        got: dict[str, list] = {sid: [] for sid in self.sids}
        for event in sorted(events, key=lambda e: e.seq):
            got[event.stream_id].append(event.view)
        mismatches = [
            f"{sid}: {len(got[sid])} pushes, expected {expected[sid]}"
            for sid in self.sids
            if len(got[sid]) != expected[sid]
        ]
        for sid, views in want.items():
            if len(views) != len(got[sid]):
                mismatches.append(f"{sid}: {len(got[sid])} pushes, witness refreshed {len(views)} times")
                continue
            for k, (snap, view) in enumerate(zip(got[sid], views)):
                mismatches += view_differs(f"{sid} push {k + 1}", snap, view)
        self.seq_base = expected
        return sum(expected.values()), mismatches

    def measure(self, run: Run) -> None:
        clock = time.perf_counter
        emitted: dict[str, list[int]] = {sid: [] for sid in self.sids}
        received: dict[str, list] = {sid: [] for sid in self.sids}
        listening = threading.Event()
        listening.set()

        def listen() -> None:
            while listening.is_set():
                events = self.subscriber.pushes(timeout=0.05)
                arrived = clock()
                for event in events:
                    received[event.stream_id].append((event.seq, arrived))

        traced_rounds: list[bool] = []
        state = {"traced": False, "began": None, "failed_rounds": 0}

        def send(j: int, due: float) -> None:
            if state["began"] is None:
                state["began"] = due
            state["traced"] = self.trace_block(due - state["began"], state["traced"])
            traced_rounds.append(state["traced"])
            if self.tracer is not None:
                self.tracer.round_id = j
            try:
                counts = self.send_round(self.verify_rounds + j)
            except Exception:
                if state["failed_rounds"] == 0:
                    traceback.print_exc()
                state["failed_rounds"] += 1
                return
            for sid, count in counts.items():
                emitted[sid].extend([j] * count)

        listener = threading.Thread(target=listen, name="push-subscriber")
        listener.start()
        try:
            rounds = measure.open_loop(1.0 / self.rate, self.seconds, send)
            if state["traced"]:
                self.trace_off()
            run.began, run.ended = rounds[0].due, clock()
            expected = sum(len(v) for v in emitted.values())
            deadline = clock() + self.drain_s
            while clock() < deadline and sum(len(v) for v in received.values()) < expected:
                time.sleep(0.01)
        finally:
            listening.clear()
            listener.join(10.0)

        match = measure.match_pushes(emitted, received, [rnd.due for rnd in rounds], self.seq_base)
        for j, latency in match.latencies:
            run.samples.append((rounds[j].due, latency, 1, traced_rounds[j]))
        late = sum(1 for _j, latency in match.latencies if latency > self.late_s)
        # An open loop's throughput is its schedule; what can fall is the
        # share of pushes that arrive on time.
        run.throughput = (len(match.latencies) - late) / (run.ended - run.began)
        run.attempted += len(rounds) * (self.streams + 1) + expected
        run.failed += state["failed_rounds"] * (self.streams + 1) + match.missing + match.unexpected
        lags_ms = [lag * 1e3 for lag in measure.generator_lag(rounds)]
        lag_p99, _beyond = measure.percentile(lags_ms, 99)
        run.notes["gen_lag_ms_p99"] = (lag_p99, "ms", f"n={len(lags_ms)}")
        run.notes["push_miss_ratio"] = (
            (late + match.missing) / expected if expected else 0.0,
            "ratio",
            f"{late} late, {match.missing} missing of {expected}",
        )
        if lag_p99 > 1e3 / self.rate:
            run.notes["INVALID"] = (lag_p99, "ms", "generator lag p99 exceeds the round period")

    def counters(self) -> dict:
        stats = self.client.hub.server_stats()
        return {"sent": stats["pushes_sent"], "dropped": stats["push_dropped"]}

    def ratios(self, before: dict, after: dict) -> dict:
        sent = after["sent"] - before["sent"]
        dropped = after["dropped"] - before["dropped"]
        return {"net.push_drop_ratio": dropped / (sent + dropped) if sent + dropped else 0.0}

    def close(self) -> float:
        subscriber, self.subscriber = self.subscriber, None
        try:
            if subscriber is not None:
                subscriber.close()
        finally:
            peak = super().close()
        return peak


class BatchDashboard(Workload):
    """``connect("local").smooth_many`` over batches of 24 series x 20k
    points; half of each batch repeats the previous batch, half is unseen."""

    name = "batch_dashboard"
    work_unit = "series smoothed"
    op = "smooth_many of 24 series"
    batch_size = 24
    ops_per_step = batch_size
    #: One set-up takes about 15 ms, so more of them steady the median.
    setup_repeats = 15

    def start(self) -> None:
        super().start()
        self.inputs = loadgen.BatchInputs(self.seed, size=self.batch_size)
        self.first = self.inputs.batch(0)

    def provision(self) -> None:
        self.client = repro.connect("local", SPEC)
        self.first_result = self.client.smooth_many(self.first)
        self.previous = self.first
        self.index = 1
        self.acf = {"hits": 0, "misses": 0}

    def unprovision(self) -> None:
        self.client = None
        gc.collect()

    def verify(self) -> tuple[int, list[str]]:
        mismatches = []
        for k, (series, got) in enumerate(zip(self.first, self.first_result)):
            want = repro.smooth(series, spec=SPEC)
            if got.window != want.window or got.series.values.tobytes() != want.series.values.tobytes():
                mismatches.append(f"series {k}: smooth_many differs from smooth()")
        return len(self.first), mismatches

    def step(self):
        batch = self.inputs.batch(self.index, self.previous)
        self.index += 1
        self.previous = batch
        began = time.perf_counter()
        result = self.client.smooth_many(batch)
        latency = time.perf_counter() - began
        self.acf["hits"] += result.stats.acf_cache_hits
        self.acf["misses"] += result.stats.acf_cache_misses
        bad = 0 if len(result) == len(batch) else len(batch)
        return len(batch), len(batch), bad, latency

    def counters(self) -> dict:
        return dict(self.acf)

    def ratios(self, before: dict, after: dict) -> dict:
        hits = after["hits"] - before["hits"]
        total = hits + after["misses"] - before["misses"]
        return {"engine.acf_cache_hit_ratio": hits / total if total else 0.0}


WORKLOADS = {
    workload.name: workload
    for workload in (IngestHub, IngestSharded, LiveTcp, PollTcp, BatchDashboard)
}

#: Useful-outcome ratios, one per layer that can waste work.
RATIOS = (
    "streaming.warm_hit_ratio",
    "service.view_cache_hit_ratio",
    "net.push_drop_ratio",
    "engine.acf_cache_hit_ratio",
)


def run(name: str, seed: int, seconds: float, traced: bool) -> tuple[Workload, Run]:
    """One run of one workload (see the module docstring)."""
    tracer = Tracer("client") if traced else None
    cores = measure.cores()
    workload = WORKLOADS[name](seed, seconds, tracer, cores)
    result = Run(started=time.perf_counter())
    speed = measure.SpeedProbe(workload.busy_cores())
    try:
        workload.start()
        for k in range(workload.setup_repeats):
            if k:
                workload.unprovision()
            last = k == workload.setup_repeats - 1
            if traced and last:
                workload.trace_on("setup")
            began = time.perf_counter()
            workload.provision()
            result.setups.append((began, time.perf_counter()))
            if traced and last:
                workload.trace_off()
        if traced:
            workload.trace_on("verify")
        checked, result.mismatches = workload.verify()
        if traced:
            workload.trace_off()
        result.attempted += checked
        result.failed += len(result.mismatches)
        before = workload.counters()
        workload.measure(result)
        result.ratios = workload.ratios(before, workload.counters())
    finally:
        result.probes = list(speed.stop().values())
        result.peak_rss_mb = workload.close()
    if traced:
        result.traces["client"] = tracer.summary()
        result.traces["server"] = workload.server_report.get("trace", {})
    return workload, result


def latencies_ms(run_: Run, speed: measure.Speed, traced: bool = False) -> list[float]:
    """Operation latencies at nominal speed, in ms, untraced or traced."""
    return [
        speed.nominal(start, start + latency) * 1e3
        for start, latency, _work, on in run_.samples
        if latency is not None and on == traced
    ]


def speed_of(run_: Run) -> measure.Speed:
    return measure.Speed(run_.probes, run_.started, run_.ended)


def end_to_end(run_: Run) -> dict:
    """The ``END_TO_END`` metrics of an untraced run: name -> (value, unit, note).

    Every time is stated at nominal machine speed; each note gives the
    value as measured on the wall clock."""
    speed = speed_of(run_)
    latencies = latencies_ms(run_, speed)
    raw = [latency * 1e3 for _start, latency, _work, _on in run_.samples if latency is not None]
    p50, _ = measure.percentile(latencies, 50)
    tail, beyond = measure.percentile(latencies, TAIL)
    if not measure.tail_supported(len(latencies), TAIL):
        run_.notes["TAIL_UNSUPPORTED"] = (beyond, "count", f"fewer than 10 samples beyond p{TAIL}")
    setups = [speed.nominal(a, b) for a, b in run_.setups]
    wall = run_.ended - run_.began
    work = sum(sample[2] for sample in run_.samples)
    if run_.throughput is not None:
        throughput = (run_.throughput, "1/s", f"over {wall:.1f} s, not normalized")
    else:
        throughput = (work / speed.nominal(run_.began, run_.ended), "1/s",
                      f"{work / wall:.6g} over {wall:.1f} s of wall time")
    return {
        "setup_s": (float(np.median(setups)), "s",
                    f"median of {len(setups)}; {np.median([b - a for a, b in run_.setups]):.4g} s wall"),
        "throughput_per_s": throughput,
        "latency_ms_p50": (p50, "ms", f"n={len(latencies)}; {measure.percentile(raw, 50)[0]:.4g} ms wall"),
        f"latency_ms_p{TAIL}": (tail, "ms", f"n={len(latencies)}, {beyond} beyond; "
                                f"{measure.percentile(raw, TAIL)[0]:.4g} ms wall"),
        "peak_rss_mb": (run_.peak_rss_mb, "MB", ""),
    }


def per_layer(run_: Run) -> dict:
    """The per-layer metrics of a traced run: name -> (value, unit)."""
    client, server = run_.traces["client"], run_.traces["server"]
    out = {}
    for stage in STAGES:
        window = "setup" if stage in SETUP_STAGES else "measure"
        calls = busy_ns = 0
        for summary in (client, server):
            c, b = summary.get(window, {}).get("stages", {}).get(stage, (0, 0))
            calls += c
            busy_ns += b
        wall_ns = client[window]["wall_ns"]
        out[f"{stage}.calls"] = (calls, "count")
        out[f"{stage}.busy_s"] = (busy_ns / 1e9, "s")
        out[f"{stage}.share"] = (busy_ns / wall_ns, "ratio")
    wall_ns = client["measure"]["wall_ns"]
    for role, summary in (("client", client), ("server", server)):
        window = summary.get("measure")
        residual = cpu = 0.0
        if window:
            residual = (window["threads"] * window["wall_ns"] - window["covered_ns"]) / wall_ns
            cpu = window["cpu_ns"] / window["wall_ns"]
        out[f"{role}.residual.share"] = (residual, "ratio")
        out[f"{role}.cpu.share"] = (cpu, "ratio")
    for name in RATIOS:
        out[name] = (run_.ratios.get(name, 0.0), "ratio")
    speed = speed_of(run_)
    traced, untraced = latencies_ms(run_, speed, True), latencies_ms(run_, speed, False)
    overhead = float(np.median(traced) / np.median(untraced)) if traced and untraced else 0.0
    out["trace.overhead"] = (overhead, "ratio")
    return out


def accounted(run_: Run) -> dict:
    """Per role: (stage self time + residual) / (threads x wall) over the
    measured phase.  Self times sum to the time top-level spans cover, so
    this is 1 unless spans overlap or spill outside the traced blocks."""
    out = {}
    for role, summary in run_.traces.items():
        window = summary.get("measure")
        if not window:
            continue
        budget = window["threads"] * window["wall_ns"]
        busy = sum(b for _c, b in window["stages"].values())
        out[role] = (busy + max(0, budget - window["covered_ns"])) / budget
    return out
