"""Per-layer spans for the end-to-end benchmark, recorded from outside the program.

:class:`Tracer` wraps public callables of ``repro`` in the namespace their
caller resolves them in — ``repro.core.streaming.asap_search``, not
``repro.core.search.asap_search``, because the streaming operator calls the
name it imported — and a method on its class.  Each wrapper calls the
original verbatim and records one span ``(stage, start_ns, end_ns, parent,
round_id)``, so outputs are unchanged and verification still passes with
tracing on.  Spans stay in memory, one list per thread and window, and are
summarized when the run ends.

A stage's *self time* is the time inside its spans minus the time inside
their child spans.  Self times on a thread therefore add up to the time its
top-level spans cover; the rest of the traced wall time on that thread (the
load generator, asyncio and sockets, idle waits) is the *residual*.

Stages are grouped by the module that owns them.  Client and server roles
trace different wire stages: the TCP workloads run the server in its own
process with its own tracer, so ``repro.net.wire.encode_message`` is
``net.client.encode`` in the load generator and ``net.server.encode`` there.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

_REMOTE = "repro.net.remote:RemoteBackend."

CLIENT_NET_STAGES = {
    "net.client.encode": ["repro.net.wire:encode_message"],
    "net.client.decode": ["repro.net.wire:decode_payload"],
    "net.client.codec": [
        "repro.net.wire:frames_from_state",
        "repro.net.wire:snapshot_from_state",
        "repro.net.wire:backfill_from_state",
        "repro.net.wire:hub_stats_from_state",
        "repro.net.wire:arrays_state",
    ],
    # Self time of a client call is what encode/decode/codec leave: the wait
    # for the server's reply on the socket.
    "net.client.wait": [
        _REMOTE + name
        for name in (
            "call_many",
            "create_stream",
            "ingest",
            "backfill",
            "tick",
            "snapshot",
            "close",
            "subscribe",
            "pushes",
        )
    ],
}

SERVER_NET_STAGES = {
    "net.server.encode": ["repro.net.wire:encode_message"],
    "net.server.decode": ["repro.net.wire:decode_payload"],
    "net.server.codec": [
        "repro.net.wire:frames_state",
        "repro.net.wire:snapshot_state",
        "repro.net.wire:backfill_state",
        "repro.net.wire:hub_stats_state",
    ],
}

HUB_STAGES = {
    "service.ingest": ["repro.service.hub:StreamHub.ingest"],
    "service.tick": ["repro.service.hub:StreamHub.tick"],
    "service.snapshot": ["repro.service.hub:StreamHub.snapshot"],
    "service.backfill": ["repro.service.hub:StreamHub.backfill"],
    "cluster.ingest": ["repro.cluster.sharded:ShardedHub.ingest"],
    "cluster.tick": ["repro.cluster.sharded:ShardedHub.tick"],
    "cluster.submit": ["repro.cluster.shard:ProcessShard.submit"],
    "cluster.result_wait": ["repro.cluster.shard:ProcessShard.result"],
    "quality.reorder": ["repro.quality.stream:ReorderBuffer.push_many"],
    "quality.normalize": ["repro.quality.stream:StreamNormalizer.process"],
    "panes.extend": ["repro.stream.panes:PaneBuffer.extend"],
    "panes.drain": ["repro.stream.panes:PaneBuffer.drain_completed"],
    "streaming.push_many": ["repro.core.streaming:StreamingASAP.push_many"],
    "streaming.rolling_extend": ["repro.core.streaming:RollingWindowState.extend"],
    "streaming.rolling_correlations": ["repro.core.streaming:RollingWindowState.correlations"],
    "streaming.rolling_rebuild": ["repro.core.streaming:RollingWindowState.rebuild"],
    "acf.analyze": [
        "repro.core.streaming:analyze_acf",
        "repro.core.streaming:analysis_from_correlations",
        "repro.core.search:analyze_acf",
        "repro.engine.cache:analyze_acf",
    ],
    "search.asap": ["repro.core.streaming:asap_search"],
    "search.strategy": ["repro.core.batch:run_strategy", "repro.core.streaming:run_strategy"],
    "spectral.probe_moments": ["repro.core.streaming:sma_probe_moments"],
    "spectral.sma": ["repro.core.streaming:sma", "repro.core.batch:sma"],
    "pyramid.extend": ["repro.pyramid.rollup:Pyramid.extend"],
    "pyramid.view": ["repro.pyramid.rollup:Pyramid.view"],
    "engine.smooth_many": ["repro.engine.batch_engine:BatchEngine.smooth_many"],
    "engine.prepare": ["repro.engine.batch_engine:prepare_search_input"],
    "engine.acf": ["repro.engine.cache:ACFCache.get_or_compute"],
}

#: Every stage, in report order.
STAGES = [*CLIENT_NET_STAGES, *SERVER_NET_STAGES, *HUB_STAGES]

#: Stages summarized over the traced set-up rather than the measured phase:
#: history backfill runs only while streams are provisioned.
SETUP_STAGES = ("service.backfill",)

ROLES = {
    "client": {**CLIENT_NET_STAGES, **HUB_STAGES},
    "server": {**SERVER_NET_STAGES, **HUB_STAGES},
}


def _resolve(target: str):
    """``"module:attr"`` or ``"module:Class.method"`` -> (owner, attr, original)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    original = owner.__dict__[attr] if classes else getattr(owner, attr)
    return owner, attr, original


class Tracer:
    """Install span wrappers for one process role; see the module docstring.

    ``start(window)`` installs every wrapper and opens a named window;
    ``stop()`` restores the originals and adds the window's wall and CPU
    time.  Windows may be reopened, so interleaved traced blocks accumulate
    into one window.  Targets that no longer exist are reported on stderr
    and skipped, leaving their stage at zero.
    """

    def __init__(self, role: str) -> None:
        self.window: str | None = None
        self.round_id = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._lists: list[tuple[str, list]] = []
        self._wall: dict[str, int] = {}
        self._cpu: dict[str, int] = {}
        self._opened = (0, 0)
        self._patches = []
        for stage, targets in ROLES[role].items():
            for target in targets:
                try:
                    owner, attr, original = _resolve(target)
                except (ImportError, AttributeError, KeyError):
                    print(f"trace: {target} not found; {stage} is not traced", file=sys.stderr)
                    continue
                self._patches.append((owner, attr, original, self._wrap(stage, original)))

    def start(self, window: str) -> None:
        self.stop()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._opened = (time.perf_counter_ns(), time.process_time_ns())
        self.window = window

    def stop(self) -> None:
        window = self.window
        if window is None:
            return
        self.window = None
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)
        wall0, cpu0 = self._opened
        self._wall[window] = self._wall.get(window, 0) + time.perf_counter_ns() - wall0
        self._cpu[window] = self._cpu.get(window, 0) + time.process_time_ns() - cpu0

    def _spans(self, window: str) -> tuple[list, list]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = {}
        spans = local.spans.get(window)
        if spans is None:
            spans = local.spans[window] = []
            with self._lock:
                self._lists.append((window, spans))
        return local.stack, spans

    def _wrap(self, stage: str, original):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            window = tracer.window
            if window is None:
                return original(*args, **kwargs)
            stack, spans = tracer._spans(window)
            # A parent opened in another window (tracing toggled mid-call)
            # is not this span's parent: the span becomes top-level.
            parent = stack[-1][1] if stack and stack[-1][0] is spans else -1
            index = len(spans)
            spans.append(None)
            stack.append((spans, index))
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (stage, start, end, parent, tracer.round_id)

        return traced

    def summary(self) -> dict:
        """Per window: wall and CPU ns, tracing threads, covered ns, and
        ``{stage: [calls, self_ns]}``."""
        self.stop()
        out = {
            window: {"wall_ns": wall, "cpu_ns": self._cpu[window], "threads": 0,
                     "covered_ns": 0, "stages": {}}
            for window, wall in self._wall.items()
        }
        for window, spans in self._lists:
            entry = out[window]
            stages, covered = self_times(spans)
            entry["threads"] += 1
            entry["covered_ns"] += covered
            for stage, (calls, busy) in stages.items():
                total = entry["stages"].setdefault(stage, [0, 0])
                total[0] += calls
                total[1] += busy
        return out


def self_times(spans) -> tuple[dict, int]:
    """Self time per stage for one thread's spans, plus the time covered by
    its top-level spans.  Parents precede their children in *spans*;
    unfinished spans (``None``) are skipped."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    stages: dict[str, list[int]] = {}
    covered = 0
    for index, span in enumerate(spans):
        if span is None:
            continue
        stage, start, end, parent, _round = span
        entry = stages.setdefault(stage, [0, 0])
        entry[0] += 1
        entry[1] += end - start - child_ns[index]
        if parent < 0:
            covered += end - start
    return stages, covered
