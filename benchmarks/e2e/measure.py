"""Measurement rules of the end-to-end benchmark.  All but
:class:`SpeedProbe` are pure, so the tests drive them with fake clocks,
probes and pushes.

* :func:`percentile` — nearest-rank percentiles, with the count of samples
  beyond, because a tail percentile is only reported when at least
  :data:`MIN_BEYOND` samples lie past it.
* :class:`SpeedProbe` and :class:`Speed` — how fast each core ran, from a
  fixed :func:`probe` kernel, and measured times restated at nominal speed.
* :func:`open_loop` — the ``live_tcp`` schedule: round ``r`` is *due* at
  ``start + r * period`` whether or not the system kept up, so a stall is
  charged to every round that fell due during it.
* :func:`match_pushes` — pairs each server push with the round whose
  response emitted its frame, per stream and by ``seq`` order.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples, q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile of *samples* and how many lie beyond it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_supported(n: int, q: float) -> bool:
    """True when ``n`` samples put at least :data:`MIN_BEYOND` beyond the ``q``-th percentile."""
    return n > 0 and n - max(1, math.ceil(q / 100.0 * n)) >= MIN_BEYOND


#: The probe kernel's duration on an unloaded core of the machine the
#: benchmark was sized on; :class:`Speed` reports time at this speed.
NOMINAL_PROBE_S = 0.00025

#: Seconds between probes, and the windows their durations are pooled in.
PROBE_EVERY_S = 0.05
WINDOW_S = 0.25

#: Small enough that NumPy keeps the interpreter lock through each call (it
#: releases it only for larger loops), so another thread of the process can
#: never stretch a probe: the probe times the core, not the lock.
_PROBE_VALUES = np.linspace(0.0, 1.0, 256)


def probe() -> float:
    """Run a fixed mix of interpreter and small-NumPy work; returns its seconds.

    The mix resembles the program's own: a Python loop plus many small
    array calls.  Its duration measures how fast the core running it is at
    the moment, independent of the program under test.
    """
    began = time.perf_counter()
    total = 0.0
    for i in range(600):
        total += (i * 0.5) ** 0.5
    for _ in range(40):
        total += float(np.cumsum(_PROBE_VALUES)[-1])
        total += float((_PROBE_VALUES * 2.0 + 1.0).sum())
    return time.perf_counter() - began


def cores() -> list[int]:
    """Up to two cores this process may run on: the load generator's and,
    for the TCP workloads, the server's (one core serves both when that is
    all there is)."""
    allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
    return allowed[:2] * (2 if len(allowed) == 1 else 1)


def pin(core: int) -> None:
    """Pin the calling thread, and threads it starts later, to *core*."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {core})


class SpeedProbe:
    """Runs :func:`probe` every :data:`PROBE_EVERY_S` on each of *cores*,
    from one daemon thread pinned to each.

    ``records[core]`` holds ``(perf_counter time, probe seconds)`` pairs.
    A probe preempts whatever else runs on its core for a quarter of a
    millisecond per period, a fixed cost that is the same for every commit.
    """

    def __init__(self, cores) -> None:
        self.records: dict[int, list[tuple[float, float]]] = {core: [] for core in cores}
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._run, args=(core,), name=f"speed-probe-{core}", daemon=True)
            for core in self.records
        ]
        for thread in self._threads:
            thread.start()

    def _run(self, core: int) -> None:
        pin(core)
        records = self.records[core]
        while not self._stop.wait(PROBE_EVERY_S):
            records.append((time.perf_counter(), probe()))

    def stop(self) -> dict[int, list[tuple[float, float]]]:
        self._stop.set()
        for thread in self._threads:
            thread.join(5.0)
        return self.records


class Speed:
    """The machine's slowdown over time, to state measured times at nominal speed.

    The machine this benchmark was sized on runs the same fixed kernel up to
    2x slower for seconds to minutes at a time, with CPU time rising as much
    as wall time: its cores slow down, each on its own, for reasons outside
    the program.  Per :data:`WINDOW_S` window, the median duration of the
    probes run on a core (:class:`SpeedProbe`) over :data:`NOMINAL_PROBE_S`
    is that core's slowdown, and the mean over the cores the workload runs
    on is the window's.  Windows without a probe take the nearest window's
    value.  A program change does not move the probe, so it still moves
    every normalized metric.
    """

    def __init__(self, probe_sets, start: float, end: float, window: float = WINDOW_S) -> None:
        self.start = start
        self.window = window
        count = max(1, math.ceil((end - start) / window))
        per_core = []
        for records in probe_sets:
            buckets: list[list[float]] = [[] for _ in range(count)]
            for when, seconds in records:
                index = math.floor((when - start) / window)
                if 0 <= index < count:
                    buckets[index].append(seconds)
            filled = [i for i, bucket in enumerate(buckets) if bucket]
            if not filled:
                continue
            per_core.append([
                statistics.median(buckets[min(filled, key=lambda f: abs(f - i))])
                / NOMINAL_PROBE_S
                for i in range(count)
            ])
        self.factors = [statistics.fmean(column) for column in zip(*per_core)] or [1.0] * count

    def nominal(self, a: float, b: float) -> float:
        """Seconds the interval ``[a, b]`` would have taken at nominal speed."""
        total = 0.0
        last = len(self.factors) - 1
        while a < b:
            index = min(max(math.floor((a - self.start) / self.window), 0), last)
            edge = self.start + (index + 1) * self.window
            end = b if index == last else min(b, edge)
            total += (end - a) / self.factors[index]
            a = end if end > a else b
        return total


@dataclass(frozen=True)
class Round:
    """One open-loop round: when it was due, sent, and answered."""

    due: float
    sent: float
    done: float


def open_loop(period: float, duration: float, send, clock=time.perf_counter, sleep=time.sleep):
    """Call ``send(r, due)`` for rounds due every *period* seconds for *duration*.

    The schedule never waits on the system: a round whose due time has passed
    is sent at once, keeping its original due time.  Returns one
    :class:`Round` per round sent.
    """
    start = clock()
    rounds: list[Round] = []
    r = 0
    while r * period < duration:
        due = start + r * period
        now = clock()
        if now < due:
            sleep(due - now)
        sent = clock()
        send(r, due)
        rounds.append(Round(due=due, sent=sent, done=clock()))
        r += 1
    return rounds


def generator_lag(rounds) -> list[float]:
    """The generator's own lateness per round: how long after the round was
    due *and* the previous round returned it was sent.  Lateness the system
    caused (a slow previous round) is not the generator's, so it is excluded."""
    lags = []
    previous_done = -math.inf
    for rnd in rounds:
        lags.append(rnd.sent - max(rnd.due, previous_done))
        previous_done = rnd.done
    return lags


@dataclass
class PushMatch:
    """``(round, latency)`` per matched push, plus pushes that never arrived."""

    latencies: list[tuple[int, float]] = field(default_factory=list)
    missing: int = 0
    unexpected: int = 0


def match_pushes(emitted: dict, received: dict, due, seq_base: dict | None = None) -> PushMatch:
    """Pair pushes with the rounds that emitted their frames.

    *emitted* maps a stream id to the round indices whose responses carried
    a frame for it, in emission order; the server numbers that stream's
    pushes in the same order, so the ``k``-th emission (counting from 1 after
    ``seq_base[sid]`` earlier pushes) is the push with that ``seq``.  A frame
    the watermark held back surfaces in a later round's response, and is
    charged to that later round.  *received* maps a stream id to
    ``(seq, receive_time)`` pairs in any order; ``due[r]`` is round ``r``'s
    due time.  Pushes with no matching emission count as ``unexpected``.
    """
    seq_base = seq_base or {}
    match = PushMatch()
    for sid, rounds in emitted.items():
        base = seq_base.get(sid, 0)
        arrivals = dict(received.get(sid, ()))
        for k, r in enumerate(rounds, start=base + 1):
            arrived = arrivals.pop(k, None)
            if arrived is None:
                match.missing += 1
            else:
                match.latencies.append((r, arrived - due[r]))
        match.unexpected += sum(1 for seq in arrivals if seq > base)
    match.unexpected += sum(
        1
        for sid, pairs in received.items()
        if sid not in emitted
        for seq, _t in pairs
        if seq > seq_base.get(sid, 0)
    )
    return match
