"""Pane-based subaggregation for sliding windows.

Sliding-window aggregates "can be computed more efficiently by sub-aggregating
the incoming data into disjoint segments (i.e., panes)" (Section 4.5, citing
Li et al., "No pane, no gain").  Streaming ASAP maintains a linked list of
pane subaggregates whose size equals the point-to-pixel ratio: each pane
collapses ``pane_size`` raw arrivals into one aggregated point, and the
visible window is a bounded run of completed panes.

:class:`PaneBuffer` is that structure.  It exposes the aggregated series (one
value per completed pane) for the search routine and evicts panes beyond the
configured capacity.  A pane is its arrival count and Welford running mean —
the one value per pane the search reads.

Two serving-path refinements over the original per-point structure:

* completed-pane means and start timestamps live in contiguous rolling
  arrays, so :meth:`PaneBuffer.aggregated_values` is a memcpy of a slice
  instead of a Python iteration over pane objects — the per-refresh read
  path of the streaming operator;
* :meth:`PaneBuffer.extend` folds whole panes in one block (bit-identical
  to the per-point recurrence): a block of a few panes (a streamed
  refresh's) replays the Welford recurrence on Python floats, a larger one
  (a fast-lane backfill's) replays it column by column in numpy, so batch
  ingestion — the StreamHub hot path — pays neither a :class:`Pane` update
  per point nor numpy's per-call overhead on blocks too small to amortize it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Pane", "PaneBuffer", "DiscardedState", "RollingArray"]


class Pane:
    """One disjoint segment of the stream, pre-aggregated to a single point.

    ``mean`` is the Welford running mean of the pane's arrivals; it is the
    same operation sequence as :func:`_bulk_welford_means`, so a pane folded
    point by point and one folded in bulk hold bit-identical means.
    """

    __slots__ = ("start_time", "count", "_mean")

    def __init__(self, start_time: float, count: int = 0, mean: float = 0.0) -> None:
        self.start_time = start_time
        self.count = count
        self._mean = mean

    def update(self, value: float) -> None:
        self.count += 1
        self._mean += (value - self._mean) / self.count

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("mean of an empty pane is undefined")
        return self._mean


@dataclass(frozen=True)
class DiscardedState:
    """What a :meth:`PaneBuffer.reset` threw away — reset is explicit, not silent.

    ``open_pane_points``/``open_pane_start`` describe the trailing *partial*
    pane: points that were pushed but never completed a pane and therefore
    never appeared in :meth:`PaneBuffer.aggregated_values`.  Callers that
    re-use a buffer across ranges can use this to account for (or re-ingest)
    the dropped tail instead of losing it silently.
    """

    completed_panes: int
    evicted_panes: int
    total_points: int
    open_pane_points: int
    open_pane_start: float | None

    @property
    def dropped_partial_pane(self) -> bool:
        """True when a trailing partial pane (and its timestamps) was discarded."""
        return self.open_pane_points > 0


class RollingArray:
    """Contiguous sliding float64 storage with amortized O(1) append.

    Sized for roughly ``capacity + 1`` live values (one slot of slack for an
    append-then-evict sequence; bulk appends may briefly hold up to
    ``2 * capacity``).  The backing buffer is twice that size; when the write
    head reaches the end, the live span is shifted back to the front — at
    most one copy of ``capacity`` elements per ``capacity`` appends.
    ``view()`` is always a contiguous slice, so readers get memcpy
    performance and vectorized kernels can consume it directly.  Holds
    :class:`PaneBuffer`'s pane means, start timestamps and synthetic counts.
    """

    __slots__ = ("_buf", "_head", "_tail")

    def __init__(self, capacity: int) -> None:
        self._buf = np.empty(2 * (capacity + 1), dtype=np.float64)
        self._head = 0
        self._tail = 0

    def __len__(self) -> int:
        return self._tail - self._head

    def _make_room(self, extra: int) -> None:
        if self._tail + extra <= self._buf.size:
            return
        length = self._tail - self._head
        if length + extra > self._buf.size:
            grown = np.empty(2 * (length + extra), dtype=np.float64)
            grown[:length] = self._buf[self._head : self._tail]
            self._buf = grown
        else:
            self._buf[:length] = self._buf[self._head : self._tail]
        self._head = 0
        self._tail = length

    def append(self, value: float) -> None:
        self._make_room(1)
        self._buf[self._tail] = value
        self._tail += 1

    def append_many(self, values: np.ndarray) -> None:
        self._make_room(values.size)
        self._buf[self._tail : self._tail + values.size] = values
        self._tail += values.size

    def popleft(self, count: int = 1) -> None:
        self._head += count

    def view(self) -> np.ndarray:
        """The live span (no copy); valid until the next append."""
        return self._buf[self._head : self._tail]

    def clear(self) -> None:
        self._head = 0
        self._tail = 0


#: Blocks of at most this many panes take the scalar path of
#: :func:`_bulk_welford_means`.  Measured on a 2-core x86-64 VM (numpy 2.4):
#: the scalar recurrence wins below about 8 panes of size 1, 14 of size 10
#: and 30 of size 137 (10 panes of 10: 13 µs against 25 µs; 64 panes of 10:
#: 119 µs against 42 µs).  A streamed refresh folds at most
#: ``refresh_interval`` panes per call; backfills fold up to ``capacity``.
_SCALAR_MEANS_MAX_PANES = 16


def _bulk_welford_means(block: np.ndarray) -> np.ndarray:
    """Per-row Welford means of a ``(panes, pane_size)`` block.

    Replays :meth:`Pane.update`'s ``mean += (value - mean) / count`` over each
    row, so every row's mean is bit-identical to folding that row's values
    through a pane one at a time — the property that keeps batch ingestion
    interchangeable with the per-point path.  Small blocks run the recurrence
    on Python floats (numpy's per-call overhead dominates a few panes); large
    ones replay it column by column with array operands.  Both paths perform
    the same IEEE operations in the same order.
    """
    n_panes, pane_size = block.shape
    if n_panes <= _SCALAR_MEANS_MAX_PANES:
        means = []
        for row in block.tolist():
            mean = 0.0
            for count, value in enumerate(row, 1):
                mean += (value - mean) / count
            means.append(mean)
        return np.array(means, dtype=np.float64)
    mean = np.zeros(n_panes, dtype=np.float64)
    for j in range(pane_size):
        mean = mean + (block[:, j] - mean) / (j + 1)
    return mean


class PaneBuffer:
    """Fixed-capacity ring of panes fed one raw point at a time.

    Parameters
    ----------
    pane_size:
        Raw points per pane — streaming ASAP sets this to the point-to-pixel
        ratio so each pane is one plotted point (Section 4.5).
    capacity:
        Maximum number of *completed* panes retained (the visualized window,
        e.g. the target resolution in pixels).  Older panes are evicted.
    track_quality:
        When True, the buffer keeps a per-pane count of *synthetic* points
        (gap fills marked by the quality stage via the ``synthetic``
        arguments of :meth:`push`/:meth:`extend`), so
        :attr:`window_synthetic_points` can report how much of the current
        window is filled rather than observed.  Aggregation is unaffected.

    Timestamp semantics: panes bucket by **arrival order** — a pane's
    ``start_time`` is simply the timestamp of its first arrival, duplicates
    and even non-monotonic timestamps included.  Callers that need
    out-of-order arrivals placed by *time* put a
    :class:`~repro.quality.ReorderBuffer` in front (the streaming operator's
    ``watermark`` knob); the buffer itself never reorders or mis-buckets.
    """

    def __init__(
        self,
        pane_size: int,
        capacity: int,
        track_quality: bool = False,
    ) -> None:
        if pane_size < 1:
            raise ValueError(f"pane_size must be >= 1, got {pane_size}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.pane_size = pane_size
        self.capacity = capacity
        self.track_quality = track_quality
        self._means = RollingArray(capacity)
        self._times = RollingArray(capacity)
        self._synth = RollingArray(capacity) if track_quality else None
        self._open_synth = 0
        self._open: Pane | None = None
        self._total_points = 0
        self._evicted_panes = 0

    # -- ingest --------------------------------------------------------------

    def _complete(self, pane: Pane) -> None:
        self._means.append(pane.mean)
        self._times.append(pane.start_time)
        if self._synth is not None:
            self._synth.append(float(self._open_synth))
            self._open_synth = 0
        if len(self._means) > self.capacity:
            self._means.popleft()
            self._times.popleft()
            if self._synth is not None:
                self._synth.popleft()
            self._evicted_panes += 1

    def push(self, timestamp: float, value: float, synthetic: bool = False) -> Pane | None:
        """Fold one arrival in; return the pane it *completed*, if any."""
        if self._open is None:
            self._open = Pane(start_time=timestamp)
        self._open.update(value)
        self._total_points += 1
        if synthetic and self._synth is not None:
            self._open_synth += 1
        if self._open.count >= self.pane_size:
            completed = self._open
            self._open = None
            self._complete(completed)
            return completed
        return None

    def extend(self, timestamps, values, synthetic=None) -> int:
        """Push a batch; return how many panes were completed.

        Whole panes are folded as one block by :func:`_bulk_welford_means` —
        bit-identical to pushing the same points one at a time.  A
        trailing group smaller than ``pane_size`` stays in the open pane,
        exactly as with :meth:`push`; *timestamps* and *values* must have
        equal lengths (a mismatch raises instead of silently truncating).
        *synthetic* optionally marks fill points (a bool mask of the same
        length) for the per-pane quality tally (``track_quality=True``).
        """
        ts = np.asarray(timestamps, dtype=np.float64)
        vs = np.asarray(values, dtype=np.float64)
        if ts.ndim != 1 or vs.ndim != 1:
            raise ValueError(
                f"extend expects 1-D timestamps and values, got shapes {ts.shape} and {vs.shape}"
            )
        if ts.size != vs.size:
            raise ValueError(
                f"timestamps and values must have equal lengths, got {ts.size} and {vs.size}"
            )
        syn = None
        if synthetic is not None and self._synth is not None:
            syn = np.asarray(synthetic, dtype=bool)
            if syn.shape != vs.shape:
                raise ValueError(
                    f"synthetic mask must match values, got {syn.shape} and {vs.shape}"
                )
        completed = 0
        i = 0
        n = vs.size
        # Finish the currently open pane point by point (at most pane_size - 1
        # iterations), so the bulk phase starts on a pane boundary.
        while i < n and self._open is not None:
            if self.push(float(ts[i]), float(vs[i]), syn is not None and bool(syn[i])) is not None:
                completed += 1
            i += 1
        n_full = (n - i) // self.pane_size
        if n_full > self.capacity:
            # Backfill larger than the window: only the last `capacity` panes
            # can survive this call, so the leading panes are accounted as
            # completed-then-evicted without ever materializing retained
            # state — peak memory stays O(capacity), not O(batch).
            skipped = n_full - self.capacity
            skipped_span = skipped * self.pane_size
            self._evicted_panes += skipped + len(self._means)
            self._means.clear()
            self._times.clear()
            if self._synth is not None:
                self._synth.clear()
            self._total_points += skipped_span
            completed += skipped
            i += skipped_span
            n_full = self.capacity
        if n_full > 0:
            span = n_full * self.pane_size
            block = vs[i : i + span].reshape(n_full, self.pane_size)
            starts = np.array(ts[i : i + span : self.pane_size], dtype=np.float64)
            pane_size = self.pane_size
            mean = _bulk_welford_means(block)
            self._means.append_many(mean)
            self._times.append_many(starts)
            if self._synth is not None:
                if syn is not None:
                    counts = (
                        syn[i : i + span]
                        .reshape(n_full, pane_size)
                        .sum(axis=1)
                        .astype(np.float64)
                    )
                else:
                    counts = np.zeros(n_full, dtype=np.float64)
                self._synth.append_many(counts)
            overflow = len(self._means) - self.capacity
            if overflow > 0:
                self._means.popleft(overflow)
                self._times.popleft(overflow)
                if self._synth is not None:
                    self._synth.popleft(overflow)
                self._evicted_panes += overflow
            self._total_points += span
            completed += n_full
            i += span
        for j in range(i, n):
            if self.push(float(ts[j]), float(vs[j]), syn is not None and bool(syn[j])) is not None:
                completed += 1
        return completed

    # -- views ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._means)

    @property
    def total_points(self) -> int:
        """Raw points ever pushed (including evicted and in-flight ones)."""
        return self._total_points

    @property
    def evicted_panes(self) -> int:
        """Completed panes dropped because the buffer exceeded capacity."""
        return self._evicted_panes

    @property
    def panes_completed(self) -> int:
        """Panes ever completed (retained + evicted) — a monotone version
        counter for consumers caching derived state (e.g. resolution views)."""
        return len(self._means) + self._evicted_panes

    @property
    def open_pane_points(self) -> int:
        """Points in the trailing partial pane (not yet aggregated)."""
        return self._open.count if self._open is not None else 0

    @property
    def open_pane_start(self) -> float | None:
        """Start timestamp of the trailing partial pane, if one is open."""
        return self._open.start_time if self._open is not None else None

    @property
    def window_synthetic_points(self) -> int:
        """Synthetic (gap-fill) points inside the completed-pane window.

        0 unless constructed with ``track_quality=True`` and fed a
        ``synthetic`` mask; the open partial pane is not counted (it is not
        part of the aggregated window either).
        """
        if self._synth is None:
            return 0
        return int(self._synth.view().sum())

    @property
    def window_completeness(self) -> float:
        """Fraction of the aggregated window built from observed points."""
        window_points = len(self._means) * self.pane_size
        if window_points == 0:
            return 1.0
        return 1.0 - self.window_synthetic_points / window_points

    def aggregated_values(self) -> np.ndarray:
        """Mean of each completed pane, oldest first — the search's input."""
        return self._means.view().copy()

    def aggregated_timestamps(self) -> np.ndarray:
        """Start timestamp of each completed pane."""
        return self._times.view().copy()

    # -- reset ---------------------------------------------------------------

    def reset(self) -> DiscardedState:
        """Drop all state and report exactly what was discarded.

        The report includes the trailing partial pane (points pushed since the
        last pane boundary, and their start timestamp), which the aggregated
        views never exposed — resetting mid-pane is a lossy operation and this
        makes the loss explicit rather than silent.
        """
        discarded = DiscardedState(
            completed_panes=len(self._means),
            evicted_panes=self._evicted_panes,
            total_points=self._total_points,
            open_pane_points=self.open_pane_points,
            open_pane_start=self.open_pane_start,
        )
        self._means.clear()
        self._times.clear()
        if self._synth is not None:
            self._synth.clear()
        self._open_synth = 0
        self._open = None
        self._total_points = 0
        self._evicted_panes = 0
        return discarded

    def clear(self) -> None:
        """Drop all state (e.g. when the visualized range changes).

        Equivalent to :meth:`reset` with the discard report ignored — any
        trailing partial pane is dropped; use :meth:`reset` when the caller
        needs to account for it.
        """
        self.reset()

    # -- serialization -------------------------------------------------------

    def state_dict(self) -> dict:
        """Full buffer state as plain scalars/arrays (see :mod:`repro.persist`).

        Captures everything ingestion semantics depend on — retained means
        and timestamps, the *open* partial pane, and the eviction counters —
        so a buffer restored by :meth:`from_state` folds subsequent points
        exactly as the original would have (completions and evictions
        included).
        """
        return {
            "pane_size": self.pane_size,
            "capacity": self.capacity,
            "track_quality": self.track_quality,
            "synth": (
                np.empty(0, dtype=np.float64)
                if self._synth is None
                else self._synth.view().copy()
            ),
            "open_synth": self._open_synth,
            "means": self._means.view().copy(),
            "times": self._times.view().copy(),
            "total_points": self._total_points,
            "evicted_panes": self._evicted_panes,
            "open": None if self._open is None else _pane_state(self._open),
        }

    @classmethod
    def from_state(cls, state: dict) -> "PaneBuffer":
        """Rebuild a buffer from :meth:`state_dict` output (exact resume)."""
        buffer = cls(
            pane_size=int(state["pane_size"]),
            capacity=int(state["capacity"]),
            track_quality=bool(state.get("track_quality", False)),
        )
        buffer._means.append_many(np.asarray(state["means"], dtype=np.float64))
        buffer._times.append_many(np.asarray(state["times"], dtype=np.float64))
        if buffer._synth is not None:
            buffer._synth.append_many(np.asarray(state["synth"], dtype=np.float64))
            buffer._open_synth = int(state["open_synth"])
        buffer._total_points = int(state["total_points"])
        buffer._evicted_panes = int(state["evicted_panes"])
        if state["open"] is not None:
            buffer._open = _pane_from_state(state["open"])
        return buffer


def _pane_state(pane: Pane) -> dict:
    return {"start_time": pane.start_time, "count": pane.count, "mean": pane.mean}


def _pane_from_state(state: dict) -> Pane:
    return Pane(float(state["start_time"]), int(state["count"]), float(state["mean"]))
