"""Streaming ASAP (Section 4.5, Algorithm 3).

The streaming operator folds arrivals into panes sized by the point-to-pixel
ratio, keeps a bounded buffer of completed panes (the visualized window), and
re-runs the window search only every ``refresh_interval`` aggregated points —
on-demand updates at human-perceptible timescales rather than per arrival.

On each refresh the operator:

1. recomputes the ACF over the in-window aggregates (``UPDATEACF``);
2. revalidates the previous frame's window (``CHECKLASTWINDOW``): if that
   window still satisfies the kurtosis constraint it seeds the new search,
   so the roughness-estimate pruning can reject candidates immediately;
3. runs ``FINDWINDOW`` (Algorithm 2) and emits a freshly smoothed frame.

The three optimizations can be disabled independently — pane size 1 turns
off pixel-aware aggregation, ``strategy="exhaustive"`` turns off
autocorrelation pruning, ``refresh_interval=1`` turns off on-demand updates —
which is exactly the grid the Figure 11 factor/lesion analysis sweeps.

**Exact statistics.**  Every refresh computes the window's ACF and moments
from the window itself, as the paper's operator does.  Pixel-aware
preaggregation keeps the window at display width, where the lags the search
reads cost one ``np.correlate`` (:func:`~repro.core.acf.autocorrelation`'s
direct kernel), so the operator carries no rolling statistics: a refresh
depends only on the pane window, the previous window and the warm trace.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from ..errors import CheckpointError, DataQualityError
from ..pyramid.rollup import resolve_view
from ..pyramid.view import PyramidView, ViewSpec
from ..quality import FrameQuality, ReorderBuffer, StreamNormalizer
from ..spec import AsapSpec, require_spec

# The refresh evaluates candidates and frame values through its
# EvaluationCache's prepared prefix and calls neither kernel below; both stay
# importable from this module under these names because the end-to-end
# benchmark harness (benchmarks/e2e/trace.py and its tests) wraps them here.
from ..spectral.convolution import sma, sma_probe_moments  # noqa: F401
from ..stream.operators import StreamOperator
from ..stream.panes import PaneBuffer
from ..stream.sources import StreamPoint
from ..timeseries.series import TimeSeries
from .acf import analyze_acf, default_max_lag
from .search import (
    ADAPTIVE_STRATEGIES,
    SearchResult,
    SearchState,
    asap_search,
    plan_warm_probes,
    resolve_max_window,
    run_strategy,
)
from .smoothing import EvaluationCache

__all__ = [
    "BackfillResult",
    "Frame",
    "StreamingASAP",
    "MIN_PANES_FOR_SEARCH",
]

#: Below this many completed panes a search is statistically meaningless.
MIN_PANES_FOR_SEARCH = 8

#: The operator's lifetime counters that are also :class:`~repro.service.HubStats`
#: fields (see :attr:`StreamingASAP.counters`).
_HUB_COUNTERS = (
    "warm_prefetches",
    "warm_fallbacks",
    "backfills",
    "backfill_points",
    "backfill_elided",
)

#: Every lifetime counter the operator keeps in its own mapping.
_OPERATOR_COUNTERS = _HUB_COUNTERS + (
    "searches_run",
    "candidates_evaluated",
)

#: The spec's fields, which read through as operator attributes.
_SPEC_FIELDS = frozenset(field.name for field in fields(AsapSpec))

#: The fields of each nested state that the spec determines: a restored
#: operator's parts must have exactly the shape its spec builds.
_SPEC_SHAPED = {
    "buffer": ("pane_size", "capacity", "track_quality"),
    "reorder": ("watermark",),
    "normalizer": ("declared_cadence", "gap_policy", "gap_factor"),
}


def counters_from_state(state, names) -> Counter:
    """Rebuild a serialized counter mapping over *names* (absent ones are 0).

    Counters only ever grow, so an unknown name or a value that is not a
    non-negative integer can only come from a corrupt or forged payload.
    """
    if not isinstance(state, dict):
        raise CheckpointError(f"counters must be a mapping, got {type(state).__name__}")
    unknown = sorted(set(state) - set(names))
    if unknown:
        raise CheckpointError(f"unknown counters {unknown}; expected a subset of {list(names)}")
    for name, value in state.items():
        if type(value) is not int or value < 0:
            raise CheckpointError(f"counter {name!r} must be a non-negative integer, got {value!r}")
    return Counter({**dict.fromkeys(names, 0), **state})


@dataclass(frozen=True)
class Frame:
    """One rendered refresh: the smoothed window ready for display.

    ``quality`` reports per-window data quality (completeness, fill and
    late-data counters); it is the all-clean default whenever the quality
    stage is disabled, so dense-path frames are unchanged.
    """

    series: TimeSeries
    window: int
    search: SearchResult
    refresh_index: int
    points_ingested: int
    quality: FrameQuality = FrameQuality()


@dataclass(frozen=True)
class BackfillResult:
    """What one :meth:`StreamingASAP.backfill` call did.

    ``points`` counts raw points folded into panes (after the quality
    stages — dropped non-finite arrivals are excluded, synthetic gap fills
    included); ``panes`` the panes completed; ``frames_elided`` the refresh
    boundaries replayed without materializing a frame (their
    ``refresh_index`` slots are preserved, so the next streamed frame
    numbers exactly as if every interior frame had been emitted);
    ``searches_run`` the window searches actually executed (1 for the fast
    lane when a boundary lands in the archive, one per boundary for the
    replay lane); ``mode`` which lane ran (``"fast"``, ``"replay"``, or
    ``"stream"``); ``frames`` the frames that *were* emitted — any refresh
    that was already due, plus the closing refresh of the archive.
    """

    points: int
    panes: int
    frames_elided: int
    searches_run: int
    mode: str
    frames: tuple[Frame, ...] = ()

    @property
    def frame(self) -> Frame | None:
        """The final frame of the backfill, if a refresh boundary was reached."""
        return self.frames[-1] if self.frames else None


_probe_scratch = threading.local()


def _probe_workspace(rows: int, n: int) -> np.ndarray:
    """A C-contiguous ``(2, rows, n)`` view of this thread's probe scratch.

    Every operator on a thread shares one flat float64 buffer, grown to the
    largest ``2 * rows * n`` asked for, so a hub's streams reuse one
    cache-resident scratch instead of keeping one workspace each.  Scratch
    only, never serialized: the prefetch kernel rewrites every cell it reads.
    """
    size = 2 * rows * n
    buffer = getattr(_probe_scratch, "buffer", None)
    if buffer is None or buffer.size < size:
        buffer = _probe_scratch.buffer = np.empty(size, dtype=np.float64)
    return buffer[:size].reshape(2, rows, n)


class StreamingASAP(StreamOperator[StreamPoint, Frame]):
    """Continuously smooth a stream, refreshing at human timescales.

    Configured by one :class:`~repro.spec.AsapSpec`, kept as :attr:`spec`
    (its docstring documents every knob).  Spec fields also read as
    attributes (``op.strategy`` is ``op.spec.strategy``).  The operator
    reads the streaming and quality fields; ``use_preaggregation`` and the
    network knobs do not apply, because the operator aggregates through
    ``pane_size``.  Every refresh computes the window's ACF and moments
    exactly, from the pane window.  How the knobs act here:

    * ``warm_start`` prefetches the previous refresh's probe trace in one
      stacked kernel call, so a stable stream's search replays over cache
      hits.  The search itself is untouched and the kernel is bit-identical
      to the cold path's, so frames do not change; a search that leaves the
      trace is a counted :attr:`warm_fallbacks`.  Only the adaptive
      strategies (``"asap"``, ``"binary"``) participate.
    * Panes keep their count and mean only, and views keep nothing:
      :meth:`pyramid_view` resolves any pixel width on demand from the pane
      window and changes no frame.
    * ``watermark`` puts a :class:`~repro.quality.ReorderBuffer` in front of
      the panes (late points within it are reordered, older ones
      counted-and-dropped); ``normalize`` adds the stateful
      :class:`~repro.quality.StreamNormalizer` (``cadence``/``gap_policy``).
      On dense, ordered, regular input both are bit-identical no-ops.
      Without ``normalize``, a batch with a non-finite value or timestamp
      is rejected whole (:class:`~repro.errors.DataQualityError`) before any
      state changes; without a watermark as well, so is a batch whose
      timestamps do not strictly follow the last folded one.
    * ``backfill`` picks the :meth:`backfill` lane: ``"auto"`` takes the
      vectorized fast lane whenever eliding interior searches cannot change
      a frame (every strategy except seeded ASAP, whose ``CHECKLASTWINDOW``
      seed can change the selected window) and the replay lane otherwise;
      ``"replay"`` and ``"stream"`` force a lane.  Every lane leaves later
      frames bit-identical to streaming the archive point by point.
    """

    def __init__(self, spec: AsapSpec) -> None:
        self.spec = require_spec(spec, "StreamingASAP(AsapSpec(...)) is its only constructor")
        self._reorder = ReorderBuffer(spec.watermark) if spec.watermark > 0 else None
        self._normalizer = (
            StreamNormalizer(cadence=spec.cadence, gap_policy=spec.gap_policy)
            if spec.normalize
            else None
        )
        self._buffer = PaneBuffer(
            pane_size=spec.pane_size,
            capacity=spec.resolution,
            track_quality=spec.normalize,
        )
        # Timestamp of the last point folded while no quality stage runs: the
        # next batch must start after it (see `_check_batch`).  Kept at the
        # last folded point, also when a refresh inside a batch raises.
        self._last_timestamp: float | None = None
        self._warm_trace: tuple[int, ...] | None = None
        # Lifetime counters owned by the operator itself (the quality
        # counters live in the stages that count them; see `counters`).
        self._counters = Counter(dict.fromkeys(_OPERATOR_COUNTERS, 0))
        self._panes_since_refresh = 0
        self._previous_window: int | None = None
        self._refresh_due = False
        # Set while the due refresh has raised to a caller (from
        # refresh_if_due, or inline from an ingest call), so the next batch
        # knows that failure was already reported (not state: a restored
        # operator reports it once more).
        self._due_refresh_raised = False
        self._refresh_count = 0

    def __getattr__(self, name: str):
        # Only reached when normal lookup fails: spec fields read through.
        if name in _SPEC_FIELDS:
            return getattr(self.spec, name)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @classmethod
    def from_spec(cls, spec: AsapSpec) -> "StreamingASAP":
        """Build an operator from *spec*; the same as ``StreamingASAP(spec)``."""
        return cls(spec)

    # -- counters used by the performance experiments -------------------------

    @property
    def refresh_count(self) -> int:
        """Frames emitted so far."""
        return self._refresh_count

    @property
    def searches_run(self) -> int:
        """Window searches executed (one per emitted frame)."""
        return self._counters["searches_run"]

    @property
    def candidates_evaluated(self) -> int:
        """Total SMA evaluations across all searches."""
        return self._counters["candidates_evaluated"]

    @property
    def points_ingested(self) -> int:
        """Raw points pushed so far."""
        return self._buffer.total_points

    @property
    def counters(self) -> dict[str, int]:
        """Every lifetime counter this operator contributes to
        :class:`~repro.service.HubStats`, by field name: the warm-start and
        backfill counters plus the quality stages' counters.  Never reset."""
        return {
            **{name: self._counters[name] for name in _HUB_COUNTERS},
            "gaps_filled": self.gaps_filled,
            "nan_dropped": self.nan_dropped,
            "late_accepted": self.late_accepted,
            "late_dropped": self.late_dropped,
        }

    @property
    def backfill_mode(self) -> str:
        """The :meth:`backfill` lane selection (the spec's ``backfill``)."""
        return self.spec.backfill

    @property
    def warm_prefetches(self) -> int:
        """Refreshes whose search was seeded by a warm-start trace prefetch."""
        return self._counters["warm_prefetches"]

    @property
    def warm_fallbacks(self) -> int:
        """Warm-started refreshes whose search left the prefetched trace
        (the stream drifted), paying ordinary single-probe kernel calls for
        the uncovered candidates.  Frames are unaffected — this counts lost
        speedup, not lost accuracy."""
        return self._counters["warm_fallbacks"]

    @property
    def backfills(self) -> int:
        """Archive replays performed via :meth:`backfill`."""
        return self._counters["backfills"]

    @property
    def backfill_points(self) -> int:
        """Raw points ingested through the backfill lane (post-quality)."""
        return self._counters["backfill_points"]

    @property
    def backfill_elided(self) -> int:
        """Interior refresh boundaries replayed without materializing a frame.

        Each still occupies its ``refresh_index`` slot, so frame numbering
        is unchanged — this counts saved work, not skipped state."""
        return self._counters["backfill_elided"]

    # -- data-quality counters (0 whenever the quality stage is off) -----------

    @property
    def gaps_filled(self) -> int:
        """Synthetic points emitted by the normalizer across the stream."""
        return self._normalizer.gaps_filled if self._normalizer is not None else 0

    @property
    def nan_dropped(self) -> int:
        """Non-finite arrivals filtered out by the normalizer."""
        return self._normalizer.nan_dropped if self._normalizer is not None else 0

    @property
    def late_accepted(self) -> int:
        """Out-of-order arrivals placed correctly within the watermark."""
        return self._reorder.late_accepted if self._reorder is not None else 0

    @property
    def late_dropped(self) -> int:
        """Arrivals beyond the watermark, counted-and-dropped."""
        return self._reorder.late_dropped if self._reorder is not None else 0

    @property
    def window_completeness(self) -> float:
        """Fraction of the current aggregated window built from observed
        (non-synthetic) points; 1.0 whenever normalization is off."""
        return self._buffer.window_completeness

    def _frame_quality(self) -> FrameQuality:
        if self._normalizer is None and self._reorder is None:
            return FrameQuality()
        return FrameQuality(
            completeness=self._buffer.window_completeness,
            synthetic_in_window=self._buffer.window_synthetic_points,
            gaps_filled=self.gaps_filled,
            nan_dropped=self.nan_dropped,
            late_accepted=self.late_accepted,
            late_dropped=self.late_dropped,
        )

    # -- serving-layer accessors (used by repro.service.StreamHub) ------------

    @property
    def pane_count(self) -> int:
        """Completed panes currently in the window."""
        return len(self._buffer)

    @property
    def last_window(self) -> int | None:
        """Window selected by the most recent search, if any."""
        return self._previous_window

    @property
    def refresh_due(self) -> bool:
        """True when a deferred refresh boundary is pending (see push_many)."""
        return self._refresh_due

    @property
    def panes_completed(self) -> int:
        """Panes ever completed — monotone version counter for view caches."""
        return self._buffer.panes_completed

    def aggregated_values(self) -> np.ndarray:
        """The aggregated window the next search would run over (a copy)."""
        return self._buffer.aggregated_values()

    def aggregated_timestamps(self) -> np.ndarray:
        """Start timestamp of each pane in :meth:`aggregated_values` (a copy)."""
        return self._buffer.aggregated_timestamps()

    def pyramid_view(self, spec: ViewSpec | int) -> PyramidView:
        """Resolve a multi-resolution view of the current window.

        Computed on demand (:func:`~repro.pyramid.resolve_view`) from every
        completed pane — exactly the window :meth:`aggregated_values`
        exposes.  It reads and changes no other state, so a view never
        changes a later frame.
        """
        return resolve_view(
            self.aggregated_values(),
            self.aggregated_timestamps(),
            self._buffer.evicted_panes,
            spec,
        )

    # -- operator contract ----------------------------------------------------

    def push(self, item: StreamPoint):
        """Ingest one arrival; yields a :class:`Frame` on refresh boundaries."""
        if self._reorder is not None or self._normalizer is not None:
            # Quality stages are batch-shaped; route the point through the
            # same pipeline so per-point and batched ingestion stay
            # bit-identical (the boundary loop splits at the same states).
            return tuple(self.push_many([item.timestamp], [item.value]))
        timestamp, value = float(item.timestamp), float(item.value)
        last = self._last_timestamp
        if not (
            math.isfinite(timestamp)
            and math.isfinite(value)
            and (last is None or timestamp > last)
        ):
            self._check_batch(np.array([timestamp]), np.array([value]))
        frames: list[Frame] = []
        self._run_due_refresh(frames)
        completed = self._buffer.push(item.timestamp, item.value)
        self._last_timestamp = timestamp
        if completed is not None:
            self._panes_since_refresh += 1
            if self._panes_since_refresh >= self.spec.refresh_interval:
                self._panes_since_refresh = 0
                self._boundary_refresh(frames)
        return tuple(frames)

    def push_many(self, timestamps, values, defer_boundary: bool = False):
        """Ingest a batch of arrivals; returns the frames it produced.

        Equivalent to pushing the points one at a time — refresh boundaries
        that fall *inside* the batch trigger refreshes at exactly the same
        buffer states — but whole panes are folded with vectorized kernels.
        With ``defer_boundary=True``, a refresh boundary landing exactly at
        the end of the batch is *deferred*: the operator marks itself
        :attr:`refresh_due` instead of refreshing, so a serving layer can run
        the due refreshes of all its streams at its next tick
        (:meth:`refresh_if_due`; the deferred refresh runs before any further
        data is folded, preserving per-point semantics).

        With a ``watermark`` the batch first passes through the reordering
        buffer (only released points are folded); with ``normalize=True`` the
        released points then pass through the normalizer (which may drop
        non-finite values and synthesize gap fills).  Both stages are
        prefix-deterministic over the released sequence, so batching
        granularity never changes the frames.  Without ``normalize`` the
        batch is checked whole first (:meth:`_check_batch`).

        A refresh inside the batch that raises stops the fold at its
        boundary: the points before it stay folded, the boundary stays due
        (see :meth:`_boundary_refresh`), and without a quality stage the
        last folded timestamp is the boundary's, so only the rest of the
        batch is accepted again.
        """
        ts = np.asarray(timestamps, dtype=np.float64)
        vs = np.asarray(values, dtype=np.float64)
        if self._normalizer is None:
            self._check_batch(ts, vs)
        frames: list[Frame] = []
        self._run_due_refresh(frames)
        synth = None
        if self._reorder is not None:
            ts, vs = self._reorder.push_many(ts, vs)
        if self._normalizer is not None:
            ts, vs, synth = self._normalizer.process(ts, vs)
        self._fold(ts, vs, synth, frames, defer_boundary=defer_boundary)
        return frames

    def _check_batch(self, ts: np.ndarray, vs: np.ndarray) -> None:
        """Reject a batch the panes cannot fold, before any state changes.

        Used whenever ``normalize`` is off: nothing downstream drops a
        non-finite value or timestamp, which would poison the window and
        every refresh that holds it, so values and timestamps must be
        finite.  Without a watermark nothing reorders the input either, so
        timestamps must also be strictly increasing and after the last
        folded one.  The error names the first bad index.
        """
        if ts.ndim != 1 or vs.ndim != 1 or ts.size != vs.size:
            raise DataQualityError(
                f"timestamps and values must be equal-length 1-D arrays, "
                f"got shapes {ts.shape} and {vs.shape}"
            )
        if vs.size == 0:
            return
        ordered = self._reorder is None
        last = self._last_timestamp
        if np.isfinite(vs).all() and (
            (
                np.isfinite(ts[0])
                and np.isfinite(ts[-1])
                and (last is None or ts[0] > last)
                and (ts[1:] > ts[:-1]).all()
            )
            if ordered
            else np.isfinite(ts).all()
        ):
            return
        ok = np.isfinite(vs) & np.isfinite(ts)
        if ordered:
            previous = np.empty_like(ts)
            previous[0] = -np.inf if last is None else last
            previous[1:] = ts[:-1]
            ok &= ts > previous
        i = int(np.argmin(ok))
        value, timestamp = float(vs[i]), float(ts[i])
        repair = "normalize=True drops non-finite points"
        if not math.isfinite(value):
            reason = f"value {value!r} is not finite"
        elif not math.isfinite(timestamp):
            reason = f"timestamp {timestamp!r} is not finite"
        else:
            reason = f"timestamp {timestamp!r} does not follow {float(previous[i])!r}"
            repair = "a watermark reorders late points"
        raise DataQualityError(
            f"rejected a batch of {vs.size} points at index {i}: {reason}; "
            f"nothing was folded (in a spec, {repair} instead)"
        )

    def _folded_through(self, ts: np.ndarray, end: int) -> None:
        """Record ``ts[end - 1]`` as the last folded timestamp (no quality stage)."""
        if self._reorder is None and self._normalizer is None:
            self._last_timestamp = float(ts[end - 1])

    def _fold(
        self,
        ts,
        vs,
        synth,
        frames: list[Frame],
        defer_boundary: bool = False,
        elide_interior: bool = False,
    ) -> None:
        """The boundary loop: fold normalized points, refreshing on interval.

        With ``elide_interior=True`` (the backfill replay lane), refresh
        boundaries that another boundary will follow *within this batch* run
        the full search but skip warm prefetch and frame materialization —
        both frame-neutral — so only the batch's closing boundary pays for a
        rendered frame.
        """
        interval = self.spec.refresh_interval
        i = 0
        n = vs.size
        while i < n:
            pane_size = self._buffer.pane_size
            panes_needed = interval - self._panes_since_refresh
            points_to_boundary = (
                pane_size - self._buffer.open_pane_points + (panes_needed - 1) * pane_size
            )
            take = min(points_to_boundary, n - i)
            self._panes_since_refresh += self._buffer.extend(
                ts[i : i + take],
                vs[i : i + take],
                synthetic=None if synth is None else synth[i : i + take],
            )
            i += take
            self._folded_through(ts, i)
            if self._panes_since_refresh >= interval:
                self._panes_since_refresh = 0
                if defer_boundary and i == n:
                    self._refresh_due = True
                else:
                    elide = elide_interior and n - i >= interval * pane_size
                    self._boundary_refresh(frames, materialize=not elide)

    def _boundary_refresh(self, frames: list[Frame], materialize: bool = True) -> None:
        """Refresh at a boundary reached while folding, appending its frame.

        A refresh that raises leaves its boundary due, like a deferred
        refresh that raised from :meth:`refresh_if_due`: the error reached
        the caller, the next tick retries the refresh, and the next batch
        retries it once more and gives it up if it raises again
        (:meth:`_run_due_refresh`).  Nothing after the boundary is folded
        by the call that raised.
        """
        try:
            frame = self._refresh(materialize)
        except Exception:
            self._refresh_due = self._due_refresh_raised = True
            raise
        if frame is not None:
            frames.append(frame)

    def refresh_if_due(self) -> Frame | None:
        """Run a refresh deferred by ``push_many(..., defer_boundary=True)``.

        The refresh stays due until it returns: one that raises changes no
        counter and is retried by the next call, which then emits exactly
        the frame an operator that never failed emits.  The next batch
        retries it once more before folding, and gives it up if it raises
        again (:meth:`_run_due_refresh`), so a failure that lasts never
        holds back new data.
        """
        if not self._refresh_due:
            return None
        try:
            frame = self._refresh()
        except Exception:
            self._due_refresh_raised = True
            raise
        self._refresh_due = self._due_refresh_raised = False
        return frame

    def backfill(self, timestamps, values) -> BackfillResult:
        """Replay an archive through batch machinery, then stream seamlessly.

        Ingests the whole history at batch-kernel speed: one batched pass
        through the quality stages, bulk pane folding, and a single real
        search at the archive's closing refresh boundary (the fast lane; see
        the spec's ``backfill`` knob for lane selection).  Interior
        refresh boundaries are *elided* — no frame is rendered for them —
        but every piece of carried state (pane window, refresh ledger,
        quality counters) advances exactly as if the archive had been
        streamed point by point, so **every subsequently streamed frame is
        bit-identical** to the stream-everything run.  Equivalently: a
        backfill emits exactly the frames ``push_many(archive)`` would have
        emitted at the final boundary, and elides the rest.

        Pair with :func:`repro.persist.checkpoint` for fast provisioning:
        ``backfill → checkpoint`` writes a state whose restore streams on
        bit-identically.
        """
        ts = np.asarray(timestamps, dtype=np.float64)
        vs = np.asarray(values, dtype=np.float64)
        if ts.ndim != 1 or vs.ndim != 1 or ts.size != vs.size:
            raise ValueError(
                f"backfill expects equal-length 1-D timestamps and values, "
                f"got shapes {ts.shape} and {vs.shape}"
            )
        if self._normalizer is None:
            self._check_batch(ts, vs)
        frames: list[Frame] = []
        refreshes_before = self._refresh_count
        searches_before = self.searches_run
        points_before = self._buffer.total_points
        panes_before = self._buffer.panes_completed
        self._run_due_refresh(frames)
        synth = None
        if self._reorder is not None:
            ts, vs = self._reorder.push_many(ts, vs)
        if self._normalizer is not None:
            ts, vs, synth = self._normalizer.process(ts, vs)
        spec = self.spec
        mode = spec.backfill
        if mode == "auto":
            # Eliding searches is frame-exact unless the search is seeded
            # from the previous winner (CHECKLASTWINDOW can change the
            # *selected* window, which then seeds the next boundary — a
            # chain only a real per-boundary search reproduces).
            fast = spec.strategy != "asap" or not spec.seed_from_previous
            mode = "fast" if fast else "replay"
        if mode == "stream":
            self._fold(ts, vs, synth, frames)
        elif mode == "replay":
            self._fold(ts, vs, synth, frames, elide_interior=True)
        else:
            self._backfill_fast(ts, vs, synth, frames)
        ingested = self._buffer.total_points - points_before
        elided = (self._refresh_count - refreshes_before) - len(frames)
        self._counters.update(backfills=1, backfill_points=ingested, backfill_elided=elided)
        return BackfillResult(
            points=ingested,
            panes=self._buffer.panes_completed - panes_before,
            frames_elided=elided,
            searches_run=self.searches_run - searches_before,
            mode=mode,
            frames=tuple(frames),
        )

    def _backfill_fast(self, ts, vs, synth, frames: list[Frame]) -> None:
        """The vectorized lane: bulk-fold panes, advance the refresh ledger,
        search once at the archive's closing boundary.

        Pane folding is batch-granularity-independent (``PaneBuffer.extend``
        pins this), so one bulk extend reproduces the streamed window, and a
        refresh computes its statistics from that window alone.  Each elided
        boundary whose window is large enough to search still takes its
        ``refresh_index`` slot, so later frames number as if streamed.
        """
        n = vs.size
        if n == 0:
            return
        pane_size = self._buffer.pane_size
        interval = self.spec.refresh_interval
        capacity = self._buffer.capacity
        p0 = self._panes_since_refresh
        completed_before = self._buffer.panes_completed
        first_need = (
            pane_size - self._buffer.open_pane_points + (interval - p0 - 1) * pane_size
        )
        if n < first_need:
            # No boundary inside the archive: plain bulk fold, nothing due.
            self._panes_since_refresh += self._buffer.extend(ts, vs, synthetic=synth)
            self._folded_through(ts, n)
            return
        boundaries = 1 + (n - first_need) // (interval * pane_size)
        last_i = first_need + (boundaries - 1) * (interval * pane_size)
        self._buffer.extend(
            ts[:last_i],
            vs[:last_i],
            synthetic=None if synth is None else synth[:last_i],
        )
        self._folded_through(ts, last_i)
        for b in range(boundaries - 1):
            window_len = min(completed_before + (interval - p0) + b * interval, capacity)
            if window_len >= MIN_PANES_FOR_SEARCH:
                self._refresh_count += 1
        self._panes_since_refresh = 0
        self._boundary_refresh(frames)
        if last_i < n:
            self._panes_since_refresh += self._buffer.extend(
                ts[last_i:],
                vs[last_i:],
                synthetic=None if synth is None else synth[last_i:],
            )
            self._folded_through(ts, n)

    def flush(self):
        """Emit one final frame for any aggregates since the last refresh.

        With a ``watermark``, the reordering buffer is drained first (its
        held points fold in sorted order, possibly crossing refresh
        boundaries), so no data is stranded behind the watermark.
        """
        frames: list[Frame] = []
        self._run_due_refresh(frames)
        if self._reorder is not None and len(self._reorder) > 0:
            ts, vs = self._reorder.drain()
            synth = None
            if self._normalizer is not None:
                ts, vs, synth = self._normalizer.process(ts, vs)
            self._fold(ts, vs, synth, frames)
        if self._panes_since_refresh > 0:
            self._panes_since_refresh = 0
            self._boundary_refresh(frames)
        return tuple(frames)

    def reset(self) -> None:
        """Drop all window state (e.g. the user scrolled to a new range).

        Lifetime counters (:attr:`counters`, and the quality totals each
        frame reports) are kept."""
        self._buffer.clear()
        if self._reorder is not None:
            self._reorder.clear()
        if self._normalizer is not None:
            self._normalizer.clear()
        self._panes_since_refresh = 0
        self._last_timestamp = None
        self._previous_window = None
        self._warm_trace = None
        self._refresh_due = self._due_refresh_raised = False

    # -- serialization ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Full operator state: spec, pane buffer, quality stages, countdown.

        The schema (documented in :mod:`repro.persist`) is everything a
        restored operator needs to emit **bit-identical** subsequent frames:
        the configuration once, as ``spec.to_dict()``; the refresh countdown,
        the previous window (``CHECKLASTWINDOW``'s seed), the last folded
        timestamp, the deferred-refresh flag, and every counter; plus the
        nested state of the quality stages and the pane buffer.  Window
        statistics and views keep no state (each refresh and view computes
        them from the pane window), and per-refresh evaluation caches are
        rebuilt lazily on the next refresh.
        """
        return {
            "spec": self.spec.to_dict(),
            "reorder": None if self._reorder is None else self._reorder.state_dict(),
            "normalizer": (
                None if self._normalizer is None else self._normalizer.state_dict()
            ),
            "panes_since_refresh": self._panes_since_refresh,
            "last_timestamp": self._last_timestamp,
            "previous_window": self._previous_window,
            "warm_trace": None if self._warm_trace is None else list(self._warm_trace),
            "counters": dict(self._counters),
            "refresh_due": self._refresh_due,
            "refresh_count": self._refresh_count,
            "buffer": self._buffer.state_dict(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamingASAP":
        """Rebuild an operator from :meth:`state_dict` output (exact resume).

        The spec is validated by :meth:`AsapSpec.from_dict`, and each nested
        state must have the shape that spec builds (pane size, capacity,
        which stages exist); a mismatch raises
        :class:`~repro.errors.CheckpointError` naming the part and field.
        """
        operator = cls(AsapSpec.from_dict(state["spec"]))
        built = operator.state_dict()
        for part in _SPEC_SHAPED:
            got, want = state[part], built[part]
            if (got is None) != (want is None):
                built_or_not = "does not build" if want is None else "builds"
                raise CheckpointError(
                    f"operator state has {'a' if got is not None else 'no'} {part}, "
                    f"but its spec {built_or_not} one"
                )
        for part, keys in _SPEC_SHAPED.items():
            got, want = state[part], built[part]
            for key in keys if got is not None else ():
                if got[key] != want[key]:
                    raise CheckpointError(
                        f"operator {part} {key} {got[key]!r} does not match its "
                        f"spec, which builds {want[key]!r}"
                    )
        operator._reorder = (
            None if state["reorder"] is None else ReorderBuffer.from_state(state["reorder"])
        )
        operator._normalizer = (
            None
            if state["normalizer"] is None
            else StreamNormalizer.from_state(state["normalizer"])
        )
        operator._buffer = PaneBuffer.from_state(state["buffer"])
        operator._panes_since_refresh = int(state["panes_since_refresh"])
        operator._last_timestamp = (
            None if state["last_timestamp"] is None else float(state["last_timestamp"])
        )
        operator._previous_window = (
            None if state["previous_window"] is None else int(state["previous_window"])
        )
        operator._warm_trace = (
            None
            if state["warm_trace"] is None
            else tuple(int(w) for w in state["warm_trace"])
        )
        operator._counters = counters_from_state(state["counters"], _OPERATOR_COUNTERS)
        operator._refresh_due = bool(state["refresh_due"])
        operator._refresh_count = int(state["refresh_count"])
        return operator

    # -- Algorithm 3 internals --------------------------------------------------

    def _run_due_refresh(self, frames: list[Frame]) -> None:
        """Run the due refresh, if any, before new data is folded.

        A refresh that raises here is given up: its boundary emits no frame.
        If that failure already reached a caller (from :meth:`refresh_if_due`
        or from the ingest call whose boundary it was), the batch then folds
        as usual — the window moves on, and a bad pane leaves it in time;
        otherwise the error propagates and the batch is not folded.
        """
        if not self._refresh_due:
            return
        reported = self._due_refresh_raised
        try:
            frame = self.refresh_if_due()
        except Exception:
            self._refresh_due = self._due_refresh_raised = False
            if not reported:
                raise
            return
        if frame is not None:
            frames.append(frame)

    def _check_last_window(
        self, values: np.ndarray, cache: EvaluationCache
    ) -> SearchState:
        """``CHECKLASTWINDOW``: seed the search from the previous window.

        If the previous window still satisfies the kurtosis constraint on the
        updated aggregates, adopt it as the incumbent (enabling the roughness
        pruning to discard weaker candidates without smoothing them);
        otherwise start from scratch.  The evaluation lands in the shared
        cache, so the follow-up search re-examines it for free.
        """
        state = SearchState.from_cache(cache)
        previous = self._previous_window
        if previous is None or previous < 2 or previous > values.size - 1:
            return state
        evaluation = cache.screen(previous)
        if evaluation.kurtosis >= state.original_kurtosis:
            state.window = previous
            state.roughness = evaluation.roughness
            state.candidates_evaluated += 1
        return state

    def _resolved_max_lag(self, n: int) -> int:
        max_window = self.spec.max_window
        lag = default_max_lag(n) if max_window is None else min(max_window, n - 1)
        return min(lag, n - 1)

    def _refresh(self, materialize: bool = True) -> Frame | None:
        """Run one refresh; with ``materialize=False`` (backfill replay lane)
        the search and every piece of carried state advance exactly as
        usual, but the warm prefetch and the rendered frame — the two
        frame-neutral costs — are skipped and ``None`` returned.

        The window's ACF (:func:`~repro.core.acf.analyze_acf`) and original
        moments (the cache's) are computed exactly from the pane window.
        Counters, the warm trace, the previous window and the refresh ledger
        are committed only once everything that can raise has run (the
        search, the frame), so a refresh that raises can be retried as if it
        had never run.
        """
        values = self._buffer.aggregated_values()
        if values.size < MIN_PANES_FOR_SEARCH:
            return None
        spec = self.spec
        cache = EvaluationCache(values)
        # Warm-started search: prefetch the previous refresh's probe trace
        # (plus the previous winner's neighborhood) in one stacked kernel
        # call from the cache's prepared prefix, screened at the original
        # kurtosis exactly as the search screens, then let the unchanged
        # search replay over cache hits.  The prefetched values come from
        # the core the cold path's single-window misses use, so the search
        # makes identical decisions and frames are bit-identical — only
        # dispatch count changes.  Grid strategies are excluded (they
        # already batch their grid).
        warm_prefetched = False
        warm_eligible = spec.warm_start and spec.strategy in ADAPTIVE_STRATEGIES
        if materialize and warm_eligible and self._warm_trace is not None:
            probes = plan_warm_probes(
                self._warm_trace,
                self._previous_window,
                resolve_max_window(values, spec.max_window),
            )
            if len(probes) >= 2:
                cache._prefetch(probes, _probe_workspace(len(probes), values.size))
                warm_prefetched = True
        if spec.strategy == "asap":
            acf = analyze_acf(values, max_lag=self._resolved_max_lag(values.size))
            state = (
                self._check_last_window(values, cache)
                if spec.seed_from_previous
                else SearchState.from_cache(cache)
            )
            search = asap_search(
                values, max_window=spec.max_window, acf=acf, state=state, cache=cache
            )
        else:
            search = run_strategy(spec.strategy, values, spec.max_window, cache=cache)

        frame = None
        if materialize:
            # The frame's values come from the prefix the search already
            # prepared.  Both arrays are the refresh's own; without a quality
            # stage the input was checked where it entered (`_check_batch`),
            # so the series needs no copy and no second validation.
            smoothed = cache._smoothed(search.window)
            timestamps = self._buffer.aggregated_timestamps()[: smoothed.size]
            checked = (
                self._reorder is None
                and self._normalizer is None
                # Finite input can still overflow its prefix sums (values
                # near 1e308); the validating constructor rejects that.
                and np.isfinite(smoothed).all()
            )
            build = TimeSeries._trusted if checked else TimeSeries
            frame = Frame(
                series=build(smoothed, timestamps, name="asap-stream"),
                window=search.window,
                search=search,
                refresh_index=self._refresh_count,
                points_ingested=self._buffer.total_points,
                quality=self._frame_quality(),
            )

        counters = self._counters
        if warm_prefetched:
            counters["warm_prefetches"] += 1
            if cache.misses > 0:
                # The search left the prefetched trace (stream drift / regime
                # change) and paid single-probe kernel calls for the rest.
                counters["warm_fallbacks"] += 1
        if warm_eligible:
            self._warm_trace = cache.touched_windows()
        counters["searches_run"] += 1
        counters["candidates_evaluated"] += search.candidates_evaluated
        self._previous_window = search.window
        self._refresh_count += 1
        return frame
