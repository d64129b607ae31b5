"""StreamHub: many concurrent streaming-ASAP sessions behind one service.

A dashboard server does not smooth one stream — it holds a session per
charted metric per viewer and refreshes whichever of them crossed their
on-demand boundary, together.  :class:`StreamHub` is that serving layer:

* **Sessions by id** — ``create_stream`` / ``ingest`` / ``tick`` /
  ``snapshot`` / ``close``; each session wraps a
  :class:`~repro.core.streaming.StreamingASAP` built from an
  :class:`~repro.spec.AsapSpec`.
* **Deferred boundaries** — an ingest whose refresh boundary lands exactly
  at the end of the batch *defers* the refresh
  (:meth:`~repro.core.streaming.StreamingASAP.push_many` with
  ``defer_boundary=True``); :meth:`StreamHub.tick` then runs every due
  session's refresh in one pass, each through its own operator
  (:meth:`~repro.core.streaming.StreamingASAP.refresh_if_due`), so a tick
  refresh is exactly the refresh a lone operator would run.  Boundaries
  *inside* an ingest batch refresh inline, preserving exact point-by-point
  semantics.
* **Backpressure and eviction** — ``max_sessions`` bounds concurrent
  sessions (LRU eviction or rejection, by policy), ``max_panes_per_session``
  bounds each session's window memory, and ``idle_ticks_before_eviction``
  reaps sessions that stopped ingesting.  All evictions are counted in
  :class:`HubStats`.
* **Thread safety** — a registry lock plus per-session locks; concurrent
  ingestion into different streams proceeds without contention.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np

from ..core.batch import smooth
from ..core.search import SearchResult
from ..core.streaming import (
    MIN_PANES_FOR_SEARCH,
    BackfillResult,
    Frame,
    StreamingASAP,
    counters_from_state,
)
from ..errors import HubAtCapacityError, HubError, UnknownStreamError
from ..pyramid import ViewSpec
from ..spec import AsapSpec
from ..timeseries.series import TimeSeries

__all__ = [
    "StreamHub",
    "HubStats",
    "SessionSnapshot",
    "ResolutionSnapshot",
    "HubError",
    "HubAtCapacityError",
    "UnknownStreamError",
]


def allocate_auto_id(prefix: str, counter: int, taken) -> tuple[str, int]:
    """First free ``f"{prefix}-{n}"`` id at or after *counter*.

    Returns ``(id, next counter)``.  The one id-allocation rule, shared by
    the hub's auto stream ids and the cluster tier's stream/shard ids, so a
    policy change (collision handling, numbering) lands everywhere at once.
    """
    candidate = f"{prefix}-{counter}"
    counter += 1
    while candidate in taken:
        candidate = f"{prefix}-{counter}"
        counter += 1
    return candidate, counter


@dataclass(frozen=True)
class SessionSnapshot:
    """Read-only view of one session's state (no refresh is triggered).

    The trailing quality fields mirror the operator's data-quality counters
    (:mod:`repro.quality`); they stay at their all-clean defaults whenever
    the session's spec leaves ``normalize``/``watermark`` off.
    """

    stream_id: str
    panes: int
    points_ingested: int
    refresh_count: int
    last_window: int | None
    refresh_due: bool
    frames_emitted: int
    created_tick: int
    last_active_tick: int
    config: AsapSpec
    completeness: float = 1.0
    gaps_filled: int = 0
    nan_dropped: int = 0
    late_accepted: int = 0
    late_dropped: int = 0


@dataclass(frozen=True)
class ResolutionSnapshot:
    """One client's multi-resolution view of a session, freshly smoothed.

    ``series`` is the smoothed view (timestamps are view-bucket starts);
    ``window`` is the selected SMA window in view-bucket units, with the two
    mapped translations the dashboards need: ``window_base_units`` (panes,
    ``window * ratio``) and ``window_original_units`` (raw points,
    ``window * ratio * pane_size``).  ``base_start``/``base_end`` are global
    pane indices of the span the view covers; ``ratio``/``level_ratio``/
    ``residual`` describe how the view was resolved.  The values
    are equivalent to running the from-scratch pipeline on the directly
    pre-aggregated span (windows equal, values within 1e-9).
    """

    stream_id: str
    resolution: int
    series: TimeSeries
    window: int
    window_base_units: int
    window_original_units: int
    ratio: int
    level_ratio: int
    residual: int
    base_start: int
    base_end: int
    partial_points: int
    view_length: int
    #: None when the session's ``max_window`` (in pane units) was too small
    #: to admit any candidate at this ratio and the view is served unsmoothed.
    search: SearchResult | None


@dataclass(frozen=True)
class HubStats:
    """Aggregate accounting across the hub's lifetime.

    ``sessions_active`` and ``ticks`` are gauges (live sessions, the hub
    clock).  Every other field is a **lifetime total** that never decreases:
    it includes sessions since closed or evicted, survives checkpoint and
    restore, and a session migrated to another hub
    (:meth:`StreamHub.export_session` with ``remove=True``) carries its
    operator's share along, so a cluster's sum stays exact.

    ``points_ingested`` counts arrivals offered to ``ingest`` and
    ``backfill``, including ones the quality stage later dropped.
    ``sessions_imported``/``sessions_exported`` count sessions that entered or
    left this hub as state snapshots — the cluster tier's migration and
    restore traffic — separately from sessions created and closed through the
    ordinary lifecycle.

    The last nine fields sum every session's operator counters
    (:attr:`repro.core.streaming.StreamingASAP.counters`):

    * warm-started search — refreshes seeded by a stacked trace prefetch,
      and how many of those left the trace anyway.  A rising fallback share
      means the streams are drifting faster than the refresh cadence
      amortizes;
    * data quality (:mod:`repro.quality`) — synthetic fill points, filtered
      non-finite arrivals, and late data reordered or dropped at the
      watermark.  All zero when no session enables the quality stage;
    * archive replay (:meth:`repro.core.streaming.StreamingASAP.backfill`)
      — bulk-ingest calls, points they carried, and interior frames the fast
      lane elided.
    """

    sessions_active: int
    sessions_created: int
    sessions_closed: int
    sessions_evicted: int
    ticks: int
    points_ingested: int
    frames_emitted: int
    views_served: int
    view_cache_hits: int
    sessions_imported: int = 0
    sessions_exported: int = 0
    warm_prefetches: int = 0
    warm_fallbacks: int = 0
    gaps_filled: int = 0
    nan_dropped: int = 0
    late_accepted: int = 0
    late_dropped: int = 0
    backfills: int = 0
    backfill_points: int = 0
    backfill_elided: int = 0


#: The :class:`HubStats` fields that are lifetime counters (all but the gauges).
_COUNTERS = tuple(f.name for f in fields(HubStats) if f.name not in ("sessions_active", "ticks"))


@dataclass
class _Session:
    stream_id: str
    operator: StreamingASAP
    created_tick: int
    last_active_tick: int
    frames_emitted: int = 0
    closed: bool = False  # set under `lock`; guards ingest/close races
    lock: threading.RLock = field(default_factory=threading.RLock)
    # (resolution, include_partial) -> (panes_completed version, snapshot);
    # repeated polls between refreshes are served without recomputation.
    view_cache: dict[tuple[int, bool], tuple[int, "ResolutionSnapshot"]] = field(
        default_factory=dict
    )

    @property
    def config(self) -> AsapSpec:
        """The session's one config: the spec its operator was built from."""
        return self.operator.spec


class StreamHub:
    """A multi-tenant streaming-ASAP service; see the module docstring.

    Parameters
    ----------
    max_sessions:
        Concurrent session ceiling.  Creating a session beyond it either
        evicts the least-recently-active session (``eviction_policy="lru"``,
        the default) or raises :class:`HubAtCapacityError`
        (``eviction_policy="reject"``).
    max_panes_per_session:
        Upper bound on any session's window (``resolution``); configurations
        requesting more are rejected at ``create_stream`` time.  This bounds
        the hub's worst-case memory at roughly
        ``max_sessions * max_panes_per_session`` aggregated points.
    default_config:
        Session configuration used when ``create_stream`` gets no overrides.
    idle_ticks_before_eviction:
        When set, :meth:`tick` evicts sessions that have not ingested for
        more than this many ticks.
    """

    def __init__(
        self,
        max_sessions: int = 1024,
        max_panes_per_session: int = 4096,
        default_config: AsapSpec | None = None,
        eviction_policy: str = "lru",
        idle_ticks_before_eviction: int | None = None,
    ) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        if max_panes_per_session < 1:
            raise ValueError(
                f"max_panes_per_session must be >= 1, got {max_panes_per_session}"
            )
        if eviction_policy not in ("lru", "reject"):
            raise ValueError(
                f"eviction_policy must be 'lru' or 'reject', got {eviction_policy!r}"
            )
        if idle_ticks_before_eviction is not None and idle_ticks_before_eviction < 1:
            raise ValueError(
                "idle_ticks_before_eviction must be >= 1 or None, "
                f"got {idle_ticks_before_eviction}"
            )
        self.max_sessions = max_sessions
        self.max_panes_per_session = max_panes_per_session
        self.default_config = default_config or AsapSpec()
        if default_config is not None:
            # An explicit default that no create_stream call could ever
            # satisfy is a configuration bug worth failing at once; the
            # built-in default is only checked per session, so a hub with a
            # small pane budget and per-stream resolutions keeps working.
            self._check_pane_budget(default_config)
        self.eviction_policy = eviction_policy
        self.idle_ticks_before_eviction = idle_ticks_before_eviction
        self._sessions: dict[str, _Session] = {}
        self._frame_observers: list = []
        # Frames of a tick that raised, returned first by the next tick.
        self._stashed_frames: dict[str, list[Frame]] = {}
        self._lock = threading.RLock()
        self._next_auto_id = 0
        self._tick = 0
        # Hub-level counts plus the operator totals of retired sessions.
        self._counters = Counter(dict.fromkeys(_COUNTERS, 0))

    def _check_pane_budget(self, config: AsapSpec) -> None:
        """Reject configurations whose window exceeds the per-session budget.

        A session retains up to ``resolution`` completed panes, so the pane
        budget is the hub's memory backstop; the error names both remedies.
        """
        if config.resolution > self.max_panes_per_session:
            raise HubError(
                f"stream resolution {config.resolution} exceeds the hub's "
                f"max_panes_per_session budget of {self.max_panes_per_session}; "
                f"raise the hub's max_panes_per_session or lower the stream's "
                f"resolution to at most {self.max_panes_per_session}"
            )

    # -- refresh-boundary observers --------------------------------------------

    def add_frame_observer(self, callback) -> None:
        """Register *callback* to see every frame this hub emits.

        The callback receives ``{stream_id: [Frame, ...]}`` after each
        emitting operation — inline ingest boundaries, deferred
        :meth:`tick` refreshes, a backfill's closing frames, and a flushing
        :meth:`close` — outside all hub locks, on the thread that drove the
        operation.  This is the network tier's push hook
        (:class:`repro.net.AsapServer` subscriptions); observers must not
        raise — an exception propagates to whichever caller triggered the
        emission, after the hub state is already consistent.
        """
        with self._lock:
            if callback not in self._frame_observers:
                self._frame_observers.append(callback)

    def remove_frame_observer(self, callback) -> None:
        """Unregister a :meth:`add_frame_observer` callback (idempotent)."""
        with self._lock:
            if callback in self._frame_observers:
                self._frame_observers.remove(callback)

    def _notify_frames(self, frames: dict[str, list[Frame]]) -> None:
        """Fan emitted frames out to observers (no locks held; see above)."""
        if not frames:
            return
        with self._lock:
            observers = list(self._frame_observers)
        for callback in observers:
            callback(frames)

    # -- session lifecycle -----------------------------------------------------

    def create_stream(
        self,
        stream_id: str | None = None,
        config: AsapSpec | None = None,
        history: tuple | None = None,
        **overrides,
    ) -> str:
        """Register a new streaming session and return its id.

        *overrides* patch individual :class:`~repro.spec.AsapSpec` fields on top of
        *config* (or the hub default), e.g. ``create_stream(pane_size=4)``.

        *history* is an optional ``(timestamps, values)`` archive folded into
        the fresh session through the bulk backfill lane
        (:meth:`StreamHub.backfill`) before the id is returned: the session
        starts exactly where it would have been had the archive been streamed
        point by point, without paying per-frame cost for the interior.
        """
        cfg = config or self.default_config
        if overrides:
            cfg = cfg.merge(**overrides)
        self._check_pane_budget(cfg)
        with self._lock:
            stream_id = self._claim_stream_id(stream_id)
            self._admit_locked()
            self._sessions[stream_id] = _Session(
                stream_id=stream_id,
                operator=cfg.build_operator(),
                created_tick=self._tick,
                last_active_tick=self._tick,
            )
            self._counters["sessions_created"] += 1
        if history is not None:
            timestamps, values = history
            self.backfill(stream_id, timestamps, values)
        return stream_id

    def backfill(self, stream_id: str, timestamps, values) -> BackfillResult:
        """Replay an archive into one stream at batch speed; see
        :meth:`repro.core.streaming.StreamingASAP.backfill`.

        Interior refresh boundaries are accounted but (when the session's
        configuration is fast-lane eligible) not materialized; every frame
        the session emits afterwards is bit-identical to having streamed the
        archive point by point.  The closing frame, if any, is counted in
        the hub's ``frames_emitted`` and returned on the result.
        """
        session = self._get(stream_id)
        vs = np.asarray(values, dtype=np.float64)
        with session.lock:
            if session.closed:
                raise UnknownStreamError(stream_id)
            result = session.operator.backfill(timestamps, vs)
            session.last_active_tick = self._tick
            session.frames_emitted += len(result.frames)
        # Counted after session.lock is released; see _resolution_snapshot
        # for the lock-order rationale.
        with self._lock:
            self._counters["points_ingested"] += int(vs.size)
            self._counters["frames_emitted"] += len(result.frames)
        if result.frames:
            self._notify_frames({stream_id: list(result.frames)})
        return result

    def _claim_stream_id(self, stream_id: str | None) -> str:
        """Allocate an auto id, or validate a caller-chosen one (under lock)."""
        if stream_id is None:
            stream_id, self._next_auto_id = allocate_auto_id(
                "stream", self._next_auto_id, self._sessions
            )
        elif stream_id in self._sessions:
            raise HubError(f"stream id {stream_id!r} already exists")
        return stream_id

    def _admit_locked(self) -> None:
        """Make room for one more session, per eviction policy (under lock)."""
        if len(self._sessions) < self.max_sessions:
            return
        if self.eviction_policy == "reject":
            raise HubAtCapacityError(f"hub is at max_sessions={self.max_sessions}")
        victim = min(
            self._sessions.values(),
            key=lambda s: (s.last_active_tick, s.created_tick),
        )
        self._retire_locked(victim, "sessions_evicted")

    def _retire_locked(self, session: _Session, reason: str, flush: bool = False) -> list[Frame]:
        """Take a session out of service for good (caller holds the registry lock).

        The one exit for close and both evictions: in-flight ingests fail,
        and the operator's lifetime counters fold into the hub's exactly
        once — after the optional final flush, whose refreshes can still
        count.  Registry and session stay locked throughout (the hub ->
        session order), so :attr:`stats` never catches the session after it
        left the registry but before its counters were folded.
        """
        del self._sessions[session.stream_id]
        with session.lock:
            session.closed = True
            frames = list(session.operator.flush()) if flush else []
            self._counters.update(session.operator.counters)
        self._counters[reason] += 1
        self._counters["frames_emitted"] += len(frames)
        return frames

    def close(self, stream_id: str, flush: bool = True) -> list[Frame]:
        """Remove a session; with *flush*, emit its final pending frame(s)."""
        with self._lock:
            session = self._sessions.get(stream_id)
            if session is None:
                raise UnknownStreamError(stream_id)
            frames = self._retire_locked(session, "sessions_closed", flush=flush)
        if frames:
            self._notify_frames({stream_id: frames})
        return frames

    def _get(self, stream_id: str) -> _Session:
        with self._lock:
            session = self._sessions.get(stream_id)
        if session is None:
            raise UnknownStreamError(stream_id)
        return session

    # -- ingestion -------------------------------------------------------------

    def ingest(self, stream_id: str, timestamps, values) -> list[Frame]:
        """Fold a batch of arrivals into one stream; return inline frames.

        Refresh boundaries inside the batch refresh immediately (exact
        point-by-point semantics); a boundary at the end of the batch is
        deferred to the next :meth:`tick`, which refreshes every due stream.
        """
        session = self._get(stream_id)
        vs = np.asarray(values, dtype=np.float64)
        with session.lock:
            # Re-check under the session lock: a close() may have raced in
            # between the registry lookup and here.
            if session.closed:
                raise UnknownStreamError(stream_id)
            frames = session.operator.push_many(timestamps, vs, defer_boundary=True)
            session.last_active_tick = self._tick
            session.frames_emitted += len(frames)
        with self._lock:
            self._counters["points_ingested"] += int(vs.size)
            self._counters["frames_emitted"] += len(frames)
        if frames:
            self._notify_frames({stream_id: frames})
        return frames

    def ingest_point(self, stream_id: str, timestamp: float, value: float) -> list[Frame]:
        """Fold one arrival; single-point convenience wrapper over ingest."""
        return self.ingest(stream_id, [timestamp], [value])

    # -- deferred refresh ------------------------------------------------------

    def tick(self) -> dict[str, list[Frame]]:
        """Execute every deferred refresh; return emitted frames by stream id.

        Every due session refreshes through its own operator
        (:meth:`~repro.core.streaming.StreamingASAP.refresh_if_due`), on its
        own pane window, exactly as a lone operator would.  Also advances
        the hub clock and reaps idle sessions when
        ``idle_ticks_before_eviction`` is set.

        A refresh that raises (e.g. a search on a window holding a
        non-finite pane) does not starve the
        other due sessions: every due session refreshes, reaping and
        counters run, and then the first error is raised with every failing
        stream id in its message.  The frames that tick produced are kept
        and returned first by the next tick (and checkpointed meanwhile).
        A failed refresh stays due: the next tick retries it and emits the
        frame a lone operator that never failed emits.  The stream's next
        ingest retries it too, and gives it up (no frame for that boundary)
        if it fails again, so a lasting failure never refuses new data.
        """
        with self._lock:
            self._tick += 1
            sessions = list(self._sessions.values())
            # Frames of a tick that raised are older than anything this one
            # produces.
            emitted: dict[str, list[Frame]] = self._stashed_frames
            self._stashed_frames = {}

        produced = 0
        failures: list[tuple[str, Exception]] = []
        for session in sessions:
            with session.lock:
                if session.closed:
                    continue
                try:
                    frame = session.operator.refresh_if_due()
                except Exception as exc:  # collected: the other sessions still refresh
                    failures.append((session.stream_id, exc))
                    continue
                if frame is None:
                    continue
                emitted.setdefault(session.stream_id, []).append(frame)
                session.frames_emitted += 1
                produced += 1

        with self._lock:
            if self.idle_ticks_before_eviction is not None:
                stale = [
                    session
                    for session in self._sessions.values()
                    if self._tick - session.last_active_tick
                    > self.idle_ticks_before_eviction
                ]
                for session in stale:
                    self._retire_locked(session, "sessions_evicted")
            self._counters["frames_emitted"] += produced
            if failures:
                for stream_id, frames in self._stashed_frames.items():
                    emitted.setdefault(stream_id, []).extend(frames)
                self._stashed_frames = emitted
        if failures:
            first = failures[0][1]
            named = ", ".join(repr(stream_id) for stream_id, _exc in failures)
            first.args = (f"refresh failed for stream(s) {named}: {first}",)
            raise first
        self._notify_frames(emitted)
        return emitted

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, stream_id: str) -> bool:
        with self._lock:
            return stream_id in self._sessions

    def stream_ids(self) -> list[str]:
        """Ids of every active session (insertion order)."""
        with self._lock:
            return list(self._sessions)

    def snapshot(
        self,
        stream_id: str,
        resolution: int | None = None,
        include_partial: bool = False,
    ) -> SessionSnapshot | ResolutionSnapshot:
        """Point-in-time view of one session; never triggers a refresh.

        Without *resolution*: the session's bookkeeping
        (:class:`SessionSnapshot`), exactly as before.

        With *resolution*: a **multi-resolution view** — the session's
        current window re-served at that pixel width (:class:`ResolutionSnapshot`).
        Any number of clients can snapshot the same stream at different
        widths from the one session; each view's search input is bucketed on
        demand from the session's window through the rollup level nearest
        the width's point-to-pixel ratio (plus a residual re-bucket), so a
        snapshot never changes the session's later frames.  The smoothed
        output is equivalent to running the
        from-scratch pipeline on the directly pre-aggregated window (windows
        equal, values within 1e-9).  Views are cached per (resolution,
        include_partial) until the next pane completes, so repeated polls
        between refreshes are free.
        """
        session = self._get(stream_id)
        if resolution is not None:
            return self._resolution_snapshot(session, resolution, include_partial)
        if include_partial:
            raise HubError(
                "include_partial only applies to multi-resolution views; "
                "pass resolution=... as well"
            )
        with session.lock:
            if session.closed:
                raise UnknownStreamError(stream_id)
            operator = session.operator
            return SessionSnapshot(
                stream_id=session.stream_id,
                panes=operator.pane_count,
                points_ingested=operator.points_ingested,
                refresh_count=operator.refresh_count,
                last_window=operator.last_window,
                refresh_due=operator.refresh_due,
                frames_emitted=session.frames_emitted,
                created_tick=session.created_tick,
                last_active_tick=session.last_active_tick,
                config=session.config,
                completeness=operator.window_completeness,
                gaps_filled=operator.gaps_filled,
                nan_dropped=operator.nan_dropped,
                late_accepted=operator.late_accepted,
                late_dropped=operator.late_dropped,
            )

    def _resolution_snapshot(
        self, session: _Session, resolution: int, include_partial: bool
    ) -> ResolutionSnapshot:
        """Serve one multi-resolution view, computed from the session's window.

        The view is resolved on demand from the operator's pane window
        (:meth:`~repro.core.streaming.StreamingASAP.pyramid_view`), which
        changes no operator state, and smoothed; the result is cached per
        ``(resolution, include_partial)`` until the next pane completes.
        """
        if resolution < 1:
            raise HubError(f"resolution must be >= 1, got {resolution}")
        with session.lock:
            if session.closed:
                raise UnknownStreamError(session.stream_id)
            operator = session.operator
            key = (int(resolution), bool(include_partial))
            version = operator.panes_completed
            cached = session.view_cache.get(key)
            cache_hit = cached is not None and cached[0] == version
            if cache_hit:
                snap = cached[1]
            else:
                view = operator.pyramid_view(
                    ViewSpec(resolution=resolution, include_partial=include_partial)
                )
                if view.values.size < MIN_PANES_FOR_SEARCH:
                    raise HubError(
                        f"stream {session.stream_id!r} has only {view.values.size} "
                        f"view buckets at resolution {resolution}; a search needs "
                        f">= {MIN_PANES_FOR_SEARCH} — ingest more data or request "
                        f"a wider (higher-resolution) view"
                    )
                name = f"{session.stream_id}@{resolution}px"
                series = TimeSeries(view.values, view.timestamps, name=name)
                # The session's max_window bounds the smoothing window in
                # *pane* units; a view bucket spans `ratio` panes, so the
                # bound translates by floor division.  A bound too small to
                # admit any candidate serves the view unsmoothed (window 1).
                max_window = session.config.max_window
                view_bound = None if max_window is None else max_window // view.ratio
                if view_bound is not None and view_bound < 2:
                    result = None
                    window = 1
                else:
                    result = smooth(
                        series,
                        strategy=session.config.strategy,
                        max_window=view_bound,
                        use_preaggregation=False,
                    )
                    window = result.window
                snap = ResolutionSnapshot(
                    stream_id=session.stream_id,
                    resolution=resolution,
                    series=series if result is None else result.series,
                    window=window,
                    window_base_units=view.window_in_original_units(window),
                    window_original_units=(
                        view.window_in_original_units(window)
                        * session.config.pane_size
                    ),
                    ratio=view.ratio,
                    level_ratio=view.level_ratio,
                    residual=view.residual,
                    base_start=view.base_start,
                    base_end=view.base_end,
                    partial_points=view.partial_points,
                    view_length=view.values.size,
                    search=None if result is None else result.search,
                )
                self._cache_view(session, key, version, snap)
        # Stats are counted only after session.lock is released: taking the
        # registry lock while holding a session lock would invert the
        # hub-lock -> session-lock order used by create_stream's eviction and
        # tick's idle reaper (an ABBA deadlock).
        with self._lock:
            self._counters["views_served"] += 1
            self._counters["view_cache_hits"] += int(cache_hit)
        return snap

    #: Distinct (resolution, include_partial) views cached per session; the
    #: cache is version-keyed, so this bounds only same-version variety (e.g.
    #: clients sweeping arbitrary widths), not staleness — stale-version
    #: entries are purged on every insert.
    MAX_CACHED_VIEWS_PER_SESSION = 32

    def _cache_view(
        self, session: _Session, key, version: int, snap: ResolutionSnapshot
    ) -> None:
        """Insert under session.lock; drop stale versions, bound the size."""
        cache = session.view_cache
        stale = [k for k, (v, _snap) in cache.items() if v != version]
        for k in stale:
            del cache[k]
        while len(cache) >= self.MAX_CACHED_VIEWS_PER_SESSION:
            cache.pop(next(iter(cache)))
        cache[key] = (version, snap)

    # -- durability (see repro.persist) ----------------------------------------

    #: Payload kind written by :func:`repro.persist.checkpoint`.
    checkpoint_kind = "streamhub"

    def export_session(self, stream_id: str, remove: bool = False) -> dict:
        """One session's full state as a plain dict (the persist-layer schema).

        The returned tree — bookkeeping plus the operator's
        :meth:`~repro.core.streaming.StreamingASAP.state_dict`, which holds
        the session's one config as its ``"spec"`` — is exactly
        what :meth:`import_session` needs to resume the session with
        bit-identical subsequent frames; per-session view caches are not
        included (they rebuild lazily).  With ``remove=True`` the session is
        atomically taken out of this hub (no flush — every pending pane and
        partial pane travels with the state), which is the cluster tier's
        migration primitive.  The operator's lifetime counters travel inside
        its state, so they leave this hub's :attr:`stats` and arrive with
        :meth:`import_session` on the target — never counted twice.
        """
        if remove:
            with self._lock:
                session = self._sessions.pop(stream_id, None)
                if session is None:
                    raise UnknownStreamError(stream_id)
                self._counters["sessions_exported"] += 1
            with session.lock:
                session.closed = True  # as on close(): fail racing ingests
                return self._session_state(session)
        session = self._get(stream_id)
        with session.lock:
            if session.closed:
                raise UnknownStreamError(stream_id)
            return self._session_state(session)

    @staticmethod
    def _session_state(session: _Session) -> dict:
        """Serialize one session under its lock (caller holds it)."""
        return {
            "stream_id": session.stream_id,
            "created_tick": session.created_tick,
            "last_active_tick": session.last_active_tick,
            "frames_emitted": session.frames_emitted,
            "operator": session.operator.state_dict(),
        }

    def import_session(self, state: dict, stream_id: str | None = None) -> str:
        """Adopt a session exported by :meth:`export_session`; returns its id.

        The session resumes exactly where the export left it — refresh
        countdown, previous window, warm trace and open partial pane
        included — so frames it emits here are bit-identical to the
        ones it would have emitted on the exporting hub.  *stream_id*
        overrides the exported id; the hub's pane budget and capacity policy
        apply as on :meth:`create_stream`.
        """
        operator = self._restore_operator(state["operator"])
        with self._lock:
            sid = stream_id if stream_id is not None else str(state["stream_id"])
            if sid in self._sessions:
                raise HubError(f"stream id {sid!r} already exists")
            self._admit_locked()
            self._sessions[sid] = _Session(
                stream_id=sid,
                operator=operator,
                created_tick=int(state["created_tick"]),
                last_active_tick=int(state["last_active_tick"]),
                frames_emitted=int(state["frames_emitted"]),
            )
            self._counters["sessions_imported"] += 1
        return sid

    def state_dict(self) -> dict:
        """The whole hub — parameters, counters, frames stashed by a tick
        that raised, and every session's state.

        The registry lock is held for the whole serialization (counters and
        sessions captured together), so a checkpoint taken while other
        threads ingest is a *consistent* point in time — concurrent
        mutations land entirely before or entirely after it.  Taking session
        locks while holding the registry lock follows the same order as
        ``create_stream``'s eviction, so this cannot deadlock against the
        ingest/snapshot paths (which never hold a session lock while
        acquiring the registry lock).
        """
        from ..net.wire import frames_state  # the wire codec imports this module

        with self._lock:
            state = {
                "max_sessions": self.max_sessions,
                "max_panes_per_session": self.max_panes_per_session,
                "default_config": self.default_config.to_dict(),
                "eviction_policy": self.eviction_policy,
                "idle_ticks_before_eviction": self.idle_ticks_before_eviction,
                "tick": self._tick,
                "next_auto_id": self._next_auto_id,
                "counters": dict(self._counters),
                "stashed_frames": {
                    stream_id: frames_state(frames)
                    for stream_id, frames in self._stashed_frames.items()
                },
            }
            sessions = []
            for session in self._sessions.values():
                with session.lock:
                    if not session.closed:
                        sessions.append(self._session_state(session))
            state["sessions"] = sessions
        return state

    @classmethod
    def from_state(cls, state: dict) -> "StreamHub":
        """Rebuild a hub from :meth:`state_dict` output (exact resume)."""
        from ..net.wire import frames_from_state  # the wire codec imports this module

        hub = cls(
            max_sessions=int(state["max_sessions"]),
            max_panes_per_session=int(state["max_panes_per_session"]),
            default_config=AsapSpec.from_dict(state["default_config"]),
            eviction_policy=str(state["eviction_policy"]),
            idle_ticks_before_eviction=(
                None
                if state["idle_ticks_before_eviction"] is None
                else int(state["idle_ticks_before_eviction"])
            ),
        )
        hub._tick = int(state["tick"])
        hub._next_auto_id = int(state["next_auto_id"])
        hub._counters = counters_from_state(state["counters"], _COUNTERS)
        hub._stashed_frames = {
            str(stream_id): frames_from_state(frames)
            for stream_id, frames in state["stashed_frames"].items()
        }
        for session_state in state["sessions"]:
            hub._sessions[str(session_state["stream_id"])] = _Session(
                stream_id=str(session_state["stream_id"]),
                operator=hub._restore_operator(session_state["operator"]),
                created_tick=int(session_state["created_tick"]),
                last_active_tick=int(session_state["last_active_tick"]),
                frames_emitted=int(session_state["frames_emitted"]),
            )
        return hub

    def _restore_operator(self, state: dict) -> StreamingASAP:
        """Rebuild a checkpointed session's operator, its spec held to the
        pane budget before any of its state is restored."""
        self._check_pane_budget(AsapSpec.from_dict(state["spec"]))
        return StreamingASAP.from_state(state)

    @property
    def stats(self) -> HubStats:
        """Aggregate hub accounting: the hub's own counters (retired
        sessions' operator totals included) plus every live operator's."""
        with self._lock:
            merged = Counter(self._counters)
            for session in self._sessions.values():
                merged.update(session.operator.counters)
            return HubStats(sessions_active=len(self._sessions), ticks=self._tick, **merged)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"StreamHub(sessions={len(self._sessions)}/{self.max_sessions}, "
                f"ticks={self._tick}, policy={self.eviction_policy!r})"
            )
