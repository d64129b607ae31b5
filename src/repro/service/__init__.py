"""repro.service — the multi-tenant streaming serving layer (StreamHub).

The production setting the ROADMAP targets — live dashboards for many users —
multiplexes *many* concurrent streams over one process.  This package manages
that workload on top of the single-stream operator of
:mod:`repro.core.streaming`:

* :class:`StreamHub` — create/ingest/tick/snapshot/close streaming sessions
  by stream id, with thread-safe ingestion, bounded session and pane budgets,
  and LRU/idle eviction; sessions are configured by the unified
  :class:`~repro.spec.AsapSpec` (one class, one validation, one wire format
  across every tier);
* deferred refreshes — refresh boundaries landing at the end of an ingest
  batch wait for the next tick, which runs every due session's refresh
  through its own operator, exactly as a lone operator would;
* exact refreshes — each refresh computes its window's ACF and moments
  from the session's pane window, as the paper's operator does; at display
  width the direct lag-limited ACF makes that cheaper than keeping the
  statistics incrementally;
* multi-resolution serving — ``snapshot(stream_id, resolution=...)``
  buckets the session's window on demand (:mod:`repro.pyramid`), so one
  session serves any number of per-client pixel widths instead of N
  duplicate sessions, with results equivalent to the from-scratch pipeline
  on the directly pre-aggregated window.
"""

from .hub import (
    HubAtCapacityError,
    HubError,
    HubStats,
    ResolutionSnapshot,
    SessionSnapshot,
    StreamHub,
    UnknownStreamError,
)

__all__ = [
    "HubAtCapacityError",
    "HubError",
    "HubStats",
    "ResolutionSnapshot",
    "SessionSnapshot",
    "StreamHub",
    "UnknownStreamError",
]
