"""StreamHub demo: serving many live dashboards from one process.

Simulates a small fleet of metric streams — CPU, latency, queue depth — each
delivering one scrape interval of points per round.  A single StreamHub hosts
every stream: batch ingestion, refreshes deferred to the shared tick,
incremental per-refresh statistics (O(new panes), not O(window)), and the
same stream served at several pixel widths from one session
(``snapshot(stream_id, resolution=...)``, bucketed on demand from the
session's window).

Run::

    PYTHONPATH=src python examples/streamhub_demo.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.vis.ascii_plot import sparkline

SCRAPE_INTERVAL = 60  # points delivered per stream per round
ROUNDS = 40


def make_fleet(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Synthetic metrics with distinct shapes, one series per stream."""
    n = SCRAPE_INTERVAL * ROUNDS
    t = np.arange(n)
    # Spikes keep the kurtosis constraint meaningful: ASAP smooths away the
    # noise while refusing windows that would erase the anomalies.
    cpu = 0.5 + 0.1 * np.sin(2 * np.pi * t / 240) + 0.1 * rng.normal(size=n)
    cpu[rng.integers(0, n, size=4)] += 3.0
    latency = 80 + 5 * np.sin(2 * np.pi * t / 600) + 6 * rng.normal(size=n)
    latency[rng.integers(0, n, size=3)] += 400.0
    return {
        "cpu.load": cpu,
        "api.latency_ms": latency,
        "queue.depth": np.maximum(0, 20 + rng.normal(size=n).cumsum()),
        "disk.iops": 1000 + 200 * np.sin(2 * np.pi * t / 120) + 50 * rng.normal(size=n),
        "net.errors": rng.poisson(2.0, size=n).astype(np.float64),
        "cache.hit_rate": 0.9 + 0.02 * np.sin(2 * np.pi * t / 300) + 0.01 * rng.normal(size=n),
    }


def main() -> None:
    rng = np.random.default_rng(7)
    fleet = make_fleet(rng)

    # One spec configures every session; connect("hub") opens the
    # multi-tenant tier (swap the backend argument for "local" or "sharded"
    # — the rest of this program is unchanged).
    hub = repro.connect(
        "hub",
        repro.AsapSpec(pane_size=3, resolution=400, refresh_interval=20),
        max_sessions=16,
        max_panes_per_session=1024,
        idle_ticks_before_eviction=10,
    )
    for name in fleet:
        hub.stream(stream_id=name)
    print(f"created {len(hub)} streams: {', '.join(hub.stream_ids())}")

    timestamps = np.arange(SCRAPE_INTERVAL * ROUNDS, dtype=np.float64)
    latest_window: dict[str, int] = {}
    for round_index in range(ROUNDS):
        start = round_index * SCRAPE_INTERVAL
        stop = start + SCRAPE_INTERVAL
        for name, values in fleet.items():
            hub.ingest(name, timestamps[start:stop], values[start:stop])
        for name, frames in hub.tick().items():
            latest_window[name] = frames[-1].window

    print("\nsmoothing windows selected at the final refresh (aggregated units):")
    for name in fleet:
        snapshot = hub.snapshot(name)
        window = latest_window.get(name, snapshot.last_window)
        print(
            f"  {name:16s} window={window!s:>4s}  panes={snapshot.panes:4d}  "
            f"frames={snapshot.frames_emitted:3d}  points={snapshot.points_ingested}"
        )

    # Multi-resolution serving: the same stream rendered at three widths from
    # one session — each snapshot buckets the session's window on demand
    # (nearest coarser rollup level + residual re-bucket), no duplicate
    # sessions, no re-ingestion.
    print("\napi.latency_ms served at three pixel widths from one session:")
    for width in (25, 50, 100):
        view = hub.snapshot("api.latency_ms", resolution=width)
        print(
            f"  {width:4d}px ratio={view.ratio:2d} (level {view.level_ratio} x "
            f"residual {view.residual}) window={view.window_original_units} raw pts"
        )
        print(f"    {sparkline(view.series.values, width=min(width, 72))}")

    stats = hub.stats
    print(
        f"\nhub: {stats.points_ingested} points -> {stats.frames_emitted} frames "
        f"over {stats.ticks} ticks ({stats.sessions_evicted} idle evictions); "
        f"{stats.views_served} resolution views served "
        f"({stats.view_cache_hits} from cache)"
    )

    # Session lifecycle: close one stream and let another idle out.
    final_frames = hub.close_stream("net.errors")
    print(f"closed net.errors (flushed {len(final_frames)} final frame(s))")
    for _ in range(12):  # nothing ingests; idle eviction reaps the rest
        hub.tick()
    print(f"after idle ticks: {len(hub)} sessions remain; {hub.stats.sessions_evicted} evicted")


if __name__ == "__main__":
    main()
