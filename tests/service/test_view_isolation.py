"""A multi-resolution snapshot never changes a stream's later frames.

Views are computed from the pane window on demand, so a hub whose clients
poll ``snapshot(sid, resolution)`` between refreshes must emit frames
bit-identical to a lone operator fed the same batches — the search result's
roughness and kurtosis included, since the incremental window statistics
are sensitive to how completed panes are chunked into them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.streaming import StreamingASAP
from repro.service import StreamHub
from repro.spec import AsapSpec


def frame_bytes(frame):
    return (
        frame.window,
        frame.refresh_index,
        frame.points_ingested,
        frame.series.values.tobytes(),
        frame.series.timestamps.tobytes(),
        repr(frame.search),
    )


@pytest.mark.parametrize(
    "spec",
    [
        AsapSpec(pane_size=2, resolution=300, refresh_interval=16),
        AsapSpec(pane_size=10, resolution=200, refresh_interval=10),
        AsapSpec(pane_size=3, resolution=500, refresh_interval=25, strategy="binary"),
    ],
)
def test_snapshots_between_refreshes_leave_frames_bit_identical(spec):
    rng = np.random.default_rng(20170321)
    n = 40_000
    ts = np.arange(n, dtype=np.float64)
    vs = 3.0 + np.sin(ts / 97.0) + 0.5 * np.sin(ts / 11.0) + 0.4 * rng.normal(size=n)
    hub = StreamHub(default_config=spec)
    sid = hub.create_stream("polled")
    lone = StreamingASAP(spec)
    hub_frames, lone_frames = [], []
    i = 0
    polls = 0
    while i < n:
        stop = min(i + int(rng.integers(5, 90)), n)
        hub_frames += hub.ingest(sid, ts[i:stop], vs[i:stop])
        lone_frames += lone.push_many(ts[i:stop], vs[i:stop])
        i = stop
        if hub.snapshot(sid).panes >= 64:
            for resolution in (16, 48, 100):
                hub.snapshot(sid, resolution=resolution)
                polls += 1
        hub_frames += hub.tick().get(sid, [])
    assert polls > 0 and len(lone_frames) > 100
    assert [frame_bytes(f) for f in hub_frames] == [frame_bytes(f) for f in lone_frames]
