"""Degenerate streams get the same answers on every streaming tier.

Three inputs at the edge of what a search can do, pinned at the operator,
``connect("hub")``, ``connect("sharded", shards=2)`` and ``tcp://`` tiers by
one parametrized test:

* a constant stream has zero variance: every frame picks window 1 and is
  finite (no division by the zero variance);
* a 30-point stream with ``pane_size=10`` has 3 panes, so a resolution-100
  view has 3 buckets; the hub tiers refuse to search fewer than
  ``MIN_PANES_FOR_SEARCH`` and say so;
* a resolution far above the window's pane count resolves at ratio 1 over
  the whole 200-pane window (views never upsample).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import connect
from repro.core.streaming import MIN_PANES_FOR_SEARCH, StreamingASAP
from repro.errors import HubError
from repro.net.server import serve
from repro.service import StreamHub
from repro.spec import AsapSpec

SPEC = AsapSpec(pane_size=10, resolution=200, refresh_interval=10)
TIERS = ["operator", "hub", "sharded", "tcp"]


class OperatorTier:
    """Lone operators, one per stream id; a view is the operator's own."""

    def __init__(self) -> None:
        self.operators: dict[str, StreamingASAP] = {}

    def ingest(self, sid, ts, vs):
        operator = self.operators.setdefault(sid, StreamingASAP(SPEC))
        return list(operator.push_many(ts, vs))

    def tick(self):
        return []

    def view(self, sid, resolution):
        view = self.operators[sid].pyramid_view(resolution)
        return view.ratio, view.base_start, view.base_end, view.values

    def close(self) -> None:
        pass


class ClientTier:
    def __init__(self, backend: str, server=None, **options) -> None:
        self.server = server
        self.client = connect(backend, SPEC, **options)

    def ingest(self, sid, ts, vs):
        if sid not in self.client:
            self.client.stream(stream_id=sid)
        return list(self.client.ingest(sid, ts, vs))

    def tick(self):
        return [frame for frames in self.client.tick().values() for frame in frames]

    def view(self, sid, resolution):
        snap = self.client.snapshot(sid, resolution=resolution)
        assert snap.view_length == snap.series.values.size
        assert np.isfinite(snap.series.values).all()
        return snap.ratio, snap.base_start, snap.base_end, snap.series.values

    def close(self) -> None:
        self.client.close()
        if self.server is not None:
            self.server.stop()


def open_tier(tier: str):
    if tier == "operator":
        return OperatorTier()
    if tier == "hub":
        return ClientTier("hub")
    if tier == "sharded":
        return ClientTier("sharded", shards=2)
    server = serve(StreamHub(default_config=SPEC))
    host, port = server.address
    return ClientTier(f"tcp://{host}:{port}", server)


@pytest.mark.parametrize("tier", TIERS)
def test_degenerate_inputs(tier):
    rng = np.random.default_rng(20170502)
    ts = np.arange(4000, dtype=np.float64)
    flat = np.full(ts.size, 3.5)
    wide = np.sin(ts / 37.0) + 0.3 * rng.normal(size=ts.size)
    target = open_tier(tier)
    try:
        # A constant stream: window 1, finite frames, equal to a lone operator's.
        frames = target.ingest("flat", ts, flat) + target.tick()
        assert frames == list(StreamingASAP(SPEC).push_many(ts, flat))
        assert len(frames) == 40
        for frame in frames:
            assert frame.window == 1
            assert np.array_equal(frame.series.values, np.full(frame.series.values.size, 3.5))
            assert frame.search.roughness == 0.0 and frame.search.kurtosis == 0.0
        ratio, _start, _end, values = target.view("flat", 100)
        assert ratio == 2 and np.array_equal(values, np.full(100, 3.5))

        # Three panes: too few view buckets for a search at resolution 100.
        assert target.ingest("short", ts[:30], wide[:30]) + target.tick() == []
        if tier == "operator":
            _ratio, _start, _end, values = target.view("short", 100)
            assert values.size == 3 < MIN_PANES_FOR_SEARCH
        else:
            with pytest.raises(
                HubError, match=r"only 3 view buckets at resolution 100; a search needs >= 8"
            ):
                target.view("short", 100)

        # A resolution far above the 200-pane window: ratio 1, the whole window.
        target.ingest("wide", ts, wide)
        target.tick()
        ratio, start, end, values = target.view("wide", 100_000)
        assert (ratio, start, end) == (1, 200, 400)
        assert values.size == 200
        if tier == "operator":
            lone = StreamingASAP(SPEC)
            lone.push_many(ts, wide)
            assert values.tobytes() == lone.aggregated_values().tobytes()
    finally:
        target.close()
