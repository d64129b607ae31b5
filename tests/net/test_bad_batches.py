"""A bad batch is rejected whole and leaves the stream serving, on every tier.

With no quality stage in the spec, a batch holding a non-finite value or a
timestamp that does not strictly follow the last folded one cannot be
repaired downstream.  The operator rejects it with
:class:`~repro.errors.DataQualityError` naming the first bad index, before
any state changes, so later good batches are accepted, the frames equal a
lone operator's fed only the good batches, and a checkpoint taken after the
rejection is byte-identical to one taken before it.  The same holds through
the hub and over ``tcp://``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import connect
from repro.core.streaming import StreamingASAP
from repro.errors import DataQualityError
from repro.net.server import serve
from repro.persist import codec
from repro.service import StreamHub
from repro.spec import AsapSpec
from repro.stream.sources import StreamPoint

SPEC = AsapSpec(pane_size=10, resolution=200, refresh_interval=10)
BATCH = 100


def good_batches(count: int = 40):
    rng = np.random.default_rng(20170501)
    n = count * BATCH
    ts = np.arange(n, dtype=np.float64)
    vs = np.sin(ts / 53.0) + 0.3 * rng.normal(size=n)
    return [(ts[i : i + BATCH], vs[i : i + BATCH]) for i in range(0, n, BATCH)]


def bad_batch(kind: str, batches, at: int):
    """The batch to inject before good batch *at*, and the index it names."""
    ts, vs = batches[at]
    if kind == "nan":
        vs = vs.copy()
        vs[37] = np.nan
        return (ts, vs), 37
    if kind == "replayed":
        return batches[at - 1], 0
    ts = ts.copy()
    ts[50] = ts[49]  # a duplicate timestamp mid-batch
    return (ts, vs), 50


class OperatorTier:
    """The bare operator, driven like a one-stream hub."""

    def __init__(self) -> None:
        self.operator = StreamingASAP(SPEC)

    def ingest(self, ts, vs):
        return list(self.operator.push_many(ts, vs))

    def tick(self):
        return []

    def checkpoint(self) -> bytes:
        return codec.dumps("operator", self.operator.state_dict())

    def close(self) -> None:
        pass


class ClientTier:
    """One stream through ``connect(backend)``; frames from ingest + tick."""

    def __init__(self, backend: str, server=None) -> None:
        self.server = server
        self.client = connect(backend, SPEC)
        self.handle = self.client.stream(stream_id="metric")

    def ingest(self, ts, vs):
        return list(self.handle.ingest(ts, vs))

    def tick(self):
        return list(self.handle.tick())

    def checkpoint(self) -> bytes:
        return self.client.checkpoint()

    def close(self) -> None:
        self.client.close()
        if self.server is not None:
            self.server.stop()


def open_tier(tier: str):
    if tier == "operator":
        return OperatorTier()
    if tier == "hub":
        return ClientTier("hub")
    server = serve(StreamHub(default_config=SPEC))
    host, port = server.address
    return ClientTier(f"tcp://{host}:{port}", server)


def frame_bytes(frame):
    return (
        frame.window,
        frame.refresh_index,
        frame.points_ingested,
        frame.series.values.tobytes(),
        frame.series.timestamps.tobytes(),
        repr(frame.search),
    )


@pytest.mark.parametrize("kind", ["nan", "replayed", "duplicate"])
@pytest.mark.parametrize("tier", ["operator", "hub", "tcp"])
def test_rejected_batch_leaves_the_stream_serving(tier, kind):
    batches = good_batches()
    at = 17
    (bad_ts, bad_vs), index = bad_batch(kind, batches, at)
    lone = StreamingASAP(SPEC)
    expected = [frame for ts, vs in batches for frame in lone.push_many(ts, vs)]

    target = open_tier(tier)
    try:
        frames = []
        for ts, vs in batches[:at]:
            frames += target.ingest(ts, vs)
            frames += target.tick()
        before = target.checkpoint()
        with pytest.raises(DataQualityError, match=f"at index {index}:"):
            target.ingest(bad_ts, bad_vs)
        assert target.checkpoint() == before
        for ts, vs in batches[at:]:
            frames += target.ingest(ts, vs)
            frames += target.tick()
    finally:
        target.close()
    assert len(expected) > 20
    assert [frame_bytes(f) for f in frames] == [frame_bytes(f) for f in expected]


def test_a_single_bad_point_is_rejected_before_a_due_refresh():
    operator = StreamingASAP(SPEC)
    batches = good_batches(12)
    for ts, vs in batches:
        operator.push_many(ts, vs, defer_boundary=True)
    assert operator.refresh_due
    state = codec.dumps("operator", operator.state_dict())
    with pytest.raises(DataQualityError, match="index 0: value nan"):
        operator.push(StreamPoint(timestamp=10_000.0, value=float("nan")))
    with pytest.raises(DataQualityError, match="index 0: timestamp"):
        operator.push(StreamPoint(timestamp=5.0, value=1.0))
    with pytest.raises(DataQualityError, match="index 0: timestamp"):
        operator.backfill([5.0, 6.0], [1.0, 1.0])
    with pytest.raises(DataQualityError, match="equal-length"):
        operator.push_many([1e4, 1e4 + 1], [1.0])
    assert operator.refresh_due
    assert codec.dumps("operator", operator.state_dict()) == state


def test_last_folded_timestamp_survives_checkpoint_and_reset():
    operator = StreamingASAP(SPEC)
    for ts, vs in good_batches(5):
        operator.push_many(ts, vs)
    clone = StreamingASAP.from_state(operator.state_dict())
    with pytest.raises(DataQualityError, match="does not follow 499.0"):
        clone.push_many([499.0], [1.0])
    clone.reset()
    clone.push_many([0.0], [1.0])  # a reset window starts a new range
    assert clone.points_ingested == 1
