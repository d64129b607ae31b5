"""THE acceptance pin for the network tier.

The repo-wide equivalence law, extended over a socket: a remote client —
``connect("tcp://host:port")`` — produces frames **bit-identical** to
``connect("local")`` given the same arrivals.  Pinned here for the
request/response path (ingest / tick / snapshot), the server-push
subscription path (plain and resolution-view), the bulk ``backfill``
lane, and a mid-stream ``checkpoint``/restore round trip taken *through*
the remote client.  All comparisons are ``tobytes()`` on the float64
payloads — no tolerances anywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from netutil import SPEC, make_arrivals
from repro.cluster import ShardedHub
from repro.net.server import serve
from repro.persist import restore
from repro.service import StreamHub


def assert_frames_identical(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.series.values.tobytes() == b.series.values.tobytes()
        assert a.series.timestamps.tobytes() == b.series.timestamps.tobytes()
        assert a.window == b.window
        assert a.refresh_index == b.refresh_index
        assert a.points_ingested == b.points_ingested
        assert a.quality == b.quality
        assert (a.search is None) == (b.search is None)
        if a.search is not None:
            assert a.search == b.search


def make_server(tier):
    if tier == "sharded":
        hub = ShardedHub(shards=3, default_config=SPEC)
    else:
        hub = StreamHub(default_config=SPEC)
    return serve(hub)


@pytest.fixture(params=["hub", "sharded"])
def tier_server(request):
    handle = make_server(request.param)
    yield request.param, handle
    handle.stop()


class TestRequestResponsePath:
    def test_ingest_tick_snapshot_match_local(self, tier_server):
        _, handle = tier_server
        local = repro.connect("local", spec=SPEC)
        remote = repro.connect(handle.url, spec=SPEC)
        local.stream(stream_id="s")
        remote.stream(stream_id="s")
        ts, vs = make_arrivals(500)
        for lo in range(0, 500, 90):  # ragged batches: interior + deferred
            chunk = slice(lo, min(lo + 90, 500))
            assert_frames_identical(
                remote.ingest("s", ts[chunk], vs[chunk]),
                local.ingest("s", ts[chunk], vs[chunk]),
            )
            assert_frames_identical(
                remote.tick().get("s", []), local.tick().get("s", [])
            )
        # Session snapshots are plain frozen dataclasses: full equality.
        assert remote.snapshot("s") == local.snapshot("s")
        for resolution in (25, 50):
            mine = remote.snapshot("s", resolution=resolution)
            ref = local.snapshot("s", resolution=resolution)
            assert mine.series.values.tobytes() == ref.series.values.tobytes()
            assert mine.series.timestamps.tobytes() == ref.series.timestamps.tobytes()
            assert mine.window == ref.window
            assert mine.search == ref.search
        assert_frames_identical(
            remote.close_stream("s", flush=True), local.close_stream("s", flush=True)
        )
        local.close()
        remote.close()

    def test_backfill_matches_local(self, tier_server):
        _, handle = tier_server
        local = repro.connect("local", spec=SPEC)
        remote = repro.connect(handle.url, spec=SPEC)
        local.stream(stream_id="b")
        remote.stream(stream_id="b")
        ts, vs = make_arrivals(1000)
        mine = remote.backfill("b", ts, vs)
        ref = local.backfill("b", ts, vs)
        assert mine.points == ref.points == 1000
        assert mine.panes == ref.panes
        assert mine.frames_elided == ref.frames_elided
        assert mine.mode == ref.mode
        assert_frames_identical(mine.frames, ref.frames)
        # The law's real teeth: frames AFTER the bulk lane are the same as
        # if the archive had been streamed point by point.
        more_ts, more_vs = make_arrivals(200, seed=11, start=1000.0)
        assert_frames_identical(
            remote.ingest("b", more_ts, more_vs), local.ingest("b", more_ts, more_vs)
        )
        assert_frames_identical(
            remote.tick().get("b", []), local.tick().get("b", [])
        )
        local.close()
        remote.close()

    def test_mid_stream_checkpoint_restore_continuation(self, tier_server):
        tier, handle = tier_server
        witness = repro.connect("local", spec=SPEC)
        remote = repro.connect(handle.url, spec=SPEC)
        witness.stream(stream_id="c")
        remote.stream(stream_id="c")
        ts, vs = make_arrivals(400)
        remote.ingest("c", ts[:213], vs[:213])  # mid-pane, mid-refresh cut
        witness.ingest("c", ts[:213], vs[:213])
        # Checkpoint through the remote client: the `state` op ships the
        # server hub's full state tree; persist writes it as the same
        # payload kind a local checkpoint of that hub would use.
        blob = remote.checkpoint()
        revived = restore(blob)
        expected_kind = "sharded-hub" if tier == "sharded" else "streamhub"
        assert revived.checkpoint_kind == expected_kind
        # Continue all three: remote (uninterrupted), revived (restored),
        # witness (local, uninterrupted) — every tail frame bit-identical.
        tail = remote.ingest("c", ts[213:], vs[213:])
        assert_frames_identical(revived.ingest("c", ts[213:], vs[213:]), tail)
        assert_frames_identical(witness.ingest("c", ts[213:], vs[213:]), tail)
        assert_frames_identical(revived.tick().get("c", []), remote.tick().get("c", []))
        shutdown = getattr(revived, "shutdown", None)
        if shutdown:
            shutdown()
        witness.close()
        remote.close()


class TestPushPath:
    def test_pushed_frames_match_local_inline(self, tier_server):
        _, handle = tier_server
        local = repro.connect("local", spec=SPEC)
        remote = repro.connect(handle.url, spec=SPEC)
        local.stream(stream_id="p")
        remote.stream(stream_id="p")
        remote.subscribe("p")
        ts, vs = make_arrivals(300)
        expected = []
        for lo in range(0, 300, 100):
            chunk = slice(lo, lo + 100)
            remote.ingest("p", ts[chunk], vs[chunk])
            expected.extend(local.ingest("p", ts[chunk], vs[chunk]))
        assert expected, "workload must emit inline frames"
        events = remote.hub.wait_pushes(1, timeout=10)
        pushed = [f for e in events for f in e.frames]
        # Drain until the push path has delivered everything the local
        # witness emitted (pushes ride behind responses, never ahead).
        import time

        deadline = time.monotonic() + 10.0
        while len(pushed) < len(expected) and time.monotonic() < deadline:
            pushed.extend(f for e in remote.pushes(timeout=0.2) for f in e.frames)
        assert_frames_identical(pushed, expected)
        local.close()
        remote.close()

    def test_view_pushes_match_local_resolution_snapshots(self, tier_server):
        _, handle = tier_server
        local = repro.connect("local", spec=SPEC)
        remote = repro.connect(handle.url, spec=SPEC)
        local.stream(stream_id="v")
        remote.stream(stream_id="v")
        ts, vs = make_arrivals(200)
        remote.ingest("v", ts, vs)
        local.ingest("v", ts, vs)
        remote.subscribe("v", resolution=25)
        more_ts, more_vs = make_arrivals(200, seed=3, start=200.0)
        remote.ingest("v", more_ts, more_vs)
        local.ingest("v", more_ts, more_vs)
        events = [
            e for e in remote.hub.wait_pushes(1, timeout=10) if e.view is not None
        ]
        assert events
        view = events[-1].view
        ref = local.snapshot("v", resolution=25)
        assert view.series.values.tobytes() == ref.series.values.tobytes()
        assert view.series.timestamps.tobytes() == ref.series.timestamps.tobytes()
        assert view.window == ref.window
        assert view.search == ref.search
        local.close()
        remote.close()


class TestShardedHandshake:
    def test_hello_names_the_tier(self):
        handle = make_server("sharded")
        try:
            client = repro.connect(handle.url, spec=SPEC)
            assert client.hub.checkpoint_kind == "sharded-hub"
            assert client.hub.hello["hub_kind"] == "sharded-hub"
            blob = client.checkpoint()
            revived = restore(blob)
            assert isinstance(revived, ShardedHub)
            revived.shutdown()
            client.close()
        finally:
            handle.stop()


class TestDeterministicValues:
    def test_float_payloads_survive_the_wire_exactly(self, tier_server):
        """Adversarial float values (denormals, huge magnitudes, negative
        zero) cross the codec envelope without a single bit of drift."""
        _, handle = tier_server
        local = repro.connect("local", spec=SPEC)
        remote = repro.connect(handle.url, spec=SPEC)
        local.stream(stream_id="f")
        remote.stream(stream_id="f")
        rng = np.random.default_rng(99)
        n = 120
        ts = np.arange(n, dtype=np.float64)
        vs = rng.normal(size=n) * np.float64(1e17)
        vs[::7] = np.float64(5e-324)  # smallest subnormal
        vs[3::11] = -0.0
        assert_frames_identical(
            remote.ingest("f", ts, vs), local.ingest("f", ts, vs)
        )
        assert remote.snapshot("f") == local.snapshot("f")
        mine = remote.snapshot("f", resolution=10)
        ref = local.snapshot("f", resolution=10)
        assert mine.series.values.tobytes() == ref.series.values.tobytes()
        local.close()
        remote.close()
