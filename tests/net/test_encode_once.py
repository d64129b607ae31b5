"""Encode once, send many: the server's view-body memo and push splicing.

A multi-resolution view is encoded once per view object the hub's view
cache serves, and every poll or push that carries it re-sends the stored
bytes.  These tests pin what that must never change — the bytes equal a
fresh encode, a completed pane serves the new view, and a memo entry dies
with the hub's cache entry — and what it must save: encodes per poll and
per push boundary.
"""

from __future__ import annotations

import gc
import socket

import pytest

from netutil import SPEC, make_arrivals
from repro.errors import NetError
from repro.net import wire
from repro.net.remote import RemoteBackend
from repro.net.server import AsapServer, serve
from repro.persist import codec
from repro.service import StreamHub

RESOLUTION = 25


@pytest.fixture
def view_encodes(monkeypatch):
    """Count the server's encodes of view bodies (``type == "resolution"``)."""
    count = {"n": 0}
    original = codec.encode_body

    def counting(state):
        if isinstance(state, dict) and state.get("type") == "resolution":
            count["n"] += 1
        return original(state)

    monkeypatch.setattr(codec, "encode_body", counting)
    return count


def _read_raw(sock) -> bytes:
    """One whole wire message (header included), as received."""
    data = b""
    while len(data) < codec.WIRE_HEADER_SIZE:
        chunk = sock.recv(codec.WIRE_HEADER_SIZE - len(data))
        assert chunk, "server hung up mid-header"
        data += chunk
    end = codec.WIRE_HEADER_SIZE + codec.parse_header(data)
    while len(data) < end:
        chunk = sock.recv(end - len(data))
        assert chunk, "server hung up mid-message"
        data += chunk
    return data


def _memo_streams(handle) -> list:
    """Stream ids of the live views the server's body memo still holds."""
    return [ref().stream_id for ref, _body in handle.server._view_bodies.values() if ref() is not None]


def _assert_same_view(got, want):
    assert got.series.values.tobytes() == want.series.values.tobytes()
    assert got.series.timestamps.tobytes() == want.series.timestamps.tobytes()
    assert got.series.name == want.series.name
    assert got.window == want.window and got.search == want.search
    assert (got.base_start, got.base_end, got.ratio) == (want.base_start, want.base_end, want.ratio)


def test_polls_of_an_unchanged_view_encode_once_and_send_identical_bytes(
    hub, server, remote, view_encodes
):
    sid = remote.create_stream(stream_id="p")
    ts, vs = make_arrivals(200)
    remote.ingest(sid, ts, vs)
    request = wire.encode_message(
        {"msg": "request", "id": 7, "op": "snapshot", "args": {"stream_id": sid, "resolution": RESOLUTION}}
    )
    polls = 6
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.settimeout(10)
        _read_raw(sock)  # hello
        sock.sendall(request * polls)  # pipelined, all with one request id
        replies = [_read_raw(sock) for _ in range(polls)]
    assert view_encodes["n"] == 1
    assert len(set(replies)) == 1
    # The stored bytes are exactly a fresh encode of the same response.
    expected = wire.encode_message(
        {
            "msg": "response",
            "id": 7,
            "ok": True,
            "result": wire.snapshot_state(hub.snapshot(sid, resolution=RESOLUTION)),
        }
    )
    assert replies[0] == expected


def test_completed_pane_serves_the_new_view_bit_identical_to_a_local_hub(remote, view_encodes):
    local = StreamHub(default_config=SPEC)
    sid = remote.create_stream(stream_id="q")
    local.create_stream("q")
    ts, vs = make_arrivals(200)
    remote.ingest(sid, ts, vs)
    local.ingest(sid, ts, vs)
    before = remote.snapshot(sid, resolution=RESOLUTION)
    assert remote.snapshot(sid, resolution=RESOLUTION).base_end == before.base_end
    assert view_encodes["n"] == 1
    # One more pane (pane_size=4) moves the hub's view-cache version.
    more_ts, more_vs = make_arrivals(SPEC.pane_size, seed=8, start=200.0)
    remote.ingest(sid, more_ts, more_vs)
    local.ingest(sid, more_ts, more_vs)
    after = remote.snapshot(sid, resolution=RESOLUTION)
    assert view_encodes["n"] == 2
    assert after.base_end == before.base_end + 1
    _assert_same_view(after, local.snapshot(sid, resolution=RESOLUTION))


def test_resolution_subscribers_share_one_body_encode_per_boundary(server, remote, view_encodes):
    sid = remote.create_stream(stream_id="r")
    ts, vs = make_arrivals(200)
    remote.ingest(sid, ts, vs)
    others = [RemoteBackend(*server.address, spec=SPEC) for _ in range(2)]
    try:
        for backend in (remote, *others):
            backend.subscribe(sid, resolution=RESOLUTION)
        start = view_encodes["n"]
        # One refresh boundary: refresh_interval panes of pane_size points.
        n = SPEC.refresh_interval * SPEC.pane_size
        more_ts, more_vs = make_arrivals(n, seed=9, start=200.0)
        remote.ingest(sid, more_ts, more_vs)
        views = []
        for backend in (remote, *others):
            events = [e for e in backend.wait_pushes(1, timeout=10) if e.view is not None]
            assert len(events) == 1
            views.append(events[0].view)
        assert view_encodes["n"] - start == 1
        for view in views[1:]:
            _assert_same_view(view, views[0])
        # A poll of the view the boundary produced re-sends its bytes.
        _assert_same_view(remote.snapshot(sid, resolution=RESOLUTION), views[0])
        assert view_encodes["n"] - start == 1
    finally:
        for backend in others:
            backend.shutdown()


def test_memo_entries_die_on_close(server, remote):
    sid = remote.create_stream(stream_id="c")
    ts, vs = make_arrivals(200)
    remote.ingest(sid, ts, vs)
    remote.snapshot(sid, resolution=RESOLUTION)
    remote.snapshot(sid, resolution=2 * RESOLUTION)
    assert _memo_streams(server).count(sid) == 2
    remote.close(sid)
    gc.collect()
    assert sid not in _memo_streams(server)
    assert all(ref() is not None for ref, _body in server.server._view_bodies.values())


def test_memo_entries_die_on_lru_eviction():
    hub = StreamHub(default_config=SPEC, max_sessions=1)
    handle = serve(hub)
    backend = RemoteBackend(*handle.address, spec=SPEC)
    try:
        ts, vs = make_arrivals(200)
        backend.create_stream(stream_id="old")
        backend.ingest("old", ts, vs)
        backend.snapshot("old", resolution=RESOLUTION)
        assert _memo_streams(handle) == ["old"]
        backend.create_stream(stream_id="new")  # evicts "old"
        assert "old" not in backend
        gc.collect()
        assert _memo_streams(handle) == []
        assert handle.server._view_bodies == {}
    finally:
        backend.shutdown()
        handle.stop()


@pytest.mark.parametrize("limit", [0, -5])
def test_non_positive_message_limit_rejected_at_construction(hub, server, limit):
    with pytest.raises(NetError, match="max_message_bytes"):
        AsapServer(hub, max_message_bytes=limit)
    with pytest.raises(NetError, match="max_message_bytes"):
        RemoteBackend(*server.address, max_message_bytes=limit)
