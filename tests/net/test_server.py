"""AsapServer behaviour over a real localhost socket.

Request/response surface, error mapping, pipelining, connection capacity,
hostile/malformed input, handshake version mismatch, and the consistency
guarantee: a client dying mid-conversation leaves the hub's sessions
exactly as the completed operations put them.
"""

from __future__ import annotations

import socket
import struct
import threading

import numpy as np
import pytest

from repro.errors import (
    ConnectionClosedError,
    HubAtCapacityError,
    NetError,
    UnknownStreamError,
    WireProtocolError,
)
from repro.net import wire
from repro.net.remote import RemoteBackend, parse_tcp_url
from repro.net.server import AsapServer, serve
from repro.persist import codec

from netutil import SPEC, make_arrivals


class TestRequestResponse:
    def test_full_surface(self, remote):
        sid = remote.create_stream(stream_id="s")
        assert sid == "s"
        ts, vs = make_arrivals()
        frames = remote.ingest(sid, ts, vs)
        assert all(f.series.values.dtype == np.float64 for f in frames)
        assert remote.tick() == {} or isinstance(remote.tick(), dict)
        snap = remote.snapshot(sid)
        assert snap.stream_id == "s" and snap.points_ingested == len(ts)
        assert snap.config == SPEC
        assert remote.stream_ids() == ["s"]
        assert len(remote) == 1
        assert "s" in remote and "missing" not in remote
        stats = remote.stats
        assert stats.points_ingested == len(ts)
        assert remote.ping()
        closing = remote.close(sid, flush=True)
        assert isinstance(closing, list)
        assert len(remote) == 0

    def test_create_with_overrides_and_history(self, remote, hub):
        ts, vs = make_arrivals(120)
        sid = remote.create_stream(stream_id="h", history=(ts, vs), pane_size=8)
        snap = remote.snapshot(sid)
        assert snap.points_ingested == 120
        assert snap.config.pane_size == 8
        # The server-side hub session is the same object the wire reports on.
        assert hub.snapshot(sid).points_ingested == 120

    def test_errors_arrive_as_their_own_types(self, remote):
        with pytest.raises(UnknownStreamError):
            remote.ingest("nope", [1.0], [2.0])
        with pytest.raises(UnknownStreamError):
            remote.snapshot("nope")
        # Spec validation happens server-side and maps back by name.
        from repro.errors import SpecError

        with pytest.raises(SpecError):
            remote.create_stream(stream_id="bad", pane_size=-1)
        # The connection survives every mapped error.
        assert remote.ping()

    def test_unknown_op_keeps_connection_alive(self, remote):
        with pytest.raises(WireProtocolError, match="unknown op"):
            remote._call("warp_core_breach", {})
        assert remote.ping()

    def test_pipelining_preserves_order_and_results(self, remote):
        ts, vs = make_arrivals(40)
        remote.create_stream(stream_id="p")
        calls = [("ingest", {"stream_id": "p", **wire.arrays_state(ts + i * 40, vs)}) for i in range(5)]
        calls.append(("len", {}))
        results = remote.call_many(calls)
        assert results[-1]["count"] == 1
        snap = remote.snapshot("p")
        assert snap.points_ingested == 200

    def test_pipelined_error_still_raises_after_batch(self, remote):
        remote.create_stream(stream_id="q")
        calls = [
            ("contains", {"stream_id": "q"}),
            ("ingest", {"stream_id": "ghost", **wire.arrays_state([1.0], [1.0])}),
            ("len", {}),
        ]
        with pytest.raises(UnknownStreamError):
            remote.call_many(calls)
        # Transport stays healthy: later calls run fine.
        assert remote.ping()


class TestConnectionLimits:
    def test_max_connections_rejected_with_named_error(self, hub):
        handle = serve(hub, max_connections=2)
        try:
            first = RemoteBackend(*handle.address)
            second = RemoteBackend(*handle.address)
            with pytest.raises(HubAtCapacityError, match="max_connections"):
                RemoteBackend(*handle.address)
            first.shutdown()
            # Capacity is released on disconnect; poll until the server
            # notices the close.
            import time

            deadline = time.monotonic() + 5.0
            third = None
            while time.monotonic() < deadline:
                try:
                    third = RemoteBackend(*handle.address)
                    break
                except HubAtCapacityError:
                    time.sleep(0.01)
            assert third is not None, "slot was never released"
            third.shutdown()
            second.shutdown()
        finally:
            handle.stop()

    def test_mid_request_disconnect_leaves_hub_consistent(self, hub, server):
        ts, vs = make_arrivals(100)
        victim = RemoteBackend(*server.address)
        victim.create_stream(stream_id="v")
        victim.ingest("v", ts, vs)
        # Send a request and slam the socket before reading the response.
        message = wire.encode_message(
            {
                "msg": "request",
                "id": 999,
                "op": "ingest",
                "args": {"stream_id": "v", **wire.arrays_state(ts + 100, vs)},
            }
        )
        victim._sock.sendall(message[: len(message) // 2])
        victim._sock.close()
        # A fresh client sees a consistent session: every *completed* op
        # applied, the half-sent one did not (its bytes never parsed).
        survivor = RemoteBackend(*server.address)
        snap = survivor.snapshot("v")
        assert snap.points_ingested == 100
        survivor.ingest("v", ts + 100, vs)
        assert survivor.snapshot("v").points_ingested == 200
        survivor.shutdown()

    def test_disconnect_after_full_request_applies_it(self, hub, server):
        ts, vs = make_arrivals(60)
        victim = RemoteBackend(*server.address)
        victim.create_stream(stream_id="w")
        # Full request on the wire, then vanish without reading the response.
        victim._sock.sendall(
            wire.encode_message(
                {
                    "msg": "request",
                    "id": 5,
                    "op": "ingest",
                    "args": {"stream_id": "w", **wire.arrays_state(ts, vs)},
                }
            )
        )
        victim._sock.close()
        survivor = RemoteBackend(*server.address)
        deadline_snap = None
        import time

        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            deadline_snap = survivor.snapshot("w")
            if deadline_snap.points_ingested == 60:
                break
            time.sleep(0.01)
        assert deadline_snap.points_ingested == 60
        survivor.shutdown()


class TestHostileInput:
    def _raw(self, server):
        sock = socket.create_connection(server.address, timeout=10)
        sock.settimeout(10)
        return sock

    def _read_msg(self, sock):
        header = b""
        while len(header) < codec.WIRE_HEADER_SIZE:
            chunk = sock.recv(codec.WIRE_HEADER_SIZE - len(header))
            if not chunk:
                return None
            header += chunk
        length = codec.parse_header(header)
        payload = b""
        while len(payload) < length:
            chunk = sock.recv(length - len(payload))
            if not chunk:
                return None
            payload += chunk
        return wire.decode_payload(payload)

    def test_garbage_bytes_get_named_error_then_eof(self, server):
        sock = self._raw(server)
        assert self._read_msg(sock)["msg"] == "hello"
        sock.sendall(b"GET / HTTP/1.1\r\nHost: example.com\r\n\r\n")
        reply = self._read_msg(sock)
        assert reply is not None and reply["msg"] == "error"
        assert reply["error"]["type"] == "WireProtocolError"
        assert "magic" in reply["error"]["message"]
        # Then the server hangs up: next read is EOF, never a hang.
        assert sock.recv(1) == b""
        sock.close()

    def test_oversized_declared_length_rejected(self, server):
        sock = self._raw(server)
        assert self._read_msg(sock)["msg"] == "hello"
        sock.sendall(codec.WIRE_MAGIC + struct.pack(">I", 2**31))
        reply = self._read_msg(sock)
        assert reply["msg"] == "error"
        assert "exceeds" in reply["error"]["message"]
        sock.close()

    def test_garbage_payload_after_valid_header(self, server):
        sock = self._raw(server)
        assert self._read_msg(sock)["msg"] == "hello"
        junk = b"\x00" * 64
        sock.sendall(codec.WIRE_MAGIC + struct.pack(">I", len(junk)) + junk)
        reply = self._read_msg(sock)
        assert reply["msg"] == "error"
        assert reply["error"]["type"] == "WireProtocolError"
        sock.close()

    @pytest.mark.parametrize("hostile", ["deep_nesting", "object_dtype", "huge_shape"])
    def test_hostile_manifest_gets_named_error_then_eof(self, server, hostile):
        """Manifests the codec refuses — nested past the recursion limit, an
        object dtype, a 2**62-element shape — are answered with a named
        protocol error before the hang-up, like any other garbage."""
        head = '{"schema": %d, "kind": "%s", ' % (codec.SCHEMA_VERSION, wire.MESSAGE_KIND)
        state = '"state": {"msg": "request", "id": 1, "args": {"a": {"__npz__": "arr0"}}}}'
        manifest = {
            "deep_nesting": head + '"arrays": [], "state": ' + "[" * 100_000 + "]" * 100_000 + "}",
            "object_dtype": head + '"arrays": [["|O", [1], 0, 8]], ' + state,
            "huge_shape": head + '"arrays": [["<f8", [%d], 0, 8]], ' % 2**62 + state,
        }[hostile].encode()
        payload = codec.ENVELOPE_MAGIC + struct.pack(">I", len(manifest)) + manifest + bytes(8)
        sock = self._raw(server)
        assert self._read_msg(sock)["msg"] == "hello"
        sock.sendall(codec.WIRE_MAGIC + struct.pack(">I", len(payload)) + payload)
        reply = self._read_msg(sock)
        assert reply is not None and reply["msg"] == "error"
        assert reply["error"]["type"] == "WireProtocolError"
        assert "malformed" in reply["error"]["message"]
        assert sock.recv(1) == b""
        sock.close()


class TestHandshake:
    def test_hello_carries_schema_and_kind(self, remote):
        assert remote.hello["schema"] == codec.SCHEMA_VERSION
        assert remote.hello["hub_kind"] == "streamhub"
        assert remote.checkpoint_kind == "streamhub"

    def test_version_mismatch_fails_like_the_codec(self):
        """A server speaking a different schema is rejected at hello time
        with the codec's own schema diagnostic — the protocol version *is*
        the checkpoint version."""
        alien_schema = 999

        # Hand-craft a hello stamped with an alien schema version.
        envelope = codec.dumps(wire.MESSAGE_KIND, {"msg": "hello"})
        # Rewrite the embedded schema integer by re-encoding at the JSON
        # level: envelope magic, u32 manifest length, manifest (no arrays).
        import json

        magic, length = struct.unpack(">4sI", envelope[:8])
        manifest = json.loads(envelope[8 : 8 + length].decode())
        manifest["schema"] = alien_schema
        encoded = json.dumps(manifest).encode()
        payload = magic + struct.pack(">I", len(encoded)) + encoded
        hello = codec.WIRE_MAGIC + struct.pack(">I", len(payload)) + payload

        ready = threading.Event()
        address = {}

        def alien_server():
            listener = socket.socket()
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            address["addr"] = listener.getsockname()
            ready.set()
            conn, _ = listener.accept()
            conn.sendall(hello)
            conn.recv(1)
            conn.close()
            listener.close()

        thread = threading.Thread(target=alien_server, daemon=True)
        thread.start()
        assert ready.wait(10)
        with pytest.raises(WireProtocolError) as excinfo:
            RemoteBackend(*address["addr"])
        message = str(excinfo.value)
        assert "schema version" in message
        assert str(alien_schema) in message
        assert str(codec.SCHEMA_VERSION) in message
        thread.join(10)


class TestLifecycle:
    def test_url_parse_round_trip(self, server):
        host, port = parse_tcp_url(server.url)
        assert (host, port) == server.address

    @pytest.mark.parametrize("bad", ["udp://x:1", "tcp://", "tcp://host", "tcp://host:http"])
    def test_bad_urls_rejected(self, bad):
        with pytest.raises(NetError):
            parse_tcp_url(bad)

    def test_shutdown_client_raises_cleanly(self, server):
        backend = RemoteBackend(*server.address)
        backend.shutdown()
        with pytest.raises(ConnectionClosedError):
            backend.ping()

    def test_server_stop_is_idempotent_and_clients_see_eof(self, hub):
        handle = serve(hub)
        backend = RemoteBackend(*handle.address)
        assert backend.ping()
        handle.stop()
        handle.stop()  # idempotent
        with pytest.raises((ConnectionClosedError, NetError)):
            backend.ping()
        backend.shutdown()

    def test_server_stats_counters(self, remote):
        remote.create_stream(stream_id="s")
        stats = remote.server_stats()
        assert stats["connections_open"] == 1
        assert stats["connections_served"] >= 1
        assert stats["requests_served"] >= 2
        assert stats["push_dropped"] == 0

    def test_double_start_rejected(self, hub):
        server = AsapServer(hub)
        with pytest.raises(NetError, match="not started"):
            server.address  # noqa: B018 — the property raises
