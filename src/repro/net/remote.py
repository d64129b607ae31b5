"""RemoteBackend: the hub API spoken to an :class:`~repro.net.AsapServer`.

This is the object ``repro.connect("tcp://host:port")`` hands to the
ordinary :class:`~repro.client.Client` façade — it duck-types the hub
surface (``create_stream`` / ``ingest`` / ``backfill`` / ``tick`` /
``snapshot`` / ``close`` / ``stream_ids`` / ``stats`` / ``state_dict`` /
``checkpoint_kind``), so everything layered on hubs works unchanged over
the network, including :func:`repro.persist.checkpoint` (the ``state`` op
returns the server hub's full state tree; the checkpoint is byte-identical
to one taken in-process).

The transport is a single blocking socket guarded by a lock: requests are
written, responses are read in order, and any **push** messages that arrive
interleaved (the server emits them at refresh boundaries, regardless of
what the client is doing) are stashed and surfaced through
:meth:`RemoteBackend.pushes`.  :meth:`call_many` pipelines a batch of
requests — all writes first, then all reads — which is where a network
client earns back round-trip latency.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import select
import socket
import threading
import time
from dataclasses import dataclass

from ..errors import ConnectionClosedError, NetError, WireProtocolError
from ..persist import codec
from . import wire

__all__ = ["RemoteBackend", "PushEvent", "parse_tcp_url"]


def parse_tcp_url(url: str) -> tuple[str, int]:
    """``"tcp://host:port"`` -> ``(host, port)`` (IPv6 hosts in brackets)."""
    if not url.startswith("tcp://"):
        raise NetError(f"remote URL must look like tcp://host:port, got {url!r}")
    rest = url[len("tcp://") :]
    host, sep, port = rest.rpartition(":")
    if not sep or not port.isdigit() or not host:
        raise NetError(f"remote URL must look like tcp://host:port, got {url!r}")
    return host.strip("[]"), int(port)


@dataclass(frozen=True)
class PushEvent:
    """One server-push delivery.

    Exactly one of ``frames`` (a plain subscription: the refresh-boundary
    frames themselves) or ``view`` (a ``resolution=`` subscription: the
    freshly served :class:`~repro.service.ResolutionSnapshot`) is set.
    ``push_dropped`` is the connection's running drop counter at send time —
    it advancing (equivalently, a gap in ``seq``) means this reader was too
    slow and the server's bounded outbox dropped older pushes.
    """

    subscription: int
    stream_id: str
    seq: int
    push_dropped: int
    frames: tuple | None = None
    view: object | None = None


class RemoteBackend:
    """A connected client of one :class:`~repro.net.AsapServer`.

    Not a public entry point — use ``repro.connect("tcp://host:port")`` —
    but usable directly when the raw hub surface is wanted without the
    :class:`~repro.client.Client` façade.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        spec=None,
        timeout: float = 30.0,
        max_message_bytes: int = codec.MAX_MESSAGE_BYTES,
    ) -> None:
        if max_message_bytes < 1:
            raise NetError(f"max_message_bytes must be >= 1, got {max_message_bytes}")
        self._timeout = float(timeout)
        self._max_message_bytes = max_message_bytes
        self._default_config = spec
        self._lock = threading.RLock()
        self._stash: collections.deque[PushEvent] = collections.deque()
        self._request_ids = itertools.count(1)
        self._closed = False
        try:
            self._sock = socket.create_connection((host, port), timeout=self._timeout)
        except OSError as exc:
            raise ConnectionClosedError(
                f"could not connect to tcp://{host}:{port}: {exc}"
            ) from exc
        self._sock.settimeout(self._timeout)
        with contextlib.suppress(OSError):
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            hello = self._read_message()
        except Exception:
            self._sock.close()
            raise
        if hello.get("msg") == "error":
            self._sock.close()
            raise wire.error_from_state(hello["error"])
        if hello.get("msg") != "hello":
            self._sock.close()
            raise WireProtocolError(f"expected a hello, got {hello.get('msg')!r}")
        self.hello = hello
        self._hub_kind = str(hello.get("hub_kind", "streamhub"))

    # -- the hub duck-type surface ----------------------------------------------

    @property
    def default_config(self):
        return self._default_config

    @property
    def checkpoint_kind(self) -> str:
        """The *server* hub's checkpoint kind (from the handshake), so
        ``persist.checkpoint`` stamps a remote-taken checkpoint exactly as an
        in-process one — restorable into the same tier."""
        return self._hub_kind

    def create_stream(self, stream_id=None, config=None, history=None, **overrides) -> str:
        args: dict = {"overrides": dict(overrides)}
        if stream_id is not None:
            args["stream_id"] = str(stream_id)
        if config is not None:
            args["config"] = config.to_dict()
        if history is not None:
            timestamps, values = history
            args["history"] = wire.arrays_state(timestamps, values)
        return str(self._call("create", args)["stream_id"])

    def ingest(self, stream_id: str, timestamps, values) -> list:
        args = {"stream_id": str(stream_id), **wire.arrays_state(timestamps, values)}
        return wire.frames_from_state(self._call("ingest", args)["frames"])

    def ingest_point(self, stream_id: str, timestamp: float, value: float) -> list:
        return self.ingest(stream_id, [timestamp], [value])

    def backfill(self, stream_id: str, timestamps, values):
        args = {"stream_id": str(stream_id), **wire.arrays_state(timestamps, values)}
        return wire.backfill_from_state(self._call("backfill", args))

    def tick(self) -> dict:
        emitted = self._call("tick")["frames"]
        return {str(sid): wire.frames_from_state(frames) for sid, frames in emitted.items()}

    def snapshot(self, stream_id: str, resolution: int | None = None, include_partial: bool = False):
        state = self._call(
            "snapshot",
            {
                "stream_id": str(stream_id),
                "resolution": resolution,
                "include_partial": bool(include_partial),
            },
        )
        return wire.snapshot_from_state(state)

    def close(self, stream_id: str, flush: bool = True) -> list:
        args = {"stream_id": str(stream_id), "flush": bool(flush)}
        return wire.frames_from_state(self._call("close", args)["frames"])

    def stream_ids(self) -> list[str]:
        return [str(sid) for sid in self._call("stream_ids")["stream_ids"]]

    def __len__(self) -> int:
        return int(self._call("len")["count"])

    def __contains__(self, stream_id: str) -> bool:
        return bool(self._call("contains", {"stream_id": str(stream_id)})["contains"])

    @property
    def stats(self):
        return wire.hub_stats_from_state(self._call("stats"))

    def state_dict(self) -> dict:
        """The server hub's full checkpoint state, fetched over the wire."""
        reply = self._call("state")
        if reply["kind"] != self._hub_kind:
            raise WireProtocolError(
                f"server reported kind {reply['kind']!r} at state time but "
                f"{self._hub_kind!r} at handshake"
            )
        return reply["state"]

    # -- subscriptions -----------------------------------------------------------

    def subscribe(
        self, stream_id: str, resolution: int | None = None, include_partial: bool = False
    ) -> int:
        """Ask the server to push this stream's refresh boundaries; returns
        the subscription id.  With *resolution*, each push carries the
        freshly served multi-resolution view instead of raw frames."""
        args = {
            "stream_id": str(stream_id),
            "resolution": resolution,
            "include_partial": bool(include_partial),
        }
        return int(self._call("subscribe", args)["subscription"])

    def unsubscribe(self, subscription: int) -> bool:
        return bool(self._call("unsubscribe", {"subscription": int(subscription)})["removed"])

    def pushes(self, timeout: float = 0.0) -> list:
        """Drain delivered pushes, as :class:`PushEvent` in arrival order.

        With ``timeout=0`` returns whatever has already arrived (stashed
        during request handling or readable right now).  A positive timeout
        blocks until at least one event arrives or the deadline passes,
        then keeps draining without blocking.

        A server EOF while draining ends the stream quietly: everything
        pushed before the close (including a graceful stop's final flush)
        is returned, and the *next* request will raise
        :class:`~repro.errors.ConnectionClosedError`.
        """
        with self._lock:
            events = list(self._stash)
            self._stash.clear()
            deadline = time.monotonic() + float(timeout)
            while True:
                remaining = deadline - time.monotonic()
                wait = 0.0 if events else max(0.0, remaining)
                try:
                    message = self._poll_message(wait)
                except ConnectionClosedError:
                    return events
                if message is None:
                    if events or remaining <= 0:
                        return events
                    continue
                kind = message.get("msg")
                if kind == "push":
                    events.append(self._push_event(message))
                elif kind == "error":
                    raise wire.error_from_state(message["error"])
                else:
                    raise WireProtocolError(
                        f"unexpected {kind!r} message outside a request"
                    )

    def wait_pushes(self, count: int, timeout: float = 10.0) -> list:
        """Collect at least *count* pushes or give up at *timeout*."""
        events: list = []
        deadline = time.monotonic() + float(timeout)
        while len(events) < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            events.extend(self.pushes(timeout=min(0.25, remaining)))
        return events

    # -- server-side introspection ----------------------------------------------

    def server_stats(self) -> dict:
        return self._call("server_stats")

    def ping(self) -> bool:
        return bool(self._call("ping")["pong"])

    # -- transport ---------------------------------------------------------------

    def call_many(self, calls: list) -> list:
        """Pipeline ``[(op, args), ...]``: write every request, then read
        every response in order.  One round trip's latency for the batch.
        Raises the first failed call's error after all responses are read
        (later results are still applied server-side either way)."""
        with self._lock:
            buffer = bytearray()
            ids = []
            for op, args in calls:
                request_id = next(self._request_ids)
                ids.append(request_id)
                buffer += wire.encode_message(
                    {"msg": "request", "id": request_id, "op": str(op), "args": args or {}},
                    limit=self._max_message_bytes,
                )
            self._sendall(bytes(buffer))
            results = []
            first_error = None
            for request_id in ids:
                try:
                    results.append(self._await_response(request_id))
                except (ConnectionClosedError, WireProtocolError):
                    raise  # transport is dead/desynced; nothing more to read
                except Exception as exc:
                    if first_error is None:
                        first_error = exc
                    results.append(None)
            if first_error is not None:
                raise first_error
            return results

    def _call(self, op: str, args: dict | None = None):
        with self._lock:
            request_id = next(self._request_ids)
            self._sendall(
                wire.encode_message(
                    {"msg": "request", "id": request_id, "op": op, "args": args or {}},
                    limit=self._max_message_bytes,
                )
            )
            return self._await_response(request_id)

    def _await_response(self, request_id: int):
        while True:
            message = self._read_message()
            kind = message.get("msg")
            if kind == "push":
                self._stash.append(self._push_event(message))
                continue
            if kind == "error":
                raise wire.error_from_state(message["error"])
            if kind == "response":
                if message.get("id") != request_id:
                    raise WireProtocolError(
                        f"response id {message.get('id')!r} does not match "
                        f"request id {request_id} (pipelining desync)"
                    )
                if message.get("ok"):
                    return message.get("result")
                raise wire.error_from_state(message["error"])
            raise WireProtocolError(f"unexpected message kind {kind!r}")

    def _push_event(self, message: dict) -> PushEvent:
        payload = message["payload"]
        frames = view = None
        flavour = payload.get("type")
        if flavour == "frames":
            frames = tuple(wire.frames_from_state(payload["frames"]))
        elif flavour == "view":
            view = wire.snapshot_from_state(dict(payload["view"]))
        else:
            raise WireProtocolError(f"unknown push payload type {flavour!r}")
        return PushEvent(
            subscription=int(message["subscription"]),
            stream_id=str(message["stream_id"]),
            seq=int(message["seq"]),
            push_dropped=int(message["push_dropped"]),
            frames=frames,
            view=view,
        )

    def _sendall(self, data: bytes) -> None:
        if self._closed:
            raise ConnectionClosedError("this RemoteBackend is shut down")
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ConnectionClosedError(f"send failed: {exc}") from exc

    def _read_exact(self, count: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < count:
            try:
                data = self._sock.recv(count - len(chunks))
            except socket.timeout as exc:
                raise NetError(
                    f"timed out after {self._timeout}s waiting for the server"
                ) from exc
            except OSError as exc:
                raise ConnectionClosedError(f"receive failed: {exc}") from exc
            if not data:
                raise ConnectionClosedError(
                    "server closed the connection"
                    if not chunks
                    else f"server closed the connection mid-message "
                    f"({len(chunks)} of {count} bytes)"
                )
            chunks.extend(data)
        return bytes(chunks)

    def _read_message(self) -> dict:
        header = self._read_exact(codec.WIRE_HEADER_SIZE)
        length = codec.parse_header(header, limit=self._max_message_bytes)
        return wire.decode_payload(self._read_exact(length))

    def _poll_message(self, timeout: float) -> dict | None:
        """One message if the socket turns readable within *timeout*."""
        if self._closed:
            raise ConnectionClosedError("this RemoteBackend is shut down")
        try:
            readable, _, _ = select.select([self._sock], [], [], max(0.0, timeout))
        except OSError as exc:
            raise ConnectionClosedError(f"socket poll failed: {exc}") from exc
        if not readable:
            return None
        return self._read_message()

    # -- lifecycle ---------------------------------------------------------------

    def shutdown(self) -> None:
        """Close the connection (:meth:`Client.close` calls this)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "RemoteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        peer = "closed" if self._closed else "%s:%s" % self._sock.getpeername()[:2]
        return f"RemoteBackend({peer}, hub_kind={self._hub_kind!r})"
