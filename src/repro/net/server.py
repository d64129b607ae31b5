"""AsapServer: the full hub API served over TCP, with server-push frames.

One asyncio server fronts one hub — a :class:`~repro.service.StreamHub` or a
:class:`~repro.cluster.ShardedHub`; the server is tier-agnostic because both
speak the same session API.  Every connection gets:

* a **hello** on accept (schema version, the hub's checkpoint kind, library
  version, message-size limit) — a client built against a different
  checkpoint schema cannot even decode it, which *is* the version check;
* **request/response** over the ops ``create`` / ``ingest`` / ``backfill`` /
  ``tick`` / ``snapshot`` / ``close`` / ``stream_ids`` / ``len`` /
  ``contains`` / ``stats`` / ``state`` / ``subscribe`` / ``unsubscribe`` /
  ``server_stats`` / ``ping``.  Requests are processed in order per
  connection, so a client may **pipeline** (write many, then read many);
* **server-push subscriptions**: at every refresh boundary (inline ingest
  emissions, deferred tick refreshes, backfill closing frames, close-flush frames —
  the hubs' frame-observer hook) each matching subscription gets a push
  message.  A plain subscription carries the frames themselves; a
  ``resolution=`` subscription carries the freshly served
  multi-resolution view instead, computed once per (stream, resolution)
  per boundary and shared across subscribers.

**Encode once, send many.**  Every body that more than one message
carries is encoded once (:func:`repro.persist.codec.encode_body`) and each
message is spliced around it (:func:`repro.net.wire.splice_message`),
byte-identical to encoding the whole message:

* a multi-resolution view's body is memoized per
  :class:`~repro.service.hub.ResolutionSnapshot` *object*.  The hub's view
  cache hands back the same frozen object (read-only arrays) until the
  next pane completes, so every poll of an unchanged view, and the pushes
  of the boundary that produced it, re-send the same bytes.  The memo
  holds only a weak reference to the snapshot: its entry dies with the
  object, when the hub drops the cache entry (a stale version, the
  per-session bound, ``close``, eviction).  It needs no bound of its own.
  Process-shard hubs return a fresh object per call and simply never hit;
* at a push boundary, each stream's frames body and each view body are
  encoded once and spliced per subscriber, whose messages differ only in
  ``subscription``, ``seq`` and ``push_dropped``.

**Write-through delivery.**  A boundary is dispatched stream by stream, in
the order the hub emitted it; only the subscriptions of the streams in the
boundary are touched (they are indexed by stream id).  As soon as one
stream's pushes for a connection are queued, they are written straight to
the transport if nothing is ahead of them: the connection's writer task is
idle and the transport holds no unsent bytes.  A push therefore leaves at
its refresh boundary, not when the request loop next yields, and on the
connection whose request produced it, it may precede that request's
response (:class:`~repro.net.remote.RemoteBackend` stashes such pushes).
Within one tick, pushes across streams follow the tick's emission order.

**Backpressure.**  Otherwise — a congested transport, or a writer task
already sending — the pushes wait in a bounded per-connection outbox
(``subscribe_queue`` messages) that the writer task drains one push per
transport drain.  A full outbox drops its *oldest* push, and the drop is
counted; so is a push too big to frame, which never fails the request that
produced it.  Each push's ``push_dropped`` is stamped when it is sent, so a
``seq`` gap and the counter's advance arrive on the same push.
``pushes_sent`` counts every push handed to the transport, by either path.
Responses are never queued behind pushes and are never dropped.

**Hub calls run on the event loop thread.**  That serializes all remote
operations, which is exactly the concurrency contract ``ShardedHub``
requires (it is coordinator-single-threaded by design); ``StreamHub`` is
internally locked either way.  External ingest threads (a hub shared
between in-process producers and this server) are safe: the observer hops
frames onto the loop with ``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import threading
import weakref
from dataclasses import dataclass

from ..errors import (
    ConnectionClosedError,
    HubAtCapacityError,
    NetError,
    WireProtocolError,
)
from ..persist import codec
from ..service.hub import ResolutionSnapshot
from ..spec import AsapSpec
from . import wire

__all__ = ["AsapServer", "ServerHandle", "serve"]

#: How long a graceful stop waits for each connection's queued pushes to
#: drain before force-closing the socket.
DRAIN_TIMEOUT = 5.0


class _Subscription:
    __slots__ = ("sub_id", "conn", "stream_id", "resolution", "include_partial", "seq")

    def __init__(self, sub_id, conn, stream_id, resolution, include_partial):
        self.sub_id = sub_id
        self.conn = conn
        self.stream_id = stream_id
        self.resolution = resolution
        self.include_partial = include_partial
        self.seq = 0


class _Connection:
    __slots__ = ("writer", "outbox", "wakeup", "subs", "push_dropped", "closing", "writer_task")

    def __init__(self, writer):
        self.writer = writer
        #: Queued push heads, each holding its pre-encoded body; the
        #: ``push_dropped`` stamp and the framing happen when it is sent.
        self.outbox: collections.deque[dict] = collections.deque()
        #: Set from the moment the writer task is woken until its outbox
        #: loop ends: while set, the writer task owns the outbox.
        self.wakeup = asyncio.Event()
        self.subs: dict[int, _Subscription] = {}
        self.push_dropped = 0
        self.closing = False
        self.writer_task: asyncio.Task | None = None


class AsapServer:
    """Serve one hub's API over TCP; see the module docstring.

    ``max_connections`` and ``subscribe_queue`` default to the hub's
    ``default_config`` spec (the serving knobs added in schema 6), so a
    cluster provisioned through one :class:`~repro.spec.AsapSpec` carries
    its serving limits into the network tier with no extra wiring.
    """

    def __init__(
        self,
        hub,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int | None = None,
        subscribe_queue: int | None = None,
        max_message_bytes: int = codec.MAX_MESSAGE_BYTES,
    ) -> None:
        spec = getattr(hub, "default_config", None) or AsapSpec()
        self.hub = hub
        self.max_connections = max_connections if max_connections is not None else spec.max_connections
        self.subscribe_queue = subscribe_queue if subscribe_queue is not None else spec.subscribe_queue
        if self.max_connections < 1:
            raise NetError(f"max_connections must be >= 1, got {self.max_connections}")
        if self.subscribe_queue < 1:
            raise NetError(f"subscribe_queue must be >= 1, got {self.subscribe_queue}")
        if max_message_bytes < 1:
            raise NetError(f"max_message_bytes must be >= 1, got {max_message_bytes}")
        self.max_message_bytes = max_message_bytes
        self._host = host
        self._port = port
        self._server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._address: tuple[str, int] | None = None
        self._closed = False
        self._connections: set[_Connection] = set()
        #: stream id -> {subscription id: subscription}, across connections.
        self._subscribers: dict[str, dict[int, _Subscription]] = {}
        self._next_sub_id = 1
        self._connections_served = 0
        self._connections_rejected = 0
        self._requests_served = 0
        self._pushes_sent = 0
        self._push_dropped = 0
        #: id(view) -> (weak reference to the view, its encoded body).
        self._view_bodies: dict[int, tuple[weakref.ref, codec.EncodedBody]] = {}

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> "AsapServer":
        if self._server is not None:
            raise NetError("server already started")
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(self._handle, self._host, self._port)
        self._address = self._server.sockets[0].getsockname()[:2]
        self.hub.add_frame_observer(self._observe_frames)
        return self

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise NetError("server not started")
        return self._address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"tcp://{host}:{port}"

    async def stop(self, flush: bool = True) -> None:
        """Stop serving; with *flush*, run one final hub tick first so every
        deferred refresh is emitted and pushed, then drain each outbox
        (bounded by :data:`DRAIN_TIMEOUT`) before closing the sockets."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
        if flush:
            # A downed shard must not block shutdown; its frames are simply
            # not emitted (the same contract as ShardedHub.tick itself).
            with contextlib.suppress(Exception):
                self.hub.tick()
        self.hub.remove_frame_observer(self._observe_frames)
        for conn in list(self._connections):
            conn.closing = True
            conn.wakeup.set()
        for conn in list(self._connections):
            if conn.writer_task is not None:
                try:
                    await asyncio.wait_for(conn.writer_task, timeout=DRAIN_TIMEOUT)
                except (asyncio.TimeoutError, asyncio.CancelledError):
                    conn.writer_task.cancel()
            with contextlib.suppress(Exception):
                conn.writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        self._connections.clear()

    # -- connection handling ----------------------------------------------------

    def _hello_state(self) -> dict:
        from .. import __version__

        return {
            "msg": "hello",
            "schema": codec.SCHEMA_VERSION,
            "hub_kind": getattr(self.hub, "checkpoint_kind", "unknown"),
            "server": "repro-asap",
            "version": __version__,
            "max_message_bytes": self.max_message_bytes,
        }

    async def _handle(self, reader, writer) -> None:
        if self._closed or len(self._connections) >= self.max_connections:
            self._connections_rejected += 1
            error = HubAtCapacityError(
                f"server is at max_connections={self.max_connections}"
            )
            with contextlib.suppress(Exception):
                writer.write(wire.encode_message({"msg": "error", "error": wire.error_state(error)}))
                await writer.drain()
                writer.close()
            return
        conn = _Connection(writer)
        self._connections.add(conn)
        self._connections_served += 1
        conn.writer_task = asyncio.ensure_future(self._push_writer(conn))
        try:
            writer.write(wire.encode_message(self._hello_state(), limit=self.max_message_bytes))
            await writer.drain()
            while not self._closed:
                message = await self._read_message(reader)
                response = self._process(conn, message)
                if isinstance(response.get("result"), codec.EncodedBody):
                    data = wire.splice_message(response, limit=self.max_message_bytes)
                else:
                    data = wire.encode_message(response, limit=self.max_message_bytes)
                writer.write(data)
                await writer.drain()
        except ConnectionClosedError:
            pass  # the client hung up — every op it completed has applied
        except WireProtocolError as exc:
            # Garbage, truncation, oversize: name the problem, then hang up.
            with contextlib.suppress(Exception):
                writer.write(wire.encode_message({"msg": "error", "error": wire.error_state(exc)}))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._drop_connection(conn)

    async def _read_message(self, reader) -> dict:
        try:
            header = await reader.readexactly(codec.WIRE_HEADER_SIZE)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                raise ConnectionClosedError("peer closed the connection") from exc
            raise WireProtocolError(
                f"truncated wire header: connection closed after "
                f"{len(exc.partial)} of {codec.WIRE_HEADER_SIZE} bytes"
            ) from exc
        length = codec.parse_header(header, limit=self.max_message_bytes)
        try:
            payload = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise WireProtocolError(
                f"truncated wire message: connection closed after "
                f"{len(exc.partial)} of {length} payload bytes"
            ) from exc
        return wire.decode_payload(payload)

    def _drop_connection(self, conn: _Connection) -> None:
        self._connections.discard(conn)
        for sub in conn.subs.values():
            self._forget(sub)
        conn.subs.clear()
        conn.closing = True
        conn.wakeup.set()
        with contextlib.suppress(Exception):
            conn.writer.close()

    async def _push_writer(self, conn: _Connection) -> None:
        try:
            while True:
                await conn.wakeup.wait()
                while (data := self._next_push(conn)) is not None:
                    conn.writer.write(data)
                    self._pushes_sent += 1
                    await conn.writer.drain()
                conn.wakeup.clear()
                if conn.closing:
                    return
        except (ConnectionError, asyncio.CancelledError, RuntimeError):
            return

    # -- request dispatch -------------------------------------------------------

    def _process(self, conn: _Connection, message: dict) -> dict:
        if message.get("msg") != "request":
            raise WireProtocolError(
                f"expected a request, got message kind {message.get('msg')!r}"
            )
        request_id = message.get("id")
        op = str(message.get("op"))
        handler = self._OPS.get(op)
        self._requests_served += 1
        if handler is None:
            error = WireProtocolError(f"unknown op {op!r}")
            return {
                "msg": "response",
                "id": request_id,
                "ok": False,
                "error": wire.error_state(error),
            }
        try:
            result = handler(self, conn, message.get("args") or {})
            return {"msg": "response", "id": request_id, "ok": True, "result": result}
        except Exception as exc:
            return {
                "msg": "response",
                "id": request_id,
                "ok": False,
                "error": wire.error_state(exc),
            }

    def _op_create(self, conn, args) -> dict:
        config = args.get("config")
        if config is not None:
            config = AsapSpec.from_dict(config)
        history = args.get("history")
        if history is not None:
            history = (history["timestamps"], history["values"])
        stream_id = self.hub.create_stream(
            args.get("stream_id"),
            config=config,
            history=history,
            **(args.get("overrides") or {}),
        )
        return {"stream_id": stream_id}

    def _op_ingest(self, conn, args) -> dict:
        frames = self.hub.ingest(args["stream_id"], args["timestamps"], args["values"])
        return {"frames": wire.frames_state(frames)}

    def _op_backfill(self, conn, args) -> dict:
        result = self.hub.backfill(args["stream_id"], args["timestamps"], args["values"])
        return wire.backfill_state(result)

    def _op_tick(self, conn, args) -> dict:
        emitted = self.hub.tick()
        return {"frames": {sid: wire.frames_state(frames) for sid, frames in emitted.items()}}

    def _op_snapshot(self, conn, args) -> dict | codec.EncodedBody:
        resolution = args.get("resolution")
        snap = self.hub.snapshot(
            args["stream_id"],
            resolution=None if resolution is None else int(resolution),
            include_partial=bool(args.get("include_partial", False)),
        )
        if isinstance(snap, ResolutionSnapshot):
            return self._view_body(snap)
        return wire.snapshot_state(snap)

    def _view_body(self, view: ResolutionSnapshot) -> codec.EncodedBody:
        """*view*'s wire body, encoded once per view object (module docstring)."""
        key = id(view)
        entry = self._view_bodies.get(key)
        if entry is not None and entry[0]() is view:
            return entry[1]
        body = codec.encode_body(wire.snapshot_state(view))
        bodies = self._view_bodies

        def forget(ref, key=key):
            # Runs as the view is freed, before another object can take its
            # id.  At worst a stray pop costs a later view one re-encode.
            bodies.pop(key, None)

        bodies[key] = (weakref.ref(view, forget), body)
        return body

    def _op_close(self, conn, args) -> dict:
        frames = self.hub.close(args["stream_id"], flush=bool(args.get("flush", True)))
        return {"frames": wire.frames_state(frames)}

    def _op_stream_ids(self, conn, args) -> dict:
        return {"stream_ids": list(self.hub.stream_ids())}

    def _op_len(self, conn, args) -> dict:
        return {"count": len(self.hub)}

    def _op_contains(self, conn, args) -> dict:
        return {"contains": args["stream_id"] in self.hub}

    def _op_stats(self, conn, args) -> dict:
        return wire.hub_stats_state(self.hub.stats)

    def _op_state(self, conn, args) -> dict:
        return {
            "kind": getattr(self.hub, "checkpoint_kind", "unknown"),
            "state": self.hub.state_dict(),
        }

    def _op_subscribe(self, conn, args) -> dict:
        stream_id = str(args["stream_id"])
        if stream_id not in self.hub:
            from ..errors import UnknownStreamError

            raise UnknownStreamError(stream_id)
        resolution = args.get("resolution")
        sub = _Subscription(
            self._next_sub_id,
            conn,
            stream_id,
            None if resolution is None else int(resolution),
            bool(args.get("include_partial", False)),
        )
        self._next_sub_id += 1
        conn.subs[sub.sub_id] = sub
        self._subscribers.setdefault(stream_id, {})[sub.sub_id] = sub
        return {"subscription": sub.sub_id}

    def _op_unsubscribe(self, conn, args) -> dict:
        removed = conn.subs.pop(int(args["subscription"]), None)
        if removed is not None:
            self._forget(removed)
        return {"removed": removed is not None}

    def _forget(self, sub: _Subscription) -> None:
        subs = self._subscribers[sub.stream_id]
        del subs[sub.sub_id]
        if not subs:
            del self._subscribers[sub.stream_id]

    def _op_server_stats(self, conn, args) -> dict:
        return self.server_stats()

    def _op_ping(self, conn, args) -> dict:
        return {"pong": True}

    _OPS = {
        "create": _op_create,
        "ingest": _op_ingest,
        "backfill": _op_backfill,
        "tick": _op_tick,
        "snapshot": _op_snapshot,
        "close": _op_close,
        "stream_ids": _op_stream_ids,
        "len": _op_len,
        "contains": _op_contains,
        "stats": _op_stats,
        "state": _op_state,
        "subscribe": _op_subscribe,
        "unsubscribe": _op_unsubscribe,
        "server_stats": _op_server_stats,
        "ping": _op_ping,
    }

    # -- push delivery ----------------------------------------------------------

    def _observe_frames(self, frames: dict) -> None:
        """Hub frame-observer callback; may fire on any thread."""
        loop = self._loop
        if loop is None:
            return
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            self._dispatch_frames(frames)
        else:
            with contextlib.suppress(RuntimeError):  # loop already closed
                loop.call_soon_threadsafe(self._dispatch_frames, frames)

    def _dispatch_frames(self, frames: dict) -> None:
        # Stream by stream, in the boundary's emission order: the stream's
        # frames body and each of its (resolution, partial) views are
        # encoded once and spliced into every subscriber's push, and each
        # subscribing connection is flushed as soon as its pushes for the
        # stream are queued.
        for stream_id, stream_frames in frames.items():
            subs = self._subscribers.get(stream_id)
            if not subs:
                continue
            payloads: dict[tuple | None, dict | None] = {}
            touched: dict[_Connection, None] = {}
            for sub in subs.values():
                if sub.conn.closing:
                    continue
                key = None if sub.resolution is None else (sub.resolution, sub.include_partial)
                if key not in payloads:
                    payloads[key] = self._push_payload(sub, stream_frames)
                if payloads[key] is None:
                    continue
                self._queue_push(sub, payloads[key])
                touched[sub.conn] = None
            for conn in touched:
                self._flush(conn)

    def _push_payload(self, sub: _Subscription, frames: list) -> dict | None:
        """The push payload *sub* gets for this boundary, or None to skip it."""
        if sub.resolution is None:
            return {"type": "frames", "frames": codec.encode_body(wire.frames_state(frames))}
        try:
            view = self.hub.snapshot(
                sub.stream_id, resolution=sub.resolution, include_partial=sub.include_partial
            )
        except Exception:
            # Not servable at this width yet (or the stream just closed):
            # skip this boundary, not the subscription.
            return None
        return {"type": "view", "view": self._view_body(view)}

    def _queue_push(self, sub: _Subscription, payload: dict) -> None:
        """Queue one push on *sub*'s connection; a full outbox drops its
        oldest push to make room."""
        conn = sub.conn
        sub.seq += 1
        if len(conn.outbox) >= self.subscribe_queue:
            conn.outbox.popleft()
            conn.push_dropped += 1
            self._push_dropped += 1
        conn.outbox.append(
            {
                "msg": "push",
                "subscription": sub.sub_id,
                "stream_id": sub.stream_id,
                "seq": sub.seq,
                "push_dropped": None,
                "payload": payload,
            }
        )

    def _next_push(self, conn: _Connection) -> bytes | None:
        """Take *conn*'s oldest queued push, framed; None when none is left.

        ``push_dropped`` is stamped now, at send time, so it counts every
        older push the connection lost: a ``seq`` gap and the counter's
        advance arrive on the same push.  A push too big to frame is itself
        dropped and counted; the request that produced it is unaffected.
        """
        while conn.outbox:
            head = conn.outbox.popleft()
            head["push_dropped"] = conn.push_dropped
            try:
                return wire.splice_message(head, limit=self.max_message_bytes)
            except WireProtocolError:
                conn.push_dropped += 1
                self._push_dropped += 1
        return None

    def _flush(self, conn: _Connection) -> None:
        """Write *conn*'s queued pushes through if nothing is ahead of them,
        else wake its writer task.

        Nothing is ahead when the writer task is neither woken nor mid-drain
        and the transport is open and holds no unsent bytes (a closing
        connection is never dispatched to).  The writer task instead sends
        one push per drain, behind the transport's flow control, so a slow
        reader's pushes wait in the bounded outbox.
        """
        transport = conn.writer.transport
        if conn.wakeup.is_set() or transport.is_closing() or transport.get_write_buffer_size():
            conn.wakeup.set()
            return
        messages = []
        while (data := self._next_push(conn)) is not None:
            messages.append(data)
        conn.writer.writelines(messages)
        self._pushes_sent += len(messages)

    # -- accounting -------------------------------------------------------------

    def server_stats(self) -> dict:
        """Lifetime serving counters (plain dict, wire-friendly)."""
        return {
            "connections_open": len(self._connections),
            "connections_served": self._connections_served,
            "connections_rejected": self._connections_rejected,
            "requests_served": self._requests_served,
            "subscriptions_active": sum(len(c.subs) for c in self._connections),
            "pushes_sent": self._pushes_sent,
            "push_dropped": self._push_dropped,
        }

    def __repr__(self) -> str:
        where = self._address or (self._host, self._port)
        return f"AsapServer({where[0]}:{where[1]}, connections={len(self._connections)})"


@dataclass
class ServerHandle:
    """A running server on a background thread; see :func:`serve`."""

    server: AsapServer
    _loop: asyncio.AbstractEventLoop
    _thread: threading.Thread
    _stopped: bool = False

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    @property
    def url(self) -> str:
        return self.server.url

    def stop(self, flush: bool = True, timeout: float = 30.0) -> None:
        """Gracefully stop the server and join its thread (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        future = asyncio.run_coroutine_threadsafe(self.server.stop(flush=flush), self._loop)
        try:
            future.result(timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve(hub, host: str = "127.0.0.1", port: int = 0, **kwargs) -> ServerHandle:
    """Start an :class:`AsapServer` on a daemon thread; returns its handle.

    ``port=0`` binds an ephemeral port; read the actual address off
    ``handle.address`` / ``handle.url``.  The handle is a context manager
    whose exit performs a graceful flush-and-stop.
    """
    started = threading.Event()
    box: dict = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = AsapServer(hub, host, port, **kwargs)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # surface bind errors to the caller
            box["error"] = exc
            started.set()
            loop.close()
            return
        box["loop"], box["server"] = loop, server
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="asap-server", daemon=True)
    thread.start()
    if not started.wait(30.0):
        raise NetError("server did not start within 30s")
    if "error" in box:
        raise box["error"]
    return ServerHandle(box["server"], box["loop"], thread)
