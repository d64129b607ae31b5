"""repro.client — one façade over every serving tier.

Programs used to choose a serving tier by *import path*: ``repro.core`` for
one series, ``repro.engine`` for a dashboard batch, ``repro.service`` for
live streams, ``repro.cluster`` for multi-process serving — each with its own
configuration spelling.  :func:`connect` replaces that with one argument::

    import repro

    client = repro.connect("local")             # in-process
    client = repro.connect("hub")               # explicit serving tier
    client = repro.connect("sharded", shards=4, shard_backend="process")
    client = repro.connect("tcp://10.0.0.5:7450")   # a repro.serve() server

    result = client.smooth(values, resolution=800)      # SmoothingResult
    batch = client.smooth_many(dashboard)               # BatchResult
    stream = client.stream(pane_size=4)                 # StreamHandle
    stream.ingest(timestamps, values)                   # list[Frame]
    client.tick()                                       # {stream_id: [Frame, ...]}
    client.checkpoint("state.ckpt")                     # durable snapshot
    client = repro.client.restore("state.ckpt")         # resume, bit-identical

The same program scales from one in-process series to a multi-process
sharded cluster to a networked server by changing the *backend* argument;
nothing else in the lifecycle changes.  A ``tcp://host:port`` backend
additionally offers **server-push subscriptions**
(:meth:`Client.subscribe` / :meth:`Client.pushes`): the server delivers
each refresh boundary's frames — or a chosen-resolution view — without
polling.

**Uniform result envelope.**  Every backend returns the same types:
``smooth`` a :class:`~repro.core.result.SmoothingResult`, ``smooth_many`` a
:class:`~repro.engine.BatchResult`, ingestion a ``list`` of
:class:`~repro.core.streaming.Frame`, ``tick`` a ``dict`` of stream id to
frame list, ``snapshot`` a ``SessionSnapshot``/``ResolutionSnapshot``.  The
frames themselves are **bit-identical across backends** for the same inputs
(sessions are partitioned, never split — the repo-wide equivalence law,
pinned in ``tests/client``).

**Configuration** flows through :class:`~repro.spec.AsapSpec`: ``connect``
takes a spec (or spec fields) as the session default; ``smooth`` /
``smooth_many`` / ``stream`` accept a spec or per-call field overrides.
"""

from __future__ import annotations

from . import persist
from .cluster import ShardedHub
from .engine.batch_engine import BatchEngine, BatchResult
from .errors import NetError, SpecError
from .service import StreamHub
from .spec import AsapSpec, resolve_spec

__all__ = ["connect", "restore", "Client", "StreamHandle", "BACKENDS"]

#: Serving tiers :func:`connect` can hand back, in escalation order; a
#: ``tcp://host:port`` URL (the network tier, :mod:`repro.net`) also works.
BACKENDS = ("local", "hub", "sharded")


def connect(
    backend: str = "local",
    spec: AsapSpec | None = None,
    *,
    max_sessions: int = 1024,
    max_panes_per_session: int = 4096,
    eviction_policy: str = "lru",
    idle_ticks_before_eviction: int | None = None,
    shards: int = 4,
    shard_backend: str = "inprocess",
    replicas: int = 64,
    workers: int | None = None,
    executor: str = "thread",
    **spec_overrides,
) -> "Client":
    """Open a :class:`Client` on one of the serving tiers.

    Parameters
    ----------
    backend:
        ``"local"`` — everything in-process (streams run on a private
        :class:`~repro.service.StreamHub`, so the full lifecycle including
        checkpointing works with zero serving setup); ``"hub"`` — the same
        engine behind the explicitly provisioned multi-tenant tier (the
        serving options below are meant to be set here); ``"sharded"`` — a
        :class:`~repro.cluster.ShardedHub` fanning streams across *shards*
        workers; ``"tcp://host:port"`` — a remote :func:`repro.serve`
        server (frames stay bit-identical; the serving budgets below are
        the server's to set, and :meth:`Client.subscribe` becomes
        available).
    spec:
        Session-default :class:`~repro.spec.AsapSpec`; extra keyword
        arguments that name spec fields (``resolution=400``, ``pane_size=4``)
        override it — or build one when *spec* is omitted.
    max_sessions / max_panes_per_session / eviction_policy /
    idle_ticks_before_eviction:
        Serving-tier budgets, exactly as :class:`~repro.service.StreamHub`
        takes them (per shard on the sharded backend).
    shards / shard_backend / replicas:
        Sharded backend only: worker count, ``"inprocess"`` or ``"process"``
        workers, and virtual nodes per shard on the hash ring.
    workers / executor:
        Batch-engine fan-out for :meth:`Client.smooth_many`.
    """
    if backend.startswith("tcp://"):
        from .net.remote import RemoteBackend, parse_tcp_url

        host, port = parse_tcp_url(backend)
        resolved = resolve_spec(spec, **spec_overrides)
        hub = RemoteBackend(host, port, spec=resolved)
        return Client("tcp", resolved, hub, workers=workers, executor=executor)
    if backend not in BACKENDS:
        raise SpecError(
            f"backend must be one of {', '.join(BACKENDS)} or a tcp://host:port "
            f"URL; got {backend!r}"
        )
    resolved = resolve_spec(spec, **spec_overrides)
    serving = dict(
        max_panes_per_session=max_panes_per_session,
        default_config=resolved,
        eviction_policy=eviction_policy,
        idle_ticks_before_eviction=idle_ticks_before_eviction,
    )
    if backend == "sharded":
        hub = ShardedHub(
            shards=shards,
            backend=shard_backend,
            replicas=replicas,
            max_sessions_per_shard=max_sessions,
            **serving,
        )
    else:
        hub = StreamHub(max_sessions=max_sessions, **serving)
    return Client(backend, resolved, hub, workers=workers, executor=executor)


def restore(source, *, shard_backend: str | None = None) -> "Client":
    """Reopen a :class:`Client` from a checkpoint (``bytes`` or a path).

    The payload's kind picks the backend: ``"streamhub"`` payloads come back
    as a ``"hub"`` client, ``"sharded-hub"`` payloads as a ``"sharded"``
    client (*shard_backend* overrides the checkpointed worker backend).  The
    restored client's streams emit bit-identical subsequent frames to an
    uninterrupted client's — the :mod:`repro.persist` guarantee surfaced at
    the façade.
    """
    kwargs = {} if shard_backend is None else {"backend": shard_backend}
    hub = persist.restore(source, **kwargs)
    backend = "sharded" if isinstance(hub, ShardedHub) else "hub"
    return Client(backend, hub.default_config or AsapSpec(), hub)


class Client:
    """A connected session against one serving tier; see :func:`connect`."""

    def __init__(
        self,
        backend: str,
        spec: AsapSpec,
        hub,
        workers: int | None = None,
        executor: str = "thread",
    ) -> None:
        self.backend = backend
        self.spec = spec
        self._hub = hub
        self._workers = workers
        self._executor = executor
        self._engines: dict[AsapSpec, BatchEngine] = {}
        # Frames another stream's handle-level tick() surfaced but did not
        # own; they belong to the next tick()/close of their own stream.
        self._pending_frames: dict[str, list] = {}

    #: Engines (each holding a search-state cache) kept per distinct spec; least
    #: recently used beyond this are dropped, so per-call override sweeps
    #: (e.g. arbitrary client resolutions) cannot grow memory unboundedly.
    MAX_CACHED_ENGINES = 8

    # -- configuration ----------------------------------------------------------

    def _resolved(self, spec: AsapSpec | None, overrides: dict, hint: str = "") -> AsapSpec:
        return resolve_spec(self.spec if spec is None else spec, hint=hint, **overrides)

    def _engine_for(self, spec: AsapSpec) -> BatchEngine:
        engine = self._engines.pop(spec, None)
        if engine is None:
            engine = BatchEngine(spec=spec, workers=self._workers, executor=self._executor)
            while len(self._engines) >= self.MAX_CACHED_ENGINES:
                self._engines.pop(next(iter(self._engines)))
        self._engines[spec] = engine  # (re)insert at the LRU tail
        return engine

    # -- one-shot smoothing -----------------------------------------------------

    def smooth(self, data, spec: AsapSpec | None = None, **overrides):
        """Smooth one series; returns a :class:`~repro.core.result.SmoothingResult`.

        Runs at the coordinator on every backend — a single search is always
        cheapest in-process; the serving tiers exist for the *streaming* and
        *many-series* workloads.
        """
        from .core.batch import smooth

        return smooth(data, spec=self._resolved(spec, overrides))

    def smooth_many(self, batch, spec: AsapSpec | None = None, **overrides) -> BatchResult:
        """Smooth a whole batch; returns a :class:`~repro.engine.BatchResult`.

        Engines are kept per spec, so repeated refreshes with the same
        configuration share the search-state cache exactly as a hand-held
        :class:`~repro.engine.BatchEngine` would.
        """
        return self._engine_for(self._resolved(spec, overrides)).smooth_many(batch)

    # -- streaming lifecycle ----------------------------------------------------

    def stream(
        self,
        spec: AsapSpec | None = None,
        stream_id: str | None = None,
        history: tuple | None = None,
        **overrides,
    ) -> "StreamHandle":
        """Open one streaming session; returns a :class:`StreamHandle`.

        *history* is an optional ``(timestamps, values)`` archive bulk-folded
        into the fresh session via :meth:`backfill` before the handle is
        returned — the stream starts exactly where point-by-point replay
        would have left it, at batch-ingest speed.
        """
        resolved = self._resolved(spec, overrides, hint="to name the stream, pass stream_id=...")
        sid = self._hub.create_stream(stream_id, config=resolved, history=history)
        return StreamHandle(self, sid, resolved)

    def ingest(self, stream_id: str, timestamps, values) -> list:
        """Fold arrivals into one stream; returns the inline frames."""
        return list(self._hub.ingest(stream_id, timestamps, values))

    def backfill(self, stream_id: str, timestamps, values):
        """Replay an archive into one stream through the bulk lane; returns a
        :class:`~repro.core.streaming.BackfillResult`.

        Every frame the stream emits afterwards is bit-identical to having
        streamed the archive point by point (the repo-wide equivalence law);
        only the interior per-frame work is skipped.
        """
        return self._hub.backfill(stream_id, timestamps, values)

    def tick(self) -> dict:
        """Run every deferred refresh; frames keyed by stream id.

        Frames a handle-level :meth:`StreamHandle.tick` produced for *other*
        streams surface here first (they are older than anything this tick
        emits) — no frame is ever dropped between the two tick spellings,
        and a raising backend tick (e.g. ``ShardDownError``) leaves the
        stash intact for the retry after recovery.
        """
        emitted = self._hub.tick()  # may raise; the stash must survive that
        frames: dict[str, list] = self._pending_frames
        self._pending_frames = {}
        for stream_id, new in emitted.items():
            frames.setdefault(stream_id, []).extend(new)
        return frames

    def snapshot(
        self, stream_id: str, resolution: int | None = None, include_partial: bool = False
    ):
        """Point-in-time view of one stream (never triggers a refresh)."""
        return self._hub.snapshot(
            stream_id, resolution=resolution, include_partial=include_partial
        )

    def close_stream(self, stream_id: str, flush: bool = True) -> list:
        """Remove one stream; with *flush*, returns its final frame(s).

        Frames stashed for this stream by another handle's tick are
        delivered first when flushing, discarded otherwise — mirroring how
        the cluster tier treats its coordinator-stashed frames on close.  A
        raising close (the stream was already evicted, say) leaves the
        stash untouched rather than silently destroying it.
        """
        closed = list(self._hub.close(stream_id, flush=flush))  # may raise
        pending = self._pending_frames.pop(stream_id, [])
        return pending + closed if flush else closed

    # -- server push (tcp backend) ----------------------------------------------

    def _push_surface(self, what: str):
        method = getattr(self._hub, what, None)
        if method is None:
            raise NetError(
                f"{what} requires a tcp:// backend (server-push subscriptions "
                f"live on the network tier); this client is {self.backend!r}"
            )
        return method

    def subscribe(
        self, stream_id: str, resolution: int | None = None, include_partial: bool = False
    ) -> int:
        """Ask the server to push *stream_id*'s refresh boundaries; returns
        the subscription id.  With *resolution*, pushes carry the freshly
        served multi-resolution view instead of raw frames.  ``tcp://``
        backends only — the in-process tiers return frames from
        ``ingest``/``tick`` directly."""
        return self._push_surface("subscribe")(
            stream_id, resolution=resolution, include_partial=include_partial
        )

    def unsubscribe(self, subscription: int) -> bool:
        return self._push_surface("unsubscribe")(subscription)

    def pushes(self, timeout: float = 0.0) -> list:
        """Drain server-push deliveries (:class:`repro.net.PushEvent`);
        see :meth:`repro.net.RemoteBackend.pushes`."""
        return self._push_surface("pushes")(timeout=timeout)

    def stream_ids(self) -> list[str]:
        return self._hub.stream_ids()

    def __len__(self) -> int:
        return len(self._hub)

    def __contains__(self, stream_id: str) -> bool:
        return stream_id in self._hub

    @property
    def stats(self):
        """Aggregate serving stats (:class:`~repro.service.HubStats`)."""
        return self._hub.stats

    @property
    def hub(self):
        """The underlying serving object, for tier-specific operations
        (shard membership on ``"sharded"``, session export on ``"hub"``)."""
        return self._hub

    # -- durability -------------------------------------------------------------

    def checkpoint(self, path=None):
        """Snapshot the serving state durably; ``bytes``, or the path written."""
        return persist.checkpoint(self._hub, path)

    restore = staticmethod(restore)

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (stops sharded workers; in-process
        backends have nothing to stop).  Streams are not flushed."""
        shutdown = getattr(self._hub, "shutdown", None)
        if shutdown is not None:
            shutdown()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"Client(backend={self.backend!r}, streams={len(self._hub)}, spec={self.spec!r})"


class StreamHandle:
    """One streaming session opened through :meth:`Client.stream`.

    The handle pairs a stream id with its client, so single-stream programs
    never touch ids; multi-stream programs can keep using
    ``client.ingest(sid, ...)`` / ``client.tick()`` directly.
    """

    def __init__(self, client: Client, stream_id: str, spec: AsapSpec) -> None:
        self.client = client
        self.stream_id = stream_id
        self.spec = spec
        self._closed = False

    def ingest(self, timestamps, values) -> list:
        """Fold a batch of arrivals in; returns inline frames."""
        return self.client.ingest(self.stream_id, timestamps, values)

    def ingest_point(self, timestamp: float, value: float) -> list:
        return self.client.ingest(self.stream_id, [timestamp], [value])

    def backfill(self, timestamps, values):
        """Bulk-replay an archive into this stream; see :meth:`Client.backfill`."""
        return self.client.backfill(self.stream_id, timestamps, values)

    def tick(self) -> list:
        """Run deferred refreshes and return *this* stream's frames.

        Ticks the whole backend (one tick runs every stream's deferred
        refresh, by design) and returns this stream's frames; frames other streams
        emitted on the same tick are stashed on the client and surface at
        *their* next tick/close — never dropped.  When driving several
        streams, call :meth:`Client.tick` once and split its dict instead.
        """
        emitted = self.client.tick()
        mine = emitted.pop(self.stream_id, [])
        for stream_id, frames in emitted.items():
            self.client._pending_frames.setdefault(stream_id, []).extend(frames)
        return mine

    def snapshot(self, resolution: int | None = None, include_partial: bool = False):
        return self.client.snapshot(
            self.stream_id, resolution=resolution, include_partial=include_partial
        )

    def subscribe(self, resolution: int | None = None, include_partial: bool = False) -> int:
        """Server-push subscription to this stream (``tcp://`` backends);
        see :meth:`Client.subscribe`."""
        return self.client.subscribe(
            self.stream_id, resolution=resolution, include_partial=include_partial
        )

    def close(self, flush: bool = True) -> list:
        """End the session; with *flush*, returns the final frame(s)."""
        if self._closed:
            return []
        self._closed = True
        return self.client.close_stream(self.stream_id, flush=flush)

    def __enter__(self) -> "StreamHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(flush=False)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"StreamHandle({self.stream_id!r}, backend={self.client.backend!r}, {state})"
