"""ShardedHub: the StreamHub API scaled across N shard workers.

One coordinator owns a consistent-hash ring (:mod:`repro.cluster.ring`) and
N shards (:mod:`repro.cluster.shard`), each a complete
:class:`~repro.service.StreamHub`.  Stream ids route over the ring, so any
number of coordinators (or a restarted one) agree on placement without
shared state.  The public surface is the StreamHub's —
``create_stream`` / ``ingest`` / ``tick`` / ``snapshot`` / ``close`` /
``stats`` — plus the cluster-only operations: shard membership
(``add_shard`` / ``remove_shard`` with live migration, ``drop_shard`` +
``restore_streams`` for crash recovery) and durability (``checkpoint`` /
``restore`` via :mod:`repro.persist`).

**Batched dispatch.**  ``ingest(..., buffered=True)`` queues arrivals at the
coordinator; ``tick()`` then ships each shard its whole pending batch *and*
the tick in a single command — one IPC round per shard per tick, not one per
stream.  Inline frames (refresh boundaries inside a batch) and tick frames
come back together, keyed by stream id, in the same per-stream order a
single StreamHub would have produced them — sessions are partitioned, never
split, so sharding does not change any stream's frames.

**Rebalancing.**  Adding or removing a shard recomputes ring ownership and
migrates exactly the streams whose owner changed, by shipping their
persist-layer session snapshots (``export_session(remove=True)`` ->
``import_session``).  A snapshot carries the pane window, the open partial
pane and the refresh countdown, so migration drops zero panes and the
migrated stream's subsequent frames are bit-identical.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np

from .. import persist
from ..core.streaming import counters_from_state
from ..errors import DataQualityError
from ..net.wire import frame_from_state as _frame_from_state
from ..net.wire import frame_state as _frame_state
from ..persist.checkpoint import _read_state
from ..persist.codec import CheckpointError
from ..service import HubStats, UnknownStreamError
from ..service.hub import allocate_auto_id
from ..spec import AsapSpec
from .ring import HashRing
from .shard import ClusterError, InProcessShard, ProcessShard, ShardDownError

__all__ = ["ShardedHub"]

_BACKENDS = {"inprocess": InProcessShard, "process": ProcessShard}

_STATS_FIELDS = tuple(field.name for field in dataclasses.fields(HubStats))


def _merge_stats(parts: list) -> Counter:
    """Merge :class:`HubStats` mappings: every field sums except ``ticks``,
    the maximum (shard clocks advance together; late joiners lag)."""
    merged = Counter()
    for part in parts:
        merged.update(part)
    merged["ticks"] = max(part["ticks"] for part in parts)
    return merged


class ShardedHub:
    """A sharded, durably checkpointable StreamHub cluster.

    Parameters
    ----------
    shards:
        Initial shard count (named ``shard-0`` .. ``shard-N-1``).
    backend:
        ``"inprocess"`` (direct calls; tests and single-core serving) or
        ``"process"`` (one ``multiprocessing`` worker per shard; real
        parallelism across cores).
    replicas:
        Virtual nodes per shard on the hash ring.
    max_sessions_per_shard / max_panes_per_session / default_config /
    eviction_policy / idle_ticks_before_eviction:
        Per-shard :class:`~repro.service.StreamHub` parameters, applied to
        every worker.  Note capacity and eviction are *per shard*: the
        cluster admits up to ``shards * max_sessions_per_shard`` sessions,
        spread by the ring (approximately, not exactly, evenly).
    """

    #: Payload kind written by :func:`repro.persist.checkpoint`.
    checkpoint_kind = "sharded-hub"

    def __init__(
        self,
        shards: int = 4,
        backend: str = "inprocess",
        replicas: int = 64,
        max_sessions_per_shard: int = 1024,
        max_panes_per_session: int = 4096,
        default_config: AsapSpec | None = None,
        eviction_policy: str = "lru",
        idle_ticks_before_eviction: int | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {sorted(_BACKENDS)}, got {backend!r}")
        self.backend = backend
        # The wire form: default_config travels as a plain spec dict (the
        # codec's spelling) so shard construction, create commands, and
        # checkpoints all carry configs the same way.
        self._hub_kwargs = dict(
            max_sessions=max_sessions_per_shard,
            max_panes_per_session=max_panes_per_session,
            default_config=None if default_config is None else default_config.to_dict(),
            eviction_policy=eviction_policy,
            idle_ticks_before_eviction=idle_ticks_before_eviction,
        )
        self._ring = HashRing(replicas=replicas)
        self._shards: dict[str, InProcessShard | ProcessShard] = {}
        self._streams: dict[str, str] = {}  # stream id -> shard id
        self._pending: dict[str, list] = {}  # shard id -> [(sid, ts, vs), ...]
        #: Inline frames produced when pending batches are flushed outside a
        #: tick (rebalancing, checkpointing); they surface at the next tick,
        #: exactly where buffered-ingest frames are promised to appear.
        self._stashed_frames: dict[str, list] = {}
        #: (stream id, error) of buffered batches a shard rejected; the next
        #: tick raises them.
        self._rejected: list[tuple[str, DataQualityError]] = []
        self._next_auto_id = 0
        self._next_shard_id = 0
        self._streams_migrated = 0
        #: Final :class:`HubStats` of gracefully retired shards, merged into
        #: one mapping and into :attr:`stats` so removing a shard never makes
        #: the aggregate dip.  (A *killed* shard's counters die with it —
        #: there is nobody left to ask.)
        self._retired = Counter(dict.fromkeys(_STATS_FIELDS, 0))
        self._frame_observers: list = []
        for _ in range(shards):
            self.add_shard()

    # -- refresh-boundary observers --------------------------------------------

    def add_frame_observer(self, callback) -> None:
        """Register *callback* on every frame the cluster delivers.

        Mirrors :meth:`StreamHub.add_frame_observer`: the callback receives
        ``{stream_id: [Frame, ...]}`` after inline ingests, successful
        :meth:`tick` rounds, backfill closing frames, and flushing closes.
        Frames riding a :class:`~repro.errors.ShardDownError`'s
        ``partial_frames`` are *not* observed — they belong to the caller
        handling the failure, and a retry after recovery must not deliver
        them twice.
        """
        if callback not in self._frame_observers:
            self._frame_observers.append(callback)

    def remove_frame_observer(self, callback) -> None:
        """Unregister a :meth:`add_frame_observer` callback (idempotent)."""
        if callback in self._frame_observers:
            self._frame_observers.remove(callback)

    def _notify_frames(self, frames: dict[str, list]) -> None:
        if not frames:
            return
        for callback in list(self._frame_observers):
            callback(frames)

    # -- shard membership ------------------------------------------------------

    @property
    def default_config(self) -> AsapSpec | None:
        """The cluster-wide default session spec (``None`` = shard default).

        Mirrors :attr:`StreamHub.default_config` so callers (e.g. the client
        façade's ``restore``) need not know the coordinator keeps configs in
        wire form internally.
        """
        wire = self._hub_kwargs["default_config"]
        return None if wire is None else AsapSpec.from_dict(wire)

    @property
    def shard_ids(self) -> list[str]:
        """Ids of every live shard (creation order)."""
        return list(self._shards)

    @property
    def streams_migrated(self) -> int:
        """Sessions shipped between shards by rebalancing so far."""
        return self._streams_migrated

    def shard_of(self, stream_id: str) -> str:
        """The shard currently serving *stream_id*."""
        try:
            return self._streams[stream_id]
        except KeyError:
            raise UnknownStreamError(stream_id) from None

    def add_shard(self, shard_id: str | None = None, hub_state=None) -> str:
        """Bring up one shard and migrate the streams the ring now gives it.

        Migration ships each moving stream's persist-layer snapshot (pane
        window and open pane included), so the moved streams'
        subsequent frames are bit-identical and no pane is dropped.  Returns
        the new shard's id.
        """
        if shard_id is None:
            shard_id, self._next_shard_id = allocate_auto_id(
                "shard", self._next_shard_id, self._shards
            )
        elif shard_id in self._shards or shard_id in self._ring:
            raise ClusterError(f"shard id {shard_id!r} already exists")
        handle = _BACKENDS[self.backend](shard_id, self._hub_kwargs, hub_state)
        self._ring.add_node(shard_id)
        self._shards[shard_id] = handle
        if self._streams:
            moving = [
                (sid, owner)
                for sid, owner in self._streams.items()
                if self._ring.node_for(sid) != owner
            ]
            self._migrate(moving, target=None)
        return shard_id

    def remove_shard(self, shard_id: str) -> None:
        """Gracefully retire one shard, migrating its streams off first."""
        if shard_id not in self._shards:
            raise ClusterError(f"no shard {shard_id!r}")
        if len(self._shards) == 1:
            raise ClusterError("cannot remove the last shard")
        self._flush_pending_for(shard_id)
        self._ring.remove_node(shard_id)
        moving = [(sid, owner) for sid, owner in self._streams.items() if owner == shard_id]
        self._migrate(moving, target=None)
        handle = self._shards.pop(shard_id)
        self._retired = _merge_stats([self._retired, dataclasses.asdict(handle.request("stats"))])
        handle.shutdown()

    def kill_shard(self, shard_id: str) -> None:
        """Failure injection: hard-kill one shard worker (its memory is lost).

        The shard stays a cluster member until :meth:`drop_shard`; operations
        touching it raise :class:`ShardDownError`, exactly as a real crash
        would surface.
        """
        if shard_id not in self._shards:
            raise ClusterError(f"no shard {shard_id!r}")
        self._shards[shard_id].kill()

    def drop_shard(self, shard_id: str) -> list[str]:
        """Remove a dead shard from membership; returns the stream ids lost.

        The counterpart of :meth:`remove_shard` for crashes: nothing is
        migrated (there is nothing left to migrate), and any batches still
        buffered for the dead shard are discarded here — explicitly, with
        the affected stream ids returned — along with its in-memory state.
        Re-serve the lost streams from the last checkpoint with
        :meth:`restore_streams`.
        """
        if shard_id not in self._shards:
            raise ClusterError(f"no shard {shard_id!r}")
        if len(self._shards) == 1:
            raise ClusterError("cannot drop the last shard")
        handle = self._shards.pop(shard_id)
        try:
            handle.kill()
        except Exception:
            pass  # already gone
        self._ring.remove_node(shard_id)
        self._pending.pop(shard_id, None)
        lost = [sid for sid, owner in self._streams.items() if owner == shard_id]
        for sid in lost:
            del self._streams[sid]
        return lost

    def _migrate(self, moving: list[tuple[str, str]], target: str | None) -> None:
        """Ship each (stream, old shard) to *target* or its ring owner.

        Every source shard's buffered ingests are delivered first, so the
        exported snapshots include them (their inline frames are stashed for
        the next tick) and no batch is left queued under an owner that no
        longer serves the stream.
        """
        for old_owner in {owner for _stream_id, owner in moving}:
            self._flush_pending_for(old_owner)
        for stream_id, old_owner in moving:
            if self._streams.get(stream_id) != old_owner:
                continue  # evicted shard-side during the flush; nothing to ship
            new_owner = target if target is not None else self._ring.node_for(stream_id)
            if new_owner == old_owner:
                continue
            try:
                state = self._shards[old_owner].request("export", (stream_id, True))
            except UnknownStreamError:
                # Evicted shard-side since the last live-ids reply (e.g. by
                # a create's LRU admission): heal the map, keep migrating.
                del self._streams[stream_id]
                continue
            self._shards[new_owner].request("import", state)
            self._streams[stream_id] = new_owner
            self._streams_migrated += 1

    def _flush_pending_for(self, shard_id: str) -> None:
        """Deliver a shard's buffered ingests now (without ticking it).

        Inline frames are stashed and surface at the next :meth:`tick`;
        the shard's live-ids reply reconciles the placement map.
        """
        pending = self._pending.pop(shard_id, None)
        if pending:
            reply = self._shards[shard_id].request("batch", (pending, False))
            self._deliver(shard_id, reply, self._stashed_frames)

    def _deliver(self, shard_id: str, reply, frames: dict[str, list]) -> None:
        """Fold one shard's ``"batch"`` reply into *frames* and the map.

        Inline frames go first, tick frames after; the shard's rejected
        buffered batches queue for the next :meth:`tick` to raise; its
        live-ids reply reconciles the placement map.
        """
        inline, ticked, live_ids, rejected = reply
        for stream_id, stream_frames in inline.items():
            frames.setdefault(stream_id, []).extend(stream_frames)
        for stream_id, stream_frames in ticked.items():
            frames.setdefault(stream_id, []).extend(stream_frames)
        self._rejected.extend(rejected)
        self._reconcile(shard_id, live_ids)

    def _reconcile(self, shard_id: str, live_ids) -> None:
        """Prune placements for sessions the shard no longer serves.

        Shards evict autonomously (LRU capacity, idle-tick reaping); their
        live-ids replies keep the coordinator's map from going stale —
        without this, an evicted id could never be recreated and
        checkpoints would persist phantom placements.
        """
        live = set(live_ids)
        stale = [
            stream_id
            for stream_id, owner in self._streams.items()
            if owner == shard_id and stream_id not in live
        ]
        for stream_id in stale:
            del self._streams[stream_id]
            self._discard_pending(stream_id, shard_id)

    # -- session lifecycle -----------------------------------------------------

    def create_stream(
        self,
        stream_id: str | None = None,
        config: AsapSpec | None = None,
        history: tuple | None = None,
        **overrides,
    ) -> str:
        """Register a new stream on its ring-assigned shard; returns its id.

        *history* is an optional ``(timestamps, values)`` archive bulk-folded
        into the fresh stream via :meth:`backfill` before the id is returned.
        """
        if stream_id is None:
            stream_id, self._next_auto_id = allocate_auto_id(
                "stream", self._next_auto_id, self._streams
            )
        elif stream_id in self._streams:
            raise ClusterError(f"stream id {stream_id!r} already exists")
        if config is not None and overrides:
            config = config.merge(**overrides)
            overrides = {}
        owner = self._ring.node_for(stream_id)
        config_state = None if config is None else config.to_dict()
        self._shards[owner].request("create", (stream_id, config_state, overrides))
        self._streams[stream_id] = owner
        if history is not None:
            timestamps, values = history
            self.backfill(stream_id, timestamps, values)
        return stream_id

    def close(self, stream_id: str, flush: bool = True):
        """Remove a stream; with *flush*, returns its final pending frame(s).

        Flushing delivers the stream's coordinator-buffered ingests first —
        the frames a single :class:`StreamHub` would have emitted for those
        points (inline, stashed, and final) all come back in order.  Without
        *flush* the buffered batches are discarded along with the session.
        """
        owner = self.shard_of(stream_id)
        frames = self._stashed_frames.pop(stream_id, [])
        if flush:
            mine = [entry for entry in self._pending.get(owner, []) if entry[0] == stream_id]
            if mine:
                self._discard_pending(stream_id, owner)
                flushed: dict[str, list] = {}
                self._deliver(owner, self._shards[owner].request("batch", (mine, False)), flushed)
                frames.extend(flushed.get(stream_id, []))
        else:
            self._discard_pending(stream_id, owner)
        try:
            frames.extend(self._shards[owner].request("close", (stream_id, flush)))
        except UnknownStreamError:
            self._streams.pop(stream_id, None)  # evicted shard-side; heal the map
            raise
        self._streams.pop(stream_id, None)
        if flush and frames:
            self._notify_frames({stream_id: frames})
        return frames

    def _discard_pending(self, stream_id: str, owner: str) -> None:
        pending = self._pending.get(owner)
        if pending:
            self._pending[owner] = [entry for entry in pending if entry[0] != stream_id]

    # -- ingestion and refresh -------------------------------------------------

    def ingest(self, stream_id: str, timestamps, values, buffered: bool = False):
        """Fold a batch of arrivals into one stream.

        Immediate mode (the default) dispatches now and returns the inline
        frames, exactly like :meth:`StreamHub.ingest`.  With
        ``buffered=True`` the batch is queued at the coordinator and shipped
        with the next :meth:`tick` — one IPC round per *shard* per tick
        instead of one per stream — and inline frames surface in that tick's
        result instead (the return value is an empty list).
        """
        owner = self.shard_of(stream_id)
        if buffered:
            ts = np.asarray(timestamps, dtype=np.float64)
            vs = np.asarray(values, dtype=np.float64)
            self._pending.setdefault(owner, []).append((stream_id, ts, vs))
            return []
        frames = self._request_for_stream(
            owner, stream_id, "ingest", (stream_id, timestamps, values)
        )
        if frames:
            self._notify_frames({stream_id: frames})
        return frames

    def backfill(self, stream_id: str, timestamps, values):
        """Replay an archive into one stream at batch speed; see
        :meth:`StreamHub.backfill`.

        Any coordinator-buffered batches for the stream are delivered first —
        they arrived before the archive replay was requested, and a backfill
        folding under queued points would reorder the stream.  Their inline
        frames are stashed and surface at the next :meth:`tick`, exactly as
        rebalancing flushes promise.
        """
        owner = self.shard_of(stream_id)
        mine = [entry for entry in self._pending.get(owner, []) if entry[0] == stream_id]
        if mine:
            self._discard_pending(stream_id, owner)
            reply = self._shards[owner].request("batch", (mine, False))
            self._deliver(owner, reply, self._stashed_frames)
            owner = self.shard_of(stream_id)  # raises if evicted during the flush
        result = self._request_for_stream(
            owner, stream_id, "backfill", (stream_id, timestamps, values)
        )
        if result.frames:
            self._notify_frames({stream_id: list(result.frames)})
        return result

    def _request_for_stream(self, owner: str, stream_id: str, command: str, payload):
        """Route one command; heal the placement map if the shard evicted it."""
        try:
            return self._shards[owner].request(command, payload)
        except UnknownStreamError:
            self._streams.pop(stream_id, None)
            self._discard_pending(stream_id, owner)
            raise

    def tick(self) -> dict[str, list]:
        """Deliver buffered ingests and run every shard's tick — batched.

        Each shard receives its entire pending batch plus the tick in one
        command (one IPC round per shard); process shards execute
        concurrently.  Returns frames keyed by stream id: inline frames from
        buffered ingests first, tick frames after, matching the per-stream
        order of an unsharded :class:`StreamHub` fed the same data.

        Raises :class:`ShardDownError` naming any dead shard(s); frames
        already collected from healthy shards ride on the exception's
        ``partial_frames`` (their ticks have run and cannot be replayed).

        A buffered batch a shard rejects (:class:`~repro.errors.DataQualityError`,
        e.g. a NaN or a replayed timestamp) changes nothing, exactly as the
        rejected :meth:`StreamHub.ingest` call would; the shard still
        delivers its other batches and ticks.  Once every reply is
        collected, the tick raises ``DataQualityError`` naming each rejected
        stream, and the frames it collected surface at the next tick.  A
        rejection found by an out-of-tick flush (rebalancing, ``close``,
        ``backfill``) raises at the next tick the same way.
        """
        pending = self._pending
        self._pending = {}
        down: list[str] = []
        submitted: list[str] = []
        for shard_id, handle in self._shards.items():
            try:
                handle.submit("batch", (pending.get(shard_id, []), True))
                submitted.append(shard_id)
            except ShardDownError:
                down.append(shard_id)
                # Keep the undelivered batch: it is only discarded by an
                # explicit drop_shard(), never silently garbage-collected.
                if pending.get(shard_id):
                    self._pending[shard_id] = pending[shard_id]
        # Frames stashed by out-of-tick flushes (rebalancing, checkpoints)
        # surface first — they are older than anything this tick produces.
        frames: dict[str, list] = self._stashed_frames
        self._stashed_frames = {}
        failures: list[Exception] = []
        for shard_id in submitted:
            try:
                reply = self._shards[shard_id].result()
            except ShardDownError:
                down.append(shard_id)
                if pending.get(shard_id):  # delivery unconfirmed; keep the batch
                    self._pending[shard_id] = pending[shard_id]
                continue
            except Exception as exc:  # the shard's own error: collect the rest first
                failures.append(exc)
                continue
            self._deliver(shard_id, reply, frames)
        if down:
            raise ShardDownError(down, partial_frames=frames)
        if failures or self._rejected:
            # The collected frames surface at the next tick, as flushed ones do.
            self._stashed_frames = frames
            if failures:
                raise failures[0]
            rejected, self._rejected = self._rejected, []
            message = "; ".join(
                f"buffered batch for stream {sid!r} rejected: {exc}" for sid, exc in rejected
            )
            raise DataQualityError(message)
        self._notify_frames(frames)
        return frames

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._streams)

    def __contains__(self, stream_id: str) -> bool:
        return stream_id in self._streams

    def stream_ids(self) -> list[str]:
        """Ids of every active stream (creation order)."""
        return list(self._streams)

    def snapshot(
        self, stream_id: str, resolution: int | None = None, include_partial: bool = False
    ):
        """Point-in-time view of one stream (see :meth:`StreamHub.snapshot`)."""
        owner = self.shard_of(stream_id)
        return self._request_for_stream(
            owner, stream_id, "snapshot", (stream_id, resolution, include_partial)
        )

    def shard_stats(self) -> dict[str, HubStats]:
        """Per-shard :class:`HubStats`, collected concurrently."""
        results = self._fan_out("stats", None)
        return dict(results)

    @property
    def stats(self) -> HubStats:
        """Cluster-aggregated :class:`HubStats`.

        Counters sum across live shards plus gracefully retired ones (so
        :meth:`remove_shard` never makes the aggregate dip); ``ticks`` is the
        maximum over the same shards (every :meth:`tick` advances each
        shard's clock once, so the clocks agree for shards that joined at
        cluster birth and lag for late joiners — keeping retired clocks means
        the maximum holds when only late joiners remain).
        """
        live = [dataclasses.asdict(stats) for _shard_id, stats in self._fan_out("stats", None)]
        return HubStats(**_merge_stats([self._retired, *live]))

    def _fan_out(self, command: str, payload) -> list[tuple[str, object]]:
        """Submit one command to every shard, then collect every reply."""
        down: list[str] = []
        submitted: list[str] = []
        for shard_id, handle in self._shards.items():
            try:
                handle.submit(command, payload)
                submitted.append(shard_id)
            except ShardDownError:
                down.append(shard_id)
        results: list[tuple[str, object]] = []
        for shard_id in submitted:
            try:
                results.append((shard_id, self._shards[shard_id].result()))
            except ShardDownError:
                down.append(shard_id)
        if down:
            raise ShardDownError(down)
        return results

    # -- durability ------------------------------------------------------------

    def state_dict(self) -> dict:
        """The whole cluster: parameters, placement, and every shard's hub.

        Coordinator-side queues travel too: buffered ingest batches are
        serialized verbatim (the restored cluster's next :meth:`tick`
        delivers them exactly as the live one's would), and frames stashed
        by rebalancing flushes are serialized so a restored cluster still
        surfaces them — a checkpoint between ticks loses neither queued
        points nor queued frames.
        """
        shard_states = self._fan_out("state", None)
        return {
            "backend": self.backend,
            "replicas": self._ring.replicas,
            "hub_kwargs": {
                "max_sessions": self._hub_kwargs["max_sessions"],
                "max_panes_per_session": self._hub_kwargs["max_panes_per_session"],
                # Already the wire form (a plain spec dict or None).
                "default_config": self._hub_kwargs["default_config"],
                "eviction_policy": self._hub_kwargs["eviction_policy"],
                "idle_ticks_before_eviction": self._hub_kwargs["idle_ticks_before_eviction"],
            },
            "next_auto_id": self._next_auto_id,
            "next_shard_id": self._next_shard_id,
            "streams_migrated": self._streams_migrated,
            "retired_stats": dict(self._retired),
            "streams": dict(self._streams),
            "pending": {
                shard_id: [[sid, ts, vs] for sid, ts, vs in batches]
                for shard_id, batches in self._pending.items()
                if batches
            },
            "stashed_frames": {
                sid: [_frame_state(frame) for frame in frames]
                for sid, frames in self._stashed_frames.items()
                if frames
            },
            "shard_order": [shard_id for shard_id, _state in shard_states],
            "shards": {shard_id: state for shard_id, state in shard_states},
        }

    @classmethod
    def from_state(cls, state: dict, backend: str | None = None) -> "ShardedHub":
        """Rebuild a cluster from :meth:`state_dict` output (exact resume).

        *backend* overrides the checkpointed backend — a cluster
        checkpointed from process shards can be restored in-process (e.g.
        for inspection) and vice versa; shard state is backend-independent.
        """
        hub = cls.__new__(cls)
        hub.backend = backend if backend is not None else str(state["backend"])
        if hub.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {sorted(_BACKENDS)}, got {hub.backend!r}")
        kwargs = state["hub_kwargs"]
        hub._hub_kwargs = dict(
            max_sessions=int(kwargs["max_sessions"]),
            max_panes_per_session=int(kwargs["max_panes_per_session"]),
            # Validate the checkpointed config, then keep the wire form.
            default_config=(
                None
                if kwargs["default_config"] is None
                else AsapSpec.from_dict(kwargs["default_config"]).to_dict()
            ),
            eviction_policy=str(kwargs["eviction_policy"]),
            idle_ticks_before_eviction=(
                None
                if kwargs["idle_ticks_before_eviction"] is None
                else int(kwargs["idle_ticks_before_eviction"])
            ),
        )
        hub._ring = HashRing(replicas=int(state["replicas"]))
        hub._shards = {}
        hub._streams = {str(sid): str(owner) for sid, owner in state["streams"].items()}
        hub._pending = {
            shard_id: [
                (str(sid), np.asarray(ts, dtype=np.float64), np.asarray(vs, dtype=np.float64))
                for sid, ts, vs in batches
            ]
            for shard_id, batches in state["pending"].items()
        }
        hub._stashed_frames = {
            str(sid): [_frame_from_state(frame) for frame in frames]
            for sid, frames in state["stashed_frames"].items()
        }
        hub._next_auto_id = int(state["next_auto_id"])
        hub._next_shard_id = int(state["next_shard_id"])
        hub._streams_migrated = int(state["streams_migrated"])
        hub._retired = counters_from_state(state["retired_stats"], _STATS_FIELDS)
        hub._rejected = []
        hub._frame_observers = []
        for shard_id in state["shard_order"]:
            handle = _BACKENDS[hub.backend](shard_id, hub._hub_kwargs, state["shards"][shard_id])
            hub._ring.add_node(shard_id)
            hub._shards[shard_id] = handle
        return hub

    def checkpoint(self, path=None):
        """Snapshot the cluster durably; ``bytes``, or the path written."""
        return persist.checkpoint(self, path)

    @classmethod
    def restore(cls, source, backend: str | None = None) -> "ShardedHub":
        """Rebuild a cluster from a checkpoint (``bytes`` or a path)."""
        state = _read_state(source, cls.checkpoint_kind)
        return cls.from_state(state, backend=backend)

    def restore_streams(self, source, stream_ids=None) -> list[str]:
        """Re-serve streams from a cluster checkpoint onto the current ring.

        The crash-recovery half of :meth:`drop_shard`: pull the named
        sessions (default: every checkpointed stream this cluster is not
        currently serving) out of *source* and import them onto their
        current ring owners.  Each restored stream resumes from its
        checkpointed state — data ingested after the checkpoint is gone,
        which is exactly the durability contract of checkpointing.
        Returns the restored stream ids.
        """
        state = _read_state(source, self.checkpoint_kind)
        sessions: dict[str, dict] = {}
        for shard_state in state["shards"].values():
            for session_state in shard_state["sessions"]:
                sessions[str(session_state["stream_id"])] = session_state
        if stream_ids is None:
            targets = [sid for sid in sessions if sid not in self._streams]
        else:
            targets = list(stream_ids)
        restored: list[str] = []
        for stream_id in targets:
            if stream_id in self._streams:
                raise ClusterError(f"stream id {stream_id!r} is already being served")
            session_state = sessions.get(stream_id)
            if session_state is None:
                raise CheckpointError(f"checkpoint has no session for stream {stream_id!r}")
            owner = self._ring.node_for(stream_id)
            self._shards[owner].request("import", session_state)
            self._streams[stream_id] = owner
            restored.append(stream_id)
        # The checkpoint's coordinator-side queues for these streams come
        # back too: buffered batches re-queue onto the new owners (the next
        # tick delivers them) and stashed frames re-stash.
        restored_set = set(restored)
        for batches in state["pending"].values():
            for sid, ts, vs in batches:
                if str(sid) in restored_set:
                    owner = self._streams[str(sid)]
                    self._pending.setdefault(owner, []).append(
                        (
                            str(sid),
                            np.asarray(ts, dtype=np.float64),
                            np.asarray(vs, dtype=np.float64),
                        )
                    )
        for sid, frames in state["stashed_frames"].items():
            if str(sid) in restored_set:
                self._stashed_frames.setdefault(str(sid), []).extend(
                    _frame_from_state(frame) for frame in frames
                )
        return restored

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every shard worker (graceful; dead shards are skipped)."""
        for handle in self._shards.values():
            try:
                handle.shutdown()
            except ShardDownError:
                pass

    def __enter__(self) -> "ShardedHub":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (
            f"ShardedHub(shards={len(self._shards)}, backend={self.backend!r}, "
            f"streams={len(self._streams)})"
        )
