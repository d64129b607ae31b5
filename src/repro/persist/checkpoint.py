"""Durable checkpoint/restore of serving state.

``checkpoint`` snapshots a serving object — a
:class:`~repro.service.StreamHub` or a
:class:`~repro.cluster.ShardedHub` — into one self-describing payload
(:mod:`repro.persist.codec`); ``restore`` rebuilds it.  The guarantee is the
repo-wide discipline applied to durability: a restored hub emits
**bit-identical** subsequent frames to one that was never interrupted,
because every float the refresh path depends on (pane means, the open
pane's count and running mean, refresh countdowns, the previous window,
the warm trace, the last folded timestamp) is persisted exactly.  Window
statistics are computed from the pane window at each refresh.  Resolution views
keep no state (they are computed from the pane window on demand), and
derived caches (per-refresh evaluation caches, per-session view caches)
are *never* persisted — they are rebuilt lazily, so a checkpoint stays
small and the cache layer can evolve without a schema bump.

Checkpoint **kinds** (the ``kind`` field of the payload):

* ``"streamhub"`` — one :class:`StreamHub`: hub parameters, counters, and a
  session list, each session carrying its bookkeeping (created/last-active
  tick, frames emitted) and the full
  :meth:`~repro.core.streaming.StreamingASAP.state_dict` tree.  The
  operator state holds the session's one config, a full
  :class:`~repro.spec.AsapSpec` dict (the unified spec is the wire schema
  for configuration); restore validates it, holds it to the hub's pane
  budget, and checks every nested part against the shape it builds::

      {"max_sessions": int, "max_panes_per_session": int,
       "default_config": {...AsapSpec fields...},
       "eviction_policy": str, "idle_ticks_before_eviction": int | None,
       "tick": int, "next_auto_id": int, "counters": {...},
       "stashed_frames": {stream_id: [...frames...]},
       "sessions": [{"stream_id": str, "created_tick": int,
                     "last_active_tick": int, "frames_emitted": int,
                     "operator": {"spec": {...AsapSpec fields...},
                                  "counters": {...},
                                  "buffer": {...},
                                  "reorder": {...} | None,
                                  "normalizer": {...} | None,
                                  ...refresh bookkeeping...}}, ...]}

* ``"sharded-hub"`` — one :class:`ShardedHub`: the ring/backend parameters,
  the stream->shard placement map, and one ``"streamhub"`` state per shard
  (see :meth:`repro.cluster.ShardedHub.state_dict`).

``restore`` dispatches on the kind, so one entry point reads both.
"""

from __future__ import annotations

from . import codec
from .codec import CheckpointError

__all__ = ["checkpoint", "restore", "CheckpointError"]


def checkpoint(hub, path=None):
    """Snapshot *hub* durably; returns raw ``bytes`` or the path written.

    *hub* is any object with the checkpoint protocol — a ``state_dict()``
    method plus a ``checkpoint_kind`` class attribute naming its payload kind
    (:class:`~repro.service.StreamHub` and
    :class:`~repro.cluster.ShardedHub` both qualify).  With *path* the
    payload is written to disk and the :class:`~pathlib.Path` returned;
    without it the payload is returned as ``bytes``.
    """
    kind = getattr(hub, "checkpoint_kind", None)
    state_dict = getattr(hub, "state_dict", None)
    if kind is None or state_dict is None:
        raise CheckpointError(
            f"{type(hub).__name__!r} is not checkpointable: it needs a "
            f"state_dict() method and a checkpoint_kind attribute"
        )
    state = state_dict()
    if path is not None:
        return codec.dump(kind, state, path)
    return codec.dumps(kind, state)


def restore(source, **kwargs):
    """Rebuild a serving object from a checkpoint (``bytes`` or a path).

    Dispatches on the payload's kind: ``"streamhub"`` payloads come back as
    a :class:`~repro.service.StreamHub`, ``"sharded-hub"`` payloads as a
    :class:`~repro.cluster.ShardedHub` (extra *kwargs* — e.g. ``backend=`` —
    are forwarded to the cluster's restore path).  The restored object emits
    bit-identical subsequent frames to an uninterrupted one.
    """
    kind, state = codec.load(source)
    if kind == "streamhub":
        if kwargs:
            raise CheckpointError(
                f"streamhub checkpoints accept no restore options, got {sorted(kwargs)}"
            )

        from ..service import StreamHub

        return StreamHub.from_state(state)
    if kind == "sharded-hub":
        from ..cluster import ShardedHub

        return ShardedHub.from_state(state, **kwargs)
    raise CheckpointError(f"unknown checkpoint kind {kind!r}")


def _read_state(source, expected_kind: str) -> dict:
    """Internal: load a payload and require a specific kind (used by cluster
    recovery paths that pull individual sessions out of a checkpoint)."""
    kind, state = codec.load(source)
    if kind != expected_kind:
        raise CheckpointError(f"expected a {expected_kind!r} checkpoint, got kind {kind!r}")
    return state
