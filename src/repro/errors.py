"""repro.errors — the one import for every failure the library raises.

Each tier historically defined its own exception types next to the code that
raised them (service errors in ``repro.service.hub``, cluster errors in
``repro.cluster.shard``, codec errors in ``repro.persist.codec``).  Those
spellings all still work — the defining modules re-export from here — but the
canonical home is this module, which depends on nothing, so any layer
(including :mod:`repro.spec`, which every tier consumes) can raise and catch
them without import cycles.

Hierarchy::

    ValueError
      ├── SpecError            — a configuration field failed validation
      └── DataQualityError     — the data itself broke a quality contract
    RuntimeError
      ├── HubError             — StreamHub serving failures
      │     ├── HubAtCapacityError
      │     └── UnknownStreamError (also a KeyError)
      ├── ClusterError         — sharded-tier failures
      │     ├── ShardDownError
      │     ├── ShardProtocolError
      │     └── RemoteShardError
      ├── NetError             — network serving tier failures
      │     ├── WireProtocolError
      │     └── ConnectionClosedError
      └── CheckpointError      — persist-layer payload failures

``SpecError`` subclasses :class:`ValueError` deliberately: the core pipeline
raised bare ``ValueError`` for bad resolution/strategy/kernel for four
releases, and ``except ValueError`` call sites keep working unchanged.
"""

from __future__ import annotations

__all__ = [
    "SpecError",
    "DataQualityError",
    "HubError",
    "HubAtCapacityError",
    "UnknownStreamError",
    "ClusterError",
    "ShardDownError",
    "ShardProtocolError",
    "RemoteShardError",
    "NetError",
    "WireProtocolError",
    "ConnectionClosedError",
    "CheckpointError",
]


class SpecError(ValueError):
    """A configuration field failed validation.

    Raised by :class:`repro.spec.AsapSpec` (and therefore by every entry
    point that builds its configuration through the spec: ``smooth``,
    ``find_window``, ``ASAP``, ``BatchEngine``, the hub tiers,
    ``connect``).  The message always names the offending field.
    """


class DataQualityError(ValueError):
    """The data itself broke a quality contract (not the configuration).

    Raised by :mod:`repro.quality` when a cadence cannot be inferred, a gap
    appears under ``gap_policy="reject"``, or a fill would exceed the
    per-gap synthesis bound.  A ``ValueError`` because the offending input
    is an argument, even when it arrives point by point.
    """


class HubError(RuntimeError):
    """Base class for StreamHub failures."""


class HubAtCapacityError(HubError):
    """The hub is at ``max_sessions`` and its policy rejects new sessions."""


class UnknownStreamError(HubError, KeyError):
    """No session exists under the requested stream id."""


class ClusterError(RuntimeError):
    """Base class for cluster-tier failures."""


class ShardDownError(ClusterError):
    """A shard worker is not answering (crashed, killed, or shut down).

    ``shard_ids`` names the dead shard(s); ``partial_frames`` carries frames
    already collected from healthy shards when a fan-out operation failed
    part-way, so a recovering caller loses as little as possible.
    """

    def __init__(self, shard_ids, partial_frames=None) -> None:
        if isinstance(shard_ids, str):
            shard_ids = (shard_ids,)
        self.shard_ids = tuple(shard_ids)
        self.partial_frames = dict(partial_frames or {})
        super().__init__(f"shard(s) down: {', '.join(self.shard_ids)}")


class ShardProtocolError(ClusterError):
    """A shard was sent a command it does not understand."""


class RemoteShardError(ClusterError):
    """A shard worker failed in a way its hub did not anticipate.

    Wraps non-hub exceptions (bugs, not API errors) with the worker-side
    traceback, which would otherwise be lost at the pipe boundary.
    """


class NetError(RuntimeError):
    """Base class for network-serving-tier failures (:mod:`repro.net`)."""


class WireProtocolError(NetError):
    """A wire message could not be framed or understood.

    Raised for truncated, oversized, or garbage frames, for payloads that are
    not valid codec envelopes, and for handshake schema mismatches (the
    message mirrors the persist codec's schema error, naming both versions —
    protocol and checkpoint versioning are the same monotone integer).
    """


class ConnectionClosedError(NetError):
    """The peer went away mid-conversation (clean EOF or reset)."""


class CheckpointError(RuntimeError):
    """A checkpoint payload could not be produced or understood."""
