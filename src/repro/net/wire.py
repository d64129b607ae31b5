"""The network tier's message codec: result objects <-> wire trees <-> bytes.

Every message on an ASAP connection is one :mod:`repro.persist.codec`
envelope (the checkpoint format: a JSON manifest plus raw array bytes —
no pickle is ever read or written) behind the codec's 8-byte length-prefixed header
(:func:`repro.persist.codec.frame_message`).  Because the payload *is* a
codec envelope, the wire protocol's version is the checkpoint
:data:`~repro.persist.codec.SCHEMA_VERSION`: a client and server built
against different schemas fail the handshake with the codec's own
schema-mismatch message, re-raised as
:class:`~repro.errors.WireProtocolError`.

Message shapes (the ``state`` tree inside the envelope)::

    {"msg": "hello", "schema": int, "hub_kind": str, "server": str,
     "version": str, "max_message_bytes": int}
    {"msg": "request", "id": int, "op": str, "args": {...}}
    {"msg": "response", "id": int, "ok": true, "result": ...}
    {"msg": "response", "id": int, "ok": false, "error": {...}}
    {"msg": "push", "subscription": int, "stream_id": str, "seq": int,
     "push_dropped": int, "payload": {"type": "frames"|"view", ...}}
    {"msg": "error", "error": {...}}          # connection-level, then close

**Encode once, splice per message.**  A server often sends one body many
times: the same cached view to every poll until the next pane completes,
the same frames or view to every subscriber of a refresh boundary.  Such a
body is encoded once with :func:`~repro.persist.codec.encode_body`, and
:func:`splice_message` frames each message around it, encoding only the
small array-free head (``msg``, ``id``, ``ok``; or ``subscription``, ``seq``,
``push_dropped``).  The spliced bytes equal :func:`encode_message` of the
same dict byte for byte, so the protocol does not know the difference.

This module also owns the **result serializers** — :class:`Frame`,
``SessionSnapshot``/``ResolutionSnapshot``, ``BackfillResult``, and
``HubStats`` as plain scalar/array trees — and the **error mapping** that
carries :mod:`repro.errors` types across the wire by name, so a remote
``UnknownStreamError`` is an ``UnknownStreamError`` at the client too.
The serializers read the result objects' flat fields directly and pass the
read-only :class:`~repro.timeseries.series.TimeSeries` arrays through
uncopied; the bytes they encode to are the same either way.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .. import errors
from ..core.search import SearchResult
from ..core.streaming import BackfillResult, Frame
from ..errors import NetError, WireProtocolError
from ..persist import codec
from ..persist.codec import MAX_MESSAGE_BYTES
from ..quality import FrameQuality
from ..service.hub import HubStats, ResolutionSnapshot, SessionSnapshot
from ..spec import AsapSpec
from ..timeseries.series import TimeSeries

__all__ = [
    "MESSAGE_KIND",
    "MAX_MESSAGE_BYTES",
    "encode_message",
    "splice_message",
    "decode_payload",
    "frame_state",
    "frame_from_state",
    "frames_state",
    "frames_from_state",
    "backfill_state",
    "backfill_from_state",
    "snapshot_state",
    "snapshot_from_state",
    "hub_stats_state",
    "hub_stats_from_state",
    "error_state",
    "error_from_state",
]

#: Envelope kind of every wire message (checkpoint payloads use their own
#: kinds, so a checkpoint file can never be replayed as a message or vice
#: versa).
MESSAGE_KIND = "asap-net"


def encode_message(state: dict, *, limit: int = MAX_MESSAGE_BYTES) -> bytes:
    """One ready-to-send wire message (header + envelope) for *state*."""
    return codec.frame_message(MESSAGE_KIND, state, limit=limit)


def splice_message(head: dict, *, limit: int = MAX_MESSAGE_BYTES) -> bytes:
    """:func:`encode_message` for a head holding one pre-encoded body.

    *head* is the message with one :class:`~repro.persist.codec.EncodedBody`
    in place of its array-carrying part; the result is byte-identical to
    :func:`encode_message` of the full message, and *limit* applies alike.
    """
    return codec.frame_spliced(MESSAGE_KIND, head, limit=limit)


def decode_payload(payload: bytes) -> dict:
    """Decode one message payload (the bytes *after* the header).

    Wraps every codec failure — garbage bytes, a truncated or hostile
    envelope, a schema mismatch — in :class:`~repro.errors.WireProtocolError`,
    preserving the codec's message (for a schema mismatch that message names both
    versions, which is exactly the handshake diagnostic).
    """
    try:
        kind, state = codec.loads(payload)
    except codec.CheckpointError as exc:
        raise WireProtocolError(f"undecodable wire message: {exc}") from exc
    if kind != MESSAGE_KIND:
        raise WireProtocolError(
            f"payload kind {kind!r} is not a wire message (expected {MESSAGE_KIND!r})"
        )
    if not isinstance(state, dict) or "msg" not in state:
        raise WireProtocolError("wire message has no 'msg' discriminator")
    return state


# -- result serializers ---------------------------------------------------------


def _field_names(cls) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


_SEARCH_FIELDS = _field_names(SearchResult)
_QUALITY_FIELDS = _field_names(FrameQuality)
_SESSION_FIELDS = _field_names(SessionSnapshot)
_VIEW_FIELDS = tuple(
    name for name in _field_names(ResolutionSnapshot) if name not in ("series", "search")
)


def _fields_state(obj, names) -> dict:
    """A flat dataclass's fields, read directly (no ``asdict`` deep copy)."""
    return {name: getattr(obj, name) for name in names}


def frame_state(frame: Frame) -> dict:
    """A :class:`Frame` as plain scalars/arrays (codec-serializable)."""
    return {
        "values": frame.series.values,
        "timestamps": frame.series.timestamps,
        "name": frame.series.name,
        "window": frame.window,
        "search": _fields_state(frame.search, _SEARCH_FIELDS),
        "refresh_index": frame.refresh_index,
        "points_ingested": frame.points_ingested,
        "quality": _fields_state(frame.quality, _QUALITY_FIELDS),
    }


def frame_from_state(state: dict) -> Frame:
    return Frame(
        series=TimeSeries(state["values"], state["timestamps"], name=str(state["name"])),
        window=int(state["window"]),
        search=SearchResult(**state["search"]),
        refresh_index=int(state["refresh_index"]),
        points_ingested=int(state["points_ingested"]),
        quality=FrameQuality(**state["quality"]),
    )


def frames_state(frames) -> list:
    return [frame_state(frame) for frame in frames]


def frames_from_state(states) -> list:
    return [frame_from_state(state) for state in states]


def backfill_state(result: BackfillResult) -> dict:
    return {
        "points": result.points,
        "panes": result.panes,
        "frames_elided": result.frames_elided,
        "searches_run": result.searches_run,
        "mode": result.mode,
        "frames": frames_state(result.frames),
    }


def backfill_from_state(state: dict) -> BackfillResult:
    return BackfillResult(
        points=int(state["points"]),
        panes=int(state["panes"]),
        frames_elided=int(state["frames_elided"]),
        searches_run=int(state["searches_run"]),
        mode=str(state["mode"]),
        frames=tuple(frames_from_state(state["frames"])),
    )


def _search_from_state(state) -> SearchResult | None:
    return None if state is None else SearchResult(**state)


def snapshot_state(snap) -> dict:
    """Either snapshot flavour as a tagged tree (``type`` discriminates)."""
    if isinstance(snap, SessionSnapshot):
        state = _fields_state(snap, _SESSION_FIELDS)
        state["config"] = snap.config.to_dict()
        return {"type": "session", **state}
    if isinstance(snap, ResolutionSnapshot):
        state = _fields_state(snap, _VIEW_FIELDS)
        state["values"] = snap.series.values
        state["timestamps"] = snap.series.timestamps
        state["name"] = snap.series.name
        state["search"] = None if snap.search is None else _fields_state(snap.search, _SEARCH_FIELDS)
        return {"type": "resolution", **state}
    raise NetError(f"unserializable snapshot type {type(snap).__name__!r}")


def snapshot_from_state(state: dict):
    flavour = state.pop("type")
    if flavour == "session":
        state["config"] = AsapSpec.from_dict(state["config"])
        return SessionSnapshot(**state)
    if flavour == "resolution":
        series = TimeSeries(
            state.pop("values"), state.pop("timestamps"), name=str(state.pop("name"))
        )
        state["search"] = _search_from_state(state["search"])
        return ResolutionSnapshot(series=series, **state)
    raise WireProtocolError(f"unknown snapshot flavour {flavour!r}")


def hub_stats_state(stats: HubStats) -> dict:
    return dataclasses.asdict(stats)


def hub_stats_from_state(state: dict) -> HubStats:
    return HubStats(**state)


# -- error mapping --------------------------------------------------------------

#: Exception types that cross the wire by name; anything else arrives as the
#: base :class:`~repro.errors.NetError` carrying the original type in its
#: message (bugs should be loud, not misclassified).
_ERROR_TYPES = {
    name: getattr(errors, name)
    for name in errors.__all__
    if isinstance(getattr(errors, name), type)
}
_ERROR_TYPES.update({"ValueError": ValueError, "KeyError": KeyError, "TypeError": TypeError})


def error_state(exc: BaseException) -> dict:
    """One raised exception as a wire tree (type name + message)."""
    if isinstance(exc, errors.ShardDownError):
        return {
            "type": "ShardDownError",
            "message": str(exc),
            "shard_ids": list(exc.shard_ids),
        }
    message = str(exc.args[0]) if len(exc.args) == 1 else str(exc)
    return {"type": type(exc).__name__, "message": message}


def error_from_state(state: dict) -> BaseException:
    """Rebuild the named exception; unknown names become :class:`NetError`."""
    name = str(state.get("type", "NetError"))
    message = str(state.get("message", ""))
    if name == "ShardDownError":
        # partial_frames never cross the wire: the shards' ticks have run
        # server-side and their frames are the server's to deliver/stash.
        return errors.ShardDownError(state.get("shard_ids", ("unknown",)))
    cls = _ERROR_TYPES.get(name)
    if cls is None:
        return NetError(f"remote {name}: {message}")
    return cls(message)


def arrays_state(timestamps, values) -> dict:
    """An arrivals batch as wire arrays (shared by ingest/backfill/history)."""
    return {
        "timestamps": np.asarray(timestamps, dtype=np.float64),
        "values": np.asarray(values, dtype=np.float64),
    }
