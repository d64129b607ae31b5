"""The checkpoint wire format: nested state dicts <-> one raw-buffer envelope.

Checkpoints are **dependency-free**: the only serialization machinery used is
the standard library's :mod:`json` and :mod:`struct` plus numpy's raw array
buffers, all of which every consumer of this repo already has.  No pickle is
ever written or read, and no object dtype ever crosses the boundary, so a
checkpoint can be inspected, diffed, and loaded across Python versions
without executing anything.

**Layout.**  A payload is::

    ENVELOPE_MAGIC (4 bytes) | manifest length (big-endian u32) |
    manifest (UTF-8 JSON) | the arrays' raw bytes, back to back

* the manifest is ``{"schema": <int>, "kind": <str>, "state": <tree>,
  "arrays": [[dtype.str, shape, offset, nbytes], ...]}``.  The tree mirrors
  the producer's ``state_dict()`` nesting; scalars (bool/int/float/str/None)
  are stored inline — floats round-trip exactly because :mod:`json` writes
  shortest-repr float64, and non-finite floats use JSON's ``NaN``/
  ``Infinity`` extension — and every numpy array is replaced by the marker
  ``{"__npz__": "arrN"}``, ``N`` indexing ``arrays`` in tree order;
* each array's bytes are its C-order ``tobytes()`` in its own dtype
  (endianness included), ``offset`` counted from the end of the manifest.

``loads``/``load`` invert the transformation and enforce the schema version:
a payload written by another schema is rejected with :class:`CheckpointError`
naming both versions (the policy is a single monotone integer — any field
change that old readers would misinterpret bumps it; see the README's
"Cluster & durability" section).  Every array descriptor is validated before
any array byte is read — dtype on an allowlist of plain kinds (bool,
numbers, bytes, unicode), non-negative dims, ``prod(shape) * itemsize ==
nbytes``, contiguous in-bounds offsets, no trailing bytes — and each array is
returned as an owned, writable copy.  Any malformed payload, hostile or
corrupt, raises :class:`CheckpointError`, never a bare ``RecursionError`` or
``TypeError``.

**Wire framing.**  The network serving tier (:mod:`repro.net`) speaks this
same envelope over sockets: every message is one ``dumps`` payload behind an
8-byte header — the magic :data:`WIRE_MAGIC` plus a big-endian ``uint32``
payload length (:func:`frame_message` / :func:`parse_header`).  Framing
errors raise :class:`~repro.errors.WireProtocolError`; because the payload
*is* a codec envelope, protocol versioning and checkpoint versioning are the
same :data:`SCHEMA_VERSION`, enforced in one place (``loads``).

**Encode once, splice many.**  :func:`encode_body` encodes one state subtree
into an :class:`EncodedBody`: its JSON fragment, its array descriptors and
its arrays' buffers.  :func:`frame_spliced` frames a small array-free *head*
tree that holds one body somewhere inside it — a response head with the body
under ``result``, a push head with it under ``payload`` — writing only the
head's few keys per message.  Because the head carries no arrays, the body's
markers and offsets are already the message's, and the spliced bytes equal
:func:`frame_message` of the same tree byte for byte.  ``dumps`` is itself
``encode_body`` plus the one manifest writer both paths share.
"""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from ..errors import CheckpointError, WireProtocolError

__all__ = [
    "CheckpointError",
    "SCHEMA_VERSION",
    "ENVELOPE_MAGIC",
    "dumps",
    "loads",
    "EncodedBody",
    "encode_body",
    "dump",
    "load",
    "WIRE_MAGIC",
    "WIRE_HEADER_SIZE",
    "MAX_MESSAGE_BYTES",
    "frame_message",
    "frame_spliced",
    "parse_header",
]

#: Bumped on any incompatible change to the manifest layout or any producer's
#: ``state_dict()`` fields.  Readers reject payloads with a different version.
#: Version 2: session/default configs are full :class:`repro.spec.AsapSpec`
#: dicts (the version-1 hub config fields plus ``use_preaggregation``
#: and ``kernel``), which version-1 readers would reject as unknown fields.
#: Version 3: specs gain ``warm_start``; operator state gains ``warm_start``,
#: ``kernel``, the warm probe trace (``warm_trace``), and the
#: ``warm_prefetches``/``warm_fallbacks`` counters — required keys that
#: version-2 readers would fail on (and version-2 payloads lack).
#: Version 4: specs gain the data-quality knobs (``normalize``, ``cadence``,
#: ``gap_policy``, ``watermark``); operator state gains those fields plus the
#: ``reorder``/``normalizer`` stage states; pane-buffer state gains
#: ``track_quality``/``synth``/``open_synth``; frame state gains ``quality``.
#: Version 5: specs gain the ``backfill`` lane knob; operator state gains
#: ``backfill`` plus the ``backfills``/``backfill_points``/``backfill_elided``
#: counters — required fields that version-4 readers would reject as unknown
#: spec keys.
#: Version 6: specs gain the network-serving knobs (``max_connections``,
#: ``subscribe_queue``), which version-5 readers would reject as unknown
#: fields; the same integer stamps every :mod:`repro.net` wire message, so a
#: client and server disagreeing on any of the above fail the handshake.
#: Version 7: the NPZ (zip + deflate) container is replaced by the raw-buffer
#: envelope described above, which version-6 readers cannot parse.
#: Version 8: operator state keeps its warm-start and backfill counters in one
#: ``counters`` mapping; a hub's ``counters`` also carry the operator totals
#: of closed and evicted sessions (a version-7 reader would drop them), and a
#: cluster's ``retired_stats`` is one mapping instead of a list.
#: Version 9: operator state carries its configuration once, as ``spec`` (an
#: :class:`~repro.spec.AsapSpec` dict), instead of 17 flat keys plus a second
#: copy in the hub session's ``config``; the search and recompute counters
#: moved into ``counters``.
#: Version 10: operator state drops its ``pyramid`` (views are computed from
#: the pane window on demand), its pane journal exists only with incremental
#: statistics, and it gains ``last_timestamp`` (the ordering check on input
#: without a quality stage).
#: Version 11: a pane buffer keeps no per-pane moment sketches (its ``panes``
#: arrays and sketch flag are gone, and the open pane is
#: ``start_time``/``count``/``mean``), and a spec drops its two serving
#: switches for pane sketches and views (19 fields).  A hub's state gains
#: ``stashed_frames``: the frames of a tick that raised, returned by the next.
#: Version 12: a spec drops ``kernel`` (18 fields); candidates are always
#: evaluated by the numpy grid kernels, and a version-11 spec naming the
#: field is rejected as unknown.
#: Version 13: a hub's ``counters`` and the wire's ``HubStats`` drop
#: ``refreshes_coalesced`` and ``grid_kernel_calls`` (a tick refreshes every
#: due session through its own operator), which a version-12 reader's
#: ``HubStats`` requires.
#: Version 14: a spec drops ``incremental``, ``recompute_every`` and
#: ``verify_incremental`` (15 fields); operator state drops its ``rolling``
#: sums and ``refreshes_since_rebuild``, its pane buffer the ``journal`` flag
#: and pending journal, and its counters ``full_recomputes`` and
#: ``exact_fallbacks``: every refresh computes its statistics from the pane
#: window.
SCHEMA_VERSION = 14

#: First bytes of every payload.
ENVELOPE_MAGIC = b"ASRB"

#: Marker key replacing numpy arrays in the JSON manifest tree.
_ARRAY_MARKER = "__npz__"

_ENVELOPE_HEADER = struct.Struct(">4sI")

#: The ``dtype.str`` an envelope may carry, checked by writer and reader
#: alike: byte order, a plain kind (bool, signed/unsigned int, float,
#: complex, bytes, unicode), a positive itemsize.  Object, void (structured
#: or subarray) and datetime dtypes never match.
_DTYPE_STR = re.compile(r"[<>|][biufcSU][1-9][0-9]*")

#: Payloads written by schema <= 6 are zip archives (``np.savez_compressed``).
_ZIP_MAGIC = b"PK\x03\x04"


def _flatten(node, arrays: list, path: str):
    """Replace arrays with markers; validate everything else is JSON-safe."""
    if isinstance(node, np.ndarray):
        if not _DTYPE_STR.fullmatch(node.dtype.str):
            raise CheckpointError(
                f"array at {path!r} has unserializable dtype {node.dtype.str!r}; "
                f"checkpoint arrays must be bool, numeric, bytes or unicode"
            )
        entry = f"arr{len(arrays)}"
        arrays.append(node)
        return {_ARRAY_MARKER: entry}
    if isinstance(node, dict):
        if _ARRAY_MARKER in node:
            raise CheckpointError(f"state dict at {path!r} uses the reserved key {_ARRAY_MARKER!r}")
        return {str(key): _flatten(value, arrays, f"{path}.{key}") for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_flatten(value, arrays, f"{path}[{i}]") for i, value in enumerate(node)]
    if isinstance(node, (np.integer, np.floating, np.bool_)):
        return node.item()
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    raise CheckpointError(
        f"state at {path!r} has unserializable type {type(node).__name__!r}; "
        f"checkpoint state must be scalars, strings, None, lists/dicts, or "
        f"numpy arrays"
    )


def _restore(node, arrays: dict):
    if isinstance(node, dict):
        if set(node) == {_ARRAY_MARKER}:
            # pop: each array belongs to exactly one place in the tree.
            return arrays.pop(node[_ARRAY_MARKER])
        return {key: _restore(value, arrays) for key, value in node.items()}
    if isinstance(node, list):
        return [_restore(value, arrays) for value in node]
    return node


@dataclass(frozen=True, slots=True)
class EncodedBody:
    """One state subtree encoded once: JSON fragment, descriptors, buffers.

    ``buffers`` are the subtree's arrays themselves (C-contiguous; a
    non-contiguous array is the one case that is copied), not ``tobytes()``
    copies: every message spliced from the body reads them when it is framed.
    Cache a body only while its arrays cannot change, as with the read-only
    arrays of a :class:`~repro.timeseries.series.TimeSeries`.
    """

    json: str
    arrays_json: str
    buffers: list
    nbytes: int


def encode_body(state) -> EncodedBody:
    """Encode one state subtree for :func:`dumps` or :func:`frame_spliced`."""
    arrays: list[np.ndarray] = []
    tree = _flatten(state, arrays, "state")
    buffers = [
        array if array.flags.c_contiguous else np.ascontiguousarray(array) for array in arrays
    ]
    descriptors = []
    offset = 0
    for array in buffers:
        descriptors.append([array.dtype.str, list(array.shape), offset, array.nbytes])
        offset += array.nbytes
    return EncodedBody(json.dumps(tree), json.dumps(descriptors), buffers, offset)


def _envelope(kind: str, state_json: str, body: EncodedBody) -> list:
    """The one manifest writer: an envelope's parts around *state_json*.

    Writes exactly what ``json.dumps`` writes for the manifest dict (its
    default separators; JSON text composes), so the state fragment can be
    pre-encoded.  Returns ``[envelope header, manifest, *array buffers]``.
    """
    manifest = (
        f'{{"schema": {SCHEMA_VERSION}, "kind": {json.dumps(str(kind))}, '
        f'"state": {state_json}, "arrays": {body.arrays_json}}}'
    ).encode("utf-8")
    return [_ENVELOPE_HEADER.pack(ENVELOPE_MAGIC, len(manifest)), manifest, *body.buffers]


def dumps(kind: str, state: dict) -> bytes:
    """Encode one state tree as a schema-versioned raw-buffer envelope."""
    body = encode_body(state)
    return b"".join(_envelope(kind, body.json, body))


def _head_json(node, bodies: list, path: str) -> str:
    """JSON text of an array-free head tree, with each body's fragment inlined.

    Validates and converts like :func:`_flatten`, so the text equals
    ``json.dumps`` of the flattened tree the same head would give.
    """
    if isinstance(node, dict):
        if _ARRAY_MARKER in node:
            raise CheckpointError(f"state dict at {path!r} uses the reserved key {_ARRAY_MARKER!r}")
        items = [
            f"{encode_basestring_ascii(str(key))}: {_head_json(value, bodies, f'{path}.{key}')}"
            for key, value in node.items()
        ]
        return "{" + ", ".join(items) + "}"
    if isinstance(node, EncodedBody):
        bodies.append(node)
        return node.json
    if isinstance(node, (list, tuple)):
        items = [_head_json(value, bodies, f"{path}[{i}]") for i, value in enumerate(node)]
        return "[" + ", ".join(items) + "]"
    if node is not None and not isinstance(node, (str, int, float)):
        if isinstance(node, np.ndarray):
            raise CheckpointError(
                f"spliced head has an array at {path!r}; arrays belong in the body"
            )
        node = _flatten(node, [], path)
    return _scalar_json(node)


def _scalar_json(value) -> str:
    """``json.dumps`` of one flattened scalar, without building an encoder."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _malformed(reason: str) -> CheckpointError:
    return CheckpointError(f"malformed checkpoint payload: {reason}")


def _array_layout(descriptors, body: int) -> list[tuple[np.dtype, tuple, int]]:
    """Validate every array descriptor against a body of *body* bytes.

    Returns ``(dtype, shape, offset)`` per array; touches no array bytes.  A
    descriptor that does not unpack as four fields raises ``ValueError`` or
    ``TypeError``, which :func:`loads` reports as malformed.
    """
    layout = []
    expected = 0
    for index, (dtype_str, shape, offset, nbytes) in enumerate(descriptors):
        if not isinstance(dtype_str, str) or not _DTYPE_STR.fullmatch(dtype_str):
            raise _malformed(f"array {index} has disallowed dtype {dtype_str!r}")
        dtype = np.dtype(dtype_str)
        if not isinstance(shape, list) or any(type(dim) is not int or dim < 0 for dim in shape):
            raise _malformed(f"array {index} has invalid shape {shape!r}")
        if type(offset) is not int or offset != expected or type(nbytes) is not int:
            raise _malformed(f"array {index} must start at byte {expected} with an integer size")
        if math.prod(shape) * dtype.itemsize != nbytes:
            raise _malformed(
                f"array {index} declares {nbytes} bytes for shape {shape} of {dtype_str}"
            )
        if offset + nbytes > body:
            raise _malformed(f"array {index} runs past the end of the payload")
        layout.append((dtype, tuple(shape), offset))
        expected = offset + nbytes
    if expected != body:
        raise _malformed(f"{body - expected} trailing bytes after the last array")
    return layout


def loads(data: bytes) -> tuple[str, dict]:
    """Decode a payload produced by :func:`dumps`; returns ``(kind, state)``."""
    if data[:4] == _ZIP_MAGIC:
        raise CheckpointError(
            f"payload is an NPZ checkpoint from schema version <= 6; this reader "
            f"(version {SCHEMA_VERSION}) reads only the raw-buffer envelope; "
            f"re-checkpoint with a matching version of the library"
        )
    if len(data) < _ENVELOPE_HEADER.size:
        raise _malformed(f"{len(data)} bytes is shorter than the envelope header")
    magic, length = _ENVELOPE_HEADER.unpack_from(data)
    if magic != ENVELOPE_MAGIC:
        raise _malformed(f"bad envelope magic {magic!r}; not a repro checkpoint")
    start = _ENVELOPE_HEADER.size + length
    if start > len(data):
        raise _malformed(f"manifest length {length} runs past the payload")
    try:
        manifest = json.loads(data[_ENVELOPE_HEADER.size : start].decode("utf-8"))
        if not isinstance(manifest, dict):
            raise _malformed("manifest is not a JSON object")
        schema = manifest.get("schema")
        if schema != SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint schema version {schema!r} is not supported by "
                f"this reader (version {SCHEMA_VERSION}); re-checkpoint with "
                f"a matching version of the library"
            )
        layout = _array_layout(manifest.get("arrays"), len(data) - start)
        arrays = {
            f"arr{index}": np.frombuffer(
                data, dtype, count=math.prod(shape), offset=start + offset
            ).reshape(shape).copy()
            for index, (dtype, shape, offset) in enumerate(layout)
        }
        return manifest["kind"], _restore(manifest["state"], arrays)
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors; a manifest
        # nested past the interpreter's recursion limit is a RecursionError.
        raise _malformed(f"{type(exc).__name__}: {exc}") from exc


#: First bytes of every wire message; garbage (an HTTP request, say, or a
#: random port scan) is rejected on the first 4 bytes instead of being
#: buffered until some bogus length prefix is satisfied.
WIRE_MAGIC = b"ASNP"

#: Magic (4 bytes) + big-endian uint32 payload length.
WIRE_HEADER_SIZE = 8

#: Default per-message payload ceiling (64 MiB).  Large enough for a
#: checkpoint of a busy hub, small enough that a hostile or corrupt length
#: prefix cannot make a peer allocate without bound.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

_WIRE_HEADER = struct.Struct(">4sI")


def frame_message(kind: str, state: dict, *, limit: int = MAX_MESSAGE_BYTES) -> bytes:
    """One wire message: the 8-byte header plus a :func:`dumps` envelope.

    Raises :class:`~repro.errors.WireProtocolError` when the encoded payload
    exceeds *limit* — the sender's half of the bound :func:`parse_header`
    enforces on receipt, so an oversized message fails loudly at its source
    instead of poisoning the peer's connection.
    """
    return frame_spliced(kind, encode_body(state), limit=limit)


def frame_spliced(kind: str, head, *, limit: int = MAX_MESSAGE_BYTES) -> bytes:
    """One wire message for *head*, which holds exactly one :class:`EncodedBody`.

    The head is everything else in the message — a few scalars and dicts,
    no arrays — and is the only part encoded per call (a bare body is a
    head too).  The bytes equal :func:`frame_message` of the same tree with
    the body's state in place, and *limit* is enforced the same way.
    """
    bodies: list[EncodedBody] = []
    state_json = _head_json(head, bodies, "state")
    if len(bodies) != 1:
        raise CheckpointError(f"a spliced head holds exactly one body, got {len(bodies)}")
    parts = _envelope(kind, state_json, bodies[0])
    size = _ENVELOPE_HEADER.size + len(parts[1]) + bodies[0].nbytes
    if size > limit:
        raise WireProtocolError(
            f"message payload is {size} bytes, over the {limit}-byte wire limit"
        )
    return b"".join([_WIRE_HEADER.pack(WIRE_MAGIC, size), *parts])


def parse_header(header: bytes, *, limit: int = MAX_MESSAGE_BYTES) -> int:
    """Validate one 8-byte wire header; returns the payload length to read.

    Raises :class:`~repro.errors.WireProtocolError` on a short header, a bad
    magic (the peer is not speaking this protocol), or a length over *limit*
    (a corrupt or hostile prefix must never drive allocation).
    """
    if len(header) != WIRE_HEADER_SIZE:
        raise WireProtocolError(
            f"truncated wire header: got {len(header)} of {WIRE_HEADER_SIZE} bytes"
        )
    magic, length = _WIRE_HEADER.unpack(header)
    if magic != WIRE_MAGIC:
        raise WireProtocolError(
            f"bad wire magic {magic!r}; peer is not speaking the ASAP protocol"
        )
    if length > limit:
        raise WireProtocolError(
            f"declared payload of {length} bytes exceeds the {limit}-byte wire limit"
        )
    return int(length)


def dump(kind: str, state: dict, path) -> Path:
    """Encode and write a payload; returns the path written."""
    path = Path(path)
    path.write_bytes(dumps(kind, state))
    return path


def load(source) -> tuple[str, dict]:
    """Decode a payload from raw ``bytes`` or a filesystem path."""
    if isinstance(source, (bytes, bytearray)):
        return loads(bytes(source))
    return loads(Path(source).read_bytes())
