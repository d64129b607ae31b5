"""Wire-protocol unit tests: framing, envelope round trips, error mapping.

The properties the serving tier depends on:

* a message is ``ASNP`` + big-endian u32 length + one codec envelope, and
  every malformed variant (short header, wrong magic, hostile length,
  garbage payload, truncated or byte-flipped envelope) is rejected with a
  **named** error — never a hang, never a pickle load;
* the envelope round-trips every result object bit-exactly (frames carry
  float64 arrays; ``tobytes()`` equality is the law here as everywhere);
* exceptions cross the wire as their own types.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import errors
from repro.core.search import SearchResult
from repro.core.streaming import BackfillResult, Frame
from repro.errors import (
    HubAtCapacityError,
    NetError,
    UnknownStreamError,
    WireProtocolError,
)
from repro.net import wire
from repro.persist import codec
from repro.quality import FrameQuality
from repro.service import StreamHub
from repro.spec import AsapSpec
from repro.timeseries.series import TimeSeries


def make_frame(n=8, seed=0, window=3, refresh_index=1):
    rng = np.random.default_rng(seed)
    return Frame(
        series=TimeSeries(rng.normal(size=n), np.arange(n, dtype=float), name="s"),
        window=window,
        search=SearchResult(
            window=window,
            roughness=0.5,
            kurtosis=3.0,
            candidates_evaluated=4,
            strategy="asap",
            max_window=20,
        ),
        refresh_index=refresh_index,
        points_ingested=n * 4,
        quality=FrameQuality(),
    )


class TestFraming:
    def test_message_round_trip(self):
        payload = {"msg": "request", "id": 1, "op": "ping", "args": {}}
        data = wire.encode_message(payload)
        assert data[:4] == codec.WIRE_MAGIC
        length = codec.parse_header(data[: codec.WIRE_HEADER_SIZE])
        assert length == len(data) - codec.WIRE_HEADER_SIZE
        assert wire.decode_payload(data[codec.WIRE_HEADER_SIZE :]) == payload

    def test_truncated_header_named(self):
        with pytest.raises(WireProtocolError, match="truncated wire header"):
            codec.parse_header(b"ASN")

    def test_bad_magic_named(self):
        header = b"GET " + struct.pack(">I", 100)
        with pytest.raises(WireProtocolError, match="bad wire magic"):
            codec.parse_header(header)

    def test_hostile_length_never_allocates(self):
        header = codec.WIRE_MAGIC + struct.pack(">I", 2**32 - 1)
        with pytest.raises(WireProtocolError, match="exceeds the"):
            codec.parse_header(header)

    def test_oversized_message_fails_at_sender(self):
        big = {"msg": "push", "blob": np.ones(1024, dtype=np.float64)}
        with pytest.raises(WireProtocolError, match="wire limit"):
            wire.encode_message(big, limit=64)

    def test_spliced_head_must_be_array_free_with_one_body(self):
        body = codec.encode_body({"values": np.ones(3)})
        with pytest.raises(codec.CheckpointError, match="arrays belong in the body"):
            wire.splice_message({"msg": "push", "extra": np.ones(2), "payload": body})
        with pytest.raises(codec.CheckpointError, match="exactly one body"):
            wire.splice_message({"msg": "push"})
        with pytest.raises(codec.CheckpointError, match="exactly one body"):
            wire.splice_message({"msg": "push", "a": body, "b": body})

    def test_garbage_payload_named_not_pickled(self):
        with pytest.raises(WireProtocolError, match="undecodable wire message"):
            wire.decode_payload(b"\x80\x04cPickles are not welcome here.")

    def test_truncated_payload_rejected(self):
        data = wire.encode_message({"msg": "request", "id": 1, "op": "ping", "args": {}})
        with pytest.raises(WireProtocolError):
            wire.decode_payload(data[codec.WIRE_HEADER_SIZE : -7])

    def test_checkpoint_payload_is_not_a_message(self):
        payload = codec.dumps("streamhub", {"some": "state"})
        with pytest.raises(WireProtocolError, match="not a wire message"):
            wire.decode_payload(payload)

    def test_schema_mismatch_mirrors_codec_error(self, monkeypatch):
        data = wire.encode_message({"msg": "hello"})
        monkeypatch.setattr(codec, "SCHEMA_VERSION", codec.SCHEMA_VERSION + 1)
        with pytest.raises(WireProtocolError) as excinfo:
            wire.decode_payload(data[codec.WIRE_HEADER_SIZE :])
        # The codec's own schema diagnostic, naming both versions.
        assert "schema version" in str(excinfo.value)
        assert str(codec.SCHEMA_VERSION) in str(excinfo.value)
        assert str(codec.SCHEMA_VERSION - 1) in str(excinfo.value)


class TestResultSerializers:
    def test_frame_bit_identical(self):
        frame = make_frame()
        back = wire.frame_from_state(wire.frame_state(frame))
        assert back.series.values.tobytes() == frame.series.values.tobytes()
        assert back.series.timestamps.tobytes() == frame.series.timestamps.tobytes()
        assert back.search == frame.search
        assert back.quality == frame.quality
        assert (back.window, back.refresh_index, back.points_ingested) == (
            frame.window,
            frame.refresh_index,
            frame.points_ingested,
        )

    def test_backfill_result_round_trip(self):
        result = BackfillResult(
            points=100,
            panes=25,
            frames_elided=3,
            searches_run=2,
            mode="fast",
            frames=(make_frame(seed=1), make_frame(seed=2)),
        )
        back = wire.backfill_from_state(wire.backfill_state(result))
        assert (back.points, back.panes, back.frames_elided) == (100, 25, 3)
        assert (back.searches_run, back.mode) == (2, "fast")
        assert len(back.frames) == 2
        for a, b in zip(back.frames, result.frames):
            assert a.series.values.tobytes() == b.series.values.tobytes()

    def test_serialized_bytes_match_the_deep_copying_trees(self):
        """The serializers read fields directly and skip array copies; the
        bytes they encode to are those of the ``dataclasses.asdict`` trees
        with copied arrays that they replace."""
        hub = StreamHub(default_config=AsapSpec(pane_size=4, resolution=10, refresh_interval=5))
        hub.create_stream("s")
        rng = np.random.default_rng(3)
        frames = hub.ingest("s", np.arange(300.0), rng.normal(size=300).cumsum())
        frame = frames[-1]
        reference = {
            "values": frame.series.values.copy(),
            "timestamps": frame.series.timestamps.copy(),
            "name": frame.series.name,
            "window": frame.window,
            "search": dataclasses.asdict(frame.search),
            "refresh_index": frame.refresh_index,
            "points_ingested": frame.points_ingested,
            "quality": dataclasses.asdict(frame.quality),
        }
        assert codec.dumps("k", wire.frame_state(frame)) == codec.dumps("k", reference)

        session = hub.snapshot("s")
        reference = dataclasses.asdict(session)
        reference["config"] = session.config.to_dict()
        assert codec.dumps("k", wire.snapshot_state(session)) == codec.dumps(
            "k", {"type": "session", **reference}
        )

        view = hub.snapshot("s", resolution=20)
        reference = {
            field.name: getattr(view, field.name)
            for field in dataclasses.fields(view)
            if field.name not in ("series", "search")
        }
        reference["values"] = view.series.values.copy()
        reference["timestamps"] = view.series.timestamps.copy()
        reference["name"] = view.series.name
        reference["search"] = dataclasses.asdict(view.search)
        assert codec.dumps("k", wire.snapshot_state(view)) == codec.dumps(
            "k", {"type": "resolution", **reference}
        )

    def test_unknown_snapshot_flavour_rejected(self):
        with pytest.raises(WireProtocolError, match="unknown snapshot flavour"):
            wire.snapshot_from_state({"type": "martian"})


class TestErrorMapping:
    @pytest.mark.parametrize(
        "exc",
        [
            UnknownStreamError("stream-7"),
            HubAtCapacityError("hub full"),
            WireProtocolError("bad frame"),
            errors.SpecError("resolution must be >= 1"),
            ValueError("plain"),
        ],
    )
    def test_named_errors_round_trip_as_their_type(self, exc):
        back = wire.error_from_state(wire.error_state(exc))
        assert type(back) is type(exc)

    def test_shard_down_reconstructs_shard_ids(self):
        exc = errors.ShardDownError(["shard-0", "shard-2"])
        back = wire.error_from_state(wire.error_state(exc))
        assert isinstance(back, errors.ShardDownError)
        assert list(back.shard_ids) == ["shard-0", "shard-2"]

    def test_unknown_type_degrades_to_neterror(self):
        back = wire.error_from_state({"type": "ExoticError", "message": "boom"})
        assert isinstance(back, NetError)
        assert "ExoticError" in str(back) and "boom" in str(back)


# -- hypothesis: the envelope encoder/decoder is the identity -------------------

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, width=64)
    | st.text(max_size=20).filter(lambda s: s != "__npz__")
)
arrays = st.builds(
    lambda seed, n: np.random.default_rng(seed).normal(size=n),
    st.integers(0, 2**16),
    st.integers(0, 16),
)
trees = st.recursive(
    scalars | arrays,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.text(max_size=10).filter(lambda s: s != "__npz__"), children, max_size=4
    ),
    max_leaves=12,
)


def assert_tree_equal(a, b):
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.tobytes() == b.tobytes()
    elif isinstance(a, dict):
        assert set(a) == set(b)
        for key in a:
            assert_tree_equal(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_tree_equal(x, y)
    else:
        assert a == b


#: Head scalars may be any JSON scalar, NaN and infinities included (a
#: response echoes whatever request id the client sent).
head_scalars = scalars | st.floats(width=64)


def assert_splice_matches(head_with_body, full_message):
    """Spliced bytes equal encode_message's, and so does the oversize error."""
    expected = wire.encode_message(full_message)
    assert wire.splice_message(head_with_body) == expected
    limit = len(expected) - codec.WIRE_HEADER_SIZE - 1
    with pytest.raises(WireProtocolError) as framed:
        wire.encode_message(full_message, limit=limit)
    with pytest.raises(WireProtocolError) as spliced:
        wire.splice_message(head_with_body, limit=limit)
    assert str(spliced.value) == str(framed.value)


@given(tree=trees, request_id=head_scalars, stream_id=st.text(max_size=10), seq=st.integers(0, 2**40))
def test_envelope_round_trip_property(tree, request_id, stream_id, seq):
    """Any JSON-plus-arrays message body survives the wire bit-exactly, and
    splicing it pre-encoded under a response or push head writes the same
    bytes as encoding the whole message."""
    message = {"msg": "request", "id": 1, "op": "x", "args": {"tree": tree}}
    data = wire.encode_message(message)
    length = codec.parse_header(data[: codec.WIRE_HEADER_SIZE])
    payload = data[codec.WIRE_HEADER_SIZE :]
    assert len(payload) == length
    decoded = wire.decode_payload(payload)
    assert_tree_equal(decoded["args"]["tree"], tree)

    body = codec.encode_body(tree)
    response = {"msg": "response", "id": request_id, "ok": True}
    assert_splice_matches({**response, "result": body}, {**response, "result": tree})
    push = {"msg": "push", "subscription": 3, "stream_id": stream_id, "seq": seq, "push_dropped": 0}
    assert_splice_matches(
        {**push, "payload": {"type": "view", "view": body}},
        {**push, "payload": {"type": "view", "view": tree}},
    )


# -- hypothesis: a corrupted payload decodes or fails with the named error ------


@given(tree=trees, data=st.data())
def test_corrupted_payload_decodes_or_raises_wire_error(tree, data):
    """Any truncation or single-byte flip of a valid payload either decodes
    or raises :class:`WireProtocolError` — never another exception type,
    which on the server would drop the connection without a named error."""
    message = {"msg": "request", "id": 1, "op": "x", "args": {"tree": tree}}
    payload = wire.encode_message(message)[codec.WIRE_HEADER_SIZE :]
    if data.draw(st.booleans(), label="truncate"):
        corrupted = payload[: data.draw(st.integers(0, len(payload) - 1), label="cut")]
    else:
        # Flips in the raw array bytes always decode (any bytes are valid
        # floats), so half the draws aim at the header and JSON manifest.
        manifest_end = 8 + struct.unpack(">I", payload[4:8])[0]
        end = data.draw(st.sampled_from([manifest_end, len(payload)]), label="region")
        index = data.draw(st.integers(0, end - 1), label="index")
        flipped = payload[index] ^ data.draw(st.integers(1, 255), label="xor")
        corrupted = payload[:index] + bytes([flipped]) + payload[index + 1 :]
    try:
        wire.decode_payload(corrupted)
    except WireProtocolError:
        pass


def test_deeply_nested_manifest_is_a_wire_error():
    depth = 100_000
    manifest = b'{"schema": %d, "kind": "asap-net", "arrays": [], "state": ' % codec.SCHEMA_VERSION
    manifest += b"[" * depth + b"]" * depth + b"}"
    payload = codec.ENVELOPE_MAGIC + struct.pack(">I", len(manifest)) + manifest
    with pytest.raises(WireProtocolError, match="malformed"):
        wire.decode_payload(payload)
