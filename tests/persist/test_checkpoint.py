"""Unit tests for the persist tier: codec, session export/import, checkpoint."""

from __future__ import annotations

import io
import json
import struct
import tracemalloc

import numpy as np
import pytest

from repro.core.streaming import StreamingASAP
from repro.errors import SpecError
from repro.persist import SCHEMA_VERSION, CheckpointError, checkpoint, restore
from repro.persist import codec
from repro.service import HubError, StreamHub, UnknownStreamError
from repro.spec import AsapSpec
from repro.stream.panes import PaneBuffer


def make_wave(n, seed=0, offset=0.0):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    return offset + np.sin(2 * np.pi * t / 90) + 0.25 * rng.normal(size=n)


# -- codec ---------------------------------------------------------------------


def test_codec_round_trips_nested_state():
    state = {
        "ints": 7,
        "floats": 0.1 + 0.2,
        "negzero": -0.0,
        "nan": float("nan"),
        "inf": float("inf"),
        "none": None,
        "flag": True,
        "text": "naïve",
        "list": [1, [2.5, None], {"k": "v"}],
        "array": np.arange(5, dtype=np.float64),
        "ints64": np.arange(3, dtype=np.int64),
        "empty": np.empty(0, dtype=np.float64),
    }
    kind, loaded = codec.loads(codec.dumps("unit", state))
    assert kind == "unit"
    assert loaded["ints"] == 7
    assert loaded["floats"] == 0.1 + 0.2  # bit-exact through JSON shortest repr
    assert str(loaded["negzero"]) == "-0.0"
    assert np.isnan(loaded["nan"]) and loaded["inf"] == float("inf")
    assert loaded["none"] is None and loaded["flag"] is True
    assert loaded["text"] == "naïve"
    assert loaded["list"] == [1, [2.5, None], {"k": "v"}]
    assert np.array_equal(loaded["array"], state["array"])
    assert loaded["ints64"].dtype == np.int64
    assert loaded["empty"].size == 0


def test_codec_rejects_unserializable_state():
    with pytest.raises(CheckpointError, match="unserializable type"):
        codec.dumps("unit", {"bad": object()})


def test_codec_rejects_reserved_key():
    with pytest.raises(CheckpointError, match="reserved key"):
        codec.dumps("unit", {"__npz__": 1})


def test_codec_rejects_garbage_payload():
    with pytest.raises(CheckpointError, match="malformed"):
        codec.loads(b"not a checkpoint at all")


def test_codec_rejects_foreign_schema_version(monkeypatch):
    payload = codec.dumps("unit", {"x": 1})
    monkeypatch.setattr(codec, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
    with pytest.raises(CheckpointError, match="schema version"):
        codec.loads(payload)


def test_codec_dump_load_path(tmp_path):
    path = codec.dump("unit", {"a": np.ones(3)}, tmp_path / "state.npz")
    kind, state = codec.load(path)
    assert kind == "unit"
    assert np.array_equal(state["a"], np.ones(3))


def _bits(pattern: int) -> np.float64:
    return np.array([pattern], dtype=np.uint64).view(np.float64)[0]


ROUND_TRIP_ARRAYS = {
    "zero_d": np.array(3.5),
    "zero_d_int": np.array(-7, dtype=np.int64),
    "empty": np.empty(0, dtype=np.float64),
    "empty_2d": np.empty((0, 4), dtype=np.float64),
    "empty_trailing": np.empty((3, 0), dtype=np.int64),
    "strided_slice": np.arange(20, dtype=np.float64)[::3],
    "column_slice": np.arange(12, dtype=np.float64).reshape(3, 4)[:, 1],
    "reversed": np.arange(6, dtype=np.int64)[::-1],
    "fortran_2d": np.asfortranarray(np.arange(12, dtype=np.float64).reshape(3, 4)),
    "big_endian": np.array([1.5, -2.25, 1e300], dtype=">f8"),
    "bool": np.array([True, False, True]),
    "int64": np.array([-(2**63), 0, 2**63 - 1], dtype=np.int64),
    "uint8": np.arange(256, dtype=np.uint8),
    "unicode": np.array(["naïve", "", "ascii"]),
    "bytes": np.array([b"ab", b"\x00c"]),
    "complex": np.array([1 + 2j, -0.0 - 1j]),
    "float_edges": np.array(
        [
            -0.0,
            5e-324,  # smallest denormal
            np.finfo(np.float64).tiny / 2,  # a denormal
            _bits(0x7FF8000000000001),  # quiet NaN with a payload
            _bits(0x7FF0000000000001),  # signalling NaN bit pattern
            _bits(0xFFF8000000000000),  # negative NaN
            np.inf,
            -np.inf,
        ]
    ),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_ARRAYS))
def test_codec_round_trips_array_bytes_and_dtype(name):
    array = ROUND_TRIP_ARRAYS[name]
    _, state = codec.loads(codec.dumps("unit", {"a": array, "nested": [array]}))
    for back in (state["a"], state["nested"][0]):
        assert back.dtype == array.dtype
        assert back.shape == array.shape
        assert back.tobytes() == array.tobytes()
        # Owned, writable, and not aliased with its twin.
        assert back.flags.writeable and back.flags.owndata
    assert not np.shares_memory(state["a"], state["nested"][0])


@pytest.mark.parametrize(
    "array",
    [np.array([object()]), np.array(["2017-01-01"], dtype="datetime64[D]"), np.zeros(2, "i4,f8")],
    ids=["object", "datetime", "structured"],
)
def test_codec_refuses_to_encode_non_plain_dtypes(array):
    with pytest.raises(CheckpointError, match="unserializable dtype"):
        codec.dumps("unit", {"a": array})


def forge(manifest, body: bytes = b"") -> bytes:
    """A raw-buffer envelope around an arbitrary manifest."""
    encoded = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode()
    return codec.ENVELOPE_MAGIC + struct.pack(">I", len(encoded)) + encoded + body


def forge_manifest(state, arrays=(), body: bytes = b"") -> bytes:
    manifest = {"schema": SCHEMA_VERSION, "kind": "unit", "state": state, "arrays": arrays}
    return forge(manifest, body)


def forge_arrays(descriptors, body: bytes = b"") -> bytes:
    state = {f"a{i}": {"__npz__": f"arr{i}"} for i in range(len(descriptors))}
    return forge_manifest(state, descriptors, body)


def test_forged_envelope_decodes():
    """The forgery helpers speak the real layout (the cases below are not
    rejected for some unrelated reason)."""
    payload = forge_arrays([["<f8", [2], 0, 16]], np.array([1.0, 2.0]).tobytes())
    _, state = codec.loads(payload)
    assert state["a0"].tolist() == [1.0, 2.0]


DEEP = 100_000
#: case -> (payload, the reason the codec must name).  Matching the reason
#: pins that the descriptor check itself fired, not a later numpy error.
HOSTILE_PAYLOADS = {
    "deep_nesting": (
        forge(
            b'{"schema": %d, "kind": "unit", "arrays": [], "state": ' % SCHEMA_VERSION
            + b"[" * DEEP
            + b"]" * DEEP
            + b"}"
        ),
        "RecursionError",
    ),
    "object_dtype": (forge_arrays([["|O", [1], 0, 8]], bytes(8)), "disallowed dtype"),
    "structured_dtype": (forge_arrays([["i4,f8", [1], 0, 12]], bytes(12)), "disallowed dtype"),
    "non_string_dtype": (forge_arrays([[8, [1], 0, 8]], bytes(8)), "disallowed dtype"),
    "nbytes_shape_mismatch": (forge_arrays([["<f8", [3], 0, 16]], bytes(16)), "declares 16"),
    "offset_past_end": (
        forge_arrays([["<f8", [1], 0, 8], ["<f8", [1], 8, 8]], bytes(8)),
        "past the end",
    ),
    "nbytes_past_end": (forge_arrays([["<f8", [2], 0, 16]], bytes(8)), "past the end"),
    "gap_between_arrays": (
        forge_arrays([["<f8", [1], 0, 8], ["<f8", [1], 16, 8]], bytes(24)),
        "must start at byte 8",
    ),
    "negative_dims": (forge_arrays([["<f8", [-1, -2], 0, 16]], bytes(16)), "invalid shape"),
    "float_dims": (forge_arrays([["<f8", [2.0], 0, 16]], bytes(16)), "invalid shape"),
    "huge_shape_small_nbytes": (forge_arrays([["<f8", [2**62], 0, 8]], bytes(8)), "declares 8"),
    "huge_shape_huge_nbytes": (
        forge_arrays([["<f8", [2**62], 0, 2**65]], bytes(8)),
        "past the end",
    ),
    "trailing_bytes": (forge_arrays([["<f8", [1], 0, 8]], bytes(9)), "1 trailing bytes"),
    "bad_descriptor_arity": (forge_arrays([["<f8", [1], 0]], bytes(8)), "ValueError"),
    "arrays_not_a_list": (forge_manifest({}, arrays=3), "TypeError"),
    "unknown_marker": (forge_manifest({"a": {"__npz__": "arr5"}}), "KeyError"),
    "duplicate_marker": (  # two tree nodes may not alias one array
        forge_manifest(
            {"a": {"__npz__": "arr0"}, "b": {"__npz__": "arr0"}}, [["<f8", [1], 0, 8]], bytes(8)
        ),
        "KeyError",
    ),
    "unhashable_marker": (
        forge_manifest({"a": {"__npz__": []}}, [["<f8", [1], 0, 8]], bytes(8)),
        "TypeError",
    ),
    "manifest_length_past_payload": (
        codec.ENVELOPE_MAGIC + struct.pack(">I", 1000) + b"{}",
        "manifest length 1000",
    ),
    "manifest_not_a_dict": (forge([SCHEMA_VERSION, "unit"]), "not a JSON object"),
    "manifest_not_utf8": (forge(b'{"kind": "\xff"}'), "UnicodeDecodeError"),
    "manifest_not_json": (forge(b"{schema: 7"), "JSONDecodeError"),
    "short_header": (codec.ENVELOPE_MAGIC + b"\x00", "shorter than the envelope header"),
    "bad_magic": (b"ASXX" + bytes(8), "bad envelope magic"),
    "no_kind": (forge({"schema": SCHEMA_VERSION, "state": {}, "arrays": []}), "KeyError"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_PAYLOADS))
def test_codec_rejects_hostile_payload_with_named_error(case):
    payload, reason = HOSTILE_PAYLOADS[case]
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="malformed") as excinfo:
            codec.loads(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reason in str(excinfo.value)
    # Rejected from the manifest alone: nothing near the declared size is
    # ever allocated (the deep-nesting case parses ~200 KB of brackets).
    assert peak < 64 * 1024 * 1024


def test_codec_names_npz_checkpoints_from_older_schemas():
    buffer = io.BytesIO()
    np.savez_compressed(buffer, manifest=np.frombuffer(b'{"schema": 6}', dtype=np.uint8))
    npz = buffer.getvalue()
    for payload in (npz, npz[:4]):  # the zip is never parsed, only recognised
        with pytest.raises(CheckpointError) as excinfo:
            codec.loads(payload)
        message = str(excinfo.value)
        assert "NPZ checkpoint" in message
        assert "schema version <= 6" in message
        assert f"version {SCHEMA_VERSION}" in message and SCHEMA_VERSION == 14


# -- component state round trips ----------------------------------------------


@pytest.mark.parametrize("track_quality", [True, False])
def test_pane_buffer_state_round_trip(track_quality):
    buffer = PaneBuffer(pane_size=4, capacity=16, track_quality=track_quality)
    values = make_wave(103)
    ts = np.arange(103, dtype=np.float64)
    synthetic = np.arange(103) % 5 == 0
    buffer.extend(ts[:50], values[:50], synthetic[:50])
    buffer.extend(ts[50:103], values[50:103], synthetic[50:103])  # open pane: 3 points

    clone = PaneBuffer.from_state(buffer.state_dict())
    assert np.array_equal(clone.aggregated_values(), buffer.aggregated_values())
    assert np.array_equal(clone.aggregated_timestamps(), buffer.aggregated_timestamps())
    assert clone.total_points == buffer.total_points
    assert clone.evicted_panes == buffer.evicted_panes
    assert clone.open_pane_points == buffer.open_pane_points == 3
    assert clone.state_dict()["open"] == buffer.state_dict()["open"]
    assert clone.window_synthetic_points == buffer.window_synthetic_points
    assert (buffer.window_synthetic_points > 0) == track_quality

    # Identical behavior from here on: same completions, evictions and window.
    more = make_wave(37, seed=5)
    more_ts = ts[-1] + 1 + np.arange(37, dtype=np.float64)
    assert buffer.extend(more_ts, more) == clone.extend(more_ts, more)
    assert clone.evicted_panes == buffer.evicted_panes
    assert np.array_equal(clone.aggregated_values(), buffer.aggregated_values())
    assert np.array_equal(clone.aggregated_timestamps(), buffer.aggregated_timestamps())


@pytest.mark.parametrize("resolution", [4, 8, 40, 128])
def test_operator_views_survive_state_round_trip(resolution):
    # Views are resolved from the pane window, so a restored operator serves
    # the same views at every level, before and after further ingest.
    values = make_wave(1000)
    ts = np.arange(1000, dtype=np.float64)
    operator = StreamingASAP(AsapSpec(pane_size=2, resolution=128, refresh_interval=9))
    list(operator.push_many(ts[:700], values[:700]))
    state = codec.loads(codec.dumps("operator", operator.state_dict()))[1]
    clone = StreamingASAP.from_state(state)

    def assert_same_views():
        view_a, view_b = operator.pyramid_view(resolution), clone.pyramid_view(resolution)
        assert view_a.values.tobytes() == view_b.values.tobytes()
        assert view_a.timestamps.tobytes() == view_b.timestamps.tobytes()
        assert (view_a.base_start, view_a.base_end) == (view_b.base_start, view_b.base_end)
        assert (view_a.level_ratio, view_a.residual) == (view_b.level_ratio, view_b.residual)

    assert_same_views()
    list(operator.push_many(ts[700:], values[700:]))
    list(clone.push_many(ts[700:], values[700:]))
    assert_same_views()


@pytest.mark.parametrize("strategy", ["asap", "grid2"])
@pytest.mark.parametrize("through_codec", [False, True])
def test_streaming_operator_resumes_bit_identically(through_codec, strategy):
    values = make_wave(3000, seed=11)
    ts = np.arange(3000, dtype=np.float64)

    def build():
        return StreamingASAP(
            AsapSpec(pane_size=3, resolution=256, refresh_interval=7, strategy=strategy)
        )

    baseline = build()
    reference = list(baseline.push_many(ts, values))

    interrupted = build()
    split = 1357  # mid-pane, mid-refresh-interval
    frames = list(interrupted.push_many(ts[:split], values[:split]))
    state = interrupted.state_dict()
    if through_codec:
        state = codec.loads(codec.dumps("operator", state))[1]
    clone = StreamingASAP.from_state(state)
    assert clone.points_ingested == interrupted.points_ingested
    frames += list(clone.push_many(ts[split:], values[split:]))

    assert len(frames) == len(reference)
    for a, b in zip(reference, frames):
        assert a.window == b.window
        assert np.array_equal(a.series.values, b.series.values)
        assert a.search.roughness == b.search.roughness
        assert a.search.kurtosis == b.search.kurtosis
        assert repr(a.search) == repr(b.search)


# -- hub session export/import -------------------------------------------------


def hub_with_stream(**config_overrides):
    hub = StreamHub(default_config=AsapSpec(pane_size=2, resolution=64, refresh_interval=5))
    sid = hub.create_stream("s", **config_overrides)
    values = make_wave(600)
    hub.ingest(sid, np.arange(600, dtype=np.float64), values)
    hub.tick()
    return hub, sid


def test_export_import_moves_session_between_hubs():
    hub, sid = hub_with_stream()
    other = StreamHub()
    state = hub.export_session(sid, remove=True)
    assert sid not in hub
    assert hub.stats.sessions_exported == 1
    assert other.import_session(state) == sid
    assert other.stats.sessions_imported == 1
    # The moved session keeps serving: same window after the same new data.
    more = make_wave(120, seed=2)
    ts = 600 + np.arange(120, dtype=np.float64)
    other.ingest(sid, ts, more)
    frames = other.tick().get(sid, [])
    assert frames, "imported session should refresh on schedule"


def test_export_without_remove_keeps_serving():
    hub, sid = hub_with_stream()
    state = hub.export_session(sid)
    assert sid in hub
    assert hub.stats.sessions_exported == 0
    assert state["stream_id"] == sid


def test_import_rejects_duplicate_and_over_budget():
    hub, sid = hub_with_stream()
    state = hub.export_session(sid)
    with pytest.raises(HubError, match="already exists"):
        hub.import_session(state)
    tiny = StreamHub(max_panes_per_session=8)
    with pytest.raises(HubError, match="max_panes_per_session"):
        tiny.import_session(state)


def test_import_under_rename():
    hub, sid = hub_with_stream()
    state = hub.export_session(sid)
    assert hub.import_session(state, stream_id="renamed") == "renamed"
    assert "renamed" in hub


def test_export_unknown_stream():
    hub, _sid = hub_with_stream()
    with pytest.raises(UnknownStreamError):
        hub.export_session("ghost")
    with pytest.raises(UnknownStreamError):
        hub.export_session("ghost", remove=True)


# -- restore holds each session to its one spec --------------------------------


def exported_session():
    hub, sid = hub_with_stream()
    return hub.export_session(sid)


def assert_restore_refuses(session_state, error, match):
    """Both restore paths, import_session and StreamHub.from_state, refuse."""
    target = StreamHub(max_panes_per_session=100, default_config=AsapSpec(resolution=64))
    with pytest.raises(error, match=match):
        target.import_session(session_state)
    hub_state = target.state_dict()
    hub_state["sessions"] = [session_state]
    with pytest.raises(error, match=match):
        StreamHub.from_state(hub_state)


def test_restore_holds_the_operator_to_the_pane_budget():
    session = exported_session()
    big = AsapSpec(pane_size=2, resolution=5000, refresh_interval=5).build_operator()
    big.push_many(np.arange(600, dtype=np.float64), make_wave(600))
    session["operator"] = big.state_dict()
    assert_restore_refuses(session, HubError, "max_panes_per_session")


@pytest.mark.parametrize(
    "forged, match",
    [
        ({"resolution": 32}, "buffer capacity"),
        ({"pane_size": 4}, "buffer pane_size"),
        ({"normalize": True}, "has no normalizer"),
        ({"watermark": 4}, "has no reorder"),
    ],
)
def test_restore_rejects_a_spec_the_operator_state_disagrees_with(forged, match):
    session = exported_session()
    session["operator"]["spec"].update(forged)
    assert_restore_refuses(session, CheckpointError, match)


def test_restore_rejects_an_unregistered_strategy():
    session = exported_session()
    session["operator"]["spec"]["strategy"] = "bogus"
    assert_restore_refuses(session, SpecError, "strategy")


@pytest.mark.parametrize("value", [-5, "7", True])
@pytest.mark.parametrize("name", ["searches_run", "candidates_evaluated"])
def test_restore_rejects_forged_search_counters(name, value):
    session = exported_session()
    session["operator"]["counters"][name] = value
    assert_restore_refuses(session, CheckpointError, "non-negative integer")


@pytest.mark.parametrize("value", [-5, "7", True])
@pytest.mark.parametrize("name", ["warm_prefetches", "backfill_points"])
def test_restore_rejects_forged_lifetime_counters(name, value):
    session = exported_session()
    assert name in session["operator"]["counters"]
    session["operator"]["counters"][name] = value
    assert_restore_refuses(session, CheckpointError, "non-negative integer")


@pytest.mark.parametrize("name", ["full_recomputes", "exact_fallbacks"])
def test_restore_rejects_retired_counters(name):
    # Schema 14 keeps no rolling state, so the counters of its rebuilds and
    # exact fallbacks can only come from a forged or foreign payload.
    session = exported_session()
    session["operator"]["counters"][name] = 0
    assert_restore_refuses(session, CheckpointError, "unknown counters")


# -- whole-hub checkpoint/restore ----------------------------------------------


def test_checkpoint_restore_round_trip_bytes_and_path(tmp_path):
    hub, sid = hub_with_stream()
    blob = checkpoint(hub)
    assert isinstance(blob, bytes)
    path = checkpoint(hub, tmp_path / "hub.npz")
    assert path.exists()

    for source in (blob, path):
        restored = restore(source)
        assert isinstance(restored, StreamHub)
        assert restored.stream_ids() == hub.stream_ids()
        assert restored.snapshot(sid).panes == hub.snapshot(sid).panes
        assert restored.stats.points_ingested == hub.stats.points_ingested


def test_restored_hub_emits_bit_identical_frames():
    values = make_wave(2000, seed=4)
    ts = np.arange(2000, dtype=np.float64)
    config = AsapSpec(pane_size=4, resolution=128, refresh_interval=6)

    def drive(hub, lo, hi):
        collected = []
        for start in range(lo, hi, 90):
            stop = min(start + 90, hi)
            collected.extend(hub.ingest("s", ts[start:stop], values[start:stop]))
            collected.extend(hub.tick().get("s", []))
        return collected

    uninterrupted = StreamHub(default_config=config)
    uninterrupted.create_stream("s")
    reference = drive(uninterrupted, 0, 2000)

    hub = StreamHub(default_config=config)
    hub.create_stream("s")
    frames = drive(hub, 0, 1170)
    restored = restore(checkpoint(hub))
    frames += drive(restored, 1170, 2000)

    assert len(frames) == len(reference)
    for a, b in zip(reference, frames):
        assert a.window == b.window
        assert np.array_equal(a.series.values, b.series.values)


def test_restored_hub_preserves_auto_id_sequence():
    hub = StreamHub()
    first = hub.create_stream()
    restored = restore(checkpoint(hub))
    second = restored.create_stream()
    assert second != first


def test_restored_hub_serves_pyramid_views():
    hub, sid = hub_with_stream()
    restored = restore(checkpoint(hub))
    original = hub.snapshot(sid, resolution=16)
    again = restored.snapshot(sid, resolution=16)
    assert original.window == again.window
    assert np.array_equal(original.series.values, again.series.values)


def test_checkpoint_requires_protocol():
    with pytest.raises(CheckpointError, match="not checkpointable"):
        checkpoint(object())


def test_restore_rejects_unknown_kind():
    payload = codec.dumps("mystery", {"x": 1})
    with pytest.raises(CheckpointError, match="unknown checkpoint kind"):
        restore(payload)


def test_restore_streamhub_rejects_options():
    hub, _sid = hub_with_stream()
    with pytest.raises(CheckpointError, match="no restore options"):
        restore(checkpoint(hub), backend="inprocess")
