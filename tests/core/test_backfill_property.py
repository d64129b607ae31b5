"""Property tests: the bulk backfill lane against the equivalence law.

The generator produces arbitrary series, configurations, and split points;
the properties pin the tentpole bar of the backfill lane:

* ``backfill(prefix)`` then streaming the suffix is **bit-identical** to
  streaming everything — at the bare operator, behind a :class:`StreamHub`,
  across a :class:`ShardedHub`, and in every multi-resolution pyramid view;
* the elision ledger balances: frames elided plus frames emitted equals the
  frames point-by-point replay would have produced;
* the equivalence survives a checkpoint/restore taken mid-suffix.

These run under the ``ci`` profile on every PR (derandomized, blob-printing)
and under ``nightly`` with 10x examples; see ``tests/conftest.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ShardedHub
from repro.core.streaming import StreamingASAP
from repro.persist import checkpoint, restore
from repro.service import StreamHub
from repro.spec import AsapSpec


def assert_frames_identical(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.window == b.window
        assert a.refresh_index == b.refresh_index
        assert a.points_ingested == b.points_ingested
        assert a.series.values.tobytes() == b.series.values.tobytes()
        assert a.series.timestamps.tobytes() == b.series.timestamps.tobytes()
        assert a.search == b.search
        assert a.quality == b.quality


@st.composite
def backfill_cases(draw):
    """(ts, vs, split, config kwargs, suffix batch size)."""
    length = draw(st.integers(min_value=60, max_value=600))
    split = draw(st.integers(min_value=0, max_value=length))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    ts = np.arange(length, dtype=np.float64)
    period = draw(st.sampled_from([7.0, 19.0, 53.0]))
    vs = np.sin(ts / period) + 0.3 * rng.normal(size=length)
    config = dict(
        pane_size=draw(st.sampled_from([1, 2, 4])),
        resolution=draw(st.sampled_from([40, 80, 150])),
        refresh_interval=draw(st.sampled_from([3, 5, 10])),
        strategy=draw(st.sampled_from(["asap", "binary", "grid10"])),
    )
    if config["strategy"] == "asap":
        # Both lanes: seeded searches take the exact replay lane, unseeded
        # ones the bulk fast lane.
        config["seed_from_previous"] = draw(st.booleans())
    if draw(st.booleans()):  # messy archive: NaN holes behind the quality stage
        config["normalize"] = True
        config["cadence"] = 1.0
        config["watermark"] = draw(st.integers(min_value=2, max_value=8))
        hole = draw(st.integers(min_value=0, max_value=length - 4))
        vs[hole : hole + 3] = np.nan
    batch = draw(st.integers(min_value=1, max_value=60))
    return ts, vs, split, config, batch


def stream_suffix(push, ts, vs, start, batch):
    frames = []
    for lo in range(start, ts.size, batch):
        frames.extend(push(ts[lo : lo + batch], vs[lo : lo + batch]))
    return frames


@given(case=backfill_cases())
@settings(max_examples=40, deadline=None)
def test_backfill_then_stream_is_bit_identical(case):
    ts, vs, split, config, batch = case
    ref = StreamingASAP(AsapSpec(**config))
    ref_prefix = list(ref.push_many(ts[:split], vs[:split]))
    ref_prefix_points = ref.points_ingested
    ref_suffix = stream_suffix(ref.push_many, ts, vs, split, batch)

    op = StreamingASAP(AsapSpec(**config))
    result = op.backfill(ts[:split], vs[:split])
    # The emitted frames are the tail of point-by-point replay's frames, and
    # the ledger accounts for every interior frame the lane skipped.
    if result.frames:
        assert_frames_identical(list(result.frames), ref_prefix[-len(result.frames) :])
    assert result.frames_elided + len(result.frames) == len(ref_prefix)
    # points counts what actually folded in, net of the quality stage's
    # drops and the reorder buffer's still-held tail.
    assert result.points == ref_prefix_points
    suffix = stream_suffix(op.push_many, ts, vs, split, batch)
    assert_frames_identical(suffix, ref_suffix)
    if op.panes_completed:
        ours = op.pyramid_view(16)
        theirs = ref.pyramid_view(16)
        assert ours.values.tobytes() == theirs.values.tobytes()
        assert ours.timestamps.tobytes() == theirs.timestamps.tobytes()


@given(case=backfill_cases())
@settings(max_examples=15, deadline=None)
def test_hub_backfill_survives_checkpoint_mid_suffix(case):
    ts, vs, split, config, batch = case
    cfg = AsapSpec(**config)

    ref = StreamHub(default_config=cfg)
    rid = ref.create_stream()
    ref_frames = list(ref.ingest(rid, ts[:split], vs[:split]))
    for frames in ref.tick().values():  # the deferred end-of-prefix boundary
        ref_frames.extend(frames)
    ref_prefix_points = ref.snapshot(rid).points_ingested

    hub = StreamHub(default_config=cfg)
    sid = hub.create_stream()
    result = hub.backfill(sid, ts[:split], vs[:split])
    # backfill closes its final boundary inline, so ref's ticked prefix
    # frames end exactly where the backfill's emitted frames end.
    if result.frames and ref_frames:
        assert_frames_identical([result.frames[-1]], [ref_frames[-1]])
    assert result.frames_elided + len(result.frames) == len(ref_frames)

    starts = list(range(split, ts.size, batch))
    cut = len(starts) // 2
    ours, theirs = [], []
    for i, lo in enumerate(starts):
        if i == cut:  # checkpoint/restore mid-suffix
            hub = restore(checkpoint(hub))
        ours.extend(hub.ingest(sid, ts[lo : lo + batch], vs[lo : lo + batch]))
        theirs.extend(ref.ingest(rid, ts[lo : lo + batch], vs[lo : lo + batch]))
        for frames in hub.tick().values():
            ours.extend(frames)
        for frames in ref.tick().values():
            theirs.extend(frames)
    assert_frames_identical(ours, theirs)
    stats = hub.stats
    assert stats.backfills == 1
    assert stats.backfill_points == ref_prefix_points


@given(case=backfill_cases())
@settings(max_examples=10, deadline=None)
def test_sharded_backfill_matches_single_hub(case):
    ts, vs, split, config, batch = case
    cfg = AsapSpec(**config)

    ref = StreamHub(default_config=cfg)
    rid = ref.create_stream()
    ref.ingest(rid, ts[:split], vs[:split])
    ref.tick()
    ref_prefix_points = ref.snapshot(rid).points_ingested

    with ShardedHub(shards=2, default_config=cfg) as sharded:
        sid = sharded.create_stream(history=(ts[:split], vs[:split]))
        ours, theirs = [], []
        for lo in range(split, ts.size, batch):
            ours.extend(sharded.ingest(sid, ts[lo : lo + batch], vs[lo : lo + batch]))
            theirs.extend(ref.ingest(rid, ts[lo : lo + batch], vs[lo : lo + batch]))
            for frames in sharded.tick().values():
                ours.extend(frames)
            for frames in ref.tick().values():
                theirs.extend(frames)
        assert_frames_identical(ours, theirs)
        stats = sharded.stats
        assert stats.backfills == 1
        assert stats.backfill_points == ref_prefix_points

        snap = sharded.snapshot(sid)
        ref_snap = ref.snapshot(rid)
        assert snap.points_ingested == ref_snap.points_ingested
        assert snap.panes == ref_snap.panes
        if snap.panes >= 16:  # enough buckets for a multi-resolution view
            view = sharded.snapshot(sid, resolution=16)
            ref_view = ref.snapshot(rid, resolution=16)
            assert view.window == ref_view.window
            assert view.series.values.tobytes() == ref_view.series.values.tobytes()
