"""Unit tests for the bulk backfill lane's building blocks.

The equivalence law itself (backfill then stream == stream everything) is
pinned property-style in ``test_backfill_property.py``; these tests cover the
edges — the views a backfilled operator serves, the ``backfill`` spec knob,
the mode ledger, and state-dict round trips.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.streaming import BackfillResult, StreamingASAP
from repro.errors import SpecError
from repro.pyramid import ViewSpec
from repro.spec import AsapSpec


@pytest.fixture
def series():
    rng = np.random.default_rng(20170501)
    ts = np.arange(3000, dtype=np.float64)
    vs = np.sin(ts / 23) + 0.3 * rng.standard_normal(ts.size)
    return ts, vs


# -- chunked backfills --------------------------------------------------------


@pytest.mark.parametrize("resolution", [8, 64, 500])
@pytest.mark.parametrize("chunks", [1, 7, 64])
def test_chunked_backfill_then_stream_matches_streaming(series, resolution, chunks):
    # A refresh computes its statistics from the pane window alone, so an
    # archive backfilled in any number of pieces, by either lane, leaves the
    # window and refresh ledger streaming everything would, and every frame
    # streamed after it is bit-identical.
    ts, vs = series
    split = 2000
    for mode in ("auto", "replay"):
        spec = AsapSpec(
            pane_size=1,
            resolution=resolution,
            refresh_interval=10,
            seed_from_previous=False,
            backfill=mode,
        )
        streamed = StreamingASAP(spec)
        list(streamed.push_many(ts[:split], vs[:split]))
        expected = streamed.push_many(ts[split:], vs[split:])
        backfilled = StreamingASAP(spec)
        for block in np.array_split(np.arange(split), chunks):
            if block.size:
                backfilled.backfill(ts[block], vs[block])
        assert backfilled.backfills == chunks
        assert backfilled.backfill_points == split
        frames = backfilled.push_many(ts[split:], vs[split:])
        assert len(frames) == len(expected) == (ts.size - split) // 10
        for a, b in zip(frames, expected):
            assert a.refresh_index == b.refresh_index
            assert a.window == b.window
            assert repr(a.search) == repr(b.search)
            assert a.series.values.tobytes() == b.series.values.tobytes()
            assert a.series.timestamps.tobytes() == b.series.timestamps.tobytes()
        assert backfilled.aggregated_values().tobytes() == streamed.aggregated_values().tobytes()


# -- views after a backfill ---------------------------------------------------


@pytest.mark.parametrize("mode", ["auto", "replay"])
@pytest.mark.parametrize("resolution", [16, 64, 200])
def test_backfilled_views_match_streamed_views(series, mode, resolution):
    ts, vs = series
    spec = AsapSpec(pane_size=4, resolution=400, refresh_interval=10, backfill=mode)
    streamed = StreamingASAP(spec)
    list(streamed.push_many(ts, vs))
    backfilled = StreamingASAP(spec)
    backfilled.backfill(ts, vs)
    assert backfilled.panes_completed == streamed.panes_completed
    view_spec = ViewSpec(resolution=resolution, include_partial=True)
    a = backfilled.pyramid_view(view_spec)
    b = streamed.pyramid_view(view_spec)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.timestamps.tobytes() == b.timestamps.tobytes()
    assert (a.base_start, a.base_end) == (b.base_start, b.base_end)


# -- the spec knob ------------------------------------------------------------


def test_spec_backfill_knob_validates():
    assert AsapSpec().backfill == "auto"
    assert AsapSpec(backfill="replay").validate().backfill == "replay"
    with pytest.raises(SpecError, match="backfill"):
        AsapSpec(backfill="bulk").validate()
    with pytest.raises(SpecError, match="backfill"):
        StreamingASAP(AsapSpec(pane_size=4, backfill="bulk"))


def test_spec_backfill_knob_reaches_operator(series):
    ts, vs = series
    operator = AsapSpec(
        pane_size=4, refresh_interval=10, seed_from_previous=False, backfill="replay"
    ).build_operator()
    result = operator.backfill(ts, vs)
    assert result.mode == "replay"


# -- mode resolution and the ledger -------------------------------------------


def test_auto_mode_picks_fast_lane_when_seed_free(series):
    ts, vs = series
    op = StreamingASAP(AsapSpec(pane_size=4, refresh_interval=10, seed_from_previous=False))
    result = op.backfill(ts, vs)
    assert result.mode == "fast"
    assert result.searches_run == 1  # one closing search; interior elided
    assert result.frames_elided > 0
    assert result.frame is result.frames[-1]


def test_auto_mode_falls_back_to_replay_when_seeded(series):
    ts, vs = series
    op = StreamingASAP(AsapSpec(pane_size=4, refresh_interval=10, seed_from_previous=True))
    result = op.backfill(ts, vs)
    assert result.mode == "replay"
    assert result.searches_run > 1  # every boundary searched, frames elided
    assert result.frames_elided > 0


def test_empty_backfill_is_a_no_op():
    op = StreamingASAP(AsapSpec(pane_size=4, refresh_interval=10, seed_from_previous=False))
    result = op.backfill([], [])
    assert result == BackfillResult(
        points=0, panes=0, frames_elided=0, searches_run=0, mode="fast"
    )
    assert result.frame is None
    assert op.points_ingested == 0


def test_backfill_validates_shapes():
    op = StreamingASAP(AsapSpec(pane_size=4))
    with pytest.raises(ValueError):
        op.backfill([1.0, 2.0], [1.0])


# -- counters and durability --------------------------------------------------


def test_backfill_counters_survive_state_round_trip(series):
    ts, vs = series
    op = StreamingASAP(AsapSpec(pane_size=4, refresh_interval=10, seed_from_previous=False))
    op.backfill(ts[:2000], vs[:2000])
    assert op.backfills == 1
    assert op.backfill_points == 2000
    assert op.backfill_elided > 0

    revived = StreamingASAP.from_state(op.state_dict())
    assert revived.backfills == 1
    assert revived.backfill_points == 2000
    assert revived.backfill_elided == op.backfill_elided
    assert revived.backfill_mode == op.backfill_mode

    ours = list(revived.push_many(ts[2000:], vs[2000:]))
    theirs = list(op.push_many(ts[2000:], vs[2000:]))
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.window == b.window
        assert a.series.values.tobytes() == b.series.values.tobytes()
