"""Every refresh computes its window's statistics exactly.

A refresh reads the pane window, computes its ACF and original moments from
scratch and searches it, so a frame must be the result a fresh batch search
over the same pane means would give: with ``seed_from_previous`` off,
``repr(frame.search)`` and the smoothed values equal
``smooth(window, resolution=len(window), use_preaggregation=False)`` bit for
bit, at every refresh, for every strategy and window cap, and on offsets that
dwarf the spread.  Batched and point-by-point ingest, flush, reset and the
deferred boundary keep the frames unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import smooth
from repro.core.streaming import StreamingASAP
from repro.spec import AsapSpec
from repro.stream.sources import StreamPoint

STRATEGIES = ("asap", "binary", "exhaustive", "grid2", "grid10")


def wave(n, seed, offset=0.0, period=9.0):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    return t, offset + np.sin(t / period) + 0.3 * rng.normal(size=n)


def refreshed_windows(operator, ts, vs, chunk):
    """Feed ``chunk`` points at a time, deferring each boundary; yield the
    pane window each refresh searched together with its frame."""
    for start in range(0, ts.size, chunk):
        operator.push_many(ts[start : start + chunk], vs[start : start + chunk], defer_boundary=True)
        if operator.refresh_due:
            window = operator.aggregated_values().copy()
            frame = operator.refresh_if_due()
            if frame is not None:
                yield window, frame


def assert_frames_identical(ours, theirs, refresh_offset=0):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.window == b.window
        assert a.refresh_index == b.refresh_index + refresh_offset
        assert a.points_ingested == b.points_ingested
        assert repr(a.search) == repr(b.search)
        assert a.series.values.tobytes() == b.series.values.tobytes()
        assert a.series.timestamps.tobytes() == b.series.timestamps.tobytes()


@pytest.mark.parametrize("max_window", [None, 25])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_frame_is_a_fresh_search_of_its_window(strategy, max_window):
    ts, vs = wave(3000, seed=7)
    spec = AsapSpec(
        pane_size=3,
        resolution=200,
        refresh_interval=10,
        strategy=strategy,
        max_window=max_window,
        seed_from_previous=False,
    )
    frames = 0
    for window, frame in refreshed_windows(StreamingASAP(spec), ts, vs, chunk=30):
        batch = smooth(
            window,
            resolution=window.size,
            max_window=max_window,
            strategy=strategy,
            use_preaggregation=False,
        )
        assert repr(frame.search) == repr(batch.search)
        assert frame.series.values.tobytes() == batch.series.values.tobytes()
        frames += 1
    assert frames == 100


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e12])
def test_hostile_offsets_keep_exact_statistics(offset):
    # Unit noise on a huge offset, then a variance collapse: the window's
    # moments and ACF are recomputed from the pane means at every refresh,
    # so each frame still reports exactly what a batch search of its window
    # reports.
    rng = np.random.default_rng(42)
    vs = offset + np.concatenate([rng.normal(size=1500), 1e-4 * rng.normal(size=1500)])
    ts = np.arange(vs.size, dtype=np.float64)
    spec = AsapSpec(pane_size=1, resolution=300, refresh_interval=25, seed_from_previous=False)
    frames = list(refreshed_windows(StreamingASAP(spec), ts, vs, chunk=25))
    assert len(frames) == 120
    for window, frame in frames:
        batch = smooth(window, resolution=window.size, use_preaggregation=False)
        assert repr(frame.search) == repr(batch.search)
        assert frame.series.values.tobytes() == batch.series.values.tobytes()


@pytest.mark.parametrize("pane_size", [1, 3, 10])
def test_push_many_equals_per_point_push(pane_size):
    ts, vs = wave(2400, seed=3, period=9.5)
    spec = AsapSpec(pane_size=pane_size, resolution=250, refresh_interval=9)
    pointwise = StreamingASAP(spec)
    expected = []
    for t, v in zip(ts, vs):
        expected.extend(pointwise.push(StreamPoint(float(t), float(v))))
    expected.extend(pointwise.flush())
    batched = StreamingASAP(spec)
    frames = []
    rng = np.random.default_rng(pane_size)
    start = 0
    while start < ts.size:
        step = int(rng.integers(1, 160))
        frames.extend(batched.push_many(ts[start : start + step], vs[start : start + step]))
        start += step
    frames.extend(batched.flush())
    assert expected
    assert_frames_identical(frames, expected)
    assert batched.counters == pointwise.counters
    assert batched.candidates_evaluated == pointwise.candidates_evaluated


@pytest.mark.parametrize("seed", [99, 100, 101])
def test_push_flush_reset_interleavings(seed):
    # Arbitrary schedules of push_many / flush / reset: after every event a
    # batched operator matches a point-by-point twin driven through the
    # identical schedule.
    rng = np.random.default_rng(seed)
    spec = AsapSpec(pane_size=2, resolution=120, refresh_interval=7)
    pointwise = StreamingASAP(spec)
    batched = StreamingASAP(spec)
    clock = 0.0
    emitted = 0
    for _ in range(60):
        action = rng.choice(["push", "push", "push", "flush", "reset"])
        if action == "push":
            count = int(rng.integers(1, 90))
            ts = clock + np.arange(count, dtype=np.float64)
            vs = 50.0 + np.sin(ts / 9.0) + 0.2 * rng.normal(size=count)
            clock += count
            expected = []
            for t, v in zip(ts, vs):
                expected.extend(pointwise.push(StreamPoint(float(t), float(v))))
            got = batched.push_many(ts, vs)
        elif action == "flush":
            expected = list(pointwise.flush())
            got = list(batched.flush())
        else:
            pointwise.reset()
            batched.reset()
            expected, got = [], []
        assert_frames_identical(got, expected)
        emitted += len(got)
        assert batched.refresh_due == pointwise.refresh_due
    assert emitted > 0


def test_deferred_boundary_refresh():
    operator = StreamingASAP(AsapSpec(pane_size=1, resolution=100, refresh_interval=10))
    ts = np.arange(20, dtype=np.float64)
    vs = np.sin(ts)
    assert operator.push_many(ts[:10], vs[:10], defer_boundary=True) == []
    assert operator.refresh_due
    assert operator.refresh_if_due() is not None
    assert not operator.refresh_due
    assert operator.refresh_if_due() is None
    # A deferred refresh left pending runs before new data is folded.
    operator.push_many(ts[10:20], vs[10:20], defer_boundary=True)
    assert operator.refresh_due
    frames = operator.push_many([20.0], [0.5])
    assert len(frames) == 1
    assert frames[0].points_ingested == 20  # refreshed pre-fold state


def test_reset_operator_serves_like_a_fresh_one():
    ts, vs = wave(1400, seed=11, period=7.0)
    spec = AsapSpec(pane_size=1, resolution=100, refresh_interval=10)
    reused = StreamingASAP(spec)
    before = reused.push_many(ts[:400], vs[:400])
    reused.reset()
    assert reused.pane_count == 0
    assert reused.points_ingested == 0
    assert not reused.refresh_due
    # Window state is gone; the lifetime counters, and with them the
    # frames' refresh index, carry on.
    frames = reused.push_many(ts[400:], vs[400:])
    expected = StreamingASAP(spec).push_many(ts[400:], vs[400:])
    assert expected
    assert_frames_identical(frames, expected, refresh_offset=len(before))
