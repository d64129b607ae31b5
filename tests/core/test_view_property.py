"""Property test: operator views are two-stage bucketing of the pane window.

A view is computed on demand from the operator's window, so whatever the
pane size, resolution, refresh interval, batch chunking, backfill, ``reset()``
or checkpoint -> restore swap that led to the window, every
:class:`~repro.pyramid.PyramidView` field must equal a reference computed
here from the window alone: the ratio is ``max(window // resolution, 1)``;
the level is the coarsest of 1/4/16/64 that divides it and can fill at least
one view bucket starting at the first level bucket wholly inside the window
(global level-bucket index ``ceil(window_start / level)``); the values are
``bucket_means(bucket_means(window[span], level), ratio // level)``.  The
twin operator fed the same batches without view requests must emit the
same frames, bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preaggregation import bucket_means
from repro.core.streaming import StreamingASAP
from repro.pyramid import ViewSpec
from repro.spec import AsapSpec

LEVELS = (1, 4, 16, 64)


def reference_view(window, times, window_start, resolution, include_partial):
    """Every PyramidView field, from the documented rule alone."""
    n = window.size
    ratio = max(n // resolution, 1)
    total = window_start + n
    for level in sorted((r for r in LEVELS if ratio % r == 0), reverse=True):
        first = -(-window_start // level)
        buckets = (total // level - first) // (ratio // level)
        if buckets >= 1:
            break
    lo = first * level - window_start
    hi = lo + buckets * ratio
    values = bucket_means(bucket_means(window[lo:hi], level), ratio // level)
    timestamps = times[lo:hi:ratio]
    partial = 0
    if include_partial and hi < n:
        values = np.append(values, window[hi:].mean())
        timestamps = np.append(timestamps, times[hi])
        partial = n - hi
    return {
        "values": values.tobytes(),
        "timestamps": timestamps.tobytes(),
        "ratio": ratio,
        "level_ratio": level,
        "residual": ratio // level,
        "base_start": window_start + lo,
        "base_end": window_start + (n if partial else hi),
        "partial_points": partial,
    }


def view_fields(view):
    return {
        "values": view.values.tobytes(),
        "timestamps": view.timestamps.tobytes(),
        "ratio": view.ratio,
        "level_ratio": view.level_ratio,
        "residual": view.residual,
        "base_start": view.base_start,
        "base_end": view.base_end,
        "partial_points": view.partial_points,
    }


def frame_bytes(frame):
    return (
        frame.window,
        frame.refresh_index,
        frame.points_ingested,
        frame.series.values.tobytes(),
        frame.series.timestamps.tobytes(),
        repr(frame.search),
    )


@st.composite
def view_cases(draw):
    spec = AsapSpec(
        pane_size=draw(st.integers(1, 8)),
        resolution=draw(st.integers(8, 400)),
        refresh_interval=draw(st.integers(1, 24)),
        incremental=draw(st.booleans()),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(50, 12_000))
    backfill = draw(st.integers(0, n // 2)) if draw(st.booleans()) else 0
    # One action per batch: 0 none, 1 reset(), 2 checkpoint -> restore swap.
    actions = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=1, max_size=12))
    requests = draw(
        st.lists(st.tuples(st.integers(1, 900), st.booleans()), min_size=1, max_size=4)
    )
    return spec, seed, n, backfill, actions, requests


@settings(max_examples=40, deadline=None)
@given(view_cases())
def test_views_are_two_stage_bucketing_of_the_window(case):
    spec, seed, n, backfill, actions, requests = case
    rng = np.random.default_rng(seed)
    ts = np.arange(n, dtype=np.float64)
    vs = np.sin(ts / 37.0) + 0.3 * rng.normal(size=n)
    viewed = StreamingASAP(spec)
    twin = StreamingASAP(spec)
    frames_viewed, frames_twin = [], []
    i = 0
    if backfill:
        frames_viewed += viewed.backfill(ts[:backfill], vs[:backfill]).frames
        frames_twin += twin.backfill(ts[:backfill], vs[:backfill]).frames
        i = backfill
    bounds = np.sort(rng.integers(i, n + 1, size=len(actions) - 1))
    for action, stop in zip(actions, [*bounds.tolist(), n]):
        frames_viewed += viewed.push_many(ts[i:stop], vs[i:stop])
        frames_twin += twin.push_many(ts[i:stop], vs[i:stop])
        i = stop
        if action == 1:
            viewed.reset()
            twin.reset()
        elif action == 2:
            viewed = StreamingASAP.from_state(viewed.state_dict())
        if viewed.pane_count == 0:
            continue
        window = viewed.aggregated_values()
        times = viewed.aggregated_timestamps()
        window_start = viewed.panes_completed - viewed.pane_count
        for resolution, include_partial in requests:
            view = viewed.pyramid_view(ViewSpec(resolution, include_partial=include_partial))
            assert view_fields(view) == reference_view(
                window, times, window_start, resolution, include_partial
            )
    frames_viewed += viewed.flush()
    frames_twin += twin.flush()
    assert [frame_bytes(f) for f in frames_viewed] == [frame_bytes(f) for f in frames_twin]
