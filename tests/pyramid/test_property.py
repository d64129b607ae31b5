"""Property-based tests: views == direct preaggregation, always.

Random window contents, window starts (global base index of the first
retained value), window lengths and resolutions over the default level
ratios, driven by hypothesis: every view's level buckets must equal the
direct ``bucket_means`` of the same global span bit for bit and start on a
level boundary inside the window, every view must match direct bucketing of
its covered span to the repo's 1e-9 discipline (bit for bit when no residual
re-bucket is involved), and ``window_in_original_units`` must round-trip.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preaggregation import bucket_means
from repro.pyramid import ViewSpec, resolve_view


@st.composite
def view_scenarios(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    start = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=1, max_value=1024))
    resolution = draw(st.integers(min_value=1, max_value=600))
    include_partial = draw(st.booleans())
    offset = draw(st.sampled_from([0.0, 1.0, 1e6]))
    return seed, start, n, resolution, include_partial, offset


@settings(max_examples=60, deadline=None)
@given(view_scenarios())
def test_view_matches_direct_preaggregation(scenario):
    seed, start, n, resolution, include_partial, offset = scenario
    rng = np.random.default_rng(seed)
    values = offset + rng.normal(size=n)
    timestamps = np.arange(start, start + n, dtype=np.float64)
    view = resolve_view(values, timestamps, start, ViewSpec(resolution, include_partial))

    def span(lo: int, hi: int) -> np.ndarray:
        return values[lo - start : hi - start]

    # 1. The view's level buckets equal direct bucketing of the matching
    #    global span, bit for bit, and start on a level boundary.
    assert view.base_start % view.level_ratio == 0
    assert start <= view.base_start <= view.base_end <= start + n
    complete_end = view.base_end - view.partial_points
    levels = bucket_means(span(view.base_start, complete_end), view.level_ratio)
    served = view.values[: view.values.size - (1 if view.partial_points else 0)]
    assert np.array_equal(served, bucket_means(levels, view.residual))
    bucket_starts = timestamps[view.base_start - start : complete_end - start : view.ratio]
    assert np.array_equal(view.timestamps[: served.size], bucket_starts)

    # 2. Views match direct bucketing of the span they claim to cover.
    direct = bucket_means(
        span(view.base_start, view.base_end), view.ratio, include_partial=include_partial
    )
    assert view.values.size == direct.size
    scale = max(1.0, float(np.abs(direct).max()) if direct.size else 1.0)
    assert np.abs(view.values - direct).max() <= 1e-9 * scale
    if view.residual == 1 or view.level_ratio == 1:
        assert np.array_equal(view.values, direct)

    # 3. window_in_original_units round-trips for every expressible window.
    for window_size in (1, 2, max(view.values.size // 10, 1)):
        original = view.window_in_original_units(window_size)
        assert original == window_size * view.ratio
        assert original // view.ratio == window_size
