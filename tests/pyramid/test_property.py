"""Property-based tests: pyramid views == direct preaggregation, always.

Random series / chunking / ratio / level combinations, driven by hypothesis
(falling back to its seeded database-less mode in CI): the base window must
mirror the trailing values, every view's level buckets must equal the direct
``bucket_means`` of the same global span bit for bit, every view must match
direct bucketing of its covered span to the repo's 1e-9 discipline (bit for
bit when no residual re-bucket is involved), and
``window_in_original_units`` must round-trip.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preaggregation import bucket_means
from repro.pyramid import Pyramid, ViewSpec

# Level ratio menus the strategy can pick from (always augmented with 1).
_RATIO_MENUS = [(1, 4, 16, 64), (1, 2, 8, 32), (1, 3, 9, 27), (1, 5, 25), (1, 7)]


@st.composite
def pyramid_scenarios(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n = draw(st.integers(min_value=1, max_value=4000))
    capacity = draw(st.integers(min_value=8, max_value=1024))
    menu = draw(st.sampled_from(_RATIO_MENUS))
    resolution = draw(st.integers(min_value=1, max_value=600))
    include_partial = draw(st.booleans())
    offset = draw(st.sampled_from([0.0, 1.0, 1e6]))
    return seed, n, capacity, menu, resolution, include_partial, offset


@settings(max_examples=60, deadline=None)
@given(pyramid_scenarios())
def test_pyramid_matches_direct_preaggregation(scenario):
    seed, n, capacity, menu, resolution, include_partial, offset = scenario
    rng = np.random.default_rng(seed)
    values = offset + rng.normal(size=n)
    full_history = values.copy()

    pyramid = Pyramid(capacity=capacity, level_ratios=menu)
    i = 0
    while i < n:
        step = int(rng.integers(1, 1 + min(257, n - i + 1)))
        pyramid.extend(values[i : i + step])
        i += step

    # 1. The base level mirrors the trailing window exactly.
    window = full_history[max(n - capacity, 0) :]
    assert np.array_equal(pyramid.base_values(), window)

    # 2. The view's level buckets equal direct bucketing of the matching
    #    global span, bit for bit, and start on a level boundary.
    if pyramid.window_length == 0:
        return
    view = pyramid.view(ViewSpec(resolution, include_partial=include_partial))
    assert view.base_start % view.level_ratio == 0
    assert view.base_start >= pyramid.window_start
    complete_end = view.base_end - view.partial_points
    levels = bucket_means(full_history[view.base_start : complete_end], view.level_ratio)
    served = view.values[: view.values.size - (1 if view.partial_points else 0)]
    assert np.array_equal(served, bucket_means(levels, view.residual))

    # 3. Views match direct bucketing of the span they claim to cover.
    span = full_history[view.base_start : view.base_end]
    direct = bucket_means(span, view.ratio, include_partial=include_partial)
    assert view.values.size == direct.size
    scale = max(1.0, float(np.abs(direct).max()) if direct.size else 1.0)
    assert np.abs(view.values - direct).max() <= 1e-9 * scale
    if view.residual == 1 or view.level_ratio == 1:
        assert np.array_equal(view.values, direct)

    # 4. window_in_original_units round-trips for every expressible window.
    for window_size in (1, 2, max(view.values.size // 10, 1)):
        original = view.window_in_original_units(window_size)
        assert original == window_size * view.ratio
        assert original // view.ratio == window_size
