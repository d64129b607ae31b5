"""Property-based test: checkpoint/restore never changes a single frame.

Random series, random chunking, random configuration (pane size, refresh
interval, strategy), an interruption at a
random position in the stream — mid-pane and mid-refresh-interval included —
and the restored hub must emit exactly the frames the uninterrupted hub
emits: same count, same windows, bit-identical smoothed values, identical
search moments.  This is the durability tier's contract stated as a law.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persist import checkpoint, restore
from repro.service import StreamHub
from repro.spec import AsapSpec


@st.composite
def checkpoint_scenarios(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n = draw(st.integers(min_value=200, max_value=2500))
    pane_size = draw(st.integers(min_value=1, max_value=5))
    resolution = draw(st.integers(min_value=16, max_value=256))
    refresh_interval = draw(st.integers(min_value=1, max_value=12))
    strategy = draw(st.sampled_from(["asap", "binary", "grid10"]))
    offset = draw(st.sampled_from([0.0, 5.0, 1e5]))
    chunk = draw(st.integers(min_value=1, max_value=300))
    split = draw(st.integers(min_value=0, max_value=n))
    return (
        seed, n, pane_size, resolution, refresh_interval,
        strategy, offset, chunk, split,
    )


def drive(hub, ts, values, lo, hi, chunk):
    frames = []
    for start in range(lo, hi, chunk):
        stop = min(start + chunk, hi)
        frames.extend(hub.ingest("s", ts[start:stop], values[start:stop]))
        frames.extend(hub.tick().get("s", []))
    return frames


@settings(max_examples=40, deadline=None)
@given(checkpoint_scenarios())
def test_restored_hub_frames_bit_identical(scenario):
    (
        seed, n, pane_size, resolution, refresh_interval,
        strategy, offset, chunk, split,
    ) = scenario
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    values = offset + np.sin(2 * np.pi * t / 75) + 0.3 * rng.normal(size=n)
    config = AsapSpec(
        pane_size=pane_size,
        resolution=resolution,
        refresh_interval=refresh_interval,
        strategy=strategy,
    )

    uninterrupted = StreamHub(default_config=config)
    uninterrupted.create_stream("s")
    reference = drive(uninterrupted, t, values, 0, n, chunk)

    hub = StreamHub(default_config=config)
    hub.create_stream("s")
    frames = drive(hub, t, values, 0, split, chunk)
    restored = restore(checkpoint(hub))
    del hub  # the original is gone; only the checkpoint survives
    frames += drive(restored, t, values, split, n, chunk)

    assert len(frames) == len(reference)
    for a, b in zip(reference, frames):
        assert a.window == b.window
        assert np.array_equal(a.series.values, b.series.values)
        assert np.array_equal(a.series.timestamps, b.series.timestamps)
        assert a.search.roughness == b.search.roughness
        assert a.search.kurtosis == b.search.kurtosis
        assert a.points_ingested == b.points_ingested
