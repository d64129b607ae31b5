"""Property tests: messy streams against the quality stage's guarantees.

The generator produces arbitrary monitoring-shaped streams — random lengths,
batch splits, NaN holes, outages, and block shuffles bounded by the
watermark — and the properties pin the tentpole laws:

* shuffled-within-watermark delivery is **bit-identical** to in-order
  delivery, and nothing is dropped;
* points displaced beyond the watermark are counted and dropped, never
  silently mis-bucketed (the emitted frame count can only shrink);
* the quality ledger (gap fills, NaN drops, late counters) survives a
  schema-4 checkpoint/restore round trip mid-stream.

These run under the ``ci`` profile on every PR (derandomized, blob-printing)
and under ``nightly`` with 10x examples; see ``tests/conftest.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaming import StreamingASAP
from repro.persist import checkpoint, restore
from repro.service import StreamHub
from repro.spec import AsapSpec

from research_spec import research_spec


def make_operator(watermark, normalize=True):
    return StreamingASAP(
        research_spec(
            pane_size=2,
            resolution=60,
            refresh_interval=5,
            incremental=True,
            normalize=normalize,
            cadence=1.0 if normalize else None,
            watermark=watermark,
        )
    )


def drive(operator, ts, vs, cuts):
    frames = []
    for lo, hi in zip([0, *cuts], [*cuts, ts.size]):
        frames.extend(operator.push_many(ts[lo:hi], vs[lo:hi]))
    frames.extend(operator.flush())
    return frames


def assert_bit_identical(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.window == b.window
        assert a.series.values.tobytes() == b.series.values.tobytes()


@st.composite
def messy_streams(draw):
    """(ts, vs, shuffled order, watermark, batch cut points)."""
    length = draw(st.integers(min_value=50, max_value=600))
    watermark = draw(st.integers(min_value=2, max_value=32))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    ts = np.arange(length, dtype=np.float64)
    vs = rng.normal(size=length)
    if draw(st.booleans()):  # NaN holes
        at = draw(st.integers(min_value=0, max_value=length - 5))
        vs[at : at + draw(st.integers(min_value=1, max_value=4))] = np.nan
    # Block shuffle with block <= watermark: displacement stays inside it.
    block = draw(st.integers(min_value=1, max_value=watermark))
    order = np.arange(length)
    for start in range(0, length, block):
        stop = min(start + block, length)
        order[start:stop] = start + rng.permutation(stop - start)
    n_cuts = draw(st.integers(min_value=0, max_value=4))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=length - 1),
                min_size=n_cuts,
                max_size=n_cuts,
            )
        )
    )
    return ts, vs, order, watermark, cuts


@given(stream=messy_streams())
def test_shuffle_within_watermark_is_bit_identical(stream):
    ts, vs, order, watermark, cuts = stream
    in_order = drive(make_operator(watermark), ts, vs, cuts)
    shuffled_op = make_operator(watermark)
    shuffled = drive(shuffled_op, ts[order], vs[order], cuts)
    assert_bit_identical(shuffled, in_order)
    assert shuffled_op.late_dropped == 0


@given(stream=messy_streams(), displace=st.integers(min_value=1, max_value=50))
@settings(max_examples=25)
def test_beyond_watermark_counted_and_dropped(stream, displace):
    ts, vs, _, watermark, cuts = stream
    # Move one early point to the very end: it arrives `displace` past the
    # watermark once enough newer points have released.
    finite = np.flatnonzero(np.isfinite(vs[: ts.size - watermark - displace - 2]))
    if finite.size == 0:
        return
    victim = int(finite[0])
    order = np.concatenate((np.arange(0, victim), np.arange(victim + 1, ts.size), [victim]))
    operator = make_operator(watermark)
    drive(operator, ts[order], vs[order], cuts)
    assert operator.late_dropped == 1
    # The drop never mis-buckets: total points ingested is everything else.
    clean = make_operator(watermark)
    drive(clean, np.delete(ts, victim), np.delete(vs, victim), [])
    assert operator.points_ingested == clean.points_ingested


@given(stream=messy_streams(), split=st.floats(min_value=0.2, max_value=0.8))
@settings(max_examples=25)
def test_ledger_survives_checkpoint_round_trip(stream, split):
    ts, vs, order, watermark, _ = stream
    hub = StreamHub(
        default_config=AsapSpec(
            pane_size=2,
            resolution=60,
            refresh_interval=5,
            normalize=True,
            cadence=1.0,
            watermark=watermark,
        )
    )
    sid = hub.create_stream()
    half = int(ts.size * split)
    before = list(hub.ingest(sid, ts[order][:half], vs[order][:half]))
    revived = restore(checkpoint(hub))
    resumed = list(revived.ingest(sid, ts[order][half:], vs[order][half:]))
    straight = list(hub.ingest(sid, ts[order][half:], vs[order][half:]))
    assert_bit_identical(before + resumed, before + straight)
    for field in ("gaps_filled", "nan_dropped", "late_accepted", "late_dropped"):
        assert getattr(revived.snapshot(sid), field) == getattr(hub.snapshot(sid), field)
