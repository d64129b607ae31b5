"""Tests for pane-based subaggregation (Section 4.5 state management)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stream.panes import _SCALAR_MEANS_MAX_PANES, PaneBuffer


class TestPaneCompletion:
    def test_pane_completes_after_pane_size_points(self):
        buffer = PaneBuffer(pane_size=3, capacity=10)
        assert buffer.push(0.0, 1.0) is None
        assert buffer.push(1.0, 2.0) is None
        pane = buffer.push(2.0, 3.0)
        assert pane is not None
        assert pane.mean == pytest.approx(2.0)
        assert pane.start_time == 0.0

    def test_aggregated_values_are_bucket_means(self):
        buffer = PaneBuffer(pane_size=2, capacity=10)
        buffer.extend(range(6), [1.0, 3.0, 5.0, 7.0, 9.0, 11.0])
        assert np.array_equal(buffer.aggregated_values(), [2.0, 6.0, 10.0])

    def test_incomplete_pane_not_visible(self):
        buffer = PaneBuffer(pane_size=4, capacity=10)
        buffer.extend(range(6), np.ones(6))
        assert len(buffer) == 1  # only one complete pane of 4
        assert buffer.total_points == 6

    def test_extend_returns_completed_count(self):
        buffer = PaneBuffer(pane_size=2, capacity=10)
        assert buffer.extend(range(5), np.ones(5)) == 2

    def test_pane_size_one(self):
        buffer = PaneBuffer(pane_size=1, capacity=5)
        buffer.push(0.0, 42.0)
        assert np.array_equal(buffer.aggregated_values(), [42.0])


class TestEviction:
    def test_capacity_bounds_panes(self):
        buffer = PaneBuffer(pane_size=1, capacity=3)
        buffer.extend(range(5), [1.0, 2.0, 3.0, 4.0, 5.0])
        assert len(buffer) == 3
        assert np.array_equal(buffer.aggregated_values(), [3.0, 4.0, 5.0])
        assert buffer.evicted_panes == 2

    def test_timestamps_follow_eviction(self):
        buffer = PaneBuffer(pane_size=2, capacity=2)
        buffer.extend(range(8), np.arange(8.0))
        assert np.array_equal(buffer.aggregated_timestamps(), [4.0, 6.0])

    def test_clear(self):
        buffer = PaneBuffer(pane_size=1, capacity=3)
        buffer.extend(range(3), np.ones(3))
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.total_points == 0
        assert buffer.evicted_panes == 0


class TestVectorizedExtend:
    def test_extend_bit_identical_to_pushes(self):
        # The batch path must be indistinguishable from per-point pushes:
        # same means, timestamps, journal, eviction counts, and open-pane
        # state — for whole-pane blocks on both sides of the crossover where
        # the pane means switch from the scalar to the numpy recurrence, and
        # for capacities the blocks fit in and overflow.
        rng = np.random.default_rng(2417)
        edge = _SCALAR_MEANS_MAX_PANES
        for pane_size in (1, 3, 10, 137):
            for capacity in (1, 3, 4 * edge):
                for panes in (1, edge - 1, edge, edge + 1, 3 * edge):
                    # A partial pane opens first, so the block is folded after
                    # the open pane is finished point by point; a partial
                    # trailing pane stays open; random chunks follow.
                    lead = int(rng.integers(0, pane_size))
                    steps = [lead, panes * pane_size + int(rng.integers(0, pane_size))]
                    steps += rng.integers(1, 2 * edge * pane_size, size=3).tolist()
                    n = sum(steps)
                    ts = np.cumsum(rng.random(n))
                    vs = rng.normal(size=n) * 10.0 ** float(rng.integers(-2, 3))
                    pointwise = PaneBuffer(pane_size, capacity, journal=True)
                    batched = PaneBuffer(pane_size, capacity, journal=True)
                    completed_pointwise = sum(
                        pointwise.push(float(t), float(v)) is not None for t, v in zip(ts, vs)
                    )
                    completed_batched = 0
                    i = 0
                    for step in steps:
                        completed_batched += batched.extend(ts[i : i + step], vs[i : i + step])
                        i += step
                    assert completed_pointwise == completed_batched
                    expected = pointwise.state_dict()
                    actual = batched.state_dict()
                    assert expected.keys() == actual.keys()
                    for key, value in expected.items():
                        if isinstance(value, np.ndarray):
                            assert value.tobytes() == actual[key].tobytes(), key
                        else:
                            assert value == actual[key], key

    def test_giant_backfill_matches_pushes_and_stays_bounded(self):
        # A backfill much larger than the window must leave exactly the state
        # per-point pushes would — same retained panes, counts, journal —
        # without pinning O(batch) memory in the rolling arrays.
        n = 20_000
        rng = np.random.default_rng(8)
        ts = np.arange(n, dtype=np.float64)
        vs = rng.normal(size=n)
        for pane_size, capacity in ((1, 50), (3, 40), (7, 8)):
            pointwise = PaneBuffer(pane_size, capacity, journal=True)
            for t, v in zip(ts, vs):
                pointwise.push(float(t), float(v))
            batched = PaneBuffer(pane_size, capacity, journal=True)
            completed = batched.extend(ts, vs)
            assert completed == n // pane_size
            assert np.array_equal(pointwise.aggregated_values(), batched.aggregated_values())
            assert np.array_equal(
                pointwise.aggregated_timestamps(), batched.aggregated_timestamps()
            )
            assert pointwise.evicted_panes == batched.evicted_panes
            assert pointwise.total_points == batched.total_points
            assert np.array_equal(
                pointwise.drain_completed_means(), batched.drain_completed_means()
            )
            assert pointwise.state_dict()["open"] == batched.state_dict()["open"]
            # Rolling storage stayed O(capacity), not O(batch).
            assert batched._means._buf.size <= 2 * (capacity + 1)

    def test_extend_rejects_mismatched_lengths(self):
        buffer = PaneBuffer(pane_size=2, capacity=4)
        with pytest.raises(ValueError, match="equal lengths"):
            buffer.extend([0.0, 1.0, 2.0], [1.0, 2.0])

    def test_extend_rejects_non_1d(self):
        buffer = PaneBuffer(pane_size=2, capacity=4)
        with pytest.raises(ValueError):
            buffer.extend(np.zeros((2, 2)), np.zeros((2, 2)))


class TestResetSemantics:
    def test_reset_reports_dropped_partial_pane(self):
        # A trailing partial pane never reached the aggregated views; reset
        # must say so instead of silently discarding its points/timestamps.
        buffer = PaneBuffer(pane_size=4, capacity=10)
        buffer.extend(np.arange(6.0) + 100.0, np.ones(6))
        discarded = buffer.reset()
        assert discarded.dropped_partial_pane
        assert discarded.open_pane_points == 2
        assert discarded.open_pane_start == 104.0
        assert discarded.completed_panes == 1
        assert discarded.total_points == 6
        assert len(buffer) == 0
        assert buffer.total_points == 0
        assert buffer.open_pane_points == 0

    def test_reset_on_boundary_reports_no_partial(self):
        buffer = PaneBuffer(pane_size=3, capacity=10)
        buffer.extend(range(6), np.ones(6))
        discarded = buffer.reset()
        assert not discarded.dropped_partial_pane
        assert discarded.open_pane_start is None
        assert discarded.completed_panes == 2

    def test_reuse_after_reset_is_clean(self):
        buffer = PaneBuffer(pane_size=2, capacity=3)
        buffer.extend(range(7), np.arange(7.0))
        buffer.reset()
        buffer.extend(range(4), [10.0, 20.0, 30.0, 40.0])
        assert np.array_equal(buffer.aggregated_values(), [15.0, 35.0])
        assert buffer.evicted_panes == 0

    def test_open_pane_properties(self):
        buffer = PaneBuffer(pane_size=3, capacity=5)
        assert buffer.open_pane_points == 0
        assert buffer.open_pane_start is None
        buffer.push(7.5, 1.0)
        assert buffer.open_pane_points == 1
        assert buffer.open_pane_start == 7.5


class TestJournal:
    def test_journal_drains_completed_means(self):
        buffer = PaneBuffer(pane_size=2, capacity=10, journal=True)
        buffer.extend(range(6), [1.0, 3.0, 5.0, 7.0, 9.0, 11.0])
        assert np.array_equal(buffer.drain_completed_means(), [2.0, 6.0, 10.0])
        assert buffer.drain_completed_means().size == 0
        buffer.push(6.0, 2.0)
        buffer.push(7.0, 4.0)
        assert np.array_equal(buffer.drain_completed_means(), [3.0])

    def test_journal_includes_evicted_appends(self):
        # Consumers replay appends against the same capacity, so the journal
        # must record every completion — even panes evicted immediately.
        buffer = PaneBuffer(pane_size=1, capacity=2, journal=True)
        buffer.extend(range(4), [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(buffer.drain_completed_means(), [1.0, 2.0, 3.0, 4.0])

    def test_drain_requires_journal(self):
        buffer = PaneBuffer(pane_size=1, capacity=2)
        with pytest.raises(ValueError, match="journal"):
            buffer.drain_completed_means()

    def test_reset_clears_journal(self):
        buffer = PaneBuffer(pane_size=1, capacity=4, journal=True)
        buffer.extend(range(3), np.ones(3))
        buffer.reset()
        assert buffer.drain_completed_means().size == 0


class TestValidation:
    def test_rejects_bad_pane_size(self):
        with pytest.raises(ValueError):
            PaneBuffer(pane_size=0, capacity=1)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            PaneBuffer(pane_size=1, capacity=0)

    def test_empty_pane_mean_rejected(self):
        from repro.stream.panes import Pane

        with pytest.raises(ValueError):
            Pane(start_time=0.0).mean


class TestTimestampEdgeCases:
    """Messy-timestamp behavior, pinned.

    The buffer buckets by **arrival order**: pane membership is "the next
    ``pane_size`` arrivals", never inferred from timestamp spacing.  Callers
    that need temporal ordering put a :class:`~repro.quality.ReorderBuffer`
    in front (the operator's ``watermark`` knob); the buffer itself must
    neither reorder nor silently mis-bucket.
    """

    def test_duplicate_timestamps_share_a_pane(self):
        buffer = PaneBuffer(pane_size=2, capacity=10)
        pane = buffer.push(5.0, 1.0) or buffer.push(5.0, 3.0)
        assert pane is not None
        assert pane.start_time == 5.0
        assert pane.mean == pytest.approx(2.0)

    def test_zero_duration_pane_from_repeated_stamp(self):
        # All arrivals at one instant: a legal pane with zero time extent.
        buffer = PaneBuffer(pane_size=3, capacity=10)
        buffer.extend([7.0, 7.0, 7.0], [1.0, 2.0, 3.0])
        assert np.array_equal(buffer.aggregated_timestamps(), [7.0])
        assert np.array_equal(buffer.aggregated_values(), [2.0])

    def test_single_point_per_pane_keeps_exact_stamp(self):
        buffer = PaneBuffer(pane_size=1, capacity=10)
        stamps = [0.0, 0.5, 0.5, 2.75]
        buffer.extend(stamps, np.arange(4.0))
        assert buffer.aggregated_timestamps().tolist() == stamps
        assert buffer.aggregated_values().tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_non_monotonic_extend_buckets_by_arrival_order(self):
        # Out-of-order arrivals land in arrival-order panes — documented
        # behavior, identical between extend and per-point pushes.
        stamps = [3.0, 1.0, 2.0, 0.0]
        values = [30.0, 10.0, 20.0, 0.0]
        bulk = PaneBuffer(pane_size=2, capacity=10)
        bulk.extend(stamps, values)
        loop = PaneBuffer(pane_size=2, capacity=10)
        for t, v in zip(stamps, values):
            loop.push(t, v)
        for buffer in (bulk, loop):
            assert buffer.aggregated_values().tolist() == [20.0, 10.0]
            assert buffer.aggregated_timestamps().tolist() == [3.0, 2.0]


class TestQualityTracking:
    def test_off_by_default_reports_clean(self):
        buffer = PaneBuffer(pane_size=2, capacity=10)
        buffer.extend(range(4), np.ones(4))
        assert buffer.window_synthetic_points == 0
        assert buffer.window_completeness == 1.0

    def test_synthetic_points_counted_per_window(self):
        buffer = PaneBuffer(pane_size=2, capacity=10, track_quality=True)
        buffer.extend(range(4), np.ones(4), synthetic=np.array([False, True, True, False]))
        assert buffer.window_synthetic_points == 2
        assert buffer.window_completeness == pytest.approx(0.5)

    def test_completeness_follows_eviction(self):
        buffer = PaneBuffer(pane_size=1, capacity=2, track_quality=True)
        buffer.extend(range(3), np.ones(3), synthetic=np.array([True, False, False]))
        # The synthetic point was evicted with its pane.
        assert buffer.window_synthetic_points == 0
        assert buffer.window_completeness == 1.0

    def test_extend_matches_pushes(self):
        mask = np.array([False, True, False, True, True, False, False])
        bulk = PaneBuffer(pane_size=2, capacity=10, track_quality=True)
        bulk.extend(range(7), np.ones(7), synthetic=mask)
        loop = PaneBuffer(pane_size=2, capacity=10, track_quality=True)
        for i, syn in enumerate(mask):
            loop.push(float(i), 1.0, synthetic=bool(syn))
        assert bulk.window_synthetic_points == loop.window_synthetic_points == 3
        assert bulk.window_completeness == loop.window_completeness

    def test_state_round_trip_preserves_tracking(self):
        buffer = PaneBuffer(pane_size=2, capacity=10, track_quality=True)
        buffer.extend(range(5), np.ones(5), synthetic=np.array([True, False, True, False, True]))
        restored = PaneBuffer.from_state(buffer.state_dict())
        assert restored.window_synthetic_points == buffer.window_synthetic_points
        restored.push(5.0, 1.0)
        buffer.push(5.0, 1.0)
        assert restored.window_synthetic_points == buffer.window_synthetic_points

    def test_mismatched_mask_rejected(self):
        buffer = PaneBuffer(pane_size=2, capacity=10, track_quality=True)
        with pytest.raises(ValueError, match="synthetic"):
            buffer.extend(range(4), np.ones(4), synthetic=np.array([True]))
