"""Incremental refresh state vs from-scratch recomputation.

The contract under test: every statistic the incremental path maintains —
the correlogram from rolling cross-product sums, kurtosis from rolling power
sums, roughness from rolling first-difference sums — agrees with the
from-scratch computation over the same window to within the repo's 1e-9
discipline, after *arbitrary* push/flush/reset interleavings, and the frames
an incremental operator emits are interchangeable with the from-scratch
operator's (identical windows, bit-identical smoothed values).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.acf import analyze_acf, autocorrelation_bruteforce
from repro.core.smoothing import EvaluationCache
from repro.core.streaming import (
    IncrementalDriftError,
    RollingWindowState,
    StreamingASAP,
    _check_agreement,
)
from repro.spectral.convolution import cross_product_sums
from repro.stream.sources import StreamPoint

from research_spec import research_spec


def drive(operator, values, timestamps=None):
    ts = np.arange(len(values), dtype=np.float64) if timestamps is None else timestamps
    frames = []
    for t, v in zip(ts, values):
        frames.extend(operator.push(StreamPoint(float(t), float(v))))
    frames.extend(operator.flush())
    return frames


def assert_frames_equivalent(fresh, incremental):
    assert len(fresh) == len(incremental)
    for a, b in zip(fresh, incremental):
        assert a.window == b.window
        assert a.refresh_index == b.refresh_index
        assert a.points_ingested == b.points_ingested
        assert np.array_equal(a.series.values, b.series.values)
        assert np.array_equal(a.series.timestamps, b.series.timestamps)
        assert a.search.roughness == pytest.approx(b.search.roughness, rel=1e-9, abs=1e-9)
        assert a.search.kurtosis == pytest.approx(b.search.kurtosis, rel=1e-9, abs=1e-9)


class TestRollingWindowState:
    def test_matches_from_scratch_after_random_schedules(self):
        # Property-style: random capacities, offsets, scales, lengths and
        # rebuild cadences; the state must match analyze_acf + the scalar
        # moment kernels (via EvaluationCache) over the retained window.
        rng = np.random.default_rng(20260728)
        for trial in range(40):
            capacity = int(rng.integers(8, 150))
            lag_budget = max(capacity // 10, 2)
            state = RollingWindowState(capacity, lag_budget)
            window: list[float] = []
            offset = float(rng.normal()) * 10.0 ** float(rng.integers(0, 5))
            scale = 10.0 ** float(rng.integers(-2, 3))
            for step in range(int(rng.integers(16, 400))):
                value = offset + scale * float(rng.normal())
                state.append(value)
                window.append(value)
                if len(window) > capacity:
                    window.pop(0)
                if step % 53 == 52:
                    state.rebuild()
            arr = np.asarray(window)
            if arr.size < 8:
                continue
            max_lag = min(lag_budget, arr.size - 1)
            reference = analyze_acf(arr, max_lag=max_lag)
            np.testing.assert_allclose(
                state.correlations(max_lag),
                reference.correlations,
                rtol=1e-9,
                atol=1e-9,
            )
            cache = EvaluationCache(arr)
            assert state.roughness() == pytest.approx(
                cache.original_roughness, rel=1e-9, abs=1e-9
            )
            assert state.kurtosis() == pytest.approx(
                cache.original_kurtosis, rel=1e-9, abs=1e-9
            )

    def test_matches_bruteforce_cross_products(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=64)
        state = RollingWindowState(capacity=64, lag_budget=10)
        state.extend(values)
        anchored = values - values[0]
        np.testing.assert_allclose(
            state._s, cross_product_sums(anchored, 10), rtol=1e-9, atol=1e-9
        )
        np.testing.assert_allclose(
            state.correlations(10),
            autocorrelation_bruteforce(values, 10),
            rtol=1e-9,
            atol=1e-9,
        )

    def test_rebuild_is_exact(self):
        rng = np.random.default_rng(6)
        state = RollingWindowState(capacity=32, lag_budget=5)
        state.extend(rng.normal(size=200) + 1e6)  # hostile offset
        state.rebuild()
        window = state.values().copy()
        np.testing.assert_array_equal(
            state._s, cross_product_sums(window, 5)
        )

    def test_degenerate_window_is_safe(self):
        state = RollingWindowState(capacity=16, lag_budget=4)
        state.extend(np.full(12, 3.25))
        correlations = state.correlations(4)
        assert correlations[0] == 1.0
        assert np.all(correlations[1:] == 0.0)
        assert state.roughness() == 0.0
        assert state.kurtosis() == 0.0

    def test_clear_resets_everything(self):
        state = RollingWindowState(capacity=8, lag_budget=2)
        state.extend([1.0, 2.0, 3.0])
        state.clear()
        assert len(state) == 0
        assert state.appended == 0
        state.extend([5.0, 6.0, 7.0, 8.0, 9.0])
        np.testing.assert_allclose(
            state.correlations(2),
            autocorrelation_bruteforce(np.arange(5.0) + 5.0, 2),
            rtol=1e-9,
            atol=1e-9,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingWindowState(capacity=0, lag_budget=2)
        with pytest.raises(ValueError):
            RollingWindowState(capacity=4, lag_budget=-1)
        state = RollingWindowState(capacity=4, lag_budget=2)
        with pytest.raises(ValueError):
            state.correlations(0)  # < 2 window values
        state.extend([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            state.correlations(3)  # beyond the budget


class TestIncrementalStreaming:
    def test_frames_match_from_scratch(self, periodic_series):
        fresh = StreamingASAP(research_spec(pane_size=2, resolution=400, refresh_interval=25))
        incremental = StreamingASAP(
            research_spec(
                pane_size=2,
                resolution=400,
                refresh_interval=25,
                incremental=True,
                recompute_every=8,
            )
        )
        assert_frames_equivalent(
            drive(fresh, periodic_series), drive(incremental, periodic_series)
        )
        assert incremental.full_recomputes > 0

    def test_verify_mode_is_clean_on_hostile_offsets(self, rng):
        # Large offsets are the worst case for raw-sum maintenance; the
        # escape hatch asserts 1e-9 agreement on every single refresh.
        values = 1e7 + rng.normal(size=2500).cumsum()
        operator = StreamingASAP(
            research_spec(
                pane_size=1,
                resolution=300,
                refresh_interval=10,
                verify_incremental=True,
                recompute_every=16,
            )
        )
        frames = drive(operator, values)
        assert frames  # verification ran and never raised

    def test_frames_match_with_max_window(self, periodic_series):
        kwargs = dict(pane_size=1, resolution=600, refresh_interval=40, max_window=25)
        fresh = StreamingASAP(research_spec(**kwargs))
        incremental = StreamingASAP(research_spec(**kwargs, incremental=True))
        assert_frames_equivalent(
            drive(fresh, periodic_series), drive(incremental, periodic_series)
        )

    def test_push_flush_reset_interleavings(self):
        # Arbitrary schedules of push_many / flush / reset: after every
        # event, the incremental operator must keep matching a from-scratch
        # twin driven through the identical schedule.
        rng = np.random.default_rng(99)
        kwargs = dict(pane_size=2, resolution=120, refresh_interval=7)
        fresh = StreamingASAP(research_spec(**kwargs))
        incremental = StreamingASAP(
            research_spec(**kwargs, verify_incremental=True, recompute_every=5)
        )
        clock = 0.0
        for _ in range(60):
            action = rng.choice(["push", "push", "push", "flush", "reset"])
            if action == "push":
                count = int(rng.integers(1, 90))
                ts = clock + np.arange(count, dtype=np.float64)
                vs = 50.0 + np.sin(ts / 9.0) + 0.2 * rng.normal(size=count)
                clock += count
                a = fresh.push_many(ts, vs)
                b = incremental.push_many(ts, vs)
            elif action == "flush":
                a = list(fresh.flush())
                b = list(incremental.flush())
            else:
                fresh.reset()
                incremental.reset()
                a, b = [], []
            assert_frames_equivalent(a, b)

    def test_push_many_equals_per_point_push(self, periodic_series):
        rng = np.random.default_rng(3)
        ts = np.arange(periodic_series.size, dtype=np.float64)
        kwargs = dict(pane_size=3, resolution=250, refresh_interval=9, incremental=True)
        pointwise = StreamingASAP(research_spec(**kwargs))
        frames_pointwise = drive(pointwise, periodic_series, ts)
        batched = StreamingASAP(research_spec(**kwargs))
        frames_batched = []
        i = 0
        while i < periodic_series.size:
            step = int(rng.integers(1, 160))
            frames_batched.extend(
                batched.push_many(ts[i : i + step], periodic_series[i : i + step])
            )
            i += step
        frames_batched.extend(batched.flush())
        assert_frames_equivalent(frames_pointwise, frames_batched)
        # push_many parity is exact, not just 1e-9: same candidate counts too.
        assert pointwise.candidates_evaluated == batched.candidates_evaluated

    def test_deferred_boundary_refresh(self):
        operator = StreamingASAP(
            research_spec(pane_size=1, resolution=100, refresh_interval=10, incremental=True)
        )
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

    def test_reset_clears_incremental_state(self, periodic_series):
        operator = StreamingASAP(
            research_spec(pane_size=1, resolution=100, refresh_interval=10, verify_incremental=True)
        )
        drive(operator, periodic_series[:400])
        operator.reset()
        assert operator.pane_count == 0
        assert not operator.refresh_due
        # Verification still passes after re-use from a clean slate.
        assert drive(operator, periodic_series[400:900])

    def test_ill_conditioned_offsets_fall_back_to_exact(self):
        # Above ~1e6 offset/spread the scalar kernels themselves wobble past
        # 1e-9, so agreement is only achievable by running the exact path;
        # frames must stay identical to the from-scratch operator and the
        # verify escape hatch must not fire.
        rng = np.random.default_rng(42)
        values = np.concatenate(
            [
                1e12 + rng.normal(size=1500),  # huge offset, unit noise
                1e12 + 1e-4 * rng.normal(size=1500),  # then variance collapses
            ]
        )
        kwargs = dict(pane_size=1, resolution=300, refresh_interval=25)
        fresh = StreamingASAP(research_spec(**kwargs))
        incremental = StreamingASAP(
            research_spec(**kwargs, verify_incremental=True, recompute_every=8)
        )
        frames_fresh = drive(fresh, values)
        frames_incremental = drive(incremental, values)
        assert incremental.exact_fallbacks > 0
        assert len(frames_fresh) == len(frames_incremental)
        for a, b in zip(frames_fresh, frames_incremental):
            assert a.window == b.window
            assert np.array_equal(a.series.values, b.series.values)
            assert a.search.roughness == b.search.roughness
            assert a.search.kurtosis == b.search.kurtosis

    def test_well_conditioned_streams_stay_incremental(self, periodic_series):
        operator = StreamingASAP(
            research_spec(pane_size=1, resolution=300, refresh_interval=25, incremental=True)
        )
        drive(operator, periodic_series)
        assert operator.exact_fallbacks == 0

    def test_non_asap_strategies_skip_lag_sums(self):
        operator = StreamingASAP(
            research_spec(
                pane_size=1, resolution=400, refresh_interval=10,
                strategy="grid10", incremental=True,
            )
        )
        assert operator._rolling.lag_budget == 0
        values = np.sin(np.arange(600) / 7.0) + 0.1 * np.cos(np.arange(600))
        frames = drive(operator, values)
        reference = drive(
            StreamingASAP(
                research_spec(pane_size=1, resolution=400, refresh_interval=10, strategy="grid10")
            ),
            values,
        )
        assert_frames_equivalent(reference, frames)

    def test_drift_error_formatting(self):
        with pytest.raises(IncrementalDriftError, match="kurtosis"):
            _check_agreement("kurtosis", 1.0, 2.0)

    def test_recompute_every_validated(self):
        with pytest.raises(ValueError):
            StreamingASAP(research_spec(pane_size=1, recompute_every=0))
