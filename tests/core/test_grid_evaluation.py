"""Grid evaluation through :meth:`EvaluationCache.evaluate_many`.

A grid strategy's whole candidate grid is measured by the prepared-prefix
core in chunks under its element budget.  The scalar evaluator
(:func:`~repro.core.smoothing.evaluate_window`) is the oracle to 1e-9 (the
core reduces zero-padded buffers, a different summation order), and each
window of a grid equals the same window evaluated alone bit for bit,
whichever chunk it fell in.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.smoothing as smoothing_module
from repro.core.smoothing import EvaluationCache, evaluate_window
from repro.spectral.convolution import _GRID_CHUNK_ELEMENTS


def assert_bitwise(got, want) -> None:
    assert got.window == want.window
    assert np.float64(got.roughness).tobytes() == np.float64(want.roughness).tobytes()
    assert np.float64(got.kurtosis).tobytes() == np.float64(want.kurtosis).tobytes()


class TestAgainstScalarOracle:
    def test_matches_scalar_evaluation(self, rng):
        values = rng.normal(size=400)
        windows = list(range(1, 41))
        for evaluation in EvaluationCache(values).evaluate_many(windows):
            scalar = evaluate_window(values, evaluation.window)
            assert evaluation.roughness == pytest.approx(scalar.roughness, rel=1e-9, abs=1e-9)
            assert evaluation.kurtosis == pytest.approx(scalar.kurtosis, rel=1e-9, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=8, max_value=200),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_property_agreement_with_scalar(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 2.0), size=n)
        windows = [1, 2, max(n // 3, 1), n]
        for evaluation in EvaluationCache(values).evaluate_many(windows):
            scalar = evaluate_window(values, evaluation.window)
            assert evaluation.roughness == pytest.approx(scalar.roughness, rel=1e-9, abs=1e-9)
            assert evaluation.kurtosis == pytest.approx(scalar.kurtosis, rel=1e-9, abs=1e-9)


class TestChunkedGrid:
    def test_grid_across_chunks_equals_each_window_alone(self, rng):
        n = 2000
        values = rng.normal(size=n)
        windows = list(range(1, 200))
        assert len(windows) > 2 * (_GRID_CHUNK_ELEMENTS // n)  # several chunks
        grid = EvaluationCache(values).evaluate_many(windows)
        for evaluation in grid:
            assert_bitwise(evaluation, EvaluationCache(values).evaluate(evaluation.window))

    def test_window_value_independent_of_grid(self, rng):
        # A search that evaluates a candidate alone (binary/ASAP) must see the
        # same numbers as one that evaluates it inside a full grid
        # (exhaustive), wherever the chunk boundaries fall.
        values = rng.normal(size=3000)
        small = EvaluationCache(values).evaluate_many(range(2, 31))
        large = EvaluationCache(values).evaluate_many(range(2, 300))
        offset = EvaluationCache(values).evaluate_many(range(7, 31))
        for got, want in zip(large, small):
            assert_bitwise(got, want)
        for got, want in zip(offset, small[5:]):
            assert_bitwise(got, want)

    def test_one_core_call_per_chunk(self, rng, monkeypatch):
        n = 1000
        values = rng.normal(size=n)
        calls = []
        core = smoothing_module._moments_from_prefix

        def counting(values, prefixes, windows, rows, floor=None, workspace=None):
            calls.append((len(windows), id(workspace)))
            return core(values, prefixes, windows, rows, floor, workspace)

        monkeypatch.setattr(smoothing_module, "_moments_from_prefix", counting)
        cache = EvaluationCache(values)
        cache.evaluate_many(range(2, 101))
        step = _GRID_CHUNK_ELEMENTS // n
        assert [size for size, _ in calls] == [step] * (99 // step) + [99 % step]
        assert len({workspace for _, workspace in calls}) == 1
        calls.clear()
        cache.evaluate_many(range(2, 101))
        assert calls == []  # every window a hit

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=8, max_value=3000),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_property_grid_equals_each_window_alone(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 2.0), size=n)
        step = int(rng.integers(1, 11))
        windows = list(range(int(rng.integers(1, 4)), n + 1, step))[:400]
        for evaluation in EvaluationCache(values).evaluate_many(windows):
            assert_bitwise(evaluation, EvaluationCache(values).evaluate(evaluation.window))

    def test_empty_grid(self, rng):
        cache = EvaluationCache(rng.normal(size=50))
        assert cache.evaluate_many([]) == []
        assert cache.misses == cache.hits == 0


class TestEdges:
    def test_full_window_edge(self, rng):
        values = rng.normal(size=64)
        for windows in ([64], [63, 64]):
            evaluation = EvaluationCache(values).evaluate_many(windows)[-1]
            # A single smoothed point: perfectly smooth, zero-variance kurtosis.
            assert evaluation.window == 64
            assert evaluation.roughness == 0.0
            assert evaluation.kurtosis == 0.0

    def test_error_message_includes_series_length(self):
        with pytest.raises(ValueError, match="series length 10"):
            EvaluationCache(np.ones(10)).evaluate_many([2, 11])
        with pytest.raises(ValueError, match="series length 10"):
            EvaluationCache(np.ones(10)).evaluate_many([0, 2])

    def test_a_rejected_grid_caches_nothing(self):
        cache = EvaluationCache(np.arange(10.0))
        with pytest.raises(ValueError):
            cache.evaluate_many([2, 3, 11])
        assert len(cache) == 0
