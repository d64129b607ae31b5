"""Tests for the shared EvaluationCache (its grid path: test_grid_evaluation.py)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.search import (
    STRATEGIES,
    asap_search,
    binary_search,
    exhaustive_search,
    grid_search,
    run_strategy,
)
from repro.core.smoothing import EvaluationCache, evaluate_window


class TestEvaluationCache:
    def test_memoizes_evaluations(self, rng):
        cache = EvaluationCache(rng.normal(size=200))
        first = cache.evaluate(10)
        second = cache.evaluate(10)
        assert first is second
        assert cache.misses == 1 and cache.hits == 1

    def test_evaluate_many_fills_only_misses(self, rng):
        cache = EvaluationCache(rng.normal(size=200))
        cache.evaluate(5)
        evaluations = cache.evaluate_many([2, 5, 9])
        assert [e.window for e in evaluations] == [2, 5, 9]
        assert cache.misses == 3  # 5 was cached; 2 and 9 plus the initial 5
        assert cache.hits == 1

    def test_matches_scalar_oracle(self, rng):
        values = rng.normal(size=300)
        cache = EvaluationCache(values)
        for window in (2, 17, 60):
            fast = cache.evaluate(window)
            reference = evaluate_window(values, window)
            assert fast.roughness == pytest.approx(reference.roughness, rel=1e-9, abs=1e-9)
            assert fast.kurtosis == pytest.approx(reference.kurtosis, rel=1e-9, abs=1e-9)

    def test_original_moments_lazy_and_seedable(self, rng):
        from repro.timeseries.stats import kurtosis, roughness

        values = rng.normal(size=100)
        cache = EvaluationCache(values)
        assert cache.original_roughness == roughness(values)
        assert cache.original_kurtosis == kurtosis(values)
        seeded = EvaluationCache(values)
        seeded.seed_original(1.25, 3.5)
        assert seeded.original_roughness == 1.25
        assert seeded.original_kurtosis == 3.5

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="1-D"):
            EvaluationCache(np.ones((2, 5)))


class TestStrategiesShareOneNumericPath:
    def test_candidate_counts_unchanged_by_caching(self, white_noise_series):
        # Memoization must not change the paper's candidates_evaluated
        # accounting: counts reflect considerations, not kernel calls.
        assert exhaustive_search(white_noise_series, max_window=50).candidates_evaluated == 49
        assert grid_search(white_noise_series, 2, max_window=80).candidates_evaluated == 40
        assert binary_search(white_noise_series, max_window=128).candidates_evaluated <= 9

    def test_shared_cache_across_strategies(self, periodic_series):
        cache = EvaluationCache(np.asarray(periodic_series, dtype=np.float64))
        exhaustive = exhaustive_search(periodic_series, max_window=100, cache=cache)
        kernel_calls = cache.misses
        # A second strategy over the same cache evaluates nothing new.
        asap = asap_search(periodic_series, max_window=100, cache=cache)
        assert cache.misses == kernel_calls
        assert asap.roughness >= exhaustive.roughness - 1e-12

    def test_adaptive_and_grid_strategies_agree_per_window(self, periodic_series):
        # Binary/ASAP evaluate single windows; exhaustive evaluates the whole
        # grid in one kernel call.  The shared kernel guarantees the same
        # window always produces the same numbers either way.
        values = np.asarray(periodic_series, dtype=np.float64)
        full_cache = EvaluationCache(values)
        exhaustive_search(values, max_window=100, cache=full_cache)
        single_cache = EvaluationCache(values)
        for window in (2, 37, 60, 100):
            assert single_cache.evaluate(window) == full_cache.evaluate(window)

    def test_run_strategy_forwards_cache(self, white_noise_series):
        cache = EvaluationCache(np.asarray(white_noise_series, dtype=np.float64))
        for name in STRATEGIES:
            result = run_strategy(name, white_noise_series, 60, cache=cache)
            assert result.window >= 1
        # Every strategy reused the one cache: the exhaustive pass seeded all
        # candidate windows, so later strategies were pure hits.
        assert cache.misses <= 59 + 1
