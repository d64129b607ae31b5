"""Tests for the batched/vectorized grid-moment kernel.

The scalar kernels are the oracle: every batched kernel must agree with its
scalar counterpart applied row by row — bit for bit where the implementation
promises it, and to 1e-9 where it reduces through a
different summation order (grid moments vs the scalar stats).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spectral.convolution import sma, sma_grid_moments
from repro.timeseries.stats import kurtosis, roughness


class TestGridMoments:
    def test_matches_scalar_evaluation(self, rng):
        values = rng.normal(size=400)
        windows = np.arange(1, 41)
        rough, kurt = sma_grid_moments(values, windows)
        expected_rough = np.array([roughness(sma(values, w)) for w in windows])
        expected_kurt = np.array([kurtosis(sma(values, w)) for w in windows])
        np.testing.assert_allclose(rough, expected_rough, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(kurt, expected_kurt, rtol=1e-9, atol=1e-9)

    def test_full_window_edge(self, rng):
        values = rng.normal(size=64)
        rough, kurt = sma_grid_moments(values, [64])
        # A single smoothed point: perfectly smooth, zero-variance kurtosis.
        assert rough[0] == 0.0
        assert kurt[0] == 0.0

    def test_batch_rows_match_single_series_bitwise(self, rng):
        batch = rng.normal(size=(6, 200))
        windows = np.arange(2, 21)
        rough2d, kurt2d = sma_grid_moments(batch, windows)
        assert rough2d.shape == (6, windows.size)
        for i in range(batch.shape[0]):
            rough1d, kurt1d = sma_grid_moments(batch[i], windows)
            assert np.array_equal(rough2d[i], rough1d)
            assert np.array_equal(kurt2d[i], kurt1d)

    def test_window_value_independent_of_grid(self, rng):
        # A search that evaluates a candidate alone (binary/ASAP) must see the
        # same numbers as one that evaluates it inside a full grid
        # (exhaustive) — regardless of which fill branch the grid size picks.
        values = rng.normal(size=300)
        small_grid = np.arange(2, 31)
        large_grid = np.arange(2, 100)  # crosses the gather-branch threshold
        rough_small, kurt_small = sma_grid_moments(values, small_grid)
        rough_large, kurt_large = sma_grid_moments(values, large_grid)
        assert np.array_equal(rough_small, rough_large[: small_grid.size])
        assert np.array_equal(kurt_small, kurt_large[: small_grid.size])
        for j, window in enumerate(small_grid):
            rough_one, kurt_one = sma_grid_moments(values, [window])
            assert rough_one[0] == rough_small[j]
            assert kurt_one[0] == kurt_small[j]

    def test_error_message_includes_series_length(self):
        with pytest.raises(ValueError, match="series length 10"):
            sma_grid_moments(np.ones(10), [2, 11])

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=8, max_value=200),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_property_agreement_with_scalar(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 2.0), size=n)
        windows = [1, 2, max(n // 3, 1), n]
        rough, kurt = sma_grid_moments(values, windows)
        for j, window in enumerate(windows):
            smoothed = sma(values, window)
            assert rough[j] == pytest.approx(roughness(smoothed), rel=1e-9, abs=1e-9)
            assert kurt[j] == pytest.approx(kurtosis(smoothed), rel=1e-9, abs=1e-9)
