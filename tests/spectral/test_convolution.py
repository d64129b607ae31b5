"""Tests for the moving-window kernels (SMA)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spectral.convolution import (
    sma,
    sma_with_slide,
)


def naive_sma(values, window):
    return np.array(
        [np.mean(values[i : i + window]) for i in range(len(values) - window + 1)]
    )


class TestSMA:
    def test_matches_naive(self, rng):
        values = rng.normal(size=200)
        for window in (1, 2, 7, 50, 200):
            np.testing.assert_allclose(sma(values, window), naive_sma(values, window), atol=1e-9)

    def test_output_length(self):
        # Length n - w + 1: every complete window (see DESIGN.md on the
        # paper's off-by-one indexing).
        assert sma(np.arange(10.0), 4).size == 7

    def test_window_one_is_identity(self):
        values = np.array([3.0, 1.0, 2.0])
        out = sma(values, 1)
        assert np.array_equal(out, values)
        out[0] = 99.0  # returned array must be a copy
        assert values[0] == 3.0

    def test_full_window_is_mean(self):
        values = np.array([1.0, 2.0, 3.0])
        assert sma(values, 3) == pytest.approx([2.0])

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            sma([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            sma([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            sma(np.ones((2, 2)), 1)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=100),
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_output_bounded_by_input_range(self, n, window, seed):
        window = min(window, n)
        values = np.random.default_rng(seed).normal(size=n)
        out = sma(values, window)
        assert np.all(out >= values.min() - 1e-9)
        assert np.all(out <= values.max() + 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=8, max_value=120), st.integers(min_value=0, max_value=2**31))
    def test_smoothing_reduces_roughness_of_noise(self, n, seed):
        from repro.timeseries.stats import roughness

        values = np.random.default_rng(seed).normal(size=max(n, 8) * 4)
        window = max(n // 4, 2)
        assert roughness(sma(values, window)) <= roughness(values) + 1e-12


class TestSlide:
    def test_slide_subsamples(self, rng):
        values = rng.normal(size=30)
        dense = sma(values, 5)
        assert np.array_equal(sma_with_slide(values, 5, 3), dense[::3])

    def test_slide_equal_window_gives_disjoint_buckets(self):
        values = np.arange(8.0)
        out = sma_with_slide(values, 2, 2)
        assert np.array_equal(out, [0.5, 2.5, 4.5, 6.5])

    def test_rejects_bad_slide(self):
        with pytest.raises(ValueError):
            sma_with_slide([1.0, 2.0], 1, 0)


class TestIntegerWindows:
    """A window must be an integer: floats are rejected, never truncated."""

    @pytest.mark.parametrize("window", [3.7, 3.0, np.float64(3.0), "3"])
    def test_every_kernel_rejects_a_non_integer_window(self, window):
        from repro.spectral.convolution import sma_probe_moments, sma_window_moments

        values = np.random.default_rng(1910).normal(size=40)
        for call in (
            lambda: sma(values, window),
            lambda: sma_window_moments(values, window),
            lambda: sma_probe_moments(values, [window]),
            lambda: sma_probe_moments(values, [2, window]),
            lambda: sma_probe_moments(values[np.newaxis, :], [window], rows=[0]),
        ):
            with pytest.raises(ValueError, match="integer"):
                call()

    def test_python_and_numpy_integers_still_pass(self):
        from repro.spectral.convolution import sma_probe_moments, sma_window_moments

        values = np.random.default_rng(1911).normal(size=40)
        want = sma_window_moments(values, 3)
        for window in (np.int64(3), np.int32(3), np.uint8(3)):
            assert sma_window_moments(values, window) == want
            assert np.array_equal(sma(values, window), sma(values, 3))
        for windows in ([np.int64(3)], np.array([3], dtype=np.int32), range(3, 4)):
            rough, kurt = sma_probe_moments(values, windows)
            assert (rough[0], kurt[0]) == want
