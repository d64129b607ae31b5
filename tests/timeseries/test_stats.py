"""Unit and property tests for the statistics primitives (Section 3 metrics)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.timeseries import stats

finite_series = arrays(
    np.float64,
    st.integers(min_value=2, max_value=200),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestBasicMoments:
    def test_mean_matches_numpy(self):
        values = [1.0, 2.0, 4.0, 8.0]
        assert stats.mean(values) == pytest.approx(np.mean(values))

    def test_variance_is_population(self):
        values = [1.0, 2.0, 3.0]
        assert stats.variance(values) == pytest.approx(np.var(values, ddof=0))

    def test_std_is_sqrt_variance(self):
        values = [1.0, 5.0, 9.0, 13.0]
        assert stats.std(values) == pytest.approx(np.sqrt(stats.variance(values)))

    def test_empty_series_rejected(self):
        for fn in (stats.mean, stats.variance, stats.std, stats.kurtosis):
            with pytest.raises(ValueError):
                fn([])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            stats.mean(np.ones((2, 2)))


class TestKurtosis:
    def test_normal_noise_near_three(self, white_noise_series):
        # Section 3.2: the normal distribution has kurtosis 3.
        assert stats.kurtosis(white_noise_series) == pytest.approx(3.0, abs=0.35)

    def test_laplace_noise_near_six(self, rng):
        # Figure 5: the Laplace distribution has kurtosis 6.
        values = rng.laplace(0.0, 1.0, size=40000)
        assert stats.kurtosis(values) == pytest.approx(6.0, abs=0.6)

    def test_uniform_below_three(self, rng):
        values = rng.uniform(-1, 1, size=20000)
        assert stats.kurtosis(values) == pytest.approx(1.8, abs=0.15)

    def test_constant_series_is_zero(self):
        assert stats.kurtosis([5.0] * 10) == 0.0

    def test_single_outlier_dominates(self):
        values = np.zeros(1000)
        values[500] = 100.0
        assert stats.kurtosis(values) > 100.0

    @settings(max_examples=50, deadline=None)
    @given(finite_series, st.floats(min_value=0.1, max_value=100.0),
           st.floats(min_value=-100.0, max_value=100.0))
    def test_affine_invariance(self, values, scale, shift):
        # Kurtosis is a standardized moment: invariant to affine maps.
        # Near-degenerate variance makes the ratio numerically meaningless,
        # so restrict to series with real spread.
        assume(float(np.std(values)) > 1e-3)
        base = stats.kurtosis(values)
        transformed = stats.kurtosis(values * scale + shift)
        assert transformed == pytest.approx(base, rel=1e-6, abs=1e-6)


class TestRoughness:
    def test_figure4_straight_line_is_zero(self):
        # Figure 4 series C: any constant slope has roughness exactly 0.
        line = np.linspace(-3.0, 3.0, 50)
        assert stats.roughness(line) == pytest.approx(0.0, abs=1e-12)

    def test_zero_roughness_implies_straight_line(self):
        # The paper's iff claim: roughness 0 <=> constant first differences.
        values = np.array([0.0, 1.0, 2.0, 3.5])
        assert stats.roughness(values) > 0.0

    def test_jagged_rougher_than_bent(self):
        # Figure 4 ordering: jagged (A) > bent (B) > straight (C).
        n = 40
        jagged = np.resize([1.0, -1.0], n)
        bent = np.concatenate([np.linspace(0, 1, n // 2), np.linspace(1, 0.5, n // 2)])
        straight = np.linspace(0, 1, n)
        assert stats.roughness(jagged) > stats.roughness(bent) > stats.roughness(straight)

    def test_short_series_is_smooth(self):
        assert stats.roughness([1.0]) == 0.0

    def test_matches_std_of_diff(self, white_noise_series):
        expected = np.std(np.diff(white_noise_series))
        assert stats.roughness(white_noise_series) == pytest.approx(expected)

    @settings(max_examples=50, deadline=None)
    @given(finite_series, st.floats(min_value=-1e3, max_value=1e3))
    def test_shift_invariance(self, values, shift):
        assert stats.roughness(values + shift) == pytest.approx(
            stats.roughness(values), rel=1e-9, abs=1e-9
        )

    @settings(max_examples=50, deadline=None)
    @given(finite_series, st.floats(min_value=0.1, max_value=50.0))
    def test_scale_equivariance(self, values, scale):
        assert stats.roughness(values * scale) == pytest.approx(
            scale * stats.roughness(values), rel=1e-6, abs=1e-6
        )


class TestZScore:
    def test_zero_mean_unit_variance(self, white_noise_series):
        z = stats.zscore(white_noise_series * 5 + 3)
        assert np.mean(z) == pytest.approx(0.0, abs=1e-12)
        assert np.std(z) == pytest.approx(1.0, abs=1e-12)

    def test_constant_maps_to_zeros(self):
        assert np.array_equal(stats.zscore([2.0, 2.0, 2.0]), np.zeros(3))

    def test_empty_passthrough(self):
        assert stats.zscore([]).size == 0


class TestFirstDifferences:
    def test_values(self):
        assert np.array_equal(
            stats.first_differences([1.0, 4.0, 2.0]), np.array([3.0, -2.0])
        )

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            stats.first_differences([1.0])


class TestMomentSummary:
    def test_matches_individual_functions(self, white_noise_series):
        summary = stats.moment_summary(white_noise_series)
        assert summary.count == white_noise_series.size
        assert summary.mean == pytest.approx(stats.mean(white_noise_series))
        assert summary.variance == pytest.approx(stats.variance(white_noise_series))
        assert summary.kurtosis == pytest.approx(stats.kurtosis(white_noise_series))
        assert summary.roughness == pytest.approx(stats.roughness(white_noise_series))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stats.moment_summary([])


def sliding_rows(values, window: int) -> np.ndarray:
    """Every length-*window* window of *values*, one per row (a copy)."""
    return np.lib.stride_tricks.sliding_window_view(np.asarray(values), window).copy()


def scalar_per_row(rows, fn) -> np.ndarray:
    return np.array([fn(row) for row in rows])


class TestRowStatistics:
    """``row_kurtosis``/``row_roughness`` against the scalar kernels, row by row.

    The batch kernels promise bit-for-bit agreement with :func:`stats.kurtosis`
    and :func:`stats.roughness`; the rows here are the sliding windows of one
    series, the shape a rolling-window statistic would take.
    """

    @pytest.mark.parametrize("window", [1, 2, 3, 50, 300])
    def test_row_kurtosis_matches_scalar_bitwise(self, rng, window):
        rows = sliding_rows(rng.normal(2.0, 1.5, size=300), window)
        out = stats.row_kurtosis(rows)
        assert out.shape == (301 - window,)
        assert out.tobytes() == scalar_per_row(rows, stats.kurtosis).tobytes()

    @pytest.mark.parametrize("window", [1, 2, 3, 50, 300])
    def test_row_roughness_matches_scalar_bitwise(self, rng, window):
        rows = sliding_rows(rng.normal(0.0, 2.0, size=300), window)
        out = stats.row_roughness(rows)
        assert out.shape == (301 - window,)
        assert out.tobytes() == scalar_per_row(rows, stats.roughness).tobytes()

    def test_single_point_rows_have_zero_kurtosis(self, rng):
        # Single-point rows have zero variance; the kurtosis convention is 0.
        rows = sliding_rows(rng.normal(size=40), 1)
        assert np.array_equal(stats.row_kurtosis(rows), np.zeros(40))

    def test_single_point_rows_are_perfectly_smooth(self, rng):
        rows = sliding_rows(rng.normal(size=25), 1)
        assert np.array_equal(stats.row_roughness(rows), np.zeros(25))

    def test_constant_rows_are_all_zero(self):
        rows = sliding_rows(np.full(50, 2.5), 10)
        assert np.array_equal(stats.row_kurtosis(rows), np.zeros(41))
        assert np.array_equal(stats.row_roughness(rows), np.zeros(41))

    def test_constant_row_inside_varying_series(self):
        rows = sliding_rows(np.concatenate([np.full(20, 1.0), np.arange(20.0)]), 10)
        out = stats.row_kurtosis(rows)
        assert out.tobytes() == scalar_per_row(rows, stats.kurtosis).tobytes()
        assert out[0] == 0.0  # fully inside the constant prefix
        assert out[-1] > 0.0

    def test_straight_line_rows_have_zero_roughness(self):
        # Constant slope means constant differences: roughness exactly 0.
        rows = sliding_rows(np.arange(40.0) * 3.0, 8)
        assert np.array_equal(stats.row_roughness(rows), np.zeros(33))

    @pytest.mark.parametrize("fn", [stats.row_kurtosis, stats.row_roughness])
    def test_rejects_non_2d_input(self, fn):
        with pytest.raises(ValueError, match="2-D"):
            fn(np.ones(5))
        with pytest.raises(ValueError, match="2-D"):
            fn(np.ones((2, 2, 2)))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=4, max_value=250),
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from(["normal", "periodic", "near_linear", "heavy_tail"]),
    )
    def test_row_kurtosis_property_agreement(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "normal":
            values = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 3.0), size=n)
        elif kind == "periodic":
            values = np.sin(np.arange(n) / rng.uniform(2, 20)) + 0.01 * rng.normal(size=n)
        elif kind == "near_linear":
            values = np.linspace(0.0, 1.0, n) + 1e-6 * rng.normal(size=n)
        else:
            values = rng.standard_t(3, size=n) * 100 + 1e4
        rows = sliding_rows(values, int(rng.integers(1, n + 1)))
        expected = scalar_per_row(rows, stats.kurtosis)
        assert stats.row_kurtosis(rows).tobytes() == expected.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=4, max_value=250),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_row_roughness_property_agreement(self, n, seed):
        rng = np.random.default_rng(seed)
        values = np.sin(np.arange(n) / rng.uniform(2, 25)) + rng.uniform(
            0.001, 1.0
        ) * rng.normal(size=n)
        rows = sliding_rows(values, int(rng.integers(1, n + 1)))
        expected = scalar_per_row(rows, stats.roughness)
        assert stats.row_roughness(rows).tobytes() == expected.tobytes()
