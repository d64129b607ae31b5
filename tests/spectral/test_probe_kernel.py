"""Tests for the warm-start probe kernel (``sma_probe_moments``) and its core.

The contract is stricter than the 1e-9 discipline used elsewhere: the stacked
probe kernel must be **bit-identical** to ``sma_window_moments`` applied one
window at a time, because the streaming operator's warm-started search seeds
its evaluation cache from prefetched probes and the search must make exactly
the decisions a cold search would make.  The same holds for the
prepared-prefix core every evaluation of a searched series runs through.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import run_strategy
from repro.core.smoothing import EvaluationCache
from repro.spectral.convolution import (
    _moments_from_prefix,
    _prefix_sums,
    sma,
    sma_probe_moments,
    sma_window_moments,
)


def bits(x) -> bytes:
    """Raw float64 bytes — an equality that distinguishes nothing less than
    bit patterns (and treats identical NaNs as equal, unlike ``==``)."""
    return np.asarray(x, dtype=np.float64).tobytes()


def assert_probe_matches_singles(values, windows):
    rough, kurt = sma_probe_moments(values, windows)
    assert rough.shape == kurt.shape == (len(windows),)
    for i, window in enumerate(windows):
        rough_s, kurt_s = sma_window_moments(values, window)
        assert bits(rough_s) == bits(rough[i]), f"roughness differs at window {window}"
        assert bits(kurt_s) == bits(kurt[i]), f"kurtosis differs at window {window}"


class TestBitIdentity:
    def test_random_series_full_window_sweep(self, rng):
        values = rng.normal(size=257)
        windows = list(range(1, 258))
        assert_probe_matches_singles(values, windows)

    def test_edge_windows(self, rng):
        values = rng.normal(size=64)
        assert_probe_matches_singles(values, [1, 2, 3, 62, 63, 64])

    def test_window_one_identity_bypass(self, rng):
        # Window 1 short-circuits the prefix arithmetic in the scalar kernel;
        # the stacked kernel must reproduce that bypass, not approximate it.
        values = rng.normal(size=50) * 1e6 + 3.7
        assert_probe_matches_singles(values, [1])

    def test_pathological_series(self):
        for values in (
            np.zeros(40),
            np.full(40, 123.456),
            np.arange(40, dtype=np.float64),
            np.array([1.0]),
            np.array([2.0, -2.0]),
        ):
            n = values.size
            windows = sorted({1, 2, n - 1, n} & set(range(1, n + 1)))
            assert_probe_matches_singles(values, windows)

    def test_workspace_reuse_is_invisible(self, rng):
        # A poisoned workspace must not leak into results: every cell the
        # reductions read is rewritten first.
        values = rng.normal(size=120)
        windows = [2, 7, 30, 119]
        fresh = sma_probe_moments(values, windows)
        poisoned = np.full((2, 8, 120), np.nan)
        reused = sma_probe_moments(values, windows, workspace=poisoned)
        assert bits(fresh[0]) == bits(reused[0])
        assert bits(fresh[1]) == bits(reused[1])
        # And back-to-back calls through the same workspace stay identical.
        again = sma_probe_moments(values, windows, workspace=poisoned)
        assert bits(fresh[0]) == bits(again[0])
        assert bits(fresh[1]) == bits(again[1])

    def test_undersized_workspace_falls_back(self, rng):
        values = rng.normal(size=60)
        windows = [2, 5, 9]
        small = np.empty((2, 1, 60))  # too few rows
        wrong_n = np.empty((2, 8, 61))  # wrong width
        for workspace in (small, wrong_n):
            rough, kurt = sma_probe_moments(values, windows, workspace=workspace)
            assert_probe_matches_singles(values, windows)
            fresh = sma_probe_moments(values, windows)
            assert bits(fresh[0]) == bits(rough)
            assert bits(fresh[1]) == bits(kurt)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(min_value=2, max_value=160),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_property_random_probe_sets(self, seed, n, scale):
        probe_rng = np.random.default_rng(seed)
        values = probe_rng.normal(size=n) * scale
        count = int(probe_rng.integers(1, min(n, 12) + 1))
        windows = sorted(set(probe_rng.integers(1, n + 1, size=count).tolist()))
        assert_probe_matches_singles(values, windows)


def assert_rows_match_singles(batch, rows, windows, workspace=None):
    rough, kurt = sma_probe_moments(batch, windows, workspace, rows=rows)
    assert rough.shape == kurt.shape == (len(windows),)
    for i, (row, window) in enumerate(zip(rows, windows)):
        rough_s, kurt_s = sma_window_moments(batch[row], window)
        assert bits(rough_s) == bits(rough[i]), f"roughness differs at row {row}, window {window}"
        assert bits(kurt_s) == bits(kurt[i]), f"kurtosis differs at row {row}, window {window}"


class TestBatchRows:
    """The 2-D form: output *i* is row ``rows[i]`` at ``windows[i]``."""

    def test_windows_one_and_n_on_every_row(self):
        batch = np.random.default_rng(1801).normal(size=(4, 90))
        rows = [0, 1, 2, 3, 0, 1, 2, 3]
        windows = [1, 1, 1, 1, 90, 90, 90, 90]
        assert_rows_match_singles(batch, rows, windows)

    def test_constant_rows(self):
        batch = np.vstack([np.full(70, 4.25), np.zeros(70), np.arange(70.0)])
        rows = [0, 0, 1, 1, 2, 0]
        windows = [1, 7, 2, 70, 5, 69]
        assert_rows_match_singles(batch, rows, windows)

    def test_rows_at_small_and_large_scales(self):
        rng = np.random.default_rng(1802)
        batch = rng.normal(size=(3, 150)) * np.array([[1e-6], [1.0], [1e6]]) + 3.7
        rows = [0, 1, 2, 2, 0]
        windows = [3, 3, 3, 41, 149]
        assert_rows_match_singles(batch, rows, windows)

    def test_one_window_on_several_rows(self):
        batch = np.random.default_rng(1803).normal(size=(5, 60))
        assert_rows_match_singles(batch, [4, 0, 2, 2], [9, 9, 9, 9])

    def test_several_windows_on_one_row_of_many(self):
        batch = np.random.default_rng(1804).normal(size=(6, 80))
        assert_rows_match_singles(batch, [3, 3, 3], [2, 40, 79])

    def test_poisoned_workspace_is_invisible(self):
        batch = np.random.default_rng(1805).normal(size=(3, 120))
        rows, windows = [2, 0, 1, 0], [7, 2, 119, 30]
        fresh = sma_probe_moments(batch, windows, rows=rows)
        poisoned = np.full((2, 8, 120), np.nan)
        for _ in range(2):
            reused = sma_probe_moments(batch, windows, poisoned, rows=rows)
            assert bits(fresh[0]) == bits(reused[0])
            assert bits(fresh[1]) == bits(reused[1])
        assert_rows_match_singles(batch, rows, windows, workspace=poisoned)

    def test_one_row_batch_matches_the_1d_call(self):
        values = np.random.default_rng(1806).normal(size=100)
        windows = [1, 2, 50, 99, 100]
        batched = sma_probe_moments(values[np.newaxis, :], windows, rows=[0] * 5)
        single = sma_probe_moments(values, windows)
        assert bits(batched[0]) == bits(single[0])
        assert bits(batched[1]) == bits(single[1])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=2, max_value=120),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_property_random_requests(self, seed, m, n, scale):
        probe_rng = np.random.default_rng(seed)
        batch = probe_rng.normal(size=(m, n)) * scale
        count = int(probe_rng.integers(1, 13))
        rows = probe_rng.integers(0, m, size=count).tolist()
        windows = probe_rng.integers(1, n + 1, size=count).tolist()
        assert_rows_match_singles(batch, rows, windows)

    def test_rejects_bad_rows(self):
        batch = np.random.default_rng(1807).normal(size=(2, 10))
        with pytest.raises(ValueError, match="2-D"):
            sma_probe_moments(batch[0], [2], rows=[0])
        with pytest.raises(ValueError, match="entries"):
            sma_probe_moments(batch, [2, 3], rows=[0])
        with pytest.raises(ValueError, match="index"):
            sma_probe_moments(batch, [2], rows=[2])


class TestValidation:
    def test_rejects_2d_input(self, rng):
        with pytest.raises(ValueError, match="1-D"):
            sma_probe_moments(rng.normal(size=(3, 10)), [2])

    def test_rejects_out_of_range_window(self, rng):
        values = rng.normal(size=10)
        with pytest.raises(Exception):
            sma_probe_moments(values, [11])
        with pytest.raises(Exception):
            sma_probe_moments(values, [0])


def assert_gated_like_ungated(values, windows, floor, rows=None):
    """The floor changes nothing but roughness below it, which becomes nan."""
    full_rough, full_kurt = sma_probe_moments(values, windows, rows=rows)
    rough, kurt = sma_probe_moments(values, windows, rows=rows, floor=floor)
    assert bits(kurt) == bits(full_kurt)
    floors = np.broadcast_to(np.asarray(floor, dtype=np.float64), (len(windows),))
    series = [values] * len(windows) if rows is None else [values[row] for row in rows]
    for i, window in enumerate(windows):
        single = sma_window_moments(series[i], window, floor=floors[i])
        assert bits(single[1]) == bits(kurt[i])
        if full_kurt[i] >= floors[i]:
            assert bits(rough[i]) == bits(full_rough[i]), f"roughness differs at window {window}"
            assert bits(single[0]) == bits(full_rough[i])
        else:
            assert np.isnan(rough[i]) and np.isnan(single[0]), f"window {window} was measured"
    return rough


class TestKurtosisFloor:
    """Constraint-first: kurtosis for every row, roughness only at the floor or above."""

    def test_floor_splits_a_window_sweep(self):
        values = np.random.default_rng(1901).normal(size=200)
        windows = list(range(1, 201))
        _, kurt = sma_probe_moments(values, windows)
        rough = assert_gated_like_ungated(values, windows, float(np.median(kurt)))
        assert 0 < int(np.isnan(rough).sum()) < len(windows)

    def test_floor_tie_is_measured(self):
        values = np.random.default_rng(1902).normal(size=150)
        windows = [2, 9, 33, 140]
        full_rough, kurt = sma_probe_moments(values, windows)
        for i in range(len(windows)):
            rough = assert_gated_like_ungated(values, windows, kurt[i])
            assert bits(rough[i]) == bits(full_rough[i])

    def test_constant_rows_meet_a_zero_floor(self):
        # Kurtosis is 0 on a constant row (and never negative), so a floor
        # of 0 measures every row and any positive floor none of them.
        for values in (np.zeros(40), np.full(40, 123.456)):
            rough = assert_gated_like_ungated(values, [1, 2, 39, 40], 0.0)
            assert not np.isnan(rough).any()
        rough = assert_gated_like_ungated(np.zeros(40), [1, 2, 39, 40], 1e-300)
        assert np.isnan(rough).all()

    def test_windows_one_and_n(self):
        values = np.random.default_rng(1903).normal(size=64) * 1e6 + 3.7
        for floor in (-np.inf, 0.0, 1.0, 3.0, np.inf):
            assert_gated_like_ungated(values, [1, 64], floor)

    def test_infinite_floors_measure_all_or_nothing(self):
        values = np.random.default_rng(1904).normal(size=90)
        windows = [1, 3, 45, 89, 90]
        full_rough, _ = sma_probe_moments(values, windows)
        assert bits(sma_probe_moments(values, windows, floor=-np.inf)[0]) == bits(full_rough)
        assert np.isnan(sma_probe_moments(values, windows, floor=np.inf)[0]).all()

    def test_rows_with_one_floor_per_row(self):
        rng = np.random.default_rng(1905)
        batch = rng.normal(size=(3, 120)) * np.array([[1e-6], [1.0], [1e6]])
        batch[2] = 5.0
        rows = [0, 1, 2, 0, 1, 2, 0]
        windows = [1, 2, 3, 60, 119, 120, 7]
        _, kurt = sma_probe_moments(batch, windows, rows=rows)
        floors = [kurt[0], 2.5, 0.0, kurt[3] + 1e-12, -1.0, 0.0, np.inf]
        rough = assert_gated_like_ungated(batch, windows, floors, rows=rows)
        assert not np.isnan(rough[[0, 2, 4, 5]]).any()
        assert np.isnan(rough[[3, 6]]).all()

    def test_poisoned_workspace_with_floor(self):
        values = np.random.default_rng(1906).normal(size=120)
        windows = [2, 7, 30, 119]
        floor = float(np.median(sma_probe_moments(values, windows)[1]))
        fresh = sma_probe_moments(values, windows, floor=floor)
        poisoned = np.full((2, 8, 120), np.nan)
        reused = sma_probe_moments(values, windows, poisoned, floor=floor)
        assert bits(fresh[0]) == bits(reused[0]) and bits(fresh[1]) == bits(reused[1])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=2, max_value=200),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_property_random_floors(self, seed, m, n, scale):
        probe_rng = np.random.default_rng(seed)
        batch = probe_rng.normal(size=(m, n)) * scale
        count = int(probe_rng.integers(1, 13))
        rows = probe_rng.integers(0, m, size=count).tolist()
        windows = probe_rng.integers(1, n + 1, size=count).tolist()
        _, kurt = sma_probe_moments(batch, windows, rows=rows)
        # Floors around the measured kurtoses, ties included.
        floors = kurt + probe_rng.choice([-0.5, 0.0, 0.0, 0.5], size=count)
        assert_gated_like_ungated(batch, windows, floors, rows=rows)
        assert_gated_like_ungated(batch[0], windows, float(floors[0]))


class TestEmptyProbeSet:
    def test_empty_probe_set_returns_empty_arrays_like_the_grid_kernel(self):
        from repro.spectral.convolution import sma_grid_moments

        values = np.random.default_rng(1907).normal(size=50)
        grid = sma_grid_moments(values, [])
        for rough, kurt in (
            sma_probe_moments(values, []),
            sma_probe_moments(values, [], floor=1.0),
            sma_probe_moments(np.vstack([values, values]), [], rows=[]),
        ):
            assert rough.shape == kurt.shape == grid[0].shape == (0,)
            assert rough.dtype == kurt.dtype == np.float64

    def test_empty_rows_must_still_match_windows(self):
        batch = np.random.default_rng(1908).normal(size=(2, 10))
        with pytest.raises(ValueError, match="entries"):
            sma_probe_moments(batch, [2], rows=[])
        with pytest.raises(ValueError, match="entries"):
            sma_probe_moments(batch, [], rows=[0])


class TestPreparedPath:
    """The prepared-prefix core behind the cache, the prefetch and the lockstep.

    Every evaluation of a searched series is answered from one prefix sum:
    the core's outputs must be the single-window kernel's bytes whatever the
    floors, rows and workspace contents, the cache's frame values must be
    :func:`sma`'s, and a search replayed over a prefetch must decide exactly
    as one that only missed.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=2, max_value=200),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
        floors=st.sampled_from(["none", "scalar", "per row"]),
        stale=st.sampled_from([np.nan, np.inf, -1e300, 0.0]),
    )
    def test_property_core_matches_single_windows(self, seed, m, n, scale, floors, stale):
        rng = np.random.default_rng(seed)
        batch = rng.normal(size=(m, n)) * scale + rng.normal() * scale
        if rng.random() < 0.2:
            batch[int(rng.integers(m))] = batch[0, 0]  # a constant row
        count = int(rng.integers(1, 13))
        rows = rng.integers(0, m, size=count).tolist()
        windows = rng.integers(1, n + 1, size=count).tolist()
        kurt_all = sma_probe_moments(batch, windows, rows=rows)[1]
        per_row = (kurt_all + rng.choice([-0.5, 0.0, 0.5], size=count)).tolist()
        floor = {"none": None, "scalar": per_row[0], "per row": per_row}[floors]
        # A workspace left holding another call's (or garbage) values.
        workspace = np.full((2, count + int(rng.integers(0, 3)), n), stale)
        prefixes = list(_prefix_sums(batch))
        for _ in range(2):  # the second call reuses what the first left behind
            rough, kurt = _moments_from_prefix(
                list(batch), prefixes, windows, rows, floor, workspace
            )
            for i, (row, window) in enumerate(zip(rows, windows)):
                row_floor = per_row[i] if floors == "per row" else floor
                single = sma_window_moments(batch[row], window, floor=row_floor)
                assert bits(single[0]) == bits(rough[i]), f"roughness at row {row}, window {window}"
                assert bits(single[1]) == bits(kurt[i]), f"kurtosis at row {row}, window {window}"

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(min_value=1, max_value=300),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_property_frame_values_equal_sma(self, seed, n, scale):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=n) * scale + 3.7 * scale
        cache = EvaluationCache(values)
        for window in sorted({1, n, *rng.integers(1, n + 1, size=4).tolist()}):
            assert bits(cache._smoothed(window)) == bits(sma(values, window))
            # Misses share the prefix the frame reads: still the kernel's bytes.
            evaluation = cache.evaluate(window)
            expected = sma_window_moments(values, window)
            assert bits(evaluation.roughness) == bits(expected[0])
            assert bits(evaluation.kurtosis) == bits(expected[1])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(min_value=8, max_value=400),
        strategy=st.sampled_from(["asap", "binary"]),
        plan=st.sampled_from(["trace", "part of the trace", "other windows"]),
    )
    def test_property_prefetch_then_replay_equals_misses_only(self, seed, n, strategy, plan):
        rng = np.random.default_rng(seed)
        t = np.arange(n, dtype=np.float64)
        values = np.sin(2 * np.pi * t / rng.uniform(4, max(n / 3, 5))) + rng.normal(size=n)
        cold = EvaluationCache(values)
        expected = run_strategy(strategy, values, cache=cold)

        trace = list(cold.touched_windows())
        probes = {
            "trace": trace,
            "part of the trace": trace[::2],
            "other windows": sorted(set(rng.integers(1, n + 1, size=6).tolist())),
        }[plan]
        # Each prefetched entry is what a search's screen would have stored.
        prefetched, screened = EvaluationCache(values), EvaluationCache(values)
        prefetched._prefetch(probes)
        for window in probes:
            entry = prefetched.lookup(window, prefetched.original_kurtosis)
            assert entry is not None, f"window {window} was not answered"
            expected_entry = screened.screen(window)
            assert bits(entry.roughness) == bits(expected_entry.roughness)
            assert bits(entry.kurtosis) == bits(expected_entry.kurtosis)

        warm = EvaluationCache(values)
        if probes:
            warm._prefetch(probes, np.full((2, len(probes), n), np.nan))
        assert (warm.hits, warm.misses, warm.touched_windows()) == (0, 0, ())
        got = run_strategy(strategy, values, cache=warm)
        assert got == expected and repr(got) == repr(expected)
        assert warm.touched_windows() == cold.touched_windows()
        if plan == "trace":
            assert warm.misses == 0
