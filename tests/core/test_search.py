"""Tests for the window-search strategies (Algorithms 1 and 2).

The exhaustive search serves as the oracle: it evaluates every candidate, so
any strategy claiming quality must match or approach its selected window.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acf import analyze_acf
from repro.core.preaggregation import preaggregate
from repro.core.search import (
    STRATEGIES,
    SearchState,
    asap_search,
    binary_search,
    exhaustive_search,
    grid_search,
    run_strategy,
    search_periodic,
)
from repro.spectral.convolution import sma
from repro.timeseries import load
from repro.timeseries.stats import kurtosis, roughness


def _initial_state(values) -> SearchState:
    """Algorithm 1's starting incumbent: the unsmoothed series itself."""
    return SearchState(roughness=roughness(values), original_kurtosis=kurtosis(values))


class TestExhaustive:
    def test_candidate_count(self, white_noise_series):
        result = exhaustive_search(white_noise_series, max_window=50)
        assert result.candidates_evaluated == 49  # windows 2..50

    def test_default_max_window_is_tenth(self, white_noise_series):
        result = exhaustive_search(white_noise_series)
        assert result.max_window == white_noise_series.size // 10

    def test_iid_platykurtic_picks_large_window(self, rng):
        # Section 4.2 / Equation 4: for IID data with kurtosis < 3, smoothing
        # raises kurtosis toward 3, so every window is feasible and the
        # largest (smoothest) wins.  Uniform noise (kurtosis 1.8) makes this
        # robust in finite samples, where Gaussian noise hovers near the
        # feasibility boundary.
        values = rng.uniform(-1.0, 1.0, size=4000)
        result = exhaustive_search(values, max_window=100)
        assert result.window > 90

    def test_result_metrics_are_consistent(self, periodic_series):
        result = exhaustive_search(periodic_series, max_window=100)
        smoothed = sma(periodic_series, result.window)
        assert result.roughness == pytest.approx(roughness(smoothed))
        assert result.smoothed == (result.window > 1)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            exhaustive_search(np.ones(3))


class TestKurtosisConstraint:
    def test_extreme_outlier_prevents_smoothing(self, rng):
        # Section 3.2's example: one huge outlier means any smoothing dilutes
        # it and drops kurtosis, so the series must stay unsmoothed.
        values = rng.uniform(-1, 1, size=2000)
        values[1000] = 50.0
        for strategy in ("exhaustive", "binary", "asap"):
            result = run_strategy(strategy, values, 100)
            assert result.window == 1, strategy

    def test_every_selected_window_is_feasible(self, periodic_series):
        original_kurtosis = kurtosis(periodic_series)
        for strategy in STRATEGIES:
            result = run_strategy(strategy, periodic_series, 120)
            if result.window > 1:
                smoothed = sma(periodic_series, result.window)
                assert kurtosis(smoothed) >= original_kurtosis - 1e-9, strategy


class TestBinarySearch:
    def test_feasible_and_never_smoother_than_exhaustive_on_iid(self):
        # Section 4.2: binary search is justified for IID data, where
        # roughness and kurtosis fall with the window.  Binary search does not
        # find exhaustive search's window on every draw (on 43 of these 200
        # seeds the two differ by more than 2, by up to 99), but its window
        # always meets the kurtosis constraint, can never be smoother than
        # the exhaustive optimum, and costs a logarithmic number of candidates.
        for seed in range(200):
            values = np.random.default_rng(seed).normal(0.0, 1.0, size=4000)
            binary = binary_search(values, max_window=100)
            exhaustive = exhaustive_search(values, max_window=100)
            if binary.window > 1:
                assert kurtosis(sma(values, binary.window)) >= kurtosis(values), seed
            assert binary.roughness >= exhaustive.roughness, seed
            assert binary.candidates_evaluated <= 7, seed

    def test_few_candidates(self, white_noise_series):
        result = binary_search(white_noise_series, max_window=128)
        assert result.candidates_evaluated <= 9  # log2(127) + 1


class TestGridSearch:
    def test_step_one_equals_exhaustive(self, periodic_series):
        grid = grid_search(periodic_series, step=1, max_window=80)
        exhaustive = exhaustive_search(periodic_series, max_window=80)
        assert grid.window == exhaustive.window

    def test_candidate_counts_scale_with_step(self, periodic_series):
        grid2 = grid_search(periodic_series, step=2, max_window=80)
        grid10 = grid_search(periodic_series, step=10, max_window=80)
        assert grid2.candidates_evaluated == 40
        assert grid10.candidates_evaluated == 8

    def test_coarse_grid_can_miss_optimum(self, periodic_series):
        # Roughness is non-monotonic for periodic data (Section 4.1), so a
        # step-10 grid cannot guarantee the exhaustive window.
        grid10 = grid_search(periodic_series, step=10, max_window=80)
        exhaustive = exhaustive_search(periodic_series, max_window=80)
        assert grid10.roughness >= exhaustive.roughness - 1e-12

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            grid_search(np.ones(100), step=0)


class TestASAP:
    @pytest.mark.parametrize(
        "name", ["taxi", "temp", "sine", "power", "ramp_traffic", "sim_daily"]
    )
    def test_matches_exhaustive_on_datasets(self, name):
        # Table 2's headline: ASAP finds the exhaustive-search window (at the
        # paper's full dataset scale and 1200px target).
        values = preaggregate(load(name).series.values, 1200).values
        asap = asap_search(values)
        exhaustive = exhaustive_search(values)
        assert asap.window == exhaustive.window

    def test_checks_far_fewer_candidates(self):
        values = preaggregate(load("taxi").series.values, 1200).values
        asap = asap_search(values)
        exhaustive = exhaustive_search(values)
        assert asap.candidates_evaluated < exhaustive.candidates_evaluated / 4

    def test_periodic_series_selects_period_multiple(self, periodic_series):
        result = asap_search(periodic_series, max_window=150)
        assert result.window % 60 <= 2 or 60 - (result.window % 60) <= 2

    def test_aperiodic_falls_back_to_binary(self, white_noise_series):
        asap = asap_search(white_noise_series, max_window=100)
        binary = binary_search(white_noise_series, max_window=100)
        assert asap.window == binary.window

    def test_accepts_precomputed_acf_and_state(self, periodic_series):
        acf = analyze_acf(periodic_series, max_lag=150)
        state = _initial_state(periodic_series)
        result = asap_search(periodic_series, max_window=150, acf=acf, state=state)
        assert result.window >= 1

    def test_seeded_state_prunes_candidates(self, periodic_series):
        # Seeding with the known-feasible previous window (Section 4.5)
        # should never increase the number of evaluations.
        fresh = asap_search(periodic_series, max_window=150)
        seeded_state = _initial_state(periodic_series)
        seeded_state.window = fresh.window
        seeded_state.roughness = fresh.roughness
        seeded = asap_search(periodic_series, max_window=150, state=seeded_state)
        assert seeded.candidates_evaluated <= fresh.candidates_evaluated + 1

    def test_unknown_strategy_rejected(self):
        with pytest.raises(KeyError, match="unknown strategy"):
            run_strategy("annealing", np.ones(100))


class TestSearchPeriodic:
    def test_respects_lower_bound(self, periodic_series):
        acf = analyze_acf(periodic_series, max_lag=150)
        state = _initial_state(periodic_series)
        state.lower_bound = 10_000  # absurd bound: everything pruned
        out = search_periodic(periodic_series, list(acf.peaks), acf, state)
        assert out.candidates_evaluated == 0

    def test_feasible_peak_updates_state(self, periodic_series):
        acf = analyze_acf(periodic_series, max_lag=150)
        state = _initial_state(periodic_series)
        out = search_periodic(periodic_series, list(acf.peaks), acf, state)
        assert out.largest_feasible_idx >= 0
        assert out.window > 1


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_asap_never_beats_exhaustive_roughness(self, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(600, dtype=np.float64)
        period = rng.integers(10, 40)
        values = np.sin(2 * np.pi * t / period) + 0.5 * rng.normal(size=600)
        asap = asap_search(values, max_window=60)
        exhaustive = exhaustive_search(values, max_window=60)
        # Exhaustive is the oracle: ASAP can only match it, never beat it.
        assert asap.roughness >= exhaustive.roughness - 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_selected_window_always_feasible_or_one(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=400) + np.sin(np.arange(400) / 8.0)
        result = asap_search(values, max_window=40)
        if result.window > 1:
            assert kurtosis(sma(values, result.window)) >= kurtosis(values) - 1e-9
