"""Tests for the public batch smoothing API."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ASAP, AsapSpec, SmoothingResult, TimeSeries, find_window, smooth
from repro.spectral.convolution import sma
from repro.timeseries import load


class TestSmooth:
    def test_accepts_arrays_and_series(self, periodic_series):
        from_array = smooth(periodic_series, resolution=400)
        from_series = smooth(TimeSeries(periodic_series), resolution=400)
        assert from_array.window == from_series.window

    def test_result_fields_consistent(self, taxi_small):
        result = smooth(taxi_small.series, resolution=400)
        assert isinstance(result, SmoothingResult)
        assert result.window_original_units == result.window * result.preaggregation_ratio
        assert result.roughness <= result.original_roughness + 1e-12
        assert len(result.series) > 0
        assert "window=" in result.summary()

    def test_output_respects_resolution_budget(self):
        values = load("power", scale=0.5).series.values
        result = smooth(values, resolution=500)
        # At most ~resolution points after preaggregation + smoothing.
        assert len(result.series) <= 1000

    def test_output_values_match_manual_pipeline(self, taxi_small):
        from repro.core.preaggregation import preaggregate

        result = smooth(taxi_small.series, resolution=400)
        agg = preaggregate(taxi_small.series.values, 400)
        expected = sma(agg.values, result.window)
        np.testing.assert_allclose(result.series.values, expected)

    def test_timestamps_are_bucket_starts(self):
        series = TimeSeries(np.sin(np.arange(2000) / 10.0), timestamps=np.arange(2000.0) * 5)
        result = smooth(series, resolution=500)
        ratio = result.preaggregation_ratio
        assert result.series.timestamps[0] == 0.0
        assert result.series.timestamps[1] == 5.0 * ratio

    def test_no_preaggregation_mode(self, periodic_series):
        result = smooth(periodic_series, resolution=100, use_preaggregation=False)
        assert result.preaggregation_ratio == 1

    def test_high_kurtosis_left_unsmoothed(self):
        dataset = load("twitter_aapl", scale=0.5)
        result = smooth(dataset.series, resolution=800)
        assert not result.smoothed
        assert result.roughness_reduction == 1.0
        np.testing.assert_allclose(
            result.series.values,
            __import__("repro").core.preaggregate(dataset.series.values, 800).values,
        )

    def test_strategy_selection(self, periodic_series):
        asap = smooth(periodic_series, resolution=400, strategy="asap")
        exhaustive = smooth(periodic_series, resolution=400, strategy="exhaustive")
        assert asap.window == exhaustive.window
        assert asap.search.strategy == "asap"
        assert exhaustive.search.strategy == "exhaustive"

    def test_max_window_cap_respected(self, periodic_series):
        result = smooth(periodic_series, resolution=400, max_window=10)
        assert result.window <= 10

    def test_smoothing_reduces_roughness_on_noisy_data(self):
        result = smooth(load("taxi").series, resolution=400)
        assert result.roughness_reduction > 5.0


class TestFindWindow:
    def test_returns_search_and_ratio(self, taxi_small):
        search, ratio = find_window(taxi_small.series, resolution=400)
        full = smooth(taxi_small.series, resolution=400)
        assert search.window == full.window
        assert ratio == full.preaggregation_ratio


class TestASAPClass:
    def test_configured_operator(self, taxi_small):
        operator = ASAP(resolution=400, strategy="asap")
        result = operator.smooth(taxi_small.series)
        assert result.window == smooth(taxi_small.series, resolution=400).window

    def test_find_window_delegates(self, taxi_small):
        operator = ASAP(resolution=400)
        search, ratio = operator.find_window(taxi_small.series)
        assert search.window >= 1
        assert ratio >= 1

    def test_repr_mentions_config(self):
        assert "resolution=1200" in repr(ASAP(resolution=1200))

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            ASAP(resolution=0)

    def test_attributes_stay_assignable_and_now_validate(self, taxi_small):
        # Pre-spec, the knobs were plain attributes; assignment must keep
        # working (now re-merging the spec) and invalid values must raise.
        operator = ASAP(resolution=400)
        operator.resolution = 200
        operator.strategy = "grid2"
        assert operator.spec == operator.spec.merge(resolution=200, strategy="grid2")
        assert operator.smooth(taxi_small.series) == smooth(
            taxi_small.series, resolution=200, strategy="grid2"
        )
        with pytest.raises(ValueError, match="resolution"):
            operator.resolution = 0


class TestASAPForwardsEveryKnob:
    """Regression: ASAP.smooth()/find_window() used to silently drop knobs,
    ``cache`` and ``acf`` — the dataclass and the function must accept the
    same knobs and forward them through the spec path."""

    def test_forwarded_call_sees_spec_cache_and_acf(self, taxi_small, monkeypatch):
        from repro.core import batch as batch_module

        captured = {}

        def capture(data, *args, **kwargs):
            captured.update(kwargs)
            return "sentinel"

        monkeypatch.setattr(batch_module, "smooth", capture)
        operator = ASAP(resolution=400, strategy="grid2")
        cache, acf = object(), object()
        assert operator.smooth(taxi_small.series, cache=cache, acf=acf) == "sentinel"
        assert captured["spec"] == AsapSpec(resolution=400, strategy="grid2")
        assert captured["cache"] is cache
        assert captured["acf"] is acf

        captured.clear()
        monkeypatch.setattr(batch_module, "find_window", capture)
        assert operator.find_window(taxi_small.series, cache=cache, acf=acf) == "sentinel"
        assert captured["spec"] == AsapSpec(resolution=400, strategy="grid2")
        assert captured["cache"] is cache
        assert captured["acf"] is acf

    def test_supplied_cache_is_consulted(self, taxi_small):
        from repro.core.batch import find_window
        from repro.core.preaggregation import prepare_search_input
        from repro.core.smoothing import EvaluationCache

        # A caller-supplied cache is actually consulted, not dropped.
        operator = ASAP(resolution=400)
        staged = prepare_search_input(taxi_small.series.values, 400)
        cache = EvaluationCache(staged.values)
        reference, _ = find_window(taxi_small.series, resolution=400, cache=cache)
        hits_before = cache.hits
        again, _ = operator.find_window(taxi_small.series, cache=cache)
        assert again == reference
        assert cache.hits > hits_before
