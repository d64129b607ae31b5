"""Tests for the multi-series batch engine.

The headline property is the equivalence guarantee: ``smooth_many`` must
return results *bit-identical* to looping :func:`repro.core.batch.smooth`
over the batch, for every strategy and input shape — dataclass equality on
:class:`SmoothingResult` compares every float exactly and
:class:`TimeSeries` equality compares arrays element for element.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import TimeSeries, smooth, smooth_many
from repro.core.search import STRATEGIES
from repro.engine import ACFCache, BatchEngine, BatchResult


@pytest.fixture(scope="module")
def batch_series():
    rng = np.random.default_rng(2024)
    series = []
    for index in range(10):
        t = np.arange(2400, dtype=np.float64)
        period = rng.integers(15, 200)
        values = np.sin(2 * np.pi * t / period) + 0.3 * rng.normal(size=t.size)
        if index % 3 == 0:
            values[rng.integers(0, t.size)] += 8.0  # an outlier series
        series.append(values)
    return series


class TestBitIdentity:
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_equals_looped_smooth_for_every_strategy(self, batch_series, strategy):
        looped = [smooth(s, resolution=300, strategy=strategy) for s in batch_series]
        batched = smooth_many(batch_series, resolution=300, strategy=strategy)
        assert len(batched) == len(looped)
        for single, many in zip(looped, batched):
            assert single == many  # exact dataclass equality, float for float

    def test_equals_looped_smooth_without_preaggregation(self, batch_series):
        short = [s[:900] for s in batch_series[:4]]
        looped = [
            smooth(s, resolution=300, strategy="grid2", use_preaggregation=False)
            for s in short
        ]
        batched = smooth_many(
            short, resolution=300, strategy="grid2", use_preaggregation=False
        )
        assert all(a == b for a, b in zip(looped, batched))

    def test_thread_workers_preserve_results_and_order(self, batch_series):
        looped = [smooth(s, resolution=300) for s in batch_series]
        batched = smooth_many(batch_series, resolution=300, workers=3)
        assert all(a == b for a, b in zip(looped, batched))

    def test_process_workers_preserve_results(self, batch_series):
        small = batch_series[:3]
        looped = [smooth(s, resolution=300) for s in small]
        batched = smooth_many(
            small, resolution=300, workers=2, executor="process"
        )
        assert all(a == b for a, b in zip(looped, batched))

    def test_ragged_same_length_batch_matches(self, batch_series):
        # 2400 points at ratio 8 and 1200 points at ratio 4 both search 300
        # values — one lockstep group, one shared grid kernel call.
        ragged = [batch_series[0], batch_series[1][:1200]]
        result = smooth_many(ragged, resolution=300, strategy="grid2")
        assert result[0] == smooth(ragged[0], resolution=300, strategy="grid2")
        assert result[1] == smooth(ragged[1], resolution=300, strategy="grid2")

    def test_ragged_multi_cohort_batch_matches(self, batch_series):
        # Three searched lengths, two of them shared: groups {300: 3, 333: 2,
        # 250: 1} -> two shared kernel calls plus one singleton.
        ragged = [
            batch_series[0],            # 2400 -> ratio 8 -> 300
            batch_series[1][:1200],     # 1200 -> ratio 4 -> 300
            batch_series[2][:2100],     # 2100 -> ratio 7 -> 300
            batch_series[3][:999],      # 999  -> ratio 3 -> 333
            batch_series[4][:1998],     # 1998 -> ratio 6 -> 333
            batch_series[5][:250],      # 250  -> under-oversampled -> 250
        ]
        result = smooth_many(ragged, resolution=300, strategy="grid10")
        for series, out in zip(ragged, result):
            assert out == smooth(series, resolution=300, strategy="grid10")

    def test_all_singleton_lengths_match(self, batch_series):
        ragged = [batch_series[0], batch_series[1][:1000]]  # 300 vs 333
        result = smooth_many(ragged, resolution=300, strategy="grid2")
        assert result[0] == smooth(ragged[0], resolution=300, strategy="grid2")
        assert result[1] == smooth(ragged[1], resolution=300, strategy="grid2")


class TestInputShapes:
    def test_two_dimensional_array(self, batch_series):
        stacked = np.vstack(batch_series[:5])
        result = smooth_many(stacked, resolution=300, strategy="grid10")
        assert isinstance(result, BatchResult)
        assert result.labels == tuple(str(i) for i in range(5))
        for i in range(5):
            assert result[i] == smooth(stacked[i], resolution=300, strategy="grid10")

    def test_mapping_input_round_trips_labels(self, batch_series):
        named = {"cpu": batch_series[0], "memory": batch_series[1]}
        result = smooth_many(named, resolution=300)
        assert set(result.as_dict()) == {"cpu", "memory"}
        assert result["cpu"] == smooth(batch_series[0], resolution=300)
        with pytest.raises(KeyError):
            result["disk"]

    def test_timeseries_inputs_keep_names_and_timestamps(self, batch_series):
        series = [
            TimeSeries(values, timestamps=np.arange(values.size) * 2.5, name=f"m{i}")
            for i, values in enumerate(batch_series[:3])
        ]
        result = smooth_many(series, resolution=300, strategy="grid2")
        assert result.labels == ("m0", "m1", "m2")
        for item, out in zip(series, result):
            assert out == smooth(item, resolution=300, strategy="grid2")

    def test_single_series_rejected_with_guidance(self, batch_series):
        with pytest.raises(TypeError, match="wrap a single series in a list"):
            smooth_many(batch_series[0], resolution=300)
        with pytest.raises(TypeError, match="wrap a single series in a list"):
            smooth_many(TimeSeries(batch_series[0]), resolution=300)

    def test_string_batch_rejected(self):
        # str is a Sequence; it must not be iterated character by character.
        with pytest.raises(TypeError, match="got str"):
            smooth_many("abcd", resolution=300)


class TestErrorReporting:
    def test_too_short_series_identified_by_label(self, batch_series):
        batch = {"healthy": batch_series[0], "stub": np.ones(3)}
        with pytest.raises(ValueError, match="stub"):
            smooth_many(batch, resolution=300)

    def test_too_short_series_identified_by_index(self):
        batch = [np.ones(3), np.ones(3)]
        with pytest.raises(ValueError, match="batch index 0"):
            smooth_many(batch, resolution=300, strategy="grid2", max_window=50)

    def test_engine_validates_configuration(self):
        with pytest.raises(ValueError, match="resolution"):
            BatchEngine(resolution=0)
        with pytest.raises(ValueError, match="executor"):
            BatchEngine(executor="fiber")
        with pytest.raises(ValueError, match="workers"):
            BatchEngine(workers=-1)


class TestStatsAndCaches:
    def test_stats_fields(self, batch_series):
        result = smooth_many(batch_series, resolution=300, strategy="grid2")
        stats = result.stats
        assert stats.n_series == len(batch_series)
        assert stats.wall_seconds > 0
        assert stats.series_per_second > 0
        assert stats.strategy == "grid2"

    def test_acf_cache_shared_across_refreshes(self, batch_series):
        engine = BatchEngine(resolution=300, strategy="asap")
        first = engine.smooth_many(batch_series)
        second = engine.smooth_many(batch_series)
        assert first.stats.acf_cache_misses == len(batch_series)
        assert second.stats.acf_cache_hits == len(batch_series)
        # Cached analyses change nothing about the results.
        assert all(a == b for a, b in zip(first.results, second.results))

    def test_acf_cache_eviction_bound(self, rng):
        cache = ACFCache(maxsize=2)
        for offset in range(4):
            cache.lookup([(rng.normal(size=64) + offset, 6)], "asap")
        assert len(cache) == 2
        assert cache.misses == 4

    def test_acf_cache_hit_returns_same_analysis(self, rng):
        cache = ACFCache()
        values = rng.normal(size=128)
        (first,) = cache.lookup([(values, 12)], "asap")
        (second,) = cache.lookup([(values, 12)], "asap")
        assert first.acf is second.acf
        assert cache.hits == 1
