"""Lockstep cold searches: the batch engine's serial path for asap/binary.

The engine runs every unseen series' search as a step generator and answers
each round of requests with one stacked kernel call, then lets the ordinary
pipeline replay over the filled caches.  These tests pin that the batch
still equals looped :func:`repro.core.batch.smooth` byte for byte —
``SearchResult`` and ``candidates_evaluated`` included — over the batch
shapes the grouping has to get right, and that the rounds really are
stacked.  Every test seeds its own generator.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.smoothing as smoothing_module
import repro.engine.batch_engine as engine_module
from repro import TimeSeries, smooth
from repro.engine import ACFCache, BatchEngine
from repro.engine.batch_engine import search_in_lockstep

RESOLUTION = 200
STRATEGIES = ["asap", "binary"]


def _periodic(rng, length: int) -> np.ndarray:
    t = np.arange(length, dtype=np.float64)
    period = float(rng.integers(12, 400))
    return np.sin(2 * np.pi * t / period) + 0.3 * rng.normal(size=length)


def assert_identical(got, want) -> None:
    """Two SmoothingResults, every field byte for byte."""
    assert got.window == want.window
    assert got.preaggregation_ratio == want.preaggregation_ratio
    assert got.series.values.tobytes() == want.series.values.tobytes()
    assert got.series.timestamps.tobytes() == want.series.timestamps.tobytes()
    assert got.series.name == want.series.name
    assert got.search == want.search
    assert got.search.candidates_evaluated == want.search.candidates_evaluated
    for field in ("roughness", "kurtosis", "original_roughness", "original_kurtosis"):
        assert np.float64(getattr(got, field)).tobytes() == np.float64(
            getattr(want, field)
        ).tobytes(), field
    assert repr(got) == repr(want)


def assert_batch_matches_loop(batch, strategy: str, engine: BatchEngine | None = None):
    engine = engine or BatchEngine(resolution=RESOLUTION, strategy=strategy)
    result = engine.smooth_many(batch)
    items = batch.values() if isinstance(batch, dict) else batch
    for got, item in zip(result, items):
        assert_identical(got, smooth(item, resolution=RESOLUTION, strategy=strategy))
    return result


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestEqualsLoopedSmooth:
    def test_aperiodic_rows_bisect_only(self, strategy):
        rng = np.random.default_rng(1811)
        assert_batch_matches_loop([rng.normal(size=2000) for _ in range(5)], strategy)

    def test_mixed_periodic_and_aperiodic(self, strategy):
        rng = np.random.default_rng(1812)
        batch = [_periodic(rng, 2000) if i % 2 else rng.normal(size=2000) for i in range(6)]
        assert_batch_matches_loop(batch, strategy)

    def test_the_same_series_twice(self, strategy):
        rng = np.random.default_rng(1813)
        a, b = _periodic(rng, 2000), _periodic(rng, 2000)
        engine = BatchEngine(resolution=RESOLUTION, strategy=strategy)
        result = assert_batch_matches_loop([a, b, a.copy(), a], strategy, engine)
        assert len(engine.acf_cache) == 2
        assert result[0] == result[2] == result[3]

    def test_two_cohorts_plus_a_singleton(self, strategy):
        # Searched lengths: 200 (2000 points at ratio 10, 1000 at ratio 5),
        # 250 (two series of 500 at ratio 2) and a singleton 300 (no
        # preaggregation below twice the resolution).
        rng = np.random.default_rng(1814)
        batch = [
            _periodic(rng, 2000),
            _periodic(rng, 1000),
            _periodic(rng, 500),
            rng.normal(size=500),
            _periodic(rng, 300),
        ]
        assert_batch_matches_loop(batch, strategy)

    def test_constant_series(self, strategy):
        rng = np.random.default_rng(1815)
        batch = [np.full(2000, 4.25), _periodic(rng, 2000), np.zeros(2000)]
        result = assert_batch_matches_loop(batch, strategy)
        assert result[0].window == 1 and result[0].original_kurtosis == 0.0

    def test_half_seen_half_unseen(self, strategy):
        rng = np.random.default_rng(1816)
        pool = [_periodic(rng, 2000) for _ in range(8)]
        engine = BatchEngine(resolution=RESOLUTION, strategy=strategy)
        assert_batch_matches_loop(pool[:4], strategy, engine)
        result = assert_batch_matches_loop(pool[2:6], strategy, engine)
        assert result.stats.acf_cache_hits == (2 if strategy == "asap" else 0)
        assert_batch_matches_loop(pool[4:] + pool[:2], strategy, engine)

    def test_timeseries_names_and_timestamps(self, strategy):
        rng = np.random.default_rng(1817)
        batch = {
            f"m{i}": TimeSeries(_periodic(rng, 1200), np.arange(1200) * 2.5 + 100.0, name=f"m{i}")
            for i in range(3)
        }
        assert_batch_matches_loop(batch, strategy)

    def test_short_and_nan_series_still_labelled_by_index(self, strategy):
        rng = np.random.default_rng(1818)
        healthy = [_periodic(rng, 2000) for _ in range(3)]
        nan = healthy[0].copy()
        nan[77] = np.nan
        for bad, index in ((np.ones(3), 2), (nan, 1)):
            batch = healthy[:index] + [bad] + healthy[index:]
            with pytest.raises(ValueError) as direct:
                smooth(bad, resolution=RESOLUTION, strategy=strategy)
            with pytest.raises(ValueError) as labeled:
                BatchEngine(resolution=RESOLUTION, strategy=strategy).smooth_many(batch)
            assert str(labeled.value) == f"series '{index}' (batch index {index}): {direct.value}"

    def test_first_failing_index_wins(self, strategy):
        # A series the state lookup rejects (non-numeric) behind a series
        # only the pipeline rejects (too short): the earlier index is named.
        rng = np.random.default_rng(1819)
        batch = [_periodic(rng, 2000), np.ones(3), ["not", "numbers", "at", "all"]]
        with pytest.raises(ValueError, match=r"batch index 1\)"):
            BatchEngine(resolution=RESOLUTION, strategy=strategy).smooth_many(batch)


class TestStackedRounds:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_unseen_equal_length_series_stack_every_round(self, strategy, monkeypatch):
        rng = np.random.default_rng(1820)
        batch = [_periodic(rng, 2000) if i % 3 else rng.normal(size=2000) for i in range(8)]

        # Every candidate evaluation goes through the prepared-prefix core:
        # a cache miss from the cache's module, a lockstep round from the
        # engine's.
        single_calls = []
        kernel = smoothing_module._moments_from_prefix

        def counting_single(values, prefixes, windows, rows, floor=None, workspace=None):
            single_calls.extend(windows)
            return kernel(values, prefixes, windows, rows, floor, workspace)

        monkeypatch.setattr(smoothing_module, "_moments_from_prefix", counting_single)
        per_series = []
        for values in batch:
            before = len(single_calls)
            smooth(values, resolution=RESOLUTION, strategy=strategy)
            per_series.append(len(single_calls) - before)

        def forbidden(*args, **kwargs):
            raise AssertionError("a lockstep batch ran a single-window kernel")

        stacked = []
        core = engine_module._moments_from_prefix

        def counting_core(values, prefixes, windows, rows, floor=None, workspace=None):
            stacked.append(len(windows))
            return core(values, prefixes, windows, rows, floor, workspace)

        monkeypatch.setattr(smoothing_module, "_moments_from_prefix", forbidden)
        monkeypatch.setattr(smoothing_module, "sma_grid_moments", forbidden)
        monkeypatch.setattr(engine_module, "_moments_from_prefix", counting_core)
        engine = BatchEngine(resolution=RESOLUTION, strategy=strategy)
        result = engine.smooth_many(batch)
        monkeypatch.undo()

        assert len(stacked) == max(per_series)  # one stacked call per round
        assert sum(stacked) == sum(per_series)  # every evaluation, exactly once
        assert stacked[0] == len(batch)
        for got, values in zip(result, batch):
            assert_identical(got, smooth(values, resolution=RESOLUTION, strategy=strategy))

    def test_off_the_serial_grid_path_nothing_stacks(self, monkeypatch):
        rng = np.random.default_rng(1821)
        batch = [_periodic(rng, 2000) for _ in range(4)]

        def forbidden(*args, **kwargs):
            raise AssertionError("lockstep ran off the serial grid path")

        monkeypatch.setattr(engine_module, "_moments_from_prefix", forbidden)
        for engine_options, options in (
            ({"workers": 2}, {}),
            ({}, {"strategy": "grid2"}),
        ):
            engine = BatchEngine(resolution=RESOLUTION, **engine_options, **options)
            for got, values in zip(engine.smooth_many(batch), batch):
                assert got == smooth(values, resolution=RESOLUTION, **options)

    def test_searched_states_are_left_alone(self, monkeypatch):
        rng = np.random.default_rng(1822)
        cache = ACFCache()
        entries = cache.lookup([(_periodic(rng, 300), 30) for _ in range(3)], "asap")
        search_in_lockstep(entries, "asap", 30)
        filled = [len(entry.cache) for entry in entries]
        results = [entry.result for entry in entries]
        assert all(filled) and None not in results

        def forbidden(*args, **kwargs):
            raise AssertionError("an already searched state was searched again")

        monkeypatch.setattr(engine_module, "_moments_from_prefix", forbidden)
        search_in_lockstep(entries, "asap", 30)
        assert [len(entry.cache) for entry in entries] == filled
        assert all(entry.result is result for entry, result in zip(entries, results))


class TestDuplicateLabels:
    def _result(self):
        rng = np.random.default_rng(1823)
        a, b, c = (_periodic(rng, 1200) for _ in range(3))
        return BatchEngine(resolution=RESOLUTION).smooth_many(
            [TimeSeries(a, name="x"), TimeSeries(b, name="x"), TimeSeries(c, name="y")]
        )

    def test_as_dict_names_the_duplicated_label(self):
        result = self._result()
        assert result.labels == ("x", "x", "y")
        with pytest.raises(ValueError, match="'x'"):
            result.as_dict()

    def test_ambiguous_label_lookup_raises_key_error(self):
        result = self._result()
        with pytest.raises(KeyError, match="ambiguous"):
            result["x"]
        assert result["y"] is result[2]
        with pytest.raises(KeyError):
            result["z"]

    def test_mapping_keys_that_stringify_alike(self):
        rng = np.random.default_rng(1824)
        result = BatchEngine(resolution=RESOLUTION).smooth_many(
            {1: _periodic(rng, 1200), "1": _periodic(rng, 1200)}
        )
        with pytest.raises(ValueError, match="'1'"):
            result.as_dict()


class TestBareArrayInput:
    def test_bare_array_equals_its_timeseries(self):
        rng = np.random.default_rng(1825)
        for length in (3000, 1234, 300):
            values = _periodic(rng, length)
            bare = smooth(values, resolution=RESOLUTION)
            wrapped = smooth(TimeSeries(values), resolution=RESOLUTION)
            assert_identical(bare, wrapped)

    @pytest.mark.parametrize(
        "bad", [np.ones((3, 40)), np.where(np.arange(500) == 9, np.inf, 1.0)], ids=["2-D", "inf"]
    )
    def test_bare_array_errors_match_timeseries(self, bad):
        with pytest.raises(ValueError) as wrapped:
            TimeSeries(bad)
        with pytest.raises(ValueError) as bare:
            smooth(bad, resolution=RESOLUTION)
        assert str(bare.value) == str(wrapped.value)

    def test_bare_array_is_not_modified_or_retained(self):
        values = _periodic(np.random.default_rng(1826), 3000)
        before = values.copy()
        result = smooth(values, resolution=RESOLUTION)
        assert values.tobytes() == before.tobytes()
        values[:] = 0.0
        assert result == smooth(before, resolution=RESOLUTION)
