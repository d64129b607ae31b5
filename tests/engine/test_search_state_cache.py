"""The batch engine's search-state cache: reuse must be invisible.

A refresh that resubmits a series replays its earlier search over the
memoized state instead of recomputing it.  These tests pin that the replay
returns exactly what a fresh :func:`repro.core.batch.smooth` returns — every
field, byte for byte — that it really runs no analysis or moment kernel, and
that anything the search depends on (content, window ceiling, strategy) is
part of the key.  Every test seeds its own generator, so
its data does not depend on test order.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro.core.smoothing as smoothing_module
import repro.engine.cache as cache_module
from repro import TimeSeries, smooth
from repro.engine import ACFCache, BatchEngine
from repro.spec import AsapSpec

RESOLUTION = 300


def _dashboard(seed: int, n_series: int, length: int = 2400) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    series = []
    for index in range(n_series):
        period = float(rng.integers(15, 200))
        values = np.sin(2 * np.pi * t / period) + 0.3 * rng.normal(size=length)
        if index % 3 == 0:
            values[rng.integers(0, length)] += 8.0
        series.append(values)
    return series


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def assert_identical(got, want) -> None:
    """Every field of two SmoothingResults, compared byte for byte."""
    assert got.window == want.window
    assert got.window_original_units == want.window_original_units
    assert got.preaggregation_ratio == want.preaggregation_ratio
    assert got.series.values.tobytes() == want.series.values.tobytes()
    assert got.series.timestamps.tobytes() == want.series.timestamps.tobytes()
    assert got.series.name == want.series.name
    assert got.search == want.search
    assert _bits(got.search.roughness) == _bits(want.search.roughness)
    assert _bits(got.search.kurtosis) == _bits(want.search.kurtosis)
    for field in ("roughness", "kurtosis", "original_roughness", "original_kurtosis"):
        assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field
    assert got == want


def _refreshes(seed: int) -> list[list[np.ndarray]]:
    """Four dashboard refreshes of 8 series: each repeats half of the previous
    batch, brings 4 unseen series, and submits one series twice."""
    pool = _dashboard(seed, 20)
    batches = [pool[:8]]
    for step in range(1, 4):
        previous = batches[-1]
        unseen = pool[4 + 4 * step : 8 + 4 * step]
        batch = previous[::2] + unseen
        batch[-1] = batch[0]  # the same content twice in one batch
        batches.append(batch)
    return batches


class TestHitPathEquivalence:
    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("strategy", ["asap", "binary"])
    def test_refreshes_match_looped_smooth(self, strategy, workers):
        engine = BatchEngine(resolution=RESOLUTION, strategy=strategy, workers=workers)
        for number, batch in enumerate(_refreshes(seed=7101)):
            result = engine.smooth_many(batch)
            for got, series in zip(result, batch):
                assert_identical(got, smooth(series, resolution=RESOLUTION, strategy=strategy))
            stats = result.stats
            if strategy == "asap":
                assert stats.acf_cache_hits + stats.acf_cache_misses == len(batch)
                if number > 0:
                    # Four repeats from the last refresh plus the duplicate.
                    assert stats.acf_cache_hits >= 4 + (workers is None)
            else:
                assert stats.acf_cache_hits == stats.acf_cache_misses == 0

    def test_threads_sharing_states_lose_no_update(self):
        # Eight threads over six copies of each of four series: concurrent
        # searches fill one shared state, with the interpreter switching
        # threads as often as it can.  A lost counter update or a state
        # corrupted mid-search would break the assertions.
        distinct = _dashboard(7103, 4)
        batch = [distinct[index % 4] for index in range(24)]
        wants = [smooth(series, resolution=RESOLUTION) for series in distinct]
        engine = BatchEngine(resolution=RESOLUTION, workers=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                result = engine.smooth_many(batch)
                for index, got in enumerate(result):
                    assert_identical(got, wants[index % 4])
                assert result.stats.acf_cache_hits + result.stats.acf_cache_misses == 24
        finally:
            sys.setswitchinterval(interval)
        assert engine.acf_cache.hits + engine.acf_cache.misses == 72
        assert len(engine.acf_cache) == 4

    @pytest.mark.parametrize("strategy", ["asap", "binary", "exhaustive"])
    def test_hit_runs_no_analysis_or_moment_kernel(self, strategy, monkeypatch):
        batch = _dashboard(7102, 6)
        engine = BatchEngine(resolution=RESOLUTION, strategy=strategy)
        first = engine.smooth_many(batch)

        def forbidden(*args, **kwargs):
            raise AssertionError("a cached search recomputed its state")

        monkeypatch.setattr(cache_module, "analyze_acf", forbidden)
        for name in (
            "_moments_from_prefix",
            "sma_grid_moments",
            "evaluate_window",
            "evaluate_window_grid",
            "roughness",
            "kurtosis",
        ):
            monkeypatch.setattr(smoothing_module, name, forbidden)
        again = engine.smooth_many(batch)
        monkeypatch.undo()
        for got, was, series in zip(again, first, batch):
            assert_identical(got, was)
            assert_identical(got, smooth(series, resolution=RESOLUTION, strategy=strategy))


class TestKeyAndAliasing:
    def test_changing_max_window_misses(self):
        series = _dashboard(7201, 1)
        engine = BatchEngine(resolution=RESOLUTION, strategy="asap")
        for max_window in (None, 12, 25, None):
            engine.max_window = max_window
            result = engine.smooth_many(series)
            want = smooth(series[0], resolution=RESOLUTION, max_window=max_window)
            assert_identical(result[0], want)
        # None resolves to the same ceiling both times: three distinct keys.
        assert engine.acf_cache.misses == 3
        assert engine.acf_cache.hits == 1

    def test_changing_strategy_misses(self):
        series = _dashboard(7202, 2)
        engine = BatchEngine(resolution=RESOLUTION, strategy="binary")
        for strategy in ("binary", "asap", "binary", "asap"):
            engine.strategy = strategy
            for got, values in zip(engine.smooth_many(series), series):
                assert_identical(got, smooth(values, resolution=RESOLUTION, strategy=strategy))
        assert len(engine.acf_cache) == 4
        assert engine.acf_cache.misses == 2 and engine.acf_cache.hits == 2

    @pytest.mark.parametrize("use_preaggregation", [True, False])
    def test_in_place_mutation_misses(self, use_preaggregation):
        values = _dashboard(7204, 1, length=900)[0]
        config = dict(resolution=RESOLUTION, use_preaggregation=use_preaggregation)
        engine = BatchEngine(**config)
        engine.smooth_many([values])
        values[::7] += 3.0
        result = engine.smooth_many([values])
        assert result.stats.acf_cache_misses == 1
        assert_identical(result[0], smooth(values, **config))

    def test_state_does_not_alias_the_callers_array(self):
        values = np.random.default_rng(7205).normal(size=200)
        cache = ACFCache()
        (entry,) = cache.lookup([(values, 20)], "asap")
        snapshot = values.copy()
        values[:] = 0.0
        assert entry.cache.values.tobytes() == snapshot.tobytes()
        (again,) = cache.lookup([(snapshot, 20)], "asap")
        assert again is entry
        assert cache.hits == 1

    def test_entries_never_exceed_capacity(self):
        pool = _dashboard(7206, 9)
        engine = BatchEngine(resolution=RESOLUTION, acf_cache_size=3)
        for start in range(0, 7, 2):
            batch = pool[start : start + 3]
            for got, values in zip(engine.smooth_many(batch), batch):
                assert_identical(got, smooth(values, resolution=RESOLUTION))
            assert len(engine.acf_cache) <= 3


class TestDegenerateInputs:
    """ROADMAP degenerate inputs, first submission and repeat."""

    @pytest.mark.parametrize("strategy", ["asap", "binary"])
    @pytest.mark.parametrize(
        "name, values",
        [
            ("constant", np.full(3000, 4.25)),
            ("fewer points than pixels", np.sin(np.arange(50) / 3.0)),
            ("four points", np.array([1.0, 3.0, 2.0, 5.0])),
        ],
    )
    def test_first_and_repeat_match_smooth(self, strategy, name, values):
        engine = BatchEngine(resolution=800, strategy=strategy)
        want = smooth(values, resolution=800, strategy=strategy)
        for _ in range(2):
            assert_identical(engine.smooth_many([values])[0], want)
        if name == "constant":
            assert want.window == 1 and want.original_kurtosis == 0.0

    @pytest.mark.parametrize("strategy", ["asap", "binary"])
    @pytest.mark.parametrize(
        "bad",
        [np.ones(3), np.where(np.arange(3000) == 1234, np.nan, np.arange(3000.0))],
        ids=["too short", "NaN"],
    )
    def test_rejected_series_raise_the_same_labeled_error_on_repeat(self, strategy, bad):
        with pytest.raises(ValueError) as direct:
            smooth(bad, resolution=RESOLUTION, strategy=strategy)
        healthy = _dashboard(7301, 1)[0]
        engine = BatchEngine(resolution=RESOLUTION, strategy=strategy)
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError) as labeled:
                engine.smooth_many({"ok": healthy, "bad": bad})
            messages.append(str(labeled.value))
        assert messages[0] == messages[1]
        assert messages[0] == f"series 'bad' (batch index 1): {direct.value}"
        assert len(engine.acf_cache) == 1  # only the healthy series' state

    @pytest.mark.parametrize("strategy", ["asap", "binary", "grid2"])
    def test_normalizing_spec_matches_smooth(self, strategy):
        # The quality stage rewrites these inputs before the search: NaNs are
        # interpolated, and the gap in the timestamps is filled with points.
        values = _dashboard(7302, 1, length=3000)[0]
        with_nans = values.copy()
        with_nans[100:105] = np.nan
        keep = np.r_[0:1000, 1040:3000]
        gapped = TimeSeries(values[keep], timestamps=keep.astype(np.float64))
        spec = AsapSpec(resolution=RESOLUTION, strategy=strategy, normalize=True, cadence=1.0)
        engine = BatchEngine(spec=spec)
        for _ in range(2):
            for batch in ([with_nans, with_nans.copy()], [gapped, gapped]):
                for got, item in zip(engine.smooth_many(batch), batch):
                    assert_identical(got, smooth(item, spec=spec))
