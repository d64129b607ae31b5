"""The search-state cache memoizes each search's result.

``smooth_many`` searches every series once: the lockstep's answer (or a
singleton's one search) is kept with the series' state, so a resubmitted
series runs no search step, no strategy and no moment kernel at all.  These
tests pin that directly, that every part of the key still misses when it
changes, that an evicted entry rebuilds the same result, and that the
public state lookups and the batch accounting keep their shape.  Every test
seeds its own generator.

The property at the end drives one persistent engine over a sequence of
batches (repeated, unseen, duplicated, ragged, too short, NaN past the last
full bucket, named series with timestamps) for every strategy, serially and
on two threads, against looped :func:`repro.core.batch.smooth`.  Runs in
the ``ci`` and ``nightly`` fuzz legs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.batch as batch_module
import repro.core.search as search_module
import repro.core.smoothing as smoothing_module
import repro.engine.batch_engine as engine_module
import repro.engine.cache as cache_module
from repro import TimeSeries, smooth
from repro.engine import ACFCache, BatchEngine
from repro.engine.cache import SearchEntry

RESOLUTION = 300


def assert_identical(got, want) -> None:
    """Two SmoothingResults, every field byte for byte (as ``test_lockstep``)."""
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


def _ragged(seed: int, n_series: int) -> list[np.ndarray]:
    """Periodic series whose searched lengths differ (300, 301, ...), so each
    is searched alone (a singleton of its length in the lockstep)."""
    rng = np.random.default_rng(seed)
    batch = []
    for index in range(n_series):
        length = 2400 + 10 * index
        t = np.arange(length, dtype=np.float64)
        period = float(rng.integers(15, 200))
        batch.append(np.sin(2 * np.pi * t / period) + 0.3 * rng.normal(size=length))
    return batch


def _equal(seed: int, n_series: int) -> list[np.ndarray]:
    """Equal-length series: one lockstep group."""
    return [values[:2400] for values in _ragged(seed, n_series)]


def _forbid_search(monkeypatch) -> None:
    def forbidden(*args, **kwargs):
        raise AssertionError("a memoized series was searched again")

    for module, name in (
        (engine_module, "search_steps"),
        (engine_module, "run_strategy"),
        (engine_module, "_moments_from_prefix"),
        (engine_module, "sma_grid_moments"),
        (engine_module, "row_kurtosis"),
        (search_module, "search_steps"),
        (search_module, "run_strategy"),
        (batch_module, "run_strategy"),
        (cache_module, "analyze_acf"),
        (smoothing_module, "_moments_from_prefix"),
        (smoothing_module, "sma_grid_moments"),
        (smoothing_module, "evaluate_window"),
        (smoothing_module, "evaluate_window_grid"),
        (smoothing_module, "roughness"),
        (smoothing_module, "kurtosis"),
    ):
        monkeypatch.setattr(module, name, forbidden)


def _count_searches(monkeypatch) -> list[str]:
    """Record every strategy run and step generator the engine starts."""
    calls = []
    run_strategy, search_steps = engine_module.run_strategy, engine_module.search_steps

    def counting_run(name, *args, **kwargs):
        calls.append(name)
        return run_strategy(name, *args, **kwargs)

    def counting_steps(strategy, *args, **kwargs):
        calls.append(strategy)
        return search_steps(strategy, *args, **kwargs)

    monkeypatch.setattr(engine_module, "run_strategy", counting_run)
    monkeypatch.setattr(engine_module, "search_steps", counting_steps)
    return calls


class TestResubmitRunsNoSearch:
    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize(
        "strategy, shape",
        [
            ("asap", "equal"),
            ("asap", "ragged"),
            ("binary", "equal"),
            ("binary", "ragged"),
            ("exhaustive", "equal"),
            ("exhaustive", "ragged"),
            ("grid2", "equal"),
            ("grid2", "ragged"),
            ("grid10", "equal"),
        ],
    )
    def test_resubmit_is_identical_with_search_forbidden(
        self, strategy, shape, workers, monkeypatch
    ):
        batch = (_equal if shape == "equal" else _ragged)(2601, 5)
        batch.append(batch[1])  # the same content twice
        engine = BatchEngine(resolution=RESOLUTION, strategy=strategy, workers=workers)
        first = engine.smooth_many(batch)
        _forbid_search(monkeypatch)
        again = engine.smooth_many(batch)
        monkeypatch.undo()
        for got, was, values in zip(again, first, batch):
            assert_identical(got, was)
            assert_identical(got, smooth(values, resolution=RESOLUTION, strategy=strategy))

    def test_named_series_share_the_memo_of_their_content(self, monkeypatch):
        values = _ragged(2602, 3)
        engine = BatchEngine(resolution=RESOLUTION)
        engine.smooth_many(values)
        named = [
            TimeSeries(v, np.arange(v.size) * 2.5 + 100.0, name=f"m{i}")
            for i, v in enumerate(values)
        ]
        _forbid_search(monkeypatch)
        result = engine.smooth_many(named)
        monkeypatch.undo()
        assert result.labels == ("m0", "m1", "m2")
        for got, series in zip(result, named):
            assert_identical(got, smooth(series, resolution=RESOLUTION))


class TestKeyMisses:
    def test_changing_max_window_searches_again(self, monkeypatch):
        batch = _equal(2603, 3)
        engine = BatchEngine(resolution=RESOLUTION)
        engine.smooth_many(batch)
        calls = _count_searches(monkeypatch)
        for max_window in (12, 25, 12):
            engine.max_window = max_window
            for got, values in zip(engine.smooth_many(batch), batch):
                assert_identical(got, smooth(values, resolution=RESOLUTION, max_window=max_window))
        # One lockstep of three generators per new ceiling; 12 again is memoized.
        assert calls == ["asap"] * 6

    def test_changing_strategy_searches_again(self, monkeypatch):
        batch = _ragged(2604, 3)
        engine = BatchEngine(resolution=RESOLUTION, strategy="asap")
        engine.smooth_many(batch)
        calls = _count_searches(monkeypatch)
        for strategy in ("binary", "grid2", "asap", "binary"):
            engine.strategy = strategy
            for got, values in zip(engine.smooth_many(batch), batch):
                assert_identical(got, smooth(values, resolution=RESOLUTION, strategy=strategy))
        # Ragged lengths are singletons: one run_strategy each, first time only.
        assert calls == ["binary"] * 3 + ["grid2"] * 3

    def test_an_evicted_entry_rebuilds_the_same_result(self, monkeypatch):
        batch = _ragged(2605, 3)
        engine = BatchEngine(resolution=RESOLUTION, acf_cache_size=2)
        first = engine.smooth_many(batch)  # the first series' entry is evicted
        assert len(engine.acf_cache) == 2
        calls = _count_searches(monkeypatch)
        again = engine.smooth_many(batch[1:])
        assert calls == []
        rebuilt = engine.smooth_many(batch[:1])
        assert calls == ["asap"]
        monkeypatch.undo()
        for got, was in zip([*rebuilt, *again], first):
            assert_identical(got, was)


class TestShapeAndAccounting:
    def test_lookup_returns_one_entry_per_request(self):
        values = np.random.default_rng(2606).normal(size=200)
        cache = ACFCache()
        (entry,) = cache.lookup([(values, 20)], "asap")
        entries = cache.lookup([(values, 20), (values, 20)], "asap")
        assert isinstance(entry, SearchEntry) and entry.result is None
        assert entries[0] is entry and entries[1] is entry
        assert (cache.hits, cache.misses) == (2, 1)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_batch_stats_count_lookups_not_searches(self, workers):
        pool = _equal(2607, 6)
        engine = BatchEngine(resolution=RESOLUTION, workers=workers)
        counts = []
        for batch in (pool[:4], pool[2:6], pool[2:6] + pool[:1]):
            stats = engine.smooth_many(batch).stats
            counts.append((stats.acf_cache_hits, stats.acf_cache_misses))
        assert counts == [(0, 4), (2, 2), (5, 0)]
        assert (engine.acf_cache.hits, engine.acf_cache.misses) == (7, 6)

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("strategy", ["asap", "binary", "exhaustive"])
    def test_memoized_entries_keep_no_prefix_sums(self, strategy, workers):
        # Ragged lengths give singletons, searched through their caches'
        # misses, which share one prepared prefix while the search runs.
        batch = _ragged(2608, 5) + _equal(2609, 3)
        engine = BatchEngine(resolution=RESOLUTION, strategy=strategy, workers=workers)
        for _ in range(2):
            engine.smooth_many(batch)
            entries = list(engine.acf_cache._entries.values())
            assert entries and all(entry.result is not None for entry in entries)
            assert all(entry.cache._prefix is None for entry in entries)


# -- property: one persistent engine over a sequence of batches ---------------

PROPERTY_RESOLUTION = 100
#: Raw lengths and the searched lengths they give at PROPERTY_RESOLUTION:
#: 1000 -> 100, 500 -> 100, 250 -> 125, 150 -> 150, 60 -> 60; 1005 -> 100
#: drops its last 5 points, where the "tail NaN" members hide their NaN.
PROPERTY_LENGTHS = (1000, 500, 250, 150, 60, 1005)


def _pool_series(kind: str, length: int, rng) -> np.ndarray:
    t = np.arange(length, dtype=np.float64)
    if kind == "constant":
        return np.full(length, float(rng.normal()))
    noise = rng.normal(size=length) * float(rng.choice([1e-3, 1.0, 1e3]))
    if kind == "aperiodic":
        return noise
    period = float(rng.integers(4, max(length // 4, 5)))
    return 10.0 * np.sin(2 * np.pi * t / period) + noise


def _build_pool() -> list[np.ndarray]:
    rng = np.random.default_rng(2611)
    kinds = ("periodic", "periodic", "aperiodic", "constant")
    return [
        _pool_series(kinds[index % len(kinds)], PROPERTY_LENGTHS[index % len(PROPERTY_LENGTHS)], rng)
        for index in range(18)
    ]


POOL = _build_pool()


def _member(kind: str, index: int, number: int):
    """One batch member.  ``seen`` members are pool series as they are, so
    they repeat across batches; ``unseen`` ones are offset by the batch
    number and their position, so their content is new."""
    values = POOL[index]
    if kind == "seen":
        return values
    if kind == "unseen":
        return values + float(number) + 0.25 * index
    if kind == "short":
        return values[:3]
    if kind == "tail NaN":
        raw = POOL[5].copy()  # 1005 points: the last full bucket ends at 1000
        raw[-1 - index % 5] = np.nan
        return raw
    return TimeSeries(values, np.arange(values.size) * 2.5 + 100.0, name=f"ts{index % 3}")


def _label(item, index: int) -> str:
    return item.name if isinstance(item, TimeSeries) and item.name else str(index)


MEMBER = st.tuples(
    st.sampled_from(["seen"] * 3 + ["unseen"] * 3 + ["named"] * 2 + ["short", "tail NaN"]),
    st.integers(min_value=0, max_value=len(POOL) - 1),
)


@given(
    drawn=st.lists(st.lists(MEMBER, min_size=1, max_size=7), min_size=1, max_size=4),
    strategy=st.sampled_from(["asap", "binary", "exhaustive", "grid2"]),
    workers=st.sampled_from([None, 2]),
    duplicate=st.booleans(),
)
@settings(deadline=None)
def test_persistent_engine_equals_looped_smooth(drawn, strategy, workers, duplicate):
    engine = BatchEngine(resolution=PROPERTY_RESOLUTION, strategy=strategy, workers=workers)
    for number, members in enumerate(drawn):
        batch = [_member(kind, index, number) for kind, index in members]
        if duplicate:
            batch.append(batch[0])  # the same item twice in one batch
        looped, failure = [], None
        for index, item in enumerate(batch):
            try:
                looped.append(smooth(item, resolution=PROPERTY_RESOLUTION, strategy=strategy))
            except ValueError as exc:
                failure = f"series {_label(item, index)!r} (batch index {index}): {exc}"
                break
        if failure is not None:
            with pytest.raises(ValueError) as raised:
                engine.smooth_many(batch)
            assert str(raised.value) == failure
            continue
        result = engine.smooth_many(batch)
        assert len(result) == len(looped)
        for got, want in zip(result, looped):
            assert_identical(got, want)
