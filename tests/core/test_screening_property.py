"""Constraint-first candidate evaluation changes no decision and no count.

The adaptive searches screen every candidate at the original kurtosis: the
kernels measure kurtosis for every window and roughness only for windows
that meet it, leaving ``nan`` below.  These tests run each tier twice — as
shipped, and with the floor ignored (every kernel measures both moments, the
behaviour before screening) — and require the same results, counters and
cache accounting, plus the cache contract that public ``evaluate`` still
returns full moments.  Runs in the ``ci`` and ``nightly`` fuzz legs.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.smoothing as smoothing_module
import repro.core.streaming as streaming_module
import repro.engine.batch_engine as engine_module
from repro.core.search import SearchState, asap_search, run_strategy
from repro.core.smoothing import EvaluationCache
from repro.core.streaming import StreamingASAP
from repro.engine import BatchEngine
from repro.service import StreamHub
from repro.spec import AsapSpec

STRATEGIES = ["asap", "binary"]


@contextlib.contextmanager
def floor_ignored():
    """Every search kernel measures roughness for every window, as unscreened."""
    single = smoothing_module.sma_window_moments
    stacked = engine_module.sma_probe_moments

    def full_single(values, window, *, floor=None):
        return single(values, window)

    def full_stacked(values, windows, workspace=None, *, rows=None, floor=None):
        return stacked(values, windows, workspace, rows=rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smoothing_module, "sma_window_moments", full_single)
        patch.setattr(streaming_module, "sma_probe_moments", full_stacked)
        patch.setattr(engine_module, "sma_probe_moments", full_stacked)
        yield


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _series(kind: str, length: int, scale: float, rng) -> np.ndarray:
    t = np.arange(length, dtype=np.float64)
    noise = rng.normal(size=length) * scale
    if kind == "aperiodic":
        return noise
    if kind == "spiky":
        noise[rng.integers(0, length, size=3)] += 40.0 * scale
        return noise
    period = float(rng.integers(4, max(length // 5, 5)))
    return 10.0 * scale * np.sin(2 * np.pi * t / period) + noise


def _search(strategy, values, max_window):
    cache = EvaluationCache(values)
    result = run_strategy(strategy, values, max_window, cache=cache)
    return result, (cache.hits, cache.misses, cache.touched_windows())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["periodic", "aperiodic", "spiky"]),
    length=st.integers(min_value=8, max_value=600),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    strategy=st.sampled_from(STRATEGIES),
)
def test_screened_search_equals_unscreened(seed, kind, length, scale, strategy):
    values = _series(kind, length, scale, np.random.default_rng(seed))
    max_window = max(2, length // 4)
    shipped, shipped_cache = _search(strategy, values, max_window)
    with floor_ignored():
        full, full_cache = _search(strategy, values, max_window)
    assert shipped == full
    assert shipped.candidates_evaluated == full.candidates_evaluated
    assert _bits(shipped.roughness) == _bits(full.roughness)
    assert shipped_cache == full_cache  # hits, misses and the touched trace


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), strategy=st.sampled_from(STRATEGIES))
def test_screened_lockstep_batch_equals_unscreened(seed, strategy):
    rng = np.random.default_rng(seed)
    kinds = ["periodic", "aperiodic", "spiky", "periodic"]
    batch = [_series(kind, 1000, 1.0, rng) for kind in kinds]
    shipped = BatchEngine(resolution=100, strategy=strategy).smooth_many(batch)
    with floor_ignored():
        full = BatchEngine(resolution=100, strategy=strategy).smooth_many(batch)
    for got, want in zip(shipped, full):
        assert repr(got) == repr(want)
        assert got.search == want.search
        assert got.series.values.tobytes() == want.series.values.tobytes()


class TestCacheContract:
    def _searched_cache(self):
        rng = np.random.default_rng(1930)
        values = _series("periodic", 800, 1.0, rng)
        cache = EvaluationCache(values)
        asap_search(values, max_window=80, cache=cache)
        screened = [
            w for w in cache.touched_windows() if math.isnan(cache.lookup(w, math.inf).roughness)
        ]
        return values, cache, screened

    def test_a_search_leaves_screened_entries(self):
        _, cache, screened = self._searched_cache()
        assert screened, "the search screened no candidate out"
        for window in screened:
            assert cache.lookup(window, math.inf).kurtosis < cache.original_kurtosis

    def test_evaluate_completes_an_infeasible_window(self):
        values, cache, screened = self._searched_cache()
        for window in screened:
            full = EvaluationCache(values).evaluate(window)
            hits, misses = cache.hits, cache.misses
            completed = cache.evaluate(window)
            assert completed == full
            assert _bits(completed.roughness) == _bits(full.roughness)
            assert (cache.hits, cache.misses) == (hits, misses + 1)
            assert cache.evaluate(window) is completed  # now a plain hit

    def test_evaluate_many_completes_screened_entries(self):
        values, cache, screened = self._searched_cache()
        fresh = EvaluationCache(values).evaluate_many(screened)
        assert cache.evaluate_many(screened) == fresh

    def test_screen_defaults_to_the_original_kurtosis(self):
        values = _series("aperiodic", 300, 1.0, np.random.default_rng(1931))
        cache = EvaluationCache(values)
        for window in range(2, 30):
            evaluation = cache.screen(window)
            feasible = evaluation.kurtosis >= cache.original_kurtosis
            assert feasible != math.isnan(evaluation.roughness)

    def test_evaluate_rejects_a_non_integer_window(self):
        cache = EvaluationCache(np.random.default_rng(1932).normal(size=60))
        for window in (3.7, 3.0):
            with pytest.raises(ValueError, match="integer"):
                cache.evaluate(window)
        assert len(cache) == 0 and cache.touched_windows() == ()
        assert cache.evaluate(np.int64(3)) == cache.evaluate(3)


class TestLowThresholdState:
    """A caller's state may apply a lower threshold than its cache's."""

    @pytest.fixture
    def consider_spy(self, monkeypatch):
        seen = []
        consider = SearchState.consider

        def spy(state, evaluation):
            if evaluation.kurtosis >= state.original_kurtosis:
                seen.append(evaluation)
                assert not math.isnan(evaluation.roughness), evaluation
            return consider(state, evaluation)

        monkeypatch.setattr(SearchState, "consider", spy)
        return seen

    def _state(self, cache, offset):
        state = SearchState.from_cache(cache)
        state.original_kurtosis = cache.original_kurtosis + offset
        return state

    @pytest.mark.parametrize("prefilled", [False, True])
    def test_never_compares_a_nan(self, consider_spy, prefilled):
        values = _series("periodic", 800, 1.0, np.random.default_rng(1933))
        cache = EvaluationCache(values)
        if prefilled:
            # Entries screened at the cache's (higher) threshold must be
            # measured again, not handed to the lower-threshold search.
            asap_search(values, max_window=80, cache=cache)
        shipped = asap_search(values, max_window=80, state=self._state(cache, -0.4), cache=cache)
        with floor_ignored():
            full_cache = EvaluationCache(values)
            full = asap_search(
                values, max_window=80, state=self._state(full_cache, -0.4), cache=full_cache
            )
        assert consider_spy
        assert shipped == full
        assert _bits(shipped.roughness) == _bits(full.roughness)

    def test_series_state_on_a_shared_cache(self, consider_spy):
        # The caller's state holds the series' own kurtosis, below the
        # threshold the shared cache screened at.
        values = _series("spiky", 900, 1.0, np.random.default_rng(1934))
        cache = EvaluationCache(values)
        cache.seed_original(cache.original_roughness, cache.original_kurtosis + 0.25)
        state = SearchState.from_cache(EvaluationCache(values))
        shipped = asap_search(values, max_window=90, state=state, cache=cache)
        with floor_ignored():
            state = SearchState.from_cache(EvaluationCache(values))
            full = asap_search(values, max_window=90, state=state)
        assert shipped == full


def _stream(seed: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    values = np.sin(2 * np.pi * t / 700.0) + 0.4 * rng.normal(size=length)
    values[t.astype(np.int64) % 4000 == 1234] += 6.0  # a few spikes
    return t, values


def _frame_key(frame):
    return (
        frame.window,
        frame.refresh_index,
        frame.search,
        frame.series.values.tobytes(),
        frame.series.timestamps.tobytes(),
    )


def _run_operator(spec, t, values):
    operator = StreamingASAP(spec)
    frames = []
    for start in range(0, t.size, 100):
        frames.extend(operator.push_many(t[start : start + 100], values[start : start + 100]))
    counters = {
        name: getattr(operator, name)
        for name in ("warm_prefetches", "warm_fallbacks", "searches_run", "candidates_evaluated")
    }
    return [_frame_key(frame) for frame in frames], counters


def _run_hub(spec, t, values, streams=3):
    hub = StreamHub(default_config=spec)
    ids = [hub.create_stream(f"s{i}") for i in range(streams)]
    frames = {stream_id: [] for stream_id in ids}
    for start in range(0, t.size, 100):
        for offset, stream_id in enumerate(ids):
            chunk = values[start : start + 100] * (1.0 + offset)
            frames[stream_id].extend(hub.ingest(stream_id, t[start : start + 100], chunk))
        for stream_id, emitted in hub.tick().items():
            frames[stream_id].extend(emitted)
    stats = hub.stats
    searches = sum(len(emitted) for emitted in frames.values())
    candidates = sum(
        frame.search.candidates_evaluated for emitted in frames.values() for frame in emitted
    )
    keys = {stream_id: [_frame_key(frame) for frame in emitted] for stream_id, emitted in frames.items()}
    return keys, (stats.warm_prefetches, stats.warm_fallbacks, searches, candidates)


class TestCountersDoNotMove:
    """Screening happens inside the kernels: no extra call, no extra fallback."""

    SPEC = AsapSpec(pane_size=10, resolution=200, refresh_interval=10)

    def test_operator_frames_and_counters(self):
        t, values = _stream(1940, 30_000)
        shipped = _run_operator(self.SPEC, t, values)
        with floor_ignored():
            full = _run_operator(self.SPEC, t, values)
        assert shipped == full
        assert shipped[1]["warm_prefetches"] > 0 and shipped[1]["searches_run"] > 100

    def test_hub_frames_and_counters(self):
        t, values = _stream(1941, 20_000)
        shipped = _run_hub(self.SPEC, t, values)
        with floor_ignored():
            full = _run_hub(self.SPEC, t, values)
        assert shipped == full
        assert shipped[1][0] > 0
