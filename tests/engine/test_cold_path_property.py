"""Properties of the batch engine's stacked cold path.

Four pins, each a batched computation against the one-series definition it
replaces:

* the fourth moment has one definition: :func:`repro.timeseries.stats.kurtosis`
  equals the window-1 candidate kernel, :func:`moment_summary` and every row
  of :func:`row_kurtosis`, bit for bit;
* every row of :func:`row_roughness` (the lockstep's roughness seed) equals
  :func:`roughness` of that row, bit for bit, constant rows and rows of one
  and two points included;
* a stacked :func:`autocorrelation` (one FFT pair over an ``(m, n)`` batch)
  equals the per-row calls, zero-energy rows included, and one
  :meth:`ACFCache.lookup` of a batch over mixed lengths equals the same
  requests looked up one at a time: the same analyses, hit/miss counts, LRU
  order and shared entries;
* ``smooth_many`` over batches mixing ACF-cache hits, misses and failing
  items equals looped ``smooth()``, and raises for the first failing index.

Runs in the ``ci`` and ``nightly`` fuzz legs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import smooth
from repro.core.acf import analyze_acf, autocorrelation
from repro.engine import BatchEngine
from repro.engine.cache import ACFCache
from repro.spectral.convolution import sma_window_moments
from repro.timeseries.stats import (
    kurtosis,
    moment_summary,
    roughness,
    row_kurtosis,
    row_roughness,
)

RESOLUTION = 100


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _series(kind: str, length: int, rng) -> np.ndarray:
    t = np.arange(length, dtype=np.float64)
    scale = float(rng.choice([1e-4, 1.0, 1e4]))
    offset = float(rng.choice([0.0, 1.0, -1e6]))
    if kind == "constant":
        return np.full(length, offset + scale)
    noise = rng.standard_t(3, size=length) * scale
    if kind == "aperiodic":
        return offset + noise
    period = float(rng.integers(3, max(length // 3, 4)))
    return offset + 10.0 * scale * np.sin(2 * np.pi * t / period) + noise


KINDS = st.sampled_from(["periodic", "periodic", "aperiodic", "constant"])


@st.composite
def rows(draw, min_length=1, max_length=400):
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    length = draw(st.integers(min_value=min_length, max_value=max_length))
    kinds = draw(st.lists(KINDS, min_size=1, max_size=6))
    return np.vstack([_series(kind, length, rng) for kind in kinds])


@given(batch=rows())
@settings(deadline=None)
def test_one_fourth_moment_definition(batch):
    stacked = row_kurtosis(batch)
    for row, from_rows in zip(batch, stacked):
        k = kurtosis(row)
        assert _bits(k) == _bits(sma_window_moments(row, 1)[1])
        assert _bits(k) == _bits(moment_summary(row).kurtosis)
        assert _bits(k) == _bits(from_rows)


@given(batch=rows())
@example(batch=np.array([[5.0], [-1e6]]))  # one point: perfectly smooth
@example(batch=np.array([[1.0, 3.0], [2.0, -7.5]]))  # two points: one difference
@example(batch=np.full((2, 257), 1e6 + 0.1))  # constant rows
@settings(deadline=None)
def test_row_roughness_equals_roughness(batch):
    for row, from_rows in zip(batch, row_roughness(batch)):
        assert _bits(roughness(row)) == _bits(from_rows)


# Lengths up to 2500 pad to 4096 points, so a few rows make a stacked
# spectrum of more than 256 KB, where numpy starts reusing temporaries.
@given(batch=rows(min_length=2, max_length=2500), lag_fraction=st.floats(0.0, 1.0))
@settings(deadline=None)
def test_stacked_autocorrelation_equals_per_row(batch, lag_fraction):
    n = batch.shape[1]
    lag = min(int(lag_fraction * n), n - 1)
    stacked = autocorrelation(batch, lag)
    assert stacked.shape == (batch.shape[0], lag + 1)
    analyses = analyze_acf(batch, max_lag=lag)
    for row, got, analysis in zip(batch, stacked, analyses):
        want = autocorrelation(row, lag)
        assert got.tobytes() == want.tobytes()
        alone = analyze_acf(row, max_lag=lag)
        assert analysis.correlations.tobytes() == alone.correlations.tobytes()
        assert analysis.peaks == alone.peaks
        assert _bits(analysis.max_acf) == _bits(alone.max_acf)
        assert analysis.max_lag == alone.max_lag


@st.composite
def lookups(draw):
    """Search-state requests over mixed lengths and ceilings, with repeats."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    specs = st.tuples(KINDS, st.sampled_from([8, 40, 41, 120]), st.sampled_from([2, 7, 30]))
    drawn = draw(st.lists(specs, min_size=1, max_size=6))
    pool = [(_series(kind, length, rng), max_window) for kind, length, max_window in drawn]
    picks = st.integers(min_value=0, max_value=len(pool) - 1)
    first = [pool[i] for i in draw(st.lists(picks, min_size=1, max_size=9))]
    second = [pool[i] for i in draw(st.lists(picks, max_size=9))]
    return first, second


@given(
    requests=lookups(),
    maxsize=st.integers(min_value=1, max_value=8),
    strategy=st.sampled_from(["asap", "binary"]),
)
@settings(deadline=None)
def test_batch_lookup_equals_one_by_one(requests, maxsize, strategy):
    batched, looped = ACFCache(maxsize=maxsize), ACFCache(maxsize=maxsize)
    for batch in requests:
        got = batched.lookup(batch, strategy)
        want = [looped.lookup([request], strategy)[0] for request in batch]
        assert (batched.hits, batched.misses) == (looped.hits, looped.misses)
        assert list(batched._entries) == list(looped._entries)
        for i, (entry, want_entry) in enumerate(zip(got, want)):
            acf, want_acf = entry.acf, want_entry.acf
            assert entry.cache.values.tobytes() == want_entry.cache.values.tobytes()
            assert [g is entry for g in got[:i]] == [w is want_entry for w in want[:i]]
            if want_acf is None:
                assert acf is None
                continue
            assert acf.correlations.tobytes() == want_acf.correlations.tobytes()
            assert acf.peaks == want_acf.peaks
            assert _bits(acf.max_acf) == _bits(want_acf.max_acf)
            assert acf.max_lag == want_acf.max_lag


FAILING = {
    "short": lambda rng: np.ones(3),
    "words": lambda rng: ["not", "numbers", "at", "all"],
    "nan": lambda rng: np.where(np.arange(300) == 17, np.nan, rng.normal(size=300)),
}


@st.composite
def dashboards(draw):
    """Two refreshes of a dashboard: the second repeats some of the first."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    item = st.tuples(KINDS, st.sampled_from([1000, 500, 250, 60]))
    first = [_series(kind, length, rng) for kind, length in draw(st.lists(item, max_size=6))]
    fresh = [_series(kind, length, rng) for kind, length in draw(st.lists(item, max_size=4))]
    if first:
        repeats = draw(st.lists(st.sampled_from(range(len(first))), max_size=4))
        fresh += [first[i] for i in repeats]
    order = draw(st.permutations(range(len(fresh))))
    second = [fresh[i] for i in order]
    failing = draw(st.lists(st.sampled_from(sorted(FAILING)), max_size=2))
    for name in failing:
        position = draw(st.integers(min_value=0, max_value=len(second)))
        second.insert(position, FAILING[name](rng))
    return first, second


@given(
    refreshes=dashboards(),
    strategy=st.sampled_from(["asap", "binary"]),
    cache_size=st.sampled_from([2, 256]),
)
@settings(deadline=None)
def test_smooth_many_equals_looped_smooth(refreshes, strategy, cache_size):
    engine = BatchEngine(resolution=RESOLUTION, strategy=strategy, acf_cache_size=cache_size)
    for batch in refreshes:
        looped, failure = [], None
        for index, values in enumerate(batch):
            try:
                looped.append(smooth(values, resolution=RESOLUTION, strategy=strategy))
            except ValueError as exc:
                failure = f"series '{index}' (batch index {index}): {exc}"
                break
        if failure is not None:
            with pytest.raises(ValueError) as raised:
                engine.smooth_many(batch)
            assert str(raised.value) == failure
            continue
        result = engine.smooth_many(batch)
        assert len(result) == len(looped)
        for got, want in zip(result, looped):
            assert got.window == want.window
            assert got.series.values.tobytes() == want.series.values.tobytes()
            assert repr(got.search) == repr(want.search)
            assert repr(got) == repr(want)
