"""Warm-started window search: bit-identity to cold search, plus accounting.

The tentpole guarantee: ``warm_start=True`` changes how many kernel dispatches
a refresh costs, never what it computes.  Every frame — window choice and
smoothed values — must be **bit-identical** to a ``warm_start=False`` run over
the same arrivals, for every strategy, chunking, and drift pattern, including
adversarial regime changes engineered to force the search off the prefetched
trace (the counted fallback path).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import ADAPTIVE_STRATEGIES, plan_warm_probes
from repro.core.streaming import StreamingASAP
from repro.spec import AsapSpec


def run_pair(values, chunks, warm_kwargs=None, cold_kwargs=None, **kwargs):
    """Stream *values* through warm and cold operators, identically chunked."""
    timestamps = np.arange(values.size, dtype=np.float64)
    ops = {}
    frames = {}
    for label, flag, extra in (
        ("warm", True, warm_kwargs or {}),
        ("cold", False, cold_kwargs or {}),
    ):
        op = StreamingASAP(AsapSpec(warm_start=flag, **{**kwargs, **extra}))
        out = []
        start = 0
        for size in chunks:
            stop = start + size
            out.extend(op.push_many(timestamps[start:stop], values[start:stop]))
            start = stop
        out.extend(op.flush())
        ops[label], frames[label] = op, out
    return ops, frames


def assert_frames_bit_identical(frames_a, frames_b):
    assert len(frames_a) == len(frames_b)
    for a, b in zip(frames_a, frames_b):
        assert a.window == b.window
        assert a.refresh_index == b.refresh_index
        assert np.array_equal(a.series.values, b.series.values)
        assert np.array_equal(a.series.timestamps, b.series.timestamps)


def chunkings(total, seed):
    """Deterministic irregular chunk sizes summing to *total*."""
    chunk_rng = np.random.default_rng(seed)
    sizes = []
    remaining = total
    while remaining > 0:
        size = int(chunk_rng.integers(1, 97))
        sizes.append(min(size, remaining))
        remaining -= sizes[-1]
    return sizes


class TestBitIdentity:
    @pytest.mark.parametrize("strategy", ["asap", "binary", "grid10", "exhaustive"])
    def test_all_strategies_bit_identical(self, rng, strategy):
        t = np.arange(3000, dtype=np.float64)
        values = np.sin(2 * np.pi * t / 60) + 0.3 * rng.normal(size=3000)
        ops, frames = run_pair(
            values,
            chunkings(3000, seed=1),
            pane_size=1,
            resolution=400,
            refresh_interval=8,
            strategy=strategy,
            max_window=80,
        )
        assert len(frames["warm"]) > 10
        assert_frames_bit_identical(frames["warm"], frames["cold"])
        if strategy in ADAPTIVE_STRATEGIES:
            assert ops["warm"].warm_prefetches > 0
        else:
            # Grid strategies already batch their whole candidate grid.
            assert ops["warm"].warm_prefetches == 0
        assert ops["cold"].warm_prefetches == 0

    def test_regime_change_forces_fallback_but_not_divergence(self, rng):
        # Adversarial drift: the period quadruples mid-stream, so the ACF
        # peaks (and with them the search's candidate trace) jump.  The warm
        # search must fall back — counted — and still emit identical frames.
        t = np.arange(4000, dtype=np.float64)
        values = np.where(
            t < 2000,
            np.sin(2 * np.pi * t / 20),
            np.sin(2 * np.pi * t / 80),
        ) + 0.1 * rng.normal(size=4000)
        ops, frames = run_pair(
            values,
            chunkings(4000, seed=2),
            pane_size=1,
            resolution=500,
            refresh_interval=10,
            strategy="asap",
            max_window=120,
        )
        assert_frames_bit_identical(frames["warm"], frames["cold"])
        assert ops["warm"].warm_prefetches > 0
        assert ops["warm"].warm_fallbacks > 0
        assert ops["warm"].warm_fallbacks <= ops["warm"].warm_prefetches

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        strategy=st.sampled_from(ADAPTIVE_STRATEGIES),
        pane_size=st.integers(1, 3),
        refresh_interval=st.integers(1, 12),
        drift=st.sampled_from(["stable", "jump", "ramp", "noise-burst"]),
    )
    def test_property_warm_equals_cold(self, seed, strategy, pane_size, refresh_interval, drift):
        data_rng = np.random.default_rng(seed)
        n = 1500
        t = np.arange(n, dtype=np.float64)
        period = float(data_rng.integers(12, 90))
        base = np.sin(2 * np.pi * t / period)
        if drift == "jump":
            base = np.where(t < n // 2, base, np.sin(2 * np.pi * t / (period * 3)))
        elif drift == "ramp":
            base = base + t / n * 5.0
        elif drift == "noise-burst":
            burst = np.zeros(n)
            burst[n // 3 : n // 2] = data_rng.normal(size=n // 2 - n // 3) * 4.0
            base = base + burst
        values = base + 0.25 * data_rng.normal(size=n)
        ops, frames = run_pair(
            values,
            chunkings(n, seed=seed ^ 0xA5A5),
            pane_size=pane_size,
            resolution=250,
            refresh_interval=refresh_interval,
            strategy=strategy,
            max_window=60,
        )
        assert_frames_bit_identical(frames["warm"], frames["cold"])
        # Windows equal is implied by bit-identical frames; assert explicitly
        # for a readable failure if the series assertion ever loosens.
        assert [f.window for f in frames["warm"]] == [f.window for f in frames["cold"]]


class TestAccountingAndState:
    def test_counters_round_trip_through_state(self, rng):
        t = np.arange(1500, dtype=np.float64)
        values = np.sin(2 * np.pi * t / 50) + 0.2 * rng.normal(size=1500)
        op = StreamingASAP(AsapSpec(pane_size=1, resolution=300, refresh_interval=10))
        op.push_many(t, values)
        assert op.warm_prefetches > 0
        restored = StreamingASAP.from_state(op.state_dict())
        assert restored.warm_start == op.warm_start
        assert restored.warm_prefetches == op.warm_prefetches
        assert restored.warm_fallbacks == op.warm_fallbacks
        assert restored._warm_trace == op._warm_trace

    def test_restored_operator_continues_bit_identically(self, rng):
        t = np.arange(2400, dtype=np.float64)
        values = np.sin(2 * np.pi * t / 55) + 0.2 * rng.normal(size=2400)
        live = StreamingASAP(AsapSpec(pane_size=1, resolution=300, refresh_interval=10))
        live.push_many(t[:1200], values[:1200])
        restored = StreamingASAP.from_state(live.state_dict())
        frames_live = live.push_many(t[1200:], values[1200:])
        frames_restored = restored.push_many(t[1200:], values[1200:])
        assert_frames_bit_identical(frames_live, frames_restored)
        assert live.warm_prefetches == restored.warm_prefetches

    def test_reset_clears_trace(self, rng):
        t = np.arange(600, dtype=np.float64)
        values = np.sin(2 * np.pi * t / 30) + 0.1 * rng.normal(size=600)
        op = StreamingASAP(AsapSpec(pane_size=1, resolution=200, refresh_interval=10))
        op.push_many(t, values)
        assert op._warm_trace is not None
        op.reset()
        assert op._warm_trace is None

    def test_from_spec_carries_warm_start(self):
        from repro.spec import AsapSpec

        spec = AsapSpec(pane_size=2, warm_start=False)
        op = StreamingASAP.from_spec(spec)
        assert op.warm_start is False
        spec_on = AsapSpec(pane_size=2)
        assert StreamingASAP.from_spec(spec_on).warm_start is True


class TestSharedProbeScratch:
    """Every operator on a thread prefetches into one shared scratch buffer."""

    SPECS = (
        dict(pane_size=1, resolution=300, refresh_interval=10),
        dict(pane_size=2, resolution=200, refresh_interval=7, max_window=60),
        dict(pane_size=1, resolution=500, refresh_interval=13, strategy="binary"),
        dict(pane_size=3, resolution=120, refresh_interval=5, max_window=9),
    )

    @staticmethod
    def streams(count, length):
        rng = np.random.default_rng(20172220)
        t = np.arange(length, dtype=np.float64)
        waves = [
            np.sin(2 * np.pi * t / rng.uniform(20, 90)) + 0.3 * rng.normal(size=length)
            for _ in range(count)
        ]
        return t, waves

    def test_interleaved_operators_match_each_run_alone(self):
        import threading

        t, values = self.streams(len(self.SPECS), 3000)
        chunk = 97

        def run_alone(kwargs, x, out):
            op = StreamingASAP(AsapSpec(**kwargs))
            for start in range(0, t.size, chunk):
                out.extend(op.push_many(t[start : start + chunk], x[start : start + chunk]))
            out.append(op.warm_prefetches)

        alone = []
        for kwargs, x in zip(self.SPECS, values):
            out = []
            # A fresh thread starts from a fresh scratch buffer.
            worker = threading.Thread(target=run_alone, args=(kwargs, x, out))
            worker.start()
            worker.join()
            alone.append(out)

        ops = [StreamingASAP(AsapSpec(**kwargs)) for kwargs in self.SPECS]
        interleaved = [[] for _ in ops]
        for start in range(0, t.size, chunk):
            for op, x, out in zip(ops, values, interleaved):
                out.extend(op.push_many(t[start : start + chunk], x[start : start + chunk]))
        for op, out in zip(ops, interleaved):
            out.append(op.warm_prefetches)

        for lone, shared in zip(alone, interleaved):
            assert lone[-1] == shared[-1] > 0
            assert_frames_bit_identical(lone[:-1], shared[:-1])
            assert [repr(f.search) for f in lone[:-1]] == [repr(f.search) for f in shared[:-1]]


class TestPlanWarmProbes:
    def test_merges_trace_and_neighborhood(self):
        probes = plan_warm_probes((5, 9, 30), 9, limit=40)
        assert probes == [5, 8, 9, 10, 30]

    def test_clips_to_valid_range(self):
        probes = plan_warm_probes((1, 2, 50), 2, limit=40)
        assert probes == [2, 3]
        assert plan_warm_probes(None, None, limit=40) == []

    def test_none_trace_with_previous(self):
        assert plan_warm_probes(None, 10, limit=40) == [9, 10, 11]
