"""Property test: stacked rolling-window sums equal the per-sum arithmetic.

:class:`RollingWindowState` takes its six power and difference sums with one
stacked reduction per batch update (``_moment_sums``).  The oracle below is
the same class with the batch updates spelled out one ``.sum()`` per
statistic.  Fed the same values under any chunking — single appends, chunks
larger than the capacity, ``rebuild()`` and conditioning reads interleaved —
both must hold bit-equal ``state_dict()`` contents after every step.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaming import RollingWindowState
from repro.spectral.convolution import cross_product_sums


class PerSumRollingState(RollingWindowState):
    """The batch updates with one reduction per sum (the oracle)."""

    def _extend_chunk(self, block: np.ndarray) -> None:
        r = block.size
        if r == 0:
            return
        if r == 1:
            self.append(float(block[0]))
            return
        if self._anchor is None:
            self._anchor = float(block[0])
        fresh = block - self._anchor
        n0 = len(self._ring)
        self._ring.append_many(fresh)
        n1 = n0 + r
        view = self._ring.view()
        k_max = min(self.lag_budget, n1 - 1)
        partner_start = max(n0 - k_max, 0)
        padded = np.zeros(k_max + r, dtype=np.float64)
        padded[k_max - (n0 - partner_start) :] = view[partner_start:n1]
        gains = np.correlate(padded, fresh, mode="valid")
        self._s[: k_max + 1] += gains[::-1]
        squared = fresh * fresh
        sum2 = float(squared.sum())
        sum4 = float((squared * squared).sum())
        self._t += float(fresh.sum())
        self._q += sum2
        self._c3 += float((squared * fresh).sum())
        self._c4 += sum4
        self._flow2 += sum2
        self._flow4 += sum4
        diffs = np.diff(view[max(n0 - 1, 0) : n1]) - self._danchor
        diff_sq = float((diffs * diffs).sum())
        self._dsum += float(diffs.sum())
        self._dsq += diff_sq
        self._flowd2 += diff_sq
        self.appended += r
        overflow = n1 - self.capacity
        if overflow > 0:
            self._evict_many(overflow)

    def _evict_many(self, count: int) -> None:
        n = len(self._ring)
        view = self._ring.view()
        evicted = view[:count]
        k_max = min(self.lag_budget, n - 1)
        padded = np.zeros(count + k_max, dtype=np.float64)
        span = min(count + k_max, n)
        padded[:span] = view[:span]
        losses = np.correlate(padded, evicted, mode="valid")
        self._s[: k_max + 1] -= losses
        squared = evicted * evicted
        self._t -= float(evicted.sum())
        self._q -= float(squared.sum())
        self._c3 -= float((squared * evicted).sum())
        self._c4 -= float((squared * squared).sum())
        diffs = np.diff(view[: count + 1]) - self._danchor
        self._dsum -= float(diffs.sum())
        self._dsq -= float((diffs * diffs).sum())
        self._ring.popleft(count)

    def rebuild(self) -> None:
        n = len(self._ring)
        if n == 0:
            self.clear()
            return
        self.rebuilds += 1
        window = self._ring.view().copy()
        shift = float(window.mean())
        window -= shift
        self._anchor = (self._anchor or 0.0) + shift
        self._ring.clear()
        self._ring.append_many(window)
        k_max = min(self.lag_budget, n - 1)
        self._s[:] = 0.0
        self._s[: k_max + 1] = cross_product_sums(window, k_max)
        squared = window * window
        self._t = float(window.sum())
        self._q = float(squared.sum())
        self._c3 = float((squared * window).sum())
        self._c4 = float((squared * squared).sum())
        diffs = np.diff(window)
        self._danchor = float(diffs.mean()) if diffs.size else 0.0
        shifted = diffs - self._danchor
        self._dsum = float(shifted.sum())
        self._dsq = float((shifted * shifted).sum())
        self._flow2 = self._q
        self._flow4 = self._c4
        self._flowd2 = self._dsq


def state_bytes(rolling: RollingWindowState) -> dict:
    """``state_dict()`` with every float as its exact bytes (-0.0 != 0.0)."""
    out = {}
    for key, value in rolling.state_dict().items():
        if isinstance(value, (float, np.ndarray)):
            value = np.asarray(value, dtype=np.float64).tobytes()
        out[key] = value
    return out


@st.composite
def rolling_cases(draw):
    capacity = draw(st.integers(1, 48))
    lag_budget = draw(st.integers(0, capacity + 2))
    seed = draw(st.integers(0, 2**32 - 1))
    # Scale and offset vary the conditioning, so reads trigger rebuilds.
    scale = 10.0 ** draw(st.integers(-3, 4))
    offset = draw(st.sampled_from([0.0, 1.0, -250.0, 1e5]))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("append"), st.just(1)),
                st.tuples(st.just("extend"), st.integers(0, 3 * capacity + 5)),
                st.tuples(st.just("rebuild"), st.just(0)),
                st.tuples(st.just("read"), st.just(0)),
            ),
            min_size=1,
            max_size=25,
        )
    )
    return capacity, lag_budget, seed, scale, offset, ops


@settings(max_examples=150, deadline=None)
@given(rolling_cases())
def test_stacked_sums_bit_equal_per_sum_oracle(case):
    capacity, lag_budget, seed, scale, offset, ops = case
    rng = np.random.default_rng(seed)
    stacked = RollingWindowState(capacity, lag_budget)
    oracle = PerSumRollingState(capacity, lag_budget)
    for op, size in ops:
        if op == "append":
            value = offset + scale * float(rng.normal())
            stacked.append(value)
            oracle.append(value)
        elif op == "extend":
            values = offset + scale * np.cumsum(rng.normal(size=size))
            stacked.extend(values)
            oracle.extend(values)
        elif op == "rebuild":
            stacked.rebuild()
            oracle.rebuild()
        elif len(stacked) >= 2:
            # The operator's per-refresh reads, each of which may rebuild.
            assert stacked.offset_ratio() == oracle.offset_ratio()
            assert stacked.roughness() == oracle.roughness()
            assert stacked.kurtosis() == oracle.kurtosis()
            lag = min(lag_budget, len(stacked) - 1)
            assert (
                stacked.correlations(lag).tobytes() == oracle.correlations(lag).tobytes()
            )
        assert state_bytes(stacked) == state_bytes(oracle)


def test_one_chunk_larger_than_capacity_bit_equal():
    # A whole backfill-sized batch: chunked by capacity, every chunk evicts.
    rng = np.random.default_rng(2024)
    values = 3.0 + np.cumsum(rng.normal(size=5_000))
    stacked = RollingWindowState(800, 40)
    oracle = PerSumRollingState(800, 40)
    stacked.extend(values)
    oracle.extend(values)
    assert state_bytes(stacked) == state_bytes(oracle)
    stacked.rebuild()
    oracle.rebuild()
    assert state_bytes(stacked) == state_bytes(oracle)
