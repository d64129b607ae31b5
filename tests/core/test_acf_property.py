"""Property tests: both ACF kernels agree with the per-lag oracle.

:func:`repro.core.acf.autocorrelation` computes a row's lags directly (one
``np.correlate``) while ``n * (max_lag + 1)`` is at most
``_DIRECT_MAX_PRODUCTS`` and through two FFTs above it.  Every property runs
with the bound as shipped and with it moved so each kernel serves every
input: each agrees with :func:`autocorrelation_bruteforce` within 1e-12, a
2-D batch's rows equal their own 1-D calls bit for bit, and a zero-variance
row is ``[1, 0, ...]``.  Runs in the ``ci`` and ``nightly`` fuzz legs.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.acf as acf
from repro.core.acf import autocorrelation, autocorrelation_bruteforce

#: Bounds that route every input below to the FFT, as shipped, or direct.
BOUNDS = {"fft": -1, "shipped": acf._DIRECT_MAX_PRODUCTS, "direct": 10**12}


@contextlib.contextmanager
def bound(kernel: str):
    with mock.patch.object(acf, "_DIRECT_MAX_PRODUCTS", BOUNDS[kernel]):
        yield


@st.composite
def series_and_lag(draw, max_n=400):
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    period = draw(st.floats(min_value=2.0, max_value=80.0))
    scale = 10.0 ** draw(st.integers(min_value=-3, max_value=3))
    offset = draw(st.sampled_from([0.0, -7.5, 1e3]))
    values = offset + scale * (np.sin(2 * np.pi * t / period) + 0.5 * rng.normal(size=n))
    lag = draw(st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1)))
    return values, lag


@pytest.mark.parametrize("kernel", sorted(BOUNDS))
@settings(max_examples=60, deadline=None)
@given(case=series_and_lag())
def test_agrees_with_the_per_lag_oracle(kernel, case):
    values, lag = case
    with bound(kernel):
        got = autocorrelation(values, lag)
    want = autocorrelation_bruteforce(values, lag)
    assert got.shape == (lag + 1,)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kernel", sorted(BOUNDS))
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=300),
    rows=st.integers(min_value=1, max_value=7),
    constant=st.lists(st.booleans(), min_size=7, max_size=7),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_rows_equal_their_own_calls_and_constant_rows_are_safe(
    kernel, n, rows, constant, seed, data
):
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(rows, n)).cumsum(axis=1)
    for i in range(rows):
        if constant[i]:
            # Exactly representable levels: the row's mean is exact, so its
            # centered values, and with them its energy, are exactly zero.
            batch[i] = float(rng.integers(-4, 5))
    lag = data.draw(st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1)))
    with bound(kernel):
        stacked = autocorrelation(batch, lag)
        singles = [autocorrelation(row, lag) for row in batch]
    assert stacked.shape == (rows, lag + 1)
    for i, single in enumerate(singles):
        assert stacked[i].tobytes() == single.tobytes()
        if constant[i]:
            assert stacked[i][0] == 1.0 and not stacked[i][1:].any()


@pytest.mark.parametrize(
    "n, lag, kernel",
    [
        # At the bound itself the lags are computed directly; one past it,
        # by FFT.  Both sides agree with the oracle.
        (3000, 999, "_direct_rows"),
        (3000, 1000, "_fft_rows"),
        (800, 80, "_direct_rows"),
        (20_000, 200, "_fft_rows"),
    ],
)
def test_the_shipped_bound_picks_the_kernel(n, lag, kernel, monkeypatch):
    values = np.random.default_rng(n + lag).normal(size=n).cumsum()
    called = []
    for name in ("_direct_rows", "_fft_rows"):
        original = getattr(acf, name)

        def spy(*args, _name=name, _original=original):
            called.append(_name)
            return _original(*args)

        monkeypatch.setattr(acf, name, spy)
    got = autocorrelation(values, lag)
    assert called == [kernel]
    np.testing.assert_allclose(
        got, autocorrelation_bruteforce(values, lag), rtol=0, atol=1e-12
    )


def test_other_fft_backends_keep_the_fft():
    values = np.random.default_rng(3).normal(size=256)
    native = autocorrelation(values, 20, backend="native")
    np.testing.assert_allclose(native, autocorrelation_bruteforce(values, 20), atol=1e-12)
    with bound("fft"):
        assert native.tobytes() == autocorrelation(values, 20, backend="native").tobytes()
