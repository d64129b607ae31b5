"""Autocorrelation analysis (Section 4.3).

ASAP prunes its window search using the autocorrelation function (ACF) of the
input series: windows aligned with periods of high autocorrelation produce
smoother moving averages (Equation 5), so only ACF *peaks* need to be
examined as candidates.  Computing the ACF naively is O(n^2); the paper uses
"two Fast Fourier Transforms" for O(n log n), which is what
:func:`autocorrelation` does (via :mod:`repro.spectral.fft` by default, or
numpy's FFT for speed).

Peak detection follows the reference behaviour: scan the correlogram for
interior local maxima above a correlation threshold; if at most one peak
exists the series is treated as aperiodic and ASAP falls back to binary
search (Section 4.3.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..spectral.fft import fft as _fft
from ..spectral.fft import ifft as _ifft
from ..spectral.fft import rfft_autocorrelation_lengths

__all__ = [
    "autocorrelation",
    "autocorrelation_bruteforce",
    "find_acf_peaks",
    "ACFAnalysis",
    "analyze_acf",
    "analysis_from_correlations",
    "DEFAULT_CORRELATION_THRESHOLD",
]

#: Minimum peak correlation for a lag to count as a period (reference value).
DEFAULT_CORRELATION_THRESHOLD = 0.2


#: Spectrum cells (rows x padded length) one stacked transform may hold:
#: 2**12 complex cells, 64 KB a spectrum (two 800-point rows).  Larger
#: batches run in chunks of rows, so a batch's FFT temporaries (about 40
#: bytes a cell) stay bounded whatever its size.  Measured with tracemalloc
#: over a ``batch_dashboard`` refresh (12 unseen 800-point series), chunks of
#: two keep the call's peak below the rest of the batch's (568 KB over the
#: batch's base, 563 KB one series at a time), where chunks of four peak at
#: 888 KB; one stack of all rows saved under 2% of the batch time.
_MAX_STACKED_CELLS = 1 << 12


def _validated(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise ValueError(f"expected a 1-D series or a 2-D batch of rows, got shape {arr.shape}")
    if arr.shape[-1] < 2:
        raise ValueError(f"autocorrelation needs >= 2 points, got {arr.shape[-1]}")
    return arr


def default_max_lag(n: int) -> int:
    """The search's default maximum lag/window: one tenth of the series."""
    return max(n // 10, 2)


def _transform_rows(rows: np.ndarray, backend: str, inverse: bool) -> np.ndarray:
    """FFT (or inverse FFT) of every row: one numpy call over the batch."""
    if backend == "numpy":
        return np.fft.ifft(rows) if inverse else np.fft.fft(rows)
    transform = _ifft if inverse else _fft
    out = np.empty(rows.shape, dtype=np.complex128)
    for i, row in enumerate(rows):
        out[i] = transform(row, backend=backend)
    return out


def autocorrelation(values, max_lag: int | None = None, backend: str = "numpy") -> np.ndarray:
    """ACF estimates for lags ``0..max_lag`` via FFT, O(n log n).

    Uses the estimator the paper derives Equation 5 from:
    ``ACF(X, k) = sum_{i<=N-k} (x_i - mean)(x_{i+k} - mean) / sum (x_i - mean)^2``
    so ``acf[0] == 1``.  A zero-variance series has undefined ACF; we return
    zeros past lag 0, which makes every pruning rule degrade safely.

    *values* may also be an ``(m, n)`` batch of equal-length rows; the result
    is then ``(m, max_lag + 1)``, row ``i`` bit for bit the ACF of row ``i``
    alone.  A single series is the one-row case.  Each chunk of rows (see
    :data:`_MAX_STACKED_CELLS`) shares one forward and one inverse transform
    call (numpy's transforms are exact row by row); each row's energy and
    spectral power keep their 1-D expressions (``np.dot`` and
    ``S * conj(S)``), because the stacked power spectrum does not round like
    the 1-D one.
    """
    arr = _validated(values)
    rows = arr.reshape(-1, arr.shape[-1])
    m, n = rows.shape
    lag = default_max_lag(n) if max_lag is None else max_lag
    if not 0 <= lag < n:
        raise ValueError(f"max_lag must be in [0, {n}), got {lag}")
    padded_len = rfft_autocorrelation_lengths(n)
    chunk = max(1, _MAX_STACKED_CELLS // padded_len)
    out = np.empty((m, lag + 1))
    for start in range(0, m, chunk):
        block = rows[start : start + chunk]
        padded = np.zeros((block.shape[0], padded_len))
        # Row sums over n are each row's mean, bit for bit, at less dispatch.
        centered = np.subtract(block, block.sum(axis=1, keepdims=True) / n, out=padded[:, :n])
        spectra = _transform_rows(padded, backend, inverse=False)
        for i, spectrum in enumerate(spectra):
            spectra[i] = spectrum * np.conj(spectrum)
        correlation = _transform_rows(spectra, backend, inverse=True)
        for target, row, power in zip(out[start : start + chunk], centered, correlation):
            energy = float(np.dot(row, row))
            if energy == 0.0:
                target[:] = 0.0
                target[0] = 1.0
            else:
                np.divide(power[: lag + 1].real, energy, out=target)
    return out if arr.ndim == 2 else out[0]


def autocorrelation_bruteforce(values, max_lag: int | None = None) -> np.ndarray:
    """O(n * max_lag) direct ACF — the oracle the FFT path is tested against."""
    arr = _validated(values)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {arr.shape}")
    n = arr.size
    lag = default_max_lag(n) if max_lag is None else max_lag
    if not 0 <= lag < n:
        raise ValueError(f"max_lag must be in [0, {n}), got {lag}")
    centered = arr - arr.mean()
    energy = float(np.dot(centered, centered))
    out = np.zeros(lag + 1)
    if energy == 0.0:
        out[0] = 1.0
        return out
    for k in range(lag + 1):
        out[k] = float(np.dot(centered[: n - k], centered[k:])) / energy
    return out


def find_acf_peaks(
    correlations: np.ndarray,
    threshold: float = DEFAULT_CORRELATION_THRESHOLD,
) -> tuple[list[int], float]:
    """Interior local maxima of the correlogram above *threshold*.

    Returns ``(peak_lags, max_peak_correlation)``.  Lags 0 and 1 are never
    peaks (lag-0 is trivially 1.0; lag-1 has no left neighbour beyond it).
    When no peaks qualify, ``max_peak_correlation`` is 0.0.
    """
    acf = np.asarray(correlations, dtype=np.float64)
    if acf.size < 4:
        return [], 0.0
    interior = acf[2:-1]
    qualifying = (interior > acf[1:-2]) & (interior >= acf[3:]) & (interior > threshold)
    peaks = [int(lag) + 2 for lag in np.nonzero(qualifying)[0]]
    max_acf = float(interior[qualifying].max()) if peaks else 0.0
    return peaks, max_acf


@dataclass(frozen=True)
class ACFAnalysis:
    """Everything the ASAP search needs to know about a series' ACF."""

    correlations: np.ndarray
    peaks: tuple[int, ...]
    max_acf: float
    max_lag: int

    @property
    def is_periodic(self) -> bool:
        """True when at least one qualifying ACF peak exists.

        Aperiodic series skip Algorithm 1 and go straight to binary search.
        """
        return len(self.peaks) > 0

    def correlation_at(self, lag: int) -> float:
        """ACF value at *lag*, clamped to the computed range."""
        if lag < 0:
            raise ValueError(f"lag must be non-negative, got {lag}")
        if lag >= self.correlations.size:
            return 0.0
        return float(self.correlations[lag])


def analysis_from_correlations(
    correlations,
    threshold: float = DEFAULT_CORRELATION_THRESHOLD,
) -> ACFAnalysis:
    """Assemble an :class:`ACFAnalysis` from an already-computed correlogram.

    ``correlations[k]`` must be the ACF estimate at lag *k* (so lag 0 is 1.0
    for any non-degenerate series).  This is the entry point for callers that
    obtain the correlogram some way other than :func:`autocorrelation` — the
    streaming operator's incrementally maintained cross-product sums produce
    exactly such an array — while sharing the peak-detection behaviour with
    :func:`analyze_acf`.
    """
    arr = np.asarray(correlations, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"expected a non-empty 1-D correlogram, got shape {arr.shape}")
    peaks, max_acf = find_acf_peaks(arr, threshold)
    return ACFAnalysis(
        correlations=arr,
        peaks=tuple(peaks),
        max_acf=max_acf,
        max_lag=arr.size - 1,
    )


def analyze_acf(
    values,
    max_lag: int | None = None,
    threshold: float = DEFAULT_CORRELATION_THRESHOLD,
    backend: str = "numpy",
) -> ACFAnalysis | list[ACFAnalysis]:
    """Compute the correlogram and its peaks in one step.

    An ``(m, n)`` batch of equal-length rows returns one analysis per row,
    each equal to the row's own analysis, from one stacked
    :func:`autocorrelation` call.
    """
    arr = _validated(values)
    n = arr.shape[-1]
    lag = default_max_lag(n) if max_lag is None else max_lag
    lag = min(lag, n - 1)
    correlations = autocorrelation(arr, lag, backend=backend)
    if arr.ndim == 1:
        return analysis_from_correlations(correlations, threshold)
    # Copies, so a cached analysis never keeps the whole batch alive.
    return [analysis_from_correlations(row.copy(), threshold) for row in correlations]
