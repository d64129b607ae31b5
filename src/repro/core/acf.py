"""Autocorrelation analysis (Section 4.3).

ASAP prunes its window search using the autocorrelation function (ACF) of the
input series: windows aligned with periods of high autocorrelation produce
smoother moving averages (Equation 5), so only ACF *peaks* need to be
examined as candidates.  Computing every lag naively is O(n^2); the paper
uses "two Fast Fourier Transforms" for O(n log n).  The search reads only
lags up to its window ceiling (n/10 by default), so :func:`autocorrelation`
computes those lags directly, in O(n * max_lag), while that product is small
(every display-width window) and through the FFT above it.

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

#: Largest ``n * (max_lag + 1)`` whose lags are computed directly, one
#: ``np.correlate`` per row; larger inputs take the FFT.  Measured on a 2-core
#: x86-64 VM (numpy 2.4), µs per 1-D call, direct against FFT: n=800 with 80
#: lags 9 against 65; n=4000 with 400 lags 344 against 349; n=5000 with 500
#: lags 624 against 1,209; n=6000 with 600 lags (3.6M) 750 against 675;
#: n=8000 with 800 lags 1,347 against 747.  Far off the default n/10 diagonal
#: the crossover moves (n=2000 with 1,000 lags: 209 against 109), but the
#: search asks for those lags only under an explicit ``max_window``.
_DIRECT_MAX_PRODUCTS = 3_000_000


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
    """ACF estimates for lags ``0..max_lag``.

    Uses the estimator the paper derives Equation 5 from:
    ``ACF(X, k) = sum_{i<=N-k} (x_i - mean)(x_{i+k} - mean) / sum (x_i - mean)^2``
    so ``acf[0] == 1``.  A zero-variance series has undefined ACF; we return
    zeros past lag 0, which makes every pruning rule degrade safely.

    With numpy's transforms (``backend="numpy"``) and ``n * (max_lag + 1)``
    at most :data:`_DIRECT_MAX_PRODUCTS`, each row's lags come from one
    ``np.correlate`` of the centered row against itself zero-padded by
    ``max_lag``, divided by the lag-0 sum.  Otherwise the lags come from two
    FFTs, O(n log n).

    *values* may also be an ``(m, n)`` batch of equal-length rows; the result
    is then ``(m, max_lag + 1)``, row ``i`` bit for bit the ACF of row ``i``
    alone.  A single series is the one-row case.  On the FFT path each chunk
    of rows (see :data:`_MAX_STACKED_CELLS`) shares one forward and one
    inverse transform call (numpy's transforms are exact row by row); each
    row's energy and spectral power keep their 1-D expressions (``np.dot``
    and ``S * conj(S)``), because the stacked power spectrum does not round
    like the 1-D one.
    """
    arr = _validated(values)
    rows = arr.reshape(-1, arr.shape[-1])
    m, n = rows.shape
    lag = default_max_lag(n) if max_lag is None else max_lag
    if not 0 <= lag < n:
        raise ValueError(f"max_lag must be in [0, {n}), got {lag}")
    out = np.empty((m, lag + 1))
    if backend == "numpy" and n * (lag + 1) <= _DIRECT_MAX_PRODUCTS:
        _direct_rows(rows, out)
    else:
        _fft_rows(rows, out, backend)
    return out if arr.ndim == 2 else out[0]


def _normalize_row(target: np.ndarray, lag_sums: np.ndarray, energy: float) -> None:
    """Divide a row's lag sums by its energy; a zero-energy row is ``[1, 0, ...]``."""
    if energy == 0.0:
        target[:] = 0.0
        target[0] = 1.0
    else:
        np.divide(lag_sums, energy, out=target)


def _direct_rows(rows: np.ndarray, out: np.ndarray) -> None:
    """Lags ``0..max_lag`` of every row by one ``np.correlate`` each.

    The centered row, followed by ``max_lag`` zeros, slides against the
    centered row itself, so lag ``k``'s sum runs over the ``n - k`` pairs
    ``c_i * c_{i+k}``; the lag-0 sum is the energy.  Rows share one padded
    buffer and the same operations, so each row equals its 1-D call.
    """
    n = rows.shape[1]
    padded = np.zeros(n + out.shape[1] - 1)
    for target, row in zip(out, rows):
        centered = np.subtract(row, row.sum() / n, out=padded[:n])
        lag_sums = np.correlate(padded, centered, mode="valid")
        _normalize_row(target, lag_sums, float(lag_sums[0]))


def _fft_rows(rows: np.ndarray, out: np.ndarray, backend: str) -> None:
    """Lags ``0..max_lag`` of every row from two FFTs, chunks of rows stacked."""
    m, n = rows.shape
    lag = out.shape[1] - 1
    padded_len = rfft_autocorrelation_lengths(n)
    chunk = max(1, _MAX_STACKED_CELLS // padded_len)
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
            _normalize_row(target, power[: lag + 1].real, float(np.dot(row, row)))


def autocorrelation_bruteforce(values, max_lag: int | None = None) -> np.ndarray:
    """O(n * max_lag) ACF, one dot product a lag — the oracle both paths are tested against."""
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
    for any non-degenerate series).  :func:`analyze_acf` assembles every
    analysis through it; callers holding a correlogram computed some other
    way share the same peak detection.
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
