"""Summary statistics for time series, implemented from first principles.

These are the statistical primitives the ASAP paper builds on (Section 3):
population moments, the first-difference series, z-score normalization, and
kurtosis as the *non-excess* fourth standardized moment (a normal distribution
scores 3.0).

All functions accept any one-dimensional array-like of floats and operate on
``numpy`` arrays internally.  Population (``ddof=0``) conventions are used
throughout because the paper treats a series window as a complete population
rather than a sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "mean",
    "variance",
    "std",
    "kurtosis",
    "row_kurtosis",
    "zscore",
    "first_differences",
    "roughness",
    "row_roughness",
    "MomentSummary",
    "moment_summary",
]

_MIN_POINTS_FOR_DIFF = 2


def _as_float_array(values) -> np.ndarray:
    """Coerce *values* to a 1-D float64 array, validating dimensionality."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {arr.shape}")
    return arr


def mean(values) -> float:
    """Arithmetic mean of the series."""
    arr = _as_float_array(values)
    if arr.size == 0:
        raise ValueError("mean of an empty series is undefined")
    return float(arr.mean())


def variance(values) -> float:
    """Population variance (second central moment)."""
    arr = _as_float_array(values)
    if arr.size == 0:
        raise ValueError("variance of an empty series is undefined")
    centered = arr - arr.mean()
    return float(np.mean(centered * centered))


def std(values) -> float:
    """Population standard deviation."""
    return float(np.sqrt(variance(values)))


def _second_and_fourth(centered: np.ndarray):
    """Second and fourth central moments along the last axis of *centered*.

    The one definition of the fourth moment: the squares squared
    (``sq = c*c; mean(sq*sq)``), with the same operations the candidate
    kernels (:func:`repro.spectral.convolution.sma_window_moments`) run —
    sums divided by the count, which is what ``np.mean`` computes, at less
    dispatch — and about 30x cheaper than ``c ** 4``, which calls ``pow``
    per element.
    """
    count = centered.shape[-1]
    squared = centered * centered
    return squared.sum(axis=-1) / count, (squared * squared).sum(axis=-1) / count


def kurtosis(values) -> float:
    """Non-excess kurtosis: ``E[(X-mu)^4] / E[(X-mu)^2]^2``.

    This is the paper's preservation measure (Section 3.2).  A univariate
    normal distribution has kurtosis 3; heavier-tailed distributions (e.g.
    Laplace) score higher.  A constant series has zero variance, for which
    the ratio is undefined; following the convention of the reference
    implementation we return 0.0 so that a flat (fully smoothed) series never
    satisfies a ``>=`` kurtosis constraint against a non-degenerate original.

    Bit for bit ``sma_window_moments(values, 1)[1]``: window 1 is the series
    itself, and both reduce it with the same operations.
    """
    arr = _as_float_array(values)
    if arr.size == 0:
        raise ValueError("kurtosis of an empty series is undefined")
    second, fourth = _second_and_fourth(arr - arr.sum() / arr.size)
    if second == 0.0:
        return 0.0
    return float(fourth / (second * second))


def row_kurtosis(rows) -> np.ndarray:
    """:func:`kurtosis` of every row of a 2-D array, bit for bit."""
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D batch, got shape {arr.shape}")
    second, fourth = _second_and_fourth(arr - arr.sum(axis=1, keepdims=True) / arr.shape[1])
    degenerate = second == 0.0
    safe = np.where(degenerate, 1.0, second)
    return np.where(degenerate, 0.0, fourth / (safe * safe))


def zscore(values) -> np.ndarray:
    """Standardize the series to zero mean and unit variance.

    The paper plots z-scores rather than raw values to normalize the visual
    field across datasets (Figure 1, footnote 1).  A constant series maps to
    all zeros rather than dividing by zero.
    """
    arr = _as_float_array(values)
    if arr.size == 0:
        return arr.copy()
    sigma = std(arr)
    if sigma == 0.0:
        return np.zeros_like(arr)
    return (arr - arr.mean()) / sigma


def first_differences(values) -> np.ndarray:
    """The first-difference series ``delta_x_i = x_{i+1} - x_i``.

    Requires at least two points; a series with fewer points has no
    differences to take.
    """
    arr = _as_float_array(values)
    if arr.size < _MIN_POINTS_FOR_DIFF:
        raise ValueError(
            f"first differences need >= {_MIN_POINTS_FOR_DIFF} points, got {arr.size}"
        )
    return np.diff(arr)


def roughness(values) -> float:
    """Roughness: population standard deviation of the first differences.

    The paper's smoothness objective (Section 3.1).  Zero if and only if the
    plot is a straight line (constant slope).  Singleton series are treated as
    perfectly smooth.
    """
    arr = _as_float_array(values)
    if arr.size < _MIN_POINTS_FOR_DIFF:
        return 0.0
    return std(np.diff(arr))


def row_roughness(rows) -> np.ndarray:
    """:func:`roughness` of every row of a 2-D array, bit for bit."""
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D batch, got shape {arr.shape}")
    if arr.shape[1] < _MIN_POINTS_FOR_DIFF:
        return np.zeros(arr.shape[0], dtype=np.float64)
    diffs = np.diff(arr, axis=1)
    centered = diffs - diffs.mean(axis=1, keepdims=True)
    return np.sqrt(np.mean(centered * centered, axis=1))


@dataclass(frozen=True)
class MomentSummary:
    """All the per-series statistics the ASAP search consumes, in one pass."""

    count: int
    mean: float
    variance: float
    std: float
    kurtosis: float
    roughness: float


def moment_summary(values) -> MomentSummary:
    """Compute every moment the search needs from a single array scan."""
    arr = _as_float_array(values)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty series")
    mu = float(arr.mean())
    second, fourth = _second_and_fourth(arr - mu)
    kurt = 0.0 if second == 0.0 else float(fourth / (second * second))
    return MomentSummary(
        count=int(arr.size),
        mean=mu,
        variance=float(second),
        std=float(np.sqrt(second)),
        kurtosis=kurt,
        roughness=roughness(arr),
    )
