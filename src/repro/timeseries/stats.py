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
    "rolling_kurtosis",
    "rolling_roughness",
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


#: Safety margin between the eps-scale error bound of the prefix-stack moment
#: expansion and a window moment we are willing to trust.  Windows below the
#: margin are recomputed exactly; the survivors carry relative error around
#: ``1 / margin`` of their own magnitude — comfortably beyond 1e-9.
_ROLLING_REFINE_MARGIN = 1e10


def _windowed_rows(arr: np.ndarray, starts: np.ndarray, window: int) -> np.ndarray:
    """Gather the flagged windows as rows of a ``(len(starts), window)`` array."""
    return arr[starts[:, np.newaxis] + np.arange(window)[np.newaxis, :]]


def _rolling_variance(arr: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Centered second moment of every sliding window, plus a refinement mask.

    Fast path: prefix-sum stacks of the globally centered series (central
    moments are shift-invariant), giving every window's variance in O(n).
    The raw-moment expansion leaves a cancellation residue on the order of
    ``eps * n * E[x^2]``; windows whose variance is not safely above that
    bound are flagged for exact recomputation.
    """
    from ..spectral.convolution import prefix_moment_stack, windowed_moment_sums

    centered = arr - arr.mean()
    stack = prefix_moment_stack(centered, max_power=2)
    sums = windowed_moment_sums(stack, window)
    count = float(window)
    n = float(arr.size)
    m1 = sums[0] / count
    raw2 = sums[1] / count
    second = np.maximum(raw2 - m1 * m1, 0.0)
    # Prefix sums of centered data drift like a random walk, so the
    # accumulated rounding error scales with sqrt(n), not n.
    err2 = np.finfo(np.float64).eps * np.sqrt(n) * (stack[1, -1] / n)
    flagged = second <= err2 * _ROLLING_REFINE_MARGIN
    return second, flagged


def rolling_kurtosis(values, window: int) -> np.ndarray:
    """Non-excess kurtosis of every sliding window of *window* points.

    ``out[i] == kurtosis(values[i : i + window])`` for every full window.
    Computed in O(n) from the prefix-sum moment stacks of
    :mod:`repro.spectral.convolution` rather than O(n * window) rescans;
    windows the expansion cannot resolve accurately (near-constant content)
    are recomputed with the scalar algorithm, vectorized over the flagged
    rows, so results agree with :func:`kurtosis` everywhere — including the
    zero-variance convention of returning 0.0.
    """
    from ..spectral.convolution import prefix_moment_stack, windowed_moment_sums

    arr = _as_float_array(values)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window} (series length {arr.size})")
    if window > arr.size:
        raise ValueError(f"window {window} exceeds series length {arr.size}")
    n_out = arr.size - window + 1
    if window == 1:
        # Single-point windows have zero variance, hence kurtosis 0.0.
        return np.zeros(n_out, dtype=np.float64)

    centered_global = arr - arr.mean()
    stack = prefix_moment_stack(centered_global, max_power=4)
    sums = windowed_moment_sums(stack, window)
    count = float(window)
    n = float(arr.size)
    m1 = sums[0] / count
    raw2 = sums[1] / count
    raw3 = sums[2] / count
    raw4 = sums[3] / count
    second = np.maximum(raw2 - m1 * m1, 0.0)
    fourth = np.maximum(
        raw4 - 4.0 * m1 * raw3 + 6.0 * m1 * m1 * raw2 - 3.0 * m1 ** 4, 0.0
    )
    # The expansions accumulate error on the order of eps * sqrt(n) times the
    # global moment scale (prefix sums of centered data drift like a random
    # walk); any window moment not safely above that bound is recomputed
    # exactly.
    eps_n = np.finfo(np.float64).eps * np.sqrt(n)
    global2 = stack[1, -1] / n
    global4 = stack[3, -1] / n
    global3 = np.sqrt(global2 * global4)
    abs_m1 = np.abs(m1)
    err2 = eps_n * global2
    err4 = eps_n * (
        global4
        + 4.0 * abs_m1 * global3
        + 6.0 * m1 * m1 * global2
        + 3.0 * m1 ** 4
    )
    flagged = (second <= err2 * _ROLLING_REFINE_MARGIN) | (
        fourth <= err4 * _ROLLING_REFINE_MARGIN
    )
    safe = np.where(flagged, 1.0, second)
    out = np.where(flagged, 0.0, fourth / (safe * safe))

    starts = np.flatnonzero(flagged)
    if starts.size:
        out[starts] = row_kurtosis(_windowed_rows(arr, starts, window))
    return out


def rolling_roughness(values, window: int) -> np.ndarray:
    """Roughness of every sliding window of *window* points.

    ``out[i] == roughness(values[i : i + window])``: the population standard
    deviation of the first differences *inside* each window, from the prefix
    stacks of the difference series in O(n) total.  Ill-conditioned windows
    (near-constant slope) are recomputed exactly like the flagged rows of
    :func:`rolling_kurtosis`; windows of fewer than two points are perfectly
    smooth (0.0), matching :func:`roughness`.
    """
    arr = _as_float_array(values)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window} (series length {arr.size})")
    if window > arr.size:
        raise ValueError(f"window {window} exceeds series length {arr.size}")
    if window < _MIN_POINTS_FOR_DIFF:
        return np.zeros(arr.size - window + 1, dtype=np.float64)
    diffs = np.diff(arr)
    variance_w, flagged = _rolling_variance(diffs, window - 1)
    out = np.sqrt(variance_w)

    starts = np.flatnonzero(flagged)
    if starts.size:
        rows = _windowed_rows(diffs, starts, window - 1)
        row_centered = rows - rows.mean(axis=1, keepdims=True)
        out[starts] = np.sqrt(np.mean(row_centered * row_centered, axis=1))
    return out


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
