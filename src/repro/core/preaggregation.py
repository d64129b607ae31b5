"""Pixel-aware preaggregation (Section 4.4) — the pipeline's first stage.

There is rarely benefit in smoothing parameters finer than the target
display can show: a plot wider than the screen's pixel count collapses many
points into each column anyway.  ASAP therefore buckets the input into
non-overlapping means of size equal to the *point-to-pixel ratio*
``floor(N / resolution)`` before searching, shrinking both the series and the
candidate space by that factor (Table 1).

Preaggregation is only applied when the series is at least twice the target
resolution — below that the plot already fits and bucketing would only throw
away information.

This module is the single home of that stage.  Every consumer — the batch
pipeline (:func:`repro.core.batch.smooth` / ``find_window``), the batch
engine, the experiment scripts, and the multi-resolution
pyramid (:mod:`repro.pyramid`) — goes through :func:`prepare_search_input`
or the :func:`bucket_means` primitive, so bucket values are defined in
exactly one place and a value computed anywhere in the system is
bit-identical to the same value computed anywhere else.

**Tail semantics.**  ``floor(N / resolution) * floor(N / ratio)`` rarely
equals ``N``: up to ``ratio - 1`` trailing points do not fill a complete
bucket.  By default that partial bucket is *dropped* — matching the pane
semantics of the streaming implementation, where a pane only becomes a
plotted point once full — and the result's ``original_length_used`` reports
exactly how many raw points the aggregate represents.  Pass
``include_partial=True`` to append the partial bucket's mean as one final
(under-weighted) point instead; the pyramid's views use the same switch, and
both paths produce bit-identical values for the same raw tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SpecError

__all__ = [
    "PreaggregationResult",
    "point_to_pixel_ratio",
    "bucket_means",
    "preaggregate",
    "expected_ratio",
    "prepare_search_input",
]

#: Only preaggregate when the series is at least this multiple of the target.
MIN_OVERSAMPLING = 2


@dataclass(frozen=True)
class PreaggregationResult:
    """The aggregated series plus the bookkeeping to map results back."""

    values: np.ndarray
    ratio: int
    original_length: int
    #: Raw points represented by the trailing *partial* bucket: 0 when the
    #: series divided evenly or the partial bucket was dropped (the default),
    #: ``original_length mod ratio`` when ``include_partial=True`` kept it.
    partial_bucket_points: int = 0

    @property
    def applied(self) -> bool:
        """Whether any bucketing actually happened (ratio > 1)."""
        return self.ratio > 1

    @property
    def original_length_used(self) -> int:
        """Raw points actually represented by :attr:`values`.

        Equals ``len(values) * ratio`` for complete buckets plus the points
        of an included partial bucket; the difference to
        :attr:`original_length` is the silently-invisible dropped tail.
        """
        if self.ratio == 1:
            return self.values.size
        complete = self.values.size - (1 if self.partial_bucket_points else 0)
        return complete * self.ratio + self.partial_bucket_points

    def window_in_original_units(self, window: int) -> int:
        """Translate a window on the aggregate back to raw-point units."""
        return window * self.ratio


def point_to_pixel_ratio(n: int, resolution: int) -> int:
    """``floor(n / resolution)``, minimum 1 — the paper's bucket size."""
    if n < 0:
        raise ValueError(f"series length must be non-negative, got {n}")
    if resolution < 1:
        raise SpecError(f"resolution must be >= 1, got {resolution}")
    return max(n // resolution, 1)


def bucket_means(values, ratio: int, include_partial: bool = False) -> np.ndarray:
    """Means of consecutive non-overlapping *ratio*-point buckets.

    The primitive every aggregation path shares: ``preaggregate``, the
    multi-resolution views, and the equivalence checks all call this, so
    "the bucketed series" has exactly one definition.  The trailing partial
    bucket (fewer than *ratio* points) is dropped unless *include_partial*,
    in which case its mean is appended as one final point.

    The reduction is a row-wise ``mean`` over the reshaped contiguous
    buffer, which does not depend on how many buckets are reduced at once —
    bucketing any bucket-aligned slice of a stream produces values
    bit-identical to the same buckets of the whole.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {arr.shape}")
    if ratio < 1:
        raise ValueError(f"ratio must be >= 1, got {ratio}")
    if ratio == 1:
        return arr.copy()
    full = arr.size // ratio
    aggregated = arr[: full * ratio].reshape(full, ratio).mean(axis=1)
    if include_partial and arr.size > full * ratio:
        aggregated = np.append(aggregated, arr[full * ratio :].mean())
    return aggregated


def preaggregate(
    values, resolution: int, include_partial: bool = False
) -> PreaggregationResult:
    """Bucket *values* into point-to-pixel-ratio means when oversampled.

    By default, trailing points that do not fill a complete bucket are
    dropped, matching the pane semantics of the streaming implementation (a
    pane only becomes a plotted point once full); ``include_partial=True``
    appends their mean as one final point instead (see the module docstring
    for the full tail-semantics contract).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {arr.shape}")
    n = arr.size
    if resolution < 1:
        raise SpecError(f"resolution must be >= 1, got {resolution}")
    if n < MIN_OVERSAMPLING * resolution:
        return PreaggregationResult(values=arr.copy(), ratio=1, original_length=n)
    ratio = point_to_pixel_ratio(n, resolution)
    remainder = n % ratio
    aggregated = bucket_means(arr, ratio, include_partial=include_partial)
    return PreaggregationResult(
        values=aggregated,
        ratio=ratio,
        original_length=n,
        partial_bucket_points=remainder if include_partial else 0,
    )


def expected_ratio(n: int, resolution: int, use_preaggregation: bool = True) -> int:
    """The ratio :func:`preaggregate` would apply, without doing the work.

    Used by the batch pipeline to validate caller-supplied caches and by the
    multi-resolution views to size their levels before aggregating.
    """
    ratio = point_to_pixel_ratio(n, resolution)  # also validates resolution
    if not use_preaggregation or n < MIN_OVERSAMPLING * resolution:
        return 1
    return ratio


def prepare_search_input(
    values,
    resolution: int,
    use_preaggregation: bool = True,
    include_partial: bool = False,
) -> PreaggregationResult:
    """The pre-aggregation pipeline stage: raw series -> searched series.

    Every search-shaped consumer calls this instead of hand-rolling the
    aggregate: with *use_preaggregation* it is :func:`preaggregate`, without
    it the identity representation (ratio 1) — so "what does the search run
    over" has a single answer across :func:`repro.core.batch.smooth`, the
    batch engine, the streaming operator's pyramid views, and the experiment
    scripts, and turning the stage off is a configuration choice rather than
    a different code path.
    """
    if not use_preaggregation:
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-D series, got shape {arr.shape}")
        if resolution < 1:
            raise SpecError(f"resolution must be >= 1, got {resolution}")
        return PreaggregationResult(values=arr.copy(), ratio=1, original_length=arr.size)
    return preaggregate(values, resolution, include_partial=include_partial)
