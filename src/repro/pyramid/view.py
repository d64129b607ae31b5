"""View resolution: requested pixel width -> pyramid level + residual re-bucket.

A client asks for a pixel width; views bucket the window through rollup
levels at a few geometric ratios.  :class:`ViewSpec` names the request and
:class:`PyramidView` is the resolved answer: the bucketed series at exactly
the point-to-pixel ratio the direct pipeline would have used, assembled from
the *nearest coarser level whose ratio divides it* plus a residual re-bucket
(groups of ``residual`` level buckets averaged into one view bucket).

The divisibility constraint is what keeps views honest: a view bucket must
cover exactly ``ratio`` base points, so the serving path's output is
equivalent to running the from-scratch operator on the directly
pre-aggregated window — bit-identical values when a level matches the ratio
exactly (``residual == 1``), within 1e-9 otherwise (mean-of-equal-sized-means
vs one flat mean).  When no coarser level divides the ratio the base level
(ratio 1) always does, and the view degenerates to the direct bucketing
itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ViewSpec", "PyramidView"]


@dataclass(frozen=True)
class ViewSpec:
    """One client's view request: a pixel width plus tail semantics.

    ``include_partial`` mirrors :func:`repro.core.preaggregation.preaggregate`'s
    switch: when True, base points beyond the last complete view bucket are
    appended as one final (under-weighted) point instead of being dropped.
    """

    resolution: int
    include_partial: bool = False

    def __post_init__(self) -> None:
        if self.resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")


@dataclass(frozen=True)
class PyramidView:
    """A resolved multi-resolution view: the searched series plus its map back.

    ``values``/``timestamps`` are the view's bucketed series (timestamps are
    each bucket's first base timestamp).  ``ratio`` is the effective
    point-to-pixel ratio in *base* units — exactly what direct
    preaggregation of the covered span would use — served from the rollup
    level with ``level_ratio`` by averaging ``residual`` consecutive level
    buckets per view bucket.  ``base_start``/``base_end`` are global base
    indices (counted from the first value ever ingested) of the covered
    span; ``partial_points`` counts the base values represented by a trailing
    partial bucket (0 unless the view was requested with
    ``include_partial=True`` and a remainder existed).
    """

    values: np.ndarray
    timestamps: np.ndarray
    ratio: int
    level_ratio: int
    residual: int
    base_start: int
    base_end: int
    partial_points: int

    @property
    def applied(self) -> bool:
        """Whether any bucketing actually happened (ratio > 1)."""
        return self.ratio > 1

    @property
    def base_length(self) -> int:
        """Base values covered by this view (complete buckets + partial)."""
        return self.base_end - self.base_start

    def window_in_original_units(self, window: int) -> int:
        """Translate a window on the view back to base-unit points.

        The inverse direction round-trips exactly for any window the view
        can express: ``window_in_original_units(w) // ratio == w``.
        """
        return int(window) * self.ratio
