"""The incremental moment sketch for streaming windows.

Streaming ASAP folds arriving points into pane subaggregates and must be able
to compute the statistics its search needs — mean, variance, kurtosis —
without replaying raw points (Section 4.5).  :class:`MomentSketch` is an
online tracker of the first four central moments that supports both
single-value updates (Welford-style) and *merging* two sketches (Pébay's
pairwise update formulas).  Merging is what makes pane-based subaggregation
work: each pane keeps a sketch, and a window's statistics are the merge of
its panes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MomentSketch"]


@dataclass
class MomentSketch:
    """Online first-four central moments with exact merge.

    Tracks ``count``, ``mean`` and the central moment sums ``m2``, ``m3``,
    ``m4`` (i.e. ``sum((x - mean)^k)``).  ``update`` is the classic
    single-pass recurrence; ``merge`` is Pébay's pairwise combination, so a
    window statistic can be assembled from disjoint pane sketches in O(#panes)
    regardless of how many raw points each pane absorbed.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    m3: float = 0.0
    m4: float = 0.0

    @classmethod
    def of(cls, values) -> "MomentSketch":
        """Sketch of a batch of values (vectorized, numerically direct)."""
        arr = np.asarray(values, dtype=np.float64)
        sketch = cls()
        if arr.size == 0:
            return sketch
        mu = float(arr.mean())
        centered = arr - mu
        sketch.count = int(arr.size)
        sketch.mean = mu
        sketch.m2 = float(np.sum(centered ** 2))
        sketch.m3 = float(np.sum(centered ** 3))
        sketch.m4 = float(np.sum(centered ** 4))
        return sketch

    def update(self, value: float) -> None:
        """Fold in one value (Welford/Terriberry single-point update)."""
        n1 = self.count
        self.count = n1 + 1
        delta = value - self.mean
        delta_n = delta / self.count
        delta_n2 = delta_n * delta_n
        term1 = delta * delta_n * n1
        self.mean += delta_n
        self.m4 += (
            term1 * delta_n2 * (self.count * self.count - 3 * self.count + 3)
            + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3
        )
        self.m3 += term1 * delta_n * (self.count - 2) - 3.0 * delta_n * self.m2
        self.m2 += term1

    def merge(self, other: "MomentSketch") -> None:
        """Combine another sketch into this one (Pébay pairwise formulas)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2, self.m3, self.m4 = other.m2, other.m3, other.m4
            return
        na, nb = float(self.count), float(other.count)
        n = na + nb
        delta = other.mean - self.mean
        delta2 = delta * delta
        m2 = self.m2 + other.m2 + delta2 * na * nb / n
        m3 = (
            self.m3
            + other.m3
            + delta ** 3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n
        )
        m4 = (
            self.m4
            + other.m4
            + delta2 * delta2 * na * nb * (na * na - na * nb + nb * nb) / (n ** 3)
            + 6.0 * delta2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n
        )
        self.mean = (na * self.mean + nb * other.mean) / n
        self.count = int(n)
        self.m2, self.m3, self.m4 = m2, m3, m4

    # -- derived statistics --------------------------------------------------

    @property
    def variance(self) -> float:
        """Population variance."""
        if self.count == 0:
            raise ValueError("variance of an empty sketch is undefined")
        return self.m2 / self.count

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return float(np.sqrt(self.variance))

    @property
    def kurtosis(self) -> float:
        """Non-excess kurtosis; 0.0 for degenerate (zero variance) sketches."""
        if self.count == 0:
            raise ValueError("kurtosis of an empty sketch is undefined")
        if self.m2 == 0.0:
            return 0.0
        return self.count * self.m4 / (self.m2 * self.m2)

    def copy(self) -> "MomentSketch":
        """An independent copy of this sketch."""
        return MomentSketch(self.count, self.mean, self.m2, self.m3, self.m4)
