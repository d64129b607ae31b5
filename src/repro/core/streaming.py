"""Streaming ASAP (Section 4.5, Algorithm 3) with incremental refresh state.

The streaming operator folds arrivals into panes sized by the point-to-pixel
ratio, keeps a bounded buffer of completed panes (the visualized window), and
re-runs the window search only every ``refresh_interval`` aggregated points —
on-demand updates at human-perceptible timescales rather than per arrival.

On each refresh the operator:

1. recomputes the ACF over the in-window aggregates (``UPDATEACF``);
2. revalidates the previous frame's window (``CHECKLASTWINDOW``): if that
   window still satisfies the kurtosis constraint it seeds the new search,
   so the roughness-estimate pruning can reject candidates immediately;
3. runs ``FINDWINDOW`` (Algorithm 2) and emits a freshly smoothed frame.

The three optimizations can be disabled independently — pane size 1 turns
off pixel-aware aggregation, ``strategy="exhaustive"`` turns off
autocorrelation pruning, ``refresh_interval=1`` turns off on-demand updates —
which is exactly the grid the Figure 11 factor/lesion analysis sweeps.

**Incremental refreshes.**  The original operator recomputed the full ACF
(two FFTs) and the window's moment statistics from scratch on every refresh —
O(window log window) work per refresh even when only a handful of panes
changed.  With ``incremental=True`` the operator instead maintains a
:class:`RollingWindowState`: lagged cross-product sums (the ACF's sufficient
statistics), raw power sums (kurtosis), and first-difference sums (roughness)
updated in O(max_lag) per completed pane, so the per-refresh fixed cost is
proportional to the *new* panes, not the window.  Two guardrails keep the
numerics honest:

* every ``recompute_every`` refreshes the sums are rebuilt from the window
  contents (and the anchor re-centered), bounding the drift the add/subtract
  updates can accumulate;
* ``verify_incremental=True`` is the exact-recompute escape hatch: every
  refresh also runs the from-scratch path and raises if any statistic
  disagrees beyond the 1e-9 discipline used throughout the repo.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from ..errors import CheckpointError, DataQualityError, IncrementalDriftError
from ..pyramid.rollup import resolve_view
from ..pyramid.view import PyramidView, ViewSpec
from ..quality import FrameQuality, ReorderBuffer, StreamNormalizer
from ..spec import AsapSpec, require_spec
from ..spectral.convolution import cross_product_sums

# The refresh evaluates candidates and frame values through its
# EvaluationCache's prepared prefix and calls neither kernel below; both stay
# importable from this module under these names because the end-to-end
# benchmark harness (benchmarks/e2e/trace.py and its tests) wraps them here.
from ..spectral.convolution import sma, sma_probe_moments  # noqa: F401
from ..stream.operators import StreamOperator
from ..stream.panes import PaneBuffer, RollingArray
from ..stream.sources import StreamPoint
from ..timeseries.series import TimeSeries
from ..timeseries.stats import kurtosis as _scalar_kurtosis
from ..timeseries.stats import roughness as _scalar_roughness
from .acf import (
    ACFAnalysis,
    analysis_from_correlations,
    analyze_acf,
    autocorrelation,
    default_max_lag,
)
from .search import (
    ADAPTIVE_STRATEGIES,
    SearchResult,
    SearchState,
    asap_search,
    plan_warm_probes,
    resolve_max_window,
    run_strategy,
)
from .smoothing import EvaluationCache

__all__ = [
    "BackfillResult",
    "Frame",
    "StreamingASAP",
    "RollingWindowState",
    "IncrementalDriftError",
    "MIN_PANES_FOR_SEARCH",
]

#: Below this many completed panes a search is statistically meaningless.
MIN_PANES_FOR_SEARCH = 8

#: Agreement required between incremental and from-scratch statistics when
#: ``verify_incremental`` is on: |incremental - exact| <= TOL * max(1, |exact|).
INCREMENTAL_AGREEMENT_TOL = 1e-9


#: Rebuild the rolling sums when cancellation threatens the 1e-9 discipline:
#: either the window mean drifted too far from the anchor
#: (``E[y^2] > limit * Var[y]`` — the raw-sum expansions lose precision like
#: ``eps * ratio^2``), or far more magnitude has *flowed through* a sum than
#: remains in it (``flow > limit * current`` — sliding-window add/subtract
#: chains carry absolute error proportional to the largest values ever seen,
#: which swamps a window that has since shrunk to a smaller scale).  An exact
#: re-anchored recomputation resets both ratios to ~1.
_CONDITIONING_LIMIT = 256.0

#: Above this ``|window mean| / window std`` ratio the *from-scratch* scalar
#: kernels themselves wobble by more than 1e-9 (their two-pass centering
#: rounds at the ulp of the offset, an ``eps * ratio`` relative error), so no
#: incrementally maintained formulation can agree with them to the
#: discipline.  The streaming operator detects the ratio in O(1) and runs
#: such refreshes through the exact from-scratch path instead — agreement by
#: construction, at O(window log window) only for pathologically offset
#: windows (e.g. epoch-timestamps with sub-second jitter).
_EXACT_FALLBACK_RATIO = 1e6

#: The operator's lifetime counters that are also :class:`~repro.service.HubStats`
#: fields (see :attr:`StreamingASAP.counters`).
_HUB_COUNTERS = (
    "warm_prefetches",
    "warm_fallbacks",
    "backfills",
    "backfill_points",
    "backfill_elided",
)

#: Every lifetime counter the operator keeps in its own mapping.
_OPERATOR_COUNTERS = _HUB_COUNTERS + (
    "searches_run",
    "candidates_evaluated",
    "full_recomputes",
    "exact_fallbacks",
)

#: The spec's fields, which read through as operator attributes.
_SPEC_FIELDS = frozenset(field.name for field in fields(AsapSpec))

#: The fields of each nested state that the spec determines: a restored
#: operator's parts must have exactly the shape its spec builds.
_SPEC_SHAPED = {
    "buffer": ("pane_size", "capacity", "journal", "track_quality"),
    "rolling": ("capacity", "lag_budget"),
    "reorder": ("watermark",),
    "normalizer": ("declared_cadence", "gap_policy", "gap_factor"),
}


def counters_from_state(state, names) -> Counter:
    """Rebuild a serialized counter mapping over *names* (absent ones are 0).

    Counters only ever grow, so an unknown name or a value that is not a
    non-negative integer can only come from a corrupt or forged payload.
    """
    if not isinstance(state, dict):
        raise CheckpointError(f"counters must be a mapping, got {type(state).__name__}")
    unknown = sorted(set(state) - set(names))
    if unknown:
        raise CheckpointError(f"unknown counters {unknown}; expected a subset of {list(names)}")
    for name, value in state.items():
        if type(value) is not int or value < 0:
            raise CheckpointError(f"counter {name!r} must be a non-negative integer, got {value!r}")
    return Counter({**dict.fromkeys(names, 0), **state})


@dataclass(frozen=True)
class Frame:
    """One rendered refresh: the smoothed window ready for display.

    ``quality`` reports per-window data quality (completeness, fill and
    late-data counters); it is the all-clean default whenever the quality
    stage is disabled, so dense-path frames are unchanged.
    """

    series: TimeSeries
    window: int
    search: SearchResult
    refresh_index: int
    points_ingested: int
    quality: FrameQuality = FrameQuality()


@dataclass(frozen=True)
class BackfillResult:
    """What one :meth:`StreamingASAP.backfill` call did.

    ``points`` counts raw points folded into panes (after the quality
    stages — dropped non-finite arrivals are excluded, synthetic gap fills
    included); ``panes`` the panes completed; ``frames_elided`` the refresh
    boundaries replayed without materializing a frame (their
    ``refresh_index`` slots are preserved, so the next streamed frame
    numbers exactly as if every interior frame had been emitted);
    ``searches_run`` the window searches actually executed (1 for the fast
    lane when a boundary lands in the archive, one per boundary for the
    replay lane); ``mode`` which lane ran (``"fast"``, ``"replay"``, or
    ``"stream"``); ``frames`` the frames that *were* emitted — any refresh
    that was already due, plus the closing refresh of the archive.
    """

    points: int
    panes: int
    frames_elided: int
    searches_run: int
    mode: str
    frames: tuple[Frame, ...] = ()

    @property
    def frame(self) -> Frame | None:
        """The final frame of the backfill, if a refresh boundary was reached."""
        return self.frames[-1] if self.frames else None


_probe_scratch = threading.local()


def _probe_workspace(rows: int, n: int) -> np.ndarray:
    """A C-contiguous ``(2, rows, n)`` view of this thread's probe scratch.

    Every operator on a thread shares one flat float64 buffer, grown to the
    largest ``2 * rows * n`` asked for, so a hub's streams reuse one
    cache-resident scratch instead of keeping one workspace each.  Scratch
    only, never serialized: the prefetch kernel rewrites every cell it reads.
    """
    size = 2 * rows * n
    buffer = getattr(_probe_scratch, "buffer", None)
    if buffer is None or buffer.size < size:
        buffer = _probe_scratch.buffer = np.empty(size, dtype=np.float64)
    return buffer[:size].reshape(2, rows, n)


def _moment_sums(scratch: np.ndarray, diff_count: int) -> list[float]:
    """``[sum y, sum y^2, sum y^3, sum y^4, sum d, sum d^2]`` in one reduction.

    *scratch* is a zeroed C-contiguous ``(6, r)`` array holding the values
    ``y`` in row 0 and the first *diff_count* differences ``d`` in row 4; the
    powers are written into rows 1-3 and 5 (the products are elementwise, so
    exact).  Reducing a contiguous row with ``sum(axis=1)`` is the same
    pairwise sum as that row's 1-D ``.sum()``, so each total is bit-identical
    to summing the separate arrays — in one numpy call instead of six.  A
    difference row one shorter than the values (a window's own differences)
    reduces separately, as padding it would change the pairwise tree.
    """
    np.multiply(scratch[0::4], scratch[0::4], out=scratch[1::4])
    np.multiply(scratch[1], scratch[0:2], out=scratch[2:4])
    if diff_count == scratch.shape[1]:
        return scratch.sum(axis=1).tolist()
    return scratch[:4].sum(axis=1).tolist() + scratch[4:, :diff_count].sum(axis=1).tolist()


class RollingWindowState:
    """Incrementally maintained statistics of a sliding window of aggregates.

    Maintains, over a window of at most ``capacity`` values:

    * ``s[k] = sum_i y_i * y_{i+k}`` for lags ``0..lag_budget`` — the
      sufficient statistics of the autocorrelation estimator;
    * the raw power sums ``sum y, sum y^2, sum y^3, sum y^4`` — kurtosis;
    * the first-difference sums ``sum d, sum d^2`` — roughness.

    Each appended value costs O(lag_budget); eviction (automatic once the
    window exceeds capacity) costs the same.  All sums are kept over values
    shifted by an *anchor* (the first value of the current epoch): every
    statistic derived here is shift-invariant, and anchoring keeps the sums
    small so the add/subtract updates stay well conditioned.  :meth:`rebuild`
    recomputes everything from the retained window (re-centering the anchor),
    which is the periodic drift bound of the streaming operator.

    Batch updates (:meth:`extend`, evictions, :meth:`rebuild`) write a
    block's values and differences into one scratch array and take all six
    power and difference sums with a single stacked reduction
    (:func:`_moment_sums`); a batch's added terms enter every sum before
    its evicted terms leave it.
    """

    __slots__ = (
        "capacity",
        "lag_budget",
        "_ring",
        "_s",
        "_t",
        "_q",
        "_c3",
        "_c4",
        "_dsum",
        "_dsq",
        "_danchor",
        "_flow2",
        "_flow4",
        "_flowd2",
        "_anchor",
        "appended",
        "rebuilds",
    )

    def __init__(self, capacity: int, lag_budget: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if lag_budget < 0:
            raise ValueError(f"lag_budget must be >= 0, got {lag_budget}")
        self.capacity = capacity
        self.lag_budget = lag_budget
        self._ring = RollingArray(capacity)
        self._s = np.zeros(lag_budget + 1, dtype=np.float64)
        self._t = 0.0
        self._q = 0.0
        self._c3 = 0.0
        self._c4 = 0.0
        self._dsum = 0.0
        self._dsq = 0.0
        self._danchor = 0.0
        self._flow2 = 0.0
        self._flow4 = 0.0
        self._flowd2 = 0.0
        self._anchor: float | None = None
        self.appended = 0
        self.rebuilds = 0

    def __len__(self) -> int:
        return len(self._ring)

    def values(self) -> np.ndarray:
        """The anchored (shifted) window contents, oldest first (no copy)."""
        return self._ring.view()

    # -- maintenance ---------------------------------------------------------

    def append(self, value: float) -> None:
        """Fold one new window value in, evicting the oldest past capacity."""
        if self._anchor is None:
            self._anchor = float(value)
        y = float(value) - self._anchor
        n_before = len(self._ring)
        self._ring.append(y)
        view = self._ring.view()
        k_max = min(self.lag_budget, n_before)
        segment = view[n_before - k_max :]
        self._s[: k_max + 1] += y * segment[::-1]
        y2 = y * y
        y4 = y2 * y2
        self._t += y
        self._q += y2
        self._c3 += y2 * y
        self._c4 += y4
        self._flow2 += y2
        self._flow4 += y4
        if n_before >= 1:
            d = (y - view[-2]) - self._danchor
            self._dsum += d
            self._dsq += d * d
            self._flowd2 += d * d
        self.appended += 1
        if n_before + 1 > self.capacity:
            self._evict()

    def extend(self, values) -> None:
        """Fold a batch of window values in with vectorized sum updates.

        Mathematically identical to appending one value at a time — the
        cross-product sums are pure pair sums over the final window, so gains
        (pairs whose right element is new) and losses (pairs touching evicted
        elements) can each be computed by one ``np.correlate`` against the
        extended window — at O(batch * lag_budget) array work instead of
        O(batch) Python-level appends.
        """
        block = np.asarray(values, dtype=np.float64)
        if block.ndim != 1:
            raise ValueError(f"expected a 1-D batch, got shape {block.shape}")
        # Chunk so the extended window always fits the fixed backing buffer.
        for start in range(0, block.size, self.capacity):
            self._extend_chunk(block[start : start + self.capacity])

    def _extend_chunk(self, block: np.ndarray) -> None:
        r = block.size
        if r == 0:
            return
        if r == 1:
            self.append(float(block[0]))
            return
        if self._anchor is None:
            self._anchor = float(block[0])
        scratch = np.zeros((6, r), dtype=np.float64)
        fresh = scratch[0]
        np.subtract(block, self._anchor, out=fresh)
        n0 = len(self._ring)
        self._ring.append_many(fresh)
        n1 = n0 + r
        view = self._ring.view()

        # Gains: every pair whose right element lies in the new block.  With
        # the partner region left-padded by zeros to a fixed length, one
        # valid-mode correlation yields the K+1 lag sums at once.
        k_max = min(self.lag_budget, n1 - 1)
        partner_start = max(n0 - k_max, 0)
        padded = np.zeros(k_max + r, dtype=np.float64)
        padded[k_max - (n0 - partner_start) :] = view[partner_start:n1]
        gains = np.correlate(padded, fresh, mode="valid")
        self._s[: k_max + 1] += gains[::-1]

        start = max(n0 - 1, 0)
        diffs = scratch[4, : n1 - 1 - start]
        np.subtract(view[start + 1 : n1], view[start : n1 - 1], out=diffs)
        diffs -= self._danchor
        sum1, sum2, sum3, sum4, diff_sum, diff_sq = _moment_sums(scratch, diffs.size)
        self._t += sum1
        self._q += sum2
        self._c3 += sum3
        self._c4 += sum4
        self._flow2 += sum2
        self._flow4 += sum4
        self._dsum += diff_sum
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
        # Losses: every pair whose left element is evicted (evicted indices
        # are the smallest, so any pair touching one has its left end here).
        k_max = min(self.lag_budget, n - 1)
        padded = np.zeros(count + k_max, dtype=np.float64)
        span = min(count + k_max, n)
        padded[:span] = view[:span]
        losses = np.correlate(padded, evicted, mode="valid")
        self._s[: k_max + 1] -= losses
        scratch = np.zeros((6, count), dtype=np.float64)
        scratch[0] = evicted
        np.subtract(view[1 : count + 1], evicted, out=scratch[4])
        scratch[4] -= self._danchor
        sum1, sum2, sum3, sum4, diff_sum, diff_sq = _moment_sums(scratch, count)
        self._t -= sum1
        self._q -= sum2
        self._c3 -= sum3
        self._c4 -= sum4
        self._dsum -= diff_sum
        self._dsq -= diff_sq
        self._ring.popleft(count)

    def _evict(self) -> None:
        n = len(self._ring)
        view = self._ring.view()
        y0 = view[0]
        k_max = min(self.lag_budget, n - 1)
        self._s[: k_max + 1] -= y0 * view[: k_max + 1]
        y0_2 = y0 * y0
        self._t -= y0
        self._q -= y0_2
        self._c3 -= y0_2 * y0
        self._c4 -= y0_2 * y0_2
        d0 = (view[1] - y0) - self._danchor
        self._dsum -= d0
        self._dsq -= d0 * d0
        self._ring.popleft()

    def _ensure_conditioned(self) -> None:
        """Exact-rebuild when the window mean drifted too far from the anchor.

        The raw-sum expansions lose precision like ``eps * (E[y^2]/Var[y])^2``;
        past :data:`_CONDITIONING_LIMIT` that threatens the 1e-9 discipline,
        so the statistics auto-recompute from the retained window (anchored at
        its mean, restoring a ratio of ~1) before being read.
        """
        n = len(self._ring)
        if n < 2:
            return
        energy = self._q / n
        mean = self._t / n
        variance = energy - mean * mean
        limit = _CONDITIONING_LIMIT
        if energy > 0.0 and (variance <= 0.0 or energy > limit * variance):
            self.rebuild()
            return
        diff_count = n - 1
        diff_energy = self._dsq / diff_count
        diff_mean = self._dsum / diff_count
        diff_variance = diff_energy - diff_mean * diff_mean
        if diff_energy > 0.0 and (
            diff_variance <= 0.0 or diff_energy > limit * diff_variance
        ):
            self.rebuild()
            return
        if (
            self._flow2 > limit * max(self._q, 0.0)
            or self._flow4 > limit * max(self._c4, 0.0)
            or self._flowd2 > limit * max(self._dsq, 0.0)
        ):
            self.rebuild()

    def rebuild(self) -> None:
        """Recompute every sum from the retained window, re-centering the anchor.

        This is the periodic exact recomputation that bounds incremental
        drift: after a rebuild the sums are exactly the one-shot statistics of
        the current window contents, anchored at the window mean (the
        best-conditioned shift for the raw-sum moment expansions).
        """
        n = len(self._ring)
        if n == 0:
            self.clear()
            return
        self.rebuilds += 1
        scratch = np.zeros((6, n), dtype=np.float64)
        window = scratch[0]
        view = self._ring.view()
        shift = float(view.mean())
        np.subtract(view, shift, out=window)
        self._anchor = (self._anchor or 0.0) + shift
        self._ring.clear()
        self._ring.append_many(window)
        k_max = min(self.lag_budget, n - 1)
        self._s[:] = 0.0
        self._s[: k_max + 1] = cross_product_sums(window, k_max)
        diffs = scratch[4, : n - 1]
        np.subtract(window[1:], window[:-1], out=diffs)
        # Diffs get their own anchor (their mean): ramps have a diff mean far
        # above the diff spread, and the one-pass variance formula is only
        # conditioned about a shift near that mean.
        self._danchor = float(diffs.mean()) if diffs.size else 0.0
        diffs -= self._danchor
        self._t, self._q, self._c3, self._c4, self._dsum, self._dsq = _moment_sums(
            scratch, diffs.size
        )
        # Flows reset to the freshly computed sums: the flow/current ratio is
        # back to 1 until new magnitude passes through.
        self._flow2 = self._q
        self._flow4 = self._c4
        self._flowd2 = self._dsq

    def _rebuilt(self) -> "RollingWindowState":
        """A rebuilt copy of these statistics (:meth:`rebuild`); this one is unchanged.

        A rebuild re-centers the anchor on the window mean, so rebuilding
        twice does not give the sums of rebuilding once: a refresh that
        may raise rebuilds a copy and keeps it only if it completes.
        """
        rebuilt = RollingWindowState(self.capacity, self.lag_budget)
        rebuilt._ring.append_many(self._ring.view())
        rebuilt._anchor = self._anchor
        rebuilt.appended = self.appended
        rebuilt.rebuilds = self.rebuilds
        rebuilt.rebuild()
        return rebuilt

    def clear(self) -> None:
        self._ring.clear()
        self._s[:] = 0.0
        self._t = self._q = self._c3 = self._c4 = 0.0
        self._dsum = self._dsq = 0.0
        self._danchor = 0.0
        self._flow2 = self._flow4 = self._flowd2 = 0.0
        self._anchor = None
        self.appended = 0

    # -- serialization ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Every maintained sum, flow, anchor, and the anchored window itself.

        A state restored by :meth:`from_state` continues the add/subtract
        chains from the exact same float values, so every subsequently derived
        statistic is bit-identical to an uninterrupted instance
        (see :mod:`repro.persist`).
        """
        return {
            "capacity": self.capacity,
            "lag_budget": self.lag_budget,
            "values": self._ring.view().copy(),
            "s": self._s.copy(),
            "t": self._t,
            "q": self._q,
            "c3": self._c3,
            "c4": self._c4,
            "dsum": self._dsum,
            "dsq": self._dsq,
            "danchor": self._danchor,
            "flow2": self._flow2,
            "flow4": self._flow4,
            "flowd2": self._flowd2,
            "anchor": self._anchor,
            "appended": self.appended,
            "rebuilds": self.rebuilds,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RollingWindowState":
        """Rebuild rolling statistics from :meth:`state_dict` output."""
        rolling = cls(capacity=int(state["capacity"]), lag_budget=int(state["lag_budget"]))
        rolling._ring.append_many(np.asarray(state["values"], dtype=np.float64))
        rolling._s[:] = np.asarray(state["s"], dtype=np.float64)
        rolling._t = float(state["t"])
        rolling._q = float(state["q"])
        rolling._c3 = float(state["c3"])
        rolling._c4 = float(state["c4"])
        rolling._dsum = float(state["dsum"])
        rolling._dsq = float(state["dsq"])
        rolling._danchor = float(state["danchor"])
        rolling._flow2 = float(state["flow2"])
        rolling._flow4 = float(state["flow4"])
        rolling._flowd2 = float(state["flowd2"])
        rolling._anchor = None if state["anchor"] is None else float(state["anchor"])
        rolling.appended = int(state["appended"])
        rolling.rebuilds = int(state["rebuilds"])
        return rolling

    # -- derived statistics ---------------------------------------------------

    def correlations(self, max_lag: int) -> np.ndarray:
        """ACF estimates for lags ``0..max_lag`` from the maintained sums.

        Evaluates the same estimator as :func:`repro.core.acf.autocorrelation`
        — ``sum (y_i - m)(y_{i+k} - m) / sum (y_i - m)^2`` with *m* the window
        mean — by expanding the centering against the cross-product sums.
        """
        self._ensure_conditioned()
        n = len(self)
        if n < 2:
            raise ValueError(f"correlations need >= 2 window values, got {n}")
        if not 0 <= max_lag <= min(self.lag_budget, n - 1):
            raise ValueError(
                f"max_lag must be in [0, {min(self.lag_budget, n - 1)}], got {max_lag}"
            )
        view = self._ring.view()
        mean = self._t / n
        first = np.concatenate(([0.0], np.cumsum(view[:max_lag])))
        last = np.concatenate(([0.0], np.cumsum(view[::-1][:max_lag])))
        left_sums = self._t - last
        right_sums = self._t - first
        counts = n - np.arange(max_lag + 1)
        centered = self._s[: max_lag + 1] - mean * (left_sums + right_sums) + counts * (mean * mean)
        energy = centered[0]
        if energy <= 0.0:
            out = np.zeros(max_lag + 1)
            out[0] = 1.0
            return out
        return centered / energy

    def offset_ratio(self) -> float:
        """``|window mean| / window std`` in raw units, O(1).

        This conditioning ratio bounds how closely *any* two float64
        formulations of the window's central moments can agree — the
        streaming operator falls back to exact recomputation above
        :data:`_EXACT_FALLBACK_RATIO`.  Returns ``inf`` for degenerate
        (zero-variance) windows.
        """
        self._ensure_conditioned()
        n = len(self)
        if n < 2:
            return 0.0
        mean_shifted = self._t / n
        variance = self._q / n - mean_shifted * mean_shifted
        mean_raw = (self._anchor or 0.0) + mean_shifted
        if variance <= 0.0:
            return 0.0 if mean_raw == 0.0 else math.inf
        return abs(mean_raw) / math.sqrt(variance)

    def roughness(self) -> float:
        """Population std of the window's first differences (one-pass form)."""
        self._ensure_conditioned()
        n = len(self)
        if n < 2:
            return 0.0
        diff_count = n - 1
        mean_d = self._dsum / diff_count
        variance = self._dsq / diff_count - mean_d * mean_d
        return math.sqrt(variance) if variance > 0.0 else 0.0

    def kurtosis(self) -> float:
        """Non-excess kurtosis of the window (0.0 when degenerate)."""
        self._ensure_conditioned()
        n = len(self)
        if n == 0:
            return 0.0
        mean = self._t / n
        mean2 = mean * mean
        m2 = self._q / n - mean2
        if m2 <= 0.0:
            return 0.0
        m4 = (
            self._c4 / n
            - 4.0 * mean * (self._c3 / n)
            + 6.0 * mean2 * (self._q / n)
            - 3.0 * mean2 * mean2
        )
        return m4 / (m2 * m2)


def _check_agreement(label: str, incremental: float, exact: float) -> None:
    if abs(incremental - exact) > INCREMENTAL_AGREEMENT_TOL * max(1.0, abs(exact)):
        raise IncrementalDriftError(
            f"incremental {label} drifted: {incremental!r} vs exact {exact!r}"
        )


class StreamingASAP(StreamOperator[StreamPoint, Frame]):
    """Continuously smooth a stream, refreshing at human timescales.

    Configured by one :class:`~repro.spec.AsapSpec`, kept as :attr:`spec`
    (its docstring documents every knob).  Spec fields also read as
    attributes (``op.strategy`` is ``op.spec.strategy``), except
    :attr:`incremental`, which ``verify_incremental`` implies.  The operator
    reads the streaming and quality fields; ``use_preaggregation`` and the
    network knobs do not apply, because the operator aggregates through
    ``pane_size``.  How the knobs act here:

    * ``incremental`` maintains the window's ACF and moment statistics in
      O(new panes) per refresh instead of O(window log window); results agree
      with the from-scratch path to the 1e-9 discipline.  ``recompute_every``
      bounds drift with periodic exact rebuilds, and ``verify_incremental``
      (which implies ``incremental``) also runs the from-scratch path on every
      refresh and raises :class:`IncrementalDriftError` on disagreement.
    * ``warm_start`` prefetches the previous refresh's probe trace in one
      stacked kernel call, so a stable stream's search replays over cache
      hits.  The search itself is untouched and the kernel is bit-identical
      to the cold path's, so frames do not change; a search that leaves the
      trace is a counted :attr:`warm_fallbacks`.  Only the adaptive
      strategies (``"asap"``, ``"binary"``) participate.
    * Panes keep their count and mean only, and views keep nothing:
      :meth:`pyramid_view` resolves any pixel width on demand from the pane
      window and changes no frame.
    * ``watermark`` puts a :class:`~repro.quality.ReorderBuffer` in front of
      the panes (late points within it are reordered, older ones
      counted-and-dropped); ``normalize`` adds the stateful
      :class:`~repro.quality.StreamNormalizer` (``cadence``/``gap_policy``).
      On dense, ordered, regular input both are bit-identical no-ops.
      With neither stage, a batch with a non-finite value or a timestamp
      that does not strictly follow the last folded one is rejected whole
      (:class:`~repro.errors.DataQualityError`) before any state changes.
    * ``backfill`` picks the :meth:`backfill` lane: ``"auto"`` takes the
      vectorized fast lane whenever eliding interior searches cannot change
      a frame (every strategy except seeded ASAP, whose ``CHECKLASTWINDOW``
      seed can change the selected window) and the replay lane otherwise;
      ``"replay"`` and ``"stream"`` force a lane.  Every lane leaves later
      frames bit-identical to streaming the archive point by point.
    """

    def __init__(self, spec: AsapSpec) -> None:
        self.spec = require_spec(spec, "StreamingASAP(AsapSpec(...)) is its only constructor")
        resolution = spec.resolution
        self.incremental = spec.incremental or spec.verify_incremental
        self._reorder = ReorderBuffer(spec.watermark) if spec.watermark > 0 else None
        self._normalizer = (
            StreamNormalizer(cadence=spec.cadence, gap_policy=spec.gap_policy)
            if spec.normalize
            else None
        )
        self._buffer = PaneBuffer(
            pane_size=spec.pane_size,
            capacity=resolution,
            journal=self.incremental,
            track_quality=spec.normalize,
        )
        # Timestamp of the last point folded while no quality stage runs: the
        # next batch must start after it (see `_check_batch`).
        self._last_timestamp: float | None = None
        self._warm_trace: tuple[int, ...] | None = None
        # Lifetime counters owned by the operator itself (the quality
        # counters live in the stages that count them; see `counters`).
        self._counters = Counter(dict.fromkeys(_OPERATOR_COUNTERS, 0))
        # Lag sums are only ever read by the ASAP strategy's ACF; other
        # strategies keep just the O(1)-per-pane moment sums.
        self._rolling = (
            RollingWindowState(
                capacity=resolution,
                lag_budget=(
                    self._lag_budget(resolution, spec.max_window)
                    if spec.strategy == "asap"
                    else 0
                ),
            )
            if self.incremental
            else None
        )
        self._panes_since_refresh = 0
        self._previous_window: int | None = None
        self._refresh_due = False
        # Set while the due refresh has raised from refresh_if_due, so the
        # next batch knows that failure was already reported (not state: a
        # restored operator reports it once more).
        self._due_refresh_raised = False
        self._refresh_count = 0
        self._refreshes_since_rebuild = 0

    def __getattr__(self, name: str):
        # Only reached when normal lookup fails: spec fields read through.
        if name in _SPEC_FIELDS:
            return getattr(self.spec, name)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @classmethod
    def from_spec(cls, spec: AsapSpec) -> "StreamingASAP":
        """Build an operator from *spec*; the same as ``StreamingASAP(spec)``."""
        return cls(spec)

    @staticmethod
    def _lag_budget(resolution: int, max_window: int | None) -> int:
        """The largest ACF lag any refresh can need (window never exceeds
        ``resolution`` panes, and the search ceiling caps the lag further)."""
        ceiling = max(default_max_lag(resolution), 2)
        if max_window is not None:
            ceiling = max(min(max_window, resolution - 1), 2)
        return ceiling

    # -- counters used by the performance experiments -------------------------

    @property
    def refresh_count(self) -> int:
        """Frames emitted so far."""
        return self._refresh_count

    @property
    def searches_run(self) -> int:
        """Window searches executed (one per emitted frame)."""
        return self._counters["searches_run"]

    @property
    def candidates_evaluated(self) -> int:
        """Total SMA evaluations across all searches."""
        return self._counters["candidates_evaluated"]

    @property
    def points_ingested(self) -> int:
        """Raw points pushed so far."""
        return self._buffer.total_points

    @property
    def full_recomputes(self) -> int:
        """Periodic exact rebuilds of the incremental state so far."""
        return self._counters["full_recomputes"]

    @property
    def exact_fallbacks(self) -> int:
        """Refreshes routed through the exact path because the window was too
        ill-conditioned (offset far exceeding spread) for any incremental
        formulation to match the scalar kernels to 1e-9."""
        return self._counters["exact_fallbacks"]

    @property
    def counters(self) -> dict[str, int]:
        """Every lifetime counter this operator contributes to
        :class:`~repro.service.HubStats`, by field name: the warm-start and
        backfill counters plus the quality stages' counters.  Never reset."""
        return {
            **{name: self._counters[name] for name in _HUB_COUNTERS},
            "gaps_filled": self.gaps_filled,
            "nan_dropped": self.nan_dropped,
            "late_accepted": self.late_accepted,
            "late_dropped": self.late_dropped,
        }

    @property
    def backfill_mode(self) -> str:
        """The :meth:`backfill` lane selection (the spec's ``backfill``)."""
        return self.spec.backfill

    @property
    def warm_prefetches(self) -> int:
        """Refreshes whose search was seeded by a warm-start trace prefetch."""
        return self._counters["warm_prefetches"]

    @property
    def warm_fallbacks(self) -> int:
        """Warm-started refreshes whose search left the prefetched trace
        (the stream drifted), paying ordinary single-probe kernel calls for
        the uncovered candidates.  Frames are unaffected — this counts lost
        speedup, not lost accuracy."""
        return self._counters["warm_fallbacks"]

    @property
    def backfills(self) -> int:
        """Archive replays performed via :meth:`backfill`."""
        return self._counters["backfills"]

    @property
    def backfill_points(self) -> int:
        """Raw points ingested through the backfill lane (post-quality)."""
        return self._counters["backfill_points"]

    @property
    def backfill_elided(self) -> int:
        """Interior refresh boundaries replayed without materializing a frame.

        Each still occupies its ``refresh_index`` slot, so frame numbering
        is unchanged — this counts saved work, not skipped state."""
        return self._counters["backfill_elided"]

    # -- data-quality counters (0 whenever the quality stage is off) -----------

    @property
    def gaps_filled(self) -> int:
        """Synthetic points emitted by the normalizer across the stream."""
        return self._normalizer.gaps_filled if self._normalizer is not None else 0

    @property
    def nan_dropped(self) -> int:
        """Non-finite arrivals filtered out by the normalizer."""
        return self._normalizer.nan_dropped if self._normalizer is not None else 0

    @property
    def late_accepted(self) -> int:
        """Out-of-order arrivals placed correctly within the watermark."""
        return self._reorder.late_accepted if self._reorder is not None else 0

    @property
    def late_dropped(self) -> int:
        """Arrivals beyond the watermark, counted-and-dropped."""
        return self._reorder.late_dropped if self._reorder is not None else 0

    @property
    def window_completeness(self) -> float:
        """Fraction of the current aggregated window built from observed
        (non-synthetic) points; 1.0 whenever normalization is off."""
        return self._buffer.window_completeness

    def _frame_quality(self) -> FrameQuality:
        if self._normalizer is None and self._reorder is None:
            return FrameQuality()
        return FrameQuality(
            completeness=self._buffer.window_completeness,
            synthetic_in_window=self._buffer.window_synthetic_points,
            gaps_filled=self.gaps_filled,
            nan_dropped=self.nan_dropped,
            late_accepted=self.late_accepted,
            late_dropped=self.late_dropped,
        )

    # -- serving-layer accessors (used by repro.service.StreamHub) ------------

    @property
    def pane_count(self) -> int:
        """Completed panes currently in the window."""
        return len(self._buffer)

    @property
    def last_window(self) -> int | None:
        """Window selected by the most recent search, if any."""
        return self._previous_window

    @property
    def refresh_due(self) -> bool:
        """True when a deferred refresh boundary is pending (see push_many)."""
        return self._refresh_due

    @property
    def panes_completed(self) -> int:
        """Panes ever completed — monotone version counter for view caches."""
        return self._buffer.panes_completed

    def aggregated_values(self) -> np.ndarray:
        """The aggregated window the next search would run over (a copy)."""
        return self._buffer.aggregated_values()

    def aggregated_timestamps(self) -> np.ndarray:
        """Start timestamp of each pane in :meth:`aggregated_values` (a copy)."""
        return self._buffer.aggregated_timestamps()

    def pyramid_view(self, spec: ViewSpec | int) -> PyramidView:
        """Resolve a multi-resolution view of the current window.

        Computed on demand (:func:`~repro.pyramid.resolve_view`) from every
        completed pane — exactly the window :meth:`aggregated_values`
        exposes.  It reads and changes no other state, so a view never
        changes a later frame.
        """
        return resolve_view(
            self.aggregated_values(),
            self.aggregated_timestamps(),
            self._buffer.evicted_panes,
            spec,
        )

    # -- operator contract ----------------------------------------------------

    def push(self, item: StreamPoint):
        """Ingest one arrival; yields a :class:`Frame` on refresh boundaries."""
        if self._reorder is not None or self._normalizer is not None:
            # Quality stages are batch-shaped; route the point through the
            # same pipeline so per-point and batched ingestion stay
            # bit-identical (the boundary loop splits at the same states).
            return tuple(self.push_many([item.timestamp], [item.value]))
        timestamp, value = float(item.timestamp), float(item.value)
        last = self._last_timestamp
        if not (
            math.isfinite(timestamp)
            and math.isfinite(value)
            and (last is None or timestamp > last)
        ):
            self._check_batch(np.array([timestamp]), np.array([value]))
        frames: list[Frame] = []
        self._run_due_refresh(frames)
        completed = self._buffer.push(item.timestamp, item.value)
        self._last_timestamp = timestamp
        if completed is not None:
            self._panes_since_refresh += 1
            if self._panes_since_refresh >= self.spec.refresh_interval:
                self._panes_since_refresh = 0
                frame = self._refresh()
                if frame is not None:
                    frames.append(frame)
        return tuple(frames)

    def push_many(self, timestamps, values, defer_boundary: bool = False):
        """Ingest a batch of arrivals; returns the frames it produced.

        Equivalent to pushing the points one at a time — refresh boundaries
        that fall *inside* the batch trigger refreshes at exactly the same
        buffer states — but whole panes are folded with vectorized kernels.
        With ``defer_boundary=True``, a refresh boundary landing exactly at
        the end of the batch is *deferred*: the operator marks itself
        :attr:`refresh_due` instead of refreshing, so a serving layer can run
        the due refreshes of all its streams at its next tick
        (:meth:`refresh_if_due`; the deferred refresh runs before any further
        data is folded, preserving per-point semantics).

        With a ``watermark`` the batch first passes through the reordering
        buffer (only released points are folded); with ``normalize=True`` the
        released points then pass through the normalizer (which may drop
        non-finite values and synthesize gap fills).  Both stages are
        prefix-deterministic over the released sequence, so batching
        granularity never changes the frames.  Without either stage the
        batch is checked whole first (:meth:`_check_batch`).
        """
        ts = np.asarray(timestamps, dtype=np.float64)
        vs = np.asarray(values, dtype=np.float64)
        checked = self._reorder is None and self._normalizer is None
        if checked:
            self._check_batch(ts, vs)
        frames: list[Frame] = []
        self._run_due_refresh(frames)
        synth = None
        if self._reorder is not None:
            ts, vs = self._reorder.push_many(ts, vs)
        if self._normalizer is not None:
            ts, vs, synth = self._normalizer.process(ts, vs)
        self._fold(ts, vs, synth, frames, defer_boundary=defer_boundary)
        if checked and vs.size:
            self._last_timestamp = float(ts[-1])
        return frames

    def _check_batch(self, ts: np.ndarray, vs: np.ndarray) -> None:
        """Reject a batch the panes cannot fold, before any state changes.

        Used when no quality stage runs: nothing downstream repairs the
        input, so one non-finite value or out-of-order timestamp would
        poison the window and every later refresh.  Timestamps must be
        finite, strictly increasing, and after the last folded one; values
        must be finite.  The error names the first bad index.
        """
        if ts.ndim != 1 or vs.ndim != 1 or ts.size != vs.size:
            raise DataQualityError(
                f"timestamps and values must be equal-length 1-D arrays, "
                f"got shapes {ts.shape} and {vs.shape}"
            )
        if vs.size == 0:
            return
        last = self._last_timestamp
        if (
            np.isfinite(ts[0])
            and np.isfinite(ts[-1])
            and (last is None or ts[0] > last)
            and np.isfinite(vs).all()
            and (ts[1:] > ts[:-1]).all()
        ):
            return
        previous = np.empty_like(ts)
        previous[0] = -np.inf if last is None else last
        previous[1:] = ts[:-1]
        ok = np.isfinite(vs) & np.isfinite(ts) & (ts > previous)
        i = int(np.argmin(ok))
        value, timestamp = float(vs[i]), float(ts[i])
        if not math.isfinite(value):
            reason = f"value {value!r} is not finite"
        elif not math.isfinite(timestamp):
            reason = f"timestamp {timestamp!r} is not finite"
        else:
            reason = f"timestamp {timestamp!r} does not follow {float(previous[i])!r}"
        raise DataQualityError(
            f"rejected a batch of {vs.size} points at index {i}: {reason}; "
            f"nothing was folded (a spec with normalize=True or a watermark "
            f"repairs messy input instead)"
        )

    def _fold(
        self,
        ts,
        vs,
        synth,
        frames: list[Frame],
        defer_boundary: bool = False,
        elide_interior: bool = False,
    ) -> None:
        """The boundary loop: fold normalized points, refreshing on interval.

        With ``elide_interior=True`` (the backfill replay lane), refresh
        boundaries that another boundary will follow *within this batch* run
        the full search but skip warm prefetch and frame materialization —
        both frame-neutral — so only the batch's closing boundary pays for a
        rendered frame.
        """
        interval = self.spec.refresh_interval
        i = 0
        n = vs.size
        while i < n:
            pane_size = self._buffer.pane_size
            panes_needed = interval - self._panes_since_refresh
            points_to_boundary = (
                pane_size - self._buffer.open_pane_points + (panes_needed - 1) * pane_size
            )
            take = min(points_to_boundary, n - i)
            self._panes_since_refresh += self._buffer.extend(
                ts[i : i + take],
                vs[i : i + take],
                synthetic=None if synth is None else synth[i : i + take],
            )
            i += take
            if self._panes_since_refresh >= interval:
                self._panes_since_refresh = 0
                if defer_boundary and i == n:
                    self._refresh_due = True
                elif elide_interior and n - i >= interval * pane_size:
                    self._refresh(materialize=False)
                else:
                    frame = self._refresh()
                    if frame is not None:
                        frames.append(frame)

    def refresh_if_due(self) -> Frame | None:
        """Run a refresh deferred by ``push_many(..., defer_boundary=True)``.

        The refresh stays due until it returns: one that raises changes no
        counter and is retried by the next call, which then emits exactly
        the frame an operator that never failed emits.  The next batch
        retries it once more before folding, and gives it up if it raises
        again (:meth:`_run_due_refresh`), so a failure that lasts never
        holds back new data.
        """
        if not self._refresh_due:
            return None
        try:
            frame = self._refresh()
        except Exception:
            self._due_refresh_raised = True
            raise
        self._refresh_due = self._due_refresh_raised = False
        return frame

    def backfill(self, timestamps, values) -> BackfillResult:
        """Replay an archive through batch machinery, then stream seamlessly.

        Ingests the whole history at batch-kernel speed: one batched pass
        through the quality stages, bulk pane folding, chunk-cadence replay
        of the rolling statistics, and a single real
        search at the archive's closing refresh boundary (the fast lane; see
        the spec's ``backfill`` knob for lane selection).  Interior
        refresh boundaries are *elided* — no frame is rendered for them —
        but every piece of carried state (pane window, rolling sums and
        their conditioning-rebuild schedule, refresh ledger,
        quality counters) advances exactly as if the archive had been
        streamed point by point, so **every subsequently streamed frame is
        bit-identical** to the stream-everything run.  Equivalently: a
        backfill emits exactly the frames ``push_many(archive)`` would have
        emitted at the final boundary, and elides the rest.

        Pair with :func:`repro.persist.checkpoint` for fast provisioning:
        ``backfill → checkpoint`` writes a state whose restore streams on
        bit-identically.
        """
        ts = np.asarray(timestamps, dtype=np.float64)
        vs = np.asarray(values, dtype=np.float64)
        if ts.ndim != 1 or vs.ndim != 1 or ts.size != vs.size:
            raise ValueError(
                f"backfill expects equal-length 1-D timestamps and values, "
                f"got shapes {ts.shape} and {vs.shape}"
            )
        checked = self._reorder is None and self._normalizer is None
        if checked:
            self._check_batch(ts, vs)
        frames: list[Frame] = []
        refreshes_before = self._refresh_count
        searches_before = self.searches_run
        points_before = self._buffer.total_points
        panes_before = self._buffer.panes_completed
        self._run_due_refresh(frames)
        synth = None
        if self._reorder is not None:
            ts, vs = self._reorder.push_many(ts, vs)
        if self._normalizer is not None:
            ts, vs, synth = self._normalizer.process(ts, vs)
        spec = self.spec
        mode = spec.backfill
        if mode == "auto":
            # Eliding searches is frame-exact unless the search is seeded
            # from the previous winner (CHECKLASTWINDOW can change the
            # *selected* window, which then seeds the next boundary — a
            # chain only a real per-boundary search reproduces) or every
            # refresh is contractually a verification point.
            fast = (
                spec.strategy != "asap" or not spec.seed_from_previous
            ) and not spec.verify_incremental
            mode = "fast" if fast else "replay"
        if mode == "stream":
            self._fold(ts, vs, synth, frames)
        elif mode == "replay":
            self._fold(ts, vs, synth, frames, elide_interior=True)
        else:
            self._backfill_fast(ts, vs, synth, frames)
        if checked and vs.size:
            self._last_timestamp = float(ts[-1])
        ingested = self._buffer.total_points - points_before
        elided = (self._refresh_count - refreshes_before) - len(frames)
        self._counters.update(backfills=1, backfill_points=ingested, backfill_elided=elided)
        return BackfillResult(
            points=ingested,
            panes=self._buffer.panes_completed - panes_before,
            frames_elided=elided,
            searches_run=self.searches_run - searches_before,
            mode=mode,
            frames=tuple(frames),
        )

    def _backfill_fast(self, ts, vs, synth, frames: list[Frame]) -> None:
        """The vectorized lane: bulk-fold panes, replay statistics cadence,
        search once at the archive's closing boundary.

        Bit-exactness argument, piece by piece: pane folding is
        batch-granularity-independent (``PaneBuffer.extend`` pins this), so
        one bulk extend reproduces the streamed window and journal.  The
        rolling sums are *not* granularity-independent (they accumulate in
        chunks between rebuilds), so the journal is drained once and
        re-fed to the rolling state in exactly the chunks the streamed
        refreshes would have drained, with the per-boundary conditioning
        reads replayed in :meth:`_refresh`'s order between chunks.  The
        final chunk is requeued so the closing (real) refresh drains
        precisely what its streamed counterpart would have.
        """
        n = vs.size
        if n == 0:
            return
        pane_size = self._buffer.pane_size
        interval = self.spec.refresh_interval
        capacity = self._buffer.capacity
        p0 = self._panes_since_refresh
        pend0 = self._buffer.pending_completed if self._buffer.journal else 0
        completed_before = self._buffer.panes_completed
        first_need = (
            pane_size - self._buffer.open_pane_points + (interval - p0 - 1) * pane_size
        )
        if n < first_need:
            # No boundary inside the archive: plain bulk fold, nothing due.
            self._panes_since_refresh += self._buffer.extend(ts, vs, synthetic=synth)
            return
        boundaries = 1 + (n - first_need) // (interval * pane_size)
        last_i = first_need + (boundaries - 1) * (interval * pane_size)
        self._buffer.extend(
            ts[:last_i],
            vs[:last_i],
            synthetic=None if synth is None else synth[:last_i],
        )
        if self._buffer.journal and boundaries > 1:
            means, times = self._buffer.drain_completed()
            chunk1 = pend0 + (interval - p0)
            split = chunk1 + (boundaries - 2) * interval
            start = 0
            for b in range(boundaries - 1):
                end = chunk1 if b == 0 else start + interval
                if self._rolling is not None:
                    self._rolling.extend(means[start:end])
                total = completed_before + (interval - p0) + b * interval
                self._replay_refresh_stats(min(total, capacity))
                start = end
            self._buffer.requeue_completed(means[split:], times[split:])
        else:
            # Either a single boundary (the journal, if any, stays intact
            # for the closing refresh to drain) or no rolling statistics;
            # the refresh ledger still advances for elided boundaries.
            for b in range(boundaries - 1):
                total = completed_before + (interval - p0) + b * interval
                self._replay_refresh_stats(min(total, capacity))
        self._panes_since_refresh = 0
        frame = self._refresh()
        if frame is not None:
            frames.append(frame)
        if last_i < n:
            self._panes_since_refresh += self._buffer.extend(
                ts[last_i:],
                vs[last_i:],
                synthetic=None if synth is None else synth[last_i:],
            )

    def _replay_refresh_stats(self, window_len: int) -> None:
        """Advance per-refresh bookkeeping for one elided fast-lane boundary.

        Mirrors the exact *sequence* of rolling-state reads :meth:`_refresh`
        performs — each read may trigger a conditioning rebuild, so matching
        the final sums is not enough; the read order must match too — while
        skipping the search and the frame.  The refresh ledger advances so
        later frames' ``refresh_index`` is unchanged.
        """
        if window_len < MIN_PANES_FOR_SEARCH:
            return
        if self._rolling is not None:
            use_incremental = self._rolling.offset_ratio() <= _EXACT_FALLBACK_RATIO
            if not use_incremental:
                self._counters["exact_fallbacks"] += 1
            else:
                self._advance_rebuild_countdown()
                self._rolling.roughness()
                self._rolling.kurtosis()
                if self.spec.strategy == "asap":
                    max_lag = self._resolved_max_lag(window_len)
                    if self._rolling.lag_budget >= max_lag:
                        self._rolling.correlations(max_lag)
        self._refresh_count += 1

    def flush(self):
        """Emit one final frame for any aggregates since the last refresh.

        With a ``watermark``, the reordering buffer is drained first (its
        held points fold in sorted order, possibly crossing refresh
        boundaries), so no data is stranded behind the watermark.
        """
        frames: list[Frame] = []
        self._run_due_refresh(frames)
        if self._reorder is not None and len(self._reorder) > 0:
            ts, vs = self._reorder.drain()
            synth = None
            if self._normalizer is not None:
                ts, vs, synth = self._normalizer.process(ts, vs)
            self._fold(ts, vs, synth, frames)
        if self._panes_since_refresh > 0:
            self._panes_since_refresh = 0
            frame = self._refresh()
            if frame is not None:
                frames.append(frame)
        return tuple(frames)

    def reset(self) -> None:
        """Drop all window state (e.g. the user scrolled to a new range).

        Lifetime counters (:attr:`counters`, and the quality totals each
        frame reports) are kept."""
        self._buffer.clear()
        if self._rolling is not None:
            self._rolling.clear()
        if self._reorder is not None:
            self._reorder.clear()
        if self._normalizer is not None:
            self._normalizer.clear()
        self._panes_since_refresh = 0
        self._last_timestamp = None
        self._previous_window = None
        self._warm_trace = None
        self._refresh_due = self._due_refresh_raised = False
        self._refreshes_since_rebuild = 0

    # -- serialization ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Full operator state: spec, pane buffer, rolling sums, countdowns.

        The schema (documented in :mod:`repro.persist`) is everything a
        restored operator needs to emit **bit-identical** subsequent frames:
        the configuration once, as ``spec.to_dict()``; the refresh countdown,
        the previous window (``CHECKLASTWINDOW``'s seed), the last folded
        timestamp, the deferred-refresh flag, and every counter; plus the
        nested state of the quality stages, the pane buffer and the
        incremental statistics.  Views keep no state (they are computed from
        the pane window), and per-refresh evaluation caches are rebuilt
        lazily on the next refresh.
        """
        return {
            "spec": self.spec.to_dict(),
            "reorder": None if self._reorder is None else self._reorder.state_dict(),
            "normalizer": (
                None if self._normalizer is None else self._normalizer.state_dict()
            ),
            "panes_since_refresh": self._panes_since_refresh,
            "last_timestamp": self._last_timestamp,
            "previous_window": self._previous_window,
            "warm_trace": None if self._warm_trace is None else list(self._warm_trace),
            "counters": dict(self._counters),
            "refresh_due": self._refresh_due,
            "refresh_count": self._refresh_count,
            "refreshes_since_rebuild": self._refreshes_since_rebuild,
            "buffer": self._buffer.state_dict(),
            "rolling": None if self._rolling is None else self._rolling.state_dict(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamingASAP":
        """Rebuild an operator from :meth:`state_dict` output (exact resume).

        The spec is validated by :meth:`AsapSpec.from_dict`, and each nested
        state must have the shape that spec builds (pane size, capacities,
        lag budget, which stages exist); a mismatch raises
        :class:`~repro.errors.CheckpointError` naming the part and field.
        """
        operator = cls(AsapSpec.from_dict(state["spec"]))
        built = operator.state_dict()
        for part in _SPEC_SHAPED:
            got, want = state[part], built[part]
            if (got is None) != (want is None):
                built_or_not = "does not build" if want is None else "builds"
                raise CheckpointError(
                    f"operator state has {'a' if got is not None else 'no'} {part}, "
                    f"but its spec {built_or_not} one"
                )
        for part, keys in _SPEC_SHAPED.items():
            got, want = state[part], built[part]
            for key in keys if got is not None else ():
                if got[key] != want[key]:
                    raise CheckpointError(
                        f"operator {part} {key} {got[key]!r} does not match its "
                        f"spec, which builds {want[key]!r}"
                    )
        operator._reorder = (
            None if state["reorder"] is None else ReorderBuffer.from_state(state["reorder"])
        )
        operator._normalizer = (
            None
            if state["normalizer"] is None
            else StreamNormalizer.from_state(state["normalizer"])
        )
        operator._buffer = PaneBuffer.from_state(state["buffer"])
        operator._rolling = (
            None if state["rolling"] is None else RollingWindowState.from_state(state["rolling"])
        )
        operator._panes_since_refresh = int(state["panes_since_refresh"])
        operator._last_timestamp = (
            None if state["last_timestamp"] is None else float(state["last_timestamp"])
        )
        operator._previous_window = (
            None if state["previous_window"] is None else int(state["previous_window"])
        )
        operator._warm_trace = (
            None
            if state["warm_trace"] is None
            else tuple(int(w) for w in state["warm_trace"])
        )
        operator._counters = counters_from_state(state["counters"], _OPERATOR_COUNTERS)
        operator._refresh_due = bool(state["refresh_due"])
        operator._refresh_count = int(state["refresh_count"])
        operator._refreshes_since_rebuild = int(state["refreshes_since_rebuild"])
        return operator

    # -- Algorithm 3 internals --------------------------------------------------

    def _run_due_refresh(self, frames: list[Frame]) -> None:
        """Run the due refresh, if any, before new data is folded.

        A refresh that raises here is given up: its boundary emits no frame,
        and the rebuild countdown advances as a completed refresh's would,
        so a periodic rebuild still clears incremental drift.  If
        :meth:`refresh_if_due` already raised this failure, the batch then
        folds as usual — the window moves on, and a bad pane leaves it in
        time; otherwise the error propagates and the batch is not folded.
        """
        if not self._refresh_due:
            return
        reported = self._due_refresh_raised
        try:
            frame = self.refresh_if_due()
        except Exception:
            self._refresh_due = self._due_refresh_raised = False
            rolling = self._rolling
            if rolling is not None and rolling.offset_ratio() <= _EXACT_FALLBACK_RATIO:
                self._advance_rebuild_countdown()
            if not reported:
                raise
            return
        if frame is not None:
            frames.append(frame)

    def _advance_rebuild_countdown(self) -> None:
        """One incremental refresh's step toward the periodic rebuild, in place."""
        self._refreshes_since_rebuild += 1
        if self._refreshes_since_rebuild >= self.spec.recompute_every:
            self._refreshes_since_rebuild = 0
            self._rolling.rebuild()
            self._counters["full_recomputes"] += 1

    def _check_last_window(
        self, values: np.ndarray, cache: EvaluationCache
    ) -> SearchState:
        """``CHECKLASTWINDOW``: seed the search from the previous window.

        If the previous window still satisfies the kurtosis constraint on the
        updated aggregates, adopt it as the incumbent (enabling the roughness
        pruning to discard weaker candidates without smoothing them);
        otherwise start from scratch.  The evaluation lands in the shared
        cache, so the follow-up search re-examines it for free.
        """
        state = SearchState.from_cache(cache)
        previous = self._previous_window
        if previous is None or previous < 2 or previous > values.size - 1:
            return state
        evaluation = cache.screen(previous)
        if evaluation.kurtosis >= state.original_kurtosis:
            state.window = previous
            state.roughness = evaluation.roughness
            state.candidates_evaluated += 1
        return state

    def _resolved_max_lag(self, n: int) -> int:
        max_window = self.spec.max_window
        lag = default_max_lag(n) if max_window is None else min(max_window, n - 1)
        return min(lag, n - 1)

    def _sync_pane_state(self) -> None:
        """Feed journaled pane completions to the rolling statistics.

        Only refreshes drain the journal, so the rolling sums always see the
        same chunking whatever else (views, snapshots) happens in between.
        """
        if self._rolling is None:
            return
        means = self._buffer.drain_completed_means()
        if means.size:
            self._rolling.extend(means)

    def _incremental_acf(self, rolling: RollingWindowState, values: np.ndarray) -> ACFAnalysis:
        max_lag = self._resolved_max_lag(values.size)
        correlations = rolling.correlations(max_lag)
        if self.spec.verify_incremental:
            exact = autocorrelation(values, max_lag)
            worst = int(np.argmax(np.abs(correlations - exact)))
            _check_agreement(
                f"ACF at lag {worst}", float(correlations[worst]), float(exact[worst])
            )
        return analysis_from_correlations(correlations)

    def _refresh(self, materialize: bool = True) -> Frame | None:
        """Run one refresh; with ``materialize=False`` (backfill replay lane)
        the search, statistics, and every piece of carried state advance
        exactly as usual, but the warm prefetch and the rendered frame —
        the two frame-neutral costs — are skipped and ``None`` returned.

        Counters, the rebuild countdown, the warm trace, the previous window
        and the refresh ledger are committed only once everything that can
        raise has run (``verify_incremental``'s drift checks, the search,
        the frame), so a refresh that raises can be retried as if it had
        never run.  A periodic rebuild goes into a copy of the rolling
        statistics, committed with the rest; the panes a failed refresh
        drained into them stay folded, as the retry would fold them.
        """
        self._sync_pane_state()
        values = self._buffer.aggregated_values()
        if values.size < MIN_PANES_FOR_SEARCH:
            return None
        spec = self.spec
        # Above the conditioning ratio no float64 formulation can agree with
        # the scalar kernels to 1e-9, so such refreshes run the exact
        # from-scratch path — agreement by construction.
        use_incremental = (
            self._rolling is not None
            and self._rolling.offset_ratio() <= _EXACT_FALLBACK_RATIO
        )
        rolling = self._rolling
        since_rebuild = self._refreshes_since_rebuild
        rebuilt = False
        cache = EvaluationCache(values)
        if use_incremental:
            since_rebuild += 1
            if since_rebuild >= spec.recompute_every:
                since_rebuild = 0
                rolling = rolling._rebuilt()
                rebuilt = True
            rolling_roughness = rolling.roughness()
            rolling_kurtosis = rolling.kurtosis()
            if spec.verify_incremental:
                _check_agreement("roughness", rolling_roughness, _scalar_roughness(values))
                _check_agreement("kurtosis", rolling_kurtosis, _scalar_kurtosis(values))
            cache.seed_original(rolling_roughness, rolling_kurtosis)
        # Warm-started search: prefetch the previous refresh's probe trace
        # (plus the previous winner's neighborhood) in one stacked kernel
        # call from the cache's prepared prefix, screened at the original
        # kurtosis exactly as the search screens, then let the unchanged
        # search replay over cache hits.  The prefetched values come from
        # the core the cold path's single-window misses use, so the search
        # makes identical decisions and frames are bit-identical — only
        # dispatch count changes.  Grid strategies are excluded (they
        # already batch their grid).
        warm_prefetched = False
        warm_eligible = spec.warm_start and spec.strategy in ADAPTIVE_STRATEGIES
        if materialize and warm_eligible and self._warm_trace is not None:
            probes = plan_warm_probes(
                self._warm_trace,
                self._previous_window,
                resolve_max_window(values, spec.max_window),
            )
            if len(probes) >= 2:
                cache._prefetch(probes, _probe_workspace(len(probes), values.size))
                warm_prefetched = True
        if spec.strategy == "asap":
            max_lag = self._resolved_max_lag(values.size)
            if use_incremental and rolling.lag_budget >= max_lag:
                acf = self._incremental_acf(rolling, values)
            else:
                acf = analyze_acf(values, max_lag=max_lag)
            state = (
                self._check_last_window(values, cache)
                if spec.seed_from_previous
                else SearchState.from_cache(cache)
            )
            search = asap_search(
                values, max_window=spec.max_window, acf=acf, state=state, cache=cache
            )
        else:
            search = run_strategy(spec.strategy, values, spec.max_window, cache=cache)

        frame = None
        if materialize:
            # The frame's values come from the prefix the search already
            # prepared.  Both arrays are the refresh's own; without a quality
            # stage the input was checked where it entered (`_check_batch`),
            # so the series needs no copy and no second validation.
            smoothed = cache._smoothed(search.window)
            timestamps = self._buffer.aggregated_timestamps()[: smoothed.size]
            checked = (
                self._reorder is None
                and self._normalizer is None
                # Finite input can still overflow its prefix sums (values
                # near 1e308); the validating constructor rejects that.
                and np.isfinite(smoothed).all()
            )
            build = TimeSeries._trusted if checked else TimeSeries
            frame = Frame(
                series=build(smoothed, timestamps, name="asap-stream"),
                window=search.window,
                search=search,
                refresh_index=self._refresh_count,
                points_ingested=self._buffer.total_points,
                quality=self._frame_quality(),
            )

        counters = self._counters
        if rolling is not None and not use_incremental:
            counters["exact_fallbacks"] += 1
        self._rolling = rolling
        self._refreshes_since_rebuild = since_rebuild
        if rebuilt:
            counters["full_recomputes"] += 1
        if warm_prefetched:
            counters["warm_prefetches"] += 1
            if cache.misses > 0:
                # The search left the prefetched trace (stream drift / regime
                # change) and paid single-probe kernel calls for the rest.
                counters["warm_fallbacks"] += 1
        if warm_eligible:
            self._warm_trace = cache.touched_windows()
        counters["searches_run"] += 1
        counters["candidates_evaluated"] += search.candidates_evaluated
        self._previous_window = search.window
        self._refresh_count += 1
        return frame
