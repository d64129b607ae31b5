"""The smoothing function: simple moving average (Section 3.3).

ASAP fixes its smoothing function to the simple moving average and tunes only
its window size.  This module wraps the O(n) prefix-sum kernel from the
spectral substrate with the slide policy the paper uses: slide 1 during the
search (every candidate window's roughness/kurtosis must be exact) and a
display-resolution slide when emitting final plots.

Candidate evaluation — "smooth at window *w*, measure roughness and
kurtosis" — is the inner loop of every search strategy.  It has one
evaluation path and one oracle sharing one result type:

* :func:`evaluate_window` — the scalar reference: one ``sma`` call plus the
  scalar moment kernels.  Kept as the correctness oracle the tests (and the
  batch benchmark's pre-vectorization baseline) compare against; no search
  runs through it.
* :func:`evaluate_window_grid` — the vectorized kernel
  (:func:`repro.spectral.convolution.sma_grid_moments`): a whole grid of
  candidates in one array-ops pass, with results for any window independent
  of which grid it was evaluated in.

:class:`EvaluationCache` memoizes evaluations per series and is threaded
through every strategy, so repeated candidates cost nothing, all strategies
share one numeric path (keeping, e.g., ASAP's selected window comparable with
exhaustive search's), and the batch engine can pre-fill a whole search's
candidates with one batched kernel call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..spectral.convolution import (
    _moments_from_prefix,
    _prefix_sums,
    _sma_from_prefix,
    _validate_window,
    sma,
    sma_grid_moments,
    sma_with_slide,
)
from ..timeseries.series import TimeSeries
from ..timeseries.stats import kurtosis, roughness

__all__ = [
    "sma",
    "sma_with_slide",
    "smooth_series",
    "evaluate_window",
    "evaluate_window_grid",
    "EvaluationCache",
    "WindowEvaluation",
]


@dataclass(frozen=True)
class WindowEvaluation:
    """Quality metrics of one candidate window — one row of the search.

    ``roughness`` is ``nan`` when the evaluation was *screened*
    (:meth:`EvaluationCache.screen`): its kurtosis fell below the search's
    constraint, so its roughness was never measured.  The searches read
    roughness only of feasible candidates, so they never see that ``nan``;
    :meth:`EvaluationCache.evaluate` completes a screened entry on demand.
    """

    window: int
    roughness: float
    kurtosis: float

    def is_feasible(self, original_kurtosis: float) -> bool:
        """The paper's preservation constraint: ``Kurt[Y] >= Kurt[X]``."""
        return self.kurtosis >= original_kurtosis


def evaluate_window(values, window: int) -> WindowEvaluation:
    """Smooth at *window* (slide 1) and measure roughness and kurtosis.

    Scalar reference implementation; the search strategies use the vectorized
    :class:`EvaluationCache` path instead.
    """
    smoothed = sma(values, window)
    return WindowEvaluation(
        window=window,
        roughness=roughness(smoothed),
        kurtosis=kurtosis(smoothed),
    )


def evaluate_window_grid(values, windows) -> list[WindowEvaluation]:
    """Evaluate a whole grid of candidate windows in one vectorized pass.

    Equivalent to ``[evaluate_window(values, w) for w in windows]`` up to
    floating-point roundoff, at a fraction of the cost: the padded SMA matrix
    and its moments are computed with numpy array ops
    (:func:`repro.spectral.convolution.sma_grid_moments`) instead of one
    Python iteration per candidate.  The numbers produced for a window do not
    depend on the rest of the grid, so searches that evaluate different
    candidate subsets stay numerically consistent with each other.
    """
    window_list = [int(w) for w in windows]
    rough, kurt = sma_grid_moments(values, window_list)
    return [
        WindowEvaluation(window=w, roughness=float(r), kurtosis=float(k))
        for w, r, k in zip(window_list, rough, kurt)
    ]


def _answers(evaluation: WindowEvaluation | None, floor: float | None) -> bool:
    """Whether a memoized *evaluation* serves a request screened at *floor*.

    It does unless it is missing or the request needs a roughness that was
    never measured: ``floor=None`` asks for full moments, a floor for
    roughness only when the kurtosis meets it.
    """
    if evaluation is None:
        return False
    if not math.isnan(evaluation.roughness):
        return True
    return floor is not None and not evaluation.kurtosis >= floor


class EvaluationCache:
    """Memoized candidate evaluations for one (searched) series.

    Every search strategy routes its candidate evaluations through one of
    these, which provides:

    * one numeric path for all strategies: the numpy kernels of
      :mod:`repro.spectral.convolution` (the prepared-prefix core for one
      candidate or a stacked probe set, the grid kernel for a grid,
      bit-identical per window);
    * one prepared series: the prefix sums of :attr:`values` are computed
      on the first evaluation that needs them and answer every later one —
      each single-window miss, the streaming operator's stacked warm
      prefetch (:meth:`_prefetch`) and the frame's smoothed values
      (:meth:`_smoothed`) — so a refresh runs one ``cumsum`` however many
      evaluations it makes.  A long-lived owner (the batch engine's LRU)
      drops them once its search is memoized (:meth:`_release_prefix`);
    * memoization, so re-examined candidates (seeded streaming searches, the
      ASAP gap binary search crossing an already-evaluated peak) cost
      nothing — note ``candidates_evaluated`` accounting is unaffected: it
      counts *considerations*, exactly as before;
    * a pre-fill hook (:meth:`seed`) used by the batch engine to charge a
      whole grid of candidates to one batched kernel call across many series;
    * the original series' roughness/kurtosis, computed once and shared by
      the search and the result assembly;
    * constraint-first evaluation: searches request candidates through
      :meth:`screen`, which measures roughness only for windows meeting the
      original kurtosis (a screened entry holds ``nan`` roughness), while
      :meth:`evaluate`/:meth:`evaluate_many` always return full moments;
    * the *touched-window trace* — every window a search requested through
      :meth:`screen`/:meth:`evaluate`/:meth:`evaluate_many` or found via
      :meth:`lookup` — which the streaming operator's warm-started search
      prefetches on the next refresh (:meth:`touched_windows`; pre-fills via
      :meth:`seed` and :meth:`_prefetch` do not count).
    """

    __slots__ = (
        "values",
        "_evaluations",
        "_original",
        "_touched",
        "_prefix",
        "hits",
        "misses",
    )

    def __init__(self, values) -> None:
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-D series, got shape {arr.shape}")
        self.values = arr
        self._evaluations: dict[int, WindowEvaluation] = {}
        self._original: tuple[float, float] | None = None
        self._touched: set[int] = set()
        self._prefix: np.ndarray | None = None
        self.hits = 0
        self.misses = 0

    # -- original-series moments ------------------------------------------------

    def _original_moments(self) -> tuple[float, float]:
        if self._original is None:
            self._original = (roughness(self.values), kurtosis(self.values))
        return self._original

    @property
    def original_roughness(self) -> float:
        """Roughness of the unsmoothed series (the window-1 incumbent)."""
        return self._original_moments()[0]

    @property
    def original_kurtosis(self) -> float:
        """Kurtosis of the unsmoothed series (the preservation constraint)."""
        return self._original_moments()[1]

    def seed_original(self, roughness_value: float, kurtosis_value: float) -> None:
        """Install precomputed original moments (batch-engine pre-fill)."""
        self._original = (float(roughness_value), float(kurtosis_value))

    # -- candidate evaluations --------------------------------------------------

    def seed(self, evaluations) -> None:
        """Install precomputed evaluations (batch-engine pre-fill)."""
        for evaluation in evaluations:
            self._evaluations[evaluation.window] = evaluation

    def lookup(self, window: int, floor: float) -> WindowEvaluation | None:
        """The memoized evaluation of *window* (a hit), or ``None`` — no kernel.

        A hit counts exactly as in :meth:`evaluate` and enters the
        touched-window trace; a miss records nothing, leaving the evaluation
        (and its accounting) to whoever answers it.  An entry screened at a
        higher floor than *floor* whose kurtosis passes *floor* is a miss:
        its roughness is needed but was never measured.  The search step
        generators of :mod:`repro.core.search` take their cached candidates
        through here.
        """
        cached = self._evaluations.get(window)
        if not _answers(cached, floor):
            return None
        self._touched.add(window)
        self.hits += 1
        return cached

    def screen(self, window: int, floor: float | None = None) -> WindowEvaluation:
        """Evaluation of one candidate as a search needs it, memoized.

        Kurtosis is always measured; roughness only when the kurtosis meets
        *floor* (default: :attr:`original_kurtosis`, the paper's constraint),
        and ``nan`` otherwise.  Hits, misses and the touched-window trace
        count exactly as in :meth:`evaluate`.
        """
        return self._evaluate(
            window, self.original_kurtosis if floor is None else floor
        )

    def evaluate(self, window: int) -> WindowEvaluation:
        """Full evaluation of one candidate window, memoized.

        A screened entry is completed (its roughness measured), so callers
        reading ``roughness`` of any window get a number, never ``nan``.
        """
        _validate_window(self.values.size, window)
        return self._evaluate(int(window), None)

    def _evaluate(self, window: int, floor: float | None) -> WindowEvaluation:
        self._touched.add(window)
        cached = self._evaluations.get(window)
        if _answers(cached, floor):
            self.hits += 1
            return cached
        self.misses += 1
        # Single-candidate probes (binary search and streaming revalidation
        # are long runs of them) take the core at one window, from the
        # prepared prefix: bit-identical to the grid kernel, no cumsum each.
        _validate_window(self.values.size, window)
        evaluation = self._measure([window], floor)[0]
        self._evaluations[window] = evaluation
        return evaluation

    def evaluate_many(self, windows) -> list[WindowEvaluation]:
        """Full evaluations for a whole candidate grid, one kernel call for misses."""
        window_list = [int(w) for w in windows]
        self._touched.update(window_list)
        missing = sorted(
            {w for w in window_list if not _answers(self._evaluations.get(w), None)}
        )
        if missing:
            self.misses += len(missing)
            if len(missing) == 1:
                _validate_window(self.values.size, missing[0])
                fresh = self._measure(missing, None)
            else:
                fresh = evaluate_window_grid(self.values, missing)
            self.seed(fresh)
        self.hits += len(window_list) - len(missing)
        return [self._evaluations[w] for w in window_list]

    # -- the prepared series ----------------------------------------------------

    def _prepared(self) -> np.ndarray:
        """The prefix sums of :attr:`values`, computed on first use."""
        if self._prefix is None:
            self._prefix = _prefix_sums(self.values)
        return self._prefix

    def _measure(self, windows: list[int], floor, workspace=None) -> list[WindowEvaluation]:
        """Evaluations of valid int *windows* from the prepared prefix (no memo)."""
        roughness, kurtosis = _moments_from_prefix(
            (self.values,), (self._prepared(),), windows, [0] * len(windows), floor, workspace
        )
        return list(map(WindowEvaluation, windows, roughness, kurtosis))

    def _prefetch(self, windows: list[int], workspace=None) -> None:
        """Install the screened evaluations of *windows* in one stacked call.

        The streaming operator's warm prefetch: *windows* are valid Python
        ints (a probe plan), screened at :attr:`original_kurtosis` exactly as
        :meth:`screen` would screen them, and installed through :meth:`seed`
        — no hit, miss or touched-window accounting.
        *workspace* is the core's optional scratch (see
        :func:`~repro.spectral.convolution.sma_probe_moments`).
        """
        self.seed(self._measure(windows, self.original_kurtosis, workspace))

    def _smoothed(self, window: int) -> np.ndarray:
        """``sma(values, window)`` from the prepared prefix (a valid window)."""
        return _sma_from_prefix(self.values, self._prepared(), window)

    def _release_prefix(self) -> None:
        """Drop the prepared prefix (rebuilt if another evaluation needs it)."""
        self._prefix = None

    def touched_windows(self) -> tuple[int, ...]:
        """Every window a search *requested*, sorted — the warm-start trace.

        Pre-fills via :meth:`seed` are excluded, so a trace replayed across
        refreshes stays tight: probes the previous search never consulted
        drop out instead of being prefetched forever.
        """
        return tuple(sorted(self._touched))

    def __len__(self) -> int:
        return len(self._evaluations)

    def __repr__(self) -> str:
        return (
            f"EvaluationCache(n={self.values.size}, cached={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def smooth_series(series: TimeSeries, window: int, slide: int = 1) -> TimeSeries:
    """Apply SMA to a :class:`TimeSeries`, carrying window-start timestamps."""
    values = sma_with_slide(series.values, window, slide)
    n_out = values.size
    starts = np.arange(n_out) * slide
    return TimeSeries(
        values,
        series.timestamps[starts],
        name=f"{series.name}:sma({window})" if series.name else f"sma({window})",
    )
