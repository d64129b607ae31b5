"""Window-search strategies (Section 4, Algorithms 1 and 2).

All strategies solve the same problem:

    minimize  roughness(SMA(X, w))
    subject to  Kurt[SMA(X, w)] >= Kurt[X]

over integer windows ``w`` in ``[1, max_window]`` (``w = 1`` is the always-
feasible "leave it unsmoothed" answer).  They differ in which candidates they
evaluate:

* :func:`exhaustive_search` — every window (the O(N^2) strawman, Section 4.1);
* :func:`grid_search` — every ``step``-th window (Grid2/Grid10 in Figure 8);
* :func:`binary_search` — bisection on the kurtosis constraint, justified for
  IID data by Equations 2 and 4 (Section 4.2);
* :func:`asap_search` — Algorithm 2: evaluate autocorrelation peaks from
  large to small with the two pruning rules of Algorithm 1 (lower-bound via
  Equation 6, roughness-estimate via Equation 5), then binary-search the gap
  above the largest feasible peak; falls back to plain binary search for
  aperiodic series.

Candidate evaluation flows through a shared
:class:`~repro.core.smoothing.EvaluationCache`: the grid-shaped strategies
(exhaustive, grid) hand their entire candidate list to one vectorized kernel
call, the adaptive strategies (binary, ASAP) evaluate on demand through the
same kernel, and callers (:func:`repro.core.batch.smooth`, the streaming
operator, the batch engine) may pass a pre-filled cache to share work.

The adaptive strategies are written once, as *step generators*
(:func:`search_steps`): a generator runs the search over the cache, takes
every cached evaluation itself (through the cache's hit accounting), and
yields each window it still needs, receiving that window's
:class:`~repro.core.smoothing.WindowEvaluation` back.  :func:`asap_search`
and :func:`binary_search` drive their generator with the cache's
single-window ``screen``; the batch engine drives many generators in
lockstep and answers each round of requests with one stacked kernel call.
Either way the search makes the same decisions over the same numbers.

The adaptive searches evaluate *constraint-first*, as Algorithms 1-2 read:
kurtosis for every candidate, roughness only for candidates that meet the
original kurtosis (most do not).  An infeasible candidate's roughness is
``nan`` and never read, so the decisions and results are those of a search
that measured both.

Every strategy reports how many candidates it actually considered
(``candidates_evaluated``), the quantity Table 2 compares; memoization never
changes that count — it only removes redundant kernel work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator

import numpy as np

from .acf import ACFAnalysis, analyze_acf, default_max_lag
from .metrics import estimate_is_rougher
from .smoothing import EvaluationCache, WindowEvaluation

__all__ = [
    "SearchResult",
    "SearchState",
    "exhaustive_search",
    "grid_search",
    "binary_search",
    "asap_search",
    "search_periodic",
    "search_steps",
    "resolve_max_window",
    "plan_warm_probes",
    "ADAPTIVE_STRATEGIES",
    "GRID_STRATEGY_STEPS",
    "STRATEGIES",
    "run_strategy",
]

#: Strategies whose candidate set is data-dependent (bisection paths, ACF
#: peaks) rather than a fixed grid.  These are the strategies that benefit
#: from warm-started probe prefetching: a fixed-grid strategy already charges
#: its whole candidate set to one vectorized kernel call.
ADAPTIVE_STRATEGIES = ("asap", "binary")

#: The fixed-grid strategies and their candidate step: every ``step``-th
#: window from 2 (exhaustive search is the step-1 grid).
GRID_STRATEGY_STEPS = {"exhaustive": 1, "grid2": 2, "grid10": 10}


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a window search over one series."""

    window: int
    roughness: float
    kurtosis: float
    candidates_evaluated: int
    strategy: str
    max_window: int

    @property
    def smoothed(self) -> bool:
        """Whether any smoothing beyond the identity window was selected."""
        return self.window > 1


@dataclass
class SearchState:
    """Mutable search state — the ``opt`` record threaded through Algorithm 1.

    ``window = 1`` (the unsmoothed series) is the initial incumbent: it is
    always feasible because ``Kurt[X] >= Kurt[X]``.  ``lower_bound`` is the
    Equation 6 pruning floor; ``largest_feasible_peak`` tracks where the
    follow-up binary search should start.
    """

    window: int = 1
    roughness: float = math.inf
    lower_bound: int = 1
    largest_feasible_idx: int = -1
    candidates_evaluated: int = 0
    original_kurtosis: float = 0.0

    @classmethod
    def from_cache(cls, cache: EvaluationCache) -> "SearchState":
        """Initial state whose incumbent moments come from the shared cache."""
        return cls(
            window=1,
            roughness=cache.original_roughness,
            original_kurtosis=cache.original_kurtosis,
        )

    def consider(self, evaluation) -> bool:
        """Record one evaluated candidate; return whether it is feasible.

        A feasible candidate rougher than the incumbent is still feasible:
        the searches steer on feasibility, and improvement only moves the
        incumbent.
        """
        self.candidates_evaluated += 1
        if not evaluation.is_feasible(self.original_kurtosis):
            return False
        if evaluation.roughness < self.roughness:
            self.window = evaluation.window
            self.roughness = evaluation.roughness
        return True

    def to_result(self, strategy: str, max_window: int) -> SearchResult:
        return SearchResult(
            window=self.window,
            roughness=self.roughness,
            kurtosis=self.original_kurtosis,
            candidates_evaluated=self.candidates_evaluated,
            strategy=strategy,
            max_window=max_window,
        )


def resolve_max_window(values, max_window: int | None) -> int:
    """The searchable window ceiling: the paper's n/10 default, capped at n-1.

    Shared by every strategy and by the batch engine (which must replicate
    the exact ceiling to pre-compute ACF analyses the searches will accept).
    """
    n = np.asarray(values).size
    if n < 4:
        raise ValueError(f"search needs at least 4 points, got {n}")
    resolved = default_max_lag(n) if max_window is None else max_window
    if resolved < 2:
        raise ValueError(f"max_window must be >= 2, got {resolved}")
    return min(resolved, n - 1)


def _resolve_cache(values, cache: EvaluationCache | None) -> EvaluationCache:
    return EvaluationCache(values) if cache is None else cache


def plan_warm_probes(
    trace, previous_window: int | None, limit: int
) -> list[int]:
    """The candidate windows a warm-started search should prefetch.

    *trace* is the previous refresh's touched-window trace
    (:meth:`~repro.core.smoothing.EvaluationCache.touched_windows`);
    *previous_window* the window it selected; *limit* the current search
    ceiling (:func:`resolve_max_window`).  The plan is the trace plus the
    previous window and its immediate neighbors — streaming windows drift
    slowly, so the new search's bisection path and peak probes almost always
    land inside this set — clipped to the valid range ``[2, limit]`` and
    deduplicated, sorted ascending.

    Prefetching these through one stacked kernel call (the core of
    :func:`~repro.spectral.convolution.sma_probe_moments`, run on the
    refresh's prepared prefix by the evaluation cache) and replaying the
    ordinary search over the pre-filled cache leaves the search's decisions —
    and therefore the selected window and emitted frame — bit-identical to a
    cold search; only the kernel dispatch count changes.  A probe the new
    search does not request is a few wasted rows in the stacked call; a probe
    it needs but the plan lacks falls through to an ordinary single-window
    evaluation (the fallback the streaming operator counts).
    """
    candidates: set[int] = set()
    if trace is not None:
        candidates.update(int(w) for w in trace)
    if previous_window is not None:
        candidates.update((previous_window - 1, previous_window, previous_window + 1))
    return sorted(w for w in candidates if 2 <= w <= limit)


# -- baseline strategies -----------------------------------------------------


def exhaustive_search(
    values,
    max_window: int | None = None,
    *,
    cache: EvaluationCache | None = None,
    acf: ACFAnalysis | None = None,
) -> SearchResult:
    """Evaluate every window in ``[2, max_window]`` (Section 4.1 strawman).

    All candidates are evaluated by one vectorized kernel call; *acf* is
    accepted for strategy-signature uniformity and ignored.
    """
    cache = _resolve_cache(values, cache)
    limit = resolve_max_window(cache.values, max_window)
    state = SearchState.from_cache(cache)
    for evaluation in cache.evaluate_many(range(2, limit + 1)):
        state.consider(evaluation)
    return state.to_result("exhaustive", limit)


def grid_search(
    values,
    step: int,
    max_window: int | None = None,
    *,
    cache: EvaluationCache | None = None,
    acf: ACFAnalysis | None = None,
) -> SearchResult:
    """Evaluate every *step*-th window — Grid2/Grid10 of Figure 8.

    Roughness is not monotonic in window length for periodic data, so a
    coarse grid can (and in the paper's Figure 8, does) miss the optimum.
    The whole grid is evaluated by one vectorized kernel call.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    cache = _resolve_cache(values, cache)
    limit = resolve_max_window(cache.values, max_window)
    state = SearchState.from_cache(cache)
    for evaluation in cache.evaluate_many(range(2, limit + 1, step)):
        state.consider(evaluation)
    return state.to_result(f"grid{step}", limit)


def binary_search(
    values,
    max_window: int | None = None,
    *,
    cache: EvaluationCache | None = None,
    acf: ACFAnalysis | None = None,
) -> SearchResult:
    """Bisect on the kurtosis constraint (Section 4.2).

    Sound for IID data, where roughness decreases and kurtosis moves
    monotonically toward 3 with window size; used by ASAP as the fallback
    for aperiodic series and as Figure 8's `Binary` baseline.
    """
    cache = _resolve_cache(values, cache)
    state = SearchState.from_cache(cache)
    return _drive(search_steps("binary", cache, max_window, state=state), cache, state)


#: A search step generator: yields each window it needs evaluated, receives
#: that window's evaluation, and returns its result (or state) when done.
SearchSteps = Generator[int, WindowEvaluation, SearchResult]


def _drive(steps: Generator, cache: EvaluationCache, state: SearchState):
    """Run *steps* to completion, screening each request through *cache*.

    Requests are screened at *state*'s original kurtosis, the threshold its
    ``consider`` applies, so every feasible evaluation carries a measured
    roughness even when *state* was built with a lower threshold than the
    cache's.
    """
    floor = state.original_kurtosis
    try:
        window = next(steps)
        while True:
            window = steps.send(cache.screen(window, floor))
    except StopIteration as done:
        return done.value


def _bisection_steps(
    cache: EvaluationCache, head: int, tail: int, state: SearchState
) -> Generator[int, WindowEvaluation, None]:
    """Shared bisection: feasible midpoints push the search to larger windows."""
    while head <= tail:
        window = (head + tail) // 2
        evaluation = cache.lookup(window, state.original_kurtosis)
        if evaluation is None:
            evaluation = yield window
        if state.consider(evaluation):
            head = window + 1
        else:
            tail = window - 1


def _binary_steps(cache: EvaluationCache, limit: int, state: SearchState) -> SearchSteps:
    yield from _bisection_steps(cache, 2, limit, state)
    return state.to_result("binary", limit)


# -- ASAP (Algorithms 1 and 2) ------------------------------------------------


def _update_lower_bound(state: SearchState, window: int, acf: ACFAnalysis) -> None:
    """Algorithm 1's ``UPDATELB`` — Equation 6.

    Once *window* is feasible with autocorrelation ``a``, any smaller window
    ``w'`` can only beat it if ``w' > window * sqrt((1 - maxACF) / (1 - a))``.
    """
    acf_here = acf.correlation_at(window)
    if acf_here >= 1.0:
        bound = window
    else:
        bound = int(window * math.sqrt((1.0 - acf.max_acf) / (1.0 - acf_here)))
    state.lower_bound = max(state.lower_bound, bound)


def search_periodic(
    values,
    candidates,
    acf: ACFAnalysis,
    state: SearchState,
    cache: EvaluationCache | None = None,
) -> SearchState:
    """Algorithm 1: evaluate candidate windows from large to small with pruning.

    Pruning rules:
    * **lower bound** (Equation 6) — stop once candidates fall below the
      floor established by earlier feasible windows;
    * **roughness estimate** (Equation 5 via ``ISROUGHER``) — skip candidates
      whose estimated roughness already exceeds the incumbent's.

    One deliberate refinement over the paper's printed pseudocode: kurtosis
    feasibility updates the lower bound and ``largest_feasible_idx`` even when
    the candidate does not improve on the incumbent roughness — feasibility
    and improvement are independent facts, and conflating them (as the
    printed conjunction does) weakens pruning without changing the result.
    """
    cache = _resolve_cache(values, cache)
    windows = [int(window) for window in candidates]
    return _drive(_periodic_steps(cache, windows, acf, state), cache, state)


def _periodic_steps(
    cache: EvaluationCache, candidates: list[int], acf: ACFAnalysis, state: SearchState
) -> Generator[int, WindowEvaluation, SearchState]:
    """Algorithm 1 as a step generator; see :func:`search_periodic`."""
    size = cache.values.size
    for index in range(len(candidates) - 1, -1, -1):
        window = candidates[index]
        if window < state.lower_bound:
            break
        if window < 2 or window > size - 1:
            continue
        if estimate_is_rougher(
            window,
            acf.correlation_at(window),
            state.window,
            acf.correlation_at(state.window),
        ):
            continue
        evaluation = cache.lookup(window, state.original_kurtosis)
        if evaluation is None:
            evaluation = yield window
        if state.consider(evaluation):
            _update_lower_bound(state, window, acf)
            state.largest_feasible_idx = max(state.largest_feasible_idx, index)
    return state


def asap_search(
    values,
    max_window: int | None = None,
    acf: ACFAnalysis | None = None,
    state: SearchState | None = None,
    *,
    cache: EvaluationCache | None = None,
) -> SearchResult:
    """Algorithm 2: ACF-peak search plus gap binary search.

    Parameters
    ----------
    values:
        The (typically preaggregated) series to search.
    max_window:
        Upper bound on windows; defaults to one tenth of the series length,
        the paper's experimental setting.
    acf:
        Precomputed ACF analysis, e.g. maintained incrementally by the
        streaming operator or shared across refreshes by the batch engine's
        LRU cache; computed here when absent.
    state:
        Seed search state, used by streaming ASAP to carry the previous
        frame's feasible window into the new search (Section 4.5).
    cache:
        Shared evaluation cache; created when absent.
    """
    cache = _resolve_cache(values, cache)
    if state is None:
        state = SearchState.from_cache(cache)
    return _drive(search_steps("asap", cache, max_window, acf, state), cache, state)


def _asap_steps(
    cache: EvaluationCache, limit: int, acf: ACFAnalysis, state: SearchState
) -> SearchSteps:
    """Algorithm 2 as a step generator; see :func:`asap_search`."""
    peaks = [p for p in acf.peaks if 2 <= p <= limit]
    if acf.is_periodic and peaks:
        yield from _periodic_steps(cache, peaks, acf, state)
        if state.largest_feasible_idx >= 0:
            feasible_peak = peaks[state.largest_feasible_idx]
            if state.largest_feasible_idx + 1 < len(peaks):
                tail = peaks[state.largest_feasible_idx + 1]
            else:
                tail = limit
            head = max(state.lower_bound, feasible_peak + 1)
        else:
            head, tail = 2, limit
        yield from _bisection_steps(cache, head, min(tail, limit), state)
    else:
        yield from _bisection_steps(cache, 2, limit, state)
    return state.to_result("asap", limit)


def search_steps(
    strategy: str,
    cache: EvaluationCache,
    max_window: int | None = None,
    acf: ACFAnalysis | None = None,
    state: SearchState | None = None,
) -> SearchSteps:
    """The step generator of an adaptive strategy (``asap`` or ``binary``).

    The generator runs the strategy over *cache*: it takes every evaluation
    the cache already holds (counted as cache hits) and yields each window it
    still needs; send it that window's
    :class:`~repro.core.smoothing.WindowEvaluation`.  Its return value
    (``StopIteration.value``) is the :class:`SearchResult`.  Driving it with
    ``cache.screen(window, floor)``, where *floor* is the state's original
    kurtosis (the cache's when *state* is ``None``), is exactly
    :func:`run_strategy`; a caller that answers the requests some other way
    (the batch engine's lockstep rounds) must answer with the values that
    call would produce — roughness may be ``nan`` below the floor, since the
    search never reads it there.  *acf* is computed when absent (``asap``
    only); *state* seeds the search as in :func:`asap_search`.
    """
    if strategy not in ADAPTIVE_STRATEGIES:
        raise ValueError(
            f"strategy {strategy!r} has no step generator; expected one of "
            f"{', '.join(ADAPTIVE_STRATEGIES)}"
        )
    limit = resolve_max_window(cache.values, max_window)
    if strategy == "asap" and acf is None:
        acf = analyze_acf(cache.values, max_lag=limit)
    if state is None:
        state = SearchState.from_cache(cache)
    if strategy == "binary":
        return _binary_steps(cache, limit, state)
    return _asap_steps(cache, limit, acf, state)


def _grid_strategy(step: int):
    if step == 1:
        return exhaustive_search
    return lambda values, max_window=None, **kwargs: grid_search(
        values, step, max_window, **kwargs
    )


#: Strategy registry for the Figure 8/9 sweeps: name -> callable with the
#: uniform signature ``(values, max_window=None, *, cache=None, acf=None)``.
STRATEGIES = {
    **{name: _grid_strategy(step) for name, step in GRID_STRATEGY_STEPS.items()},
    "binary": binary_search,
    "asap": lambda values, max_window=None, *, cache=None, acf=None: asap_search(
        values, max_window, acf=acf, cache=cache
    ),
}


def run_strategy(
    name: str,
    values,
    max_window: int | None = None,
    *,
    cache: EvaluationCache | None = None,
    acf: ACFAnalysis | None = None,
) -> SearchResult:
    """Run a registered strategy by name.

    *cache* and *acf* are forwarded to the strategy: a shared
    :class:`~repro.core.smoothing.EvaluationCache` avoids re-evaluating
    candidates across calls, and a precomputed ACF analysis (only consumed by
    the ASAP strategy) lets the batch engine amortize the FFT across
    refreshes.
    """
    try:
        strategy = STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; available: {', '.join(STRATEGIES)}"
        ) from None
    return strategy(values, max_window, cache=cache, acf=acf)
