"""The multi-series batch engine: ``smooth_many`` over dashboards of series.

The production setting ASAP targets — dashboards charting many metrics at
once — runs the paper's single-series pipeline over hundreds of series per
refresh.  :class:`BatchEngine` executes that workload through the stages of
the single-series pipeline (:func:`repro.core.batch.smooth`), organized so
the batch pays for its shared work once:

* **Batched kernels over ratio cohorts** — for the grid-shaped strategies
  (exhaustive, grid2, grid10), every series is first run through the shared
  pre-aggregation stage
  (:func:`repro.core.preaggregation.prepare_search_input`) and the batch is
  grouped into *ratio cohorts*: series whose searched representations have
  the same length share one candidate grid, so the original-series moments
  and the *entire candidate grid of every cohort member* are computed by
  2-D/3-D array kernels (:func:`repro.spectral.convolution.sma_grid_moments`)
  and handed to each series' search as a pre-filled
  :class:`~repro.core.smoothing.EvaluationCache`.  Ragged batches whose
  members land on the same point-to-pixel ratio — the common dashboard case
  of many same-resolution charts over different history lengths — batch just
  as well as rectangular ones.
* **Memoized searches** — the per-series strategies (ASAP, binary, and
  the grid strategies off the fast path) take each series' ACF analysis,
  :class:`~repro.core.smoothing.EvaluationCache` and search result from an
  :class:`~repro.engine.cache.ACFCache` keyed by searched content.  A series
  is searched once per key: a refresh that resubmits it unchanged runs no
  search step, FFT, moment kernel or candidate SMA, only the result
  assembly.  Serially the whole batch is looked up at once
  (:meth:`~repro.engine.cache.ACFCache.search_states`), so its unseen series
  share stacked FFT calls per searched length.
* **Lockstep cold searches** — on the serial path, the adaptive strategies
  (ASAP, binary) search every *unseen* series of a batch together
  (:func:`search_in_lockstep`): the searches run as step generators
  (:func:`repro.core.search.search_steps`), grouped by searched length, and
  each round the window every live search asks for is evaluated by one
  stacked :func:`~repro.spectral.convolution.sma_probe_moments` call — a
  dozen unseen series cost about as many kernel calls as the longest of
  their searches, not the sum.  Each generator's return value is the
  series' :class:`~repro.core.search.SearchResult`, memoized as it is; a
  singleton of its length is searched alone through
  :func:`~repro.core.search.run_strategy`.
* **One validation, one assembly** — each input is validated and
  preaggregated once, and its result is assembled by the code that ends
  :func:`~repro.core.batch.smooth` (SMA at the chosen window, bucket-start
  timestamps, output moments from the evaluation cache).
* **Worker fan-out** — adaptive strategies and ragged batches can spread
  across a thread or process pool (the lockstep rounds are serial-only).

Because every path runs the same validation, search and assembly code over
the same numbers (the batched kernels are bit-identical to their scalar
counterparts row by row, and a search's result is a pure function of its
key), ``smooth_many`` returns exactly the results of the equivalent Python
loop — ``candidates_evaluated`` included — guaranteed by the equivalence
tests in ``tests/engine``.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..core.acf import ACFAnalysis
from ..core.batch import _assemble, _input_series, smooth
from ..spec import AsapSpec, resolve_spec, spec_backed
from ..core.preaggregation import expected_ratio, prepare_search_input
from ..core.result import SmoothingResult
from ..core.search import (
    ADAPTIVE_STRATEGIES,
    SearchResult,
    resolve_max_window,
    run_strategy,
    search_steps,
)
from ..core.smoothing import EvaluationCache, WindowEvaluation
from ..spectral.convolution import sma_grid_moments, sma_probe_moments
from ..timeseries.series import TimeSeries
from ..timeseries.stats import row_kurtosis
from .cache import ACFCache, _SearchEntry

__all__ = [
    "BatchEngine",
    "BatchResult",
    "BatchStats",
    "smooth_many",
    "prefill_grid_caches",
    "search_in_lockstep",
    "GRID_STRATEGY_STEPS",
]

#: Candidate-grid step per batchable strategy (exhaustive is a step-1 grid).
GRID_STRATEGY_STEPS = {"exhaustive": 1, "grid2": 2, "grid10": 10}


@dataclass(frozen=True)
class BatchStats:
    """Aggregate accounting for one ``smooth_many`` call."""

    n_series: int
    wall_seconds: float
    strategy: str
    workers: int
    executor: str
    used_fast_path: bool
    #: Search-state lookups that resolved an ACF analysis (ASAP strategy
    #: only), split into reuses and fresh analyses.
    acf_cache_hits: int
    acf_cache_misses: int
    #: Ratio cohorts (groups of series sharing one searched length, and
    #: therefore one batched candidate-grid kernel call) in this batch; 0
    #: when the fast path did not run or nothing could be grouped.
    ratio_cohorts: int = 0

    @property
    def series_per_second(self) -> float:
        """Throughput of the call (inf for an instantaneous empty batch)."""
        if self.wall_seconds <= 0.0:
            return float("inf")
        return self.n_series / self.wall_seconds


@dataclass(frozen=True)
class BatchResult:
    """Per-series results plus aggregate stats from one ``smooth_many`` call.

    Results preserve input order; ``labels[i]`` names ``results[i]`` (dict
    keys for mapping inputs, series names or indices otherwise).
    """

    labels: tuple[str, ...]
    results: tuple[SmoothingResult, ...]
    stats: BatchStats

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[SmoothingResult]:
        return iter(self.results)

    def __getitem__(self, key) -> SmoothingResult:
        """The result at an index, or under a label that names one series.

        A label several series share (two :class:`TimeSeries` with one
        ``name``) raises :class:`KeyError` rather than pick one of them;
        index those results by position.
        """
        if isinstance(key, str):
            count = self.labels.count(key)
            if count == 0:
                raise KeyError(key)
            if count > 1:
                raise KeyError(f"label {key!r} is ambiguous: {count} series share it")
            return self.results[self.labels.index(key)]
        return self.results[key]

    def as_dict(self) -> dict[str, SmoothingResult]:
        """Results keyed by label (mapping inputs round-trip through this).

        Raises :class:`ValueError` naming a label several series share,
        instead of silently keeping only the last of them.
        """
        mapping = dict(zip(self.labels, self.results))
        if len(mapping) < len(self.labels):
            duplicated = next(label for label in mapping if self.labels.count(label) > 1)
            raise ValueError(
                f"label {duplicated!r} names {self.labels.count(duplicated)} series; "
                "results cannot be keyed by label (index them by position)"
            )
        return mapping


def _normalize_batch(batch) -> tuple[list[str], list]:
    """Flatten any accepted batch shape into (labels, series items).

    Accepts a 2-D array (rows are series), a sequence of 1-D arrays or
    :class:`TimeSeries`, or a mapping of label -> series.
    """
    if isinstance(batch, Mapping):
        labels = [str(key) for key in batch.keys()]
        return labels, list(batch.values())
    if isinstance(batch, np.ndarray):
        if batch.ndim != 2:
            raise TypeError(
                f"array batches must be 2-D (rows are series), got shape {batch.shape}; "
                "wrap a single series in a list to smooth it"
            )
        return [str(i) for i in range(batch.shape[0])], list(batch)
    if isinstance(batch, (TimeSeries, str, bytes)) or not isinstance(batch, Sequence):
        raise TypeError(
            f"expected a 2-D array, a sequence of series, or a mapping, got "
            f"{type(batch).__name__}; wrap a single series in a list"
        )
    items = list(batch)
    labels = []
    for index, item in enumerate(items):
        if isinstance(item, TimeSeries) and item.name:
            labels.append(item.name)
        else:
            labels.append(str(index))
    return labels, items


def _item_values(item) -> np.ndarray:
    values = item.values if isinstance(item, TimeSeries) else item
    return np.asarray(values, dtype=np.float64)


def _labeled(label: str, index: int, exc: Exception) -> Exception:
    return type(exc)(f"series {label!r} (batch index {index}): {exc}")


def _row_roughness(rows: np.ndarray) -> np.ndarray:
    """Row-wise :func:`repro.timeseries.stats.roughness`, bit for bit."""
    if rows.shape[1] < 2:
        return np.zeros(rows.shape[0], dtype=np.float64)
    diffs = np.diff(rows, axis=1)
    centered = diffs - diffs.mean(axis=1, keepdims=True)
    return np.sqrt(np.mean(centered * centered, axis=1))


def _smooth_one(payload) -> SmoothingResult:
    """Process-pool task: smooth one series with the given configuration."""
    item, kwargs = payload
    return smooth(item, **kwargs)


def prefill_grid_caches(
    searched2d: np.ndarray,
    strategy: str,
    max_window: int | None = None,
) -> list[EvaluationCache]:
    """One pre-filled :class:`EvaluationCache` per row of a rectangular batch.

    For a grid-shaped strategy, the original-series moments and *every*
    candidate evaluation of every row are computed by three batched kernels
    (:func:`~repro.spectral.convolution.sma_grid_moments` and the row-wise
    moment reductions) and installed into per-row caches, so each row's
    subsequent search runs entirely on cache hits.  Values are bit-identical
    to what per-row evaluation would produce (the batched kernels are
    row-independent).  Shared by :class:`BatchEngine`'s fast path and the
    StreamHub's coalesced tick refreshes.

    ``searched2d`` must already be the *searched* representation (i.e. after
    any preaggregation), with at least 4 columns.
    """
    rows = np.asarray(searched2d, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"expected a 2-D batch, got shape {rows.shape}")
    if strategy not in GRID_STRATEGY_STEPS:
        raise ValueError(
            f"strategy {strategy!r} has no fixed candidate grid; "
            f"expected one of {', '.join(GRID_STRATEGY_STEPS)}"
        )
    limit = resolve_max_window(rows[0], max_window)
    grid = list(range(2, limit + 1, GRID_STRATEGY_STEPS[strategy]))

    original_roughness = _row_roughness(rows)
    original_kurtosis = row_kurtosis(rows)
    grid_roughness, grid_kurtosis = sma_grid_moments(rows, grid)

    caches: list[EvaluationCache] = []
    for index in range(rows.shape[0]):
        cache = EvaluationCache(rows[index])
        cache.seed_original(original_roughness[index], original_kurtosis[index])
        cache.seed(
            WindowEvaluation(
                window=window,
                roughness=float(grid_roughness[index, position]),
                kurtosis=float(grid_kurtosis[index, position]),
            )
            for position, window in enumerate(grid)
        )
        caches.append(cache)
    return caches


def search_in_lockstep(
    states, strategy: str, max_window: int | None = None
) -> list[SearchResult | None]:
    """Run the cold searches among *states* in lockstep; return their results.

    *states* are ``(EvaluationCache, ACFAnalysis | None)`` search states of
    an adaptive strategy (``asap``/``binary``), as
    :meth:`~repro.engine.cache.ACFCache.search_state` returns them.  The
    states whose cache is still empty are deduplicated (one cache entry may
    serve several batch members) and grouped by searched length.  Per group
    of two or more:

    * the original moments of every member come from two row-wise
      reductions, bit for bit the single-series ones;
    * every member's search runs as a step generator
      (:func:`~repro.core.search.search_steps`), and each round the window
      every live search requests is evaluated by **one** stacked
      :func:`~repro.spectral.convolution.sma_probe_moments` call, each row
      screened at its member's original kurtosis and bit-identical to the
      single-window kernel the cache would run.

    Each evaluation is also seeded into its member's cache, where the result
    assembly reads the chosen window's moments.  Returns, per state, the
    :class:`~repro.core.search.SearchResult` its generator returned —
    exactly what :func:`~repro.core.search.run_strategy` returns from a cold
    search — or ``None`` for a state it left alone (already searched, or a
    singleton of its length).
    """
    unseen: dict[int, tuple[EvaluationCache, ACFAnalysis | None]] = {}
    for cache, acf in states:
        if len(cache) == 0:
            unseen.setdefault(id(cache), (cache, acf))
    groups: dict[int, list[tuple[EvaluationCache, ACFAnalysis | None]]] = {}
    for cache, acf in unseen.values():
        groups.setdefault(cache.values.size, []).append((cache, acf))

    found: dict[int, SearchResult] = {}
    for members in groups.values():
        if len(members) < 2:
            continue
        batch = np.vstack([cache.values for cache, _ in members])
        for cache, roughness, kurtosis in zip(
            (cache for cache, _ in members), _row_roughness(batch), row_kurtosis(batch)
        ):
            cache.seed_original(roughness, kurtosis)
        # (row, cache, steps, requested window) per live search.
        pending = []
        for row, (cache, acf) in enumerate(members):
            steps = search_steps(strategy, cache, max_window, acf)
            try:
                pending.append((row, cache, steps, next(steps)))
            except StopIteration as done:
                found[id(cache)] = done.value
        while pending:
            roughness, kurtosis = sma_probe_moments(
                batch,
                [window for _, _, _, window in pending],
                rows=[row for row, _, _, _ in pending],
                floor=[cache.original_kurtosis for _, cache, _, _ in pending],
            )
            advanced = []
            for (row, cache, steps, window), rough, kurt in zip(
                pending, roughness.tolist(), kurtosis.tolist()
            ):
                evaluation = WindowEvaluation(window=window, roughness=rough, kurtosis=kurt)
                cache.seed((evaluation,))
                try:
                    advanced.append((row, cache, steps, steps.send(evaluation)))
                except StopIteration as done:
                    found[id(cache)] = done.value
            pending = advanced
    return [found.get(id(cache)) for cache, _ in states]


@spec_backed(*AsapSpec.OPERATOR_FIELDS)
class BatchEngine:
    """A configured multi-series smoothing engine, reusable across refreshes.

    Parameters
    ----------
    resolution, max_window, strategy, use_preaggregation, spec:
        Per-series pipeline configuration, exactly as
        :func:`repro.core.batch.smooth` takes it — kwargs build an
        :class:`~repro.spec.AsapSpec` (or override one passed via ``spec=``),
        so validation and defaults are identical to the single-series path.
    workers:
        Fan the per-series work across this many workers.  ``None``/``0``/
        ``1`` run serially.  Parallelism applies to the adaptive strategies
        (``asap``/``binary``) and to ragged batches; serially, the adaptive
        strategies search a batch's unseen series in lockstep, and the
        grid-shaped strategies on equal-length batches use the batched
        kernels, which beat thread fan-out on any core count.
    executor:
        ``"thread"`` (default; shares the search-state cache) or ``"process"``
        (bypasses the shared cache, worth it only for very large per-series
        work).
    acf_cache_size:
        Capacity of the search-state LRU shared across this engine's calls:
        one entry per (searched content, resolved ``max_window``, strategy),
        holding that series' ACF analysis, candidate evaluations and search
        result, so memory is bounded by entries × searched length.
    """

    def __init__(
        self,
        resolution: int | None = None,
        max_window: int | None = None,
        strategy: str | None = None,
        use_preaggregation: bool | None = None,
        workers: int | None = None,
        executor: str = "thread",
        acf_cache_size: int = 256,
        spec: AsapSpec | None = None,
    ) -> None:
        self.spec = resolve_spec(
            spec,
            resolution=resolution,
            max_window=max_window,
            strategy=strategy,
            use_preaggregation=use_preaggregation,
        )
        if executor not in ("thread", "process"):
            raise ValueError(f"executor must be 'thread' or 'process', got {executor!r}")
        if workers is not None and workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.executor = executor
        self.acf_cache = ACFCache(maxsize=acf_cache_size)

    @classmethod
    def from_spec(cls, spec: AsapSpec, **engine_options) -> "BatchEngine":
        """An engine whose pipeline configuration is *spec*; engine-only
        options (``workers``/``executor``/``acf_cache_size``) ride along."""
        return cls(spec=spec, **engine_options)

    # The knob attributes are installed by @spec_backed: reads come from
    # self.spec, assignment re-merges (and validates).  Every call reads
    # self.spec, so a mutated engine behaves like a freshly constructed one.

    # -- public API -------------------------------------------------------------

    def smooth_many(self, batch) -> BatchResult:
        """Smooth every series in *batch*; results preserve input order.

        Output is bit-identical to ``[smooth(s, ...) for s in batch]`` with
        this engine's configuration, for every strategy and input shape.
        """
        started = time.perf_counter()
        labels, items = _normalize_batch(batch)
        acf_hits_before = self.acf_cache.hits
        acf_misses_before = self.acf_cache.misses

        fast = self._try_fast_path(labels, items)
        if fast is not None:
            (results, cohorts), used_fast_path = fast, True
        else:
            results, cohorts = self._fallback_path(labels, items), 0
            used_fast_path = False

        stats = BatchStats(
            n_series=len(items),
            wall_seconds=time.perf_counter() - started,
            strategy=self.strategy,
            workers=self._effective_workers(),
            executor=self.executor,
            used_fast_path=used_fast_path,
            acf_cache_hits=self.acf_cache.hits - acf_hits_before,
            acf_cache_misses=self.acf_cache.misses - acf_misses_before,
            ratio_cohorts=cohorts,
        )
        return BatchResult(labels=tuple(labels), results=tuple(results), stats=stats)

    def __repr__(self) -> str:
        return (
            f"BatchEngine(resolution={self.resolution}, strategy={self.strategy!r}, "
            f"max_window={self.max_window}, workers={self.workers}, "
            f"executor={self.executor!r})"
        )

    # -- internals --------------------------------------------------------------

    def _effective_workers(self) -> int:
        return self.workers if self.workers and self.workers > 1 else 1

    def _smooth_kwargs(self) -> dict:
        return {"spec": self.spec}

    def _try_fast_path(self, labels, items) -> tuple[list[SmoothingResult], int] | None:
        """Batched-kernel execution over ratio cohorts.

        Eligible when the strategy's candidates form a fixed grid and
        execution is serial.  Every series is run through the shared
        pre-aggregation stage, then grouped by *searched length* (its ratio
        cohort): all members of a cohort share one candidate grid, so their
        original moments and entire candidate evaluations are computed by
        three batched kernels per cohort and installed into pre-filled
        caches.  Cohorts of one get a plain cache (their search evaluates
        through the ordinary kernel — identical values either way); if no
        cohort has at least two members there is nothing to batch and the
        fallback path runs instead.  Returns ``(results, shared_cohorts)``.
        """
        if (
            self.strategy not in GRID_STRATEGY_STEPS
            or self.spec.normalize
            or self._effective_workers() > 1
            or not items
        ):
            return None
        # Cohort shapes are a pure function of each series' length, so the
        # grouping decision costs no data pass: when nothing would batch, the
        # fallback path runs without having aggregated anything here.
        value_rows: list[np.ndarray] = []
        sizes: list[int] = []
        for item in items:
            values = _item_values(item)
            if values.ndim != 1 or values.size < 4:
                return None
            ratio = expected_ratio(values.size, self.resolution, self.use_preaggregation)
            searched_size = values.size // ratio if ratio > 1 else values.size
            if searched_size < 4:
                return None
            value_rows.append(values)
            sizes.append(searched_size)

        cohorts: dict[int, list[int]] = {}
        for index, size in enumerate(sizes):
            cohorts.setdefault(size, []).append(index)
        if max(len(indices) for indices in cohorts.values()) < 2:
            return None

        # The shared pipeline stage — bit-identical to the pass smooth()
        # itself would run, which is what lets the pre-filled caches be
        # handed straight to the per-series pipeline.
        searched_rows = [
            prepare_search_input(values, self.resolution, self.use_preaggregation).values
            for values in value_rows
        ]
        caches: dict[int, EvaluationCache] = {}
        shared_cohorts = 0
        for indices in cohorts.values():
            if len(indices) < 2:
                index = indices[0]
                caches[index] = EvaluationCache(searched_rows[index])
                continue
            stacked = np.vstack([searched_rows[i] for i in indices])
            cohort_caches = prefill_grid_caches(stacked, self.strategy, max_window=self.max_window)
            for index, cache in zip(indices, cohort_caches):
                caches[index] = cache
            shared_cohorts += 1

        results: list[SmoothingResult] = []
        kwargs = self._smooth_kwargs()
        for index, (label, item) in enumerate(zip(labels, items)):
            try:
                results.append(smooth(item, cache=caches[index], **kwargs))
            except ValueError as exc:
                raise _labeled(label, index, exc) from exc
        return results, shared_cohorts

    def _fallback_path(self, labels, items) -> list[SmoothingResult]:
        """Per-series execution: serial, thread pool, or process pool."""
        workers = self._effective_workers()

        if workers <= 1:
            return self._serial_path(labels, items)

        if self.executor == "process":
            payloads = [(item, self._smooth_kwargs()) for item in items]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_smooth_one, payload) for payload in payloads]
                return self._collect(labels, futures)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(self._smooth_labeled, label, index, item)
                for index, (label, item) in enumerate(zip(labels, items))
            ]
            return [future.result() for future in futures]

    def _serial_path(self, labels, items) -> list[SmoothingResult]:
        """Serial execution: lockstep cold searches, then each series assembled.

        The batch's search states come from one lookup
        (:meth:`_search_states`).  The adaptive strategies' cold searches run
        in lockstep (:func:`search_in_lockstep`), and their results are
        memoized on the states.  :meth:`_finish` then searches whatever the
        lockstep left (singletons of their length, the grid strategies) and
        assembles every series in input order, so the first failing index
        raises.
        """
        prepared = self._search_states(items)
        if self.strategy in ADAPTIVE_STRATEGIES:
            entries = [s[2] for s in prepared if isinstance(s, tuple)]
            cold = [e for e in entries if isinstance(e, _SearchEntry) and e.result is None]
            found = search_in_lockstep(
                [(entry.cache, entry.acf) for entry in cold], self.strategy, self.max_window
            )
            for entry, result in zip(cold, found):
                entry.result = result  # None: left to _finish's own search
        results = []
        for index, (label, state) in enumerate(zip(labels, prepared)):
            try:
                if isinstance(state, Exception):
                    raise state
                results.append(self._finish(*state))
            except ValueError as exc:
                raise _labeled(label, index, exc) from exc
        return results

    def _search_states(self, items) -> list:
        """Every item's ``(series, ratio, state)``, or its error, in order.

        Every item is validated and preaggregated first (:meth:`_search_request`;
        an input that step rejects keeps its error, raised when its turn
        comes, so the first failing index still wins), and the memoizable
        states come from one lookup of the entries behind
        :meth:`~repro.engine.cache.ACFCache.search_states`, whose ACF misses
        share stacked FFT calls per searched length.
        A state is an LRU entry, or the searched values themselves when they
        get none.  The searched values of LRU entries are dropped on return:
        the entries hold their own copies.
        """
        requests: list = []
        for item in items:
            try:
                requests.append(self._search_request(item))
            except Exception as exc:
                requests.append(exc)
        memoized = [r[2:] for r in requests if isinstance(r, tuple) and r[3] is not None]
        found = iter(self.acf_cache._lookup(memoized, self.strategy))
        prepared: list = []
        for request in requests:
            if not isinstance(request, tuple):
                prepared.append(request)
                continue
            series, ratio, searched, ceiling = request
            prepared.append((series, ratio, searched if ceiling is None else next(found)))
        return prepared

    def _collect(self, labels, futures: list[Future]) -> list[SmoothingResult]:
        results = []
        for index, (label, future) in enumerate(zip(labels, futures)):
            try:
                results.append(future.result())
            except ValueError as exc:
                raise _labeled(label, index, exc) from exc
        return results

    def _smooth_labeled(self, label, index, item) -> SmoothingResult:
        try:
            series, ratio, searched, ceiling = self._search_request(item)
            state = searched
            if ceiling is not None:
                state = self.acf_cache._lookup([(searched, ceiling)], self.strategy)[0]
            return self._finish(series, ratio, state)
        except ValueError as exc:
            raise _labeled(label, index, exc) from exc

    def _search_request(self, item) -> tuple[TimeSeries | None, int, np.ndarray, int | None]:
        """``(series, ratio, searched values, max_window)`` of one input.

        The input is validated here, once, exactly as :func:`smooth`
        validates it (the same code, so the same errors), and preaggregated
        exactly as the pipeline would.  The searched values and the resolved
        *max_window* key the engine-wide :class:`~repro.engine.cache.ACFCache`:
        a series seen before gets back its ACF analysis, its evaluation cache
        and the result its earlier search returned, so it runs no search at
        all; an unseen one gets a fresh state its search fills.  Either way
        the state holds precisely what the series' own search would derive,
        preserving the equivalence guarantee.  Searched values a search would
        reject (fewer than 4) or that are not finite, and inputs the quality
        stage rewrites (``normalize``), get no state: *max_window* is
        ``None``, and :meth:`_finish` searches them from scratch as
        :func:`smooth` does.
        """
        values, series = _input_series(item, self.spec)
        staged = prepare_search_input(values, self.resolution, self.use_preaggregation)
        searched = staged.values
        ceiling = None
        if not self.spec.normalize and searched.size >= 4 and np.isfinite(searched).all():
            ceiling = resolve_max_window(searched, self.max_window)
        return series, staged.ratio, searched, ceiling

    def _finish(self, series, ratio: int, state) -> SmoothingResult:
        """Search *state* unless its result is memoized, then assemble.

        *state* is an LRU entry (its search runs at most once per key, through
        :func:`~repro.core.search.run_strategy`, and the result is memoized)
        or bare searched values, searched in a throwaway state.  Two threads
        that meet one unsearched entry may both search it; they store equal
        results, as their searches fill its cache with equal evaluations.
        """
        if not isinstance(state, _SearchEntry):
            state = _SearchEntry(EvaluationCache(state))
        if state.result is None:
            state.result = run_strategy(
                self.strategy, state.cache.values, self.max_window,
                cache=state.cache, acf=state.acf,
            )
        return _assemble(series, state.cache, ratio, state.result)


def smooth_many(
    batch,
    resolution: int | None = None,
    max_window: int | None = None,
    strategy: str | None = None,
    use_preaggregation: bool | None = None,
    workers: int | None = None,
    executor: str = "thread",
    spec: AsapSpec | None = None,
) -> BatchResult:
    """Smooth a whole batch of series in one call.

    Accepts a 2-D array (rows are series), a list of arrays or
    :class:`~repro.timeseries.TimeSeries`, or a dict of label -> series, and
    returns a :class:`BatchResult` whose per-series
    :class:`~repro.core.result.SmoothingResult`\\ s are bit-identical to
    calling :func:`repro.core.batch.smooth` on each series in a loop — at a
    fraction of the cost for grid-shaped strategies, whose candidate
    evaluations are batched into single vectorized kernel calls.

    Construct a :class:`BatchEngine` directly to keep the search-state cache
    warm across refreshes.

    >>> import numpy as np
    >>> from repro.engine import smooth_many
    >>> batch = np.sin(np.arange(2000) / 20.0) + np.zeros((3, 1))
    >>> result = smooth_many(batch, resolution=200)
    >>> [r.window >= 1 for r in result]
    [True, True, True]
    """
    engine = BatchEngine(
        resolution=resolution,
        max_window=max_window,
        strategy=strategy,
        use_preaggregation=use_preaggregation,
        workers=workers,
        executor=executor,
        spec=spec,
    )
    return engine.smooth_many(batch)
