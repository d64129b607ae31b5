"""The multi-series batch engine: ``smooth_many`` over dashboards of series.

The production setting ASAP targets — dashboards charting many metrics at
once — runs the paper's single-series pipeline over hundreds of series per
refresh.  :class:`BatchEngine` executes that workload through the stages of
the single-series pipeline (:func:`repro.core.batch.smooth`), organized so
the batch pays for its shared work once:

* **Memoized searches** — every strategy takes each series' ACF analysis,
  :class:`~repro.core.smoothing.EvaluationCache` and search result from an
  :class:`~repro.engine.cache.ACFCache` keyed by searched content.  A series
  is searched once per key: a refresh that resubmits it unchanged runs no
  search step, FFT, moment kernel or candidate SMA, only the result
  assembly.  Serially the whole batch is looked up at once
  (:meth:`~repro.engine.cache.ACFCache.lookup`), so its unseen series share
  stacked FFT calls per searched length.
* **Lockstep cold searches** — on the serial path, every *unseen* series
  of a batch is searched together with the others of its searched length
  (:func:`search_in_lockstep`).  The adaptive strategies (ASAP, binary) run
  as step generators (:func:`repro.core.search.search_steps`), and each
  round the window every live search asks for is evaluated by one stacked
  kernel call over the group's prefix sums, prepared once — a dozen
  unseen series cost about as many kernel calls as the longest of their
  searches, not the sum; each generator's return value is the series'
  :class:`~repro.core.search.SearchResult`, memoized as it is.  The grid
  strategies (exhaustive, grid2, grid10) know their whole plan up front, so
  a group takes one round: its members x candidate grid, stacked through
  the same core in chunks under its element budget, after which each
  search runs on cache hits.  A singleton of its length is searched alone
  through :func:`~repro.core.search.run_strategy`.
* **One validation, one assembly** — each input is validated and
  preaggregated once, and its result is assembled by the code that ends
  :func:`~repro.core.batch.smooth` (SMA at the chosen window, bucket-start
  timestamps, output moments from the evaluation cache).
* **Worker fan-out** — the per-series work can spread across a thread or
  process pool (the lockstep rounds are serial-only).

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

from ..core.batch import _assemble, _input_series, smooth
from ..spec import AsapSpec, resolve_spec, spec_backed
from ..core.preaggregation import prepare_search_input
from ..core.result import SmoothingResult
from ..core.search import (
    GRID_STRATEGY_STEPS,
    resolve_max_window,
    run_strategy,
    search_steps,
)
from ..core.smoothing import EvaluationCache, WindowEvaluation
from ..spectral.convolution import _grid_chunks, _moments_from_prefix, _prefix_sums
from ..timeseries.series import TimeSeries
from ..timeseries.stats import row_kurtosis, row_roughness
from .cache import ACFCache, SearchEntry

__all__ = [
    "BatchEngine",
    "BatchResult",
    "BatchStats",
    "smooth_many",
    "search_in_lockstep",
]


@dataclass(frozen=True)
class BatchStats:
    """Aggregate accounting for one ``smooth_many`` call."""

    n_series: int
    wall_seconds: float
    strategy: str
    workers: int
    executor: str
    #: Search-state lookups that resolved an ACF analysis (ASAP strategy
    #: only), split into reuses and fresh analyses.
    acf_cache_hits: int
    acf_cache_misses: int

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


def _labeled(label: str, index: int, exc: Exception) -> Exception:
    return type(exc)(f"series {label!r} (batch index {index}): {exc}")


def _smooth_one(payload) -> SmoothingResult:
    """Process-pool task: smooth one series with the given configuration."""
    item, kwargs = payload
    return smooth(item, **kwargs)


def search_in_lockstep(entries, strategy: str, max_window: int | None = None) -> None:
    """Run the cold searches among *entries* in lockstep; memoize their results.

    *entries* are :class:`~repro.engine.cache.SearchEntry` search states, as
    :meth:`~repro.engine.cache.ACFCache.lookup` returns them.  The cold ones
    (no result, an empty cache) are deduplicated (one entry may serve
    several batch members) and grouped by searched length.  Per group of two
    or more, the original moments of every member come from two row-wise
    reductions, bit for bit the single-series ones, and the group's stacked
    prefix sums are prepared once for the prepared-prefix core of
    :mod:`repro.spectral.convolution`; then:

    * an adaptive strategy (``asap``/``binary``) runs every member's search
      as a step generator (:func:`~repro.core.search.search_steps`).  With
      its per-row kurtosis floors (each member's original kurtosis) and one
      scratch workspace, each round the window every live search requests
      is evaluated by **one** core call — what
      :func:`~repro.spectral.convolution.sma_probe_moments` computes with
      ``rows=``, minus its per-call validation, copy and ``cumsum`` — each
      row screened at its member's floor and bit-identical to the
      single-window kernel the cache would run;
    * a grid strategy (exhaustive, grid2, grid10) has a fixed plan, so the
      group's members x candidate grid is one stack of full evaluations,
      measured by one core call per chunk under the core's element budget
      (:func:`~repro.spectral.convolution._grid_chunks`), bit-identical to
      the cache's own :meth:`~repro.core.smoothing.EvaluationCache.evaluate_many`.

    Each evaluation is seeded into its member's cache, where a search of
    that cache finds it and the result assembly reads the chosen window's
    moments.  An adaptive member's ``result`` is set to the
    :class:`~repro.core.search.SearchResult` its generator returned —
    exactly what :func:`~repro.core.search.run_strategy` returns from a cold
    search.  Every other entry's ``result`` is left as it was, and its
    search to the caller (already searched, a singleton of its length, or a
    grid strategy's member, whose search then runs on cache hits alone).
    The prepared prefix lives only for the group's rounds: no entry keeps it.
    """
    unseen = {
        id(entry): entry
        for entry in entries
        if entry.result is None and len(entry.cache) == 0
    }
    groups: dict[int, list[SearchEntry]] = {}
    for entry in unseen.values():
        groups.setdefault(entry.cache.values.size, []).append(entry)

    for members in groups.values():
        if len(members) < 2:
            continue
        batch = np.vstack([entry.cache.values for entry in members])
        for entry, roughness, kurtosis in zip(members, row_roughness(batch), row_kurtosis(batch)):
            entry.cache.seed_original(roughness, kurtosis)
        rows = list(batch)
        prefixes = list(_prefix_sums(batch))
        if strategy in GRID_STRATEGY_STEPS:
            limit = resolve_max_window(batch[0], max_window)
            grid = list(range(2, limit + 1, GRID_STRATEGY_STEPS[strategy]))
            # Member-major stack: output i is member i // len(grid) at
            # window grid[i % len(grid)].
            windows = grid * len(members)
            stack_rows = [row for row in range(len(members)) for _ in grid]
            roughness, kurtosis = [], []
            workspace, chunks = _grid_chunks(len(windows), batch.shape[1])
            for chunk in chunks:
                rough, kurt = _moments_from_prefix(
                    rows, prefixes, windows[chunk], stack_rows[chunk], None, workspace
                )
                roughness += rough
                kurtosis += kurt
            for row, entry in enumerate(members):
                span = slice(row * len(grid), (row + 1) * len(grid))
                entry.cache.seed(map(WindowEvaluation, grid, roughness[span], kurtosis[span]))
            continue
        floors = [entry.cache.original_kurtosis for entry in members]
        # Each live search asks for one window a round, so a round has at
        # most one output per member.
        workspace = np.empty((2, len(members), batch.shape[1]), dtype=np.float64)
        # (row, entry, steps, requested window) per live search.
        pending = []
        for row, entry in enumerate(members):
            steps = search_steps(strategy, entry.cache, max_window, entry.acf)
            try:
                pending.append((row, entry, steps, next(steps)))
            except StopIteration as done:
                entry.result = done.value
        while pending:
            live_rows = [row for row, _, _, _ in pending]
            roughness, kurtosis = _moments_from_prefix(
                rows,
                prefixes,
                [window for _, _, _, window in pending],
                live_rows,
                [floors[row] for row in live_rows],
                workspace,
            )
            advanced = []
            for (row, entry, steps, window), rough, kurt in zip(pending, roughness, kurtosis):
                evaluation = WindowEvaluation(window, rough, kurt)
                entry.cache.seed((evaluation,))
                try:
                    advanced.append((row, entry, steps, steps.send(evaluation)))
                except StopIteration as done:
                    entry.result = done.value
            pending = advanced


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
        ``1`` run serially, searching a batch's unseen series in lockstep
        (:func:`search_in_lockstep`).
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

        results = self._execute(labels, items)
        stats = BatchStats(
            n_series=len(items),
            wall_seconds=time.perf_counter() - started,
            strategy=self.strategy,
            workers=self._effective_workers(),
            executor=self.executor,
            acf_cache_hits=self.acf_cache.hits - acf_hits_before,
            acf_cache_misses=self.acf_cache.misses - acf_misses_before,
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

    def _execute(self, labels, items) -> list[SmoothingResult]:
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
        (:meth:`_search_states`).  The cold searches run in lockstep
        (:func:`search_in_lockstep`), and their results are memoized on the
        states.  :meth:`_finish` then searches whatever the lockstep left
        (singletons of their length; the grid strategies, over their
        pre-evaluated grids) and assembles every series in input order, so
        the first failing index raises.
        """
        prepared = self._search_states(items)
        entries = [s[2] for s in prepared if isinstance(s, tuple) and isinstance(s[2], SearchEntry)]
        search_in_lockstep(entries, self.strategy, self.max_window)
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
        states come from one :meth:`~repro.engine.cache.ACFCache.lookup`,
        whose ACF misses share stacked FFT calls per searched length.
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
        found = iter(self.acf_cache.lookup(memoized, self.strategy))
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
                state = self.acf_cache.lookup([(searched, ceiling)], self.strategy)[0]
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
        if not isinstance(state, SearchEntry):
            state = SearchEntry(EvaluationCache(state))
        if state.result is None:
            state.result = run_strategy(
                self.strategy, state.cache.values, self.max_window,
                cache=state.cache, acf=state.acf,
            )
            # The memoized result answers every later lookup; the prefix
            # sums the search's misses shared are not kept in the LRU.
            state.cache._release_prefix()
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
    calling :func:`repro.core.batch.smooth` on each series in a loop.  The
    unseen series of each searched length are searched together, their
    candidate evaluations stacked into shared kernel calls.

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
