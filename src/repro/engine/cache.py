"""The batch engine's per-series search-state cache.

Dashboards re-smooth largely unchanged series on every refresh, and ASAP's
on-demand rule is to do work only when something the user sees can change.
A series' search depends on nothing but its searched (preaggregated)
content, the resolved window ceiling and the strategy, so :class:`ACFCache`
memoizes the whole search under exactly that key:

* the ACF analysis (two FFTs plus peak detection; ASAP strategy only),
* the series' :class:`~repro.core.smoothing.EvaluationCache` — its original
  moments and every candidate evaluation its search touched, and
* the :class:`~repro.core.search.SearchResult` the search returned.

A refresh that resubmits a series it has seen before pays one O(n) hash of
the searched values and gets the result back: no search step, FFT, moment
kernel or candidate SMA.  The analysis, the kernels and the searches are
deterministic, so the memo is bit for bit what the search computes from
scratch, ``candidates_evaluated`` included; the result assembly reads the
chosen window's moments from the entry's evaluation cache.

A whole batch is looked up at once with :meth:`ACFCache.lookup`: its ACF
misses are analyzed by one stacked :func:`~repro.core.acf.analyze_acf` call
per ``(length, max_window)`` group (one forward and one inverse FFT per
chunk of rows), each row bit-identical to the one-series analysis.  It
returns one :class:`SearchEntry` per request, through which the engine
reads and sets the memoized result.
A new state's original moments are filled by the search (or the engine's
lockstep rounds) through :func:`repro.timeseries.stats.kurtosis`, whose
fourth moment is the squares squared, ``sq = c*c; mean(sq*sq)``: the
candidate kernels' definition, so the original series' kurtosis equals
the window-1 candidate's bit for bit.

Memory: an entry holds a copy of its searched values, an analysis of at
most ``max_window`` lags, the evaluations its search touched (at most
``max_window``; every one of them for exhaustive search) and one
``SearchResult``, so the footprint is bounded by ``maxsize`` × the searched
length.  Measured with ``tracemalloc`` over 800 searched points (the
retained memory of a ``smooth_many`` call, divided by its entries): about
11 KB an entry for ASAP (2.9 MB at the default 256 entries) and 29 KB for
exhaustive search.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from ..core.acf import ACFAnalysis, analyze_acf
from ..core.search import SearchResult
from ..core.smoothing import EvaluationCache

__all__ = ["ACFCache", "SearchEntry"]


def _fingerprint(values: np.ndarray) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(values.tobytes())
    return digest.digest()


class SearchEntry:
    """One series' search state plus the result its search returned.

    ``result`` is ``None`` until the search has run; it is a pure function
    of the entry's key, so once set it answers every later lookup.
    """

    __slots__ = ("cache", "acf", "result")

    def __init__(self, cache: EvaluationCache, acf: ACFAnalysis | None = None) -> None:
        self.cache = cache
        self.acf = acf
        self.result: SearchResult | None = None


class ACFCache:
    """A bounded LRU of per-series search states keyed by searched content.

    An entry holds an ``EvaluationCache``, an ``ACFAnalysis`` (the ASAP
    strategy only, the only one that consumes it) and, once its search has
    run, the search's result.  The key is the
    content fingerprint, the length, the resolved ``max_window`` and the
    strategy, so changing any of them between calls misses instead of
    reusing a state another configuration built.

    ``hits``/``misses`` count the lookups that resolve an ACF analysis, as
    they always have: with the ASAP strategy every series is exactly one of
    the two.  A batch lookup (:meth:`lookup`) counts, orders and evicts
    exactly as the same requests looked up one by one, a series repeated
    within the batch included; only the FFTs are shared.
    Thread-safe: the engine's thread pool probes it concurrently, and two
    threads searching the same state only ever fill its memo with the same
    deterministic evaluations and result.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, SearchEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lookup(self, requests, strategy: str) -> list[SearchEntry]:
        """The search state of every ``(values, max_window)`` request, in order.

        *values* is a searched series and *max_window* its resolved window
        ceiling (:func:`repro.core.search.resolve_max_window`).  On a miss
        the entry starts empty — the caller's search fills its cache in
        place — and holds a private copy of *values*, so mutating the
        caller's array later cannot corrupt it.  Hits, misses and LRU order
        are exactly those of the same requests looked up one at a time, a
        series repeated within the batch included, but the ASAP strategy's
        misses share one stacked :func:`~repro.core.acf.analyze_acf` call
        per ``(length, max_window)`` group (one FFT pair per chunk of rows).
        The batch engine reads and sets ``result`` on the entries: an entry
        whose search has run answers its next lookup with no search at all.
        """
        with_acf = strategy == "asap"
        keyed = []
        for values, max_window in requests:
            arr = np.ascontiguousarray(values, dtype=np.float64)
            keyed.append(((_fingerprint(arr), arr.size, int(max_window), strategy), arr))
        with self._lock:
            known = {key: self._entries.get(key) for key, _ in keyed}
        analyses: dict[tuple, ACFAnalysis | None] = {}
        if with_acf:
            # A state evicted before its turn below misses again, and its
            # analysis is the deterministic one it already holds.
            analyses = {key: entry.acf for key, entry in known.items() if entry is not None}
            groups: dict[tuple[int, int], dict[tuple, np.ndarray]] = {}
            for key, arr in keyed:
                if known[key] is None:
                    groups.setdefault(key[1:3], {})[key] = arr
            for (_, max_lag), members in groups.items():
                rows = np.vstack(list(members.values()))
                analyses.update(zip(members, analyze_acf(rows, max_lag=max_lag)))
        entries = []
        with self._lock:
            for key, arr in keyed:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.hits += with_acf
                else:
                    entry = SearchEntry(EvaluationCache(arr.copy()), analyses.get(key))
                    self.misses += with_acf
                    self._entries[key] = entry
                    while len(self._entries) > self.maxsize:
                        self._entries.popitem(last=False)
                entries.append(entry)
        return entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every cached state (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def __repr__(self) -> str:
        return (
            f"ACFCache(size={len(self)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )
