"""The batch engine's per-series search-state cache.

Dashboards re-smooth largely unchanged series on every refresh, and ASAP's
on-demand rule is to do work only when something the user sees can change.
A series' search depends on nothing but its searched (preaggregated)
content, the resolved window ceiling, the strategy and the kernel backend,
so :class:`ACFCache` memoizes the whole search state under exactly that key:

* the ACF analysis (two FFTs plus peak detection; ASAP strategy only), and
* the series' :class:`~repro.core.smoothing.EvaluationCache` — its original
  moments and every candidate evaluation its search touched.

A refresh that resubmits a series it has seen before pays one O(n) hash of
the searched values; its search then replays over memoized evaluations,
with no FFT, moment kernel or candidate SMA.  Because the analysis and the
kernels are deterministic, the replay returns bit for bit what the search
computes from scratch, ``candidates_evaluated`` included.

Memory: an entry holds a copy of its searched values, an analysis of at
most ``max_window`` lags and the evaluations its search touched (at most
``max_window``; every one of them for exhaustive search), so the footprint is
bounded by ``maxsize`` × the searched length.  Measured with ``tracemalloc``
over 800 searched points: about 12 KB an entry for ASAP (3 MB at the default
256 entries) and 29 KB for exhaustive search.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from ..core.acf import ACFAnalysis, analyze_acf
from ..core.smoothing import EvaluationCache, resolve_kernel

__all__ = ["ACFCache"]


def _fingerprint(values: np.ndarray) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(values.tobytes())
    return digest.digest()


class ACFCache:
    """A bounded LRU of per-series search states keyed by searched content.

    An entry is ``(EvaluationCache, ACFAnalysis | None)`` — the analysis only
    for the ASAP strategy, the only one that consumes it.  The key is the
    content fingerprint, the length, the resolved ``max_window``, the
    strategy and the kernel backend, so changing any of them between calls
    misses instead of reusing a state another configuration built.

    ``hits``/``misses`` count the lookups that resolve an ACF analysis, as
    they always have: with the ASAP strategy every series is exactly one of
    the two.  Thread-safe: the engine's thread pool probes it concurrently,
    and two threads searching the same state only ever fill its memo with
    the same deterministic evaluations.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def search_state(
        self, values, max_window: int, strategy: str, kernel: str | None = None
    ) -> tuple[EvaluationCache, ACFAnalysis | None]:
        """The search state of *values*, built at most once per key.

        *values* is the searched series and *max_window* its resolved window
        ceiling (:func:`repro.core.search.resolve_max_window`).  On a miss
        the state starts empty — the caller's search fills the returned
        cache in place — and holds a private copy of *values*, so mutating
        the caller's array later cannot corrupt it.
        """
        arr = np.ascontiguousarray(values, dtype=np.float64)
        kernel, backend = resolve_kernel(kernel)
        key = (_fingerprint(arr), arr.size, int(max_window), strategy, backend)
        with_acf = strategy == "asap"
        with self._lock:
            state = self._entries.get(key)
            if state is not None:
                self._entries.move_to_end(key)
                self.hits += with_acf
                return state
        arr = arr.copy()
        acf = analyze_acf(arr, max_lag=max_window) if with_acf else None
        state = (EvaluationCache(arr, kernel=kernel), acf)
        with self._lock:
            self.misses += with_acf
            self._entries[key] = state
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return state

    def get_or_compute(self, values, max_lag: int) -> ACFAnalysis:
        """The ACF analysis of *values* at *max_lag*, computed at most once."""
        return self.search_state(values, max_lag, "asap")[1]

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
