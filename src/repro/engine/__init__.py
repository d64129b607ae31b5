"""repro.engine — the multi-series batch execution engine.

ASAP's production workload is not one series but a dashboard of them: every
refresh re-smooths hundreds of metrics at the same target resolution.  This
package executes that workload through the single-series pipeline of
:mod:`repro.core` with the batch's shared work hoisted out:

* :func:`smooth_many` / :class:`BatchEngine` — smooth a 2-D array, a list of
  arrays or :class:`~repro.timeseries.TimeSeries`, or a dict of labeled
  series in one call, with the unseen series of each searched length
  searched together through stacked candidate-evaluation kernels, optional thread/process fan-out, and a search-state cache
  (:class:`ACFCache`) shared across refreshes: a series is searched once
  per key, and one resubmitted unchanged gets its memoized search result
  back, with no search step, FFT or moment kernel;
* :class:`BatchResult` / :class:`BatchStats` — per-series
  :class:`~repro.core.result.SmoothingResult`\\ s in input order plus
  aggregate timing and cache accounting.

**Equivalence guarantee.**  ``smooth_many(batch, **config)`` returns results
bit-identical to ``[smooth(series, **config) for series in batch]`` for every
strategy and input shape.  The batched kernels the engine's lockstep rounds
drive — :func:`repro.spectral.convolution.sma_grid_moments` for the grid
strategies' candidate grids,
the stacked probe kernel of :func:`repro.spectral.convolution.sma_probe_moments`
(run on each length group's prefix sums, prepared once) for the adaptive
searches' requests, and the row-wise original-moment reductions —
produce, row for row, exactly the values the per-series pipeline computes, and
the search-state cache only ever returns analyses and evaluations the
per-series search would have computed itself, keyed by everything that
search depends on (searched content and length, resolved ``max_window``,
strategy), and every result is assembled by the code that ends ``smooth()``.
The engine therefore never trades accuracy for speed — ``tests/engine``
asserts exact equality.
"""

from .batch_engine import (
    BatchEngine,
    BatchResult,
    BatchStats,
    smooth_many,
)
from .cache import ACFCache

__all__ = [
    "ACFCache",
    "BatchEngine",
    "BatchResult",
    "BatchStats",
    "smooth_many",
]
