"""Moving-window aggregation kernels.

The simple moving average (SMA) is ASAP's smoothing function (Section 3.3).
Smoothing the same series at many candidate windows is the inner loop of every
search strategy, so the implementation matters: we use an exact prefix-sum
formulation that computes *all* windows of one size in O(n) regardless of the
window length, plus sliding min/max (monotonic deque, O(n)) for the MinMax
filter comparison of Appendix B.2.

Beyond the original single-series kernels this module provides the batched
substrate of the multi-series engine (:mod:`repro.engine`):

* :func:`sma2d` — smooth a whole batch of equal-length series at one window;
* :func:`sma_grid_moments` — roughness and kurtosis of ``SMA(x, w)`` for every
  window in a grid (and for every series in a batch) without per-window
  Python loops.

Determinism contract: a value computed through a batch path is bit-identical
to the same value computed alone — row-wise numpy reductions over a
contiguous final axis do not depend on the number of rows, and chunking and
fill-strategy choices never change buffer contents.  ``sma2d`` rows
are additionally bit-identical to the scalar :func:`sma`;
the *moments* of :func:`sma_grid_moments` agree with the scalar statistics
kernels to floating-point roundoff (the reductions use a different — faster —
summation order than the scalar two-pass reference).
"""

from __future__ import annotations

import math
import numbers
from collections import deque

import numpy as np

__all__ = [
    "sma",
    "sma_with_slide",
    "sliding_min",
    "sliding_max",
    "sma2d",
    "sma_grid_moments",
    "sma_window_moments",
    "sma_probe_moments",
    "cross_product_sums",
]

#: Upper bound on elements materialized per chunk by the grid kernels.  The
#: kernels stream a handful of same-sized temporaries per chunk, so this
#: budget (~512 KB of float64 per temporary) keeps the working set inside the
#: CPU cache hierarchy — measured 5-10x faster than letting chunks grow to
#: tens of MB — while still amortizing numpy dispatch over thousands of
#: elements.  Chunking never changes results: every row's reduction is
#: independent of its chunk-mates.
_GRID_CHUNK_ELEMENTS = 65_536


def _validate_window(n: int, window: int, label: str = "") -> None:
    """Shared window validation for every kernel in this module.

    A window must be an integer (Python or numpy; a float such as ``3.7`` or
    even ``3.0`` is rejected, never truncated) in ``[1, n]``.  Messages
    always include the series length so that a failure inside a batched call
    identifies exactly which input was too short; *label* (e.g.
    ``"series 'cpu.load'"``) prefixes the message when batch callers know
    which row they are validating.
    """
    prefix = f"{label}: " if label else ""
    if not isinstance(window, numbers.Integral):
        raise ValueError(
            f"{prefix}window must be an integer, got {window!r} (series length {n})"
        )
    if window < 1:
        raise ValueError(
            f"{prefix}window must be >= 1, got {window} (series length {n})"
        )
    if window > n:
        raise ValueError(f"{prefix}window {window} exceeds series length {n}")


def sma(values, window: int) -> np.ndarray:
    """Simple moving average with slide 1: every full window of *window* points.

    Returns ``n - window + 1`` points where ``out[i] = mean(x[i : i+window])``.
    Uses a compensated prefix-sum so cost is O(n) independent of window size.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D input, got shape {arr.shape}")
    _validate_window(arr.size, window)
    window = int(window)
    if window == 1:
        return arr.copy()
    prefix = np.concatenate(([0.0], np.cumsum(arr)))
    return (prefix[window:] - prefix[:-window]) / window


def sma_with_slide(values, window: int, slide: int) -> np.ndarray:
    """Simple moving average with an explicit slide between window starts.

    ``slide == 1`` matches :func:`sma`; ``slide == window`` produces disjoint
    bucket means (the pixel-aware preaggregation of Section 4.4).
    """
    if slide < 1:
        raise ValueError(f"slide must be >= 1, got {slide}")
    dense = sma(values, window)
    return dense[::slide].copy()


def _sliding_extreme(values, window: int, take_max: bool) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D input, got shape {arr.shape}")
    _validate_window(arr.size, window)
    out = np.empty(arr.size - window + 1, dtype=np.float64)
    candidates: deque[int] = deque()
    for i, value in enumerate(arr):
        while candidates and (
            arr[candidates[-1]] <= value if take_max else arr[candidates[-1]] >= value
        ):
            candidates.pop()
        candidates.append(i)
        if candidates[0] <= i - window:
            candidates.popleft()
        if i >= window - 1:
            out[i - window + 1] = arr[candidates[0]]
    return out


def sliding_min(values, window: int) -> np.ndarray:
    """Minimum of every full window, in O(n) via a monotonic deque."""
    return _sliding_extreme(values, window, take_max=False)


def sliding_max(values, window: int) -> np.ndarray:
    """Maximum of every full window, in O(n) via a monotonic deque."""
    return _sliding_extreme(values, window, take_max=True)


# -- batched kernels ----------------------------------------------------------


def _as_batch(values) -> tuple[np.ndarray, bool]:
    """Coerce to a (batch, n) float64 array; report whether input was 1-D."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        return arr[np.newaxis, :], True
    if arr.ndim == 2:
        return arr, False
    raise ValueError(f"expected a 1-D series or 2-D batch, got shape {arr.shape}")


def sma2d(values, window: int) -> np.ndarray:
    """Simple moving average of every row of a 2-D batch at one window.

    ``values`` has shape ``(batch, n)``; the result has shape
    ``(batch, n - window + 1)`` and row *i* equals ``sma(values[i], window)``
    bit for bit.  This is the Grafana-transformer shape: smooth every numeric
    field of a frame in one array operation.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected 2-D input, got shape {arr.shape}")
    batch, n = arr.shape
    _validate_window(n, window, label=f"batch of {batch} series")
    window = int(window)
    if window == 1:
        return arr.copy()
    prefix = np.zeros((batch, n + 1), dtype=np.float64)
    np.cumsum(arr, axis=1, out=prefix[:, 1:])
    return (prefix[:, window:] - prefix[:, :-window]) / window


def _validated_window_grid(n: int, windows, label: str = "") -> np.ndarray:
    raw = np.atleast_1d(np.asarray(windows))
    if raw.ndim != 1:
        raise ValueError(f"windows must be a 1-D sequence, got shape {raw.shape}")
    # One pass over plain ints; on failure, name the first offending window.
    listed = raw.tolist()
    if listed and (raw.dtype.kind not in "iu" or not 1 <= min(listed) <= max(listed) <= n):
        for window in listed:
            _validate_window(n, window, label=label)
    return raw.astype(np.int64)


def _roughness(smoothed: np.ndarray, span: int, buffer: np.ndarray) -> float:
    """Roughness of one zero-padded smoothed row: the std of its first diffs.

    *smoothed* holds ``SMA(x, w)`` in its first *span* entries, zeros after;
    *buffer* is scratch of at least ``len(smoothed) - 1`` floats.  The diffs
    are reduced over the full padded width with exact ``+0.0`` past ``span -
    1``, so both kernels that call this sum in the same pairwise tree.
    """
    if span < 2:
        return 0.0
    diffs = buffer[: smoothed.size - 1]
    valid = diffs[: span - 1]
    np.subtract(smoothed[1:span], smoothed[: span - 1], out=valid)
    diffs[span - 1 :] = 0.0
    diff_count = float(span - 1)
    np.subtract(valid, diffs.sum() / diff_count, out=valid)
    np.multiply(valid, valid, out=valid)
    return math.sqrt(diffs.sum() / diff_count)


def sma_window_moments(values, window: int, *, floor=None) -> tuple[float, float]:
    """Roughness and kurtosis of ``SMA(x, window)`` for one candidate window.

    Bit-identical to ``sma_grid_moments(values, [window])`` — it performs the
    same operations on the same padded buffers in the same order, minus the
    grid/batch bookkeeping — so single-candidate probes (binary-search steps,
    streaming revalidation of the previous window) skip the 3-D machinery.
    The equivalence is pinned by ``tests/spectral``.

    With a kurtosis *floor*, roughness is measured only when
    ``kurtosis >= floor`` (the search's constraint) and is ``nan`` — "not
    measured; infeasible" — otherwise.  Kurtosis is always measured.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D input, got shape {arr.shape}")
    n = arr.size
    _validate_window(n, window)
    window = int(window)
    span = n - window + 1
    count = float(span)
    smoothed = np.zeros(n, dtype=np.float64)
    if window == 1:
        smoothed[:] = arr
    else:
        prefix = np.zeros(n + 1, dtype=np.float64)
        np.cumsum(arr, out=prefix[1:])
        smoothed[:span] = (prefix[window : window + span] - prefix[:span]) / float(window)

    mean = smoothed.sum() / count
    centered = np.zeros(n, dtype=np.float64)
    centered[:span] = smoothed[:span] - mean
    squared = centered * centered
    second = squared.sum() / count
    fourth = (squared * squared).sum() / count
    kurtosis = float(fourth / (second * second)) if second > 0.0 else 0.0
    if floor is not None and not kurtosis >= floor:
        return math.nan, kurtosis
    return _roughness(smoothed, span, centered), kurtosis


def sma_probe_moments(
    values, windows, workspace=None, *, rows=None, floor=None
) -> tuple[np.ndarray, np.ndarray]:
    """Roughness and kurtosis of ``SMA(x, w)`` for a small *probe set* of windows.

    Bit-identical to ``[sma_window_moments(values, w, floor=floor) for w
    in windows]``: it builds the same zero-padded length-``n`` smoothed rows
    (window 1 bypasses the prefix arithmetic exactly as the scalar kernel
    does) and reduces each with the same final-axis sums.  The kurtosis
    stage runs as one stacked array operation, so a handful of windows costs
    one numpy dispatch sequence instead of one per window; roughness then
    goes row by row through the single-window kernel's own routine.  This is
    the warm-start prefetch kernel of the streaming operator: the previous
    refresh's probe trace is evaluated in a single call before the search
    replays over the cache.

    With *rows*, ``values`` is a ``(m, n)`` batch of equal-length series and
    output *i* is the moments of ``values[rows[i]]`` at ``windows[i]``.  A
    row may appear several times, with different windows, and a window on
    several rows.  This is the batch engine's lockstep kernel: one round of
    every live search in a batch, one call.

    *floor* gates roughness as in :func:`sma_window_moments`: a scalar, or
    one kurtosis floor per output.  Searches pass their original kurtosis,
    and most candidates fall below it, so most rows cost only the stacked
    kurtosis stage.  An empty probe set returns two empty arrays.

    Unlike :func:`sma_grid_moments` it never chunks and keeps the whole
    ``(len(windows), n)`` buffer resident; prefer the grid kernel for large
    candidate grids.  Each smoothed row is filled with the single-window
    kernel's contiguous slice arithmetic and its zero tail with explicit
    small writes, so every padded buffer holds exactly the single-window
    kernel's bytes before each reduction.  Callers on a hot path can pass
    *workspace* — a C-contiguous float64 array of shape
    ``(2, >= len(windows), n)`` — to reuse allocations across calls;
    every cell the reductions read is rewritten first, so stale workspace
    contents never leak into results.
    """
    batch = np.asarray(values, dtype=np.float64)
    if rows is None:
        if batch.ndim != 1:
            raise ValueError(f"expected 1-D input, got shape {batch.shape}")
        batch = batch[np.newaxis, :]
    elif batch.ndim != 2:
        raise ValueError(f"expected a 2-D batch with rows=, got shape {batch.shape}")
    n = batch.shape[1]
    window_arr = _validated_window_grid(n, windows)
    k = window_arr.size
    if rows is None:
        row_list = [0] * k
    else:
        row_list = [int(row) for row in rows]
        if len(row_list) != k:
            raise ValueError(f"rows has {len(row_list)} entries but windows has {k}")
        if k and not 0 <= min(row_list) <= max(row_list) < batch.shape[0]:
            raise ValueError(f"rows must index the {batch.shape[0]} series of the batch")
        # Prefix sums cost one pass per series, so take only the rows asked for.
        used = sorted(set(row_list))
        position = {row: i for i, row in enumerate(used)}
        row_list = [position[row] for row in row_list]
        batch = batch[used]
    if k == 0:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
    spans = n - window_arr + 1
    span_list = spans.tolist()
    counts = spans.astype(np.float64)

    if (
        workspace is not None
        and workspace.dtype == np.float64
        and workspace.ndim == 3
        and workspace.shape[0] >= 2
        and workspace.shape[1] >= k
        and workspace.shape[2] == n
        and workspace.flags["C_CONTIGUOUS"]
    ):
        smoothed = workspace[0, :k]
        scratch = workspace[1, :k]
    else:
        smoothed = np.empty((k, n), dtype=np.float64)
        scratch = np.empty((k, n), dtype=np.float64)

    prefix = np.zeros((batch.shape[0], n + 1), dtype=np.float64)
    np.cumsum(batch, axis=1, out=prefix[:, 1:])
    # Every row's zero tail lives in columns >= the smallest span; one block
    # write clears them all, and each row's valid slice is written on top.
    smoothed[:, min(span_list) :] = 0.0
    divisors = window_arr.astype(np.float64)
    prefixes = list(prefix)
    for i, (row, window) in enumerate(zip(row_list, window_arr.tolist())):
        if window == 1:
            # Window 1 is an exact identity in the scalar kernel; bypass the
            # prefix arithmetic (whose rounding would differ) for those rows.
            # Dividing by 1.0 below is bitwise exact, so the row survives the
            # shared divide untouched.
            smoothed[i] = batch[row]
        else:
            span = n - window + 1
            row_prefix = prefixes[row]
            np.subtract(
                row_prefix[window : window + span], row_prefix[:span], out=smoothed[i, :span]
            )
    # One broadcast divide replaces a dispatch per row; elementwise division
    # is shape-independent, and the zero tails stay exactly +0.0.
    np.divide(smoothed, divisors[:, np.newaxis], out=smoothed)

    means = smoothed.sum(axis=-1) / counts
    np.subtract(smoothed, means[:, np.newaxis], out=scratch)
    for i, span in enumerate(span_list):
        scratch[i, span:] = 0.0
    np.multiply(scratch, scratch, out=scratch)
    second = scratch.sum(axis=-1) / counts
    np.multiply(scratch, scratch, out=scratch)
    fourth = scratch.sum(axis=-1) / counts
    kurtosis = np.zeros(k)
    np.divide(fourth, second * second, out=kurtosis, where=second > 0.0)

    # Scratch is free now: each measured row takes its own for the diffs.
    floors = np.broadcast_to(0.0 if floor is None else floor, (k,)).tolist()
    roughness = np.full(k, np.nan)
    for i, (kurt, row_floor) in enumerate(zip(kurtosis.tolist(), floors)):
        if floor is None or kurt >= row_floor:
            roughness[i] = _roughness(smoothed[i], span_list[i], scratch[i])
    return roughness, kurtosis


def cross_product_sums(values, max_lag: int) -> np.ndarray:
    """Lagged cross-product sums ``s[k] = sum_i x[i] * x[i + k]``, k = 0..max_lag.

    These are the raw sufficient statistics of the autocorrelation estimator:
    together with the window's ordinary sums they determine the full
    correlogram (see :mod:`repro.core.acf`).  The streaming operator maintains
    them incrementally — one O(max_lag) update per arriving pane — and uses
    this kernel for its periodic from-scratch recomputation, so the exact
    values the incremental path drifts toward are defined in one place.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D input, got shape {arr.shape}")
    n = arr.size
    if not 0 <= max_lag < max(n, 1):
        raise ValueError(f"max_lag must be in [0, {n}), got {max_lag}")
    out = np.empty(max_lag + 1, dtype=np.float64)
    for k in range(max_lag + 1):
        out[k] = float(np.dot(arr[: n - k], arr[k:]))
    return out


def sma_grid_moments(
    values, windows, *, storage: str = "float64"
) -> tuple[np.ndarray, np.ndarray]:
    """Roughness and kurtosis of ``SMA(x, w)`` for a whole grid of windows.

    ``values`` is one series ``(n,)`` or a batch ``(batch, n)``; *windows* is
    a 1-D grid of candidate window sizes valid for every row.  Returns
    ``(roughness, kurtosis)`` with shape ``(len(windows),)`` for 1-D input or
    ``(batch, len(windows))`` for 2-D input, where entry ``[.., j]`` matches
    ``roughness(sma(x, w_j))`` / ``kurtosis(sma(x, w_j))`` of the scalar
    kernels (:mod:`repro.timeseries.stats`) to floating-point roundoff (not
    bitwise: the moment reductions use a faster summation order than the
    scalar reference).

    The kernel materializes the padded SMA matrix per chunk of rows (bounded
    by an internal element budget) and reduces with row-wise numpy ops, so an
    exhaustive search's entire candidate grid — or a dashboard's entire batch
    of series — costs one call instead of ``len(windows)`` Python iterations.
    The values it produces are deterministic and independent of how the grid
    or batch is chunked: evaluating a window alone yields bit-identical
    results to evaluating it inside any larger grid.

    ``storage="float32"`` keeps the padded SMA matrix (the kernel's dominant
    memory traffic) in single precision while accumulating every reduction in
    float64.  Moments then agree with the float64 path only to ~1e-7 — **not**
    the repo's 1e-9 discipline — so this is an opt-in lane for memory-bound
    batch sweeps where window *selection* tolerance is verified empirically
    (see ``benchmarks/bench_kernels.py``); no serving path uses it.
    """
    if storage not in ("float64", "float32"):
        raise ValueError(
            f"storage must be 'float64' or 'float32', got {storage!r}"
        )
    batch, was_1d = _as_batch(values)
    n_series, n = batch.shape
    window_arr = _validated_window_grid(n, windows)
    n_windows = window_arr.size

    roughness_out = np.empty((n_series, n_windows), dtype=np.float64)
    kurtosis_out = np.empty((n_series, n_windows), dtype=np.float64)

    prefix = np.zeros((n_series, n + 1), dtype=np.float64)
    np.cumsum(batch, axis=1, out=prefix[:, 1:])

    # Chunk over series (outer) and windows (inner) to bound peak memory at
    # ~a few multiples of _GRID_CHUNK_ELEMENTS float64 temporaries.
    windows_per_chunk = max(1, _GRID_CHUNK_ELEMENTS // max(n, 1))
    series_per_chunk = max(1, _GRID_CHUNK_ELEMENTS // max(n * min(n_windows, windows_per_chunk), 1))

    starts = np.arange(n)
    for s0 in range(0, n_series, series_per_chunk):
        s1 = min(s0 + series_per_chunk, n_series)
        chunk_prefix = prefix[s0:s1]
        for w0 in range(0, n_windows, windows_per_chunk):
            w1 = min(w0 + windows_per_chunk, n_windows)
            grid = window_arr[w0:w1]
            rough, kurt = _grid_moments_chunk(
                batch[s0:s1], chunk_prefix, starts, grid, n, storage
            )
            roughness_out[s0:s1, w0:w1] = rough
            kurtosis_out[s0:s1, w0:w1] = kurt

    if was_1d:
        return roughness_out[0], kurtosis_out[0]
    return roughness_out, kurtosis_out


def _grid_moments_chunk(
    rows: np.ndarray,
    prefix: np.ndarray,
    starts: np.ndarray,
    windows: np.ndarray,
    n: int,
    storage: str = "float64",
) -> tuple[np.ndarray, np.ndarray]:
    """Moments of the smoothed series for one (series-chunk, window-chunk).

    ``rows`` is the raw ``(b, n)`` chunk, ``prefix`` its ``(b, n+1)`` prefix
    sums; the result arrays are ``(b, len(windows))``.  All reductions run
    over the contiguous final axis, row by row, mirroring the scalar
    implementations operation for operation.  With ``storage="float32"`` the
    smoothed buffer is demoted to single precision after the exact fill; the
    reductions keep float64 accumulators (``dtype=`` on every sum).
    """
    counts = (n - windows + 1).astype(np.float64)  # (w,)
    spans = [int(n - w + 1) for w in windows]

    # Fill the padded (b, w, n) SMA buffer.  Small grids fill window by
    # window with dense slice arithmetic; large grids use one fancy-indexed
    # gather.  Both write identical values (the same prefix differences over
    # the same zeros), so the choice is purely a performance heuristic.
    if windows.size <= 64:
        smoothed = np.zeros((prefix.shape[0], windows.size, n), dtype=np.float64)
        for position, window in enumerate(windows):
            width = int(window)
            if width == 1:
                # Window 1 is an exact identity in the scalar kernel; bypass
                # the prefix arithmetic (whose rounding would differ).
                smoothed[:, position, :] = rows
                continue
            span = spans[position]
            smoothed[:, position, :span] = (
                prefix[:, width : width + span] - prefix[:, :span]
            ) / float(width)
    else:
        ends = starts[np.newaxis, :] + windows[:, np.newaxis]
        valid = ends <= n
        gathered = prefix[:, np.minimum(ends, n)]  # (b, w, n)
        smoothed = (gathered - prefix[:, np.newaxis, :n]) / windows[
            np.newaxis, :, np.newaxis
        ].astype(np.float64)
        smoothed = np.where(valid[np.newaxis, :, :], smoothed, 0.0)
        identity = windows == 1
        if identity.any():
            smoothed[:, identity, :] = rows[:, np.newaxis, :]

    # Demote the resident buffer only after the exact fill: the fill
    # arithmetic stays float64, and every reduction below accumulates in
    # float64 regardless of the buffer dtype.
    if storage == "float32":
        smoothed = smoothed.astype(np.float32)

    # Row statistics over the padded buffers.  The zero padding contributes
    # nothing to any sum, and the mean subtractions write only the valid
    # spans, so every reduction sees exactly the masked values while touching
    # roughly half the memory a fully masked formulation would.
    means = smoothed.sum(axis=-1, dtype=np.float64) / counts  # (b, w)
    centered = np.zeros_like(smoothed)
    for position, span in enumerate(spans):
        centered[:, position, :span] = (
            smoothed[:, position, :span] - means[:, position, np.newaxis]
        )
    squared = centered * centered
    second = squared.sum(axis=-1, dtype=np.float64) / counts
    fourth = (squared * squared).sum(axis=-1, dtype=np.float64) / counts
    safe_second = np.where(second > 0.0, second, 1.0)
    kurtosis = np.where(second > 0.0, fourth / (safe_second * safe_second), 0.0)

    # diff(sma(x, w)) has n - w entries; its population std is the roughness.
    diff_counts = np.maximum(counts - 1.0, 1.0)
    diffs = np.zeros((smoothed.shape[0], windows.size, n - 1), dtype=smoothed.dtype)
    for position, span in enumerate(spans):
        if span >= 2:
            diffs[:, position, : span - 1] = (
                smoothed[:, position, 1:span] - smoothed[:, position, : span - 1]
            )
    diff_means = diffs.sum(axis=-1, dtype=np.float64) / diff_counts
    diff_centered = np.zeros_like(diffs)
    for position, span in enumerate(spans):
        if span >= 2:
            diff_centered[:, position, : span - 1] = (
                diffs[:, position, : span - 1] - diff_means[:, position, np.newaxis]
            )
    diff_var = (diff_centered * diff_centered).sum(axis=-1, dtype=np.float64) / diff_counts
    roughness = np.where(counts >= 2.0, np.sqrt(diff_var), 0.0)
    return roughness, kurtosis
