"""Moving-window aggregation kernels.

The simple moving average (SMA) is ASAP's smoothing function (Section 3.3).
Smoothing the same series at many candidate windows is the inner loop of every
search strategy, so the implementation matters: we use an exact prefix-sum
formulation that computes *all* windows of one size in O(n) regardless of the
window length.

**The prepared prefix.**  Every SMA here is a difference of one series'
prefix sums, so a caller that evaluates one series many times prepares
those sums once (:func:`_prefix_sums`) and answers each evaluation from
them: :func:`_sma_from_prefix` for smoothed values and
:func:`_moments_from_prefix` for the roughness and kurtosis of a stack of
candidate windows.  That private core takes already-validated Python-int
windows and a kurtosis floor that is a scalar or one value per output.  The
public kernels :func:`sma`, :func:`sma_window_moments` and
:func:`sma_probe_moments` keep their own input validation and call it, as
do :class:`~repro.core.smoothing.EvaluationCache` (one prefix per searched
series, shared by its misses, its warm prefetch and the frame's smoothed
values) and the batch engine's lockstep rounds (one stacked prefix per
length group).  The prefix values are those every kernel computed for
itself before, so sharing them changes no result.

Beyond the original single-series kernels this module provides the batched
substrate of the multi-series engine (:mod:`repro.engine`):
:func:`sma_grid_moments` — roughness and kurtosis of ``SMA(x, w)`` for every
window in a grid (and for every series in a batch) without per-window
Python loops.

Determinism contract: a value computed through a batch path is bit-identical
to the same value computed alone — row-wise numpy reductions over a
contiguous final axis do not depend on the number of rows, and chunking and
fill-strategy choices never change buffer contents.  The *moments* of
:func:`sma_grid_moments` agree with the scalar statistics kernels to
floating-point roundoff (the reductions use a different — faster —
summation order than the scalar two-pass reference).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "sma",
    "sma_with_slide",
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


# -- the prepared prefix -----------------------------------------------------


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    """Prefix sums of a float64 series (or of each row of a 2-D batch).

    The result has one more column than *values*: a leading zero, then the
    running sums, so ``SMA(x, w)[i] = (p[i + w] - p[i]) / w``.  A cumulative
    sum runs sequentially along each row, so every row holds exactly the
    bytes of its own one-series call.
    """
    prefix = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,), dtype=np.float64)
    np.cumsum(values, axis=-1, out=prefix[..., 1:])
    return prefix


def _sma_from_prefix(values: np.ndarray, prefix: np.ndarray, window: int) -> np.ndarray:
    """``sma(values, window)`` from the series' prepared *prefix*.

    Window 1 is an exact identity (a copy of *values*): the prefix
    difference would round.
    """
    if window == 1:
        return values.copy()
    return (prefix[window:] - prefix[:-window]) / window


def _roughness(smoothed: np.ndarray, span: int, buffer: np.ndarray) -> float:
    """Roughness of one zero-padded smoothed row: the std of its first diffs.

    *smoothed* holds ``SMA(x, w)`` in its first *span* entries, zeros after;
    *buffer* is scratch of at least ``len(smoothed) - 1`` floats.  The diffs
    are reduced over the full padded width with exact ``+0.0`` past ``span -
    1``, so every caller sums in the same pairwise tree.
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


def _moments_from_prefix(
    values, prefixes, windows, rows, floor=None, workspace=None
) -> tuple[list[float], list[float]]:
    """Roughness and kurtosis of a stack of candidates, from prepared prefixes.

    The one core behind every moment kernel of a prepared series.  Output
    *i* is the moments of ``SMA(values[rows[i]], windows[i])``; *values* and
    *prefixes* are sequences of equal-length 1-D rows and their
    :func:`_prefix_sums`.  Nothing is validated here: *windows* are Python
    ints in ``[1, n]`` and *rows* valid indexes, as the caller guarantees.
    *floor* is ``None`` (measure every roughness), a number, or a list of
    one floor per output; a roughness whose kurtosis is below its floor is
    ``nan`` ("not measured; infeasible").

    Each output row is laid out as a zero-padded length-``n`` buffer: the
    smoothed values in its first ``span = n - w + 1`` entries (window 1 is
    copied, bypassing the prefix arithmetic whose rounding would differ),
    exact zeros after.  Kurtosis is one stacked pass of final-axis sums over
    the whole stack; roughness then goes row by row through
    :func:`_roughness`.  Final-axis sums of a contiguous row do not depend
    on the number of rows, so every output equals the same window evaluated
    alone; a single window takes the same steps on 1-D buffers
    (:func:`_one_from_prefix`).  *workspace*, a C-contiguous float64 array
    of shape ``(2, >= len(windows), n)``, is reused when it fits; every cell
    the reductions read is rewritten first, so stale contents never leak.
    Returns two lists of Python floats.
    """
    k = len(windows)
    n = prefixes[0].size - 1
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

    if k == 1:
        row = rows[0]
        return _one_from_prefix(
            values[row], prefixes[row], windows[0], floor, smoothed[0], scratch[0]
        )

    spans = [n - window + 1 for window in windows]
    # Every row's zero tail lives in columns >= the smallest span; one block
    # write clears them all, and each row's valid slice is written on top.
    smoothed[:, min(spans) :] = 0.0
    for i, (row, window, span) in enumerate(zip(rows, windows, spans)):
        if window == 1:
            # Dividing by 1.0 below is bitwise exact, so the copied row
            # survives the shared divide untouched.
            smoothed[i] = values[row]
        else:
            prefix = prefixes[row]
            np.subtract(prefix[window:], prefix[:span], out=smoothed[i, :span])
    # One broadcast divide replaces a dispatch per row; elementwise division
    # is shape-independent, and the zero tails stay exactly +0.0.
    np.divide(smoothed, np.array(windows, dtype=np.float64)[:, np.newaxis], out=smoothed)

    counts = np.array(spans, dtype=np.float64)
    means = smoothed.sum(axis=-1) / counts
    np.subtract(smoothed, means[:, np.newaxis], out=scratch)
    for i, span in enumerate(spans):
        scratch[i, span:] = 0.0
    np.multiply(scratch, scratch, out=scratch)
    second = scratch.sum(axis=-1) / counts
    np.multiply(scratch, scratch, out=scratch)
    fourth = scratch.sum(axis=-1) / counts
    kurtosis = np.zeros(k)
    np.divide(fourth, second * second, out=kurtosis, where=second > 0.0)
    kurtosis_list = kurtosis.tolist()

    # Scratch is free now: each measured row takes its own for the diffs.
    floors = floor if isinstance(floor, list) else [floor] * k
    roughness = [math.nan] * k
    for i, (kurt, row_floor) in enumerate(zip(kurtosis_list, floors)):
        if row_floor is None or kurt >= row_floor:
            roughness[i] = _roughness(smoothed[i], spans[i], scratch[i])
    return roughness, kurtosis_list


def _one_from_prefix(values, prefix, window, floor, smoothed, scratch):
    """:func:`_moments_from_prefix` at one window, on 1-D buffers.

    The same padded buffer and the same final-axis sums as a stacked row
    (the sum of one contiguous row does not depend on its neighbours), with
    scalar divisors instead of the stack's per-row arrays, which cost more
    than they save for a single candidate.
    """
    n = values.size
    span = n - window + 1
    count = float(span)
    if window == 1:
        smoothed[:] = values
    else:
        valid = smoothed[:span]
        np.subtract(prefix[window:], prefix[:span], out=valid)
        np.divide(valid, float(window), out=valid)
        smoothed[span:] = 0.0
    mean = smoothed.sum() / count
    np.subtract(smoothed[:span], mean, out=scratch[:span])
    scratch[span:] = 0.0
    np.multiply(scratch, scratch, out=scratch)
    second = scratch.sum() / count
    np.multiply(scratch, scratch, out=scratch)
    fourth = scratch.sum() / count
    kurtosis = float(fourth / (second * second)) if second > 0.0 else 0.0
    if floor is not None and not kurtosis >= (floor[0] if isinstance(floor, list) else floor):
        return [math.nan], [kurtosis]
    return [_roughness(smoothed, span, scratch)], [kurtosis]


# -- single-series kernels ----------------------------------------------------


def sma(values, window: int) -> np.ndarray:
    """Simple moving average with slide 1: every full window of *window* points.

    Returns ``n - window + 1`` points where ``out[i] = mean(x[i : i+window])``.
    Uses a prefix-sum difference, so cost is O(n) independent of window size.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D input, got shape {arr.shape}")
    _validate_window(arr.size, window)
    window = int(window)
    if window == 1:
        return arr.copy()
    return _sma_from_prefix(arr, _prefix_sums(arr), window)


def sma_with_slide(values, window: int, slide: int) -> np.ndarray:
    """Simple moving average with an explicit slide between window starts.

    ``slide == 1`` matches :func:`sma`; ``slide == window`` produces disjoint
    bucket means (the pixel-aware preaggregation of Section 4.4).
    """
    if slide < 1:
        raise ValueError(f"slide must be >= 1, got {slide}")
    dense = sma(values, window)
    return dense[::slide].copy()


# -- batched kernels ----------------------------------------------------------


def _as_batch(values) -> tuple[np.ndarray, bool]:
    """Coerce to a (batch, n) float64 array; report whether input was 1-D."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        return arr[np.newaxis, :], True
    if arr.ndim == 2:
        return arr, False
    raise ValueError(f"expected a 1-D series or 2-D batch, got shape {arr.shape}")


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


def sma_window_moments(values, window: int, *, floor=None) -> tuple[float, float]:
    """Roughness and kurtosis of ``SMA(x, window)`` for one candidate window.

    Bit-identical to ``sma_grid_moments(values, [window])`` and to the same
    window inside any :func:`sma_probe_moments` call: all of them reduce the
    same zero-padded buffers in the same order, and this kernel is the
    shared prepared-prefix core at one window.  Single-candidate probes
    (binary-search steps, streaming revalidation of the previous window)
    skip the grid's 3-D machinery.  The equivalence is pinned by
    ``tests/spectral``.

    With a kurtosis *floor*, roughness is measured only when
    ``kurtosis >= floor`` (the search's constraint) and is ``nan`` — "not
    measured; infeasible" — otherwise.  Kurtosis is always measured.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D input, got shape {arr.shape}")
    _validate_window(arr.size, window)
    (rough,), (kurt,) = _moments_from_prefix(
        (arr,), (_prefix_sums(arr),), (int(window),), (0,), floor
    )
    return rough, kurt


def sma_probe_moments(
    values, windows, workspace=None, *, rows=None, floor=None
) -> tuple[np.ndarray, np.ndarray]:
    """Roughness and kurtosis of ``SMA(x, w)`` for a small *probe set* of windows.

    Bit-identical to ``[sma_window_moments(values, w, floor=floor) for w
    in windows]``: it validates its inputs, prepares each series' prefix
    sums once and evaluates the whole probe set through the shared core
    (one stacked kurtosis pass, then roughness row by row through the
    single-window kernel's own routine).  A handful of windows therefore
    costs one numpy dispatch sequence instead of one per window.

    With *rows*, ``values`` is a ``(m, n)`` batch of equal-length series and
    output *i* is the moments of ``values[rows[i]]`` at ``windows[i]``.  A
    row may appear several times, with different windows, and a window on
    several rows.

    *floor* gates roughness as in :func:`sma_window_moments`: a scalar, or
    one kurtosis floor per output.  Searches pass their original kurtosis,
    and most candidates fall below it, so most rows cost only the stacked
    kurtosis stage.  An empty probe set returns two empty arrays.

    Unlike :func:`sma_grid_moments` it never chunks and keeps the whole
    ``(len(windows), n)`` buffer resident; prefer the grid kernel for large
    candidate grids.  Callers on a hot path can pass *workspace* — a
    C-contiguous float64 array of shape ``(2, >= len(windows), n)`` — to
    reuse allocations across calls; every cell the reductions read is
    rewritten first, so stale workspace contents never leak into results.
    The streaming operator and the batch engine's lockstep skip this
    wrapper: they hold prepared prefixes and validated windows already.
    """
    batch = np.asarray(values, dtype=np.float64)
    if rows is None:
        if batch.ndim != 1:
            raise ValueError(f"expected 1-D input, got shape {batch.shape}")
        batch = batch[np.newaxis, :]
    elif batch.ndim != 2:
        raise ValueError(f"expected a 2-D batch with rows=, got shape {batch.shape}")
    n = batch.shape[1]
    window_list = _validated_window_grid(n, windows).tolist()
    k = len(window_list)
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
    if floor is not None:
        floor = np.broadcast_to(floor, (k,)).tolist()
    roughness, kurtosis = _moments_from_prefix(
        batch, _prefix_sums(batch), window_list, row_list, floor, workspace
    )
    return np.array(roughness, dtype=np.float64), np.array(kurtosis, dtype=np.float64)


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
