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

A long stack of candidates — a grid strategy's whole candidate grid, for
one series or for every member of a batch — goes through the same core in
chunks of at most :data:`_GRID_CHUNK_ELEMENTS` elements
(:func:`_grid_chunks`), reusing one workspace.

Determinism contract: a value computed through a stacked or chunked call is
bit-identical to the same value computed alone — row-wise numpy reductions
over a contiguous final axis do not depend on the number of rows, and
chunking never changes buffer contents.  The moments agree with the scalar
statistics kernels (:mod:`repro.timeseries.stats`) to floating-point
roundoff: the reductions sum zero-padded buffers, a different order than
the scalar two-pass reference.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "sma",
    "sma_with_slide",
    "sma_window_moments",
    "sma_probe_moments",
]

#: Upper bound on the elements one call of the prepared-prefix core
#: materializes for a long candidate stack (a grid strategy's grid).  The
#: core streams two same-sized buffers, so this budget (~512 KB of float64
#: each) keeps the working set inside the CPU cache hierarchy: an
#: exhaustive grid of 1,199 windows over 12,000 points took 104 ms chunked
#: against 173 ms in one call (2-core x86 VM).  Chunking never changes
#: results: every output's reductions are independent of its chunk-mates.
_GRID_CHUNK_ELEMENTS = 65_536


def _grid_chunks(count: int, n: int) -> tuple[np.ndarray, list[slice]]:
    """Chunk a stack of *count* outputs over length-*n* series for the core.

    Returns one workspace for :func:`_moments_from_prefix` and the slices
    of the stack each call takes: at most ``_GRID_CHUNK_ELEMENTS // n``
    outputs (and at least one) per call, every call reusing the workspace.
    """
    step = max(1, _GRID_CHUNK_ELEMENTS // n)
    workspace = np.empty((2, min(count, step), n), dtype=np.float64)
    return workspace, [slice(start, start + step) for start in range(0, count, step)]


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


# -- probe-set kernels --------------------------------------------------------


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

    Bit-identical to the same window inside any :func:`sma_probe_moments`
    call or any :class:`~repro.core.smoothing.EvaluationCache` grid: all of
    them reduce the same zero-padded buffers in the same order, and this
    kernel is the shared prepared-prefix core at one window.  The
    equivalence is pinned by ``tests/spectral``.

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

    It never chunks and keeps the whole ``(len(windows), n)`` buffer
    resident; a large candidate grid belongs in
    :meth:`~repro.core.smoothing.EvaluationCache.evaluate_many`, which
    chunks.  Callers on a hot path can pass *workspace* — a
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
