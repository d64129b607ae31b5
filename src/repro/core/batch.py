"""Batch ASAP: the public one-call smoothing API (Algorithm 2 end to end).

Given a series and a target resolution, :func:`smooth`:

1. preaggregates to the point-to-pixel ratio (Section 4.4),
2. searches for the best window with the requested strategy (ASAP by
   default; the baselines are available for comparison), and
3. applies the simple moving average and returns a
   :class:`~repro.core.result.SmoothingResult`.

Configuration flows through one object: every call builds (or is handed) an
:class:`~repro.spec.AsapSpec`, so the knob spelling, validation, and defaults
are identical across ``smooth``, ``find_window``, the reusable :class:`ASAP`
operator, the batch engine, and the serving tiers — invalid knobs raise
:class:`~repro.errors.SpecError` (a ``ValueError``) naming the field.  The
kwarg signatures remain as shims that delegate to the spec path.

:class:`ASAP` wraps the same pipeline as a configured, reusable object.  For
smoothing *many* series per refresh — the dashboard workload — see
:func:`repro.engine.smooth_many`, which runs this pipeline's stages with
shared caches and batched kernels, assembles each result with this module's
code, and therefore returns bit-identical results.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataQualityError
from ..quality.normalize import normalize_series
from ..spec import DEFAULT_RESOLUTION, AsapSpec, resolve_spec, spec_backed
from ..timeseries.series import TimeSeries, checked_values
from .acf import ACFAnalysis
from .preaggregation import expected_ratio, prepare_search_input
from .result import SmoothingResult
from .search import SearchResult, run_strategy
from .smoothing import EvaluationCache, sma

__all__ = ["smooth", "find_window", "ASAP", "DEFAULT_RESOLUTION"]


def _coerce_series(data) -> TimeSeries:
    if isinstance(data, TimeSeries):
        return data
    return TimeSeries(np.asarray(data, dtype=np.float64))


def _input_series(data, spec: AsapSpec) -> tuple[np.ndarray, TimeSeries | None]:
    """The input's values, plus its :class:`TimeSeries` unless it is bare.

    With ``spec.normalize`` off (the default) a :class:`TimeSeries` passes
    through, and a bare array is validated in place with the same errors
    :class:`TimeSeries` raises — no copy and no implicit timestamps, since
    the output reads only the bucket starts of those (``None`` tells
    :func:`smooth` to use the implicit ``0..n-1``).  On, the *raw* values
    and timestamps run through :func:`repro.quality.normalize_series` with
    the spec's cadence and gap policy first — before :class:`TimeSeries`
    construction, because NaN dropping is part of the stage and
    ``TimeSeries`` rejects non-finite values.  Dense regular input returns
    the same arrays (normalize's no-op guarantee), so the coerced series is
    value-identical and the smoothing output bit-identical.  The ``"split"``
    policy yields multiple disjoint segments — one smooth over them is not
    well defined, so it is rejected here with a pointer to the explicit
    per-segment path.
    """
    if not spec.normalize:
        if isinstance(data, TimeSeries):
            return data.values, data
        return checked_values(data, copy=False), None
    if spec.gap_policy == "split":
        raise DataQualityError(
            "gap_policy='split' yields disjoint segments, which a single "
            "smooth/find_window pass cannot represent; call "
            "repro.quality.normalize_series directly and smooth each "
            "segment, or use 'interpolate'/'ffill'"
        )
    if isinstance(data, TimeSeries):
        raw_vs, raw_ts, name = data.values, data.timestamps, data.name
    else:
        raw_vs, raw_ts, name = np.asarray(data, dtype=np.float64), None, None
    norm = normalize_series(raw_vs, raw_ts, cadence=spec.cadence, gap_policy=spec.gap_policy)
    if norm.values is raw_vs and (raw_ts is None or norm.timestamps is raw_ts):
        series = _coerce_series(data)  # dense no-op: keep the caller's arrays
    else:
        series = TimeSeries(norm.values, norm.timestamps, name=name)
    return series.values, series


def _prepare(
    values: np.ndarray,
    spec: AsapSpec,
    cache: EvaluationCache | None,
) -> tuple[np.ndarray, int, EvaluationCache]:
    """The search input: (aggregated values, point-to-pixel ratio, cache).

    The aggregation itself is the shared pipeline stage
    (:func:`repro.core.preaggregation.prepare_search_input`) — the one
    definition every consumer of "the searched series" goes through.  With a
    caller-supplied cache, the cache's values *are* the search input — the
    caller computed them with the same stage — so the pass is skipped; the
    expected output shape is still verified.
    """
    if cache is not None:
        ratio = expected_ratio(values.size, spec.resolution, spec.use_preaggregation)
        expected_size = values.size // ratio if ratio > 1 else values.size
        if cache.values.size != expected_size:
            raise ValueError(
                f"supplied EvaluationCache holds {cache.values.size} values but the "
                f"pipeline would search {expected_size}; pass the preaggregated "
                "values the pipeline produces"
            )
        return cache.values, ratio, cache
    staged = prepare_search_input(values, spec.resolution, spec.use_preaggregation)
    return staged.values, staged.ratio, EvaluationCache(staged.values)


def find_window(
    data,
    resolution: int | None = None,
    max_window: int | None = None,
    strategy: str | None = None,
    use_preaggregation: bool | None = None,
    *,
    cache: EvaluationCache | None = None,
    acf: ACFAnalysis | None = None,
    spec: AsapSpec | None = None,
) -> tuple[SearchResult, int]:
    """Search for the best window without producing the smoothed series.

    Returns ``(search_result, preaggregation_ratio)``; the window in the
    result is in aggregated units.  Configuration resolves exactly as in
    :func:`smooth`.
    """
    spec = resolve_spec(
        spec,
        resolution=resolution,
        max_window=max_window,
        strategy=strategy,
        use_preaggregation=use_preaggregation,
    )
    values, _ = _input_series(data, spec)
    values, ratio, cache = _prepare(values, spec, cache)
    result = run_strategy(spec.strategy, values, spec.max_window, cache=cache, acf=acf)
    return result, ratio


def smooth(
    data,
    resolution: int | None = None,
    max_window: int | None = None,
    strategy: str | None = None,
    use_preaggregation: bool | None = None,
    *,
    cache: EvaluationCache | None = None,
    acf: ACFAnalysis | None = None,
    spec: AsapSpec | None = None,
) -> SmoothingResult:
    """Automatically smooth a time series for visualization.

    Parameters
    ----------
    data:
        A :class:`~repro.timeseries.TimeSeries` or 1-D array-like.
    resolution:
        Target display width in pixels; drives preaggregation and the final
        point budget.  Defaults to the spec's (800).
    max_window:
        Optional cap on candidate windows (aggregated units).  Defaults to
        one tenth of the searched series, the paper's setting.
    strategy:
        ``"asap"`` (default) or one of the baselines
        (``exhaustive``/``grid2``/``grid10``/``binary``).
    use_preaggregation:
        Disable to search the raw series — exact but orders of magnitude
        slower on large inputs (the paper's `ASAPno-agg` configuration).
    cache:
        Optional pre-filled :class:`~repro.core.smoothing.EvaluationCache`
        over the (preaggregated) search input, shared with other searches of
        the same values.
    acf:
        Optional precomputed ACF analysis of the search input (consumed by
        the ASAP strategy only); the batch engine's LRU cache passes it to
        amortize the FFT across refreshes.
    spec:
        An :class:`~repro.spec.AsapSpec` carrying the configuration whole.
        Explicit kwargs override the spec field-by-field
        (``smooth(x, strategy="grid2", spec=s)`` runs
        ``s.merge(strategy="grid2")``); with no spec the kwargs build one,
        so both spellings validate identically.  ``None`` kwargs mean "not
        provided" — to clear a spec's ``max_window`` cap, pass
        ``spec=s.merge(max_window=None)``.

    Examples
    --------
    >>> from repro import smooth
    >>> from repro.timeseries import load
    >>> result = smooth(load("taxi", scale=0.5).series, resolution=400)
    >>> result.window >= 1
    True
    """
    spec = resolve_spec(
        spec,
        resolution=resolution,
        max_window=max_window,
        strategy=strategy,
        use_preaggregation=use_preaggregation,
    )
    values, series = _input_series(data, spec)
    searched_values, ratio, cache = _prepare(values, spec, cache)

    search = run_strategy(spec.strategy, searched_values, spec.max_window, cache=cache, acf=acf)
    return _assemble(series, cache, ratio, search)


def _assemble(
    series: TimeSeries | None, cache: EvaluationCache, ratio: int, search: SearchResult
) -> SmoothingResult:
    """The result of *search* over *cache*'s values: the tail of :func:`smooth`.

    *series* is the validated input (``None`` for a bare array, whose
    timestamps are the implicit ``0..n-1``) and *ratio* its point-to-pixel
    ratio.  The batch engine assembles each series through here too, once
    its search has run (or its memoized result is found), so a batch result
    is built by exactly the code that builds a looped one.
    """
    smoothed_values = sma(cache.values, search.window)
    bucket_starts = np.arange(smoothed_values.size) * ratio
    if series is None:
        # The implicit timestamps 0..n-1 at the bucket starts, bit for bit.
        out_timestamps = bucket_starts.astype(np.float64)
        name = "asap"
    else:
        out_timestamps = series.timestamps[bucket_starts]
        name = f"{series.name}:asap" if series.name else "asap"
    smoothed = TimeSeries(smoothed_values, out_timestamps, name=name)

    # The search already measured the chosen window (and the window-1
    # incumbent is the original series), so the result's output moments come
    # from the shared cache instead of a redundant rescan.
    if search.window == 1:
        out_roughness = cache.original_roughness
        out_kurtosis = cache.original_kurtosis
    else:
        chosen = cache.evaluate(search.window)
        out_roughness = chosen.roughness
        out_kurtosis = chosen.kurtosis

    return SmoothingResult(
        series=smoothed,
        window=search.window,
        window_original_units=search.window * ratio,
        preaggregation_ratio=ratio,
        search=search,
        original_roughness=cache.original_roughness,
        original_kurtosis=cache.original_kurtosis,
        roughness=out_roughness,
        kurtosis=out_kurtosis,
    )


@spec_backed(*AsapSpec.OPERATOR_FIELDS)
class ASAP:
    """A configured smoothing operator, reusable across series.

    A thin, attribute-compatible wrapper around an
    :class:`~repro.spec.AsapSpec`: every knob the functions take, the
    operator takes, and per-call search state (``cache``/``acf``) forwards
    through — the operator and the functions accept exactly the same inputs
    and produce bit-identical results.

    >>> operator = ASAP(resolution=1200)
    >>> result = operator.smooth([1.0, 2.0, 1.0, 2.0] * 50)
    >>> result.window >= 1
    True
    """

    def __init__(
        self,
        resolution: int | None = None,
        max_window: int | None = None,
        strategy: str | None = None,
        use_preaggregation: bool | None = None,
        spec: AsapSpec | None = None,
    ) -> None:
        self.spec = resolve_spec(
            spec,
            resolution=resolution,
            max_window=max_window,
            strategy=strategy,
            use_preaggregation=use_preaggregation,
        )

    @classmethod
    def from_spec(cls, spec: AsapSpec) -> "ASAP":
        return cls(spec=spec)

    # The knob attributes (resolution/max_window/strategy/use_preaggregation)
    # are installed by @spec_backed: reads come from self.spec, and
    # assignment — historically a plain attribute write — re-merges the spec,
    # so `operator.resolution = 0` now raises SpecError instead of lingering.

    def smooth(self, data, *, cache=None, acf=None) -> SmoothingResult:
        """Smooth one series with this operator's configuration."""
        return smooth(data, cache=cache, acf=acf, spec=self.spec)

    def find_window(self, data, *, cache=None, acf=None) -> tuple[SearchResult, int]:
        """Search only; see :func:`find_window`."""
        return find_window(data, cache=cache, acf=acf, spec=self.spec)

    def __repr__(self) -> str:
        return (
            f"ASAP(resolution={self.resolution}, strategy={self.strategy!r}, "
            f"max_window={self.max_window}, "
            f"use_preaggregation={self.use_preaggregation})"
        )
