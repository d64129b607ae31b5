"""repro.pyramid — multi-resolution views of one window.

Pixel-aware pre-aggregation (Section 4.4) is ASAP's biggest speedup lever,
and the serving workload multiplies it: many clients chart the *same* stream
at *different* pixel widths.  Instead of one pinned-resolution session per
client, one session retains the stream's window once and a
:class:`ViewSpec` resolves any requested pixel width on demand
(:func:`resolve_view`): level buckets at the nearest geometric ratio
(1/4/16/64 base points per bucket) that divides the window's point-to-pixel
ratio, then a residual re-bucket.  Nothing is maintained between views, so
a stream that is never viewed pays nothing for being viewable (the paper's
on-demand refresh, Section 4.5, applied to its pre-aggregation).

The resulting :class:`PyramidView` carries exactly the series the direct
pipeline (:func:`repro.core.preaggregation.prepare_search_input`) would have
searched — bit-identical when a level matches the ratio (residual 1), within
1e-9 otherwise — plus the ``window_in_original_units`` map back to base
units, so every consumer (the streaming operator's
:meth:`~repro.core.streaming.StreamingASAP.pyramid_view`, the StreamHub's
``snapshot(stream_id, resolution=...)``) serves results equivalent to
running the from-scratch operator on the directly pre-aggregated window.
"""

from .rollup import DEFAULT_LEVEL_RATIOS, PyramidError, resolve_view
from .view import PyramidView, ViewSpec

__all__ = [
    "DEFAULT_LEVEL_RATIOS",
    "PyramidError",
    "PyramidView",
    "ViewSpec",
    "resolve_view",
]
