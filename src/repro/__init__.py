"""repro — a reproduction of ASAP: Prioritizing Attention via Time Series
Smoothing (Rong & Bailis, VLDB 2017).

ASAP automatically smooths a time series for visualization: it picks the
simple-moving-average window that minimizes roughness (the standard deviation
of first differences) while preserving kurtosis (so large-scale deviations
stay visible), and does so fast via autocorrelation pruning, pixel-aware
preaggregation, and on-demand streaming refresh.

One spec, one client.  Every tier is configured by a single validated,
JSON-round-trippable object (:class:`~repro.spec.AsapSpec`) and served
through a single façade (:func:`~repro.client.connect`), so the same program
scales from one in-process series to a multi-process sharded cluster to a
networked server by changing one argument::

    import repro

    client = repro.connect("local")        # or "hub", "sharded", "tcp://..."
    result = client.smooth(values, resolution=800)
    print(result.summary())

    stream = client.stream(pane_size=4, refresh_interval=25)
    stream.ingest(timestamps, values)
    frames = stream.tick()
    client.checkpoint("state.ckpt")        # durable; restores bit-identically

The direct entry points (``smooth``, ``smooth_many``, ``StreamHub``,
``ShardedHub``, ...) remain first-class — they are thin shims over the same
spec-driven path and produce bit-identical results.

Packages:

* :mod:`repro.spec` — :class:`AsapSpec`, the one configuration object;
* :mod:`repro.client` — :func:`connect` and the tier façade;
* :mod:`repro.errors` — the consolidated exception surface;
* :mod:`repro.core` — the ASAP operator (metrics, search, streaming);
* :mod:`repro.engine` — the multi-series batch engine (``smooth_many``);
* :mod:`repro.pyramid` — multi-resolution views, resolved on demand
  (``resolve_view``, ``ViewSpec``);
* :mod:`repro.service` — the multi-tenant streaming service (``StreamHub``);
* :mod:`repro.cluster` — the sharded serving tier (``ShardedHub``: consistent
  hashing, process shards, live rebalancing, crash recovery);
* :mod:`repro.persist` — durable checkpoint/restore of serving state
  (bit-identical resumption, no pickle);
* :mod:`repro.net` — the network serving tier (:func:`serve` /
  :class:`AsapServer`, ``connect("tcp://host:port")``, server-push frame
  subscriptions over a pickle-free schema-stamped wire protocol);
* :mod:`repro.quality` — data-quality normalization (gap/NaN policies,
  watermarked reordering, per-window completeness);
* :mod:`repro.timeseries` — series container, statistics, dataset
  reconstructions;
* :mod:`repro.spectral` — FFT, moving-average kernels, alternative filters;
* :mod:`repro.stream` — panes (count and mean), the operator contract,
  replay sources;
* :mod:`repro.vis` — rasterization, pixel metrics, M4/PAA/simplification;
* :mod:`repro.perception` — the simulated-observer user-study harness;
* :mod:`repro.experiments` — regenerators for every table and figure.
"""

from .core import (
    ASAP,
    DEFAULT_RESOLUTION,
    BackfillResult,
    Frame,
    SearchResult,
    SmoothingResult,
    StreamingASAP,
    find_window,
    smooth,
)
from .client import Client, StreamHandle, connect
from .cluster import ShardedHub
from .engine import BatchEngine, BatchResult, smooth_many
from .errors import DataQualityError, NetError, SpecError
from .net import AsapServer, PushEvent, RemoteBackend, serve
from .persist import checkpoint, restore
from .pyramid import PyramidView, ViewSpec
from .quality import FrameQuality, normalize_series
from .service import StreamHub
from .spec import AsapSpec
from .timeseries import TimeSeries

__version__ = "1.9.0"

__all__ = [
    "ASAP",
    "AsapServer",
    "AsapSpec",
    "BackfillResult",
    "BatchEngine",
    "BatchResult",
    "Client",
    "DEFAULT_RESOLUTION",
    "DataQualityError",
    "Frame",
    "FrameQuality",
    "NetError",
    "PushEvent",
    "RemoteBackend",
    "PyramidView",
    "SearchResult",
    "ShardedHub",
    "SmoothingResult",
    "SpecError",
    "StreamHandle",
    "StreamHub",
    "StreamingASAP",
    "TimeSeries",
    "ViewSpec",
    "checkpoint",
    "connect",
    "find_window",
    "normalize_series",
    "restore",
    "serve",
    "smooth",
    "smooth_many",
    "__version__",
]
