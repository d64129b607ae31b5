"""AsapSpec — one validated, wire-serializable configuration for every tier.

The ASAP paper presents one operator with a handful of knobs: target
resolution, window ceiling, search strategy, pixel-aware preaggregation, and
the streaming refresh cadence.  Before this module, each serving tier spelled
those knobs its own way — ``smooth()`` kwargs, the ``ASAP`` dataclass,
``StreamingASAP.__init__``, the service tier's stream config, the cluster
tier's forwarded config — duplicated by hand and drifting apart.

:class:`AsapSpec` is the single source of truth:

* **frozen and validated** — construction runs :meth:`validate`, which raises
  :class:`~repro.errors.SpecError` (a ``ValueError`` subclass) naming the
  offending field;
* **flat-constructible but grouped** — all knobs are top-level constructor
  arguments; :data:`~AsapSpec.OPERATOR_FIELDS`,
  :data:`~AsapSpec.STREAMING_FIELDS`, and :data:`~AsapSpec.SERVING_FIELDS`
  name which tier reads which;
* **wire-serializable** — :meth:`to_dict` / :meth:`from_dict` round-trip
  exactly through JSON and through the :mod:`repro.persist` codec, so one
  spec travels unchanged from a client call through a checkpoint file or the
  cluster's IPC boundary (:data:`SCHEMA_VERSION` is the persist codec's —
  any field change that old readers would misinterpret bumps both);
* **composable** — :meth:`merge` returns a new validated spec with overrides
  applied, equal to constructing one from scratch.

Every tier consumes it: :func:`repro.core.batch.smooth` builds one from its
kwargs (or accepts one via ``spec=``), the hub tiers take one per stream,
``StreamingASAP(spec)`` is the only way to configure a streaming operator
(and its checkpoints carry the spec once), and :func:`repro.client.connect`
carries one as the session default.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, fields

from .errors import SpecError
from .persist.codec import SCHEMA_VERSION
from .quality.normalize import GAP_POLICIES

__all__ = ["AsapSpec", "DEFAULT_RESOLUTION", "SpecError", "SCHEMA_VERSION"]

#: The paper's user-study rendering width; a sensible dashboard default.
DEFAULT_RESOLUTION = 800

def _strategy_names() -> tuple[str, ...]:
    """The registered strategy names — the one registry, read lazily.

    Imported at call time so the spec validates against exactly what
    :func:`repro.core.search.run_strategy` will accept (a strategy added to
    the registry is immediately constructible here) without a module-level
    spec <-> core cycle.
    """
    from .core.search import STRATEGIES

    return tuple(STRATEGIES)


def _require_int(name: str, value, minimum: int | None = None) -> int:
    """Validate one integer field; bools are rejected (they are ints in name only)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise SpecError(f"{name} must be >= {minimum}, got {value}")
    return value


def _require_bool(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise SpecError(f"{name} must be a bool, got {value!r}")
    return value


@dataclass(frozen=True)
class AsapSpec:
    """One frozen, validated configuration object for the whole stack.

    Operator knobs (read by ``smooth``/``find_window``/``ASAP``/``BatchEngine``):

    resolution:
        Target display width in pixels; drives preaggregation, the streaming
        window capacity, and the final point budget.
    max_window:
        Optional cap on candidate windows (aggregated units); ``None`` means
        the paper's n/10 default.
    strategy:
        ``"asap"`` or one of the baselines
        (``"exhaustive"``/``"grid2"``/``"grid10"``/``"binary"``).
    use_preaggregation:
        Disable to search the raw series (batch pipeline only; the streaming
        tier aggregates through ``pane_size`` instead).

    Streaming knobs (read by ``StreamingASAP``):

    pane_size:
        Raw arrivals per aggregated point; 1 disables pixel-aware
        aggregation.
    refresh_interval:
        Aggregated points collected between searches (on-demand refresh).
    seed_from_previous:
        Seed each search from the previous frame's feasible window
        (``CHECKLASTWINDOW``).
    warm_start:
        Seed each refresh's search with the previous refresh's probe trace,
        evaluated by one stacked kernel call, so the replayed search runs on
        cache hits (bit-identical frames; see
        :class:`~repro.core.streaming.StreamingASAP`).
    backfill:
        Archive-replay lane for ``StreamingASAP.backfill`` and the hub
        tiers' ``history=``/``backfill`` entry points: ``"auto"`` (pick the
        vectorized fast lane whenever eliding interior searches is
        frame-exact, otherwise replay every search without rendering),
        ``"replay"`` (force per-boundary searches), or ``"stream"`` (plain
        batched streaming, the debug baseline).  All lanes leave subsequent
        streamed frames bit-identical to point-by-point ingestion.

    Serving knobs (read by the network tier; every session serves
    multi-resolution views, computed from its window on demand):

    max_connections:
        Network serving tier (:mod:`repro.net`) only: concurrent client
        connections one :class:`~repro.net.AsapServer` accepts; connection
        attempts beyond it are refused with a wire-level error.
    subscribe_queue:
        Network serving tier only: per-connection push-outbox depth.  A
        subscriber that stops reading has its *oldest* pending pushes dropped
        (counted as ``push_dropped``) rather than stalling the server or
        growing memory without bound.

    Quality knobs (read by :mod:`repro.quality` at every tier; all default
    *off*, making the quality stage a bit-identical no-op on clean input):

    normalize:
        Enable NaN filtering and gap handling: batch entry points normalize
        through :func:`repro.quality.normalize_series`, streaming operators
        through a stateful :class:`~repro.quality.StreamNormalizer`, and
        frames/snapshots report per-window ``completeness``.
    cadence:
        Declared sampling interval for gap detection; ``None`` infers it
        (median of early spacings).
    gap_policy:
        What to do with a detected gap: ``"interpolate"`` (linear fill),
        ``"ffill"`` (repeat last value), ``"split"`` (counted discontinuity,
        no fill), or ``"reject"`` (raise
        :class:`~repro.errors.DataQualityError`).
    watermark:
        Reordering-buffer depth in points for the streaming path; late
        points within the watermark land in their correct pane, points
        beyond it are counted-and-dropped.  0 disables reordering.

    Defaults are the *serving* defaults, and they are the only defaults:
    ``StreamingASAP`` takes nothing but a spec.  Like the paper's operator,
    every refresh recomputes the window's statistics (ACF and moments) from
    the window itself; panes keep count and mean (the search reads one value
    per pane).

    Fields retired in schema 11 (the pane-sketch and view switches), in
    schema 12 (``kernel``: candidates are always evaluated by the numpy grid
    kernels) and in schema 14 (``incremental``, ``recompute_every`` and
    ``verify_incremental``: window statistics are always exact; see the
    README) are unknown fields: a mapping or JSON document that still names
    one is rejected by :meth:`from_dict` with a :class:`SpecError` naming it.
    """

    resolution: int = DEFAULT_RESOLUTION
    max_window: int | None = None
    strategy: str = "asap"
    use_preaggregation: bool = True
    pane_size: int = 1
    refresh_interval: int = 10
    seed_from_previous: bool = True
    warm_start: bool = True
    max_connections: int = 64
    subscribe_queue: int = 256
    normalize: bool = False
    cadence: float | None = None
    gap_policy: str = "interpolate"
    watermark: int = 0
    backfill: str = "auto"

    #: Wire-schema version; the persist codec's, because specs travel inside
    #: its payloads (session configs, cluster create commands).
    SCHEMA_VERSION = SCHEMA_VERSION

    #: Which tier reads which knobs (the spec itself stays flat).
    OPERATOR_FIELDS = ("resolution", "max_window", "strategy", "use_preaggregation")
    STREAMING_FIELDS = (
        "pane_size",
        "refresh_interval",
        "seed_from_previous",
        "warm_start",
        "backfill",
    )
    SERVING_FIELDS = ("max_connections", "subscribe_queue")
    QUALITY_FIELDS = ("normalize", "cadence", "gap_policy", "watermark")

    def __post_init__(self) -> None:
        self.validate()

    # -- validation -------------------------------------------------------------

    def validate(self) -> "AsapSpec":
        """Check every field; raises :class:`SpecError` naming the first offender."""
        _require_int("resolution", self.resolution, minimum=1)
        if self.max_window is not None:
            _require_int("max_window", self.max_window, minimum=2)
        strategies = _strategy_names()
        if self.strategy not in strategies:
            raise SpecError(
                f"strategy must be one of {', '.join(strategies)}; got {self.strategy!r}"
            )
        _require_bool("use_preaggregation", self.use_preaggregation)
        _require_int("pane_size", self.pane_size, minimum=1)
        _require_int("refresh_interval", self.refresh_interval, minimum=1)
        _require_bool("seed_from_previous", self.seed_from_previous)
        _require_bool("warm_start", self.warm_start)
        _require_int("max_connections", self.max_connections, minimum=1)
        _require_int("subscribe_queue", self.subscribe_queue, minimum=1)
        _require_bool("normalize", self.normalize)
        if self.cadence is not None:
            if (
                isinstance(self.cadence, bool)
                or not isinstance(self.cadence, (int, float))
                or not self.cadence > 0
                or self.cadence != self.cadence  # NaN
                or self.cadence == float("inf")
            ):
                raise SpecError(
                    f"cadence must be a positive finite number or None, got {self.cadence!r}"
                )
        if self.gap_policy not in GAP_POLICIES:
            raise SpecError(
                f"gap_policy must be one of {', '.join(GAP_POLICIES)}; "
                f"got {self.gap_policy!r}"
            )
        _require_int("watermark", self.watermark, minimum=0)
        if self.backfill not in ("auto", "replay", "stream"):
            raise SpecError(
                f"backfill must be one of auto, replay, stream; got {self.backfill!r}"
            )
        return self

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain scalars only — JSON- and persist-codec-safe, field order stable."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data) -> "AsapSpec":
        """Rebuild a spec from :meth:`to_dict` output (or any field mapping).

        Unknown keys are rejected by name — a spec that crossed a wire with a
        field this reader does not know is a schema mismatch, not a default.
        Missing keys take their defaults, so configs written by older
        releases (fewer fields) load unchanged.
        """
        if not isinstance(data, dict):
            raise SpecError(f"spec must be a mapping of fields, got {type(data).__name__}")
        cls._reject_unknown(data)
        return cls(**data)

    def to_json(self) -> str:
        """The spec as a JSON document (``from_json`` inverts it exactly)."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "AsapSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # -- composition ------------------------------------------------------------

    def merge(self, **overrides) -> "AsapSpec":
        """A new validated spec with *overrides* applied.

        Equal to constructing one from scratch with the merged fields;
        unknown override names raise :class:`SpecError` naming them.
        """
        if not overrides:
            return self
        self._reject_unknown(overrides)
        return dataclasses.replace(self, **overrides)

    @classmethod
    def _reject_unknown(cls, names) -> None:
        """Raise :class:`SpecError` naming any non-field entries in *names*."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(names) - known)
        if unknown:
            raise SpecError(
                f"unknown spec field(s): {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )

    # -- builders ---------------------------------------------------------------

    def build_operator(self):
        """A :class:`~repro.core.streaming.StreamingASAP` configured by this spec."""
        from .core.streaming import StreamingASAP

        return StreamingASAP(self)

    def smooth(self, data, *, cache=None, acf=None):
        """Smooth one series with this spec; see :func:`repro.core.batch.smooth`."""
        from .core.batch import smooth

        return smooth(data, cache=cache, acf=acf, spec=self)

    def find_window(self, data, *, cache=None, acf=None):
        """Search only; see :func:`repro.core.batch.find_window`."""
        from .core.batch import find_window

        return find_window(data, cache=cache, acf=acf, spec=self)


def require_spec(spec, hint: str = "") -> AsapSpec:
    """Assert *spec* is an :class:`AsapSpec`; the shared type guard.

    Keeps a mistaken argument (a stream id string, a plain field dict) from
    surfacing as a bare ``AttributeError`` deep inside ``merge`` — the error
    names the type and, via *hint*, the likely fix.
    """
    if not isinstance(spec, AsapSpec):
        suffix = f" ({hint})" if hint else ""
        raise SpecError(f"spec must be an AsapSpec, got {type(spec).__name__}{suffix}")
    return spec


def resolve_spec(spec: AsapSpec | None, hint: str = "", **overrides) -> AsapSpec:
    """The one kwargs -> spec funnel shared by every entry point (legacy
    functions, ``connect``, and the client's per-call overrides).

    *overrides* use ``None`` as "not provided": with no base *spec* they
    construct a fresh one (unknown names rejected by name, via
    :meth:`AsapSpec.from_dict`), otherwise they merge onto it — so
    ``smooth(x, strategy="grid2", spec=s)`` is ``s.merge(strategy="grid2")``.
    One asymmetry follows: an *explicit* ``max_window=None`` cannot clear a
    base spec's cap (it reads as "not provided"); lift a cap with
    ``spec.merge(max_window=None)`` instead.  *hint* rides on the type-guard
    error for call sites with a likely fix to suggest.
    """
    provided = {name: value for name, value in overrides.items() if value is not None}
    if spec is None:
        return AsapSpec.from_dict(provided)
    return require_spec(spec, hint).merge(**provided)


def spec_backed(*names: str):
    """Class decorator installing read/write properties delegating to ``.spec``.

    The back-compat shim for classes whose knobs predate the spec (``ASAP``,
    ``BatchEngine``): each named field reads from ``self.spec``, and
    assignment — historically a plain attribute write — re-merges the spec,
    so it keeps working and now validates.
    """

    def install(cls):
        for name in names:

            def getter(self, _name=name):
                return getattr(self.spec, _name)

            def setter(self, value, _name=name):
                self.spec = self.spec.merge(**{_name: value})

            doc = f"Spec field {name!r}; assignment re-merges the spec and validates."
            setattr(cls, name, property(getter, setter, doc=doc))
        return cls

    return install
