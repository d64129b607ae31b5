"""Streaming quality stages: watermarked reordering and stateful normalization.

Both stages sit *in front of* the :class:`~repro.stream.panes.PaneBuffer`
inside ``StreamingASAP.push_many``:

    arrivals -> ReorderBuffer (watermark) -> StreamNormalizer -> PaneBuffer

and both keep the dense-path guarantee: clean in-order input flows through
bit-identically (the fast paths return the caller's arrays untouched).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..errors import DataQualityError
from .normalize import DEFAULT_GAP_FACTOR, GAP_POLICIES, MAX_FILL_PER_GAP

__all__ = ["ReorderBuffer", "StreamNormalizer"]

#: Spacings sampled before an undeclared cadence is inferred (their median).
CADENCE_INFER_SAMPLES = 8


class ReorderBuffer:
    """Bounded reordering buffer with watermark semantics.

    Holds the ``watermark`` most recent arrivals in timestamp order; every
    arrival beyond that releases the smallest buffered point downstream.  A
    point arriving out of order but still inside the buffer is placed in its
    correct position (counted as *late_accepted*); a point older than the
    last released timestamp can no longer be placed without rewriting emitted
    state, so it is **counted and dropped** (*late_dropped*) — late data never
    corrupts rolling statistics.

    The invariant the equivalence tests pin: as long as every point arrives
    within ``watermark`` positions of its in-order position, the released
    sequence is the fully sorted stream — so downstream frames are
    bit-identical to in-order delivery.  Ties release in arrival order.
    """

    def __init__(self, watermark: int) -> None:
        if watermark < 1:
            raise ValueError(f"watermark must be >= 1, got {watermark}")
        self.watermark = watermark
        self._times: list[float] = []
        self._values: list[float] = []
        self._last_released = -np.inf
        self.late_accepted = 0
        self.late_dropped = 0

    def __len__(self) -> int:
        return len(self._times)

    def push_many(self, timestamps, values) -> tuple[np.ndarray, np.ndarray]:
        """Buffer a batch; return the ``(timestamps, values)`` it released."""
        ts = np.asarray(timestamps, dtype=np.float64)
        vs = np.asarray(values, dtype=np.float64)
        if ts.shape != vs.shape or ts.ndim != 1:
            raise ValueError(
                f"timestamps and values must be equal-length 1-D, got {ts.shape} and {vs.shape}"
            )
        n = ts.size
        if n == 0:
            return ts, vs
        # Fast path: the batch is in order and lands entirely after the
        # buffered points — the common dense case.  Everything pushed past
        # the watermark releases in one slice, arrays untouched.
        buffered = len(self._times)
        in_order = bool(np.all(np.diff(ts) >= 0.0)) if n > 1 else True
        if (
            in_order
            and ts[0] >= self._last_released
            and (buffered == 0 or ts[0] >= self._times[-1])
        ):
            release = buffered + n - self.watermark
            if release <= 0:
                self._times.extend(ts.tolist())
                self._values.extend(vs.tolist())
                return ts[:0], vs[:0]
            from_buffer = min(release, buffered)
            out_ts = np.concatenate((self._times[:from_buffer], ts[: release - from_buffer]))
            out_vs = np.concatenate((self._values[:from_buffer], vs[: release - from_buffer]))
            del self._times[:from_buffer], self._values[:from_buffer]
            self._times.extend(ts[release - from_buffer :].tolist())
            self._values.extend(vs[release - from_buffer :].tolist())
            self._last_released = float(out_ts[-1])
            return out_ts, out_vs
        # Mixed batch: move each maximal nondecreasing run that lands after
        # the buffer tail in one slice; only a genuinely late point (drop or
        # buffer insert) is handled alone.  A run point is always >= the new
        # tail its predecessor just became, so neither drops nor inserts can
        # occur mid-run and the bulk release equals the per-point interleave
        # (releases pop the front of a sorted buffer the run only appends to).
        out_ts: list[float] = []
        out_vs: list[float] = []
        ts_list = ts.tolist()
        vs_list = vs.tolist()
        run_breaks = (np.flatnonzero(np.diff(ts) < 0.0) + 1).tolist()
        run_breaks.append(n)
        b = 0
        i = 0
        while i < n:
            t = ts_list[i]
            if t < self._last_released:
                self.late_dropped += 1
                i += 1
                continue
            if self._times and t < self._times[-1]:
                self.late_accepted += 1
                at = bisect_right(self._times, t)
                self._times.insert(at, t)
                self._values.insert(at, vs_list[i])
                if len(self._times) > self.watermark:
                    released = self._times.pop(0)
                    out_vs.append(self._values.pop(0))
                    out_ts.append(released)
                    self._last_released = released
                i += 1
                continue
            while run_breaks[b] <= i:
                b += 1
            j = run_breaks[b]
            self._times.extend(ts_list[i:j])
            self._values.extend(vs_list[i:j])
            release = len(self._times) - self.watermark
            if release > 0:
                out_ts.extend(self._times[:release])
                out_vs.extend(self._values[:release])
                del self._times[:release], self._values[:release]
                self._last_released = out_ts[-1]
            i = j
        return (
            np.asarray(out_ts, dtype=np.float64),
            np.asarray(out_vs, dtype=np.float64),
        )

    def drain(self) -> tuple[np.ndarray, np.ndarray]:
        """Release every buffered point (oldest first) — the flush path."""
        out_ts = np.asarray(self._times, dtype=np.float64)
        out_vs = np.asarray(self._values, dtype=np.float64)
        self._times = []
        self._values = []
        if out_ts.size:
            self._last_released = float(out_ts[-1])
        return out_ts, out_vs

    def clear(self) -> None:
        """Drop buffered points and the release watermark; the counters are
        stream-lifetime totals and survive."""
        self._times = []
        self._values = []
        self._last_released = -np.inf

    # -- serialization -------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "watermark": self.watermark,
            "times": np.asarray(self._times, dtype=np.float64),
            "values": np.asarray(self._values, dtype=np.float64),
            "last_released": self._last_released,
            "late_accepted": self.late_accepted,
            "late_dropped": self.late_dropped,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ReorderBuffer":
        buffer = cls(watermark=int(state["watermark"]))
        buffer._times = np.asarray(state["times"], dtype=np.float64).tolist()
        buffer._values = np.asarray(state["values"], dtype=np.float64).tolist()
        buffer._last_released = float(state["last_released"])
        buffer.late_accepted = int(state["late_accepted"])
        buffer.late_dropped = int(state["late_dropped"])
        return buffer


class StreamNormalizer:
    """Stateful NaN filtering and gap filling applied batch by batch.

    The streaming counterpart of :func:`~repro.quality.normalize.
    normalize_series`: non-finite values are dropped and counted, spacings
    wider than ``gap_factor * cadence`` are gaps, and gaps are handled per
    ``gap_policy`` (``"interpolate"``/``"ffill"`` synthesize marked fill
    points on the cadence grid; ``"split"`` counts the discontinuity and
    continues; ``"reject"`` raises).  An undeclared cadence is inferred from
    the median of the first :data:`CADENCE_INFER_SAMPLES` spacings.

    The fast path — finite values at dense spacing — returns the caller's
    arrays untouched, preserving downstream bit-identity on clean input.
    """

    def __init__(
        self,
        cadence: float | None = None,
        gap_policy: str = "interpolate",
        gap_factor: float = DEFAULT_GAP_FACTOR,
    ) -> None:
        if gap_policy not in GAP_POLICIES:
            raise DataQualityError(
                f"gap_policy must be one of {', '.join(GAP_POLICIES)}; got {gap_policy!r}"
            )
        if cadence is not None and (cadence <= 0.0 or not np.isfinite(cadence)):
            raise DataQualityError(f"cadence must be a positive finite number, got {cadence!r}")
        self.cadence = None if cadence is None else float(cadence)
        self.declared_cadence = self.cadence
        self.gap_policy = gap_policy
        self.gap_factor = float(gap_factor)
        self._diff_samples: list[float] = []
        self._last_t: float | None = None
        self._last_v: float | None = None
        self.nan_dropped = 0
        self.gaps_filled = 0
        self.gaps_split = 0

    def _observe_cadence(self, ts: np.ndarray) -> None:
        """Accumulate spacing samples until the cadence can be inferred."""
        if self._last_t is None:
            diffs = np.diff(ts)
        else:
            diffs = np.diff(ts, prepend=self._last_t)
        self._diff_samples.extend(diffs[diffs > 0.0].tolist())
        if len(self._diff_samples) >= CADENCE_INFER_SAMPLES:
            self.cadence = float(np.median(self._diff_samples[:CADENCE_INFER_SAMPLES]))

    def process(self, timestamps, values) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Normalize one batch; returns ``(timestamps, values, synthetic)``.

        ``synthetic`` is ``None`` when nothing was filled (the fast path) and
        a bool mask over the returned arrays otherwise.
        """
        ts = np.asarray(timestamps, dtype=np.float64)
        vs = np.asarray(values, dtype=np.float64)
        if ts.shape != vs.shape or ts.ndim != 1:
            raise ValueError(
                f"timestamps and values must be equal-length 1-D, got {ts.shape} and {vs.shape}"
            )
        finite = np.isfinite(vs) & np.isfinite(ts)
        if not finite.all():
            self.nan_dropped += int(vs.size - np.count_nonzero(finite))
            ts = ts[finite]
            vs = vs[finite]
        if ts.size == 0:
            return ts, vs, None
        if self.cadence is None:
            self._observe_cadence(ts)
            if self.cadence is None:
                # Not enough spacings yet: pass through un-gap-checked (these
                # same points are the inference sample).
                self._last_t = float(ts[-1])
                self._last_v = float(vs[-1])
                return ts, vs, None
        threshold = self.gap_factor * self.cadence
        if self._last_t is None:
            gap_free = ts.size < 2 or bool(np.all(np.diff(ts) <= threshold))
        else:
            gap_free = bool(ts[0] - self._last_t <= threshold) and (
                ts.size < 2 or bool(np.all(np.diff(ts) <= threshold))
            )
        if gap_free:
            self._last_t = float(ts[-1])
            self._last_v = float(vs[-1])
            return ts, vs, None
        # Gapped batch: locate every over-threshold spacing, then copy the
        # clean spans between gaps wholesale; only the fills themselves (a
        # handful of points per gap) are built scalar-wise in _fill_gap.
        if self._last_t is None:
            prev_ts = np.concatenate(([ts[0]], ts[:-1]))
        else:
            prev_ts = np.concatenate(([self._last_t], ts[:-1]))
        gap_idx = np.flatnonzero(ts - prev_ts > threshold).tolist()
        parts_ts: list[np.ndarray] = []
        parts_vs: list[np.ndarray] = []
        parts_syn: list[np.ndarray] = []
        start = 0
        for g in gap_idx:
            if g > start:
                parts_ts.append(ts[start:g])
                parts_vs.append(vs[start:g])
                parts_syn.append(np.zeros(g - start, dtype=bool))
            if g > 0:
                self._last_t = float(ts[g - 1])
                self._last_v = float(vs[g - 1])
            fill_ts: list[float] = []
            fill_vs: list[float] = []
            fill_syn: list[bool] = []
            self._fill_gap(float(ts[g]), float(vs[g]), fill_ts, fill_vs, fill_syn)
            if fill_ts:
                parts_ts.append(np.asarray(fill_ts, dtype=np.float64))
                parts_vs.append(np.asarray(fill_vs, dtype=np.float64))
                parts_syn.append(np.asarray(fill_syn, dtype=bool))
            start = g
        parts_ts.append(ts[start:])
        parts_vs.append(vs[start:])
        parts_syn.append(np.zeros(ts.size - start, dtype=bool))
        self._last_t = float(ts[-1])
        self._last_v = float(vs[-1])
        return (
            np.concatenate(parts_ts),
            np.concatenate(parts_vs),
            np.concatenate(parts_syn),
        )

    def _fill_gap(self, t: float, v: float, out_ts, out_vs, out_syn) -> None:
        missing = int(round((t - self._last_t) / self.cadence)) - 1
        if self.gap_policy == "reject":
            raise DataQualityError(
                f"gap of {t - self._last_t!r} (≈{missing + 1} cadences of "
                f"{self.cadence!r}) after t={self._last_t!r} and gap_policy='reject'"
            )
        if self.gap_policy == "split" or missing > MAX_FILL_PER_GAP or missing < 1:
            # Oversized gaps degrade to a counted discontinuity even under a
            # filling policy — a sensor offline for a month is a split, not
            # 2.6 million synthetic points.
            self.gaps_split += 1
            return
        base_t = self._last_t
        base_v = self._last_v
        for k in range(1, missing + 1):
            out_ts.append(base_t + k * self.cadence)
            if self.gap_policy == "interpolate":
                out_vs.append(base_v + (v - base_v) * (k / (missing + 1)))
            else:  # ffill
                out_vs.append(base_v)
            out_syn.append(True)
        self.gaps_filled += missing

    def clear(self) -> None:
        """Forget the cadence and last-seen point; the counters are
        stream-lifetime totals and survive."""
        self.cadence = self.declared_cadence
        self._diff_samples = []
        self._last_t = None
        self._last_v = None

    # -- serialization -------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "declared_cadence": self.declared_cadence,
            "cadence": self.cadence,
            "gap_policy": self.gap_policy,
            "gap_factor": self.gap_factor,
            "diff_samples": np.asarray(self._diff_samples, dtype=np.float64),
            "last_t": self._last_t,
            "last_v": self._last_v,
            "nan_dropped": self.nan_dropped,
            "gaps_filled": self.gaps_filled,
            "gaps_split": self.gaps_split,
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamNormalizer":
        normalizer = cls(
            cadence=state["declared_cadence"],
            gap_policy=str(state["gap_policy"]),
            gap_factor=float(state["gap_factor"]),
        )
        normalizer.cadence = None if state["cadence"] is None else float(state["cadence"])
        normalizer._diff_samples = np.asarray(state["diff_samples"], dtype=np.float64).tolist()
        normalizer._last_t = None if state["last_t"] is None else float(state["last_t"])
        normalizer._last_v = None if state["last_v"] is None else float(state["last_v"])
        normalizer.nan_dropped = int(state["nan_dropped"])
        normalizer.gaps_filled = int(state["gaps_filled"])
        normalizer.gaps_split = int(state["gaps_split"])
        return normalizer
