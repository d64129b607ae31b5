"""Property: lockstep batches equal looped ``smooth()`` on random dashboards.

Hypothesis draws a batch — periodic, aperiodic and constant series over a
few lengths (so several searched-length groups and singletons), with
repeats — and a strategy (the adaptive ones' step-generator rounds and the
grid strategies' one stacked grid round), then checks the batch engine's
first submission (cold searches in lockstep) and its resubmission (replay
from the search-state cache) against :func:`repro.core.batch.smooth`, field by
field.  Runs in the ``ci`` and ``nightly`` fuzz legs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import smooth
from repro.core.search import STRATEGIES
from repro.engine import BatchEngine

RESOLUTION = 100
#: Raw lengths and the searched lengths they give at RESOLUTION: 1000 -> 100,
#: 500 -> 100, 250 -> 125, 150 -> 150 (below twice the resolution), 60 -> 60.
LENGTHS = (1000, 500, 250, 150, 60)


def _series(kind: str, length: int, rng) -> np.ndarray:
    t = np.arange(length, dtype=np.float64)
    if kind == "constant":
        return np.full(length, float(rng.normal()))
    noise = rng.normal(size=length) * float(rng.choice([1e-3, 1.0, 1e3]))
    if kind == "aperiodic":
        return noise
    period = float(rng.integers(4, max(length // 4, 5)))
    return 10.0 * np.sin(2 * np.pi * t / period) + noise


@st.composite
def batches(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["periodic", "periodic", "aperiodic", "constant"]),
                st.sampled_from(LENGTHS),
            ),
            min_size=1,
            max_size=7,
        )
    )
    batch = [_series(kind, length, rng) for kind, length in specs]
    repeats = draw(st.lists(st.integers(min_value=0, max_value=len(batch) - 1), max_size=2))
    return batch + [batch[index] for index in repeats]


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


@given(batch=batches(), strategy=st.sampled_from(list(STRATEGIES)))
@settings(deadline=None)
def test_lockstep_batch_equals_looped_smooth(batch, strategy):
    looped = [smooth(values, resolution=RESOLUTION, strategy=strategy) for values in batch]
    engine = BatchEngine(resolution=RESOLUTION, strategy=strategy)
    for _ in range(2):  # cold searches in lockstep, then the cached replay
        for got, want in zip(engine.smooth_many(batch), looped):
            assert got == want
            assert got.search == want.search
            assert got.series.values.tobytes() == want.series.values.tobytes()
            assert got.series.timestamps.tobytes() == want.series.timestamps.tobytes()
            for field in ("roughness", "kurtosis", "original_roughness", "original_kurtosis"):
                assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field
            assert repr(got) == repr(want)
