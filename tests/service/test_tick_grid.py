"""Grid-strategy streams refresh on a hub tick exactly as lone operators do.

Every ingest below ends on a refresh boundary, so every refresh is deferred
to :meth:`~repro.service.StreamHub.tick`.  Several streams of each grid
strategy share one window length, the shape a tick could batch; each must
still produce the frames, search results and counters of a lone operator
built from the same spec.
"""

from __future__ import annotations

import numpy as np

from repro.service import StreamHub
from repro.spec import AsapSpec

SPEC = AsapSpec(pane_size=2, resolution=64, refresh_interval=4)
CHUNK = SPEC.pane_size * SPEC.refresh_interval  # every ingest ends on a boundary
GRID_STRATEGIES = ("exhaustive", "grid2", "grid10")
STREAMS_PER_STRATEGY = 3
ROUNDS = 42


def make_values(n: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(27031)
    t = np.arange(n, dtype=np.float64)
    return {
        f"{strategy}-{index}": np.sin(2 * np.pi * t / float(rng.integers(12, 60)))
        + 0.3 * rng.normal(size=n)
        for strategy in GRID_STRATEGIES
        for index in range(STREAMS_PER_STRATEGY)
    }


def operator_counters(operator) -> dict[str, int]:
    return {
        **operator.counters,
        "searches_run": operator.searches_run,
        "candidates_evaluated": operator.candidates_evaluated,
    }


def test_tick_refreshes_equal_lone_operators():
    n = CHUNK * ROUNDS
    ts = np.arange(n, dtype=np.float64)
    values = make_values(n)
    hub = StreamHub(default_config=SPEC)
    for sid in values:
        hub.create_stream(sid, strategy=sid.split("-")[0])

    frames: dict[str, list] = {sid: [] for sid in values}
    for at in range(0, n, CHUNK):
        for sid, vs in values.items():
            assert hub.ingest(sid, ts[at : at + CHUNK], vs[at : at + CHUNK]) == []
        for sid, emitted in hub.tick().items():
            frames[sid].extend(emitted)

    for sid, vs in values.items():
        lone = SPEC.merge(strategy=sid.split("-")[0]).build_operator()
        want = lone.push_many(ts, vs)
        got = frames[sid]
        assert len(got) == len(want) == ROUNDS - 1, sid
        for frame, expected in zip(got, want):
            assert repr(frame.search) == repr(expected.search), sid
            assert frame.series.values.tobytes() == expected.series.values.tobytes(), sid
            assert frame.series.timestamps.tobytes() == expected.series.timestamps.tobytes()
            assert frame == expected, sid
        assert operator_counters(hub._sessions[sid].operator) == operator_counters(lone), sid
