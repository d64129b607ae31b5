"""A refresh that raises does not starve the other due sessions of a tick."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.streaming as streaming
from repro.errors import IncrementalDriftError
from repro.persist import checkpoint, restore
from repro.service import StreamHub
from repro.spec import AsapSpec

SPEC = AsapSpec(pane_size=2, resolution=64, refresh_interval=4)
CHUNK = SPEC.pane_size * SPEC.refresh_interval  # every ingest ends on a boundary
IDS = ("a", "b", "c")


def make_values(n: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20231)
    t = np.arange(n, dtype=np.float64)
    return {
        sid: np.sin(2 * np.pi * t / (40 + 9 * i)) + 0.3 * rng.normal(size=n)
        for i, sid in enumerate(IDS)
    }


def drift(label, incremental, exact):
    raise IncrementalDriftError(f"injected {label} drift")


class Driver:
    """Feeds the three streams chunk by chunk and records what comes out."""

    def __init__(self, hub: StreamHub, n: int) -> None:
        self.hub = hub
        self.ts = np.arange(n, dtype=np.float64)
        self.values = make_values(n)
        self.frames = {sid: [] for sid in IDS}
        self.emitted = [hub.stats.frames_emitted]
        self.at = 0

    def collect(self, emitted) -> None:
        for sid, frames in emitted.items():
            self.frames[sid].extend(frames)
        self.emitted.append(self.hub.stats.frames_emitted)

    def ingest(self) -> None:
        chunk = slice(self.at, self.at + CHUNK)
        for sid in IDS:
            inline = self.hub.ingest(sid, self.ts[chunk], self.values[sid][chunk])
            self.collect({sid: inline})
        self.at += CHUNK

    def tick(self) -> None:
        self.collect(self.hub.tick())


def make_hub() -> StreamHub:
    hub = StreamHub(default_config=SPEC)
    for sid in IDS:
        # Only "b" compares its incremental statistics with an exact
        # recompute, so only its refresh meets the injected drift.
        hub.create_stream(sid, verify_incremental=(sid == "b"))
    return hub


def lone_frames(sid: str, driver: Driver) -> list:
    operator = SPEC.build_operator()
    return list(operator.push_many(driver.ts[: driver.at], driver.values[sid][: driver.at]))


def test_raising_refresh_does_not_starve_the_tick(monkeypatch):
    driver = Driver(make_hub(), n=CHUNK * 30)
    for _ in range(10):
        driver.ingest()
        driver.tick()
    before = driver.emitted[-1]
    counts = {sid: len(frames) for sid, frames in driver.frames.items()}
    assert before == sum(counts.values()) > 0

    driver.ingest()
    with monkeypatch.context() as patch:
        patch.setattr(streaming, "_check_agreement", drift)
        with pytest.raises(IncrementalDriftError, match=r"stream\(s\) 'b'") as excinfo:
            driver.hub.tick()
    assert "injected" in str(excinfo.value)
    # None of the failing tick's frames reached a caller yet...
    assert {sid: len(frames) for sid, frames in driver.frames.items()} == counts
    # The failing tick still counted the two frames it produced, once.
    driver.emitted.append(driver.hub.stats.frames_emitted)
    assert driver.emitted[-1] == before + 2

    # ...the next one returns them, and retries 'b''s refresh, which stayed
    # due: it emits the frame 'b' would have emitted had it never failed.
    driver.tick()
    assert {sid: len(frames) for sid, frames in driver.frames.items()} == {
        "a": counts["a"] + 1,
        "b": counts["b"] + 1,
        "c": counts["c"] + 1,
    }
    assert driver.emitted[-1] == before + 3
    for _ in range(5):
        driver.ingest()
        driver.tick()

    for sid in IDS:
        assert driver.frames[sid] == lone_frames(sid, driver)
    assert driver.emitted == sorted(driver.emitted)
    assert driver.emitted[-1] == sum(len(frames) for frames in driver.frames.values())


def test_stashed_frames_survive_a_checkpoint(monkeypatch):
    driver = Driver(make_hub(), n=CHUNK * 20)
    for _ in range(8):
        driver.ingest()
        driver.tick()
    driver.ingest()
    with monkeypatch.context() as patch:
        patch.setattr(streaming, "_check_agreement", drift)
        with pytest.raises(IncrementalDriftError):
            driver.hub.tick()

    driver.hub = restore(checkpoint(driver.hub))
    driver.tick()
    for _ in range(4):
        driver.ingest()
        driver.tick()
    # The checkpoint carried 'b''s pending refresh; the restored hub retried it.
    for sid in IDS:
        assert driver.frames[sid] == lone_frames(sid, driver)
    assert driver.emitted[-1] == sum(len(frames) for frames in driver.frames.values())


def test_lasting_failure_recovers_once_the_bad_pane_leaves_the_window():
    # With a watermark and no normalizer a NaN enters a pane, and every
    # refresh whose window holds it raises.  The stream must keep folding
    # new data, so the pane leaves the window and frames resume.
    spec = AsapSpec(pane_size=2, resolution=32, refresh_interval=4, watermark=4)
    chunk, rounds = 8, 40
    t = np.arange(chunk * rounds, dtype=np.float64)
    values = np.sin(t / 7.0) + 0.01 * t
    values[chunk * 10 + 3] = np.nan
    hub, clean = StreamHub(default_config=spec), StreamHub(default_config=spec)
    hub.create_stream("s")
    clean.create_stream("s")
    failed_ticks, frames, clean_frames = [], [], []
    for round_ in range(rounds):
        span = slice(round_ * chunk, (round_ + 1) * chunk)
        try:
            frames.extend(hub.ingest("s", t[span], values[span]))
        except ValueError:
            # A boundary inside the batch refreshes inline over the NaN.
            assert round_ <= 11
        clean_frames.extend(clean.ingest("s", t[span], np.nan_to_num(values[span])))
        clean_frames.extend(clean.tick().get("s", []))
        try:
            frames.extend(hub.tick().get("s", []))
        except ValueError as error:
            assert "'s'" in str(error)
            failed_ticks.append(round_)
    assert failed_ticks
    after = rounds - 1 - failed_ticks[-1]
    assert after >= 10
    # Every boundary after the last failure emitted a frame again, over all
    # the data the clean stream folded, with the NaN out of the window.
    recovered = frames[-after:]
    assert [frame.points_ingested for frame in recovered] == [
        frame.points_ingested for frame in clean_frames[-after:]
    ]
    assert all(np.isfinite(frame.series.values).all() for frame in recovered)
