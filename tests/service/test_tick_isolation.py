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

    driver.tick()  # ...the next one returns them; nothing else was due
    assert {sid: len(frames) for sid, frames in driver.frames.items()} == {
        "a": counts["a"] + 1,
        "b": counts["b"],
        "c": counts["c"] + 1,
    }
    for _ in range(5):
        driver.ingest()
        driver.tick()

    for sid in ("a", "c"):
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
    for sid in ("a", "c"):
        assert driver.frames[sid] == lone_frames(sid, driver)
    assert driver.emitted[-1] == sum(len(frames) for frames in driver.frames.values())
