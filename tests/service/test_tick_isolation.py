"""A refresh that raises does not starve the other due sessions of a tick."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.streaming as streaming
from repro.persist import checkpoint, restore
from repro.service import StreamHub
from repro.spec import AsapSpec

SPEC = AsapSpec(pane_size=2, resolution=64, refresh_interval=4)
CHUNK = SPEC.pane_size * SPEC.refresh_interval  # every ingest ends on a boundary
IDS = ("a", "b", "c")
# Only "b" caps its window, so only its search meets the injected failure.
SPECS = {sid: SPEC.merge(max_window=16) if sid == "b" else SPEC for sid in IDS}


def make_values(n: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20231)
    t = np.arange(n, dtype=np.float64)
    return {
        sid: np.sin(2 * np.pi * t / (40 + 9 * i)) + 0.3 * rng.normal(size=n)
        for i, sid in enumerate(IDS)
    }


def failing_search_for_b(original):
    def search(values, **kwargs):
        if kwargs["max_window"] == SPECS["b"].max_window:
            raise RuntimeError("injected search failure")
        return original(values, **kwargs)

    return search


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
        hub.create_stream(sid, config=SPECS[sid])
    return hub


def lone_frames(sid: str, driver: Driver) -> list:
    operator = SPECS[sid].build_operator()
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
        patch.setattr(streaming, "asap_search", failing_search_for_b(streaming.asap_search))
        with pytest.raises(RuntimeError, match=r"stream\(s\) 'b'") as excinfo:
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
        patch.setattr(streaming, "asap_search", failing_search_for_b(streaming.asap_search))
        with pytest.raises(RuntimeError, match="injected"):
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


def test_lasting_failure_recovers_once_the_bad_pane_leaves_the_window(monkeypatch):
    # Every refresh whose window holds the spike's pane raises.  The stream
    # must keep folding new data, so the pane leaves the window and frames
    # resume.
    spec = AsapSpec(pane_size=2, resolution=32, refresh_interval=4)
    chunk, rounds = 8, 40
    t = np.arange(chunk * rounds, dtype=np.float64)
    clean_values = np.sin(t / 7.0) + 0.01 * t
    values = clean_values.copy()
    values[chunk * 10 + 3] = 1e9
    original = streaming.asap_search

    def fails_on_the_spike(window, **kwargs):
        if window.max() > 1e6:
            raise RuntimeError("injected failure: the spike is in the window")
        return original(window, **kwargs)

    monkeypatch.setattr(streaming, "asap_search", fails_on_the_spike)
    hub, clean = StreamHub(default_config=spec), StreamHub(default_config=spec)
    hub.create_stream("s")
    clean.create_stream("s")
    failed_ticks, frames, clean_frames = [], [], []
    for round_ in range(rounds):
        span = slice(round_ * chunk, (round_ + 1) * chunk)
        # A boundary that failed at the last tick fails again here: it is
        # given up and the batch folds all the same.
        frames.extend(hub.ingest("s", t[span], values[span]))
        clean_frames.extend(clean.ingest("s", t[span], clean_values[span]))
        clean_frames.extend(clean.tick().get("s", []))
        try:
            frames.extend(hub.tick().get("s", []))
        except RuntimeError as error:
            assert "'s'" in str(error)
            failed_ticks.append(round_)
    assert failed_ticks == list(range(10, 10 + len(failed_ticks)))
    after = rounds - 1 - failed_ticks[-1]
    assert after >= 10
    # Every boundary after the last failure emitted a frame again, over all
    # the data the clean stream folded, with the spike out of the window.
    recovered = frames[-after:]
    assert [frame.points_ingested for frame in recovered] == [
        frame.points_ingested for frame in clean_frames[-after:]
    ]
    assert all(frame.series.values.max() < 1e6 for frame in recovered)
