"""A refresh that raises stays due and is retried as if it never ran.

``refresh_if_due`` clears the deferred flag only once the refresh returns,
and a refresh commits its counters, warm trace, previous window and refresh
ledger only after everything that can raise has run.  So the retry — at the
next ``refresh_if_due`` or before the next batch is folded — emits exactly
the frame an operator that never failed emits, and every later frame matches
too.  A refresh that fails again before the next batch folds is given up
there, so a lasting failure never holds back new data.  A boundary inside a
batch whose refresh raises is left due the same way, with the batch folded
up to it and the last folded timestamp at the boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.streaming as streaming
from repro.errors import DataQualityError
from repro.persist import codec
from repro.spec import AsapSpec

# Every refresh prefetches a warm trace after the first.
SPEC = AsapSpec(pane_size=2, resolution=96, refresh_interval=4)
CHUNK = SPEC.pane_size * SPEC.refresh_interval  # every batch ends on a boundary


def broken(*args, **kwargs):
    raise RuntimeError("injected failure")


#: The module attributes a refresh's failure is injected through: the ACF
#: (before the search state is built) and the search itself.
INJECTIONS = ("analyze_acf", "asap_search")


def stream(n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(29101)
    t = np.arange(n, dtype=np.float64)
    values = np.sin(2 * np.pi * t / 37) + 0.4 * rng.normal(size=n)
    values[n // 2 :] += 2.5  # a level shift moves the window mid-stream
    return t, values


def ledger(operator) -> dict:
    """Everything a refresh commits, plus the flag that keeps it due."""
    state = operator.state_dict()
    keys = ("counters", "refresh_count", "previous_window", "warm_trace")
    return {**{key: state[key] for key in keys}, "refresh_due": operator.refresh_due}


def lone_frames(t, values, stop) -> list:
    return list(SPEC.build_operator().push_many(t[:stop], values[:stop]))


@pytest.mark.parametrize("injection", INJECTIONS)
@pytest.mark.parametrize("failing_round", [9, 10, 11])
def test_failed_deferred_refresh_is_retried_exactly(injection, failing_round, monkeypatch):
    t, values = stream(CHUNK * 24)
    operator = SPEC.build_operator()
    frames = []
    at = 0

    def ingest():
        nonlocal at
        frames.extend(
            operator.push_many(t[at : at + CHUNK], values[at : at + CHUNK], defer_boundary=True)
        )
        at += CHUNK

    for _ in range(failing_round):
        ingest()
        frames.append(operator.refresh_if_due())
    ingest()
    assert operator.refresh_due
    before = ledger(operator)
    with monkeypatch.context() as patch:
        patch.setattr(streaming, injection, broken)
        with pytest.raises(RuntimeError, match="injected"):
            operator.refresh_if_due()
    assert ledger(operator) == before  # still due, nothing counted

    retried = operator.refresh_if_due()
    assert retried == lone_frames(t, values, at)[-1]
    frames.append(retried)
    while at < t.size:
        ingest()
        frames.append(operator.refresh_if_due())
    assert [frame for frame in frames if frame is not None] == lone_frames(t, values, at)


def test_next_batch_retries_the_failed_refresh_before_folding(monkeypatch):
    t, values = stream(CHUNK * 20)
    operator = SPEC.build_operator()
    frames = list(operator.push_many(t[: CHUNK * 10], values[: CHUNK * 10], defer_boundary=True))
    with monkeypatch.context() as patch:
        patch.setattr(streaming, "asap_search", broken)
        with pytest.raises(RuntimeError, match="injected"):
            operator.refresh_if_due()
    assert operator.refresh_due
    # The retry runs first, at the boundary's own window, then the batch folds.
    frames.extend(operator.push_many(t[CHUNK * 10 :], values[CHUNK * 10 :]))
    assert not operator.refresh_due
    assert frames == lone_frames(t, values, t.size)


def test_lasting_failure_is_given_up_by_the_next_batch(monkeypatch):
    t, values = stream(CHUNK * 24)
    operator, lone = SPEC.build_operator(), SPEC.build_operator()
    failing = range(8, 16)
    frames, lone_emitted = [], []
    for round_ in range(24):
        chunk = slice(round_ * CHUNK, (round_ + 1) * CHUNK)
        with monkeypatch.context() as patch:
            if round_ in failing:
                patch.setattr(streaming, "asap_search", broken)
            # The previous boundary's refresh, if it failed, fails again
            # here: it is given up and the batch folds all the same.
            frames.extend(operator.push_many(t[chunk], values[chunk], defer_boundary=True))
            if round_ in failing:
                with pytest.raises(RuntimeError, match="injected"):
                    operator.refresh_if_due()
                assert operator.refresh_due
            else:
                frames.append(operator.refresh_if_due())
        lone.push_many(t[chunk], values[chunk], defer_boundary=True)
        lone_emitted.append(lone.refresh_if_due())
        assert operator.points_ingested == lone.points_ingested
    assert not operator.refresh_due
    # Seven boundaries were given up; the last failed one was retried
    # successfully before round 16's batch folded.
    emitted = [frame for frame in frames if frame is not None]
    expected = [frame for frame in lone_emitted if frame is not None]
    assert len(emitted) == len(expected) - len(failing) + 1
    assert emitted[: failing[0] - 1] == expected[: failing[0] - 1]
    # Once the failure ends, the windows equal the lone operator's again.
    assert [f.window for f in emitted[-4:]] == [f.window for f in expected[-4:]]


def test_unreported_failure_before_a_batch_raises_once(monkeypatch):
    t, values = stream(CHUNK * 12)
    operator = SPEC.build_operator()
    operator.push_many(t[: CHUNK * 10], values[: CHUNK * 10], defer_boundary=True)
    points = operator.points_ingested
    batch = slice(CHUNK * 10, CHUNK * 11)
    with monkeypatch.context() as patch:
        patch.setattr(streaming, "asap_search", broken)
        # The due refresh first runs before this batch: its error is
        # reported, the boundary given up, and the batch not folded.
        with pytest.raises(RuntimeError, match="injected"):
            operator.push_many(t[batch], values[batch])
    assert not operator.refresh_due
    assert operator.points_ingested == points
    frames = operator.push_many(t[CHUNK * 10 :], values[CHUNK * 10 :])
    assert operator.points_ingested == t.size
    assert [frame.points_ingested for frame in frames] == [CHUNK * 11, CHUNK * 12]


@pytest.mark.parametrize("retry", ["tick", "batch"])
@pytest.mark.parametrize("injection", INJECTIONS)
def test_failed_inline_refresh_stays_due_and_keeps_the_last_timestamp(
    injection, retry, monkeypatch
):
    t, values = stream(CHUNK * 16)
    operator = SPEC.build_operator()
    start = CHUNK * 10 + CHUNK // 2  # the next boundary is half a chunk away
    frames = list(operator.push_many(t[:start], values[:start]))
    boundary = CHUNK * 11
    batch = slice(start, start + CHUNK)
    with monkeypatch.context() as patch:
        patch.setattr(streaming, injection, broken)
        with pytest.raises(RuntimeError, match="injected"):
            operator.push_many(t[batch], values[batch])
    # Folded up to the boundary, whose refresh stays due.
    assert operator.points_ingested == boundary
    assert operator.refresh_due
    assert operator.state_dict()["last_timestamp"] == t[boundary - 1]
    # Resending the whole batch would fold its first part twice: rejected.
    state = codec.dumps("operator", operator.state_dict())
    with pytest.raises(DataQualityError, match="index 0: timestamp"):
        operator.push_many(t[batch], values[batch])
    assert codec.dumps("operator", operator.state_dict()) == state
    if retry == "tick":
        frames.append(operator.refresh_if_due())
    frames.extend(operator.push_many(t[boundary:], values[boundary:]))
    assert not operator.refresh_due
    assert frames == lone_frames(t, values, t.size)
