"""Tests for the stream operator plumbing."""

from __future__ import annotations

import pytest

from repro.stream.operators import StreamOperator, run_stream
from repro.stream.sources import ChunkedReplaySource, ReplaySource, StreamPoint
from repro.timeseries import TimeSeries


class Batcher(StreamOperator):
    """Test helper: buffers items into pairs, flushing the remainder."""

    def __init__(self):
        self._held = []

    def push(self, item):
        self._held.append(item)
        if len(self._held) == 2:
            out = tuple(self._held)
            self._held = []
            return (out,)
        return ()

    def flush(self):
        if self._held:
            out = tuple(self._held)
            self._held = []
            return (out,)
        return ()


class TestBasicOperators:
    def test_base_push_is_abstract(self):
        with pytest.raises(NotImplementedError):
            StreamOperator().push(1)


class TestPipeline:
    def test_run_stream_drains(self):
        results = list(run_stream(Batcher(), [1, 2, 3]))
        assert results == [(1, 2), (3,)]


class TestSources:
    def test_replay_source(self):
        series = TimeSeries([5.0, 6.0], timestamps=[1.0, 2.0])
        points = list(ReplaySource(series))
        assert points == [StreamPoint(1.0, 5.0), StreamPoint(2.0, 6.0)]
        assert len(ReplaySource(series)) == 2

    def test_chunked_replay(self):
        series = TimeSeries([1.0, 2.0, 3.0])
        chunks = list(ChunkedReplaySource(series, chunk_size=2))
        assert [len(c) for c in chunks] == [2, 1]

    def test_chunked_rejects_bad_size(self):
        with pytest.raises(ValueError):
            ChunkedReplaySource(TimeSeries([1.0]), chunk_size=0)
