"""Stream operator plumbing.

ASAP "acts as a transformation over fixed-size sliding windows over a single
time series" (Section 2) and is deployed inside a stream-processing engine
(MacroBase).  This module provides the minimal operator contract that the
streaming ASAP implementation plugs into: push one point, get zero or more
outputs, flush at the end of the stream.
"""

from __future__ import annotations

from typing import Generic, Iterable, Iterator, TypeVar

__all__ = ["StreamOperator", "run_stream"]

TIn = TypeVar("TIn")
TOut = TypeVar("TOut")


class StreamOperator(Generic[TIn, TOut]):
    """Base contract: ``push`` one item, get zero-or-more outputs.

    Subclasses override :meth:`push`; :meth:`flush` may emit trailing output
    when the stream ends (e.g. a final partial window).
    """

    def push(self, item: TIn) -> Iterable[TOut]:
        """Consume one item; return any outputs it triggered."""
        raise NotImplementedError

    def flush(self) -> Iterable[TOut]:
        """Emit any buffered trailing output at end-of-stream."""
        return ()


def run_stream(operator: StreamOperator[TIn, TOut], items: Iterable[TIn]) -> Iterator[TOut]:
    """Drive an operator over a finite stream, flushing at the end."""
    for item in items:
        yield from operator.push(item)
    yield from operator.flush()
