"""Stream-processing substrate: panes, operators, sources."""

from .panes import Pane, PaneBuffer
from .operators import StreamOperator, run_stream
from .sources import ChunkedReplaySource, ReplaySource, StreamPoint

__all__ = [
    "Pane",
    "PaneBuffer",
    "StreamOperator",
    "run_stream",
    "ChunkedReplaySource",
    "ReplaySource",
    "StreamPoint",
]
