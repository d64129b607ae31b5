"""Stream-processing substrate: panes, the moment sketch, operators, sources."""

from .aggregates import MomentSketch
from .panes import Pane, PaneBuffer
from .operators import StreamOperator, run_stream
from .sources import ChunkedReplaySource, ReplaySource, StreamPoint

__all__ = [
    "MomentSketch",
    "Pane",
    "PaneBuffer",
    "StreamOperator",
    "run_stream",
    "ChunkedReplaySource",
    "ReplaySource",
    "StreamPoint",
]
