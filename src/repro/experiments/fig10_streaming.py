"""Figure 10: streaming throughput vs refresh interval.

Streams two traces through :class:`~repro.core.streaming.StreamingASAP` at a
2000-pixel target, sweeping the on-demand refresh interval (measured in
aggregated points, as in the paper).  Expectation: a linear relationship in
log-log space — refreshing half as often processes points roughly twice as
fast, because the search dominates per-refresh cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..spec import AsapSpec
from ..stream.sources import ReplaySource
from ..timeseries.datasets import load
from .common import BudgetedRun, format_table, run_with_budget

__all__ = ["Cell", "run", "format_result", "fit_loglog_slope"]

_DATASETS = ("traffic_data", "machine_temp")
_INTERVALS = (1, 2, 4, 8, 16, 32, 64, 128, 256)
_RESOLUTION = 2000


@dataclass(frozen=True)
class Cell:
    dataset: str
    refresh_interval: int
    throughput: float
    points_processed: int


def run(
    dataset_names: Sequence[str] = _DATASETS,
    intervals: Sequence[int] = _INTERVALS,
    resolution: int = _RESOLUTION,
    scale: float = 1.0,
    time_budget: float = 3.0,
) -> list[Cell]:
    """Measure streaming throughput per (dataset, refresh interval)."""
    cells: list[Cell] = []
    for name in dataset_names:
        dataset = load(name, scale=scale)
        n = len(dataset.series)
        pane_size = max(n // resolution, 1)
        for interval in intervals:
            # The paper's measurement configuration, spelled as a spec:
            # incremental statistics are off so the measured cost is exactly
            # the operator the figure describes.
            operator = AsapSpec(
                pane_size=pane_size,
                resolution=resolution,
                refresh_interval=interval,
                incremental=False,
            ).build_operator()
            outcome: BudgetedRun = run_with_budget(
                operator.push, ReplaySource(dataset.series), time_budget
            )
            cells.append(
                Cell(
                    dataset=name,
                    refresh_interval=interval,
                    throughput=outcome.throughput,
                    points_processed=outcome.points_processed,
                )
            )
    return cells


def fit_loglog_slope(cells: list[Cell], dataset: str) -> float:
    """Least-squares slope of log(throughput) vs log(interval) for one trace.

    The paper's Figure 10 shows this relationship is linear with slope ~1
    until per-point ingest costs (rather than search) dominate.
    """
    import numpy as np

    points = [(c.refresh_interval, c.throughput) for c in cells if c.dataset == dataset]
    if len(points) < 2:
        raise ValueError(f"need >= 2 intervals for dataset {dataset!r}")
    x = np.log([p[0] for p in points])
    y = np.log([max(p[1], 1e-12) for p in points])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def format_result(cells: list[Cell]) -> str:
    datasets = list(dict.fromkeys(c.dataset for c in cells))
    intervals = sorted({c.refresh_interval for c in cells})
    by_key = {(c.dataset, c.refresh_interval): c for c in cells}
    rows = [
        [interval]
        + [f"{by_key[(d, interval)].throughput:,.0f}" for d in datasets]
        for interval in intervals
    ]
    table = format_table(
        ["Refresh interval (pts)"] + datasets,
        rows,
        title="Figure 10: streaming throughput (points/sec) @2000px",
    )
    slopes = ", ".join(
        f"{d}: slope={fit_loglog_slope(cells, d):.2f}" for d in datasets
    )
    return f"{table}\nlog-log fit ({slopes}); paper: linear (slope ~1)"


if __name__ == "__main__":
    print(format_result(run()))
