"""Figure 11: factor analysis and lesion study of ASAP's three optimizations.

Streams the machine_temp trace at two display settings, toggling the three
optimizations:

* **Pixel** — pixel-aware preaggregation (pane size = point-to-pixel ratio
  vs 1);
* **AC** — autocorrelation-pruned search (ASAP vs exhaustive per refresh);
* **Lazy** — on-demand refresh (daily interval vs every aggregated point).

The factor analysis enables them cumulatively
(Baseline → +Pixel → +AC → +Lazy); the lesion study removes each one from the
full system.  Paper shape: each optimization contributes orders of magnitude;
removing any one costs two to three orders; without Pixel the two display
settings coincide (no resolution dependence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.streaming import StreamingASAP
from ..spec import AsapSpec
from ..stream.sources import ReplaySource
from ..timeseries.datasets import load
from .common import format_table, run_with_budget

__all__ = ["Config", "Cell", "FACTOR_STEPS", "LESION_STEPS", "run", "format_result"]

_DAILY_RAW_POINTS = 288  # the paper's "daily" refresh on 5-minute readings


@dataclass(frozen=True)
class Config:
    """One on/off assignment of the three optimizations."""

    label: str
    pixel: bool
    autocorrelation: bool
    lazy: bool


#: Cumulative enablement, in the paper's left-panel order.
FACTOR_STEPS = (
    Config("Baseline", pixel=False, autocorrelation=False, lazy=False),
    Config("+Pixel", pixel=True, autocorrelation=False, lazy=False),
    Config("+AC", pixel=True, autocorrelation=True, lazy=False),
    Config("+Lazy", pixel=True, autocorrelation=True, lazy=True),
)

#: Single-removal lesions, in the paper's right-panel order.
LESION_STEPS = (
    Config("no Pixel", pixel=False, autocorrelation=True, lazy=True),
    Config("no AC", pixel=True, autocorrelation=False, lazy=True),
    Config("no Lazy", pixel=True, autocorrelation=True, lazy=False),
    Config("ASAP", pixel=True, autocorrelation=True, lazy=True),
)


@dataclass(frozen=True)
class Cell:
    config: Config
    resolution: int
    throughput: float
    points_processed: int


def _build_operator(config: Config, n: int, resolution: int) -> StreamingASAP:
    ratio = max(n // resolution, 1)
    pane_size = ratio if config.pixel else 1
    if config.lazy:
        refresh = max(_DAILY_RAW_POINTS // pane_size, 1)
    else:
        refresh = 1
    strategy = "asap" if config.autocorrelation else "exhaustive"
    # The lesion grid as a spec; incremental statistics stay off so each cell
    # measures exactly the factor combination the figure names.
    return AsapSpec(
        pane_size=pane_size,
        resolution=resolution,
        refresh_interval=refresh,
        strategy=strategy,
        incremental=False,
    ).build_operator()


def run(
    configs: Sequence[Config] = FACTOR_STEPS + LESION_STEPS,
    resolutions: Sequence[int] = (2000, 5000),
    dataset: str = "machine_temp",
    scale: float = 1.0,
    time_budget: float = 2.0,
) -> list[Cell]:
    """Measure throughput for every configuration at every display setting."""
    data = load(dataset, scale=scale)
    n = len(data.series)
    cells: list[Cell] = []
    for resolution in resolutions:
        for config in configs:
            operator = _build_operator(config, n, resolution)
            outcome = run_with_budget(
                operator.push, ReplaySource(data.series), time_budget
            )
            cells.append(
                Cell(
                    config=config,
                    resolution=resolution,
                    throughput=outcome.throughput,
                    points_processed=outcome.points_processed,
                )
            )
    return cells


def format_result(cells: list[Cell]) -> str:
    resolutions = sorted({c.resolution for c in cells})
    by_key = {(c.config.label, c.resolution): c for c in cells}

    def table(steps, title):
        rows = []
        for config in steps:
            if (config.label, resolutions[0]) not in by_key:
                continue
            rows.append(
                [config.label]
                + [f"{by_key[(config.label, r)].throughput:,.1f}" for r in resolutions]
            )
        headers = ["Config"] + [f"{r}px" for r in resolutions]
        return format_table(headers, rows, title=title)

    return (
        table(FACTOR_STEPS, "Figure 11 (left): factor analysis, throughput pts/sec")
        + "\n\n"
        + table(LESION_STEPS, "Figure 11 (right): lesion study, throughput pts/sec")
    )


if __name__ == "__main__":
    print(format_result(run()))
