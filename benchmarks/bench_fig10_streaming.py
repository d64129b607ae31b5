"""Figure 10: streaming throughput vs refresh interval."""

from repro.core.streaming import StreamingASAP
from repro.experiments import fig10_streaming
from repro.spec import AsapSpec
from repro.stream.sources import StreamPoint
from repro.timeseries import load


def test_streaming_push_throughput(benchmark):
    series = load("machine_temp", scale=0.25).series
    pane_size = max(len(series) // 2000, 1)

    def stream_all():
        operator = StreamingASAP(
            AsapSpec(
                pane_size=pane_size,
                resolution=2000,
                refresh_interval=64,
                incremental=False,
            )
        )
        for timestamp, value in series:
            operator.push(StreamPoint(timestamp, value))
        return operator

    operator = benchmark.pedantic(stream_all, rounds=2, iterations=1)
    assert operator.refresh_count > 0


def test_fig10_sweep_and_print(benchmark):
    cells = benchmark.pedantic(
        fig10_streaming.run,
        kwargs={"intervals": (1, 4, 16, 64), "scale": 0.25, "time_budget": 1.0},
        rounds=1,
        iterations=1,
    )
    print()
    print(fig10_streaming.format_result(cells))
    for dataset in ("traffic_data", "machine_temp"):
        # Paper: linear in log-log space (slope ~1).
        assert fig10_streaming.fit_loglog_slope(cells, dataset) > 0.5
