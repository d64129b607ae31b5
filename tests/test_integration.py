"""Cross-module integration tests: the full pipelines a user would run."""

from __future__ import annotations

import numpy as np

from repro import ASAP, AsapSpec, StreamingASAP, smooth
from repro.perception.observer import Observer, region_saliency
from repro.perception.study import render_visualization
from repro.stream.operators import run_stream
from repro.stream.sources import ReplaySource
from repro.timeseries import load, read_csv, write_csv
from repro.vis.ascii_plot import ascii_chart
from repro.vis.pixel_error import pixel_error


class TestBatchPipeline:
    def test_load_smooth_render(self):
        """The quickstart path: dataset -> smooth -> terminal chart."""
        dataset = load("taxi", scale=0.5)
        result = smooth(dataset.series, resolution=400)
        chart = ascii_chart(result.series.values, width=40, height=8, title="taxi")
        assert result.smoothed
        assert chart.startswith("taxi")

    def test_smoothing_makes_anomaly_more_salient(self):
        """The paper's end-to-end claim, as one assertion: the smoothed plot
        separates the anomalous region better than the raw plot."""
        dataset = load("taxi")
        n = len(dataset.series)
        true_region = dataset.anomalies[0].region_index(n, 5)
        x_range = (0.0, float(n - 1))

        def margin(vis):
            plot = render_visualization(vis, dataset.series.values)
            s = region_saliency(plot.values, positions=plot.positions, x_range=x_range)
            others = np.delete(s, true_region)
            return float(s[true_region] - others.max())

        assert margin("ASAP") > margin("Original")

    def test_csv_round_trip_through_smoothing(self, tmp_path):
        dataset = load("sine")
        raw_path = tmp_path / "raw.csv"
        out_path = tmp_path / "smoothed.csv"
        write_csv(dataset.series, raw_path)
        loaded = read_csv(raw_path)
        result = smooth(loaded, resolution=400)
        write_csv(result.series, out_path)
        reloaded = read_csv(out_path)
        np.testing.assert_allclose(reloaded.values, result.series.values)

    def test_operator_reuse_across_datasets(self):
        operator = ASAP(resolution=600)
        for name in ("sine", "taxi"):
            result = operator.smooth(load(name, scale=0.5).series)
            assert result.window >= 1


class TestStreamingPipeline:
    def test_stream_converges_to_batch_window(self):
        """Streaming over a stationary series should settle on the window a
        batch search would pick for the same aggregated data."""
        dataset = load("sine")
        operator = StreamingASAP(AsapSpec(pane_size=1, resolution=800, refresh_interval=80))
        frames = list(run_stream(operator, ReplaySource(dataset.series)))
        batch = smooth(dataset.series, resolution=800)
        assert frames[-1].window == batch.window

    def test_observer_sees_anomaly_in_streamed_frame(self):
        dataset = load("taxi")
        n = len(dataset.series)
        pane = max(n // 800, 1)
        operator = StreamingASAP(
            AsapSpec(pane_size=pane, resolution=800, refresh_interval=100)
        )
        frames = list(run_stream(operator, ReplaySource(dataset.series)))
        final = frames[-1]
        observer = Observer(seed=0)
        # The dip lives in the final frame's window; the observer finds it
        # far above chance.
        true_region = dataset.anomalies[0].region_index(n, 5)
        raw_window = final.window * pane
        # Pane timestamps carry the true raw offsets (the buffer may have
        # evicted early panes); center-align by half the raw window.
        positions = final.series.timestamps + (raw_window - 1) / 2.0
        hits = sum(
            observer.identify(
                final.series.values,
                true_region,
                positions=positions,
                x_range=(0.0, float(n - 1)),
            ).correct
            for _ in range(20)
        )
        assert hits >= 14


class TestFidelityTradeoff:
    def test_asap_trades_pixels_for_salience(self):
        """Table 4 x Figure 6 in one test: ASAP has much higher pixel error
        than M4 yet higher anomaly salience."""
        dataset = load("taxi")
        values = dataset.series.values
        n = len(values)
        true_region = dataset.anomalies[0].region_index(n, 5)
        x_range = (0.0, float(n - 1))

        asap_plot = render_visualization("ASAP", values)
        m4_plot = render_visualization("M4", values)

        asap_pixel = pixel_error(values, asap_plot.values,
                                 transformed_positions=asap_plot.positions)
        m4_pixel = pixel_error(values, m4_plot.values,
                               transformed_positions=m4_plot.positions)
        assert asap_pixel > 5 * m4_pixel

        def margin(plot):
            s = region_saliency(plot.values, positions=plot.positions, x_range=x_range)
            others = np.delete(s, true_region)
            return float(s[true_region] - others.max())

        assert margin(asap_plot) > margin(m4_plot)


class TestPublicAPI:
    def test_package_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__ == "1.9.0"

    def test_docstring_example_runs(self):
        result = smooth([1.0, 2.0, 1.0, 2.0] * 50, resolution=100)
        assert result.window >= 1
