"""Tests for the TimeSeries container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.timeseries import TimeSeries, regular_timestamps
from repro.timeseries.series import checked_values


class TestConstruction:
    def test_implicit_timestamps(self):
        series = TimeSeries([1.0, 2.0, 3.0])
        assert np.array_equal(series.timestamps, [0.0, 1.0, 2.0])

    def test_explicit_timestamps(self):
        series = TimeSeries([1.0, 2.0], timestamps=[10.0, 20.0])
        assert series[1] == (20.0, 2.0)

    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeSeries([1.0, 2.0], timestamps=[2.0, 1.0])

    def test_rejects_duplicate_timestamps(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeSeries([1.0, 2.0], timestamps=[1.0, 1.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            TimeSeries([1.0, float("nan")])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0, 2.0], timestamps=[1.0])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            TimeSeries(np.ones((3, 2)))

    def test_values_are_read_only(self):
        series = TimeSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            series.values[0] = 99.0

    def test_source_array_not_aliased(self):
        source = np.array([1.0, 2.0])
        series = TimeSeries(source)
        source[0] = 99.0
        assert series.values[0] == 1.0


INF, NAN = float("inf"), float("nan")
TINY = 5e-324  # the smallest subnormal
BIG = 1.7976931348623157e308

#: Timestamp pairs and runs whose differences overflow, underflow, are NaN
#: (``inf - inf``) or are signed zeros.
TIMESTAMP_CASES = [
    [0.0, 1.0, 2.0],
    [],
    [7.0],
    [NAN],
    [0.0, -0.0],
    [-0.0, 0.0],
    [0.0, TINY],
    [TINY, 0.0],
    [-TINY, TINY],
    [TINY, TINY],
    [-BIG, BIG],
    [BIG, -BIG],
    [1.0, BIG, INF],
    [-INF, 0.0, INF],
    [1.0, INF, INF],
    [-INF, -INF, 0.0],
    [0.0, NAN, 2.0],
    [NAN, NAN],
    [0.0, 1.0, 1.0],
    [2.0, 1.0, 3.0],
]

#: Value runs with every non-finite kind at every position.
VALUE_CASES = [
    [0.0, 1.0, -2.0],
    [],
    [BIG, -BIG, TINY, -0.0],
    [NAN],
    [INF, 0.0],
    [0.0, -INF],
    [1.0, NAN, 2.0],
    [NAN, INF, -INF],
]


class TestValidationRules:
    """The pairwise and ``.all()`` checks accept and reject exactly what
    ``np.diff(ts) > 0`` and ``np.all(np.isfinite(values))`` do."""

    @pytest.mark.parametrize("timestamps", TIMESTAMP_CASES, ids=repr)
    def test_timestamps_accepted_iff_differences_positive(self, timestamps):
        ts = np.array(timestamps, dtype=np.float64)
        values = np.zeros(ts.size)
        with np.errstate(over="ignore", invalid="ignore"):
            increasing = np.all(np.diff(ts) > 0)
        if increasing:
            assert TimeSeries(values, ts).timestamps.tobytes() == ts.tobytes()
        else:
            with pytest.raises(ValueError) as raised:
                TimeSeries(values, ts)
            assert str(raised.value) == "timestamps must be strictly increasing"

    @pytest.mark.parametrize("values", VALUE_CASES, ids=repr)
    def test_values_accepted_iff_all_finite(self, values):
        arr = np.array(values, dtype=np.float64)
        if np.all(np.isfinite(arr)):
            assert checked_values(arr).tobytes() == arr.tobytes()
            assert TimeSeries(arr).values.tobytes() == arr.tobytes()
        else:
            for build in (checked_values, TimeSeries):
                with pytest.raises(ValueError) as raised:
                    build(arr)
                assert str(raised.value) == "values must be finite (no NaN/inf)"


class TestProtocol:
    def test_len_iter(self):
        series = TimeSeries([5.0, 6.0])
        assert len(series) == 2
        assert list(series) == [(0.0, 5.0), (1.0, 6.0)]

    def test_slice_returns_series(self):
        series = TimeSeries([1.0, 2.0, 3.0, 4.0], name="x")
        sliced = series[1:3]
        assert isinstance(sliced, TimeSeries)
        assert np.array_equal(sliced.values, [2.0, 3.0])
        assert sliced.name == "x"

    def test_equality(self):
        assert TimeSeries([1.0, 2.0]) == TimeSeries([1.0, 2.0])
        assert TimeSeries([1.0, 2.0]) != TimeSeries([1.0, 3.0])

    def test_repr_contains_name_and_size(self):
        assert "taxi" in repr(TimeSeries([1.0], name="taxi"))


class TestStatisticsDelegation:
    def test_stats_match_module(self, white_noise_series):
        from repro.timeseries import stats

        series = TimeSeries(white_noise_series)
        assert series.mean() == pytest.approx(stats.mean(white_noise_series))
        assert series.kurtosis() == pytest.approx(stats.kurtosis(white_noise_series))
        assert series.roughness() == pytest.approx(stats.roughness(white_noise_series))


class TestTransformations:
    def test_zscore_preserves_timestamps(self):
        series = TimeSeries([1.0, 3.0], timestamps=[5.0, 6.0])
        z = series.zscore()
        assert np.array_equal(z.timestamps, series.timestamps)
        assert z.mean() == pytest.approx(0.0)

    def test_head_tail(self):
        series = TimeSeries(np.arange(10.0))
        assert len(series.head(3)) == 3
        assert len(series.tail(4)) == 4
        assert series.tail(4).values[0] == 6.0
        assert len(series.tail(0)) == 0

    def test_slice_time(self):
        series = TimeSeries([1.0, 2.0, 3.0], timestamps=[10.0, 20.0, 30.0])
        window = series.slice_time(15.0, 30.0)
        assert np.array_equal(window.values, [2.0])

    def test_slice_time_rejects_inverted_range(self):
        series = TimeSeries([1.0])
        with pytest.raises(ValueError):
            series.slice_time(5.0, 1.0)

    def test_concat(self):
        a = TimeSeries([1.0], timestamps=[0.0])
        b = TimeSeries([2.0], timestamps=[1.0])
        joined = TimeSeries.concat([a, b], name="joined")
        assert len(joined) == 2
        assert joined.name == "joined"

    def test_concat_empty(self):
        assert len(TimeSeries.concat([])) == 0

    def test_with_values(self):
        series = TimeSeries([1.0, 2.0], name="orig")
        replaced = series.with_values([3.0, 4.0])
        assert np.array_equal(replaced.values, [3.0, 4.0])
        assert np.array_equal(replaced.timestamps, series.timestamps)


class TestRegularTimestamps:
    def test_spacing(self):
        ts = regular_timestamps(3, start=1.0, step=0.5)
        assert np.array_equal(ts, [1.0, 1.5, 2.0])

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            regular_timestamps(-1)
        with pytest.raises(ValueError):
            regular_timestamps(3, step=0.0)
