"""Tests for the MomentSketch, especially its merge."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream.aggregates import MomentSketch
from repro.timeseries.stats import kurtosis, variance


class TestMomentSketchUpdate:
    def test_matches_batch_statistics(self, rng):
        values = rng.normal(2.0, 3.0, size=500)
        sketch = MomentSketch()
        for v in values:
            sketch.update(float(v))
        assert sketch.count == 500
        assert sketch.mean == pytest.approx(values.mean())
        assert sketch.variance == pytest.approx(variance(values), rel=1e-9)
        assert sketch.kurtosis == pytest.approx(kurtosis(values), rel=1e-7)

    def test_of_batch_constructor(self, rng):
        values = rng.normal(size=100)
        sketch = MomentSketch.of(values)
        assert sketch.variance == pytest.approx(variance(values), rel=1e-10)
        assert sketch.kurtosis == pytest.approx(kurtosis(values), rel=1e-10)

    def test_degenerate_kurtosis_is_zero(self):
        sketch = MomentSketch.of([4.0, 4.0, 4.0])
        assert sketch.kurtosis == 0.0

    def test_empty_statistics_rejected(self):
        with pytest.raises(ValueError):
            MomentSketch().variance
        with pytest.raises(ValueError):
            MomentSketch().kurtosis

    def test_copy_is_independent(self):
        sketch = MomentSketch.of([1.0, 2.0])
        clone = sketch.copy()
        clone.update(100.0)
        assert sketch.count == 2


class TestMomentSketchMerge:
    def test_merge_two_batches(self, rng):
        a_values = rng.normal(0.0, 1.0, size=300)
        b_values = rng.normal(5.0, 2.0, size=200)
        merged = MomentSketch.of(a_values)
        merged.merge(MomentSketch.of(b_values))
        combined = np.concatenate([a_values, b_values])
        assert merged.count == 500
        assert merged.mean == pytest.approx(combined.mean())
        assert merged.variance == pytest.approx(variance(combined), rel=1e-9)
        assert merged.kurtosis == pytest.approx(kurtosis(combined), rel=1e-7)

    def test_merge_into_empty(self, rng):
        values = rng.normal(size=50)
        sketch = MomentSketch()
        sketch.merge(MomentSketch.of(values))
        assert sketch.variance == pytest.approx(variance(values), rel=1e-10)

    def test_merge_empty_is_noop(self, rng):
        values = rng.normal(size=50)
        sketch = MomentSketch.of(values)
        before = sketch.copy()
        sketch.merge(MomentSketch())
        assert sketch == before

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=60),
        st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=60),
    )
    def test_merge_equals_concatenation(self, a_values, b_values):
        # Pébay's formulas: merging sketches must equal sketching the union.
        merged = MomentSketch.of(a_values)
        merged.merge(MomentSketch.of(b_values))
        direct = MomentSketch.of(np.concatenate([a_values, b_values]))
        assert merged.count == direct.count
        assert merged.mean == pytest.approx(direct.mean, rel=1e-8, abs=1e-8)
        assert merged.m2 == pytest.approx(direct.m2, rel=1e-6, abs=1e-5)
        assert merged.m4 == pytest.approx(direct.m4, rel=1e-5, abs=1e-3)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=90),
        st.integers(min_value=1, max_value=8),
    )
    def test_many_way_merge_associativity(self, values, n_chunks):
        # Pane-based windows merge many sketches; order must not matter.
        arr = np.asarray(values)
        chunks = np.array_split(arr, min(n_chunks, arr.size))
        merged = MomentSketch()
        for chunk in chunks:
            merged.merge(MomentSketch.of(chunk))
        direct = MomentSketch.of(arr)
        assert merged.mean == pytest.approx(direct.mean, rel=1e-8, abs=1e-8)
        assert merged.m2 == pytest.approx(direct.m2, rel=1e-6, abs=1e-5)
