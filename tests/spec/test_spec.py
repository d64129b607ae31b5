"""AsapSpec: validation, serialization, composition, and tier builders."""

import dataclasses
import json

import numpy as np
import pytest

import repro
from repro import AsapSpec, SpecError
from repro.core.streaming import StreamingASAP
from repro.spec import DEFAULT_RESOLUTION, resolve_spec


class TestValidation:
    def test_defaults_are_valid(self):
        spec = AsapSpec()
        assert spec.resolution == DEFAULT_RESOLUTION
        assert spec.strategy == "asap"
        assert spec.validate() is spec

    @pytest.mark.parametrize(
        "field, value",
        [
            ("resolution", 0),
            ("resolution", "wide"),
            ("resolution", True),
            ("max_window", 1),
            ("max_window", 2.5),
            ("strategy", "annealing"),
            ("kernel", "cuda"),  # retired in schema 12: now an unknown field
            ("pane_size", 0),
            ("refresh_interval", 0),
            ("use_preaggregation", 1),
            # retired in schema 14: now unknown fields
            ("incremental", "yes"),
            ("recompute_every", 0),
            ("verify_incremental", True),
            ("pyramid", None),  # retired in schema 11: now an unknown field
        ],
    )
    def test_bad_field_named_in_error(self, field, value):
        with pytest.raises(SpecError, match=field):
            AsapSpec.from_dict({field: value})

    def test_spec_error_is_value_error(self):
        # Back-compat: `except ValueError` call sites keep working.
        assert issubclass(SpecError, ValueError)
        with pytest.raises(ValueError):
            AsapSpec(resolution=-5)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            AsapSpec().resolution = 100

    def test_hashable(self):
        assert AsapSpec(resolution=400) in {AsapSpec(resolution=400)}


class TestGroups:
    def test_groups_partition_every_field(self):
        grouped = (
            set(AsapSpec.OPERATOR_FIELDS)
            | set(AsapSpec.STREAMING_FIELDS)
            | set(AsapSpec.SERVING_FIELDS)
            | set(AsapSpec.QUALITY_FIELDS)
        )
        names = {f.name for f in dataclasses.fields(AsapSpec)}
        assert grouped == names
        total = (
            len(AsapSpec.OPERATOR_FIELDS)
            + len(AsapSpec.STREAMING_FIELDS)
            + len(AsapSpec.SERVING_FIELDS)
            + len(AsapSpec.QUALITY_FIELDS)
        )
        assert total == len(names)  # disjoint


class TestSerialization:
    def test_round_trip_through_json(self):
        spec = AsapSpec(resolution=256, strategy="grid2", max_window=40, pane_size=3)
        assert AsapSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
        assert AsapSpec.from_json(spec.to_json()) == spec

    def test_missing_fields_default(self):
        # Configs written by older releases (fewer fields) load unchanged.
        spec = AsapSpec.from_dict({"resolution": 128, "pane_size": 2})
        assert spec == AsapSpec(resolution=128, pane_size=2)

    def test_unknown_field_rejected_by_name(self):
        with pytest.raises(SpecError, match="window_size"):
            AsapSpec.from_dict({"resolution": 100, "window_size": 5})

    def test_non_mapping_rejected(self):
        with pytest.raises(SpecError, match="mapping"):
            AsapSpec.from_dict([("resolution", 100)])

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError, match="JSON"):
            AsapSpec.from_json("{not json")

    def test_schema_version_aligned_with_persist(self):
        from repro.persist import SCHEMA_VERSION

        assert AsapSpec.SCHEMA_VERSION == SCHEMA_VERSION


class TestMerge:
    def test_merge_equals_fresh_construction(self):
        base = AsapSpec(resolution=300, strategy="binary")
        merged = base.merge(strategy="asap", pane_size=4)
        assert merged == AsapSpec(resolution=300, strategy="asap", pane_size=4)
        assert base.strategy == "binary"  # immutable

    def test_merge_without_overrides_returns_self(self):
        spec = AsapSpec()
        assert spec.merge() is spec

    def test_merge_revalidates(self):
        with pytest.raises(SpecError, match="resolution"):
            AsapSpec().merge(resolution=0)

    def test_merge_unknown_field_named(self):
        with pytest.raises(SpecError, match="resolutoin"):
            AsapSpec().merge(resolutoin=100)

    def test_resolve_spec_funnel(self):
        assert resolve_spec(None, resolution=200) == AsapSpec(resolution=200)
        base = AsapSpec(strategy="grid10")
        assert resolve_spec(base, resolution=200) == base.merge(resolution=200)
        # None means "not provided", so the base value survives.
        assert resolve_spec(base, strategy=None) == base
        with pytest.raises(SpecError, match="AsapSpec"):
            resolve_spec({"resolution": 100})


class TestBuilders:
    def test_strategy_validation_tracks_the_search_registry(self):
        # The spec validates against the live registry, so a strategy added
        # to core.search.STRATEGIES is immediately constructible here.
        from repro.core.search import STRATEGIES

        for name in STRATEGIES:
            assert AsapSpec(strategy=name).strategy == name

    @pytest.mark.parametrize(
        "retired",
        [
            "keep_pane_sketches",
            "pyramid",
            "kernel",
            "incremental",
            "recompute_every",
            "verify_incremental",
        ],
    )
    def test_retired_fields_are_rejected(self, retired):
        # Specs written before schema 11 may name the retired serving
        # switches, specs before schema 12 the candidate-evaluation kernel,
        # and specs before schema 14 the incremental-statistics knobs; every
        # reader rejects them by name instead of ignoring them.
        data = {**AsapSpec().to_dict(), retired: True}
        for attempt in (
            lambda: AsapSpec.from_dict(data),
            lambda: AsapSpec.from_json(json.dumps(data)),
            lambda: AsapSpec().merge(**{retired: True}),
        ):
            with pytest.raises(SpecError, match=f"unknown spec field\\(s\\): {retired}"):
                attempt()
        assert len(dataclasses.fields(AsapSpec)) == 15
        assert not hasattr(repro, "StreamConfig")
        assert not hasattr(repro.service, "StreamConfig")

    def test_build_operator_matches_legacy_constructor(self):
        spec = AsapSpec(pane_size=2, resolution=120, refresh_interval=6, max_window=30)
        built = spec.build_operator()
        legacy = StreamingASAP(
            AsapSpec(
                pane_size=2,
                resolution=120,
                refresh_interval=6,
                strategy="asap",
                max_window=30,
                seed_from_previous=True,
            )
        )
        rng = np.random.default_rng(7)
        ts = np.arange(3000.0)
        vs = np.sin(ts / 15.0) + rng.normal(0, 0.2, ts.size)
        frames_built = built.push_many(ts, vs)
        frames_legacy = legacy.push_many(ts, vs)
        assert len(frames_built) == len(frames_legacy) > 0
        for ours, theirs in zip(frames_built, frames_legacy):
            assert ours == theirs

    def test_spec_smooth_matches_function(self):
        rng = np.random.default_rng(11)
        values = np.sin(np.arange(4000.0) / 20.0) + rng.normal(0, 0.3, 4000)
        spec = AsapSpec(resolution=400)
        assert spec.smooth(values) == repro.smooth(values, resolution=400)
        search, ratio = spec.find_window(values)
        legacy_search, legacy_ratio = repro.find_window(values, resolution=400)
        assert (search, ratio) == (legacy_search, legacy_ratio)
