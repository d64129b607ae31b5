"""Property tests: random AsapSpecs survive the wire exactly.

The laws the serving stack depends on:

* ``to_dict -> json -> from_dict`` is the identity (a spec that crossed a
  checkpoint file or the cluster's IPC boundary drives the exact same run);
* unknown fields are rejected with the field name in the message (schema
  mismatches fail loudly, never silently default);
* ``merge(**overrides)`` equals constructing fresh with the merged fields.
"""

import dataclasses
import json

from hypothesis import given
from hypothesis import strategies as st

import pytest

from repro.errors import SpecError
from repro.spec import AsapSpec

_FIELD_STRATEGIES = {
    "resolution": st.integers(min_value=1, max_value=100_000),
    "max_window": st.none() | st.integers(min_value=2, max_value=100_000),
    "strategy": st.sampled_from(("asap", "exhaustive", "grid2", "grid10", "binary")),
    "use_preaggregation": st.booleans(),
    "pane_size": st.integers(min_value=1, max_value=10_000),
    "refresh_interval": st.integers(min_value=1, max_value=10_000),
    "seed_from_previous": st.booleans(),
    "incremental": st.booleans(),
    "recompute_every": st.integers(min_value=1, max_value=10_000),
    "verify_incremental": st.booleans(),
    "warm_start": st.booleans(),
    "normalize": st.booleans(),
    "cadence": st.none()
    | st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    "gap_policy": st.sampled_from(("interpolate", "ffill", "split", "reject")),
    "watermark": st.integers(min_value=0, max_value=10_000),
    "backfill": st.sampled_from(("auto", "replay", "stream")),
    "max_connections": st.integers(min_value=1, max_value=10_000),
    "subscribe_queue": st.integers(min_value=1, max_value=10_000),
}

# Every field must have a strategy, or the properties silently narrow.
assert set(_FIELD_STRATEGIES) == {f.name for f in dataclasses.fields(AsapSpec)}

specs = st.builds(AsapSpec, **_FIELD_STRATEGIES)

# Random subsets of fields, as overrides.
overrides = st.dictionaries(
    st.sampled_from(sorted(_FIELD_STRATEGIES)), st.none(), max_size=5
).flatmap(
    lambda keys: st.fixed_dictionaries({k: _FIELD_STRATEGIES[k] for k in keys})
)


@given(spec=specs)
def test_json_round_trip_is_identity(spec):
    wired = AsapSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert wired == spec
    assert wired.to_dict() == spec.to_dict()


@given(spec=specs, junk=st.text(min_size=1).filter(lambda s: s not in _FIELD_STRATEGIES))
def test_unknown_field_rejected_with_its_name(spec, junk):
    data = spec.to_dict()
    data[junk] = 1
    with pytest.raises(SpecError) as excinfo:
        AsapSpec.from_dict(data)
    assert junk in str(excinfo.value)


@given(spec=specs, patch=overrides)
def test_merge_equals_fresh_construction(spec, patch):
    merged = spec.merge(**patch)
    fresh = AsapSpec(**{**spec.to_dict(), **patch})
    assert merged == fresh
    # And the original is untouched (frozen value semantics).
    assert spec == AsapSpec(**spec.to_dict())
