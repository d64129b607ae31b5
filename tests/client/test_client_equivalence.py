"""The acceptance pins for the unified API: for a fixed seeded workload,

* legacy paths (``smooth()`` kwargs, spec-built operators, direct
  ``StreamHub``/``ShardedHub`` construction) and the ``AsapSpec`` /
  ``connect()`` paths produce bit-identical results and frames;
* a spec serialized through ``to_dict -> json -> from_dict`` drives a run
  bit-identical to the in-memory spec — including across the cluster's IPC
  boundary, where specs travel as plain dicts.
"""

import json

import numpy as np
import pytest

import repro
from repro import ASAP, AsapSpec, ShardedHub, StreamHub, connect
from repro.core.streaming import StreamingASAP


def seeded_workload(n=6000, seed=20260729):
    rng = np.random.default_rng(seed)
    ts = np.arange(float(n))
    vs = (
        np.sin(ts * 2 * np.pi / 48.0)
        + 0.4 * np.sin(ts * 2 * np.pi / 480.0)
        + rng.normal(0, 0.3, n)
    )
    return ts, vs


SPEC = AsapSpec(pane_size=3, resolution=120, refresh_interval=7, max_window=40)


def drive(target, stream_id, ts, vs, chunk=997):
    """Feed a hub-like object in uneven chunks; returns all frames in order."""
    frames = []
    for start in range(0, ts.size, chunk):
        frames.extend(target.ingest(stream_id, ts[start : start + chunk], vs[start : start + chunk]))
        frames.extend(target.tick().get(stream_id, []))
    return frames


class TestBatchPathEquivalence:
    def test_kwargs_spec_operator_and_client_agree_bitwise(self):
        _, vs = seeded_workload()
        legacy = repro.smooth(vs, resolution=240, strategy="asap", max_window=50)
        via_spec = AsapSpec(resolution=240, max_window=50).smooth(vs)
        via_operator = ASAP(resolution=240, max_window=50).smooth(vs)
        via_client = connect("local").smooth(vs, resolution=240, max_window=50)
        assert legacy == via_spec == via_operator == via_client
        # Bit-identical, not merely equal-by-tolerance:
        assert np.array_equal(legacy.series.values, via_client.series.values)

    def test_smooth_many_agrees_bitwise(self):
        _, vs = seeded_workload()
        batch = [vs, np.roll(vs, 100), vs * 1.5]
        legacy = repro.smooth_many(batch, resolution=240, strategy="grid2")
        spec = AsapSpec(resolution=240, strategy="grid2")
        via_client = connect("local", spec).smooth_many(batch)
        assert tuple(legacy) == tuple(via_client)


class TestStreamingPathEquivalence:
    def test_legacy_constructor_and_spec_built_operator_agree(self):
        ts, vs = seeded_workload()
        legacy = StreamingASAP(
            AsapSpec(
                pane_size=SPEC.pane_size,
                resolution=SPEC.resolution,
                refresh_interval=SPEC.refresh_interval,
                strategy=SPEC.strategy,
                max_window=SPEC.max_window,
            )
        )
        built = SPEC.build_operator()
        legacy_frames = legacy.push_many(ts, vs)
        built_frames = built.push_many(ts, vs)
        assert len(legacy_frames) == len(built_frames) > 0
        for theirs, ours in zip(legacy_frames, built_frames):
            assert theirs == ours

    def test_direct_hub_and_client_emit_identical_frames(self):
        ts, vs = seeded_workload()
        hub = StreamHub(default_config=AsapSpec(**SPEC.to_dict()))
        sid = hub.create_stream("s")
        direct = drive(hub, sid, ts, vs)

        client = connect("hub", SPEC)
        stream = client.stream(stream_id="s")
        via_client = drive(client, stream.stream_id, ts, vs)

        assert len(direct) == len(via_client) > 0
        for theirs, ours in zip(direct, via_client):
            assert theirs == ours

    def test_direct_cluster_and_client_emit_identical_frames(self):
        ts, vs = seeded_workload()
        with ShardedHub(shards=3, default_config=SPEC) as cluster:
            sid = cluster.create_stream("s")
            direct = drive(cluster, sid, ts, vs)
        with connect("sharded", SPEC, shards=3) as client:
            stream = client.stream(stream_id="s")
            via_client = drive(client, stream.stream_id, ts, vs)
        assert len(direct) == len(via_client) > 0
        for theirs, ours in zip(direct, via_client):
            assert theirs == ours

    @pytest.mark.parametrize("backend", ["local", "hub", "sharded"])
    def test_every_tier_emits_the_single_operator_frames(self, backend):
        # The headline: the same program, scaled by one argument, emits the
        # frames a lone StreamingASAP would.
        ts, vs = seeded_workload()
        reference = SPEC.build_operator().push_many(ts, vs)
        with connect(backend, SPEC) as client:
            stream = client.stream(stream_id="s")
            frames = drive(client, stream.stream_id, ts, vs)
        assert len(reference) == len(frames) > 0
        for theirs, ours in zip(reference, frames):
            assert theirs == ours


class TestWireEquivalence:
    def test_json_round_tripped_spec_drives_identical_run(self):
        ts, vs = seeded_workload()
        wired = AsapSpec.from_dict(json.loads(json.dumps(SPEC.to_dict())))
        assert wired == SPEC

        assert wired.smooth(vs) == SPEC.smooth(vs)

        in_memory = SPEC.build_operator().push_many(ts, vs)
        off_the_wire = wired.build_operator().push_many(ts, vs)
        assert len(in_memory) == len(off_the_wire) > 0
        for theirs, ours in zip(in_memory, off_the_wire):
            assert theirs == ours

    @pytest.mark.parametrize("shard_backend", ["inprocess", "process"])
    def test_spec_crossing_cluster_ipc_drives_identical_run(self, shard_backend):
        # The spec crosses the coordinator->shard boundary as a plain dict
        # and rebuilds shard-side; the frames must match an in-process
        # operator configured from the very same spec object.
        ts, vs = seeded_workload(3000)
        reference = SPEC.build_operator().push_many(ts, vs)
        with connect("sharded", shards=2, shard_backend=shard_backend) as client:
            stream = client.stream(SPEC, stream_id="s")
            frames = drive(client, stream.stream_id, ts, vs)
        assert len(reference) == len(frames) > 0
        for theirs, ours in zip(reference, frames):
            assert theirs == ours
