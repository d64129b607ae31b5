"""Tests of the end-to-end benchmark's own machinery; not part of tier-1.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

import compare
import loadgen
import measure
import trace as e2e_trace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


# -- push <-> round matching ----------------------------------------------------


def test_pushes_match_rounds_by_seq_including_watermark_held_frames():
    due = [0.0, 0.1, 0.2, 0.3, 0.4]
    # s1's points of round 0 were held by the watermark: the frame they
    # complete comes back in round 2's response, so its push is charged to
    # round 2.  Verification already consumed s1's pushes 1..4.
    emitted = {"s1": [2, 4], "s2": [1]}
    received = {"s1": [(6, 0.46), (3, 0.05), (5, 0.25)], "s2": [(1, 0.13)]}
    match = measure.match_pushes(emitted, received, due, seq_base={"s1": 4})
    assert sorted(match.latencies) == [
        (1, pytest.approx(0.03)),
        (2, pytest.approx(0.05)),
        (4, pytest.approx(0.06)),
    ]
    assert (match.missing, match.unexpected) == (0, 0)


def test_missing_and_unexpected_pushes_are_counted():
    match = measure.match_pushes(
        {"s1": [0, 1]}, {"s1": [(1, 0.2), (3, 0.9)], "s9": [(1, 0.5)]}, [0.0, 0.1]
    )
    assert match.latencies == [(0, pytest.approx(0.2))]
    assert (match.missing, match.unexpected) == (1, 2)


# -- open-loop due-time accounting ------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_charges_a_stall_to_every_round_due_during_it():
    clock = FakeClock()

    def send(r, due):
        clock.now += 0.3 if r == 2 else 0.01  # round 2 stalls for 300 ms

    rounds = measure.open_loop(0.1, 1.0, send, clock=clock, sleep=clock.sleep)
    assert [rnd.due for rnd in rounds] == pytest.approx([0.1 * r for r in range(10)])
    # Rounds 3 and 4 fell due during the stall: sent late, due times kept.
    lateness = [rnd.sent - rnd.due for rnd in rounds]
    assert lateness[3] == pytest.approx(0.2)
    assert lateness[4] == pytest.approx(0.11)
    assert lateness[6] == pytest.approx(0.0)
    # The generator itself was never late; the system was.
    assert max(measure.generator_lag(rounds)) == pytest.approx(0.0)
    # A push for round 3's frame, received as round 3 returns, carries the stall.
    match = measure.match_pushes({"s": [3]}, {"s": [(1, rounds[3].done)]}, [r.due for r in rounds])
    assert match.latencies == [(3, pytest.approx(0.21))]


# -- the ">= 10 samples beyond" percentile rule ------------------------------------


def test_tail_percentiles_need_ten_samples_beyond():
    assert measure.percentile(range(1, 201), 95) == (190, 10)
    assert measure.percentile([5.0], 50) == (5.0, 0)
    assert measure.tail_supported(200, 95)
    assert not measure.tail_supported(199, 95)
    assert measure.tail_supported(1000, 99)
    assert not measure.tail_supported(999, 99)


# -- seeded inputs ----------------------------------------------------------------


def generated(seed: int) -> list[np.ndarray]:
    streams = loadgen.StreamInputs(seed, streams=3, history=200, round_points=20,
                                   pool_rounds=5, messy=True)
    batches = loadgen.BatchInputs(seed, size=4, points=500, pool=6)
    arrays = []
    for i in range(3):
        arrays += streams.history(i)
        for r in range(7):
            arrays += streams.batch(i, r)
    return arrays + batches.batch(0) + batches.batch(3)


def test_same_seed_gives_identical_inputs_and_another_seed_differs():
    first, again, other = generated(7), generated(7), generated(8)
    assert [a.tobytes() for a in first] == [a.tobytes() for a in again]
    values = [a for a, b in zip(first, other) if a.tobytes() != b.tobytes()]
    assert values, "a different seed produced identical inputs"


def test_repeat_half_of_a_batch_is_the_previous_batch():
    batches = loadgen.BatchInputs(3, size=4, points=200, pool=6)
    previous = batches.batch(4)
    current = batches.batch(5, previous)
    assert all(a is b for a, b in zip(current[:2], previous[2:]))
    assert all(a.tobytes() != b.tobytes() for a in current[2:] for b in previous)


def test_benchmark_sources_seed_their_randomness():
    spec = importlib.util.spec_from_file_location(
        "benchmark_seeding", ROOT / "tests" / "test_benchmark_seeding.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    violations = []
    for path in sorted(HERE.glob("*.py")):
        source = path.read_text()
        for pattern, label in module.UNSEEDED_PATTERNS:
            for match in re.finditer(pattern, source, flags=re.MULTILINE):
                line = source.count("\n", 0, match.start()) + 1
                violations.append(f"{path.name}:{line}: {label}")
    assert not violations, "\n".join(violations)


# -- tracing -------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    spans = [
        ("a", 0, 100, -1, 0),
        ("b", 10, 40, 0, 0),
        ("c", 20, 30, 1, 0),
        ("b", 50, 60, 0, 0),
        None,  # still open when the window closed
        ("a", 200, 210, -1, 1),
    ]
    stages, covered = e2e_trace.self_times(spans)
    assert stages == {"a": [2, 60 + 10], "b": [2, 20 + 10], "c": [1, 10]}
    assert covered == 110 == sum(busy for _calls, busy in stages.values())


def test_tracer_wrappers_call_through_and_restore_the_originals():
    import repro.core.streaming as streaming
    from repro.stream.panes import PaneBuffer

    original_sma, original_extend = streaming.sma, PaneBuffer.__dict__["extend"]
    values = np.arange(20.0)
    tracer = e2e_trace.Tracer("client")
    tracer.start("measure")
    assert streaming.sma is not original_sma
    traced = streaming.sma(values, 3)
    tracer.stop()
    assert streaming.sma is original_sma
    assert PaneBuffer.__dict__["extend"] is original_extend
    assert traced.tobytes() == original_sma(values, 3).tobytes()
    summary = tracer.summary()["measure"]
    assert summary["stages"]["spectral.sma"][0] == 1
    assert summary["threads"] == 1


# -- the benchmark definition ------------------------------------------------------


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    empty = {"wall_ns": 1, "cpu_ns": 0, "threads": 1, "covered_ns": 0, "stages": {}}
    run = workloads.Run(traces={"client": {"measure": empty, "setup": empty}, "server": {}})
    layers = workloads.per_layer(run)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_value, unit) in layers.items()
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [v * 1.02 for v in base], "lower", 0.1)[0] == "same"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1)[0] == "better"
    assert compare.verdict(base, [v * 0.8 for v in base], "higher", 0.1)[0] == "worse"
    noisy = [50.0, 150.0, 100.0, 70.0, 130.0]
    assert compare.verdict(base, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(noisy, [10.0, 11.0, 12.0, 13.0, 14.0], "lower", 0.1)[0] == "better"


# -- machine-speed normalization -------------------------------------------------------


def test_speed_states_times_at_nominal_speed():
    nominal = measure.NOMINAL_PROBE_S
    # The client's core runs at half speed in the second window; the
    # server's core stays nominal; nobody probed in the third window.
    client = [(0.1, nominal), (0.3, nominal), (0.6, 2 * nominal), (0.8, 2 * nominal)]
    server = [(0.2, nominal), (0.7, nominal)]
    speed = measure.Speed([client, server], start=0.0, end=1.5, window=0.5)
    assert speed.factors == pytest.approx([1.0, 1.5, 1.5])
    assert speed.nominal(0.0, 0.5) == pytest.approx(0.5)
    assert speed.nominal(0.25, 0.75) == pytest.approx(0.25 + 0.25 / 1.5)
    assert speed.nominal(1.0, 2.0) == pytest.approx(1.0 / 1.5)
    assert measure.Speed([], 0.0, 1.0).nominal(0.2, 0.7) == pytest.approx(0.5)


def test_probe_measures_a_fixed_kernel():
    assert 0.0 < measure.probe() < 1.0
