"""The perf ratchet in ``scripts/bench_report.py --check``: floors and ceilings."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location("bench_report", ROOT / "scripts" / "bench_report.py")
bench_report = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_report)


def net_report(tmp_path, **fields) -> str:
    payload = {
        "benchmark": "net",
        "params": {"smoke": False},
        "equivalence": {"ok": True},
        "pipelining_speedup": 2.0,
        "wire_overhead": 50.0,
        **fields,
    }
    path = tmp_path / "BENCH_net.json"
    path.write_text(json.dumps(payload))
    return str(path)


def baselines(tmp_path, entry) -> str:
    path = tmp_path / "baselines.json"
    path.write_text(json.dumps({"net": entry}))
    return str(path)


def check(tmp_path, report_fields, entry) -> int:
    report = net_report(tmp_path, **report_fields)
    return bench_report.main([report, "--check", baselines(tmp_path, entry)])


def test_ratio_under_ceiling_passes(tmp_path, capsys):
    assert check(tmp_path, {"wire_overhead": 50.0}, {"min_speedup": 1.0, "max_ratio": 60}) == 0
    assert "wire_overhead 50.00x <= 60.00x" in capsys.readouterr().out


def test_ratio_above_ceiling_fails(tmp_path, capsys):
    assert check(tmp_path, {"wire_overhead": 61.0}, {"min_speedup": 1.0, "max_ratio": 60}) == 1
    assert "wire_overhead 61.00x above ratcheted ceiling 60.00x" in capsys.readouterr().err


def test_missing_ratio_fails_when_ceilinged(tmp_path, capsys):
    report = {"wire_overhead": None}
    assert check(tmp_path, report, {"min_speedup": 1.0, "max_ratio": 60}) == 1
    assert "has no wire_overhead" in capsys.readouterr().err


def test_ceiling_and_floor_both_gate(tmp_path, capsys):
    fields = {"wire_overhead": 10.0, "pipelining_speedup": 0.5}
    assert check(tmp_path, fields, {"min_speedup": 1.0, "max_ratio": 60}) == 1
    captured = capsys.readouterr()
    assert "below ratcheted floor" in captured.err
    assert "wire_overhead 10.00x <= 60.00x" in captured.out


def test_entry_without_ceiling_ignores_ratio(tmp_path):
    assert check(tmp_path, {"wire_overhead": 1e9}, {"min_speedup": 1.0}) == 0


@pytest.mark.parametrize("overhead, verdict", [(310.0, 1), (233.6, 1), (74.5, 0)])
def test_committed_net_ceiling(tmp_path, overhead, verdict):
    """The committed ceiling passes a run of the raw-buffer codec and fails
    one at the NPZ envelope's overhead."""
    committed = json.loads((ROOT / "benchmarks" / "baselines.json").read_text())["net"]
    assert "max_ratio" in committed
    entry = {"min_speedup": 0.0, "max_ratio": committed["max_ratio"]}
    assert check(tmp_path, {"wire_overhead": overhead}, entry) == verdict


def test_table_shows_absolute_throughput_beside_ratios(tmp_path):
    reports = {
        "streamhub": {
            "speedup": 1.67,
            "hub_frames_per_second": 3213.4,
            "loop_frames_per_second": 1924.2,
        },
        "messy": {"speedup": 1.1, "gaps_filled": 12, "dense_off_points_per_second": 300123.0},
    }
    paths = []
    for name, fields in reports.items():
        payload = {"benchmark": name, "params": {"smoke": False}, "identity": {"ok": True}}
        path = tmp_path / f"BENCH_{name}.json"
        path.write_text(json.dumps({**payload, **fields}))
        paths.append(str(path))
    table = bench_report.render_table(bench_report.collect_reports(paths))
    rows = {line.split(" | ")[0].strip("| "): line for line in table.splitlines()}
    assert "1.67x" in rows["streamhub"]
    assert "hub 3,213 frames/s, loop 1,924 frames/s" in rows["streamhub"]
    assert "12 gap points filled; dense off 300,123 points/s" in rows["messy"]
