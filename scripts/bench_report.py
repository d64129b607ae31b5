"""Merge benchmark ``--json`` outputs into one perf-trajectory report.

Every ``benchmarks/bench_*.py`` writes a JSON payload with the same spine —
``benchmark`` (name), ``params`` (including ``smoke``), an identity block
(``identity`` or ``equivalence``, with ``ok``), and a headline speedup —
uploaded from CI as ``BENCH_<name>.json`` artifacts.  This tool reads any
number of those files (or directories containing them) and prints a markdown
trajectory table, so one artifact per run shows how every tier's speedup
moves over time::

    python scripts/bench_report.py BENCH_*.json
    python scripts/bench_report.py --output merged.json artifacts/

With ``--check benchmarks/baselines.json`` it becomes the perf ratchet: each
baseline entry names a benchmark and the speedup floor it must clear.  The
check fails (exit 1) when a baselined benchmark is missing, failed identity,
was run in ``--smoke`` mode (smoke sizes are identity gates, not performance
measurements — floors can only be judged on full runs), or fell below its
floor.  An entry may also carry a ``max_ratio`` ceiling on the benchmark's
lower-is-better cost ratio (:data:`RATIO_KEYS` — for ``net``, the
``wire_overhead`` of remote over in-process snapshots); a report above its
ceiling, or without the ratio, fails the same way.  Benchmarks present in the
reports but absent from the baselines are reported informationally and never
gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# The headline metric differs per benchmark; everything else in the payloads
# shares one spine.
SPEEDUP_KEYS = {
    "batch_engine": "grid_aggregate_naive_over_engine",
    "streamhub": "speedup",
    "pyramid": "speedup_vs_noagg",
    "cluster": "speedup_vs_one_shard",
    "kernels": "speedup",
    "messy": "speedup",
    "net": "pipelining_speedup",
}

# Lower-is-better cost ratios a baseline's ``max_ratio`` ceiling bounds.
RATIO_KEYS = {
    "net": "wire_overhead",
}

EXTRA_NOTES = {
    "batch_engine": lambda p: (
        f"refresh {p.get('refresh', {}).get('refresh_series_per_second', 0.0):.0f} series/s"
    ),
    "kernels": lambda p: f"fallbacks {p.get('fallback_rate', 0.0):.1%}",
    "messy": lambda p: (
        f"{p.get('gaps_filled', 0)} gap points filled; "
        f"dense off {p.get('dense_off_points_per_second', 0.0):,.0f} points/s"
    ),
    # A ratio moves when either side does: show both absolute rates, so a
    # baseline that lost dead work reads as such, not as a slower hub.
    "streamhub": lambda p: (
        f"hub {p.get('hub_frames_per_second', 0.0):,.0f} frames/s, "
        f"loop {p.get('loop_frames_per_second', 0.0):,.0f} frames/s"
    ),
    "pyramid": lambda p: f"{p.get('view_cache_hits', 0)} view-cache hits",
    "cluster": lambda p: f"{p.get('params', {}).get('shards', '?')} shards",
    "backfill": lambda p: f"seeded replay lane {p.get('replay_speedup', 0.0):.2f}x",
    "net": lambda p: f"{p.get('remote_snapshots_per_second', 0.0):.0f} remote snapshots/s",
}


def collect_reports(paths: list[str]) -> list[dict]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("BENCH_*.json")))
        elif not path.exists():
            # An unexpanded BENCH_*.json glob (no artifacts yet) arrives here
            # as a literal path; an empty run is a state to report, not an
            # error to crash on.
            print(f"note: {path} does not exist; skipping", file=sys.stderr)
        else:
            files.append(path)
    reports = []
    for file in files:
        try:
            payload = json.loads(file.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"ERROR: cannot read {file}: {exc}", file=sys.stderr)
            sys.exit(2)
        if not isinstance(payload, dict) or "benchmark" not in payload:
            print(f"ERROR: {file} is not a benchmark payload", file=sys.stderr)
            sys.exit(2)
        payload["_source"] = str(file)
        payload["_mtime"] = file.stat().st_mtime
        reports.append(payload)
    # Matrix CI legs can upload the same benchmark more than once (e.g. one
    # smoke payload per Python version).  The newest file wins, so one stale
    # or smoke duplicate can't mask — or fail — the current full run.
    newest: dict[str, dict] = {}
    deduped: set[str] = set()
    for payload in reports:
        name = payload["benchmark"]
        if name in newest:
            deduped.add(name)
            older = min(newest[name], payload, key=lambda p: p["_mtime"])
            print(
                f"note: duplicate reports for {name!r}; keeping newest, "
                f"ignoring {older['_source']}",
                file=sys.stderr,
            )
        if name not in newest or payload["_mtime"] > newest[name]["_mtime"]:
            newest[name] = payload
    # When dedup fired, the table must say which file the row came from —
    # otherwise a stale-vs-current dispute can't be settled from the summary.
    for name in deduped:
        newest[name]["_deduped"] = True
    return list(newest.values())


def identity_block(payload: dict) -> dict:
    return payload.get("identity") or payload.get("equivalence") or {}


def headline_speedup(payload: dict) -> float | None:
    key = SPEEDUP_KEYS.get(payload["benchmark"], "speedup")
    value = payload.get(key)
    return float(value) if isinstance(value, (int, float)) else None


def render_table(reports: list[dict]) -> str:
    lines = [
        "| benchmark | mode | identity | speedup | notes |",
        "|---|---|---|---|---|",
    ]
    for payload in sorted(reports, key=lambda p: p["benchmark"]):
        name = payload["benchmark"]
        smoke = payload.get("params", {}).get("smoke", False)
        ok = identity_block(payload).get("ok", False)
        speedup = headline_speedup(payload)
        note = EXTRA_NOTES.get(name, lambda p: "")(payload)
        if payload.get("_deduped"):
            chosen = f"kept {Path(payload['_source']).name}"
            note = f"{note}; {chosen}" if note else chosen
        lines.append(
            "| {} | {} | {} | {} | {} |".format(
                name,
                "smoke" if smoke else "full",
                "ok" if ok else "FAILED",
                f"{speedup:.2f}x" if speedup is not None else "-",
                note,
            )
        )
    return "\n".join(lines)


def check_baselines(reports: list[dict], baselines_path: str) -> int:
    try:
        baselines = json.loads(Path(baselines_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"ERROR: cannot read baselines {baselines_path}: {exc}", file=sys.stderr)
        return 2
    by_name = {payload["benchmark"]: payload for payload in reports}
    failures = []
    for name, floor in sorted(baselines.items()):
        minimum = float(floor["min_speedup"])
        payload = by_name.get(name)
        if payload is None:
            failures.append(f"{name}: no report found (floor {minimum:.2f}x unchecked)")
            continue
        if not identity_block(payload).get("ok", False):
            failures.append(f"{name}: identity verification not ok")
            continue
        if payload.get("params", {}).get("smoke", False):
            failures.append(f"{name}: report is a --smoke run; floors require a full run")
            continue
        speedup = headline_speedup(payload)
        if speedup is None:
            failures.append(f"{name}: payload has no headline speedup")
        elif speedup < minimum:
            failures.append(f"{name}: speedup {speedup:.2f}x below ratcheted floor {minimum:.2f}x")
        else:
            print(f"ratchet ok: {name} {speedup:.2f}x >= {minimum:.2f}x")
        if "max_ratio" in floor:
            ceiling = float(floor["max_ratio"])
            key = RATIO_KEYS.get(name)
            ratio = payload.get(key) if key else None
            if not isinstance(ratio, (int, float)):
                failures.append(
                    f"{name}: payload has no {key or 'ratio'} (ceiling {ceiling:.2f}x unchecked)"
                )
            elif ratio > ceiling:
                failures.append(
                    f"{name}: {key} {ratio:.2f}x above ratcheted ceiling {ceiling:.2f}x"
                )
            else:
                print(f"ratchet ok: {name} {key} {ratio:.2f}x <= {ceiling:.2f}x")
    for failure in failures:
        print(f"RATCHET FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="+",
        help="BENCH_*.json files, or directories searched recursively for them",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINES",
        default=None,
        help=(
            "enforce speedup floors and ratio ceilings from this baselines JSON "
            "(exit 1 on violation)"
        ),
    )
    parser.add_argument(
        "--output", default=None, help="also write the merged reports to this JSON file"
    )
    args = parser.parse_args(argv)

    reports = collect_reports(args.paths)
    if not reports:
        if args.check:
            # A ratchet run with nothing to check means every floor went
            # unverified — that must stay loud.
            print("ERROR: no benchmark reports found", file=sys.stderr)
            return 2
        print("No benchmark reports yet — no perf trajectory to summarize.")
        print("Run a benchmark with --json BENCH_<name>.json to start one.")
        return 0
    print(render_table(reports))
    if args.output:
        merged = {payload["benchmark"]: payload for payload in reports}
        Path(args.output).write_text(json.dumps(merged, indent=2))
        print(f"\nwrote {args.output}")
    if args.check:
        print()
        return check_baselines(reports, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
