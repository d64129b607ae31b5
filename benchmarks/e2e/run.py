"""End-to-end benchmark of the ASAP reproduction: five workloads over the
in-process hub, the process cluster, TCP and the batch engine.

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 20170501 \\
        [--workload NAME] [--seconds S] [--trace [0|1]] [--runs N] [--json OUT]

With ``--workload`` one run of that workload executes in this interpreter and
prints each metric as ``workload metric value unit``, ending with one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace`` the per-layer ones).  Without ``--workload``
every workload runs, each in a fresh interpreter.  ``--runs N`` repeats each
workload with seeds ``seed .. seed+N-1``; ``--json OUT`` appends every run's
record to OUT (create a new file per set of runs; ``compare.py`` reads two).
``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

``ASAP_KERNEL`` is unset for every run.  Exit status: 0 when every run was
correct, 1 on a verification mismatch or failed operations, 2 when the
``repro`` sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ingest_hub", "ingest_sharded", "live_tcp", "poll_tcp", "batch_dashboard")


def machine() -> dict:
    import numpy

    numba = importlib.util.find_spec("numba")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": "absent" if numba is None else "present",
        "ASAP_KERNEL": os.environ.get("ASAP_KERNEL", "unset"),
        "platform": platform.platform(),
    }


def append_record(path: str, record: dict) -> None:
    target = Path(path)
    data = json.loads(target.read_text()) if target.exists() else {"runs": []}
    data["runs"].append(record)
    partial = target.with_name(target.name + ".tmp")
    partial.write_text(json.dumps(data, indent=1) + "\n")
    partial.replace(target)


def print_metric(workload: str, name: str, value, unit: str, note: str = "") -> None:
    note = f"  ({note})" if note else ""
    print(f"{workload} {name} {value:.6g} {unit}{note}")


def print_layers(workload: str, layers: dict, wall_s: float) -> None:
    from trace import SETUP_STAGES, STAGES

    print(f"{workload} per-layer breakdown, {wall_s:.2f} s traced"
          f" (shares of traced wall; {', '.join(SETUP_STAGES)} over the traced set-up)")
    print(f"  {'stage':34s} {'calls':>9s} {'busy_s':>9s} {'share':>7s}")
    for stage in STAGES:
        calls = layers[f"{stage}.calls"][0]
        busy = layers[f"{stage}.busy_s"][0]
        share = layers[f"{stage}.share"][0]
        print(f"  {stage:34s} {calls:9d} {busy:9.4f} {share:7.4f}")
    for name, (value, unit) in layers.items():
        if name.rsplit(".", 1)[0] not in STAGES:
            print_metric(workload, name, value, unit)


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    name = args.workload
    _workload, result = workloads.run(name, args.seed, args.seconds, bool(args.trace))
    for mismatch in result.mismatches:
        print(f"{name} MISMATCH {mismatch}")
    if args.trace:
        layers = workloads.per_layer(result)
        print_layers(name, layers, result.traces["client"]["measure"]["wall_ns"] / 1e9)
        for role, share in workloads.accounted(result).items():
            flag = "" if abs(share - 1.0) <= 0.05 else "  OFF BY MORE THAN 5%"
            print_metric(name, f"trace.accounted.{role}", share, "ratio",
                         f"stage self time + residual over threads x wall{flag}")
        metrics = {key: (value, unit, "") for key, (value, unit) in layers.items()}
    else:
        metrics = workloads.end_to_end(result)
        for key, (value, unit, note) in metrics.items():
            print_metric(name, key, value, unit, note)
        cls = workloads.WORKLOADS[name]
        print(f"{name} throughput counts {cls.work_unit}; latency is per {cls.op}")
    for key, (value, unit, note) in result.notes.items():
        print_metric(name, key, value, unit, note)
    print_metric(name, "error_ratio", result.failed / max(result.attempted, 1), "ratio",
                 f"{result.failed} failed of {result.attempted}")
    correct = not result.mismatches and result.failed == 0
    values = {key: {"value": value, "unit": unit} for key, (value, unit, _note) in metrics.items()}
    if args.json:
        append_record(args.json, {
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": int(args.trace),
            "correct": correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": values,
            "notes": {key: {"value": v, "unit": u, "note": n} for key, (v, u, n) in result.notes.items()},
            "setup_wall_s": [end - start for start, end in result.setups],
            "machine": machine(),
        })
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": values,
    }), flush=True)
    return 0 if correct else 1


def run_many(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    status = 0
    for name in names:
        for k in range(args.runs):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed + k),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]
            if args.json:
                command += ["--json", args.json]
            status = max(status, subprocess.run(command).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=20170501)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--json", metavar="OUT")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    os.environ.pop("ASAP_KERNEL", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), os.environ.get("PYTHONPATH")) if part
    )
    if args.workload and args.runs == 1:
        return run_one(args)
    return run_many(args)


if __name__ == "__main__":
    sys.exit(main())
