"""Compare two sets of end-to-end benchmark runs.

    python benchmarks/e2e/compare.py A.json B.json

A and B are files written by ``run.py --json`` (A the baseline, B the
change; at least 5 runs per workload each).  For every workload and
end-to-end metric in ``BENCHMARK.json`` this prints both sets' median and
quartiles, B's change against A (positive = worse), the metric's bound,
and a verdict:

* ``unresolved`` — either set's spread (quartile distance over median)
  exceeds the bound, unless every B run reads better (``better``) or worse
  (``worse``) than every A run;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than A's spread;
* ``same`` — otherwise.

Exit status 1 when any verdict is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: str) -> dict:
    """``{(workload, metric): [values]}`` over the untraced runs in *path*."""
    values: dict = {}
    for record in json.loads(Path(path).read_text())["runs"]:
        if record["trace"]:
            continue
        for metric, entry in record["metrics"].items():
            values.setdefault((record["workload"], metric), []).append(entry["value"])
    return values


def quartiles(values) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a, b, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, change)`` for baseline runs *a* and changed runs *b*;
    *change* is the relative move of the median, positive when worse."""
    if len(a) < 2 or len(b) < 2:
        return "unresolved", float("nan")
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    change = sign * (qb[1] - qa[1]) / qa[1]
    spread_a = (qa[2] - qa[0]) / qa[1]
    spread_b = (qb[2] - qb[0]) / qb[1]
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if max(spread_a, spread_b) > bound:
        return ("better" if all_better else "worse" if all_worse else "unresolved"), change
    if change > bound:
        return "worse", change
    if -change > spread_a:
        return "better", change
    return "same", change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load_runs(argv[0]), load_runs(argv[1])
    header = (f"{'workload':16s} {'metric':17s} {'A median [q1, q3]':>38s} "
              f"{'B median [q1, q3]':>38s} {'change':>8s} {'bound':>6s}  verdict")
    print(header)
    failing = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                print(f"{workload:16s} {metric['name']:17s} missing from "
                      f"{'A' if key not in a else 'B'}")
                failing += 1
                continue
            result, change = verdict(a[key], b[key], metric["better"], metric["bound"])
            failing += result in ("worse", "unresolved")
            cells = []
            for values in (a[key], b[key]):
                q1, median, q3 = quartiles(values) if len(values) > 1 else (values[0],) * 3
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            print(f"{workload:16s} {metric['name']:17s} {cells[0]:>38s} {cells[1]:>38s} "
                  f"{change:+8.2%} {metric['bound']:6.0%}  {result}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
