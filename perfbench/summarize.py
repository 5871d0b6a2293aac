#!/usr/bin/env python3
"""Summarise benchmark result records: median and quartiles per metric.

    python3 perfbench/summarize.py [RESULTS_DIR] [--out summary.json]

Reads the records perfbench/run.py leaves in .perfbench/results/ and
prints, per workload and metric, the number of runs, the median, the
quartiles and the spread (quartile distance over the median), with the
quartiles from `statistics.quantiles(values, n=4)`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def summarize(records: list[dict]) -> dict:
    values: dict[tuple[str, int, str], list[float]] = {}
    units: dict[str, str] = {}
    for rec in records:
        for name, (value, unit) in rec["metrics"].items():
            values.setdefault((rec["workload"], rec["trace"], name), []).append(value)
            units[name] = unit
    out: dict = {}
    for (workload, trace, name), vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out.setdefault(workload, {}).setdefault(f"trace{trace}", {})[name] = {
            "runs": len(vals), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "unit": units[name],
        }
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("results", nargs="?", default=str(Path(__file__).resolve().parent.parent
                                                     / ".perfbench" / "results"))
    p.add_argument("--out", help="also write the summary as JSON")
    args = p.parse_args()
    records = [json.loads(f.read_text()) for f in sorted(Path(args.results).glob("*.json"))]
    summary = summarize(records)
    for workload, by_trace in summary.items():
        for trace, metrics in by_trace.items():
            print(f"{workload} ({trace})")
            for name, s in metrics.items():
                print(f"  {name:40s} n={s['runs']:2d} median {s['median']:.6g} {s['unit']}  "
                      f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {100 * s['spread']:.1f}%")
    if args.out:
        machines = sorted({json.dumps(r["machine"], sort_keys=True) for r in records})
        doc = {"machines": [json.loads(m) for m in machines], "workloads": summary}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
