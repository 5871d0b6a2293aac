#!/usr/bin/env python3
"""Record the golden output digests that the benchmark checks runs against.

    python3 perfbench/record_digests.py --workload round-full --seeds 0-19

Runs each workload once per seed, serially, checks the invariants and
stores the sha256 of the digested files plus the record count in
perfbench/digests.json.  Regenerate only when covmap's output bytes
change on purpose, and explain the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import BLAS_THREAD_VARS  # noqa: E402

for _var in BLAS_THREAD_VARS:  # before numpy loads, as in run.py
    os.environ[_var] = "1"

from perfbench import workloads as W  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seeds", required=True, type=_seeds, help="seed range, e.g. 0-19")
    args = p.parse_args()
    work = ROOT / ".perfbench" / f"record-{args.workload}-{os.getpid()}"
    found = {}
    try:
        for seed in args.seeds:
            cfg = W.config_for(args.workload, seed)
            settlements = W.build_inputs(args.workload, cfg, work / f"in{seed}")
            wall, res = W.run_call(args.workload, cfg, work / f"in{seed}", work / "out", 1,
                                   settlements, None)
            if not res.ok:
                print(f"seed {seed}: {res.problems}", file=sys.stderr)
                return 1
            found[str(seed)] = {"digests": res.digests, "records": res.records}
            print(f"{args.workload} seed {seed}: {wall:.1f} s {res.digests}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table.setdefault(args.workload, {}).update(found)
    for name in table:
        table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
