#!/usr/bin/env python3
"""Run one covmap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload study-desk --seed 1 --seconds 30 --trace 0

With `--trace 0` the run sets the inputs up (several times where that is
cheap), makes an untimed warm-up call where a call is short, then
repeats the timed `covmap.cli.main` call while another call should
still end within `--seconds`, at least once (exactly once on the
full-scale workloads), and reports the end-to-end metrics.  With `--trace 1` it makes one untraced serial call,
one untraced call at the workload's `--jobs` when that is above 1, and
one serial call with every probe of perfbench/tracer.py installed, and
reports the per-layer metrics.  Every call's output is checked; see
perfbench/README.md.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  The full record (machine, samples,
per-function table) goes to .perfbench/results/, and a traced run's
spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Input builds per --trace 0 run: cheap on the studies (a config file),
# about 10 s on weights-idw-full (a full-scale world), so built once there.
SETUPS = {"study-desk": 5, "round-full": 5, "weights-idw-full": 1}
# Untimed calls before the timed ones, where a call is short enough to
# afford one.  They are checked and counted like every other call.
WARMUPS = {"study-desk": 1, "round-full": 0, "weights-idw-full": 0}
# Timed calls per run on the full-scale workloads.  Their call takes half
# the time budget or more, so a second one would fit only on a fast host,
# and a run's median would then mix first and second calls by host speed.
MAX_CALLS = {"study-desk": None, "round-full": 1, "weights-idw-full": 1}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import covmap.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """covmap import time in a fresh interpreter (numpy and scipy included)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def machine() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def golden_for(workload: str, seed: int) -> dict | None:
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def run_timed(W, workload: str, cfg, golden: dict | None, seconds: float, work: Path) -> dict:
    setups = []
    for i in range(SETUPS[workload]):
        imported = import_seconds()
        t0 = time.perf_counter()
        settlements = W.build_inputs(workload, cfg, work / f"in{i}")
        setups.append(imported + time.perf_counter() - t0)
    warmups = [W.run_call(workload, cfg, work / "in0", work / f"warm{i}", W.JOBS[workload],
                          settlements, golden) for i in range(WARMUPS[workload])]
    calls = []
    start = time.perf_counter()
    # start another call only while it should end within `seconds`
    cap = MAX_CALLS[workload]
    while not calls or ((cap is None or len(calls) < cap)
                        and time.perf_counter() - start
                        + statistics.median(w for w, _ in calls) <= seconds):
        wall, res = W.run_call(workload, cfg, work / "in0", work / f"out{len(calls)}",
                               W.JOBS[workload], settlements, golden)
        calls.append((wall, res))
    reference = golden["digests"] if golden else (warmups + calls)[0][1].digests
    for _, res in warmups + calls:
        if res.ok and res.digests != reference:
            res.problems.append("output differs from the run's first call")
    return {
        "golden": golden is not None,
        "setup_s_samples": setups,
        "calls": ([{"wall_s": w, "warmup": True, **vars(r)} for w, r in warmups]
                  + [{"wall_s": w, "warmup": False, **vars(r)} for w, r in calls]),
        "metrics": {
            "wall_s": (statistics.median(w for w, _ in calls), "s"),
            "rounds_per_s": (statistics.median(r.rounds / w for w, r in calls), "1/s"),
            "settlements_per_s": (statistics.median(r.settlements / w for w, r in calls), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "setup_s": (statistics.median(setups), "s"),
        },
    }


def layer_metrics(tracer, serial_s: float, parallel_s: float, traced_s: float,
                  jobs: int) -> dict[str, tuple[float, str]]:
    import numpy as np

    c, g = tracer.counts, tracer.group_seconds
    rounds = tracer.durations("simulation.simulate_round")
    links, hata = c.get("propagation.links", 0), g("propagation.hata")
    live, offered = c.get("mapping.live_links", 0), c.get("mapping.offered_links", 0)
    return {
        "propagation.links": (links, "count"),
        "propagation.hata_s": (hata, "s"),
        "propagation.links_per_s": (links / hata if hata else 0.0, "1/s"),
        "propagation.rss_field_s": (g("propagation.rss_field"), "s"),
        "propagation.rss_bytes": (c.get("propagation.rss_bytes", 0), "B"),
        "geo.voronoi_assign_s": (g("geo.voronoi_assign"), "s"),
        "geo.voronoi_pixels": (c.get("geo.voronoi_pixels", 0), "count"),
        "geo.area_labels_s": (g("geo.area_labels"), "s"),
        "geo.extract_settlements_s": (g("geo.extract_settlements"), "s"),
        "simulation.gen_population_s": (g("simulation.gen_population"), "s"),
        "simulation.place_bts_s": (g("simulation.place_bts"), "s"),
        "simulation.nearest_site_env_s": (g("simulation.nearest_site_env"), "s"),
        "simulation.best_server_grid_s": (g("simulation.best_server_grid"), "s"),
        "simulation.true_coverage_s": (g("simulation.true_coverage"), "s"),
        "simulation.settlement_pixel_weights_s": (g("simulation.settlement_pixel_weights"), "s"),
        "simulation.overlaps_s": (g("simulation.overlaps"), "s"),
        "simulation.round_s_p50": (float(np.percentile(rounds, 50)) if rounds else 0.0, "s"),
        "simulation.round_s_p90": (float(np.percentile(rounds, 90)) if rounds else 0.0, "s"),
        "simulation.parallel_efficiency": (serial_s / (jobs * parallel_s), "ratio"),
        "mapping.bsa_select_s": (g("mapping.bsa_select"), "s"),
        "mapping.idw_rows_s": (g("mapping.idw_rows"), "s"),
        "mapping.live_links": (live, "count"),
        "mapping.live_link_frac": (live / offered if offered else 0.0, "ratio"),
        "mapping.area_weights_from_pixels_s": (g("mapping.area_weights_from_pixels"), "s"),
        "mapping.weights_voronoi_s": (g("mapping.weights_voronoi"), "s"),
        "mapping.naive_specs_s": (g("mapping.naive_specs"), "s"),
        "mapping.aggregate_s": (g("mapping.aggregate"), "s"),
        "io.load_s": (g("io.load"), "s"),
        "io.bytes_read": (c.get("io.bytes_read", 0), "B"),
        "io.save_outputs_s": (g("io.save_outputs"), "s"),
        "io.bytes_written": (c.get("io.bytes_written", 0), "B"),
        "svgplot.boxplot_s": (g("svgplot.boxplot"), "s"),
        "cli.self_s": (tracer.group_self_seconds("cli.cmd"), "s"),
        "trace.overhead_s": (traced_s - serial_s, "s"),
    }


def run_traced(W, workload: str, cfg, golden: dict | None, work: Path, spans_path: Path) -> dict:
    from perfbench.tracer import Tracer, installed

    settlements = W.build_inputs(workload, cfg, work / "in")
    jobs = W.JOBS[workload]

    def call(n: int, call_jobs: int):
        return W.run_call(workload, cfg, work / "in", work / f"out{n}", call_jobs,
                          settlements, golden)

    serial_s, serial = call(0, 1)
    parallel_s, parallel = call(1, jobs) if jobs > 1 else (serial_s, None)
    tracer = Tracer()
    with installed(tracer):
        traced_s, traced = call(2, 1)
    tracer.dump(spans_path)
    for res in (parallel, traced):
        if res is not None and res.ok and res.digests != serial.digests:
            res.problems.append("output digests differ from the untraced serial call")
    return {
        "golden": golden is not None,
        "calls": [{"wall_s": w, **vars(r)} for w, r in
                  ((serial_s, serial), (parallel_s, parallel), (traced_s, traced))
                  if r is not None],
        "functions": tracer.functions(),
        "counts": tracer.counts,
        "metrics": layer_metrics(tracer, serial_s, parallel_s, traced_s, jobs),
    }


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("must be in [0, 2^64), as SimConfig.seed")
    return value


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one covmap benchmark workload.")
    p.add_argument("--workload", required=True,
                   choices=("study-desk", "round-full", "weights-idw-full"))
    p.add_argument("--seed", type=_seed, default=1)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="time budget for the repeated timed calls (at least one call)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "covmap" / "__init__.py").is_file():
        print(f"error: covmap sources not found under {SRC}", file=sys.stderr)
        return 2
    # pin BLAS and OpenMP pools before numpy loads, so `--jobs 2` workers
    # do not oversubscribe the cores
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads as W

    cfg = W.config_for(args.workload, args.seed)
    golden = golden_for(args.workload, args.seed)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = WORK / "work" / stem
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            record = run_traced(W, args.workload, cfg, golden, work,
                                results / f"{stem}.spans.jsonl")
        else:
            record = run_timed(W, args.workload, cfg, golden, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(workload=args.workload, seed=args.seed, trace=args.trace, machine=machine())
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    calls = record["calls"]
    failed = sum(1 for c in calls if c["problems"])
    print(f"machine: {json.dumps(record['machine'])}")
    print(f"golden digests for seed {args.seed}: {'yes' if record['golden'] else 'none recorded'}")
    for i, c in enumerate(calls):
        status = "ok" if not c["problems"] else "FAILED: " + "; ".join(c["problems"])
        print(f"call {i}{' (warm-up)' if c.get('warmup') else ''}: {c['wall_s']:.3f} s, "
              f"{c['rounds']} rounds, {c['settlements']} settlements, {status}")
    for name, row in sorted(record.get("functions", {}).items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:48s} calls {row['calls']:6d}  total {row['total_s']:9.3f} s  "
              f"self {row['self_s']:9.3f} s")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
