"""The benchmark's workloads: input build, CLI arguments and output check.

Every workload drives covmap through `covmap.cli.main`, in process, on
input files the benchmark generates from the workload seed; the seed
reaches covmap only as `SimConfig.seed` inside those files.

- study-desk: `covmap simulate` on `SimConfig.desk` with DESK_ROUNDS
  rounds and `--jobs 2`.
- round-full: `covmap simulate` on the full-scale `SimConfig()`, one
  round, one process.
- weights-idw-full: `covmap weights --scheme idw` on the round-0
  full-scale world (settlement raster, BTS specs, environment raster and
  the 40 layout rectangles as GeoJSON).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io as text_io
import json
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from covmap import cli, io, simulation
from covmap.propagation import env_code
from covmap.simulation import SimConfig

WORKLOADS = ("study-desk", "round-full", "weights-idw-full")
STUDIES = ("study-desk", "round-full")
DESK_ROUNDS = 10
JOBS = {"study-desk": 2, "round-full": 1, "weights-idw-full": 1}
DIGESTED = {
    "study-desk": ("rounds.csv", "tally.csv"),
    "round-full": ("rounds.csv", "tally.csv"),
    "weights-idw-full": ("weights_idw.csv",),
}
ROW_SUM_TOL = 1e-9


def config_for(workload: str, seed: int) -> SimConfig:
    if workload == "study-desk":
        return SimConfig.desk(rounds=DESK_ROUNDS, seed=seed)
    if workload in WORKLOADS:
        return SimConfig(seed=seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# --- inputs ------------------------------------------------------------------


def areas_geojson(cfg: SimConfig) -> dict:
    """The layout areas of `simulation.build_areas` as GeoJSON rectangles
    whose edges run along pixel edges, so rasterising them gives the
    same masks."""
    areas, _ = simulation.build_areas(cfg)
    g = cfg.grid
    features = []
    for area in areas.areas:
        rows = np.nonzero(area.mask.any(axis=1))[0]
        cols = np.nonzero(area.mask.any(axis=0))[0]
        x0 = g.origin_x + cols[0] * g.cell_size_m
        x1 = g.origin_x + (cols[-1] + 1) * g.cell_size_m
        y0 = g.origin_y + (g.nrows - rows[-1] - 1) * g.cell_size_m
        y1 = g.origin_y + (g.nrows - rows[0]) * g.cell_size_m
        ring = [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]
        features.append({
            "type": "Feature",
            "properties": {"area_id": area.area_id},
            "geometry": {"type": "Polygon", "coordinates": [[[float(a), float(b)] for a, b in ring]]},
        })
    return {"type": "FeatureCollection", "features": features}


def write_world(cfg: SimConfig, out: Path) -> int:
    """Write the round-0 world of `cfg` as `covmap weights` inputs.

    Uses the RNG streams `simulation.build_world` uses for round 0, so
    the files equal `covmap simulate --snapshot` output.  Returns the
    number of settlement pixels.
    """
    ss = np.random.SeedSequence((cfg.seed, 0))
    rng_pop, _, rng_bts = (np.random.default_rng(s) for s in ss.spawn(3))
    raster = simulation.gen_population(cfg, rng_pop)
    specs, bts_env = simulation.place_bts(raster, cfg, rng_bts)
    env = simulation.nearest_site_env(
        cfg.grid, [s.x for s in specs], [s.y for s in specs], [env_code(e) for e in bts_env]
    )
    io.save_raster(out / "settlements.asc", raster)
    io.save_bts_csv(out / "bts.csv", specs)
    io.save_ascii_grid(out / "env.asc", env.astype(np.float64), cfg.grid)
    (out / "areas.geojson").write_text(json.dumps(areas_geojson(cfg)), encoding="utf-8")
    return int(np.count_nonzero(raster.counts))


def build_inputs(workload: str, cfg: SimConfig, out: Path) -> int:
    """Write the workload's input files into `out`.

    Returns the settlement pixels one call weights when the inputs fix
    it, else 0 (studies report it in rounds.csv).
    """
    out.mkdir(parents=True)
    if workload in STUDIES:
        io.save_config(out / "config.json", cfg)
        return 0
    return write_world(cfg, out)


def cli_args(workload: str, inputs: Path, out: Path, jobs: int) -> list[str]:
    if workload in STUDIES:
        return ["simulate", "--config", str(inputs / "config.json"), "--jobs", str(jobs),
                "--out", str(out)]
    return ["weights", "--scheme", "idw", "--raster", str(inputs / "settlements.asc"),
            "--bts", str(inputs / "bts.csv"), "--aux", str(inputs / "env.asc"),
            "--areas", str(inputs / "areas.geojson"), "--out", str(out)]


# --- output check ------------------------------------------------------------


@dataclass
class Outcome:
    """What one call produced: digests, work done and any check failures."""

    digests: dict[str, str] = field(default_factory=dict)
    records: int = 0
    rounds: int = 0
    settlements: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def expected_bts(cfg: SimConfig) -> int:
    """Site count `simulation.place_bts` derives from the population split."""
    urban = cfg.population * cfg.urban_share / cfg.urban_pop_per_bts
    rural = cfg.population * (1.0 - cfg.urban_share) / cfg.rural_pop_per_bts
    return max(1, int(np.floor(urban + 0.5))) + max(1, int(np.floor(rural + 0.5)))


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _check_study(cfg: SimConfig, out: Path, res: Outcome) -> None:
    rows = _csv_rows(out / "rounds.csv")
    res.records = len(rows)
    world = {(int(r[0]), r[2]): float(r[4]) for r in rows if r[1] == "world" and r[3] == "total"}
    rounds = sorted({int(r[0]) for r in rows})
    if rounds != list(range(cfg.rounds)):
        res.problems.append(f"rounds.csv holds rounds {rounds[:5]}..., expected 0..{cfg.rounds - 1}")
    for rnd in rounds:
        if world.get((rnd, "n_bts")) != expected_bts(cfg):
            res.problems.append(f"round {rnd}: n_bts {world.get((rnd, 'n_bts'))}, "
                                f"expected {expected_bts(cfg)}")
        res.settlements += int(world.get((rnd, "n_settlements"), 0))
    res.rounds = len(rounds)
    tally = _csv_rows(out / "tally.csv")
    if len(tally) != len(simulation.TALLY_SCHEMES) * len(simulation.TALLY_METRICS):
        res.problems.append(f"tally.csv has {len(tally)} rows")


def _check_weights(out: Path, res: Outcome, n_areas: int) -> None:
    rows = _csv_rows(out / "weights_idw.csv")
    res.records = len(rows)
    sums: dict[str, float] = {}
    for area_id, _, w in rows:
        sums[area_id] = sums.get(area_id, 0.0) + float(w)
    bad = {a: s for a, s in sums.items() if abs(s - 1.0) > ROW_SUM_TOL}
    if bad:
        res.problems.append(f"{len(bad)} idw area rows do not sum to 1: {sorted(bad.items())[:3]}")
    covered, no_cov = (int(v) for v in _csv_rows(out / "coverage_summary.csv")[0])
    if covered != len(sums) or covered + no_cov != n_areas:
        res.problems.append(f"coverage summary {covered}+{no_cov} areas, weights cover "
                            f"{len(sums)}, layout has {n_areas}")
    res.rounds = 1


def check_outputs(workload: str, cfg: SimConfig, out: Path, settlements: int,
                  golden: dict | None) -> Outcome:
    """Check one call's output directory against invariants and, when the
    seed has a recorded entry, against its digests and record count."""
    res = Outcome()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["files"]
    for name in DIGESTED[workload]:
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        res.digests[name] = digest
        if manifest.get(name) != digest:
            res.problems.append(f"{name}: manifest digest does not match the file")
    if workload in STUDIES:
        _check_study(cfg, out, res)
    else:
        _check_weights(out, res, len(areas_geojson(cfg)["features"]))
        res.settlements = settlements
    if golden is not None:
        for name, digest in golden["digests"].items():
            if res.digests.get(name) != digest:
                res.problems.append(f"{name}: sha256 {res.digests.get(name)} != recorded {digest}")
        if res.records != golden["records"]:
            res.problems.append(f"{res.records} records, recorded {golden['records']}")
    return res


def run_call(workload: str, cfg: SimConfig, inputs: Path, out: Path, jobs: int,
             settlements: int, golden: dict | None) -> tuple[float, Outcome]:
    """Time one `covmap.cli.main` call, check its outputs, then delete them.

    covmap's stdout is captured and dropped; a crash or non-zero exit is
    a failed call, reported on stderr.
    """
    argv = cli_args(workload, inputs, out, jobs)
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(text_io.StringIO()):
            rc = cli.main(argv)
    except Exception:  # a crashing call is one failed operation, not a benchmark error
        traceback.print_exc()
    wall = time.perf_counter() - t0
    try:
        if rc != 0:
            return wall, Outcome(problems=[f"covmap {argv[0]} exited with {rc}"])
        try:
            return wall, check_outputs(workload, cfg, out, settlements, golden)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return wall, Outcome(problems=[f"unreadable output: {exc!r}"])
    finally:
        shutil.rmtree(out, ignore_errors=True)
