"""Command line entry points for the two workflows: the synthetic
simulation study and the real-data weighting pipeline.

Every subcommand is a thin wrapper over library calls; outputs are
byte-deterministic for fixed inputs and seed, independent of --jobs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from covmap import io
from covmap.geo import extract_settlements, voronoi_assign
from covmap.mapping import (
    aggregate,
    area_weights_from_pixels,
    classify_areas_by_bts_density,
    paint_area_env,
    synthesize_naive_specs,
    weights_aug_voronoi,
    weights_p2p,
    weights_voronoi,
)
from covmap.propagation import DEAD_THRESHOLD_DBM, ENV_SUBURBAN
from covmap.simulation import (
    SCHEMES,
    TALLY_METRICS,
    TALLY_SCHEMES,
    best_server_grid,
    build_world,
    compute_tally,
    run_study,
    settlement_pixel_weights,
)
from covmap.svgplot import boxplot_svg

_WEIGHT_SCHEMES = ("p2p", "voronoi", "aug-voronoi", "bsa", "idw")


# --- shared helpers ----------------------------------------------------------


def _u64(text: str) -> int:
    v = int(text)
    if not 0 <= v < 2**64:
        raise argparse.ArgumentTypeError("must be in [0, 2^64)")
    return v


def _finite(text: str) -> float:
    v = float(text)
    if not np.isfinite(v):
        raise argparse.ArgumentTypeError("must be a finite number")
    return v


def _positive(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


def _load_env_grid(path, grid) -> np.ndarray:
    """Auxiliary environment raster: integer class codes 0/1/2 on the
    same grid as the settlement raster, no NODATA holes."""
    values, g, mask, _ = io.load_ascii_grid(path)
    if g != grid:
        raise ValueError(f"{path}: environment grid does not match the raster grid")
    if mask is not None:
        raise ValueError(f"{path}: environment grid must not contain NODATA cells")
    codes = values.astype(np.int64)
    if not np.array_equal(codes, values) or codes.min() < 0 or codes.max() > 2:
        raise ValueError(
            f"{path}: environment codes must be integers 0 (urban), 1 (suburban), 2 (rural)"
        )
    return codes.astype(np.uint8)


def _resolve_specs(bts: io.BtsFile, areas, grid, naive: bool):
    """Antenna specs plus the area classes used for any synthesis."""
    classes = None
    if naive or bts.needs_synthesis:
        if not naive:
            raise ValueError(
                "BTS file has no technical columns (height_m,freq_mhz,power_dbm); "
                "pass --naive to synthesize specs"
            )
        if areas is None:
            raise ValueError("--naive requires --areas for urbanity classification")
        classes = classify_areas_by_bts_density(areas, bts.points, grid)
        specs = synthesize_naive_specs(bts.points, classes, areas, grid)
    else:
        specs = bts.specs
    return specs, classes


def _resolve_env(aux, areas, bts, grid, classes) -> np.ndarray:
    if aux is not None:
        return _load_env_grid(aux, grid)
    if areas is not None:
        if classes is None:
            classes = classify_areas_by_bts_density(areas, bts.points, grid)
        return paint_area_env(areas, classes, grid)
    return np.full(grid.shape, ENV_SUBURBAN, dtype=np.uint8)


def _metric_series(records) -> dict[tuple[str, str, str], dict[int, float]]:
    out: dict[tuple[str, str, str], dict[int, float]] = {}
    for rnd, scheme, metric, env, value in records:
        out.setdefault((scheme, metric, env), {})[rnd] = value
    return out


def _mean_of(series, scheme: str, metric: str, env: str) -> float | None:
    d = series.get((scheme, metric, env))
    if not d:
        return None
    v = np.array([d[r] for r in sorted(d)], dtype=float)
    v = v[np.isfinite(v)]
    return float(v.mean()) if v.size else None


def _boxplots(records) -> dict[str, str]:
    series = _metric_series(records)
    out = {}
    for metric, title in (("rho", "Correlation"), ("bias", "Bias"), ("rmse", "RMSE")):
        samples = []
        for scheme in SCHEMES:
            d = series.get((scheme, metric, "total"), {})
            samples.append(np.array([d[r] for r in sorted(d)], dtype=float))
        out[f"boxplot_{metric}.svg"] = boxplot_svg(title, metric, list(SCHEMES), samples)
    return out


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max([len(h)] + [len(r[i]) for r in rows]) for i, h in enumerate(headers)
    ]
    def line(cells):
        first = cells[0].ljust(widths[0])
        rest = [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        return "  ".join([first] + rest).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out) + "\n"


def _cell(v: float | None, digits: int = 3) -> str:
    return "-" if v is None else f"{v:.{digits}f}"


# --- simulate ----------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = io.load_config(args.config)
    over = {}
    if args.rounds is not None:
        over["rounds"] = args.rounds
    if args.seed is not None:
        over["seed"] = args.seed
    if over:
        cfg = dataclasses.replace(cfg, **over)
    result = run_study(cfg, jobs=args.jobs)

    per_round: dict[int, dict[str, float]] = {}
    for rnd, scheme, metric, env, value in result.records:
        if scheme == "world" and env == "total":
            per_round.setdefault(rnd, {})[metric] = value
    for rnd in sorted(per_round):
        d = per_round[rnd]
        print(
            f"round {rnd}: bts={int(d['n_bts'])} "
            f"settlements={int(d['n_settlements'])} "
            f"uncovered={d['uncovered_settlement_fraction']:.4f}"
        )

    extra = _boxplots(result.records)
    if args.snapshot:
        world = build_world(cfg, 0)
        labels = world.coverage.assignment.labels
        extra["snapshot_settlements.asc"] = io.ascii_grid_string(
            world.raster.counts.astype(np.float64), cfg.grid, world.raster.nodata
        )
        extra["snapshot_bts.csv"] = io.bts_csv_string(world.specs)
        extra["snapshot_env.asc"] = io.ascii_grid_string(
            world.env_grid.astype(np.float64), cfg.grid
        )
        extra["snapshot_coverage.asc"] = io.ascii_grid_string(
            labels.astype(np.float64), cfg.grid, labels < 0
        )
        extra["snapshot_covariates.csv"] = io.covariates_csv_string(world.covariates)

    manifest = io.save_outputs(
        args.out,
        metrics=result.records,
        tally_csv=io.tally_csv_string(result.tally, TALLY_SCHEMES, TALLY_METRICS),
        config=cfg,
        extra=extra,
    )
    print(f"wrote {len(manifest['files'])} files + manifest.json to {args.out}")
    return 0


# --- coverage ----------------------------------------------------------------


def cmd_coverage(args) -> int:
    raster = io.load_raster(args.raster)
    grid = raster.grid
    bts = io.load_bts_csv(args.bts)
    areas = io.load_areas_geojson(args.areas) if args.areas else None
    specs, classes = _resolve_specs(bts, areas, grid, args.naive)
    env2d = _resolve_env(args.aux, areas, bts, grid, classes)
    specs = sorted(specs, key=lambda sp: sp.bts_id)
    assignment = best_server_grid(grid, specs, env2d, args.rx_height, args.threshold)
    labels = assignment.labels
    dead = labels < 0

    lines = ["label,bts_id,pixels"]
    counts = np.bincount(labels[~dead], minlength=len(specs))
    for i, sp in enumerate(specs):
        lines.append(f"{i},{sp.bts_id},{int(counts[i])}")
    io.save_outputs(
        args.out,
        extra={
            "coverage.asc": io.ascii_grid_string(labels.astype(np.float64), grid, dead),
            "servers.csv": "\n".join(lines) + "\n",
        },
    )
    print(f"dead pixels: {int(dead.sum())} / {labels.size}")
    return 0


# --- weights -----------------------------------------------------------------


def cmd_weights(args) -> int:
    raster = io.load_raster(args.raster)
    grid = raster.grid
    areas = io.load_areas_geojson(args.areas)
    bts = io.load_bts_csv(args.bts)

    params: dict[str, object] = {"scheme": args.scheme, "naive": bool(args.naive)}
    if args.scheme == "p2p":
        wm = weights_p2p(bts.points, areas, grid)
    elif args.scheme == "voronoi":
        wm = weights_voronoi(voronoi_assign(grid, bts.points), areas)
    elif args.scheme == "aug-voronoi":
        wm = weights_aug_voronoi(
            voronoi_assign(grid, bts.points), extract_settlements(raster), areas
        )
    else:
        specs, classes = _resolve_specs(bts, areas, grid, args.naive)
        env2d = _resolve_env(args.aux, areas, bts, grid, classes)
        settlements = extract_settlements(raster)
        pw_bsa, pw_idw = settlement_pixel_weights(
            settlements, sorted(specs, key=lambda sp: sp.bts_id),
            env2d[settlements.rows, settlements.cols], rx_height_m=1.0,
            dead_threshold_dbm=args.threshold, idw_s=args.s, idw_k=args.k,
        )
        params["dead_threshold_dbm"] = args.threshold
        if args.scheme == "idw":
            params["s"] = float(args.s)
            params["k"] = int(args.k)
        pw = pw_bsa if args.scheme == "bsa" else pw_idw
        wm = area_weights_from_pixels(pw, settlements, areas)

    key = args.scheme.replace("-", "_")
    summary = (
        "areas_covered,areas_no_coverage\n"
        f"{len(wm.covered_ids)},{len(wm.no_coverage_ids)}\n"
    )
    io.save_outputs(
        args.out,
        weight_matrices={key: wm},
        extra={
            "coverage_summary.csv": summary,
            "params.json": json.dumps(params, indent=2, sort_keys=True) + "\n",
        },
    )
    print(
        f"{args.scheme}: {len(wm.covered_ids)} areas covered, "
        f"{len(wm.no_coverage_ids)} without coverage"
    )
    return 0


# --- aggregate ---------------------------------------------------------------


def cmd_aggregate(args) -> int:
    area_ids = None
    if args.areas:
        area_ids = list(io.load_areas_geojson(args.areas).area_ids)
    wm = io.load_weights_csv(args.weights, area_ids=area_ids)
    table = io.load_covariates_csv(args.covariates)
    names = sorted(table.columns)
    per_column = {name: aggregate(wm, table, name, args.stat) for name in names}
    lines = ["area_id," + ",".join(names)]
    for aid in sorted(wm.area_ids):
        cells = [aid]
        for name in names:
            v = per_column[name][aid]
            cells.append("" if v is None else io.fmt12(v))
        lines.append(",".join(cells))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


# --- report ------------------------------------------------------------------


def cmd_report(args) -> int:
    rounds_path = Path(args.study) / "rounds.csv"
    if not rounds_path.exists():
        raise ValueError(f"missing study input: {rounds_path}")
    records = io.load_metrics_csv(rounds_path)
    series = _metric_series(records)
    tally = compute_tally(records)

    tally_rows = [
        [s] + [f"{tally[(s, m)]:.1f}" for m in TALLY_METRICS] for s in TALLY_SCHEMES
    ]
    tally_txt = _table(["scheme"] + [f"{m}_win_pct" for m in TALLY_METRICS], tally_rows)

    env_cols = ["total", "urban", "suburban", "rural"]
    blocks = []
    for metric, heading in (
        ("geo_overlap", "Geographic overlap (mean over rounds)"),
        ("settlement_overlap", "Settlement overlap (mean over rounds)"),
    ):
        rows = [
            [s] + [_cell(_mean_of(series, s, metric, e)) for e in env_cols]
            for s in SCHEMES
        ]
        blocks.append(heading + "\n" + _table(["scheme"] + env_cols, rows))
    overlap_txt = "\n".join(blocks)

    corr_rows = [
        [s]
        + [_cell(_mean_of(series, s, "rho", e)) for e in ("total", "urban", "rural")]
        + [_cell(_mean_of(series, s, "bias", "total")),
           _cell(_mean_of(series, s, "rmse", "total"))]
        for s in SCHEMES
    ]
    corr_txt = _table(
        ["scheme", "rho", "rho_urban", "rho_rural", "bias", "rmse"], corr_rows
    )

    extra = _boxplots(records)
    extra["tally_table.txt"] = tally_txt
    extra["overlap_table.txt"] = overlap_txt
    extra["correlation_table.txt"] = corr_txt
    extra["tally.csv"] = io.tally_csv_string(tally, TALLY_SCHEMES, TALLY_METRICS)
    manifest = io.save_outputs(args.out, extra=extra)
    print(f"wrote {len(manifest['files'])} files + manifest.json to {args.out}")
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="covmap",
        description="Coverage-derived mapping of survey covariates: "
        "synthetic study, coverage maps, weighting schemes, aggregation.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="run the synthetic evaluation study")
    sim.add_argument("--config", required=True, help="study config JSON")
    sim.add_argument("--rounds", type=_positive, default=None,
                     help="override config round count")
    sim.add_argument("--seed", type=_u64, default=None,
                     help="override config seed (u64)")
    sim.add_argument("--jobs", type=_positive, default=1,
                     help="parallel round workers (default 1); output is identical for any value")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--snapshot", action="store_true",
                     help="also dump round-0 world artifacts (rasters, BTS specs, covariates)")
    sim.set_defaults(func=cmd_simulate)

    cov = sub.add_parser("coverage", help="best-server coverage map from BTS specs")
    cov.add_argument("--bts", required=True,
                     help="BTS CSV: bts_id,x,y[,height_m,freq_mhz,power_dbm]")
    cov.add_argument("--raster", required=True,
                     help="settlement raster (ESRI ASCII); defines the grid")
    cov.add_argument("--areas", default=None,
                     help="statistical areas GeoJSON (needed for --naive or env painting)")
    cov.add_argument("--aux", default=None,
                     help="environment-class raster, codes 0=urban 1=suburban 2=rural")
    cov.add_argument("--naive", action="store_true",
                     help="synthesize specs from public context instead of technical columns")
    cov.add_argument("--threshold", type=_finite, default=DEAD_THRESHOLD_DBM,
                     help=f"sensitivity threshold in dBm (default {DEAD_THRESHOLD_DBM})")
    cov.add_argument("--rx-height", type=_finite, default=1.0,
                     help="receiver height in metres (default 1.0)")
    cov.add_argument("--out", required=True, help="output directory")
    cov.set_defaults(func=cmd_coverage)

    wgt = sub.add_parser("weights", help="compute one BTS-to-area weight matrix")
    wgt.add_argument("--scheme", required=True, choices=_WEIGHT_SCHEMES)
    wgt.add_argument("--bts", required=True,
                     help="BTS CSV: bts_id,x,y[,height_m,freq_mhz,power_dbm]")
    wgt.add_argument("--areas", required=True, help="statistical areas GeoJSON")
    wgt.add_argument("--raster", required=True,
                     help="settlement raster (ESRI ASCII); defines the grid")
    wgt.add_argument("--aux", default=None,
                     help="environment-class raster for bsa/idw, codes 0/1/2")
    wgt.add_argument("--naive", action="store_true",
                     help="synthesize specs from public context (bsa/idw)")
    wgt.add_argument("--s", type=_finite, default=2.0,
                     help="idw signal-strength exponent (default 2)")
    wgt.add_argument("--k", type=_positive, default=5,
                     help="idw neighbour count (default 5)")
    wgt.add_argument("--threshold", type=_finite, default=DEAD_THRESHOLD_DBM,
                     help=f"sensitivity threshold in dBm (default {DEAD_THRESHOLD_DBM})")
    wgt.add_argument("--out", required=True, help="output directory")
    wgt.set_defaults(func=cmd_weights)

    agg = sub.add_parser("aggregate", help="area-level covariates from weights")
    agg.add_argument("--weights", required=True, help="weight matrix CSV")
    agg.add_argument("--covariates", required=True, help="per-BTS covariate CSV")
    agg.add_argument("--stat", choices=("mean", "median"), default="mean",
                     help="aggregation statistic (default mean)")
    agg.add_argument("--areas", default=None,
                     help="optional GeoJSON fixing the area universe; areas "
                          "without weights get explicit empty cells")
    agg.add_argument("--out", required=True, help="output CSV path")
    agg.set_defaults(func=cmd_aggregate)

    rep = sub.add_parser("report", help="tables and figures from a study directory")
    rep.add_argument("--study", required=True,
                     help="directory produced by `covmap simulate`")
    rep.add_argument("--out", required=True, help="output directory")
    rep.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
