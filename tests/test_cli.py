import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covmap import io, simulation
from covmap.cli import main
from covmap.geo import Grid, extract_settlements
from covmap.mapping import weights_p2p
from covmap.simulation import SimConfig
from conftest import traced_peak


def tiny_config(**over):
    base = dict(
        ncols=50, nrows=50, cell_size_m=100.0, population=2000,
        block_px=25, urban_split=4, urban_sigma_m=700.0,
        rural_cluster_count=2, rural_sigma_m=1500.0,
        mask_rect=(30, 5, 8, 8), urban_pop_per_bts=250.0,
        rural_pop_per_bts=500.0, rounds=3, seed=7,
    )
    base.update(over)
    return SimConfig(**base)


def tree_bytes(root) -> dict[str, bytes]:
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _run_python(code: str, **env_vars: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports covmap from this
    tree, with `env_vars` added to its environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """One tiny simulate run with snapshot artifacts, shared read-only."""
    base = tmp_path_factory.mktemp("study")
    cfg_path = base / "cfg.json"
    io.save_config(cfg_path, tiny_config())
    out = base / "out"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out), "--snapshot"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def two_areas(tmp_path_factory):
    """West/east split of the tiny study's 5000 m extent."""
    fc = {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"area_id": "W"},
         "geometry": {"type": "Polygon", "coordinates":
                      [[[0, 0], [2500, 0], [2500, 5000], [0, 5000], [0, 0]]]}},
        {"type": "Feature", "properties": {"area_id": "E"},
         "geometry": {"type": "Polygon", "coordinates":
                      [[[2500, 0], [5000, 0], [5000, 5000], [2500, 5000], [2500, 0]]]}},
    ]}
    path = tmp_path_factory.mktemp("areas") / "areas.geojson"
    path.write_text(json.dumps(fc), encoding="utf-8")
    return path


class TestSimulate:
    def test_runs_without_scipy(self, tmp_path):
        """scipy is a benchmark extra: the CLI and a study round never import it."""
        cfg_path = tmp_path / "cfg.json"
        io.save_config(cfg_path, tiny_config(rounds=1))
        code = ("import sys, covmap.cli; "
                f"rc = covmap.cli.main(['simulate', '--config', {str(cfg_path)!r}, "
                f"'--out', {str(tmp_path / 'out')!r}]); "
                "assert rc == 0 and 'scipy' not in sys.modules, rc")
        done = _run_python(code)
        assert done.returncode == 0, done.stderr

    def test_import_loads_no_process_pool(self):
        """`import covmap.cli` stays cheap: only a study run with more than
        one job imports the process pool and multiprocessing."""
        done = _run_python(
            "import sys, covmap.cli; "
            "print(sorted(m for m in sys.modules if m == 'concurrent.futures.process' "
            "or m.split('.')[0] == 'multiprocessing'))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_two_runs_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        io.save_config(cfg_path, tiny_config(rounds=2))
        for out in ("a", "b"):
            rc = main(["simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / out)])
            assert rc == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_jobs_do_not_change_tree(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        io.save_config(cfg_path, tiny_config(rounds=2))
        for out, jobs in (("j1", "1"), ("j4", "4")):
            rc = main(["simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / out), "--jobs", jobs])
            assert rc == 0
        assert tree_bytes(tmp_path / "j1") == tree_bytes(tmp_path / "j4")

    def test_flag_overrides_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        io.save_config(cfg_path, tiny_config(rounds=3, seed=7))
        rc = main(["simulate", "--config", str(cfg_path), "--rounds", "1",
                   "--seed", "9", "--out", str(tmp_path / "o")])
        assert rc == 0
        cfg = io.load_config(tmp_path / "o" / "config.json")
        assert (cfg.rounds, cfg.seed) == (1, 9)
        records = io.load_metrics_csv(tmp_path / "o" / "rounds.csv")
        assert {r[0] for r in records} == {0}

    def test_missing_config_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out", "/tmp/x"])
        assert exc.value.code != 0

    def test_unreadable_config_fails_cleanly(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "no.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_value_rejected_before_any_round(self, tmp_path, capsys, monkeypatch):
        def no_round(*args, **kwargs):
            raise AssertionError("a round ran on an invalid config")

        monkeypatch.setattr(simulation, "simulate_round", no_round)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"rounds": 2, "kmeans_iters": 2.5}', encoding="utf-8")
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc != 0
        err = capsys.readouterr().err
        assert "cfg.json" in err and "kmeans_iters" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [
        '{"cell_size_m": 1%s}' % ("0" * 400),  # beyond float64
        '{"rounds": 1%s}' % ("0" * 4300),  # past Python's integer digit limit
    ], ids=["beyond-float64", "digit-limit"])
    def test_config_integer_too_large_fails_cleanly(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text, encoding="utf-8")
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field", ["ncols", "nrows", "population", "block_px",
                                       "urban_split", "rural_cluster_count",
                                       "poverty_block_px", "rounds"])
    def test_config_integer_past_64_bits_names_the_field(self, tmp_path, capsys, monkeypatch,
                                                         field):
        def no_round(*args, **kwargs):
            raise AssertionError("a round ran on an invalid config")

        monkeypatch.setattr(simulation, "simulate_round", no_round)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"%s": 1%s}' % (field, "0" * 400), encoding="utf-8")
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: {field} must fit in 64 bits, got 1000")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_round_count_past_the_bound_refused_before_any_round(self, tmp_path, capsys,
                                                                 monkeypatch, via):
        """A study holds every round's records until it writes them, so a
        round count past `_MAX_ROUNDS` is an error line, not a task list
        that ends in a MemoryError."""
        def no_round(*args, **kwargs):
            raise AssertionError("a round ran on an invalid config")

        monkeypatch.setattr(simulation, "simulate_round", no_round)
        top = simulation._MAX_ROUNDS
        assert SimConfig(rounds=top).rounds == top
        cfg_path = tmp_path / "cfg.json"
        if via == "config":
            cfg_path.write_text('{"rounds": %d}' % (top + 1), encoding="utf-8")
            argv, prefix = [], f"error: {cfg_path}: "
        else:
            io.save_config(cfg_path, tiny_config())
            argv, prefix = ["--rounds", str(top + 1)], "error: "
        rc = main(["simulate", "--config", str(cfg_path), *argv, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"{prefix}rounds must be in [1, {top}], got {top + 1}\n"
        assert not (tmp_path / "o").exists()

    def test_python_int_fields_keep_any_size(self):
        """seed, kmeans_iters and idw_k never reach numpy as integers, so
        they are not bounded."""
        big = 10 ** 400
        cfg = tiny_config(seed=big, kmeans_iters=big, idw_k=big)
        assert (cfg.seed, cfg.kmeans_iters, cfg.idw_k) == (big, big, big)

    def test_tally_sums_to_100(self, study):
        lines = (study / "tally.csv").read_text().strip().split("\n")[1:]
        per_metric: dict[str, float] = {}
        for line in lines:
            scheme, metric, pct = line.split(",")
            per_metric[metric] = per_metric.get(metric, 0.0) + float(pct)
        assert set(per_metric) == {"rho", "bias", "rmse"}
        for total in per_metric.values():
            assert total == pytest.approx(100.0, abs=0.1)

    def test_expected_files(self, study):
        names = {p.name for p in study.iterdir()}
        assert {"rounds.csv", "tally.csv", "config.json", "manifest.json",
                "boxplot_rho.svg", "boxplot_bias.svg", "boxplot_rmse.svg",
                "snapshot_settlements.asc", "snapshot_bts.csv",
                "snapshot_env.asc", "snapshot_coverage.asc",
                "snapshot_covariates.csv"} <= names
        manifest = json.loads((study / "manifest.json").read_text())
        assert set(manifest["files"]) == names - {"manifest.json"}


class TestCoverage:
    def test_matches_snapshot_assignment(self, study, tmp_path):
        rc = main(["coverage", "--bts", str(study / "snapshot_bts.csv"),
                   "--raster", str(study / "snapshot_settlements.asc"),
                   "--aux", str(study / "snapshot_env.asc"),
                   "--out", str(tmp_path / "cov")])
        assert rc == 0
        assert (tmp_path / "cov" / "coverage.asc").read_bytes() == (
            study / "snapshot_coverage.asc"
        ).read_bytes()

    def test_servers_counts_match_grid(self, study, tmp_path):
        rc = main(["coverage", "--bts", str(study / "snapshot_bts.csv"),
                   "--raster", str(study / "snapshot_settlements.asc"),
                   "--aux", str(study / "snapshot_env.asc"),
                   "--out", str(tmp_path / "cov")])
        assert rc == 0
        values, grid, mask, _ = io.load_ascii_grid(tmp_path / "cov" / "coverage.asc")
        rows = (tmp_path / "cov" / "servers.csv").read_text().strip().split("\n")[1:]
        covered = values if mask is None else values[~mask]
        for row in rows:
            label, _, pixels = row.split(",")
            assert int(pixels) == int(np.sum(covered == float(label)))


    def test_header_only_bts_file_fails_cleanly(self, study, tmp_path, capsys):
        empty = tmp_path / "empty_bts.csv"
        empty.write_text("bts_id,x,y,height_m,freq_mhz,power_dbm\n")
        rc = main(["coverage", "--bts", str(empty),
                   "--raster", str(study / "snapshot_settlements.asc"),
                   "--aux", str(study / "snapshot_env.asc"),
                   "--out", str(tmp_path / "cov")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(empty) in err and "no BTS rows" in err


    def test_non_finite_raster_header_fails_cleanly(self, study, tmp_path, capsys):
        bad = tmp_path / "bad.asc"
        text = (study / "snapshot_settlements.asc").read_text()
        bad.write_text(text.replace("cellsize 100", "cellsize 0", 1))
        rc = main(["coverage", "--bts", str(study / "snapshot_bts.csv"),
                   "--raster", str(bad), "--out", str(tmp_path / "cov")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "cell_size_m must be positive" in err

    @pytest.mark.parametrize("code", [1e300, -1e300, 3.0, -1.0, 1.5])
    def test_bad_aux_code_fails_cleanly(self, study, tmp_path, capsys, code):
        values, grid, _, _ = io.load_ascii_grid(study / "snapshot_env.asc")
        values[3, 4] = code
        bad = tmp_path / "env.asc"
        bad.write_text(io.ascii_grid_string(values, grid))
        # RuntimeWarnings are errors under this suite, so a warning cast fails here too
        rc = main(["coverage", "--bts", str(study / "snapshot_bts.csv"),
                   "--raster", str(study / "snapshot_settlements.asc"),
                   "--aux", str(bad), "--out", str(tmp_path / "cov")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "environment codes must be" in err

    def test_aux_on_another_grid_names_both_files(self, study, tmp_path, capsys):
        values, grid, _, _ = io.load_ascii_grid(study / "snapshot_env.asc")
        bad = tmp_path / "env.asc"
        bad.write_text(io.ascii_grid_string(values[1:], Grid(grid.ncols, grid.nrows - 1,
                                                            grid.cell_size_m)))
        raster = study / "snapshot_settlements.asc"
        rc = main(["coverage", "--bts", str(study / "snapshot_bts.csv"), "--raster", str(raster),
                   "--aux", str(bad), "--out", str(tmp_path / "cov")])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {bad}: environment grid does not match "
                                           f"the grid of {raster}\n")


class TestWeights:
    def test_p2p_is_thin_wrapper(self, study, two_areas, tmp_path):
        rc = main(["weights", "--scheme", "p2p",
                   "--bts", str(study / "snapshot_bts.csv"),
                   "--areas", str(two_areas),
                   "--raster", str(study / "snapshot_settlements.asc"),
                   "--out", str(tmp_path / "w")])
        assert rc == 0
        bts = io.load_bts_csv(study / "snapshot_bts.csv")
        raster = io.load_raster(study / "snapshot_settlements.asc")
        wm = weights_p2p(bts.points, io.load_areas_geojson(two_areas), raster.grid)
        assert (tmp_path / "w" / "weights_p2p.csv").read_text() == io.weights_csv_string(wm)

    def test_idw_defaults_recorded(self, study, two_areas, tmp_path):
        rc = main(["weights", "--scheme", "idw",
                   "--bts", str(study / "snapshot_bts.csv"),
                   "--areas", str(two_areas),
                   "--raster", str(study / "snapshot_settlements.asc"),
                   "--aux", str(study / "snapshot_env.asc"),
                   "--out", str(tmp_path / "w")])
        assert rc == 0
        params = json.loads((tmp_path / "w" / "params.json").read_text())
        assert params["s"] == 2.0 and params["k"] == 5
        assert params["scheme"] == "idw" and params["naive"] is False

    def test_idw_k_beyond_the_site_count_costs_nothing(self, study, two_areas, tmp_path):
        """`--k 1000000` writes the weights of `--k` = the site count, and its
        traced peak does not grow with k: the walker's row buffers are
        min(k, site count) wide, never k wide."""
        n_sites = len(io.load_bts_csv(study / "snapshot_bts.csv").points)
        outs, peaks = {}, {}
        for k in (n_sites, 1_000_000):
            argv = ["weights", "--scheme", "idw", "--k", str(k),
                    "--bts", str(study / "snapshot_bts.csv"),
                    "--areas", str(two_areas),
                    "--raster", str(study / "snapshot_settlements.asc"),
                    "--aux", str(study / "snapshot_env.asc"),
                    "--out", str(tmp_path / f"k{k}")]
            rc = []
            peaks[k] = traced_peak(lambda: rc.append(main(argv)))
            assert rc == [0]
            outs[k] = (tmp_path / f"k{k}" / "weights_idw.csv").read_bytes()
        assert outs[1_000_000] == outs[n_sites]
        assert peaks[1_000_000] <= 1.1 * peaks[n_sites]

    def test_idw_exponent_too_large_fails_cleanly(self, study, two_areas, tmp_path, capsys):
        rc = main(["weights", "--scheme", "idw", "--s", "400",
                   "--bts", str(study / "snapshot_bts.csv"),
                   "--areas", str(two_areas),
                   "--raster", str(study / "snapshot_settlements.asc"),
                   "--aux", str(study / "snapshot_env.asc"),
                   "--out", str(tmp_path / "w")])
        assert rc == 1
        assert "idw exponent s=400.0 is too large" in capsys.readouterr().err

    def test_bsa_ignores_the_idw_exponent(self, study, two_areas, tmp_path):
        outs = {}
        for name, extra in (("default", []), ("negative", ["--s=-1"])):
            rc = main(["weights", "--scheme", "bsa", *extra,
                       "--bts", str(study / "snapshot_bts.csv"),
                       "--areas", str(two_areas),
                       "--raster", str(study / "snapshot_settlements.asc"),
                       "--aux", str(study / "snapshot_env.asc"),
                       "--out", str(tmp_path / name)])
            assert rc == 0
            outs[name] = (tmp_path / name / "weights_bsa.csv").read_bytes()
        assert outs["negative"] == outs["default"]

    def test_bsa_without_specs_needs_naive(self, study, two_areas, tmp_path, capsys):
        pts_path = tmp_path / "points.csv"
        specs = io.load_bts_csv(study / "snapshot_bts.csv").specs
        pts_path.write_text("bts_id,x,y\n" + "".join(
            f"{s.bts_id},{io.fmt12(s.x)},{io.fmt12(s.y)}\n" for s in specs))
        args = ["weights", "--scheme", "bsa", "--bts", str(pts_path),
                "--areas", str(two_areas),
                "--raster", str(study / "snapshot_settlements.asc"),
                "--out", str(tmp_path / "w")]
        assert main(args) == 1
        assert "--naive" in capsys.readouterr().err
        assert main(args + ["--naive"]) == 0
        params = json.loads((tmp_path / "w" / "params.json").read_text())
        assert params["naive"] is True

    def test_malformed_areas_file_fails_cleanly(self, study, tmp_path, capsys):
        bad = tmp_path / "bad.geojson"
        bad.write_text('{"type": "FeatureCollection", "features": [1]}', encoding="utf-8")
        rc = main(["weights", "--scheme", "voronoi",
                   "--bts", str(study / "snapshot_bts.csv"),
                   "--areas", str(bad),
                   "--raster", str(study / "snapshot_settlements.asc"),
                   "--out", str(tmp_path / "w")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err and "feature 0" in err

    @pytest.mark.parametrize("command", [["weights", "--scheme", "voronoi"],
                                         ["weights", "--scheme", "idw"], ["coverage"]])
    def test_overlapping_areas_name_the_geojson(self, study, two_areas, tmp_path, capsys,
                                                command):
        fc = json.loads(two_areas.read_text())
        fc["features"][0]["geometry"]["coordinates"][0][1][0] = 3000  # W reaches into E
        bad = tmp_path / "overlap.geojson"
        bad.write_text(json.dumps(fc), encoding="utf-8")
        rc = main(command + ["--bts", str(study / "snapshot_bts.csv"),
                             "--areas", str(bad),
                             "--raster", str(study / "snapshot_settlements.asc"),
                             "--out", str(tmp_path / "w")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: areas 'W' and 'E' overlap at pixel (")

    def test_header_only_bts_file_fails_cleanly(self, study, two_areas, tmp_path, capsys):
        empty = tmp_path / "empty_bts.csv"
        empty.write_text("bts_id,x,y,height_m,freq_mhz,power_dbm\n")
        rc = main(["weights", "--scheme", "idw", "--bts", str(empty),
                   "--areas", str(two_areas),
                   "--raster", str(study / "snapshot_settlements.asc"),
                   "--aux", str(study / "snapshot_env.asc"),
                   "--out", str(tmp_path / "w")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(empty) in err and "no BTS rows" in err

    def test_aug_voronoi_no_coverage_counts_empty_areas(self, tmp_path):
        # north half has no settlements -> its area gets no coverage
        from covmap.geo import Grid, SettlementRaster
        grid = Grid(ncols=6, nrows=6, cell_size_m=100.0)
        counts = np.zeros((6, 6))
        counts[4, 1] = 3
        counts[5, 5] = 2
        io.save_raster(tmp_path / "r.asc", SettlementRaster(grid, counts))
        fc = {"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {"area_id": "N"},
             "geometry": {"type": "Polygon", "coordinates":
                          [[[0, 300], [600, 300], [600, 600], [0, 600], [0, 300]]]}},
            {"type": "Feature", "properties": {"area_id": "S"},
             "geometry": {"type": "Polygon", "coordinates":
                          [[[0, 0], [600, 0], [600, 300], [0, 300], [0, 0]]]}},
        ]}
        (tmp_path / "a.geojson").write_text(json.dumps(fc), encoding="utf-8")
        (tmp_path / "b.csv").write_text("bts_id,x,y\nb1,150,150\nb2,450,450\n")
        rc = main(["weights", "--scheme", "aug-voronoi",
                   "--bts", str(tmp_path / "b.csv"),
                   "--areas", str(tmp_path / "a.geojson"),
                   "--raster", str(tmp_path / "r.asc"),
                   "--out", str(tmp_path / "w")])
        assert rc == 0
        summary = (tmp_path / "w" / "coverage_summary.csv").read_text()
        assert summary == "areas_covered,areas_no_coverage\n1,1\n"


class TestStreaming:
    """The bsa/idw settlement pass and the coverage grid pass walk the
    grid in `_TILE`-pixel tiles and send `rss_field` at most
    `_RSS_ENTRIES` links at a time; small tiles and caps must change no
    output byte."""

    ENTRIES = 100  # below most tiles of 49 pixels x their reaching sites
    TILE = 7  # does not divide the 50-pixel grid

    def _run_all(self, study, two_areas, out, calls) -> tuple[dict, dict]:
        inputs = ["--bts", str(study / "snapshot_bts.csv"),
                  "--raster", str(study / "snapshot_settlements.asc"),
                  "--aux", str(study / "snapshot_env.asc")]
        offered = {}
        for scheme in ("bsa", "idw"):
            calls.clear()
            assert main(["weights", "--scheme", scheme, "--areas", str(two_areas), *inputs,
                         "--out", str(out / scheme)]) == 0
            offered[scheme] = list(calls)
        calls.clear()
        assert main(["coverage", *inputs, "--out", str(out / "coverage")]) == 0
        offered["coverage"] = list(calls)
        return tree_bytes(out), offered

    def test_small_chunks_match_unchunked_output(self, study, two_areas, tmp_path, monkeypatch):
        calls = []  # (pixel ids, site count) of every rss_field call
        kernel = simulation.rss_field

        def recording(specs, pixel_ids, *args, **kwargs):
            calls.append((np.asarray(pixel_ids), len(specs)))
            return kernel(specs, pixel_ids, *args, **kwargs)

        monkeypatch.setattr(simulation, "rss_field", recording)
        whole, offered = self._run_all(study, two_areas, tmp_path / "whole", calls)
        settlements = extract_settlements(io.load_raster(study / "snapshot_settlements.asc"))
        grid = settlements.grid
        # one call per pass: the default tile and cap hold every pixel here
        for scheme in ("bsa", "idw"):
            [(pixels, _)] = offered[scheme]
            assert np.array_equal(pixels, settlements.ids)
        assert [p.size for p, _ in offered["coverage"]] == [grid.npixels]

        monkeypatch.setattr(simulation, "_RSS_ENTRIES", self.ENTRIES)
        monkeypatch.setattr(simulation, "_TILE", self.TILE)
        chunked, offered = self._run_all(study, two_areas, tmp_path / "chunked", calls)
        assert chunked == whole
        for scheme in ("bsa", "idw"):
            assert len(offered[scheme]) > 1
            assert all(p.size * m <= self.ENTRIES for p, m in offered[scheme])
            # tiles are not visited in pixel-id order; each settlement comes once
            pixels = np.sort(np.concatenate([p for p, _ in offered[scheme]]))
            assert np.array_equal(pixels, settlements.ids)
        tiles = offered["coverage"]
        assert len(tiles) > 1 and all(p.size * m <= self.ENTRIES for p, m in tiles)
        assert max(p.size for p, _ in tiles) <= self.TILE ** 2
        pixels = np.concatenate([p for p, _ in tiles])
        assert np.unique(pixels).size == pixels.size  # no pixel offered twice


class TestAggregate:
    def write_fixture(self, tmp_path):
        (tmp_path / "w.csv").write_text(
            "area_id,bts_id,weight\nA,b1,0.4\nA,b2,0.3\nA,b3,0.3\n")
        (tmp_path / "c.csv").write_text(
            "bts_id,rate\nb1,0\nb2,1\nb3,100\n")

    def test_mean_vs_median_hand_values(self, tmp_path):
        self.write_fixture(tmp_path)
        for stat, want in (("mean", 0.4 * 0 + 0.3 * 1 + 0.3 * 100), ("median", 1.0)):
            rc = main(["aggregate", "--weights", str(tmp_path / "w.csv"),
                       "--covariates", str(tmp_path / "c.csv"),
                       "--stat", stat, "--out", str(tmp_path / f"{stat}.csv")])
            assert rc == 0
            body = (tmp_path / f"{stat}.csv").read_text().strip().split("\n")
            assert body[0] == "area_id,rate"
            aid, value = body[1].split(",")
            assert aid == "A" and float(value) == pytest.approx(want)

    @pytest.mark.parametrize("name, text, want", [
        ("w.csv", "area_id,bts_id,weight\nA,b1,0.4\nA,b2,0.3\nA,b3,inf\n",
         "line 4: weight 'inf' must be finite and positive"),
        ("c.csv", "bts_id,rate\nb1,0\nb2,-inf\nb3,100\n",
         "line 3: non-finite rate value '-inf'"),
    ])
    def test_non_finite_input_names_file_and_line(self, tmp_path, capsys, name, text, want):
        self.write_fixture(tmp_path)
        (tmp_path / name).write_text(text)
        rc = main(["aggregate", "--weights", str(tmp_path / "w.csv"),
                   "--covariates", str(tmp_path / "c.csv"),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert f"{tmp_path / name}: {want}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_unknown_bts_named(self, tmp_path, capsys):
        (tmp_path / "w.csv").write_text("area_id,bts_id,weight\nA,ghost,1\n")
        (tmp_path / "c.csv").write_text("bts_id,rate\nb1,0.5\n")
        rc = main(["aggregate", "--weights", str(tmp_path / "w.csv"),
                   "--covariates", str(tmp_path / "c.csv"),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "ghost" in capsys.readouterr().err

    def test_area_universe_adds_missing_cells(self, tmp_path, two_areas):
        (tmp_path / "w.csv").write_text("area_id,bts_id,weight\nE,b1,1\n")
        (tmp_path / "c.csv").write_text("bts_id,rate\nb1,0.25\n")
        rc = main(["aggregate", "--weights", str(tmp_path / "w.csv"),
                   "--covariates", str(tmp_path / "c.csv"),
                   "--areas", str(two_areas), "--out", str(tmp_path / "o.csv")])
        assert rc == 0
        assert (tmp_path / "o.csv").read_text() == "area_id,rate\nE,0.25\nW,\n"

    def test_cross_file_errors_name_both_files(self, tmp_path, two_areas, capsys):
        w, c = tmp_path / "w.csv", tmp_path / "c.csv"
        w.write_text("area_id,bts_id,weight\nE,b1,0.5\nE,ghost,0.5\n")
        c.write_text("bts_id,rate\nb1,0.25\n")
        argv = ["aggregate", "--weights", str(w), "--covariates", str(c),
                "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {c} with {w}: covariate 'rate' missing for BTS 'ghost' "
            "(needed by area 'E')\n")
        w.write_text("area_id,bts_id,weight\nA,b1,1\nE,b1,1\n")
        assert main(argv + ["--areas", str(two_areas)]) == 1
        assert capsys.readouterr().err == (
            f"error: {w}: weights reference area ids ['A'] missing from {two_areas}\n")
        assert not (tmp_path / "o.csv").exists()

    def test_constant_covariate_identity(self, tmp_path):
        self.write_fixture(tmp_path)
        (tmp_path / "c.csv").write_text("bts_id,rate\nb1,0.7\nb2,0.7\nb3,0.7\n")
        rc = main(["aggregate", "--weights", str(tmp_path / "w.csv"),
                   "--covariates", str(tmp_path / "c.csv"),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 0
        assert (tmp_path / "o.csv").read_text() == "area_id,rate\nA,0.7\n"


class TestReport:
    def test_regeneration_byte_identical(self, study, tmp_path):
        for out in ("r1", "r2"):
            rc = main(["report", "--study", str(study), "--out", str(tmp_path / out)])
            assert rc == 0
        assert tree_bytes(tmp_path / "r1") == tree_bytes(tmp_path / "r2")

    def test_tally_recount_matches_simulate(self, study, tmp_path):
        rc = main(["report", "--study", str(study), "--out", str(tmp_path / "r")])
        assert rc == 0
        assert (tmp_path / "r" / "tally.csv").read_bytes() == (
            study / "tally.csv"
        ).read_bytes()

    def test_boxplots_match_simulate(self, study, tmp_path):
        rc = main(["report", "--study", str(study), "--out", str(tmp_path / "r")])
        assert rc == 0
        for name in ("boxplot_rho.svg", "boxplot_bias.svg", "boxplot_rmse.svg"):
            assert (tmp_path / "r" / name).read_bytes() == (study / name).read_bytes()

    def test_tables_present(self, study, tmp_path):
        rc = main(["report", "--study", str(study), "--out", str(tmp_path / "r")])
        assert rc == 0
        tally = (tmp_path / "r" / "tally_table.txt").read_text()
        assert tally.startswith("scheme")
        assert "aug_voronoi" in tally
        overlap = (tmp_path / "r" / "overlap_table.txt").read_text()
        assert "Geographic overlap" in overlap and "Settlement overlap" in overlap
        corr = (tmp_path / "r" / "correlation_table.txt").read_text()
        assert "rho_urban" in corr and "benchmark" in corr

    def test_non_finite_value_names_line(self, study, tmp_path, capsys):
        lines = (study / "rounds.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",inf"
        (tmp_path / "rounds.csv").write_text("\n".join(lines) + "\n")
        rc = main(["report", "--study", str(tmp_path), "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'rounds.csv'}: line 4: non-finite value 'inf'" in err
        assert not (tmp_path / "r").exists()

    def test_missing_rounds_csv(self, tmp_path, capsys):
        rc = main(["report", "--study", str(tmp_path), "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "rounds.csv" in capsys.readouterr().err


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestGoldenDigests:
    """Output bytes pinned by sha256; a refactor that claims to keep every
    byte must pass these unchanged, and a change that moves a digest must
    say why."""

    STUDY = {
        "rounds.csv": "a61065f279acdfb3dde3793312ecf34b60aa2b807bb988f8cc62cbbbef2dd069",
        "tally.csv": "b74389ed3d726942d6359c06cc3aa6aefcfd8d91c53153c2d174c71a9b28f51e",
    }
    DESK = {
        "rounds.csv": "486505272e5658ba6a056f9d2d2e10c0d41f6ac3bd30d96d3fb696ff38ace7ac",
        "tally.csv": "b2a6ab4e45a051b3e101d74b7365953bb2d5d64eb88dcd4750296dbedd95e06e",
    }
    WEIGHTS = {
        "voronoi": "6be69ce36587d10377030b4b8093f3aa005bc66a03b663b264bf52a5bf646418",
        "aug-voronoi": "b9130c43f4ffa8b6585187d41c14300dd2cc3b4c5be7f1ef6712f4b3a64bb7a9",
        "bsa": "3efd3b8d9bd2029f675fec77b737cddfa62ff97fb83e4717a780b7283c67d129",
        "idw": "347b1feb241062300682cb5998311567fe7f1d23feca62b7e75d7ef783f42036",
    }

    def test_study(self, study):
        assert {n: sha256_of(study / n) for n in self.STUDY} == self.STUDY

    def test_two_round_desk_study(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        io.save_config(cfg_path, SimConfig.desk(rounds=2, seed=0))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        assert {n: sha256_of(tmp_path / "o" / n) for n in self.DESK} == self.DESK

    @pytest.mark.parametrize("scheme", sorted(WEIGHTS))
    def test_weights(self, scheme, study, two_areas, tmp_path):
        rc = main(["weights", "--scheme", scheme,
                   "--bts", str(study / "snapshot_bts.csv"),
                   "--areas", str(two_areas),
                   "--raster", str(study / "snapshot_settlements.asc"),
                   "--aux", str(study / "snapshot_env.asc"),
                   "--out", str(tmp_path / "w")])
        assert rc == 0
        key = scheme.replace("-", "_")
        assert sha256_of(tmp_path / "w" / f"weights_{key}.csv") == self.WEIGHTS[scheme]


def test_output_bytes_do_not_depend_on_simd_dispatch(study, two_areas, tmp_path):
    """The two-round desk study and the idw weights, rerun in a fresh
    interpreter with every numpy dispatch target this host has switched
    off, write the bytes `TestGoldenDigests` pins."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not targets:
        pytest.skip("numpy dispatches to no target beyond its baseline on this host")
    cfg_path = tmp_path / "cfg.json"
    io.save_config(cfg_path, SimConfig.desk(rounds=2, seed=0))
    runs = [["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")],
            ["weights", "--scheme", "idw", "--bts", str(study / "snapshot_bts.csv"),
             "--areas", str(two_areas), "--raster", str(study / "snapshot_settlements.asc"),
             "--aux", str(study / "snapshot_env.asc"), "--out", str(tmp_path / "w")]]
    done = _run_python(
        "from numpy._core import _multiarray_umath as umath\n"
        "from covmap.cli import main\n"
        f"assert not any(umath.__cpu_features__[t] for t in {targets!r})\n"
        f"assert all(main(argv) == 0 for argv in {runs!r})\n",
        NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    assert done.returncode == 0, done.stderr
    golden = TestGoldenDigests
    assert {n: sha256_of(tmp_path / "o" / n) for n in golden.DESK} == golden.DESK
    assert sha256_of(tmp_path / "w" / "weights_idw.csv") == golden.WEIGHTS["idw"]


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["weights", "--scheme", "magic", "--bts", "b", "--areas", "a",
                  "--raster", "r", "--out", "o"])
        assert exc.value.code != 0

    def test_help_documents_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["weights", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "default 2" in text and "default 5" in text and "dBm" in text

    @pytest.mark.parametrize("argv", [
        ["coverage", "--threshold", "nan"],
        ["coverage", "--threshold=-inf"],
        ["coverage", "--rx-height", "nan"],
        ["coverage", "--rx-height", "inf"],
        ["weights", "--scheme", "idw", "--areas", "a", "--threshold", "nan"],
        ["weights", "--scheme", "idw", "--areas", "a", "--s", "inf"],
        ["weights", "--scheme", "idw", "--areas", "a", "--s", "nan"],
    ])
    def test_non_finite_values_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--bts", "b", "--raster", "r", "--out", "o"])
        assert exc.value.code == 2
        assert "must be a finite number" in capsys.readouterr().err

    def test_negative_seed_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--config", "c", "--seed", "-1", "--out", "o"])


# --- input fuzz -----------------------------------------------------------------

_BEYOND_FLOAT64 = b"1" + b"0" * 400  # an integer in JSON, inf in the CSV and grid files
_FUZZ_WORDS = [b"", b"nan", b"inf", b"-1", b"0", b"1e200", b"-1e200", b"x", b'"', b"1_000",
               b"\xff", _BEYOND_FLOAT64]
_TOKEN = re.compile(rb'[^\s,\[\]{}:"]+')
_FUZZ_FILES = ("raster.asc", "bts.csv", "areas.geojson", "env.asc", "covariates.csv",
               "weights.csv")


def _fuzz_runs(paths, base) -> list[tuple[set[str], list[str]]]:
    """Every command the fuzz runs, each with the input files it reads:
    the five weight schemes, bsa and idw on an --aux grid, coverage with
    its environment painted from --areas or read from --aux, and
    aggregate."""
    p = {name: str(path) for name, path in paths.items()}
    out = base / "out"
    world, areas, aux = (["--bts", p["bts.csv"], "--raster", p["raster.asc"]],
                         ["--areas", p["areas.geojson"]], ["--aux", p["env.asc"]])
    runs = [({"raster.asc", "bts.csv", "areas.geojson"},
             ["weights", "--scheme", scheme, *world, *areas, "--out", str(out)])
            for scheme in ("p2p", "voronoi", "aug-voronoi", "bsa", "idw")]
    runs += [({"raster.asc", "bts.csv", "areas.geojson", "env.asc"},
              ["weights", "--scheme", scheme, *world, *areas, *aux, "--out", str(out)])
             for scheme in ("bsa", "idw")]
    runs += [({"raster.asc", "bts.csv", "areas.geojson"}, ["coverage", *world, *areas,
                                                           "--out", str(out)]),
             ({"raster.asc", "bts.csv", "env.asc"}, ["coverage", *world, *aux, "--out", str(out)]),
             ({"weights.csv", "covariates.csv", "areas.geojson"},
              ["aggregate", "--weights", p["weights.csv"], "--covariates", p["covariates.csv"],
               *areas, "--out", str(base / "aggregate.csv")])]
    return runs


@pytest.fixture(scope="module")
def fuzz_inputs(study, two_areas, tmp_path_factory):
    """A directory whose `orig/` holds the tiny study world's CLI inputs,
    and where each case writes its mutants."""
    base = tmp_path_factory.mktemp("fuzz")
    rc = main(["weights", "--scheme", "voronoi", "--bts", str(study / "snapshot_bts.csv"),
               "--areas", str(two_areas), "--raster", str(study / "snapshot_settlements.asc"),
               "--out", str(base / "w")])
    assert rc == 0
    (base / "orig").mkdir()
    for name, src in (("raster.asc", study / "snapshot_settlements.asc"),
                      ("bts.csv", study / "snapshot_bts.csv"),
                      ("areas.geojson", two_areas),
                      ("env.asc", study / "snapshot_env.asc"),
                      ("covariates.csv", study / "snapshot_covariates.csv"),
                      ("weights.csv", base / "w" / "weights_voronoi.csv")):
        (base / "orig" / name).write_bytes(Path(src).read_bytes())
    return base


class TestInputFuzz:
    """One token of one input file replaced by an awkward word: every
    command that reads the file returns 0, or returns 1 with an error that
    names the file.  No exception escapes and no RuntimeWarning is raised;
    covmap's own UserWarnings (a BTS outside every area) are allowed."""

    @given(name=st.sampled_from(_FUZZ_FILES),
           at=st.integers(0, 15) | st.integers(0, 2**32), word=st.sampled_from(_FUZZ_WORDS))
    @example(name="bts.csv", at=9, word=b"1e200")  # the first mast's height_m
    @example(name="bts.csv", at=7, word=b"1e200")  # the first mast's x
    @example(name="covariates.csv", at=1, word=b'"')  # a quote opening at the column name
    @example(name="covariates.csv", at=3, word=b"\xff")
    @example(name="areas.geojson", at=14, word=b"1e200")  # a vertex beyond the bound
    @example(name="areas.geojson", at=14, word=_BEYOND_FLOAT64)
    @example(name="env.asc", at=12, word=b"1e200")  # the first environment code
    @settings(max_examples=100, deadline=None)
    def test_one_token_replaced(self, fuzz_inputs, name, at, word):
        base = fuzz_inputs
        paths = {}
        for orig in (base / "orig").iterdir():
            paths[orig.name] = base / orig.name
            data = orig.read_bytes()
            if orig.name == name:
                tokens = list(_TOKEN.finditer(data))
                hit = tokens[at % len(tokens)]
                data = data[:hit.start()] + word + data[hit.end():]
            paths[orig.name].write_bytes(data)
        runs = [argv for reads, argv in _fuzz_runs(paths, base) if name in reads]
        for argv in runs:
            err = StringIO()
            with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
                    redirect_stdout(StringIO()):
                warnings.simplefilter("always")
                rc = main(argv)
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
            assert rc == 0 or (rc == 1 and err.getvalue().startswith("error: ")
                               and str(paths[name]) in err.getvalue()), (argv, err.getvalue())

    # tokens of the tiny config as `io.save_config` writes it, keys sorted:
    # 3 is cell_size_m, 5 dead_threshold_dbm, 16 idw_s, 60 urban_sigma_m
    @given(at=st.integers(0, 70) | st.integers(0, 2**32), word=st.sampled_from(_FUZZ_WORDS))
    @example(at=3, word=b"1e200")  # a grid beyond the coordinate bound
    @example(at=5, word=b"0")  # a network dead everywhere: covariates are missing
    @example(at=16, word=b"1e200")  # an idw exponent whose weights underflow
    @example(at=60, word=b"1e200")  # every urban draw far off the grid
    @settings(max_examples=40, deadline=None)
    def test_one_config_token_replaced(self, tmp_path_factory, at, word):
        """`covmap simulate --config` on a config with one token replaced
        returns 0, or 1 with an error that names the config file: one the
        loader refuses, or a round the config's world cannot run."""
        base = tmp_path_factory.mktemp("config-fuzz")
        path = base / "cfg.json"
        io.save_config(path, tiny_config(rounds=1))
        data = path.read_bytes()
        tokens = list(_TOKEN.finditer(data))
        hit = tokens[at % len(tokens)]
        path.write_bytes(data[:hit.start()] + word + data[hit.end():])
        err = StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
                redirect_stdout(StringIO()):
            warnings.simplefilter("always")
            rc = main(["simulate", "--config", str(path), "--out", str(base / "out")])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
        assert rc == 0 or (rc == 1 and err.getvalue().startswith(f"error: {path}: ")), \
            err.getvalue()
