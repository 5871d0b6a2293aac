"""Tests of the benchmark itself, on a tiny world so they run in seconds.

They check that tracing changes no output byte, that every wrapped
attribute is restored, that the counts later changes may cite repeat
exactly, that the output check catches bad output, and that the metric
names and units match BENCHMARK.json.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from covmap import cli, geo, io, simulation  # noqa: E402
from perfbench import run  # noqa: E402
from perfbench import workloads as W  # noqa: E402
from perfbench.tracer import PROBES, Probe, Tracer, installed  # noqa: E402
from perfbench.tracer import _bindings as _bindings_of  # noqa: E402

TINY = dataclasses.replace(
    simulation.SimConfig.desk(rounds=2, seed=3), ncols=100, nrows=100, block_px=20,
    population=10000, urban_sigma_m=700.0, rural_sigma_m=300.0, mask_rect=(56, 40, 16, 16),
    urban_pop_per_bts=500.0, rural_pop_per_bts=500.0, rural_cluster_count=4,
)
EXACT_COUNTS = ("propagation.links", "mapping.live_links", "geo.voronoi_pixels",
                "io.bytes_read", "io.bytes_written")


def _bindings() -> dict:
    out = {(name, attr): obj for name, mod in sys.modules.items()
           if name == "covmap" or name.startswith("covmap.")
           for attr, obj in vars(mod).items() if callable(obj)}
    out[("StatAreaSet", "labels")] = geo.StatAreaSet.__dict__["labels"]
    return out


def _traced_call(workload, tmp_path, tag):
    inputs = tmp_path / f"in-{tag}"
    settlements = W.build_inputs(workload, TINY, inputs)
    tracer = Tracer()
    with installed(tracer):
        wall, res = W.run_call(workload, TINY, inputs, tmp_path / f"out-{tag}", 1, settlements, None)
    return tracer, res


@pytest.mark.parametrize("workload", ["study-desk", "weights-idw-full"])
def test_traced_call_matches_untraced_and_restores_bindings(workload, tmp_path):
    before = _bindings()
    settlements = W.build_inputs(workload, TINY, tmp_path / "in")
    _, plain = W.run_call(workload, TINY, tmp_path / "in", tmp_path / "plain", 1, settlements, None)
    tracer, traced = _traced_call(workload, tmp_path, "t")
    assert plain.ok and traced.ok, (plain.problems, traced.problems)
    assert traced.digests == plain.digests
    assert _bindings() == before
    assert tracer.functions()["cli.cmd_" + ("simulate" if workload in W.STUDIES else "weights")]


def test_jobs_do_not_change_study_output(tmp_path):
    W.build_inputs("study-desk", TINY, tmp_path / "in")
    _, one = W.run_call("study-desk", TINY, tmp_path / "in", tmp_path / "a", 1, 0, None)
    _, two = W.run_call("study-desk", TINY, tmp_path / "in", tmp_path / "b", 2, 0, None)
    assert one.ok and two.ok and one.digests == two.digests


def test_bindings_restored_when_the_call_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with installed(Tracer()):
            assert simulation.best_server_grid is not before[("covmap.simulation", "best_server_grid")]
            assert cli.best_server_grid is simulation.best_server_grid
            raise RuntimeError("boom")
    assert _bindings() == before


def test_every_probe_names_a_covmap_function():
    for probe in PROBES:
        found = _bindings_of(probe)
        assert found and all(callable(fn) for _, _, fn in found), probe.name


def test_counts_repeat_exactly(tmp_path):
    first, _ = _traced_call("study-desk", tmp_path, "a")
    second, _ = _traced_call("study-desk", tmp_path, "b")
    for key in EXACT_COUNTS:
        assert first.counts[key] > 0, key
        assert first.counts[key] == second.counts[key], key
    weights_a, _ = _traced_call("weights-idw-full", tmp_path, "wa")
    weights_b, _ = _traced_call("weights-idw-full", tmp_path, "wb")
    assert weights_a.counts == weights_b.counts
    n_set = len(geo.extract_settlements(io.load_raster(tmp_path / "in-wa" / "settlements.asc")))
    assert weights_a.counts["propagation.rss_bytes"] == n_set * W.expected_bts(TINY) * 8


def test_self_time_subtracts_direct_children():
    t = Tracer()
    outer = Probe("cli", "cmd_weights", "cli.cmd")
    inner = Probe("mapping", "weights_idw", "mapping.weights_idw")
    leaf = Probe("mapping", "idw_rows_chunk", "mapping.idw_rows")
    t.spans = [[outer.name, outer.group, 0, 100, -1, 0, True],
               [inner.name, inner.group, 10, 40, 0, 0, True],
               [inner.name, inner.group, 50, 60, 0, 0, True],
               [leaf.name, leaf.group, 20, 30, 1, 0, True]]
    assert t.self_ns() == [60, 20, 10, 10]
    table = t.functions()
    assert table[inner.name]["calls"] == 2
    assert table[inner.name]["total_s"] == pytest.approx(40e-9)
    assert table[inner.name]["self_s"] == pytest.approx(30e-9)
    assert t.group_seconds("mapping.weights_idw") == pytest.approx(40e-9)
    assert t.group_self_seconds("cli.cmd") == pytest.approx(60e-9)


def test_weights_inputs_equal_the_round_zero_world(tmp_path):
    inputs = tmp_path / "in"
    W.build_inputs("weights-idw-full", TINY, inputs)
    world = simulation.build_world(TINY, 0)
    grid = TINY.grid
    snapshot = {
        "settlements.asc": io.ascii_grid_string(
            world.raster.counts.astype(np.float64), grid, world.raster.nodata),
        "bts.csv": io.bts_csv_string(world.specs),
        "env.asc": io.ascii_grid_string(world.env_grid.astype(np.float64), grid),
    }
    for name, text in snapshot.items():
        assert (inputs / name).read_text() == text, name
    areas = io.load_areas_geojson(inputs / "areas.geojson")
    assert areas.area_ids == world.areas.area_ids
    assert np.array_equal(areas.labels(grid), world.areas.labels(grid))


def test_check_catches_bad_rows_and_digest_drift(tmp_path):
    settlements = W.build_inputs("weights-idw-full", TINY, tmp_path / "in")
    out = tmp_path / "out"
    assert cli.main(W.cli_args("weights-idw-full", tmp_path / "in", out, 1)) == 0
    good = W.check_outputs("weights-idw-full", TINY, out, settlements, None)
    assert good.ok and good.rounds == 1 and good.settlements == settlements
    golden = {"digests": good.digests, "records": good.records}
    assert W.check_outputs("weights-idw-full", TINY, out, settlements, golden).ok
    path = out / "weights_idw.csv"
    lines = path.read_text().splitlines()
    area, bts, w = lines[1].split(",")
    lines[1] = f"{area},{bts},{float(w) + 1e-6!r}"
    path.write_text("\n".join(lines) + "\n")
    bad = W.check_outputs("weights-idw-full", TINY, out, settlements, golden)
    assert any("do not sum to 1" in p for p in bad.problems)
    assert any("manifest digest" in p for p in bad.problems)
    assert any("recorded" in p for p in bad.problems)


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = run.run_traced(W, "study-desk", TINY, None, tmp_path / "t", tmp_path / "spans.jsonl")
    timed = run.run_timed(W, "study-desk", TINY, None, 0.0, tmp_path / "u")
    for kind, record in (("per_layer", traced), ("end_to_end", timed)):
        assert {m["name"]: m["unit"] for m in spec[kind]} == {
            name: unit for name, (_, unit) in record["metrics"].items()}
        assert all(not c["problems"] for c in record["calls"])
    values = {k: v for k, (v, _) in timed["metrics"].items()}
    assert all(v > 0 for v in values.values()), values
    assert traced["metrics"]["simulation.parallel_efficiency"][0] > 0
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert spans and all(s["end_ns"] >= s["start_ns"] for s in spans)
    assert all(s["parent"] < s["id"] for s in spans)
