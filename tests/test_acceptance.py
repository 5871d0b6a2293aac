"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  The desk-scale study (criteria 2-4) and the full-scale
round (criterion 8) dominate the runtime.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from covmap import io
from covmap.cli import main
from covmap.geo import Grid, SettlementRaster, StatAreaSet, extract_settlements, voronoi_assign
from covmap.mapping import (
    CovariateTable,
    WeightMatrix,
    aggregate,
    area_weights_from_pixels,
    weights_aug_voronoi,
    weights_bsa,
    weights_idw,
    weights_p2p,
    weights_voronoi,
)
from covmap.propagation import AntennaSpec, extended_hata_db, rss_field
from covmap.simulation import SCHEMES, TALLY_METRICS, TALLY_SCHEMES, SimConfig, run_study, simulate_round

DESK_ROUNDS = 50


@pytest.fixture(scope="module")
def desk_study():
    cfg = SimConfig.desk(rounds=DESK_ROUNDS, seed=0)
    t0 = time.perf_counter()
    result = run_study(cfg, jobs=4)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def full_scale():
    cfg = SimConfig()  # 1000x1000, one round
    t0 = time.perf_counter()
    records = simulate_round(cfg, 0)
    return records, time.perf_counter() - t0


def test_criterion_1_path_loss_anchor():
    t0 = time.perf_counter()
    loss = float(extended_hata_db(900.0, 3.0, 30.0, 1.0, "rural"))
    rx = 43.0 - loss
    elapsed = time.perf_counter() - t0
    assert abs(loss - 118.0) <= 3.0
    assert abs(rx - (-75.0)) <= 3.0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (path-loss anchor): PASS — loss={loss:.2f} dB, "
          f"rx={rx:.2f} dBm, {elapsed * 1e3:.1f} ms")


def test_criterion_2_overlap_direction(desk_study):
    result, elapsed = desk_study
    assert np.all(result.values("world", "n_bts") == 38)

    geo = {s: result.values(s, "geo_overlap") for s in ("p2p", "voronoi", "hata_bsa")}
    stl = {s: result.values(s, "settlement_overlap") for s in ("p2p", "voronoi", "hata_bsa")}
    for series in (*geo.values(), *stl.values()):
        assert series.shape == (DESK_ROUNDS,) and np.all(np.isfinite(series))

    orderings = [
        ("geo hata>vor", geo["hata_bsa"], geo["voronoi"]),
        ("geo hata>p2p", geo["hata_bsa"], geo["p2p"]),
        ("stl hata>vor", stl["hata_bsa"], stl["voronoi"]),
        ("stl vor>p2p", stl["voronoi"], stl["p2p"]),
        ("stl hata>p2p", stl["hata_bsa"], stl["p2p"]),
    ]
    share = {}
    for name, a, b in orderings:
        assert a.mean() > b.mean(), name
        share[name] = float(np.mean(a > b))
        assert share[name] >= 0.8, (name, share[name])
    assert elapsed <= 600.0
    print(f"\nACCEPTANCE 2 (overlap direction): PASS — "
          f"geo means hata={geo['hata_bsa'].mean():.3f} > vor={geo['voronoi'].mean():.3f} "
          f"> p2p={geo['p2p'].mean():.3f}; "
          f"settlement hata={stl['hata_bsa'].mean():.3f} > vor={stl['voronoi'].mean():.3f} "
          f"> p2p={stl['p2p'].mean():.3f}; "
          f"min round-share={min(share.values()):.2f}; {elapsed:.0f} s on 4 jobs")


def test_criterion_3_correlation_band(desk_study):
    result, _ = desk_study
    means = {}
    for scheme in SCHEMES:
        rho = result.values(scheme, "rho")
        assert np.all(np.isfinite(rho)), scheme
        means[scheme] = float(rho.mean())
        assert 0.60 <= means[scheme] <= 0.99, (scheme, means[scheme])
    assert means["aug_voronoi"] >= means["voronoi"]
    assert np.all(result.values("benchmark", "geo_overlap") == 1.0)
    assert np.all(result.values("benchmark", "settlement_overlap") == 1.0)
    detail = ", ".join(f"{s}={means[s]:.3f}" for s in SCHEMES)
    print(f"\nACCEPTANCE 3 (correlation band): PASS — mean rho {detail}")


def test_criterion_4_tally_integrity(desk_study):
    result, _ = desk_study
    assert DESK_ROUNDS >= 20
    for metric in TALLY_METRICS:
        total = sum(result.tally[(s, metric)] for s in TALLY_SCHEMES)
        assert abs(total - 100.0) <= 0.1, (metric, total)
        top = max(result.tally[(s, metric)] for s in TALLY_SCHEMES)
        assert top < 100.0, (metric, top)
    tops = {m: max(result.tally[(s, m)] for s in TALLY_SCHEMES) for m in TALLY_METRICS}
    print(f"\nACCEPTANCE 4 (tally integrity): PASS — sums 100.0 exactly, "
          f"max wins {tops}")


def _random_instance(rng):
    ncols = int(rng.integers(8, 31))
    nrows = int(rng.integers(8, 31))
    grid = Grid(ncols=ncols, nrows=nrows, cell_size_m=100.0)
    n_bts = int(rng.integers(1, 9))
    specs = [
        AntennaSpec(
            f"b{j}",
            float(rng.uniform(0, ncols * 100.0)),
            float(rng.uniform(0, nrows * 100.0)),
            float(rng.uniform(20.0, 60.0)),
            float(rng.uniform(900.0, 2100.0)),
            float(rng.uniform(30.0, 43.0)),
        )
        for j in range(n_bts)
    ]
    n_areas = int(rng.integers(1, 5))
    cuts = np.sort(rng.choice(np.arange(1, ncols), size=n_areas - 1, replace=False))
    edges = np.concatenate([[0], cuts, [ncols]])
    pairs = []
    for a in range(n_areas):
        m = np.zeros(grid.shape, dtype=bool)
        m[:, edges[a]:edges[a + 1]] = True
        pairs.append((f"A{a}", m))
    areas = StatAreaSet.from_masks(grid, pairs)
    counts = np.zeros(grid.shape)
    n_settled = int(rng.integers(5, grid.npixels // 2))
    chosen = rng.choice(grid.npixels, size=n_settled, replace=False)
    counts.ravel()[chosen] = rng.integers(1, 6, n_settled)
    raster = SettlementRaster(grid, counts)
    env = rng.integers(0, 3, grid.npixels).astype(np.uint8).reshape(grid.shape)
    return grid, specs, areas, raster, env


def test_criterion_5_weight_matrix_properties():
    rng = np.random.default_rng(123)
    checked = {"vor": 0, "bsa": 0, "idw0": 0, "idw16": 0}
    for _ in range(200):
        grid, specs, areas, raster, env = _random_instance(rng)
        settlements = extract_settlements(raster)
        points = [(s.bts_id, s.x, s.y) for s in specs]
        assign = voronoi_assign(grid, points)
        field = rss_field(
            specs, settlements.ids, settlements.x, settlements.y,
            env[settlements.rows, settlements.cols],
        )
        wm_p2p = weights_p2p(points, areas, grid)
        wm_vor = weights_voronoi(assign, areas)
        wm_aug = weights_aug_voronoi(assign, settlements, areas)
        wm_bsa = area_weights_from_pixels(weights_bsa(field), settlements, areas)
        wm_idw = area_weights_from_pixels(weights_idw(field, s=2.0, k=5), settlements, areas)

        for wm in (wm_p2p, wm_vor, wm_aug, wm_bsa, wm_idw):
            for aid, row in wm.rows.items():
                assert abs(sum(row.values()) - 1.0) <= 1e-9, (wm.scheme, aid)

        # voronoi against a brute-force nearest-site oracle
        pid = np.arange(grid.npixels)
        r, c = grid.rowcol_of_id(pid)
        x, y = grid.centers(r, c)
        d2 = (x[:, None] - [s.x for s in specs]) ** 2 + (y[:, None] - [s.y for s in specs]) ** 2
        near = np.argmin(d2, axis=1)  # first minimum = lowest id (specs id-sorted)
        labels = areas.labels(grid).ravel()
        want_vor: dict[str, dict[str, float]] = {}
        for a, aid in enumerate(areas.area_ids):
            sel = near[labels == a]
            if sel.size == 0:
                continue
            cnt = np.bincount(sel, minlength=len(specs))
            want_vor[aid] = {
                specs[j].bts_id: cnt[j] / sel.size for j in np.nonzero(cnt)[0]
            }
        assert wm_vor.rows == want_vor
        checked["vor"] += 1

        # BSA against an argmax-RSS oracle
        rss = np.empty((len(settlements), len(specs)))
        env_at = env[settlements.rows, settlements.cols]
        for j, sp in enumerate(specs):
            d_km = np.hypot(settlements.x - sp.x, settlements.y - sp.y) / 1000.0
            rss[:, j] = sp.power_dbm - extended_hata_db(
                sp.freq_mhz, d_km, sp.height_m, 1.0, env_at
            )
        live = rss >= -110.0
        masked = np.where(live, rss, -np.inf)
        sel = np.argmax(masked, axis=1)
        sel[~live.any(axis=1)] = -1
        area_of = areas.labels(grid)[settlements.rows, settlements.cols]
        want_bsa: dict[str, dict[str, float]] = {}
        for a, aid in enumerate(areas.area_ids):
            use = (area_of == a) & (sel >= 0)
            if not use.any():
                continue
            cnt = np.bincount(sel[use], minlength=len(specs))
            want_bsa[aid] = {
                specs[j].bts_id: cnt[j] / use.sum() for j in np.nonzero(cnt)[0]
            }
        assert wm_bsa.rows == want_bsa
        checked["bsa"] += 1

        # IDW s=0 is uniform over the selected links
        pw0 = weights_idw(field, s=0.0, k=5)
        for i in range(len(settlements)):
            w_row = pw0.w[pw0.indptr[i]:pw0.indptr[i + 1]]
            if w_row.size:
                np.testing.assert_allclose(w_row, 1.0 / w_row.size, rtol=0, atol=1e-15)
                checked["idw0"] += 1

        # IDW s=16 puts its largest weight on the BSA pick when unique
        pw16 = weights_idw(field, s=16.0, k=5)
        v = np.where(live, 1.0 / np.clip(np.abs(rss), 1.0, None) ** 16, -np.inf)
        for i in range(len(settlements)):
            lo, hi = pw16.indptr[i], pw16.indptr[i + 1]
            if hi == lo:
                continue
            vmax = v[i].max()
            if np.sum(v[i] == vmax) != 1:
                continue
            top = pw16.col[lo:hi][np.argmax(pw16.w[lo:hi])]
            assert top == sel[i]
            checked["idw16"] += 1
    assert min(checked.values()) > 0
    print(f"\nACCEPTANCE 5 (weight-matrix properties): PASS — 200 instances, "
          f"checks {checked}")


def test_criterion_6_aggregation_properties():
    rng = np.random.default_rng(7)
    n_scalar = 0
    for _ in range(200):
        n_bts = int(rng.integers(1, 9))
        n_areas = int(rng.integers(1, 5))
        bts_ids = [f"b{j}" for j in range(n_bts)]
        area_ids = [f"A{j}" for j in range(n_areas)]
        rows: dict[str, dict[str, float]] = {}
        for aid in area_ids:
            if rng.random() < 0.2:
                continue
            m = int(rng.integers(1, n_bts + 1))
            chosen = sorted(rng.choice(n_bts, size=m, replace=False).tolist())
            w = rng.random(m) + 0.01
            w = w / w.sum()
            rows[aid] = {bts_ids[j]: float(v) for j, v in zip(chosen, w)}
        if not rows:
            rows[area_ids[0]] = {bts_ids[0]: 1.0}
        wm = WeightMatrix("test", area_ids, rows)
        values = rng.normal(0.0, 10.0, n_bts)
        table = CovariateTable(bts_ids, {"v": values, "const": np.full(n_bts, 3.25)})

        for stat in ("mean", "median"):
            est = aggregate(wm, table, "v", stat)
            cst = aggregate(wm, table, "const", stat)
            for aid in area_ids:
                if aid not in rows:
                    assert est[aid] is None and cst[aid] is None
                    continue
                involved = [values[bts_ids.index(b)] for b in rows[aid]]
                assert min(involved) - 1e-12 <= est[aid] <= max(involved) + 1e-12
                assert abs(cst[aid] - 3.25) <= 1e-12

        est = aggregate(wm, table, "v", "mean")
        for aid, row in rows.items():
            scalar = 0.0
            for b, w in row.items():
                scalar += w * values[bts_ids.index(b)]
            assert abs(est[aid] - scalar) <= 1e-12
            n_scalar += 1
    assert n_scalar > 0
    print(f"\nACCEPTANCE 6 (aggregation properties): PASS — 200 instances, "
          f"{n_scalar} scalar-loop comparisons")


def test_criterion_7_cli_determinism(tmp_path):
    cfg = SimConfig(
        ncols=50, nrows=50, cell_size_m=100.0, population=2000,
        block_px=25, urban_split=4, urban_sigma_m=700.0,
        rural_cluster_count=2, rural_sigma_m=1500.0,
        mask_rect=(30, 5, 8, 8), urban_pop_per_bts=250.0,
        rural_pop_per_bts=500.0, rounds=4, seed=11,
    )
    cfg_path = tmp_path / "cfg.json"
    io.save_config(cfg_path, cfg)
    trees = {}
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
        rc = main(["simulate", "--config", str(cfg_path),
                   "--out", str(tmp_path / name), "--jobs", jobs])
        assert rc == 0
        root = tmp_path / name
        trees[name] = {
            p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()
        }
    assert trees["a"] == trees["b"]
    assert trees["a"] == trees["c"]
    print(f"\nACCEPTANCE 7 (CLI determinism): PASS — {len(trees['a'])} files "
          f"byte-identical across reruns and --jobs 1 vs 4")


def test_criterion_8_full_scale_uncovered(full_scale):
    records, elapsed = full_scale
    by = {(r[1], r[2]): r[4] for r in records if r[3] == "total"}
    n_bts = int(by[("world", "n_bts")])
    uncovered = by[("world", "uncovered_settlement_fraction")]
    assert n_bts == 150
    assert uncovered < 0.01
    assert elapsed <= 300.0
    print(f"\nACCEPTANCE 8 (full-scale uncovered): PASS — {n_bts} BTS, "
          f"uncovered={uncovered:.5f}, {elapsed:.0f} s")


def test_criterion_9_io_round_trips(tmp_path):
    # raster
    asc = ("ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 100\n"
           "NODATA_value -9999\n1 0 -9999\n0 4 2\n")
    p = tmp_path / "r.asc"
    p.write_text(asc, encoding="utf-8")
    raster = io.load_raster(p)
    io.save_raster(tmp_path / "r2.asc", raster)
    assert (tmp_path / "r2.asc").read_text(encoding="utf-8") == asc

    # weight matrix
    wcsv = "area_id,bts_id,weight\nA,b1,0.75\nA,b2,0.25\nB,b2,1\n"
    wp = tmp_path / "w.csv"
    wp.write_text(wcsv, encoding="utf-8")
    wm = io.load_weights_csv(wp)
    assert io.weights_csv_string(wm) == wcsv

    # config
    cfg = SimConfig.desk()
    io.save_config(tmp_path / "c.json", cfg)
    again = io.load_config(tmp_path / "c.json")
    assert again == cfg
    io.save_config(tmp_path / "c2.json", again)
    assert (tmp_path / "c.json").read_bytes() == (tmp_path / "c2.json").read_bytes()
    print("\nACCEPTANCE 9 (I/O round-trips): PASS — raster, weights, config byte-exact")
