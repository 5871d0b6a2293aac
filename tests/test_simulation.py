import sys

import numpy as np
import pytest

from covmap import geo, propagation
from covmap.geo import Assignment, Grid, SettlementRaster, extract_settlements
from covmap.mapping import WeightMatrix, weights_bsa, weights_idw
from covmap.propagation import (
    AntennaSpec,
    RssField,
    env_code,
    extended_hata_db,
    rss_field,
)
from covmap.simulation import (
    SCHEMES,
    TALLY_METRICS,
    TALLY_SCHEMES,
    SimConfig,
    _p2p_credit,
    area_membership_overlap,
    assign_poverty,
    best_server_grid,
    build_areas,
    build_world,
    classify_env_by_cluster_size,
    compute_tally,
    gen_population,
    geographic_overlap,
    nearest_site_env,
    place_bts,
    prediction_metrics,
    run_study,
    settlement_overlap,
    settlement_pixel_weights,
    simulate_round,
    uninhabited_mask,
    urban_block_mask,
)


def tiny_config(**over):
    base = dict(
        ncols=50, nrows=50, cell_size_m=100.0, population=2000,
        block_px=25, urban_split=4, urban_sigma_m=700.0,
        rural_cluster_count=2, rural_sigma_m=1500.0,
        mask_rect=(30, 5, 8, 8), urban_pop_per_bts=250.0,
        rural_pop_per_bts=500.0, rounds=2, seed=7,
    )
    base.update(over)
    return SimConfig(**base)


class TestSimConfig:
    def test_grid_must_tile(self):
        with pytest.raises(ValueError, match="tile evenly"):
            tiny_config(block_px=23)

    def test_share_range(self):
        with pytest.raises(ValueError, match="urban_share"):
            tiny_config(urban_share=1.5)

    def test_mask_inside_grid(self):
        with pytest.raises(ValueError, match="mask_rect"):
            tiny_config(mask_rect=(45, 45, 10, 10))

    def test_rounds_positive(self):
        with pytest.raises(ValueError, match="rounds"):
            tiny_config(rounds=0)

    def test_desk_shape(self):
        cfg = SimConfig.desk()
        assert (cfg.ncols, cfg.nrows, cfg.population) == (250, 250, 60_000)
        assert cfg.grid.npixels == 62_500


class TestLayout:
    def test_mask_rect_position(self):
        m = uninhabited_mask(tiny_config())
        assert m.sum() == 64
        assert m[5, 30] and m[12, 37]
        assert not m[4, 30] and not m[13, 30] and not m[5, 29]

    def test_urban_block_lower_left(self):
        u = urban_block_mask(tiny_config())
        assert u[49, 0] and u[25, 24]
        assert not u[24, 0] and not u[49, 25]

    def test_areas_tile_grid(self):
        cfg = tiny_config()
        areas, classes = build_areas(cfg)
        assert len(areas) == 16 + 3
        labels = areas.labels(cfg.grid)
        assert np.all(labels >= 0)  # full tiling, no gaps
        sizes = np.bincount(labels.ravel(), minlength=len(areas))
        assert sizes.sum() == cfg.grid.npixels

    def test_urban_subdivision_sizes(self):
        cfg = tiny_config()
        areas, classes = build_areas(cfg)
        km2 = areas.area_km2(cfg.grid)
        # 25 px split 4 ways -> edges of 7,6,6,6 cells of 100 m
        assert km2["U0_0"] == pytest.approx(0.49)
        assert km2["U0_1"] == pytest.approx(0.42)
        assert km2["U3_3"] == pytest.approx(0.36)
        assert km2["R0_1"] == pytest.approx(6.25)

    def test_layout_classes(self):
        _, classes = build_areas(tiny_config())
        assert classes["U2_1"] == "urban"
        assert classes["R0_0"] == "rural"
        assert "R1_1" in classes and "R1_0" not in classes  # lower-left block is the city


class TestGenPopulation:
    def test_total_and_mask(self):
        cfg = tiny_config()
        raster = gen_population(cfg, np.random.default_rng(1))
        assert raster.counts[~raster.nodata].sum() == cfg.population
        assert raster.counts[uninhabited_mask(cfg)].sum() == 0

    def test_deterministic(self):
        cfg = tiny_config()
        a = gen_population(cfg, np.random.default_rng(5))
        b = gen_population(cfg, np.random.default_rng(5))
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_urban_block_holds_most_urban_draws(self):
        cfg = tiny_config()
        raster = gen_population(cfg, np.random.default_rng(2))
        share = raster.counts[urban_block_mask(cfg)].sum() / cfg.population
        assert 0.3 < share < 0.7


class TestAssignPoverty:
    def test_range_and_alignment(self):
        cfg = tiny_config()
        raster = gen_population(cfg, np.random.default_rng(1))
        rates = assign_poverty(raster, cfg, np.random.default_rng(2))
        assert rates.shape == (len(extract_settlements(raster)),)
        assert np.all((rates >= 0) & (rates <= 1))

    def test_densest_block_rate_zero_without_noise(self):
        # mu = U(0,1) * (1 - density/max) vanishes at the max-density block
        cfg = tiny_config(poverty_sigma=0.0)
        raster = gen_population(cfg, np.random.default_rng(3))
        rates = assign_poverty(raster, cfg, np.random.default_rng(4))
        s = extract_settlements(raster)
        b = cfg.poverty_block_px
        nbc = -(-cfg.ncols // b)
        rr, cc = np.divmod(np.arange(cfg.nrows * cfg.ncols), cfg.ncols)
        blk = (rr // b) * nbc + (cc // b)
        densest = np.argmax(
            np.bincount(blk, weights=raster.counts.ravel()) / np.bincount(blk)
        )
        sblk = (s.rows // b) * nbc + (s.cols // b)
        assert np.any(sblk == densest)
        assert np.all(rates[sblk == densest] == 0.0)

    def test_deterministic(self):
        cfg = tiny_config()
        raster = gen_population(cfg, np.random.default_rng(1))
        a = assign_poverty(raster, cfg, np.random.default_rng(9))
        b = assign_poverty(raster, cfg, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


class TestClassifyEnv:
    def test_hand_case(self):
        assert classify_env_by_cluster_size([5, 1, 9, 7], 0.5, 0.05) == [
            "urban", "urban", "rural", "suburban",
        ]

    def test_ties_break_on_index(self):
        assert classify_env_by_cluster_size([3, 3, 3], 0.5, 0.05) == [
            "urban", "suburban", "rural",
        ]

    def test_150_site_split(self):
        sizes = np.arange(150) + 1
        env = classify_env_by_cluster_size(sizes, 0.5, 0.05)
        assert env.count("urban") == 75
        assert env.count("rural") == 8
        assert env.count("suburban") == 67


class TestPlaceBts:
    def test_counts_and_bands(self):
        cfg = tiny_config()
        raster = gen_population(cfg, np.random.default_rng(1))
        specs, env = place_bts(raster, cfg, np.random.default_rng(2))
        assert len(specs) == 6  # 1000/250 urban + 1000/500 rural
        freqs = np.array([s.freq_mhz for s in specs])
        assert np.sum(freqs == cfg.urban_freq_mhz) == 4
        assert np.sum(freqs == cfg.rural_freq_mhz) == 2
        for s in specs:
            lo, hi = cfg.height_range_m
            if s.freq_mhz == cfg.rural_freq_mhz:
                lo = 0.5 * (lo + hi)
            assert lo <= s.height_m <= hi
            assert cfg.power_range_dbm[0] <= s.power_dbm <= cfg.power_range_dbm[1]

    def test_sites_on_settlement_pixels(self):
        cfg = tiny_config()
        raster = gen_population(cfg, np.random.default_rng(1))
        specs, _ = place_bts(raster, cfg, np.random.default_rng(2))
        s = extract_settlements(raster)
        centers = set(zip(s.x.tolist(), s.y.tolist()))
        pos = {(sp.x, sp.y) for sp in specs}
        assert pos <= centers
        assert len(pos) == len(specs)  # collision-free snapping

    def test_ids_sorted_and_padded(self):
        cfg = tiny_config()
        raster = gen_population(cfg, np.random.default_rng(1))
        specs, _ = place_bts(raster, cfg, np.random.default_rng(2))
        ids = [s.bts_id for s in specs]
        assert ids == sorted(ids)
        assert ids[0] == "bts_000"

    def test_env_matches_cluster_size_oracle(self):
        cfg = tiny_config()
        raster = gen_population(cfg, np.random.default_rng(1))
        specs, env = place_bts(raster, cfg, np.random.default_rng(2))
        s = extract_settlements(raster)
        d2 = (s.x[:, None] - [sp.x for sp in specs]) ** 2 + (
            s.y[:, None] - [sp.y for sp in specs]
        ) ** 2
        sizes = np.bincount(np.argmin(d2, axis=1), minlength=len(specs))
        assert env == classify_env_by_cluster_size(
            sizes, cfg.env_urban_quantile, cfg.env_rural_quantile
        )


class TestCoverage:
    def test_nearest_site_env_brute_force(self):
        grid = Grid(ncols=9, nrows=7, cell_size_m=100.0)
        sx = np.array([120.0, 700.0, 430.0])
        sy = np.array([80.0, 600.0, 330.0])
        codes = [0, 2, 1]
        got = nearest_site_env(grid, sx, sy, codes)
        r, c = np.divmod(np.arange(grid.npixels), grid.ncols)
        x, y = grid.centers(r, c)
        d2 = (x[:, None] - sx) ** 2 + (y[:, None] - sy) ** 2
        want = np.array(codes, dtype=np.uint8)[np.argmin(d2, axis=1)].reshape(grid.shape)
        np.testing.assert_array_equal(got, want)

    def test_best_server_matches_rss_field_oracle(self):
        cfg = tiny_config()
        world = build_world(cfg, 0)
        grid = world.grid
        pid = np.arange(grid.npixels)
        r, c = grid.rowcol_of_id(pid)
        x, y = grid.centers(r, c)
        # links straight from the loss model, so the streamed kernel is not its own oracle
        rss = np.column_stack([
            s.power_dbm - extended_hata_db(
                s.freq_mhz, np.hypot(x - s.x, y - s.y) / 1000.0, s.height_m,
                cfg.rx_height_m, world.env_grid.ravel(), clamp_distance=True)
            for s in world.specs
        ])
        live = rss >= cfg.dead_threshold_dbm
        want = np.argmax(np.where(live, rss, -np.inf), axis=1)
        want[~live.any(axis=1)] = -1
        np.testing.assert_array_equal(world.coverage.assignment.labels.ravel(), want)

    def test_specs_must_be_sorted(self):
        cfg = tiny_config()
        world = build_world(cfg, 0)
        with pytest.raises(ValueError, match="sorted"):
            best_server_grid(world.grid, world.specs[::-1], world.env_grid,
                             cfg.rx_height_m, cfg.dead_threshold_dbm)

    def test_duplicate_ids_rejected(self):
        cfg = tiny_config()
        world = build_world(cfg, 0)
        specs = [world.specs[0], world.specs[0]]
        with pytest.raises(ValueError, match="duplicates"):
            best_server_grid(world.grid, specs, world.env_grid,
                             cfg.rx_height_m, cfg.dead_threshold_dbm)

    def test_uncovered_stats_consistent(self):
        world = build_world(tiny_config(), 0)
        server = world.coverage.settlement_server
        assert world.coverage.uncovered_settlements == int(np.sum(server < 0))
        assert world.coverage.uncovered_fraction == pytest.approx(
            np.mean(server < 0)
        )


class TestOneTessellation:
    """A round's voronoi map is both the voronoi schemes' map and,
    coloured by site class, the true environment."""

    def test_round_runs_one_full_grid_nearest_search(self, monkeypatch):
        cfg = tiny_config()
        original = geo.nearest_index
        grid_sized = []

        def counting(x, y, sx, sy):
            if np.size(x) == cfg.grid.npixels:
                grid_sized.append(np.size(sx))
            return original(x, y, sx, sy)

        patched = [name for name, mod in list(sys.modules.items())
                   if (name == "covmap" or name.startswith("covmap."))
                   and vars(mod).get("nearest_index") is original]
        assert {"covmap.geo", "covmap.simulation"} <= set(patched)
        for name in patched:
            monkeypatch.setattr(sys.modules[name], "nearest_index", counting)
        _, world = simulate_round(cfg, 0, return_world=True)
        assert grid_sized == [len(world.specs)]

    def test_env_grid_is_the_nearest_site_class(self):
        world = build_world(tiny_config(), 0)
        want = nearest_site_env(world.grid, [s.x for s in world.specs],
                                [s.y for s in world.specs],
                                [env_code(e) for e in world.bts_env])
        assert world.env_grid.dtype == np.uint8
        np.testing.assert_array_equal(world.env_grid, want)
        assert world.voronoi.bts_ids == [s.bts_id for s in world.specs]


class TestRangeCulling:
    """The culled kernel and the streamed passes against a brute-force
    level matrix on a 100 km layout where low masts leave most links dead."""

    @pytest.fixture
    def layout(self, monkeypatch):
        cfg = SimConfig(ncols=200, nrows=200, cell_size_m=500.0, block_px=50, mask_rect=None)
        rng = np.random.default_rng(11)
        specs = [
            AntennaSpec(f"s{j:02d}", float(rng.uniform(-5e3, 105e3)),
                        float(rng.uniform(-5e3, 105e3)), float(rng.uniform(3.0, 12.0)),
                        float(rng.choice([450.0, 900.0, 1800.0, 2100.0, 2600.0])),
                        float(rng.uniform(40.0, 47.0)))
            for j in range(30)
        ]
        # every pixel is settled, so the settlement pass streams two chunks
        settlements = extract_settlements(SettlementRaster(cfg.grid, np.ones(cfg.grid.shape)))
        env = rng.integers(0, 3, len(settlements)).astype(np.uint8)
        oracle = np.column_stack([
            s.power_dbm - extended_hata_db(
                s.freq_mhz, np.hypot(settlements.x - s.x, settlements.y - s.y) / 1000.0,
                s.height_m, cfg.rx_height_m, env, clamp_distance=True)
            for s in specs
        ])
        assert (oracle >= cfg.dead_threshold_dbm).any()
        # count the links the model evaluates from here on
        evaluated = []
        hata = propagation.extended_hata_db

        def counting(f_mhz, d_km, *args, **kwargs):
            evaluated.append(np.size(d_km))
            return hata(f_mhz, d_km, *args, **kwargs)

        monkeypatch.setattr(propagation, "extended_hata_db", counting)
        propagation.forget_live_radii()
        return cfg, specs, settlements, env, oracle, evaluated

    def test_kernel_equals_dense_live_levels(self, layout):
        cfg, specs, st, env, oracle, evaluated = layout
        got = rss_field(specs, st.ids, st.x, st.y, env, rx_height_m=cfg.rx_height_m,
                        dead_threshold_dbm=cfg.dead_threshold_dbm)
        live = oracle >= cfg.dead_threshold_dbm
        assert np.array_equal(got.rss_dbm[live], oracle[live])
        assert np.all(got.rss_dbm[~live] == -np.inf)
        assert np.array_equal(got.live, live)
        # the radius probes included
        assert sum(evaluated) < oracle.size / 4

    def test_streamed_passes_equal_dense_schemes(self, layout):
        cfg, specs, st, env, oracle, evaluated = layout
        pw_bsa, pw_idw = settlement_pixel_weights(
            st, specs, env, rx_height_m=cfg.rx_height_m,
            dead_threshold_dbm=cfg.dead_threshold_dbm, idw_s=cfg.idw_s, idw_k=cfg.idw_k)
        assert sum(evaluated) < oracle.size / 4
        dense = RssField(st.ids, [s.bts_id for s in specs], oracle, cfg.dead_threshold_dbm)
        want_bsa = weights_bsa(dense)
        want_idw = weights_idw(dense, s=cfg.idw_s, k=cfg.idw_k)
        for got, want in ((pw_bsa, want_bsa), (pw_idw, want_idw)):
            assert got.bts_ids == want.bts_ids
            for name in ("pixel_ids", "indptr", "col", "w"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        sel = np.full(len(st), -1)
        sel[pw_bsa.covered] = pw_bsa.col
        assert np.any(sel >= 0) and np.any(sel < 0)
        # all pixels are settled in pixel-id order, so the grid pass must agree
        grid = best_server_grid(cfg.grid, specs, env.reshape(cfg.grid.shape),
                                cfg.rx_height_m, cfg.dead_threshold_dbm)
        np.testing.assert_array_equal(grid.labels.ravel(), sel)


def test_p2p_credit_matches_row_lookup_loop():
    bts_ids = ["a", "b", "c"]
    area_ids = ["A0", "A1", "A2"]  # A2 has no row
    wm = WeightMatrix("p2p", area_ids, {"A0": {"a": 0.25, "c": 0.75}, "A1": {"b": 1.0}})
    rng = np.random.default_rng(3)
    area_of = rng.integers(-1, 3, 200)
    server = rng.integers(-1, 3, 200)
    want = np.zeros(200)
    for i in range(200):
        if server[i] >= 0 and area_of[i] >= 0:
            want[i] = wm.rows.get(area_ids[area_of[i]], {}).get(bts_ids[server[i]], 0.0)
    got = _p2p_credit(wm, area_of, server, bts_ids, area_ids)
    assert np.array_equal(got, want) and np.any(got > 0)


class TestGeographicOverlap:
    def grid(self):
        return Grid(ncols=4, nrows=1, cell_size_m=100.0)

    def test_identity_is_exact_one(self):
        a = Assignment(self.grid(), ["a", "b"], np.array([[0, 0, 1, 1]]))
        out = geographic_overlap(a, a, ["urban", "rural"])
        assert out["total"] == 1.0
        assert out["urban"] == 1.0 and out["rural"] == 1.0

    def test_hand_iou(self):
        truth = Assignment(self.grid(), ["a", "b"], np.array([[0, 0, 1, 1]]))
        est = Assignment(self.grid(), ["a", "b"], np.array([[0, 1, 1, 1]]))
        out = geographic_overlap(est, truth, ["urban", "rural"])
        assert out["urban"] == pytest.approx(1 / 2)
        assert out["rural"] == pytest.approx(2 / 3)
        assert out["total"] == pytest.approx((1 / 2 + 2 / 3) / 2)

    def test_unassigned_pixels_count_against(self):
        truth = Assignment(self.grid(), ["a"], np.array([[0, 0, 0, 0]]))
        est = Assignment(self.grid(), ["a"], np.array([[0, 0, -1, -1]]))
        assert geographic_overlap(est, truth)["total"] == pytest.approx(0.5)

    def test_mismatched_ids_rejected(self):
        a = Assignment(self.grid(), ["a"], np.array([[0, 0, 0, 0]]))
        b = Assignment(self.grid(), ["z"], np.array([[0, 0, 0, 0]]))
        with pytest.raises(ValueError, match="different bts_id sets"):
            geographic_overlap(a, b)

    def test_membership_variant(self):
        truth = Assignment(self.grid(), ["a", "b"], np.array([[0, 1, 1, -1]]))
        area_labels = np.array([[0, 0, 1, 1]])
        host = np.array([0, 1])
        out = area_membership_overlap(area_labels, host, truth)
        # a: claims area 0 = {0,1}, true tile {0}: inter 1, union 2
        # b: claims area 1 = {2,3}, true tile {1,2}: inter 1, union 3
        assert out["total"] == pytest.approx((1 / 2 + 1 / 3) / 2)

    def test_membership_no_host_scores_zero(self):
        truth = Assignment(self.grid(), ["a"], np.array([[0, 0, -1, -1]]))
        out = area_membership_overlap(np.array([[0, 0, 1, 1]]), np.array([-1]), truth)
        assert out["total"] == 0.0


class TestSettlementOverlap:
    def test_matches_and_uncovered(self):
        est = np.array([0, 1, 0])
        true = np.array([0, -1, 1])
        assert settlement_overlap(est, true)["total"] == pytest.approx(0.5)

    def test_group_split(self):
        est = np.array([0, 0, 1, 1])
        true = np.array([0, 1, 1, 1])
        groups = np.array([0, 0, 2, 2])
        out = settlement_overlap(est, true, groups)
        assert out["total"] == pytest.approx(3 / 4)
        assert out["urban"] == pytest.approx(1 / 2)
        assert out["rural"] == 1.0

    def test_fractional_credit(self):
        true = np.array([0, 0, -1])
        credit = np.array([0.25, 1.0, 99.0])
        out = settlement_overlap(None, true, credit=credit)
        assert out["total"] == pytest.approx(0.625)

    def test_all_uncovered_is_nan(self):
        out = settlement_overlap(np.array([0]), np.array([-1]))
        assert np.isnan(out["total"])


class TestPredictionMetrics:
    def test_hand_values(self):
        pm = prediction_metrics({"A": 1.0, "B": 2.0, "C": 3.0},
                                {"A": 1.0, "B": 3.0, "C": 2.0})
        assert pm.bias == pytest.approx(0.0)
        assert pm.rmse == pytest.approx(np.sqrt(2 / 3))
        assert pm.rho == pytest.approx(0.5)
        assert pm.n == 3

    def test_none_and_nan_skipped(self):
        pm = prediction_metrics({"A": 1.0, "B": None, "C": 3.0, "D": 4.0},
                                {"A": 2.0, "B": 1.0, "C": 3.0, "D": float("nan")})
        assert pm.n == 2

    def test_too_few_pairs(self):
        with pytest.raises(ValueError, match="at least 2"):
            prediction_metrics({"A": 1.0}, {"A": 1.0})

    def test_constant_series_rho_none(self):
        pm = prediction_metrics({"A": 1.0, "B": 1.0}, {"A": 0.5, "B": 0.7})
        assert pm.rho is None
        assert pm.bias == pytest.approx(0.4)


class TestStudy:
    def test_round_deterministic(self):
        cfg = tiny_config()
        assert simulate_round(cfg, 1) == simulate_round(cfg, 1)

    def test_jobs_do_not_change_output(self):
        cfg = tiny_config(rounds=3)
        r1 = run_study(cfg, jobs=1)
        r2 = run_study(cfg, jobs=2)
        assert r1.records == r2.records
        assert r1.tally == r2.tally

    def test_benchmark_self_overlap_exactly_one(self):
        res = run_study(tiny_config(rounds=2), jobs=1)
        assert np.all(res.values("benchmark", "geo_overlap") == 1.0)
        assert np.all(res.values("benchmark", "settlement_overlap") == 1.0)

    def test_record_schema(self):
        recs = simulate_round(tiny_config(), 0)
        envs = {r[3] for r in recs}
        assert envs <= {"total", "urban", "suburban", "rural"}
        schemes = {r[1] for r in recs}
        assert schemes == set(SCHEMES) | {"world"}
        assert all(r[0] == 0 for r in recs)

    def test_world_records(self):
        cfg = tiny_config()
        recs, world = simulate_round(cfg, 0, return_world=True)
        by = {(r[1], r[2]): r[4] for r in recs if r[3] == "total"}
        assert by[("world", "n_bts")] == len(world.specs)
        assert by[("world", "n_settlements")] == len(world.settlements)
        assert by[("world", "uncovered_settlement_fraction")] == (
            world.coverage.uncovered_fraction
        )

    def test_single_round_tally_has_one_winner_per_metric(self):
        res = run_study(tiny_config(rounds=1), jobs=1)
        for metric in TALLY_METRICS:
            vals = [res.tally[(s, metric)] for s in TALLY_SCHEMES]
            assert sorted(vals) == [0.0, 0.0, 0.0, 0.0, 100.0]

    def test_tally_recount_oracle(self):
        res = run_study(tiny_config(rounds=4), jobs=1)
        per_round: dict[tuple, dict[str, float]] = {}
        for rnd, scheme, metric, env, value in res.records:
            if env == "total" and scheme in TALLY_SCHEMES and metric.endswith("_common"):
                per_round.setdefault((rnd, metric[:-7]), {})[scheme] = value
        wins = {(s, m): 0 for s in TALLY_SCHEMES for m in TALLY_METRICS}
        counted = {m: 0 for m in TALLY_METRICS}
        for (rnd, metric), vals in sorted(per_round.items()):
            finite = {s: v for s, v in vals.items() if np.isfinite(v)}
            if not finite:
                continue
            counted[metric] += 1
            if metric == "rho":
                ranked = sorted(finite, key=lambda s: (-finite[s], TALLY_SCHEMES.index(s)))
            elif metric == "bias":
                ranked = sorted(finite, key=lambda s: (abs(finite[s]), TALLY_SCHEMES.index(s)))
            else:
                ranked = sorted(finite, key=lambda s: (finite[s], TALLY_SCHEMES.index(s)))
            wins[(ranked[0], metric)] += 1
        expect = {
            (s, m): 100.0 * wins[(s, m)] / counted[m]
            for s in TALLY_SCHEMES for m in TALLY_METRICS
        }
        assert res.tally == expect
        for metric in TALLY_METRICS:
            assert sum(res.tally[(s, metric)] for s in TALLY_SCHEMES) == pytest.approx(100.0)

    def test_compute_tally_tie_goes_to_scheme_order(self):
        records = [
            (0, "p2p", "rho_common", "total", 0.5),
            (0, "voronoi", "rho_common", "total", 0.5),
            (0, "hata_bsa", "rho_common", "total", 0.1),
        ]
        tally = compute_tally(records)
        assert tally[("p2p", "rho")] == 100.0
        assert tally[("voronoi", "rho")] == 0.0

    def test_round_failure_names_seed_and_round(self, monkeypatch):
        import covmap.simulation as sim

        def boom(cfg, rng):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(sim, "gen_population", boom)
        with pytest.raises(RuntimeError, match=r"round 3 failed \(seed=7, round=3\)"):
            simulate_round(tiny_config(), 3)

    def test_values_are_round_ordered(self):
        res = run_study(tiny_config(rounds=3), jobs=1)
        v = res.values("voronoi", "geo_overlap")
        assert v.shape == (3,)
        one = simulate_round(tiny_config(), 1)
        want = [r[4] for r in one if r[1] == "voronoi" and r[2] == "geo_overlap" and r[3] == "total"]
        assert v[1] == want[0]
