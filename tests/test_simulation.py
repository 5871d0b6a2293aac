import ast
import dataclasses
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covmap import geo, propagation, simulation
from covmap.geo import (
    Assignment,
    Grid,
    SettlementRaster,
    StatAreaSet,
    extract_settlements,
)
from covmap.mapping import (
    PixelWeights,
    bsa_select_chunk,
    idw_rows_chunk,
    weights_bsa,
    weights_idw,
    weights_p2p,
)
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
    _weighted_kmeans,
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
from conftest import traced_held, traced_peak
from weight_rows import entries_by_column, pixel_csr


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


def _full_grid_area_masks(cfg):
    """`build_areas`' areas as the full-grid rectangles it once held, in order."""
    sizes = simulation._split_sizes(cfg.block_px, cfg.urban_split)
    redges = np.concatenate([[0], np.cumsum(sizes)]) + cfg.nrows - cfg.block_px
    cedges = np.concatenate([[0], np.cumsum(sizes)])
    pairs = []
    for i in range(cfg.urban_split):
        for j in range(cfg.urban_split):
            m = np.zeros(cfg.grid.shape, dtype=bool)
            m[redges[i]:redges[i + 1], cedges[j]:cedges[j + 1]] = True
            pairs.append((f"U{i}_{j}", m))
    nbr, nbc, b = cfg.nrows // cfg.block_px, cfg.ncols // cfg.block_px, cfg.block_px
    for br in range(nbr):
        for bc in range(nbc):
            if br == nbr - 1 and bc == 0:
                continue
            m = np.zeros(cfg.grid.shape, dtype=bool)
            m[br * b:(br + 1) * b, bc * b:(bc + 1) * b] = True
            pairs.append((f"R{br}_{bc}", m))
    return pairs


class TestAreaStorage:
    @pytest.mark.parametrize("cfg", [SimConfig(), SimConfig.desk(), tiny_config()],
                             ids=["full", "desk", "tiny"])
    def test_area_masks_equal_the_full_grid_rectangles(self, cfg):
        areas, _ = build_areas(cfg)
        want = _full_grid_area_masks(cfg)
        assert areas.area_ids == [aid for aid, _ in want]
        for area, (_, m) in zip(areas.areas, want):
            got = area.mask
            assert got.dtype == bool and np.array_equal(got, m), area.area_id
            assert area.inside.all() and area.inside.size == m.sum()  # the crop is the box

    def test_full_scale_areas_hold_their_boxes_only(self):
        """The 40 full-scale areas keep their bounding boxes, 1 MB, where
        full-grid masks held 40 MB; making them holds at most one 1 MB
        full-grid mask on top."""
        cfg = SimConfig()
        areas, _ = build_areas(cfg)
        boxes = sum(a.inside.nbytes for a in areas.areas)
        assert boxes == 16 * 50 * 50 + 24 * 200 * 200
        held = traced_held(lambda: build_areas(cfg))
        assert held < boxes + 64 * 1024, (held, boxes)
        peak = traced_peak(lambda: build_areas(cfg))
        assert peak < boxes + cfg.grid.npixels + 64 * 1024, (peak, boxes)


def _old_rejection_sample(rng, n, draw, accept):
    xs, ys = [], []
    have = 0
    for _ in range(simulation._MAX_REJECTION_ROUNDS):
        if have >= n:
            break
        batch = max(64, int((n - have) * 1.5))
        x, y = draw(rng, batch)
        ok = accept(x, y)
        xs.append(x[ok])
        ys.append(y[ok])
        have += int(ok.sum())
    else:
        raise RuntimeError("rejection sampling failed to converge; check the masks")
    return np.concatenate(xs)[:n], np.concatenate(ys)[:n]


def _old_gen_population(cfg, rng):
    """`gen_population` as it was: every accepted point kept, then binned."""
    rng = np.random.default_rng(rng)
    grid = cfg.grid
    xmin, ymin, xmax, ymax = grid.extent()
    mask = uninhabited_mask(cfg)
    urban = urban_block_mask(cfg)

    def allowed(forbidden):
        def ok(x, y):
            r, c = grid.locate(x, y)
            on = r >= 0
            out = np.zeros(x.shape, dtype=bool)
            out[on] = ~forbidden[r[on], c[on]]
            return out
        return ok

    on_grid_ok, rural_ok = allowed(mask), allowed(mask | urban)
    n_urban = simulation._round_half_up(cfg.population * cfg.urban_share)
    n_rural = cfg.population - n_urban
    cx = cy = cfg.block_px * cfg.cell_size_m / 2.0
    ux, uy = _old_rejection_sample(
        rng, n_urban, lambda rng, m: (rng.normal(cx, cfg.urban_sigma_m, m),
                                      rng.normal(cy, cfg.urban_sigma_m, m)), on_grid_ok)

    def draw_uniform(rng, m):
        return (rng.uniform(xmin, xmax, m), rng.uniform(ymin, ymax, m))

    ccx, ccy = _old_rejection_sample(rng, cfg.rural_cluster_count, draw_uniform, rural_ok)
    n_clustered = simulation._round_half_up(n_rural * cfg.rural_cluster_share)
    per = simulation._split_sizes(n_clustered, cfg.rural_cluster_count)
    xs, ys = [ux], [uy]
    for i in range(cfg.rural_cluster_count):
        x, y = _old_rejection_sample(
            rng, per[i], lambda rng, m: (rng.normal(ccx[i], cfg.rural_sigma_m, m),
                                         rng.normal(ccy[i], cfg.rural_sigma_m, m)), on_grid_ok)
        xs.append(x)
        ys.append(y)
    bx, by = _old_rejection_sample(rng, n_rural - n_clustered, draw_uniform, rural_ok)
    r, c = grid.locate(np.concatenate(xs + [bx]), np.concatenate(ys + [by]))
    counts = np.bincount(r * cfg.ncols + c, minlength=grid.npixels).reshape(grid.shape)
    return SettlementRaster(grid, counts.astype(np.int64))


def _old_assign_poverty(raster, cfg, rng):
    """`assign_poverty` as it was: full-grid block index grids."""
    rng = np.random.default_rng(rng)
    b = cfg.poverty_block_px
    nbr, nbc = -(-cfg.nrows // b), -(-cfg.ncols // b)
    rr, cc = np.meshgrid(np.arange(cfg.nrows), np.arange(cfg.ncols), indexing="ij")
    block = (rr // b) * nbc + (cc // b)
    pop = np.bincount(block.ravel(), weights=raster.counts.ravel(), minlength=nbr * nbc)
    px = np.bincount(block.ravel(), minlength=nbr * nbc)
    density = pop / px
    top = density.max()
    if top <= 0:
        raise ValueError("population raster is empty")
    mu = rng.uniform(0.0, 1.0, nbr * nbc) * (1.0 - density / top)
    settlements = extract_settlements(raster)
    mu_at = mu[block[raster.grid.rowcol_of_id(settlements.ids)]]
    rates = mu_at + cfg.poverty_sigma * rng.standard_normal(len(settlements))
    return np.clip(rates, 0.0, 1.0)


_POPULATION_CONFIGS = [pytest.param(SimConfig.desk(), seed, id=f"desk-{seed}") for seed in (1, 7, 43)]
_POPULATION_CONFIGS += [pytest.param(tiny_config(), 3, id="tiny"),
                        pytest.param(tiny_config(urban_share=0.9, rural_cluster_count=5), 4,
                                     id="tiny-five-clusters"),
                        pytest.param(SimConfig(), 1, id="full-1")]


class TestGenPopulation:
    @pytest.mark.parametrize("cfg, seed", _POPULATION_CONFIGS)
    def test_counts_and_rng_state_equal_the_unbatched_binning(self, cfg, seed):
        rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = gen_population(cfg, rng), _old_gen_population(cfg, old_rng)
        assert got.counts.dtype == want.counts.dtype == np.int64
        assert got.counts.tobytes() == want.counts.tobytes()
        assert rng.bit_generator.state == old_rng.bit_generator.state

    @pytest.mark.parametrize("over", [dict(urban_share=0.0), dict(urban_share=1.0),
                                      dict(rural_cluster_share=0.0),
                                      dict(rural_cluster_share=1.0)])
    def test_a_part_with_no_people_draws_nothing(self, over):
        """A population part of size zero yields no batch (binning all the
        points at once used to fail on its empty list of batches)."""
        cfg = tiny_config(**over)
        raster = gen_population(cfg, np.random.default_rng(1))
        assert raster.counts.sum() == cfg.population

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

    def test_peak_holds_one_batch_and_one_slice(self):
        """Each batch is drawn whole but located, accepted and binned one
        `_SAMPLE_SLICE` slice at a time, so the traced peak is the largest
        batch's x and y (16 B per draw) plus one slice's working set and
        the grid arrays.  A million people on a 100 x 100 grid make a first
        urban batch of 750k draws, so the bound is about 21 B per
        inhabitant, against about 43 B for binning whole batches."""
        cfg = SimConfig(ncols=100, nrows=100, block_px=50, population=1_000_000,
                        mask_rect=None, urban_sigma_m=700.0, rural_sigma_m=1500.0)
        peak = traced_peak(lambda: gen_population(cfg, np.random.default_rng(1)))
        batch = int(1.5 * simulation._round_half_up(cfg.population * cfg.urban_share))
        bound = 16 * batch + 128 * simulation._SAMPLE_SLICE + 32 * cfg.grid.npixels
        assert bound < 24 * cfg.population
        assert peak < bound, (peak, bound)


class TestAssignPoverty:
    @pytest.mark.parametrize("cfg, seed", _POPULATION_CONFIGS)
    @pytest.mark.parametrize("block_px", [4, 7])  # 7 leaves partial edge blocks
    def test_rates_and_rng_state_equal_the_index_grid_version(self, cfg, seed, block_px):
        cfg = dataclasses.replace(cfg, poverty_block_px=block_px)
        raster = gen_population(cfg, np.random.default_rng(seed))
        rng, old_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got, want = assign_poverty(raster, cfg, rng), _old_assign_poverty(raster, cfg, old_rng)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == old_rng.bit_generator.state

    def test_fractional_counts_and_nodata_equal_the_index_grid_version(self):
        """Float counts, some below one (not settlements), and nodata pixels
        holding a negative fill all enter the block sums as before."""
        cfg = tiny_config(ncols=23, nrows=23, block_px=23, urban_split=1, mask_rect=None,
                          poverty_block_px=5)
        rng = np.random.default_rng(11)
        counts = np.where(rng.random(cfg.grid.shape) < 0.4, rng.uniform(0, 9, cfg.grid.shape), 0.0)
        nodata = rng.random(cfg.grid.shape) < 0.1
        raster = SettlementRaster(cfg.grid, np.where(nodata, -9999.0, counts), nodata)
        got = assign_poverty(raster, cfg, np.random.default_rng(5))
        assert got.tobytes() == _old_assign_poverty(raster, cfg, np.random.default_rng(5)).tobytes()

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
        srows, scols = cfg.grid.rowcol_of_id(s.ids)
        sblk = (srows // b) * nbc + (scols // b)
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
        centers = set(zip(*(v.tolist()
                            for v in cfg.grid.centers(*cfg.grid.rowcol_of_id(s.ids)))))
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
        x, y = cfg.grid.centers(*cfg.grid.rowcol_of_id(s.ids))
        d2 = (x[:, None] - [sp.x for sp in specs]) ** 2 + (y[:, None] - [sp.y for sp in specs]) ** 2
        sizes = np.bincount(np.argmin(d2, axis=1), minlength=len(specs))
        assert env == classify_env_by_cluster_size(
            sizes, cfg.env_urban_quantile, cfg.env_rural_quantile
        )

    def test_holds_no_settlement_ids_through_the_kmeans(self):
        """Over the peak of its largest k-means, `place_bts` holds at most
        seven words per settlement (coordinates and counts, and the
        region's copies of them) and the one-byte urban mask: no
        settlement ids, rows or cols."""
        cfg = SimConfig.desk(seed=1)
        raster = gen_population(cfg, np.random.default_rng(1))
        rows, cols = np.nonzero(raster.settled)
        rural = ~urban_block_mask(cfg)[rows, cols]
        x, y = cfg.grid.centers(rows[rural], cols[rural])
        w = raster.counts[rows[rural], cols[rural]].astype(np.float64)
        k = simulation._round_half_up(
            cfg.population * (1.0 - cfg.urban_share) / cfg.rural_pop_per_bts)
        assert rural.mean() > 0.5  # the rural region's k-means is the larger one
        kmeans = traced_peak(lambda: simulation._weighted_kmeans(
            x, y, w, k, np.random.default_rng(2), cfg.kmeans_iters))
        peak = traced_peak(lambda: place_bts(raster, cfg, np.random.default_rng(2)))
        bound = kmeans + 7 * 8 * rows.size + cfg.grid.npixels
        assert peak < bound, (peak, bound)


def test_place_bts_peak_per_settlement():
    """`place_bts` holds at most 19 words per settlement at its peak: the
    settlements' and the region's coordinates and counts, the k-means
    labels, bounds and one scratch array for its centroid sums, and
    `nearest_two`'s per-point buckets.  The seeding draw's probabilities
    and distances and both weighted coordinates, held through the Lloyd
    steps, would add about 3 words."""
    cfg = SimConfig(ncols=300, nrows=300, block_px=100, population=300_000, mask_rect=None,
                    urban_sigma_m=3000.0, rural_sigma_m=5000.0, urban_pop_per_bts=2000.0,
                    rural_pop_per_bts=2000.0)
    raster = gen_population(cfg, np.random.default_rng(1))
    n = int(np.count_nonzero(raster.settled))
    assert n > 0.8 * cfg.grid.npixels
    peak = traced_peak(lambda: place_bts(raster, cfg, np.random.default_rng(2)))
    bound = 19 * 8 * n + 8 * cfg.grid.npixels
    assert peak < bound, (peak, bound)


def _dense_weighted_kmeans(x, y, w, k: int, rng, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """The dense Lloyd loop that `_weighted_kmeans` replaced, kept as its
    oracle: every step scores every point against every centre in one
    argmin of its own, so the oracle shares no search code with the
    bounded loop."""
    n = x.size
    probs = w / w.sum()
    first = int(rng.choice(n, p=probs))
    cx, cy = [x[first]], [y[first]]
    d2 = (x - cx[0]) ** 2 + (y - cy[0]) ** 2
    for _ in range(1, k):
        wd = w * d2
        tot = wd.sum()
        idx = int(rng.choice(n, p=wd / tot)) if tot > 0 else int(rng.choice(n, p=probs))
        cx.append(x[idx])
        cy.append(y[idx])
        d2 = np.minimum(d2, (x - cx[-1]) ** 2 + (y - cy[-1]) ** 2)
    cx = np.array(cx)
    cy = np.array(cy)

    for _ in range(iters):
        lab = np.argmin((x[:, None] - cx) ** 2 + (y[:, None] - cy) ** 2, axis=1)
        wsum = np.bincount(lab, weights=w, minlength=k)
        nx = np.bincount(lab, weights=w * x, minlength=k)
        ny = np.bincount(lab, weights=w * y, minlength=k)
        new_cx = np.where(wsum > 0, nx / np.maximum(wsum, 1e-300), cx)
        new_cy = np.where(wsum > 0, ny / np.maximum(wsum, 1e-300), cy)
        for j in np.nonzero(wsum == 0)[0]:  # re-seed empty clusters, farthest first
            dmin = np.full(n, np.inf)
            for jj in range(k):
                if wsum[jj] > 0 or jj < j:
                    dmin = np.minimum(dmin, (x - new_cx[jj]) ** 2 + (y - new_cy[jj]) ** 2)
            far = int(np.argmax(dmin))
            new_cx[j], new_cy[j] = x[far], y[far]
        moved = np.max((new_cx - cx) ** 2 + (new_cy - cy) ** 2)
        cx, cy = new_cx, new_cy
        if moved < 1e-12:
            break
    return cx, cy


@st.composite
def _weighted_points(draw):
    """Points on a coarse lattice (duplicates and exact distance ties are
    common), optionally offset to projected-metre magnitudes and joined by
    one far outlier; k runs up to n, which forces empty-cluster re-seeds."""
    n = draw(st.integers(1, 40))
    lattice = st.lists(st.integers(0, 6), min_size=n, max_size=n)
    step = draw(st.sampled_from([0.5, 1.0, 100.0]))
    x = np.array(draw(lattice), dtype=np.float64) * step + draw(st.sampled_from([0.0, 5e5]))
    y = np.array(draw(lattice), dtype=np.float64) * step
    if draw(st.booleans()):
        x[0], y[0] = 3e7, -2e6
    w = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), dtype=np.float64)
    return x, y, w, draw(st.integers(1, n)), draw(st.integers(0, 30))


class TestBoundedLloyd:
    # each example runs a Lloyd step that empties a cluster and re-seeds it
    # at a positive distance from every live centre, which random draws
    # reach about once in 30,000 tries
    @settings(max_examples=400, deadline=None)
    @given(points=_weighted_points(), seed=st.integers(0, 2**32 - 1))
    @example(points=(np.array([0.0, 6.0, 2.0, 0.0, 5.0]), np.array([2.0, 0.0, 5.0, 6.0, 1.0]),
                     np.array([4.0, 4.0, 4.0, 2.0, 4.0]), 3, 30), seed=679716067)
    @example(points=(np.array([5.0, 6.0, 0.0, 1.0, 0.0, 3.0, 0.0, 0.0]),
                     np.array([3.0, 0.0, 6.0, 4.0, 2.0, 2.0, 1.0, 4.0]),
                     np.array([3.0, 1.0, 4.0, 1.0, 4.0, 4.0, 2.0, 1.0]), 4, 30), seed=1329855425)
    def test_equals_the_dense_loop(self, points, seed):
        x, y, w, k, iters = points
        rng_dense, rng_bounded = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _dense_weighted_kmeans(x, y, w, k, rng_dense, iters)
        got = _weighted_kmeans(x, y, w, k, rng_bounded, iters)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert rng_bounded.bit_generator.state == rng_dense.bit_generator.state

    def test_bounds_spare_most_searches_on_a_desk_world(self, monkeypatch):
        cfg = SimConfig.desk()
        raster = gen_population(cfg, np.random.default_rng(1))
        settled = extract_settlements(raster)
        srows, scols = cfg.grid.rowcol_of_id(settled.ids)
        x, y = cfg.grid.centers(srows, scols)
        in_urban = urban_block_mask(cfg)[srows, scols]
        original = geo._nearest_blocks
        offered = []

        def counting(x, y, sx, sy, rank):
            offered.append(np.size(x))
            return original(x, y, sx, sy, rank)

        monkeypatch.setattr(geo, "_nearest_blocks", counting)
        for sel, share, per_bts in ((in_urban, cfg.urban_share, cfg.urban_pop_per_bts),
                                    (~in_urban, 1.0 - cfg.urban_share, cfg.rural_pop_per_bts)):
            k = int(np.floor(cfg.population * share / per_bts + 0.5))
            offered.clear()
            _weighted_kmeans(x[sel], y[sel], settled.counts[sel], k,
                             np.random.default_rng(2), cfg.kmeans_iters)
            n = int(sel.sum())
            # step one searches every point; each later step searches the k
            # centres against each other, then the points its bounds leave
            assert offered[0] == n and len(offered) % 2 == 1
            later_steps = (len(offered) - 1) // 2
            assert later_steps >= 1
            assert sum(offered[1:]) < 0.5 * n * later_steps


def _choice_seeds(x, y, w, k: int, rng) -> list[int]:
    """The k-means++ seed indices as `Generator.choice` draws them, the
    draw that `_weighted_kmeans` inlines."""
    n = x.size
    probs = w / w.sum()
    seeds = [int(rng.choice(n, p=probs))]
    d2 = (x - x[seeds[0]]) ** 2 + (y - y[seeds[0]]) ** 2
    for _ in range(1, k):
        wd = w * d2
        tot = wd.sum()
        seeds.append(int(rng.choice(n, p=wd / tot if tot > 0 else probs)))
        d2 = np.minimum(d2, (x - x[seeds[-1]]) ** 2 + (y - y[seeds[-1]]) ** 2)
    return seeds


@st.composite
def _seeding_points(draw):
    """Points at distinct x, so each centre names its point, with zero
    weights among the positive ones and k up to two past the point count."""
    n = draw(st.integers(1, 60))
    w = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 3.0, 1e-3, 7e5]),
                               min_size=n, max_size=n)))
    w[draw(st.integers(0, n - 1))] = draw(st.sampled_from([1.0, 1e-3, 7e5]))
    y = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), np.float64)
    return np.arange(n) * 100.0, y, w, draw(st.integers(1, n + 2))


@settings(max_examples=300, deadline=None)
@given(points=_seeding_points(), seed=st.integers(0, 2**32 - 1))
@example(points=(np.zeros(1), np.zeros(1), np.ones(1), 3), seed=0)
def test_seeding_draws_as_generator_choice(points, seed):
    """Each inlined k-means++ draw picks the index `rng.choice(n, p=p)`
    picks and leaves the generator in the same state: with zero weights,
    with k past the points that carry weight (the `tot == 0` fallback)
    and with a single point."""
    x, y, w, k = points
    rng_choice, rng_inline = np.random.default_rng(seed), np.random.default_rng(seed)
    seeds = _choice_seeds(x, y, w, k, rng_choice)
    cx, cy = _weighted_kmeans(x, y, w, k, rng_inline, 0)
    assert cx.tobytes() == x[seeds].tobytes() and cy.tobytes() == y[seeds].tobytes()
    assert rng_inline.bit_generator.state == rng_choice.bit_generator.state


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


@pytest.mark.parametrize("seed", [0, 7])
def test_build_network_equals_the_world_fields(seed, monkeypatch):
    """`build_network` gives a round's raster, specs, site classes, voronoi
    map and env grid, equal to `build_world`'s fields, with no coverage pass."""
    cfg = tiny_config(seed=seed)
    world = build_world(cfg, 1)

    def no_coverage(*args, **kwargs):
        raise AssertionError("build_network ran a coverage pass")

    monkeypatch.setattr(simulation, "true_coverage", no_coverage)
    monkeypatch.setattr(simulation, "_tiled_pass", no_coverage)
    raster, specs, bts_env, voronoi, env_grid = simulation.build_network(cfg, 1)
    assert raster.counts.tobytes() == world.raster.counts.tobytes()
    assert raster.nodata.tobytes() == world.raster.nodata.tobytes()
    assert specs == world.specs and bts_env == world.bts_env
    assert voronoi.bts_ids == world.voronoi.bts_ids
    assert voronoi.labels.tobytes() == world.voronoi.labels.tobytes()
    assert env_grid.dtype == world.env_grid.dtype
    assert env_grid.tobytes() == world.env_grid.tobytes()


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
        x, y = cfg.grid.centers(*cfg.grid.rowcol_of_id(settlements.ids))
        oracle = np.column_stack([
            s.power_dbm - extended_hata_db(
                s.freq_mhz, np.hypot(x - s.x, y - s.y) / 1000.0,
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
        return cfg, specs, settlements, env, oracle, evaluated

    def test_kernel_equals_dense_live_levels(self, layout):
        cfg, specs, st, env, oracle, evaluated = layout
        radii = propagation.link_tables(specs, cfg.rx_height_m, cfg.dead_threshold_dbm)[0]
        x, y = cfg.grid.centers(*cfg.grid.rowcol_of_id(st.ids))
        got = rss_field(specs, st.ids, x, y, env, radii_km=radii,
                        candidates=np.ones((len(st), len(specs)), dtype=bool),
                        rx_height_m=cfg.rx_height_m, dead_threshold_dbm=cfg.dead_threshold_dbm)
        live = oracle >= cfg.dead_threshold_dbm
        assert np.array_equal(got.rss_dbm[live], oracle[live])
        assert np.all(got.rss_dbm[~live] == -np.inf)
        assert np.array_equal(got.live, live)
        # the radius probes included
        assert sum(evaluated) < oracle.size / 4

    def test_passes_keep_no_state_between_thresholds(self, layout):
        """Each pass builds its own radius table: a pass at threshold A run
        after one at B makes the same Hata calls and labels as the first
        pass at A, and every pass equals the dense labels at its threshold."""
        cfg, specs, st, env, oracle, evaluated = layout
        runs = []
        for threshold in (-110.0, -95.0, -110.0):
            evaluated.clear()
            grid = best_server_grid(cfg.grid, specs, env.reshape(cfg.grid.shape),
                                    cfg.rx_height_m, threshold)
            np.testing.assert_array_equal(grid.labels.ravel(), _dense_labels(oracle, threshold))
            runs.append((grid.labels.tobytes(), list(evaluated)))
        assert runs[0] == runs[2]
        assert runs[0][0] != runs[1][0]

    def test_streamed_passes_equal_dense_schemes(self, layout):
        cfg, specs, st, env, oracle, evaluated = layout
        env_grid = env.reshape(cfg.grid.shape)
        pw_bsa, pw_idw = (
            settlement_pixel_weights(st, specs, env_grid, rx_height_m=cfg.rx_height_m,
                                     dead_threshold_dbm=cfg.dead_threshold_dbm, idw=idw)
            for idw in (None, (cfg.idw_s, cfg.idw_k))
        )
        assert sum(evaluated) < oracle.size / 4
        dense = RssField(st.ids, [s.bts_id for s in specs], oracle, cfg.dead_threshold_dbm)
        _assert_same_rows(pw_bsa, weights_bsa(dense))
        _assert_same_rows(pw_idw, weights_idw(dense, s=cfg.idw_s, k=cfg.idw_k))
        sel = pw_bsa.col[:, 0]
        assert pw_bsa.w is None and pw_bsa.col.shape == (len(st), 1)
        assert np.any(sel >= 0) and np.any(sel < 0)
        # all pixels are settled in pixel-id order, so the grid pass must agree
        grid = best_server_grid(cfg.grid, specs, env_grid, cfg.rx_height_m,
                                cfg.dead_threshold_dbm)
        np.testing.assert_array_equal(grid.labels.ravel(), sel)

    def test_tiled_pass_equals_dense_oracle(self, layout, monkeypatch):
        cfg, specs, st, env, oracle, evaluated = layout
        # a twin of one site: every one of its links ties exactly with the original's
        twin = specs[7]
        specs = sorted(specs + [AntennaSpec(twin.bts_id + "b", twin.x, twin.y, twin.height_m,
                                            twin.freq_mhz, twin.power_dbm)],
                       key=lambda s: s.bts_id)
        oracle = np.insert(oracle, 8, oracle[:, 7], axis=1)
        tile = 9  # does not divide the 200-pixel grid
        monkeypatch.setattr(simulation, "_TILE", tile)
        got_labels, got_pw, calls = _tiled_run(cfg, specs, env, st.ids, (cfg.idw_s, cfg.idw_k))
        assert 0 < len(calls) < -(-cfg.ncols // tile) * -(-cfg.nrows // tile)  # some skipped
        want_labels = _dense_labels(oracle, cfg.dead_threshold_dbm)
        np.testing.assert_array_equal(got_labels, want_labels)
        assert np.any(want_labels == 7) and np.any(want_labels < 0)
        assert not np.any(want_labels == 8)  # the twin never wins a tie
        dense = RssField(st.ids, [s.bts_id for s in specs], oracle, cfg.dead_threshold_dbm)
        _assert_same_rows(got_pw, weights_idw(dense, s=cfg.idw_s, k=cfg.idw_k))
        assert np.count_nonzero(got_pw.col == 8) > 0  # the twin shares idw rows


def test_settlement_pass_chunks_stay_bounded_with_many_sites(monkeypatch):
    """At country scale (1,500 sites) every `rss_field` call of the grid
    pass holds at most `_RSS_ENTRIES` links, and every call of the
    settlement pass, whose blocks get idw rows, a quarter of that; lifting
    both caps changes no byte.  The sites are twins, one spec
    at one position inside the grid: their level bounds are equal, so
    level pruning keeps every one of them in every cell."""
    cfg = SimConfig(ncols=60, nrows=60, block_px=60, mask_rect=None)
    rng = np.random.default_rng(4)
    specs = [AntennaSpec(f"s{j:04d}", 2950.0, 3020.0, 30.0, 900.0, 47.0) for j in range(1500)]
    settled = rng.integers(0, 2, cfg.grid.shape).astype(float)
    settlements = extract_settlements(SettlementRaster(cfg.grid, settled))
    env = rng.integers(0, 3, cfg.grid.shape).astype(np.uint8)
    sizes = []
    kernel = simulation.rss_field

    def recording(*args, **kwargs):
        field = kernel(*args, **kwargs)
        sizes.append(field.rss_dbm.size)
        return field

    def both_passes():
        sizes.clear()
        grid = best_server_grid(cfg.grid, specs, env, cfg.rx_height_m, cfg.dead_threshold_dbm)
        grid_sizes = list(sizes)
        pw = settlement_pixel_weights(settlements, specs, env, rx_height_m=cfg.rx_height_m,
                                      dead_threshold_dbm=cfg.dead_threshold_dbm,
                                      idw=(cfg.idw_s, cfg.idw_k))
        return grid, pw, grid_sizes, sizes[len(grid_sizes):]

    monkeypatch.setattr(simulation, "rss_field", recording)
    grid, bounded, grid_sizes, settled_sizes = both_passes()
    assert len(grid_sizes) > 1 and max(grid_sizes) <= simulation._RSS_ENTRIES
    assert len(settled_sizes) > 1 and max(settled_sizes) <= simulation._RSS_ENTRIES // 4
    assert max(settled_sizes) > simulation._RSS_ENTRIES // 8
    assert bounded.covered.any()
    # the one 60 x 60 tile, whole, in both passes
    monkeypatch.setattr(simulation, "_RSS_ENTRIES", 4 * cfg.grid.npixels * len(specs))
    grid_whole, whole, grid_sizes, settled_sizes = both_passes()
    assert len(grid_sizes) == len(settled_sizes) == 1
    assert grid.labels.tobytes() == grid_whole.labels.tobytes()
    for name in ("pixel_ids", "col", "w"):
        assert getattr(bounded, name).tobytes() == getattr(whole, name).tobytes(), name


def test_settlement_idw_pass_holds_its_buffers_and_one_block(monkeypatch):
    """The traced peak of `settlement_pixel_weights` with idw rows stays
    under its padded row buffers, one idw block's working set and
    candidate mask, and its two grids.  The one tile's 16,384 settled
    pixels and 70 twin sites (level pruning keeps every twin everywhere)
    make 1.1M links, which the pass takes in nine idw blocks of a quarter
    of `_RSS_ENTRIES` = 2^19 links; a candidate mask over the whole group
    (1.1 MB) would break the bound."""
    monkeypatch.setattr(simulation, "_RSS_ENTRIES", 1 << 19)
    cfg = SimConfig(ncols=128, nrows=128, block_px=128, mask_rect=None)
    specs = [AntennaSpec(f"s{j:03d}", 6400.0, 6400.0, 30.0, 900.0, 47.0) for j in range(70)]
    settlements = extract_settlements(SettlementRaster(cfg.grid, np.ones(cfg.grid.shape)))
    env = np.random.default_rng(2).integers(0, 3, cfg.grid.shape).astype(np.uint8)
    out = []
    peak = traced_peak(lambda: out.append(settlement_pixel_weights(
        settlements, specs, env, rx_height_m=cfg.rx_height_m,
        dead_threshold_dbm=cfg.dead_threshold_dbm, idw=(cfg.idw_s, cfg.idw_k))))
    [pw] = out
    n, npx = len(settlements), cfg.grid.npixels
    assert pw.col.shape == (n, cfg.idw_k) and pw.col.dtype == np.int32
    assert pw.covered.mean() > 0.9
    links = simulation._RSS_ENTRIES // 4
    assert n * len(specs) > 8 * links
    bound = (12 * n * cfg.idw_k   # padded int32 columns and float64 weights
             + 8 * npx            # the int32 labels of the set and settlement-index grid
             + 33 * links         # a block's levels, live mask, negated copy, order and mask
             + 96 * npx)          # the tile's per-pixel arrays
    assert peak < bound, (peak, bound)


def test_walk_builds_no_grid_sized_index_map(monkeypatch):
    """A walk finds each tile's pixels of the set by binary search in the
    ascending ids, per tile row, so on a grid of three tile bands its
    traced peak over a sparse set stays under half the 4 B per grid
    pixel that a map from pixel to set index would cost."""
    monkeypatch.setattr(simulation, "_TILE", 128)
    grid = Grid(ncols=384, nrows=384, cell_size_m=100.0)
    assert grid.nrows >= 3 * simulation._TILE
    specs = [AntennaSpec(f"s{j}", fx * 38400.0, fy * 38400.0, 30.0, 900.0, 47.0)
             for j, (fx, fy) in enumerate([(0.2, 0.3), (0.7, 0.2), (0.5, 0.8), (0.9, 0.9)])]
    env = np.random.default_rng(2).integers(0, 3, grid.shape).astype(np.uint8)
    ids = np.arange(0, grid.npixels, 31)
    out = []
    peak = traced_peak(lambda: out.append(simulation._tiled_pass(grid, specs, env, 1.0, -110.0,
                                                                 ids)))
    [(labels, _)] = out
    assert peak < 2 * grid.npixels, (peak, 2 * grid.npixels)
    full = best_server_grid(grid, specs, env, 1.0, -110.0)
    assert labels.tobytes() == full.labels.reshape(-1)[ids].tobytes()
    assert 0.5 < (labels >= 0).mean() < 1.0


def test_study_reduces_the_settlement_rows_before_the_rest_walk(monkeypatch):
    """`_evaluate_round` reduces the settlement walk's idw rows (and its
    bsa one-hot rows) to area weights right after that walk, so the memory
    held when the second walk starts exceeds what was held when the first
    started by less than the rows' own 12 B (an int32 column and a float64
    weight) per entry."""
    cfg = SimConfig.desk(seed=1)
    world = build_world(cfg, 0)
    walk = simulation._tiled_pass
    held = []

    def recording(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return walk(*args, **kwargs)

    monkeypatch.setattr(simulation, "_tiled_pass", recording)
    traced_peak(lambda: simulation._evaluate_round(world, 0))
    assert len(held) == 2
    rows = 12 * cfg.idw_k * len(world.settlements)
    assert held[1] - held[0] < rows, (held[1] - held[0], rows)


@pytest.mark.parametrize("idw, match", [((-1.0, 5), "exponent s"), ((2.0, 0), "k must be")])
def test_idw_parameters_checked_when_no_site_reaches(idw, match):
    """A walk that sends no link to the kernel still rejects bad idw
    parameters, as one that does."""
    cfg = tiny_config()
    settlements = extract_settlements(SettlementRaster(cfg.grid, np.ones(cfg.grid.shape)))
    far = [AntennaSpec("far", 9e5, 9e5, 10.0, 900.0, 20.0)]
    with pytest.raises(ValueError, match=match):
        settlement_pixel_weights(settlements, far, np.zeros(cfg.grid.shape, np.uint8),
                                 rx_height_m=cfg.rx_height_m,
                                 dead_threshold_dbm=cfg.dead_threshold_dbm, idw=idw)


def _dense_labels(levels: np.ndarray, dead_threshold_dbm: float) -> np.ndarray:
    live = levels >= dead_threshold_dbm
    want = np.argmax(np.where(live, levels, -np.inf), axis=1)
    want[~live.any(axis=1)] = -1
    return want


def _tiled_run(cfg, specs, env, pixels=None, idw=None):
    """One walk's labels, in set order, and idw rows (None without
    `idw`), and the (pixels, sites) of its every rss_field call."""
    calls = []
    kernel = simulation.rss_field

    def recording(specs, pixel_ids, *args, **kwargs):
        calls.append((np.size(pixel_ids), len(specs)))
        return kernel(specs, pixel_ids, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "rss_field", recording)
        labels, pw = simulation._tiled_pass(cfg.grid, specs, env.reshape(cfg.grid.shape),
                                            cfg.rx_height_m, cfg.dead_threshold_dbm, pixels,
                                            idw=idw)
    return labels, pw, calls


def _assert_walks(cfg, specs, env, settlements, s, k, labels, want_rows):
    """Each walk's labels, int32 in set order, equal `labels` at its
    pixels, and its idw rows `want_rows(pixels)`: the whole grid at
    rank 1 and at idw's k, and the study's two walks, the settlements at
    idw's k and the other pixels at rank 1.  Returns the walks' kernel
    calls, (pixels, sites) each."""
    npx = cfg.grid.npixels
    rest = np.setdiff1d(np.arange(npx), settlements.ids)
    calls = []
    for pixels, idw in ((None, None), (None, (s, k)), (settlements.ids, (s, k)), (rest, None)):
        walked = np.arange(npx) if pixels is None else pixels
        got, pw, walk_calls = _tiled_run(cfg, specs, env, pixels, idw)
        assert got.dtype == np.int32
        assert got.astype(np.int64).tobytes() == labels[walked].astype(np.int64).tobytes()
        if idw is None:
            assert pw is None
        else:
            _assert_same_rows(pw, want_rows(walked))
        calls += walk_calls
    return calls


def _assert_same_rows(got, want):
    """The same rows, byte for byte in CSR form; the padded widths may
    differ (the walker's is the widest top-k a tile needed)."""
    assert got.scheme == want.scheme and got.bts_ids == want.bts_ids
    assert (got.w is None) == (want.w is None)
    assert got.pixel_ids.dtype == want.pixel_ids.dtype
    assert got.pixel_ids.tobytes() == want.pixel_ids.tobytes()
    _assert_csr(got, pixel_csr(want))


def _assert_csr(got, csr):
    """`got`'s rows equal the CSR rows `csr` = (indptr, col, w) byte for
    byte, entry by entry in row order."""
    for name, a, b in zip(("indptr", "col", "w"), pixel_csr(got), csr):
        assert a.tobytes() == b.tobytes(), name


@st.composite
def _tiled_layout(draw):
    """A small grid, sites on a half-cell lattice with a few technical
    choices, some of them twins of the site before (so levels tie
    exactly), random env and settlements, a tile edge that need not
    divide the grid and a small link cap per `rss_field` call."""
    ncols, nrows = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    cell = draw(st.sampled_from([50.0, 400.0, 1500.0]))
    cfg = SimConfig(ncols=ncols, nrows=nrows, cell_size_m=cell, block_px=1, urban_split=1,
                    mask_rect=None)
    lattice = st.integers(-8, 2 * max(ncols, nrows) + 8)
    specs = []
    for j in range(draw(st.integers(1, 8))):
        if specs and draw(st.booleans()):
            prev = specs[-1]
            site = (prev.x, prev.y, prev.height_m, prev.freq_mhz, prev.power_dbm)
        else:
            site = (draw(lattice) * cell / 2, draw(lattice) * cell / 2,
                    draw(st.sampled_from([2.0, 10.0, 30.0])),
                    draw(st.sampled_from([900.0, 2100.0])), draw(st.sampled_from([20.0, 43.0])))
        specs.append(AntennaSpec(f"b{j}", *site))
    npx = ncols * nrows
    env = np.array(draw(st.lists(st.integers(0, 2), min_size=npx, max_size=npx)), np.uint8)
    settled = np.array(draw(st.lists(st.booleans(), min_size=npx, max_size=npx)))
    settled[draw(st.integers(0, npx - 1))] = True
    raster = SettlementRaster(cfg.grid, settled.reshape(cfg.grid.shape).astype(float))
    return (cfg, specs, env, extract_settlements(raster), draw(st.integers(1, 9)),
            draw(st.integers(1, 40)), draw(st.sampled_from([0.0, 1.0, 2.5])),
            draw(st.integers(1, 4)))


class TestTiledPass:
    @settings(max_examples=150, deadline=None)
    @given(layout=_tiled_layout())
    def test_equals_dense_oracle_and_settlement_pass(self, layout):
        cfg, specs, env, settlements, tile, entries, s, k = layout
        x, y = cfg.grid.pixel_centers()
        levels = np.column_stack([
            sp.power_dbm - extended_hata_db(sp.freq_mhz, np.hypot(x - sp.x, y - sp.y) / 1000.0,
                                            sp.height_m, cfg.rx_height_m, env,
                                            clamp_distance=True)
            for sp in specs
        ])
        labels = _dense_labels(levels, cfg.dead_threshold_dbm)
        ids = [sp.bts_id for sp in specs]

        def dense(pixels):
            return RssField(pixels, ids, levels[pixels], cfg.dead_threshold_dbm)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "_TILE", tile)
            mp.setattr(simulation, "_RSS_ENTRIES", entries)
            calls = _assert_walks(cfg, specs, env, settlements, s, k, labels,
                                  lambda pixels: weights_idw(dense(pixels), s=s, k=k))
            assert all(n * m <= max(entries, m) for n, m in calls)
            bsa = settlement_pixel_weights(settlements, specs, env.reshape(cfg.grid.shape),
                                           rx_height_m=cfg.rx_height_m,
                                           dead_threshold_dbm=cfg.dead_threshold_dbm)
        _assert_same_rows(bsa, weights_bsa(dense(settlements.ids)))


def _far_sites_layout():
    """Five live sites and five far ones that reach every pixel of a
    40 x 40 urban grid but are dead there, every pixel settled: at k >= 8
    the walker keeps fewer sites than min(k, reaching) after pruning and
    must pad its block back to that width."""
    cfg = SimConfig(ncols=40, nrows=40, cell_size_m=100.0, block_px=1, urban_split=1,
                    mask_rect=None)
    specs = [AntennaSpec(f"a{j}", 1500.0 + 250.0 * j, 2000.0 + 150.0 * j, 60.0, 900.0,
                         50.0 + 0.7 * j) for j in range(5)]
    specs += [AntennaSpec(f"f{j}", -15e3 - 1e3 * j, 2000.0, 30.0, 900.0, 43.0) for j in range(5)]
    specs.sort(key=lambda sp: sp.bts_id)
    env = np.full(cfg.grid.npixels, env_code("urban"), np.uint8)
    return cfg, specs, env, extract_settlements(SettlementRaster(cfg.grid, np.ones(cfg.grid.shape)))


_FAR_SITES = _far_sites_layout()


@st.composite
def _pruning_layout(draw):
    """A grid of up to 3 x 3 cells of `_CELL` pixels, edges that the cell
    need not divide, sites on and off the grid (twins of the site
    before among them, so levels tie exactly), weak sites that leave
    pixels with no live link, env codes per pixel or per block, random
    settlements, a tile edge and idw's (s, k)."""
    ncols, nrows = draw(st.integers(20, 90)), draw(st.integers(20, 90))
    cell = draw(st.sampled_from([30.0, 100.0, 400.0]))
    cfg = SimConfig(ncols=ncols, nrows=nrows, cell_size_m=cell, block_px=1, urban_split=1,
                    mask_rect=None)
    lattice = st.integers(-20, max(ncols, nrows) + 20)
    specs = []
    for j in range(draw(st.integers(1, 12))):
        if specs and draw(st.booleans()):
            prev = specs[-1]
            site = (prev.x, prev.y, prev.height_m, prev.freq_mhz, prev.power_dbm)
        else:
            site = (draw(lattice) * cell + draw(st.sampled_from([0.0, 0.5])) * cell,
                    draw(lattice) * cell + draw(st.sampled_from([0.0, 0.5])) * cell,
                    draw(st.sampled_from([2.0, 10.0, 30.0, 60.0])),
                    draw(st.sampled_from([450.0, 900.0, 2100.0])),
                    draw(st.sampled_from([-10.0, 20.0, 43.0])))
        specs.append(AntennaSpec(f"b{j:02d}", *site))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        env = rng.integers(0, 3, (nrows, ncols))
    else:  # one code per 16 x 16 block, so many cells hold a single code
        env = np.kron(rng.integers(0, 3, (-(-nrows // 16), -(-ncols // 16))),
                      np.ones((16, 16), np.int64))[:nrows, :ncols]
    settled = rng.random((nrows, ncols)) < draw(st.sampled_from([0.02, 0.3, 1.0]))
    settled.flat[rng.integers(settled.size)] = True
    settlements = extract_settlements(SettlementRaster(cfg.grid, settled.astype(float)))
    return (cfg, specs, env.astype(np.uint8).ravel(), settlements,
            draw(st.sampled_from([simulation._TILE, 40, 64])),
            draw(st.sampled_from([0.0, 1.0, 2.5])), draw(st.integers(1, 7)))


class TestLevelPruning:
    @settings(max_examples=120, deadline=None)
    @given(layout=_pruning_layout())
    def test_walker_equals_unpruned_dense_selectors(self, layout):
        """Labels and idw rows of the pruned walker, on every pixel set and
        at both ranks, equal the selectors' on `rss_field` over every site
        and pixel."""
        cfg, specs, env, settlements, tile, s, k = layout
        x, y = cfg.grid.pixel_centers()
        npx = cfg.grid.npixels
        radii = propagation.link_tables(specs, cfg.rx_height_m, cfg.dead_threshold_dbm)[0]
        field = rss_field(specs, np.arange(npx), x, y, env, radii_km=radii,
                          candidates=np.ones((npx, len(specs)), dtype=bool),
                          rx_height_m=cfg.rx_height_m, dead_threshold_dbm=cfg.dead_threshold_dbm)
        live = field.live
        labels = bsa_select_chunk(field.rss_dbm, live)

        def rows(pixels):
            return PixelWeights("idw", pixels, field.bts_ids,
                                *idw_rows_chunk(field.rss_dbm[pixels], live[pixels], s, k))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "_TILE", tile)
            _assert_walks(cfg, specs, env, settlements, s, k, labels, rows)

    def test_a_site_weaker_everywhere_is_left_out(self, monkeypatch):
        """A twin 30 dB weaker than a site at one grid corner stays a
        candidate only in the cells nearest the mast, where its bounds
        are widest; the kernel never evaluates it elsewhere."""
        cfg = SimConfig(ncols=96, nrows=96, cell_size_m=50.0, block_px=1, urban_split=1,
                        mask_rect=None)
        specs = [AntennaSpec("a", 0.0, 0.0, 30.0, 900.0, 43.0),
                 AntennaSpec("b", 0.0, 0.0, 30.0, 900.0, 13.0)]
        env = np.full(cfg.grid.shape, env_code("rural"), np.uint8)
        offered = []
        kernel = simulation.rss_field

        def recording(*args, candidates, **kwargs):
            offered.append(np.count_nonzero(candidates, axis=0))
            return kernel(*args, candidates=candidates, **kwargs)

        monkeypatch.setattr(simulation, "rss_field", recording)
        grid = best_server_grid(cfg.grid, specs, env, cfg.rx_height_m, cfg.dead_threshold_dbm)
        assert np.all(grid.labels == 0)
        [per_site] = offered
        assert per_site[0] == cfg.grid.npixels
        assert 0 < per_site[1] <= simulation._CELL ** 2


def test_finer_cells_evaluate_fewer_links(monkeypatch):
    """On a small round with about four sites per 32-pixel cell, the
    study's two walks evaluate fewer Hata links on the walker's cells than
    on 32-pixel cells, counted as perfbench's probe counts them, with the
    same labels and idw rows."""
    cfg = SimConfig(ncols=128, nrows=128, cell_size_m=100.0, block_px=64, population=40_000,
                    urban_pop_per_bts=500.0, rural_pop_per_bts=1000.0, mask_rect=None)
    world = simulation.build_world(cfg, 0)
    assert len(world.specs) >= 3 * (cfg.ncols // 32) * (cfg.nrows // 32)
    hata = propagation.extended_hata_db
    links = []

    def counting(*args, **kwargs):
        loss = hata(*args, **kwargs)
        links.append(np.size(loss))
        return loss

    monkeypatch.setattr(propagation, "extended_hata_db", counting)
    walk = (cfg.grid, world.specs, world.env_grid, cfg.rx_height_m, cfg.dead_threshold_dbm)
    runs = []
    for cell in (simulation._CELL, 32):
        links.clear()
        monkeypatch.setattr(simulation, "_CELL", cell)
        settled, pw = simulation._tiled_pass(*walk, world.settlements.ids,
                                             idw=(cfg.idw_s, cfg.idw_k))
        rest = simulation._tiled_pass(*walk, np.flatnonzero(~world.raster.settled))[0]
        runs.append((sum(links), settled, rest, pw))
    (fine, *labels, rows), (coarse, *want_labels, want_rows) = runs
    assert fine < coarse
    for got, want in zip(labels, want_labels):
        assert got.tobytes() == want.tobytes()
    _assert_same_rows(rows, want_rows)


def _two_level_candidates(levels, sx, sy, box, present, rank, floor_dbm):
    """`level_candidates` as one bound per cell: every site's best level
    read at the highest env code the cell holds, against the `rank`-th
    largest worst level read at the lowest.  Exact too, since levels never
    fall from env code 0 to 2, but loose by an env offset in a mixed cell."""
    x0, x1, y0, y1 = (np.asarray(b, dtype=np.float64)[:, None] for b in box)
    near_km = np.hypot(np.maximum(np.maximum(x0 - sx, sx - x1), 0.0),
                       np.maximum(np.maximum(y0 - sy, sy - y1), 0.0)) / 1000.0
    far_km = np.hypot(np.maximum(np.abs(sx - x0), np.abs(sx - x1)),
                      np.maximum(np.abs(sy - y0), np.abs(sy - y1))) / 1000.0
    grid_km, slack, margin = propagation._LEVEL_KM, propagation._REACH_SLACK, propagation._MARGIN_DB
    i_hi = np.searchsorted(grid_km, near_km / slack, side="right") - 1
    i_lo = np.minimum(np.searchsorted(grid_km, far_km * slack), grid_km.size - 1)
    on = np.asarray(present, dtype=bool)
    site = np.arange(levels.shape[0])
    top = on.shape[1] - 1 - on[:, ::-1].argmax(axis=1)
    hi = np.where(on.any(axis=1)[:, None], levels[site, top[:, None], i_hi] + margin, -np.inf)
    lo = levels[site, on.argmax(axis=1)[:, None], i_lo] - margin
    if rank > site.size:
        return hi >= floor_dbm
    nth = np.sort(lo, axis=1)[:, site.size - rank]
    return hi >= np.maximum(nth, floor_dbm)[:, None]


def test_per_env_bounds_evaluate_fewer_links_on_mixed_cells(monkeypatch):
    """On a small round whose env grid comes in 12-pixel blocks, so most of
    the walker's 16-pixel cells hold two or three env codes, the study's
    two walks give the labels and idw rows of `rss_field` over every site
    and pixel, and evaluate fewer Hata links, counted as perfbench's probe
    counts them, than with one two-level bound per cell."""
    cfg = SimConfig(ncols=128, nrows=128, cell_size_m=100.0, block_px=64, population=40_000,
                    urban_pop_per_bts=500.0, rural_pop_per_bts=1000.0, mask_rect=None)
    world = simulation.build_world(cfg, 0)
    rng = np.random.default_rng(3)
    env = np.kron(rng.integers(0, 3, (11, 11)), np.ones((12, 12), np.int64))[:128, :128]
    env = env.astype(np.uint8)
    cell_codes = [len(np.unique(env[r:r + 16, c:c + 16]))
                  for r in range(0, 128, 16) for c in range(0, 128, 16)]
    assert cell_codes.count(2) >= 10 and cell_codes.count(3) >= 10
    npx, specs = cfg.grid.npixels, world.specs
    x, y = cfg.grid.pixel_centers()
    radii = propagation.link_tables(specs, cfg.rx_height_m, cfg.dead_threshold_dbm)[0]
    field = rss_field(specs, np.arange(npx), x, y, env.ravel(), radii_km=radii,
                      candidates=np.ones((npx, len(specs)), dtype=bool),
                      rx_height_m=cfg.rx_height_m, dead_threshold_dbm=cfg.dead_threshold_dbm)
    settled = world.settlements.ids
    rest = np.flatnonzero(~world.raster.settled)
    want_labels = bsa_select_chunk(field.rss_dbm, field.live).astype(np.int32)
    want_rows = PixelWeights("idw", settled, field.bts_ids,
                             *idw_rows_chunk(field.rss_dbm[settled], field.live[settled],
                                             cfg.idw_s, cfg.idw_k))
    hata = propagation.extended_hata_db
    links = []

    def counting(*args, **kwargs):
        loss = hata(*args, **kwargs)
        links.append(np.size(loss))
        return loss

    monkeypatch.setattr(propagation, "extended_hata_db", counting)
    walk = (cfg.grid, specs, env, cfg.rx_height_m, cfg.dead_threshold_dbm)
    counts = []
    for bound in (simulation.level_candidates, _two_level_candidates):
        links.clear()
        monkeypatch.setattr(simulation, "level_candidates", bound)
        labels, rows = simulation._tiled_pass(*walk, settled, idw=(cfg.idw_s, cfg.idw_k))
        assert labels.tobytes() == want_labels[settled].tobytes()
        _assert_same_rows(rows, want_rows)
        assert simulation._tiled_pass(*walk, rest)[0].tobytes() == want_labels[rest].tobytes()
        counts.append(sum(links))
    per_env, two_level = counts
    assert per_env < 0.9 * two_level


def _assembled_idw_rows(cfg, specs, env, settlements, s, k, tile):
    """Idw rows assembled as the walker once did, as CSR (indptr, col, w):
    per tile, `idw_rows_chunk` on the unpruned block of its settled
    pixels over the sites that reach them, the rows' entries kept as
    owner/column/weight pieces, and one stable sort on the owners to put
    them in settlement order."""
    npx = cfg.grid.npixels
    x, y = cfg.grid.pixel_centers()
    radii = propagation.link_tables(specs, cfg.rx_height_m, cfg.dead_threshold_dbm)[0]
    sx, sy = np.array([[sp.x, sp.y] for sp in specs]).T
    at = np.full(npx, -1)
    at[settlements.ids] = np.arange(len(settlements))
    r, c = np.divmod(np.arange(npx), cfg.ncols)
    tile_of = (r // tile) * cfg.ncols + c // tile
    owner, col, w = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for t in np.unique(tile_of):
        px = np.flatnonzero(tile_of == t)
        here = px[at[px] >= 0]
        if here.size == 0:
            continue
        keep = propagation.reaching_sites(sx, sy, radii.max(axis=1), x[here], y[here])
        if keep.size == 0:
            continue
        field = rss_field([specs[j] for j in keep], here, x[here], y[here], env[here],
                          radii_km=radii[keep], candidates=np.ones((here.size, keep.size), bool),
                          rx_height_m=cfg.rx_height_m, dead_threshold_dbm=cfg.dead_threshold_dbm)
        cols, v = idw_rows_chunk(field.rss_dbm, field.live, s, k)
        entry = cols >= 0
        owner.append(np.repeat(at[here], np.count_nonzero(entry, axis=1)))
        col.append(keep[cols[entry]])
        w.append(v[entry])
    owner = np.concatenate(owner)
    order = np.argsort(owner, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=len(settlements)))])
    return indptr, np.concatenate(col)[order], np.concatenate(w)[order]


def _recorded_walk(cfg, specs, env, settlements, pixels, idw):
    """One walk's labels, in set order, and idw rows, the ranks its
    `level_candidates` calls prune at and, per `rss_field` call, the
    settled flags of its pixels."""
    ranks, kinds = set(), []
    settled = np.zeros(cfg.grid.npixels, bool)
    settled[settlements.ids] = True
    kernel, prune = simulation.rss_field, simulation.level_candidates

    def recording_kernel(specs, pixel_ids, *args, **kwargs):
        kinds.append(set(settled[pixel_ids].tolist()))
        return kernel(specs, pixel_ids, *args, **kwargs)

    def recording_prune(levels, sx, sy, box, present, rank, floor_dbm):
        ranks.add(rank)
        return prune(levels, sx, sy, box, present, rank, floor_dbm)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "rss_field", recording_kernel)
        mp.setattr(simulation, "level_candidates", recording_prune)
        labels, pw = simulation._tiled_pass(cfg.grid, specs, env.reshape(cfg.grid.shape),
                                            cfg.rx_height_m, cfg.dead_threshold_dbm, pixels,
                                            idw=idw)
    return labels, pw, ranks, kinds


class TestStudyWalks:
    @settings(max_examples=100, deadline=None)
    @given(layout=_pruning_layout(), k=st.integers(1, 12))
    @example(layout=(*_FAR_SITES, simulation._TILE, 2.0, 1), k=9)
    def test_equals_assembled_rows_and_rank_one_elsewhere(self, layout, k):
        """The study's two walks, the settlements at idw's k with idw rows
        and the other pixels at rank 1: their labels together equal the
        unpruned selectors' at every pixel, and the in-place idw rows equal
        the piece-and-sort assembly over unpruned tile blocks byte for
        byte, for k up to 12 (numpy sums 8 or more terms pairwise, so the
        top-k width shows).  Each walk prunes at its one rank, so every
        kernel call holds settled pixels only or unsettled pixels only, and
        the unsettled pixels are offered the rank-1 candidates, not idw's k."""
        cfg, specs, env, settlements, tile, s, _ = layout
        x, y = cfg.grid.pixel_centers()
        npx = cfg.grid.npixels
        radii = propagation.link_tables(specs, cfg.rx_height_m, cfg.dead_threshold_dbm)[0]
        field = rss_field(specs, np.arange(npx), x, y, env, radii_km=radii,
                          candidates=np.ones((npx, len(specs)), dtype=bool),
                          rx_height_m=cfg.rx_height_m, dead_threshold_dbm=cfg.dead_threshold_dbm)
        labels = bsa_select_chunk(field.rss_dbm, field.live)
        rest = np.setdiff1d(np.arange(npx), settlements.ids)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "_TILE", tile)
            got, pw, ranks, kinds = _recorded_walk(cfg, specs, env, settlements,
                                                   settlements.ids, (s, k))
            got_rest, no_rows, rest_ranks, rest_kinds = _recorded_walk(cfg, specs, env,
                                                                       settlements, rest, None)
        naive = np.empty(npx, np.int64)
        naive[settlements.ids] = got
        naive[rest] = got_rest
        assert naive.tobytes() == labels.astype(np.int64).tobytes()
        assert no_rows is None
        assert pw.scheme == "idw" and pw.bts_ids == [sp.bts_id for sp in specs]
        assert pw.pixel_ids.tobytes() == settlements.ids.astype(np.int64).tobytes()
        _assert_csr(pw, _assembled_idw_rows(cfg, specs, env, settlements, s, k, tile))
        assert ranks <= {k} and rest_ranks <= {1}
        assert all(kind == {True} for kind in kinds)
        assert all(kind == {False} for kind in rest_kinds)


@settings(max_examples=60, deadline=None)
@given(layout=_pruning_layout(), share=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_a_walk_over_any_id_subset_returns_the_full_walk_at_its_ids(layout, share, seed):
    """A walk over any ascending subset of pixel ids returns, in set order,
    the full-grid walk's labels at those ids, with idw rows and without.
    Its idw rows equal the full-grid idw walk's rows at those ids too
    (k up to 7: below 8 terms a row's sum does not depend on how many
    pads follow its entries)."""
    cfg, specs, env, _, tile, s, k = layout
    ids = np.flatnonzero(np.random.default_rng(seed).random(cfg.grid.npixels) < share)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "_TILE", tile)
        full, _, _ = _tiled_run(cfg, specs, env)
        full_k, full_rows, _ = _tiled_run(cfg, specs, env, None, (s, k))
        assert full_k.tobytes() == full.tobytes()
        for idw in (None, (s, k)):
            got, pw, _ = _tiled_run(cfg, specs, env, ids, idw)
            assert got.dtype == np.int32 and got.tobytes() == full[ids].tobytes()
            if idw is None:
                assert pw is None
            else:
                _assert_same_rows(pw, PixelWeights("idw", ids, full_rows.bts_ids,
                                                   full_rows.col[ids], full_rows.w[ids]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12), s=st.sampled_from([0.0, 1.0, 2.5]))
def test_study_idw_rows_equal_the_settlement_pass(seed, k, s):
    """A round walks the naive links twice, the settlements with idw rows,
    then the other pixels at rank 1.  Its idw rows equal those of
    `settlement_pixel_weights` (the `covmap weights --scheme idw` pass) on
    the same specs and env grid byte for byte, for k from 1 to 12 on
    about 20 sites, and its naive map equals the full-grid best-server map."""
    cfg = tiny_config(seed=seed, idw_k=k, idw_s=s, urban_pop_per_bts=100.0,
                      rural_pop_per_bts=100.0)
    walks = []
    walker = simulation._tiled_pass

    def recording(*args, idw=None):
        out = walker(*args, idw=idw)
        walks.append((args, idw, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "_tiled_pass", recording)
        _, world = simulate_round(cfg, 0, return_world=True)
    assert len(world.specs) == 20
    (true_args, true_idw, _), (args, idw, (sel, pw)), (rest_args, rest_idw, (rest, _)) = walks
    assert len(true_args) == 5 and true_idw is None
    *walk, pixels = args
    assert pixels is world.settlements.ids and idw == (s, k)
    assert all(a is b for a, b in zip(rest_args, walk)) and rest_idw is None
    assert rest_args[5].tobytes() == np.flatnonzero(~world.raster.settled).tobytes()
    grid, naive_specs, naive_env, rx, dead = walk
    want = settlement_pixel_weights(world.settlements, naive_specs, naive_env, rx_height_m=rx,
                                    dead_threshold_dbm=dead, idw=(s, k))
    for name in ("pixel_ids", "col", "w"):
        assert getattr(pw, name).tobytes() == getattr(want, name).tobytes(), name
    naive = np.empty(grid.npixels, np.int32)
    naive[pixels] = sel
    naive[rest_args[5]] = rest
    full = best_server_grid(grid, naive_specs, naive_env, rx, dead)
    assert naive.tobytes() == full.labels.tobytes()


def test_idw_rows_keep_the_unpruned_top_k_width():
    """With k >= 8, how a row's idw weights sum depends on the top-k width
    `idw_rows_chunk` takes.  Far sites that reach the tile's box but are
    dead in its urban pixels are pruned everywhere, so the walker pads
    its block back to min(k, reaching) columns: its rows equal the
    unpruned block's byte for byte, not the rows over the live sites."""
    cfg, specs, env, settlements = _FAR_SITES
    s, k = 2.0, 9
    x, y = cfg.grid.pixel_centers()
    radii = propagation.link_tables(specs, cfg.rx_height_m, cfg.dead_threshold_dbm)[0]
    sx, sy = np.array([[sp.x, sp.y] for sp in specs]).T
    keep = propagation.reaching_sites(sx, sy, radii.max(axis=1), x, y)
    assert keep.size == len(specs)
    field = rss_field(specs, np.arange(x.size), x, y, env, radii_km=radii,
                      candidates=np.ones((x.size, len(specs)), dtype=bool),
                      rx_height_m=cfg.rx_height_m, dead_threshold_dbm=cfg.dead_threshold_dbm)
    live = field.live
    assert live[:, :5].all() and not live[:, 5:].any()
    unpruned = PixelWeights("idw", settlements.ids, field.bts_ids,
                            *idw_rows_chunk(field.rss_dbm, live, s, k))
    live_only = idw_rows_chunk(field.rss_dbm[:, :5], live[:, :5], s, k)
    assert (entries_by_column(*live_only)[2].tobytes()
            != entries_by_column(unpruned.col, unpruned.w)[2].tobytes())
    _, pw, calls = _tiled_run(cfg, specs, env, settlements.ids, (s, k))
    assert calls == [(x.size, k)] and pw.col.shape == (x.size, k)
    _assert_same_rows(pw, unpruned)


def _package_callers(*names: str) -> dict[str, set[str]]:
    """The `module.function` names in the package that call each of `names`."""
    callers: dict[str, set[str]] = {name: set() for name in names}
    for path in sorted(Path(simulation.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if name in callers:
                        callers[name].add(f"{path.stem}.{fn.name}")
    return callers


def test_only_the_walker_calls_the_kernels():
    """`rss_field` has one caller, the tiled walker, and the loss model one,
    the per-link level expression: no second link path in the package.
    The walker alone builds the radius and level tables, with one builder
    call per pass, and culls and prunes sites with them; the level
    expression runs only inside that builder and the kernel."""
    names = ("rss_field", "extended_hata_db", "link_tables", "reaching_sites",
             "_levels_dbm", "level_candidates")
    assert _package_callers(*names) == {
        "rss_field": {"simulation._tiled_pass"},
        "extended_hata_db": {"propagation._levels_dbm"},
        "link_tables": {"simulation._tiled_pass"},
        "reaching_sites": {"simulation._tiled_pass"},
        "_levels_dbm": {"propagation.link_tables", "propagation.rss_field"},
        "level_candidates": {"simulation._tiled_pass"},
    }


def test_three_callers_of_the_walker():
    """Every walk is one pixel set at one rank: the full grid at rank 1
    (`best_server_grid`), the settlements (`settlement_pixel_weights`)
    and the study's two naive walks (`_evaluate_round`)."""
    assert _package_callers("_tiled_pass") == {"_tiled_pass": {
        "simulation.best_server_grid", "simulation.settlement_pixel_weights",
        "simulation._evaluate_round",
    }}


def test_one_distance_helper_behind_the_nearest_site_reducers():
    """The cell-pruned block helper has two callers, the nearest-site
    reducers: no second nearest-site distance path in the package."""
    assert _package_callers("_nearest_blocks") == {
        "_nearest_blocks": {"geo.nearest_index", "geo.nearest_two"},
    }


def test_one_area_painter_and_one_point_test():
    """`labels` paints every area through `StatArea.window_on`, a polygon's
    window comes from one helper, and the per-point crossing test serves
    that helper and `locate_points` alone: no second area painter."""
    assert _package_callers("window_on", "_polygon_window", "_points_in_rings") == {
        "window_on": {"geo.labels"},
        "_polygon_window": {"geo.window_on"},
        "_points_in_rings": {"geo._polygon_window", "geo.locate_points"},
    }


def test_three_builders_of_weight_matrices():
    """Area rows come from p2p, from the one pixel-to-area reducer, or
    from a weights file: no second reducer in the package."""
    assert _package_callers("WeightMatrix") == {"WeightMatrix": {
        "mapping.weights_p2p", "mapping.area_weights_from_pixels", "io.load_weights_csv",
    }}


def test_one_claim_model_scores_every_overlap():
    """Both overlap metrics score a claim (labels and a key per site) one
    way: the study calls the two scorers directly, and the assignment
    IoU is the claim IoU keyed by each site's own index."""
    assert _package_callers("area_membership_overlap", "settlement_overlap") == {
        "area_membership_overlap": {"simulation.geographic_overlap", "simulation._evaluate_round"},
        "settlement_overlap": {"simulation._evaluate_round"},
    }


def test_p2p_credit_matches_row_lookup_loop():
    # A0 hosts a, c and e, A1 hosts b, A2 hosts none, and d is off the grid
    g = Grid(ncols=3, nrows=1, cell_size_m=100.0)
    areas = StatAreaSet.from_masks(g, [(f"A{k}", np.arange(3)[None, :] == k) for k in range(3)])
    points = [("a", 10.0, 50.0), ("b", 150.0, 50.0), ("c", 60.0, 40.0), ("d", 900.0, 50.0),
              ("e", 90.0, 90.0)]
    bts_ids = [p[0] for p in points]
    with pytest.warns(UserWarning, match="outside"):
        wm = weights_p2p(points, areas)
    host = areas.locate_points([p[1] for p in points], [p[2] for p in points])
    rng = np.random.default_rng(3)
    area_of = rng.integers(-1, 3, 400)
    server = rng.integers(-1, len(points), 400)
    got = set()
    for i in range(400):
        # one settlement at a time, so the mean is that settlement's credit
        credit = settlement_overlap(area_of[i:i + 1], host, server[i:i + 1])["total"]
        if server[i] < 0:
            assert np.isnan(credit)
            continue
        row = (wm.row(areas.area_ids[area_of[i]]) or {}) if area_of[i] >= 0 else {}
        assert credit == row.get(bts_ids[server[i]], 0.0)
        got.add(credit)
    assert got == {0.0, 1 / 3, 1.0}


# the overlap scorers before the claim model: one IoU over served-pixel
# maps, one over an areas x sites matrix, and a settlement share with a
# separately built p2p credit


def _iou_by_site_before(est_flat, truth_flat, j: int):
    eq = (est_flat == truth_flat) & (est_flat >= 0)
    inter = np.bincount(est_flat[eq], minlength=j)
    na = np.bincount(est_flat[est_flat >= 0], minlength=j)
    nb = np.bincount(truth_flat[truth_flat >= 0], minlength=j)
    return inter, na + nb - inter


def _geographic_overlap_before(est, truth, bts_env=None):
    inter, union = _iou_by_site_before(est.labels.ravel(), truth.labels.ravel(),
                                       len(est.bts_ids))
    return simulation._class_means(inter / np.maximum(union, 1), union > 0,
                                   simulation._site_codes(bts_env))


def _area_membership_overlap_before(area_labels, host_area, truth, bts_env=None):
    j = len(truth.bts_ids)
    t_flat = truth.labels.ravel()
    a_flat = area_labels.ravel()
    host = np.asarray(host_area, dtype=np.int64)
    n_area = max(a_flat.max(initial=-1), host.max(initial=-1)) + 1
    area_sizes = np.bincount(a_flat[a_flat >= 0], minlength=n_area + 1)
    both = (a_flat >= 0) & (t_flat >= 0)
    inter_mat = np.bincount(
        a_flat[both] * j + t_flat[both], minlength=(n_area + 1) * j
    ).reshape(n_area + 1, j)
    t_sizes = np.bincount(t_flat[t_flat >= 0], minlength=j)
    inter = inter_mat[host, np.arange(j)]
    union = area_sizes[host] + t_sizes - inter
    valid = union > 0
    iou = np.zeros(j)
    iou[valid] = inter[valid] / union[valid]
    return simulation._class_means(iou, valid, simulation._site_codes(bts_env))


def _p2p_credit_before(host_area, area_of_settlement, true_server):
    credit = np.zeros(true_server.size)
    ok = (true_server >= 0) & (area_of_settlement >= 0)
    ok[ok] = host_area[true_server[ok]] == area_of_settlement[ok]
    hosted = np.bincount(host_area[host_area >= 0])
    credit[ok] = 1.0 / hosted[area_of_settlement[ok]]
    return credit


def _settlement_overlap_before(est_server, true_server, group_codes=None, credit=None):
    if credit is None:
        credit = (est_server == true_server).astype(np.float64)
    return simulation._class_means(credit, true_server >= 0, group_codes)


def _bits(scores: dict[str, float]) -> dict[str, bytes]:
    """Each score's float64 bytes, so NaN scores compare too."""
    return {k: np.float64(v).tobytes() for k, v in scores.items()}


@st.composite
def _claim_worlds(draw):
    """A truth map, a served-pixel map and an area map with -1 pixels on
    one small grid, host keys that may be -1, shared or past every area
    label, and settlements with their labels on each map."""
    n_sites = draw(st.integers(1, 6))
    n_area = draw(st.integers(1, 4))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    size = nrows * ncols

    def labels(top, n):
        # a few distinct values per draw, so empty unions and shared keys are common
        pool = draw(st.lists(st.integers(-1, top - 1), min_size=1, max_size=3))
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                        dtype=np.int32)

    grid = Grid(ncols=ncols, nrows=nrows, cell_size_m=100.0)
    ids = [f"b{j}" for j in range(n_sites)]
    truth = Assignment(grid, ids, labels(n_sites, size).reshape(grid.shape))
    est = Assignment(grid, ids, labels(n_sites, size).reshape(grid.shape))
    area_labels = labels(n_area, size).reshape(grid.shape)
    host = np.array(draw(st.lists(st.integers(-1, n_area + 2), min_size=n_sites,
                                  max_size=n_sites)), dtype=np.int64)
    env = draw(st.none() | st.lists(st.sampled_from(propagation.ENV_CLASSES),
                                    min_size=n_sites, max_size=n_sites))
    m = draw(st.integers(0, 12))
    true_server = labels(n_sites, m).astype(np.int64)
    est_at = labels(n_sites, m).astype(np.int64)
    area_at = labels(n_area, m).astype(np.int64)
    groups = None
    if draw(st.booleans()):
        groups = np.array(draw(st.lists(st.integers(-1, 2), min_size=m, max_size=m)))
    return truth, est, area_labels, host, env, true_server, est_at, area_at, groups


class TestClaimModelOracle:
    """Both overlap metrics, scored through the claim model, equal the
    scorers they replace byte for byte."""

    @settings(max_examples=500, deadline=None)
    @given(world=_claim_worlds())
    def test_equals_the_scorers_before(self, world):
        truth, est, area_labels, host, env, true_server, est_at, area_at, groups = world
        own = np.arange(len(truth.bts_ids))
        want_geo = _bits(_geographic_overlap_before(est, truth, env))
        assert _bits(geographic_overlap(est, truth, env)) == want_geo
        assert _bits(area_membership_overlap(est.labels, own, truth, env)) == want_geo
        assert (_bits(area_membership_overlap(area_labels, host, truth, env))
                == _bits(_area_membership_overlap_before(area_labels, host, truth, env)))
        assert (_bits(settlement_overlap(est_at, own, true_server, groups))
                == _bits(_settlement_overlap_before(est_at, true_server, groups)))
        credit = _p2p_credit_before(host, area_at, true_server)
        assert (_bits(settlement_overlap(area_at, host, true_server, groups))
                == _bits(_settlement_overlap_before(None, true_server, groups, credit)))


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

    def test_membership_host_without_pixel_centre(self):
        # site b sits in a 10 m square beside the grid that holds no pixel
        # centre, so its host area index lies past every area label
        areas = StatAreaSet.from_polygons([
            ("A0", [np.array([[0, 0], [200, 0], [200, 100], [0, 100], [0, 0]], float)]),
            ("A1", [np.array([[400, 0], [410, 0], [410, 10], [400, 10], [400, 0]], float)]),
        ])
        area_labels = areas.labels(self.grid())
        host = areas.locate_points([50.0, 405.0], [50.0, 5.0])
        assert area_labels.max() == 0 and host.tolist() == [0, 1]
        truth = Assignment(self.grid(), ["a", "b"], np.array([[0, 0, 1, -1]]))
        out = area_membership_overlap(area_labels, host, truth, ["urban", "rural"])
        # a: area 0 = {0, 1}, true tile {0, 1}; b: empty claim, true tile {2}
        assert out == {"total": 0.5, "urban": 1.0, "rural": 0.0}

    def test_membership_no_host_scores_zero(self):
        truth = Assignment(self.grid(), ["a"], np.array([[0, 0, -1, -1]]))
        out = area_membership_overlap(np.array([[0, 0, 1, 1]]), np.array([-1]), truth)
        assert out["total"] == 0.0


class TestSettlementOverlap:
    def test_matches_and_uncovered(self):
        est = np.array([0, 1, 0])
        true = np.array([0, -1, 1])
        assert settlement_overlap(est, np.arange(2), true)["total"] == pytest.approx(0.5)

    def test_group_split(self):
        est = np.array([0, 0, 1, 1])
        true = np.array([0, 1, 1, 1])
        groups = np.array([0, 0, 2, 2])
        out = settlement_overlap(est, np.arange(2), true, groups)
        assert out["total"] == pytest.approx(3 / 4)
        assert out["urban"] == pytest.approx(1 / 2)
        assert out["rural"] == 1.0

    def test_fractional_credit(self):
        # sites 0 and 1 share host area 0, site 2 alone hosts area 1, and
        # site 3 sits outside every area
        host = np.array([0, 0, 1, -1])
        area_of = np.array([0, 0, 1, 1, -1, 0])
        true = np.array([0, 1, 2, 0, 3, -1])
        groups = np.array([0, 0, 2, 0, 2, 2])
        out = settlement_overlap(area_of, host, true, groups)
        # credits 1/2, 1/2, 1, 0 (wrong area) and 0 (no host); the last is uncovered
        assert out == {"total": 0.4, "urban": 1 / 3, "rural": 0.5}

    def test_all_uncovered_is_nan(self):
        out = settlement_overlap(np.array([0]), np.arange(1), np.array([-1]))
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

    def test_idw_exponent_too_large_is_named(self):
        # 1/|rss|^200 underflows to 0 on every live link of some settlement
        cfg = dataclasses.replace(SimConfig.desk(rounds=1, seed=1), idw_s=200.0)
        with pytest.raises(RuntimeError, match=r"round 0 failed .*idw exponent s=200\.0 is too large"):
            simulate_round(cfg, 0)

    def test_values_are_round_ordered(self):
        res = run_study(tiny_config(rounds=3), jobs=1)
        v = res.values("voronoi", "geo_overlap")
        assert v.shape == (3,)
        one = simulate_round(tiny_config(), 1)
        want = [r[4] for r in one if r[1] == "voronoi" and r[2] == "geo_overlap" and r[3] == "total"]
        assert v[1] == want[0]
