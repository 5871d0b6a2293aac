"""Tests for grids, settlement extraction, voronoi assignment and areas."""

import math
from fractions import Fraction

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from covmap import geo
from covmap.geo import (
    UNASSIGNED,
    Assignment,
    Grid,
    SettlementRaster,
    StatArea,
    StatAreaSet,
    extract_settlements,
    nearest_index,
    nearest_two,
    voronoi_assign,
)
from conftest import traced_peak


def _locate_every_point(areas, x, y):
    """`locate_points` on polygons as every area's rings against every point."""
    out = np.full(x.size, UNASSIGNED, dtype=np.int64)
    for idx, a in enumerate(areas.areas):
        hit = geo._points_in_rings(a.rings, x, y) & (out == UNASSIGNED)
        out[hit] = idx
    return out


@st.composite
def _polygons_and_points(draw):
    """Possibly overlapping polygons of one or two rings on a half-unit
    lattice, far from the origin or not, and points on the same lattice
    (so they fall on vertices, edges and box sides), between lattice
    points, or NaN."""
    offset = draw(st.sampled_from([0.0, 1e5, 3.3e7]))
    lattice = st.integers(-8, 8).map(lambda v: offset + v / 2)
    pairs = []
    for k in range(draw(st.integers(1, 6))):
        rings = []
        for _ in range(draw(st.integers(1, 2))):
            pts = draw(st.lists(st.tuples(lattice, lattice), min_size=3, max_size=6))
            rings.append(np.array(pts + pts[:1], dtype=float))
        pairs.append((f"a{k}", rings))
    coord = st.one_of(lattice, st.floats(offset - 5, offset + 5), st.just(float("nan")))
    n = draw(st.integers(0, 40))
    x = np.array(draw(st.lists(coord, min_size=n, max_size=n)), dtype=float)
    y = np.array(draw(st.lists(coord, min_size=n, max_size=n)), dtype=float)
    return StatAreaSet.from_polygons(pairs), x, y


def rect_ring(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], dtype=float)


class TestGrid:
    def test_pixel_centers(self):
        g = Grid(ncols=4, nrows=4, cell_size_m=100.0)
        x, y = g.centers([0, 3], [0, 3])
        assert_allclose(x, [50.0, 350.0])
        assert_allclose(y, [350.0, 50.0])  # row 0 is the top row

    def test_pixel_id_roundtrip(self):
        g = Grid(ncols=7, nrows=5, cell_size_m=50.0)
        rng = np.random.default_rng(0)
        r = rng.integers(0, 5, 30)
        c = rng.integers(0, 7, 30)
        rr, cc = g.rowcol_of_id(r * g.ncols + c)
        assert np.array_equal(rr, r) and np.array_equal(cc, c)

    def test_locate_inverts_centers(self):
        g = Grid(ncols=6, nrows=9, cell_size_m=25.0, origin_x=-100.0, origin_y=40.0)
        rr, cc = np.meshgrid(np.arange(9), np.arange(6), indexing="ij")
        x, y = g.centers(rr.ravel(), cc.ravel())
        r2, c2 = g.locate(x, y)
        assert np.array_equal(r2, rr.ravel()) and np.array_equal(c2, cc.ravel())

    def test_locate_off_grid(self):
        g = Grid(ncols=2, nrows=2, cell_size_m=10.0)
        r, c = g.locate([-1.0, 5.0, 20.0], [5.0, 5.0, 5.0])
        assert r[0] == UNASSIGNED and c[0] == UNASSIGNED
        assert r[1] == 1 and c[1] == 0
        assert r[2] == UNASSIGNED  # right edge is exclusive

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(ncols=0, nrows=3, cell_size_m=10.0)
        with pytest.raises(ValueError):
            Grid(ncols=3, nrows=3, cell_size_m=-1.0)
        with pytest.raises(ValueError):
            Grid(ncols=3, nrows=3, cell_size_m=10.0, origin_x=np.nan)


class TestExtractSettlements:
    def test_two_pixel_example(self):
        g = Grid(ncols=2, nrows=2, cell_size_m=100.0)
        s = extract_settlements(SettlementRaster(g, np.array([[0, 3], [1, 0]])))
        assert len(s) == 2
        assert s.ids.tolist() == [1, 2]  # row-major order
        assert s.counts.tolist() == [3.0, 1.0]
        assert_allclose(g.centers(*g.rowcol_of_id(s.ids)), [[150.0, 50.0], [150.0, 50.0]])

    def test_empty_warns(self):
        g = Grid(ncols=3, nrows=3, cell_size_m=100.0)
        with pytest.warns(UserWarning):
            s = extract_settlements(SettlementRaster(g, np.zeros((3, 3))))
        assert len(s) == 0

    def test_nodata_excluded(self):
        g = Grid(ncols=2, nrows=1, cell_size_m=100.0)
        nodata = np.array([[True, False]])
        s = extract_settlements(SettlementRaster(g, np.array([[5, 2]]), nodata))
        assert s.ids.tolist() == [1]

    def test_matches_full_scan_oracle(self):
        rng = np.random.default_rng(42)
        g = Grid(ncols=13, nrows=17, cell_size_m=30.0, origin_x=5.0, origin_y=-7.0)
        counts = rng.integers(0, 4, size=(17, 13))
        nodata = rng.random((17, 13)) < 0.1
        s = extract_settlements(SettlementRaster(g, counts, nodata))
        expected = [
            (r * 13 + c, counts[r, c])
            for r in range(17)
            for c in range(13)
            if counts[r, c] >= 1 and not nodata[r, c]
        ]
        assert s.ids.tolist() == [e[0] for e in expected]
        assert s.counts.tolist() == [float(e[1]) for e in expected]

    def test_negative_counts_rejected(self):
        g = Grid(ncols=2, nrows=1, cell_size_m=100.0)
        with pytest.raises(ValueError):
            SettlementRaster(g, np.array([[-1, 2]]))


def _dense_nearest(x, y, sx, sy):
    """Every point against every site in one matrix: (nearest index with
    ties to the lowest, its squared distance, the second smallest)."""
    d2 = (np.asarray(x, float)[:, None] - sx) ** 2 + (np.asarray(y, float)[:, None] - sy) ** 2
    rows = np.arange(d2.shape[0])
    idx = np.argmin(d2, axis=1)
    first = d2[rows, idx].copy()
    d2[rows, idx] = np.inf
    return idx, first, d2.min(axis=1)


def _assert_both_reducers_dense(x, y, sx, sy):
    idx, first, second = _dense_nearest(x, y, sx, sy)
    got = nearest_two(x, y, sx, sy)
    assert got[0].tobytes() == idx.tobytes()
    assert got[1].tobytes() == first.tobytes()
    assert got[2].tobytes() == second.tobytes()
    assert nearest_index(x, y, sx, sy).tobytes() == idx.tobytes()


def _clusters(rng, n, centres, spread):
    at = rng.integers(0, len(centres), n)
    c = np.asarray(centres, dtype=float)[at]
    return c[:, 0] + rng.normal(0, spread, n), c[:, 1] + rng.normal(0, spread, n)


# several cells even for a few hundred points
_SMALL_CELLS = {"_CELL_POINTS": 4, "_CELLS_PER_SITE": 4}


def _pruning_layouts():
    rng = np.random.default_rng(17)
    lattice = rng.integers(0, 30, (2, 400)).astype(float)
    sites = rng.integers(-10, 40, (2, 12)).astype(float)
    yield "lattice", lattice[0], lattice[1], sites[0], sites[1]
    x, y = _clusters(rng, 500, [(0, 0), (3000, 200), (1500, 2500)], 150.0)
    # sites inside the clusters, between them and far outside the points' box
    sx = np.concatenate([rng.uniform(-200, 3200, 10), [-5e4, 9e4, 1500.0]])
    sy = np.concatenate([rng.uniform(-200, 2700, 10), [3e4, -7e4, -4e4]])
    yield "clustered", x, y, sx, sy
    twins = np.array([[10.0, 10.0], [20.0, 5.0], [10.0, 10.0], [0.0, 25.0], [20.0, 5.0]]).T
    yield "twin sites", lattice[0], lattice[1], twins[0], twins[1]
    line = np.arange(300, dtype=float)
    yield "one row", line, np.full(300, 7.0), sites[0] * 10, sites[1]
    yield "one column", np.full(300, -3.0), line, sites[0], sites[1] * 10
    yield "one point", np.array([12.0]), np.array([4.0]), sites[0], sites[1]
    yield "one point on twin sites", np.array([15.0]), np.array([7.5]), twins[0], twins[1]
    for offset in (5e5, 3e7):
        yield f"offset {offset:g}", lattice[0] + offset, lattice[1] - offset, \
            sites[0] + offset, sites[1] - offset


class TestNearestIndex:
    def test_matches_brute_force_across_chunks(self, monkeypatch):
        monkeypatch.setattr(geo, "_BLOCK_ENTRIES", 7 * 6)  # 7 points a block
        rng = np.random.default_rng(5)
        x, y = rng.uniform(0, 1000, 50), rng.uniform(0, 1000, 50)
        sx, sy = rng.uniform(0, 1000, 6), rng.uniform(0, 1000, 6)
        want = [min(range(6), key=lambda j: ((x[i] - sx[j]) ** 2 + (y[i] - sy[j]) ** 2, j))
                for i in range(50)]
        assert nearest_index(x, y, sx, sy).tolist() == want

    @pytest.mark.parametrize("entries", [1, 20])
    @pytest.mark.parametrize("nsites", [1, 5])
    def test_nearest_two_matches_brute_force_across_blocks(self, monkeypatch, entries, nsites):
        # a block holds entries // nsites points, at least one
        monkeypatch.setattr(geo, "_BLOCK_ENTRIES", entries)
        rng = np.random.default_rng(nsites)
        # integer coordinates on a small square, so exact distance ties abound
        x, y = (rng.integers(0, 6, 40).astype(float) for _ in range(2))
        sx, sy = (rng.integers(0, 6, nsites).astype(float) for _ in range(2))
        idx, first, second = nearest_two(x, y, sx, sy)
        ties = 0
        for i in range(x.size):
            d2 = [(x[i] - sx[j]) ** 2 + (y[i] - sy[j]) ** 2 for j in range(nsites)]
            j = min(range(nsites), key=lambda j: (d2[j], j))
            rest = [d for jj, d in enumerate(d2) if jj != j]
            assert (idx[i], first[i], second[i]) == (j, d2[j], min(rest, default=np.inf))
            ties += bool(rest) and min(rest) == d2[j]
        assert ties > 0 or nsites == 1

    @pytest.mark.parametrize("entries", [1, 50, 1 << 16])
    @pytest.mark.parametrize("layout", list(_pruning_layouts()), ids=lambda v: v[0])
    def test_pruned_cells_match_a_dense_search(self, monkeypatch, layout, entries):
        _, x, y, sx, sy = layout
        for name, value in _SMALL_CELLS.items():
            monkeypatch.setattr(geo, name, value)
        monkeypatch.setattr(geo, "_BLOCK_ENTRIES", entries)
        _assert_both_reducers_dense(x, y, sx, sy)

    def test_cells_prune_sites_and_keep_them_in_index_order(self, monkeypatch):
        for name, value in _SMALL_CELLS.items():
            monkeypatch.setattr(geo, name, value)
        monkeypatch.setattr(geo, "_BLOCK_ENTRIES", 50)
        _, x, y, sx, sy = next(v for v in _pruning_layouts() if v[0] == "clustered")
        for rank in (1, 2):
            blocks = list(geo._nearest_blocks(x, y, sx, sy, rank))
            seen = np.concatenate([pts for pts, _, _ in blocks])
            assert np.array_equal(np.sort(seen), np.arange(x.size))  # each point once
            assert len(blocks) > 1
            assert all(cand.size >= rank and np.all(np.diff(cand) > 0) for _, cand, _ in blocks)
            assert min(cand.size for _, cand, _ in blocks) < sx.size
            assert all(d2.shape == (cand.size, pts.size) for pts, cand, d2 in blocks)
            assert all(d2.size <= max(50, cand.size) for _, cand, d2 in blocks)

    def test_tiny_search_scores_every_site(self, monkeypatch):
        # at most _CELL_POINTS distances: no bounds, every site a candidate
        # (the far ones would be pruned in a bounded cell), blocks still capped
        monkeypatch.setattr(geo, "_BLOCK_ENTRIES", 24)
        _, x, y, sx, sy = next(v for v in _pruning_layouts() if v[0] == "clustered")
        x, y = x[:100], y[:100]
        assert x.size * sx.size <= geo._CELL_POINTS
        for rank in (1, 2):
            blocks = list(geo._nearest_blocks(x, y, sx, sy, rank))
            assert np.array_equal(np.concatenate([pts for pts, _, _ in blocks]), np.arange(x.size))
            assert all(np.array_equal(cand, np.arange(sx.size)) for _, cand, _ in blocks)
            assert all(d2.shape == (sx.size, 1) for _, _, d2 in blocks)
        _assert_both_reducers_dense(x, y, sx, sy)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 120),
        k=st.integers(1, 12),
        step=st.sampled_from([0.5, 1.0, 100.0]),
        offset=st.sampled_from([0.0, 5e5, 3e7]),
        cell_points=st.sampled_from([1, 3, 2048]),
        cells_per_site=st.sampled_from([1, 4]),
        entries=st.sampled_from([1, 7, 1 << 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reducers_equal_a_dense_argmin(self, n, k, step, offset, cell_points,
                                           cells_per_site, entries, seed):
        # lattice points and sites, some sites off the points' box: exact ties abound
        rng = np.random.default_rng(seed)
        x, y = (rng.integers(0, 8, n) * step + offset for _ in range(2))
        sx, sy = (rng.integers(-3, 11, k) * step + offset for _ in range(2))
        with patch.multiple(geo, _CELL_POINTS=cell_points, _CELLS_PER_SITE=cells_per_site,
                            _BLOCK_ENTRIES=entries):
            _assert_both_reducers_dense(x, y, sx, sy)

    def test_bad_inputs_rejected(self):
        assert nearest_index([], [], [1.0], [1.0]).size == 0
        with pytest.raises(ValueError, match="at least one site"):
            nearest_index([0.0], [0.0], [], [])
        with pytest.raises(ValueError, match="finite"):
            nearest_two([0.0, np.nan], [0.0, 1.0], [1.0], [1.0])
        with pytest.raises(ValueError, match="finite"):
            nearest_index([0.0], [0.0], [1.0, np.inf], [1.0, 2.0])


class TestVoronoi:
    def test_single_site_covers_everything(self):
        g = Grid(ncols=5, nrows=4, cell_size_m=100.0)
        a = voronoi_assign(g, [("only", 220.0, 180.0)])
        assert np.all(a.labels == 0)

    def test_tie_goes_to_lowest_bts_id(self):
        g = Grid(ncols=3, nrows=1, cell_size_m=100.0)
        # middle pixel centre (150, 50) is equidistant from both sites
        a = voronoi_assign(g, [("z", 100.0, 50.0), ("a", 200.0, 50.0)])
        assert a.bts_ids == ["a", "z"]
        assert a.labels[0, 1] == 0  # "a" wins the tie

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        g = Grid(ncols=20, nrows=15, cell_size_m=40.0, origin_x=-30.0, origin_y=60.0)
        sites = [(f"s{i:02d}", rng.uniform(-100, 900), rng.uniform(0, 700)) for i in range(9)]
        a = voronoi_assign(g, sites)
        ordered = sorted(sites, key=lambda s: s[0])
        for r in range(15):
            for c in range(20):
                x, y = g.centers(r, c)
                d2 = [(float(x) - s[1]) ** 2 + (float(y) - s[2]) ** 2 for s in ordered]
                assert a.labels[r, c] == int(np.argmin(d2))

    def test_translation_invariance(self):
        rng = np.random.default_rng(11)
        sites = [(f"s{i}", rng.uniform(0, 500), rng.uniform(0, 500)) for i in range(5)]
        g1 = Grid(ncols=10, nrows=10, cell_size_m=50.0)
        g2 = Grid(ncols=10, nrows=10, cell_size_m=50.0, origin_x=1000.0, origin_y=-500.0)
        shifted = [(i, x + 1000.0, y - 500.0) for i, x, y in sites]
        assert np.array_equal(voronoi_assign(g1, sites).labels, voronoi_assign(g2, shifted).labels)

    @settings(max_examples=100, deadline=None)
    @given(ncols=st.integers(1, 30), nrows=st.integers(1, 30), block=st.integers(1, 200),
           sites=st.lists(st.tuples(st.integers(-4, 34), st.integers(-4, 34)), min_size=1,
                          max_size=12))
    def test_banded_labels_equal_the_dense_search(self, ncols, nrows, block, sites):
        """Labelled in bands of whole rows, any band size, the map equals
        one dense argmin over every pixel and site, ties (sites on a
        half-pixel lattice, twins among them) to the lowest index."""
        g = Grid(ncols=ncols, nrows=nrows, cell_size_m=20.0, origin_x=-30.0)
        sx = np.array([-30.0 + 10.0 * a for a, _ in sites])
        sy = np.array([10.0 * b for _, b in sites])
        x, y = g.pixel_centers()
        want = np.argmin((x[:, None] - sx) ** 2 + (y[:, None] - sy) ** 2, axis=1)
        with patch.object(geo, "_BLOCK_ENTRIES", block):
            got = geo.nearest_site_labels(g, sx, sy)
            sites = [(f"s{j:02d}", a, b) for j, (a, b) in enumerate(zip(sx, sy))]
            assignment = voronoi_assign(g, sites)
        assert got.dtype == np.int32 and got.shape == g.shape
        assert got.ravel().tolist() == want.tolist()
        assert assignment.labels.tobytes() == got.tobytes()

    def test_peak_holds_the_labels_and_one_band(self):
        """`voronoi_assign` labels the grid one band of `_BLOCK_ENTRIES`
        pixels at a time, so its traced peak stays under its int32 labels
        plus 64 B per band pixel (the band's centres, the search's buckets
        and distance blocks); whole-grid centres alone would take 16 B per
        grid pixel."""
        g = Grid(ncols=512, nrows=512, cell_size_m=100.0)
        rng = np.random.default_rng(5)
        sites = [(f"s{j:02d}", *rng.uniform(0, 51_200.0, 2)) for j in range(40)]
        assert g.npixels >= 4 * geo._BLOCK_ENTRIES
        out = []
        peak = traced_peak(lambda: out.append(voronoi_assign(g, sites)))
        bound = 4 * g.npixels + 64 * geo._BLOCK_ENTRIES
        assert peak < bound, (peak, bound)
        x, y = g.pixel_centers()
        sx, sy = np.array([s[1] for s in sites]), np.array([s[2] for s in sites])
        assert out[0].labels.ravel().tolist() == nearest_index(x, y, sx, sy).tolist()

    def test_empty_and_duplicate_sites_rejected(self):
        g = Grid(ncols=2, nrows=2, cell_size_m=10.0)
        with pytest.raises(ValueError):
            voronoi_assign(g, [])
        with pytest.raises(ValueError):
            voronoi_assign(g, [("a", 0.0, 0.0), ("a", 5.0, 5.0)])

    def test_assignment_label_validation(self):
        g = Grid(ncols=2, nrows=2, cell_size_m=10.0)
        with pytest.raises(ValueError):
            Assignment(g, ["a"], np.full((2, 2), 3))
        with pytest.raises(ValueError):
            Assignment(g, ["a"], np.zeros((3, 3), dtype=int))


def _polygon_mask(rings, grid: Grid) -> np.ndarray:
    """One polygon area's pixels, as `StatAreaSet.labels` paints them."""
    return StatAreaSet.from_polygons([("a", rings)]).labels(grid) == 0


def _every_centre(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    return grid.centers(*np.indices(grid.shape))


class TestPolygonLabels:
    def test_aligned_rectangle_covers_exact_block(self):
        g = Grid(ncols=4, nrows=4, cell_size_m=100.0)
        mask = _polygon_mask([rect_ring(100.0, 100.0, 300.0, 300.0)], g)
        want = np.zeros((4, 4), dtype=bool)
        want[1:3, 1:3] = True
        assert np.array_equal(mask, want)

    def test_hole_removed_by_even_odd_rule(self):
        g = Grid(ncols=6, nrows=6, cell_size_m=10.0)
        outer = rect_ring(0.0, 0.0, 60.0, 60.0)
        hole = rect_ring(20.0, 20.0, 40.0, 40.0)
        mask = _polygon_mask([outer, hole], g)
        assert mask.sum() == 36 - 4
        assert not mask[3, 3]

    def test_matches_exact_oracle_on_random_triangles(self):
        def side(a, b, px, py):
            # sign of the cross product (b - a) x (p - a), in exact rationals
            ax, ay, bx, by = (Fraction(float(v)) for v in (*a, *b))
            return (bx - ax) * (Fraction(float(py)) - ay) - (by - ay) * (Fraction(float(px)) - ax)

        rng = np.random.default_rng(3)
        g = Grid(ncols=12, nrows=10, cell_size_m=17.0)
        x, y = _every_centre(g)
        for _ in range(25):
            pts = rng.uniform(-20, 220, size=(3, 2))
            ring = np.vstack([pts, pts[:1]])
            mask = _polygon_mask([ring], g)
            want = np.zeros(x.size, dtype=bool)
            for i, (xi, yi) in enumerate(zip(x.ravel(), y.ravel())):
                s = [side(pts[k], pts[(k + 1) % 3], xi, yi) for k in range(3)]
                assert all(v != 0 for v in s), "pixel centre on a triangle edge"
                want[i] = all(v > 0 for v in s) or all(v < 0 for v in s)
            assert np.array_equal(mask, want.reshape(10, 12))

    @pytest.mark.parametrize("seed", range(4))
    def test_window_equals_every_centre_tested(self, seed):
        # random multi-ring polygons, partly or wholly off a grid with an
        # offset origin; the window must leave out no centre the crossing
        # test would put inside
        rng = np.random.default_rng(seed)
        g = Grid(ncols=31, nrows=23, cell_size_m=7.0, origin_x=-50.0, origin_y=120.0)
        x, y = _every_centre(g)
        inside = 0
        for _ in range(40):
            cx, cy = rng.uniform(-120, 280), rng.uniform(40, 360)
            rings = []
            for _ in range(rng.integers(1, 4)):
                n = rng.integers(3, 9)
                pts = np.column_stack([cx + rng.uniform(-90, 90, n), cy + rng.uniform(-90, 90, n)])
                rings.append(np.vstack([pts, pts[:1]]))
            mask = _polygon_mask(rings, g)
            assert np.array_equal(mask, geo._points_in_rings(rings, x, y))
            inside += int(mask.sum())
        assert inside > 0

    def test_open_ring_rejected(self):
        ring = np.array([[0.0, 0.0], [20.0, 0.0], [20.0, 20.0], [0.0, 20.0]])
        with pytest.raises(ValueError, match="not closed"):
            StatAreaSet.from_polygons([("a", [ring])])

    def test_degenerate_ring_rejected(self):
        with pytest.raises(ValueError, match="at least 4 points"):
            StatAreaSet.from_polygons([("a", [np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])])])
        with pytest.raises(ValueError, match="non-finite"):
            StatAreaSet.from_polygons(
                [("a", [np.array([[0.0, 0.0], [1.0, np.nan], [2.0, 0.0], [0.0, 0.0]])])])
        with pytest.raises(ValueError, match="no rings"):
            StatAreaSet.from_polygons([("a", [])]).labels(Grid(ncols=2, nrows=2, cell_size_m=10.0))

    def test_ring_with_an_overflowing_edge_rejected(self):
        # x2 - x1 is inf, so a crossing abscissa could be NaN: refused when
        # the set is made, and when a hand-built area is painted
        ring = np.array([[-1e308, 1.5], [1e308, 4.0], [1e308, -1.0], [-1e308, 1.5]])
        msg = r"^area 'a': ring edges too long for float64$"
        with pytest.raises(ValueError, match=msg):
            StatAreaSet.from_polygons([("a", [ring])])
        with pytest.raises(ValueError, match=msg):
            StatAreaSet([StatArea("a", rings=[ring])]).labels(Grid(ncols=4, nrows=4, cell_size_m=1.0))

    @pytest.mark.parametrize("ring, msg", [
        ([[0.0, 0.0], [20.0, 0.0], [20.0, 20.0], [0.0, 20.0]], "not closed"),
        ([[0.0, 0.0], [20.0, np.nan], [20.0, 20.0], [0.0, 0.0]], "non-finite"),
    ])
    def test_hand_built_area_refuses_a_bad_ring(self, ring, msg):
        # refused when the area is made, so the point lookup and the
        # sizing never read it (they once gave area 0 and 0.0004 km², or NaN)
        with pytest.raises(ValueError, match=msg):
            StatAreaSet([StatArea("a", rings=[np.array(ring)])]).locate_points([10.0], [5.0])
        with pytest.raises(ValueError, match=msg):
            StatAreaSet([StatArea("a", rings=[np.array(ring)])]).area_km2()


def _full_grid_labels(members, grid: Grid) -> np.ndarray:
    """Reference labelling of (area_id, mask, rings) members, masks as
    given: every area painted one at a time, a polygon by the crossing
    test on every pixel centre, and tested for clashes over the whole
    grid; a mask not of the grid's shape is rejected when reached."""
    x, y = _every_centre(grid)
    labels = np.full(grid.shape, UNASSIGNED, dtype=np.int32)
    for idx, (area_id, mask, rings) in enumerate(members):
        if mask is None:
            mask = geo._points_in_rings([np.asarray(r, dtype=float) for r in rings], x, y)
        elif mask.shape != grid.shape:
            raise ValueError(f"area {area_id!r}: mask does not fit grid {grid.shape}")
        clash = mask & (labels != UNASSIGNED)
        if np.any(clash):
            r, c = np.argwhere(clash)[0]
            other = members[labels[r, c]][0]
            raise geo.AreaOverlapError(f"areas {other!r} and {area_id!r} overlap at pixel ({r}, {c})")
        labels[mask] = idx
    return labels


def _assert_paints_as_the_reference(members, grid: Grid) -> str:
    """`labels` of the members equals `_full_grid_labels`: the same raster,
    or an error of the same type and text.  Returns the outcome's kind."""
    areas = StatAreaSet([StatArea(aid, mask=m, rings=r) for aid, m, r in members], grid=grid)
    try:
        want = _full_grid_labels(members, grid)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            areas.labels()
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return "overlap" if isinstance(exc, geo.AreaOverlapError) else "fit"
    assert np.array_equal(areas.labels(), want)
    return "labels"


@st.composite
def _painter_layouts(draw):
    """Small grids, 1-row and 1-column ones among them, with an offset
    origin or none, and up to five areas: masks (sparse, dense, empty, or
    now and then of another shape) and polygons of one to three rings
    (multi-part areas and holes) whose vertices lie on pixel centres,
    pixel edges and corners (a half-cell lattice reaching past the grid),
    on centre rows at any x, or anywhere near the grid; lattice rings give
    horizontal edges, and an area may sit wholly off the grid."""
    nrows, ncols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cell = draw(st.sampled_from([1.0, 7.0, 0.3]))
    ox, oy = draw(st.sampled_from([0.0, -50.0, 3.3e5])), draw(st.sampled_from([0.0, 120.0]))
    grid = Grid(ncols=ncols, nrows=nrows, cell_size_m=cell, origin_x=ox, origin_y=oy)
    # `Grid.centers`' own expression, so an odd half lands on a centre exactly
    lx = st.integers(-3, 2 * ncols + 3).map(lambda h: ox + (h / 2) * cell)
    ly = st.integers(-3, 2 * nrows + 3).map(lambda h: oy + (h / 2) * cell)
    fx = st.floats(ox - 3 * cell, ox + (ncols + 3) * cell)
    fy = st.floats(oy - 3 * cell, oy + (nrows + 3) * cell)
    vertex = st.one_of(st.tuples(lx, ly), st.tuples(fx, ly), st.tuples(fx, fy))
    members = []
    for k in range(draw(st.integers(1, 5))):
        if draw(st.integers(0, 3)) == 0:
            shape = draw(st.sampled_from([grid.shape] * 4 + [(nrows, ncols + 1), (grid.npixels,)]))
            cells = draw(st.lists(st.booleans(), min_size=math.prod(shape),
                                  max_size=math.prod(shape)))
            members.append((f"m{k}", np.array(cells, dtype=bool).reshape(shape), None))
            continue
        shift = draw(st.sampled_from([0.0] * 5 + [(ncols + 4) * cell]))  # wholly off the grid
        rings = []
        for _ in range(draw(st.integers(1, 3))):
            pts = draw(st.lists(vertex, min_size=3, max_size=7))
            ring = np.array(pts + pts[:1], dtype=float)
            ring[:, 0] += shift
            rings.append(ring)
        if draw(st.booleans()):  # a hole: the first ring shrunk towards its first vertex
            rings.append(rings[0][0] + (rings[0] - rings[0][0]) / 2)
        members.append((f"p{k}", None, rings))
    return members, grid


def _reference_km2(members, grid: Grid) -> dict[str, float]:
    """Reference sizes: a mask's pixel count as given, or one `np.sum`
    shoelace per ring added in ring order."""
    out = {}
    for area_id, mask, rings in members:
        if mask is not None:
            out[area_id] = float(mask.sum()) * grid.cell_size_m**2 / 1e6
            continue
        total = 0
        for ring in rings:
            x, y = ring[:, 0], ring[:, 1]
            total += 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))
        out[area_id] = abs(total) / 1e6
    return out


def _random_mask(rng, g: Grid) -> np.ndarray:
    """A sparse, empty, edge-hugging or (now and then) wrong-shaped mask."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return rng.random(g.shape) < 0.03
    if kind == 1:
        return np.zeros(g.shape, dtype=bool)
    if kind == 2:  # the border ring's pixels, sparsely, and one corner
        m = rng.random(g.shape) < 0.2
        m[1:-1, 1:-1] = False
        m[tuple(rng.choice([0, -1], 2))] = True
        return m
    shape = [(g.nrows, g.ncols + 1), (g.nrows - 1, g.ncols), (g.npixels,)][rng.integers(0, 3)]
    return rng.random(shape) < 0.03


class TestStatAreaSet:
    @pytest.mark.parametrize("seed", range(4))
    def test_windowed_labels_equal_a_full_grid_painter(self, seed):
        # random polygons, many partly or wholly off a grid with an offset
        # origin, mixed with sparse, empty, edge-hugging and wrong-shaped
        # masks; the labels, or the error (the first clash, or the first
        # mask that does not fit), and the sizes' bits must equal the
        # full-grid painter's on the masks as given
        rng = np.random.default_rng(seed)
        g = Grid(ncols=31, nrows=23, cell_size_m=7.0, origin_x=-50.0, origin_y=120.0)
        outcomes = {"labels": 0, "overlap": 0, "fit": 0}
        for _ in range(60):
            members = []
            for k in range(rng.integers(1, 6)):
                if rng.random() < 0.4:
                    members.append((f"m{k}", _random_mask(rng, g), None))
                    continue
                cx, cy = rng.uniform(-100, 220), rng.uniform(80, 320)
                n = rng.integers(3, 7)
                pts = np.column_stack([cx + rng.uniform(-40, 40, n), cy + rng.uniform(-40, 40, n)])
                members.append((f"p{k}", None, [np.vstack([pts, pts[:1]])]))
            areas = StatAreaSet([StatArea(aid, mask=m, rings=r) for aid, m, r in members], grid=g)
            for area, (_, mask, _) in zip(areas.areas, members):
                if mask is not None:  # kept as its bounding box, rebuilt as given
                    box = (tuple(slice(int(v.min()), int(v.max()) + 1) for v in np.nonzero(mask))
                           if mask.any() else (slice(0, 0),) * mask.ndim)
                    assert area.window == box and np.array_equal(area.inside, mask[box])
                    assert area.mask.shape == mask.shape and np.array_equal(area.mask, mask)
            got_km2, want_km2 = areas.area_km2(), _reference_km2(members, g)
            assert list(got_km2) == list(want_km2)
            assert [v.hex() for v in got_km2.values()] == [v.hex() for v in want_km2.values()]
            outcomes[_assert_paints_as_the_reference(members, g)] += 1
        assert min(outcomes.values()) > 0, outcomes

    @settings(max_examples=500, deadline=None)
    @given(layout=_painter_layouts())
    def test_labels_equal_the_reference_on_centres_and_edges(self, layout):
        _assert_paints_as_the_reference(*layout)

    def test_clash_messages(self):
        # the raising area is the lowest one that shares a pixel with an
        # earlier area, at its first shared pixel in row-major order, named
        # with that pixel's owner: mask, polygon and mixed sets alike
        g = Grid(ncols=4, nrows=3, cell_size_m=10.0)

        def block(rows, cols):
            m = np.zeros(g.shape, dtype=bool)
            m[rows, cols] = True
            return m

        def rect(rows, cols):  # the polygon over the same pixels
            return [rect_ring(cols.start * 10.0, (3 - rows.stop) * 10.0,
                              cols.stop * 10.0, (3 - rows.start) * 10.0)]

        a, b, c = (slice(0, 2), slice(0, 2)), (slice(1, 3), slice(2, 4)), (slice(0, 3), slice(1, 3))
        for kinds in ("mmm", "ppp", "mpm", "pmp"):
            members = [(aid, block(*box), None) if kind == "m" else (aid, None, rect(*box))
                       for aid, kind, box in zip("abc", kinds, (a, b, c))]
            areas = StatAreaSet([StatArea(aid, mask=m, rings=r) for aid, m, r in members], grid=g)
            with pytest.raises(geo.AreaOverlapError) as got:
                areas.labels()
            # "c" clashes with "a" first at (0, 1) and with "b" at (1, 2)
            assert str(got.value) == "areas 'a' and 'c' overlap at pixel (0, 1)", kinds
        # the second owner wins over an earlier pixel: "b" clashes at (1, 1),
        # "c" already at (0, 0)
        areas = StatAreaSet.from_masks(g, [("a", block(slice(0, 2), slice(0, 2))),
                                           ("b", block(slice(1, 2), slice(1, 4))),
                                           ("c", block(slice(0, 1), slice(0, 1)))])
        with pytest.raises(geo.AreaOverlapError, match=r"^areas 'a' and 'b' overlap at pixel \(1, 1\)$"):
            areas.labels()
        # the owner named is the first shared pixel's, not the lowest area "c" meets
        areas = StatAreaSet.from_masks(g, [("a", block(slice(2, 3), slice(0, 4))),
                                           ("b", block(slice(0, 1), slice(0, 1))),
                                           ("c", block(slice(0, 3), slice(0, 1)))])
        with pytest.raises(geo.AreaOverlapError, match=r"^areas 'b' and 'c' overlap at pixel \(0, 0\)$"):
            areas.labels()

    def test_misfit_raises_where_it_is_reached(self):
        g = Grid(ncols=4, nrows=3, cell_size_m=10.0)
        full, wide = np.ones(g.shape, dtype=bool), np.ones((3, 5), dtype=bool)
        ring = [rect_ring(0.0, 0.0, 10.0, 10.0)]
        misfit = r"^area 'w': mask does not fit grid \(3, 4\)$"
        # a clash after the misfit, or among areas after it, is never reached
        for members in ([("a", full), ("w", wide), ("b", full)],
                        [("w", wide), ("a", full), ("b", full)]):
            with pytest.raises(ValueError, match=misfit) as got:
                StatAreaSet([StatArea(aid, mask=m) for aid, m in members], grid=g).labels()
            assert not isinstance(got.value, geo.AreaOverlapError)
        # a clash before the misfit is
        areas = StatAreaSet([StatArea("a", mask=full), StatArea("p", rings=ring),
                             StatArea("w", mask=wide)], grid=g)
        with pytest.raises(geo.AreaOverlapError, match=r"^areas 'a' and 'p' overlap"):
            areas.labels()

    def test_mask_area_keeps_a_copy_of_its_box(self):
        g = Grid(ncols=6, nrows=5, cell_size_m=10.0)
        mask = np.zeros(g.shape, dtype=bool)
        mask[1, 2] = mask[3, 4] = True
        area = StatArea("a", mask=mask)
        assert area.shape == g.shape and area.window == (slice(1, 4), slice(2, 5))
        assert area.inside.tolist() == [[True, False, False], [False] * 3, [False, False, True]]
        mask[2, 3] = True  # the caller's array is not the area's
        assert not area.mask[2, 3] and area.mask is not area.mask
        empty = StatArea("e", mask=np.zeros(g.shape, dtype=bool))
        assert empty.window == (slice(0, 0), slice(0, 0)) and empty.inside.size == 0
        assert StatAreaSet([empty], grid=g).labels().tolist() == np.full(g.shape, -1).tolist()
        assert StatArea("p", rings=[rect_ring(0, 0, 1, 1)]).mask is None

    def test_labels_from_masks(self):
        g = Grid(ncols=4, nrows=2, cell_size_m=10.0)
        m1 = np.zeros((2, 4), dtype=bool)
        m1[:, :2] = True
        m2 = np.zeros((2, 4), dtype=bool)
        m2[:, 2:3] = True
        areas = StatAreaSet.from_masks(g, [("west", m1), ("mid", m2)])
        labels = areas.labels()
        assert labels[0, 0] == 0 and labels[0, 2] == 1 and labels[0, 3] == UNASSIGNED
        assert areas.labels() is labels  # cached

    def test_cached_labels_are_read_only(self):
        """Every reduction and overlap on a grid shares its cached raster,
        so a caller's write must fail instead of changing theirs."""
        g = Grid(ncols=3, nrows=1, cell_size_m=10.0)
        areas = StatAreaSet.from_masks(g, [("a", np.array([[True, True, False]]))])
        labels = areas.labels()
        for write in (lambda: labels.__setitem__((0, 2), 0),
                      lambda: labels.reshape(-1).__setitem__(2, 0),
                      lambda: labels.fill(0)):
            with pytest.raises(ValueError, match="read-only"):
                write()
        assert areas.labels().tolist() == [[0, 0, UNASSIGNED]]

    def test_overlap_rejected(self):
        g = Grid(ncols=2, nrows=2, cell_size_m=10.0)
        full = np.ones((2, 2), dtype=bool)
        areas = StatAreaSet.from_masks(g, [("a", full), ("b", full)])
        with pytest.raises(ValueError, match="overlap"):
            areas.labels()

    def test_duplicate_ids_rejected(self):
        g = Grid(ncols=2, nrows=2, cell_size_m=10.0)
        m = np.ones((2, 2), dtype=bool)
        with pytest.raises(ValueError, match="duplicate"):
            StatAreaSet.from_masks(g, [("a", m), ("a", ~m)])

    def test_polygon_and_mask_agree(self):
        g = Grid(ncols=10, nrows=10, cell_size_m=10.0)
        ring = rect_ring(20.0, 30.0, 70.0, 80.0)
        from_poly = StatAreaSet.from_polygons([("r", [ring])])
        mask = np.zeros(g.shape, dtype=bool)
        mask[2:7, 2:7] = True  # centre x in [20, 70) and y in [30, 80)
        from_mask = StatAreaSet.from_masks(g, [("r", mask)])
        assert np.array_equal(from_poly.labels(g), from_mask.labels())
        rng = np.random.default_rng(5)
        x, y = rng.uniform(1, 99, 50), rng.uniform(1, 99, 50)
        assert np.array_equal(from_poly.locate_points(x, y), from_mask.locate_points(x, y))

    def test_a_short_edge_warns_of_nothing(self):
        # t = (y - y1) / (y2 - y1) overflows for points off a subnormal
        # edge's band; only points in the band use it
        ring = np.array([[0.0, 0.0], [0.0, 1e-308], [10.0, 5.0], [10.0, 0.0], [0.0, 0.0]])
        areas = StatAreaSet.from_polygons([("a", [ring])])
        assert areas.locate_points([8.0, 2.0], [3.0, 3.0]).tolist() == [0, UNASSIGNED]
        g = Grid(ncols=10, nrows=5, cell_size_m=1.0)
        assert np.array_equal(areas.labels(g) == 0, geo._points_in_rings([ring], *_every_centre(g)))

    @settings(max_examples=200, deadline=None)
    @given(layout=_polygons_and_points())
    def test_locate_points_equals_every_point_tested(self, layout):
        areas, x, y = layout
        np.testing.assert_array_equal(areas.locate_points(x, y),
                                      _locate_every_point(areas, x, y))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_area_km2_equals_the_ring_loop(self, data):
        """Polygon areas of 1-3 rings of 4-40 points (holes among them,
        wound either way), far from the origin or not, and mask areas,
        sized bit for bit as one `np.sum` shoelace per ring added per
        area in ring order."""
        offset = data.draw(st.sampled_from([0.0, 1e5, 3.3e7]))
        coord = st.floats(-1e4, 1e4, allow_nan=False).map(lambda v: offset + v)
        g = Grid(ncols=3, nrows=2, cell_size_m=70.0)
        pairs, masks = [], []
        for k in range(data.draw(st.integers(0, 12))):
            if data.draw(st.integers(0, 4)) == 0:
                masks.append((f"m{k}", np.arange(6).reshape(2, 3) % (k + 2) == 0))
                continue
            rings = []
            for _ in range(data.draw(st.integers(1, 3))):
                n = data.draw(st.integers(3, 39))
                pts = data.draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
                rings.append(np.array(pts + pts[:1], dtype=float))
            if data.draw(st.booleans()):  # a hole: the first ring shrunk, wound opposite
                ring = rings[0]
                rings.append((ring + (ring.mean(axis=0) - ring) / 3)[::-1])
            pairs.append((f"p{k}", rings))
        areas = StatAreaSet(StatAreaSet.from_polygons(pairs).areas
                            + StatAreaSet.from_masks(g, masks).areas, grid=g)
        want = {}
        for a in areas.areas:
            if a.rings is None:
                want[a.area_id] = float(a.mask.sum()) * g.cell_size_m**2 / 1e6
                continue
            total = 0
            for ring in a.rings:
                x, y = ring[:, 0], ring[:, 1]
                total += 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))
            want[a.area_id] = abs(total) / 1e6
        got = areas.area_km2()
        assert list(got) == list(want)
        for aid in want:
            assert got[aid].hex() == want[aid].hex(), aid

    def test_area_km2_mask_areas_need_a_grid(self):
        mask = np.ones((2, 2), dtype=bool)
        areas = StatAreaSet([geo.StatArea("p", rings=[rect_ring(0, 0, 1, 1)]),
                             geo.StatArea("m", mask=mask)])
        with pytest.raises(ValueError, match="mask areas need a grid"):
            areas.area_km2()
        assert areas.area_km2(Grid(ncols=2, nrows=2, cell_size_m=10.0))["m"] == 4e-4

    def test_area_km2(self):
        g = Grid(ncols=4, nrows=4, cell_size_m=100.0)
        mask = np.zeros((4, 4), dtype=bool)
        mask[:2, :3] = True
        by_mask = StatAreaSet.from_masks(g, [("m", mask)]).area_km2()
        assert_allclose(by_mask["m"], 6 * 0.01)
        ring = rect_ring(0.0, 0.0, 500.0, 200.0)
        hole = rect_ring(100.0, 50.0, 200.0, 150.0)[::-1]  # holes wind opposite
        by_poly = StatAreaSet.from_polygons([("p", [ring, hole])]).area_km2()
        assert_allclose(by_poly["p"], (500 * 200 - 100 * 100) / 1e6)

