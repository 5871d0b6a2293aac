"""Tests for grids, settlement extraction, voronoi assignment and areas."""

from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covmap import geo
from covmap.geo import (
    UNASSIGNED,
    Assignment,
    Grid,
    SettlementRaster,
    StatAreaSet,
    extract_settlements,
    nearest_index,
    polygon_to_mask,
    voronoi_assign,
    zonal_count,
)


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
        rr, cc = g.rowcol_of_id(g.pixel_id(r, c))
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
        assert_allclose(s.x, [150.0, 50.0])
        assert_allclose(s.y, [150.0, 50.0])

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


class TestNearestIndex:
    def test_matches_brute_force_across_chunks(self, monkeypatch):
        monkeypatch.setattr(geo, "_CHUNK", 7)
        rng = np.random.default_rng(5)
        x, y = rng.uniform(0, 1000, 50), rng.uniform(0, 1000, 50)
        sx, sy = rng.uniform(0, 1000, 6), rng.uniform(0, 1000, 6)
        want = [min(range(6), key=lambda j: ((x[i] - sx[j]) ** 2 + (y[i] - sy[j]) ** 2, j))
                for i in range(50)]
        assert nearest_index(x, y, sx, sy).tolist() == want


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


class TestPolygonToMask:
    def test_aligned_rectangle_covers_exact_block(self):
        g = Grid(ncols=4, nrows=4, cell_size_m=100.0)
        mask = polygon_to_mask([rect_ring(100.0, 100.0, 300.0, 300.0)], g)
        want = np.zeros((4, 4), dtype=bool)
        want[1:3, 1:3] = True
        assert np.array_equal(mask, want)

    def test_hole_removed_by_even_odd_rule(self):
        g = Grid(ncols=6, nrows=6, cell_size_m=10.0)
        outer = rect_ring(0.0, 0.0, 60.0, 60.0)
        hole = rect_ring(20.0, 20.0, 40.0, 40.0)
        mask = polygon_to_mask([outer, hole], g)
        assert mask.sum() == 36 - 4
        assert not mask[3, 3]

    def test_matches_exact_oracle_on_random_triangles(self):
        def side(a, b, px, py):
            # sign of the cross product (b - a) x (p - a), in exact rationals
            ax, ay, bx, by = (Fraction(float(v)) for v in (*a, *b))
            return (bx - ax) * (Fraction(float(py)) - ay) - (by - ay) * (Fraction(float(px)) - ax)

        rng = np.random.default_rng(3)
        g = Grid(ncols=12, nrows=10, cell_size_m=17.0)
        rr, cc = np.meshgrid(np.arange(10), np.arange(12), indexing="ij")
        x, y = g.centers(rr, cc)
        for _ in range(25):
            pts = rng.uniform(-20, 220, size=(3, 2))
            ring = np.vstack([pts, pts[:1]])
            mask = polygon_to_mask([ring], g)
            want = np.zeros(x.size, dtype=bool)
            for i, (xi, yi) in enumerate(zip(x.ravel(), y.ravel())):
                s = [side(pts[k], pts[(k + 1) % 3], xi, yi) for k in range(3)]
                assert all(v != 0 for v in s), "pixel centre on a triangle edge"
                want[i] = all(v > 0 for v in s) or all(v < 0 for v in s)
            assert np.array_equal(mask, want.reshape(10, 12))

    def test_open_ring_rejected(self):
        g = Grid(ncols=2, nrows=2, cell_size_m=10.0)
        ring = np.array([[0.0, 0.0], [20.0, 0.0], [20.0, 20.0], [0.0, 20.0]])
        with pytest.raises(ValueError, match="not closed"):
            polygon_to_mask([ring], g)

    def test_degenerate_ring_rejected(self):
        g = Grid(ncols=2, nrows=2, cell_size_m=10.0)
        with pytest.raises(ValueError):
            polygon_to_mask([np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])], g)
        with pytest.raises(ValueError):
            polygon_to_mask([np.array([[0.0, 0.0], [1.0, np.nan], [2.0, 0.0], [0.0, 0.0]])], g)


class TestStatAreaSet:
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
        mask = polygon_to_mask([ring], g)
        from_mask = StatAreaSet.from_masks(g, [("r", mask)])
        assert np.array_equal(from_poly.labels(g), from_mask.labels())
        rng = np.random.default_rng(5)
        x, y = rng.uniform(1, 99, 50), rng.uniform(1, 99, 50)
        assert np.array_equal(from_poly.locate_points(x, y), from_mask.locate_points(x, y))

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


class TestZonalCount:
    def test_hand_example(self):
        g = Grid(ncols=4, nrows=1, cell_size_m=10.0)
        labels = np.array([[0, 0, 1, UNASSIGNED]], dtype=np.int32)
        a = Assignment(g, ["p", "q"], labels)
        west = np.array([[True, True, False, False]])
        east = np.array([[False, False, True, True]])
        areas = StatAreaSet.from_masks(g, [("w", west), ("e", east)])
        table = zonal_count(a, areas)
        assert table == {("w", 0): 2.0, ("e", 1): 1.0}

    def test_conservation(self):
        rng = np.random.default_rng(19)
        g = Grid(ncols=12, nrows=9, cell_size_m=10.0)
        labels = rng.integers(-1, 4, size=(9, 12)).astype(np.int32)
        half = np.zeros((9, 12), dtype=bool)
        half[:, :6] = True
        areas = StatAreaSet.from_masks(g, [("l", half), ("r", ~half)])
        table = zonal_count(labels, areas, g)
        assert sum(table.values()) == np.count_nonzero(labels >= 0)
        for (aid, lab), cnt in table.items():
            m = half if aid == "l" else ~half
            assert cnt == np.count_nonzero((labels == lab) & m)

    def test_weighted(self):
        g = Grid(ncols=3, nrows=1, cell_size_m=10.0)
        labels = np.array([[0, 0, 1]], dtype=np.int32)
        areas = StatAreaSet.from_masks(g, [("all", np.ones((1, 3), dtype=bool))])
        w = np.array([[2.0, 3.0, 10.0]])
        assert zonal_count(labels, areas, g, weights=w) == {("all", 0): 5.0, ("all", 1): 10.0}

    def test_bool_mask_input(self):
        g = Grid(ncols=3, nrows=1, cell_size_m=10.0)
        mask = np.array([[True, False, True]])
        areas = StatAreaSet.from_masks(g, [("all", np.ones((1, 3), dtype=bool))])
        assert zonal_count(mask, areas, g) == {("all", 0): 2.0}
