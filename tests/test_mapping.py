"""Tests for the weighting schemes, aggregation and naive spec synthesis.

Expected values are hand arithmetic or brute-force loop oracles built
independently of the vectorised implementations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from covmap.geo import (
    Grid,
    SettlementRaster,
    StatAreaSet,
    extract_settlements,
    voronoi_assign,
)
from covmap.mapping import (
    CovariateTable,
    PixelWeights,
    WeightMatrix,
    aggregate,
    area_weights_from_pixels,
    classify_areas_by_bts_density,
    synthesize_naive_specs,
    weights_aug_voronoi,
    weights_bsa,
    weights_idw,
    weights_p2p,
    weights_voronoi,
)
from covmap.propagation import RssField


def make_field(pixel_ids, bts_ids, rss, threshold=-110.0):
    return RssField(np.asarray(pixel_ids), list(bts_ids), np.asarray(rss, dtype=float), threshold)


def strip_settlements(counts, cell=100.0):
    counts = np.asarray(counts)
    g = Grid(ncols=counts.shape[1], nrows=counts.shape[0], cell_size_m=cell)
    return g, extract_settlements(SettlementRaster(g, counts))


class TestP2P:
    def test_equal_split_within_area(self):
        g = Grid(ncols=4, nrows=2, cell_size_m=100.0)
        west = np.zeros((2, 4), dtype=bool)
        west[:, :2] = True
        areas = StatAreaSet.from_masks(g, [("w", west), ("e", ~west)])
        pts = [("b1", 50.0, 50.0), ("b2", 150.0, 150.0), ("b3", 50.0, 150.0), ("b4", 250.0, 50.0)]
        wm = weights_p2p(pts, areas)
        assert wm.rows["w"] == {"b1": 1 / 3, "b2": 1 / 3, "b3": 1 / 3}
        assert wm.rows["e"] == {"b4": 1.0}
        assert wm.no_coverage_ids == []

    def test_bts_outside_dropped_with_warning(self):
        g = Grid(ncols=2, nrows=2, cell_size_m=100.0)
        areas = StatAreaSet.from_masks(g, [("a", np.ones((2, 2), dtype=bool))])
        with pytest.warns(UserWarning, match="outside"):
            wm = weights_p2p([("in", 50.0, 50.0), ("out", 900.0, 900.0)], areas)
        assert wm.rows["a"] == {"in": 1.0}
        assert wm.dropped_bts == ["out"]

    def test_area_without_bts_has_no_coverage(self):
        g = Grid(ncols=2, nrows=1, cell_size_m=100.0)
        left = np.array([[True, False]])
        areas = StatAreaSet.from_masks(g, [("l", left), ("r", ~left)])
        wm = weights_p2p([("b", 50.0, 50.0)], areas)
        assert wm.no_coverage_ids == ["r"]
        assert wm.row("r") is None


class TestVoronoiWeights:
    def test_three_one_split(self):
        g = Grid(ncols=4, nrows=1, cell_size_m=100.0)
        areas = StatAreaSet.from_masks(g, [("a", np.ones((1, 4), dtype=bool))])
        assignment = voronoi_assign(g, [("A", 50.0, 50.0), ("B", 480.0, 50.0)])
        wm = weights_voronoi(assignment, areas)
        assert wm.rows["a"] == {"A": 0.75, "B": 0.25}

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        g = Grid(ncols=11, nrows=7, cell_size_m=50.0)
        sites = [(f"s{i}", rng.uniform(0, 550), rng.uniform(0, 350)) for i in range(6)]
        assignment = voronoi_assign(g, sites)
        m = rng.random((7, 11)) < 0.5
        areas = StatAreaSet.from_masks(g, [("one", m), ("two", ~m)])
        wm = weights_voronoi(assignment, areas)
        ordered = sorted(sites, key=lambda s: s[0])
        for aid, mask in (("one", m), ("two", ~m)):
            counts: dict[str, int] = {}
            for r in range(7):
                for c in range(11):
                    if not mask[r, c]:
                        continue
                    x, y = g.centers(r, c)
                    d2 = [(float(x) - s[1]) ** 2 + (float(y) - s[2]) ** 2 for s in ordered]
                    counts[ordered[int(np.argmin(d2))][0]] = (
                        counts.get(ordered[int(np.argmin(d2))][0], 0) + 1
                    )
            want = {b: n / mask.sum() for b, n in counts.items()}
            got = wm.rows[aid]
            assert set(got) == set(want)
            for b in want:
                assert_allclose(got[b], want[b], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(29)
        g = Grid(ncols=9, nrows=9, cell_size_m=30.0)
        sites = [(f"s{i}", rng.uniform(0, 270), rng.uniform(0, 270)) for i in range(4)]
        half = np.zeros((9, 9), dtype=bool)
        half[:4] = True
        areas = StatAreaSet.from_masks(g, [("n", half), ("s", ~half)])
        wm = weights_voronoi(voronoi_assign(g, sites), areas)
        for aid in wm.covered_ids:
            assert_allclose(sum(wm.rows[aid].values()), 1.0, atol=1e-12)


class TestAugVoronoi:
    def test_counts_settlements_only(self):
        counts = np.array([[1, 0, 2, 5]])
        g, settlements = strip_settlements(counts)
        areas = StatAreaSet.from_masks(g, [("a", np.ones((1, 4), dtype=bool))])
        assignment = voronoi_assign(g, [("A", 50.0, 50.0), ("B", 480.0, 50.0)])
        # tiles split 3:1 in pixels, but settled pixels split {2, 1}
        wm = weights_aug_voronoi(assignment, settlements, areas)
        assert_allclose(wm.rows["a"]["A"], 2 / 3)
        assert_allclose(wm.rows["a"]["B"], 1 / 3)

    def test_empty_area_gets_no_coverage(self):
        counts = np.array([[3, 0], [0, 0]])
        g, settlements = strip_settlements(counts)
        top = np.array([[True, True], [False, False]])
        areas = StatAreaSet.from_masks(g, [("t", top), ("b", ~top)])
        assignment = voronoi_assign(g, [("A", 50.0, 150.0)])
        wm = weights_aug_voronoi(assignment, settlements, areas)
        assert wm.rows["t"] == {"A": 1.0}
        assert wm.no_coverage_ids == ["b"]

    def test_uniform_settlement_equals_plain_voronoi(self):
        rng = np.random.default_rng(31)
        g = Grid(ncols=8, nrows=8, cell_size_m=25.0)
        settlements = extract_settlements(SettlementRaster(g, np.ones((8, 8))))
        sites = [(f"s{i}", rng.uniform(0, 200), rng.uniform(0, 200)) for i in range(5)]
        assignment = voronoi_assign(g, sites)
        quad = np.zeros((8, 8), dtype=bool)
        quad[:4, :4] = True
        areas = StatAreaSet.from_masks(g, [("q", quad), ("rest", ~quad)])
        plain = weights_voronoi(assignment, areas)
        aug = weights_aug_voronoi(assignment, settlements, areas)
        assert plain.rows.keys() == aug.rows.keys()
        for aid in plain.rows:
            assert plain.rows[aid].keys() == aug.rows[aid].keys()
            for b in plain.rows[aid]:
                assert_allclose(aug.rows[aid][b], plain.rows[aid][b], atol=1e-12)


class TestBsa:
    def test_strongest_live_link_wins(self):
        counts = np.array([[1, 1]])
        g, settlements = strip_settlements(counts)
        areas = StatAreaSet.from_masks(g, [("a", np.ones((1, 2), dtype=bool))])
        field = make_field(settlements.ids, ["b1", "b2"], [[-50.0, -60.0], [-120.0, -80.0]])
        pw = weights_bsa(field)
        wm = area_weights_from_pixels(pw, settlements, areas)
        assert pw.row(0) == {"b1": 1.0}
        assert pw.row(1) == {"b2": 1.0}  # b1 is dead at pixel 1
        assert wm.rows["a"] == {"b1": 0.5, "b2": 0.5}

    def test_all_dead_pixel_contributes_nothing(self):
        counts = np.array([[1, 1]])
        g, settlements = strip_settlements(counts)
        areas = StatAreaSet.from_masks(g, [("a", np.ones((1, 2), dtype=bool))])
        field = make_field(settlements.ids, ["b1", "b2"], [[-50.0, -60.0], [-120.0, -115.0]])
        pw = weights_bsa(field)
        wm = area_weights_from_pixels(pw, settlements, areas)
        assert not pw.covered[1]
        assert wm.rows["a"] == {"b1": 1.0}

    def test_tie_breaks_to_lowest_bts_id(self):
        counts = np.array([[1]])
        g, settlements = strip_settlements(counts)
        field = make_field(settlements.ids, ["a", "m", "z"], [[-70.0, -70.0, -70.0]])
        assert weights_bsa(field).row(0) == {"a": 1.0}

    def test_whole_area_dead_gets_no_coverage(self):
        counts = np.array([[1, 1]])
        g, settlements = strip_settlements(counts)
        left = np.array([[True, False]])
        areas = StatAreaSet.from_masks(g, [("l", left), ("r", ~left)])
        field = make_field(settlements.ids, ["b1"], [[-60.0], [-130.0]])
        wm = area_weights_from_pixels(weights_bsa(field), settlements, areas)
        assert wm.rows["l"] == {"b1": 1.0}
        assert wm.no_coverage_ids == ["r"]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(37)
        counts = rng.integers(0, 3, size=(6, 9))
        g, settlements = strip_settlements(counts)
        half = np.zeros((6, 9), dtype=bool)
        half[:, :5] = True
        areas = StatAreaSet.from_masks(g, [("w", half), ("e", ~half)])
        ids = ["b1", "b2", "b3"]
        rss = rng.uniform(-130.0, -50.0, size=(len(settlements), 3))
        field = make_field(settlements.ids, ids, rss)
        pw = weights_bsa(field)
        wm = area_weights_from_pixels(pw, settlements, areas)
        raw = {}
        for i in range(len(settlements)):
            best, best_v = None, -np.inf
            for b in sorted(ids):
                v = rss[i, ids.index(b)]
                if v >= -110.0 and v > best_v:
                    best, best_v = b, v
            raw[i] = best
            assert pw.row(i) == ({best: 1.0} if best else {})
        for aid, mask in (("w", half), ("e", ~half)):
            sel = [
                raw[i]
                for i in range(len(settlements))
                if raw[i] and mask[settlements.rows[i], settlements.cols[i]]
            ]
            if not sel:
                assert aid in wm.no_coverage_ids
                continue
            for b in set(sel):
                assert_allclose(wm.rows[aid][b], sel.count(b) / len(sel), atol=1e-12)


class TestIdw:
    def test_two_link_hand_example(self):
        counts = np.array([[1]])
        g, settlements = strip_settlements(counts)
        field = make_field(settlements.ids, ["b1", "b2"], [[-50.0, -100.0]])
        pw = weights_idw(field, s=1.0, k=5)
        assert_allclose([pw.row(0)["b1"], pw.row(0)["b2"]], [2 / 3, 1 / 3], atol=1e-15)
        pw8 = weights_idw(field, s=8.0, k=5)
        assert_allclose(pw8.row(0)["b1"], 256 / 257, atol=1e-15)
        assert_allclose(pw8.row(0)["b2"], 1 / 257, atol=1e-15)

    def test_zero_exponent_is_uniform(self):
        counts = np.array([[1]])
        g, settlements = strip_settlements(counts)
        field = make_field(settlements.ids, ["b1", "b2", "b3"], [[-50.0, -100.0, -130.0]])
        pw = weights_idw(field, s=0.0, k=5)
        # only the two live links share the weight
        assert pw.row(0) == {"b1": 0.5, "b2": 0.5}

    def test_signal_magnitude_clamped_at_one(self):
        counts = np.array([[1]])
        g, settlements = strip_settlements(counts)
        field = make_field(settlements.ids, ["b1", "b2"], [[-0.5, -2.0]])
        pw = weights_idw(field, s=1.0, k=5)
        assert_allclose([pw.row(0)["b1"], pw.row(0)["b2"]], [2 / 3, 1 / 3], atol=1e-15)

    def test_k_limits_links(self):
        counts = np.array([[1]])
        g, settlements = strip_settlements(counts)
        field = make_field(settlements.ids, ["b1", "b2", "b3"], [[-40.0, -50.0, -60.0]])
        pw = weights_idw(field, s=0.0, k=2)
        assert pw.row(0) == {"b1": 0.5, "b2": 0.5}

    def test_matches_brute_force(self):
        rng = np.random.default_rng(41)
        counts = rng.integers(0, 2, size=(5, 8))
        g, settlements = strip_settlements(counts)
        ids = ["a", "f", "q", "z"]
        rss = rng.uniform(-125.0, -45.0, size=(len(settlements), 4))
        field = make_field(settlements.ids, ids, rss)
        s, k = 2.5, 3
        pw = weights_idw(field, s=s, k=k)
        for i in range(len(settlements)):
            live = [(rss[i, ids.index(b)], b) for b in sorted(ids) if rss[i, ids.index(b)] >= -110]
            live.sort(key=lambda t: (-t[0], t[1]))
            chosen = live[:k]
            v = {b: 1.0 / max(abs(r), 1.0) ** s for r, b in chosen}
            tot = sum(v.values())
            want = {b: val / tot for b, val in v.items()} if tot else {}
            got = pw.row(i)
            assert set(got) == set(want)
            for b in want:
                assert_allclose(got[b], want[b], atol=1e-12)

    def test_matches_bsa_argmax_for_large_exponent(self):
        rng = np.random.default_rng(43)
        counts = np.ones((4, 6))
        g, settlements = strip_settlements(counts)
        rss = rng.uniform(-109.0, -40.0, size=(len(settlements), 5))
        field = make_field(settlements.ids, [f"b{i}" for i in range(5)], rss)
        pw_idw = weights_idw(field, s=16.0, k=5)
        pw_bsa = weights_bsa(field)
        for i in range(len(settlements)):
            top_idw = max(pw_idw.row(i).items(), key=lambda t: t[1])[0]
            assert top_idw == next(iter(pw_bsa.row(i)))

    def test_bad_params_rejected(self):
        counts = np.array([[1]])
        g, settlements = strip_settlements(counts)
        field = make_field(settlements.ids, ["b1"], [[-50.0]])
        with pytest.raises(ValueError):
            weights_idw(field, s=-1.0, k=3)
        with pytest.raises(ValueError):
            weights_idw(field, s=2.0, k=0)

    def test_unsorted_columns_rejected(self):
        field = make_field([0], ["b2", "b1"], [[-50.0, -60.0]])
        for build in (weights_bsa, weights_idw):
            with pytest.raises(ValueError, match="ascend by bts_id"):
                build(field)

    def test_misaligned_field_rejected(self):
        counts = np.array([[1, 1]])
        g, settlements = strip_settlements(counts)
        areas = StatAreaSet.from_masks(g, [("a", np.ones((1, 2), dtype=bool))])
        field = make_field([5, 9], ["b1"], [[-50.0], [-60.0]])
        with pytest.raises(ValueError, match="aligned"):
            area_weights_from_pixels(weights_idw(field), settlements, areas)


# levels around the -110 dBm threshold: a small pool makes exact ties
# common, and dead links come both finite and as -inf
_LEVELS = st.one_of(
    st.sampled_from([-np.inf, -130.0, -110.5, -110.0, -80.0, -60.0]),
    st.floats(-160.0, -20.0),
)


@settings(max_examples=300, deadline=None)
@given(
    rss=hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 6)),
                   elements=_LEVELS),
    dead_rows=st.lists(st.integers(0, 11), max_size=4),
)
def test_bsa_is_idw_with_one_link_and_flat_weights(rss, dead_rows):
    # the two selection kernels must agree on ties (lowest bts_id) and on
    # which links are dead, so bsa is idw with k=1 and s=0
    for i in dead_rows:
        if i < rss.shape[0]:
            rss[i] = np.minimum(rss[i], -120.0)
    field = make_field(np.arange(rss.shape[0]), [f"b{j}" for j in range(rss.shape[1])], rss)
    bsa = weights_bsa(field)
    idw = weights_idw(field, s=0.0, k=1)
    np.testing.assert_array_equal(bsa.indptr, idw.indptr)
    np.testing.assert_array_equal(bsa.col, idw.col)
    np.testing.assert_array_equal(bsa.w, idw.w)


class TestAggregate:
    def _table(self):
        return CovariateTable(["b1", "b2", "b3"], {"rate": np.array([2.0, 6.0, 4.0])})

    def test_weighted_mean(self):
        wm = WeightMatrix("bsa", ["a"], {"a": {"b1": 0.25, "b2": 0.75}})
        assert_allclose(aggregate(wm, self._table(), "rate")["a"], 0.25 * 2 + 0.75 * 6)

    def test_constant_covariate_returns_constant(self):
        wm = WeightMatrix("bsa", ["a", "b"], {"a": {"b1": 0.3, "b2": 0.7}, "b": {"b3": 1.0}})
        tab = CovariateTable(["b1", "b2", "b3"], {"rate": np.full(3, 7.5)})
        out = aggregate(wm, tab, "rate")
        assert out == {"a": 7.5, "b": 7.5}

    def test_convexity(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            n = rng.integers(1, 6)
            w = rng.dirichlet(np.ones(n))
            vals = rng.normal(size=n) * 10
            wm = WeightMatrix(
                "x", ["a"], {"a": {f"b{i}": float(w[i]) for i in range(n)}}
            )
            tab = CovariateTable([f"b{i}" for i in range(n)], {"v": vals})
            est = aggregate(wm, tab, "v")["a"]
            assert vals.min() - 1e-12 <= est <= vals.max() + 1e-12

    def test_weighted_median(self):
        wm = WeightMatrix("x", ["a"], {"a": {"b1": 0.3, "b2": 0.3, "b3": 0.4}})
        tab = CovariateTable(["b1", "b2", "b3"], {"v": np.array([1.0, 5.0, 9.0])})
        assert aggregate(wm, tab, "v", statistic="median")["a"] == 5.0

    def test_no_coverage_is_none(self):
        wm = WeightMatrix("x", ["a", "b"], {"a": {"b1": 1.0}})
        tab = CovariateTable(["b1"], {"v": np.array([3.0])})
        assert aggregate(wm, tab, "v") == {"a": 3.0, "b": None}

    def test_missing_covariate_is_loud(self):
        wm = WeightMatrix("x", ["a"], {"a": {"b1": 0.5, "b2": 0.5}})
        tab = CovariateTable(["b1"], {"v": np.array([3.0])})
        with pytest.raises(ValueError, match="b2"):
            aggregate(wm, tab, "v")
        tab2 = CovariateTable(["b1", "b2"], {"v": np.array([3.0, np.nan])})
        with pytest.raises(ValueError, match="b2"):
            aggregate(wm, tab2, "v")

    def test_unknown_statistic_rejected(self):
        wm = WeightMatrix("x", ["a"], {"a": {"b1": 1.0}})
        with pytest.raises(ValueError):
            aggregate(wm, self._table(), "rate", statistic="mode")


class TestContainers:
    def test_weight_matrix_validation(self):
        with pytest.raises(ValueError, match="sum"):
            WeightMatrix("x", ["a"], {"a": {"b1": 0.5, "b2": 0.4}})
        with pytest.raises(ValueError, match="positive"):
            WeightMatrix("x", ["a"], {"a": {"b1": 1.5, "b2": -0.5}})
        with pytest.raises(ValueError, match="unknown area"):
            WeightMatrix("x", ["a"], {"zz": {"b1": 1.0}})
        with pytest.raises(KeyError):
            WeightMatrix("x", ["a"], {}).row("zz")

    def test_weight_matrix_entries_sorted(self):
        wm = WeightMatrix(
            "x", ["b_area", "a_area"],
            {"b_area": {"z": 0.5, "a": 0.5}, "a_area": {"m": 1.0}},
        )
        assert wm.entries() == [
            ("a_area", "m", 1.0),
            ("b_area", "a", 0.5),
            ("b_area", "z", 0.5),
        ]

    def test_pixel_weights_validation(self):
        with pytest.raises(ValueError, match="CSR"):
            PixelWeights("x", [1, 2], ["b"], [0, 1], [0], [1.0])
        with pytest.raises(ValueError, match="sum"):
            PixelWeights("x", [1], ["b", "c"], [0, 2], [0, 1], [0.6, 0.6])
        with pytest.raises(ValueError, match="range"):
            PixelWeights("x", [1], ["b"], [0, 1], [4], [1.0])

    def test_covariate_table_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            CovariateTable(["b", "b"], {"v": np.zeros(2)})
        with pytest.raises(ValueError, match="length"):
            CovariateTable(["b"], {"v": np.zeros(2)})
        tab = CovariateTable(["b"], {"v": np.array([1.0])})
        with pytest.raises(KeyError):
            tab.column("w")
        with pytest.raises(KeyError):
            tab.lookup("nope", "v")


class TestClassify:
    def _areas(self):
        g = Grid(ncols=30, nrows=10, cell_size_m=100.0)
        masks = []
        for i in range(3):
            m = np.zeros((10, 30), dtype=bool)
            m[:, i * 10 : (i + 1) * 10] = True
            masks.append((f"a{i}", m))
        return g, StatAreaSet.from_masks(g, masks)

    def test_dense_area_is_urban(self):
        g, areas = self._areas()
        # a0 is 1 km^2 with 2 BTS -> density 2 > 1
        pts = [("b1", 100.0, 100.0), ("b2", 500.0, 500.0), ("b3", 1500.0, 500.0)]
        classes = classify_areas_by_bts_density(areas, pts, g)
        assert classes["a0"] == "urban"
        # one of three areas (floor(1.5) = 1) is rural: the sparsest is a2
        assert classes["a2"] == "rural"
        assert classes["a1"] == "suburban"

    def test_uniform_density_splits_by_id_order(self):
        g, areas = self._areas()
        classes = classify_areas_by_bts_density(areas, [], g)
        assert classes == {"a0": "rural", "a1": "suburban", "a2": "suburban"}

    def test_urban_rule_takes_precedence(self):
        g = Grid(ncols=2, nrows=1, cell_size_m=100.0)
        left = np.array([[True, False]])
        areas = StatAreaSet.from_masks(g, [("l", left), ("r", ~left)])
        pts = [("b1", 50.0, 25.0), ("b2", 150.0, 25.0), ("b3", 160.0, 30.0)]
        classes = classify_areas_by_bts_density(areas, pts, g)
        # both areas exceed the density threshold; neither may become rural
        assert classes == {"l": "urban", "r": "urban"}


class TestSynthesize:
    def test_band_follows_area_class(self):
        g = Grid(ncols=2, nrows=1, cell_size_m=100.0)
        left = np.array([[True, False]])
        areas = StatAreaSet.from_masks(g, [("l", left), ("r", ~left)])
        classes = {"l": "urban", "r": "rural"}
        specs = synthesize_naive_specs(
            [("b1", 50.0, 25.0), ("b2", 150.0, 25.0)], classes, areas, g
        )
        assert [s.freq_mhz for s in specs] == [2100.0, 900.0]
        assert all(s.height_m == 30.0 and s.power_dbm == 45.0 for s in specs)

    def test_outside_bts_defaults_to_low_band(self):
        g = Grid(ncols=1, nrows=1, cell_size_m=100.0)
        areas = StatAreaSet.from_masks(g, [("a", np.ones((1, 1), dtype=bool))])
        with pytest.warns(UserWarning, match="outside"):
            specs = synthesize_naive_specs([("b1", 999.0, 999.0)], {"a": "urban"}, areas, g)
        assert specs[0].freq_mhz == 900.0
