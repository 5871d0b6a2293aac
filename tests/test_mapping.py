"""Tests for the weighting schemes, aggregation and naive spec synthesis.

Expected values are hand arithmetic or brute-force loop oracles built
independently of the vectorised implementations.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from covmap import mapping
from covmap.geo import (
    UNASSIGNED,
    Assignment,
    Grid,
    SettlementRaster,
    StatAreaSet,
    extract_settlements,
    voronoi_assign,
)
from covmap.io import fmt12, weights_csv_string
from covmap.mapping import (
    CovariateTable,
    PixelWeights,
    WeightMatrix,
    _weighted_median,
    aggregate,
    area_weights_from_pixels,
    bsa_pixel_weights,
    bsa_select_chunk,
    classify_areas_by_bts_density,
    idw_rows_chunk,
    synthesize_naive_specs,
    weights_aug_voronoi,
    weights_bsa,
    weights_idw,
    weights_p2p,
    weights_voronoi,
)
from covmap.propagation import RssField
from conftest import traced_held, traced_peak
from weight_rows import entries_by_column, pixel_csr, pixel_row, rows_of, weight_matrix


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
        assert wm.row("w") == {"b1": 1 / 3, "b2": 1 / 3, "b3": 1 / 3}
        assert wm.row("e") == {"b4": 1.0}
        assert wm.no_coverage_ids == []

    def test_bts_outside_dropped_with_warning(self):
        g = Grid(ncols=2, nrows=2, cell_size_m=100.0)
        areas = StatAreaSet.from_masks(g, [("a", np.ones((2, 2), dtype=bool))])
        with pytest.warns(UserWarning, match="outside"):
            wm = weights_p2p([("in", 50.0, 50.0), ("out", 900.0, 900.0)], areas)
        assert wm.row("a") == {"in": 1.0}
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
        assert wm.row("a") == {"A": 0.75, "B": 0.25}

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
            got = wm.row(aid)
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
            assert_allclose(sum(wm.row(aid).values()), 1.0, atol=1e-12)


class TestAugVoronoi:
    def test_counts_settlements_only(self):
        counts = np.array([[1, 0, 2, 5]])
        g, settlements = strip_settlements(counts)
        areas = StatAreaSet.from_masks(g, [("a", np.ones((1, 4), dtype=bool))])
        assignment = voronoi_assign(g, [("A", 50.0, 50.0), ("B", 480.0, 50.0)])
        # tiles split 3:1 in pixels, but settled pixels split {2, 1}
        wm = weights_aug_voronoi(assignment, settlements, areas)
        assert_allclose(wm.row("a")["A"], 2 / 3)
        assert_allclose(wm.row("a")["B"], 1 / 3)

    def test_empty_area_gets_no_coverage(self):
        counts = np.array([[3, 0], [0, 0]])
        g, settlements = strip_settlements(counts)
        top = np.array([[True, True], [False, False]])
        areas = StatAreaSet.from_masks(g, [("t", top), ("b", ~top)])
        assignment = voronoi_assign(g, [("A", 50.0, 150.0)])
        wm = weights_aug_voronoi(assignment, settlements, areas)
        assert wm.row("t") == {"A": 1.0}
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
        assert rows_of(plain).keys() == rows_of(aug).keys()
        for aid in plain.covered_ids:
            assert plain.row(aid).keys() == aug.row(aid).keys()
            for b in plain.row(aid):
                assert_allclose(aug.row(aid)[b], plain.row(aid)[b], atol=1e-12)


class TestBsa:
    def test_strongest_live_link_wins(self):
        counts = np.array([[1, 1]])
        g, settlements = strip_settlements(counts)
        areas = StatAreaSet.from_masks(g, [("a", np.ones((1, 2), dtype=bool))])
        field = make_field(settlements.ids, ["b1", "b2"], [[-50.0, -60.0], [-120.0, -80.0]])
        pw = weights_bsa(field)
        wm = area_weights_from_pixels(pw, areas, g)
        assert pixel_row(pw, 0) == {"b1": 1.0}
        assert pixel_row(pw, 1) == {"b2": 1.0}  # b1 is dead at pixel 1
        assert wm.row("a") == {"b1": 0.5, "b2": 0.5}

    def test_all_dead_pixel_contributes_nothing(self):
        counts = np.array([[1, 1]])
        g, settlements = strip_settlements(counts)
        areas = StatAreaSet.from_masks(g, [("a", np.ones((1, 2), dtype=bool))])
        field = make_field(settlements.ids, ["b1", "b2"], [[-50.0, -60.0], [-120.0, -115.0]])
        pw = weights_bsa(field)
        wm = area_weights_from_pixels(pw, areas, g)
        assert not pw.covered[1]
        assert wm.row("a") == {"b1": 1.0}

    def test_tie_breaks_to_lowest_bts_id(self):
        counts = np.array([[1]])
        g, settlements = strip_settlements(counts)
        field = make_field(settlements.ids, ["a", "m", "z"], [[-70.0, -70.0, -70.0]])
        assert pixel_row(weights_bsa(field), 0) == {"a": 1.0}

    def test_whole_area_dead_gets_no_coverage(self):
        counts = np.array([[1, 1]])
        g, settlements = strip_settlements(counts)
        left = np.array([[True, False]])
        areas = StatAreaSet.from_masks(g, [("l", left), ("r", ~left)])
        field = make_field(settlements.ids, ["b1"], [[-60.0], [-130.0]])
        wm = area_weights_from_pixels(weights_bsa(field), areas, g)
        assert wm.row("l") == {"b1": 1.0}
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
        wm = area_weights_from_pixels(pw, areas, g)
        raw = {}
        for i in range(len(settlements)):
            best, best_v = None, -np.inf
            for b in sorted(ids):
                v = rss[i, ids.index(b)]
                if v >= -110.0 and v > best_v:
                    best, best_v = b, v
            raw[i] = best
            assert pixel_row(pw, i) == ({best: 1.0} if best else {})
        srows, scols = g.rowcol_of_id(settlements.ids)
        for aid, mask in (("w", half), ("e", ~half)):
            sel = [
                raw[i]
                for i in range(len(settlements))
                if raw[i] and mask[srows[i], scols[i]]
            ]
            if not sel:
                assert aid in wm.no_coverage_ids
                continue
            for b in set(sel):
                assert_allclose(wm.row(aid)[b], sel.count(b) / len(sel), atol=1e-12)


class TestIdw:
    def test_two_link_hand_example(self):
        counts = np.array([[1]])
        g, settlements = strip_settlements(counts)
        field = make_field(settlements.ids, ["b1", "b2"], [[-50.0, -100.0]])
        pw = weights_idw(field, s=1.0, k=5)
        row = pixel_row(pw, 0)
        assert_allclose([row["b1"], row["b2"]], [2 / 3, 1 / 3], atol=1e-15)
        pw8 = weights_idw(field, s=8.0, k=5)
        assert_allclose(pixel_row(pw8, 0)["b1"], 256 / 257, atol=1e-15)
        assert_allclose(pixel_row(pw8, 0)["b2"], 1 / 257, atol=1e-15)

    def test_zero_exponent_is_uniform(self):
        counts = np.array([[1]])
        g, settlements = strip_settlements(counts)
        field = make_field(settlements.ids, ["b1", "b2", "b3"], [[-50.0, -100.0, -130.0]])
        pw = weights_idw(field, s=0.0, k=5)
        # only the two live links share the weight
        assert pixel_row(pw, 0) == {"b1": 0.5, "b2": 0.5}

    def test_signal_magnitude_clamped_at_one(self):
        counts = np.array([[1]])
        g, settlements = strip_settlements(counts)
        field = make_field(settlements.ids, ["b1", "b2"], [[-0.5, -2.0]])
        pw = weights_idw(field, s=1.0, k=5)
        row = pixel_row(pw, 0)
        assert_allclose([row["b1"], row["b2"]], [2 / 3, 1 / 3], atol=1e-15)

    def test_k_limits_links(self):
        counts = np.array([[1]])
        g, settlements = strip_settlements(counts)
        field = make_field(settlements.ids, ["b1", "b2", "b3"], [[-40.0, -50.0, -60.0]])
        pw = weights_idw(field, s=0.0, k=2)
        assert pixel_row(pw, 0) == {"b1": 0.5, "b2": 0.5}

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
            got = pixel_row(pw, i)
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
            top_idw = max(pixel_row(pw_idw, i).items(), key=lambda t: t[1])[0]
            assert top_idw == next(iter(pixel_row(pw_bsa, i)))

    def test_vanishing_weights_name_the_exponent(self):
        counts = np.array([[1, 1]])
        g, settlements = strip_settlements(counts)
        # |rss|^400 overflows, so every weight of pixel 0 would be 0; pixel
        # 1's clamped magnitude keeps one weight, so alone it still works
        field = make_field(settlements.ids, ["b1", "b2"], [[-50.0, -60.0], [-0.5, -60.0]])
        with pytest.raises(ValueError, match=r"idw exponent s=400\.0 is too large"):
            weights_idw(field, s=400.0, k=5)
        one = make_field(settlements.ids[1:], ["b1", "b2"], [[-0.5, -60.0]])
        pw = weights_idw(one, s=400.0, k=5)
        assert pixel_row(pw, 0) == {"b1": 1.0, "b2": 0.0}

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
        # the reducer finds each row's area from its pixel id, so an id
        # off the grid is an error, not a wrapped or clipped lookup
        g = Grid(ncols=2, nrows=1, cell_size_m=100.0)
        areas = StatAreaSet.from_masks(g, [("a", np.ones((1, 2), dtype=bool))])
        for ids in ([0, 2], [-1, 1], [5, 9]):
            field = make_field(ids, ["b1"], [[-50.0], [-60.0]])
            with pytest.raises(ValueError, match="outside the 1x2 grid"):
                area_weights_from_pixels(weights_idw(field), areas, g)


@st.composite
def _labelled_world(draw):
    """A random label map (with unassigned pixels) over up to four sites,
    settlement counts and up to three disjoint areas, as masks or as
    rectangles, leaving some pixels outside every area.  Also returns the
    owner area of each pixel (-1 outside), taken from the areas' own
    definitions rather than from their rasterisation."""
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    nbts = draw(st.integers(1, 4))
    labels = draw(hnp.arrays(np.int32, (nrows, ncols), elements=st.integers(UNASSIGNED, nbts - 1)))
    counts = draw(hnp.arrays(np.int64, (nrows, ncols), elements=st.integers(0, 2)))
    grid = Grid(ncols=ncols, nrows=nrows, cell_size_m=10.0)
    assignment = Assignment(grid, ["a", "b", "c", "d"][:nbts], labels)
    nareas = draw(st.integers(1, 3))
    ids = [f"A{k}" for k in range(nareas)]
    if draw(st.booleans()):
        owner = draw(hnp.arrays(np.int64, (nrows, ncols), elements=st.integers(-1, nareas - 1)))
        areas = StatAreaSet.from_masks(grid, [(a, owner == k) for k, a in enumerate(ids)])
        return assignment, counts, owner, areas
    # area k is a rectangle over the column band cuts[k]:cuts[k+1] and
    # the rows r0:r1; its edges lie on pixel edges, so no centre is on one
    cuts = sorted(draw(st.lists(st.integers(0, ncols), min_size=nareas + 1, max_size=nareas + 1)))
    owner = np.full((nrows, ncols), -1)
    pairs = []
    for k, aid in enumerate(ids):
        r0, r1 = sorted(draw(st.lists(st.integers(0, nrows), min_size=2, max_size=2)))
        owner[r0:r1, cuts[k]:cuts[k + 1]] = k
        x0, x1 = cuts[k] * 10.0, cuts[k + 1] * 10.0
        y0, y1 = (nrows - r1) * 10.0, (nrows - r0) * 10.0
        pairs.append((aid, [np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]])]))
    return assignment, counts, owner, StatAreaSet.from_polygons(pairs)


@settings(max_examples=200, deadline=None)
@given(world=_labelled_world())
def test_voronoi_pair_matches_per_area_count(world):
    # brute-force oracle: per area, count the labelled pixels of each
    # site among the area's pixels (all, or settled only) and divide
    assignment, counts, owner, areas = world
    grid, bts_ids, labels = assignment.grid, assignment.bts_ids, assignment.labels
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty raster warns
        settlements = extract_settlements(SettlementRaster(grid, counts))
    for wm, scheme, counted in (
        (weights_voronoi(assignment, areas), "voronoi", np.ones(labels.shape, dtype=bool)),
        (weights_aug_voronoi(assignment, settlements, areas), "aug_voronoi", counts >= 1),
    ):
        want = {}
        for k, aid in enumerate(areas.area_ids):
            tally: dict[str, int] = {}
            for r in range(grid.nrows):
                for c in range(grid.ncols):
                    if owner[r, c] == k and counted[r, c] and labels[r, c] != UNASSIGNED:
                        b = bts_ids[labels[r, c]]
                        tally[b] = tally.get(b, 0) + 1
            if tally:
                want[aid] = {b: n / sum(tally.values()) for b, n in tally.items()}
        assert wm.scheme == scheme and wm.area_ids == areas.area_ids
        assert rows_of(wm) == want


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
    assert bsa.w is None and bsa.col.shape == idw.col.shape == (rss.shape[0], 1)
    np.testing.assert_array_equal(bsa.col, idw.col)
    np.testing.assert_array_equal(np.where(bsa.col >= 0, 1.0, 0.0), idw.w)


def _remasked_bsa(rss_chunk, live_chunk):
    """The best-server selector as it was before it read the field as
    written: dead links re-masked to -inf, then argmax."""
    masked = np.where(live_chunk, rss_chunk, -np.inf)
    sel = np.argmax(masked, axis=1).astype(np.int64)
    sel[~live_chunk.any(axis=1)] = UNASSIGNED
    return sel


def _remasked_idw(rss_chunk, live_chunk, s, k):
    """The idw selector as it was before it read the field as written:
    dead links re-masked to -inf, liveness from the picks' finiteness."""
    n, j = rss_chunk.shape
    kk = min(int(k), j)
    masked = np.where(live_chunk, rss_chunk, -np.inf)
    order = np.argsort(-masked, axis=1, kind="stable")[:, :kk]
    top = np.take_along_axis(masked, order, axis=1)
    sel_live = np.isfinite(top)
    with np.errstate(invalid="ignore", over="ignore"):
        v = np.where(sel_live, 1.0 / np.clip(np.abs(top), 1.0, None) ** s, 0.0)
    tot = np.zeros(n)
    for pick in range(kk):
        tot += v[:, pick]
    counts = sel_live.sum(axis=1).astype(np.int64)
    rows = np.repeat(np.arange(n), kk)[sel_live.ravel()]
    cols = order.ravel()[sel_live.ravel()]
    w = (v / np.where(tot > 0, tot, 1.0)[:, None]).ravel()[sel_live.ravel()]
    reorder = np.lexsort((cols, rows))
    return counts, cols[reorder], w[reorder]


@settings(max_examples=300, deadline=None)
@given(
    rss=hnp.arrays(np.float64, st.tuples(st.integers(0, 10), st.integers(1, 12)),
                   elements=_LEVELS),
    dead_rows=st.lists(st.integers(0, 9), max_size=4),
    k=st.integers(1, 14),
    s=st.sampled_from([0.0, 0.5, 2.0, 3.7]),
)
def test_selectors_equal_the_remasking_selectors(rss, dead_rows, k, s):
    # dead levels come finite and as -inf, with exact ties and all-dead
    # rows; k runs past the block width, and both selectors sum each
    # row's weights in pick order
    for i in dead_rows:
        if i < rss.shape[0]:
            rss[i] = np.minimum(rss[i], -120.0)
    live = make_field(np.arange(rss.shape[0]), [f"b{j}" for j in range(rss.shape[1])], rss).live
    assert bsa_select_chunk(rss, live).tobytes() == _remasked_bsa(rss, live).tobytes()
    col, w = idw_rows_chunk(rss, live, s, k)
    assert col.shape == w.shape == (rss.shape[0], min(k, rss.shape[1]))
    for got, want in zip(entries_by_column(col, w), _remasked_idw(rss, live, s, k)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # the entries keep the selector's order: strongest first, ties to the lower column
    level = np.take_along_axis(rss, np.maximum(col, 0), axis=1)
    later = (col[:, 1:] >= 0) & ((level[:, 1:] > level[:, :-1])
                                 | ((level[:, 1:] == level[:, :-1]) & (col[:, 1:] < col[:, :-1])))
    assert not later.any()


@settings(max_examples=300, deadline=None)
@given(
    rss=hnp.arrays(np.float64, st.tuples(st.integers(0, 10), st.integers(1, 12)),
                   elements=_LEVELS),
    dead=st.lists(st.one_of(st.just(-np.inf), st.floats(-300.0, -110.5)),
                  min_size=1, max_size=6),
    k=st.integers(1, 14),
    s=st.sampled_from([0.0, 0.5, 2.0, 3.7]),
)
# seven live picks, one dead column: a pairwise sum over eight terms
# would round this row differently from the seven-term sum
@example(rss=np.array([[-60.0, -70.0, -80.0, -90.0, -100.0, -65.0, -75.0]]),
         dead=[-np.inf], k=8, s=0.5)
@example(rss=np.array([[-60.0, -70.0, -80.0, -90.0, -100.0, -65.0, -75.0]]),
         dead=[-120.0], k=8, s=0.5)
def test_idw_rows_do_not_depend_on_dead_columns(rss, dead, k, s):
    # a row's entries and weights depend only on its live picks: dead
    # columns appended to the block, finite below the threshold or -inf,
    # change no byte, though they may widen the rows past 8 picks
    live = make_field(np.arange(rss.shape[0]), [f"b{j}" for j in range(rss.shape[1])], rss).live
    wider = np.hstack([rss, np.tile(dead, (rss.shape[0], 1))])
    wider_live = np.hstack([live, np.zeros((rss.shape[0], len(dead)), dtype=bool)])
    for got, want in zip(entries_by_column(*idw_rows_chunk(wider, wider_live, s, k)),
                         entries_by_column(*idw_rows_chunk(rss, live, s, k))):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_field_without_antennas_is_uncovered():
    field = make_field([4, 7, 9], [], np.empty((3, 0)))
    assert bsa_select_chunk(field.rss_dbm, field.live).tolist() == [UNASSIGNED] * 3
    col, w = idw_rows_chunk(field.rss_dbm, field.live, 2.0, 5)
    assert col.shape == w.shape == (3, 0)
    for pw in (weights_bsa(field), weights_idw(field)):
        assert pw.bts_ids == [] and pixel_csr(pw)[0].tolist() == [0, 0, 0, 0]
        assert not pw.covered.any()


def test_idw_rows_hold_their_width_not_the_order():
    """`idw_rows_chunk`'s rows own their bytes: min(k, columns) slots of
    an int64 column and a float64 weight each, not a view that keeps the
    rows x columns order it sorted alive."""
    rng = np.random.default_rng(3)
    n, m, k = 20_000, 40, 5
    rss = rng.uniform(-140.0, -40.0, (n, m))
    live = rss >= -110.0
    held = traced_held(lambda: idw_rows_chunk(rss, live, 2.0, k))
    assert held < 16 * n * k + 64 * 1024, (held, 8 * n * m)


def _dict_area_rows(pw, areas, grid):
    """Reference reducer: the same dense sums, read out into one
    {bts_id: weight} dict per covered area."""
    indptr, col, w = pixel_csr(pw)
    area_of = areas.labels(grid).reshape(-1)[pw.pixel_ids].astype(np.int64)
    denom = np.bincount(area_of[pw.covered & (area_of >= 0)], minlength=len(areas))
    entry_area = np.repeat(area_of, np.diff(indptr))
    keep = entry_area >= 0
    nbts = len(pw.bts_ids)
    combo = entry_area[keep] * nbts + col[keep]
    sums = np.bincount(combo, weights=w[keep], minlength=len(areas) * nbts)
    rows: dict[str, dict[str, float]] = {}
    for flat in np.nonzero(sums)[0]:
        aidx, bidx = divmod(int(flat), nbts)
        rows.setdefault(areas.area_ids[aidx], {})[pw.bts_ids[bidx]] = sums[flat] / denom[aidx]
    return rows


def _dict_aggregate(area_ids, rows, covariates, column, statistic):
    """Reference aggregation: per area, look each BTS up in the table in
    bts_id order and stop at the first absent or NaN covariate."""
    colv = covariates.column(column)
    index = {b: i for i, b in enumerate(covariates.bts_ids)}
    out = {}
    for aid in area_ids:
        row = rows.get(aid)
        if row is None:
            out[aid] = None
            continue
        vals, wgts = np.empty(len(row)), np.empty(len(row))
        for i, (bid, wgt) in enumerate(sorted(row.items())):
            if bid not in index:
                raise ValueError(
                    f"covariate {column!r} missing for BTS {bid!r} (needed by area {aid!r})")
            v = float(colv[index[bid]])
            if not np.isfinite(v):
                raise ValueError(f"covariate {column!r} is missing (NaN) for BTS {bid!r} "
                                 f"(needed by area {aid!r})")
            vals[i], wgts[i] = v, wgt
        out[aid] = float(vals @ wgts) if statistic == "mean" else _weighted_median(vals, wgts)
    return out


def _idw_rows(pixel_ids, bts_ids, rows, width) -> PixelWeights:
    """Idw pixel rows `width` wide: each of `rows`' (columns, weights)
    entries first, then -1 pads with weight 0."""
    col = np.full((len(rows), width), -1, dtype=np.int64)
    w = np.zeros(col.shape)
    for i, (c, v) in enumerate(rows):
        col[i, :len(c)], w[i, :len(c)] = c, v
    return PixelWeights("idw", pixel_ids, bts_ids, col, w)


@st.composite
def _pixel_rows_world(draw):
    """Pixel rows over mask areas in a shuffled id order, with pixels
    outside every area, uncovered pixels, zero weights and areas without
    a covered pixel; plus a covariate table that may lack a weighted BTS
    or hold NaN for one."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    grid = Grid(ncols=ncols, nrows=nrows, cell_size_m=10.0)
    nareas = draw(st.integers(1, 4))
    owner = draw(hnp.arrays(np.int64, (nrows, ncols), elements=st.integers(-1, nareas - 1)))
    ids = draw(st.permutations([f"A{k}" for k in range(nareas)]))
    areas = StatAreaSet.from_masks(grid, [(a, owner == k) for k, a in enumerate(ids)])
    nbts = draw(st.integers(1, 5))
    bts_ids = [f"b{j}" for j in range(nbts)]
    pixel_ids = draw(st.lists(st.integers(0, grid.npixels - 1), min_size=1, unique=True))
    rows = []
    for _ in pixel_ids:
        cols = sorted(draw(st.sets(st.integers(0, nbts - 1))))
        raw = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.01, 10.0),
                            min_size=len(cols), max_size=len(cols)))
        if cols and sum(raw) == 0:
            raw[0] = 1.0
        rows.append((cols, [r / sum(raw) for r in raw]))
    pw = _idw_rows(pixel_ids, bts_ids, rows,
                   max(len(c) for c, _ in rows) + draw(st.integers(0, 2)))
    values = draw(hnp.arrays(np.float64, nbts, elements=st.floats(-100.0, 100.0)))
    gaps = draw(st.lists(st.tuples(st.integers(0, nbts - 1), st.sampled_from(["absent", "nan"])),
                         max_size=2))
    keep = np.ones(nbts, dtype=bool)
    for j, kind in gaps:
        if kind == "nan":
            values[j] = np.nan
        else:
            keep[j] = False
    table_ids = [b for j, b in enumerate(bts_ids) if keep[j]] + ["other"]
    order = draw(st.permutations(range(len(table_ids))))
    table = CovariateTable([table_ids[i] for i in order],
                           {"v": np.append(values[keep], 7.0)[list(order)]})
    return pw, areas, grid, table


@settings(max_examples=300, deadline=None)
@given(world=_pixel_rows_world())
def test_csr_area_rows_equal_the_dict_reference(world):
    pw, areas, grid, table = world
    rows = _dict_area_rows(pw, areas, grid)
    wm = area_weights_from_pixels(pw, areas, grid)
    entries = [(a, b, rows[a][b]) for a in sorted(rows) for b in sorted(rows[a])]
    assert wm.entries() == entries
    assert rows_of(wm) == rows
    assert wm.no_coverage_ids == [a for a in areas.area_ids if a not in rows]
    assert weights_csv_string(wm) == "area_id,bts_id,weight\n" + "".join(
        f"{a},{b},{fmt12(v)}\n" for a, b, v in entries)
    for statistic in ("mean", "median"):
        try:
            want = _dict_aggregate(areas.area_ids, rows, table, "v", statistic)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                aggregate(wm, table, "v", statistic)
            assert str(got.value) == str(exc)
            continue
        got = aggregate(wm, table, "v", statistic)
        assert list(got) == list(want)
        assert all((got[a] is None and want[a] is None) or got[a].hex() == want[a].hex()
                   for a in want)


def test_area_weights_from_pixels_keeps_one_key_per_entry():
    """The reducer's traced peak stays under one block's 8-byte keys, the
    per-row arrays of that block and the bins: no key per entry of the
    whole input, no masked or filtered copies of the entries."""
    grid = Grid(ncols=100, nrows=100, cell_size_m=10.0)
    r, c = np.indices(grid.shape)
    # three quadrant areas; the fourth quadrant lies outside every area
    areas = StatAreaSet.from_masks(grid, [
        ("nw", (r < 50) & (c < 50)), ("ne", (r < 50) & (c >= 50)), ("sw", (r >= 50) & (c < 50))])
    npx, nbts, per_row = grid.npixels, 64, 32
    col = np.arange(per_row) * 2 + np.arange(npx)[:, None] % 2
    pw = PixelWeights("idw", np.arange(npx), [f"b{j:02d}" for j in range(nbts)],
                      col, np.full(col.shape, 1.0 / per_row))
    areas.labels(grid)  # the cached raster is not the reducer's to pay for
    peak = traced_peak(lambda: area_weights_from_pixels(pw, areas, grid))
    keys = mapping._REDUCE_ENTRIES
    assert keys < col.size // 4  # the parts below leave out most entries
    # per row of a block, under 64 bytes: its pixel's area as int32 and
    # int64 (the last block's too), its key offset and two boolean masks;
    # numpy's 64 KiB buffer for a broadcasting ufunc and the output rows
    # cost under 96 KiB whatever the input
    rows = keys // per_row
    bins = (len(areas) + 1) * (nbts + 1)
    assert peak < 8 * keys + 64 * rows + 8 * bins + 96 * 1024, (peak, 8 * col.size)
    assert rows_of(area_weights_from_pixels(pw, areas, grid)) == _dict_area_rows(pw, areas, grid)


def test_weights_voronoi_holds_no_per_pixel_rows():
    """`weights_voronoi` reduces the serving labels themselves as width-1
    rows: its traced peak stays under two 8-byte words per pixel plus the
    bins, where one-hot CSR rows took about 70 bytes per pixel."""
    grid = Grid(ncols=500, nrows=500, cell_size_m=100.0)
    rng = np.random.default_rng(5)
    sites = [(f"s{j:02d}", *rng.uniform(0, 50_000, 2)) for j in range(40)]
    assignment = voronoi_assign(grid, sites)
    r, c = np.indices(grid.shape)
    areas = StatAreaSet.from_masks(grid, [(f"a{i}", (r // 100) * 5 + c // 100 == i)
                                          for i in range(24)])  # the last block is outside
    areas.labels(grid)
    peak = traced_peak(lambda: weights_voronoi(assignment, areas))
    bins = (len(areas) + 1) * (len(sites) + 1)
    assert peak < 2 * 8 * grid.npixels + 8 * bins, (peak, grid.npixels)


def _parent_bsa_rows(sel):
    """One-hot CSR rows as they were built before pixel rows were padded:
    (indptr, col, an array of ones) over the covered pixels."""
    sel = np.asarray(sel, dtype=np.int64)
    covered = sel >= 0
    return np.concatenate([[0], np.cumsum(covered)]), sel[covered], np.ones(int(covered.sum()))


def _parent_area_rows(pixel_ids, bts_ids, indptr, col, w, areas, grid):
    """The CSR pixel-to-area reducer as it was before pixel rows were
    padded: one int64 key per entry, and one `bincount` over all of them
    whose last row of bins is a spill row for pixels outside every area."""
    lens = np.diff(indptr)
    area_of = areas.labels(grid).reshape(-1)[pixel_ids].astype(np.int64)
    denom = np.bincount(area_of[(lens > 0) & (area_of >= 0)], minlength=len(areas))
    nbts = len(bts_ids)
    key = np.repeat(np.where(area_of >= 0, area_of, len(areas)) * nbts, lens)
    key += col
    sums = np.bincount(key, weights=w, minlength=(len(areas) + 1) * nbts)[:len(areas) * nbts]
    flat = np.flatnonzero(sums)
    aidx, bidx = np.divmod(flat, nbts)
    out = np.concatenate([[0], np.cumsum(np.bincount(aidx, minlength=len(areas)))])
    return WeightMatrix("x", areas.area_ids, bts_ids, out, bidx, sums[flat] / denom[aidx])


@st.composite
def _padded_rows_world(draw):
    """Mask areas (some empty, some pixels outside every area), unique
    pixel ids, and for them both serving labels (-1 = uncovered) and idw
    rows of every width from 0 to k <= 10 with random weights, padded to
    k or wider; plus a reducer block of 1 to 64 entries, so a block holds
    one row or several and the rows span one block or many."""
    nrows, ncols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    grid = Grid(ncols=ncols, nrows=nrows, cell_size_m=10.0)
    nareas = draw(st.integers(1, 4))
    owner = draw(hnp.arrays(np.int64, (nrows, ncols), elements=st.integers(-1, nareas)))
    areas = StatAreaSet.from_masks(grid, [(f"A{j}", owner == j) for j in range(nareas)])
    nbts = draw(st.integers(1, 12))
    bts_ids = [f"b{j:02d}" for j in range(nbts)]
    # many rows per area and column, so bins sum long runs across blocks
    pixel_ids = draw(st.permutations(range(grid.npixels)))[:draw(st.integers(1, grid.npixels))]
    sel = draw(st.lists(st.integers(UNASSIGNED, nbts - 1), min_size=len(pixel_ids),
                        max_size=len(pixel_ids)))
    k = draw(st.integers(1, min(10, nbts)))
    rows = []
    for _ in pixel_ids:
        cols = sorted(draw(st.sets(st.integers(0, nbts - 1), max_size=k)))
        raw = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=len(cols),
                                     max_size=len(cols))))
        rows.append((cols, (raw / raw.sum()).tolist() if cols else []))
    idw = _idw_rows(pixel_ids, bts_ids, rows, k + draw(st.integers(0, 2)))
    return areas, grid, pixel_ids, bts_ids, sel, idw, draw(st.integers(1, 64))


@settings(max_examples=300, deadline=None)
@given(world=_padded_rows_world())
def test_padded_reducer_equals_the_csr_reducer(world):
    """Byte for byte, the padded reducer's area rows equal the CSR path's:
    one-hot CSR rows with an array of ones for the serving labels, CSR
    idw rows, and one `bincount` over one key per entry."""
    areas, grid, pixel_ids, bts_ids, sel, idw, block = world
    bsa = bsa_pixel_weights(pixel_ids, bts_ids, np.array(sel, dtype=np.int32))
    before = [(pw.col.copy(), None if pw.w is None else pw.w.copy()) for pw in (idw, bsa)]
    cases = ((idw, pixel_csr(idw)), (bsa, _parent_bsa_rows(sel)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mapping, "_REDUCE_ENTRIES", block)
        for pw, csr in cases:
            got = area_weights_from_pixels(pw, areas, grid)
            want = _parent_area_rows(np.array(pixel_ids), bts_ids, *csr, areas, grid)
            for name in ("indptr", "col", "w"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    # the reducer never writes into its input
    for pw, (c, v) in zip((idw, bsa), before):
        assert np.array_equal(pw.col, c) and (v is None or np.array_equal(pw.w, v))


@settings(max_examples=300, deadline=None)
@given(world=_padded_rows_world(), seed=st.integers(0, 2**32 - 1))
def test_reducer_bytes_ignore_the_order_within_rows(world, seed):
    """Pixel rows hold their entries first, each column at most once,
    then pads, in no set order: permuting the entries within each row
    leaves the reducer's area rows unchanged byte for byte."""
    areas, grid, pixel_ids, bts_ids, _, idw, block = world
    entry = idw.col >= 0
    perm = np.argsort(np.where(entry, np.random.default_rng(seed).random(entry.shape), 2.0),
                      axis=1, kind="stable")
    shuffled = PixelWeights("idw", pixel_ids, bts_ids, np.take_along_axis(idw.col, perm, 1),
                            np.take_along_axis(idw.w, perm, 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mapping, "_REDUCE_ENTRIES", block)
        got = area_weights_from_pixels(shuffled, areas, grid)
        want = area_weights_from_pixels(idw, areas, grid)
    for name in ("indptr", "col", "w"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _row_blocks(pw: PixelWeights, edges):
    """`pw`'s rows as consecutive blocks between `edges`, made as they are read."""
    for a, b in zip(edges, edges[1:]):
        yield PixelWeights(pw.scheme, pw.pixel_ids[a:b], pw.bts_ids, pw.col[a:b],
                           None if pw.w is None else pw.w[a:b])


@settings(max_examples=300, deadline=None)
@given(world=_padded_rows_world(), cuts=st.lists(st.integers(0, 100), max_size=6))
def test_reducer_sums_consecutive_row_blocks_as_one_pass(world, cuts):
    """Rows split into consecutive blocks at drawn points, empty blocks
    among them, and read in order give the area rows of one pass over all
    of them byte for byte: idw rows with pads and one-hot rows, with
    pixels outside every area (the spill row) and any reducer block size."""
    areas, grid, pixel_ids, bts_ids, sel, idw, block = world
    bsa = bsa_pixel_weights(pixel_ids, bts_ids, np.array(sel, dtype=np.int32))
    n = len(pixel_ids)
    edges = [0, *sorted(min(c, n) for c in cuts), n]  # a repeated edge is an empty block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mapping, "_REDUCE_ENTRIES", block)
        for pw in (idw, bsa):
            got = area_weights_from_pixels(_row_blocks(pw, edges), areas, grid)
            want = area_weights_from_pixels(pw, areas, grid)
            assert got.scheme == want.scheme and got.bts_ids == want.bts_ids
            for name in ("indptr", "col", "w"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_reducer_blocks_must_be_one_set_of_rows():
    """Blocks of another scheme or other columns, and no block at all, are
    refused."""
    grid = Grid(ncols=2, nrows=1, cell_size_m=10.0)
    areas = StatAreaSet.from_masks(grid, [("A", np.ones(grid.shape, bool))])
    one_hot = bsa_pixel_weights([0], ["a", "b"], [1])
    with pytest.raises(ValueError, match="differ in scheme or bts_ids"):
        area_weights_from_pixels([one_hot, bsa_pixel_weights([1], ["a"], [0])], areas, grid)
    with pytest.raises(ValueError, match="differ in scheme or bts_ids"):
        area_weights_from_pixels([one_hot, bsa_pixel_weights([1], ["a", "b"], [0], "voronoi")],
                                 areas, grid)
    with pytest.raises(ValueError, match="no pixel rows"):
        area_weights_from_pixels(iter([]), areas, grid)
    wm = area_weights_from_pixels([one_hot, bsa_pixel_weights([1], ["a", "b"], [0])], areas, grid)
    assert wm.row("A") == {"a": 0.5, "b": 0.5}


class TestAggregate:
    def _table(self):
        return CovariateTable(["b1", "b2", "b3"], {"rate": np.array([2.0, 6.0, 4.0])})

    def test_weighted_mean(self):
        wm = weight_matrix("bsa", ["a"], {"a": {"b1": 0.25, "b2": 0.75}})
        assert_allclose(aggregate(wm, self._table(), "rate")["a"], 0.25 * 2 + 0.75 * 6)

    def test_constant_covariate_returns_constant(self):
        wm = weight_matrix("bsa", ["a", "b"], {"a": {"b1": 0.3, "b2": 0.7}, "b": {"b3": 1.0}})
        tab = CovariateTable(["b1", "b2", "b3"], {"rate": np.full(3, 7.5)})
        out = aggregate(wm, tab, "rate")
        assert out == {"a": 7.5, "b": 7.5}

    def test_convexity(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            n = rng.integers(1, 6)
            w = rng.dirichlet(np.ones(n))
            vals = rng.normal(size=n) * 10
            wm = weight_matrix(
                "x", ["a"], {"a": {f"b{i}": float(w[i]) for i in range(n)}}
            )
            tab = CovariateTable([f"b{i}" for i in range(n)], {"v": vals})
            est = aggregate(wm, tab, "v")["a"]
            assert vals.min() - 1e-12 <= est <= vals.max() + 1e-12

    def test_weighted_median(self):
        wm = weight_matrix("x", ["a"], {"a": {"b1": 0.3, "b2": 0.3, "b3": 0.4}})
        tab = CovariateTable(["b1", "b2", "b3"], {"v": np.array([1.0, 5.0, 9.0])})
        assert aggregate(wm, tab, "v", statistic="median")["a"] == 5.0

    def test_no_coverage_is_none(self):
        wm = weight_matrix("x", ["a", "b"], {"a": {"b1": 1.0}})
        tab = CovariateTable(["b1"], {"v": np.array([3.0])})
        assert aggregate(wm, tab, "v") == {"a": 3.0, "b": None}

    def test_missing_covariate_is_loud(self):
        wm = weight_matrix("x", ["a"], {"a": {"b1": 0.5, "b2": 0.5}})
        tab = CovariateTable(["b1"], {"v": np.array([3.0])})
        with pytest.raises(ValueError, match="b2"):
            aggregate(wm, tab, "v")
        tab2 = CovariateTable(["b1", "b2"], {"v": np.array([3.0, np.nan])})
        with pytest.raises(ValueError, match="b2"):
            aggregate(wm, tab2, "v")

    def test_unknown_statistic_rejected(self):
        wm = weight_matrix("x", ["a"], {"a": {"b1": 1.0}})
        with pytest.raises(ValueError):
            aggregate(wm, self._table(), "rate", statistic="mode")


class TestContainers:
    def test_weight_matrix_validation(self):
        with pytest.raises(ValueError, match="sum"):
            weight_matrix("x", ["a"], {"a": {"b1": 0.5, "b2": 0.4}})
        with pytest.raises(ValueError, match="positive"):
            weight_matrix("x", ["a"], {"a": {"b1": 1.5, "b2": -0.5}})
        with pytest.raises(KeyError):
            weight_matrix("x", ["a"], {}).row("zz")

    def test_weight_matrix_csr_checks(self):
        with pytest.raises(ValueError, match="CSR"):
            WeightMatrix("x", ["a", "b"], ["b1"], [0, 1], [0], [1.0])
        with pytest.raises(ValueError, match="ascend by bts_id"):
            WeightMatrix("x", ["a"], ["b2", "b1"], [0, 2], [0, 1], [0.5, 0.5])
        with pytest.raises(ValueError, match="range"):
            WeightMatrix("x", ["a"], ["b1"], [0, 1], [1], [1.0])
        for bad in (np.nan, np.inf, 0.0):
            with pytest.raises(ValueError, match="area 'b': weights must be finite and positive"):
                WeightMatrix("x", ["a", "b"], ["b1", "b2"], [0, 0, 2], [0, 1], [1.0, bad])
        with pytest.raises(ValueError, match="area 'b': weights sum to 0.9, not 1"):
            WeightMatrix("x", ["a", "b", "c"], ["b1"], [0, 1, 2, 2], [0, 0], [1.0, 0.9])
        wm = WeightMatrix("x", ["a", "b"], ["b1", "b2"], [0, 0, 2], [0, 1], [0.25, 0.75])
        assert wm.covered_ids == ["b"] and wm.no_coverage_ids == ["a"]
        assert wm.row("a") is None and wm.row("b") == {"b1": 0.25, "b2": 0.75}

    def test_weight_matrix_entries_sorted(self):
        wm = weight_matrix(
            "x", ["b_area", "a_area"],
            {"b_area": {"z": 0.5, "a": 0.5}, "a_area": {"m": 1.0}},
        )
        assert wm.entries() == [
            ("a_area", "m", 1.0),
            ("b_area", "a", 0.5),
            ("b_area", "z", 0.5),
        ]

    def test_pixel_weights_validation(self):
        with pytest.raises(ValueError, match="pixels x width"):
            PixelWeights("x", [1, 2], ["b"], [[0]], [[1.0]])
        with pytest.raises(ValueError, match="pixels x width"):
            PixelWeights("x", [1], ["b"], [0], [1.0])
        with pytest.raises(ValueError, match="of col's shape"):
            PixelWeights("x", [1], ["b", "c"], [[0, 1]], [[1.0]])
        with pytest.raises(ValueError, match="pixel 1: weights sum to 1.2, not 1"):
            PixelWeights("x", [1], ["b", "c"], [[0, 1]], [[0.6, 0.6]])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="pixel 7: weights must be finite"):
                PixelWeights("x", [3, 7], ["b", "c"], [[0, -1], [0, 1]], [[1.0, 0.0], [bad, 0.5]])
        with pytest.raises(ValueError, match="range"):
            PixelWeights("x", [1], ["b"], [[4]], [[1.0]])
        with pytest.raises(ValueError, match="range"):
            PixelWeights("x", [1], ["b"], [[-2]])
        with pytest.raises(ValueError, match="integers"):
            PixelWeights("x", [1], ["b"], [[0.0]])
        with pytest.raises(ValueError, match="ascend by bts_id"):
            PixelWeights("x", [1], ["c", "b"], [[0]])
        # a one-hot row of -1 is an uncovered pixel; zero weights are allowed
        pw = PixelWeights("x", [1, 2], ["b", "c"], [[1, -1], [0, 1]], [[1.0, 0.0], [1.0, 0.0]])
        assert pw.covered.tolist() == [True, True]
        assert pixel_row(pw, 0) == {"c": 1.0} and pixel_row(pw, 1) == {"b": 1.0, "c": 0.0}
        one_hot = PixelWeights("x", [1, 2], ["b"], np.array([[-1], [0]], dtype=np.int32))
        assert one_hot.covered.tolist() == [False, True]
        assert pixel_row(one_hot, 0) == {} and pixel_row(one_hot, 1) == {"b": 1.0}

    def test_covariate_table_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            CovariateTable(["b", "b"], {"v": np.zeros(2)})
        with pytest.raises(ValueError, match="length"):
            CovariateTable(["b"], {"v": np.zeros(2)})
        tab = CovariateTable(["b"], {"v": np.array([1.0])})
        with pytest.raises(KeyError):
            tab.column("w")


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
