import json
import re

import numpy as np
import pytest

from covmap.geo import Grid, SettlementRaster, extract_settlements
from covmap.io import (
    BtsFile,
    ascii_grid_string,
    config_from_dict,
    config_json_string,
    covariates_csv_string,
    fmt12,
    load_areas_geojson,
    load_ascii_grid,
    load_bts_csv,
    load_config,
    load_covariates_csv,
    load_metrics_csv,
    load_raster,
    load_weights_csv,
    metrics_csv_string,
    save_ascii_grid,
    save_bts_csv,
    save_config,
    save_outputs,
    save_raster,
    tally_csv_string,
    weights_csv_string,
)
from covmap.mapping import CovariateTable
from covmap.propagation import AntennaSpec
from covmap.simulation import SimConfig
from weight_rows import weight_matrix

CANONICAL_ASC = (
    "ncols 3\n"
    "nrows 2\n"
    "xllcorner 0\n"
    "yllcorner 0\n"
    "cellsize 100\n"
    "NODATA_value -9999\n"
    "0 4 1\n"
    "2 0 -9999\n"
)


def test_fmt12_no_negative_zero():
    assert fmt12(-0.0) == "0"
    assert fmt12(0.25) == "0.25"
    assert fmt12(1 / 3) == "0.333333333333"


class TestAsciiGrid:
    def test_canonical_round_trip_bytes(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text(CANONICAL_ASC)
        values, grid, mask, nodata = load_ascii_grid(p)
        assert grid == Grid(ncols=3, nrows=2, cell_size_m=100.0)
        assert nodata == -9999.0
        assert mask.tolist() == [[False, False, False], [False, False, True]]
        out = ascii_grid_string(values, grid, mask, nodata)
        assert out == CANONICAL_ASC

    def test_save_load_identity(self, tmp_path):
        grid = Grid(ncols=4, nrows=3, cell_size_m=50.0, origin_x=10.0, origin_y=-20.5)
        values = np.arange(12, dtype=np.float64).reshape(3, 4) / 8.0
        p = tmp_path / "v.asc"
        save_ascii_grid(p, values, grid)
        got, ggrid, mask, _ = load_ascii_grid(p)
        assert ggrid == grid
        assert mask is None
        np.testing.assert_array_equal(got, values)
        q = tmp_path / "v2.asc"
        save_ascii_grid(q, got, ggrid)
        assert q.read_bytes() == p.read_bytes()

    def test_nodata_excluded_from_extraction(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text(CANONICAL_ASC)
        raster = load_raster(p)
        s = extract_settlements(raster)
        # the -9999 cell does not become a settlement
        assert s.ids.tolist() == [1, 2, 3]
        assert s.counts.tolist() == [4.0, 1.0, 2.0]

    def test_wrong_value_count_reports_line(self, tmp_path):
        p = tmp_path / "bad.asc"
        p.write_text(CANONICAL_ASC.replace("0 4 1", "0 4 1 9"))
        with pytest.raises(ValueError, match="line 7.*expected 3 values, got 4"):
            load_ascii_grid(p)

    def test_missing_header_line(self, tmp_path):
        p = tmp_path / "bad.asc"
        p.write_text("ncols 3\nxllcorner 0\n")
        with pytest.raises(ValueError, match="line 2.*expected header 'nrows'"):
            load_ascii_grid(p)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        p = tmp_path / "bad.asc"
        p.write_text(CANONICAL_ASC.replace("2 0 -9999", "2 x -9999"))
        with pytest.raises(ValueError, match="line 8.*non-numeric cell 'x'"):
            load_ascii_grid(p)

    def test_wrong_row_count(self, tmp_path):
        p = tmp_path / "bad.asc"
        p.write_text(CANONICAL_ASC + "1 1 1\n")
        with pytest.raises(ValueError, match="expected 2 data rows, found 3"):
            load_ascii_grid(p)

    @pytest.mark.parametrize("tail", ["\n", "\n\n", "   \n", " \t\n\n  "])
    def test_blank_lines_after_the_last_row_accepted(self, tmp_path, tail):
        p = tmp_path / "g.asc"
        p.write_text(CANONICAL_ASC)
        want = load_ascii_grid(p)
        p.write_text(CANONICAL_ASC + tail)
        values, grid, mask, nodata = load_ascii_grid(p)
        np.testing.assert_array_equal(values, want[0])
        np.testing.assert_array_equal(mask, want[2])
        assert (grid, nodata) == (want[1], want[3])

    @pytest.mark.parametrize("text, match", [
        (CANONICAL_ASC + "\n1 1 1\n", "expected 2 data rows, found 4"),
        (CANONICAL_ASC + "1 1 1\n\n", "expected 2 data rows, found 3"),
        (CANONICAL_ASC.replace("0 4 1\n", "0 4 1\n\n"), "expected 2 data rows, found 3"),
        (CANONICAL_ASC.replace("0 4 1\n", "0 4 1\n  \n") + "\n", "expected 2 data rows, found 3"),
        (CANONICAL_ASC.replace("2 0 -9999\n", "\n"), "expected 2 data rows, found 1"),
    ])
    def test_blank_lines_still_counted_before_the_last_row(self, tmp_path, text, match):
        """Only trailing blank lines are dropped: an extra row after a blank
        line, a blank line between rows, or a blank line in place of a row
        still fails the row count."""
        p = tmp_path / "bad.asc"
        p.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_ascii_grid(p)

    def test_fractional_count_rejected(self, tmp_path):
        p = tmp_path / "bad.asc"
        p.write_text(CANONICAL_ASC.replace("0 4 1", "0 4.5 1"))
        with pytest.raises(ValueError, match="non-negative integers"):
            load_raster(p)

    @pytest.mark.parametrize("old, new, where", [
        ("ncols 3", "ncols inf", "line 1.*non-finite header value 'inf'"),
        ("nrows 2", "nrows nan", "line 2.*non-finite header value 'nan'"),
        ("xllcorner 0", "xllcorner -inf", "line 3.*non-finite header value '-inf'"),
        ("cellsize 100", "cellsize NaN", "line 5.*non-finite header value 'NaN'"),
        ("NODATA_value -9999", "NODATA_value inf", "line 6.*non-finite NODATA_value 'inf'"),
    ])
    def test_non_finite_header_names_file_and_line(self, tmp_path, old, new, where):
        p = tmp_path / "bad.asc"
        p.write_text(CANONICAL_ASC.replace(old, new))
        with pytest.raises(ValueError, match=re.escape(str(p)) + ": " + where):
            load_ascii_grid(p)

    def test_bad_grid_geometry_names_file(self, tmp_path):
        p = tmp_path / "bad.asc"
        p.write_text(CANONICAL_ASC.replace("cellsize 100", "cellsize 0"))
        with pytest.raises(ValueError, match=re.escape(str(p)) + ": cell_size_m must be positive"):
            load_ascii_grid(p)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_cell_names_file_and_line(self, tmp_path, cell):
        p = tmp_path / "bad.asc"
        p.write_text(CANONICAL_ASC.replace("2 0 -9999", f"2 {cell} -9999"))
        for load in (load_ascii_grid, load_raster):
            with pytest.raises(ValueError, match=re.escape(f"{p}: line 8: non-finite cell '{cell}'")):
                load(p)

    def test_count_beyond_int64_rejected(self, tmp_path):
        p = tmp_path / "bad.asc"
        p.write_text(CANONICAL_ASC.replace("0 4 1", "0 1e300 1"))
        with pytest.raises(ValueError, match=re.escape(str(p)) + ".*non-negative integers"):
            load_raster(p)

    def test_raster_round_trip(self, tmp_path):
        grid = Grid(ncols=3, nrows=2, cell_size_m=100.0)
        nodata = np.zeros((2, 3), dtype=bool)
        nodata[1, 2] = True
        raster = SettlementRaster(grid, np.array([[0, 4, 1], [2, 0, 0]]), nodata=nodata)
        p = tmp_path / "r.asc"
        save_raster(p, raster)
        assert p.read_text() == CANONICAL_ASC
        back = load_raster(p)
        np.testing.assert_array_equal(back.counts, raster.counts)
        np.testing.assert_array_equal(back.nodata, raster.nodata)


class TestBtsCsv:
    def test_two_rows(self, tmp_path):
        p = tmp_path / "bts.csv"
        p.write_text(
            "bts_id,x,y,height_m,freq_mhz,power_dbm\n"
            "a,100,200,30,900,43\n"
            "b,300,400,45,2100,40\n"
        )
        f = load_bts_csv(p)
        assert not f.needs_synthesis
        assert len(f.specs) == 2
        assert f.specs[0] == AntennaSpec("a", 100.0, 200.0, 30.0, 900.0, 43.0)
        assert f.points == [("a", 100.0, 200.0), ("b", 300.0, 400.0)]

    def test_points_only_needs_synthesis(self, tmp_path):
        p = tmp_path / "bts.csv"
        p.write_text("bts_id,x,y\na,1,2\nb,3,4\n")
        f = load_bts_csv(p)
        assert f.needs_synthesis
        assert f.specs is None
        assert f.points == [("a", 1.0, 2.0), ("b", 3.0, 4.0)]

    def test_duplicate_id_named(self, tmp_path):
        p = tmp_path / "bts.csv"
        p.write_text("bts_id,x,y\na,1,2\na,3,4\n")
        with pytest.raises(ValueError, match="line 3.*duplicate bts_id 'a'"):
            load_bts_csv(p)

    def test_non_numeric_reports_row(self, tmp_path):
        p = tmp_path / "bts.csv"
        p.write_text("bts_id,x,y\na,1,2\nb,oops,4\n")
        with pytest.raises(ValueError, match="line 3.*non-numeric x value 'oops'"):
            load_bts_csv(p)

    @pytest.mark.parametrize("header", ["bts_id,x,y", "bts_id,x,y,height_m,freq_mhz,power_dbm"])
    def test_header_only_names_file(self, tmp_path, header):
        p = tmp_path / "bts.csv"
        p.write_text(header + "\n\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: no BTS rows$"):
            load_bts_csv(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bts.csv"
        p.write_text("id,x,y\na,1,2\n")
        with pytest.raises(ValueError, match="line 1.*expected header"):
            load_bts_csv(p)

    def test_out_of_range_spec_reports_row(self, tmp_path):
        p = tmp_path / "bts.csv"
        p.write_text("bts_id,x,y,height_m,freq_mhz,power_dbm\na,1,2,30,100,43\n")
        with pytest.raises(ValueError, match="line 2"):
            load_bts_csv(p)

    def test_save_round_trip_bytes(self, tmp_path):
        specs = [
            AntennaSpec("a", 100.0, 200.5, 30.0, 900.0, 43.25),
            AntennaSpec("b", 300.0, 400.0, 45.0, 2100.0, 40.0),
        ]
        p = tmp_path / "bts.csv"
        save_bts_csv(p, specs)
        f = load_bts_csv(p)
        assert f.specs == specs
        q = tmp_path / "bts2.csv"
        save_bts_csv(q, f.specs)
        assert q.read_bytes() == p.read_bytes()


def _feature(area_id, coords, gtype="Polygon"):
    return {
        "type": "Feature",
        "properties": {"area_id": area_id},
        "geometry": {"type": gtype, "coordinates": coords},
    }


SQUARE = [[[0.0, 0.0], [400.0, 0.0], [400.0, 400.0], [0.0, 400.0], [0.0, 0.0]]]


class TestAreasGeojson:
    def test_one_square(self, tmp_path):
        p = tmp_path / "areas.geojson"
        p.write_text(json.dumps({"type": "FeatureCollection", "features": [_feature("A", SQUARE)]}))
        areas = load_areas_geojson(p)
        assert areas.area_ids == ["A"]
        grid = Grid(ncols=4, nrows=4, cell_size_m=100.0)
        assert np.all(areas.labels(grid) == 0)

    def test_duplicate_area_id(self, tmp_path):
        p = tmp_path / "areas.geojson"
        p.write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [_feature("A", SQUARE), _feature("A", SQUARE)],
        }))
        with pytest.raises(ValueError, match="duplicate area_id"):
            load_areas_geojson(p)

    def test_missing_area_id(self, tmp_path):
        feat = _feature("A", SQUARE)
        del feat["properties"]["area_id"]
        p = tmp_path / "areas.geojson"
        p.write_text(json.dumps({"type": "FeatureCollection", "features": [feat]}))
        with pytest.raises(ValueError, match="feature 0.*area_id"):
            load_areas_geojson(p)

    def test_non_polygon_rejected(self, tmp_path):
        p = tmp_path / "areas.geojson"
        p.write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [_feature("A", [1.0, 2.0], gtype="Point")],
        }))
        with pytest.raises(ValueError, match="Polygon or MultiPolygon.*'Point'"):
            load_areas_geojson(p)

    @pytest.mark.parametrize("features,match", [
        ({"A": 1}, "'features' must be a list"),
        ([1], "feature 0: expected an object"),
        ([_feature("A", SQUARE), "B"], "feature 1: expected an object"),
        ([{"type": "Feature", "properties": [1], "geometry": None}],
         "feature 0: 'properties' must be an object"),
        ([{"type": "Feature", "properties": {"area_id": "A"}, "geometry": [1]}],
         "feature 0 \\('A'\\): 'geometry' must be an object"),
    ], ids=["features", "feature", "second-feature", "properties", "geometry"])
    def test_malformed_structure_names_file_and_feature(self, tmp_path, features, match):
        p = tmp_path / "areas.geojson"
        p.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
        with pytest.raises(ValueError, match=match) as exc:
            load_areas_geojson(p)
        assert str(p) in str(exc.value)

    def test_three_features_keep_order(self, tmp_path):
        shift = lambda dx: [[[x + dx, y] for x, y in SQUARE[0]]]
        p = tmp_path / "areas.geojson"
        p.write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [_feature("C", SQUARE), _feature("A", shift(400)), _feature("B", shift(800))],
        }))
        assert load_areas_geojson(p).area_ids == ["C", "A", "B"]

    def test_multipolygon_union(self, tmp_path):
        part2 = [[[800.0, 0.0], [1200.0, 0.0], [1200.0, 400.0], [800.0, 400.0], [800.0, 0.0]]]
        p = tmp_path / "areas.geojson"
        p.write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [_feature("A", [SQUARE, part2], gtype="MultiPolygon")],
        }))
        areas = load_areas_geojson(p)
        grid = Grid(ncols=12, nrows=4, cell_size_m=100.0)
        labels = areas.labels(grid)
        assert np.all(labels[:, 0:4] == 0)
        assert np.all(labels[:, 4:8] == -1)
        assert np.all(labels[:, 8:12] == 0)


class TestCovariatesCsv:
    def test_missing_cells_are_nan(self, tmp_path):
        p = tmp_path / "cov.csv"
        p.write_text("bts_id,calls,rate\na,10,0.5\nb,,0.25\n")
        t = load_covariates_csv(p)
        assert t.bts_ids == ["a", "b"]
        assert np.isnan(t.column("calls")[1])
        assert t.column("rate")[1] == 0.25

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "cov.csv"
        p.write_text("bts_id,v\na,1\na,2\n")
        with pytest.raises(ValueError, match="line 3.*duplicate bts_id"):
            load_covariates_csv(p)

    def test_non_numeric(self, tmp_path):
        p = tmp_path / "cov.csv"
        p.write_text("bts_id,v\na,1\nb,zzz\n")
        with pytest.raises(ValueError, match="line 3.*non-numeric v value"):
            load_covariates_csv(p)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "NaN"])
    def test_non_finite_names_file_and_line(self, tmp_path, cell):
        p = tmp_path / "cov.csv"
        p.write_text(f"bts_id,calls,rate\na,10,0.5\nb,3,{cell}\n")
        with pytest.raises(ValueError) as exc:
            load_covariates_csv(p)
        assert str(exc.value) == f"{p}: line 3: non-finite rate value {cell!r}"

    def test_round_trip(self, tmp_path):
        t = CovariateTable(["a", "b"], {"v": np.array([0.5, np.nan])})
        p = tmp_path / "cov.csv"
        p.write_text(covariates_csv_string(t))
        back = load_covariates_csv(p)
        assert back.bts_ids == ["a", "b"]
        assert back.column("v")[0] == 0.5
        assert np.isnan(back.column("v")[1])
        assert covariates_csv_string(back) == p.read_text()


class TestWeightsCsv:
    WM = weight_matrix("voronoi", ["A", "B", "C"], {
        "A": {"b1": 0.75, "b2": 0.25},
        "B": {"b2": 1.0},
    })

    def test_string_layout(self):
        assert weights_csv_string(self.WM) == (
            "area_id,bts_id,weight\nA,b1,0.75\nA,b2,0.25\nB,b2,1\n"
        )

    def test_round_trip_entries(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text(weights_csv_string(self.WM))
        back = load_weights_csv(p, area_ids=["A", "B", "C"], scheme="voronoi")
        assert back.entries() == self.WM.entries()
        assert back.no_coverage_ids == ["C"]
        assert weights_csv_string(back) == p.read_text()
        # a commune-scale file: the area lookups must not grow with the
        # universe, or 20,000 areas take half a minute instead of a second
        ids = [f"A{i:05d}" for i in range(20000)]
        big = weight_matrix("voronoi", ids + ["Z"], {a: {"b1": 0.75, "b2": 0.25} for a in ids})
        p.write_text(weights_csv_string(big))
        back = load_weights_csv(p, area_ids=ids + ["Z"], scheme="voronoi")
        assert back.entries() == big.entries()
        assert back.no_coverage_ids == ["Z"] and back.row("Z") is None
        assert all(back.row(a) == big.row(a) for a in ids)

    def test_universe_defaults_to_covered(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text(weights_csv_string(self.WM))
        back = load_weights_csv(p)
        assert back.area_ids == ["A", "B"]

    def test_unknown_area_rejected(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text(weights_csv_string(self.WM))
        with pytest.raises(ValueError, match="unknown area ids.*'A'"):
            load_weights_csv(p, area_ids=["B", "C"])

    def test_bad_row_sum_rejected(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("area_id,bts_id,weight\nA,b1,0.5\nA,b2,0.25\n")
        with pytest.raises(ValueError, match="sum"):
            load_weights_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "0", "-0.5"])
    def test_bad_weight_names_file_and_line(self, tmp_path, cell):
        p = tmp_path / "w.csv"
        p.write_text(f"area_id,bts_id,weight\nA,b1,1\nB,b1,0.5\nB,b2,{cell}\n")
        with pytest.raises(ValueError) as exc:
            load_weights_csv(p)
        assert str(exc.value) == f"{p}: line 4: weight {cell!r} must be finite and positive"

    def test_duplicate_pair_rejected(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("area_id,bts_id,weight\nA,b1,0.5\nA,b1,0.5\n")
        with pytest.raises(ValueError, match="line 3.*duplicate entry"):
            load_weights_csv(p)


class TestStudyTables:
    RECORDS = [
        (0, "voronoi", "rho", "total", 0.75),
        (0, "voronoi", "rho", "urban", float("nan")),
        (1, "hata_bsa", "geo_overlap", "rural", 0.5),
    ]

    def test_metrics_round_trip(self, tmp_path):
        p = tmp_path / "rounds.csv"
        p.write_text(metrics_csv_string(self.RECORDS))
        back = load_metrics_csv(p)
        assert back[0] == self.RECORDS[0]
        assert back[2] == self.RECORDS[2]
        assert back[1][:4] == self.RECORDS[1][:4] and np.isnan(back[1][4])
        assert metrics_csv_string(back) == metrics_csv_string(self.RECORDS)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_metrics_non_finite_names_file_and_line(self, tmp_path, cell):
        # the empty cell is the one spelling of an undefined value
        p = tmp_path / "rounds.csv"
        p.write_text("round,scheme,metric,env_class,value\n"
                     f"0,voronoi,rho,total,0.5\n0,voronoi,rho,urban,{cell}\n")
        with pytest.raises(ValueError) as exc:
            load_metrics_csv(p)
        assert str(exc.value) == f"{p}: line 3: non-finite value {cell!r}"

    def test_metrics_non_numeric_names_its_cell(self, tmp_path):
        p = tmp_path / "rounds.csv"
        p.write_text("round,scheme,metric,env_class,value\n0,voronoi,rho,total,0.5x\n")
        with pytest.raises(ValueError) as exc:
            load_metrics_csv(p)
        assert str(exc.value) == f"{p}: line 2: non-numeric value '0.5x'"

    def test_metrics_nan_serialized_empty(self):
        s = metrics_csv_string(self.RECORDS)
        assert "0,voronoi,rho,urban,\n" in s

    def test_tally_layout(self):
        s = tally_csv_string({("p2p", "rho"): 12.5}, ["p2p", "voronoi"], ["rho", "rmse"])
        assert s == (
            "scheme,metric,win_pct\np2p,rho,12.5\np2p,rmse,0\n"
            "voronoi,rho,0\nvoronoi,rmse,0\n"
        )


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = SimConfig.desk(rounds=3, seed=11)
        p = tmp_path / "cfg.json"
        save_config(p, cfg)
        assert load_config(p) == cfg
        q = tmp_path / "cfg2.json"
        save_config(q, load_config(p))
        assert q.read_bytes() == p.read_bytes()

    def test_defaults_materialized(self):
        import dataclasses

        doc = json.loads(config_json_string(SimConfig()))
        assert doc["idw_k"] == 5
        assert doc["mask_rect"] == [550, 550, 150, 150]
        assert sorted(doc) == sorted(f.name for f in dataclasses.fields(SimConfig))

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"rounds": 2, "bogus_key": 1}')
        with pytest.raises(ValueError, match=r"unknown config keys \['bogus_key'\]"):
            load_config(p)

    def test_mask_rect_null(self):
        cfg = config_from_dict({"mask_rect": None})
        assert cfg.mask_rect is None

    def test_bool_rejected(self):
        with pytest.raises(ValueError, match="rounds must be a number"):
            config_from_dict({"rounds": True})

    @pytest.mark.parametrize("key, value", [
        ("kmeans_iters", 2.5),
        ("kmeans_iters", -3),
        ("idw_k", 0),
        ("idw_s", -1),
        ("dead_threshold_dbm", float("nan")),
        ("urban_pop_per_bts", 0),
        ("rural_pop_per_bts", -1.0),
        ("rx_height_m", -5),
        ("rx_height_m", 11.0),
        ("population", 1.5),
        ("block_px", 0),
        ("seed", -1),
        ("urban_freq_mhz", 5000.0),
        ("rural_sigma_m", float("inf")),
        ("height_range_m", [15.0]),
        ("mask_rect", [1, 2, 3.5, 4]),
        pytest.param("cell_size_m", 10**400, id="cell_size_m-beyond-float64"),
    ])
    def test_bad_value_rejected_up_front(self, key, value):
        with pytest.raises(ValueError, match=rf"<config>: {key} must"):
            config_from_dict({key: value})

    def test_invalid_value_names_source(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"rounds": 0}')
        with pytest.raises(ValueError, match="cfg.json.*rounds"):
            load_config(p)


class TestSaveOutputs:
    def test_deterministic_manifest(self, tmp_path):
        wm = TestWeightsCsv.WM
        m1 = save_outputs(tmp_path / "o1", weight_matrices={"voronoi": wm},
                          metrics=TestStudyTables.RECORDS,
                          config=SimConfig.desk(rounds=1))
        m2 = save_outputs(tmp_path / "o2", weight_matrices={"voronoi": wm},
                          metrics=TestStudyTables.RECORDS,
                          config=SimConfig.desk(rounds=1))
        assert m1 == m2
        assert sorted(m1["files"]) == [
            "config.json", "rounds.csv", "weights_voronoi.csv",
        ]
        for name in m1["files"]:
            assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()
        manifest_doc = json.loads((tmp_path / "o1" / "manifest.json").read_text())
        assert manifest_doc == m1

    def test_no_metrics_no_rounds_file(self, tmp_path):
        m = save_outputs(tmp_path / "o", weight_matrices={"p2p": TestWeightsCsv.WM})
        assert list(m["files"]) == ["weights_p2p.csv"]
        assert not (tmp_path / "o" / "rounds.csv").exists()

    def test_bundle_weights_round_trip(self, tmp_path):
        save_outputs(tmp_path / "o", weight_matrices={"x": TestWeightsCsv.WM})
        back = load_weights_csv(tmp_path / "o" / "weights_x.csv", area_ids=["A", "B", "C"])
        assert back.entries() == TestWeightsCsv.WM.entries()


class TestReaders:
    """The one reader per format: strict UTF-8 everywhere, no line break in
    a CSV field, and each CSV loader's errors in row order."""

    @pytest.mark.parametrize("load, data", [
        (load_ascii_grid, CANONICAL_ASC.encode().replace(b"0 4 1", b"0 \xff 1")),
        (load_bts_csv, b"bts_id,x,y\na,1,2\nb,\xff,4\n"),
        (load_covariates_csv, b"bts_id,v\na,1\nb,\xff\n"),
        (load_weights_csv, b"area_id,bts_id,weight\nA,b1,0.5\nA,b\xff,0.5\n"),
        (load_metrics_csv, b"round,scheme,metric,env_class,value\n0,v,rho,total,1\n0,\xff,r,t,1\n"),
        (load_areas_geojson, b'{"type": "FeatureCollection",\n "features":\n ["\xff"]}'),
        (load_config, b'{"rounds": 2,\n "seed": 1,\n "\xff": 1}'),
    ], ids=["grid", "bts", "covariates", "weights", "metrics", "areas", "config"])
    def test_bytes_not_utf8_name_file_and_line(self, tmp_path, load, data):
        p = tmp_path / "bad"
        p.write_bytes(data)
        at = data.index(b"\xff")
        line = data.count(b"\n", 0, at) + 1
        with pytest.raises(ValueError) as exc:
            load(p)
        assert str(exc.value) == f"{p}: line {line}: not UTF-8: byte 0xff at offset {at}"

    @pytest.mark.parametrize("load, text, line", [
        (load_covariates_csv, 'bts_id,"poverty\nb1,0.5\nb2,0.25\n', 1),
        (load_bts_csv, 'bts_id,x,y\na,1,2\n"b\nc",3,4\nd,5,6\n', 3),
        (load_weights_csv, 'area_id,bts_id,weight\n\nA,"b1\r\n",1\n', 3),
        (load_metrics_csv, 'round,scheme,metric,env_class,value\n0,v,rho,total,"1\r2"\n', 2),
    ], ids=["covariates", "bts", "weights", "metrics"])
    def test_line_break_in_a_field_names_its_first_line(self, tmp_path, load, text, line):
        p = tmp_path / "bad.csv"
        p.write_bytes(text.encode())
        with pytest.raises(ValueError) as exc:
            load(p)
        assert str(exc.value) == f"{p}: line {line}: line break inside a quoted field"

    @pytest.mark.parametrize("load", [load_areas_geojson, load_config])
    def test_json_nested_too_deeply_names_file(self, tmp_path, load):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValueError) as exc:
            load(p)
        assert str(exc.value) == f"{p}: invalid JSON: nested too deeply"

    @pytest.mark.parametrize("load, text, key", [
        (load_config, '{"rounds": 1, "seed": 2, "rounds": 3}', "rounds"),
        (load_areas_geojson, '{"type": "FeatureCollection", "features": [{"type": "Feature",'
                             ' "properties": {"area_id": "A", "area_id": "B"}, "geometry": null}]}',
         "area_id"),
    ], ids=["config", "areas-properties"])
    def test_json_duplicate_key_names_file_and_key(self, tmp_path, load, text, key):
        p = tmp_path / "dup.json"
        p.write_text(text)
        with pytest.raises(ValueError) as exc:
            load(p)
        assert str(exc.value) == f"{p}: duplicate key {key!r}"

    @pytest.mark.parametrize("load, text", [
        (load_config, '{"rounds": 1%s}' % ("0" * 4300)),
        (load_areas_geojson, '{"type": "FeatureCollection", "features": [{"type": "Feature",'
                             ' "properties": {"area_id": "A"}, "geometry": {"type": "Polygon",'
                             ' "coordinates": [[[0, 0], [1%s, 0], [0, 1], [0, 0]]]}}]}'
                             % ("0" * 4300)),
    ], ids=["config", "areas-coordinates"])
    def test_json_integer_past_the_digit_limit_names_file(self, tmp_path, load, text):
        p = tmp_path / "long.json"
        p.write_text(text)
        with pytest.raises(ValueError) as exc:
            load(p)
        assert str(exc.value).startswith(f"{p}: invalid JSON: ")
        assert "4300 digits" in str(exc.value)

    def test_csv_parser_error_names_file_and_line(self, tmp_path):
        # an unclosed quote before a commune-scale table outgrows the csv field limit
        p = tmp_path / "w.csv"
        p.write_text("area_id,bts_id,weight\n\"A,b1,1\n" + "A1,b1,1\n" * 20000)
        with pytest.raises(ValueError) as exc:
            load_weights_csv(p)
        assert str(exc.value) == f"{p}: line 2: field larger than field limit (131072)"

    @pytest.mark.parametrize("load, text, want", [
        (load_weights_csv, "area,bts,weight\nA,b1,1\n",
         "line 1: expected header area_id,bts_id,weight, got 'area,bts,weight'"),
        (load_weights_csv, "", "line 1: empty file"),
        (load_metrics_csv, "round,scheme\n",
         "line 1: expected header round,scheme,metric,env_class,value, got 'round,scheme'"),
        (load_metrics_csv, "", "line 1: empty file"),
    ], ids=["weights", "weights-empty", "metrics", "metrics-empty"])
    def test_weights_and_metrics_headers_quote_what_they_got(self, tmp_path, load, text, want):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as exc:
            load(p)
        assert str(exc.value) == f"{p}: {want}"

    @pytest.mark.parametrize("load, text, want", [
        (load_covariates_csv, "bts_id,a,b\nx,1,2\ny,zz,inf\nz,1\n", "line 3: non-numeric a value 'zz'"),
        (load_covariates_csv, "bts_id,a,b\nx,1,inf\nx,zz,2\n", "line 2: non-finite b value 'inf'"),
        (load_bts_csv, "bts_id,x,y\na,1,2\nb,q,inf\n", "line 3: non-numeric x value 'q'"),
        (load_bts_csv, "bts_id,x,y\na,1\nb,q,2\n", "line 2: expected 3 fields, got 2"),
        # `float` and `int` read digit-group underscores, `1_000` as 1000
        (load_bts_csv, "bts_id,x,y\nb0,1,2\nb1,1_000,2_0\n", "line 3: non-numeric x value '1_000'"),
        (load_covariates_csv, "bts_id,a,b\nx,1,2\ny,3,2_5\n", "line 3: non-numeric b value '2_5'"),
        (load_metrics_csv, "round,scheme,metric,env_class,value\n0,p2p,rho,total,1\n"
         "1_0,p2p,rho,total,1\n", "line 3: malformed row ['1_0', 'p2p', 'rho', 'total', '1']"),
        (load_metrics_csv, "round,scheme,metric,env_class,value\n0,p2p,rho,total,0_5\n",
         "line 2: non-numeric value '0_5'"),
        (load_weights_csv, "area_id,bts_id,weight\nA,b1,1_0\n", "line 2: non-numeric weight '1_0'"),
        (load_ascii_grid, "ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1_00\n1\n",
         "line 5: non-numeric header value '1_00'"),
        # and every Unicode decimal digit, the Arabic-Indic `١٢` as 12
        (load_bts_csv, "bts_id,x,y\nb0,1,2\nb1,١٢,٣\n", "line 3: non-numeric x value '١٢'"),
        (load_metrics_csv, "round,scheme,metric,env_class,value\n٣,p2p,rho,total,1\n",
         "line 2: malformed row ['٣', 'p2p', 'rho', 'total', '1']"),
        (load_ascii_grid, "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1_0 ١\n",
         "line 6: non-numeric cell '1_0'"),
        (load_ascii_grid, "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 ١\n",
         "line 6: non-numeric cell '١'"),
    ], ids=["covariates-row", "covariates-cell", "bts-cell", "bts-width", "bts-underscore",
            "covariates-underscore", "metrics-round-underscore", "metrics-value-underscore",
            "weights-underscore", "grid-header-underscore", "bts-non-ascii",
            "metrics-round-non-ascii", "grid-cell-underscore", "grid-cell-non-ascii"])
    def test_first_bad_row_and_cell_win(self, tmp_path, load, text, want):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as exc:
            load(p)
        assert str(exc.value) == f"{p}: {want}"


class TestBounds:
    """Coordinates within COORD_LIMIT_M and masts at most TX_HEIGHT_MAX_M,
    refused where they come in: squared metres and heights stay finite."""

    @pytest.mark.parametrize("text, want", [
        ("bts_id,x,y\na,1,2\nb,1e200,4\n", "line 3: x or y beyond ±1e+12 m"),
        ("bts_id,x,y,height_m,freq_mhz,power_dbm\na,1,-1.5e12,30,900,43\n",
         "line 2: x or y beyond ±1e+12 m"),
        ("bts_id,x,y,height_m,freq_mhz,power_dbm\na,1,2,1e200,900,43\n",
         "line 2: height_m must be at most 1000, got 1e+200"),
    ], ids=["points-x", "full-y", "height"])
    def test_bts_out_of_bounds_names_file_and_line(self, tmp_path, text, want):
        p = tmp_path / "bts.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_bts_csv(p)
        assert str(exc.value) == f"{p}: {want}"

    def test_bts_at_the_bounds_loads(self, tmp_path):
        p = tmp_path / "bts.csv"
        p.write_text("bts_id,x,y,height_m,freq_mhz,power_dbm\na,1e12,-1e12,1000,900,43\n")
        assert load_bts_csv(p).specs == [AntennaSpec("a", 1e12, -1e12, 1000.0, 900.0, 43.0)]

    @pytest.mark.parametrize("old, new, want", [
        ("xllcorner 0", "xllcorner 1e200", "grid extent beyond ±1e+12 m"),
        ("yllcorner 0", "yllcorner -2e12", "grid extent beyond ±1e+12 m"),
        ("cellsize 100", "cellsize 4e11", "grid extent beyond ±1e+12 m"),
        ("ncols 3", "ncols 1e200", "ncols x nrows exceeds the 92 characters of the file"),
    ], ids=["xllcorner", "yllcorner", "cellsize", "ncols"])
    def test_grid_out_of_bounds_names_file(self, tmp_path, old, new, want):
        p = tmp_path / "bad.asc"
        p.write_text(CANONICAL_ASC.replace(old, new))
        with pytest.raises(ValueError) as exc:
            load_ascii_grid(p)
        assert str(exc.value) == f"{p}: {want}"

    @pytest.mark.parametrize("corner", [[1e200, 1e200], [0.0, -1.5e12]])
    def test_area_ring_out_of_bounds_names_file_and_feature(self, tmp_path, corner):
        far = [[[0.0, 0.0], corner, [400.0, 400.0], [0.0, 0.0]]]
        p = tmp_path / "areas.geojson"
        p.write_text(json.dumps({"type": "FeatureCollection", "features": [
            _feature("A", SQUARE), _feature("B", [SQUARE, far], gtype="MultiPolygon")]}))
        with pytest.raises(ValueError) as exc:
            load_areas_geojson(p)
        assert str(exc.value) == f"{p}: feature 1 ('B'): ring coordinates beyond ±1e+12 m"

    def test_area_ring_at_the_bounds_loads(self, tmp_path):
        ring = [[[-1e12, -1e12], [1e12, -1e12], [1e12, 1e12], [-1e12, -1e12]]]
        p = tmp_path / "areas.geojson"
        p.write_text(json.dumps({"type": "FeatureCollection", "features": [_feature("A", ring)]}))
        assert load_areas_geojson(p).area_km2() == {"A": pytest.approx(2e18)}

    @pytest.mark.parametrize("heights", [[0.0, 30.0], [15.0, 1000.5]])
    def test_config_height_range_within_the_mast_cap(self, heights):
        with pytest.raises(ValueError, match=re.escape("<config>: height_range_m must lie in "
                                                       "(0, 1000] m")):
            config_from_dict({"height_range_m": heights})
