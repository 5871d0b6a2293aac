"""Full-grid raster passes go one `geo.row_bands` band at a time: the
ASCII grid writer, the settlement-raster and env-grid checks and the
weights call hold their result and one band, and an error in a band
past the first still names its own row, the first bad row winning."""

import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from covmap import cli, geo, io
from covmap.cli import main
from covmap.geo import Grid, SettlementRaster
from conftest import traced_held, traced_peak

# bands of this grid hold BAND rows; its rows fill two bands and part of a third
NCOLS = 300
BAND = geo._BLOCK_ENTRIES // NCOLS
NROWS = 2 * BAND + 7
GRID = Grid(ncols=NCOLS, nrows=NROWS, cell_size_m=100.0)
# two bad cells in different bands past the first; the earlier one is named
FIRST_BAD, LATER_BAD = (BAND + 3, 17), (2 * BAND + 1, 5)


def _grid_file(path: Path, words: dict[tuple[int, int], str], nodata: str | None = None) -> Path:
    """GRID as an ASCII grid file of zeros, with `words` at their cells."""
    rows = [["0"] * NCOLS for _ in range(NROWS)]
    for (r, c), word in words.items():
        rows[r][c] = word
    header = [f"ncols {NCOLS}", f"nrows {NROWS}", "xllcorner 0", "yllcorner 0", "cellsize 100"]
    if nodata is not None:
        header.append(f"NODATA_value {nodata}")
    path.write_text("\n".join(header + [" ".join(r) for r in rows]) + "\n", encoding="utf-8")
    return path


def test_the_test_grid_spans_three_bands():
    assert [(b.start, b.stop) for b in geo.row_bands(GRID)] == [
        (0, BAND), (BAND, 2 * BAND), (2 * BAND, NROWS)]


# --- errors past the first band ----------------------------------------------


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
def test_writer_names_a_non_finite_cell_past_the_first_band(cell):
    values = np.zeros(GRID.shape)
    for r, c in (LATER_BAD, FIRST_BAD):
        values[r, c] = cell
        with pytest.raises(ValueError, match=rf"at row {r}, column {c} outside"):
            io.ascii_grid_string(values, GRID)
    # under the mask, both are written as the nodata value, as in the header
    mask = ~np.isfinite(values)
    assert io.ascii_grid_string(values, GRID, mask).count("-9999") == 3


@pytest.mark.parametrize("word", ["-1", "2.5", "9223372036854775808", "1e19"])
def test_load_raster_names_the_first_bad_data_row(tmp_path, word):
    """A negative, fractional or too-large count is named by its data row
    (file line minus the header), in the band it sits in; a NODATA cell
    in the first band is no count at all."""
    nodata = (3, 3)
    path = _grid_file(tmp_path / "r.asc", {nodata: "-9999", LATER_BAD: word}, nodata="-9999")
    with pytest.raises(ValueError, match=rf"\(data row {LATER_BAD[0] + 1}\)"):
        io.load_raster(path)
    path = _grid_file(tmp_path / "r.asc", {nodata: "-9999", FIRST_BAD: word, LATER_BAD: word},
                      nodata="-9999")
    with pytest.raises(ValueError, match=rf"\(data row {FIRST_BAD[0] + 1}\)"):
        io.load_raster(path)


def test_load_raster_casts_every_band(tmp_path):
    words = {(0, 0): "3", FIRST_BAD: "7", LATER_BAD: "9223372036854774784", (1, 1): "-9999"}
    raster = io.load_raster(_grid_file(tmp_path / "r.asc", words, nodata="-9999"))
    want = np.zeros(GRID.shape, dtype=np.int64)
    want[0, 0], want[FIRST_BAD], want[LATER_BAD] = 3, 7, 9223372036854774784
    assert raster.counts.dtype == np.int64 and np.array_equal(raster.counts, want)
    assert np.flatnonzero(raster.nodata).tolist() == [NCOLS + 1]


@pytest.mark.parametrize("bad", [-1, np.nan])
def test_settlement_raster_checks_every_band(bad):
    counts = np.zeros(GRID.shape)
    counts[LATER_BAD] = bad
    with pytest.raises(ValueError, match="finite and non-negative"):
        SettlementRaster(GRID, counts)
    nodata = np.zeros(GRID.shape, dtype=bool)
    nodata[LATER_BAD] = True  # a bad count under the mask is no count
    SettlementRaster(GRID, counts, nodata)
    counts[FIRST_BAD] = bad
    with pytest.raises(ValueError, match="finite and non-negative"):
        SettlementRaster(GRID, counts, nodata)


def test_weights_refuses_an_env_code_past_the_first_band(tmp_path, capsys):
    raster = _grid_file(tmp_path / "r.asc", {(5, 5): "4", FIRST_BAD: "2"})
    (tmp_path / "bts.csv").write_text("bts_id,x,y,height_m,freq_mhz,power_dbm\n"
                                      "b1,5000,5000,30,900,43\n", encoding="utf-8")
    ring = [[0, 0], [NCOLS * 100, 0], [NCOLS * 100, NROWS * 100], [0, NROWS * 100], [0, 0]]
    (tmp_path / "a.geojson").write_text(json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"area_id": "A"},
         "geometry": {"type": "Polygon", "coordinates": [ring]}}]}), encoding="utf-8")
    argv = ["weights", "--scheme", "bsa", "--raster", str(raster),
            "--bts", str(tmp_path / "bts.csv"), "--areas", str(tmp_path / "a.geojson"),
            "--out", str(tmp_path / "o")]
    env = _grid_file(tmp_path / "env.asc", {FIRST_BAD: "1", LATER_BAD: "3"})
    assert main([*argv, "--aux", str(env)]) == 1
    assert "environment codes must be integers 0 (urban)" in capsys.readouterr().err
    env = _grid_file(tmp_path / "env.asc", {FIRST_BAD: "1", LATER_BAD: "2"})
    assert main([*argv, "--aux", str(env)]) == 0
    got = cli._load_env_grid(env, GRID, raster)
    assert got.dtype == np.uint8 and got[FIRST_BAD] == 1 and got[LATER_BAD] == 2
    assert np.count_nonzero(got) == 2


# --- bounded peaks -------------------------------------------------------------

# a 600 x 650 grid of counts, 40% settled, some of them NODATA
BIG = Grid(ncols=600, nrows=650, cell_size_m=100.0)
BIG_BAND = (geo._BLOCK_ENTRIES // BIG.ncols) * BIG.ncols


@pytest.fixture(scope="module")
def big_raster():
    rng = np.random.default_rng(1)
    counts = np.where(rng.random(BIG.shape) < 0.4, rng.integers(1, 3000, BIG.shape), 0)
    return SettlementRaster(BIG, counts, rng.random(BIG.shape) < 0.01)


def test_writer_holds_its_text_and_one_band(big_raster, tmp_path):
    """The writer's temporaries are one band's (about 46 B per band cell:
    casts, the mask, the distinct values, the word indices and bytes)
    beside the text it builds; a file write holds the byte text alone,
    `ascii_grid_string` also the str decoded from it.  Whole-grid
    temporaries took about 280 B per band cell at this size."""
    r = big_raster
    text = len(io.ascii_grid_string(r.counts, r.grid, r.nodata))
    band = 64 * BIG_BAND
    assert traced_peak(lambda: io.save_raster(tmp_path / "r.asc", r)) < text + band
    assert traced_peak(lambda: io.ascii_grid_string(r.counts, r.grid, r.nodata)) < 2 * text + band


def test_load_raster_holds_its_result_its_floats_and_one_band(big_raster, tmp_path):
    """`load_raster` holds its int64 counts and nodata mask (9 B per
    cell), the parsed float64 grid (8 B) and one band's checks; whole-grid
    checks took about 107 B per band cell more at this size."""
    io.save_raster(tmp_path / "r.asc", big_raster)
    peak = traced_peak(lambda: io.load_raster(tmp_path / "r.asc"))
    assert peak < 17 * BIG.npixels + 32 * BIG_BAND


def test_settlement_raster_checks_hold_one_band(big_raster):
    """Beyond the all-False nodata mask it keeps, the counts' checks hold
    one band; whole-grid checks took about 100 B per band cell."""
    counts = big_raster.counts
    held = traced_held(lambda: SettlementRaster(BIG, counts))
    assert BIG.npixels <= held < BIG.npixels + 1024  # the nodata mask, a byte per cell
    assert traced_peak(lambda: SettlementRaster(BIG, counts)) - held < 16 * BIG_BAND


def test_weights_walk_holds_no_raster(monkeypatch, tmp_path):
    """`covmap weights` drops the settlement raster once the settlements
    are extracted, so the bsa/idw walk does not hold the grid of counts."""
    from test_cli import tiny_config
    cfg_path = tmp_path / "cfg.json"
    io.save_config(cfg_path, tiny_config(rounds=1))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "s"),
                 "--snapshot"]) == 0
    study = tmp_path / "s"
    rasters, alive = [], []
    load_raster, walk = io.load_raster, cli.settlement_pixel_weights

    def loaded(path):
        raster = load_raster(path)
        rasters.append(weakref.ref(raster))
        return raster

    def walked(*args, **kwargs):
        gc.collect()
        alive.append(rasters[-1]() is not None)
        return walk(*args, **kwargs)

    monkeypatch.setattr(io, "load_raster", loaded)
    monkeypatch.setattr(cli, "settlement_pixel_weights", walked)
    ring = [[0, 0], [5000, 0], [5000, 5000], [0, 5000], [0, 0]]
    (tmp_path / "a.geojson").write_text(json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"area_id": "A"},
         "geometry": {"type": "Polygon", "coordinates": [ring]}}]}), encoding="utf-8")
    for scheme in ("bsa", "idw"):
        assert main(["weights", "--scheme", scheme,
                     "--raster", str(study / "snapshot_settlements.asc"),
                     "--bts", str(study / "snapshot_bts.csv"),
                     "--aux", str(study / "snapshot_env.asc"),
                     "--areas", str(tmp_path / "a.geojson"), "--out", str(tmp_path / scheme)]) == 0
    assert alive == [False, False]
