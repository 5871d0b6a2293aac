"""The vectorised ESRI ASCII grid writer and loader against test-local
copies of the per-cell ones they replaced, and the banded writer against
a copy of the whole-grid one before it: the same bytes, the same values,
masks and errors."""

from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covmap import geo
from covmap.geo import Grid
from covmap.io import NODATA_DEFAULT, ascii_grid_string, fmt12, load_ascii_grid, save_ascii_grid


def _old_ascii_grid_string(values, grid, nodata_mask=None, nodata_value=NODATA_DEFAULT):
    """The writer as it was: `fmt12` once per cell, one join per row."""
    values = np.asarray(values, dtype=np.float64)
    out = [
        f"ncols {grid.ncols}",
        f"nrows {grid.nrows}",
        f"xllcorner {fmt12(grid.origin_x)}",
        f"yllcorner {fmt12(grid.origin_y)}",
        f"cellsize {fmt12(grid.cell_size_m)}",
        f"NODATA_value {fmt12(nodata_value)}",
    ]
    body = values if nodata_mask is None else np.where(nodata_mask, nodata_value, values)
    for r in range(grid.nrows):
        out.append(" ".join(fmt12(v) for v in body[r]))
    return "\n".join(out) + "\n"


def _old_err(path, line, msg):
    where = f"{path}" if line is None else f"{path}: line {line}"
    return ValueError(f"{where}: {msg}")


def _old_float(s):
    """`float(s)`, refusing a word that holds `_` or a non-ASCII character,
    which `float` reads (`1_000` as 1000, `١٢` as 12)."""
    if "_" in s or not s.isascii():
        raise ValueError(s)
    return float(s)


def _old_is_float(s):
    try:
        _old_float(s)
        return True
    except ValueError:
        return False


def _old_load_ascii_grid(path):
    """The loader as it was: `_old_float()` once per whitespace-split token."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = {}
    i = 0
    for key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
        if i >= len(lines):
            raise _old_err(path, i + 1, f"missing header line {key!r}")
        parts = lines[i].split()
        if len(parts) != 2 or parts[0].lower() != key:
            raise _old_err(path, i + 1, f"expected header {key!r}, got {lines[i]!r}")
        try:
            header[key] = _old_float(parts[1])
        except ValueError:
            raise _old_err(path, i + 1, f"non-numeric header value {parts[1]!r}") from None
        if not np.isfinite(header[key]):
            raise _old_err(path, i + 1, f"non-finite header value {parts[1]!r}")
        i += 1
    nodata = None
    if i < len(lines) and lines[i].split() and lines[i].split()[0].lower() == "nodata_value":
        parts = lines[i].split()
        if len(parts) != 2:
            raise _old_err(path, i + 1, f"malformed NODATA_value line {lines[i]!r}")
        try:
            nodata = _old_float(parts[1])
        except ValueError:
            raise _old_err(path, i + 1, f"non-numeric NODATA_value {parts[1]!r}") from None
        if not np.isfinite(nodata):
            raise _old_err(path, i + 1, f"non-finite NODATA_value {parts[1]!r}")
        i += 1
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    if ncols != header["ncols"] or nrows != header["nrows"] or ncols < 1 or nrows < 1:
        raise _old_err(path, None, "ncols/nrows must be positive integers")
    try:
        grid = Grid(ncols=ncols, nrows=nrows, cell_size_m=header["cellsize"],
                    origin_x=header["xllcorner"], origin_y=header["yllcorner"])
    except ValueError as exc:
        raise _old_err(path, None, str(exc)) from None
    data_lines = lines[i:]
    while data_lines and not data_lines[-1].strip():
        data_lines.pop()
    if len(data_lines) != nrows:
        raise _old_err(path, i + 1, f"expected {nrows} data rows, found {len(data_lines)}")
    values = np.empty((nrows, ncols), dtype=np.float64)
    for r, line in enumerate(data_lines):
        parts = line.split()
        if len(parts) != ncols:
            raise _old_err(path, i + r + 1, f"expected {ncols} values, got {len(parts)}")
        try:
            values[r] = [_old_float(p) for p in parts]
        except ValueError:
            bad = next(p for p in parts if not _old_is_float(p))
            raise _old_err(path, i + r + 1, f"non-numeric cell {bad!r}") from None
        if not np.isfinite(values[r]).all():
            bad = parts[int(np.argmin(np.isfinite(values[r])))]
            raise _old_err(path, i + r + 1, f"non-finite cell {bad!r}")
    mask = None
    if nodata is not None:
        mask = values == nodata
        if not mask.any():
            mask = None
    return values, grid, mask, nodata if nodata is not None else NODATA_DEFAULT


# --- writer -------------------------------------------------------------------

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_CELLS = {
    "integer": st.integers(-10**6, 10**6).map(float),
    "near 1e12": st.floats(9.9e11, 1.01e12) | st.floats(-1.01e12, -9.9e11),
    "near 1e-7": st.floats(9.9e-8, 1.01e-7) | st.floats(-1.01e-7, -9.9e-8),
    "any": _FINITE,
}


@st.composite
def _written_grids(draw):
    n = draw(st.integers(1, 7))
    nrows, ncols = draw(st.sampled_from([(1, 1), (1, n), (n, 1), (n, draw(st.integers(1, 7)))]))
    cell = _CELLS[draw(st.sampled_from(sorted(_CELLS)))] | st.sampled_from([0.0, -0.0])
    values = np.array(draw(st.lists(cell, min_size=nrows * ncols, max_size=nrows * ncols)),
                      dtype=np.float64).reshape(nrows, ncols)
    mask = None
    if draw(st.booleans()):
        mask = np.array(draw(st.lists(st.booleans(), min_size=values.size,
                                      max_size=values.size))).reshape(values.shape)
        # a masked cell may hold anything, a NaN included
        values[mask] = draw(st.sampled_from([np.nan, np.inf, 7.0]))
    nodata = draw(st.sampled_from([NODATA_DEFAULT, 0.0, -0.0, 1e12, -1e-7]) | _FINITE)
    grid = Grid(ncols=ncols, nrows=nrows, cell_size_m=draw(st.floats(1e-3, 1e6)),
                origin_x=draw(st.floats(-1e7, 1e7)), origin_y=draw(st.floats(-1e7, 1e7)))
    return values, grid, mask, nodata


@given(_written_grids())
@example((np.array([[-0.0]]), Grid(ncols=1, nrows=1, cell_size_m=1.0), None, -0.0))
@example((np.array([[1e12, 1e-7, -0.0, 123456789012345.0]]), Grid(ncols=4, nrows=1, cell_size_m=1.0),
          np.array([[False, False, False, True]]), 5.5))
@settings(max_examples=300, deadline=None)
def test_writer_bytes_equal_the_per_cell_writer(case):
    values, grid, mask, nodata = case
    assert ascii_grid_string(values, grid, mask, nodata) == _old_ascii_grid_string(
        values, grid, mask, nodata)


def _whole_grid_ascii_grid_string(values, grid, nodata_mask=None, nodata_value=NODATA_DEFAULT):
    """The vectorised writer before it went band by band: one float64
    copy of the grid, masked, and one `np.unique` over it."""
    values = np.asarray(values, dtype=np.float64)
    header = [
        f"ncols {grid.ncols}",
        f"nrows {grid.nrows}",
        f"xllcorner {fmt12(grid.origin_x)}",
        f"yllcorner {fmt12(grid.origin_y)}",
        f"cellsize {fmt12(grid.cell_size_m)}",
        f"NODATA_value {fmt12(nodata_value)}",
    ]
    body = values if nodata_mask is None else np.where(nodata_mask, nodata_value, values)
    uniq, inv = np.unique(body, return_inverse=True)
    words = np.array([fmt12(v) + " " for v in uniq.tolist()], dtype=np.bytes_)
    table = words.view(np.uint8).reshape(uniq.size, words.itemsize)
    inv = inv.reshape(body.shape)
    cells = table[inv]
    sep = np.count_nonzero(table, axis=1) - 1
    cells[np.arange(grid.nrows), -1, sep[inv[:, -1]]] = ord("\n")
    text = cells.ravel()
    return "\n".join(header) + "\n" + text[text != 0].tobytes().decode("ascii")


# words of one to 19 characters (0, 7, -0.5, 123456, 1e-07, -1.23456789012e+15, ...)
_POOLS = {
    np.int64: [0, 7, -12, 123456, 2**53 + 1, -(2**62), 2**63 - 1],
    np.int32: [0, 1, -1, 99, 2**31 - 1, -(2**31)],
    np.uint8: [0, 1, 2, 9, 10, 255],
    np.float64: [0.0, -0.0, 7.0, -0.5, 1e-7, 123456.0, -1.234567890123e15, 2.0**63, 5e-324],
}


@st.composite
def _banded_grids(draw):
    dtype = draw(st.sampled_from(sorted(_POOLS, key=lambda t: t.__name__)))
    nrows, ncols = draw(st.integers(1, 13)), draw(st.integers(1, 9))
    pool = draw(st.lists(st.sampled_from(_POOLS[dtype]), min_size=1, max_size=5))
    values = np.array(draw(st.lists(st.sampled_from(pool), min_size=nrows * ncols,
                                    max_size=nrows * ncols)), dtype=dtype).reshape(nrows, ncols)
    mask = None
    if draw(st.booleans()):
        mask = np.array(draw(st.lists(st.booleans(), min_size=values.size,
                                      max_size=values.size))).reshape(values.shape)
        if dtype is np.float64:
            values[mask] = draw(st.sampled_from([np.nan, np.inf, 3.0]))
    nodata = draw(st.sampled_from([NODATA_DEFAULT, 0.0, 7.0, 1e-7]))
    # a band of 1..ncols * nrows + 1 pixels: one-row bands when it is
    # below ncols, and rows that its band height does not divide
    block = draw(st.integers(1, ncols * nrows + 1))
    return values, Grid(ncols=ncols, nrows=nrows, cell_size_m=100.0), mask, nodata, block


@given(_banded_grids())
@example((np.arange(12, dtype=np.int64).reshape(4, 3) * 1000,
          Grid(ncols=3, nrows=4, cell_size_m=1.0), None, NODATA_DEFAULT, 7))
@example((np.array([[1, 200], [3, 4], [5, 255], [7, 8], [9, 0]], dtype=np.uint8),
          Grid(ncols=2, nrows=5, cell_size_m=1.0),
          np.array([[0, 1], [0, 0], [1, 0], [0, 0], [0, 1]], dtype=bool), 0.0, 1))
@settings(max_examples=300, deadline=None)
def test_banded_writer_bytes_equal_the_whole_grid_writer(case):
    """Any band height, any real input dtype, masks and mixed word widths:
    the banded writer's bytes equal the whole-grid writer's."""
    values, grid, mask, nodata, block = case
    want = _whole_grid_ascii_grid_string(values, grid, mask, nodata)
    with patch.object(geo, "_BLOCK_ENTRIES", block):
        assert ascii_grid_string(values, grid, mask, nodata) == want


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
def test_writer_rejects_a_cell_it_could_not_read_back(tmp_path, cell):
    """A non-finite cell outside the nodata mask is named by row and
    column, not written as a word `load_ascii_grid` refuses; under the
    mask it is written as the nodata value and loads back masked."""
    grid = Grid(ncols=3, nrows=2, cell_size_m=100.0)
    values = np.arange(6, dtype=np.float64).reshape(2, 3)
    values[1, 2] = cell
    with pytest.raises(ValueError, match=r"non-finite cell .* at row 1, column 2 outside"):
        ascii_grid_string(values, grid)
    mask = np.zeros((2, 3), dtype=bool)
    with pytest.raises(ValueError, match=r"at row 1, column 2 outside"):
        ascii_grid_string(values, grid, mask)
    mask[1, 2] = True
    save_ascii_grid(tmp_path / "g.asc", values, grid, mask)
    got, _, got_mask, _ = load_ascii_grid(tmp_path / "g.asc")
    np.testing.assert_array_equal(got_mask, mask)
    np.testing.assert_array_equal(got[~mask], values[~mask])


@pytest.mark.parametrize("nodata", [np.nan, np.inf, -np.inf])
def test_writer_rejects_a_non_finite_nodata_value(nodata):
    grid = Grid(ncols=2, nrows=1, cell_size_m=1.0)
    with pytest.raises(ValueError, match="nodata_value must be finite"):
        ascii_grid_string(np.zeros((1, 2)), grid, nodata_value=nodata)


# --- loader -------------------------------------------------------------------

_NUMBER_WORDS = (st.integers(-10**6, 10**6).map(str) | _FINITE.map(repr) | _FINITE.map(fmt12)
                 | st.sampled_from(["-0", "+1", ".5", "1.", "1E-7", "-9999", "00012", "1e-320"]))
# `float()` takes some of these and `np.loadtxt` does not (underscores,
# Arabic-Indic digits), and both loaders refuse them; the others are
# refused by `float()` too, or not finite
_ODD_WORDS = st.sampled_from(["1_000", "١٢", "٣.٥", "nan", "inf", "-inf",
                              "NaN", "Infinity", "#", "#1", "1#", "x", "1e400", "0x10", "1,5", "1j",
                              "1\x002", "", "\x1f"])
_SEPARATORS = st.sampled_from([" ", " ", "  ", "\t", " \t", "\xa0", "\u2003"])


@st.composite
def _grid_files(draw):
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    lines = [f"ncols {ncols}", f"nrows {nrows}", "xllcorner 0", "yllcorner -50.5",
             "cellsize 100"]
    nodata = draw(st.sampled_from([None, "-9999", "0", "1"]))
    if nodata is not None:
        lines.append(f"NODATA_value {nodata}")
    odd = draw(st.booleans())  # else every cell is a number word
    for _ in range(nrows):
        width = ncols + (draw(st.sampled_from([-1, 0, 0, 0, 0, 1])) if odd else 0)
        words = [draw(_ODD_WORDS if odd and draw(st.integers(0, 9)) == 0 else _NUMBER_WORDS)
                 for _ in range(max(width, 0))]
        sep = draw(_SEPARATORS) if odd else " "
        line = sep.join(words)
        if draw(st.booleans()):
            line = draw(_SEPARATORS) + line + draw(_SEPARATORS)
        lines.append(line)
        if odd and draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))  # a blank interior line
    tail = draw(st.sampled_from(["", "", "\n", "\n\n", " \n\t\n"]))
    return "\n".join(lines) + "\n" + tail


def _loaded(load, path):
    try:
        values, grid, mask, nodata = load(path)
    except ValueError as exc:
        return ("error", str(exc))
    return ("grid", values.dtype, values.shape, values.tobytes(), grid,
            None if mask is None else mask.tobytes(), nodata)


@pytest.fixture(scope="module")
def grid_path(tmp_path_factory):
    return tmp_path_factory.mktemp("grids") / "g.asc"


@given(_grid_files())
@example("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1_000 ١٢\n")
@example("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1\xa02\n3\t4\n\n\n")
@example("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n\n3 4\n")
@example("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n# 2\n3 4\n")
@example("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 #\n3 4#\n")
@example("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 nan\n3 inf\n")
@example("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n3\n")
@example("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"
         "-9999 -0\n-0.0 -9999.0\n")
@settings(max_examples=400, deadline=None)
def test_loader_equals_the_per_token_loader(grid_path, text):
    grid_path.write_bytes(text.encode("utf-8"))
    assert _loaded(load_ascii_grid, grid_path) == _loaded(_old_load_ascii_grid, grid_path)
