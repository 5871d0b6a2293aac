"""File formats: ESRI ASCII rasters, CSV tables, GeoJSON areas, JSON config.

Every writer is deterministic — fixed key order, 12-significant-digit
numbers, LF newlines — so identical inputs produce byte-identical
files.  Every loader validates strictly and names the file, and the
line where it can; nothing is silently coerced.  Each format has one
reader over strict UTF-8 (`_csv_rows`, `_json_doc`, `load_ascii_grid`),
and `_csv_text` writes every CSV table.  Coordinates are projected
metres within `COORD_LIMIT_M` of the origin; CRS handling is upstream.

ASCII grids have no Python loop per cell: the writer formats each distinct
value once, and the loader parses rows with `np.loadtxt`, falling back to a
strict per-line parse for any file that `loadtxt` rejects.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geo import COORD_LIMIT_M, Grid, SettlementRaster, StatAreaSet
from .mapping import CovariateTable, WeightMatrix, sorted_csr
from .propagation import AntennaSpec
from .simulation import SimConfig

NODATA_DEFAULT = -9999.0


def fmt12(x: float) -> str:
    """Canonical numeric formatting: 12 significant digits, no negative zero."""
    x = float(x)
    if x == 0.0:
        x = 0.0
    return "%.12g" % x


def _err(path, line: int | None, msg: str) -> ValueError:
    where = f"{path}" if line is None else f"{path}: line {line}"
    return ValueError(f"{where}: {msg}")


def _text(path) -> str:
    """The file's text, newlines untranslated; bytes that are not UTF-8
    are an error naming the file and line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _err(path, data.count(b"\n", 0, exc.start) + 1,
                   f"not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}") from None


def _json_doc(path):
    """The JSON value in a file; a syntax error names the file and line,
    a key repeated within one object names the file and the key, and an
    integer past Python's digit limit names the file."""

    def unique_keys(pairs):
        doc, seen = dict(pairs), set()
        if len(doc) < len(pairs):  # the first key seen twice
            raise KeyError(next(k for k, _ in pairs if k in seen or seen.add(k)))
        return doc

    text = _text(path)
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise _err(path, exc.lineno, f"invalid JSON: {exc.msg}") from None
    except KeyError as exc:
        raise _err(path, None, f"duplicate key {exc.args[0]!r}") from None
    except ValueError as exc:  # `int` refuses more digits than its limit
        raise _err(path, None, f"invalid JSON: {exc}") from None
    except RecursionError:
        raise _err(path, None, "invalid JSON: nested too deeply") from None


def _plain(word: str) -> str:
    """`word`, refused if it holds `_` or a non-ASCII character: `float`
    and `int` read `1_000` as 1000 and the Arabic-Indic `١٢` as 12."""
    if "_" in word or not word.isascii():
        raise ValueError(word)
    return word


def _number(path, line: int, what: str, word: str) -> float:
    """`float(word)`, finite and `_plain`; the errors name `what` it is."""
    try:
        v = float(_plain(word))
    except ValueError:
        raise _err(path, line, f"non-numeric {what} {word!r}") from None
    if not math.isfinite(v):
        raise _err(path, line, f"non-finite {what} {word!r}")
    return v


# --- ESRI ASCII grids --------------------------------------------------------

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")


def ascii_grid_string(
    values: np.ndarray,
    grid: Grid,
    nodata_mask: np.ndarray | None = None,
    nodata_value: float = NODATA_DEFAULT,
) -> str:
    """Render an array as an ESRI ASCII grid (row 0 = north).

    Each cell is `fmt12` of its value (of `nodata_value` under the mask),
    cells are space-separated and every line ends in LF.  Each distinct
    value is formatted once and its word gathered per cell.  A cell that
    would not load back (NaN or infinite outside the mask, or a
    non-finite `nodata_value`) is a ValueError.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
    if not math.isfinite(nodata_value):
        raise ValueError(f"nodata_value must be finite, got {nodata_value!r}")
    body = values if nodata_mask is None else np.where(nodata_mask, nodata_value, values)
    bad = ~np.isfinite(body)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise ValueError(f"non-finite cell {float(body[r, c])!r} at row {r}, column {c} "
                         "outside the nodata mask")
    header = [
        f"ncols {grid.ncols}",
        f"nrows {grid.nrows}",
        f"xllcorner {fmt12(grid.origin_x)}",
        f"yllcorner {fmt12(grid.origin_y)}",
        f"cellsize {fmt12(grid.cell_size_m)}",
        f"NODATA_value {fmt12(nodata_value)}",
    ]
    # each distinct value's word and separator, NUL-padded to one width
    uniq, inv = np.unique(body, return_inverse=True)
    words = np.array([fmt12(v) + " " for v in uniq.tolist()], dtype=np.bytes_)
    table = words.view(np.uint8).reshape(uniq.size, words.itemsize)
    inv = inv.reshape(body.shape)
    cells = table[inv]
    # each row's last separator ends the line
    sep = np.count_nonzero(table, axis=1) - 1
    cells[np.arange(grid.nrows), -1, sep[inv[:, -1]]] = ord("\n")
    text = cells.ravel()
    return "\n".join(header) + "\n" + text[text != 0].tobytes().decode("ascii")


def save_ascii_grid(path, values, grid: Grid, nodata_mask=None,
                    nodata_value: float = NODATA_DEFAULT) -> None:
    Path(path).write_text(
        ascii_grid_string(values, grid, nodata_mask, nodata_value), encoding="utf-8"
    )


def load_ascii_grid(path) -> tuple[np.ndarray, Grid, np.ndarray | None, float]:
    """Parse an ESRI ASCII grid.

    Returns (values, grid, nodata mask or None, nodata value).  The
    header must list ncols, nrows, xllcorner, yllcorner, cellsize (and
    optionally NODATA_value) in that standard order.  The data rows are
    parsed by `np.loadtxt`, whose values are those of `float()`; the
    result is kept only when it is nrows x ncols and finite.  Otherwise
    the strict per-line parse reads the rows again: it names the line of
    the first bad row, and it refuses what `float()` takes but `loadtxt`
    does not, a token holding `_` or a non-ASCII character (`_plain`).
    """
    text = _text(path)
    lines = text.splitlines()
    header: dict[str, float] = {}
    for i, key in enumerate(_HEADER_KEYS):
        if i >= len(lines):
            raise _err(path, i + 1, f"missing header line {key!r}")
        parts = lines[i].split()
        if len(parts) != 2 or parts[0].lower() != key:
            raise _err(path, i + 1, f"expected header {key!r}, got {lines[i]!r}")
        header[key] = _number(path, i + 1, "header value", parts[1])
    i = len(_HEADER_KEYS)
    nodata = None
    parts = lines[i].split() if i < len(lines) else []
    if parts and parts[0].lower() == "nodata_value":
        if len(parts) != 2:
            raise _err(path, i + 1, f"malformed NODATA_value line {lines[i]!r}")
        nodata = _number(path, i + 1, "NODATA_value", parts[1])
        i += 1
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    if ncols != header["ncols"] or nrows != header["nrows"] or ncols < 1 or nrows < 1:
        raise _err(path, None, "ncols/nrows must be positive integers")
    if ncols * nrows > len(text):  # each cell takes a character at least
        raise _err(path, None, f"ncols x nrows exceeds the {len(text)} characters of the file")
    try:
        grid = Grid(ncols=ncols, nrows=nrows, cell_size_m=header["cellsize"],
                    origin_x=header["xllcorner"], origin_y=header["yllcorner"])
    except ValueError as exc:
        raise _err(path, None, str(exc)) from None
    x0, y0, cell = grid.origin_x, grid.origin_y, grid.cell_size_m
    if max(abs(x0), abs(y0), abs(x0 + ncols * cell), abs(y0 + nrows * cell)) > COORD_LIMIT_M:
        raise _err(path, None, f"grid extent beyond ±{COORD_LIMIT_M:g} m")
    data_lines = lines[i:]
    while data_lines and not data_lines[-1].strip():  # blank lines after the last row
        data_lines.pop()
    if len(data_lines) != nrows:
        raise _err(path, i + 1, f"expected {nrows} data rows, found {len(data_lines)}")
    try:
        values = np.loadtxt(data_lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        values = None
    if values is None or values.shape != (nrows, ncols) or not np.isfinite(values).all():
        values = _parse_grid_rows(path, data_lines, i, ncols)
    mask = None
    if nodata is not None:
        mask = values == nodata
        if not mask.any():
            mask = None
    return values, grid, mask, nodata if nodata is not None else NODATA_DEFAULT


def _parse_grid_rows(path, data_lines: list[str], i: int, ncols: int) -> np.ndarray:
    """`float()` of each whitespace-split `_plain` token, row by row;
    `data_lines` start at file line i + 1, which a bad row's error names."""
    values = np.empty((len(data_lines), ncols), dtype=np.float64)
    for r, line in enumerate(data_lines):
        parts = line.split()
        if len(parts) != ncols:
            raise _err(path, i + r + 1, f"expected {ncols} values, got {len(parts)}")
        try:
            values[r] = [float(_plain(p)) for p in parts]
        except ValueError:
            bad = next(p for p in parts if not _is_float(p))
            raise _err(path, i + r + 1, f"non-numeric cell {bad!r}") from None
        if not np.isfinite(values[r]).all():
            bad = parts[int(np.argmin(np.isfinite(values[r])))]
            raise _err(path, i + r + 1, f"non-finite cell {bad!r}")
    return values


def _is_float(s: str) -> bool:
    try:
        float(_plain(s))
        return True
    except ValueError:
        return False


def load_raster(path) -> SettlementRaster:
    """Load a settlement-count raster; NODATA cells count as uninhabited."""
    values, grid, mask, _ = load_ascii_grid(path)
    body = values if mask is None else np.where(mask, 0.0, values)
    bad = (body != np.floor(body)) | (body < 0) | (body >= 2.0**63)
    if bad.any():
        raise _err(path, None, "settlement counts must be non-negative integers below 2^63 "
                               f"(data row {np.argwhere(bad)[0][0] + 1})")
    return SettlementRaster(grid, body.astype(np.int64), nodata=mask)


def save_raster(path, raster: SettlementRaster,
                nodata_value: float = NODATA_DEFAULT) -> None:
    save_ascii_grid(path, raster.counts.astype(np.float64), raster.grid,
                    raster.nodata, nodata_value)


# --- CSV tables --------------------------------------------------------------


def _csv_rows(path, header_ok, expected: str):
    """A CSV file's stripped header, which must pass `header_ok` (else the
    error quotes `expected`), and an iterator over its non-blank rows as
    (line, fields) pairs.  A row wider or narrower than the header is an
    error when the iterator reaches it, so a loader's errors come in row
    order.  No field may hold a line break: a stray quote would swallow the
    lines after it."""
    from io import StringIO
    reader = csv.reader(StringIO(_text(path), newline=""))
    records: list[list[str]] = []
    try:
        for fields in reader:
            if reader.line_num != len(records) + 1:
                raise _err(path, len(records) + 1, "line break inside a quoted field")
            records.append(fields)
    except csv.Error as exc:
        raise _err(path, len(records) + 1, str(exc)) from None
    if not records:
        raise _err(path, 1, "empty file")
    header = [h.strip() for h in records[0]]
    if not header_ok(header):
        raise _err(path, 1, f"expected header {expected}, got {','.join(header)!r}")

    def rows():
        for line, fields in enumerate(records[1:], start=2):
            if fields and len(fields) != len(header):
                raise _err(path, line, f"expected {len(header)} fields, got {len(fields)}")
            if fields:
                yield line, fields

    return header, rows()


def _new_id(path, line: int, cell: str, seen: set[str]) -> str:
    """The stripped bts_id in `cell`, added to `seen`; empty or seen is an error."""
    bts_id = cell.strip()
    if not bts_id:
        raise _err(path, line, "empty bts_id")
    if bts_id in seen:
        raise _err(path, line, f"duplicate bts_id {bts_id!r}")
    seen.add(bts_id)
    return bts_id


def _cell(v: float) -> str:
    """A number's CSV cell; the empty cell is the one spelling of NaN."""
    return fmt12(v) if math.isfinite(v) else ""


def _csv_text(header: str, rows) -> str:
    """The header line and one line of comma-joined cells per row, each ending in LF."""
    return "\n".join([header, *map(",".join, rows)]) + "\n"


# --- BTS tables --------------------------------------------------------------

_BTS_FULL = ["bts_id", "x", "y", "height_m", "freq_mhz", "power_dbm"]
_BTS_POINTS = ["bts_id", "x", "y"]


@dataclass
class BtsFile:
    """Parsed BTS table; `specs` is None when the file only carries
    coordinates and technical specs still need synthesis."""

    points: list[tuple[str, float, float]]
    specs: list[AntennaSpec] | None

    @property
    def needs_synthesis(self) -> bool:
        return self.specs is None


def load_bts_csv(path) -> BtsFile:
    """Read `bts_id,x,y[,height_m,freq_mhz,power_dbm]`; ids must be unique
    and |x|, |y| at most `COORD_LIMIT_M`."""
    header, rows = _csv_rows(path, lambda h: h in (_BTS_FULL, _BTS_POINTS),
                             f"{','.join(_BTS_FULL)} or {','.join(_BTS_POINTS)}")
    full = header == _BTS_FULL
    seen: set[str] = set()
    points: list[tuple[str, float, float]] = []
    specs: list[AntennaSpec] = []
    for line, fields in rows:
        bts_id = _new_id(path, line, fields[0], seen)
        nums = [_number(path, line, f"{n} value", c) for n, c in zip(header[1:], fields[1:])]
        if max(abs(nums[0]), abs(nums[1])) > COORD_LIMIT_M:
            raise _err(path, line, f"x or y beyond ±{COORD_LIMIT_M:g} m")
        points.append((bts_id, nums[0], nums[1]))
        if full:
            try:
                specs.append(AntennaSpec(bts_id, *nums))
            except ValueError as exc:
                raise _err(path, line, str(exc)) from None
    if not points:
        raise _err(path, None, "no BTS rows")
    return BtsFile(points, specs if full else None)


def bts_csv_string(specs: list[AntennaSpec]) -> str:
    return _csv_text(",".join(_BTS_FULL), (
        [s.bts_id] + [fmt12(v) for v in (s.x, s.y, s.height_m, s.freq_mhz, s.power_dbm)]
        for s in specs))


def save_bts_csv(path, specs: list[AntennaSpec]) -> None:
    Path(path).write_text(bts_csv_string(specs), encoding="utf-8")


# --- GeoJSON statistical areas -----------------------------------------------


def load_areas_geojson(path) -> StatAreaSet:
    """Read a FeatureCollection of (Multi)Polygons with `area_id` properties.

    Feature order is preserved; ring coordinates are projected metres
    within `COORD_LIMIT_M` of the origin.
    """
    doc = _json_doc(path)
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise _err(path, None, "expected a GeoJSON FeatureCollection")
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise _err(path, None, "'features' must be a list")
    pairs = []
    for idx, feat in enumerate(features):
        if not isinstance(feat, dict):
            raise _err(path, None, f"feature {idx}: expected an object")
        props = feat.get("properties") or {}
        if not isinstance(props, dict):
            raise _err(path, None, f"feature {idx}: 'properties' must be an object")
        area_id = props.get("area_id")
        if not isinstance(area_id, str) or not area_id:
            raise _err(path, None, f"feature {idx}: missing string property 'area_id'")
        geom = feat.get("geometry") or {}
        if not isinstance(geom, dict):
            raise _err(path, None, f"feature {idx} ({area_id!r}): 'geometry' must be an object")
        gtype = geom.get("type")
        coords = geom.get("coordinates")
        if gtype == "Polygon":
            polys = [coords]
        elif gtype == "MultiPolygon":
            polys = coords
        else:
            raise _err(path, None,
                       f"feature {idx} ({area_id!r}): geometry must be Polygon or "
                       f"MultiPolygon, got {gtype!r}")
        try:
            rings = [np.asarray(ring, dtype=np.float64) for poly in polys for ring in poly]
        except (TypeError, ValueError, OverflowError):  # overflow: an integer beyond float64
            raise _err(path, None, f"feature {idx} ({area_id!r}): malformed coordinates") from None
        if any(np.any(np.abs(ring) > COORD_LIMIT_M) for ring in rings):
            raise _err(path, None, f"feature {idx} ({area_id!r}): ring coordinates beyond "
                                   f"±{COORD_LIMIT_M:g} m")
        pairs.append((area_id, rings))
    try:
        return StatAreaSet.from_polygons(pairs)
    except ValueError as exc:
        raise _err(path, None, str(exc)) from None


# --- covariates --------------------------------------------------------------


def load_covariates_csv(path) -> CovariateTable:
    """Read `bts_id,<name>...`; empty cells are missing values (NaN), the
    only way to write one, so a non-finite number is an error."""
    header, rows = _csv_rows(path, lambda h: len(h) >= 2 and h[0] == "bts_id",
                             "bts_id,<column>...")
    names = header[1:]
    if len(set(names)) != len(names):
        raise _err(path, 1, "duplicate column names")
    ids: list[str] = []
    cols: dict[str, list[float]] = {n: [] for n in names}
    seen: set[str] = set()
    for line, fields in rows:
        ids.append(_new_id(path, line, fields[0], seen))
        for name, cell in zip(names, fields[1:]):
            cell = cell.strip()
            cols[name].append(_number(path, line, f"{name} value", cell) if cell else math.nan)
    return CovariateTable(ids, {n: np.array(v) for n, v in cols.items()})


def covariates_csv_string(table: CovariateTable) -> str:
    names = sorted(table.columns)
    return _csv_text("bts_id," + ",".join(names),
                     zip(table.bts_ids, *(map(_cell, table.columns[n]) for n in names)))


# --- weight matrices ---------------------------------------------------------


def weights_csv_string(wm: WeightMatrix) -> str:
    return _csv_text("area_id,bts_id,weight",
                     ((aid, bid, fmt12(w)) for aid, bid, w in wm.entries()))


def load_weights_csv(path, area_ids: list[str] | None = None,
                     scheme: str = "") -> WeightMatrix:
    """Read weight triplets back into a WeightMatrix.

    `area_ids` extends the universe beyond the covered areas in the
    file (needed to surface no-coverage areas downstream).
    """
    _, rows = _csv_rows(path, lambda h: h == ["area_id", "bts_id", "weight"],
                        "area_id,bts_id,weight")
    data: dict[tuple[str, str], float] = {}
    for line, fields in rows:
        aid, bid, cell = (f.strip() for f in fields)
        if not aid or not bid:
            raise _err(path, line, "empty area_id or bts_id")
        try:
            w = float(_plain(cell))
        except ValueError:
            raise _err(path, line, f"non-numeric weight {cell!r}") from None
        if not (math.isfinite(w) and w > 0):
            raise _err(path, line, f"weight {cell!r} must be finite and positive")
        if (aid, bid) in data:
            raise _err(path, line, f"duplicate entry for ({aid!r}, {bid!r})")
        data[aid, bid] = w
    universe = list(area_ids) if area_ids is not None else sorted({a for a, _ in data})
    index = {a: i for i, a in enumerate(universe)}
    missing = {a for a, _ in data if a not in index}
    if missing:
        raise _err(path, None, f"weights reference unknown area ids {sorted(missing)}")
    bts_ids = sorted({b for _, b in data})
    area = np.array([index[a] for a, _ in data], dtype=np.int64)
    indptr, col, order = sorted_csr(len(universe), area, [b for _, b in data], bts_ids)
    try:
        return WeightMatrix(scheme, universe, bts_ids, indptr, col,
                            np.array(list(data.values()))[order])
    except ValueError as exc:
        raise _err(path, None, str(exc)) from None


# --- study tables ------------------------------------------------------------

METRICS_HEADER = "round,scheme,metric,env_class,value"


def metrics_csv_string(records: list[tuple]) -> str:
    return _csv_text(METRICS_HEADER, ((str(rnd), scheme, metric, env, _cell(value))
                                      for rnd, scheme, metric, env, value in records))


def load_metrics_csv(path) -> list[tuple]:
    """Read `rounds.csv`; an empty value cell is undefined (NaN), the
    only way to write one, so a non-finite number is an error."""
    _, rows = _csv_rows(path, lambda h: ",".join(h) == METRICS_HEADER, METRICS_HEADER)
    records = []
    for line, fields in rows:
        try:
            rnd = int(_plain(fields[0]))
        except ValueError:
            raise _err(path, line, f"malformed row {fields!r}") from None
        cell = fields[4].strip()
        value = _number(path, line, "value", cell) if cell else math.nan
        records.append((rnd, fields[1], fields[2], fields[3], value))
    return records


def tally_csv_string(tally: dict[tuple[str, str], float], schemes, metrics) -> str:
    return _csv_text("scheme,metric,win_pct",
                     ((s, m, fmt12(tally.get((s, m), 0.0))) for s in schemes for m in metrics))


# --- configuration -----------------------------------------------------------

_TUPLE_FIELDS = {"mask_rect", "height_range_m", "power_range_dbm"}


def config_to_dict(cfg: SimConfig) -> dict:
    """Effective configuration: every field materialized, JSON-friendly."""
    out = {}
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out


def config_json_string(cfg: SimConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def save_config(path, cfg: SimConfig) -> None:
    Path(path).write_text(config_json_string(cfg), encoding="utf-8")


def load_config(path) -> SimConfig:
    """Read a config JSON; unknown keys are an error, absent keys default."""
    doc = _json_doc(path)
    if not isinstance(doc, dict):
        raise _err(path, None, "config must be a JSON object")
    return config_from_dict(doc, source=str(path))


def config_from_dict(doc: dict, source: str = "<config>") -> SimConfig:
    known = {f.name for f in dataclasses.fields(SimConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"{source}: unknown config keys {unknown}")
    kwargs = {}
    for key, value in doc.items():
        if key in _TUPLE_FIELDS:
            if value is None and key == "mask_rect":
                kwargs[key] = None
                continue
            if not isinstance(value, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
            ):
                raise ValueError(f"{source}: {key} must be a list of numbers or null")
            kwargs[key] = tuple(value)
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{source}: {key} must be a number, got {value!r}")
            kwargs[key] = value
    try:
        return SimConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{source}: {exc}") from None


# --- output bundles ----------------------------------------------------------


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def save_outputs(
    out_dir,
    weight_matrices: dict[str, WeightMatrix] | None = None,
    metrics: list[tuple] | None = None,
    tally_csv: str | None = None,
    config: SimConfig | None = None,
    extra: dict[str, str] | None = None,
) -> dict:
    """Write a deterministic output bundle plus `manifest.json`.

    Returns the manifest: {"files": {name: sha256 of content}}.  The
    manifest lists every artifact except itself.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    contents: dict[str, str] = {}
    for key in sorted(weight_matrices or {}):
        contents[f"weights_{key}.csv"] = weights_csv_string(weight_matrices[key])
    if metrics is not None:
        contents["rounds.csv"] = metrics_csv_string(metrics)
    if tally_csv is not None:
        contents["tally.csv"] = tally_csv
    if config is not None:
        contents["config.json"] = config_json_string(config)
    for name in sorted(extra or {}):
        contents[name] = extra[name]
    manifest = {"files": {}}
    for name in sorted(contents):
        data = contents[name].encode("utf-8")
        try:
            (out / name).write_bytes(data)
        except OSError as exc:
            raise OSError(f"cannot write {out / name}: {exc}") from exc
        manifest["files"][name] = sha256_hex(data)
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest
