"""File formats: ESRI ASCII rasters, CSV tables, GeoJSON areas, JSON config.

Every writer is deterministic — fixed key order, 12-significant-digit
numbers, LF newlines — so identical inputs produce byte-identical
files.  Every loader validates strictly and reports the offending line;
nothing is silently coerced.  Coordinates are projected metres
throughout; CRS handling is upstream tooling.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geo import Grid, SettlementRaster, StatAreaSet
from .mapping import CovariateTable, WeightMatrix
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


# --- ESRI ASCII grids --------------------------------------------------------

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")


def ascii_grid_string(
    values: np.ndarray,
    grid: Grid,
    nodata_mask: np.ndarray | None = None,
    nodata_value: float = NODATA_DEFAULT,
) -> str:
    """Render an array as an ESRI ASCII grid (row 0 = north)."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
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


def save_ascii_grid(path, values, grid: Grid, nodata_mask=None,
                    nodata_value: float = NODATA_DEFAULT) -> None:
    Path(path).write_text(
        ascii_grid_string(values, grid, nodata_mask, nodata_value), encoding="utf-8"
    )


def load_ascii_grid(path) -> tuple[np.ndarray, Grid, np.ndarray | None, float]:
    """Parse an ESRI ASCII grid.

    Returns (values, grid, nodata mask or None, nodata value).  The
    header must list ncols, nrows, xllcorner, yllcorner, cellsize (and
    optionally NODATA_value) in that standard order.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header: dict[str, float] = {}
    i = 0
    for key in _HEADER_KEYS:
        if i >= len(lines):
            raise _err(path, i + 1, f"missing header line {key!r}")
        parts = lines[i].split()
        if len(parts) != 2 or parts[0].lower() != key:
            raise _err(path, i + 1, f"expected header {key!r}, got {lines[i]!r}")
        try:
            header[key] = float(parts[1])
        except ValueError:
            raise _err(path, i + 1, f"non-numeric header value {parts[1]!r}") from None
        if not np.isfinite(header[key]):
            raise _err(path, i + 1, f"non-finite header value {parts[1]!r}")
        i += 1
    nodata = None
    if i < len(lines) and lines[i].split() and lines[i].split()[0].lower() == "nodata_value":
        parts = lines[i].split()
        if len(parts) != 2:
            raise _err(path, i + 1, f"malformed NODATA_value line {lines[i]!r}")
        try:
            nodata = float(parts[1])
        except ValueError:
            raise _err(path, i + 1, f"non-numeric NODATA_value {parts[1]!r}") from None
        if not np.isfinite(nodata):
            raise _err(path, i + 1, f"non-finite NODATA_value {parts[1]!r}")
        i += 1
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    if ncols != header["ncols"] or nrows != header["nrows"] or ncols < 1 or nrows < 1:
        raise _err(path, None, f"ncols/nrows must be positive integers")
    try:
        grid = Grid(ncols=ncols, nrows=nrows, cell_size_m=header["cellsize"],
                    origin_x=header["xllcorner"], origin_y=header["yllcorner"])
    except ValueError as exc:
        raise _err(path, None, str(exc)) from None
    data_lines = lines[i:]
    if len(data_lines) != nrows:
        raise _err(path, i + 1, f"expected {nrows} data rows, found {len(data_lines)}")
    values = np.empty((nrows, ncols), dtype=np.float64)
    for r, line in enumerate(data_lines):
        parts = line.split()
        if len(parts) != ncols:
            raise _err(path, i + r + 1, f"expected {ncols} values, got {len(parts)}")
        try:
            values[r] = [float(p) for p in parts]
        except ValueError:
            bad = next(p for p in parts if not _is_float(p))
            raise _err(path, i + r + 1, f"non-numeric cell {bad!r}") from None
        if not np.isfinite(values[r]).all():
            bad = parts[int(np.argmin(np.isfinite(values[r])))]
            raise _err(path, i + r + 1, f"non-finite cell {bad!r}")
    mask = None
    if nodata is not None:
        mask = values == nodata
        if not mask.any():
            mask = None
    return values, grid, mask, nodata if nodata is not None else NODATA_DEFAULT


def _is_float(s: str) -> bool:
    try:
        float(s)
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
    """Read `bts_id,x,y[,height_m,freq_mhz,power_dbm]`; ids must be unique."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise _err(path, 1, "empty file")
    header = [h.strip() for h in rows[0]]
    if header == _BTS_FULL:
        full = True
    elif header == _BTS_POINTS:
        full = False
    else:
        raise _err(path, 1, f"expected header {','.join(_BTS_FULL)} or "
                            f"{','.join(_BTS_POINTS)}, got {','.join(header)!r}")
    seen: set[str] = set()
    points: list[tuple[str, float, float]] = []
    specs: list[AntennaSpec] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise _err(path, lineno, f"expected {len(header)} fields, got {len(row)}")
        bts_id = row[0].strip()
        if not bts_id:
            raise _err(path, lineno, "empty bts_id")
        if bts_id in seen:
            raise _err(path, lineno, f"duplicate bts_id {bts_id!r}")
        seen.add(bts_id)
        nums = []
        for name, cell in zip(header[1:], row[1:]):
            try:
                v = float(cell)
            except ValueError:
                raise _err(path, lineno, f"non-numeric {name} value {cell!r}") from None
            if not np.isfinite(v):
                raise _err(path, lineno, f"non-finite {name} value {cell!r}")
            nums.append(v)
        points.append((bts_id, nums[0], nums[1]))
        if full:
            try:
                specs.append(AntennaSpec(bts_id, *nums))
            except ValueError as exc:
                raise _err(path, lineno, str(exc)) from None
    if not points:
        raise _err(path, None, "no BTS rows")
    return BtsFile(points, specs if full else None)


def bts_csv_string(specs: list[AntennaSpec]) -> str:
    lines = [",".join(_BTS_FULL)]
    for s in specs:
        lines.append(",".join([s.bts_id, fmt12(s.x), fmt12(s.y), fmt12(s.height_m),
                               fmt12(s.freq_mhz), fmt12(s.power_dbm)]))
    return "\n".join(lines) + "\n"


def save_bts_csv(path, specs: list[AntennaSpec]) -> None:
    Path(path).write_text(bts_csv_string(specs), encoding="utf-8")


# --- GeoJSON statistical areas -----------------------------------------------


def load_areas_geojson(path) -> StatAreaSet:
    """Read a FeatureCollection of (Multi)Polygons with `area_id` properties.

    Feature order is preserved; ring coordinates are projected metres.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise _err(path, exc.lineno, f"invalid JSON: {exc.msg}") from None
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
        rings = []
        try:
            for poly in polys:
                for ring in poly:
                    rings.append(np.asarray(ring, dtype=np.float64))
        except (TypeError, ValueError):
            raise _err(path, None, f"feature {idx} ({area_id!r}): malformed coordinates") from None
        pairs.append((area_id, rings))
    try:
        return StatAreaSet.from_polygons(pairs)
    except ValueError as exc:
        raise _err(path, None, str(exc)) from None


# --- covariates --------------------------------------------------------------


def load_covariates_csv(path) -> CovariateTable:
    """Read `bts_id,<name>...`; empty cells are missing values (NaN)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise _err(path, 1, "empty file")
    header = [h.strip() for h in rows[0]]
    if len(header) < 2 or header[0] != "bts_id":
        raise _err(path, 1, f"expected header bts_id,<column>..., got {','.join(header)!r}")
    names = header[1:]
    if len(set(names)) != len(names):
        raise _err(path, 1, "duplicate column names")
    ids: list[str] = []
    cols: dict[str, list[float]] = {n: [] for n in names}
    seen: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise _err(path, lineno, f"expected {len(header)} fields, got {len(row)}")
        bid = row[0].strip()
        if not bid:
            raise _err(path, lineno, "empty bts_id")
        if bid in seen:
            raise _err(path, lineno, f"duplicate bts_id {bid!r}")
        seen.add(bid)
        ids.append(bid)
        for name, cell in zip(names, row[1:]):
            cell = cell.strip()
            if cell == "":
                cols[name].append(float("nan"))
                continue
            try:
                cols[name].append(float(cell))
            except ValueError:
                raise _err(path, lineno, f"non-numeric {name} value {cell!r}") from None
    return CovariateTable(ids, {n: np.array(v) for n, v in cols.items()})


def covariates_csv_string(table: CovariateTable) -> str:
    names = sorted(table.columns)
    lines = ["bts_id," + ",".join(names)]
    for i, bid in enumerate(table.bts_ids):
        cells = [bid]
        for n in names:
            v = table.columns[n][i]
            cells.append("" if not np.isfinite(v) else fmt12(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# --- weight matrices ---------------------------------------------------------


def weights_csv_string(wm: WeightMatrix) -> str:
    lines = ["area_id,bts_id,weight"]
    for aid, bid, w in wm.entries():
        lines.append(f"{aid},{bid},{fmt12(w)}")
    return "\n".join(lines) + "\n"


def load_weights_csv(path, area_ids: list[str] | None = None,
                     scheme: str = "") -> WeightMatrix:
    """Read weight triplets back into a WeightMatrix.

    `area_ids` extends the universe beyond the covered areas in the
    file (needed to surface no-coverage areas downstream).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or [h.strip() for h in rows[0]] != ["area_id", "bts_id", "weight"]:
        raise _err(path, 1, "expected header area_id,bts_id,weight")
    data: dict[str, dict[str, float]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise _err(path, lineno, f"expected 3 fields, got {len(row)}")
        aid, bid, cell = row[0].strip(), row[1].strip(), row[2].strip()
        if not aid or not bid:
            raise _err(path, lineno, "empty area_id or bts_id")
        try:
            w = float(cell)
        except ValueError:
            raise _err(path, lineno, f"non-numeric weight {cell!r}") from None
        if bid in data.get(aid, {}):
            raise _err(path, lineno, f"duplicate entry for ({aid!r}, {bid!r})")
        data.setdefault(aid, {})[bid] = w
    universe = list(area_ids) if area_ids is not None else sorted(data)
    missing = [a for a in data if a not in set(universe)]
    if missing:
        raise _err(path, None, f"weights reference unknown area ids {sorted(missing)}")
    try:
        return WeightMatrix(scheme, universe, data)
    except ValueError as exc:
        raise _err(path, None, str(exc)) from None


# --- study tables ------------------------------------------------------------

METRICS_HEADER = "round,scheme,metric,env_class,value"


def metrics_csv_string(records: list[tuple]) -> str:
    lines = [METRICS_HEADER]
    for rnd, scheme, metric, env, value in records:
        cell = "" if not np.isfinite(value) else fmt12(value)
        lines.append(f"{rnd},{scheme},{metric},{env},{cell}")
    return "\n".join(lines) + "\n"


def load_metrics_csv(path) -> list[tuple]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or ",".join(h.strip() for h in rows[0]) != METRICS_HEADER:
        raise _err(path, 1, f"expected header {METRICS_HEADER}")
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 5:
            raise _err(path, lineno, f"expected 5 fields, got {len(row)}")
        try:
            rnd = int(row[0])
            value = float("nan") if row[4].strip() == "" else float(row[4])
        except ValueError:
            raise _err(path, lineno, f"malformed row {row!r}") from None
        records.append((rnd, row[1], row[2], row[3], value))
    return records


def tally_csv_string(tally: dict[tuple[str, str], float], schemes, metrics) -> str:
    lines = ["scheme,metric,win_pct"]
    for s in schemes:
        for m in metrics:
            lines.append(f"{s},{m},{fmt12(tally.get((s, m), 0.0))}")
    return "\n".join(lines) + "\n"


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
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise _err(path, exc.lineno, f"invalid JSON: {exc.msg}") from None
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
