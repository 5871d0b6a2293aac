"""Grids, settlement rasters, statistical areas and spatial assignment.

All geometry lives in a projected planar coordinate system in metres.
Rasters follow the usual GIS convention: row 0 is the top of the map, so
the centre of pixel (r, c) sits at

    x = origin_x + (c + 0.5) * cell_size
    y = origin_y + (nrows - r - 0.5) * cell_size

with (origin_x, origin_y) the lower-left corner.  Pixel ids are
row-major: id = r * ncols + c.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

UNASSIGNED = -1

_CHUNK = 32768  # points per distance-matrix chunk


@dataclass(frozen=True)
class Grid:
    """Regular raster grid in projected metres."""

    ncols: int
    nrows: int
    cell_size_m: float
    origin_x: float = 0.0
    origin_y: float = 0.0

    def __post_init__(self):
        if self.ncols < 1 or self.nrows < 1:
            raise ValueError(f"grid must have positive dimensions, got {self.ncols}x{self.nrows}")
        if not (self.cell_size_m > 0 and np.isfinite(self.cell_size_m)):
            raise ValueError(f"cell_size_m must be positive and finite, got {self.cell_size_m}")
        if not (np.isfinite(self.origin_x) and np.isfinite(self.origin_y)):
            raise ValueError("grid origin must be finite")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def npixels(self) -> int:
        return self.nrows * self.ncols

    def pixel_id(self, rows, cols):
        return np.asarray(rows, dtype=np.int64) * self.ncols + np.asarray(cols, dtype=np.int64)

    def rowcol_of_id(self, pixel_ids):
        pids = np.asarray(pixel_ids, dtype=np.int64)
        return pids // self.ncols, pids % self.ncols

    def centers(self, rows, cols) -> tuple[np.ndarray, np.ndarray]:
        """Centre coordinates (m) of the given row/col pixel indices."""
        r = np.asarray(rows, dtype=np.float64)
        c = np.asarray(cols, dtype=np.float64)
        x = self.origin_x + (c + 0.5) * self.cell_size_m
        y = self.origin_y + (self.nrows - r - 0.5) * self.cell_size_m
        return x, y

    def locate(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Pixel indices containing the given points; -1/-1 when off-grid."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        c = np.floor((x - self.origin_x) / self.cell_size_m).astype(np.int64)
        r = self.nrows - 1 - np.floor((y - self.origin_y) / self.cell_size_m).astype(np.int64)
        bad = (c < 0) | (c >= self.ncols) | (r < 0) | (r >= self.nrows)
        return np.where(bad, UNASSIGNED, r), np.where(bad, UNASSIGNED, c)

    def pixel_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Centre coordinates (m) of every pixel, flat in pixel-id order."""
        return self.centers(*self.rowcol_of_id(np.arange(self.npixels)))

    def extent(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the grid footprint."""
        return (
            self.origin_x,
            self.origin_y,
            self.origin_x + self.ncols * self.cell_size_m,
            self.origin_y + self.nrows * self.cell_size_m,
        )


@dataclass
class SettlementRaster:
    """Per-pixel inhabitant counts with an optional nodata mask."""

    grid: Grid
    counts: np.ndarray
    nodata: np.ndarray | None = None

    def __post_init__(self):
        self.counts = np.asarray(self.counts)
        if self.counts.shape != self.grid.shape:
            raise ValueError(f"counts shape {self.counts.shape} != grid shape {self.grid.shape}")
        if self.nodata is None:
            self.nodata = np.zeros(self.grid.shape, dtype=bool)
        else:
            self.nodata = np.asarray(self.nodata, dtype=bool)
            if self.nodata.shape != self.grid.shape:
                raise ValueError("nodata mask shape does not match grid")
        valid = self.counts[~self.nodata]
        if valid.size and (np.any(~np.isfinite(valid.astype(np.float64))) or np.any(valid < 0)):
            raise ValueError("settlement counts must be finite and non-negative")

    @property
    def settled(self) -> np.ndarray:
        """Pixels that count as settlements (>= 1 inhabitant, not nodata)."""
        return (~self.nodata) & (self.counts >= 1)


@dataclass
class Settlements:
    """Extracted settlement pixels in pixel-id order."""

    grid: Grid
    ids: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    x: np.ndarray
    y: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return int(self.ids.size)


def extract_settlements(raster: SettlementRaster) -> Settlements:
    """List settlement pixels (count >= 1 outside nodata), row-major order.

    An empty result is returned with a warning rather than an error:
    downstream schemes treat it as total no-coverage.
    """
    rows, cols = np.nonzero(raster.settled)
    if rows.size == 0:
        warnings.warn("raster contains no settlement pixels", stacklevel=2)
    x, y = raster.grid.centers(rows, cols)
    return Settlements(
        grid=raster.grid,
        ids=raster.grid.pixel_id(rows, cols),
        rows=rows.astype(np.int64),
        cols=cols.astype(np.int64),
        x=x,
        y=y,
        counts=raster.counts[rows, cols].astype(np.float64),
    )


@dataclass
class Assignment:
    """Per-pixel serving-site labels on a grid.

    `labels[r, c]` indexes into `bts_ids`; UNASSIGNED (-1) marks pixels
    with no serving site.
    """

    grid: Grid
    bts_ids: list[str]
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int32)
        if self.labels.shape != self.grid.shape:
            raise ValueError("labels shape does not match grid")
        if self.labels.size and (
            self.labels.min() < UNASSIGNED or self.labels.max() >= len(self.bts_ids)
        ):
            raise ValueError("labels out of range for bts_ids")


def nearest_index(x, y, sx, sy) -> np.ndarray:
    """Index of the nearest site for each point, by planar squared distance.

    Ties go to the lowest site index (argmin's first hit), so callers
    wanting the lowest bts_id pass sites sorted by id.  Points stream in
    chunks, so memory stays bounded for any number of points.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    sx = np.asarray(sx, dtype=np.float64)
    sy = np.asarray(sy, dtype=np.float64)
    out = np.empty(x.size, dtype=np.int64)
    for lo in range(0, x.size, _CHUNK):
        hi = min(lo + _CHUNK, x.size)
        d2 = (x[lo:hi, None] - sx) ** 2 + (y[lo:hi, None] - sy) ** 2
        out[lo:hi] = np.argmin(d2, axis=1)
    return out


def voronoi_assign(grid: Grid, sites) -> Assignment:
    """Assign every pixel to its nearest site (planar Euclidean distance).

    `sites` is a sequence of (bts_id, x, y).  Distance ties go to the
    lowest bts_id.  Sites may lie outside the grid.
    """
    sites = list(sites)
    if not sites:
        raise ValueError("voronoi_assign requires at least one site")
    ids = [s[0] for s in sites]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate bts_id among sites")
    order = sorted(range(len(sites)), key=lambda i: ids[i])
    bts_ids = [ids[i] for i in order]
    sx = np.array([float(sites[i][1]) for i in order])
    sy = np.array([float(sites[i][2]) for i in order])
    if not (np.all(np.isfinite(sx)) and np.all(np.isfinite(sy))):
        raise ValueError("site coordinates must be finite")

    x, y = grid.pixel_centers()
    labels = nearest_index(x, y, sx, sy)  # sites in id order: ties to the lowest bts_id
    return Assignment(grid, bts_ids, labels.reshape(grid.shape))


# --- statistical areas -------------------------------------------------------


@dataclass
class StatArea:
    """One statistical area: either a pixel mask or polygon rings."""

    area_id: str
    mask: np.ndarray | None = None
    rings: list[np.ndarray] | None = None

    def __post_init__(self):
        if (self.mask is None) == (self.rings is None):
            raise ValueError(f"area {self.area_id!r}: exactly one of mask/rings required")


def _validate_ring(ring: np.ndarray, area_id: str) -> np.ndarray:
    ring = np.asarray(ring, dtype=np.float64)
    if ring.ndim != 2 or ring.shape[1] != 2:
        raise ValueError(f"area {area_id!r}: ring must be an (n, 2) coordinate array")
    if ring.shape[0] < 4:
        raise ValueError(f"area {area_id!r}: ring needs at least 4 points (closed)")
    if not np.array_equal(ring[0], ring[-1]):
        raise ValueError(f"area {area_id!r}: ring is not closed (first point != last)")
    if not np.all(np.isfinite(ring)):
        raise ValueError(f"area {area_id!r}: ring contains non-finite coordinates")
    return ring


def _points_in_rings(rings: list[np.ndarray], x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Even-odd crossing test; points on edges follow the half-open rule."""
    inside = np.zeros(x.shape, dtype=bool)
    for ring in rings:
        x1, y1 = ring[:-1, 0], ring[:-1, 1]
        x2, y2 = ring[1:, 0], ring[1:, 1]
        for e in range(x1.size):
            if y1[e] == y2[e]:
                continue  # horizontal edges never cross the half-open band
            cross = (y1[e] > y) != (y2[e] > y)
            t = (y - y1[e]) / (y2[e] - y1[e])
            inside ^= cross & (x < x1[e] + t * (x2[e] - x1[e]))
    return inside


def polygon_to_mask(rings, grid: Grid, area_id: str = "<anon>") -> np.ndarray:
    """Rasterise polygon rings to a pixel-centre containment mask.

    Multiple rings combine by even-odd parity, so holes and multi-part
    polygons work without orientation rules.
    """
    rings = [_validate_ring(r, area_id) for r in rings]
    if not rings:
        raise ValueError(f"area {area_id!r}: polygon has no rings")
    rr, cc = np.meshgrid(np.arange(grid.nrows), np.arange(grid.ncols), indexing="ij")
    x, y = grid.centers(rr, cc)
    return _points_in_rings(rings, x, y)


def _ring_area(ring: np.ndarray) -> float:
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


class StatAreaSet:
    """Ordered set of disjoint statistical areas with unique string ids."""

    def __init__(self, areas: list[StatArea], grid: Grid | None = None):
        ids = [a.area_id for a in areas]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate area_id(s): {dupes}")
        if any(not a.area_id for a in areas):
            raise ValueError("area_id must be a non-empty string")
        self.areas = list(areas)
        self.grid = grid
        self._label_cache: dict[Grid, np.ndarray] = {}

    @classmethod
    def from_masks(cls, grid: Grid, pairs) -> "StatAreaSet":
        areas = []
        for area_id, mask in pairs:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != grid.shape:
                raise ValueError(f"area {area_id!r}: mask shape {mask.shape} != grid {grid.shape}")
            areas.append(StatArea(area_id, mask=mask))
        return cls(areas, grid=grid)

    @classmethod
    def from_polygons(cls, pairs) -> "StatAreaSet":
        areas = []
        for area_id, rings in pairs:
            rings = [_validate_ring(np.asarray(r), area_id) for r in rings]
            areas.append(StatArea(area_id, rings=rings))
        return cls(areas)

    def __len__(self) -> int:
        return len(self.areas)

    @property
    def area_ids(self) -> list[str]:
        return [a.area_id for a in self.areas]

    def labels(self, grid: Grid | None = None) -> np.ndarray:
        """Rasterised area index per pixel (-1 outside every area).

        Raises if any pixel would belong to two areas.
        """
        grid = grid or self.grid
        if grid is None:
            raise ValueError("no grid available to rasterise areas on")
        if grid in self._label_cache:
            return self._label_cache[grid]
        labels = np.full(grid.shape, UNASSIGNED, dtype=np.int32)
        for idx, a in enumerate(self.areas):
            if a.mask is not None:
                if a.mask.shape != grid.shape:
                    raise ValueError(f"area {a.area_id!r}: mask does not fit grid {grid.shape}")
                m = a.mask
            else:
                m = polygon_to_mask(a.rings, grid, a.area_id)
            clash = m & (labels != UNASSIGNED)
            if np.any(clash):
                r, c = np.argwhere(clash)[0]
                other = self.areas[labels[r, c]].area_id
                raise ValueError(
                    f"areas {other!r} and {a.area_id!r} overlap at pixel ({r}, {c})"
                )
            labels[m] = idx
        self._label_cache[grid] = labels
        return labels

    def area_km2(self, grid: Grid | None = None) -> dict[str, float]:
        """Area sizes: mask pixel count x cell area, or polygon shoelace.

        Polygon sizing sums signed ring areas, so holes must be wound
        opposite to their exterior (the GeoJSON right-hand-rule
        convention).  Containment itself is orientation-agnostic.
        """
        out = {}
        mask_grid = grid or self.grid
        for a in self.areas:
            if a.mask is not None:
                if mask_grid is None:
                    raise ValueError("mask areas need a grid for sizing")
                out[a.area_id] = float(a.mask.sum()) * mask_grid.cell_size_m**2 / 1e6
            else:
                out[a.area_id] = abs(sum(_ring_area(r) for r in a.rings)) / 1e6
        return out

    def locate_points(self, x, y, grid: Grid | None = None) -> np.ndarray:
        """Area index containing each point (-1 when outside every area)."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        if all(a.rings is not None for a in self.areas):
            out = np.full(x.size, UNASSIGNED, dtype=np.int64)
            for idx, a in enumerate(self.areas):
                hit = _points_in_rings(a.rings, x, y) & (out == UNASSIGNED)
                out[hit] = idx
            return out
        grid = grid or self.grid
        labels = self.labels(grid)
        r, c = grid.locate(x, y)
        ok = (r >= 0) & (c >= 0)
        out = np.full(x.size, UNASSIGNED, dtype=np.int64)
        out[ok] = labels[r[ok], c[ok]]
        return out


def zonal_count(assignment, areas: StatAreaSet, grid: Grid | None = None, weights=None):
    """Count pixels (optionally weighted) per (area, label) combination.

    `assignment` is an Assignment, an integer label array (-1 =
    unlabelled) or a boolean mask.  Returns {(area_id, label): count}
    over labels >= 0; unlabelled pixels and pixels outside every area
    contribute nothing.
    """
    if isinstance(assignment, Assignment):
        labels = assignment.labels
        grid = grid or assignment.grid
    else:
        labels = np.asarray(assignment)
        if labels.dtype == bool:
            labels = np.where(labels, 0, UNASSIGNED)
    grid = grid or areas.grid
    area_labels = areas.labels(grid)
    if labels.shape != area_labels.shape:
        raise ValueError(f"assignment shape {labels.shape} != area raster {area_labels.shape}")
    if weights is None:
        w = np.ones(labels.shape, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != labels.shape:
            raise ValueError("weights shape does not match assignment")

    keep = (labels >= 0) & (area_labels >= 0)
    if not np.any(keep):
        return {}
    nlab = int(labels[keep].max()) + 1
    combo = area_labels[keep].astype(np.int64) * nlab + labels[keep]
    sums = np.bincount(combo, weights=w[keep], minlength=len(areas) * nlab)
    out = {}
    for flat in np.nonzero(sums)[0]:
        out[(areas.area_ids[flat // nlab], int(flat % nlab))] = float(sums[flat])
    return out
