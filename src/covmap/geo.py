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

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

UNASSIGNED = -1
COORD_LIMIT_M = 1e12  # far beyond any projected CRS; squared distances stay finite

# squared distances per block of a nearest-site search: sites x points of
# about 2^16 float64 (512 KB) keep each block's temporaries in cache
_BLOCK_ENTRIES = 1 << 16
# a nearest-site search buckets its points into square cells, about
# _CELLS_PER_SITE per site but at least about _CELL_POINTS points each, and
# scores each cell's points only against the sites that can be nearest there
_CELLS_PER_SITE = 4
_CELL_POINTS = 2048


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
        c = np.floor((x - self.origin_x) / self.cell_size_m)
        r = np.floor((y - self.origin_y) / self.cell_size_m)
        # clipped in place to one cell past each edge, so a far point casts cleanly
        np.clip(c, -1, self.ncols, out=c)
        np.clip(r, -1, self.nrows, out=r)
        c, r = c.astype(np.int64), self.nrows - 1 - r.astype(np.int64)
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
    """Extracted settlement pixels: their ascending pixel ids, the one
    address of a pixel set, and each one's inhabitant count.  A grid map
    is read at the settlements as `m.reshape(-1)[ids]`."""

    grid: Grid
    ids: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return int(self.ids.size)


def extract_settlements(raster: SettlementRaster) -> Settlements:
    """List settlement pixels (count >= 1 outside nodata) by ascending
    pixel id.

    An empty result is returned with a warning rather than an error:
    downstream schemes treat it as total no-coverage.
    """
    ids = np.flatnonzero(raster.settled)
    if ids.size == 0:
        warnings.warn("raster contains no settlement pixels", stacklevel=2)
    return Settlements(grid=raster.grid, ids=ids,
                       counts=raster.counts.reshape(-1)[ids].astype(np.float64))


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


def _nearest_blocks(x, y, sx, sy, rank: int):
    """Yield (pts, cand, d2), where d2[i, j] is the planar squared
    distance from site cand[i] to point pts[j], such that each point's
    `rank` smallest distances, and the sites that hold them, are in its
    column.

    The points are bucketed into square cells (see `_CELLS_PER_SITE`).
    From a cell's own min/max point coordinates every site gets a lower
    bound `lo` and an upper bound `hi` on its squared distance to any of
    the cell's points, in the form the distances take; rounding is
    monotone, so both hold exactly.  With t the rank-th smallest `hi`,
    `rank` distinct sites lie within t of every point, so a site with
    `lo > t` is farther than `rank` others from each of them and is
    dropped.  `cand` keeps the rest in ascending index order, so argmin's
    first hit still sends ties to the lowest index.  A search of at most
    `_CELL_POINTS` distances is one cell in which every site is scored
    unbounded: there the bounds cost more than the distances they spare.
    `pts` ascends within a cell.  A block holds about `_BLOCK_ENTRIES`
    distances (at least one point); sites run down its rows, so the
    reductions over them stream along whole rows of points.  The one
    distance formula behind both nearest-site reducers, so their d2 agree
    bit for bit with a dense search's."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    sx = np.asarray(sx, dtype=np.float64)
    sy = np.asarray(sy, dtype=np.float64)
    n, k = x.size, sx.size
    if n == 0:
        return
    if k == 0:
        raise ValueError("a nearest-site search needs at least one site")
    x0, x1, y0, y1 = float(x.min()), float(x.max()), float(y.min()), float(y.max())
    if not (all(map(math.isfinite, (x0, x1, y0, y1)))
            and np.isfinite(sx).all() and np.isfinite(sy).all()):
        raise ValueError("nearest-site coordinates must be finite")
    ncell = max(1, min(_CELLS_PER_SITE * k, n // _CELL_POINTS))
    side = max(math.sqrt((x1 - x0) * (y1 - y0) / ncell), (x1 - x0) / ncell, (y1 - y0) / ncell)
    if ncell > 1 and side > 0:
        ny = int((y1 - y0) / side) + 1
        cell = ((x - x0) / side).astype(np.intp) * ny + ((y - y0) / side).astype(np.intp)
        ends = np.cumsum(np.bincount(cell)).tolist()
        order = np.argsort(cell, kind="stable")  # points ascend within a cell
        del cell
    else:
        ends, order = [n], np.arange(n)
    rank = min(rank, k)
    tiny = n * k <= _CELL_POINTS  # then ncell == 1
    start = 0
    for end in ends:
        if end == start:
            continue
        pts = order[start:end]
        start = end
        px, py = x[pts], y[pts]
        if tiny:
            cand, csx, csy = np.arange(k), sx, sy
        else:
            bx0, bx1, by0, by1 = px.min(), px.max(), py.min(), py.max()
            lo = (np.minimum(np.maximum(sx, bx0), bx1) - sx) ** 2 + (
                np.minimum(np.maximum(sy, by0), by1) - sy) ** 2
            hi = np.maximum((bx0 - sx) ** 2, (bx1 - sx) ** 2) + np.maximum(
                (by0 - sy) ** 2, (by1 - sy) ** 2)
            t = np.partition(hi, rank - 1)[rank - 1]
            cand = np.flatnonzero(lo <= t)
            csx, csy = sx[cand], sy[cand]
        step = max(1, _BLOCK_ENTRIES // cand.size)
        for b in range(0, pts.size, step):
            yield (pts[b:b + step], cand,
                   (px[b:b + step] - csx[:, None]) ** 2 + (py[b:b + step] - csy[:, None]) ** 2)


def nearest_index(x, y, sx, sy) -> np.ndarray:
    """Index of the nearest site for each point, by planar squared distance.

    Ties go to the lowest site index (argmin's first hit), so callers
    wanting the lowest bts_id pass sites sorted by id.  Points stream in
    cell-pruned blocks (`_nearest_blocks`), so memory stays bounded for
    any number of points and the cost grows slowly with the sites.
    """
    out = np.empty(np.size(x), dtype=np.int64)
    for pts, cand, d2 in _nearest_blocks(x, y, sx, sy, 1):
        out[pts] = cand[np.argmin(d2, axis=0)]
    return out


def nearest_two(x, y, sx, sy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`nearest_index` plus, per point, the squared distance to that site
    and the second-smallest squared distance to any other site (equal to
    the first on a tie, inf with a single site)."""
    n = np.size(x)
    idx = np.empty(n, dtype=np.int64)
    first = np.empty(n)
    second = np.full(n, np.inf)
    for pts, cand, d2 in _nearest_blocks(x, y, sx, sy, 2):
        cols = np.arange(pts.size)
        j = np.argmin(d2, axis=0)
        idx[pts] = cand[j]
        first[pts] = d2[j, cols]
        if cand.size > 1:
            d2[j, cols] = np.inf
            second[pts] = d2.min(axis=0)
    return idx, first, second


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
    # sites in id order: ties to the lowest bts_id
    return Assignment(grid, bts_ids, nearest_site_labels(grid, sx, sy))


def nearest_site_labels(grid: Grid, sx, sy) -> np.ndarray:
    """Index of the nearest site at every pixel, as an int32 grid map.

    The grid is searched in bands of whole rows, about `_BLOCK_ENTRIES`
    pixels each (at least one row): each band's centres are built from
    its rows and the grid's columns and go to `nearest_index`, whose
    labels do not depend on which other points share a call, so they
    equal one dense search's, ties to the lowest site index.  Beyond the
    labels, no array is longer than a band."""
    labels = np.empty(grid.shape, dtype=np.int32)
    step = max(1, _BLOCK_ENTRIES // grid.ncols)
    xc = grid.centers(0, np.arange(grid.ncols))[0]
    for r0 in range(0, grid.nrows, step):
        yr = grid.centers(np.arange(r0, min(r0 + step, grid.nrows)), 0)[1]
        x, y = np.broadcast_arrays(xc, yr[:, None])
        labels[r0:r0 + yr.size] = nearest_index(x, y, sx, sy).reshape(y.shape)
    return labels


# --- statistical areas -------------------------------------------------------


class StatArea:
    """One statistical area: polygon rings, or a pixel mask.

    A mask area keeps the shape of the grid it was given (`shape`), the
    mask's bounding box as a window of that grid (`window`; empty slices
    for an empty mask) and a copy of the mask inside it (`inside`), so
    it holds its box's pixels, not the grid's.  A polygon area's rings
    are checked once, here, and it yields the same (window, inside) pair
    on a grid (`window_on`).  `mask` rebuilds the full-grid boolean on
    each read (None for a polygon).
    """

    def __init__(self, area_id: str, mask=None, rings: list[np.ndarray] | None = None):
        if (mask is None) == (rings is None):
            raise ValueError(f"area {area_id!r}: exactly one of mask/rings required")
        self.area_id = area_id
        self.rings = None if rings is None else [_validate_ring(r, area_id) for r in rings]
        if self.rings == []:
            raise ValueError(f"area {area_id!r}: polygon has no rings")
        self.shape = self.window = self.inside = None
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            axes = range(mask.ndim)
            hits = [np.flatnonzero(mask.any(axis=tuple(b for b in axes if b != a))) for a in axes]
            self.shape = mask.shape
            if all(h.size for h in hits):
                self.window = tuple(slice(int(h[0]), int(h[-1]) + 1) for h in hits)
            else:
                self.window = (slice(0, 0),) * mask.ndim
            self.inside = mask[self.window].copy()

    @property
    def mask(self) -> np.ndarray | None:
        if self.rings is not None:
            return None
        mask = np.zeros(self.shape, dtype=bool)
        mask[self.window] = self.inside
        return mask

    def window_on(self, grid: Grid) -> tuple[tuple[slice, slice], np.ndarray]:
        """The area on `grid` as a (rows, cols) window and the mask inside
        it; every pixel outside the window is outside the area."""
        if self.rings is not None:
            return _polygon_window(self.rings, grid)
        if self.shape != grid.shape:
            raise ValueError(f"area {self.area_id!r}: mask does not fit grid {grid.shape}")
        return self.window, self.inside


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
    with np.errstate(over="ignore"):
        steps = np.diff(ring, axis=0)
    if not np.all(np.isfinite(steps)):  # a crossing abscissa could then be NaN
        raise ValueError(f"area {area_id!r}: ring edges too long for float64")
    return ring


def _points_in_rings(rings: list[np.ndarray], x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Even-odd crossing test; points on edges follow the half-open rule.
    Off an edge's band, where `t` is not used, a short edge's may overflow."""
    inside = np.zeros(x.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
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


def _polygon_window(rings, grid: Grid) -> tuple[tuple[slice, slice], np.ndarray]:
    """Polygon rings rasterised to pixel-centre containment, as a (rows,
    cols) window of the grid and the mask inside it; every pixel outside
    the window is outside.  Multiple rings combine by even-odd parity, so
    holes and multi-part polygons work without orientation rules."""
    # Only centres near the rings' bounding box are tested.  A centre above
    # or below it crosses no edge, one left of it crosses each ring's edges
    # an even number of times and one right of it crosses none to its
    # right, so every centre outside stays outside.
    points = np.concatenate(rings)
    x0, y0 = (float(v) for v in points.min(axis=0))
    x1, y1 = (float(v) for v in points.max(axis=0))
    cell = grid.cell_size_m
    top = grid.origin_y + grid.nrows * cell
    rows = _cell_span((top - y1) / cell, (top - y0) / cell, grid.nrows)
    cols = _cell_span((x0 - grid.origin_x) / cell, (x1 - grid.origin_x) / cell, grid.ncols)
    rr, cc = np.meshgrid(np.arange(grid.nrows)[rows], np.arange(grid.ncols)[cols], indexing="ij")
    return (rows, cols), _points_in_rings(rings, *grid.centers(rr, cc))


def _cell_span(lo: float, hi: float, n: int) -> slice:
    """The cells of an n-cell axis whose centres lie within two cells of
    [lo, hi], in cell units from the axis' first edge (a superset)."""
    return slice(math.floor(min(max(lo - 2.5, 0.0), n)), math.ceil(min(max(hi + 2.5, 0.0), n)))


class AreaOverlapError(ValueError):
    """Two statistical areas claim the same pixel."""


class StatAreaSet:
    """Ordered set of disjoint statistical areas with unique string ids."""

    def __init__(self, areas: list[StatArea], grid: Grid | None = None):
        ids = Counter(a.area_id for a in areas)
        if len(ids) != len(areas):
            dupes = sorted(i for i, n in ids.items() if n > 1)
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
        return cls([StatArea(area_id, rings=rings) for area_id, rings in pairs])

    def __len__(self) -> int:
        return len(self.areas)

    @property
    def area_ids(self) -> list[str]:
        return [a.area_id for a in self.areas]

    def labels(self, grid: Grid | None = None) -> np.ndarray:
        """Rasterised area index per pixel (-1 outside every area), cached
        per grid and read-only.

        Every area, mask or polygon, is painted one way: from its
        `window_on(grid)` pair, checked for clashes and written only
        inside its window.  Raises if any pixel would belong to two areas
        (naming the first clash in row-major order) or if a mask area was
        given for a grid of another shape.
        """
        grid = grid or self.grid
        if grid is None:
            raise ValueError("no grid available to rasterise areas on")
        if grid in self._label_cache:
            return self._label_cache[grid]
        labels = np.full(grid.shape, UNASSIGNED, dtype=np.int32)
        for idx, a in enumerate(self.areas):
            window, m = a.window_on(grid)
            # an area is painted and checked only inside its window, which
            # holds all its pixels, so the first clash in row-major order stays first
            sub = labels[window]
            clash = m & (sub != UNASSIGNED)
            if np.any(clash):
                r, c = np.argwhere(clash)[0] + (window[0].start, window[1].start)
                other = self.areas[labels[r, c]].area_id
                raise AreaOverlapError(
                    f"areas {other!r} and {a.area_id!r} overlap at pixel ({r}, {c})"
                )
            sub[m] = idx
        labels.flags.writeable = False  # shared by every later caller on this grid
        self._label_cache[grid] = labels
        return labels

    def area_km2(self, grid: Grid | None = None) -> dict[str, float]:
        """Area sizes: mask pixel count x cell area, or polygon shoelace.

        Polygon sizing sums signed ring areas, so holes must be wound
        opposite to their exterior (the GeoJSON right-hand-rule
        convention).  Containment itself is orientation-agnostic.
        """
        mask_grid = grid or self.grid
        if mask_grid is None and any(a.rings is None for a in self.areas):
            raise ValueError("mask areas need a grid for sizing")
        # one shoelace sum per ring, over all rings of one vertex count at once
        # (a row sums as its ring alone does), then added per area in ring order
        rings = [(i, r) for i, a in enumerate(self.areas) for r in a.rings or ()]
        sizes = np.array([len(r) for _, r in rings], dtype=np.int64)
        ring_area = np.empty(len(rings))
        for n in np.unique(sizes):
            at = np.flatnonzero(sizes == n)
            x, y = np.moveaxis(np.stack([rings[j][1] for j in at]), 2, 0)
            ring_area[at] = 0.5 * np.sum(x[:, :-1] * y[:, 1:] - x[:, 1:] * y[:, :-1], axis=1)
        owner = np.array([i for i, _ in rings], dtype=np.intp)
        total = np.bincount(owner, weights=ring_area, minlength=len(self.areas)).tolist()
        return {a.area_id: (float(a.inside.sum()) * mask_grid.cell_size_m**2 if a.rings is None
                            else abs(total[i])) / 1e6 for i, a in enumerate(self.areas)}

    def locate_points(self, x, y, grid: Grid | None = None) -> np.ndarray:
        """Area index containing each point (-1 when outside every area)."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        if all(a.rings is not None for a in self.areas):
            out = np.full(x.size, UNASSIGNED, dtype=np.int64)
            if not self.areas:
                return out
            # A point outside an area's rings' bounding box is outside the
            # area, by the argument in `_polygon_window`, so each area tests
            # only the points in its box: a slice of the points in x order,
            # then a test on y.  The boxes are widened by 1e-9 of the largest
            # vertex coordinate, far above the rounding of a crossing abscissa.
            starts = np.cumsum([0] + [sum(map(len, a.rings)) for a in self.areas[:-1]])
            vertices = np.concatenate([r for a in self.areas for r in a.rings])
            pad = 1e-9 * max(np.abs(vertices).max(), 1.0)
            lo = np.minimum.reduceat(vertices, starts) - pad
            hi = np.maximum.reduceat(vertices, starts) + pad
            order = np.argsort(x, kind="stable")
            xs, ys = x[order], y[order]
            spans = np.searchsorted(xs, np.column_stack([lo[:, 0], hi[:, 0]])).tolist()
            for idx, ((i0, i1), y0, y1) in enumerate(zip(spans, lo[:, 1].tolist(),
                                                         hi[:, 1].tolist())):
                inbox = (ys[i0:i1] >= y0) & (ys[i0:i1] <= y1)
                if inbox.any():
                    cand = order[i0:i1][inbox]
                    cand = cand[out[cand] == UNASSIGNED]
                    rings = self.areas[idx].rings
                    out[cand[_points_in_rings(rings, x[cand], y[cand])]] = idx
            return out
        grid = grid or self.grid
        labels = self.labels(grid)
        r, c = grid.locate(x, y)
        ok = (r >= 0) & (c >= 0)
        out = np.full(x.size, UNASSIGNED, dtype=np.int64)
        out[ok] = labels[r[ok], c[ok]]
        return out

