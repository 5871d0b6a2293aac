"""BTS-to-area weighting schemes and covariate aggregation.

A weight matrix W maps antenna-level covariates R to statistical-area
estimates R_hat = W R, one convex row per covered area.  Five schemes
build W from increasingly informative inputs:

- p2p:          each BTS contributes only to the area containing it
- voronoi:      per-area share of pixels in each site's nearest-site tile
- aug_voronoi:  like voronoi but counting settlement pixels only
- bsa:          per-settlement-pixel best (strongest live) server
- idw:          per-settlement-pixel inverse-signal weights over the
                k strongest live links

Every scheme but p2p first gives per-pixel rows, which one reducer,
`area_weights_from_pixels`, averages over each area's covered pixels; it
reads one set of rows whole or as consecutive blocks, so a caller that
walks each block as it is read holds one block at a time.
Area rows (`WeightMatrix`) are CSR: row i's entries are
`col[indptr[i]:indptr[i+1]]`, indices into ascending `bts_ids`, with
weights `w` that sum to 1; an empty row is an area without coverage.
Pixel rows (`PixelWeights`) are padded: one row of `col` per pixel, its
entries first, each column at most once and in no set order, then -1
pads; a row of pads is an uncovered pixel.
Voronoi, aug_voronoi and bsa give one-hot rows from a map of serving
sites (`bsa_pixel_weights`): the serving labels themselves as width-1
rows without weights, from the nearest-site map at every pixel or at
the settlement pixels, and from the strongest-signal map at the
settlement pixels.  The selectors `bsa_select_chunk` and
`idw_rows_chunk` work on one block of a received-signal field; the
tiled link walker in `simulation` runs them block by block, keeps the
serving labels and writes each block's padded idw rows in place into
the pass's padded buffers.
`weights_bsa` and `weights_idw` build the same rows from one dense
field.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .geo import UNASSIGNED, Assignment, Grid, Settlements, StatAreaSet
from .propagation import ENV_SUBURBAN, AntennaSpec, RssField, env_code

ROW_SUM_TOL = 1e-9
# most pixel-row entries per block of the pixel-to-area reducer
_REDUCE_ENTRIES = 1 << 14

SCHEME_P2P = "p2p"
SCHEME_VORONOI = "voronoi"
SCHEME_AUG_VORONOI = "aug_voronoi"
SCHEME_BSA = "bsa"
SCHEME_IDW = "idw"


def _check_bts_ids(bts_ids: list[str]) -> None:
    if any(a >= b for a, b in zip(bts_ids, bts_ids[1:])):
        raise ValueError("columns must ascend by bts_id, without duplicates")


def _check_csr(nrows: int, bts_ids: list[str], indptr, col, w, name):
    """`WeightMatrix`'s CSR row checks; `name(i)` names row i in the
    errors.  Returns (indptr, col, w) as arrays."""
    indptr = np.asarray(indptr, dtype=np.int64)
    col = np.asarray(col, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    if indptr.shape != (nrows + 1,) or indptr[0] != 0 or indptr[-1] != col.size:
        raise ValueError("malformed CSR index")
    lens = np.diff(indptr)
    if np.any(lens < 0):
        raise ValueError("indptr must be non-decreasing")
    if col.size != w.size:
        raise ValueError("col and w lengths differ")
    _check_bts_ids(bts_ids)
    if col.size and (col.min() < 0 or col.max() >= len(bts_ids)):
        raise ValueError("col out of range for bts_ids")
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
    if bad.size:
        row = np.searchsorted(indptr, bad[0], side="right") - 1
        raise ValueError(f"{name(row)}: weights must be finite and positive")
    sums = np.bincount(np.repeat(np.arange(nrows), lens), weights=w, minlength=nrows)
    off = np.flatnonzero((lens > 0) & (np.abs(sums - 1.0) > ROW_SUM_TOL))
    if off.size:
        raise ValueError(f"{name(off[0])}: weights sum to {float(sums[off[0]])!r}, not 1")
    return indptr, col, w


@dataclass
class WeightMatrix:
    """Area x BTS weights in CSR layout, one row per area of `area_ids`;
    an empty row marks an area without coverage."""

    scheme: str
    area_ids: list[str]
    bts_ids: list[str]
    indptr: np.ndarray
    col: np.ndarray
    w: np.ndarray
    dropped_bts: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.indptr, self.col, self.w = _check_csr(
            len(self.area_ids), self.bts_ids, self.indptr, self.col, self.w,
            lambda i: f"area {self.area_ids[i]!r}")
        self._index = {a: i for i, a in enumerate(self.area_ids)}

    @property
    def covered_ids(self) -> list[str]:
        return [a for a, n in zip(self.area_ids, np.diff(self.indptr)) if n]

    @property
    def no_coverage_ids(self) -> list[str]:
        return [a for a, n in zip(self.area_ids, np.diff(self.indptr)) if not n]

    def row(self, area_id: str) -> dict[str, float] | None:
        if area_id not in self._index:
            raise KeyError(f"unknown area {area_id!r}")
        i = self._index[area_id]
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return {self.bts_ids[c]: v
                for c, v in zip(self.col[lo:hi].tolist(), self.w[lo:hi].tolist())} or None

    def entries(self) -> list[tuple[str, str, float]]:
        """(area_id, bts_id, weight) triplets sorted by (area_id, bts_id)."""
        return [(aid, bid, w) for aid in sorted(self.area_ids)
                for bid, w in (self.row(aid) or {}).items()]


@dataclass
class PixelWeights:
    """Per-pixel BTS weights, one padded row per pixel of `pixel_ids`.

    `col` is pixels x width integers: a row's entries come first, as
    indices into `bts_ids` in any order with each at most once, then -1
    pads; a row of pads marks an uncovered pixel.  `w` has `col`'s
    shape, with 0 at the pads, or is None for one-hot rows: each entry
    then weighs 1.  The checks here are per row, never per entry, so
    they add no pixels x width array.
    """

    scheme: str
    pixel_ids: np.ndarray
    bts_ids: list[str]
    col: np.ndarray
    w: np.ndarray | None = None

    def __post_init__(self):
        self.pixel_ids = np.asarray(self.pixel_ids, dtype=np.int64)
        self.col = np.asarray(self.col)
        if self.w is not None:
            self.w = np.asarray(self.w, dtype=np.float64)
        if (self.col.ndim != 2 or self.col.shape[0] != self.pixel_ids.size
                or (self.w is not None and self.w.shape != self.col.shape)):
            raise ValueError("pixel rows must be pixels x width, and w of col's shape")
        if not np.issubdtype(self.col.dtype, np.integer):
            raise ValueError("col must hold integers")
        _check_bts_ids(self.bts_ids)
        if self.col.size and (self.col.min() < -1 or self.col.max() >= len(self.bts_ids)):
            raise ValueError("col out of range for bts_ids")
        if self.w is None:
            return
        sums = self.w.sum(axis=1)
        bad = np.flatnonzero(~np.isfinite(sums))
        if bad.size:
            raise ValueError(f"pixel {int(self.pixel_ids[bad[0]])}: weights must be finite")
        dev = sums - 1.0
        off = np.flatnonzero(self.covered & (np.abs(dev, out=dev) > ROW_SUM_TOL))
        if off.size:
            raise ValueError(f"pixel {int(self.pixel_ids[off[0]])}: weights sum to "
                             f"{float(sums[off[0]])!r}, not 1")

    @property
    def covered(self) -> np.ndarray:
        return np.any(self.col[:, :1] >= 0, axis=1)


@dataclass
class CovariateTable:
    """Numeric covariates keyed by bts_id; NaN marks a missing value."""

    bts_ids: list[str]
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        if len(set(self.bts_ids)) != len(self.bts_ids):
            raise ValueError("duplicate bts_id in covariate table")
        self.columns = {k: np.asarray(v, dtype=np.float64) for k, v in self.columns.items()}
        for name, colv in self.columns.items():
            if colv.shape != (len(self.bts_ids),):
                raise ValueError(f"column {name!r} length {colv.shape} != {len(self.bts_ids)} rows")

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"unknown covariate column {name!r}")
        return self.columns[name]


def sorted_csr(nrows: int, row: np.ndarray, bts: list[str], bts_ids: list[str]):
    """(indptr, col, order) of entries at (row, bts) over `nrows` rows and the
    ascending `bts_ids`; `order` sorts the entries by row, then column."""
    col_of = {b: j for j, b in enumerate(bts_ids)}
    col = np.array([col_of[b] for b in bts], dtype=np.int64)
    order = np.lexsort((col, row))
    return np.concatenate([[0], np.cumsum(np.bincount(row, minlength=nrows))]), col[order], order


def weights_p2p(bts_points, areas: StatAreaSet, grid: Grid | None = None) -> WeightMatrix:
    """Point-to-polygon: split each area's weight equally over its own BTS."""
    pts = list(bts_points)
    if not pts:
        raise ValueError("no BTS points given")
    ids = [p[0] for p in pts]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate bts_id among points")
    x = np.array([float(p[1]) for p in pts])
    y = np.array([float(p[2]) for p in pts])
    host = areas.locate_points(x, y, grid)
    dropped = [ids[i] for i in np.nonzero(host == UNASSIGNED)[0]]
    if dropped:
        warnings.warn(f"{len(dropped)} BTS outside every area dropped: {dropped[:5]}", stacklevel=2)
    bts_ids = sorted(ids)
    inside = np.flatnonzero(host >= 0)
    indptr, col, order = sorted_csr(len(areas), host[inside], [ids[i] for i in inside], bts_ids)
    return WeightMatrix(SCHEME_P2P, areas.area_ids, bts_ids, indptr, col,
                        1.0 / np.diff(indptr)[host[inside][order]], dropped_bts=dropped)


def weights_voronoi(assignment: Assignment, areas: StatAreaSet) -> WeightMatrix:
    """Per-area share of pixels falling in each site's nearest-site tile:
    the one-hot rows of the map's labels at every pixel."""
    grid = assignment.grid
    pw = bsa_pixel_weights(np.arange(grid.npixels), assignment.bts_ids,
                           assignment.labels.reshape(-1), SCHEME_VORONOI)
    return area_weights_from_pixels(pw, areas, grid)


def weights_aug_voronoi(
    assignment: Assignment, settlements: Settlements, areas: StatAreaSet
) -> WeightMatrix:
    """Voronoi weights counting settlement pixels instead of all pixels.

    Areas without a settlement pixel get no coverage.
    """
    pw = bsa_pixel_weights(settlements.ids, assignment.bts_ids,
                           assignment.labels.reshape(-1)[settlements.ids],
                           SCHEME_AUG_VORONOI)
    return area_weights_from_pixels(pw, areas, assignment.grid)


# --- signal-based schemes ----------------------------------------------------


def bsa_select_chunk(rss_chunk: np.ndarray, live_chunk: np.ndarray) -> np.ndarray:
    """Best live server per row (columns must be in ascending bts_id order).

    Returns the column index, or -1 where every link is dead.  Exact
    ties resolve to the lowest bts_id via argmax's first-hit rule.
    `live_chunk` must be `rss_chunk >= threshold`, as `RssField.live`: a
    row's argmax is then live unless every link of the row is dead.
    """
    if rss_chunk.shape[1] == 0:
        return np.full(rss_chunk.shape[0], UNASSIGNED, dtype=np.int64)
    sel = np.argmax(rss_chunk, axis=1).astype(np.int64)
    sel[~live_chunk[np.arange(sel.size), sel]] = UNASSIGNED
    return sel


def check_idw(s: float, k: int) -> None:
    """Reject an idw k below 1 or a negative exponent s."""
    if int(k) < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if s < 0:
        raise ValueError(f"exponent s must be >= 0, got {s}")


def idw_rows_chunk(
    rss_chunk: np.ndarray, live_chunk: np.ndarray, s: float, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """IDW weights per row over the k strongest live links.

    Columns must already be in ascending bts_id order, and `live_chunk`
    be `rss_chunk >= threshold` as for `bsa_select_chunk`.  Returns
    padded rows (col, w), min(k, columns) wide: each row's live picks,
    strongest first with ties to the lower column, then -1 pads with
    weight 0.  Each row's weights are normalised by their sum in pick
    order, so appending dead columns to a chunk changes no byte of a
    row.  The signal "distance" is |rss| clamped below at 1 to keep
    1/|rss|^s finite.
    """
    check_idw(s, k)
    kk = min(int(k), rss_chunk.shape[1])
    # a copy, so the rows x columns order is freed here
    col = np.argsort(-rss_chunk, axis=1, kind="stable")[:, :kk].copy()
    live = np.take_along_axis(live_chunk, col, axis=1)
    top = np.take_along_axis(rss_chunk, col, axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        w = np.where(live, 1.0 / np.clip(np.abs(top), 1.0, None) ** s, 0.0)
    # added in pick order, so a row's total, and so its bytes, do not
    # depend on how many dead columns follow its live picks
    tot = np.zeros(w.shape[0])
    for j in range(kk):
        tot += w[:, j]
    # live picks sort first, so a row has one iff its first pick is live
    if np.any(live[:, :1] & (tot[:, None] == 0)):
        raise ValueError(f"idw exponent s={s} is too large: 1/|rss|^s underflows to 0 "
                         "on every live link of a pixel")
    w /= np.where(tot > 0, tot, 1.0)[:, None]
    col[~live] = -1
    return col, w


def area_weights_from_pixels(
    pw: PixelWeights | Iterable[PixelWeights], areas: StatAreaSet, grid: Grid
) -> WeightMatrix:
    """Average per-pixel weights over each area's covered pixels.

    `pw` is one set of pixel rows, or consecutive blocks of one set's
    rows, of one scheme over the same `bts_ids`, read in the order given;
    a caller that makes each block only when it is read holds one block
    at a time.  Each row's area is the one holding its pixel id on
    `grid`.  The entries sum into bins of (area, 1 + column), taken
    `_REDUCE_ENTRIES` entries' worth of rows at a time: `np.add.at` adds
    them in row-major order, so every bin sums its entries in the order
    of one `bincount` over them all, however the rows are split into
    blocks, and a one-hot row adds exactly 1.  A row adds at most one
    entry to a bin, so the order of its entries does not change a byte.
    A pad (column -1) falls into its area's column slot 0, and a pixel
    outside every area into a spill row of bins; both are sliced off.
    Areas without a covered pixel get no coverage.  The input is never
    written.
    """
    label_of = areas.labels(grid).reshape(-1)
    nareas = len(areas)

    def add(pw: PixelWeights) -> None:
        # one block's rows into the bins; its keys live only for this call
        if pw.pixel_ids.size and (pw.pixel_ids.min() < 0 or pw.pixel_ids.max() >= grid.npixels):
            raise ValueError(f"pixel ids outside the {grid.nrows}x{grid.ncols} grid")
        step = max(1, _REDUCE_ENTRIES // max(pw.col.shape[1], 1))
        for lo in range(0, pw.pixel_ids.size, step):
            block = slice(lo, lo + step)
            area = label_of[pw.pixel_ids[block]].astype(np.int64)
            area[area < 0] = nareas
            col = pw.col[block]
            np.add.at(denom, area[np.any(col[:, :1] >= 0, axis=1)], 1)
            np.add.at(sums, (col + (area * (nbts + 1) + 1)[:, None]).ravel(),
                      1.0 if pw.w is None else pw.w[block].ravel())

    scheme = bts_ids = None
    for pw in [pw] if isinstance(pw, PixelWeights) else pw:
        if bts_ids is None:
            scheme, bts_ids, nbts = pw.scheme, pw.bts_ids, len(pw.bts_ids)
            sums = np.zeros((nareas + 1) * (nbts + 1))
            denom = np.zeros(nareas + 1, dtype=np.int64)
        elif pw.scheme != scheme or pw.bts_ids != bts_ids:
            raise ValueError("pixel row blocks differ in scheme or bts_ids")
        add(pw)
        del pw  # so a block is freed before the next one is made
    if bts_ids is None:
        raise ValueError("no pixel rows given")

    # row-major, the nonzero bins are the rows' entries, columns ascending;
    # each comes from a covered pixel, so its area's denom is >= 1
    bins = sums.reshape(nareas + 1, nbts + 1)[:nareas, 1:]
    aidx, bidx = np.nonzero(bins)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(aidx, minlength=nareas))])
    return WeightMatrix(scheme, areas.area_ids, bts_ids, indptr, bidx,
                        bins[aidx, bidx] / denom[aidx])


def bsa_pixel_weights(pixel_ids, bts_ids, sel, scheme: str = SCHEME_BSA) -> PixelWeights:
    """One-hot rows from each pixel's serving column (-1 = none): the
    labels themselves as width-1 rows, so a covered pixel belongs wholly
    to its server.  Columns must ascend by bts_id, as `best_server_grid`,
    `voronoi_assign` and `bsa_select_chunk` give them."""
    return PixelWeights(scheme, pixel_ids, list(bts_ids), np.asarray(sel).reshape(-1, 1))


def weights_bsa(rss: RssField) -> PixelWeights:
    """Best-server assignment: each covered pixel belongs wholly to its
    strongest live link.  Columns must ascend by bts_id."""
    return bsa_pixel_weights(rss.pixel_ids, rss.bts_ids, bsa_select_chunk(rss.rss_dbm, rss.live))


def weights_idw(rss: RssField, s: float = 2.0, k: int = 5) -> PixelWeights:
    """Inverse-signal-strength weights over the k strongest live links,
    min(k, antennas) wide.  Columns must ascend by bts_id."""
    return PixelWeights(SCHEME_IDW, rss.pixel_ids, rss.bts_ids,
                        *idw_rows_chunk(rss.rss_dbm, rss.live, s, k))


# --- aggregation -------------------------------------------------------------


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values, kind="stable")
    v, wgt = values[order], weights[order]
    cum = np.cumsum(wgt)
    return float(v[np.searchsorted(cum, 0.5 * cum[-1])])


def aggregate(
    wm: WeightMatrix,
    covariates: CovariateTable,
    column: str,
    statistic: str = "mean",
) -> dict[str, float | None]:
    """Area-level estimates R_hat = W R (or the weighted median).

    No-coverage areas map to None.  A missing covariate (absent row or
    NaN) for any weighted BTS is an error naming the offender, never a
    silent zero.
    """
    if statistic not in ("mean", "median"):
        raise ValueError(f"unknown statistic {statistic!r}; expected 'mean' or 'median'")
    colv = covariates.column(column)
    table_row = {b: i for i, b in enumerate(covariates.bts_ids)}
    at = np.array([table_row.get(b, -1) for b in wm.bts_ids], dtype=np.int64)
    vals = np.append(colv, np.nan)[at][wm.col]  # a BTS absent from the table reads NaN
    # entries run in area order, then bts_id order: the first bad one is the offender
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        j, aid = wm.col[bad[0]], wm.area_ids[np.searchsorted(wm.indptr, bad[0], side="right") - 1]
        what = "missing" if at[j] < 0 else "is missing (NaN)"
        raise ValueError(f"covariate {column!r} {what} for BTS {wm.bts_ids[j]!r} "
                         f"(needed by area {aid!r})")
    out: dict[str, float | None] = {}
    for aid, lo, hi in zip(wm.area_ids, wm.indptr[:-1].tolist(), wm.indptr[1:].tolist()):
        if lo == hi:
            out[aid] = None
        elif statistic == "mean":
            out[aid] = float(vals[lo:hi] @ wm.w[lo:hi])
        else:
            out[aid] = _weighted_median(vals[lo:hi], wm.w[lo:hi])
    return out


# --- naive technical specifications ------------------------------------------

NAIVE_HEIGHT_M = 30.0
NAIVE_POWER_DBM = 45.0
NAIVE_URBAN_FREQ_MHZ = 2100.0
NAIVE_OTHER_FREQ_MHZ = 900.0
URBAN_DENSITY_PER_KM2 = 1.0
RURAL_SHARE = 0.5


def classify_areas_by_bts_density(
    areas: StatAreaSet,
    bts_points,
    grid: Grid | None = None,
) -> dict[str, str]:
    """Urbanity from site density: dense areas are urban, the sparsest
    half rural, the rest suburban.

    Density above URBAN_DENSITY_PER_KM2 makes an area urban regardless
    of rank.  The rural group is the bottom RURAL_SHARE fraction by
    (density, area_id) order, minus any area already urban.
    """
    pts = list(bts_points)
    x = np.array([float(p[1]) for p in pts])
    y = np.array([float(p[2]) for p in pts])
    host = areas.locate_points(x, y, grid) if pts else np.empty(0, dtype=np.int64)
    counts = np.bincount(host[host >= 0], minlength=len(areas)).astype(np.float64)
    sizes = areas.area_km2(grid)
    area_ids = areas.area_ids  # a new list per access
    size_arr = np.array([sizes[a] for a in area_ids])
    with np.errstate(divide="ignore", invalid="ignore"):
        density = np.where(
            size_arr > 0, counts / size_arr, np.where(counts > 0, np.inf, 0.0)
        )

    classes = {
        aid: ("urban" if density[i] > URBAN_DENSITY_PER_KM2 else "suburban")
        for i, aid in enumerate(area_ids)
    }
    n_rural = int(np.floor(RURAL_SHARE * len(areas)))
    by_density = sorted(range(len(areas)), key=lambda i: (density[i], area_ids[i]))
    for i in by_density[:n_rural]:
        if classes[area_ids[i]] != "urban":
            classes[area_ids[i]] = "rural"
    return classes


def paint_area_env(areas: StatAreaSet, classes: dict[str, str], grid: Grid) -> np.ndarray:
    """Env-code raster of per-area classes; pixels outside every area
    are suburban."""
    labels = areas.labels(grid)
    code_of = np.array([env_code(classes[a]) for a in areas.area_ids], dtype=np.uint8)
    env = np.full(grid.shape, ENV_SUBURBAN, dtype=np.uint8)
    inside = labels >= 0
    env[inside] = code_of[labels[inside]]
    return env


def synthesize_naive_specs(
    bts_points,
    area_classes: dict[str, str],
    areas: StatAreaSet,
    grid: Grid | None = None,
) -> list[AntennaSpec]:
    """Guess technical specs from public context: NAIVE_HEIGHT_M and
    NAIVE_POWER_DBM everywhere, the high band in urban-classified areas
    and the low band elsewhere (including BTS outside every area)."""
    pts = list(bts_points)
    x = np.array([float(p[1]) for p in pts])
    y = np.array([float(p[2]) for p in pts])
    host = areas.locate_points(x, y, grid) if pts else np.empty(0, dtype=np.int64)
    outside = int(np.count_nonzero(host == UNASSIGNED))
    if outside:
        warnings.warn(f"{outside} BTS outside every area; assuming the low band", stacklevel=2)
    area_ids = areas.area_ids  # a new list per access
    specs = []
    for i, p in enumerate(pts):
        if host[i] >= 0 and area_classes.get(area_ids[host[i]]) == "urban":
            freq = NAIVE_URBAN_FREQ_MHZ
        else:
            freq = NAIVE_OTHER_FREQ_MHZ
        specs.append(AntennaSpec(p[0], float(p[1]), float(p[2]), NAIVE_HEIGHT_M, freq,
                                 NAIVE_POWER_DBM))
    return specs
