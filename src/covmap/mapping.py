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

bsa/idw first produce per-pixel weights from one received-signal field
(`weights_bsa`, `weights_idw`; streamed callers build them chunk by
chunk and join them with `stack_pixel_weights`), which
`area_weights_from_pixels` then averages over each area's covered
settlement pixels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .geo import UNASSIGNED, Assignment, Grid, Settlements, StatAreaSet, zonal_count
from .propagation import ENV_SUBURBAN, AntennaSpec, RssField, env_code

ROW_SUM_TOL = 1e-9

SCHEME_P2P = "p2p"
SCHEME_VORONOI = "voronoi"
SCHEME_AUG_VORONOI = "aug_voronoi"
SCHEME_BSA = "bsa"
SCHEME_IDW = "idw"


@dataclass
class WeightMatrix:
    """Sparse area x BTS weight rows; absent areas have no coverage."""

    scheme: str
    area_ids: list[str]
    rows: dict[str, dict[str, float]]
    dropped_bts: list[str] = field(default_factory=list)

    def __post_init__(self):
        known = set(self.area_ids)
        for aid, row in self.rows.items():
            if aid not in known:
                raise ValueError(f"weight row for unknown area {aid!r}")
            if not row:
                raise ValueError(f"area {aid!r}: empty weight row; omit the area instead")
            vals = np.array(list(row.values()))
            if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
                raise ValueError(f"area {aid!r}: weights must be finite and positive")
            if abs(vals.sum() - 1.0) > ROW_SUM_TOL:
                raise ValueError(f"area {aid!r}: weights sum to {vals.sum()!r}, not 1")

    @property
    def covered_ids(self) -> list[str]:
        return [a for a in self.area_ids if a in self.rows]

    @property
    def no_coverage_ids(self) -> list[str]:
        return [a for a in self.area_ids if a not in self.rows]

    def row(self, area_id: str) -> dict[str, float] | None:
        if area_id not in set(self.area_ids):
            raise KeyError(f"unknown area {area_id!r}")
        return self.rows.get(area_id)

    def entries(self) -> list[tuple[str, str, float]]:
        """(area_id, bts_id, weight) triplets sorted by (area_id, bts_id)."""
        out = []
        for aid in sorted(self.rows):
            for bid in sorted(self.rows[aid]):
                out.append((aid, bid, self.rows[aid][bid]))
        return out


@dataclass
class PixelWeights:
    """Per-settlement-pixel BTS weights in CSR layout.

    Row i covers `col[indptr[i]:indptr[i+1]]` with matching `w` entries;
    an empty row marks an uncovered pixel.
    """

    scheme: str
    pixel_ids: np.ndarray
    bts_ids: list[str]
    indptr: np.ndarray
    col: np.ndarray
    w: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.pixel_ids = np.asarray(self.pixel_ids, dtype=np.int64)
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.col = np.asarray(self.col, dtype=np.int64)
        self.w = np.asarray(self.w, dtype=np.float64)
        n = self.pixel_ids.size
        if self.indptr.shape != (n + 1,) or self.indptr[0] != 0 or self.indptr[-1] != self.col.size:
            raise ValueError("malformed CSR index")
        lens = np.diff(self.indptr)
        if np.any(lens < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.col.size != self.w.size:
            raise ValueError("col and w lengths differ")
        if self.col.size and (self.col.min() < 0 or self.col.max() >= len(self.bts_ids)):
            raise ValueError("col out of range for bts_ids")
        if self.col.size:
            sums = np.bincount(np.repeat(np.arange(n), lens), weights=self.w, minlength=n)
            if np.any(np.abs(sums[lens > 0] - 1.0) > ROW_SUM_TOL):
                raise ValueError("per-pixel weights must sum to 1 on covered pixels")

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def covered(self) -> np.ndarray:
        return self.row_lengths() > 0

    def row(self, i: int) -> dict[str, float]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return {self.bts_ids[c]: float(v) for c, v in zip(self.col[lo:hi], self.w[lo:hi])}


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
        self._index = {b: i for i, b in enumerate(self.bts_ids)}

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"unknown covariate column {name!r}")
        return self.columns[name]

    def lookup(self, bts_id: str, name: str) -> float:
        if bts_id not in self._index:
            raise KeyError(f"bts_id {bts_id!r} not in covariate table")
        return float(self.column(name)[self._index[bts_id]])


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
    rows: dict[str, dict[str, float]] = {}
    for aidx in np.unique(host[host >= 0]):
        members = sorted(ids[i] for i in np.nonzero(host == aidx)[0])
        rows[areas.area_ids[aidx]] = {b: 1.0 / len(members) for b in members}
    return WeightMatrix(SCHEME_P2P, list(areas.area_ids), rows, dropped_bts=dropped)


def _tile_share_rows(table: dict, bts_ids: list[str]) -> dict[str, dict[str, float]]:
    """Rows of per-area tile shares from a zonal (area_id, label) count table."""
    area_pixels: dict[str, float] = {}
    for (aid, _), cnt in table.items():
        area_pixels[aid] = area_pixels.get(aid, 0.0) + cnt
    rows: dict[str, dict[str, float]] = {}
    for (aid, lab), cnt in table.items():
        rows.setdefault(aid, {})[bts_ids[lab]] = cnt / area_pixels[aid]
    return rows


def weights_voronoi(assignment: Assignment, areas: StatAreaSet) -> WeightMatrix:
    """Per-area share of pixels falling in each site's nearest-site tile."""
    rows = _tile_share_rows(zonal_count(assignment, areas), assignment.bts_ids)
    return WeightMatrix(SCHEME_VORONOI, list(areas.area_ids), rows)


def weights_aug_voronoi(
    assignment: Assignment, settlements: Settlements, areas: StatAreaSet
) -> WeightMatrix:
    """Voronoi weights counting settlement pixels instead of all pixels.

    Areas without a settlement pixel get no coverage.
    """
    settled = np.zeros(assignment.grid.shape, dtype=np.float64)
    settled[settlements.rows, settlements.cols] = 1.0
    table = zonal_count(assignment, areas, weights=settled)
    rows = _tile_share_rows(table, assignment.bts_ids)
    return WeightMatrix(SCHEME_AUG_VORONOI, list(areas.area_ids), rows)


# --- signal-based schemes ----------------------------------------------------


def bsa_select_chunk(rss_chunk: np.ndarray, live_chunk: np.ndarray) -> np.ndarray:
    """Best live server per row (columns must be in ascending bts_id order).

    Returns the column index, or -1 where every link is dead.  Exact
    ties resolve to the lowest bts_id via argmax's first-hit rule.
    """
    masked = np.where(live_chunk, rss_chunk, -np.inf)
    sel = np.argmax(masked, axis=1).astype(np.int64)
    sel[~live_chunk.any(axis=1)] = UNASSIGNED
    return sel


def idw_rows_chunk(
    rss_chunk: np.ndarray, live_chunk: np.ndarray, s: float, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """IDW weights per row over the k strongest live links.

    Columns must already be in ascending bts_id order.  Returns CSR-style
    (counts, col, w) with cols ascending within each row.  The signal
    "distance" is |rss| clamped below at 1 to keep 1/|rss|^s finite.
    """
    n, j = rss_chunk.shape
    kk = min(int(k), j)
    if kk < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if s < 0:
        raise ValueError(f"exponent s must be >= 0, got {s}")
    masked = np.where(live_chunk, rss_chunk, -np.inf)
    order = np.argsort(-masked, axis=1, kind="stable")[:, :kk]
    top = np.take_along_axis(masked, order, axis=1)
    sel_live = np.isfinite(top)
    with np.errstate(invalid="ignore"):
        v = np.where(sel_live, 1.0 / np.clip(np.abs(top), 1.0, None) ** s, 0.0)
    tot = v.sum(axis=1)
    counts = sel_live.sum(axis=1).astype(np.int64)
    rows = np.repeat(np.arange(n), kk)[sel_live.ravel()]
    cols = order.ravel()[sel_live.ravel()]
    w = (v / np.where(tot > 0, tot, 1.0)[:, None]).ravel()[sel_live.ravel()]
    reorder = np.lexsort((cols, rows))
    return counts, cols[reorder], w[reorder]


def _settlement_area_index(settlements: Settlements, areas: StatAreaSet) -> np.ndarray:
    labels = areas.labels(settlements.grid)
    return labels[settlements.rows, settlements.cols].astype(np.int64)


def area_weights_from_pixels(
    pw: PixelWeights, settlements: Settlements, areas: StatAreaSet
) -> WeightMatrix:
    """Average per-pixel weights over each area's covered settlement pixels.

    Areas without a covered settlement pixel get no coverage.
    """
    if pw.pixel_ids.size != len(settlements) or not np.array_equal(pw.pixel_ids, settlements.ids):
        raise ValueError("pixel weights and settlements are not aligned")
    area_of = _settlement_area_index(settlements, areas)
    denom = np.bincount(area_of[pw.covered & (area_of >= 0)], minlength=len(areas))

    entry_area = np.repeat(area_of, pw.row_lengths())
    keep = entry_area >= 0
    nbts = len(pw.bts_ids)
    combo = entry_area[keep] * nbts + pw.col[keep]
    sums = np.bincount(combo, weights=pw.w[keep], minlength=len(areas) * nbts)

    # every nonzero sum comes from a covered pixel, so its area's denom is >= 1
    rows: dict[str, dict[str, float]] = {}
    for flat in np.nonzero(sums)[0]:
        aidx, bidx = divmod(int(flat), nbts)
        rows.setdefault(areas.area_ids[aidx], {})[pw.bts_ids[bidx]] = sums[flat] / denom[aidx]
    return WeightMatrix(pw.scheme, list(areas.area_ids), rows)


def _pixel_rows(scheme: str, rss: RssField, counts, col, w, **params) -> PixelWeights:
    ids = list(rss.bts_ids)
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise ValueError("rss columns must ascend by bts_id, without duplicates")
    params["dead_threshold_dbm"] = rss.dead_threshold_dbm
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return PixelWeights(scheme, rss.pixel_ids, ids, indptr, col, w, params)


def weights_bsa(rss: RssField) -> PixelWeights:
    """Best-server assignment: each covered pixel belongs wholly to its
    strongest live link.  Columns must ascend by bts_id."""
    sel = bsa_select_chunk(rss.rss_dbm, rss.live)
    covered = sel >= 0
    return _pixel_rows(SCHEME_BSA, rss, covered.astype(np.int64), sel[covered],
                       np.ones(int(covered.sum())))


def weights_idw(rss: RssField, s: float = 2.0, k: int = 5) -> PixelWeights:
    """Inverse-signal-strength weights over the k strongest live links.
    Columns must ascend by bts_id."""
    counts, col, w = idw_rows_chunk(rss.rss_dbm, rss.live, s, k)
    return _pixel_rows(SCHEME_IDW, rss, counts, col, w, s=float(s), k=int(k))


def stack_pixel_weights(blocks: list[PixelWeights]) -> PixelWeights:
    """Stack the row blocks of consecutive pixel chunks into one."""
    first = blocks[0]
    if any(b.scheme != first.scheme or b.bts_ids != first.bts_ids for b in blocks):
        raise ValueError("row blocks differ in scheme or columns")
    indptr = np.concatenate([[0], np.cumsum(np.concatenate([b.row_lengths() for b in blocks]))])
    return PixelWeights(first.scheme, np.concatenate([b.pixel_ids for b in blocks]),
                        first.bts_ids, indptr, np.concatenate([b.col for b in blocks]),
                        np.concatenate([b.w for b in blocks]), first.params)


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
    out: dict[str, float | None] = {}
    for aid in wm.area_ids:
        row = wm.rows.get(aid)
        if row is None:
            out[aid] = None
            continue
        vals = np.empty(len(row))
        wgts = np.empty(len(row))
        for i, (bid, wgt) in enumerate(sorted(row.items())):
            try:
                v = covariates.lookup(bid, column)
            except KeyError:
                raise ValueError(
                    f"covariate {column!r} missing for BTS {bid!r} (needed by area {aid!r})"
                ) from None
            if not np.isfinite(v):
                raise ValueError(
                    f"covariate {column!r} is missing (NaN) for BTS {bid!r} "
                    f"(needed by area {aid!r})"
                )
            vals[i], wgts[i] = v, wgt
        if statistic == "mean":
            out[aid] = float(vals @ wgts)
        else:
            out[aid] = _weighted_median(vals, wgts)
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
    size_arr = np.array([sizes[a] for a in areas.area_ids])
    with np.errstate(divide="ignore", invalid="ignore"):
        density = np.where(
            size_arr > 0, counts / size_arr, np.where(counts > 0, np.inf, 0.0)
        )

    classes = {
        aid: ("urban" if density[i] > URBAN_DENSITY_PER_KM2 else "suburban")
        for i, aid in enumerate(areas.area_ids)
    }
    n_rural = int(np.floor(RURAL_SHARE * len(areas)))
    by_density = sorted(range(len(areas)), key=lambda i: (density[i], areas.area_ids[i]))
    for i in by_density[:n_rural]:
        if classes[areas.area_ids[i]] != "urban":
            classes[areas.area_ids[i]] = "rural"
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
    specs = []
    for i, p in enumerate(pts):
        if host[i] >= 0 and area_classes.get(areas.area_ids[host[i]]) == "urban":
            freq = NAIVE_URBAN_FREQ_MHZ
        else:
            freq = NAIVE_OTHER_FREQ_MHZ
        specs.append(AntennaSpec(p[0], float(p[1]), float(p[2]), NAIVE_HEIGHT_M, freq,
                                 NAIVE_POWER_DBM))
    return specs
