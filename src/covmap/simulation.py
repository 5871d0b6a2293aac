"""Synthetic-world study: build a country, deploy a network, compare schemes.

Each round draws a population (an urban centre plus rural towns and a
uniform background), paints block-level poverty rates, places BTS by
population-weighted clustering, and computes the true best-server
coverage with fully known technical specs.  The world's voronoi
tessellation is computed once: coloured by site class it is the true
propagation environment, and uncoloured it is the voronoi schemes'
map.  The five weighting schemes then estimate area-level poverty from
antenna-level ground truth, and per-round metrics compare them against
a benchmark that knows the true coverage.

Rounds are reproducible: round i of a study uses an RNG stream derived
from (master seed, i) only, so results are identical no matter how many
worker processes run them.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geo import (
    Assignment,
    Grid,
    SettlementRaster,
    Settlements,
    StatAreaSet,
    extract_settlements,
    nearest_index,
    voronoi_assign,
)
from .mapping import (
    CovariateTable,
    PixelWeights,
    aggregate,
    area_weights_from_pixels,
    bsa_select_chunk,
    classify_areas_by_bts_density,
    paint_area_env,
    stack_pixel_weights,
    synthesize_naive_specs,
    weights_aug_voronoi,
    weights_bsa,
    weights_idw,
    weights_p2p,
    weights_voronoi,
)
from .propagation import (
    ENV_CLASSES,
    AntennaSpec,
    env_code,
    forget_live_radii,
    rss_field,
)

SCHEMES = ("benchmark", "p2p", "voronoi", "aug_voronoi", "hata_bsa", "hata_idw")
TALLY_SCHEMES = SCHEMES[1:]
TALLY_METRICS = ("rho", "bias", "rmse")

_CHUNK = 32768
_MAX_REJECTION_ROUNDS = 10_000


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


@dataclass(frozen=True)
class SimConfig:
    """Synthetic-world parameters; defaults give the full-scale setup
    (100 x 100 km at 100 m resolution, one million inhabitants)."""

    ncols: int = 1000
    nrows: int = 1000
    cell_size_m: float = 100.0
    population: int = 1_000_000
    urban_share: float = 0.5
    block_px: int = 200          # layout block edge; the grid must tile evenly
    urban_split: int = 4         # urban block subdivides split x split areas
    urban_sigma_m: float = 7071.067811865476
    rural_cluster_count: int = 8
    rural_cluster_share: float = 0.5
    rural_sigma_m: float = 14142.135623730951
    mask_rect: tuple[int, int, int, int] | None = (550, 550, 150, 150)  # col0,row0,w,h
    poverty_block_px: int = 4
    poverty_sigma: float = 0.5
    urban_pop_per_bts: float = 5000.0
    rural_pop_per_bts: float = 10000.0
    height_range_m: tuple[float, float] = (15.0, 60.0)
    power_range_dbm: tuple[float, float] = (40.0, 47.0)
    urban_freq_mhz: float = 2100.0
    rural_freq_mhz: float = 900.0
    rx_height_m: float = 1.0
    env_urban_quantile: float = 0.5
    env_rural_quantile: float = 0.05
    dead_threshold_dbm: float = -110.0
    idw_s: float = 2.0
    idw_k: int = 5
    rounds: int = 1
    seed: int = 0
    kmeans_iters: int = 25

    def __post_init__(self):
        if self.ncols % self.block_px or self.nrows % self.block_px:
            raise ValueError(
                f"grid {self.ncols}x{self.nrows} must tile evenly into "
                f"{self.block_px}-pixel blocks"
            )
        if not (1 <= self.urban_split <= self.block_px):
            raise ValueError("urban_split must be between 1 and block_px")
        if self.population < 1:
            raise ValueError("population must be positive")
        for name in ("urban_share", "rural_cluster_share", "env_urban_quantile",
                     "env_rural_quantile"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.mask_rect is not None:
            c0, r0, w, h = self.mask_rect
            if not (0 <= c0 and 0 <= r0 and w > 0 and h > 0
                    and c0 + w <= self.ncols and r0 + h <= self.nrows):
                raise ValueError(f"mask_rect {self.mask_rect} outside the grid")
        for name in ("height_range_m", "power_range_dbm"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ValueError(f"{name} must be an increasing (lo, hi) pair")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.rural_cluster_count < 1:
            raise ValueError("rural_cluster_count must be >= 1")

    @property
    def grid(self) -> Grid:
        return Grid(ncols=self.ncols, nrows=self.nrows, cell_size_m=self.cell_size_m)

    @classmethod
    def desk(cls, rounds: int = 50, seed: int = 0) -> "SimConfig":
        """Quarter-scale configuration for fast studies (250 x 250 grid).

        Site counts and town spread keep the full-scale ratio of area
        size to voronoi tile size, so the scheme comparison faces the
        same geometry; a straight parameter division would leave rural
        areas smaller than one tile and the schemes indistinguishable.
        """
        return cls(
            ncols=250,
            nrows=250,
            population=60_000,
            block_px=50,
            urban_sigma_m=7071.067811865476 / 4.0,
            rural_cluster_count=10,
            rural_cluster_share=0.85,
            rural_sigma_m=700.0,
            mask_rect=(140, 100, 40, 40),
            urban_pop_per_bts=2400.0,
            rural_pop_per_bts=1200.0,
            rounds=rounds,
            seed=seed,
        )


# --- layout ------------------------------------------------------------------


def uninhabited_mask(cfg: SimConfig) -> np.ndarray:
    """Boolean raster of pixels that can hold no population."""
    m = np.zeros((cfg.nrows, cfg.ncols), dtype=bool)
    if cfg.mask_rect is not None:
        c0, r0, w, h = cfg.mask_rect
        m[r0 : r0 + h, c0 : c0 + w] = True
    return m


def urban_block_mask(cfg: SimConfig) -> np.ndarray:
    """The urban layout block: the lower-left block of the grid."""
    m = np.zeros((cfg.nrows, cfg.ncols), dtype=bool)
    m[cfg.nrows - cfg.block_px :, : cfg.block_px] = True
    return m


def _split_sizes(total: int, parts: int) -> list[int]:
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def build_areas(cfg: SimConfig) -> tuple[StatAreaSet, dict[str, str]]:
    """Statistical areas tiling the grid, plus their layout class.

    The urban block subdivides into urban_split^2 small areas named
    U<i>_<j>; every other block is one rural area R<row>_<col>.  Returns
    (areas, {area_id: "urban" | "rural"}).
    """
    grid = cfg.grid
    pairs = []
    classes: dict[str, str] = {}
    sizes = _split_sizes(cfg.block_px, cfg.urban_split)
    r0 = cfg.nrows - cfg.block_px
    redges = np.concatenate([[0], np.cumsum(sizes)]) + r0
    cedges = np.concatenate([[0], np.cumsum(sizes)])
    for i in range(cfg.urban_split):
        for j in range(cfg.urban_split):
            m = np.zeros(grid.shape, dtype=bool)
            m[redges[i] : redges[i + 1], cedges[j] : cedges[j + 1]] = True
            aid = f"U{i}_{j}"
            pairs.append((aid, m))
            classes[aid] = "urban"
    nbr, nbc = cfg.nrows // cfg.block_px, cfg.ncols // cfg.block_px
    for br in range(nbr):
        for bc in range(nbc):
            if br == nbr - 1 and bc == 0:
                continue  # the urban block
            m = np.zeros(grid.shape, dtype=bool)
            m[br * cfg.block_px : (br + 1) * cfg.block_px,
              bc * cfg.block_px : (bc + 1) * cfg.block_px] = True
            aid = f"R{br}_{bc}"
            pairs.append((aid, m))
            classes[aid] = "rural"
    return StatAreaSet.from_masks(grid, pairs), classes


# --- world generation --------------------------------------------------------


def _rejection_sample(rng, n: int, draw, accept) -> tuple[np.ndarray, np.ndarray]:
    """Draw until n points pass `accept`; consumption order is fixed."""
    xs, ys = [], []
    have = 0
    for _ in range(_MAX_REJECTION_ROUNDS):
        if have >= n:
            break
        batch = max(64, int((n - have) * 1.5))
        x, y = draw(rng, batch)
        ok = accept(x, y)
        xs.append(x[ok])
        ys.append(y[ok])
        have += int(ok.sum())
    else:
        raise RuntimeError("rejection sampling failed to converge; check the masks")
    x = np.concatenate(xs)[:n]
    y = np.concatenate(ys)[:n]
    return x, y


def gen_population(cfg: SimConfig, rng) -> SettlementRaster:
    """Draw the synthetic population and bin it into a settlement raster.

    Half the people (urban_share) follow an isotropic normal around the
    urban-block centre; the rural rest split between normal clusters at
    uniform random centres and a uniform background over the rural
    region.  The uninhabited mask and off-grid draws are rejected and
    redrawn, so the raster total always equals cfg.population.
    """
    rng = np.random.default_rng(rng)
    grid = cfg.grid
    xmin, ymin, xmax, ymax = grid.extent()
    mask = uninhabited_mask(cfg)
    urban = urban_block_mask(cfg)

    def on_grid_ok(x, y):
        r, c = grid.locate(x, y)
        ok = r >= 0
        out = np.zeros(x.shape, dtype=bool)
        out[ok] = ~mask[r[ok], c[ok]]
        return out

    def rural_ok(x, y):
        r, c = grid.locate(x, y)
        ok = r >= 0
        out = np.zeros(x.shape, dtype=bool)
        out[ok] = ~mask[r[ok], c[ok]] & ~urban[r[ok], c[ok]]
        return out

    n_urban = _round_half_up(cfg.population * cfg.urban_share)
    n_rural = cfg.population - n_urban
    cx = cy = cfg.block_px * cfg.cell_size_m / 2.0

    def draw_urban(rng, m):
        return (rng.normal(cx, cfg.urban_sigma_m, m), rng.normal(cy, cfg.urban_sigma_m, m))

    ux, uy = _rejection_sample(rng, n_urban, draw_urban, on_grid_ok)

    def draw_uniform(rng, m):
        return (rng.uniform(xmin, xmax, m), rng.uniform(ymin, ymax, m))

    ccx, ccy = _rejection_sample(rng, cfg.rural_cluster_count, draw_uniform, rural_ok)

    n_clustered = _round_half_up(n_rural * cfg.rural_cluster_share)
    per = _split_sizes(n_clustered, cfg.rural_cluster_count)
    rx_parts, ry_parts = [], []
    for i in range(cfg.rural_cluster_count):
        def draw_cluster(rng, m, i=i):
            return (
                rng.normal(ccx[i], cfg.rural_sigma_m, m),
                rng.normal(ccy[i], cfg.rural_sigma_m, m),
            )
        x, y = _rejection_sample(rng, per[i], draw_cluster, on_grid_ok)
        rx_parts.append(x)
        ry_parts.append(y)
    bx, by = _rejection_sample(rng, n_rural - n_clustered, draw_uniform, rural_ok)

    x = np.concatenate([ux] + rx_parts + [bx])
    y = np.concatenate([uy] + ry_parts + [by])
    r, c = grid.locate(x, y)
    counts = np.bincount(r * cfg.ncols + c, minlength=grid.npixels).reshape(grid.shape)
    return SettlementRaster(grid, counts.astype(np.int64))


def assign_poverty(raster: SettlementRaster, cfg: SimConfig, rng) -> np.ndarray:
    """Per-settlement poverty rates, aligned with extract_settlements order.

    The map tiles into poverty blocks; each block's mean rate is
    U(0,1) * (1 - normalised population density), so the densest block
    centres at exactly zero.  Individual settlement rates add N(0,
    poverty_sigma) noise and clamp to [0, 1].
    """
    rng = np.random.default_rng(rng)
    b = cfg.poverty_block_px
    nbr = -(-cfg.nrows // b)
    nbc = -(-cfg.ncols // b)
    rr, cc = np.meshgrid(np.arange(cfg.nrows), np.arange(cfg.ncols), indexing="ij")
    block = (rr // b) * nbc + (cc // b)
    pop = np.bincount(block.ravel(), weights=raster.counts.ravel(), minlength=nbr * nbc)
    px = np.bincount(block.ravel(), minlength=nbr * nbc)
    density = pop / px  # partial edge blocks normalise by their true pixel count
    top = density.max()
    if top <= 0:
        raise ValueError("population raster is empty")
    mu = rng.uniform(0.0, 1.0, nbr * nbc) * (1.0 - density / top)

    settlements = extract_settlements(raster)
    mu_at = mu[block[settlements.rows, settlements.cols]]
    rates = mu_at + cfg.poverty_sigma * rng.standard_normal(len(settlements))
    return np.clip(rates, 0.0, 1.0)


def _weighted_kmeans(x, y, w, k: int, rng, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with population weights and k-means++ seeding.

    Pure streaming numpy so results never depend on BLAS threading.
    """
    n = x.size
    probs = w / w.sum()
    first = int(rng.choice(n, p=probs))
    cx, cy = [x[first]], [y[first]]
    d2 = (x - cx[0]) ** 2 + (y - cy[0]) ** 2
    for _ in range(1, k):
        wd = w * d2
        tot = wd.sum()
        idx = int(rng.choice(n, p=wd / tot)) if tot > 0 else int(rng.choice(n, p=probs))
        cx.append(x[idx])
        cy.append(y[idx])
        d2 = np.minimum(d2, (x - cx[-1]) ** 2 + (y - cy[-1]) ** 2)
    cx = np.array(cx)
    cy = np.array(cy)

    for _ in range(iters):
        lab = nearest_index(x, y, cx, cy)
        wsum = np.bincount(lab, weights=w, minlength=k)
        nx = np.bincount(lab, weights=w * x, minlength=k)
        ny = np.bincount(lab, weights=w * y, minlength=k)
        new_cx = np.where(wsum > 0, nx / np.maximum(wsum, 1e-300), cx)
        new_cy = np.where(wsum > 0, ny / np.maximum(wsum, 1e-300), cy)
        for j in np.nonzero(wsum == 0)[0]:  # re-seed empty clusters, farthest first
            dmin = np.full(n, np.inf)
            for jj in range(k):
                if wsum[jj] > 0 or jj < j:
                    dmin = np.minimum(dmin, (x - new_cx[jj]) ** 2 + (y - new_cy[jj]) ** 2)
            far = int(np.argmax(dmin))
            new_cx[j], new_cy[j] = x[far], y[far]
        moved = np.max((new_cx - cx) ** 2 + (new_cy - cy) ** 2)
        cx, cy = new_cx, new_cy
        if moved < 1e-12:
            break
    return cx, cy


def _snap_to_pixels(cx, cy, px, py) -> np.ndarray:
    """Nearest settled pixel per centroid, resolving collisions in order."""
    taken = np.zeros(px.size, dtype=bool)
    out = np.empty(cx.size, dtype=np.int64)
    for i in range(cx.size):
        d2 = (px - cx[i]) ** 2 + (py - cy[i]) ** 2
        d2[taken] = np.inf
        j = int(np.argmin(d2))
        out[i] = j
        taken[j] = True
    return out


def classify_env_by_cluster_size(sizes, urban_q: float, rural_q: float) -> list[str]:
    """Environment class per site from served-pixel counts.

    The urban_q fraction with the smallest clusters (tight urban cells)
    become urban; the ceil(rural_q * n) largest become rural; the rest
    suburban.  Ties break on site index.
    """
    sizes = np.asarray(sizes)
    n = sizes.size
    n_urban = int(np.floor(urban_q * n))
    n_rural = min(int(np.ceil(rural_q * n)), n - n_urban)
    order = sorted(range(n), key=lambda i: (sizes[i], i))
    env = ["suburban"] * n
    for i in order[:n_urban]:
        env[i] = "urban"
    for i in order[n - n_rural :]:
        env[i] = "rural"
    return env


def place_bts(raster: SettlementRaster, cfg: SimConfig, rng) -> tuple[list[AntennaSpec], list[str]]:
    """Site the network and draw its technical specs.

    BTS counts follow the population split (one site per
    urban_pop_per_bts urban inhabitants, likewise rural); sites are
    population-weighted k-means centroids snapped to settlement pixels,
    urban region first.  Urban-region sites get the high band and the
    full mast-height range; rural-region sites the low band and the
    upper half of the height range.  Returns (specs, env classes), env
    derived from served-cluster sizes.
    """
    rng = np.random.default_rng(rng)
    settlements = extract_settlements(raster)
    if len(settlements) == 0:
        raise ValueError("cannot place BTS on an empty world")
    urban = urban_block_mask(cfg)
    in_urban = urban[settlements.rows, settlements.cols]

    n_urban_bts = max(1, _round_half_up(cfg.population * cfg.urban_share / cfg.urban_pop_per_bts))
    n_rural_bts = max(
        1, _round_half_up(cfg.population * (1.0 - cfg.urban_share) / cfg.rural_pop_per_bts)
    )

    sx_parts, sy_parts, region = [], [], []
    for region_name, mask_sel, k in (
        ("urban", in_urban, n_urban_bts),
        ("rural", ~in_urban, n_rural_bts),
    ):
        px, py = settlements.x[mask_sel], settlements.y[mask_sel]
        w = settlements.counts[mask_sel]
        if px.size == 0:
            continue
        k = min(k, px.size)
        cx, cy = _weighted_kmeans(px, py, w, k, rng, cfg.kmeans_iters)
        snapped = _snap_to_pixels(cx, cy, px, py)
        sx_parts.append(px[snapped])
        sy_parts.append(py[snapped])
        region.extend([region_name] * k)
    sx = np.concatenate(sx_parts)
    sy = np.concatenate(sy_parts)
    n = sx.size
    width = max(3, len(str(n - 1)))
    ids = [f"bts_{i:0{width}d}" for i in range(n)]

    # served-cluster sizes over all settlement pixels -> env classes
    lab = nearest_index(settlements.x, settlements.y, sx, sy)
    sizes = np.bincount(lab, minlength=n)
    env = classify_env_by_cluster_size(sizes, cfg.env_urban_quantile, cfg.env_rural_quantile)

    h_lo, h_hi = cfg.height_range_m
    h_mid = 0.5 * (h_lo + h_hi)
    p_lo, p_hi = cfg.power_range_dbm
    specs = []
    for i in range(n):
        if region[i] == "urban":
            h = rng.uniform(h_lo, h_hi)
            f = cfg.urban_freq_mhz
        else:
            h = rng.uniform(h_mid, h_hi)
            f = cfg.rural_freq_mhz
        p = rng.uniform(p_lo, p_hi)
        specs.append(AntennaSpec(ids[i], float(sx[i]), float(sy[i]), h, f, p))
    return specs, env


# --- coverage ----------------------------------------------------------------


def nearest_site_env(grid: Grid, sx, sy, site_env_codes) -> np.ndarray:
    """Full-grid environment labels: each pixel inherits the class of its
    nearest site (ties to the lowest site index).  `build_world` reads
    the same grid off the world's voronoi map."""
    codes = np.asarray(site_env_codes, dtype=np.uint8)
    x, y = grid.pixel_centers()
    return codes[nearest_index(x, y, sx, sy)].reshape(grid.shape)


def best_server_grid(
    grid: Grid,
    specs: list[AntennaSpec],
    env_grid: np.ndarray,
    rx_height_m: float,
    dead_threshold_dbm: float,
) -> Assignment:
    """Full-grid strongest-live-server assignment, streamed in chunks.

    Specs must be sorted by bts_id so exact ties resolve to the lowest
    id; pixels with no live link stay unassigned.
    """
    ids = _start_pass(specs)
    env_flat = np.asarray(env_grid, dtype=np.uint8).ravel()
    labels = np.empty(grid.npixels, dtype=np.int32)
    pids = np.arange(grid.npixels)
    x, y = grid.pixel_centers()
    for lo in range(0, grid.npixels, _CHUNK):
        hi = lo + _CHUNK
        rss = rss_field(specs, pids[lo:hi], x[lo:hi], y[lo:hi], env_flat[lo:hi],
                        rx_height_m=rx_height_m, dead_threshold_dbm=dead_threshold_dbm)
        labels[lo:hi] = bsa_select_chunk(rss.rss_dbm, rss.live)
    return Assignment(grid, ids, labels.reshape(grid.shape))


def _start_pass(specs: list[AntennaSpec]) -> list[str]:
    """The spec ids, which must ascend strictly; also empties the radius
    memo, so each pass probes every distinct spec once."""
    ids = [s.bts_id for s in specs]
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise ValueError("specs must be sorted by bts_id, without duplicates")
    forget_live_radii()
    return ids


@dataclass
class CoverageResult:
    """True network coverage: the full-grid assignment plus settlement views."""

    assignment: Assignment
    settlement_server: np.ndarray  # index into assignment.bts_ids, -1 = uncovered
    uncovered_settlements: int
    uncovered_fraction: float


def true_coverage(
    grid: Grid,
    settlements: Settlements,
    specs: list[AntennaSpec],
    env_grid: np.ndarray,
    cfg: SimConfig,
) -> CoverageResult:
    """Ground-truth coverage from the real specs over the true
    environment grid (env codes, one per pixel)."""
    assignment = best_server_grid(grid, specs, env_grid, cfg.rx_height_m, cfg.dead_threshold_dbm)
    server = assignment.labels[settlements.rows, settlements.cols].astype(np.int64)
    uncovered = int(np.count_nonzero(server < 0))
    frac = uncovered / max(len(settlements), 1)
    return CoverageResult(assignment, server, uncovered, frac)


def settlement_pixel_weights(
    settlements: Settlements,
    specs: list[AntennaSpec],
    env_at: np.ndarray,
    *,
    rx_height_m: float,
    dead_threshold_dbm: float,
    idw_s: float,
    idw_k: int,
) -> tuple[PixelWeights, PixelWeights]:
    """Streamed bsa and idw per-pixel weights of the settlement pixels.

    `env_at` holds each settlement's environment code; specs must be
    sorted by bts_id.  One chunk of `rss_field` at a time goes through
    `weights_bsa` and `weights_idw`, so memory stays bounded by the chunk
    whatever the settlement count.
    """
    _start_pass(specs)
    bsa, idw = [], []
    # an empty settlement set still passes through one (empty) chunk
    for lo in range(0, max(len(settlements), 1), _CHUNK):
        hi = lo + _CHUNK
        rss = rss_field(specs, settlements.ids[lo:hi], settlements.x[lo:hi],
                        settlements.y[lo:hi], env_at[lo:hi], rx_height_m=rx_height_m,
                        dead_threshold_dbm=dead_threshold_dbm)
        bsa.append(weights_bsa(rss))
        idw.append(weights_idw(rss, idw_s, idw_k))
    return stack_pixel_weights(bsa), stack_pixel_weights(idw)


# --- metrics -----------------------------------------------------------------


@dataclass(frozen=True)
class PredictionMetrics:
    rho: float | None
    bias: float
    rmse: float
    n: int


def prediction_metrics(est: dict, truth: dict) -> PredictionMetrics:
    """Pearson correlation, mean bias and RMSE over paired areas.

    Pairs where the estimate is None or the truth is NaN are skipped.
    Fewer than two pairs is an error; a constant series makes the
    correlation undefined (None).
    """
    keys = sorted(k for k, v in est.items() if v is not None and k in truth
                  and np.isfinite(truth[k]))
    if len(keys) < 2:
        raise ValueError(f"need at least 2 paired areas, have {len(keys)}")
    e = np.array([est[k] for k in keys], dtype=np.float64)
    t = np.array([truth[k] for k in keys], dtype=np.float64)
    err = e - t
    bias = float(err.mean())
    rmse = float(np.sqrt(np.mean(err * err)))
    if np.ptp(e) == 0.0 or np.ptp(t) == 0.0:
        rho = None
    else:
        rho = float(np.corrcoef(e, t)[0, 1])
    return PredictionMetrics(rho, bias, rmse, len(keys))


def _iou_by_site(est_flat, truth_flat, j: int) -> tuple[np.ndarray, np.ndarray]:
    eq = (est_flat == truth_flat) & (est_flat >= 0)
    inter = np.bincount(est_flat[eq], minlength=j)
    na = np.bincount(est_flat[est_flat >= 0], minlength=j)
    nb = np.bincount(truth_flat[truth_flat >= 0], minlength=j)
    union = na + nb - inter
    return inter, union


def _class_means(values: np.ndarray, valid: np.ndarray, codes=None) -> dict[str, float]:
    """Mean of `values` over the `valid` entries ("total", NaN when none),
    plus the mean per environment class when `codes` gives an env code
    per entry; classes without a valid entry are left out."""
    out = {"total": float(values[valid].mean()) if valid.any() else float("nan")}
    if codes is not None:
        codes = np.asarray(codes)
        for code, name in enumerate(ENV_CLASSES):
            m = valid & (codes == code)
            if m.any():
                out[name] = float(values[m].mean())
    return out


def _site_codes(bts_env: list[str] | None):
    return None if bts_env is None else [env_code(e) for e in bts_env]


def geographic_overlap(
    est: Assignment, truth: Assignment, bts_env: list[str] | None = None
) -> dict[str, float]:
    """Mean per-site intersection-over-union of served pixel sets.

    Identical assignments give exactly 1.0.  Sites with an empty union
    are skipped; with `bts_env` the mean is also reported per class.
    """
    if est.bts_ids != truth.bts_ids:
        raise ValueError("assignments cover different bts_id sets")
    if est.labels.shape != truth.labels.shape:
        raise ValueError("assignments cover different grids")
    inter, union = _iou_by_site(est.labels.ravel(), truth.labels.ravel(), len(est.bts_ids))
    # an empty union has an empty intersection, so the clamp only avoids 0/0
    return _class_means(inter / np.maximum(union, 1), union > 0, _site_codes(bts_env))


def area_membership_overlap(
    area_labels: np.ndarray,
    host_area: np.ndarray,
    truth: Assignment,
    bts_env: list[str] | None = None,
) -> dict[str, float]:
    """Geographic overlap for p2p, whose per-site claim is its host area.

    `host_area[j]` is the area index containing site j (-1 = none, an
    empty claim).  Works like `geographic_overlap` with the site's area
    pixels as its estimated service region; areas shared by several
    sites count fully for each.
    """
    j = len(truth.bts_ids)
    t_flat = truth.labels.ravel()
    a_flat = area_labels.ravel()
    n_area = int(a_flat.max()) + 1 if a_flat.size else 0
    area_sizes = np.bincount(a_flat[a_flat >= 0], minlength=n_area)
    both = (a_flat >= 0) & (t_flat >= 0)
    inter_mat = np.bincount(
        a_flat[both] * j + t_flat[both], minlength=n_area * j
    ).reshape(n_area, j)
    t_sizes = np.bincount(t_flat[t_flat >= 0], minlength=j)
    iou = np.zeros(j)
    valid = np.zeros(j, dtype=bool)
    for site in range(j):
        a = host_area[site]
        inter = inter_mat[a, site] if a >= 0 else 0
        size_a = area_sizes[a] if a >= 0 else 0
        union = size_a + t_sizes[site] - inter
        if union > 0:
            iou[site] = inter / union
            valid[site] = True
    return _class_means(iou, valid, _site_codes(bts_env))


def settlement_overlap(
    est_server, true_server, group_codes=None, credit=None
) -> dict[str, float]:
    """Share of truth-covered settlements whose estimated server matches.

    `credit` replaces the 0/1 match indicator for schemes that only
    give fractional attachment (p2p).  With `group_codes` (an env code
    per settlement) per-class shares are included.
    """
    true_server = np.asarray(true_server)
    if credit is None:
        est_server = np.asarray(est_server)
        if est_server.shape != true_server.shape:
            raise ValueError("server arrays differ in shape")
        credit = (est_server == true_server).astype(np.float64)
    else:
        credit = np.asarray(credit, dtype=np.float64)
        if credit.shape != true_server.shape:
            raise ValueError("credit array differs in shape")
    return _class_means(credit, true_server >= 0, group_codes)


# --- the study ---------------------------------------------------------------


@dataclass
class SyntheticWorld:
    cfg: SimConfig
    raster: SettlementRaster
    settlements: Settlements
    poverty: np.ndarray
    areas: StatAreaSet
    layout_class: dict[str, str]
    specs: list[AntennaSpec]
    bts_env: list[str]
    voronoi: Assignment      # nearest-site tessellation, sites in bts_id order
    env_grid: np.ndarray     # true env codes: the voronoi map coloured by site class
    coverage: CoverageResult
    covariates: CovariateTable
    true_area_rates: dict[str, float]

    @property
    def grid(self) -> Grid:
        return self.raster.grid


def build_world(cfg: SimConfig, round_index: int) -> SyntheticWorld:
    """Generate one fully specified synthetic world for a study round; its
    voronoi map, coloured by site class, is the true environment grid."""
    ss = np.random.SeedSequence((cfg.seed, round_index))
    rng_pop, rng_pov, rng_bts = (np.random.default_rng(s) for s in ss.spawn(3))
    raster = gen_population(cfg, rng_pop)
    settlements = extract_settlements(raster)
    poverty = assign_poverty(raster, cfg, rng_pov)
    specs, bts_env = place_bts(raster, cfg, rng_bts)
    voronoi = voronoi_assign(cfg.grid, [(s.bts_id, s.x, s.y) for s in specs])
    code_of = {s.bts_id: env_code(e) for s, e in zip(specs, bts_env)}
    env_grid = np.array([code_of[b] for b in voronoi.bts_ids], dtype=np.uint8)[voronoi.labels]
    areas, layout_class = build_areas(cfg)
    coverage = true_coverage(cfg.grid, settlements, specs, env_grid, cfg)

    # antenna-level ground truth: population-weighted poverty of the
    # settlements each site truly serves
    server = coverage.settlement_server
    covered = server >= 0
    pop = settlements.counts
    num = np.bincount(server[covered], weights=(pop * poverty)[covered], minlength=len(specs))
    den = np.bincount(server[covered], weights=pop[covered], minlength=len(specs))
    with np.errstate(invalid="ignore"):
        rates = np.where(den > 0, num / np.maximum(den, 1e-300), np.nan)
    covariates = CovariateTable([s.bts_id for s in specs], {"poverty": rates})

    area_of = areas.labels(cfg.grid)[settlements.rows, settlements.cols]
    tnum = np.bincount(area_of[area_of >= 0], weights=(pop * poverty)[area_of >= 0],
                       minlength=len(areas))
    tden = np.bincount(area_of[area_of >= 0], weights=pop[area_of >= 0], minlength=len(areas))
    with np.errstate(invalid="ignore"):
        tr = np.where(tden > 0, tnum / np.maximum(tden, 1e-300), np.nan)
    true_area_rates = {aid: float(tr[i]) for i, aid in enumerate(areas.area_ids)}

    return SyntheticWorld(
        cfg, raster, settlements, poverty, areas, layout_class, specs, bts_env,
        voronoi, env_grid, coverage, covariates, true_area_rates,
    )


def _benchmark_estimates(world: SyntheticWorld) -> dict[str, float | None]:
    """Area estimates a perfect-knowledge user of the true coverage gets:
    average the serving site's covariate over covered settlements."""
    areas = world.areas
    area_of = areas.labels(world.grid)[world.settlements.rows, world.settlements.cols]
    server = world.coverage.settlement_server
    ok = (server >= 0) & (area_of >= 0)
    r_by_site = world.covariates.column("poverty")
    num = np.bincount(area_of[ok], weights=r_by_site[server[ok]], minlength=len(areas))
    den = np.bincount(area_of[ok], minlength=len(areas))
    return {
        aid: (float(num[i] / den[i]) if den[i] > 0 else None)
        for i, aid in enumerate(areas.area_ids)
    }


def _p2p_credit(
    wm, area_of_settlement: np.ndarray, true_server: np.ndarray, bts_ids: list[str],
    area_ids: list[str],
) -> np.ndarray:
    """Fractional settlement credit for p2p: the weight the settlement's
    area row puts on the true serving site."""
    col_of = {b: j for j, b in enumerate(bts_ids)}
    table = np.zeros((len(area_ids), len(bts_ids)))
    for i, aid in enumerate(area_ids):
        for bts_id, w in wm.rows.get(aid, {}).items():
            if bts_id in col_of:
                table[i, col_of[bts_id]] = w
    credit = np.zeros(true_server.size)
    ok = (true_server >= 0) & (area_of_settlement >= 0)
    credit[ok] = table[area_of_settlement[ok], true_server[ok]]
    return credit


def simulate_round(cfg: SimConfig, round_index: int, return_world: bool = False):
    """Run one study round; returns metric records (and optionally the world).

    Records are (round, scheme, metric, env_class, value) tuples.  Any
    failure is re-raised naming (seed, round) so the round can be
    replayed in isolation.
    """
    try:
        world = build_world(cfg, round_index)
        records = _evaluate_round(world, round_index)
    except Exception as exc:
        raise RuntimeError(
            f"round {round_index} failed (seed={cfg.seed}, round={round_index}): {exc}"
        ) from exc
    if return_world:
        return records, world
    return records


def _evaluate_round(world: SyntheticWorld, round_index: int) -> list[tuple]:
    cfg = world.cfg
    grid = world.grid
    areas = world.areas
    settlements = world.settlements
    specs = world.specs
    bts_ids = [s.bts_id for s in specs]
    points = [(s.bts_id, s.x, s.y) for s in specs]
    truth = world.coverage.assignment
    true_server = world.coverage.settlement_server
    area_labels = areas.labels(grid)
    area_of_settlement = area_labels[settlements.rows, settlements.cols].astype(np.int64)

    # envs for metric grouping: per site the true class, per settlement
    # its true server's class (uncovered settlements only count in totals)
    env_codes_site = np.array([env_code(e) for e in world.bts_env])
    settle_group = np.where(true_server >= 0, env_codes_site[np.clip(true_server, 0, None)], -1)

    # --- scheme estimates -----------------------------------------------
    vor = world.voronoi
    wm_p2p = weights_p2p(points, areas)
    wm_vor = weights_voronoi(vor, areas)
    wm_aug = weights_aug_voronoi(vor, settlements, areas)

    # the city layout is public knowledge, so its areas are always urban;
    # the countryside falls back on the BTS-density rule, whose absolute
    # threshold is tuned for commune-scale maps
    density_classes = classify_areas_by_bts_density(areas, points, grid)
    naive_classes = {
        aid: ("urban" if world.layout_class[aid] == "urban" else density_classes[aid])
        for aid in areas.area_ids
    }
    naive_specs = synthesize_naive_specs(points, naive_classes, areas, grid)
    naive_env_grid = paint_area_env(areas, naive_classes, grid)
    naive_assign = best_server_grid(
        grid, naive_specs, naive_env_grid, cfg.rx_height_m, cfg.dead_threshold_dbm
    )
    naive_sel = naive_assign.labels[settlements.rows, settlements.cols].astype(np.int64)
    pw_bsa, pw_idw = settlement_pixel_weights(
        settlements, naive_specs, naive_env_grid[settlements.rows, settlements.cols],
        rx_height_m=cfg.rx_height_m, dead_threshold_dbm=cfg.dead_threshold_dbm,
        idw_s=cfg.idw_s, idw_k=cfg.idw_k,
    )
    wm_bsa = area_weights_from_pixels(pw_bsa, settlements, areas)
    wm_idw = area_weights_from_pixels(pw_idw, settlements, areas)

    estimates: dict[str, dict[str, float | None]] = {
        "benchmark": _benchmark_estimates(world),
        "p2p": aggregate(wm_p2p, world.covariates, "poverty"),
        "voronoi": aggregate(wm_vor, world.covariates, "poverty"),
        "aug_voronoi": aggregate(wm_aug, world.covariates, "poverty"),
        "hata_bsa": aggregate(wm_bsa, world.covariates, "poverty"),
        "hata_idw": aggregate(wm_idw, world.covariates, "poverty"),
    }

    # --- overlaps: each distinct map is scored once ---------------------
    host_area = areas.locate_points(
        np.array([p[1] for p in points]), np.array([p[2] for p in points]), grid
    )
    geo_vor = geographic_overlap(vor, truth, world.bts_env)
    geo_hata = geographic_overlap(naive_assign, truth, world.bts_env)
    geo = {
        "benchmark": geographic_overlap(truth, truth, world.bts_env),
        "p2p": area_membership_overlap(area_labels, host_area, truth, world.bts_env),
        "voronoi": geo_vor,
        "aug_voronoi": geo_vor,
        "hata_bsa": geo_hata,
        "hata_idw": geo_hata,
    }
    vor_at = vor.labels[settlements.rows, settlements.cols].astype(np.int64)
    credit_p2p = _p2p_credit(wm_p2p, area_of_settlement, true_server, bts_ids, areas.area_ids)
    settle_vor = settlement_overlap(vor_at, true_server, settle_group)
    settle_hata = settlement_overlap(naive_sel, true_server, settle_group)
    settle = {
        "benchmark": settlement_overlap(true_server, true_server, settle_group),
        "p2p": settlement_overlap(None, true_server, settle_group, credit=credit_p2p),
        "voronoi": settle_vor,
        "aug_voronoi": settle_vor,
        "hata_bsa": settle_hata,
        "hata_idw": settle_hata,
    }

    # --- predictions: per-scheme covered set, plus the intersection ------
    truth_rates = world.true_area_rates
    defined = [a for a in areas.area_ids if np.isfinite(truth_rates[a])]
    common = [
        a for a in defined if all(estimates[s].get(a) is not None for s in SCHEMES)
    ]
    records: list[tuple] = [
        ("world", "n_settlements", "total", float(len(settlements))),
        ("world", "n_bts", "total", float(len(specs))),
        ("world", "uncovered_settlement_fraction", "total",
         world.coverage.uncovered_fraction),
        ("world", "n_common_areas", "total", float(len(common))),
    ]
    for scheme in SCHEMES:
        for name, vals in (("geo_overlap", geo[scheme]), ("settlement_overlap", settle[scheme])):
            for env_name, v in vals.items():
                records.append((scheme, name, env_name, v))
        est = estimates[scheme]
        own = [a for a in defined if est[a] is not None]
        records.append((scheme, "covered_areas", "total", float(len(own))))
        subsets = {
            "total": own,
            "urban": [a for a in own if world.layout_class[a] == "urban"],
            "rural": [a for a in own if world.layout_class[a] == "rural"],
        }
        for env_name, ids in subsets.items():
            if len(ids) < 2:
                continue
            pm = prediction_metrics({a: est[a] for a in ids}, {a: truth_rates[a] for a in ids})
            records.append((scheme, "rho", env_name, float("nan") if pm.rho is None else pm.rho))
            records.append((scheme, "bias", env_name, pm.bias))
            records.append((scheme, "rmse", env_name, pm.rmse))
        if len(common) >= 2:
            pm = prediction_metrics(
                {a: est[a] for a in common}, {a: truth_rates[a] for a in common}
            )
            records.append(
                (scheme, "rho_common", "total", float("nan") if pm.rho is None else pm.rho)
            )
            records.append((scheme, "bias_common", "total", pm.bias))
            records.append((scheme, "rmse_common", "total", pm.rmse))
    return [(round_index, s, m, e, float(v)) for (s, m, e, v) in records]


@dataclass
class StudyResult:
    """All per-round records plus the winner tally."""

    config: SimConfig
    records: list[tuple]
    tally: dict[tuple[str, str], float]

    def values(self, scheme: str, metric: str, env: str = "total") -> np.ndarray:
        rows = sorted(
            (r[0], r[4]) for r in self.records if r[1] == scheme and r[2] == metric and r[3] == env
        )
        return np.array([v for _, v in rows])


def _round_worker(args) -> list[tuple]:
    cfg, i = args
    return simulate_round(cfg, i)


def compute_tally(records: list[tuple]) -> dict[tuple[str, str], float]:
    """Winner percentages per metric: best rho (highest), best bias
    (smallest magnitude) and best RMSE (lowest) among the five schemes,
    ties to the first in scheme order; the benchmark does not compete.

    Scored on the common covered set so every scheme faces the same
    areas each round.
    """
    by_round: dict[tuple[int, str], dict[str, float]] = {}
    for rnd, scheme, metric, env, value in records:
        if metric.endswith("_common") and env == "total" and scheme in TALLY_SCHEMES:
            base = metric[: -len("_common")]
            if base in TALLY_METRICS:
                by_round.setdefault((rnd, base), {})[scheme] = value
    wins = {(s, m): 0 for s in TALLY_SCHEMES for m in TALLY_METRICS}
    counted = {m: 0 for m in TALLY_METRICS}
    for (rnd, metric), vals in by_round.items():
        scored = [
            (s, vals[s]) for s in TALLY_SCHEMES if s in vals and np.isfinite(vals[s])
        ]
        if not scored:
            continue
        if metric == "rho":
            best = max(v for _, v in scored)
        elif metric == "bias":
            best = min(abs(v) for _, v in scored)
        else:
            best = min(v for _, v in scored)
        # winner: first scheme in order achieving the best score
        for s in TALLY_SCHEMES:
            if s not in vals or not np.isfinite(vals[s]):
                continue
            key = abs(vals[s]) if metric == "bias" else vals[s]
            if key == best:
                wins[(s, metric)] += 1
                break
        counted[metric] += 1
    return {
        (s, m): (100.0 * wins[(s, m)] / counted[m] if counted[m] else 0.0)
        for s in TALLY_SCHEMES
        for m in TALLY_METRICS
    }


def run_study(cfg: SimConfig, jobs: int = 1) -> StudyResult:
    """Run the configured number of rounds, serially or in worker processes.

    Output is bitwise identical for any `jobs` value: every round only
    depends on (seed, round index) and results assemble in round order.
    """
    tasks = [(cfg, i) for i in range(cfg.rounds)]
    if jobs <= 1 or cfg.rounds == 1:
        per_round = [_round_worker(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, cfg.rounds)) as pool:
            per_round = list(pool.map(_round_worker, tasks))
    records = [rec for batch in per_round for rec in batch]
    return StudyResult(cfg, records, compute_tally(records))
