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

import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from .geo import (
    COORD_LIMIT_M,
    UNASSIGNED,
    Assignment,
    Grid,
    SettlementRaster,
    Settlements,
    StatArea,
    StatAreaSet,
    extract_settlements,
    nearest_index,
    nearest_site_labels,
    nearest_two,
    voronoi_assign,
)
from .mapping import (
    SCHEME_IDW,
    CovariateTable,
    PixelWeights,
    aggregate,
    area_weights_from_pixels,
    bsa_pixel_weights,
    bsa_select_chunk,
    check_idw,
    classify_areas_by_bts_density,
    idw_rows_chunk,
    paint_area_env,
    synthesize_naive_specs,
    weights_aug_voronoi,
    weights_p2p,
    weights_voronoi,
)
from .propagation import (
    ENV_CLASSES,
    FREQ_MAX_MHZ,
    FREQ_MIN_MHZ,
    RX_HEIGHT_MAX_M,
    RX_HEIGHT_MIN_M,
    TX_HEIGHT_MAX_M,
    AntennaSpec,
    env_code,
    level_candidates,
    level_table,
    rss_field,
)

SCHEMES = ("benchmark", "p2p", "voronoi", "aug_voronoi", "hata_bsa", "hata_idw")
TALLY_SCHEMES = SCHEMES[1:]
TALLY_METRICS = ("rho", "bias", "rmse")

# tile edge of the grid passes, in pixels: small enough that most sites
# cannot reach a tile, so its link matrix over the rest stays a few MB
_TILE = 128
# cell edge, in pixels, of the walker's level-bound site pruning
_CELL = 16
# most links per `rss_field` call of the grid passes (8 MB of float64);
# a block that gets idw rows holds a quarter as many, since
# `idw_rows_chunk` adds a negated copy and an int64 order per link
_RSS_ENTRIES = 1 << 20
_MAX_REJECTION_ROUNDS = 10_000
# most rounds in a study: a study holds every round's records (130
# tuples, about 20 kB, per round) until it writes them, so this many hold
# about 0.2 GB; far more would end in a MemoryError
_MAX_ROUNDS = 10_000
# points per slice of a rejection-sampling batch that are located,
# accepted and binned at once; the batch itself is drawn whole
_SAMPLE_SLICE = 1 << 16
# Slack on the k-means distance bounds, relative to the largest coordinate:
# rounding in the squared distances, their roots and the bound updates is
# ~1e-15 of it, so a point the bounds certify has the same nearest centre
# under the dense search.
_BOUND_SLACK = 1e-9


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _check_int(name: str, v) -> None:
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    # numpy reads every int field but these three as int64 or float64
    if name not in ("seed", "kmeans_iters", "idw_k") and not -2**63 <= v < 2**63:
        raise ValueError(f"{name} must fit in 64 bits, got {v!r}")


def _check_finite(name: str, v) -> None:
    # the bound refuses nan, the infinities and an integer beyond float64
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not abs(v) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {v!r}")


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
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "int":
                _check_int(f.name, v)
            elif f.type == "float":
                _check_finite(f.name, v)
            elif f.name == "mask_rect" and v is not None:
                if not isinstance(v, tuple) or len(v) != 4:
                    raise ValueError(f"mask_rect must hold 4 integers, got {v!r}")
                for item in v:
                    _check_int(f.name, item)
            elif f.name in ("height_range_m", "power_range_dbm"):
                if not isinstance(v, tuple) or len(v) != 2:
                    raise ValueError(f"{f.name} must be a (lo, hi) pair, got {v!r}")
                for item in v:
                    _check_finite(f.name, item)
        for name in ("ncols", "nrows", "block_px", "poverty_block_px", "idw_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("seed", "kmeans_iters", "idw_s", "urban_sigma_m", "rural_sigma_m",
                     "poverty_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("cell_size_m", "urban_pop_per_bts", "rural_pop_per_bts"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name, lo, hi in (("rx_height_m", RX_HEIGHT_MIN_M, RX_HEIGHT_MAX_M),
                             ("urban_freq_mhz", FREQ_MIN_MHZ, FREQ_MAX_MHZ),
                             ("rural_freq_mhz", FREQ_MIN_MHZ, FREQ_MAX_MHZ)):
            if not lo <= getattr(self, name) <= hi:
                raise ValueError(f"{name} must be in [{lo}, {hi}] (the Hata range), "
                                 f"got {getattr(self, name)}")
        if max(self.ncols, self.nrows) * self.cell_size_m > COORD_LIMIT_M:
            raise ValueError(f"grid extent beyond {COORD_LIMIT_M:g} m: "
                             f"{max(self.ncols, self.nrows)} cells of {self.cell_size_m:g} m")
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
        if not (0 < self.height_range_m[0] and self.height_range_m[1] <= TX_HEIGHT_MAX_M):
            raise ValueError(f"height_range_m must lie in (0, {TX_HEIGHT_MAX_M:g}] m, "
                             f"got {self.height_range_m}")
        if not 1 <= self.rounds <= _MAX_ROUNDS:
            raise ValueError(f"rounds must be in [1, {_MAX_ROUNDS}], got {self.rounds}")
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
    areas, classes = [], {}

    def add(aid: str, kind: str, rows: slice, cols: slice) -> None:
        # the area crops this one full-grid mask to its rectangle
        m = np.zeros(grid.shape, dtype=bool)
        m[rows, cols] = True
        areas.append(StatArea(aid, mask=m))
        classes[aid] = kind

    sizes = _split_sizes(cfg.block_px, cfg.urban_split)
    r0 = cfg.nrows - cfg.block_px
    redges = np.concatenate([[0], np.cumsum(sizes)]) + r0
    cedges = np.concatenate([[0], np.cumsum(sizes)])
    for i in range(cfg.urban_split):
        for j in range(cfg.urban_split):
            add(f"U{i}_{j}", "urban", slice(redges[i], redges[i + 1]),
                slice(cedges[j], cedges[j + 1]))
    nbr, nbc = cfg.nrows // cfg.block_px, cfg.ncols // cfg.block_px
    for br in range(nbr):
        for bc in range(nbc):
            if br == nbr - 1 and bc == 0:
                continue  # the urban block
            add(f"R{br}_{bc}", "rural", slice(br * cfg.block_px, (br + 1) * cfg.block_px),
                slice(bc * cfg.block_px, (bc + 1) * cfg.block_px))
    return StatAreaSet(areas, grid=grid), classes


# --- world generation --------------------------------------------------------


def _rejection_sample(rng, n: int, draw, accept):
    """Draw until n points pass `accept`, yielding the accepted (x, y) of
    each `_SAMPLE_SLICE` slice of a batch, cut after the n-th accepted
    point; consumption order is fixed, since each batch is drawn whole."""
    have = 0
    for _ in range(_MAX_REJECTION_ROUNDS):
        if have >= n:
            return
        batch = max(64, int((n - have) * 1.5))
        x, y = draw(rng, batch)
        for lo in range(0, batch, _SAMPLE_SLICE):
            sx, sy = x[lo:lo + _SAMPLE_SLICE], y[lo:lo + _SAMPLE_SLICE]
            ok = np.flatnonzero(accept(sx, sy))[:n - have]
            have += ok.size
            yield sx[ok], sy[ok]
            if have >= n:
                return
    raise RuntimeError("rejection sampling failed to converge; check the masks")


def gen_population(cfg: SimConfig, rng) -> SettlementRaster:
    """Draw the synthetic population and bin it into a settlement raster.

    Half the people (urban_share) follow an isotropic normal around the
    urban-block centre; the rural rest split between normal clusters at
    uniform random centres and a uniform background over the rural
    region.  The uninhabited mask and off-grid draws are rejected and
    redrawn, so the raster total always equals cfg.population.  Each
    batch is drawn whole, then located, accepted and binned one
    `_SAMPLE_SLICE` slice at a time, so beyond one batch's coordinates no
    array is longer than a slice.
    """
    rng = np.random.default_rng(rng)
    grid = cfg.grid
    xmin, ymin, xmax, ymax = grid.extent()
    mask = uninhabited_mask(cfg)
    urban = urban_block_mask(cfg)
    counts = np.zeros(grid.npixels, dtype=np.int64)

    def allowed(forbidden):
        def ok(x, y):
            r, c = grid.locate(x, y)
            on = r >= 0
            out = np.zeros(x.shape, dtype=bool)
            out[on] = ~forbidden[r[on], c[on]]
            return out
        return ok

    def settle(batches):
        for x, y in batches:
            r, c = grid.locate(x, y)
            np.add.at(counts, r * cfg.ncols + c, 1)

    on_grid_ok = allowed(mask)
    rural_ok = allowed(mask | urban)

    n_urban = _round_half_up(cfg.population * cfg.urban_share)
    n_rural = cfg.population - n_urban
    cx = cy = cfg.block_px * cfg.cell_size_m / 2.0

    def draw_urban(rng, m):
        return (rng.normal(cx, cfg.urban_sigma_m, m), rng.normal(cy, cfg.urban_sigma_m, m))

    settle(_rejection_sample(rng, n_urban, draw_urban, on_grid_ok))

    def draw_uniform(rng, m):
        return (rng.uniform(xmin, xmax, m), rng.uniform(ymin, ymax, m))

    ccx, ccy = (np.concatenate(v) for v in zip(
        *_rejection_sample(rng, cfg.rural_cluster_count, draw_uniform, rural_ok)))

    n_clustered = _round_half_up(n_rural * cfg.rural_cluster_share)
    per = _split_sizes(n_clustered, cfg.rural_cluster_count)
    for i in range(cfg.rural_cluster_count):
        def draw_cluster(rng, m, i=i):
            return (
                rng.normal(ccx[i], cfg.rural_sigma_m, m),
                rng.normal(ccy[i], cfg.rural_sigma_m, m),
            )
        settle(_rejection_sample(rng, per[i], draw_cluster, on_grid_ok))
    settle(_rejection_sample(rng, n_rural - n_clustered, draw_uniform, rural_ok))
    return SettlementRaster(grid, counts.reshape(grid.shape))


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
    # the nonzero pixels in row-major order: a zero adds nothing to a float sum
    r, c = np.nonzero(raster.counts)
    pop = np.bincount((r // b) * nbc + c // b, weights=raster.counts[r, c], minlength=nbr * nbc)
    del r, c
    # partial edge blocks normalise by their true pixel count
    edge = [np.minimum(b, n - b * np.arange(nb)) for n, nb in ((cfg.nrows, nbr), (cfg.ncols, nbc))]
    density = pop / np.outer(*edge).ravel()
    top = density.max()
    if top <= 0:
        raise ValueError("population raster is empty")
    mu = rng.uniform(0.0, 1.0, nbr * nbc) * (1.0 - density / top)

    r, c = np.nonzero(raster.settled)  # extract_settlements' order
    rates = mu[(r // b) * nbc + c // b] + cfg.poverty_sigma * rng.standard_normal(r.size)
    return np.clip(rates, 0.0, 1.0)


def _kmeans_pp_seeds(x, y, w, k: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeding with population weights: the first centre is drawn
    by weight, each next one by weight times squared distance to the
    nearest centre so far (by weight alone once every point is a centre).
    Each draw is `rng.choice(n, p=p)`'s, unchecked, and every per-point
    value is computed in place in one of three buffers."""
    d2, cdf, t = np.empty(x.size), np.empty(x.size), np.empty(x.size)

    def draw(p, tot) -> int:
        # `rng.choice`'s cdf of p / tot and its one uniform draw
        np.divide(p, tot, out=cdf)
        np.cumsum(cdf, out=cdf)
        np.divide(cdf, cdf[-1], out=cdf)
        return int(cdf.searchsorted(rng.random(), side="right"))

    def nearer(i: int) -> None:
        # d2 = min(d2, squared distance to point i), as
        # `(x - x[i]) ** 2 + (y - y[i]) ** 2` gives it
        np.square(np.subtract(x, x[i], out=t), out=t)
        np.square(np.subtract(y, y[i], out=cdf), out=cdf)
        np.minimum(d2, np.add(t, cdf, out=t), out=d2)

    first = draw(w, w.sum())
    picks = [first]
    d2.fill(np.inf)
    nearer(first)
    for _ in range(1, k):
        tot = np.multiply(w, d2, out=t).sum()
        picks.append(draw(t, tot) if tot > 0 else draw(w, w.sum()))
        nearer(picks[-1])
    return x[picks], y[picks]


def _weighted_kmeans(x, y, w, k: int, rng, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with population weights and k-means++ seeding.

    Every step is exact Lloyd: each point takes its nearest centre by the
    squared distances of `geo.nearest_index`, ties to the lowest index.
    Hamerly's bounds (Hamerly 2010, "Making k-means even faster") decide
    which points need that search.  Each point keeps an upper bound on the
    distance to its own centre and a lower bound on the distance to any
    other; after a step, the upper bound grows by its centre's drift and
    the lower bound shrinks by the largest drift of another centre.  A
    point keeps its label while its upper bound plus a slack stays below
    both its lower bound and half the distance from its centre to the
    nearest other centre; otherwise the upper bound is made exact and, if
    the test still fails, the point is searched again.  The slack dwarfs
    the rounding of the distances and bounds, so the labels, centroids
    and RNG draws equal those of the dense loop.  No array is points x
    centres beyond one search block, and results never depend on BLAS
    threading.  The seeding's probabilities and distances die before the
    first step; per point the steps then hold the labels, the two bounds
    (step 0 roots the squared distances in place) and one scratch array,
    into which each step writes w * x and then w * y for its centroid
    sums (the values a held copy would have).
    """
    cx, cy = _kmeans_pp_seeds(x, y, w, k, rng)
    # centres stay within the points' hull, so this scales every rounding error
    slack = _BOUND_SLACK * max(np.abs(x).max(), np.abs(y).max())
    wxy = np.empty(x.size)
    for step in range(iters):
        if step == 0:
            lab, upper, lower = nearest_two(x, y, cx, cy)
            np.sqrt(upper, out=upper)
            np.sqrt(lower, out=lower)
        else:
            half = 0.5 * np.sqrt(nearest_two(cx, cy, cx, cy)[2])
            bound = np.maximum(half[lab], lower)
            todo = np.flatnonzero(upper + slack >= bound)
            own = lab[todo]
            upper[todo] = np.sqrt((x[todo] - cx[own]) ** 2 + (y[todo] - cy[own]) ** 2)
            todo = todo[upper[todo] + slack >= bound[todo]]
            lab[todo], d2_own, d2_other = nearest_two(x[todo], y[todo], cx, cy)
            upper[todo], lower[todo] = np.sqrt(d2_own), np.sqrt(d2_other)
        wsum = np.bincount(lab, weights=w, minlength=k)
        nx = np.bincount(lab, weights=np.multiply(w, x, out=wxy), minlength=k)
        ny = np.bincount(lab, weights=np.multiply(w, y, out=wxy), minlength=k)
        new_cx = np.where(wsum > 0, nx / np.maximum(wsum, 1e-300), cx)
        new_cy = np.where(wsum > 0, ny / np.maximum(wsum, 1e-300), cy)
        for j in np.nonzero(wsum == 0)[0]:  # re-seed empty clusters, farthest first
            alive = np.flatnonzero((wsum > 0) | (np.arange(k) < j))
            near = alive[nearest_index(x, y, new_cx[alive], new_cy[alive])]
            far = int(np.argmax((x - new_cx[near]) ** 2 + (y - new_cy[near]) ** 2))
            new_cx[j], new_cy[j] = x[far], y[far]
        shift2 = (new_cx - cx) ** 2 + (new_cy - cy) ** 2  # a re-seed's jump included
        moved = np.max(shift2)
        cx, cy = new_cx, new_cy
        if moved < 1e-12:
            break
        drift = np.sqrt(shift2)
        upper += drift[lab]
        fastest = int(np.argmax(drift))
        runner_up = np.max(drift, initial=0.0, where=np.arange(k) != fastest)
        lower -= np.where(lab == fastest, runner_up, drift[fastest])
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
    urban region first.  The k-means is exact Lloyd whose distance
    bounds spare most nearest-centre searches (`_weighted_kmeans`), so
    sites and RNG draws equal a dense search's.  Urban-region sites get
    the high band and the full mast-height range; rural-region sites the
    low band and the upper half of the height range.  Returns (specs, env
    classes), env derived from served-cluster sizes.
    """
    rng = np.random.default_rng(rng)
    grid = raster.grid
    pixels = np.flatnonzero(raster.settled)  # extract_settlements' order
    if pixels.size == 0:
        raise ValueError("cannot place BTS on an empty world")
    in_urban = urban_block_mask(cfg).reshape(-1)[pixels]

    n_urban_bts = max(1, _round_half_up(cfg.population * cfg.urban_share / cfg.urban_pop_per_bts))
    n_rural_bts = max(
        1, _round_half_up(cfg.population * (1.0 - cfg.urban_share) / cfg.rural_pop_per_bts)
    )

    sx_parts, sy_parts, region = [], [], []
    for region_name, mask_sel, k in (
        ("urban", in_urban, n_urban_bts),
        ("rural", ~in_urban, n_rural_bts),
    ):
        # the region's coordinates and weights live through its k-means
        # only; beside them the settlements' pixel ids are held
        sel = pixels[mask_sel]
        if sel.size == 0:
            continue
        px, py = grid.centers(*grid.rowcol_of_id(sel))
        w = raster.counts.reshape(-1)[sel].astype(np.float64)
        del sel
        k = min(k, px.size)
        cx, cy = _weighted_kmeans(px, py, w, k, rng, cfg.kmeans_iters)
        del w
        snapped = _snap_to_pixels(cx, cy, px, py)
        sx_parts.append(px[snapped])
        sy_parts.append(py[snapped])
        region.extend([region_name] * k)
        del px, py
    sx = np.concatenate(sx_parts)
    sy = np.concatenate(sy_parts)
    n = sx.size
    width = max(3, len(str(n - 1)))
    ids = [f"bts_{i:0{width}d}" for i in range(n)]

    # served-cluster sizes over all settlement pixels -> env classes, a
    # slice of pixels at a time: a pixel's nearest site does not depend on
    # the others searched with it
    sizes = np.zeros(n, dtype=np.int64)
    for lo in range(0, pixels.size, _SAMPLE_SLICE):
        x, y = grid.centers(*grid.rowcol_of_id(pixels[lo:lo + _SAMPLE_SLICE]))
        sizes += np.bincount(nearest_index(x, y, sx, sy), minlength=n)
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
    return np.asarray(site_env_codes, dtype=np.uint8)[nearest_site_labels(grid, sx, sy)]


def best_server_grid(
    grid: Grid,
    specs: list[AntennaSpec],
    env_grid: np.ndarray,
    rx_height_m: float,
    dead_threshold_dbm: float,
) -> Assignment:
    """Full-grid strongest-live-server assignment, streamed in tiles.

    Specs must be sorted by bts_id so exact ties resolve to the lowest
    id; pixels with no live link stay unassigned.  Each tile evaluates
    only the sites that can reach it (see `_tiled_pass`); the only walk
    made a map: its labels, in pixel-id order, reshaped to the grid.
    """
    labels = _tiled_pass(grid, specs, env_grid, rx_height_m, dead_threshold_dbm)[0]
    return Assignment(grid, [s.bts_id for s in specs], labels.reshape(grid.shape))


def _tiled_pass(
    grid: Grid,
    specs: list[AntennaSpec],
    env_grid: np.ndarray,
    rx_height_m: float,
    dead_threshold_dbm: float,
    pixels: np.ndarray | None = None,
    *,
    idw: tuple[float, int] | None = None,
) -> tuple[np.ndarray, PixelWeights | None]:
    """The one walker over the links from `specs` to a set of pixels.

    The set is every pixel of the grid, or the given ascending pixel ids.
    Returns the set's best-server labels in set order (int32, -1 where
    no link is live; no full-grid label map is built) and, given `idw` =
    (s, k), the set's idw rows from the same links, in set order.

    Specs must be sorted by bts_id.  The pass builds its level table with
    one `level_table` call, and walks the grid in bands of `_TILE` rows,
    each in `_TILE` x `_TILE` tiles, skipping a band or a tile with no
    pixel of the set.  A band's pixels of the set are a slice of the ids,
    found by binary search (on the whole grid, the band's own id range, so
    no grid-sized id array is built), and a tile finds its pixels in its
    band's slice the same way, one run per tile row, so no grid-sized map
    from pixel to set index is built either.  The whole walk has
    one rank: idw's k when idw rows are wanted, else 1.  `level_candidates`
    drops, per env code a box holds, each site weaker than the `rank`
    strongest, or dead, at every pixel of the set there, which needs only
    that levels never rise with distance; a dropped site is never a pick
    nor ties with one.  It runs once on the bounding box of the tile's
    pixels of the set, then per `_CELL` x `_CELL` cell holding such pixels
    on the sites left.  A tile's sites are those left in some cell, in
    bts_id order; picks map back through that ascending index, so ties
    still go to the lowest bts_id.  A tile with no site left is skipped.
    The tile's pixels of the set go to `rss_field`, with each pixel's cell
    mask (built per block), in blocks of at most `_RSS_ENTRIES` links, a
    quarter of that for idw rows (at least one pixel), so memory stays
    bounded whatever the site count.  Each pixel's idw row, as
    `idw_rows_chunk` gives it over its tile's sites (its bytes depend only
    on its live picks), is written in place into padded buffers, int32
    columns and float64 weights (-1 and 0 after its entries), min(k, site
    count) wide, and returned as the set's `PixelWeights`.
    """
    ids = [s.bts_id for s in specs]
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise ValueError("specs must be sorted by bts_id, without duplicates")
    levels, level_row = level_table(specs, rx_height_m)
    sx = np.array([s.x for s in specs], dtype=np.float64)
    sy = np.array([s.y for s in specs], dtype=np.float64)
    env = np.asarray(env_grid, dtype=np.uint8)
    size = grid.npixels if pixels is None else pixels.size
    labels = np.full(size, UNASSIGNED, dtype=np.int32)
    rank = 1
    if idw is not None:
        idw_s, rank = idw
        check_idw(idw_s, rank)
        # per pixel of the set its row's columns and weights, then pads
        row_col = np.full((size, min(rank, len(specs))), -1, dtype=np.int32)
        row_w = np.zeros((size, min(rank, len(specs))))
    for r0 in range(0, grid.nrows, _TILE):
        rows = np.arange(r0, min(r0 + _TILE, grid.nrows))
        # the band's pixels of the set, and the index of its first one
        start, end = r0 * grid.ncols, (r0 + rows.size) * grid.ncols
        if pixels is None:
            band = np.arange(start, end)
        else:
            start, end = np.searchsorted(pixels, [start, end]).tolist()
            band = pixels[start:end]
        if band.size == 0:
            continue
        for c0 in range(0, grid.ncols, _TILE):
            cols = np.arange(c0, min(c0 + _TILE, grid.ncols))
            # per tile row, the run of `band` between its first and last
            # column; `owner` is each pixel's index in `band`, in id order
            first = rows * grid.ncols + c0
            lo = np.searchsorted(band, first)
            run = np.searchsorted(band, first + cols.size) - lo
            if not run.any():
                continue
            owner = np.repeat(lo - np.cumsum(run) + run, run) + np.arange(run.sum())
            # the tile's arrays over its pixels of the set only, in id order
            tr = np.repeat(np.arange(rows.size), run)
            tc = band[owner] - np.repeat(first, run)
            xc, yr = grid.centers(rows, cols)
            x, y, codes = xc[tc], yr[tr], env[r0 + tr, c0 + tc]
            # each pixel's cell, row-major over the tile's cells, and each
            # cell's box of pixel centres
            ncell_cols = -(-cols.size // _CELL)
            cell = (tr // _CELL) * ncell_cols + tc // _CELL
            cx = [f.reduceat(xc, np.arange(0, cols.size, _CELL)) for f in (np.minimum, np.maximum)]
            cy = [f.reduceat(yr, np.arange(0, rows.size, _CELL)) for f in (np.minimum, np.maximum)]
            ncell_rows = cy[0].size
            box = [np.tile(v, ncell_rows) for v in cx] + [np.repeat(v, ncell_cols) for v in cy]
            present = np.zeros((ncell_rows * ncell_cols, len(ENV_CLASSES)), dtype=bool)
            present[cell, codes] = True
            # the bound on the walked pixels' box as one cell, then per cell
            # on the sites it keeps
            keep = np.flatnonzero(level_candidates(
                levels, level_row, sx, sy, [[x.min()], [x.max()], [y.min()], [y.max()]],
                present.any(axis=0, keepdims=True), rank, dead_threshold_dbm)[0])
            if keep.size == 0:
                continue
            cand = level_candidates(levels, level_row[keep], sx[keep], sy[keep], box, present,
                                    rank, dead_threshold_dbm)
            used = cand.any(axis=0)
            if not used.any():
                continue
            g_keep = keep[used]
            site_cells = cand[:, used].T  # sites x cells
            near = [specs[j] for j in g_keep]
            step = max(1, (_RSS_ENTRIES if idw is None else _RSS_ENTRIES // 4) // g_keep.size)
            for lo in range(0, owner.size, step):
                block = slice(lo, lo + step)
                # per pixel of the block, its cell's candidates; column-contiguous
                # for the kernel
                mask = site_cells[:, cell[block]].T
                rss = rss_field(near, band[owner[block]], x[block], y[block], codes[block],
                                candidates=mask, rx_height_m=rx_height_m,
                                dead_threshold_dbm=dead_threshold_dbm)
                live = rss.live
                sel = bsa_select_chunk(rss.rss_dbm, live)
                at = start + owner[block]
                labels[at] = np.where(sel >= 0, g_keep[sel], UNASSIGNED)
                if idw is not None:
                    c, v = idw_rows_chunk(rss.rss_dbm, live, idw_s, rank)
                    # pads map through the appended -1 and stay pads
                    row_col[at, :c.shape[1]] = np.append(g_keep, -1)[c]
                    row_w[at, :c.shape[1]] = v
    if idw is None:
        return labels, None
    return labels, PixelWeights(SCHEME_IDW, np.arange(size) if pixels is None else pixels,
                                ids, row_col, row_w)


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
    server = assignment.labels.reshape(-1)[settlements.ids].astype(np.int64)
    uncovered = int(np.count_nonzero(server < 0))
    frac = uncovered / max(len(settlements), 1)
    return CoverageResult(assignment, server, uncovered, frac)


def settlement_pixel_weights(
    settlements: Settlements,
    specs: list[AntennaSpec],
    env_grid: np.ndarray,
    *,
    rx_height_m: float,
    dead_threshold_dbm: float,
    idw: tuple[float, int] | None = None,
) -> PixelWeights:
    """Per-pixel weights of the settlement pixels: bsa rows, or idw rows
    given `idw` = (s, k).  This is the `covmap weights` path.

    `env_grid` holds the environment code of every grid pixel; specs must
    be sorted by bts_id.  One `_tiled_pass` over the settlement pixels
    only gives both: the idw rows directly, the bsa rows as its labels
    (in settlement order), one-hot width-1 rows, as the study builds them.
    """
    labels, pw = _tiled_pass(settlements.grid, specs, env_grid, rx_height_m,
                             dead_threshold_dbm, settlements.ids, idw=idw)
    if pw is not None:
        return pw
    return bsa_pixel_weights(settlements.ids, [s.bts_id for s in specs], labels)


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


def _site_keys(claim_key) -> np.ndarray:
    """Each site's claimed label, -2 (never a label) for no claim, then one
    more -2 that the server -1 of an unserved pixel or settlement indexes."""
    keys = np.append(claim_key, -1).astype(np.int32)
    keys[keys < 0] = -2
    return keys


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
    return area_membership_overlap(est.labels, np.arange(len(est.bts_ids)), truth, bts_env)


def area_membership_overlap(
    claim_labels: np.ndarray,
    claim_key: np.ndarray,
    truth: Assignment,
    bts_env: list[str] | None = None,
) -> dict[str, float]:
    """Mean per-site intersection-over-union of claimed and served pixels.

    Site j claims the pixels of `claim_labels` equal to `claim_key[j]`
    (-1 = no claim): its own index on a served-pixel map, its host area
    on an area map (p2p), where sites sharing an area each claim all of
    it.  Sites with an empty union are skipped; with `bts_env` the mean
    is also reported per class.  The counts are integers, so they are
    taken one `_TILE`-row band of pixels at a time in any order.
    """
    n = len(truth.bts_ids)
    t_flat = truth.labels.ravel()
    c_flat = claim_labels.ravel()
    keys = _site_keys(claim_key)
    # pixels per label, shifted by 2: no claim's -2 reads slot 0, which no
    # pixel fills, and a key may label no pixel (a label no key reads is
    # not kept); served pixels per site, shifted by 1; and pixels both
    # claimed and served per site
    claimed = np.zeros(keys.max() + 3, dtype=np.int64)
    served = np.zeros(n + 1, dtype=np.int64)
    inter = np.zeros(n, dtype=np.int64)
    step = _TILE * truth.grid.ncols
    for lo in range(0, t_flat.size, step):
        t, c = t_flat[lo:lo + step], c_flat[lo:lo + step]
        claimed += np.bincount(c + 2, minlength=claimed.size)[:claimed.size]
        served += np.bincount(t + 1, minlength=n + 1)
        inter += np.bincount(t[np.take(keys, t) == c], minlength=n)
    union = claimed[keys[:-1] + 2] + served[1:] - inter
    # an empty union has an empty intersection, so the clamp only avoids 0/0
    return _class_means(inter / np.maximum(union, 1), union > 0, _site_codes(bts_env))


def settlement_overlap(claim_at, claim_key, true_server, group_codes=None) -> dict[str, float]:
    """Mean credit of truth-covered settlements for one claim.

    `claim_at` is the claim's label at each settlement and `claim_key`
    the label each site claims (as in `area_membership_overlap`).  A
    settlement scores 1/n when its label is its true server's key and n
    sites share that key, else 0: a match on a served-pixel map, p2p's
    row weight on an area map.  With `group_codes` (an env code per
    settlement) per-class means are included.
    """
    claim_at = np.asarray(claim_at)
    true_server = np.asarray(true_server)
    if claim_at.shape != true_server.shape:
        raise ValueError("claim labels and true servers differ in shape")
    keys = _site_keys(claim_key)
    share = 1.0 / np.bincount(keys + 2)[keys + 2]  # 1/n for the n sites sharing a key
    credit = np.where(np.take(keys, true_server) == claim_at, np.take(share, true_server), 0.0)
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


def _round_rngs(cfg: SimConfig, round_index: int) -> list[np.random.Generator]:
    """A round's population, poverty and BTS streams, from (seed, round) only."""
    ss = np.random.SeedSequence((cfg.seed, round_index))
    return [np.random.default_rng(s) for s in ss.spawn(3)]


def build_network(
    cfg: SimConfig, round_index: int
) -> tuple[SettlementRaster, list[AntennaSpec], list[str], Assignment, np.ndarray]:
    """A round's population raster and network, with no coverage pass:
    (raster, specs, site classes, voronoi map, true env grid), the same
    as the fields of `build_world(cfg, round_index)`.  The env grid is
    the voronoi map coloured by site class."""
    rng_pop, _, rng_bts = _round_rngs(cfg, round_index)
    raster = gen_population(cfg, rng_pop)
    specs, bts_env = place_bts(raster, cfg, rng_bts)
    voronoi = voronoi_assign(cfg.grid, [(s.bts_id, s.x, s.y) for s in specs])
    code_of = {s.bts_id: env_code(e) for s, e in zip(specs, bts_env)}
    env_grid = np.array([code_of[b] for b in voronoi.bts_ids], dtype=np.uint8)[voronoi.labels]
    return raster, specs, bts_env, voronoi, env_grid


def build_world(cfg: SimConfig, round_index: int) -> SyntheticWorld:
    """Generate one fully specified synthetic world for a study round: its
    network (`build_network`), poverty, areas and true coverage."""
    raster, specs, bts_env, voronoi, env_grid = build_network(cfg, round_index)
    settlements = extract_settlements(raster)
    poverty = assign_poverty(raster, cfg, _round_rngs(cfg, round_index)[1])
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

    area_of = areas.labels(cfg.grid).reshape(-1)[settlements.ids]
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
    area_of = areas.labels(world.grid).reshape(-1)[world.settlements.ids]
    server = world.coverage.settlement_server
    ok = (server >= 0) & (area_of >= 0)
    r_by_site = world.covariates.column("poverty")
    num = np.bincount(area_of[ok], weights=r_by_site[server[ok]], minlength=len(areas))
    den = np.bincount(area_of[ok], minlength=len(areas))
    return {
        aid: (float(num[i] / den[i]) if den[i] > 0 else None)
        for i, aid in enumerate(areas.area_ids)
    }


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
    points = [(s.bts_id, s.x, s.y) for s in specs]
    truth = world.coverage.assignment
    true_server = world.coverage.settlement_server
    area_labels = areas.labels(grid)

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
    naive = (grid, naive_specs, paint_area_env(areas, naive_classes, grid), cfg.rx_height_m,
             cfg.dead_threshold_dbm)
    ids = settlements.ids
    naive_flat = np.empty(grid.npixels, dtype=np.int32)
    band_px = _TILE * grid.ncols

    def walk_band(lo: int) -> PixelWeights:
        """The naive walks of the `_TILE`-row band from pixel id `lo`: its
        other pixels at rank 1, then its settlements at idw's rank, a run
        of the ascending ids.  The two sets partition the band, so their
        labels fill its part of the naive map; returns the settlements'
        idw rows."""
        hi = min(lo + band_px, grid.npixels)
        a, b = np.searchsorted(ids, [lo, hi]).tolist()
        rest = np.ones(hi - lo, dtype=bool)
        rest[ids[a:b] - lo] = False
        rest = lo + np.flatnonzero(rest)
        naive_flat[rest] = _tiled_pass(*naive, rest)[0]
        naive_flat[ids[a:b]], pw = _tiled_pass(*naive, ids[a:b], idw=(cfg.idw_s, cfg.idw_k))
        return pw

    # the reducer takes each band's idw rows as the band is walked, so one
    # band's rows are held at a time; the settlements' labels are the
    # `covmap weights --scheme idw` walk's, whose labels are the bsa rows
    wm_idw = area_weights_from_pixels(map(walk_band, range(0, grid.npixels, band_px)),
                                      areas, grid)
    del naive  # the naive env grid is not read past the walks
    naive_sel = naive_flat[ids]
    wm_bsa = area_weights_from_pixels(
        bsa_pixel_weights(ids, [s.bts_id for s in naive_specs], naive_sel), areas, grid)
    naive_labels = naive_flat.reshape(grid.shape)

    estimates: dict[str, dict[str, float | None]] = {
        "benchmark": _benchmark_estimates(world),
        "p2p": aggregate(wm_p2p, world.covariates, "poverty"),
        "voronoi": aggregate(wm_vor, world.covariates, "poverty"),
        "aug_voronoi": aggregate(wm_aug, world.covariates, "poverty"),
        "hata_bsa": aggregate(wm_bsa, world.covariates, "poverty"),
        "hata_idw": aggregate(wm_idw, world.covariates, "poverty"),
    }

    # --- overlaps: one claim per distinct map, each scored once ---------
    # (pixel labels, labels at the settlements, each site's claimed label)
    own = np.arange(len(specs))
    host_area = areas.locate_points(
        np.array([p[1] for p in points]), np.array([p[2] for p in points]), grid
    )
    claims = {
        "benchmark": (truth.labels, true_server, own),
        "p2p": (area_labels, area_labels.reshape(-1)[settlements.ids], host_area),
        "voronoi": (vor.labels, vor.labels.reshape(-1)[settlements.ids], own),
        "hata_bsa": (naive_labels, naive_sel, own),
    }
    overlaps = {
        scheme: (area_membership_overlap(labels, key, truth, world.bts_env),
                 settlement_overlap(at, key, true_server, settle_group))
        for scheme, (labels, at, key) in claims.items()
    }
    overlaps["aug_voronoi"] = overlaps["voronoi"]
    overlaps["hata_idw"] = overlaps["hata_bsa"]

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
        for name, vals in zip(("geo_overlap", "settlement_overlap"), overlaps[scheme]):
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
    # the lower the key, the better the score
    keys = {"rho": lambda v: -v, "bias": abs, "rmse": lambda v: v}
    wins = {(s, m): 0 for s in TALLY_SCHEMES for m in TALLY_METRICS}
    counted = {m: 0 for m in TALLY_METRICS}
    for (rnd, metric), vals in by_round.items():
        scored = [s for s in TALLY_SCHEMES if s in vals and np.isfinite(vals[s])]
        if not scored:
            continue
        # min returns the first minimum: ties go to the first in scheme order
        wins[(min(scored, key=lambda s: keys[metric](vals[s])), metric)] += 1
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
        # imported here so that `import covmap.cli` loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, cfg.rounds)) as pool:
            per_round = list(pool.map(_round_worker, tasks))
    records = [rec for batch in per_round for rec in batch]
    return StudyResult(cfg, records, compute_tally(records))
