"""Extended Hata median path loss and received-signal fields.

Implements the CEPT/SEAMCAT variant of the extended Hata model for the
urban, suburban and open (rural) environments, valid for carrier
frequencies between 150 and 3000 MHz and path distances up to 100 km.
Short paths (below 100 m) fall back to free space with a log-distance
interpolation bridge, and the final loss is never allowed below the
free-space value.  Each term is computed only on the links it applies
to: the steeper distance exponent on paths beyond 20 km (below that it
is exactly 1), the bridge only when some path is shorter than 100 m, and
the distance checks from one min/max pair per call.

One kernel, `rss_field`, turns antenna specs and pixel centres into
received levels (transmit power minus median loss, no shadowing term).
Loss never decreases with distance, the one property the walker's cuts
rely on, so one builder, `level_table`, gives a pass's one cut table:
each antenna's level at a fixed distance grid, per environment.  Its one
caller, the tiled link walker in `simulation`, builds it once per pass
and cuts with one bound, `level_candidates`, twice per tile: once on the
tile's box, then per cell and env code it holds on the antennas left,
each time dropping every antenna weaker than the `rank` strongest (one
rank per walk), or dead, at every walked pixel there.  It sends each
tile's walked pixels to `rss_field` on the antennas left, with a
per-pixel candidate mask, in blocks of at most a fixed number of links.
`rss_field` evaluates the model on candidate links only and reports
every other link, and every link below the threshold, as -inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ENV_CLASSES = ("urban", "suburban", "rural")
ENV_URBAN, ENV_SUBURBAN, ENV_RURAL = 0, 1, 2

FREQ_MIN_MHZ = 150.0
FREQ_MAX_MHZ = 3000.0
DIST_MAX_KM = 100.0
RX_HEIGHT_MIN_M = 1.0
RX_HEIGHT_MAX_M = 10.0
TX_HEIGHT_MAX_M = 1000.0  # the top of the range the Hata tests cover; far taller masts overflow
DEAD_THRESHOLD_DBM = -110.0


def env_code(env: str) -> int:
    """Map an environment class name to its internal integer code."""
    try:
        return ENV_CLASSES.index(env)
    except ValueError:
        raise ValueError(f"unknown environment class {env!r}; expected one of {ENV_CLASSES}") from None


def env_codes(envs) -> np.ndarray:
    """Vectorised `env_code` over a sequence of class names (or codes)."""
    arr = np.asarray(envs)
    if arr.dtype.kind in "iu":
        # check before the cast, which would wrap 258 or -254 onto 2
        if arr.size and (arr.max() > 2 or (arr.dtype.kind == "i" and arr.min() < 0)):
            raise ValueError("environment codes must be 0, 1 or 2")
        return arr.astype(np.uint8)
    return np.array([env_code(str(e)) for e in arr.ravel()], dtype=np.uint8).reshape(arr.shape)


@dataclass(frozen=True)
class AntennaSpec:
    """Transmitter site: identity, planar position (m) and technical parameters."""

    bts_id: str
    x: float
    y: float
    height_m: float
    freq_mhz: float
    power_dbm: float

    def __post_init__(self):
        if not self.bts_id:
            raise ValueError("bts_id must be a non-empty string")
        for name in ("x", "y", "height_m", "freq_mhz", "power_dbm"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.height_m <= 0:
            raise ValueError(f"height_m must be positive, got {self.height_m}")
        if self.height_m > TX_HEIGHT_MAX_M:
            raise ValueError(f"height_m must be at most {TX_HEIGHT_MAX_M:g}, got {self.height_m}")
        if not (FREQ_MIN_MHZ <= self.freq_mhz <= FREQ_MAX_MHZ):
            raise ValueError(
                f"freq_mhz {self.freq_mhz} outside supported range "
                f"[{FREQ_MIN_MHZ}, {FREQ_MAX_MHZ}]"
            )


def _rx_gain_db(f_mhz: float, h_rx) -> np.ndarray:
    # a(Hm): receiver antenna height correction.
    lf = np.log10(f_mhz)
    h = np.asarray(h_rx, dtype=np.float64)
    return (1.1 * lf - 0.7) * np.minimum(10.0, h) - (1.56 * lf - 0.8) + np.maximum(
        0.0, 20.0 * np.log10(h / 10.0)
    )


def _tx_gain_db(h_tx: float) -> float:
    # b(Hb): penalty for masts below the 30 m reference, zero above.
    return min(0.0, 20.0 * np.log10(h_tx / 30.0))


def _free_space_db(f_mhz: float, d_km, h_tx: float, h_rx: float) -> np.ndarray:
    d = np.asarray(d_km, dtype=np.float64)
    dh2 = (h_tx - h_rx) ** 2 * 1e-6  # height separation in km^2
    slant2 = np.maximum(d * d + dh2, 1e-18)  # guard h_tx == h_rx at d = 0
    return 32.4 + 20.0 * np.log10(f_mhz) + 10.0 * np.log10(slant2)


def _urban_db(f_mhz: float, d_km: np.ndarray, h_tx: float, h_rx: float) -> np.ndarray:
    """Urban median loss for d >= 0.1 km (no short-path handling)."""
    hb = max(30.0, h_tx)
    logd = np.log10(d_km)
    # the distance exponent steepens beyond 20 km and is exactly 1 up to
    # it, where pow(logd, 1.0) == logd: raise logd only on the far links
    far = d_km > 20.0
    if far.any():
        hbp = h_tx / np.sqrt(1.0 + 7.0e-6 * h_tx * h_tx)
        alpha = 1.0 + (0.14 + 1.87e-4 * f_mhz + 1.07e-3 * hbp) * np.power(
            np.maximum(np.log10(d_km[far] / 20.0), 0.0), 0.8)
        logd[far] = np.power(logd[far], alpha)
    tail = (
        -13.82 * np.log10(hb)
        + (44.9 - 6.55 * np.log10(hb)) * logd
        - _rx_gain_db(f_mhz, h_rx)
        - _tx_gain_db(h_tx)
    )
    if f_mhz <= 1500.0:
        return 69.6 + 26.2 * np.log10(f_mhz) + tail
    if f_mhz <= 2000.0:
        return 46.3 + 33.9 * np.log10(f_mhz) + tail
    return 46.3 + 33.9 * np.log10(2000.0) + 10.0 * np.log10(f_mhz / 2000.0) + tail


def _env_offsets_db(f_mhz: float) -> np.ndarray:
    """Additive corrections (urban, suburban, open) relative to the urban curve."""
    fc = min(max(150.0, f_mhz), 2000.0)
    lfc = np.log10(fc)
    sub = -2.0 * (np.log10(fc / 28.0)) ** 2 - 5.4
    opn = -4.78 * lfc * lfc + 18.33 * lfc - 40.94
    return np.array([0.0, sub, opn])


def extended_hata_db(
    f_mhz: float,
    d_km,
    h_tx_m: float,
    h_rx_m: float,
    env,
    *,
    clamp_distance: bool = False,
) -> np.ndarray:
    """Median path loss in dB for one transmitter against many receiver pixels.

    Parameters
    ----------
    f_mhz, h_tx_m, h_rx_m
        Scalar carrier frequency (150..3000 MHz), mast height (> 0 m) and
        receiver height (1..10 m).
    d_km
        Array of path distances.  Distances above 100 km raise unless
        `clamp_distance` is set, in which case they are evaluated at
        100 km (any such link is far below every practical dead
        threshold).
    env
        Per-pixel environment class codes or names, broadcastable to
        `d_km`'s shape.

    Short paths use free space below 40 m and a log-distance
    interpolation up to 100 m; the result is floored at free-space loss
    everywhere.
    """
    if not (FREQ_MIN_MHZ <= f_mhz <= FREQ_MAX_MHZ):
        raise ValueError(f"freq {f_mhz} MHz outside [{FREQ_MIN_MHZ}, {FREQ_MAX_MHZ}]")
    if h_tx_m <= 0:
        raise ValueError(f"transmitter height must be positive, got {h_tx_m}")
    if not (RX_HEIGHT_MIN_M <= h_rx_m <= RX_HEIGHT_MAX_M):
        raise ValueError(f"receiver height {h_rx_m} outside [{RX_HEIGHT_MIN_M}, {RX_HEIGHT_MAX_M}]")

    d = np.asarray(d_km, dtype=np.float64)
    scalar_in = d.ndim == 0
    d = np.atleast_1d(d)
    # one min/max pair checks every distance: NaN fails lo >= 0, inf fails
    # hi < inf; an empty input takes no branch below
    lo, hi = (d.min(), d.max()) if d.size else (DIST_MAX_KM, DIST_MAX_KM)
    if not (lo >= 0 and hi < np.inf):
        raise ValueError("distances must be finite and non-negative")
    if hi > DIST_MAX_KM:
        if not clamp_distance:
            raise ValueError(f"distance exceeds {DIST_MAX_KM} km; model not valid")
        d = np.minimum(d, DIST_MAX_KM)

    codes = np.broadcast_to(env_codes(env), d.shape)
    offsets = _env_offsets_db(f_mhz)

    # evaluate on the >= 0.1 km branch (safe placeholder below it)
    d_main = d if lo >= 0.1 else np.maximum(d, 0.1)
    loss = _urban_db(f_mhz, d_main, h_tx_m, h_rx_m) + offsets[codes]

    fs = _free_space_db(f_mhz, d, h_tx_m, h_rx_m)
    if lo < 0.1:
        mid = d < 0.1
        if lo <= 0.04:
            near = d <= 0.04
            loss = np.where(near, fs, loss)
            mid &= ~near
        if mid.any():
            l40 = _free_space_db(f_mhz, 0.04, h_tx_m, h_rx_m)
            l100 = _urban_db(f_mhz, np.asarray([0.1]), h_tx_m, h_rx_m)[0] + offsets[codes]
            frac = ((np.log10(np.maximum(d, 0.04)) - np.log10(0.04))
                    / (np.log10(0.1) - np.log10(0.04)))
            loss = np.where(mid, l40 + (l100 - l40) * frac, loss)

    loss = np.maximum(loss, fs)
    return float(loss[0]) if scalar_in else loss


@dataclass
class RssField:
    """Received signal strength (dBm) for pixel x antenna pairs.

    `rss_dbm[i, j]` is the level at pixel `pixel_ids[i]` from antenna
    `bts_ids[j]`; `rss_field` writes -inf for every dead link.  A level
    is finite or -inf: NaN would fail `live` yet win an argmax, and +inf
    would pass `live` with an idw weight of 0, so both are rejected.
    """

    pixel_ids: np.ndarray
    bts_ids: list[str]
    rss_dbm: np.ndarray
    dead_threshold_dbm: float = DEAD_THRESHOLD_DBM

    def __post_init__(self):
        self.pixel_ids = np.asarray(self.pixel_ids, dtype=np.int64)
        self.rss_dbm = np.asarray(self.rss_dbm, dtype=np.float64)
        if self.rss_dbm.shape != (len(self.pixel_ids), len(self.bts_ids)):
            raise ValueError(
                f"rss_dbm shape {self.rss_dbm.shape} does not match "
                f"{len(self.pixel_ids)} pixels x {len(self.bts_ids)} antennas"
            )
        if self.rss_dbm.size and not self.rss_dbm.max() < np.inf:  # max is NaN or +inf
            i, j = np.argwhere(~(self.rss_dbm < np.inf))[0]
            raise ValueError(f"level {self.rss_dbm[i, j]} at pixel {int(self.pixel_ids[i])}, "
                             f"antenna {self.bts_ids[j]!r}: levels must be finite or -inf")

    @property
    def live(self) -> np.ndarray:
        """Boolean mask of links at or above the dead threshold."""
        return self.rss_dbm >= self.dead_threshold_dbm


def _distance_km(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return np.hypot(dx, dy) / 1000.0


def _levels_dbm(spec: AntennaSpec, d_km, codes, rx_height_m: float) -> np.ndarray:
    """The per-link expression: power minus median loss."""
    return spec.power_dbm - extended_hata_db(
        spec.freq_mhz, d_km, spec.height_m, rx_height_m, codes, clamp_distance=True
    )


# the table's distances: 0, then a log grid from 1 m to the model's range,
# past which the clamp holds every level at its last value
_LEVEL_KM = np.concatenate([[0.0], np.geomspace(1e-3, DIST_MAX_KM, 512)])
_LEVEL_KM.flags.writeable = False
# every bound read off the table is widened by this much, so a one-ulp
# wobble in the loss can never make a pruned site live, nor tie with or
# beat a pick
_MARGIN_DB = 1e-6
# relative slack on the box distances of a bound, far above their rounding
# error, so a table entry never bounds a pixel it lies beyond
_REACH_SLACK = 1.0 + 1e-9


def level_table(specs: list[AntennaSpec], rx_height_m: float) -> tuple[np.ndarray, np.ndarray]:
    """A pass's level table, per spec and environment code.

    Returns `(levels, row)`: `levels[row[j], env, g]` is spec `j`'s level
    at `_LEVEL_KM[g]` through `env`.  It does not depend on the site's
    position, so specs with equal height, frequency and power share one
    row, evaluated once.
    """
    rows: dict[tuple, int] = {}
    row = np.empty(len(specs), dtype=np.intp)
    for j, s in enumerate(specs):
        row[j] = rows.setdefault((s.height_m, s.freq_mhz, s.power_dbm), len(rows))
    codes = np.arange(len(ENV_CLASSES))[:, None]
    dist = np.broadcast_to(_LEVEL_KM, (codes.size, _LEVEL_KM.size))
    levels = np.empty((len(rows), codes.size, _LEVEL_KM.size))
    for j in np.unique(row, return_index=True)[1]:
        levels[row[j]] = _levels_dbm(specs[j], dist, codes, rx_height_m)
    return levels, row


def level_candidates(levels, row, sx, sy, box, present, rank, floor_dbm: float) -> np.ndarray:
    """Which of the sites at `sx`, `sy` can be among the `rank` strongest
    at some pixel of each cell, as a (cells, sites) mask.

    The sites' levels are `levels[row]`, the table of `level_table`, read
    in place.  Cell `c` spans the pixel centres in the box
    `box[0][c]..box[1][c]` by `box[2][c]..box[3][c]` (x then y, metres),
    and `present[c]` flags the env codes of its pixels; one `rank` serves
    every cell, and a cell may be any box, a whole tile included.  A
    pixel's links share its env code, so the cell is bounded per code `e`
    it holds: over its pixels a site's level at `e` lies in [`lo`, `hi`],
    the table levels at `e` just beyond the box's farthest point and just
    short of its nearest, with `_REACH_SLACK`, widened by `_MARGIN_DB`,
    which needs only that levels never rise with distance.  A site whose
    `hi` is below the `rank`-th largest `lo` (none past the site count),
    floored at `floor_dbm`, at every code of the cell is weaker than
    `rank` others, or dead, at every pixel there, so it is left out.
    """
    x0, x1, y0, y1 = (np.asarray(b, dtype=np.float64)[:, None] for b in box)
    near_km = _distance_km(np.maximum(np.maximum(x0 - sx, sx - x1), 0.0),
                           np.maximum(np.maximum(y0 - sy, sy - y1), 0.0))
    far_km = _distance_km(np.maximum(np.abs(sx - x0), np.abs(sx - x1)),
                          np.maximum(np.abs(sy - y0), np.abs(sy - y1)))
    i_hi = np.searchsorted(_LEVEL_KM, near_km / _REACH_SLACK, side="right") - 1
    i_lo = np.minimum(np.searchsorted(_LEVEL_KM, far_km * _REACH_SLACK), _LEVEL_KM.size - 1)
    on = np.asarray(present, dtype=bool)
    nsites = len(row)
    keep = np.zeros((on.shape[0], nsites), dtype=bool)
    for e in np.flatnonzero(on.any(axis=0)):
        c = np.flatnonzero(on[:, e])
        nth = np.full(c.size, -np.inf)
        if rank <= nsites:  # past the site count only the floor binds
            lo = levels[row, e, i_lo[c]] - _MARGIN_DB
            nth = np.partition(lo, nsites - rank, axis=1)[:, nsites - rank]
        keep[c] |= levels[row, e, i_hi[c]] + _MARGIN_DB >= np.maximum(nth, floor_dbm)[:, None]
    return keep


def rss_field(
    specs: list[AntennaSpec],
    pixel_ids,
    px,
    py,
    pixel_env,
    *,
    candidates,
    rx_height_m: float = 1.0,
    dead_threshold_dbm: float = DEAD_THRESHOLD_DBM,
) -> RssField:
    """Received levels for pixels x antennas, -inf for every dead or
    non-candidate link.

    `px`, `py` are pixel-centre coordinates in metres, `pixel_env` the
    per-pixel environment class (names or codes); `candidates` is a
    (pixels, specs) mask.  Each spec is evaluated on its candidate pixels
    alone, and a level below the threshold is written as -inf.  The tiled
    walker passes one block of a tile's pixels at a time, on the specs
    that can be a pick somewhere in the tile, with a mask that is
    column-contiguous; each entry depends only on its own pixel and
    antenna, so blocking never changes a value.
    """
    pids = np.asarray(pixel_ids, dtype=np.int64)
    x = np.asarray(px, dtype=np.float64)
    y = np.asarray(py, dtype=np.float64)
    if pids.ndim != 1 or not (pids.shape == x.shape == y.shape):
        raise ValueError("pixel_ids, px and py must be 1-D with matching shapes")
    codes = np.broadcast_to(env_codes(pixel_env), pids.shape)
    ids = [s.bts_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate bts_id among {len(ids)} specs")
    cand = np.asarray(candidates, dtype=bool)
    if cand.shape != (x.size, len(specs)):
        raise ValueError(f"candidates shape {cand.shape} does not match "
                         f"{x.size} pixels x {len(specs)} specs")

    rss = np.full((x.size, len(specs)), -np.inf)
    for j, s in enumerate(specs):
        idx = np.flatnonzero(cand[:, j])
        if idx.size == 0:
            continue
        level = _levels_dbm(s, _distance_km(x[idx] - s.x, y[idx] - s.y), codes[idx], rx_height_m)
        rss[idx, j] = np.where(level >= dead_threshold_dbm, level, -np.inf)
    return RssField(pids, ids, rss, dead_threshold_dbm)
