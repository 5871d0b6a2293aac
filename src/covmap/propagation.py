"""Extended Hata median path loss and received-signal fields.

Implements the CEPT/SEAMCAT variant of the extended Hata model for the
urban, suburban and open (rural) environments, valid for carrier
frequencies between 150 and 3000 MHz and path distances up to 100 km.
Short paths (below 100 m) fall back to free space with a log-distance
interpolation bridge, and the final loss is never allowed below the
free-space value.

One kernel, `rss_field`, turns antenna specs and pixel centres into
received levels (transmit power minus median loss, no shadowing term).
Loss never decreases with distance, so `live_radius_km` bounds, per
antenna and environment, where a link can be live; `rss_field` evaluates
the model only inside that radius and reports every dead link as -inf.
`simulation.best_server_grid` and `settlement_pixel_weights` call it one
chunk of pixels at a time, so memory stays bounded by the chunk.
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
        codes = arr.astype(np.uint8)
        if codes.size and (codes.max(initial=0) > 2):
            raise ValueError("environment codes must be 0, 1 or 2")
        return codes
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
    # distance exponent steepens beyond 20 km
    hbp = h_tx / np.sqrt(1.0 + 7.0e-6 * h_tx * h_tx)
    alpha = np.where(
        d_km <= 20.0,
        1.0,
        1.0
        + (0.14 + 1.87e-4 * f_mhz + 1.07e-3 * hbp)
        * np.power(np.maximum(np.log10(d_km / 20.0), 0.0), 0.8),
    )
    tail = (
        -13.82 * np.log10(hb)
        + (44.9 - 6.55 * np.log10(hb)) * np.power(logd, alpha)
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
    if np.any(~np.isfinite(d)) or np.any(d < 0):
        raise ValueError("distances must be finite and non-negative")
    if np.any(d > DIST_MAX_KM):
        if not clamp_distance:
            raise ValueError(f"distance exceeds {DIST_MAX_KM} km; model not valid")
        d = np.minimum(d, DIST_MAX_KM)

    codes = np.broadcast_to(env_codes(env), d.shape)
    offsets = _env_offsets_db(f_mhz)

    # evaluate on the >= 0.1 km branch (safe placeholder below it)
    d_main = np.maximum(d, 0.1)
    loss = _urban_db(f_mhz, d_main, h_tx_m, h_rx_m) + offsets[codes]

    fs = _free_space_db(f_mhz, d, h_tx_m, h_rx_m)
    near = d <= 0.04
    mid = ~near & (d < 0.1)
    if np.any(near):
        loss = np.where(near, fs, loss)
    if np.any(mid):
        l40 = _free_space_db(f_mhz, 0.04, h_tx_m, h_rx_m)
        l100 = _urban_db(f_mhz, np.asarray([0.1]), h_tx_m, h_rx_m)[0] + offsets[codes]
        frac = (np.log10(np.maximum(d, 0.04)) - np.log10(0.04)) / (np.log10(0.1) - np.log10(0.04))
        loss = np.where(mid, l40 + (l100 - l40) * frac, loss)

    loss = np.maximum(loss, fs)
    return float(loss[0]) if scalar_in else loss


@dataclass
class RssField:
    """Received signal strength (dBm) for pixel x antenna pairs.

    `rss_dbm[i, j]` is the level at pixel `pixel_ids[i]` from antenna
    `bts_ids[j]`; `rss_field` writes -inf for every dead link.
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


# the radius probe: a log grid from 1 m to the model's range, then a linear
# refinement between its last live and first dead point
_PROBE_KM = np.geomspace(1e-3, DIST_MAX_KM, 64)
_PROBE_REFINE = 64
# a probe point counts as dead only this far below the threshold, so a
# one-ulp wobble in the loss can never make a culled link live
_RADIUS_MARGIN_DB = 1e-6
# relative slack on the distance tests that cull links, far above their
# rounding error, so a culled link always lies at or beyond its radius
_REACH_SLACK = 1.0 + 1e-9
# live_radius_km's memo, keyed on everything but the site's position
_RADII: dict[tuple, np.ndarray] = {}


def live_radius_km(
    spec: AntennaSpec, rx_height_m: float, dead_threshold_dbm: float
) -> np.ndarray:
    """Per environment code, a distance from which every link of `spec` is dead.

    Entry `r[env]` guarantees that every path of length `d >= r[env]`
    through environment `env` has a level below `dead_threshold_dbm`.
    It is `inf` exactly when the 100 km link is still live: the clamp
    holds the loss flat beyond the model's range.  Relies on the loss
    never decreasing with distance.  The radius ignores the site's
    position, so it is memoised on the technical parameters: specs with
    equal ones (all naive specs of one class) share one probe.
    """
    key = (spec.height_m, spec.freq_mhz, spec.power_dbm, rx_height_m, dead_threshold_dbm)
    if key not in _RADII:
        _RADII[key] = _probe_radius_km(spec, rx_height_m, dead_threshold_dbm)
    return _RADII[key]


def forget_live_radii() -> None:
    """Empty the `live_radius_km` memo, so the next pass probes afresh."""
    _RADII.clear()


def _probe_radius_km(spec: AntennaSpec, rx_height_m: float, dead_threshold_dbm: float):
    codes = np.arange(len(ENV_CLASSES))[:, None]
    cut = dead_threshold_dbm - _RADIUS_MARGIN_DB
    coarse = np.broadcast_to(_PROBE_KM, (codes.size, _PROBE_KM.size))
    level = _levels_dbm(spec, coarse, codes, rx_height_m)
    dead = level < cut
    first = np.where(dead.any(axis=1), dead.argmax(axis=1), _PROBE_KM.size)
    radius = np.where(level[:, -1] < dead_threshold_dbm, DIST_MAX_KM, np.inf)
    bracket = (first > 0) & (first < _PROBE_KM.size)
    radius[first == 0] = _PROBE_KM[0]
    if bracket.any():
        k = first[bracket]
        fine = np.linspace(_PROBE_KM[k - 1], _PROBE_KM[k], _PROBE_REFINE, axis=1)
        fine_dead = _levels_dbm(spec, fine, codes[bracket], rx_height_m) < cut
        fine_dead[:, -1] = True  # the bracket's own dead end point
        radius[bracket] = fine[np.arange(k.size), fine_dead.argmax(axis=1)]
    radius.flags.writeable = False  # the memo hands the same array to every caller
    return radius


def rss_field(
    specs: list[AntennaSpec],
    pixel_ids,
    px,
    py,
    pixel_env,
    *,
    rx_height_m: float = 1.0,
    dead_threshold_dbm: float = DEAD_THRESHOLD_DBM,
) -> RssField:
    """Received levels for pixels x antennas, -inf for every dead link.

    `px`, `py` are pixel-centre coordinates in metres, `pixel_env` the
    per-pixel environment class (names or codes).  A spec whose largest
    `live_radius_km` lies beyond the pixels' bounding box is skipped;
    otherwise the model runs only on pixels within the radius of their
    environment.  Streaming callers pass one chunk of pixels at a time;
    each entry depends only on its own pixel and antenna, so chunking
    never changes a value.
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

    field = RssField(pids, ids, np.full((x.size, len(specs)), -np.inf), dead_threshold_dbm)
    if x.size == 0:
        return field
    x0, x1, y0, y1 = x.min(), x.max(), y.min(), y.max()
    for j, s in enumerate(specs):
        radius = live_radius_km(s, rx_height_m, dead_threshold_dbm)
        gap_km = _distance_km(max(x0 - s.x, s.x - x1, 0.0), max(y0 - s.y, s.y - y1, 0.0))
        if gap_km >= radius.max() * _REACH_SLACK:
            continue
        # squared reach in metres per environment: a cheap test before hypot
        reach_m2 = (radius * (1000.0 * _REACH_SLACK)) ** 2
        dx = x - s.x
        dy = y - s.y
        near = dx * dx + dy * dy < reach_m2[codes]
        if not near.any():
            continue
        idx = slice(None) if near.all() else np.flatnonzero(near)
        level = _levels_dbm(s, _distance_km(dx[idx], dy[idx]), codes[idx], rx_height_m)
        field.rss_dbm[idx, j] = np.where(level >= dead_threshold_dbm, level, -np.inf)
    return field
