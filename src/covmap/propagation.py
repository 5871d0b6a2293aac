"""Extended Hata median path loss and received-signal fields.

Implements the CEPT/SEAMCAT variant of the extended Hata model for the
urban, suburban and open (rural) environments, valid for carrier
frequencies between 150 and 3000 MHz and path distances up to 100 km.
Short paths (below 100 m) fall back to free space with a log-distance
interpolation bridge, and the final loss is never allowed below the
free-space value.

`rss_field` is the one link kernel: it turns antenna specs and pixel
centres into a received-signal matrix (transmit power minus median
loss, no shadowing term), and every coverage and weighting path calls
it, whole or chunk by chunk.
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
    """Received signal strength (dBm) for every pixel x antenna pair.

    `rss_dbm[i, j]` is the level at pixel `pixel_ids[i]` from antenna
    `bts_ids[j]`.  Entries below `dead_threshold_dbm` count as dead but
    remain retrievable.
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
        if not np.all(np.isfinite(self.rss_dbm)):
            raise ValueError("rss_dbm must be finite everywhere")

    @property
    def live(self) -> np.ndarray:
        """Boolean mask of links at or above the dead threshold."""
        return self.rss_dbm >= self.dead_threshold_dbm


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
    """Compute the received-signal matrix for pixels x antennas.

    `px`, `py` are pixel-centre coordinates in metres, `pixel_env` the
    per-pixel environment class (names or codes).  Streaming callers pass
    one chunk of pixels at a time; each entry depends only on its own
    pixel and antenna, so chunking never changes a value.  Distances
    beyond the model's 100 km range are evaluated at the clamp; such
    links are far below any practical dead threshold either way.
    """
    pids = np.asarray(pixel_ids, dtype=np.int64)
    x = np.asarray(px, dtype=np.float64)
    y = np.asarray(py, dtype=np.float64)
    if not (pids.shape == x.shape == y.shape):
        raise ValueError("pixel_ids, px and py must have matching shapes")
    codes = np.broadcast_to(env_codes(pixel_env), pids.shape)
    seen = set()
    for s in specs:
        if s.bts_id in seen:
            raise ValueError(f"duplicate bts_id {s.bts_id!r}")
        seen.add(s.bts_id)

    out = np.empty((pids.size, len(specs)))
    for j, s in enumerate(specs):
        d_km = np.hypot(x - s.x, y - s.y) / 1000.0
        out[:, j] = s.power_dbm - extended_hata_db(
            s.freq_mhz, d_km, s.height_m, rx_height_m, codes, clamp_distance=True
        )
    return RssField(pids, [s.bts_id for s in specs], out, dead_threshold_dbm)
