"""Tests for the extended Hata model and RSS fields.

Golden loss values were computed with an independent scalar
transcription of the published CEPT formulas and frozen here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from covmap.propagation import (
    ENV_CLASSES,
    AntennaSpec,
    RssField,
    extended_hata_db,
    live_radius_km,
    rss_field,
)

# (freq_mhz, dist_km, h_tx, h_rx, env) -> loss_db, independently evaluated
GOLDEN_LOSS = [
    ((900.0, 1.0, 30.0, 1.0, "urban"), 127.8462895614),
    ((900.0, 3.0, 30.0, 1.0, "urban"), 144.6528169493),
    ((900.0, 3.0, 30.0, 1.0, "suburban"), 134.7102097010),
    ((900.0, 3.0, 30.0, 1.0, "rural"), 116.1463988614),
    ((900.0, 10.0, 45.0, 1.5, "rural"), 129.7029149280),
    ((2100.0, 1.0, 30.0, 1.0, "urban"), 139.4312149791),
    ((2100.0, 0.5, 45.0, 1.5, "suburban"), 112.9901997821),
    ((1800.0, 2.0, 50.0, 2.0, "urban"), 141.8569067537),
    ((900.0, 50.0, 60.0, 1.0, "rural"), 157.2603198796),
    ((900.0, 100.0, 30.0, 1.0, "rural"), 183.4404429061),
    ((450.0, 5.0, 25.0, 1.0, "suburban"), 137.7164375672),
    ((900.0, 0.07, 30.0, 1.0, "urban"), 82.0098650838),
    ((900.0, 0.07, 30.0, 1.0, "rural"), 69.0747256575),
    ((900.0, 0.02, 30.0, 1.0, "urban"), 62.4225680038),
    ((3000.0, 4.0, 30.0, 1.0, "urban"), 162.2589658469),
    ((1500.0, 4.0, 30.0, 1.0, "urban"), 154.9682535926),
    ((2000.0, 4.0, 30.0, 1.0, "urban"), 160.4170512772),
    ((900.0, 0.2, 30.0, 1.0, "rural"), 77.5958138621),
    ((900.0, 0.4, 30.0, 1.0, "rural"), 85.3224920584),
    ((2100.0, 3.0, 15.0, 1.0, "urban"), 162.2583422802),
    ((900.0, 3.0, 15.0, 1.0, "urban"), 150.6734168625),
    ((900.0, 3.0, 60.0, 10.0, "urban"), 116.6048194152),
]


@pytest.mark.parametrize("args,expected", GOLDEN_LOSS)
def test_golden_loss_values(args, expected):
    f, d, hb, hm, env = args
    assert_allclose(extended_hata_db(f, d, hb, hm, env), expected, rtol=1e-10)


def test_rural_anchor_within_published_band():
    # 3 km open-area link at 900 MHz, 30 m mast, 1 m receiver: ~118 dB
    loss = extended_hata_db(900.0, 3.0, 30.0, 1.0, "rural")
    assert abs(loss - 118.0) <= 3.0
    assert abs((43.0 - loss) - (-75.0)) <= 3.0


def test_environment_ordering():
    losses = [extended_hata_db(900.0, 5.0, 30.0, 1.5, env) for env in
              ("urban", "suburban", "rural")]
    assert losses[0] > losses[1] > losses[2]


def test_monotone_in_distance():
    d = np.linspace(0.1, 100.0, 400)
    for env in ("urban", "suburban", "rural"):
        for f in (150.0, 900.0, 2100.0, 3000.0):
            loss = extended_hata_db(f, d, 30.0, 1.5, env)
            assert np.all(np.diff(loss) > 0), (env, f)


# one draw per frequency branch: <= 1500, <= 2000 and > 2000 MHz
_FREQ = st.one_of(
    st.floats(150.0, 1500.0), st.floats(1500.0, 2000.0), st.floats(2000.0, 3000.0)
)
# a dense log sweep from 0.1 m to past the 100 km clamp, with the branch
# points themselves: the 40 m/100 m bridge, the 20 km exponent change
_SWEEP_KM = np.concatenate([[0.0, 0.04, 0.1, 20.0, 100.0], np.geomspace(1e-4, 130.0, 3000)])


@settings(max_examples=300, deadline=None)
@given(
    f=_FREQ,
    h_tx=st.floats(1.0, 1000.0),
    h_rx=st.floats(1.0, 10.0),
    env=st.sampled_from(ENV_CLASSES),
    extra_km=st.lists(st.floats(0.0, 130.0), max_size=20),
)
def test_loss_never_decreases_with_distance(f, h_tx, h_rx, env, extra_km):
    # range-culling kernels rely on this to bound where a link can be live
    d = np.sort(np.concatenate([_SWEEP_KM, extra_km]))
    loss = extended_hata_db(f, d, h_tx, h_rx, env, clamp_distance=True)
    bad = np.flatnonzero(np.diff(loss) < 0)
    assert bad.size == 0, [(d[i], d[i + 1], loss[i], loss[i + 1]) for i in bad[:3]]


@settings(max_examples=300, deadline=None)
@given(
    f=_FREQ,
    h_tx=st.floats(1.0, 1000.0),
    h_rx=st.floats(1.0, 10.0),
    power=st.floats(-20.0, 90.0),
    threshold=st.floats(-170.0, -40.0),
    extra_km=st.lists(st.floats(0.0, 130.0), max_size=20),
)
def test_live_radius_is_conservative(f, h_tx, h_rx, power, threshold, extra_km):
    # range culling drops every link at or beyond the radius unevaluated
    spec = AntennaSpec("a", 0.0, 0.0, h_tx, f, power)
    r = live_radius_km(spec, h_rx, threshold)
    assert r.shape == (len(ENV_CLASSES),)
    for code in range(len(ENV_CLASSES)):
        near_r = [r[code], np.nextafter(r[code], np.inf)] if np.isfinite(r[code]) else []
        d = np.concatenate([_SWEEP_KM, extra_km, near_r])
        level = power - extended_hata_db(f, d, h_tx, h_rx, code, clamp_distance=True)
        live_beyond = (d >= r[code]) & (level >= threshold)
        assert not live_beyond.any(), (code, r[code], d[live_beyond][:3])
        at_range = power - extended_hata_db(f, 100.0, h_tx, h_rx, code)
        assert np.isinf(r[code]) == (at_range >= threshold)


def test_live_radius_brackets_the_crossing():
    # 900 MHz rural at 43 dBm crosses -110 dBm between 10 and 100 km
    spec = AntennaSpec("a", 0.0, 0.0, 30.0, 900.0, 43.0)
    r = live_radius_km(spec, 1.0, -110.0)
    level = 43.0 - extended_hata_db(900.0, r, 30.0, 1.0, [0, 1, 2])
    assert np.all(level < -110.0)
    # within a 0.5% refinement step of the crossing
    inside = 43.0 - extended_hata_db(900.0, r * 0.995, 30.0, 1.0, [0, 1, 2])
    assert np.all(inside >= -110.0)
    assert r[0] < r[1] < r[2] < 100.0


def test_free_space_floor_binds_close_in():
    # rural at 200 m: raw formula dips below free space; result is floored
    fs = 32.4 + 20 * np.log10(900.0) + 10 * np.log10(0.2**2 + (29.0 / 1000.0) ** 2)
    got = extended_hata_db(900.0, 0.2, 30.0, 1.0, "rural")
    assert_allclose(got, fs, rtol=1e-12)


def test_short_mast_penalty():
    # below the 30 m reference the loss rises by exactly 20*log10(30/h)
    l15 = extended_hata_db(900.0, 3.0, 15.0, 1.0, "urban")
    l30 = extended_hata_db(900.0, 3.0, 30.0, 1.0, "urban")
    assert_allclose(l15 - l30, 20.0 * np.log10(2.0), rtol=1e-12)


def test_interpolation_bracketed_by_branch_endpoints():
    l40 = extended_hata_db(900.0, 0.04, 30.0, 1.0, "urban")
    l100 = extended_hata_db(900.0, 0.1, 30.0, 1.0, "urban")
    mid = extended_hata_db(900.0, 0.07, 30.0, 1.0, "urban")
    assert l40 < mid < l100


def test_vector_matches_scalar():
    d = np.array([0.01, 0.05, 0.3, 2.0, 15.0, 60.0])
    envs = ["urban", "rural", "suburban", "urban", "rural", "suburban"]
    vec = extended_hata_db(2100.0, d, 40.0, 2.0, envs)
    for i in range(d.size):
        got = extended_hata_db(2100.0, float(d[i]), 40.0, 2.0, envs[i])
        assert_allclose(vec[i], got, rtol=0, atol=0)


def test_bitwise_deterministic():
    d = np.linspace(0.01, 99.0, 1000)
    a = extended_hata_db(1800.0, d, 37.0, 1.0, "suburban")
    b = extended_hata_db(1800.0, d, 37.0, 1.0, "suburban")
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "f,d,hb,hm,env",
    [
        (100.0, 1.0, 30.0, 1.0, "urban"),    # below supported band
        (3500.0, 1.0, 30.0, 1.0, "urban"),
        (900.0, 120.0, 30.0, 1.0, "urban"),  # beyond model range
        (900.0, -1.0, 30.0, 1.0, "urban"),
        (900.0, 1.0, -5.0, 1.0, "urban"),
        (900.0, 1.0, 30.0, 0.5, "urban"),    # receiver below 1 m
        (900.0, 1.0, 30.0, 12.0, "urban"),
    ],
)
def test_out_of_range_rejected(f, d, hb, hm, env):
    with pytest.raises(ValueError):
        extended_hata_db(f, d, hb, hm, env)


def test_unknown_env_rejected():
    with pytest.raises(ValueError):
        extended_hata_db(900.0, 1.0, 30.0, 1.0, "swamp")


def test_antenna_spec_validation():
    with pytest.raises(ValueError):
        AntennaSpec("a", 0.0, 0.0, -3.0, 900.0, 43.0)
    with pytest.raises(ValueError):
        AntennaSpec("a", 0.0, 0.0, 30.0, 120.0, 43.0)
    with pytest.raises(ValueError):
        AntennaSpec("", 0.0, 0.0, 30.0, 900.0, 43.0)
    with pytest.raises(ValueError):
        AntennaSpec("a", np.nan, 0.0, 30.0, 900.0, 43.0)


class TestRssField:
    def _specs(self):
        return [
            AntennaSpec("b1", 0.0, 0.0, 30.0, 900.0, 43.0),
            AntennaSpec("b2", 5000.0, 0.0, 45.0, 2100.0, 47.0),
            AntennaSpec("b3", 0.0, 8000.0, 20.0, 450.0, 40.0),
        ]

    def test_worked_example_single_link(self):
        specs = [AntennaSpec("a", 0.0, 0.0, 30.0, 900.0, 43.0)]
        f = rss_field(specs, [0], [3000.0], [0.0], ["rural"], rx_height_m=1.0)
        assert_allclose(f.rss_dbm[0, 0], 43.0 - 116.1463988614, rtol=1e-10)

    def test_matches_elementwise_scalar_oracle(self):
        specs = self._specs()
        px = np.array([1000.0, 2500.0, 7000.0, 400.0, 9000.0])
        py = np.array([2000.0, -3000.0, 1000.0, 300.0, 9000.0])
        envs = ["urban", "suburban", "rural", "urban", "rural"]
        f = rss_field(specs, np.arange(5), px, py, envs, rx_height_m=1.5)
        for i in range(5):
            for j, s in enumerate(specs):
                d = float(np.hypot(px[i] - s.x, py[i] - s.y)) / 1000.0
                want = s.power_dbm - extended_hata_db(s.freq_mhz, d, s.height_m, 1.5, envs[i])
                assert_allclose(f.rss_dbm[i, j], want, rtol=0, atol=1e-12)

    def test_symmetric_pixel_sees_equal_levels(self):
        specs = [
            AntennaSpec("a", -2000.0, 0.0, 30.0, 900.0, 43.0),
            AntennaSpec("b", 2000.0, 0.0, 30.0, 900.0, 43.0),
        ]
        f = rss_field(specs, [0], [0.0], [0.0], ["suburban"])
        assert f.rss_dbm[0, 0] == f.rss_dbm[0, 1]

    def test_power_offset_shifts_field(self):
        specs = self._specs()
        rng = np.random.default_rng(5)
        px = rng.uniform(-20000, 20000, 40)
        py = rng.uniform(-20000, 20000, 40)
        envs = rng.choice(["urban", "suburban", "rural"], 40)
        base = rss_field(specs, np.arange(40), px, py, envs)
        bumped_specs = [
            AntennaSpec(s.bts_id, s.x, s.y, s.height_m, s.freq_mhz, s.power_dbm + 7.25)
            for s in specs
        ]
        bumped = rss_field(bumped_specs, np.arange(40), px, py, envs)
        assert_allclose(bumped.rss_dbm - base.rss_dbm, 7.25, atol=1e-9)
        assert np.array_equal(
            np.argmax(base.rss_dbm, axis=1), np.argmax(bumped.rss_dbm, axis=1)
        )

    def test_distance_clamp_beyond_model_range(self):
        specs = [AntennaSpec("a", 0.0, 0.0, 60.0, 900.0, 47.0)]
        f = rss_field(specs, [0, 1], [120_000.0, 100_000.0], [0.0, 0.0], ["rural", "rural"])
        assert f.rss_dbm[0, 0] == f.rss_dbm[1, 0]  # evaluated at the 100 km clamp
        assert not f.live[0, 0]
        assert np.all(np.isfinite(f.rss_dbm))

    def test_colocated_pixel_is_finite_and_strong(self):
        specs = [AntennaSpec("a", 500.0, 500.0, 30.0, 900.0, 45.0)]
        f = rss_field(specs, [0], [500.0], [500.0], ["urban"])
        assert np.isfinite(f.rss_dbm[0, 0])
        assert f.rss_dbm[0, 0] > -40.0

    def test_dead_mask_threshold(self):
        specs = [AntennaSpec("a", 0.0, 0.0, 30.0, 900.0, 43.0)]
        f = rss_field(
            specs, [0, 1], [1000.0, 80_000.0], [0.0, 0.0], ["urban", "urban"],
            dead_threshold_dbm=-110.0,
        )
        assert bool(f.live[0, 0]) and not f.live[1, 0]
        # dead entries stay retrievable
        assert np.isfinite(f.rss_dbm[1, 0])

    def test_duplicate_bts_rejected(self):
        specs = [
            AntennaSpec("a", 0.0, 0.0, 30.0, 900.0, 43.0),
            AntennaSpec("a", 100.0, 0.0, 30.0, 900.0, 43.0),
        ]
        with pytest.raises(ValueError):
            rss_field(specs, [0], [0.0], [0.0], ["urban"])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RssField(np.arange(3), ["a"], np.zeros((2, 1)))
