"""Tests for the extended Hata model and RSS fields.

Golden loss values were computed with an independent scalar
transcription of the published CEPT formulas and frozen here.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from covmap import propagation
from covmap.propagation import (
    DEAD_THRESHOLD_DBM,
    DIST_MAX_KM,
    ENV_CLASSES,
    AntennaSpec,
    RssField,
    _env_offsets_db,
    _free_space_db,
    _rx_gain_db,
    _tx_gain_db,
    env_codes,
    extended_hata_db,
    level_table,
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
)
def test_levels_never_fall_from_urban_to_rural(f, h_tx, h_rx, power):
    # a property of the model: the walker's level pruning bounds each env
    # code on its own and no longer needs it
    spec = AntennaSpec("a", 0.0, 0.0, h_tx, f, power)
    levels, row = level_table([spec], h_rx)
    bad = np.argwhere(np.diff(levels[row[0]], axis=0) < 0)
    assert bad.size == 0, [(code, propagation._LEVEL_KM[g]) for code, g in bad[:3]]
    # short paths, the 20 km exponent change and the 100 km clamp included
    loss = np.array([extended_hata_db(f, _SWEEP_KM, h_tx, h_rx, code, clamp_distance=True)
                     for code in range(len(ENV_CLASSES))])
    bad = np.argwhere(np.diff(loss, axis=0) > 0)
    assert bad.size == 0, [(code, _SWEEP_KM[i]) for code, i in bad[:3]]


def test_level_candidates_drop_a_site_dead_at_the_mast():
    # a 30 m mast at -20 dBm is about -81 dBm at its foot in every env
    spec = AntennaSpec("a", 0.0, 0.0, 30.0, 900.0, -20.0)
    levels, row = level_table([spec], 1.0)
    assert np.all(levels[row[0], :, 0] < -40.0)
    # so a box at the mast holding every env code keeps it at no rank,
    # while a floor below its level there keeps it
    zero = np.zeros(1)
    box = [zero] * 4
    present = np.ones((1, len(ENV_CLASSES)), dtype=bool)
    for rank in (1, 2):
        keep = propagation.level_candidates(levels, row, zero, zero, box, present, rank, -40.0)
        assert keep.shape == (1, 1) and not keep.any()
    assert propagation.level_candidates(levels, row, zero, zero, box, present, 1, -110.0).all()


# distances for the level-table bracket: 0, under 40 m, the 40-100 m
# bridge, both sides of the 20 km bend, the 100 km clamp and beyond it
_BRACKET_KM = st.one_of(
    st.just(0.0), st.floats(0.0, 0.04), st.floats(0.04, 0.1), st.floats(0.1, 19.0),
    st.floats(19.0, 21.0), st.floats(21.0, 100.0), st.floats(100.0, 300.0),
)


@settings(max_examples=300, deadline=None)
@given(
    f=_FREQ,
    h_tx=st.floats(1.0, 1000.0),
    h_rx=st.floats(1.0, 10.0),
    power=st.floats(-20.0, 90.0),
    d_km=st.lists(_BRACKET_KM, min_size=1, max_size=30),
)
def test_level_table_brackets_the_exact_level(f, h_tx, h_rx, power, d_km):
    # level pruning bounds a link by the table entries on either side of it
    spec = AntennaSpec("a", 0.0, 0.0, h_tx, f, power)
    levels, row = level_table([spec], h_rx)
    assert levels.shape == (1, len(ENV_CLASSES), propagation._LEVEL_KM.size)
    table = levels[row[0]]
    grid_km = propagation._LEVEL_KM
    margin = propagation._MARGIN_DB
    d = np.array(d_km)
    i_hi = np.searchsorted(grid_km, d, side="right") - 1
    i_lo = np.minimum(np.searchsorted(grid_km, d), grid_km.size - 1)
    for code in range(len(ENV_CLASSES)):
        level = propagation._levels_dbm(spec, d, np.full(d.shape, code), h_rx)
        assert np.all(table[code, i_hi] + margin >= level), code
        assert np.all(level >= table[code, i_lo] - margin), code


def test_level_table_once_per_technical_parameters(monkeypatch):
    # the table does not depend on the site's position: twins elsewhere
    # share one row, evaluated once
    specs = [AntennaSpec("a", 0.0, 0.0, 30.0, 900.0, 43.0),
             AntennaSpec("b", 5000.0, 0.0, 30.0, 900.0, 43.0),
             AntennaSpec("c", 0.0, 0.0, 10.0, 900.0, 43.0)]
    levels_dbm = propagation._levels_dbm
    evaluated = []

    def recording(spec, *args):
        evaluated.append(spec.bts_id)
        return levels_dbm(spec, *args)

    monkeypatch.setattr(propagation, "_levels_dbm", recording)
    levels, row = level_table(specs, 1.0)
    assert evaluated == ["a", "c"]
    assert row.tolist() == [0, 0, 1] and levels.shape[0] == 2
    monkeypatch.undo()
    codes = np.arange(len(ENV_CLASSES))[:, None]
    dist = np.broadcast_to(propagation._LEVEL_KM, (codes.size, propagation._LEVEL_KM.size))
    for j, spec in enumerate(specs):
        np.testing.assert_array_equal(levels[row[j]], levels_dbm(spec, dist, codes, 1.0))


@st.composite
def _candidate_layout(draw):
    """Sites (twins of the site before among them, so levels tie exactly)
    on a lattice around one to four cells of up to 6 x 6 pixel centres on
    the same lattice, each pixel holding one of the one to three env codes
    its cell draws, a rank from 1 to past the site count, and a dead
    threshold under which most links may be dead."""
    step = draw(st.sampled_from([30.0, 100.0, 400.0]))
    specs = []
    for j in range(draw(st.integers(1, 8))):
        if specs and draw(st.booleans()):
            prev = specs[-1]
            site = (prev.x, prev.y, prev.height_m, prev.freq_mhz, prev.power_dbm)
        else:
            site = (draw(st.integers(-15, 15)) * step, draw(st.integers(-15, 15)) * step,
                    draw(st.sampled_from([2.0, 10.0, 30.0, 60.0])),
                    draw(st.sampled_from([450.0, 900.0, 2100.0])),
                    draw(st.sampled_from([-10.0, 20.0, 43.0])))
        specs.append(AntennaSpec(f"b{j}", *site))
    cells = []
    for _ in range(draw(st.integers(1, 4))):
        xs = (draw(st.integers(-10, 10)) + np.arange(draw(st.integers(1, 6)))) * step
        ys = (draw(st.integers(-10, 10)) + np.arange(draw(st.integers(1, 6)))) * step
        codes = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
        env = draw(st.lists(st.sampled_from(codes), min_size=xs.size * ys.size,
                            max_size=xs.size * ys.size))
        cells.append((xs, ys, np.array(env)))
    return (specs, cells, draw(st.integers(1, len(specs) + 2)),
            draw(st.sampled_from([-110.0, -80.0, -50.0])))


@settings(max_examples=400, deadline=None)
@given(layout=_candidate_layout())
def test_level_candidates_keep_every_site_among_the_rank_strongest(layout):
    """Every site that is live and among the `rank` strongest, or ties with
    one, at some pixel of a cell, by `rss_field`'s levels with every
    candidate on, is kept in that cell."""
    specs, cells, rank, threshold = layout
    levels, row = level_table(specs, 1.0)
    sx, sy = np.array([[s.x, s.y] for s in specs]).T
    box = [[v(c[i]) for c in cells] for i in (0, 1) for v in (np.min, np.max)]
    present = np.zeros((len(cells), len(ENV_CLASSES)), dtype=bool)
    for c, (_, _, env) in enumerate(cells):
        present[c, env] = True
    keep = propagation.level_candidates(levels, row, sx, sy, box, present, rank, threshold)
    assert keep.shape == (len(cells), len(specs))
    for c, (xs, ys, env) in enumerate(cells):
        x, y = (v.ravel() for v in np.meshgrid(xs, ys))
        field = rss_field(specs, np.arange(x.size), x, y, env,
                          candidates=np.ones((x.size, len(specs)), dtype=bool),
                          dead_threshold_dbm=threshold)
        # each pixel's rank-th strongest level, -inf when it has fewer sites
        nth = np.sort(np.pad(field.rss_dbm, ((0, 0), (rank, 0)), constant_values=-np.inf),
                      axis=1)[:, -rank]
        pick = field.live & (field.rss_dbm >= nth[:, None])
        missed = np.flatnonzero(pick.any(axis=0) & ~keep[c])
        assert missed.size == 0, (c, missed, rank)


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


def _every_entry_urban_db(f_mhz, d_km, h_tx, h_rx):
    # the urban curve with the exponent and its power taken on every entry
    hb = max(30.0, h_tx)
    logd = np.log10(d_km)
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


def _every_entry_hata_db(f_mhz, d_km, h_tx_m, h_rx_m, env):
    # extended_hata_db with every branch evaluated on every link and
    # selected by masks (clamped at 100 km)
    d = np.minimum(np.atleast_1d(np.asarray(d_km, dtype=np.float64)), DIST_MAX_KM)
    codes = np.broadcast_to(env_codes(env), d.shape)
    offsets = _env_offsets_db(f_mhz)
    loss = _every_entry_urban_db(f_mhz, np.maximum(d, 0.1), h_tx_m, h_rx_m) + offsets[codes]
    fs = _free_space_db(f_mhz, d, h_tx_m, h_rx_m)
    near = d <= 0.04
    mid = ~near & (d < 0.1)
    loss = np.where(near, fs, loss)
    l40 = _free_space_db(f_mhz, 0.04, h_tx_m, h_rx_m)
    l100 = _every_entry_urban_db(f_mhz, np.asarray([0.1]), h_tx_m, h_rx_m)[0] + offsets[codes]
    frac = (np.log10(np.maximum(d, 0.04)) - np.log10(0.04)) / (np.log10(0.1) - np.log10(0.04))
    loss = np.where(mid, l40 + (l100 - l40) * frac, loss)
    loss = np.maximum(loss, fs)
    return float(loss[0]) if np.ndim(d_km) == 0 else loss


def _around(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


# every branch point with its neighbouring floats: the 40 m/100 m bridge,
# the 20 km exponent change and the 100 km clamp
_EDGES_KM = np.array([0.0, *_around(0.04), *_around(0.1), *_around(20.0), *_around(100.0), 130.0])


@settings(max_examples=400, deadline=None)
@given(
    f=_FREQ,
    h_tx=st.floats(1.0, 1000.0),
    h_rx=st.floats(1.0, 10.0),
    extra_km=st.lists(st.floats(0.0, 130.0), max_size=40),
    # the shortest path offered: below it no link exists, so the bridge
    # and the exponent are skipped on whole calls
    floor_km=st.sampled_from([0.0, *_around(0.04), *_around(0.1), *_around(20.0)]),
    clamp=st.booleans(),
    shape=st.sampled_from(["scalar", "1-D", "2-D", "2-D by row"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_branch_local_terms_equal_every_entry_evaluation(
        f, h_tx, h_rx, extra_km, floor_km, clamp, shape, seed):
    rng = np.random.default_rng(seed)
    d = np.concatenate([_EDGES_KM, extra_km, rng.uniform(0.0, 130.0, 40)])
    d = rng.permutation(d[(d >= floor_km) & (clamp | (d <= DIST_MAX_KM))])
    if shape == "scalar":
        d, env = d[0], ENV_CLASSES[rng.integers(3)]
    elif shape == "1-D":
        env = rng.integers(0, 3, d.size)
    else:  # the level table's layout, one row per env code: 3 x 64 links
        d = np.resize(d, (3, 64))
        env = np.arange(3)[:, None] if shape == "2-D by row" else rng.integers(0, 3, d.shape)
    given_d = np.copy(d)
    got = extended_hata_db(f, d, h_tx, h_rx, env, clamp_distance=clamp)
    assert np.array_equal(d, given_d)  # the caller's distances are left alone
    want = _every_entry_hata_db(f, d, h_tx, h_rx, env)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("clamp", [False, True])
@pytest.mark.parametrize(
    "d",
    [[1.0, np.nan, 2.0], [1.0, np.inf, 2.0], [1.0, -np.inf, 2.0],
     [[0.5, 3.0], [np.nan, 150.0]], [3.0, -0.5], -1e-300],
    ids=["nan", "+inf", "-inf", "nan-2d", "negative", "negative-scalar"],
)
def test_bad_distances_rejected_with_message(d, clamp):
    with pytest.raises(ValueError, match=re.escape("distances must be finite and non-negative")):
        extended_hata_db(900.0, np.asarray(d), 30.0, 1.0, "urban", clamp_distance=clamp)


def test_long_path_rejected_without_clamp():
    with pytest.raises(ValueError, match=re.escape("distance exceeds 100.0 km; model not valid")):
        extended_hata_db(900.0, [1.0, 130.0], 30.0, 1.0, "urban")


def test_clamp_evaluates_long_paths_at_model_range():
    got = extended_hata_db(900.0, [130.0, 100.0], 30.0, 1.0, "rural", clamp_distance=True)
    assert got[0] == got[1] == extended_hata_db(900.0, 100.0, 30.0, 1.0, "rural")


def test_empty_distances_give_an_empty_loss():
    got = extended_hata_db(900.0, np.empty(0), 30.0, 1.0, "urban")
    assert isinstance(got, np.ndarray) and got.shape == (0,) and got.dtype == np.float64
    assert extended_hata_db(900.0, np.empty((3, 0)), 30.0, 1.0, [[0], [1], [2]]).shape == (3, 0)


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


@pytest.mark.parametrize("code", [3, 258, -1, -254])
def test_out_of_range_env_codes_rejected(code):
    # 258 and -254 wrap onto 2 in uint8, so the range check comes first
    message = re.escape("environment codes must be 0, 1 or 2")
    with pytest.raises(ValueError, match=message):
        env_codes(np.array([code]))
    with pytest.raises(ValueError, match=message):
        extended_hata_db(900.0, 5.0, 30.0, 1.0, code)


def test_antenna_spec_validation():
    with pytest.raises(ValueError):
        AntennaSpec("a", 0.0, 0.0, -3.0, 900.0, 43.0)
    with pytest.raises(ValueError):
        AntennaSpec("a", 0.0, 0.0, 30.0, 120.0, 43.0)
    with pytest.raises(ValueError):
        AntennaSpec("", 0.0, 0.0, 30.0, 900.0, 43.0)
    with pytest.raises(ValueError):
        AntennaSpec("a", np.nan, 0.0, 30.0, 900.0, 43.0)


def field_of(specs, *args, rx_height_m=1.0, dead_threshold_dbm=DEAD_THRESHOLD_DBM):
    """`rss_field` with every link a candidate."""
    everywhere = np.ones((np.size(args[0]), len(specs)), dtype=bool)
    return rss_field(specs, *args, candidates=everywhere,
                     rx_height_m=rx_height_m, dead_threshold_dbm=dead_threshold_dbm)


class TestRssField:
    def _specs(self):
        return [
            AntennaSpec("b1", 0.0, 0.0, 30.0, 900.0, 43.0),
            AntennaSpec("b2", 5000.0, 0.0, 45.0, 2100.0, 47.0),
            AntennaSpec("b3", 0.0, 8000.0, 20.0, 450.0, 40.0),
        ]

    def test_worked_example_single_link(self):
        specs = [AntennaSpec("a", 0.0, 0.0, 30.0, 900.0, 43.0)]
        f = field_of(specs, [0], [3000.0], [0.0], ["rural"], rx_height_m=1.0)
        assert_allclose(f.rss_dbm[0, 0], 43.0 - 116.1463988614, rtol=1e-10)

    def test_matches_elementwise_scalar_oracle(self):
        specs = self._specs()
        px = np.array([1000.0, 2500.0, 7000.0, 400.0, 9000.0, 60_000.0])
        py = np.array([2000.0, -3000.0, 1000.0, 300.0, 9000.0, 0.0])
        envs = ["urban", "suburban", "rural", "urban", "rural", "urban"]
        f = field_of(specs, np.arange(6), px, py, envs, rx_height_m=1.5)
        dead = 0
        for i in range(6):
            for j, s in enumerate(specs):
                d = float(np.hypot(px[i] - s.x, py[i] - s.y)) / 1000.0
                want = s.power_dbm - extended_hata_db(s.freq_mhz, d, s.height_m, 1.5, envs[i])
                if want >= f.dead_threshold_dbm:
                    assert_allclose(f.rss_dbm[i, j], want, rtol=0, atol=1e-12)
                else:
                    assert f.rss_dbm[i, j] == -np.inf
                    dead += 1
        assert 0 < dead < f.rss_dbm.size

    def test_symmetric_pixel_sees_equal_levels(self):
        specs = [
            AntennaSpec("a", -2000.0, 0.0, 30.0, 900.0, 43.0),
            AntennaSpec("b", 2000.0, 0.0, 30.0, 900.0, 43.0),
        ]
        f = field_of(specs, [0], [0.0], [0.0], ["suburban"])
        assert f.rss_dbm[0, 0] == f.rss_dbm[0, 1]

    def test_power_offset_shifts_field(self):
        specs = self._specs()
        rng = np.random.default_rng(5)
        px = rng.uniform(-20000, 20000, 40)
        py = rng.uniform(-20000, 20000, 40)
        envs = rng.choice(["urban", "suburban", "rural"], 40)
        base = field_of(specs, np.arange(40), px, py, envs)
        bumped_specs = [
            AntennaSpec(s.bts_id, s.x, s.y, s.height_m, s.freq_mhz, s.power_dbm + 7.25)
            for s in specs
        ]
        bumped = field_of(bumped_specs, np.arange(40), px, py, envs)
        # a live link stays live and shifts by the offset; a link the offset
        # brings to life lies within the offset above the threshold
        assert np.all(bumped.live[base.live])
        assert_allclose(bumped.rss_dbm[base.live] - base.rss_dbm[base.live], 7.25, atol=1e-9)
        woken = bumped.live & ~base.live
        assert woken.any() and (~bumped.live).any()
        assert np.all(bumped.rss_dbm[woken] < base.dead_threshold_dbm + 7.25)
        assert np.all(bumped.rss_dbm[~bumped.live] == -np.inf)
        served = base.live.any(axis=1)
        assert np.array_equal(
            np.argmax(base.rss_dbm, axis=1)[served], np.argmax(bumped.rss_dbm, axis=1)[served]
        )

    def test_distance_clamp_beyond_model_range(self):
        specs = [AntennaSpec("a", 0.0, 0.0, 60.0, 900.0, 47.0)]
        args = (specs, [0, 1], [120_000.0, 100_000.0], [0.0, 0.0], ["rural", "rural"])
        f = field_of(*args)
        assert not f.live.any() and np.all(f.rss_dbm == -np.inf)
        # with the 100 km link live, the link beyond it is evaluated at the clamp
        f = field_of(*args, dead_threshold_dbm=-250.0)
        assert f.live.all()
        assert f.rss_dbm[0, 0] == f.rss_dbm[1, 0]

    def test_colocated_pixel_is_finite_and_strong(self):
        specs = [AntennaSpec("a", 500.0, 500.0, 30.0, 900.0, 45.0)]
        f = field_of(specs, [0], [500.0], [500.0], ["urban"])
        assert np.isfinite(f.rss_dbm[0, 0])
        assert f.rss_dbm[0, 0] > -40.0

    def test_dead_mask_threshold(self):
        specs = [AntennaSpec("a", 0.0, 0.0, 30.0, 900.0, 43.0)]
        f = field_of(
            specs, [0, 1], [1000.0, 80_000.0], [0.0, 0.0], ["urban", "urban"],
            dead_threshold_dbm=-110.0,
        )
        assert bool(f.live[0, 0]) and not f.live[1, 0]
        assert np.isfinite(f.rss_dbm[0, 0]) and f.rss_dbm[1, 0] == -np.inf

    def test_duplicate_bts_rejected(self):
        specs = [
            AntennaSpec("a", 0.0, 0.0, 30.0, 900.0, 43.0),
            AntennaSpec("a", 100.0, 0.0, 30.0, 900.0, 43.0),
        ]
        with pytest.raises(ValueError):
            field_of(specs, [0], [0.0], [0.0], ["urban"])

    def test_nan_and_plus_inf_levels_rejected(self):
        # NaN is dead under `live` yet wins an argmax; +inf is live with an
        # idw weight of 0: the selectors read levels as given, so neither may enter
        for bad in (np.nan, np.inf):
            rss = np.array([[-70.0, -np.inf], [-80.0, -90.0], [bad, bad]])
            with pytest.raises(ValueError, match=f"level {bad} at pixel 12, antenna 'b1': "
                                                 "levels must be finite or -inf"):
                RssField(np.array([10, 11, 12]), ["b1", "b2"], rss)
        assert not RssField(np.array([10]), ["b1"], np.array([[-np.inf]])).live.any()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RssField(np.arange(3), ["a"], np.zeros((2, 1)))
        specs = [AntennaSpec("a", 0.0, 0.0, 30.0, 900.0, 43.0)]
        with pytest.raises(ValueError, match="candidates shape"):
            rss_field(specs, [0], [0.0], [0.0], ["urban"], candidates=np.ones((1, 2), dtype=bool))
