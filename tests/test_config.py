"""Config construction, validation, serialization, and wiring."""
import json
import types
import typing

import numpy as np
import pytest

from greentx.config import (
    REDUCED_GAINS_DB,
    STOCK_GAINS_DB,
    ExperimentConfig,
    reduced_profile,
    table_profile,
)
from greentx.env import birth_death_matrix
from greentx.errors import ConfigError
from greentx.phy import PhyConfig
from greentx.power import PowerProfile, PowerState


def test_json_round_trip_is_lossless(tmp_path):
    cfg = table_profile(seed=3, horizon=1234, algorithm="q", mu=0.5)
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg
    path = tmp_path / "run.json"
    cfg.save(path)
    assert ExperimentConfig.load(path) == cfg


def test_json_integers_in_float_fields_are_stored_as_floats():
    """A number written 1 or 1.0 gives one config, and so one model fingerprint."""
    ints = {
        "mu": 1, "gamma": 0, "eta": 49, "gains_db": [-19, -11, -8, -2],
        "channel_matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        "phy": {"slot_seconds": 1, "noise_psd_w_per_hz": 2e-11},
        "power": {"p_on": 1, "p_tr": 2},
    }
    floats = {
        "mu": 1.0, "gamma": 0.0, "eta": 49.0, "gains_db": [-19.0, -11.0, -8.0, -2.0],
        "channel_matrix": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                           [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        "phy": {"slot_seconds": 1.0, "noise_psd_w_per_hz": 2e-11},
        "power": {"p_on": 1.0, "p_tr": 2.0},
    }
    a, b = ExperimentConfig.from_dict(ints), ExperimentConfig.from_dict(floats)
    assert a == b and a.to_json() == b.to_json()
    assert a.model_fingerprint() == b.model_fingerprint()
    assert type(a.mu) is type(a.gamma) is type(a.eta) is float
    assert {type(g) for g in a.gains_db} == {float}
    assert {type(v) for row in a.channel_matrix for v in row} == {float}
    assert type(a.phy.slot_seconds) is type(a.power.p_on) is type(a.power.p_tr) is float
    # integer fields keep integers, and true is still no number
    assert type(ExperimentConfig.from_dict({"seed": 3}).seed) is int
    for bad in ({"mu": True}, {"gains_db": [1, True]}, {"mu": 10**400}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)


def _holding(tp, number):
    """A JSON value of the field type ``tp`` whose float is ``number``; None if ``tp`` holds no float."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is float:
        return number
    if origin is types.UnionType:  # X | None
        return _holding(args[0], number)
    if origin is tuple:
        inner = _holding(args[0], number)
        return None if inner is None else [inner]
    return None


# (section, key, field type) of every field that holds a float, alone or in a tuple
FLOAT_FIELDS = [
    (section, key, tp)
    for section, cls in ((None, ExperimentConfig), ("phy", PhyConfig), ("power", PowerProfile))
    for key, tp in typing.get_type_hints(cls).items()
    if _holding(tp, 0.0) is not None
]


def test_every_kind_of_float_field_is_listed():
    keys = {key for _, key, _ in FLOAT_FIELDS}
    assert {"g_bar", "eta", "plr_grid", "channel_matrix", "slot_seconds", "p_on", "p_tr"} <= keys
    assert len(FLOAT_FIELDS) == 31  # 23 top-level, 4 phy, 4 power


@pytest.mark.parametrize("number", [float("nan"), float("inf"), float("-inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("section, key, tp", FLOAT_FIELDS, ids=[f"{s or 'config'}.{k}" for s, k, _ in FLOAT_FIELDS])
def test_a_non_finite_number_is_refused_in_every_float_field(section, key, tp, number):
    # Python's json reads NaN, Infinity and -Infinity, which json.dumps writes
    given = {key: _holding(tp, number)}
    if section == "power":
        given = {"p_on": 0.32, **given}
    text = json.dumps(given if section is None else {section: given})
    assert "NaN" in text or "Infinity" in text
    with pytest.raises(ConfigError, match=f"{key!r} must be finite"):
        ExperimentConfig.from_json(text)


@pytest.mark.parametrize("levels", [{"p_on": float("inf")}, {"p_on": 0.32, "p_tr": float("inf")},
                                    {"p_on": 0.32, "p_tr": float("nan")}])
def test_power_levels_must_be_finite(levels):
    with pytest.raises(ConfigError):
        PowerProfile(**levels)


def test_round_trip_with_explicit_channel_matrix():
    mat = tuple(tuple(row) for row in birth_death_matrix(4).tolist())
    cfg = reduced_profile(channel_matrix=mat)
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    assert np.array_equal(back.resolved_channel_matrix(), np.array(mat))


def test_validation_errors():
    with pytest.raises(ConfigError):
        table_profile(algorithm="sarsa")
    with pytest.raises(ConfigError):
        table_profile(arrival_mode="bursty")
    with pytest.raises(ConfigError):
        table_profile(x_init="standby")
    with pytest.raises(ConfigError):
        table_profile(h_init=8)
    with pytest.raises(ConfigError):
        table_profile(b_init=26)
    with pytest.raises(ConfigError):
        table_profile(horizon=0)
    with pytest.raises(ConfigError):
        table_profile(seed=-1)
    with pytest.raises(ConfigError):
        table_profile(ve_period=0)
    with pytest.raises(ConfigError):
        table_profile(epoch_slots=0)
    with pytest.raises(ConfigError):
        reduced_profile(z_max=11)  # cannot exceed the 10-packet buffer


def test_drop_weight_defaults_to_discount_ratio():
    assert table_profile().effective_eta == 49.0
    assert table_profile(eta=12.0).effective_eta == 12.0
    assert table_profile(gamma=0.5).effective_eta == 1.0


def test_arrival_distribution_modes():
    assert table_profile().arrival_distribution().mean == pytest.approx(2.0, abs=1e-7)
    det = table_profile(arrival_mode="deterministic", arrival_count=5)
    assert det.arrival_distribution().pmf.tolist() == [0, 0, 0, 0, 0, 1]
    uni = table_profile(arrival_mode="uniform", arrival_count=4)
    assert uni.arrival_distribution().pmf.tolist() == [0.2] * 5
    mm = table_profile(arrival_mode="mmpp")
    assert mm.arrival_distribution().pmf.sum() == 1.0
    assert mm.build_arrival_model().mode == "mmpp"


def test_default_channel_is_nearest_neighbor():
    cfg = table_profile()
    assert np.array_equal(
        cfg.resolved_channel_matrix(), birth_death_matrix(8, 0.6, 0.2)
    )
    red = reduced_profile()
    assert red.resolved_channel_matrix().shape == (4, 4)


def test_profiles_fix_the_documented_grids():
    cfg = table_profile()
    assert cfg.gains_db == STOCK_GAINS_DB and len(cfg.gains_db) == 8
    assert cfg.capacity == 25 and cfg.z_max == 10
    assert cfg.plr_grid == (0.01, 0.02, 0.04, 0.08, 0.16)
    red = reduced_profile()
    assert red.gains_db == REDUCED_GAINS_DB and red.capacity == 10
    assert table_profile(p_on=0.5).power == PowerProfile(p_on=0.5)


def test_build_model_dimensions():
    m = reduced_profile().build_model()
    assert (m.n_b, m.n_h, m.n_x, m.n_a) == (11, 4, 2, 52)
    assert m.queue.eta == 49.0
    full = table_profile().build_model()
    assert (full.n_b, full.n_h, full.n_s) == (26, 8, 416)


def test_initial_state_resolution():
    cfg = reduced_profile()
    s = cfg.initial_state()
    assert (s.b, s.h, s.x) == (0, 2, PowerState.ON)
    s2 = reduced_profile(x_init="off", h_init=0, b_init=4).initial_state()
    assert (s2.b, s2.h, s2.x) == (4, 0, PowerState.OFF)


def test_learning_pieces_reflect_fields():
    cfg = reduced_profile(mu=0.25, g_bar=3.0, mu_max=2.0, eps_start=0.3)
    mult = cfg.multiplier()
    assert (mult.mu, mult.target, mult.mu_max) == (0.25, 3.0, 2.0)
    sched = cfg.schedules()
    assert sched.eps_start == 0.3 and sched.alpha_power == 0.7
    assert cfg.init_arrivals().pmf.tolist() == [0, 0, 0, 0, 0, 1]


def test_fingerprint_tracks_model_inputs_only():
    base = table_profile().model_fingerprint()
    assert table_profile(seed=99, horizon=5).model_fingerprint() == base
    assert table_profile(algorithm="q").model_fingerprint() == base
    assert table_profile(capacity=24).model_fingerprint() != base
    assert table_profile(mu=0.1).model_fingerprint() != base
    assert table_profile(p_on=0.33).model_fingerprint() != base
    assert table_profile(arrival_rate_pkts_per_s=100.0).model_fingerprint() != base
