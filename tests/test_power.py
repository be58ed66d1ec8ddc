"""Radio power states, switch commands, and per-slot draw."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greentx.errors import ConfigError, FeasibilityError
from greentx.power import (
    PmAction,
    PowerProfile,
    PowerState,
    pm_transition_pmf,
)
from oracles import required_power


def test_state_and_command_encodings():
    assert int(PowerState.OFF) == 0 and int(PowerState.ON) == 1
    assert int(PmAction.S_OFF) == 0 and int(PmAction.S_ON) == 1


def test_profile_defaults_and_validation():
    p = PowerProfile(p_on=0.32)
    assert p.p_off == 0.0
    assert p.p_tr == 0.32  # defaults to the on draw
    assert p.theta == 1.0
    with pytest.raises(ConfigError):
        PowerProfile(p_on=0.0)
    with pytest.raises(ConfigError):
        PowerProfile(p_on=0.1, p_tr=0.05)
    with pytest.raises(ConfigError):
        PowerProfile(p_on=0.1, theta=0.0)


def test_required_power_branches():
    p = PowerProfile(p_on=0.32, p_off=0.01, p_tr=0.5)
    assert required_power(PowerState.ON, PmAction.S_ON, 0.002, p) == pytest.approx(0.322)
    assert required_power(PowerState.OFF, PmAction.S_OFF, 0.0, p) == 0.01
    assert required_power(PowerState.ON, PmAction.S_OFF, 0.0, p) == 0.5
    assert required_power(PowerState.OFF, PmAction.S_ON, 0.0, p) == 0.5


def test_transmitting_needs_a_live_radio():
    p = PowerProfile(p_on=0.32)
    for x, y in [
        (PowerState.OFF, PmAction.S_ON),
        (PowerState.OFF, PmAction.S_OFF),
        (PowerState.ON, PmAction.S_OFF),
    ]:
        with pytest.raises(FeasibilityError):
            required_power(x, y, 0.001, p)


def test_switch_pmf_deterministic_switching():
    # theta = 1: the command always lands; index order is [P(off), P(on)]
    assert pm_transition_pmf(PowerState.ON, PmAction.S_OFF, 1.0).tolist() == [1.0, 0.0]
    assert pm_transition_pmf(PowerState.ON, PmAction.S_ON, 1.0).tolist() == [0.0, 1.0]
    assert pm_transition_pmf(PowerState.OFF, PmAction.S_ON, 1.0).tolist() == [0.0, 1.0]
    assert pm_transition_pmf(PowerState.OFF, PmAction.S_OFF, 1.0).tolist() == [1.0, 0.0]


def test_switch_pmf_sticky_switching():
    # a switch command succeeds with probability theta, else retries
    out = pm_transition_pmf(PowerState.ON, PmAction.S_OFF, 0.6)
    assert out.tolist() == pytest.approx([0.6, 0.4])
    out = pm_transition_pmf(PowerState.OFF, PmAction.S_ON, 0.6)
    assert out.tolist() == pytest.approx([0.4, 0.6])
    # holding the current state never fails
    assert pm_transition_pmf(PowerState.ON, PmAction.S_ON, 0.6).tolist() == [0.0, 1.0]


@given(
    st.sampled_from(list(PowerState)),
    st.sampled_from(list(PmAction)),
    st.floats(1e-6, 1.0),
)
def test_switch_pmf_is_a_distribution(x, y, theta):
    pmf = pm_transition_pmf(x, y, theta)
    assert pmf.shape == (2,)
    assert np.all(pmf >= 0.0)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_switch_pmf_rejects_bad_theta():
    with pytest.raises(ConfigError):
        pm_transition_pmf(PowerState.ON, PmAction.S_ON, 0.0)
    with pytest.raises(ConfigError):
        pm_transition_pmf(PowerState.ON, PmAction.S_ON, 1.5)
