"""Joint MDP assembly: action ordering, feasibility masks, kernels, costs."""
import numpy as np
import pytest

from greentx.errors import ConfigError, FeasibilityError
from greentx.model import Action, JointModel, State
from greentx.phy import PhyConfig, tx_power
from greentx.power import PmAction, PowerProfile, PowerState
from greentx.queueing import ArrivalDistribution, QueueConfig
from oracles import (
    all_states,
    buffer_cost,
    buffer_transition_pmf,
    expected_buffer_cost,
    feasible_actions,
    joint_transition_pmf,
    lagrangian_cost,
    power_cost,
)

TX_BEST_GAIN_Z1_PLR1 = 0.00012385257154998638  # -2.08 dB, one packet, 1% PLR


def _tiny_model(**overrides):
    kw = dict(
        gains_db=(-2.08,),
        channel_matrix=((1.0,),),
        arrivals=ArrivalDistribution.deterministic(0),
        phy=PhyConfig(),
        profile=PowerProfile(p_on=0.32),
        queue=QueueConfig(3, 49.0),
        plr_grid=(0.01, 0.02),
        z_max=2,
        gamma=0.98,
    )
    kw.update(overrides)
    return JointModel(**kw)


def test_canonical_action_order(reduced_model):
    m = reduced_model
    assert m.n_a == 2 + m.z_max * len(m.plr_grid) == 52
    assert m.actions[0].y == PmAction.S_OFF and m.actions[0].z == 0
    assert m.actions[1].y == PmAction.S_ON and m.actions[1].z == 0
    for z in range(1, m.z_max + 1):
        for j, plr in enumerate(m.plr_grid):
            a = m.actions[2 + len(m.plr_grid) * (z - 1) + j]
            assert (a.z, a.bep.plr, a.y) == (z, plr, PmAction.S_ON)


def test_action_index_inverts_actions(reduced_model):
    for i, a in enumerate(reduced_model.actions):
        assert reduced_model.action_index[a] == i


def test_feasible_action_counts(reduced_model):
    m = reduced_model
    assert len(feasible_actions(m, State(0, 0, PowerState.ON))) == 2
    assert len(feasible_actions(m, State(3, 0, PowerState.OFF))) == 2
    assert len(feasible_actions(m, State(3, 0, PowerState.ON))) == 2 + 3 * 5
    assert len(feasible_actions(m, State(10, 2, PowerState.ON))) == m.n_a


def test_feasible_indices_are_canonically_ordered(reduced_model):
    idx = reduced_model.feasible_action_indices(State(5, 1, PowerState.ON))
    assert np.all(np.diff(idx) > 0)


def test_state_index_round_trip(reduced_model):
    m = reduced_model
    assert m.n_s == 88
    for i in range(m.n_s):
        s = m.state_of(i)
        assert m.state_index(s) == i
    assert m.state_index(State(2, 3, PowerState.ON)) == (2 * m.n_h + 3) * 2 + 1


def test_feasible_sa_matches_per_pair_predicate(reduced_model):
    m = reduced_model
    rng = np.random.default_rng(7)
    for _ in range(200):
        i = int(rng.integers(m.n_s))
        j = int(rng.integers(m.n_a))
        assert m.feasible_sa[i, j] == m.is_feasible(m.state_of(i), m.actions[j])


def test_joint_transition_is_a_distribution(reduced_model):
    m = reduced_model
    for s in all_states(m):
        for a in feasible_actions(m, s):
            pmf = joint_transition_pmf(m, s, a)
            assert pmf.shape == (m.n_s,)
            assert np.all(pmf >= 0.0)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_joint_transition_rejects_infeasible(reduced_model):
    tx = reduced_model.actions[2]
    with pytest.raises(FeasibilityError):
        joint_transition_pmf(reduced_model, State(5, 0, PowerState.OFF), tx)
    with pytest.raises(FeasibilityError):
        joint_transition_pmf(reduced_model, State(0, 0, PowerState.ON), tx)


def test_pb_stack_matches_reference_pmf(reduced_model):
    m = reduced_model
    pb_stack = m.G_stack @ m.A_clamp
    for i, a in enumerate(m.actions):
        for b in range(a.z, m.n_b):
            want = buffer_transition_pmf(
                b, a.z, a.bep.plr, m.arrivals, m.queue.capacity
            )
            assert np.allclose(pb_stack[i, b], want, atol=1e-15)


def test_power_cost_branches(reduced_model):
    m = reduced_model
    p = m.profile
    off, on = PowerState.OFF, PowerState.ON
    hold_off, hold_on = m.actions[0], m.actions[1]
    tx1 = m.actions[2]  # one packet at the lowest PLR
    assert power_cost(m, State(4, 3, off), hold_off) == p.p_off
    assert power_cost(m, State(4, 3, on), hold_on) == p.p_on
    assert power_cost(m, State(4, 3, off), hold_on) == p.p_tr
    assert power_cost(m, State(4, 3, on), hold_off) == p.p_tr
    assert power_cost(m, State(4, 3, on), tx1) == pytest.approx(
        p.p_on + TX_BEST_GAIN_Z1_PLR1, rel=1e-12
    )


def test_transmit_power_never_infinite_when_radio_on(reduced_model):
    m = reduced_model
    assert np.all(np.isfinite(m.rho_hxa[:, int(PowerState.ON), :]))
    off_col = m.rho_hxa[:, int(PowerState.OFF), :]
    assert np.all(np.isinf(off_col[:, m.action_z > 0]))
    assert np.all(np.isfinite(off_col[:, m.action_z == 0]))


def test_tx_table_matches_phy_function(reduced_model):
    m = reduced_model
    rng = np.random.default_rng(3)
    for _ in range(40):
        h = int(rng.integers(m.n_h))
        i = int(rng.integers(m.n_a))
        a = m.actions[i]
        want = tx_power(float(m.gains_db[h]), a.bep.bep, a.z, m.phy)
        assert m.tx_ha[h, i] == want


def test_expected_buffer_cost_matches_reference(reduced_model):
    m = reduced_model
    for i, a in enumerate(m.actions):
        for b in range(a.z, m.n_b):
            want = buffer_cost(
                b, a.z, a.bep.plr, m.arrivals, m.queue.capacity, m.queue.eta
            )
            assert m.g_ba[b, i] == pytest.approx(want, rel=1e-12)


def test_holding_term_formula(reduced_model):
    m = reduced_model
    for i, a in enumerate(m.actions):
        for b in range(m.n_b):
            assert m.hold_ba[b, i] == pytest.approx(
                b - a.z * (1.0 - a.bep.plr), abs=1e-15
            )


def test_lagrangian_combines_power_and_buffer(reduced_model_mu1):
    m = reduced_model_mu1
    s = State(6, 1, PowerState.ON)
    for a in feasible_actions(m, s):
        want = power_cost(m, s, a) + 1.0 * expected_buffer_cost(m, s, a)
        assert lagrangian_cost(m, s, a) == pytest.approx(want, rel=1e-12)
        scaled = power_cost(m, s, a) + 2.5 * expected_buffer_cost(m, s, a)
        assert lagrangian_cost(m, s, a, mu=2.5) == pytest.approx(scaled, rel=1e-12)


def test_clones_leave_the_original_untouched(reduced_model):
    base_mu = reduced_model.mu
    m2 = reduced_model.with_mu(base_mu + 2.0)
    assert m2.mu == base_mu + 2.0 and reduced_model.mu == base_mu
    assert m2 is not reduced_model
    m3 = reduced_model.with_arrivals(ArrivalDistribution.deterministic(1))
    assert m3.arrivals.mean == 1.0
    assert reduced_model.arrivals.mean == pytest.approx(2.0, abs=1e-7)
    m4 = reduced_model.with_channel(np.eye(reduced_model.n_h))
    assert np.array_equal(m4.channel_matrix, np.eye(reduced_model.n_h))


def test_validation_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        _tiny_model(channel_matrix=((0.9,),))  # rows must sum to 1
    with pytest.raises(ConfigError):
        _tiny_model(channel_matrix=((1.0, 0.0),))  # shape mismatch
    with pytest.raises(ConfigError):
        _tiny_model(gamma=1.0)
    with pytest.raises(ConfigError):
        _tiny_model(mu=-0.1)
    with pytest.raises(ConfigError):
        _tiny_model(plr_grid=(0.02, 0.01))
    with pytest.raises(ConfigError):
        _tiny_model(plr_grid=(0.01, 0.01))
    with pytest.raises(ConfigError):
        _tiny_model(plr_grid=(0.0, 0.5))
    with pytest.raises(ConfigError):
        _tiny_model(z_max=0)
    with pytest.raises(ConfigError):
        _tiny_model(z_max=11)  # needs 11 bits/symbol, above the limit of 10


def test_tiny_model_smoke():
    m = _tiny_model()
    assert m.n_s == 4 * 1 * 2
    assert m.n_a == 2 + 2 * 2
    s = State(3, 0, PowerState.ON)
    a = m.actions[2]
    assert joint_transition_pmf(m, s, a).sum() == pytest.approx(1.0, abs=1e-12)
