"""Joint MDP assembly: action ordering, feasibility masks, kernels, costs."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greentx.errors import ConfigError, FeasibilityError
from greentx.model import Action, JointModel, State
from greentx.phy import PhyConfig, bits_per_symbol, snr_for_bep
from greentx.power import PmAction, PowerProfile, PowerState
from greentx.queueing import ArrivalDistribution, QueueConfig
from oracles import (
    all_states,
    buffer_cost,
    buffer_transition_pmf,
    expected_buffer_cost,
    expected_overflow,
    feasible_action_indices,
    feasible_actions,
    feasible_sa,
    g_ba,
    goodput_pmf,
    is_feasible,
    joint_transition_pmf,
    known_matrix_by_broadcast,
    lagrangian_cost,
    power_cost,
    required_power,
    tables_by_slices,
    tx_power,
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
    idx = feasible_action_indices(reduced_model, State(5, 1, PowerState.ON))
    assert np.all(np.diff(idx) > 0)


def test_state_index_round_trip(reduced_model):
    m = reduced_model
    assert m.n_s == 88
    for i in range(m.n_s):
        s = m.state_of(i)
        assert m.state_index(s) == i
        assert m.decode(i) == (s.b, s.h, int(s.x)) and m.encode(*m.decode(i)) == i
    assert m.state_index(State(2, 3, PowerState.ON)) == (2 * m.n_h + 3) * 2 + 1


def test_feasible_sa_matches_per_pair_predicate(reduced_model):
    m = reduced_model
    rng = np.random.default_rng(7)
    for _ in range(200):
        i = int(rng.integers(m.n_s))
        j = int(rng.integers(m.n_a))
        s = m.state_of(i)
        want = is_feasible(m, s, m.actions[j])
        assert feasible_sa(m)[i, j] == want
        assert (j < m.n_feasible[s.b, s.x]) == want  # the model's feasible prefix


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
    # every (b, a) with z <= b has a row at the radio on, so this covers every
    # action from every buffer level that it can send from
    m = reduced_model
    op = m.known_operator
    pb_rows = op.buffer_rows(slice(None)) @ m.A_clamp
    # the dense operator's columns summed over the next radio state X
    pb_matrix = op.matrix.reshape(m.n_b, m.n_x, -1).sum(axis=1).T @ m.A_clamp
    for r, (b, i) in enumerate(zip(op.b.tolist(), op.action.tolist())):
        a = m.actions[i]
        want = buffer_transition_pmf(b, a.z, a.bep.plr, m.arrivals, m.queue.capacity)
        assert np.allclose(pb_rows[r], want, atol=1e-15)
        assert np.allclose(pb_matrix[r], want, atol=1e-15)


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
    want = np.array([
        [tx_power(float(g), a.bep.bep, a.z, m.phy) for a in m.actions] for g in m.gains_db
    ])
    assert np.all(m.tx_ha == want)


def test_power_table_matches_the_scalar_rule(reduced_model):
    m = reduced_model
    for h in range(m.n_h):
        for x in (PowerState.OFF, PowerState.ON):
            for i, a in enumerate(m.actions):
                if a.z > 0 and x != PowerState.ON:
                    assert m.rho_hxa[h, int(x), i] == np.inf
                else:
                    assert m.rho_hxa[h, int(x), i] == required_power(x, a.y, m.tx_ha[h, i], m.profile)


def test_expected_buffer_cost_matches_reference(reduced_model):
    m = reduced_model
    table = g_ba(m)
    for i, a in enumerate(m.actions):
        for b in range(a.z, m.n_b):
            want = buffer_cost(
                b, a.z, a.bep.plr, m.arrivals, m.queue.capacity, m.queue.eta
            )
            assert table[b, i] == pytest.approx(want, rel=1e-12)


def test_holding_term_formula(reduced_model):
    m = reduced_model
    for i, a in enumerate(m.actions):
        for b in range(m.n_b):
            assert m.hold_ba[b, i] == pytest.approx(
                b - a.z * (1.0 - a.bep.plr), abs=1e-15
            )


def test_lagrangian_combines_power_and_buffer(reduced_model):
    m = reduced_model
    s = State(6, 1, PowerState.ON)
    for a in feasible_actions(m, s):
        want = power_cost(m, s, a) + 1.0 * expected_buffer_cost(m, s, a)
        assert lagrangian_cost(m, s, a, 1.0) == pytest.approx(want, rel=1e-12)
        scaled = power_cost(m, s, a) + 2.5 * expected_buffer_cost(m, s, a)
        assert lagrangian_cost(m, s, a, mu=2.5) == pytest.approx(scaled, rel=1e-12)


def test_clones_leave_the_original_untouched(reduced_model):
    # the model is the plant alone: the price is every solver's argument
    assert not hasattr(reduced_model, "mu")
    m2 = reduced_model.with_statistics(ArrivalDistribution.deterministic(1), np.eye(reduced_model.n_h))
    assert m2 is not reduced_model
    assert m2.arrivals.mean == 1.0
    assert np.array_equal(m2.channel_matrix, np.eye(reduced_model.n_h))
    assert reduced_model.arrivals.mean == pytest.approx(2.0, abs=1e-7)
    assert reduced_model.channel_matrix[0, 0] == 0.8


def _stochastic(draw, n_rows, n_cols):
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    a = np.array(raw).reshape(n_rows, n_cols)
    return a / a.sum(axis=1, keepdims=True)


def _tables(m):
    return {k: v for k, v in vars(m).items() if isinstance(v, np.ndarray)}


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_clones_equal_a_fresh_build_and_share_their_tables(reduced_model, data):
    m = reduced_model
    arrivals = ArrivalDistribution(_stochastic(data.draw, 1, data.draw(st.integers(1, m.n_b + 2)))[0])
    channel = _stochastic(data.draw, m.n_h, m.n_h)
    clone = m.with_statistics(arrivals, channel)
    fresh = JointModel(
        gains_db=m.gains_db,
        channel_matrix=channel,
        arrivals=arrivals,
        phy=m.phy,
        profile=m.profile,
        queue=m.queue,
        plr_grid=m.plr_grid,
        z_max=m.z_max,
        gamma=m.gamma,
    )
    want = _tables(fresh)
    got = _tables(clone)
    assert got.keys() == want.keys()
    for name, table in want.items():
        assert np.array_equal(got[name], table), name
    # the statistics enter only their own tables: the clone holds the parent's others
    for name, table in _tables(m).items():
        if name not in ("channel_matrix", "A_clamp", "o_exp"):
            assert getattr(clone, name) is table, name
    assert clone.known_operator is m.known_operator
    with pytest.raises(ValueError):
        fresh.o_exp[0] = 1.0
    with pytest.raises(ValueError):
        clone.rho_hxa[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        clone.A_clamp[0, 0] = 0.5
    with pytest.raises(ValueError):
        clone.channel_matrix[0, 0] = 0.5
    with pytest.raises(ConfigError):
        m.with_statistics(arrivals, channel * 0.5)


def _random_model(data):
    """A model with random capacity, z_max, PLR grid, radio switch chance theta and arrivals."""
    capacity = data.draw(st.integers(1, 30))
    n_plr = data.draw(st.integers(1, 5))
    plrs = data.draw(st.lists(st.floats(1e-6, 0.5), min_size=n_plr, max_size=n_plr, unique=True))
    return JointModel(
        gains_db=(-5.0, 0.0, 5.0),
        channel_matrix=np.full((3, 3), 1.0 / 3.0),
        arrivals=ArrivalDistribution(_stochastic(data.draw, 1, data.draw(st.integers(1, capacity + 4)))[0]),
        phy=PhyConfig(),
        profile=PowerProfile(p_on=0.32, theta=data.draw(st.floats(0.0, 1.0, exclude_min=True))),
        queue=QueueConfig(capacity=capacity, eta=1.0),
        plr_grid=sorted(plrs),
        z_max=data.draw(st.integers(1, min(capacity, 10))),
        gamma=0.9,
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_diagonal_build_equals_the_slice_by_slice_build(data):
    m = _random_model(data)
    want = tables_by_slices(m)
    for name in ("px_stack", "A_clamp"):
        got = getattr(m, name)
        assert got.dtype == want[name].dtype and got.shape == want[name].shape, name
        assert got.tobytes() == want[name].tobytes(), name
    # the model never forms G_stack: the goodput rows and radio laws of the
    # known operator's rows are its rows and px_stack's, byte for byte
    op = m.known_operator
    for got, table, index in (
        (op.buffer_rows(slice(None)), want["G_stack"], (op.action, op.b)),
        (op.laws[op.law], want["px_stack"], (op.action, op.x)),
    ):
        assert got.dtype == table.dtype and got.shape == table[index].shape
        assert got.tobytes() == table[index].tobytes()


def _canonical_actions(m):
    """S_OFF and S_ON sending nothing, then S_ON with z ascending and the PLR level fastest."""
    lvl0 = m.bep_levels[0]
    sends = [Action(lvl, PmAction.S_ON, z) for z in range(1, m.z_max + 1) for lvl in m.bep_levels]
    return (Action(lvl0, PmAction.S_OFF, 0), Action(lvl0, PmAction.S_ON, 0), *sends)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_table_build_equals_the_scalar_rules_byte_for_byte(data):
    m = _random_model(data)
    # arrival supports shorter and longer than the capacity
    n_l = data.draw(st.integers(1, 2 * m.queue.capacity + 3))
    m = m.with_statistics(ArrivalDistribution(_stochastic(data.draw, 1, n_l)[0]), m.channel_matrix)
    cap = m.queue.capacity
    noise, gain = m.phy.noise_power_w, [10.0 ** (g / 10.0) for g in m.gains_db.tolist()]
    for i, a in enumerate(_canonical_actions(m)):
        assert (m.action_z[i], m.action_y[i], m.action_plr[i]) == (a.z, int(a.y), a.bep.plr)
        # goodput[a, f] for f = 0..z, and no chance past z
        assert m.goodput[i, : a.z + 1].tobytes() == goodput_pmf(a.z, a.bep.plr).tobytes(), a
        assert not m.goodput[i, a.z + 1 :].any(), a
        snr = 0.0 if a.z == 0 else snr_for_bep(a.bep.bep, bits_per_symbol(a.z, m.phy))
        want = np.array([snr * noise / g for g in gain])
        assert m.tx_ha[:, i].tobytes() == want.tobytes(), a
    want = np.array([expected_overflow(b, m.arrivals, cap) for b in range(m.n_b)])
    assert m.o_exp.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_actions_are_built_on_first_use_and_survive_clones(data):
    m = _random_model(data)
    early = m.with_statistics(m.arrivals, m.channel_matrix)  # cloned before anyone asked for the actions
    want = _canonical_actions(m)
    assert m.actions == want and early.actions == want
    assert m.action_index == early.action_index == {a: i for i, a in enumerate(want)}
    late = m.with_statistics(ArrivalDistribution.deterministic(1), m.channel_matrix)
    assert late.actions is m.actions and late.action_index is m.action_index
    assert len(m.actions) == m.n_a


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_known_matrix_equals_the_broadcast_product_in_bytes_and_layout(data):
    _assert_matrix_equals_the_broadcast_product(
        _random_model(data), np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    )


def test_the_learners_matrix_at_the_table_profile_equals_the_broadcast_product(full_model):
    _assert_matrix_equals_the_broadcast_product(full_model, np.random.default_rng(7))


def _assert_matrix_equals_the_broadcast_product(m, rng):
    """The dense matrix that FactoredDynamics reads, built from the goodput rows,
    against the broadcast product of the slice-by-slice G_stack and px_stack."""
    got = m.known_operator.matrix
    want = known_matrix_by_broadcast(m)
    assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
    assert got.tobytes(order="A") == want.tobytes(order="A")
    # BLAS's summation order follows the layout: the products must agree too
    for v in (rng.random(got.shape[0]), rng.standard_normal((m.n_h, got.shape[0]))):
        assert (v @ got).tobytes() == (v @ want).tobytes()


def test_validation_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        _tiny_model(channel_matrix=((0.9,),))  # rows must sum to 1
    with pytest.raises(ConfigError):
        _tiny_model(channel_matrix=((1.0, 0.0),))  # shape mismatch
    with pytest.raises(ConfigError):
        _tiny_model(gamma=1.0)
    with pytest.raises(TypeError):
        _tiny_model(mu=1.0)  # the model takes no price
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


@pytest.mark.parametrize(
    "gains_db",
    [
        (-4000.0, -10.0),  # a gain that underflows to 0: an infinite transmit power
        (-3200.0,),  # a subnormal gain: the transmit power overflows
        (4000.0,),  # a gain above the float range
        (float("nan"),),
        (float("inf"),),
    ],
)
def test_a_channel_gain_without_a_finite_transmit_power_is_refused_by_name(gains_db):
    # refused as the plant's fault, before any solve can blame the price, and
    # without numpy's divide or overflow warnings on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"gains_db"):
            _tiny_model(gains_db=gains_db, channel_matrix=np.eye(len(gains_db)))


def test_tiny_model_smoke():
    m = _tiny_model()
    assert m.n_s == 4 * 1 * 2
    assert m.n_a == 2 + 2 * 2
    s = State(3, 0, PowerState.ON)
    a = m.actions[2]
    assert joint_transition_pmf(m, s, a).sum() == pytest.approx(1.0, abs=1e-12)
