"""Known/unknown factorization of the slot dynamics and the split solver."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greentx.config import STOCK_GAINS_DB, reduced_profile
from greentx.errors import ConvergenceError, FeasibilityError, InitializationError
from greentx.model import State
from greentx.pds import (
    FactoredDynamics,
    PostDecisionState,
    init_pds_values,
    pds_value_iteration,
    policy_from_pds,
)
from greentx.planner import bellman_fixed_point, q_values, stage_cost, value_iteration
from greentx.power import PowerProfile, PowerState
from greentx.queueing import ArrivalDistribution
from oracles import (
    all_states,
    dense_value_iteration,
    joint_transition_pmf,
    known_cost,
    known_pmf,
    lagrangian_cost,
    pds_of,
    realized_unknown_cost,
    unknown_cost,
    unknown_pmf,
)
from test_planner import _dense_problem


def test_pds_of_shifts_buffer_and_settles_radio(reduced_model):
    s = State(5, 2, PowerState.ON)
    a = reduced_model.actions[7]  # two packets at the lowest PLR
    assert a.z == 2
    st = pds_of(s, a, f_realized=1, x_next=PowerState.ON)
    assert st == PostDecisionState(4, 2, PowerState.ON)
    hold = reduced_model.actions[0]
    st2 = pds_of(s, hold, f_realized=0, x_next=PowerState.OFF)
    assert st2 == PostDecisionState(5, 2, PowerState.OFF)
    with pytest.raises(FeasibilityError):
        pds_of(s, a, f_realized=3, x_next=PowerState.ON)


def _random_feasible_pairs(model, n, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    states = all_states(model)
    while len(pairs) < n:
        s = states[int(rng.integers(model.n_s))]
        feas = model.feasible_action_indices(s)
        a = model.actions[int(rng.choice(feas))]
        pairs.append((s, a))
    return pairs


def _unknown_matrix(factored):
    """Row k: distribution of the next pre-decision state from pds index k."""
    m = factored.model
    rows = np.empty((m.n_s, m.n_s))
    for k in range(m.n_s):
        s = m.state_of(k)
        rows[k] = unknown_pmf(factored, PostDecisionState(s.b, s.h, s.x))
    return rows


def test_slot_pmf_factors_through_the_split(reduced_model_mu1):
    f = FactoredDynamics(reduced_model_mu1)
    u = _unknown_matrix(f)
    for s, a in _random_feasible_pairs(reduced_model_mu1, 200, seed=1):
        joint = joint_transition_pmf(reduced_model_mu1, s, a)
        composed = known_pmf(f, s, a) @ u
        assert np.allclose(joint, composed, atol=1e-14)


def test_slot_cost_factors_through_the_split(reduced_model_mu1):
    m = reduced_model_mu1
    f = FactoredDynamics(m)
    c_u = np.array(
        [unknown_cost(f, PostDecisionState(s.b, s.h, s.x)) for s in all_states(m)]
    )
    for s, a in _random_feasible_pairs(m, 200, seed=2):
        total = known_cost(f, s, a) + float(known_pmf(f, s, a) @ c_u)
        assert total == pytest.approx(lagrangian_cost(m, s, a), rel=1e-12)


def test_known_pmf_properties(reduced_model):
    m = reduced_model
    f = FactoredDynamics(m)
    for s, a in _random_feasible_pairs(m, 50, seed=3):
        pmf = known_pmf(f, s, a).reshape(m.n_b, m.n_h, m.n_x)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pmf >= 0.0)
        off_channel = np.delete(pmf, s.h, axis=1)
        assert np.all(off_channel == 0.0)  # channel has not moved yet
    tx = m.actions[2]
    with pytest.raises(FeasibilityError):
        known_pmf(f, State(0, 0, PowerState.ON), tx)


def test_unknown_pmf_properties(reduced_model):
    m = reduced_model
    f = FactoredDynamics(m)
    for b in (0, 4, 10):
        for h in range(m.n_h):
            for x in (PowerState.OFF, PowerState.ON):
                pmf = unknown_pmf(f, PostDecisionState(b, h, x)).reshape(
                    m.n_b, m.n_h, m.n_x
                )
                assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(pmf[:, :, 1 - int(x)] == 0.0)  # radio settled


def test_realized_unknown_cost(reduced_model):
    f = FactoredDynamics(reduced_model)
    eta = reduced_model.queue.eta
    assert realized_unknown_cost(f, 10, 3) == eta * 3
    assert realized_unknown_cost(f, 2, 1) == 0.0
    assert realized_unknown_cost(f, 9, 1) == 0.0


def test_split_solver_agrees_with_direct_solver(reduced_model_mu1):
    m = reduced_model_mu1
    f = FactoredDynamics(m)
    v_tilde, v_pre = pds_value_iteration(f)
    v_direct, pol_direct = value_iteration(m)
    assert np.allclose(v_pre.reshape(m.n_s), v_direct, atol=1e-6)
    assert np.array_equal(policy_from_pds(v_tilde, f), pol_direct)


def test_split_solver_q_agrees_across_routes(reduced_model_mu1):
    m = reduced_model_mu1
    f = FactoredDynamics(m)
    v_tilde, v_pre = pds_value_iteration(f)
    q_direct = q_values(m, v_pre.reshape(m.n_s))
    for h in range(m.n_h):
        q_slice = f.action_values_slice(h, v_tilde)  # (n_b, n_x, n_a)
        for b in range(m.n_b):
            for x in range(m.n_x):
                i = (b * m.n_h + h) * m.n_x + x
                feas = m.feasible_bxa[b, x]
                assert np.allclose(
                    q_slice[b, x, feas], q_direct[i, feas], atol=1e-6
                )
                assert np.all(np.isinf(q_slice[b, x, ~feas]))


def test_post_decision_table_is_contraction_of_pre(reduced_model_mu1):
    m = reduced_model_mu1
    f = FactoredDynamics(m)
    v_tilde, v_pre = pds_value_iteration(f)
    for b, h, x in [(0, 0, 0), (5, 2, 1), (10, 3, 0), (7, 1, 1)]:
        ev = 0.0
        for bn in range(m.n_b):
            for hn in range(m.n_h):
                ev += m.A_clamp[b, bn] * m.channel_matrix[h, hn] * v_pre[bn, hn, x]
        want = m.mu * m.queue.eta * m.o_exp[b] + m.gamma * ev
        assert v_tilde[b, h, x] == pytest.approx(want, rel=1e-12)


def test_split_solver_residuals_contract_geometrically(reduced_model_mu1):
    resids = []
    pds_value_iteration(FactoredDynamics(reduced_model_mu1), tol=1e-6, residuals=resids)
    r = np.array(resids)
    assert r[-1] < 1e-6 <= r[-2]
    assert np.all(r[1:] <= reduced_model_mu1.gamma * r[:-1] + 1e-12)


def test_split_solver_raises_when_capped(reduced_model_mu1):
    with pytest.raises(ConvergenceError):
        pds_value_iteration(FactoredDynamics(reduced_model_mu1), max_iters=2)


def test_offline_init_returns_table_under_heavy_assumed_traffic(reduced_model):
    f = FactoredDynamics(reduced_model)
    v0 = init_pds_values(f, ArrivalDistribution.deterministic(5))
    assert v0.shape == (reduced_model.n_b, reduced_model.n_h, reduced_model.n_x)
    assert np.all(np.isfinite(v0))
    assert np.all(v0 >= 0.0)


def test_offline_init_rejects_free_buffer_price(reduced_model):
    # with mu_init = 0 the buffer costs nothing, staying off is optimal
    # everywhere, and the greedy start policy can never leave the off state
    f = FactoredDynamics(reduced_model)
    with pytest.raises(InitializationError):
        init_pds_values(f, ArrivalDistribution.deterministic(5), mu_init=0.0)


def test_offline_init_rejects_zero_assumed_arrivals(reduced_model):
    # an empty buffer that never fills gives the radio no reason to wake,
    # even though backlogged levels (unreachable when nothing arrives)
    # would prefer to switch on and drain
    f = FactoredDynamics(reduced_model)
    with pytest.raises(InitializationError):
        init_pds_values(f, ArrivalDistribution.deterministic(0), mu_init=1.0)


def test_offline_init_accepts_a_single_packet_per_slot(reduced_model):
    # one packet per slot is enough pressure: the level-zero off state
    # already prefers to switch on
    f = FactoredDynamics(reduced_model)
    v0 = init_pds_values(f, ArrivalDistribution.deterministic(1))
    assert np.all(np.isfinite(v0))


# ---- the known operator against the einsum it replaces ----------------------


def _einsum_slice(m, h, v_tilde, mu):
    """Reference lookahead over one channel slice, contracted term by term."""
    ev = np.einsum(
        "abB,axX,BX->bxa", m.G_stack, m.px_stack, v_tilde[:, h, :], optimize=True
    )
    q = m.rho_hxa[h][None, :, :] + mu * m.hold_ba[:, None, :] + ev
    return np.where(m.feasible_bxa, q, np.inf)


def _masked_sweep(m, v_hbx, c_post, buffer_cost_ba):
    """Reference sweep over every (b, x, a) row, infeasible actions masked to +inf."""
    k = np.einsum("abB,axX->bxaBX", m.G_stack, m.px_stack).reshape(-1, m.n_b * m.n_x)
    cost = m.rho_hxa[:, None, :, :] + buffer_cost_ba[None, :, None, :]
    cost = np.where(m.feasible_bxa[None], cost, np.inf)
    n_h, n_b, n_x = v_hbx.shape
    u = m.channel_matrix @ v_hbx.reshape(n_h, n_b * n_x)
    w = (m.A_clamp @ u.reshape(n_h, n_b, n_x)).reshape(n_h, n_b * n_x)
    q = ((c_post + m.gamma * w) @ k.T).reshape(cost.shape) + cost
    return q.min(axis=3)


def _stochastic_rows(draw, n_rows, n_cols):
    raw = draw(
        st.lists(
            st.floats(0.05, 1.0), min_size=n_rows * n_cols, max_size=n_rows * n_cols
        )
    )
    a = np.array(raw).reshape(n_rows, n_cols)
    return a / a.sum(axis=1, keepdims=True)


@st.composite
def small_models(draw):
    """Small random models: random channel law and arrival pmf, theta < 1, p_off > 0."""
    n_h = draw(st.integers(2, 4))
    capacity = draw(st.integers(2, 6))
    cfg = reduced_profile(
        capacity=capacity,
        gains_db=tuple(
            draw(
                st.lists(
                    st.sampled_from(STOCK_GAINS_DB),
                    min_size=n_h,
                    max_size=n_h,
                    unique=True,
                )
            )
        ),
        z_max=draw(st.integers(1, min(capacity, 3))),
        plr_grid=(0.01, 0.04, 0.16)[: draw(st.integers(1, 3))],
        gamma=draw(st.floats(0.5, 0.95)),
        power=PowerProfile(
            p_on=0.32, p_off=draw(st.floats(0.001, 0.1)), theta=draw(st.floats(0.2, 0.95))
        ),
        mu=draw(st.floats(0.05, 5.0)),
    )
    n_l = draw(st.integers(1, capacity + 2))
    return (
        cfg.build_model()
        .with_channel(_stochastic_rows(draw, n_h, n_h))
        .with_arrivals(ArrivalDistribution(_stochastic_rows(draw, 1, n_l)[0]))
    )


@settings(max_examples=40, deadline=None)
@given(small_models())
def test_known_operator_matches_the_einsum_route_on_random_models(m):
    op = m.known_operator
    # packed rows: exactly the feasible (b, x, a), canonical order, no empty block
    assert np.array_equal(op.index, np.flatnonzero(m.feasible_bxa))
    assert np.array_equal(op.action, op.index % m.n_a)
    assert op.bounds[0] == 0 and op.bounds[-1] == op.index.size
    assert np.all(np.diff(op.bounds) > 0)
    assert np.array_equal(op.index // m.n_a, np.repeat(np.arange(m.n_b * m.n_x), np.diff(op.bounds)))
    f = FactoredDynamics(m)
    v_tilde, v = pds_value_iteration(f)
    for h in range(m.n_h):
        q = f.action_values_slice(h, v_tilde)
        np.testing.assert_allclose(q, _einsum_slice(m, h, v_tilde, m.mu), rtol=0, atol=1e-12)
        vals, greedy = f.state_values_slice(h, v_tilde)
        # the batch slot's block minima are the full slice's minima, bit for bit
        assert np.array_equal(f.slice_minima(h, v_tilde), q.min(axis=2))
        for b in range(m.n_b):
            for x in range(m.n_x):
                # the row and the slice may sum in different orders (last ulp)
                val, a = f.greedy_row(b, h, x, v_tilde)
                assert m.feasible_bxa[b, x, a]
                assert a == greedy[b, x]
                assert val == pytest.approx(vals[b, x], rel=0, abs=1e-12)
    # one packed sweep against the full-row masked sweep, for both solvers' costs
    v_hbx = v.transpose(1, 0, 2) + 0.5  # off the fixed point, so the sweep moves
    c_u = np.repeat(m.mu * m.queue.eta * m.o_exp, m.n_x)
    for cost_ba, c_post in ((m.mu * m.g_ba, 0.0), (m.mu * m.hold_ba, c_u)):
        swept = bellman_fixed_point(
            m, stage_cost(m, cost_ba), c_post, np.inf, 1, v_hbx.transpose(1, 0, 2), None
        )
        np.testing.assert_array_equal(swept, _masked_sweep(m, v_hbx, c_post, cost_ba))
    _, pol_vi = value_iteration(m)
    assert np.array_equal(policy_from_pds(v_tilde, f), pol_vi)


@settings(max_examples=40, deadline=None)
@given(small_models())
def test_both_solvers_match_the_dense_oracle_on_random_models(m):
    costs, trans = _dense_problem(m)
    v_ref, _, pol_ref = dense_value_iteration(
        costs, trans, m.gamma, tol=1e-12, feasible=m.feasible_sa
    )
    bound = 1e-9 / (1.0 - m.gamma)
    v, pol = value_iteration(m)
    f = FactoredDynamics(m)
    v_tilde, v_pds = pds_value_iteration(f)
    assert np.array_equal(pol, pol_ref)
    assert np.array_equal(policy_from_pds(v_tilde, f), pol_ref)
    np.testing.assert_allclose(v, v_ref, rtol=0, atol=bound)
    np.testing.assert_allclose(v_pds.reshape(m.n_s), v_ref, rtol=0, atol=bound)
