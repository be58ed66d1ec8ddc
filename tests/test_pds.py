"""Known/unknown factorization of the slot dynamics and the split solver."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greentx import planner
from greentx.config import STOCK_GAINS_DB, reduced_profile
from greentx.errors import ConvergenceError, FeasibilityError, InitializationError
from greentx.harness import run_experiment, solve_tables
from greentx.model import KnownOperator, State
from greentx.pds import FactoredDynamics, init_pds_values, pds_value_iteration
from greentx.planner import (
    TIE_TOL,
    _evaluate_rows,
    action_free_values,
    bellman_fixed_point,
    greedy_policy,
    known_lookahead,
    split_costs,
    value_iteration,
)
from greentx.power import PowerProfile, PowerState
from greentx.queueing import ArrivalDistribution
from oracles import (
    PostDecisionState,
    action_values_slice,
    all_states,
    dense_evaluate_rows,
    dense_lookahead,
    dense_tables,
    dense_value_iteration,
    feasible_action_indices,
    feasible_bxa,
    feasible_sa,
    flat_q,
    g_ba,
    gmres_mgs,
    greedy_from_q,
    joint_transition_pmf,
    known_cost,
    lookahead_by_pack,
    known_pmf,
    lagrangian_cost,
    pds_of,
    post_decision_policy,
    q_values,
    realized_unknown_cost,
    stage_cost_by_pack,
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
        feas = feasible_action_indices(model, s)
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


def test_slot_pmf_factors_through_the_split(reduced_model):
    f = FactoredDynamics(reduced_model)
    u = _unknown_matrix(f)
    for s, a in _random_feasible_pairs(reduced_model, 200, seed=1):
        joint = joint_transition_pmf(reduced_model, s, a)
        composed = known_pmf(f, s, a) @ u
        assert np.allclose(joint, composed, atol=1e-14)


def test_slot_cost_factors_through_the_split(reduced_model):
    m, mu = reduced_model, 1.0
    f = FactoredDynamics(m)
    c_u = np.array(
        [unknown_cost(f, PostDecisionState(s.b, s.h, s.x), mu) for s in all_states(m)]
    )
    for s, a in _random_feasible_pairs(m, 200, seed=2):
        total = known_cost(f, s, a, mu) + float(known_pmf(f, s, a) @ c_u)
        assert total == pytest.approx(lagrangian_cost(m, s, a, mu), rel=1e-12)


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


def test_split_solver_agrees_with_direct_solver(reduced_model):
    m = reduced_model
    split = pds_value_iteration(m, 1.0)
    direct = value_iteration(m, 1.0)
    assert np.allclose(split.v, direct.v, atol=1e-6)
    assert np.array_equal(post_decision_policy(m, split.v_tilde, 1.0), direct.policy)


def test_split_solver_q_agrees_across_routes(reduced_model):
    m, mu = reduced_model, 1.0
    f = FactoredDynamics(m)
    sol = pds_value_iteration(m, mu)
    v_tilde = sol.v_tilde
    q_direct = q_values(m, sol.v, mu)
    for h in range(m.n_h):
        q_slice = action_values_slice(f, h, v_tilde, mu)  # (n_b, n_x, n_a)
        for b in range(m.n_b):
            for x in range(m.n_x):
                i = (b * m.n_h + h) * m.n_x + x
                feas = feasible_bxa(m)[b, x]
                assert np.allclose(
                    q_slice[b, x, feas], q_direct[i, feas], atol=1e-6
                )
                assert np.all(np.isinf(q_slice[b, x, ~feas]))


def test_post_decision_table_is_contraction_of_pre(reduced_model):
    m, mu = reduced_model, 1.0
    sol = pds_value_iteration(m, mu)
    v_tilde, v_pre = sol.v_tilde, sol.v.reshape(m.n_b, m.n_h, m.n_x)
    for b, h, x in [(0, 0, 0), (5, 2, 1), (10, 3, 0), (7, 1, 1)]:
        ev = 0.0
        for bn in range(m.n_b):
            for hn in range(m.n_h):
                ev += m.A_clamp[b, bn] * m.channel_matrix[h, hn] * v_pre[bn, hn, x]
        want = mu * m.queue.eta * m.o_exp[b] + m.gamma * ev
        assert v_tilde[b, h, x] == pytest.approx(want, rel=1e-12)


def test_split_solver_residuals_contract_geometrically(reduced_model):
    resids = []
    pds_value_iteration(reduced_model, 1.0, tol=1e-6, residuals=resids)
    r = np.array(resids)
    assert r[-1] < 1e-6 <= r[-2]
    assert np.all(r[1:] <= reduced_model.gamma * r[:-1] + 1e-12)


def test_split_solver_raises_when_capped(reduced_model):
    with pytest.raises(ConvergenceError):
        pds_value_iteration(reduced_model, 1.0, max_iters=2)


def test_offline_init_returns_table_under_heavy_assumed_traffic(reduced_model):
    v0 = init_pds_values(reduced_model, ArrivalDistribution.deterministic(5))
    assert v0.shape == (reduced_model.n_b, reduced_model.n_h, reduced_model.n_x)
    assert np.all(np.isfinite(v0))
    assert np.all(v0 >= 0.0)


def test_offline_init_rejects_free_buffer_price(reduced_model):
    # with mu_init = 0 the buffer costs nothing, staying off is optimal
    # everywhere, and the greedy start policy can never leave the off state
    with pytest.raises(InitializationError):
        init_pds_values(reduced_model, ArrivalDistribution.deterministic(5), mu_init=0.0)


def test_offline_init_rejects_zero_assumed_arrivals(reduced_model):
    # an empty buffer that never fills gives the radio no reason to wake,
    # even though backlogged levels (unreachable when nothing arrives)
    # would prefer to switch on and drain
    with pytest.raises(InitializationError):
        init_pds_values(reduced_model, ArrivalDistribution.deterministic(0), mu_init=1.0)


def test_offline_init_accepts_a_single_packet_per_slot(reduced_model):
    # one packet per slot is enough pressure: the level-zero off state
    # already prefers to switch on
    v0 = init_pds_values(reduced_model, ArrivalDistribution.deterministic(1))
    assert np.all(np.isfinite(v0))


# ---- the known operator against the einsum it replaces ----------------------


def _einsum_slice(m, h, v_tilde, mu):
    """Reference lookahead over one channel slice, contracted term by term."""
    dense = dense_tables(m)
    ev = np.einsum(
        "abB,axX,BX->bxa", dense["G_stack"], dense["px_stack"], v_tilde[:, h, :], optimize=True
    )
    q = m.rho_hxa[h][None, :, :] + mu * m.hold_ba[:, None, :] + ev
    return np.where(feasible_bxa(m), q, np.inf)


def _masked_sweep(m, v_hbx, c_post, buffer_cost_ba):
    """Reference sweep over every (b, x, a) row, infeasible actions masked to +inf."""
    dense = dense_tables(m)
    k = np.einsum("abB,axX->bxaBX", dense["G_stack"], dense["px_stack"]).reshape(-1, m.n_b * m.n_x)
    cost = m.rho_hxa[:, None, :, :] + buffer_cost_ba[None, :, None, :]
    cost = np.where(feasible_bxa(m)[None], cost, np.inf)
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
    )
    channel = _stochastic_rows(draw, n_h, n_h)
    n_l = draw(st.integers(1, capacity + 2))
    arrivals = ArrivalDistribution(_stochastic_rows(draw, 1, n_l)[0])
    return cfg.build_model().with_statistics(arrivals, channel)


# the price of a random model's solves
prices = st.floats(0.05, 5.0)


@settings(max_examples=40, deadline=None)
@given(small_models(), prices)
def test_known_operator_matches_the_einsum_route_on_random_models(m, mu):
    op = m.known_operator
    # packed rows: exactly the feasible (b, x, a), canonical order, no empty block
    index = np.flatnonzero(feasible_bxa(m))
    assert np.array_equal(op.action, index % m.n_a)
    assert op.bounds[0] == 0 and op.bounds[-1] == index.size
    assert np.all(np.diff(op.bounds) > 0)
    assert np.array_equal(index // m.n_a, np.repeat(np.arange(m.n_b * m.n_x), np.diff(op.bounds)))
    f = FactoredDynamics(m)
    sol = pds_value_iteration(m, mu)
    v_tilde = sol.v_tilde
    for h in range(m.n_h):
        q = action_values_slice(f, h, v_tilde, mu)
        np.testing.assert_allclose(q, _einsum_slice(m, h, v_tilde, mu), rtol=0, atol=1e-12)
        # the batch slot's block minima are the full slice's minima, bit for bit
        vals = f.state_values_slice(h, v_tilde, mu)
        assert np.array_equal(vals, q.min(axis=2))
        for b in range(m.n_b):
            for x in range(m.n_x):
                # the row and the slice may sum in different orders (last ulp)
                val, a = f.greedy_row(b, h, x, v_tilde, mu)
                assert feasible_bxa(m)[b, x, a]
                assert a == greedy_from_q(q[b, x][None], feasible_bxa(m)[b, x][None])[0]
                assert val == pytest.approx(vals[b, x], rel=0, abs=1e-12)
    # one packed sweep against the full-row masked sweep on the split: bit for
    # bit through the dense product, up to rounding through the factored one
    # (the same terms, summed in another order); and against the classic form
    # that prices the drops before the post-decision point, up to rounding
    v0 = sol.v + 0.5  # off the fixed point, so the sweep moves
    v_hbx = v0.reshape(m.n_b, m.n_h, m.n_x).transpose(1, 0, 2)
    swept = bellman_fixed_point(m, mu, np.inf, 1, v0, None).v
    c_u = np.repeat(mu * m.queue.eta * m.o_exp, m.n_x)
    masked = _masked_sweep(m, v_hbx, c_u, mu * m.hold_ba).transpose(1, 0, 2).reshape(m.n_s)
    with mock.patch.object(planner, "known_lookahead", dense_lookahead):
        assert bellman_fixed_point(m, mu, np.inf, 1, v0, None).v.tobytes() == masked.tobytes()
    np.testing.assert_allclose(swept, masked, rtol=0, atol=1e-12)
    classic = _masked_sweep(m, v_hbx, 0.0, mu * g_ba(m)).transpose(1, 0, 2).reshape(m.n_s)
    np.testing.assert_allclose(swept, classic, rtol=0, atol=1e-12)
    assert np.array_equal(post_decision_policy(m, v_tilde, mu), sol.policy)


@settings(max_examples=40, deadline=None)
@given(small_models(), st.sampled_from([0.0, 0.37, 1.0, 3.3]), st.integers(0, 2**32 - 1))
def test_packed_costs_equal_the_full_table_formulas_on_random_models(m, mu, seed):
    # the split's known cost, against the full power and holding tables packed
    known, _ = split_costs(m, mu)
    assert known.tobytes() == stage_cost_by_pack(m, mu * m.hold_ba).tobytes()
    f = FactoredDynamics(m)
    v_tilde = np.random.default_rng(seed).normal(size=(m.n_b, m.n_h, m.n_x))
    for h in range(m.n_h):
        got = f.packed_values(h, v_tilde, mu)
        assert got.tobytes() == lookahead_by_pack(f, h, v_tilde, mu).tobytes()


@settings(max_examples=40, deadline=None)
@given(small_models(), st.sampled_from([0.0, 0.015, 0.37, 1.0, 3.3]))
def test_value_iteration_is_the_split_solve_on_random_models(m, mu):
    # one Bellman equation on one cost split: value iteration's table is the
    # split solver's pre-decision table, and both read the same policy
    direct, split = value_iteration(m, mu), pds_value_iteration(m, mu)
    for got, want in zip(direct, split):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert np.array_equal(direct.policy, post_decision_policy(m, split.v_tilde, mu))


@settings(max_examples=40, deadline=None)
@given(small_models(), prices)
def test_both_solvers_match_the_dense_oracle_on_random_models(m, mu):
    costs, trans = _dense_problem(m, mu)
    v_ref, _, pol_ref = dense_value_iteration(
        costs, trans, m.gamma, tol=1e-12, feasible=feasible_sa(m)
    )
    bound = 1e-9
    for sol in (value_iteration(m, mu), pds_value_iteration(m, mu)):
        assert np.array_equal(sol.policy, pol_ref)
        assert np.array_equal(post_decision_policy(m, sol.v_tilde, mu), pol_ref)
        np.testing.assert_allclose(sol.v, v_ref, rtol=0, atol=bound)


def _assert_vi_matches_the_mgs_reference(m, mu):
    """Value iteration with the package's CGS2 GMRES against the same solve
    with the modified Gram-Schmidt reference: same policy, values within 1e-10."""
    sol = value_iteration(m, mu)
    with mock.patch.object(planner, "_gmres", gmres_mgs):
        ref = value_iteration(m, mu)
    assert np.array_equal(sol.policy, ref.policy)
    np.testing.assert_allclose(sol.v, ref.v, rtol=0, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(small_models(), prices)
def test_cgs2_solves_match_the_mgs_reference_on_random_models(m, mu):
    _assert_vi_matches_the_mgs_reference(m, mu)


@pytest.mark.parametrize("mu", [0.0, 0.015, 0.05, 1.0, 5.0])
def test_cgs2_solves_match_the_mgs_reference_on_the_table_profile(full_model, mu):
    _assert_vi_matches_the_mgs_reference(full_model, mu)


def _assert_factored_solves_match_the_dense_oracle(m, mu):
    """Both exact solvers through the factored operator against the same solves
    with the lookahead and the policy evaluation patched to the dense matrix
    of the slice-by-slice build: equal policies, values within 1e-10. Then
    one lookahead and one evaluation of the settled rows, compared directly."""
    sol, split = value_iteration(m, mu), pds_value_iteration(m, mu)
    with (
        mock.patch.object(planner, "known_lookahead", dense_lookahead),
        mock.patch.object(planner, "_evaluate_rows", dense_evaluate_rows),
    ):
        ref, split_ref = value_iteration(m, mu), pds_value_iteration(m, mu)
    assert np.array_equal(sol.policy, ref.policy) and np.array_equal(split.policy, split_ref.policy)
    np.testing.assert_allclose(sol.v, ref.v, rtol=0, atol=1e-10)
    np.testing.assert_allclose(split.v_tilde, split_ref.v_tilde, rtol=0, atol=1e-10)
    cost, c_post = split_costs(m, mu)
    v_hbx = sol.v.reshape(m.n_b, m.n_h, m.n_x).transpose(1, 0, 2)
    w = c_post + m.gamma * action_free_values(m, v_hbx)
    q = known_lookahead(m, cost, w)
    np.testing.assert_allclose(q, dense_lookahead(m, cost, w), rtol=0, atol=1e-10)
    op = m.known_operator
    rows = op.block_argmin(q, op.block_min(q), TIE_TOL)
    start = np.zeros_like(v_hbx)  # far from the solution, so GMRES has work to do
    got, _ = _evaluate_rows(m, cost, c_post, rows, start, 1e-12, 10_000)
    want, _ = dense_evaluate_rows(m, cost, c_post, rows, start, 1e-12, 10_000)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    np.testing.assert_allclose(got, v_hbx, rtol=0, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(small_models(), prices)
def test_factored_solves_match_the_dense_oracle_on_random_models(m, mu):
    _assert_factored_solves_match_the_dense_oracle(m, mu)


@pytest.mark.parametrize("mu", [0.0, 0.015, 0.05, 1.0, 5.0])
def test_factored_solves_match_the_dense_oracle_on_the_table_profile(full_model, mu):
    _assert_factored_solves_match_the_dense_oracle(full_model, mu)


def test_only_the_online_learner_builds_the_dense_operator(monkeypatch):
    built = []
    real = KnownOperator.__dict__["matrix"].func

    def counted(op):
        built.append(op)
        return real(op)

    monkeypatch.setattr(KnownOperator, "matrix", property(counted))
    cfg = reduced_profile(horizon=200, epoch_slots=50)
    solve_tables(cfg, "vi")
    solve_tables(cfg, "pds")
    for algorithm in ("vi", "suboptimal"):
        run_experiment(reduced_profile(algorithm=algorithm, horizon=200, epoch_slots=50))
    run_experiment(reduced_profile(algorithm="suboptimal", horizon=200, epoch_slots=50), true_stats=True)
    assert built == []
    run_experiment(reduced_profile(algorithm="pds", horizon=20))
    assert built


@settings(max_examples=40, deadline=None)
@given(small_models(), prices, st.integers(0, 2**32 - 1))
def test_packed_greedy_rule_equals_the_full_table_rule_on_random_models(m, price, seed):
    feasible = feasible_sa(m)
    # at the fixed points, for value iteration and the split solver
    sol = value_iteration(m, price)
    assert np.array_equal(sol.policy, greedy_from_q(q_values(m, sol.v, price), feasible))
    split = pds_value_iteration(m, price)
    v_tilde = split.v_tilde
    w = v_tilde.transpose(1, 0, 2).reshape(m.n_h, m.n_b * m.n_x)
    q = known_lookahead(m, split_costs(m, price)[0], w)
    assert np.array_equal(split.policy, greedy_from_q(flat_q(m, q), feasible))
    # off them, on values with exact ties, gaps just inside and outside TIE_TOL and NaN rows
    rng = np.random.default_rng(seed)
    n_rows = m.known_operator.action.size
    q = rng.integers(0, 3, (m.n_h, n_rows)) + rng.choice([0.0, 0.5e-9, 2e-9], (m.n_h, n_rows))
    q[0, : rng.integers(0, n_rows)] = np.nan
    assert np.array_equal(greedy_policy(m, q), greedy_from_q(flat_q(m, q), feasible))
    v_tilde = rng.integers(0, 2, v_tilde.shape) + rng.choice([0.0, 0.5e-9], v_tilde.shape)
    mu = float(rng.integers(0, 3))
    f = FactoredDynamics(m)
    for h in range(m.n_h):
        q = action_values_slice(f, h, v_tilde, mu)
        assert np.array_equal(f.state_values_slice(h, v_tilde, mu), q.min(axis=2))
