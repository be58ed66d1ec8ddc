"""Solver correctness against closed forms and a dense reference implementation."""
import numpy as np
import pytest

from greentx.errors import ConvergenceError
from greentx.model import State
from greentx.power import PowerState
from greentx.planner import TIE_TOL, value_iteration
from oracles import (
    action_value,
    all_states,
    dense_value_iteration,
    feasible_action_indices,
    feasible_sa,
    greedy_from_q,
    joint_transition_pmf,
    lagrangian_cost,
    policy_evaluate,
    power_cost,
    q_values,
)


def test_dense_vi_single_state_geometric_series():
    costs = np.array([[1.0]])
    trans = np.ones((1, 1, 1))
    v, q, pol = dense_value_iteration(costs, trans, gamma=0.5)
    assert v[0] == pytest.approx(2.0, abs=1e-8)
    assert pol[0] == 0


def test_dense_vi_two_state_cycle_closed_form():
    # deterministic cycle 0 -> 1 -> 0, cost 1 only in state 0
    costs = np.array([[1.0], [0.0]])
    trans = np.zeros((2, 1, 2))
    trans[0, 0, 1] = 1.0
    trans[1, 0, 0] = 1.0
    v, _, _ = dense_value_iteration(costs, trans, gamma=0.5)
    assert v == pytest.approx([4.0 / 3.0, 2.0 / 3.0], abs=1e-8)


def test_dense_vi_prefers_cheaper_action():
    costs = np.array([[1.0, 0.2]])
    trans = np.ones((1, 2, 1))
    v, _, pol = dense_value_iteration(costs, trans, gamma=0.9)
    assert pol[0] == 1
    assert v[0] == pytest.approx(2.0, abs=1e-7)


def test_greedy_tie_rule_prefers_earliest_within_tol():
    feas = np.ones((3, 3), dtype=bool)
    q = np.array(
        [
            [1.0, 1.0 + 1e-10, 2.0],  # tie inside tol: earliest wins
            [np.inf, 1.0, 1.0 + 2e-9],  # 2e-9 gap falls outside the window
            [5.0, 4.0, 3.0],
        ]
    )
    assert greedy_from_q(q, feas).tolist() == [0, 1, 2]
    masked = greedy_from_q(np.array([[0.0, 1.0]]), np.array([[False, True]]))
    assert masked.tolist() == [1]
    assert TIE_TOL == 1e-9


def _dense_problem(model):
    costs = np.full((model.n_s, model.n_a), np.inf)
    trans = np.zeros((model.n_s, model.n_a, model.n_s))
    for i, s in enumerate(all_states(model)):
        for j, a in enumerate(model.actions):
            if feasible_sa(model)[i, j]:
                costs[i, j] = lagrangian_cost(model, s, a)
                trans[i, j] = joint_transition_pmf(model, s, a)
            else:
                trans[i, j, i] = 1.0  # masked out, kept stochastic
    return costs, trans


def test_vi_agrees_with_dense_reference(reduced_model_mu1):
    m = reduced_model_mu1
    v, pol = value_iteration(m)
    costs, trans = _dense_problem(m)
    v_ref, _, pol_ref = dense_value_iteration(
        costs, trans, m.gamma, feasible=feasible_sa(m)
    )
    assert np.allclose(v, v_ref, atol=1e-6)
    assert np.array_equal(pol, pol_ref)


def test_vi_residuals_contract_geometrically(reduced_model_mu1):
    resids = []
    value_iteration(reduced_model_mu1, tol=1e-6, residuals=resids)
    r = np.array(resids)
    assert np.all(r[1:] <= reduced_model_mu1.gamma * r[:-1] + 1e-12)


def test_vi_raises_when_capped(reduced_model_mu1):
    with pytest.raises(ConvergenceError):
        value_iteration(reduced_model_mu1, max_iters=3)


def test_optimal_policy_evaluates_to_optimal_value(reduced_model_mu1):
    m = reduced_model_mu1
    v, pol = value_iteration(m)
    total, power, buf = policy_evaluate(pol, m)
    assert np.allclose(total, power + m.mu * buf, rtol=1e-9)
    assert np.allclose(total, v, atol=1e-6)
    assert np.all(power >= 0.0) and np.all(buf >= 0.0)


def test_action_value_matches_q_table(reduced_model_mu1):
    m = reduced_model_mu1
    v, _ = value_iteration(m)
    q = q_values(m, v)
    rng = np.random.default_rng(11)
    for _ in range(60):
        i = int(rng.integers(m.n_s))
        s = m.state_of(i)
        j = int(rng.choice(feasible_action_indices(m, s)))
        assert action_value(s, m.actions[j], v, m) == pytest.approx(
            q[i, j], rel=1e-10
        )
    assert np.all(np.isinf(q[~feasible_sa(m)]))


def test_q_values_mu_override(reduced_model_mu1):
    m = reduced_model_mu1
    v, _ = value_iteration(m)
    q0 = q_values(m, v, mu=0.0)
    s = State(4, 2, PowerState.ON)
    i = m.state_index(s)
    j = int(feasible_action_indices(m, s)[-1])
    a = m.actions[j]
    pmf = joint_transition_pmf(m, s, a)
    want = power_cost(m, s, a) + m.gamma * float(pmf @ v)
    assert q0[i, j] == pytest.approx(want, rel=1e-10)


def test_vi_settles_in_few_minimizing_sweeps_and_caps_evaluation(reduced_model_mu1):
    # plain value iteration records 976 residuals here; evaluating each
    # settled greedy policy leaves only a handful of minimizing sweeps
    resids = []
    value_iteration(reduced_model_mu1, residuals=resids)
    assert len(resids) <= 20
    # the evaluation's matvecs between them count against the cap too: the
    # solve is 4 minimizing sweeps plus 10 matvecs, so 12 is too few, while a
    # solver that left its matvecs uncharged would finish within it
    with pytest.raises(ConvergenceError):
        value_iteration(reduced_model_mu1, max_iters=12)


def test_vi_from_a_nan_start_raises_convergence_error(reduced_model_mu1):
    # no row is within the tie window of a NaN minimum; the solver must still
    # pick one per state and stop at the cap rather than fail on an index
    v0 = np.full(reduced_model_mu1.n_s, np.nan)
    with pytest.raises(ConvergenceError):
        value_iteration(reduced_model_mu1, v0=v0, max_iters=50)
