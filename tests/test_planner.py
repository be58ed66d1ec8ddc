"""Solver correctness against closed forms and a dense reference implementation."""
import warnings

import numpy as np
import pytest

from greentx import planner
from greentx.config import table_profile
from greentx.errors import ConfigError, ConvergenceError
from greentx.model import State
from greentx.power import PowerState
from greentx.planner import RESTART, TIE_TOL, _gmres, _norm, split_costs, value_iteration
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


def _dense_problem(model, mu):
    costs = np.full((model.n_s, model.n_a), np.inf)
    trans = np.zeros((model.n_s, model.n_a, model.n_s))
    for i, s in enumerate(all_states(model)):
        for j, a in enumerate(model.actions):
            if feasible_sa(model)[i, j]:
                costs[i, j] = lagrangian_cost(model, s, a, mu)
                trans[i, j] = joint_transition_pmf(model, s, a)
            else:
                trans[i, j, i] = 1.0  # masked out, kept stochastic
    return costs, trans


def test_vi_agrees_with_dense_reference(reduced_model):
    m = reduced_model
    sol = value_iteration(m, 1.0)
    costs, trans = _dense_problem(m, 1.0)
    v_ref, _, pol_ref = dense_value_iteration(
        costs, trans, m.gamma, feasible=feasible_sa(m)
    )
    assert np.allclose(sol.v, v_ref, atol=1e-6)
    assert np.array_equal(sol.policy, pol_ref)


def test_vi_residuals_contract_geometrically(reduced_model):
    resids = []
    value_iteration(reduced_model, 1.0, tol=1e-6, residuals=resids)
    r = np.array(resids)
    assert np.all(r[1:] <= reduced_model.gamma * r[:-1] + 1e-12)


def test_vi_raises_when_capped(reduced_model):
    with pytest.raises(ConvergenceError):
        value_iteration(reduced_model, 1.0, max_iters=3)


def test_optimal_policy_evaluates_to_optimal_value(reduced_model):
    m, mu = reduced_model, 1.0
    sol = value_iteration(m, mu)
    total, power, buf = policy_evaluate(sol.policy, m, mu)
    assert np.allclose(total, power + mu * buf, rtol=1e-9)
    assert np.allclose(total, sol.v, atol=1e-6)
    assert np.all(power >= 0.0) and np.all(buf >= 0.0)


def test_action_value_matches_q_table(reduced_model):
    m = reduced_model
    v = value_iteration(m, 1.0).v
    q = q_values(m, v, 1.0)
    rng = np.random.default_rng(11)
    for _ in range(60):
        i = int(rng.integers(m.n_s))
        s = m.state_of(i)
        j = int(rng.choice(feasible_action_indices(m, s)))
        assert action_value(s, m.actions[j], v, m, 1.0) == pytest.approx(
            q[i, j], rel=1e-10
        )
    assert np.all(np.isinf(q[~feasible_sa(m)]))


def test_q_values_mu_override(reduced_model):
    m = reduced_model
    v = value_iteration(m, 1.0).v
    q0 = q_values(m, v, mu=0.0)
    s = State(4, 2, PowerState.ON)
    i = m.state_index(s)
    j = int(feasible_action_indices(m, s)[-1])
    a = m.actions[j]
    pmf = joint_transition_pmf(m, s, a)
    want = power_cost(m, s, a) + m.gamma * float(pmf @ v)
    assert q0[i, j] == pytest.approx(want, rel=1e-10)


def test_vi_settles_in_few_minimizing_sweeps_and_caps_evaluation(reduced_model):
    # plain value iteration records 976 residuals here; evaluating each
    # settled greedy policy leaves only a handful of minimizing sweeps
    resids = []
    value_iteration(reduced_model, 1.0, residuals=resids)
    assert len(resids) <= 20
    # the evaluation's matvecs between them count against the cap too: the
    # solve is 4 minimizing sweeps plus 10 matvecs, so 12 is too few, while a
    # solver that left its matvecs uncharged would finish within it
    with pytest.raises(ConvergenceError):
        value_iteration(reduced_model, 1.0, max_iters=12)


@pytest.mark.parametrize("mu, sweeps, matvecs", [(1.0, 6, 14), (0.015, 32, 45)])
def test_the_solve_record_counts_its_sweeps_and_matvecs(full_model, mu, sweeps, matvecs):
    # the same counts under the SkylakeX, Haswell and Prescott OpenBLAS kernels
    resids = []
    sol = value_iteration(full_model, mu, residuals=resids)
    assert (sol.sweeps, sol.matvecs) == (sweeps, matvecs)
    assert sol.sweeps == len(resids)
    # the cap counts both: exactly enough repeats the solve, one fewer raises
    again = value_iteration(full_model, mu, max_iters=sweeps + matvecs)
    assert (again.sweeps, again.matvecs) == (sweeps, matvecs)
    assert again.v.tobytes() == sol.v.tobytes()
    with pytest.raises(ConvergenceError):
        value_iteration(full_model, mu, max_iters=sweeps + matvecs - 1)


def test_the_gmres_norm_changes_no_bit_and_cannot_overflow():
    rng = np.random.default_rng(3)
    for r in (rng.standard_normal(500), rng.random(7) * 1e-3, rng.standard_normal(40) * 1e150):
        assert _norm(r) == float(np.linalg.norm(r))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _norm(np.full(4, 1e300)) == pytest.approx(2e300, rel=1e-15)
        assert _norm(np.full(4, -1e308)) == np.inf  # 2e308 is past the float range
    assert _norm(np.zeros(3)) == 0.0
    assert np.isnan(_norm(np.array([1.0, np.nan])))


@pytest.mark.parametrize("mu", [1e6, 1e300])
def test_a_solve_at_a_large_price_takes_about_as_many_sweeps_as_at_mu_1(full_model, mu):
    # at 1e6 the table's rounding (values near 1.5e8) is above tol: each
    # policy evaluation and the sweep after it moved the table by rounding,
    # round after round, up to the cap of 200000 sweeps and matvecs; at 1e300
    # the residual's norm also overflowed, GMRES stopped at once and the
    # solve fell back to 1629 plain sweeps
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        at_1, at_big = [], []
        value_iteration(full_model, 1.0, residuals=at_1)
        v = value_iteration(full_model, mu, residuals=at_big).v
    assert len(at_big) <= 3 * len(at_1)
    assert np.isfinite(v).all() and at_big[-1] < 1e-9


def test_vi_from_a_nan_start_raises_convergence_error(reduced_model):
    # a NaN never leaves the table, so the first sweep's residual stops the solve
    v0 = np.full(reduced_model.n_s, np.nan)
    resids = []
    with pytest.raises(ConvergenceError, match="nan"):
        value_iteration(reduced_model, 1.0, v0=v0, max_iters=50, residuals=resids)
    assert len(resids) == 1


@pytest.mark.parametrize("mu", [-0.1, float("nan"), float("inf")])
def test_split_costs_refuses_a_price_that_is_negative_or_not_finite(reduced_model, mu):
    with pytest.raises(ConfigError, match="mu must be finite and nonnegative"):
        split_costs(reduced_model, mu)


def test_split_costs_refuses_a_price_at_which_a_cost_overflows(reduced_model):
    known, post = split_costs(reduced_model, 1e300)
    assert np.isfinite(known).all() and np.isfinite(post).all()
    for mu in (1e306, 1e308):
        with pytest.raises(ConfigError, match=r"mu=1e\+30[68]"):
            split_costs(reduced_model, mu)
        with pytest.raises(ConfigError, match="mu="):
            value_iteration(reduced_model, mu)


def test_block_argmin_gives_a_block_without_a_near_row_its_first_row(reduced_model):
    # a NaN in a block makes its minimum NaN, and no row is within the tie
    # window of a NaN: that block still gets one row, its first
    op = reduced_model.known_operator
    q = -np.arange(op.action.size, dtype=np.float64)  # each block's minimum is its last row
    q[op.bounds[3] + 1] = np.nan
    q_min = op.block_min(q)
    assert np.isnan(q_min[3]) and np.isnan(q_min).sum() == 1
    want = op.bounds[1:] - 1
    want[3] = op.bounds[3]
    assert np.array_equal(op.block_argmin(q, q_min, TIE_TOL), want)


def _random_system(n, radius, seed):
    """I + radius * G / sqrt(n), G standard normal: nonsymmetric, its spectrum
    fills the disk of that radius around 1, so it is well conditioned."""
    rng = np.random.default_rng(seed)
    return np.eye(n) + radius * rng.standard_normal((n, n)) / np.sqrt(n), rng.standard_normal(n)


class _Counted:
    """apply(x) = a @ x, keeping a copy of every vector it is applied to."""

    def __init__(self, a):
        self.a, self.seen = a, []

    def __call__(self, x):
        self.seen.append(x.copy())
        return self.a @ x


@pytest.mark.parametrize("n, radius", [(RESTART // 2, 0.9), (3 * RESTART, 0.8)])
def test_gmres_solves_nonsymmetric_systems_below_and_above_the_restart_length(n, radius):
    a, b = _random_system(n, radius, seed=n)
    assert np.linalg.cond(a) < 50
    apply = _Counted(a)
    tol = 1e-10 * np.linalg.norm(b)
    x, used = _gmres(apply, b, np.zeros(n), tol, 10_000)
    assert used == len(apply.seen)
    assert np.linalg.norm(b - a @ x) <= tol
    np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=0, atol=1e-8)
    if n < RESTART:
        # n Arnoldi steps span the space: the start's residual, n steps, the final residual
        assert used == n + 2
    else:
        assert used > RESTART + 1  # at least one restart


def test_gmres_stops_at_tol():
    a, b = _random_system(30, 0.5, seed=1)
    x_star = np.linalg.solve(a, b)
    # a start within tol costs one matvec, its residual, and comes back unchanged
    x, used = _gmres(_Counted(a), b, x_star, 1e-8, 100)
    assert used == 1 and np.array_equal(x, x_star)
    # a loose tol stops the first cycle early, within tol
    tol = 0.1 * np.linalg.norm(b)
    apply = _Counted(a)
    x, used = _gmres(apply, b, np.zeros(30), tol, 100)
    assert used == len(apply.seen) < 10
    assert np.linalg.norm(b - a @ x) <= tol


def test_gmres_stops_at_the_rounding_floor():
    # no float64 residual reaches tol = 0: once a cycle ends no closer than
    # the one before, the solve stops, after whole cycles of RESTART steps
    a, b = _random_system(RESTART // 2, 0.9, seed=3)
    x, used = _gmres(_Counted(a), b, np.zeros(a.shape[0]), 0.0, 10**6)
    assert (used - 1) % (RESTART + 1) == 0 and used <= 10 * (RESTART + 1)
    assert np.linalg.norm(b - a @ x) <= 1e-14 * np.linalg.norm(b)


@pytest.mark.parametrize("cap", [1, 2, 7, RESTART + 1, RESTART + 5])
def test_gmres_takes_exactly_max_matvecs(cap):
    a, b = _random_system(3 * RESTART, 0.8, seed=4)
    apply = _Counted(a)
    x, used = _gmres(apply, b, np.zeros(a.shape[0]), 0.0, cap)
    assert used == len(apply.seen) == cap
    if cap == 1:
        assert not x.any()  # only the start's residual was taken
    else:
        assert np.linalg.norm(b - a @ x) < np.linalg.norm(b)


def _assert_orthonormal_cycles(seen):
    """Split the vectors applied in full cycles of RESTART steps into cycles
    (each starts with its iterate) and check each cycle's Arnoldi basis:
    |V V^T - I| <= 1e-12 entrywise. Returns the number of basis vectors checked."""
    n_checked = 0
    while seen:
        basis = np.array(seen[1 : RESTART + 1])
        if len(basis):
            assert np.max(np.abs(basis @ basis.T - np.eye(len(basis)))) <= 1e-12
            n_checked += len(basis)
        seen = seen[RESTART + 1 :]
    return n_checked


def test_the_arnoldi_basis_is_orthonormal_on_a_random_system():
    a, b = _random_system(3 * RESTART, 0.8, seed=5)
    apply = _Counted(a)
    _gmres(apply, b, np.zeros(a.shape[0]), 0.0, 3 * (RESTART + 1))
    assert _assert_orthonormal_cycles(apply.seen) == 3 * RESTART


def test_the_arnoldi_basis_is_orthonormal_on_a_policy_evaluation_system(monkeypatch):
    # the first evaluation system of a solve at table_profile(mu = 0.015), the
    # operating price, taken through two full cycles
    systems = []

    def capture(apply, b, x, tol, max_matvecs):
        systems.append((apply, b, x))
        return _gmres(apply, b, x, tol, max_matvecs)

    monkeypatch.setattr(planner, "_gmres", capture)
    value_iteration(table_profile().build_model(), 0.015)
    apply, b, x = systems[0]
    seen = []
    _gmres(lambda v: seen.append(v.copy()) or apply(v), b, x, 0.0, 2 * (RESTART + 1))
    assert _assert_orthonormal_cycles(seen) == 2 * RESTART
