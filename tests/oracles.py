"""Independent reference solvers that only the tests use.

They compute the same quantities as ``greentx.planner`` by different
routes (the joint transition pmf state by state, a per-state policy
evaluation loop, and dense tabular value iteration), so the package's
solvers can be checked against them.
"""
from __future__ import annotations

import numpy as np

from greentx.errors import ConvergenceError
from greentx.model import Action, JointModel, State
from greentx.planner import greedy_from_q


def action_value(s: State, a: Action, v: np.ndarray, model: JointModel) -> float:
    """Cost plus discounted expected continuation, via the joint transition pmf."""
    pmf = model.joint_transition_pmf(s, a)
    return model.lagrangian_cost(s, a) + model.gamma * float(pmf @ v)


def policy_evaluate(
    policy: np.ndarray,
    model: JointModel,
    tol: float = 1e-9,
    max_iters: int = 200_000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Discounted (total, power-only, buffer-only) cost of a stationary policy.

    The three value vectors satisfy total = power + mu * buffer at the fixed
    point, since the policy is shared and cost splits linearly.
    """
    n_s = model.n_s
    states = model.all_states()
    pb_sel = np.empty((n_s, model.n_b))
    ph_sel = np.empty((n_s, model.n_h))
    px_sel = np.empty((n_s, model.n_x))
    rho_sel = np.empty(n_s)
    g_sel = np.empty(n_s)
    for i, s in enumerate(states):
        a = int(policy[i])
        if not model.feasible_sa[i, a]:
            raise ConvergenceError(f"policy picks infeasible action {a} in state {s}")
        pb_sel[i] = model.pb_stack[a, s.b]
        ph_sel[i] = model.channel_matrix[s.h]
        px_sel[i] = model.px_stack[a, int(s.x)]
        rho_sel[i] = model.rho_hxa[s.h, int(s.x), a]
        g_sel[i] = model.g_ba[s.b, a]

    costs = np.stack([rho_sel + model.mu * g_sel, rho_sel, g_sel])
    values = np.zeros((3, n_s))
    shape = (model.n_b, model.n_h, model.n_x)
    for _ in range(max_iters):
        new = np.empty_like(values)
        for k in range(3):
            ev = np.einsum(
                "sB,sH,sX,BHX->s",
                pb_sel,
                ph_sel,
                px_sel,
                values[k].reshape(shape),
                optimize=True,
            )
            new[k] = costs[k] + model.gamma * ev
        resid = float(np.max(np.abs(new - values)))
        values = new
        if resid < tol:
            return values[0], values[1], values[2]
    raise ConvergenceError(f"policy evaluation stuck at residual {resid!r}")


def dense_value_iteration(
    costs: np.ndarray,
    transitions: np.ndarray,
    gamma: float,
    tol: float = 1e-9,
    max_iters: int = 200_000,
    feasible: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plain tabular solver for an explicit (S, A) cost / (S, A, S) transition MDP.

    Returns (V, Q, policy). Useful for small reference problems and oracles.
    """
    n_s, n_a = costs.shape
    if feasible is None:
        feasible = np.ones((n_s, n_a), dtype=bool)
    c = np.where(feasible, costs, np.inf)
    v = np.zeros(n_s)
    for _ in range(max_iters):
        q = c + gamma * np.einsum("saS,S->sa", transitions, v)
        v_new = q.min(axis=1)
        resid = float(np.max(np.abs(v_new - v)))
        v = v_new
        if resid < tol:
            return v, q, greedy_from_q(q, feasible)
    raise ConvergenceError(f"dense value iteration stuck at residual {resid!r}")
