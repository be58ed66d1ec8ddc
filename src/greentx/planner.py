"""Exact solvers for the joint model: value iteration and policy evaluation.

Value tables are flat float64 vectors over the model's state indexing;
policies are int vectors of global action indices. All argmin extraction
goes through the same tie rule: earliest canonical action within TIE_TOL
of the minimum, so independently computed solutions pick identical actions.

Value iteration and the post-decision solver in ``pds`` run the same sweep,
``bellman_fixed_point``: an action-free expectation over arrivals and the
channel move, then one product with the model's packed known operator and a
minimum over each (buffer, radio) block of its feasible rows. Action values
are kept packed, one entry per feasible (b, x, a); only the callers that
hand out a full (state, action) table spread them out with +inf.
"""
from __future__ import annotations

import numpy as np

from .errors import ConvergenceError
from .model import Action, JointModel, State

# Values within this distance of the row minimum count as tied.
TIE_TOL = 1e-9


def greedy_from_q(q_sa: np.ndarray, feasible_sa: np.ndarray, tie_tol: float = TIE_TOL) -> np.ndarray:
    """First feasible action within tie_tol of each row's minimum."""
    q = np.where(feasible_sa, q_sa, np.inf)
    qmin = q.min(axis=1, keepdims=True)
    return np.argmax(q <= qmin + tie_tol, axis=1)


def stage_cost(model: JointModel, buffer_cost_ba: np.ndarray) -> np.ndarray:
    """Per-slot cost indexed (h, row): power plus a per-(buffer, action) term.

    Rows are the known operator's feasible (b, x, a) rows, in its order.
    """
    cost = model.rho_hxa[:, None, :, :] + buffer_cost_ba[None, :, None, :]
    return model.known_operator.pack(cost)


def action_free_values(model: JointModel, v_hbx: np.ndarray) -> np.ndarray:
    """w[h, (B, X)] = sum_H P[h, H] sum_B' A_clamp[B, B'] v[H, B', X].

    The expectation over the arrivals and the channel move, which no action
    changes; ``v_hbx`` is a pre-decision table indexed (h, b, x).
    """
    n_h, n_b, n_x = v_hbx.shape
    u = model.channel_matrix @ v_hbx.reshape(n_h, n_b * n_x)
    return (model.A_clamp @ u.reshape(n_h, n_b, n_x)).reshape(n_h, n_b * n_x)


def known_lookahead(model: JointModel, cost: np.ndarray, v_tilde: np.ndarray) -> np.ndarray:
    """Action values ``cost + K v_tilde`` indexed (h, row).

    ``v_tilde`` is a post-decision table indexed (h, (B, X)) and K the
    model's packed known operator, so only feasible (b, x, a) rows are
    computed, each (b, x) block contiguous on the last axis.
    """
    q = v_tilde @ model.known_operator.matrix
    q += cost
    return q


def bellman_fixed_point(
    model: JointModel,
    cost: np.ndarray,
    c_post,
    tol: float,
    max_iters: int,
    v0: np.ndarray | None,
    residuals: list | None,
) -> np.ndarray:
    """Iterate v <- min_a [cost + K (c_post + gamma w(v))] until the step is below tol.

    One sweep for both exact solvers: ``cost`` (h, row) is the part of
    the slot cost paid before the post-decision point, ``c_post`` the part
    paid after it. ``v0`` uses the flat state layout; the returned table is
    indexed (h, b, x). Appends each sweep's sup-norm step to ``residuals``
    when given, and raises ConvergenceError after max_iters sweeps. The
    minimum over actions is the minimum over each (b, x) block of the
    packed rows, so infeasible actions never enter it.
    """
    n_b, n_h, n_x = model.n_b, model.n_h, model.n_x
    op = model.known_operator
    if v0 is None:
        v = np.zeros((n_h, n_b, n_x))
    else:
        v = np.ascontiguousarray(v0.reshape(n_b, n_h, n_x).transpose(1, 0, 2))
    resid = np.inf
    for _ in range(max_iters):
        v_tilde = c_post + model.gamma * action_free_values(model, v)
        v_new = op.block_min(known_lookahead(model, cost, v_tilde)).reshape(n_h, n_b, n_x)
        resid = float(np.max(np.abs(v_new - v)))
        if residuals is not None:
            residuals.append(resid)
        v = v_new
        if resid < tol:
            return v
    raise ConvergenceError(
        f"value iteration stuck at residual {resid!r} after {max_iters} sweeps"
    )


def flat_q(model: JointModel, q_packed: np.ndarray) -> np.ndarray:
    """(h, row) action values as (state, action) rows in the flat layout.

    Infeasible actions get +inf.
    """
    q = model.known_operator.unpack(q_packed)  # (h, b, x, a)
    return q.transpose(1, 0, 2, 3).reshape(model.n_s, model.n_a)


def q_values(model: JointModel, v: np.ndarray, mu: float | None = None) -> np.ndarray:
    """One-step lookahead values for every (state, action); infeasible -> +inf."""
    m = model.mu if mu is None else mu
    v_hbx = v.reshape(model.n_b, model.n_h, model.n_x).transpose(1, 0, 2)
    v_tilde = model.gamma * action_free_values(model, v_hbx)
    return flat_q(model, known_lookahead(model, stage_cost(model, m * model.g_ba), v_tilde))


def value_iteration(
    model: JointModel,
    tol: float = 1e-9,
    max_iters: int = 200_000,
    v0: np.ndarray | None = None,
    residuals: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the discounted control problem to sup-norm residual below tol.

    Returns (value table, greedy policy). Raises ConvergenceError if the
    residual is still above tol after max_iters sweeps.
    """
    cost = stage_cost(model, model.mu * model.g_ba)
    v_hbx = bellman_fixed_point(model, cost, 0.0, tol, max_iters, v0, residuals)
    v = v_hbx.transpose(1, 0, 2).reshape(model.n_s)
    return v, greedy_from_q(q_values(model, v), model.feasible_sa)


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
