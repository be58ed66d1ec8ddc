"""Exact solver for the joint model: modified policy iteration.

Value tables are flat float64 vectors over the model's state indexing;
policies are int vectors of global action indices. All argmin extraction
goes through the same tie rule: earliest canonical action within TIE_TOL
of the minimum, so independently computed solutions pick identical actions.

Value iteration and the post-decision solver in ``pds`` run the same core,
``bellman_fixed_point``. A minimizing sweep is an action-free expectation
over arrivals and the channel move, then one product with the model's
packed known operator and a minimum over each (buffer, radio) block of its
feasible rows. Once two minimizing sweeps pick the same greedy rows, that
policy is evaluated by sweeps through its one row per state, which cost a
small fraction of a minimizing sweep; the solve still ends on a minimizing
sweep, with value iteration's stopping rule. Action values are kept packed,
one entry per feasible (b, x, a); only the callers that hand out a full
(state, action) table spread them out with +inf.
"""
from __future__ import annotations

import numpy as np

from .errors import ConvergenceError
from .model import JointModel

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

    One solver for both exact planners: ``cost`` (h, row) is the part of
    the slot cost paid before the post-decision point, ``c_post`` the part
    paid after it. ``v0`` uses the flat state layout; the returned table is
    indexed (h, b, x). The minimum over actions is the minimum over each
    (b, x) block of the packed rows, so infeasible actions never enter it.

    Modified policy iteration (Puterman, ch. 6.5): after each minimizing
    sweep the greedy packed row of every state is found with the tie rule;
    when two sweeps in a row pick the same rows, that policy is evaluated
    by one-row sweeps (``_evaluate_rows``) before minimizing again. Only
    minimizing sweeps append their sup-norm step to ``residuals``, and only
    one whose step is below tol returns, so the stopping rule and error
    bound are value iteration's. ``max_iters`` caps minimizing and
    evaluation sweeps together; past it, ConvergenceError is raised.
    """
    n_b, n_h, n_x = model.n_b, model.n_h, model.n_x
    op = model.known_operator
    if v0 is None:
        v = np.zeros((n_h, n_b, n_x))
    else:
        v = np.ascontiguousarray(v0.reshape(n_b, n_h, n_x).transpose(1, 0, 2))
    resid = np.inf
    rows = None
    sweeps = 0
    while sweeps < max_iters:
        v_tilde = c_post + model.gamma * action_free_values(model, v)
        q = known_lookahead(model, cost, v_tilde)
        v_min = op.block_min(q)
        v_new = v_min.reshape(n_h, n_b, n_x)
        resid = float(np.max(np.abs(v_new - v)))
        if residuals is not None:
            residuals.append(resid)
        sweeps += 1
        v = v_new
        if resid < tol:
            return v
        greedy = op.block_argmin(q, v_min, TIE_TOL)
        if rows is not None and np.array_equal(greedy, rows):
            v, used = _evaluate_rows(model, cost, c_post, rows, v, tol, max_iters - sweeps)
            sweeps += used
        rows = greedy
    raise ConvergenceError(
        f"value iteration stuck at residual {resid!r} after {max_iters} sweeps"
    )


def _evaluate_rows(
    model: JointModel,
    cost: np.ndarray,
    c_post,
    rows: np.ndarray,
    v: np.ndarray,
    tol: float,
    max_sweeps: int,
) -> tuple[np.ndarray, int]:
    """Iterate v <- c_pi + gamma K_pi A_clamp (P v) for the packed rows ``rows``.

    ``rows`` (h, (b, x)) picks one known-operator row per state; its
    cost is ``cost + K c_post`` and its transition the row with the arrival
    clamp and the discount folded in, so a sweep is one channel move and one
    (n_b n_x)-square matrix-vector product per channel.
    Stops once a step is below tol (or is NaN) or after max_sweeps; returns
    the (h, b, x) table and the number of sweeps taken.
    """
    n_h = model.n_h
    n_bx = model.n_b * model.n_x
    k_pi = model.known_operator.matrix.T[rows]  # (h, (b, x), (B, X))
    c_pi = np.take_along_axis(cost, rows, axis=1) + k_pi @ np.broadcast_to(c_post, n_bx)
    k_pi = model.A_clamp.T @ k_pi.reshape(n_h, n_bx, model.n_b, model.n_x)
    k_pi = (model.gamma * k_pi).reshape(n_h, n_bx, n_bx)
    c_pi = c_pi[:, :, None]
    shape = v.shape
    v = v.reshape(n_h, n_bx, 1)
    sweeps = 0
    while sweeps < max_sweeps:
        v_new = k_pi @ (model.channel_matrix @ v[:, :, 0])[:, :, None]
        v_new += c_pi
        step = np.max(np.abs(v_new - v))
        sweeps += 1
        v = v_new
        if not step >= tol:
            break
    return v.reshape(shape), sweeps


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
    residual is still above tol after max_iters sweeps, minimizing and
    evaluation sweeps counted together.
    """
    cost = stage_cost(model, model.mu * model.g_ba)
    v_hbx = bellman_fixed_point(model, cost, 0.0, tol, max_iters, v0, residuals)
    v = v_hbx.transpose(1, 0, 2).reshape(model.n_s)
    return v, greedy_from_q(q_values(model, v), model.feasible_sa)
