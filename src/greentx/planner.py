"""Exact solver for the joint model: modified policy iteration.

Value tables are flat float64 vectors over the model's state indexing;
policies are int vectors of global action indices. All argmin extraction
goes through the same tie rule: earliest canonical action within TIE_TOL
of the minimum, so independently computed solutions pick identical actions.

Value iteration and the post-decision solver in ``pds`` are one solve,
``bellman_fixed_point``, of one Bellman equation on one cost split
(``split_costs``): power and holding are paid before the post-decision
point, the expected drops after it. It returns one record (``Solution``):
both tables, the greedy policy and the solve's counts. Action values are
kept packed, one entry per feasible (b, x, a), and every greedy policy is
read off them with the known operator's block minimum and
first-row-within-TIE_TOL rule (``greedy_policy``); no full (state, action)
table is ever formed.
The known operator enters through its factorization, a goodput row times a
radio law per row (``KnownOperator``): a lookahead is one small GEMM and one
``take`` (``known_lookahead``), and a policy evaluation one GEMM of the
chosen goodput rows (``_evaluate_rows``). No solver forms its dense matrix.
The model holds no price: the solve takes it as the argument ``mu``, and
prices it once (``split_costs``).
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ConvergenceError
from .model import JointModel

# Values within this distance of the row minimum count as tied.
TIE_TOL = 1e-9

# Krylov basis length of a policy evaluation before GMRES restarts.
RESTART = 40

# A minimizing sweep's step at most this times the table's largest entry is
# the table's own rounding: no evaluation brings a sweep closer than that.
ROUNDING = 64 * np.finfo(np.float64).eps


def split_costs(model: JointModel, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """The slot cost at the price ``mu``, split at the post-decision point: the
    known cost ``rho + mu * hold`` per (h, row) of the known operator, and the
    post cost ``mu * eta * o_exp`` (the expected drops) per post-decision (B, X).
    ConfigError refuses a negative or non-finite mu, and one at which values overflow."""
    if not 0.0 <= mu < np.inf:
        raise ConfigError("mu must be finite and nonnegative")
    op = model.known_operator
    # costs are nonnegative, so no value exceeds top / (1 - gamma); Python floats overflow quietly
    top = float(op.rho.max()) + float(mu) * float(op.hold.max() + model.queue.eta * model.o_exp.max())
    if not top / (1.0 - model.gamma) < np.inf:
        raise ConfigError(f"the values at mu={mu!r} overflow")
    post = np.repeat(mu * model.queue.eta * model.o_exp, model.n_x)
    return op.rho + mu * op.hold, post


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
    model's packed known operator, applied through its factorization
    (``KnownOperator.apply``), so only feasible (b, x, a) rows are computed,
    each (b, x) block contiguous on the last axis.
    """
    q = model.known_operator.apply(v_tilde)
    q += cost
    return q


class Solution(NamedTuple):
    """One exact solve at one price: the pre-decision table ``v`` (flat layout),
    the post-decision table ``v_tilde`` (an (n_b, n_h, n_x) cube), the greedy
    ``policy`` read off it, and the minimizing ``sweeps`` and GMRES ``matvecs``."""

    v: np.ndarray
    v_tilde: np.ndarray
    policy: np.ndarray
    sweeps: int
    matvecs: int


def bellman_fixed_point(
    model: JointModel, mu: float, tol: float, max_iters: int,
    v0: np.ndarray | None, residuals: list | None,
) -> Solution:
    """Iterate v <- min_a [known + K (post + gamma w(v))] until the step is below tol.

    The one exact solve, on the pair (known, post) that ``split_costs``
    returns at the price ``mu``; ``v0`` uses the flat state layout. The
    minimum over actions is the minimum over each (b, x) block of the packed
    rows, so infeasible actions never enter it.

    Modified policy iteration (Puterman, ch. 6.5): after each minimizing
    sweep the greedy packed row of every state is found with the tie rule;
    when two sweeps in a row pick the same rows, that policy is evaluated
    (``_evaluate_rows``, GMRES with CGS2 on its linear system) before minimizing
    again, unless the step is already within the table's own rounding
    (``ROUNDING``), where only sweeps can reach a table that they map to
    itself exactly. Only minimizing sweeps append their sup-norm step to
    ``residuals``, and only one whose step is below tol returns, so the
    stopping rule and error bound are value iteration's. ``max_iters`` caps
    minimizing sweeps and evaluation matvecs together; past it,
    ConvergenceError is raised, and at once at a step that is not finite (a
    NaN never leaves the table). The record's policy is read off its
    post-decision table by one more lookahead.
    """
    n_b, n_h, n_x = model.n_b, model.n_h, model.n_x
    op = model.known_operator
    cost, c_post = split_costs(model, mu)
    if v0 is None:
        v = np.zeros((n_h, n_b, n_x))
    else:
        v = np.ascontiguousarray(v0.reshape(n_b, n_h, n_x).transpose(1, 0, 2))
    resid, rows, sweeps, matvecs = np.inf, None, 0, 0
    while sweeps + matvecs < max_iters:
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
            break
        if not math.isfinite(resid):
            raise ConvergenceError(f"value iteration reached residual {resid!r} at sweep {sweeps}")
        greedy = op.block_argmin(q, v_min, TIE_TOL)
        if rows is not None and np.array_equal(greedy, rows) and resid > ROUNDING * np.max(np.abs(v)):
            v, used = _evaluate_rows(model, cost, c_post, rows, v, tol, max_iters - sweeps - matvecs)
            matvecs += used
        rows = greedy
    else:
        raise ConvergenceError(
            f"value iteration stuck at residual {resid!r} after {max_iters} sweeps and matvecs"
        )
    v_tilde = c_post + model.gamma * action_free_values(model, v)
    return Solution(
        v=v.transpose(1, 0, 2).reshape(model.n_s),
        v_tilde=np.ascontiguousarray(v_tilde.reshape(n_h, n_b, n_x).transpose(1, 0, 2)),
        policy=greedy_policy(model, known_lookahead(model, cost, v_tilde)),
        sweeps=sweeps,
        matvecs=matvecs,
    )


def _evaluate_rows(
    model: JointModel,
    cost: np.ndarray,
    c_post: np.ndarray,
    rows: np.ndarray,
    v: np.ndarray,
    tol: float,
    max_matvecs: int,
) -> tuple[np.ndarray, int]:
    """Solve (I - gamma K_pi A_clamp P) v = c_pi for the packed rows ``rows``.

    ``rows`` (h, (b, x)) picks one known-operator row per state. Each row is
    a goodput row G[a, b] over B times a radio law over X, so its cost is
    ``cost + G c_post`` (the post cost does not depend on X) and its
    transition with the arrival clamp and the discount folded in is the
    product of ``G A_clamp`` and ``gamma`` times the law: one GEMM of the
    chosen goodput rows and one multiply per radio column. A matvec is then
    one channel move and one (n_b n_x)-square matrix-vector product per
    channel. Restarted GMRES from ``v`` (``_gmres``) stops once the
    residual's 2-norm is at most tol (1 - gamma), which bounds the sup-norm
    error of the evaluation by tol. A non-finite solution is dropped and
    ``v`` returned, so the minimizing sweeps carry on from where they were.
    Returns the (h, b, x) table and the number of matvecs taken.
    """
    n_h, n_b, n_x = model.n_h, model.n_b, model.n_x
    n_bx = n_b * n_x
    op = model.known_operator
    flat = rows.ravel()
    g = op.buffer_rows(flat)  # (h (b, x), B)
    c_pi = np.take_along_axis(cost, rows, axis=1) + (g @ c_post[::n_x]).reshape(n_h, n_bx)
    g_a = g @ model.A_clamp
    law = model.gamma * op.laws[op.law[flat]]
    k_pi = np.empty((flat.size, n_b, n_x))
    for k in range(n_x):
        np.multiply(g_a, law[:, k, None], out=k_pi[:, :, k])
    k_pi = k_pi.reshape(n_h, n_bx, n_bx)
    p = model.channel_matrix

    def apply(x: np.ndarray) -> np.ndarray:
        x = x.reshape(n_h, n_bx)
        return (x - (k_pi @ (p @ x)[:, :, None])[:, :, 0]).ravel()

    x, matvecs = _gmres(apply, c_pi.ravel(), v.ravel(), tol * (1.0 - model.gamma), max_matvecs)
    if not np.all(np.isfinite(x)):
        return v, matvecs
    return x.reshape(v.shape), matvecs


def _norm(r: np.ndarray) -> float:
    """The 2-norm of ``r``, squared without overflow: ``r`` is scaled by the power
    of two nearest its largest entry first, which changes no bit of the result
    unless a square would overflow or fall below the normal range. It is inf
    only if the norm itself is."""
    top = float(np.max(np.abs(r)))
    if not 0.0 < top < np.inf:
        return top  # zero, inf or NaN
    e = math.frexp(top)[1]
    try:
        return math.ldexp(float(np.linalg.norm(np.ldexp(r, -e))), e)
    except OverflowError:
        return math.inf


def _gmres(apply, b: np.ndarray, x: np.ndarray, tol: float, max_matvecs: int) -> tuple[np.ndarray, int]:
    """Restarted GMRES (Saad & Schultz 1986) for apply(x) = b, starting at x.

    Each cycle runs at most RESTART Arnoldi steps, each orthogonalized by
    classical Gram-Schmidt done twice (CGS2; Giraud et al. 2005, Numer. Math.
    101): two BLAS products with the basis, which stays orthogonal to working
    precision. Givens rotations keep the Hessenberg least-squares problem
    triangular, so its residual norm is known after every step and its
    solution is one back-substitution. Stops when the 2-norm of b - apply(x)
    is at most tol, when a cycle ends no closer than the one before it (the
    rounding floor), or after max_matvecs calls of ``apply``. Returns (x, calls).
    """
    basis = np.empty((RESTART + 1, b.size))
    hess = np.zeros((RESTART + 1, RESTART))
    cs, sn, g = [0.0] * RESTART, [0.0] * RESTART, [0.0] * (RESTART + 1)  # Python floats
    matvecs, last = 0, np.inf
    while matvecs < max_matvecs:
        r = b - apply(x)
        matvecs += 1
        beta = _norm(r)
        if not (tol < beta < last):
            break
        last = beta
        basis[0] = r / beta
        g[0] = beta
        k = 0
        while k < RESTART and matvecs < max_matvecs:
            w = apply(basis[k])
            matvecs += 1
            v = basis[: k + 1]
            h1 = v @ w
            w -= h1 @ v
            h2 = v @ w
            w -= h2 @ v
            col = (h1 + h2).tolist()
            h_next = float(np.linalg.norm(w))
            for i in range(k):
                col[i], col[i + 1] = cs[i] * col[i] + sn[i] * col[i + 1], cs[i] * col[i + 1] - sn[i] * col[i]
            d = math.hypot(col[k], h_next)
            cs[k], sn[k] = col[k] / d, h_next / d
            col[k] = d
            hess[: k + 1, k] = col
            g[k], g[k + 1] = cs[k] * g[k], -sn[k] * g[k]
            k += 1
            if not (abs(g[k]) > tol and h_next > 0.0):
                break
            basis[k] = w / h_next
        y = np.empty(k)
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - hess[i, i + 1 : k] @ y[i + 1 :]) / hess[i, i]
        x = x + y @ basis[:k]
    return x, matvecs


def greedy_policy(model: JointModel, q: np.ndarray) -> np.ndarray:
    """Flat policy from (h, row) action values: per state, the first feasible
    action within TIE_TOL of its block's minimum.

    Packed rows keep canonical action order inside each (b, x) block, so
    this is the earliest such action of the whole action list.
    """
    op = model.known_operator
    policy = op.action[op.block_argmin(q, op.block_min(q), TIE_TOL)]
    return policy.reshape(model.n_h, model.n_b, model.n_x).transpose(1, 0, 2).reshape(model.n_s)


def value_iteration(
    model: JointModel, mu: float, tol: float = 1e-9, max_iters: int = 200_000,
    v0: np.ndarray | None = None, residuals: list | None = None,
) -> Solution:
    """Solve the discounted control problem at the price mu to sup-norm residual below tol.

    ``bellman_fixed_point`` under value iteration's name, as
    ``pds.pds_value_iteration`` is under the split solver's. Both names stay:
    the benchmark's tracer (``perfbench/tracer.py``) times each by name and
    counts sweeps through this one's ``residuals``, and
    ``tests/test_tracer_targets.py`` pins them. They can fold into one once
    the benchmark reads the record's counts instead.
    """
    return bellman_fixed_point(model, mu, tol, max_iters, v0, residuals)
