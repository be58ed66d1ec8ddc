"""Independent reference computations that only the tests use.

The package computes everything from stacked arrays and the packed known
operator. The functions here compute the same quantities by other routes,
one state or one (state, action) pair at a time, so the package can be
checked against them:

- buffer primitives: ``next_buffer``, ``buffer_transition_pmf`` and
  ``buffer_cost``, by enumerating deliveries and arrivals;
- the joint model pair by pair: ``all_states``, ``feasible_actions``,
  ``joint_transition_pmf``, ``power_cost``, ``expected_buffer_cost`` and
  ``lagrangian_cost``;
- the post-decision split pair by pair: ``pds_of``, ``known_pmf``,
  ``known_cost``, ``unknown_pmf``, ``unknown_cost`` and
  ``realized_unknown_cost``;
- the learners' references: ``default_schedules`` and ``virtual_tuples``
  (one observed slot replayed at every buffer level and radio state, which
  a batch update must match);
- solvers: ``action_value`` through the joint pmf, ``policy_evaluate`` (a
  per-state evaluation loop) and ``dense_value_iteration`` (dense tabular
  value iteration);
- ``per_step_suboptimal``: the re-planning reference as a run.

Functions on the model or the factored dynamics take it first.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from greentx.config import ExperimentConfig
from greentx.errors import ConfigError, ConvergenceError, FeasibilityError
from greentx.harness import RunResult, run_experiment
from greentx.learners import LearningSchedule, PdsExperienceTuple
from greentx.model import Action, JointModel, State
from greentx.pds import FactoredDynamics, PostDecisionState
from greentx.phy import goodput_pmf
from greentx.planner import greedy_from_q
from greentx.power import PowerState, pm_transition_pmf
from greentx.queueing import ArrivalDistribution, expected_overflow

# ---- buffer primitives ---------------------------------------------------------


def next_buffer(b: int, f: int, l: int, capacity: int) -> int:
    """Buffer occupancy after f departures and l arrivals, clamped at capacity."""
    if not 0 <= f <= b:
        raise ConfigError(f"departures f={f} outside [0, b={b}]")
    if l < 0:
        raise ConfigError("arrivals must be nonnegative")
    return min(b - f + l, capacity)


def buffer_transition_pmf(
    b: int, z: int, plr: float, arrivals: ArrivalDistribution, capacity: int
) -> np.ndarray:
    """Distribution of the next buffer level given z transmission attempts.

    The capacity bin aggregates every arrival burst that would overflow.
    """
    if not 0 <= b <= capacity:
        raise ConfigError(f"buffer level b={b} outside [0, {capacity}]")
    if z > b:
        raise ConfigError(f"cannot send z={z} packets from a buffer of {b}")
    f_pmf = goodput_pmf(z, plr)
    l_pmf = arrivals.pmf
    out = np.zeros(capacity + 1)
    for f in range(z + 1):
        post = b - f
        # arrivals that land strictly inside the buffer
        hi = min(capacity - 1 - post, arrivals.l_max)
        if hi >= 0:
            out[post : post + hi + 1] += f_pmf[f] * l_pmf[: hi + 1]
        # everything else hits the capacity bin
        first_clamped = capacity - post
        if first_clamped <= arrivals.l_max:
            out[capacity] += f_pmf[f] * l_pmf[max(first_clamped, 0) :].sum()
    return out


def buffer_cost(
    b: int,
    z: int,
    plr: float,
    arrivals: ArrivalDistribution,
    capacity: int,
    eta: float,
) -> float:
    """Expected holding cost plus eta-weighted expected packet drops."""
    if not 0 <= b <= capacity:
        raise ConfigError(f"buffer level b={b} outside [0, {capacity}]")
    if z > b:
        raise ConfigError(f"cannot send z={z} packets from a buffer of {b}")
    f_pmf = goodput_pmf(z, plr)
    total = 0.0
    for f in range(z + 1):
        post = b - f
        total += f_pmf[f] * (post + eta * expected_overflow(post, arrivals, capacity))
    return total


# ---- the joint model, one pair at a time ---------------------------------------


def all_states(model: JointModel) -> list[State]:
    return [model.state_of(i) for i in range(model.n_s)]


def feasible_actions(model: JointModel, s: State) -> list[Action]:
    """Allowed actions in canonical order (y, then z, then PLR)."""
    return [model.actions[i] for i in model.feasible_action_indices(s)]


def joint_transition_pmf(model: JointModel, s: State, a: Action) -> np.ndarray:
    """One-slot transition pmf over flat state indices."""
    if not model.is_feasible(s, a):
        raise FeasibilityError(f"action {a} infeasible in state {s}")
    pb = buffer_transition_pmf(s.b, a.z, a.bep.plr, model.arrivals, model.queue.capacity)
    ph = model.channel_matrix[s.h]
    px = pm_transition_pmf(s.x, a.y, model.profile.theta)
    return np.einsum("b,h,x->bhx", pb, ph, px).reshape(model.n_s)


def power_cost(model: JointModel, s: State, a: Action) -> float:
    """Expected power draw (watts) for the slot."""
    if not model.is_feasible(s, a):
        raise FeasibilityError(f"action {a} infeasible in state {s}")
    return float(model.rho_hxa[s.h, int(s.x), model.action_index[a]])


def expected_buffer_cost(model: JointModel, s: State, a: Action) -> float:
    """Expected holding plus eta-weighted expected drops."""
    if not model.is_feasible(s, a):
        raise FeasibilityError(f"action {a} infeasible in state {s}")
    return float(model.g_ba[s.b, model.action_index[a]])


def lagrangian_cost(model: JointModel, s: State, a: Action, mu: float | None = None) -> float:
    """Power plus mu-weighted buffer cost for one slot."""
    m = model.mu if mu is None else mu
    return power_cost(model, s, a) + m * expected_buffer_cost(model, s, a)


# ---- the post-decision split, one pair at a time -------------------------------


def pds_of(s: State, a: Action, f_realized: int, x_next: PowerState) -> PostDecisionState:
    """Post-decision state reached from s after f deliveries and the radio settle."""
    if not 0 <= f_realized <= a.z:
        raise FeasibilityError(f"delivered f={f_realized} outside [0, z={a.z}]")
    return PostDecisionState(s.b - f_realized, s.h, x_next)


def known_pmf(factored: FactoredDynamics, s: State, a: Action) -> np.ndarray:
    """Distribution over post-decision states, flat state indexing."""
    m = factored.model
    if not m.is_feasible(s, a):
        raise FeasibilityError(f"action {a} infeasible in state {s}")
    ai = m.action_index[a]
    pb = m.G_stack[ai, s.b]  # transmission only, no arrivals
    ph = np.zeros(m.n_h)
    ph[s.h] = 1.0  # channel has not moved yet
    px = m.px_stack[ai, int(s.x)]
    return np.einsum("b,h,x->bhx", pb, ph, px).reshape(m.n_s)


def known_cost(factored: FactoredDynamics, s: State, a: Action, mu: float | None = None) -> float:
    """Power plus mu-weighted expected holding (drops are not known yet)."""
    m = factored.model
    if not m.is_feasible(s, a):
        raise FeasibilityError(f"action {a} infeasible in state {s}")
    ai = m.action_index[a]
    mu_v = m.mu if mu is None else mu
    return float(m.rho_hxa[s.h, int(s.x), ai] + mu_v * m.hold_ba[s.b, ai])


def unknown_pmf(factored: FactoredDynamics, st: PostDecisionState) -> np.ndarray:
    """Distribution over next pre-decision states, flat state indexing."""
    m = factored.model
    pb = m.A_clamp[st.b]  # arrivals with the capacity clamp
    ph = m.channel_matrix[st.h]
    px = np.zeros(m.n_x)
    px[int(st.x)] = 1.0  # radio already settled
    return np.einsum("b,h,x->bhx", pb, ph, px).reshape(m.n_s)


def unknown_cost(factored: FactoredDynamics, st: PostDecisionState, mu: float | None = None) -> float:
    """mu-weighted expected drop penalty for arrivals on this buffer level."""
    m = factored.model
    mu_v = m.mu if mu is None else mu
    return float(mu_v * m.queue.eta * m.o_exp[st.b])


def realized_unknown_cost(factored: FactoredDynamics, b_post: int, l: int) -> float:
    """Drop penalty for one observed arrival burst (not mu-weighted)."""
    m = factored.model
    return m.queue.eta * max(b_post + l - m.queue.capacity, 0)


# ---- learner references ----------------------------------------------------------


def default_schedules() -> LearningSchedule:
    return LearningSchedule()


def virtual_tuples(model: JointModel, tup: PdsExperienceTuple) -> list[PdsExperienceTuple]:
    """Reuse one observed (arrival burst, channel move) at every (buffer, radio).

    The unknown half of the dynamics does not depend on buffer or radio
    state, so the observed l and channel move are valid samples for all of
    them. The actual experience appears as the tuple matching its own
    post-decision state.
    """
    cap = model.queue.capacity
    eta = model.queue.eta
    h_t = tup.s_pds.h
    h_n = tup.s_next.h
    l = tup.l
    out = []
    for b in range(cap + 1):
        for x in (PowerState.OFF, PowerState.ON):
            out.append(
                PdsExperienceTuple(
                    s_pds=PostDecisionState(b, h_t, x),
                    cost_unknown=eta * max(b + l - cap, 0),
                    s_next=State(min(b + l, cap), h_n, x),
                    l=l,
                )
            )
    return out


# ---- solvers and runs ------------------------------------------------------------


def action_value(s: State, a: Action, v: np.ndarray, model: JointModel) -> float:
    """Cost plus discounted expected continuation, via the joint transition pmf."""
    pmf = joint_transition_pmf(model, s, a)
    return lagrangian_cost(model, s, a) + model.gamma * float(pmf @ v)


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
    states = all_states(model)
    pb_stack = model.G_stack @ model.A_clamp  # buffer law per (action, level)
    pb_sel = np.empty((n_s, model.n_b))
    ph_sel = np.empty((n_s, model.n_h))
    px_sel = np.empty((n_s, model.n_x))
    rho_sel = np.empty(n_s)
    g_sel = np.empty(n_s)
    for i, s in enumerate(states):
        a = int(policy[i])
        if not model.feasible_sa[i, a]:
            raise ConvergenceError(f"policy picks infeasible action {a} in state {s}")
        pb_sel[i] = pb_stack[a, s.b]
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


def per_step_suboptimal(cfg: ExperimentConfig, **kwargs) -> RunResult:
    """The re-planning reference as a first-class run."""
    return run_experiment(dataclasses.replace(cfg, algorithm="suboptimal"), **kwargs)
