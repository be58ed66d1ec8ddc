"""Independent reference computations that only the tests use.

The package computes everything from stacked arrays and the packed known
operator. The functions here compute the same quantities by other routes,
one state or one (state, action) pair at a time, so the package can be
checked against them:

- scalar link-layer and power rules: ``bep_of_snr``, ``plr_of_bep``,
  ``bep_level_from_bep``, ``tx_power``, ``required_power`` and
  ``goodput_pmf``, one number at a time, which the model's ``tx_ha``,
  ``rho_hxa`` and ``goodput`` tables must match;
- buffer primitives: ``next_buffer``, ``expected_overflow`` (which the
  model's ``o_exp`` must match), ``buffer_transition_pmf`` and
  ``buffer_cost``, by enumerating deliveries and arrivals;
- the joint model pair by pair: ``all_states``, ``is_feasible`` (the
  feasibility rule), ``feasible_bxa`` (its (b, x, a) cube, which the model's
  prefix lengths ``n_feasible`` and the packed rows must match),
  ``feasible_action_indices``,
  ``feasible_actions``, ``joint_transition_pmf``, ``power_cost``,
  ``expected_buffer_cost`` and ``lagrangian_cost``;
- the classic pre-decision buffer cost ``g_ba``: holding plus eta-weighted
  expected drops per (buffer, action), the drops priced before the
  post-decision point. The package prices them after it (``split_costs``),
  so this is an independent route to the same Bellman equation;
- the model build slice by slice: ``tables_by_slices``, the dense goodput
  table ``G_stack[a, b, B]`` (which the model never forms), the radio and
  the clamped-arrival tables one (action, buffer level) slice and one radio
  law at a time, which the model's tables must match byte for byte
  (``dense_tables`` keeps them per model), and ``known_matrix_by_broadcast``,
  the known operator's dense matrix as one broadcast product of them, which
  the column-by-column build must match (the layout contract is the
  ``KnownOperator`` docstring's);
- the exact solver's two products through that dense matrix:
  ``dense_lookahead`` and ``dense_evaluate_rows``, the routes that the
  factored ``planner.known_lookahead`` and ``planner._evaluate_rows``
  replaced, which a solve must match when patched in;
- full (state, action) tables and the greedy rule over them: ``feasible_sa``,
  ``pack``, ``unpack``, ``flat_q``, ``q_values`` (priced with ``g_ba``),
  ``action_values_slice``, ``greedy_from_q`` and ``post_decision_policy``
  (a post-decision table's greedy policy by these), the route the packed
  block rule must agree with;
- packed costs from full tables: ``stage_cost_by_pack`` (the (h, b, x, a)
  table of power plus buffer cost, packed) and ``lookahead_by_pack`` (power
  and holding tables packed one at a time), which the known operator's own
  packed costs must match byte for byte;
- the post-decision split pair by pair: ``PostDecisionState``, ``pds_of``,
  ``known_pmf``, ``known_cost``, ``unknown_pmf``, ``unknown_cost`` and
  ``realized_unknown_cost``;
- the learners' references: ``default_schedules``, the experience record
  ``PdsExperienceTuple`` and ``virtual_tuples`` (one observed slot replayed
  at every buffer level and radio state, which a batch update must match);
- the Q slot over masked full rows: ``epsilon_greedy_by_mask`` and
  ``best_continuation_by_mask``, the reads the learner's feasible-prefix
  slices replaced, which its actions and backups must equal;
- the PDS slot as whole-array formulas: ``alpha_by_power``,
  ``greedy_row_by_argmax`` and ``ve_batch_by_fancy_index``, which the
  learner's cached views and in-place writes must match byte for byte;
- solvers: ``action_value`` through the joint pmf, ``policy_evaluate`` (a
  per-state evaluation loop), ``dense_value_iteration`` (dense tabular
  value iteration) and ``gmres_mgs`` (restarted GMRES whose Arnoldi step
  orthogonalizes by modified Gram-Schmidt, one basis vector at a time: the
  routine the package's CGS2 Arnoldi step replaced, kept as its reference);
- runs: ``RunningSumMetrics``, the metric rows kept by running sums slot by
  slot, ``csv_text_by_rows``, the metric CSV formatted one row at a time,
  which the chunked writer must match byte for byte, and
  ``per_step_suboptimal``, the re-planning reference as a run;
- the plant: ``ScalarDrawEnv``, a slot with one scalar draw per random
  quantity and ``np.searchsorted`` sampling, which the block-drawn
  ``Environment.step`` must match outcome for outcome and stream for stream.

Functions on the model or the factored dynamics take it first.
"""
from __future__ import annotations

import dataclasses
import math
import weakref
from collections import deque
from dataclasses import dataclass

import numpy as np

from greentx.config import ExperimentConfig
from greentx.env import Environment, SlotOutcome, perturb_channel
from greentx.errors import ConfigError, ConvergenceError, FeasibilityError
from greentx.harness import CSV_COLUMNS, MU_WINDOW_SLOTS, MetricsRecord, RunResult, run_experiment
from greentx.learners import LearningSchedule
from greentx.model import Action, JointModel, State
from greentx.pds import FactoredDynamics
from greentx.phy import (
    BEP_COEF,
    BEP_MAX,
    SNR_SLOPE,
    BepLevel,
    PhyConfig,
    bits_per_symbol,
    snr_for_bep,
)
from greentx import planner
from greentx.planner import RESTART, TIE_TOL, action_free_values, known_lookahead
from greentx.power import PmAction, PowerProfile, PowerState, pm_transition_pmf
from greentx.queueing import ArrivalDistribution

# ---- scalar link-layer and power rules ------------------------------------------


def bep_of_snr(snr: float, beta: int) -> float:
    """Bit error probability at a given SNR and modulation order beta."""
    if beta < 1:
        raise ConfigError(f"beta={beta} must be >= 1")
    value = BEP_COEF * math.exp(-SNR_SLOPE * snr / (2.0**beta - 1.0))
    return min(value, BEP_MAX)


def plr_of_bep(bep: float, packet_bits: int) -> float:
    """Packet loss ratio when every bit of the packet must survive."""
    # 1 - (1 - bep)^L, written to stay accurate for tiny bep.
    return -math.expm1(packet_bits * math.log1p(-bep))


def bep_level_from_bep(bep: float, packet_bits: int) -> BepLevel:
    """The grid point of a bit error probability (``BepLevel.from_plr``'s inverse)."""
    return BepLevel(bep=bep, plr=plr_of_bep(bep, packet_bits))


def tx_power(gain_db: float, bep: float, z: int, cfg: PhyConfig) -> float:
    """Transmit power in watts to send z packets at the target BEP.

    The receiver sees snr = gain * P / (N0 * W), so the power compensates the
    channel: worse gain or tighter BEP costs more, and z=0 costs nothing.
    """
    if z == 0:
        return 0.0
    beta = bits_per_symbol(z, cfg)
    snr_req = snr_for_bep(bep, beta)
    gain = 10.0 ** (gain_db / 10.0)
    return snr_req * cfg.noise_power_w / gain


def required_power(
    x: PowerState, y: PmAction, tx_power_w: float, profile: PowerProfile
) -> float:
    """Total power drawn this slot given the radio state and the command.

    Transmission is only possible while the radio is on and told to stay on;
    any slot that changes state burns the transition power instead.
    """
    if tx_power_w > 0.0 and not (x == PowerState.ON and y == PmAction.S_ON):
        raise FeasibilityError("transmitting requires the radio on and kept on")
    if x == PowerState.ON and y == PmAction.S_ON:
        return profile.p_on + tx_power_w
    if x == PowerState.OFF and y == PmAction.S_OFF:
        return profile.p_off
    return profile.p_tr


def goodput_pmf(z: int, plr: float) -> np.ndarray:
    """Distribution of the number of packets delivered out of z attempts.

    Packet losses are independent, so goodput is binomial(z, 1 - plr).
    Index f of the result is P[f packets delivered].
    """
    if z < 0:
        raise ConfigError(f"packet count z={z} is negative")
    if not (0.0 <= plr < 1.0):
        raise ConfigError(f"plr {plr} outside [0, 1)")
    ok = 1.0 - plr
    pmf = np.array(
        [math.comb(z, f) * ok**f * plr ** (z - f) for f in range(z + 1)],
        dtype=np.float64,
    )
    return pmf


# ---- buffer primitives ---------------------------------------------------------


def next_buffer(b: int, f: int, l: int, capacity: int) -> int:
    """Buffer occupancy after f departures and l arrivals, clamped at capacity."""
    if not 0 <= f <= b:
        raise ConfigError(f"departures f={f} outside [0, b={b}]")
    if l < 0:
        raise ConfigError("arrivals must be nonnegative")
    return min(b - f + l, capacity)


def expected_overflow(
    b_post: int, arrivals: ArrivalDistribution, capacity: int
) -> float:
    """Expected packets dropped when arrivals land on a buffer at b_post."""
    room = capacity - b_post
    if arrivals.l_max <= room:
        return 0.0
    ls = np.arange(room + 1, arrivals.l_max + 1)
    return float(arrivals.pmf[room + 1 :] @ (ls - room))


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


def is_feasible(model: JointModel, s: State, a: Action) -> bool:
    """Transmitting needs the radio on and kept on, and no more packets than held."""
    if a.z == 0:
        return True
    return s.x == PowerState.ON and a.y == PmAction.S_ON and a.z <= s.b


_FEASIBLE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def feasible_bxa(model: JointModel) -> np.ndarray:
    """The (n_b, n_x, n_a) feasibility cube, ``is_feasible`` pair by pair, kept per model.

    Feasibility does not depend on the channel, so channel 0 stands for all.
    """
    cube = _FEASIBLE.get(model)
    if cube is None:
        cube = np.array([
            [[is_feasible(model, State(b, 0, x), a) for a in model.actions] for x in PowerState]
            for b in range(model.n_b)
        ])
        cube.flags.writeable = False
        _FEASIBLE[model] = cube
    return cube


def feasible_action_indices(model: JointModel, s: State) -> np.ndarray:
    """Global indices of the allowed actions, read from ``feasible_bxa``."""
    return np.flatnonzero(feasible_bxa(model)[s.b, int(s.x)])


def feasible_actions(model: JointModel, s: State) -> list[Action]:
    """Allowed actions in canonical order (y, then z, then PLR)."""
    return [model.actions[i] for i in feasible_action_indices(model, s)]


def joint_transition_pmf(model: JointModel, s: State, a: Action) -> np.ndarray:
    """One-slot transition pmf over flat state indices."""
    if not is_feasible(model, s, a):
        raise FeasibilityError(f"action {a} infeasible in state {s}")
    pb = buffer_transition_pmf(s.b, a.z, a.bep.plr, model.arrivals, model.queue.capacity)
    ph = model.channel_matrix[s.h]
    px = pm_transition_pmf(s.x, a.y, model.profile.theta)
    return np.einsum("b,h,x->bhx", pb, ph, px).reshape(model.n_s)


def power_cost(model: JointModel, s: State, a: Action) -> float:
    """Expected power draw (watts) for the slot."""
    if not is_feasible(model, s, a):
        raise FeasibilityError(f"action {a} infeasible in state {s}")
    return float(model.rho_hxa[s.h, int(s.x), model.action_index[a]])


def g_ba(model: JointModel) -> np.ndarray:
    """Expected holding plus eta-weighted expected drops per (buffer, action).

    The drops of the arrivals after a transmission from buffer b, averaged
    over the goodput: ``hold_ba + eta * sum_B G_stack[a, b, B] o_exp[B]``.
    """
    ovf_ba = np.einsum("abB,B->ba", dense_tables(model)["G_stack"], model.o_exp)
    return model.hold_ba + model.queue.eta * ovf_ba


def expected_buffer_cost(model: JointModel, s: State, a: Action) -> float:
    """Expected holding plus eta-weighted expected drops."""
    if not is_feasible(model, s, a):
        raise FeasibilityError(f"action {a} infeasible in state {s}")
    return float(g_ba(model)[s.b, model.action_index[a]])


def lagrangian_cost(model: JointModel, s: State, a: Action, mu: float) -> float:
    """Power plus mu-weighted buffer cost for one slot."""
    return power_cost(model, s, a) + mu * expected_buffer_cost(model, s, a)


# ---- the model build slice by slice ------------------------------------------------


def tables_by_slices(model: JointModel) -> dict:
    """``G_stack``, ``px_stack`` and ``A_clamp`` one slice and one scalar law at a time."""
    cap = model.queue.capacity
    pmf = model.arrivals.pmf
    g_stack = np.zeros((model.n_a, model.n_b, model.n_b))
    px_stack = np.zeros((model.n_a, model.n_x, model.n_x))
    for i, a in enumerate(model.actions):
        fp = goodput_pmf(a.z, a.bep.plr)
        for b in range(model.n_b):
            if a.z > b:
                g_stack[i, b, b] = 1.0  # masked infeasible; keep stochastic
            else:
                g_stack[i, b, b - a.z : b + 1] = fp[::-1]
        for x in (PowerState.OFF, PowerState.ON):
            px_stack[i, int(x)] = pm_transition_pmf(x, a.y, model.profile.theta)
    a_clamp = np.zeros((model.n_b, model.n_b))
    for b_post in range(model.n_b):
        hi = min(cap - 1 - b_post, model.arrivals.l_max)
        if hi >= 0:
            a_clamp[b_post, b_post : b_post + hi + 1] = pmf[: hi + 1]
        a_clamp[b_post, cap] += pmf[max(cap - b_post, 0) :].sum()
    return {"G_stack": g_stack, "px_stack": px_stack, "A_clamp": a_clamp}


_DENSE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def dense_tables(model: JointModel) -> dict:
    """``tables_by_slices(model)``, built once per model object."""
    tables = _DENSE.get(model)
    if tables is None:
        tables = _DENSE[model] = tables_by_slices(model)
    return tables


def known_matrix_by_broadcast(model: JointModel) -> np.ndarray:
    """The known operator's dense (n_b * n_x, n_rows) matrix as one broadcast
    product of the slice-by-slice ``G_stack`` and ``px_stack``, kept per model."""
    tables = dense_tables(model)
    matrix = tables.get("matrix")
    if matrix is None:
        index = np.flatnonzero(feasible_bxa(model))
        bx, a = np.divmod(index, model.n_a)
        b, x = np.divmod(bx, model.n_x)
        matrix = tables["G_stack"][a, b].T[:, None, :] * tables["px_stack"][a, x].T[None, :, :]
        matrix = tables["matrix"] = matrix.reshape(model.n_b * model.n_x, index.size)
        matrix.flags.writeable = False
    return matrix


def dense_lookahead(model: JointModel, cost: np.ndarray, v_tilde: np.ndarray) -> np.ndarray:
    """``planner.known_lookahead`` as a product with the dense matrix."""
    q = v_tilde @ known_matrix_by_broadcast(model)
    q += cost
    return q


def dense_evaluate_rows(
    model: JointModel,
    cost: np.ndarray,
    c_post: np.ndarray,
    rows: np.ndarray,
    v: np.ndarray,
    tol: float,
    max_matvecs: int,
) -> tuple[np.ndarray, int]:
    """``planner._evaluate_rows`` through the dense matrix: the policy's
    columns gathered from it, its cost summed over (B, X) and the arrival
    clamp applied to each row by a batched product."""
    n_h, n_bx = model.n_h, model.n_b * model.n_x
    k_pi = known_matrix_by_broadcast(model).T[rows]  # (h, (b, x), (B, X))
    c_pi = np.take_along_axis(cost, rows, axis=1) + k_pi @ c_post
    k_pi = model.A_clamp.T @ k_pi.reshape(n_h, n_bx, model.n_b, model.n_x)
    k_pi = (model.gamma * k_pi).reshape(n_h, n_bx, n_bx)
    p = model.channel_matrix

    def apply(x: np.ndarray) -> np.ndarray:
        x = x.reshape(n_h, n_bx)
        return (x - (k_pi @ (p @ x)[:, :, None])[:, :, 0]).ravel()

    x, matvecs = planner._gmres(apply, c_pi.ravel(), v.ravel(), tol * (1.0 - model.gamma), max_matvecs)
    if not np.all(np.isfinite(x)):
        return v, matvecs
    return x.reshape(v.shape), matvecs


# ---- full (state, action) tables and the greedy rule over them ----------------------


def feasible_sa(model: JointModel) -> np.ndarray:
    """``feasible_bxa(model)`` expanded to the flat state layout, (n_s, n_a)."""
    return np.repeat(feasible_bxa(model), model.n_h, axis=0).reshape(model.n_s, model.n_a)


def pack(model: JointModel, table: np.ndarray) -> np.ndarray:
    """The feasible entries of a (..., n_b, n_x, n_a) table, in the known operator's row order."""
    return table[..., feasible_bxa(model)]


def unpack(model: JointModel, q: np.ndarray) -> np.ndarray:
    """(..., n_rows) back to (..., n_b, n_x, n_a), +inf at infeasible entries."""
    mask = feasible_bxa(model)
    full = np.full(q.shape[:-1] + mask.shape, np.inf)
    full[..., mask] = q
    return full


def greedy_from_q(q_sa: np.ndarray, feasible: np.ndarray, tie_tol: float = TIE_TOL) -> np.ndarray:
    """First feasible action within tie_tol of each row's minimum."""
    q = np.where(feasible, q_sa, np.inf)
    qmin = q.min(axis=1, keepdims=True)
    return np.argmax(q <= qmin + tie_tol, axis=1)


def flat_q(model: JointModel, q_packed: np.ndarray) -> np.ndarray:
    """(h, row) action values as (state, action) rows in the flat layout, +inf where infeasible."""
    q = unpack(model, q_packed)  # (h, b, x, a)
    return q.transpose(1, 0, 2, 3).reshape(model.n_s, model.n_a)


def q_values(model: JointModel, v: np.ndarray, mu: float) -> np.ndarray:
    """One-step lookahead values for every (state, action); infeasible -> +inf.

    Prices the slot with the classic pre-decision cost, power plus
    ``mu * g_ba``, and no cost after the post-decision point.
    """
    v_hbx = v.reshape(model.n_b, model.n_h, model.n_x).transpose(1, 0, 2)
    v_tilde = model.gamma * action_free_values(model, v_hbx)
    return flat_q(model, known_lookahead(model, stage_cost_by_pack(model, mu * g_ba(model)), v_tilde))


def action_values_slice(
    factored: FactoredDynamics, h: int, v_tilde: np.ndarray, mu: float
) -> np.ndarray:
    """Lookahead cost of every action from every (b, x) at channel h, +inf where infeasible."""
    return unpack(factored.model, factored.packed_values(h, v_tilde, mu))


def post_decision_policy(model: JointModel, v_tilde: np.ndarray, mu: float) -> np.ndarray:
    """Greedy policy (flat layout) read off a post-decision cube at the price mu.

    Each channel's full action-value slice through the learner's dense known
    operator (``action_values_slice``), then the full-table tie rule
    (``greedy_from_q``): not the solver's factored lookahead and block rule.
    """
    f = FactoredDynamics(model)
    q = np.stack([action_values_slice(f, h, v_tilde, mu) for h in range(model.n_h)], axis=1)
    return greedy_from_q(q.reshape(model.n_s, model.n_a), feasible_sa(model))


# ---- the post-decision split, one pair at a time -------------------------------


@dataclass(frozen=True)
class PostDecisionState:
    """Mid-slot state: transmission resolved, arrivals and channel move pending."""

    b: int
    h: int
    x: PowerState


def pds_of(s: State, a: Action, f_realized: int, x_next: PowerState) -> PostDecisionState:
    """Post-decision state reached from s after f deliveries and the radio settle."""
    if not 0 <= f_realized <= a.z:
        raise FeasibilityError(f"delivered f={f_realized} outside [0, z={a.z}]")
    return PostDecisionState(s.b - f_realized, s.h, x_next)


def known_pmf(factored: FactoredDynamics, s: State, a: Action) -> np.ndarray:
    """Distribution over post-decision states, flat state indexing."""
    m = factored.model
    if not is_feasible(m, s, a):
        raise FeasibilityError(f"action {a} infeasible in state {s}")
    ai = m.action_index[a]
    pb = dense_tables(m)["G_stack"][ai, s.b]  # transmission only, no arrivals
    ph = np.zeros(m.n_h)
    ph[s.h] = 1.0  # channel has not moved yet
    px = m.px_stack[ai, int(s.x)]
    return np.einsum("b,h,x->bhx", pb, ph, px).reshape(m.n_s)


def known_cost(factored: FactoredDynamics, s: State, a: Action, mu: float) -> float:
    """Power plus mu-weighted expected holding (drops are not known yet)."""
    m = factored.model
    if not is_feasible(m, s, a):
        raise FeasibilityError(f"action {a} infeasible in state {s}")
    ai = m.action_index[a]
    return float(m.rho_hxa[s.h, int(s.x), ai] + mu * m.hold_ba[s.b, ai])


def unknown_pmf(factored: FactoredDynamics, st: PostDecisionState) -> np.ndarray:
    """Distribution over next pre-decision states, flat state indexing."""
    m = factored.model
    pb = m.A_clamp[st.b]  # arrivals with the capacity clamp
    ph = m.channel_matrix[st.h]
    px = np.zeros(m.n_x)
    px[int(st.x)] = 1.0  # radio already settled
    return np.einsum("b,h,x->bhx", pb, ph, px).reshape(m.n_s)


def unknown_cost(factored: FactoredDynamics, st: PostDecisionState, mu: float) -> float:
    """mu-weighted expected drop penalty for arrivals on this buffer level."""
    m = factored.model
    return float(mu * m.queue.eta * m.o_exp[st.b])


def realized_unknown_cost(factored: FactoredDynamics, b_post: int, l: int) -> float:
    """Drop penalty for one observed arrival burst (not mu-weighted)."""
    m = factored.model
    return m.queue.eta * max(b_post + l - m.queue.capacity, 0)


# ---- learner references ----------------------------------------------------------


def default_schedules() -> LearningSchedule:
    return LearningSchedule()


@dataclass(frozen=True)
class PdsExperienceTuple:
    """One slot of experience keyed by its post-decision state.

    ``cost_unknown`` is the realized drop penalty without the multiplier.
    Virtual tuples have no originating state/action.
    """

    s_pds: PostDecisionState
    cost_unknown: float
    s_next: State
    l: int
    s: State | None = None
    a: Action | None = None


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


def epsilon_greedy_by_mask(
    q_row: np.ndarray, feasible_row: np.ndarray, eps: float, rng: np.random.Generator
) -> int:
    """The Q-learner's action read off a full row and its feasibility mask.

    One uniform draw decides exploration; an exploring slot picks a feasible
    action by one integer draw, and a greedy slot the first feasible action
    within ``TIE_TOL`` of the feasible minimum.
    """
    feasible = np.flatnonzero(feasible_row)
    if rng.random() < eps:
        return int(feasible[rng.integers(len(feasible))])
    vals = q_row[feasible]
    return int(feasible[np.flatnonzero(vals <= vals.min() + TIE_TOL)[0]])


def best_continuation_by_mask(q: np.ndarray, feasible_sa: np.ndarray, s: int) -> float:
    """The least feasible entry of state s's full Q row."""
    return float(q[s][feasible_sa[s]].min())


# ---- the PDS slot as whole-array numpy formulas ------------------------------------
# The learner's slot reads per-block views, per-arrival-count index tables and
# a step-size table, and writes in place; these are the formulas it replaced,
# which it must match byte for byte.


def alpha_by_power(n, power: float):
    """Step size (1 / (1 + n)) ** power of a visit count or an array of them."""
    return (1.0 / (1.0 + n)) ** power


def stage_cost_by_pack(model: JointModel, buffer_cost_ba: np.ndarray) -> np.ndarray:
    """Per-slot cost (h, row): the full (h, b, x, a) power-plus-buffer-cost table, packed."""
    cost = model.rho_hxa[:, None, :, :] + buffer_cost_ba[None, :, None, :]
    return pack(model, cost)


def lookahead_by_pack(
    factored: FactoredDynamics, h: int, v_tilde: np.ndarray, mu: float, lo=None, hi=None
) -> np.ndarray:
    """Lookahead cost of the known operator's rows lo:hi (all by default) at channel h,
    with power and holding packed from their full tables."""
    m = factored.model
    op = m.known_operator
    full = feasible_bxa(m).shape
    rho = pack(m, np.broadcast_to(m.rho_hxa[:, None], (m.n_h,) + full))
    hold = pack(m, np.broadcast_to(m.hold_ba[:, None, :], full))
    ev = v_tilde[:, h, :].ravel() @ op.matrix[:, lo:hi]
    return rho[h, lo:hi] + mu * hold[lo:hi] + ev


def greedy_row_by_argmax(
    factored: FactoredDynamics, b: int, h: int, x: int, v_tilde: np.ndarray, mu: float
) -> tuple[float, int]:
    """Greedy value and action at (b, h, x): one block's rows, numpy tie rule."""
    op = factored.model.known_operator
    k = b * factored.model.n_x + x
    lo, hi = op.bounds[k], op.bounds[k + 1]
    q = lookahead_by_pack(factored, h, v_tilde, mu, lo, hi)
    val = q.min()
    return float(val), int(op.action[lo + np.argmax(q <= val + TIE_TOL)])


def ve_batch_by_fancy_index(
    v_tilde: np.ndarray, h: int, h_next: int, l: int, alpha, mu: float, factored: FactoredDynamics
) -> None:
    """Batch update of the column at channel h, with index arrays built on the spot."""
    m = factored.model
    cap = m.queue.capacity
    q = lookahead_by_pack(factored, h_next, v_tilde, mu)
    vals = m.known_operator.block_min(q).reshape(m.n_b, m.n_x)
    b = np.arange(m.n_b)
    b_next = np.minimum(b + l, cap)
    drops = np.maximum(b + l - cap, 0)
    targets = mu * m.queue.eta * drops[:, None] + m.gamma * vals[b_next, :]
    v_tilde[:, h, :] = (1.0 - alpha) * v_tilde[:, h, :] + alpha * targets


# ---- solvers and runs ------------------------------------------------------------


def action_value(s: State, a: Action, v: np.ndarray, model: JointModel, mu: float) -> float:
    """Cost at price mu plus discounted expected continuation, via the joint transition pmf."""
    pmf = joint_transition_pmf(model, s, a)
    return lagrangian_cost(model, s, a, mu) + model.gamma * float(pmf @ v)


def policy_evaluate(
    policy: np.ndarray,
    model: JointModel,
    mu: float,
    tol: float = 1e-9,
    max_iters: int = 200_000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Discounted (total at price mu, power-only, buffer-only) cost of a stationary policy.

    The three value vectors satisfy total = power + mu * buffer at the fixed
    point, since the policy is shared and cost splits linearly.
    """
    n_s = model.n_s
    states = all_states(model)
    pb_stack = dense_tables(model)["G_stack"] @ model.A_clamp  # buffer law per (action, level)
    pb_sel = np.empty((n_s, model.n_b))
    ph_sel = np.empty((n_s, model.n_h))
    px_sel = np.empty((n_s, model.n_x))
    rho_sel = np.empty(n_s)
    g_sel = np.empty(n_s)
    g_table = g_ba(model)
    for i, s in enumerate(states):
        a = int(policy[i])
        if not feasible_bxa(model)[s.b, int(s.x), a]:
            raise ConvergenceError(f"policy picks infeasible action {a} in state {s}")
        pb_sel[i] = pb_stack[a, s.b]
        ph_sel[i] = model.channel_matrix[s.h]
        px_sel[i] = model.px_stack[a, int(s.x)]
        rho_sel[i] = model.rho_hxa[s.h, int(s.x), a]
        g_sel[i] = g_table[s.b, a]

    costs = np.stack([rho_sel + mu * g_sel, rho_sel, g_sel])
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


def gmres_mgs(apply, b: np.ndarray, x: np.ndarray, tol: float, max_matvecs: int) -> tuple[np.ndarray, int]:
    """``planner._gmres`` with modified Gram-Schmidt in its Arnoldi step.

    Same restarts, Givens rotations, stopping rules and matvec count; only
    the orthogonalization differs: 2(k + 1) vector operations at step k, one
    basis vector at a time, where the package makes two BLAS products with
    the whole basis twice (CGS2).
    """
    basis = np.empty((RESTART + 1, b.size))
    hess = np.zeros((RESTART + 1, RESTART))
    cs = np.empty(RESTART)
    sn = np.empty(RESTART)
    g = np.empty(RESTART + 1)
    matvecs = 0
    last = np.inf
    while matvecs < max_matvecs:
        r = b - apply(x)
        matvecs += 1
        beta = float(np.linalg.norm(r))
        if not (tol < beta < last):
            break
        last = beta
        basis[0] = r / beta
        g[0] = beta
        k = 0
        while k < RESTART and matvecs < max_matvecs:
            w = apply(basis[k])
            matvecs += 1
            col = hess[:, k]
            for i in range(k + 1):
                col[i] = w @ basis[i]
                w -= col[i] * basis[i]
            h_next = float(np.linalg.norm(w))
            for i in range(k):
                col[i], col[i + 1] = cs[i] * col[i] + sn[i] * col[i + 1], cs[i] * col[i + 1] - sn[i] * col[i]
            d = math.hypot(col[k], h_next)
            cs[k], sn[k] = col[k] / d, h_next / d
            col[k] = d
            g[k + 1] = -sn[k] * g[k]
            g[k] *= cs[k]
            k += 1
            if not (abs(g[k]) > tol and h_next > 0.0):
                break
            basis[k] = w / h_next
        y = np.empty(k)
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - hess[i, i + 1 : k] @ y[i + 1 :]) / hess[i, i]
        x = x + y @ basis[:k]
    return x, matvecs


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


class RunningSumMetrics:
    """Metric rows kept slot by slot: running sums and a window of prices.

    ``update`` returns slot n's ``MetricsRecord`` from five running sums and
    a running window sum over a ``deque``, the sequential arithmetic that
    ``MetricsAccumulator.history`` must reproduce bit for bit.
    """

    def __init__(self, mu_window: int = MU_WINDOW_SLOTS) -> None:
        self.count = 0
        self.sum_cost = 0.0
        self.sum_power = 0.0
        self.sum_holding = 0.0
        self.sum_overflow = 0.0
        self.off_slots = 0
        self._mu_hist: deque = deque(maxlen=mu_window)
        self._mu_wsum = 0.0

    def update(self, *, power_w, g_realized, holding, drops, off_slot, mu) -> MetricsRecord:
        self.count += 1
        self.sum_cost += power_w + mu * g_realized
        self.sum_power += power_w
        self.sum_holding += holding
        self.sum_overflow += drops
        self.off_slots += int(off_slot)
        if len(self._mu_hist) == self._mu_hist.maxlen:
            self._mu_wsum -= self._mu_hist[0]
        self._mu_hist.append(mu)
        self._mu_wsum += mu
        c = self.count
        return MetricsRecord(
            n=c - 1,
            cum_cost=self.sum_cost / c,
            cum_power_w=self.sum_power / c,
            cum_holding=self.sum_holding / c,
            cum_overflow=self.sum_overflow / c,
            theta_off=self.off_slots / c,
            mu_window=max(0.0, self._mu_wsum / len(self._mu_hist)),
        )


def csv_text_by_rows(history) -> str:
    """The metric CSV one row at a time: the slot as an integer, every
    other value by ``repr`` of its Python float, joined per row."""
    lines = [",".join(CSV_COLUMNS) + "\n"]
    for row in np.asarray(history, dtype=np.float64):
        n, *vals = row.tolist()
        lines.append(",".join([str(int(n))] + [repr(v) for v in vals]) + "\n")
    return "".join(lines)


def per_step_suboptimal(cfg: ExperimentConfig, **kwargs) -> RunResult:
    """The re-planning reference as a first-class run."""
    return run_experiment(dataclasses.replace(cfg, algorithm="suboptimal"), **kwargs)


# ---- the plant, one scalar draw at a time ------------------------------------------


def _searchsorted_draw(pmf, u: float) -> int:
    cum = np.cumsum(pmf)
    return min(int(np.searchsorted(cum, u, side="right")), cum.size - 1)


class ScalarDrawEnv:
    """``Environment.step`` with one scalar ``rng.random()`` per uniform.

    Runs the slot on the parts of ``env`` (model, channel, arrivals, seeded
    streams, start state) without calling its ``step``: every uniform is a
    scalar draw on its stream and every outcome an ``np.searchsorted`` on
    the pmf's cumulative sums. ``env`` must not be stepped by anyone else.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.s = env.s

    def step(self, a: int) -> SlotOutcome:
        env, m = self.env, self.env.model
        streams, arrivals, channel = env.streams, env.arrivals, env.channel
        if not feasible_sa(m)[self.s, a]:
            raise FeasibilityError(f"action {a} infeasible in state {self.s}")
        b, h, x = m.decode(self.s)
        z = int(m.action_z[a])
        f = int(streams.goodput.binomial(z, 1.0 - m.action_plr[a])) if z > 0 else 0
        p_off = m.px_stack[a, x, int(PowerState.OFF)]
        x_next = int(PowerState.OFF) if streams.pm.random() < p_off else int(PowerState.ON)
        if arrivals.mode == "stationary":
            l = _searchsorted_draw(arrivals.pmf.pmf, streams.arrival.random())
        else:
            rate = float(arrivals.rates[arrivals.chain_state])
            if not streams.arrival.random() < arrivals.stay:
                arrivals.chain_state = _searchsorted_draw(arrivals.stationary, streams.arrival.random())
            l = int(streams.arrival.poisson(rate * arrivals.slot_seconds))
        if channel.mode == "stationary":
            h_next = _searchsorted_draw(channel.matrix[h], streams.channel.random())
        else:
            per = perturb_channel(channel.matrix, channel.perturb_magnitude, streams.channel)
            h_next = _searchsorted_draw(per[h], streams.channel.random())
        cap = m.queue.capacity
        holding = b - f
        drops = max(holding + l - cap, 0)
        s, self.s = self.s, m.encode(min(holding + l, cap), h_next, x_next)
        return SlotOutcome(
            s, a, f, l, self.s, float(m.rho_hxa[h, x, a]), holding, drops,
            holding + m.queue.eta * drops,
        )

    def snapshot(self) -> dict:
        """What ``Environment.snapshot`` must return after the same slots."""
        return {
            "state": self.env.model.decode(self.s),
            "streams": self.env.streams.snapshot(),
            "arrivals": self.env.arrivals.snapshot(),
        }
