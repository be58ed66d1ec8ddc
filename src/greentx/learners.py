"""Online learners: conventional Q-learning and the post-decision-state learner.

The PDS learner needs no exploration (its greedy rule already uses the known
half of the dynamics exactly) and supports virtual experience: one observed
arrival burst and channel move applies to every buffer level and radio state
at once, since the unknown half of the dynamics is shared across them.

Rate schedules: the value-table rate alpha decays slower than the multiplier
rate beta, so the value estimates track the slowly moving constraint price.
Both learners update their tables asynchronously, so each table entry steps
with alpha of its own write count (a local clock per entry), while beta runs
on the global slot count. Entries written rarely, such as off-state entries
that only batch slots reach, keep large corrections until they are seen.

Both learners are actors of the run loop as they stand (see ``harness``):
besides ``act`` and ``learn`` they report the price in effect (``mu``),
their tables, and a snapshot that ``restore`` reinstates for checkpoints.
A run that pins the price hands them a ``MultiplierState`` with ``fixed``
set, so the pin lives in ``mu_update`` alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import Action, JointModel, State
from .pds import FactoredDynamics, PostDecisionState
from .planner import TIE_TOL


@dataclass
class LearningSchedule:
    """Polynomial step sizes and the exploration decay."""

    alpha_power: float = 0.7
    beta_power: float = 1.0
    eps_start: float = 0.5
    eps_decay: float = 0.9999
    eps_floor: float = 0.01

    def __post_init__(self) -> None:
        if not 0.5 < self.alpha_power <= 1.0:
            raise ConfigError("alpha_power must lie in (0.5, 1]")
        if not self.alpha_power < self.beta_power <= 1.0:
            raise ConfigError("beta_power must lie in (alpha_power, 1]")

    def alpha(self, n: int | np.ndarray) -> float | np.ndarray:
        """Value-table step size at visit n, starting from 1; n may be an array."""
        return (1.0 / (1.0 + n)) ** self.alpha_power

    def beta(self, n: int) -> float:
        """Multiplier step size at slot n; decays faster than alpha."""
        return (1.0 / (1.0 + n)) ** self.beta_power

    def epsilon(self, n: int) -> float:
        return max(self.eps_floor, self.eps_start * self.eps_decay**n)


@dataclass
class MultiplierState:
    """Constraint price: tracks how far average buffer cost runs above target.

    ``fixed`` pins the price at its current value: ``mu_update`` leaves it
    alone, which turns off the constraint ascent for every learner at once.
    """

    mu: float = 0.0
    target: float = 4.0
    mu_max: float = 100.0
    fixed: bool = False

    def __post_init__(self) -> None:
        if self.mu_max <= 0:
            raise ConfigError("mu_max must be positive")
        if not 0.0 <= self.mu <= self.mu_max:
            raise ConfigError("mu must start inside [0, mu_max]")
        if self.target < 0:
            raise ConfigError("target must be nonnegative")


def mu_update(state: MultiplierState, g_realized: float, beta_n: float) -> float:
    """Projected ascent step on the buffer-cost constraint; returns the new price."""
    if not state.fixed:
        # builtin min/max: np.clip on one float costs about ten times as much
        state.mu = float(
            min(max(state.mu + beta_n * (g_realized - state.target), 0.0), state.mu_max)
        )
    return state.mu


# ---------------------------------------------------------------------------
# Conventional Q-learning
# ---------------------------------------------------------------------------


def q_update(
    q: np.ndarray,
    s_idx: int,
    a_idx: int,
    cost: float,
    s_next_idx: int,
    alpha: float,
    gamma: float,
    feasible_sa: np.ndarray,
) -> float:
    """One tabular backup toward cost plus the best feasible continuation."""
    row = q[s_next_idx]
    best_next = float(row[feasible_sa[s_next_idx]].min())
    q[s_idx, a_idx] = (1.0 - alpha) * q[s_idx, a_idx] + alpha * (
        cost + gamma * best_next
    )
    return float(q[s_idx, a_idx])


def epsilon_greedy(
    q_row: np.ndarray,
    feasible_idx: np.ndarray,
    eps: float,
    rng: np.random.Generator,
) -> int:
    """Greedy feasible action, replaced by a uniform feasible draw w.p. eps."""
    if rng.random() < eps:
        return int(feasible_idx[rng.integers(feasible_idx.size)])
    sub = q_row[feasible_idx]
    return int(feasible_idx[np.argmax(sub <= sub.min() + TIE_TOL)])


class QLearner:
    """Model-free learner over the joint state; has to explore to see costs."""

    def __init__(
        self,
        model: JointModel,
        schedules: LearningSchedule,
        multiplier: MultiplierState,
        rng: np.random.Generator,
    ) -> None:
        self.model = model
        self.schedules = schedules
        self.multiplier = multiplier
        self.rng = rng
        self.q = np.zeros((model.n_s, model.n_a))
        self.visits = np.zeros((model.n_s, model.n_a), dtype=np.int64)
        self.n = 0

    def act(self, s: State) -> Action:
        m = self.model
        si = m.state_index(s)
        feas = m.feasible_action_indices(s)
        ai = epsilon_greedy(self.q[si], feas, self.schedules.epsilon(self.n), self.rng)
        self._last_action_idx = ai
        return m.actions[ai]

    def learn(self, outcome) -> None:
        m = self.model
        si = m.state_index(outcome.s)
        ai = self._last_action_idx
        cost = outcome.power_w + self.multiplier.mu * outcome.g_realized
        # per-pair step size: rarely visited pairs keep large corrections
        alpha = self.schedules.alpha(int(self.visits[si, ai]))
        self.visits[si, ai] += 1
        q_update(
            self.q,
            si,
            ai,
            cost,
            m.state_index(outcome.s_next),
            alpha,
            m.gamma,
            m.feasible_sa,
        )
        mu_update(self.multiplier, outcome.g_realized, self.schedules.beta(self.n))
        self.n += 1

    @property
    def mu(self) -> float:
        return self.multiplier.mu

    def tables(self) -> dict:
        return {"q": self.q.copy(), "visits": self.visits.copy()}

    def snapshot(self) -> dict:
        return {**self.tables(), "n": self.n, "mu": self.multiplier.mu}

    def restore(self, snap: dict) -> None:
        self.q[...] = snap["q"]
        self.visits[...] = snap["visits"]
        self.n = snap["n"]
        self.multiplier.mu = snap["mu"]


# ---------------------------------------------------------------------------
# Post-decision-state learning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PdsExperienceTuple:
    """One slot of experience keyed by its post-decision state.

    ``cost_unknown`` is the realized drop penalty without the multiplier;
    the update weighs it by the multiplier current at update time. Virtual
    tuples have no originating state/action.
    """

    s_pds: PostDecisionState
    cost_unknown: float
    s_next: State
    l: int
    s: State | None = None
    a: Action | None = None


def experience_from(outcome, eta: float) -> PdsExperienceTuple:
    return PdsExperienceTuple(
        s_pds=outcome.s_pds,
        cost_unknown=eta * outcome.drops,
        s_next=outcome.s_next,
        l=outcome.l,
        s=outcome.s,
        a=outcome.action,
    )


def pds_greedy(
    s: State, v_tilde: np.ndarray, factored: FactoredDynamics, mu: float
) -> Action:
    """Deterministic greedy action: known cost plus post-decision value."""
    _, ai = factored.greedy_row(s.b, s.h, int(s.x), v_tilde, mu)
    return factored.model.actions[ai]


def pds_state_value(
    s: State, v_tilde: np.ndarray, factored: FactoredDynamics, mu: float
) -> float:
    """Value of a pre-decision state implied by the post-decision table."""
    val, _ = factored.greedy_row(s.b, s.h, int(s.x), v_tilde, mu)
    return val


def pds_update(
    v_tilde: np.ndarray,
    tup: PdsExperienceTuple,
    alpha: float,
    mu: float,
    factored: FactoredDynamics,
) -> float:
    """Move one post-decision entry toward its sampled one-slot target."""
    m = factored.model
    target = mu * tup.cost_unknown + m.gamma * pds_state_value(
        tup.s_next, v_tilde, factored, mu
    )
    st = tup.s_pds
    old = v_tilde[st.b, st.h, int(st.x)]
    v_tilde[st.b, st.h, int(st.x)] = (1.0 - alpha) * old + alpha * target
    return float(v_tilde[st.b, st.h, int(st.x)])


def ve_batch_update(
    v_tilde: np.ndarray,
    tup: PdsExperienceTuple,
    alpha: float | np.ndarray,
    mu: float,
    factored: FactoredDynamics,
    period: int,
    n: int,
) -> int:
    """Batch slot: update every (buffer, radio) entry at the observed channel.

    Off-batch slots fall back to the single-entry update, for which alpha
    must be a scalar. On a batch slot alpha is a scalar or an (n_b, n_x)
    array of per-entry step sizes for the written slice. Batch targets are
    all computed from the pre-update table (order-free), each entry written
    exactly once. Returns the number of entries written.
    """
    if period < 1:
        raise ConfigError("period must be at least 1")
    if n % period != 0:
        pds_update(v_tilde, tup, alpha, mu, factored)
        return 1
    m = factored.model
    cap = m.queue.capacity
    vals = factored.slice_minima(tup.s_next.h, v_tilde, mu)
    b = np.arange(m.n_b)
    b_next = np.minimum(b + tup.l, cap)
    drops = np.maximum(b + tup.l - cap, 0)
    targets = mu * m.queue.eta * drops[:, None] + m.gamma * vals[b_next, :]
    h_t = tup.s_pds.h
    v_tilde[:, h_t, :] = (1.0 - alpha) * v_tilde[:, h_t, :] + alpha * targets
    return m.n_b * m.n_x


class PdsLearner:
    """Exploration-free learner on post-decision values, optionally batched.

    ``visits`` counts the writes to each post-decision entry; every write
    steps with alpha of that entry's count, for plain and batched updates
    alike.
    """

    def __init__(
        self,
        factored: FactoredDynamics,
        v_tilde0: np.ndarray,
        schedules: LearningSchedule,
        multiplier: MultiplierState,
        ve_period: int | None = None,
    ) -> None:
        if ve_period is not None and ve_period < 1:
            raise ConfigError("ve_period must be at least 1")
        self.factored = factored
        self.v_tilde = np.array(v_tilde0, dtype=np.float64, copy=True)
        self.visits = np.zeros(self.v_tilde.shape, dtype=np.int64)
        self.schedules = schedules
        self.multiplier = multiplier
        self.ve_period = ve_period
        self.n = 0

    def act(self, s: State) -> Action:
        return pds_greedy(s, self.v_tilde, self.factored, self.multiplier.mu)

    def learn(self, outcome) -> None:
        eta = self.factored.model.queue.eta
        tup = experience_from(outcome, eta)
        mu = self.multiplier.mu
        st = tup.s_pds
        batch = self.ve_period is not None and self.n % self.ve_period == 0
        written = (slice(None), st.h, slice(None)) if batch else (st.b, st.h, int(st.x))
        alpha = self.schedules.alpha(self.visits[written])
        if self.ve_period is None:
            pds_update(self.v_tilde, tup, alpha, mu, self.factored)
        else:
            ve_batch_update(
                self.v_tilde, tup, alpha, mu, self.factored, self.ve_period, self.n
            )
        self.visits[written] += 1
        mu_update(self.multiplier, outcome.g_realized, self.schedules.beta(self.n))
        self.n += 1

    @property
    def mu(self) -> float:
        return self.multiplier.mu

    def tables(self) -> dict:
        return {"v_tilde": self.v_tilde.copy(), "visits": self.visits.copy()}

    def snapshot(self) -> dict:
        return {**self.tables(), "n": self.n, "mu": self.multiplier.mu}

    def restore(self, snap: dict) -> None:
        self.v_tilde[...] = snap["v_tilde"]
        self.visits[...] = snap["visits"]
        self.n = snap["n"]
        self.multiplier.mu = snap["mu"]
