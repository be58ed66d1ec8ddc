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
``act`` maps a flat state index to a global action index and ``learn``
reads the slot's ``SlotOutcome``; besides these they report the price in
effect (``mu``), their tables, and a snapshot that ``restore`` reinstates
for checkpoints.
A run that pins the price hands them a ``MultiplierState`` with ``fixed``
set, so the pin lives in ``mu_update`` alone. ``restore`` refuses a
snapshot whose layout differs from the learner's own with
``TableFormatError``.

The Q-learner's slot makes no numpy call on a table row: feasibility does
not depend on the channel, so it keeps, per (buffer, radio) block of
states, the list of feasible action indices (for ``act``) and the boolean
feasibility row as bytes (for the backup), built once from
``model.feasible_bxa``, and reads the Q row it needs with ``tolist``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import ConfigError, check_snapshot
from .model import JointModel
from .pds import FactoredDynamics
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
        self.mu = float(self.mu)  # the price is a float from the start, as in snapshots
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
    feasible_sa,
) -> float:
    """One tabular backup toward cost plus the best feasible continuation.

    ``feasible_sa[s]`` is state s's feasibility row: a bool array, or any
    sequence of truth values such as ``bytes``.
    """
    best_next = min(compress(q[s_next_idx].tolist(), feasible_sa[s_next_idx]))
    new = (1.0 - alpha) * q.item(s_idx, a_idx) + alpha * (cost + gamma * best_next)
    q[s_idx, a_idx] = new
    return new


def epsilon_greedy(
    q_row: np.ndarray,
    feasible_idx,
    eps: float,
    rng: np.random.Generator,
) -> int:
    """Greedy feasible action, replaced by a uniform feasible draw w.p. eps.

    The greedy action is the first of ``feasible_idx`` (an array or a list)
    within ``TIE_TOL`` of the feasible minimum.
    """
    if rng.random() < eps:
        return int(feasible_idx[rng.integers(len(feasible_idx))])
    row = q_row.tolist()
    vals = [row[a] for a in feasible_idx]
    tie = min(vals) + TIE_TOL
    for a, v in zip(feasible_idx, vals):
        if v <= tie:
            return int(a)
    return int(feasible_idx[0])  # only NaN entries can leave the tie window empty


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
        # feasibility does not depend on h: the n_h states of a (b, x) block
        # share its list of feasible action indices and its row as bytes
        n_x, n_a = model.n_x, model.n_a
        blocks = model.feasible_bxa.reshape(-1, n_a)  # row b * n_x + x
        actions = np.nonzero(blocks)[1].tolist()
        bounds = [0, *np.cumsum(blocks.sum(axis=1)).tolist()]
        raw = blocks.tobytes()
        self._feasible, self._feasible_rows = [], []
        for b in range(model.n_b):
            ks = range(b * n_x, (b + 1) * n_x)
            self._feasible += [actions[bounds[k] : bounds[k + 1]] for k in ks] * model.n_h
            self._feasible_rows += [raw[k * n_a : (k + 1) * n_a] for k in ks] * model.n_h

    def act(self, s: int) -> int:
        return epsilon_greedy(
            self.q[s], self._feasible[s], self.schedules.epsilon(self.n), self.rng
        )

    def learn(self, outcome) -> None:
        s, a = outcome.s, outcome.a
        cost = outcome.power_w + self.multiplier.mu * outcome.g_realized
        # per-pair step size: rarely visited pairs keep large corrections
        n_sa = self.visits.item(s, a)
        self.visits[s, a] = n_sa + 1
        q_update(
            self.q, s, a, cost, outcome.s_next, self.schedules.alpha(n_sa),
            self.model.gamma, self._feasible_rows,
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
        check_snapshot(snap, self.snapshot(), "actor")
        self.q[...] = snap["q"]
        self.visits[...] = snap["visits"]
        self.n = snap["n"]
        self.multiplier.mu = snap["mu"]


# ---------------------------------------------------------------------------
# Post-decision-state learning
# ---------------------------------------------------------------------------


def pds_update(
    v_tilde: np.ndarray,
    b: int,
    h: int,
    x: int,
    h_next: int,
    l: int,
    alpha: float,
    mu: float,
    factored: FactoredDynamics,
) -> float:
    """Move post-decision entry (b, h, x) toward its sampled one-slot target.

    The slot's ``l`` arrivals and move to channel ``h_next`` lead to the
    pre-decision state (min(b + l, capacity), h_next, x), whose greedy
    value the target discounts; the drops cost eta each, weighed by mu.
    """
    m = factored.model
    cap = m.queue.capacity
    drops = max(b + l - cap, 0)
    val, _ = factored.greedy_row(min(b + l, cap), h_next, x, v_tilde, mu)
    target = mu * (m.queue.eta * drops) + m.gamma * val
    v_tilde[b, h, x] = (1.0 - alpha) * v_tilde[b, h, x] + alpha * target
    return float(v_tilde[b, h, x])


def ve_batch_update(
    v_tilde: np.ndarray,
    h: int,
    h_next: int,
    l: int,
    alpha: float | np.ndarray,
    mu: float,
    factored: FactoredDynamics,
) -> int:
    """Batch slot: update every (buffer, radio) entry at the observed channel h.

    Replays the observed ``l`` arrivals and move to ``h_next`` from every
    buffer level and radio state. alpha is a scalar or an (n_b, n_x) array
    of per-entry step sizes. All targets are computed from the pre-update
    table (order-free), each entry written exactly once. Returns the number
    of entries written.
    """
    m = factored.model
    cap = m.queue.capacity
    vals = factored.slice_minima(h_next, v_tilde, mu)
    b = np.arange(m.n_b)
    b_next = np.minimum(b + l, cap)
    drops = np.maximum(b + l - cap, 0)
    targets = mu * m.queue.eta * drops[:, None] + m.gamma * vals[b_next, :]
    v_tilde[:, h, :] = (1.0 - alpha) * v_tilde[:, h, :] + alpha * targets
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
        self._decode = factored.model.decode

    def act(self, s: int) -> int:
        b, h, x = self._decode(s)
        return self.factored.greedy_row(b, h, x, self.v_tilde, self.multiplier.mu)[1]

    def learn(self, outcome) -> None:
        # the post-decision entry is (holding, h, x_next): x_next is s_next's radio
        _, h, _ = self._decode(outcome.s)
        _, h_next, x = self._decode(outcome.s_next)
        mu = self.multiplier.mu
        batch = self.ve_period is not None and self.n % self.ve_period == 0
        written = (slice(None), h, slice(None)) if batch else (outcome.holding, h, x)
        alpha = self.schedules.alpha(self.visits[written])
        if batch:
            ve_batch_update(self.v_tilde, h, h_next, outcome.l, alpha, mu, self.factored)
        else:
            pds_update(
                self.v_tilde, outcome.holding, h, x, h_next, outcome.l, alpha, mu, self.factored
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
        check_snapshot(snap, self.snapshot(), "actor")
        self.v_tilde[...] = snap["v_tilde"]
        self.visits[...] = snap["visits"]
        self.n = snap["n"]
        self.multiplier.mu = snap["mu"]
