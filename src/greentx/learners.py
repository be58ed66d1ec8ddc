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
``act(s, n, mu)`` maps a flat state index to a global action index and
``learn(outcome, n, mu)`` reads the slot's ``SlotOutcome``; besides these
they report their tables, and a snapshot that ``restore`` reinstates for
checkpoints. The loop owns the slot index n and the price: it hands both
to every call, and it alone steps the price with ``mu_update``, so a run
that pins the price pins it there, with ``MultiplierState.fixed``.
``restore`` refuses with ``TableFormatError`` a snapshot whose layout
differs from the learner's own, or whose values no run reaches: a
negative visit count, a value table that is not finite.

The Q-learner's slot reads a table row only as one slice and its
``tolist``: a state's feasible actions are the first k = ``n_feasible[b, x]``
of the list (see ``model``), so ``act`` and the backup read ``q[s, :k]``.

The PDS learner's slot makes few numpy calls, and each on a contiguous
array. It stores its table and visit counts channel-major, (n_h, n_b, n_x),
behind (n_b, n_h, n_x) views, so the slice at one channel is contiguous.
A greedy row (``act``, and ``pds_update``) reads its (buffer, radio)
block's cost rows and matrix columns from views that ``FactoredDynamics``
builds on first use, and takes the tie rule on ``tolist``. A batch slot
reads where the observed arrivals land, and what they drop, from a table
cached per arrival count (``FactoredDynamics.landing``). Its step sizes
come from a table of alpha on arrays, grown by doubling. It writes the
column and the counts in place. Every output equals the whole-array
formulas bit for bit. numpy's alpha on an array may differ by an ulp from
alpha on one count, so the table serves only the batch slot, which takes
alpha on an array; a single-entry slot computes alpha of its one count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_snapshot, check_values
from .model import JointModel
from .pds import FactoredDynamics
from .planner import TIE_TOL

ALPHA_TABLE_START = 256  # entries of the PDS learner's step-size table at first
ALPHA_TABLE_MAX = 1 << 20  # and at most: counts past it are stepped without the table


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
        for name in ("eps_start", "eps_floor", "eps_decay"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")

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
    alone, which turns off the constraint ascent. ``mu_max`` bounds only a
    price that moves; a fixed price need only be finite and nonnegative.
    """

    mu: float = 0.0
    target: float = 4.0
    mu_max: float = 100.0
    fixed: bool = False

    def __post_init__(self) -> None:
        self.mu = float(self.mu)  # the price is a float from the start, as in checkpoints
        if self.mu_max <= 0:
            raise ConfigError("mu_max must be positive")
        if not 0.0 <= self.mu <= (np.finfo(float).max if self.fixed else self.mu_max):
            raise ConfigError("mu must start inside [0, mu_max], or be finite if fixed")
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
    n_feasible,
) -> float:
    """One tabular backup toward cost plus the best feasible continuation.

    ``n_feasible[s]`` is state s's feasible prefix length: the continuation
    is the minimum of that prefix of the next state's row.
    """
    best_next = min(q[s_next_idx, : n_feasible[s_next_idx]].tolist())
    new = (1.0 - alpha) * q.item(s_idx, a_idx) + alpha * (cost + gamma * best_next)
    q[s_idx, a_idx] = new
    return new


def epsilon_greedy(q_row: np.ndarray, eps: float, rng: np.random.Generator) -> int:
    """Greedy index into ``q_row``, replaced by a uniform index w.p. eps.

    ``q_row`` holds the values of the feasible actions 0 .. len - 1 (a
    state's prefix of its Q row). The greedy index is the first within
    ``TIE_TOL`` of the row's minimum.
    """
    if rng.random() < eps:
        return int(rng.integers(len(q_row)))
    row = q_row.tolist()
    tie = min(row) + TIE_TOL
    for a, v in enumerate(row):
        if v <= tie:
            return a
    return 0  # only NaN entries can leave the tie window empty


class QLearner:
    """Model-free learner over the joint state; has to explore to see costs."""

    def __init__(
        self,
        model: JointModel,
        schedules: LearningSchedule,
        rng: np.random.Generator,
    ) -> None:
        self.model = model
        self.schedules = schedules
        self.rng = rng
        self.q = np.zeros((model.n_s, model.n_a))
        self.visits = np.zeros((model.n_s, model.n_a), dtype=np.int64)
        self._n_feasible = np.repeat(model.n_feasible, model.n_h, axis=0).ravel().tolist()

    def act(self, s: int, n: int, mu: float) -> int:
        return epsilon_greedy(self.q[s, : self._n_feasible[s]], self.schedules.epsilon(n), self.rng)

    def learn(self, outcome, n: int, mu: float) -> None:
        s, a = outcome.s, outcome.a
        cost = outcome.power_w + mu * outcome.g_realized
        # per-pair step size: rarely visited pairs keep large corrections
        n_sa = self.visits.item(s, a)
        self.visits[s, a] = n_sa + 1
        q_update(
            self.q, s, a, cost, outcome.s_next, self.schedules.alpha(n_sa),
            self.model.gamma, self._n_feasible,
        )

    def tables(self) -> dict:
        return {"q": self.q.copy(), "visits": self.visits.copy()}

    def snapshot(self) -> dict:
        return self.tables()

    def restore(self, snap: dict) -> None:
        check_snapshot(snap, self.snapshot(), "actor")
        check_values(snap, ("visits",), ("q",))
        self.q[...] = snap["q"]
        self.visits[...] = snap["visits"]


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
    new = (1.0 - alpha) * v_tilde.item(b, h, x) + alpha * target
    v_tilde[b, h, x] = new
    return new


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
    vals = factored.state_values_slice(h_next, v_tilde, mu)
    landing, drops = factored.landing(l)
    # targets = mu * eta * drops + gamma * vals[b_next, x], and the column
    # becomes (1 - alpha) * column + alpha * targets: the same products and
    # sums, with the operands of each swapped where that saves a copy
    targets = vals.take(landing)
    targets *= m.gamma
    targets += drops * (mu * m.queue.eta)
    targets *= alpha
    column = v_tilde[:, h, :]
    column *= 1.0 - alpha
    column += targets
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
        ve_period: int | None = None,
    ) -> None:
        if ve_period is not None and ve_period < 1:
            raise ConfigError("ve_period must be at least 1")
        self.factored = factored
        # both tables are stored channel-major, (n_h, n_b, n_x), and seen
        # through (n_b, n_h, n_x) views: the slice at one channel, which
        # every slot reads and a batch slot writes, is then contiguous
        channel_major = np.asarray(v_tilde0, dtype=np.float64).transpose(1, 0, 2).copy()
        self.v_tilde = channel_major.transpose(1, 0, 2)
        self.visits = np.zeros(channel_major.shape, dtype=np.int64).transpose(1, 0, 2)
        self.schedules = schedules
        self.ve_period = ve_period
        self._decode = factored.model.decode
        self._alpha = self.schedules.alpha(np.arange(ALPHA_TABLE_START))

    def act(self, s: int, n: int, mu: float) -> int:
        b, h, x = self._decode(s)
        return self.factored.greedy_row(b, h, x, self.v_tilde, mu)[1]

    def learn(self, outcome, n: int, mu: float) -> None:
        # the post-decision entry is (holding, h, x_next): x_next is s_next's radio
        _, h, _ = self._decode(outcome.s)
        _, h_next, x = self._decode(outcome.s_next)
        if self.ve_period is not None and n % self.ve_period == 0:
            counts = self.visits[:, h, :]
            alpha = self._batch_alpha(counts)
            ve_batch_update(self.v_tilde, h, h_next, outcome.l, alpha, mu, self.factored)
            counts += 1
        else:
            b = outcome.holding
            n_bhx = self.visits.item(b, h, x)
            alpha = self.schedules.alpha(n_bhx)
            pds_update(self.v_tilde, b, h, x, h_next, outcome.l, alpha, mu, self.factored)
            self.visits[b, h, x] = n_bhx + 1

    def _batch_alpha(self, counts: np.ndarray) -> np.ndarray:
        """``schedules.alpha(counts)`` read from a table of alpha on arrays.

        The table holds alpha of 0, 1, ... computed as one array, which
        equals alpha on any array of counts byte for byte; it doubles
        whenever a count runs past its end, up to ``ALPHA_TABLE_MAX`` entries
        (past them, alpha on the counts, so a restored count cannot blow it up).
        """
        try:
            return self._alpha.take(counts)
        except IndexError:
            top = int(counts.max())
            if top >= ALPHA_TABLE_MAX:
                return self.schedules.alpha(counts)
            size = len(self._alpha)
            while size <= top:
                size *= 2
            self._alpha = self.schedules.alpha(np.arange(size))
            return self._alpha.take(counts)

    def tables(self) -> dict:
        return {"v_tilde": self.v_tilde.copy(), "visits": self.visits.copy()}

    def snapshot(self) -> dict:
        return self.tables()

    def restore(self, snap: dict) -> None:
        check_snapshot(snap, self.snapshot(), "actor")
        check_values(snap, ("visits",), ("v_tilde",))
        self.v_tilde[...] = snap["v_tilde"]
        self.visits[...] = snap["visits"]
