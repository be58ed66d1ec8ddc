"""Joint decision model over (buffer, channel, radio) with a transmission grid.

State: buffer occupancy b in 0..capacity, quantized channel index h, radio
state x. Action: a quality level on the PLR grid, a radio command y, and a
packet count z. Transmitting (z > 0) requires the radio on and kept on, and
no more packets than the buffer holds.

Everything the solvers need is precomputed here as stacked arrays indexed by
the global action list, which is ordered canonically: radio command first,
then z ascending, then PLR ascending. Ties in any argmin are broken toward
the earliest action in this order.

The known half of the slot dynamics (transmission goodput and the radio
switch) is also available as one packed operator, ``known_operator``: only
the feasible (buffer, radio, action) rows, grouped by (buffer, radio) block.
Every solver sweep and every post-decision lookahead multiplies by it and
takes each block's minimum, so infeasible triples are never computed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .phy import BepLevel, ChannelState, PhyConfig, bits_per_symbol, goodput_pmf, tx_power
from .power import PmAction, PowerProfile, PowerState, pm_transition_pmf
from .queueing import ArrivalDistribution, QueueConfig, expected_overflow


@dataclass(frozen=True)
class State:
    """Pre-decision state at the start of a slot."""

    b: int
    h: int
    x: PowerState


@dataclass(frozen=True)
class Action:
    """Transmission quality, radio command, and packet count for one slot.

    ``bep`` is a placeholder (lowest-PLR grid entry) when z == 0.
    """

    bep: BepLevel
    y: PmAction
    z: int


@dataclass(frozen=True)
class KnownOperator:
    """Transmission goodput and radio switch for every feasible (b, x, a).

    Row r is the r-th feasible triple in canonical order (``index`` holds
    its flat (b, x, a) position, ``action`` its global action index): the
    distribution ``G_stack[a, b, B] * px_stack[a, x, X]`` of the
    post-decision (buffer, radio) pair reached by action a from buffer b and
    radio x. Infeasible triples have no row. ``matrix`` stores row r as
    column r, shape (n_b * n_x, n_rows), so that a table of post-decision
    values times ``matrix`` keeps the rows on the last, contiguous axis.
    The rows leaving (b, x) are ``bounds[k]:bounds[k + 1]`` with
    k = b * n_x + x; no block is empty, since z = 0 is always feasible.
    """

    matrix: np.ndarray
    index: np.ndarray
    action: np.ndarray
    bounds: np.ndarray
    shape: tuple  # (n_b, n_x, n_a) of the full table the rows are packed from

    def pack(self, table: np.ndarray) -> np.ndarray:
        """The feasible entries of a (..., n_b, n_x, n_a) table, in row order."""
        return table.reshape(table.shape[:-3] + (-1,))[..., self.index]

    def unpack(self, q: np.ndarray) -> np.ndarray:
        """(..., n_rows) back to (..., n_b, n_x, n_a), +inf at infeasible entries."""
        full = np.full(q.shape[:-1] + (int(np.prod(self.shape)),), np.inf)
        full[..., self.index] = q
        return full.reshape(q.shape[:-1] + self.shape)

    def block_min(self, q: np.ndarray) -> np.ndarray:
        """Minimum over each (b, x) block of the last axis: (..., n_b * n_x)."""
        return np.minimum.reduceat(q, self.bounds[:-1], axis=-1)

    def block_argmin(self, q: np.ndarray, q_min: np.ndarray, tie_tol: float) -> np.ndarray:
        """First row of each (b, x) block within tie_tol of its minimum ``q_min``.

        Returns packed row numbers, (..., n_b * n_x); a block with no such
        row (NaN values) gets its first row.
        """
        starts = self.bounds[:-1]
        n_rows = q.shape[-1]
        near = q <= np.repeat(q_min, np.diff(self.bounds), axis=-1) + tie_tol
        first = np.minimum.reduceat(np.where(near, np.arange(n_rows), n_rows), starts, axis=-1)
        return np.where(first < n_rows, first, starts)


class JointModel:
    """Finite MDP assembled from the channel, queue, radio, and PHY pieces."""

    def __init__(
        self,
        *,
        gains_db,
        channel_matrix,
        arrivals: ArrivalDistribution,
        phy: PhyConfig,
        profile: PowerProfile,
        queue: QueueConfig,
        plr_grid,
        z_max: int,
        gamma: float,
        mu: float = 0.0,
    ) -> None:
        self.gains_db = np.asarray(gains_db, dtype=np.float64)
        self.channel_matrix = np.asarray(channel_matrix, dtype=np.float64)
        self.arrivals = arrivals
        self.phy = phy
        self.profile = profile
        self.queue = queue
        self.plr_grid = tuple(float(p) for p in plr_grid)
        self.z_max = int(z_max)
        self.gamma = float(gamma)
        self.mu = float(mu)
        self._validate()
        self._build_grids()
        self._build_tables()
        # derived models share the lazily built known operator (see _clone)
        self._known: dict = {}

    def _validate(self) -> None:
        if self.gains_db.ndim != 1 or self.gains_db.size == 0:
            raise ConfigError("gains_db must be a nonempty vector")
        n_h = self.gains_db.size
        if self.channel_matrix.shape != (n_h, n_h):
            raise ConfigError("channel matrix must be square and match gains_db")
        if np.any(self.channel_matrix < 0):
            raise ConfigError("channel matrix has negative entries")
        if np.any(np.abs(self.channel_matrix.sum(axis=1) - 1.0) > 1e-12):
            raise ConfigError("channel matrix rows must sum to 1")
        if not (0.0 <= self.gamma < 1.0):
            raise ConfigError("gamma must lie in [0, 1)")
        if self.mu < 0.0:
            raise ConfigError("mu must be nonnegative")
        if self.z_max < 1:
            raise ConfigError("z_max must be at least 1")
        if len(self.plr_grid) == 0 or any(
            not (0.0 < p < 1.0) for p in self.plr_grid
        ):
            raise ConfigError("plr grid entries must lie in (0, 1)")
        if list(self.plr_grid) != sorted(set(self.plr_grid)):
            raise ConfigError("plr grid must be strictly increasing")
        for z in range(1, self.z_max + 1):
            beta = bits_per_symbol(z, self.phy)
            if beta > self.phy.max_bits_per_symbol:
                raise ConfigError(
                    f"z={z} needs {beta} bits/symbol, above the "
                    f"limit {self.phy.max_bits_per_symbol}"
                )

    def _build_grids(self) -> None:
        self.n_b = self.queue.capacity + 1
        self.n_h = self.gains_db.size
        self.n_x = 2
        self.n_s = self.n_b * self.n_h * self.n_x
        self.channel_states = tuple(
            ChannelState(i, float(g)) for i, g in enumerate(self.gains_db)
        )
        self.bep_levels = tuple(
            BepLevel.from_plr(p, self.phy.packet_bits) for p in self.plr_grid
        )
        placeholder = self.bep_levels[0]
        actions: list[Action] = [
            Action(placeholder, PmAction.S_OFF, 0),
            Action(placeholder, PmAction.S_ON, 0),
        ]
        for z in range(1, self.z_max + 1):
            for lvl in self.bep_levels:
                actions.append(Action(lvl, PmAction.S_ON, z))
        self.actions = tuple(actions)
        self.n_a = len(actions)
        self.action_index = {a: i for i, a in enumerate(actions)}
        self.action_z = np.array([a.z for a in actions], dtype=np.int64)
        self.action_y = np.array([int(a.y) for a in actions], dtype=np.int64)
        self.action_plr = np.array([a.bep.plr for a in actions])
        self.action_bep = np.array([a.bep.bep for a in actions])

    def _build_tables(self) -> None:
        n_b, n_h, n_x, n_a = self.n_b, self.n_h, self.n_x, self.n_a
        cap = self.queue.capacity

        # arrivals with the capacity clamp, rows indexed by post-transmission level
        self.A_clamp = np.zeros((n_b, n_b))
        for b_post in range(n_b):
            hi = min(cap - 1 - b_post, self.arrivals.l_max)
            if hi >= 0:
                self.A_clamp[b_post, b_post : b_post + hi + 1] = self.arrivals.pmf[
                    : hi + 1
                ]
            self.A_clamp[b_post, cap] += self.arrivals.pmf[
                max(cap - b_post, 0) :
            ].sum()

        self.o_exp = np.array(
            [expected_overflow(b, self.arrivals, cap) for b in range(n_b)]
        )

        # per-action goodput and radio-state transitions
        self.G_stack = np.zeros((n_a, n_b, n_b))
        self.px_stack = np.zeros((n_a, n_x, n_x))
        for i, a in enumerate(self.actions):
            fp = goodput_pmf(a.z, a.bep.plr)
            for b in range(n_b):
                if a.z > b:
                    self.G_stack[i, b, b] = 1.0  # masked infeasible; keep stochastic
                else:
                    self.G_stack[i, b, b - a.z : b + 1] = fp[::-1]
            for x in (PowerState.OFF, PowerState.ON):
                self.px_stack[i, int(x)] = pm_transition_pmf(
                    x, a.y, self.profile.theta
                )

        # power draw per (channel, radio state, action); impossible combos -> inf
        self.tx_ha = np.zeros((n_h, n_a))
        for h in range(n_h):
            for i, a in enumerate(self.actions):
                self.tx_ha[h, i] = tx_power(
                    float(self.gains_db[h]), a.bep.bep, a.z, self.phy
                )
        self.rho_hxa = np.zeros((n_h, n_x, n_a))
        for h in range(n_h):
            for x in (PowerState.OFF, PowerState.ON):
                for i, a in enumerate(self.actions):
                    if a.z > 0 and x != PowerState.ON:
                        self.rho_hxa[h, int(x), i] = np.inf
                        continue
                    on_and_kept = x == PowerState.ON and a.y == PmAction.S_ON
                    if on_and_kept:
                        p = self.profile.p_on + self.tx_ha[h, i]
                    elif x == PowerState.OFF and a.y == PmAction.S_OFF:
                        p = self.profile.p_off
                    else:
                        p = self.profile.p_tr
                    self.rho_hxa[h, int(x), i] = p

        # expected holding and drops per (buffer, action)
        bs = np.arange(n_b, dtype=np.float64)[:, None]
        self.hold_ba = bs - (self.action_z * (1.0 - self.action_plr))[None, :]
        self.ovf_ba = np.einsum("abB,B->ba", self.G_stack, self.o_exp)
        self.g_ba = self.hold_ba + self.queue.eta * self.ovf_ba

        z_ok = self.action_z[None, None, :] <= np.arange(n_b)[:, None, None]
        on_needed = (self.action_z[None, None, :] == 0) | (
            np.arange(n_x)[None, :, None] == int(PowerState.ON)
        )
        self.feasible_bxa = z_ok & on_needed
        # same mask expanded to flat state indexing
        self.feasible_sa = np.repeat(
            self.feasible_bxa, n_h, axis=0
        ).reshape(self.n_s, n_a)

    @property
    def known_operator(self) -> KnownOperator:
        """The feasible rows of the known half of the slot dynamics.

        Built on first use from ``G_stack`` and ``px_stack``; see KnownOperator.
        """
        op = self._known.get("K")
        if op is None:
            index = np.flatnonzero(self.feasible_bxa)
            bx, a = np.divmod(index, self.n_a)
            b, x = np.divmod(bx, self.n_x)
            matrix = self.G_stack[a, b].T[:, None, :] * self.px_stack[a, x].T[None, :, :]
            matrix = matrix.reshape(self.n_b * self.n_x, index.size)
            bounds = np.searchsorted(bx, np.arange(self.n_b * self.n_x + 1))
            for arr in (matrix, index, a, bounds):
                arr.flags.writeable = False
            op = KnownOperator(matrix, index, a, bounds, (self.n_b, self.n_x, self.n_a))
            self._known["K"] = op
        return op

    # ---- indexing ----------------------------------------------------------

    def state_index(self, s: State) -> int:
        return (s.b * self.n_h + s.h) * self.n_x + int(s.x)

    def state_of(self, idx: int) -> State:
        idx, x = divmod(idx, self.n_x)
        b, h = divmod(idx, self.n_h)
        return State(b, h, PowerState(x))

    # ---- feasibility -------------------------------------------------------

    def is_feasible(self, s: State, a: Action) -> bool:
        if a.z == 0:
            return True
        return s.x == PowerState.ON and a.y == PmAction.S_ON and a.z <= s.b

    def feasible_action_indices(self, s: State) -> np.ndarray:
        return np.flatnonzero(self.feasible_bxa[s.b, int(s.x)])

    # ---- derived models ------------------------------------------------------

    def _clone(self, **overrides) -> "JointModel":
        """Same model with arrivals, channel matrix or mu replaced.

        None of these enter the known operator, so the clone shares it.
        """
        kw = dict(
            gains_db=self.gains_db,
            channel_matrix=self.channel_matrix,
            arrivals=self.arrivals,
            phy=self.phy,
            profile=self.profile,
            queue=self.queue,
            plr_grid=self.plr_grid,
            z_max=self.z_max,
            gamma=self.gamma,
            mu=self.mu,
        )
        kw.update(overrides)
        clone = JointModel(**kw)
        clone._known = self._known
        return clone

    def with_arrivals(self, arrivals: ArrivalDistribution) -> "JointModel":
        return self._clone(arrivals=arrivals)

    def with_channel(self, channel_matrix) -> "JointModel":
        return self._clone(channel_matrix=channel_matrix)

    def with_mu(self, mu: float) -> "JointModel":
        return self._clone(mu=mu)
