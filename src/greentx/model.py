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
switch, with their power and holding costs) is also available as one packed
operator, ``known_operator``: only the feasible (buffer, radio, action) rows,
grouped by (buffer, radio) block. Every solver sweep and every post-decision
lookahead applies it, adds its packed costs and takes each block's minimum,
so infeasible triples are never computed. Each row is a goodput pmf times a
radio law, and the exact solvers apply it in that form; only the online
learner reads it as a dense matrix, built on first use. The model holds no
price: the Lagrangian is one MDP per multiplier mu, which every solver takes.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .phy import BepLevel, PhyConfig, bits_per_symbol, snr_for_bep
from .power import PmAction, PowerProfile, PowerState, pm_transition_pmf
from .queueing import ArrivalDistribution, QueueConfig


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

    Row r is the r-th feasible triple ``(b[r], x[r], action[r])`` in
    canonical order: the distribution ``G[a, b, B] * laws[law[r], X]`` of the
    post-decision (buffer, radio) pair (B, X) reached by action a from
    buffer b and radio x. ``G[a, b, b - f] = goodput[a, f]`` is the chance
    that a delivers f of its packets, and ``law[r] = y * n_x + x`` picks the
    radio law of the command y from the state x out of ``laws`` (n_laws,
    n_x). Every transmitting row keeps the radio on, so it has the one law
    ``tx_law``. Infeasible triples have no row. The rows leaving (b, x) are
    ``bounds[k]:bounds[k + 1]`` with k = b * n_x + x; no block is empty,
    since z = 0 is always feasible. ``rho`` (n_h, n_rows) and ``hold``
    (n_rows,) are each row's power draw per channel and expected holding,
    the costs of the known half.

    The exact solvers use this factorization and never form the operator:
    ``apply`` is the lookahead and ``buffer_rows`` the goodput rows that a
    policy evaluation reads. ``matrix`` is the dense operator, which only the
    online learner reads, built on first use. It stores row r as column r,
    shape (n_b * n_x, n_rows), so that a table of post-decision values times
    ``matrix`` keeps the rows on the last, contiguous axis. ``matrix`` is
    F-ordered, each column contiguous (strides (8, 8 * n_b * n_x)), and that
    layout is part of the learner's bytes: BLAS sums ``v @ matrix`` in an
    order that depends on it, so a C-contiguous copy, or one column block at
    a time, differs in the last bits.
    """

    action: np.ndarray
    b: np.ndarray
    x: np.ndarray
    law: np.ndarray
    bounds: np.ndarray
    rho: np.ndarray
    hold: np.ndarray
    goodput: np.ndarray
    laws: np.ndarray
    tx_law: int

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

    @cached_property
    def _shape(self) -> tuple[int, int, int]:
        """(n_b, n_x, z_max)."""
        n_x = self.laws.shape[1]
        return (self.bounds.size - 1) // n_x, n_x, self.goodput.shape[1] - 1

    @cached_property
    def _shifts(self) -> np.ndarray:
        """G without forming it: ``_shifts[a, b]`` is the row G[a, b], a view.

        The length-n_b windows of each action's goodput row, reversed and
        zero-padded so that entry c - f holds goodput[a, f], taken in
        reverse: window c - b starts b entries before goodput[a, 0].
        """
        n_b, _, z_max = self._shape
        c = max(n_b - 1, z_max)
        pad = np.zeros((self.goodput.shape[0], c + n_b))
        pad[:, c - z_max : c + 1] = self.goodput[:, ::-1]
        return np.lib.stride_tricks.sliding_window_view(pad, n_b, axis=1)[:, ::-1]

    def buffer_rows(self, rows) -> np.ndarray:
        """The goodput rows G[action[r], b[r]] of the packed rows ``rows``, (len(rows), n_b)."""
        return self._shifts[self.action[rows], self.b[rows]]

    @cached_property
    def _spread(self) -> tuple[np.ndarray, np.ndarray]:
        """What ``apply`` reads: each row's column of the flat (n_b, n_laws +
        n_a) table that it fills, and the block-diagonal right operand of its
        GEMM, the laws (n_x, n_laws) over the reversed goodput (z_max + 1, n_a)."""
        _, n_x, z_max = self._shape
        n_laws, n_a = self.laws.shape[0], self.goodput.shape[0]
        col = np.where(self.law == self.tx_law, n_laws + self.action, self.law)
        take = self.b * (n_laws + n_a) + col
        right = np.zeros((n_x + z_max + 1, n_laws + n_a))
        right[:n_x, :n_laws] = self.laws.T
        right[n_x:, n_laws:] = self.goodput[:, ::-1].T
        for arr in (take, right):
            arr.flags.writeable = False
        return take, right

    def apply(self, v_tilde: np.ndarray) -> np.ndarray:
        """``K v_tilde`` in packed row order, (n_h, n_rows), for a post-decision
        table ``v_tilde`` indexed (h, (B, X)).

        A row of another law than ``tx_law`` sends nothing, so its value is
        its radio law applied to v_tilde[h, b]. Every other row sums
        goodput[a, f] times the ``tx_law`` value at b - f, f = 0..z_max (zero
        below an empty buffer). So one GEMM fills a (n_h * n_b, n_laws + n_a)
        table: each (h, b) row of v_tilde next to the (z_max + 1) window of
        tx_law values ending at b, times ``_spread``'s block-diagonal
        operand. One ``take`` puts each row's entry in packed order.
        """
        n_b, n_x, z_max = self._shape
        n_h = v_tilde.shape[0]
        take, right = self._spread
        v = v_tilde.reshape(n_h, n_b, n_x)
        on = np.zeros((n_h, z_max + n_b))
        on[:, z_max:] = v @ self.laws[self.tx_law]
        left = np.empty((n_h, n_b, n_x + z_max + 1))
        left[:, :, :n_x] = v
        step_h, step_b = on.strides
        left[:, :, n_x:] = np.lib.stride_tricks.as_strided(
            on, (n_h, n_b, z_max + 1), (step_h, step_b, step_b), writeable=False
        )
        table = left.reshape(n_h * n_b, -1) @ right
        return np.take(table.reshape(n_h, -1), take, axis=1)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense operator, (n_b * n_x, n_rows) F-ordered; see the class docstring."""
        n_b, n_x, _ = self._shape
        n_rows = self.action.size
        # written one radio column at a time into (n_rows, n_b, n_x): its
        # transpose has the layout the class docstring requires, and each
        # multiply runs n_b wide, where one broadcast over all columns
        # runs n_x wide and takes three times as long
        g, px = self.buffer_rows(slice(None)), self.laws[self.law]
        prod = np.empty((n_rows, n_b, n_x))
        for k in range(n_x):
            np.multiply(g, px[:, k, None], out=prod[:, :, k])
        matrix = prod.reshape(n_rows, n_b * n_x).T
        matrix.flags.writeable = False
        return matrix


class JointModel:
    """Finite MDP assembled from the channel, queue, radio, and PHY pieces, at no price."""

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
    ) -> None:
        self.gains_db = np.array(gains_db, dtype=np.float64)
        self.channel_matrix = np.array(channel_matrix, dtype=np.float64)
        self.arrivals = arrivals
        self.phy = phy
        self.profile = profile
        self.queue = queue
        self.plr_grid = tuple(float(p) for p in plr_grid)
        self.z_max = int(z_max)
        self.gamma = float(gamma)
        self._validate()
        self._build_grids()
        self._build_tables()
        self._build_arrival_tables()
        # derived models share the lazily built known operator (see with_statistics)
        self._known: dict = {}
        self._freeze()

    def _validate(self) -> None:
        if self.gains_db.ndim != 1 or self.gains_db.size == 0:
            raise ConfigError("gains_db must be a nonempty vector")
        if not np.isfinite(self.gains_db).all():
            raise ConfigError("gains_db must be finite")
        n_h = self.gains_db.size
        if self.channel_matrix.shape != (n_h, n_h):
            raise ConfigError("channel matrix must be square and match gains_db")
        if np.any(self.channel_matrix < 0):
            raise ConfigError("channel matrix has negative entries")
        if np.any(np.abs(self.channel_matrix.sum(axis=1) - 1.0) > 1e-12):
            raise ConfigError("channel matrix rows must sum to 1")
        if not (0.0 <= self.gamma < 1.0):
            raise ConfigError("gamma must lie in [0, 1)")
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
        self.bep_levels = tuple(
            BepLevel.from_plr(p, self.phy.packet_bits) for p in self.plr_grid
        )
        # canonical order: S_OFF, S_ON sending nothing (PLR level 0), then z ascending, level fastest
        n_plr = len(self.plr_grid)
        self.n_a = 2 + self.z_max * n_plr
        self.action_z = np.r_[0, 0, np.repeat(np.arange(1, self.z_max + 1), n_plr)]
        self.action_y = np.r_[int(PmAction.S_OFF), np.full(self.n_a - 1, int(PmAction.S_ON))]
        self.action_level = np.r_[0, 0, np.tile(np.arange(n_plr), self.z_max)]
        self.action_plr = np.array(self.plr_grid)[self.action_level]

    @cached_property
    def actions(self) -> tuple[Action, ...]:
        """The Action of each index, built on first use: the solvers read the action_* arrays."""
        return tuple(
            Action(self.bep_levels[lvl], PmAction(y), z)
            for y, z, lvl in zip(self.action_y.tolist(), self.action_z.tolist(), self.action_level.tolist())
        )

    @cached_property
    def action_index(self) -> dict:
        return {a: i for i, a in enumerate(self.actions)}

    def _build_tables(self) -> None:
        """Every table that the arrivals and the channel matrix leave alone.

        ``goodput[a, f]``, the chance that action a delivers f of its
        packets (zero past f = z), holds the rows of the oracle
        ``goodput_pmf`` (tests), formed as its products in its order from
        powers taken once per (PLR, exponent) by Python's ``**``
        (``np.power`` differs in the last bit). ``radio_laws[y, x]`` is the
        law of the next radio state under the command y from the state x,
        and ``px_stack`` picks each action's pair of laws from it.
        """
        n_b, n_h, n_x, n_a = self.n_b, self.n_h, self.n_x, self.n_a
        e = range(self.z_max + 1)
        ok_pow = np.array([[(1.0 - p) ** k for k in e] for p in self.plr_grid])
        plr_pow = np.array([[p**k for k in e] for p in self.plr_grid])
        comb = np.array([[math.comb(z, f) for f in e] for z in e], dtype=np.float64)
        z, lvl, f = self.action_z[:, None], self.action_level[:, None], np.arange(self.z_max + 1)
        # comb is 0 past f = z, which zeroes those entries
        self.goodput = comb[z, f] * ok_pow[lvl, f] * plr_pow[lvl, np.maximum(z - f, 0)]
        laws = [[pm_transition_pmf(x, y, self.profile.theta) for x in PowerState] for y in PmAction]
        self.radio_laws = np.array(laws)
        self.px_stack = self.radio_laws[self.action_y]
        # transmit power per (channel, action) as (snr * noise) / gain, in
        # that order, so that it equals the scalar rule bit for bit
        noise = self.phy.noise_power_w
        betas = [bits_per_symbol(z, self.phy) for z in range(1, self.z_max + 1)]
        snr_noise = np.zeros(n_a)
        snr_noise[2:] = [snr_for_bep(lvl.bep, beta) * noise for beta in betas for lvl in self.bep_levels]
        try:
            gain = np.array([10.0 ** (g / 10.0) for g in self.gains_db.tolist()])
        except OverflowError:
            raise ConfigError("gains_db holds a gain above the float range") from None
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            self.tx_ha = snr_noise[None, :] / gain[:, None]
        bad = np.flatnonzero(~np.isfinite(self.tx_ha).all(axis=1))
        if bad.size:
            h = int(bad[0])
            raise ConfigError(
                f"gains_db[{h}]={self.gains_db[h]!r} dB needs a transmit power that is not finite"
            )
        # power draw per (channel, radio state, action); impossible combos -> inf
        on, off = int(PowerState.ON), int(PowerState.OFF)
        keep_on = self.action_y == int(PmAction.S_ON)
        self.rho_hxa = np.full((n_h, n_x, n_a), self.profile.p_tr, dtype=np.float64)
        self.rho_hxa[:, on, keep_on] = self.profile.p_on + self.tx_ha[:, keep_on]
        self.rho_hxa[:, off, ~keep_on] = self.profile.p_off
        self.rho_hxa[:, off, self.action_z > 0] = np.inf

        # expected holding per (buffer, action)
        self.hold_ba = np.arange(n_b, dtype=np.float64)[:, None] - self.action_z * (1.0 - self.action_plr)
        z_ok = self.action_z[None, None, :] <= np.arange(n_b)[:, None, None]
        on_needed = (self.action_z[None, None, :] == 0) | (np.arange(n_x)[None, :, None] == on)
        self.feasible_bxa = z_ok & on_needed

    def _build_arrival_tables(self) -> None:
        """The tables that depend on the arrivals: A_clamp and o_exp."""
        n_b, cap = self.n_b, self.queue.capacity
        # arrivals with the capacity clamp, rows indexed by post-transmission
        # level b: l arrivals land on column b + l, and the cap column holds
        # the tail from l = cap - b on, summed row by row (numpy's pairwise
        # sum, which a cumulative sum would not reproduce)
        pmf = self.arrivals.pmf
        l = np.arange(n_b)[None, :] - np.arange(n_b)[:, None]
        band = (l >= 0) & (l <= self.arrivals.l_max)
        self.A_clamp = np.where(band, pmf[np.clip(l, 0, self.arrivals.l_max)], 0.0)
        self.A_clamp[:, cap] = [pmf[cap - b :].sum() for b in range(n_b)]

        # expected drops per level, the oracle expected_overflow's one dot per level that can overflow
        l_max, excess = self.arrivals.l_max, np.arange(1, self.arrivals.pmf.size)
        self.o_exp = np.zeros(n_b)
        for b in range(max(cap - l_max + 1, 0), n_b):
            self.o_exp[b] = pmf[cap - b + 1 :] @ excess[: l_max - cap + b]

    def _freeze(self) -> None:
        """Make every table read-only: derived models share them (see with_statistics)."""
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def known_operator(self) -> KnownOperator:
        """The feasible rows of the known half of the slot dynamics.

        Built on first use from ``feasible_bxa``, ``goodput``,
        ``radio_laws``, ``rho_hxa`` and ``hold_ba``, none of which the
        arrivals or the channel move; see KnownOperator.
        """
        op = self._known.get("K")
        if op is None:
            index = np.flatnonzero(self.feasible_bxa)
            bx, a = np.divmod(index, self.n_a)
            b, x = np.divmod(bx, self.n_x)
            law = self.action_y[a] * self.n_x + x
            bounds = np.searchsorted(bx, np.arange(self.n_b * self.n_x + 1))
            rho, hold = self.rho_hxa[:, x, a], self.hold_ba[b, a]
            for arr in (a, b, x, law, bounds, rho, hold):
                arr.flags.writeable = False
            laws = self.radio_laws.reshape(-1, self.n_x)
            tx_law = int(PmAction.S_ON) * self.n_x + int(PowerState.ON)
            op = KnownOperator(a, b, x, law, bounds, rho, hold, self.goodput, laws, tx_law)
            self._known["K"] = op
        return op

    # ---- indexing ----------------------------------------------------------
    # The run loop carries flat state indices (buffer-major, radio fastest);
    # encode/decode convert them from and to plain (b, h, x) ints.

    def encode(self, b: int, h: int, x: int) -> int:
        return (b * self.n_h + h) * self.n_x + x

    def decode(self, idx: int) -> tuple[int, int, int]:
        idx, x = divmod(idx, self.n_x)
        b, h = divmod(idx, self.n_h)
        return b, h, x

    def state_index(self, s: State) -> int:
        return self.encode(s.b, s.h, int(s.x))

    def state_of(self, idx: int) -> State:
        b, h, x = self.decode(idx)
        return State(b, h, PowerState(x))

    # ---- derived models ------------------------------------------------------

    def with_statistics(self, arrivals: ArrivalDistribution, channel_matrix) -> "JointModel":
        """Same plant with the arrival law and the channel matrix replaced: a
        shallow copy that shares its parent's read-only tables and lazily built
        known operator, and rebuilds the two arrival tables (``_build_arrival_tables``)."""
        clone = copy.copy(self)
        clone.arrivals = arrivals
        clone.channel_matrix = np.array(channel_matrix, dtype=np.float64)
        clone._validate()
        clone._build_arrival_tables()
        clone._freeze()
        return clone
