"""Post-decision reformulation: split each slot at the point where the
controller's own influence ends.

After transmitting f of z packets and settling the radio command, the slot
reaches an intermediate point ("post-decision state") whose distribution and
cost depend only on quantities the controller knows a priori. What remains
(packet arrivals and the channel move) does not depend on the action at all,
so a value table indexed by post-decision states can be learned from samples
without ever estimating those distributions.

Post-decision value tables are kept as (n_b, n_h, n_x) cubes; the matching
pre-decision tables use the planner's flat layout when exchanged with it.

The exact solvers and the online learner share one precomputed known-half
operator, ``JointModel.known_operator``, which holds only the feasible
(b, x, a) rows: the split solver runs the planner's Bellman core (minimizing
sweeps over every row, Krylov evaluation through the greedy row of each state),
the learner's greedy rule reads the rows of one (b, x) block, and a batch
update takes every block's minimum at one channel. Greedy actions over many
blocks (``state_values_slice``, ``policy_from_pds``) come from the known
operator's block minimum and its first row within ``TIE_TOL``; no method
forms a full (b, x, a) table.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import InitializationError
from .model import JointModel
from .planner import (
    TIE_TOL,
    action_free_values,
    bellman_fixed_point,
    greedy_policy,
    known_lookahead,
    stage_cost,
)
from .power import PmAction, PowerState
from .queueing import ArrivalDistribution


class FactoredDynamics:
    """Known/unknown split of the one-slot dynamics of a JointModel."""

    def __init__(self, model: JointModel) -> None:
        self.model = model
        self._landing: dict = {}  # arrival count -> landing(l)

    # ---- lookahead through the known operator ------------------------------

    @cached_property
    def _packed_costs(self) -> tuple[np.ndarray, np.ndarray]:
        """Power (h, row) and holding (row,) at the known operator's rows."""
        m = self.model
        op = m.known_operator
        rho = op.pack(np.broadcast_to(m.rho_hxa[:, None], (m.n_h,) + op.shape))
        hold = op.pack(np.broadcast_to(m.hold_ba[:, None, :], op.shape))
        return rho, hold

    @cached_property
    def _blocks(self) -> list:
        """Per (b, x) block k = b * n_x + x, views of what its greedy rule reads.

        Each entry holds the block's power rows (n_h, rows), its holding
        row, its columns of the known operator's matrix, and its global
        action indices as a list. Built on the first greedy row, so the
        exact solvers never pay for it.
        """
        op = self.model.known_operator
        rho, hold = self._packed_costs
        bounds = op.bounds.tolist()
        return [
            (rho[:, lo:hi], hold[lo:hi], op.matrix[:, lo:hi], op.action[lo:hi].tolist())
            for lo, hi in zip(bounds, bounds[1:])
        ]

    def landing(self, l: int) -> tuple[np.ndarray, np.ndarray]:
        """Where ``l`` arrivals take every post-decision (b, x), and what they drop.

        Returns two (n_b, n_x) arrays, cached per arrival count: the flat
        index min(b + l, capacity) * n_x + x of the pre-decision (buffer,
        radio) pair reached, and the packets dropped, max(b + l - capacity,
        0), as floats.
        """
        got = self._landing.get(l)
        if got is None:
            m = self.model
            cap = m.queue.capacity
            b = np.arange(m.n_b)[:, None]
            flat = np.minimum(b + l, cap) * m.n_x + np.arange(m.n_x)
            drops = np.broadcast_to(np.maximum(b + l - cap, 0), flat.shape).astype(np.float64)
            for arr in (flat, drops):
                arr.flags.writeable = False
            got = self._landing[l] = (flat, drops)
        return got

    def packed_values(
        self, h: int, v_tilde: np.ndarray, mu: float | None = None
    ) -> np.ndarray:
        """Lookahead cost of every feasible (b, x, a) at channel h, in row order.

        Known cost plus the post-decision value of where the action lands.
        """
        mu_v = self.model.mu if mu is None else mu
        rho, hold = self._packed_costs
        # (rho + mu * hold) + ev in place: a + b and a * b are b + a and b * a
        # bit for bit, so swapping operands to write into q changes nothing
        q = hold * mu_v
        q += rho[h]
        q += v_tilde[:, h, :].ravel() @ self.model.known_operator.matrix
        return q

    def state_values_slice(
        self, h: int, v_tilde: np.ndarray, mu: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Greedy value and action index for every (b, x) at channel h, (n_b, n_x) each:
        each block's minimum, and its first action within ``TIE_TOL`` of it."""
        m = self.model
        op = m.known_operator
        q = self.packed_values(h, v_tilde, mu)
        vals = op.block_min(q)
        greedy = op.action[op.block_argmin(q, vals, TIE_TOL)]
        return vals.reshape(m.n_b, m.n_x), greedy.reshape(m.n_b, m.n_x)

    def slice_minima(
        self, h: int, v_tilde: np.ndarray, mu: float | None = None
    ) -> np.ndarray:
        """Greedy value of every (b, x) at channel h: each block's minimum, (n_b, n_x)."""
        m = self.model
        vals = m.known_operator.block_min(self.packed_values(h, v_tilde, mu))
        return vals.reshape(m.n_b, m.n_x)

    def greedy_row(
        self, b: int, h: int, x: int, v_tilde: np.ndarray, mu: float | None = None
    ) -> tuple[float, int]:
        """Greedy value and action index at the single state (b, h, x).

        The same lookahead as the slice, through only the feasible rows of
        the known operator that leave (b, x). The greedy action is the first
        of the block within ``TIE_TOL`` of its minimum, read off the row as
        a list.
        """
        m = self.model
        rho, hold, cols, actions = self._blocks[b * m.n_x + x]
        ev = v_tilde[:, h, :].ravel() @ cols
        q = (rho[h] + (m.mu if mu is None else mu) * hold + ev).tolist()
        val = min(q)
        tie = val + TIE_TOL
        for a, v in zip(actions, q):
            if v <= tie:
                return val, a
        return val, actions[0]  # only NaN entries can leave the tie window empty


def pds_value_iteration(
    factored: FactoredDynamics,
    tol: float = 1e-9,
    max_iters: int = 200_000,
    v0: np.ndarray | None = None,
    residuals: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the split recursion exactly; returns (post-decision, pre-decision) cubes.

    Alternates the two halves until the pre-decision table stops moving:
    the post-decision table absorbs arrival/channel expectations and the
    discount, the pre-decision table minimizes known cost plus landing value.
    Runs ``bellman_fixed_point``, which evaluates a settled greedy policy
    between minimizing sweeps; appends each minimizing sweep's residual to
    ``residuals`` when given.
    """
    m = factored.model
    cost = stage_cost(m, m.mu * m.hold_ba)
    c_u = np.repeat(m.mu * m.queue.eta * m.o_exp, m.n_x)  # per (B, X)
    v = bellman_fixed_point(m, cost, c_u, tol, max_iters, v0, residuals)
    v_tilde = c_u + m.gamma * action_free_values(m, v)
    v_tilde = v_tilde.reshape(m.n_h, m.n_b, m.n_x).transpose(1, 0, 2)
    return np.ascontiguousarray(v_tilde), np.ascontiguousarray(v.transpose(1, 0, 2))


def policy_from_pds(
    v_tilde: np.ndarray, factored: FactoredDynamics, mu: float | None = None
) -> np.ndarray:
    """Greedy policy induced by a post-decision value table (flat layout).

    Uses the same canonical tie rule as the planner, so at the respective
    fixed points the two routes select identical actions.
    """
    m = factored.model
    mu_v = m.mu if mu is None else mu
    w = v_tilde.transpose(1, 0, 2).reshape(m.n_h, m.n_b * m.n_x)
    return greedy_policy(m, known_lookahead(m, stage_cost(m, mu_v * m.hold_ba), w))


def init_pds_values(
    factored: FactoredDynamics,
    assumed_arrivals: ArrivalDistribution,
    assumed_channel: np.ndarray | None = None,
    mu_init: float = 1.0,
    tol: float = 1e-9,
) -> np.ndarray:
    """Offline starting table from assumed arrival/channel statistics.

    The assumed traffic should be heavy enough that staying off fills the
    buffer and drops packets, otherwise the greedy start policy never turns
    the radio on and online learning cannot leave the off state. That
    degenerate case raises InitializationError: retry with a larger assumed
    arrival rate or a positive mu_init.
    """
    m = factored.model
    channel = np.eye(m.n_h) if assumed_channel is None else assumed_channel
    assumed = FactoredDynamics(
        m.with_arrivals(assumed_arrivals).with_channel(channel).with_mu(mu_init)
    )
    v_tilde, _ = pds_value_iteration(assumed, tol=tol)
    greedy_y_off = np.empty((m.n_h, m.n_b), dtype=np.int64)
    for h in range(m.n_h):
        _, greedy = assumed.state_values_slice(h, v_tilde, mu_init)
        greedy_y_off[h] = m.action_y[greedy[:, int(PowerState.OFF)]]
    # Walk the off region as the assumed dynamics see it: buffer moves by
    # arrival bursts of positive probability, channel by the assumed matrix.
    # Only levels reachable from an empty buffer count; a switch-on choice
    # at a level the assumed system never visits cannot wake the radio.
    bursts = [int(l) for l in np.flatnonzero(assumed_arrivals.pmf > 0.0)]
    hops = [np.flatnonzero(channel[h] > 0.0) for h in range(m.n_h)]
    cap = m.queue.capacity
    for h0 in range(m.n_h):
        seen = {(0, h0)}
        frontier = [(0, h0)]
        wakes = False
        while frontier and not wakes:
            b, h = frontier.pop()
            if greedy_y_off[h, b] == int(PmAction.S_ON):
                wakes = True
                break
            for l in bursts:
                nb = min(b + l, cap)
                for nh in hops[h]:
                    nxt = (nb, int(nh))
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
        if not wakes:
            raise InitializationError(
                "assumed statistics never favor switching on from the off state; "
                "increase the assumed arrival rate or mu_init"
            )
    return v_tilde
