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

The exact solvers and the online learner share one precomputed known half,
``JointModel.known_operator``, which holds only the feasible (b, x, a) rows
and their packed power and holding costs; the solvers apply it in factored
form, and ``FactoredDynamics`` alone reads its dense ``matrix``. The split
solver (``pds_value_iteration``) is the planner's one solve at a price mu,
and returns its record (``planner.Solution``); ``init_pds_values`` solves
an assumed model for the learner's start table. ``FactoredDynamics`` serves
the online learner at the price in effect, which every one of its methods
takes: its greedy rule reads the rows of one (b, x) block (``greedy_row``),
and a batch slot takes every block's minimum at one channel
(``state_values_slice``). No function forms a full (b, x, a) table.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import InitializationError
from .model import JointModel
from .planner import TIE_TOL, Solution, bellman_fixed_point
from .power import PmAction, PowerState
from .queueing import ArrivalDistribution


class FactoredDynamics:
    """The known half of a JointModel's slot, as the online learner reads it.

    Every lookahead takes the price ``mu`` in effect, which moves while the
    learner runs.
    """

    def __init__(self, model: JointModel) -> None:
        self.model = model
        self._landing: dict = {}  # arrival count -> landing(l)

    # ---- lookahead through the known operator ------------------------------

    @cached_property
    def _blocks(self) -> list:
        """Per (b, x) block k = b * n_x + x, views of what its greedy rule reads.

        Each entry holds the block's power rows (n_h, rows), its holding
        row and its columns of the known operator's matrix; its i-th row
        is action i (see KnownOperator). Built on the first greedy row.
        """
        op = self.model.known_operator
        bounds = op.bounds.tolist()
        return [
            (op.rho[:, lo:hi], op.hold[lo:hi], op.matrix[:, lo:hi])
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

    def packed_values(self, h: int, v_tilde: np.ndarray, mu: float) -> np.ndarray:
        """Lookahead cost of every feasible (b, x, a) at channel h, in row order.

        Known cost plus the post-decision value of where the action lands.
        """
        op = self.model.known_operator
        # (rho + mu * hold) + ev in place: a + b and a * b are b + a and b * a
        # bit for bit, so swapping operands to write into q changes nothing
        q = op.hold * mu
        q += op.rho[h]
        q += v_tilde[:, h, :].ravel() @ op.matrix
        return q

    def state_values_slice(self, h: int, v_tilde: np.ndarray, mu: float) -> np.ndarray:
        """Greedy value of every (b, x) at channel h: each block's minimum, (n_b, n_x).

        The slice that a batch slot of the learner reads.
        """
        m = self.model
        vals = m.known_operator.block_min(self.packed_values(h, v_tilde, mu))
        return vals.reshape(m.n_b, m.n_x)

    def greedy_row(
        self, b: int, h: int, x: int, v_tilde: np.ndarray, mu: float
    ) -> tuple[float, int]:
        """Greedy value and action index at the single state (b, h, x).

        The same lookahead as the slice, through only the feasible rows of
        the known operator that leave (b, x). The greedy action is the first
        of the block within ``TIE_TOL`` of its minimum, read off the row as
        a list.
        """
        rho, hold, cols = self._blocks[b * self.model.n_x + x]
        ev = v_tilde[:, h, :].ravel() @ cols
        q = (rho[h] + mu * hold + ev).tolist()
        val = min(q)
        tie = val + TIE_TOL
        for a, v in enumerate(q):
            if v <= tie:
                return val, a
        return val, 0  # only NaN entries can leave the tie window empty


def pds_value_iteration(
    model: JointModel, mu: float, tol: float = 1e-9, max_iters: int = 200_000,
    v0: np.ndarray | None = None, residuals: list | None = None,
) -> Solution:
    """Solve the split recursion exactly at the price ``mu``: the one solve,
    ``planner.bellman_fixed_point``, as ``value_iteration`` is (whose
    docstring says why both names stay)."""
    return bellman_fixed_point(model, mu, tol, max_iters, v0, residuals)


def init_pds_values(
    model: JointModel, assumed_arrivals: ArrivalDistribution, mu_init: float = 1.0
) -> np.ndarray:
    """Offline starting table from assumed arrival statistics and a still channel.

    Solves the model with the assumed arrivals, a channel that never moves
    and the price ``mu_init``. The assumed traffic should be heavy enough
    that staying off fills the buffer and drops packets, otherwise the
    greedy start policy never turns the radio on and online learning cannot
    leave the off state. That degenerate case raises InitializationError:
    retry with a larger assumed arrival rate or a positive mu_init.
    """
    assumed = model.with_statistics(assumed_arrivals, np.eye(model.n_h))
    sol = pds_value_iteration(assumed, mu_init)
    policy = sol.policy.reshape(model.n_b, model.n_h, model.n_x)
    wakes = model.action_y[policy[:, :, int(PowerState.OFF)]] == int(PmAction.S_ON)  # (b, h)
    # Walk the off region as the assumed dynamics see it: the channel stays
    # put and the buffer moves by arrival bursts of positive probability.
    # Only levels reachable from an empty buffer count; a switch-on choice
    # at a level the assumed system never visits cannot wake the radio.
    bursts = np.flatnonzero(assumed_arrivals.pmf > 0.0).tolist()
    cap = model.queue.capacity
    reached, frontier = {0}, [0]
    while frontier:
        b = frontier.pop()
        for nb in {min(b + l, cap) for l in bursts} - reached:
            reached.add(nb)
            frontier.append(nb)
    if not wakes[sorted(reached)].any(axis=0).all():
        raise InitializationError(
            "assumed statistics never favor switching on from the off state; "
            "increase the assumed arrival rate or mu_init"
        )
    return sol.v_tilde
