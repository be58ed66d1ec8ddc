"""Slot-level simulated plant: fading channel, traffic source, radio, buffer.

Each random quantity draws from its own seeded substream so runs are
reproducible and resumable, and so changing one sampler never shifts the
draws of another.

The streams that draw nothing but one uniform per slot (the radio's ``pm``
stream always, the ``arrival`` and ``channel`` streams in their stationary
modes) take their uniforms in blocks (``BlockUniforms``): on PCG64,
``rng.random(n)`` returns exactly the values of n scalar ``rng.random()``
calls, so a block hands out the same numbers, and an outcome is read off
Python lists with ``bisect``, with no numpy call in the slot. Before the
environment is snapshot or restored, each block is rewound: its generator
goes back to the block's start state and ``bit_generator.advance`` moves
it past the values used, which leaves it exactly where the scalar draws
would have, so snapshots hold plain generator states. MMPP arrivals, the
perturbed channel and the delivered-packet binomial mix kinds of draws on
one stream and keep scalar draws.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import length_hint
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FeasibilityError, TableFormatError, check_snapshot
from .model import Action, JointModel, State
from .power import PmAction, PowerState
from .queueing import ArrivalDistribution


@dataclass
class RngStreams:
    """Independent generators for each stochastic element of a run."""

    goodput: np.random.Generator
    pm: np.random.Generator
    arrival: np.random.Generator
    channel: np.random.Generator
    exploration: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "RngStreams":
        children = np.random.SeedSequence(seed).spawn(5)
        return cls(*(np.random.Generator(np.random.PCG64(c)) for c in children))

    def snapshot(self) -> dict:
        return {
            name: getattr(self, name).bit_generator.state
            for name in ("goodput", "pm", "arrival", "channel", "exploration")
        }

    def restore(self, snap: dict) -> None:
        for name, state in snap.items():
            getattr(self, name).bit_generator.state = state


class BlockUniforms:
    """Uniform draws of one generator, drawn in blocks and handed out one by one.

    Blocks start at ``FIRST_BLOCK`` values and double up to ``MAX_BLOCK``, so
    a short run draws little ahead and a long one refills rarely. The
    generator must draw nothing else: ``rewind`` relies on every value being
    one 64-bit step of PCG64 (``advance`` also clears the buffered 32-bit
    value, which double draws never set).
    """

    FIRST_BLOCK = 8
    MAX_BLOCK = 256

    __slots__ = ("rng", "size", "block", "left", "start")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.size = self.FIRST_BLOCK
        self.block: list = []
        self.left = iter(self.block)
        self.start = None

    def random(self) -> float:
        """The next value ``rng.random()`` would return."""
        try:
            return next(self.left)
        except StopIteration:
            self.start = self.rng.bit_generator.state
            self.block = self.rng.random(self.size).tolist()
            self.size = min(2 * self.size, self.MAX_BLOCK)
            self.left = iter(self.block)
            return next(self.left)

    def rewind(self) -> None:
        """Put the generator where scalar draws would have left it; drop the block."""
        unused = length_hint(self.left)
        if unused:
            bg = self.rng.bit_generator
            bg.state = self.start
            bg.advance(len(self.block) - unused)
        self.block = []
        self.left = iter(self.block)


_OFF, _ON = int(PowerState.OFF), int(PowerState.ON)


def _cum_head(pmf) -> list:
    """Cumulative sums of a pmf (along its last axis) short of the last, as lists.

    ``bisect_right(head, u)`` then equals ``np.searchsorted(np.cumsum(pmf), u,
    side="right")`` clamped to the last outcome: a u at or above the last
    sum (a cumsum can end a rounding below 1) lands on the last outcome.
    """
    return np.cumsum(pmf, axis=-1)[..., :-1].tolist()


def _sample_pmf(cum_head: list, rng: np.random.Generator | BlockUniforms) -> int:
    return bisect_right(cum_head, rng.random())


def birth_death_matrix(n: int, stay: float = 0.6, step: float = 0.2) -> np.ndarray:
    """Nearest-neighbor chain with reflecting edges; rows sum to one."""
    if n < 1:
        raise ConfigError("need at least one channel state")
    if abs(stay + 2 * step - 1.0) > 1e-12:
        raise ConfigError("stay + 2*step must equal 1")
    if n == 1:
        return np.array([[1.0]])
    p = np.zeros((n, n))
    for i in range(n):
        p[i, i] = stay
        if i > 0:
            p[i, i - 1] = step
        else:
            p[i, i] += step
        if i < n - 1:
            p[i, i + 1] = step
        else:
            p[i, i] += step
    return p


def perturb_channel(
    matrix: np.ndarray, magnitude: float, rng: np.random.Generator
) -> np.ndarray:
    """Additive uniform noise per entry, clipped at zero, rows renormalized.

    A row that would lose all its mass keeps its original values.
    """
    if magnitude < 0:
        raise ConfigError("magnitude must be nonnegative")
    noise = rng.uniform(-magnitude, magnitude, size=matrix.shape)
    out = np.clip(matrix + noise, 0.0, None)
    sums = out.sum(axis=1)
    for i in np.flatnonzero(sums <= 0.0):
        out[i] = matrix[i]
        sums[i] = matrix[i].sum()
    return out / sums[:, None]


class ChannelModel:
    """Quantized fading process, optionally wobbling its own statistics."""

    def __init__(
        self,
        matrix,
        mode: str = "stationary",
        perturb_magnitude: float = 0.0,
    ) -> None:
        self.matrix = np.asarray(matrix, dtype=np.float64)
        if mode not in ("stationary", "perturbed"):
            raise ConfigError(f"unknown channel mode {mode!r}")
        self.mode = mode
        self.perturb_magnitude = float(perturb_magnitude)
        if not np.isfinite(2.0 * self.perturb_magnitude):  # the noise spans twice the magnitude
            raise ConfigError(f"perturb_magnitude {perturb_magnitude!r} is too large for uniform noise")
        self.cum_head = _cum_head(self.matrix)  # [h] -> row h, see _cum_head

    def step(self, h: int, rng: np.random.Generator | BlockUniforms) -> int:
        """Next channel state; stationary mode draws one uniform, so ``rng`` may be a block."""
        if self.mode == "stationary":
            return bisect_right(self.cum_head[h], rng.random())
        per = perturb_channel(self.matrix, self.perturb_magnitude, rng)
        return _sample_pmf(_cum_head(per[h]), rng)


MMPP_RATES = (0.0, 100.0, 200.0, 300.0, 400.0)
MMPP_STATIONARY = (0.0188, 0.3755, 0.0973, 0.4842, 0.0242)
MMPP_STAY = 0.99


def mmpp_step(
    state: int,
    rng: np.random.Generator,
    stay_prob: float = MMPP_STAY,
    stationary=MMPP_STATIONARY,
) -> int:
    """Advance the modulating chain: hold, or redraw from its stationary law.

    Redrawing from the stationary distribution makes that distribution exact
    for the chain by construction.
    """
    if rng.random() < stay_prob:
        return state
    return _sample_pmf(_cum_head(np.asarray(stationary, dtype=np.float64)), rng)


class ArrivalModel:
    """Per-slot packet arrivals; stationary modes share their pmf with planners."""

    def __init__(
        self,
        mode: str,
        *,
        pmf: ArrivalDistribution | None = None,
        slot_seconds: float = 10e-3,
        mmpp_rates=MMPP_RATES,
        mmpp_stationary=MMPP_STATIONARY,
        mmpp_stay: float = MMPP_STAY,
        truncation_tail: float = 1e-9,
    ) -> None:
        if mode not in ("stationary", "mmpp"):
            raise ConfigError(f"unknown arrival mode {mode!r}")
        self.mode = mode
        self.slot_seconds = slot_seconds
        if mode == "stationary":
            if pmf is None:
                raise ConfigError("stationary arrivals need an explicit pmf")
            self.pmf = pmf
            self.cum_head = _cum_head(pmf.pmf)
        else:
            self.rates = np.asarray(mmpp_rates, dtype=np.float64)
            self.stationary = np.asarray(mmpp_stationary, dtype=np.float64)
            if abs(self.stationary.sum() - 1.0) > 1e-12:
                raise ConfigError("mmpp stationary distribution must sum to 1")
            self.stay = mmpp_stay
            # deterministic start: the most likely modulating state
            self.chain_state = int(np.argmax(self.stationary))
            # what an i.i.d. observer would see; used when a planner needs a pmf
            parts = [
                ArrivalDistribution.poisson(rate * slot_seconds, truncation_tail).pmf
                for rate in self.rates
            ]
            mix = np.zeros(max(p.size for p in parts))
            for w, p in zip(self.stationary, parts):
                mix[: p.size] += w * p
            mix[-1] += 1.0 - mix.sum()
            self.pmf = ArrivalDistribution(mix)

    def sample(self, rng: np.random.Generator | BlockUniforms) -> int:
        """Arrivals of one slot; stationary mode draws one uniform, so ``rng`` may be a block."""
        if self.mode == "stationary":
            return bisect_right(self.cum_head, rng.random())
        rate = float(self.rates[self.chain_state])
        self.chain_state = mmpp_step(self.chain_state, rng, self.stay, self.stationary)
        return int(rng.poisson(rate * self.slot_seconds))

    def snapshot(self) -> dict:
        return {"chain_state": getattr(self, "chain_state", None)}

    def restore(self, snap: dict) -> None:
        """Reinstate a snapshot; one of another layout or chain state is refused."""
        check_snapshot(snap, self.snapshot(), "arrivals")
        state = snap["chain_state"]
        if state is not None:
            if not 0 <= state < self.rates.size:
                raise TableFormatError(f"mmpp chain state {state} outside [0, {self.rates.size})")
            self.chain_state = state


class SlotOutcome(NamedTuple):
    """Everything observed while executing one slot, as plain numbers.

    ``s``, ``s_next`` are flat state indices and ``a`` a global action
    index; ``f`` packets were delivered, ``l`` arrived, and ``holding``
    (the post-transmission backlog) plus eta-weighted ``drops`` is the
    realized buffer cost ``g_realized``.
    """

    s: int
    a: int
    f: int
    l: int
    s_next: int
    power_w: float
    holding: int
    drops: int
    g_realized: float


class Environment:
    """One slot at a time: deliveries, radio settle, arrivals, channel move.

    ``s`` is the flat index of the current state; ``step`` takes a global
    action index. The per-action numbers a slot reads are copied out of the
    model once, into Python lists, and the single-uniform streams are drawn
    in blocks (see the module docstring).
    """

    def __init__(
        self,
        model: JointModel,
        channel: ChannelModel,
        arrivals: ArrivalModel,
        streams: RngStreams,
        s0: State,
    ) -> None:
        self.model = model
        self.channel = channel
        self.arrivals = arrivals
        self.streams = streams
        self.s = model.state_index(s0)
        self._n_h, self._n_x = model.n_h, model.n_x
        self._n_feasible = model.n_feasible.tolist()  # [b][x]
        self._z = model.action_z.tolist()
        self._p_deliver = [1.0 - plr for plr in model.action_plr.tolist()]
        self._p_off = model.px_stack[:, :, int(PowerState.OFF)].tolist()  # [a][x]
        self._rho = model.rho_hxa.tolist()  # [h][x][a]
        # the models draw from a block wherever they draw one uniform per slot
        self._pm = BlockUniforms(streams.pm)
        self._arrival_rng = (
            BlockUniforms(streams.arrival) if arrivals.mode == "stationary" else streams.arrival
        )
        self._channel_rng = (
            BlockUniforms(streams.channel) if channel.mode == "stationary" else streams.channel
        )
        self._blocks = [
            r for r in (self._pm, self._arrival_rng, self._channel_rng)
            if isinstance(r, BlockUniforms)
        ]

    def step(self, a: int) -> SlotOutcome:
        s = self.s
        bh, x = divmod(s, self._n_x)
        b, h = divmod(bh, self._n_h)
        if not 0 <= a < self._n_feasible[b][x]:
            m = self.model
            name = m.actions[a] if 0 <= a < m.n_a else f"index {a}"
            raise FeasibilityError(f"action {name} infeasible in state {m.state_of(s)}")
        z = self._z[a]
        f = int(self.streams.goodput.binomial(z, self._p_deliver[a])) if z > 0 else 0
        x_next = _OFF if self._pm.random() < self._p_off[a][x] else _ON
        l = self.arrivals.sample(self._arrival_rng)
        h_next = self.channel.step(h, self._channel_rng)

        queue = self.model.queue
        cap = queue.capacity
        holding = b - f
        drops = max(holding + l - cap, 0)
        self.s = ((min(holding + l, cap) * self._n_h) + h_next) * self._n_x + x_next
        return SlotOutcome(
            s, a, f, l, self.s, self._rho[h][x][a], holding, drops,
            holding + queue.eta * drops,
        )

    def snapshot(self) -> dict:
        for block in self._blocks:
            block.rewind()
        return {
            "state": self.model.decode(self.s),
            "streams": self.streams.snapshot(),
            "arrivals": self.arrivals.snapshot(),
        }

    def restore(self, snap: dict) -> None:
        """Reinstate a snapshot; refuses one of another layout or off the state grid.

        Raises ``TableFormatError`` when an entry is missing or of another
        type, the (b, h, x) state lies off the model's grid, or a generator
        state is not one PCG64 accepts.
        """
        m = self.model
        check_snapshot(snap, self.snapshot(), "env")  # snapshot() also drops the blocks
        state, grid = snap["state"], (m.n_b, m.n_h, m.n_x)
        if not all(0 <= v < k for v, k in zip(state, grid)):
            raise TableFormatError(f"state {state!r} is off the (b, h, x) grid {grid}")
        try:
            self.streams.restore(snap["streams"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise TableFormatError(f"unusable generator state: {exc}") from exc
        self.arrivals.restore(snap["arrivals"])
        self.s = m.encode(*state)


def threshold_k_action(
    s: State, k: int, model: JointModel, fixed_plr: float = 0.01
) -> Action:
    """Classic timeout-style baseline: wake above k packets, drain, sleep empty.

    While on, sends as much as the grid allows at the fixed quality level.
    """
    levels = [lvl for lvl in model.bep_levels if abs(lvl.plr - fixed_plr) < 1e-12]
    if not levels:
        raise ConfigError(f"plr {fixed_plr} is not on the model grid")
    placeholder = model.bep_levels[0]
    if s.x == PowerState.ON:
        if s.b > 0:
            return Action(levels[0], PmAction.S_ON, min(s.b, model.z_max))
        return Action(placeholder, PmAction.S_OFF, 0)
    if s.b > k:
        return Action(placeholder, PmAction.S_ON, 0)
    return Action(placeholder, PmAction.S_OFF, 0)
