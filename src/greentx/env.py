"""Slot-level simulated plant: fading channel, traffic source, radio, buffer.

Each random quantity draws from its own seeded substream so runs are
reproducible and resumable, and so changing one sampler never shifts the
draws of another.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FeasibilityError
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


_OFF, _ON = int(PowerState.OFF), int(PowerState.ON)


def _sample_pmf(pmf_cumsum: np.ndarray, rng: np.random.Generator) -> int:
    idx = int(np.searchsorted(pmf_cumsum, rng.random(), side="right"))
    return min(idx, pmf_cumsum.size - 1)


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
        gains_db,
        matrix,
        mode: str = "stationary",
        perturb_magnitude: float = 0.0,
    ) -> None:
        self.gains_db = np.asarray(gains_db, dtype=np.float64)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        if mode not in ("stationary", "perturbed"):
            raise ConfigError(f"unknown channel mode {mode!r}")
        self.mode = mode
        self.perturb_magnitude = float(perturb_magnitude)
        self._cum = np.cumsum(self.matrix, axis=1)

    def step(self, h: int, rng: np.random.Generator) -> int:
        if self.mode == "stationary":
            return _sample_pmf(self._cum[h], rng)
        per = perturb_channel(self.matrix, self.perturb_magnitude, rng)
        return _sample_pmf(np.cumsum(per[h]), rng)


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
    cum = np.cumsum(np.asarray(stationary, dtype=np.float64))
    return _sample_pmf(cum, rng)


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
        self.truncation_tail = truncation_tail
        if mode == "stationary":
            if pmf is None:
                raise ConfigError("stationary arrivals need an explicit pmf")
            self.pmf = pmf
            self._cum = np.cumsum(pmf.pmf)
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

    def sample(self, rng: np.random.Generator) -> int:
        if self.mode == "stationary":
            return _sample_pmf(self._cum, rng)
        rate = float(self.rates[self.chain_state])
        self.chain_state = mmpp_step(self.chain_state, rng, self.stay, self.stationary)
        return int(rng.poisson(rate * self.slot_seconds))

    def snapshot(self) -> dict:
        return {"chain_state": getattr(self, "chain_state", None)}

    def restore(self, snap: dict) -> None:
        if snap.get("chain_state") is not None:
            self.chain_state = snap["chain_state"]


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
    model once, into Python lists.
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
        self._z = model.action_z.tolist()
        self._p_deliver = [1.0 - plr for plr in model.action_plr.tolist()]
        self._p_off = model.px_stack[:, :, int(PowerState.OFF)].tolist()  # [a][x]
        self._rho = model.rho_hxa.tolist()  # [h][x][a]

    def step(self, a: int) -> SlotOutcome:
        m = self.model
        s = self.s
        if not m.feasible_sa[s, a]:
            raise FeasibilityError(f"action {m.actions[a]} infeasible in state {m.state_of(s)}")
        b, h, x = m.decode(s)
        streams = self.streams
        z = self._z[a]
        f = int(streams.goodput.binomial(z, self._p_deliver[a])) if z > 0 else 0
        x_next = _OFF if streams.pm.random() < self._p_off[a][x] else _ON
        l = self.arrivals.sample(streams.arrival)
        h_next = self.channel.step(h, streams.channel)

        cap = m.queue.capacity
        holding = b - f
        drops = max(holding + l - cap, 0)
        self.s = m.encode(min(holding + l, cap), h_next, x_next)
        return SlotOutcome(
            s, a, f, l, self.s, self._rho[h][x][a], holding, drops,
            holding + m.queue.eta * drops,
        )

    def snapshot(self) -> dict:
        return {
            "state": self.model.decode(self.s),
            "streams": self.streams.snapshot(),
            "arrivals": self.arrivals.snapshot(),
        }

    def restore(self, snap: dict) -> None:
        self.s = self.model.encode(*snap["state"])
        self.streams.restore(snap["streams"])
        self.arrivals.restore(snap["arrivals"])


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
