"""Experiment configuration: one JSON-serializable object builds every piece.

The stock profile reproduces the reference wireless setup (25-packet buffer,
eight-level channel, 2 packets/slot Poisson traffic, 10 ms slots); the
reduced profile shrinks the buffer and channel for fast exact solves.
"""
from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import MISSING, dataclass, field

import numpy as np

from .env import (
    MMPP_RATES,
    MMPP_STATIONARY,
    MMPP_STAY,
    ArrivalModel,
    ChannelModel,
    Environment,
    RngStreams,
    birth_death_matrix,
)
from .errors import ConfigError
from .learners import LearningSchedule, MultiplierState
from .model import JointModel, State
from .phy import PhyConfig
from .power import PowerProfile, PowerState
from .queueing import ArrivalDistribution, QueueConfig, overflow_penalty

STOCK_GAINS_DB = (-18.82, -13.79, -11.23, -9.37, -7.80, -6.30, -4.68, -2.08)
REDUCED_GAINS_DB = (-18.82, -11.23, -7.80, -2.08)

ALGORITHMS = ("vi", "q", "pds", "pds_ve", "threshold", "suboptimal")
ARRIVAL_MODES = ("poisson", "deterministic", "uniform", "mmpp")


@dataclass
class ExperimentConfig:
    """Everything a run needs; round-trips through a plain JSON object."""

    # link and radio hardware
    phy: PhyConfig = field(default_factory=PhyConfig)
    power: PowerProfile = field(default_factory=lambda: PowerProfile(p_on=0.32))
    # queue and objective
    capacity: int = 25
    gamma: float = 0.98
    eta: float | None = None  # None -> gamma / (1 - gamma)
    g_bar: float = 4.0
    mu: float = 0.0
    mu_max: float = 100.0
    # action grids
    plr_grid: tuple[float, ...] = (0.01, 0.02, 0.04, 0.08, 0.16)
    z_max: int = 10
    # channel
    gains_db: tuple[float, ...] = STOCK_GAINS_DB
    channel_matrix: tuple[tuple[float, ...], ...] | None = None  # None -> nearest-neighbor default
    channel_stay: float = 0.6
    channel_step: float = 0.2
    channel_mode: str = "stationary"
    perturb_magnitude: float = 0.0
    # traffic
    arrival_mode: str = "poisson"
    arrival_rate_pkts_per_s: float = 200.0
    arrival_count: int = 2  # deterministic / uniform parameter
    truncation_tail: float = 1e-9
    mmpp_rates: tuple[float, ...] = MMPP_RATES
    mmpp_stationary: tuple[float, ...] = MMPP_STATIONARY
    mmpp_stay: float = MMPP_STAY
    # learning
    algorithm: str = "pds_ve"
    ve_period: int = 1
    alpha_power: float = 0.7
    beta_power: float = 1.0
    eps_start: float = 0.5
    eps_decay: float = 0.9999
    eps_floor: float = 0.01
    init_arrival_pkts: int = 5
    init_mu: float = 1.0
    # run control
    horizon: int = 75_000
    seed: int = 0
    b_init: int = 0
    h_init: int | None = None  # None -> middle channel state
    x_init: str = "on"
    epoch_slots: int = 100  # re-solve period of the model-estimating reference
    threshold_k: int = 5
    fixed_plr: float = 0.01

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}")
        if self.arrival_mode not in ARRIVAL_MODES:
            raise ConfigError(f"arrival_mode must be one of {ARRIVAL_MODES}")
        if self.x_init not in ("on", "off"):
            raise ConfigError("x_init must be 'on' or 'off'")
        if self.h_init is not None and not 0 <= self.h_init < len(self.gains_db):
            raise ConfigError("h_init outside the channel grid")
        if not 0 <= self.b_init <= self.capacity:
            raise ConfigError("b_init outside the buffer")
        if self.horizon < 1:
            raise ConfigError("horizon must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.ve_period < 1:
            raise ConfigError("ve_period must be at least 1")
        if self.epoch_slots < 1:
            raise ConfigError("epoch_slots must be at least 1")
        if self.z_max > self.capacity:
            raise ConfigError("z_max cannot exceed the buffer capacity")

    # ---- derived pieces --------------------------------------------------

    @property
    def effective_eta(self) -> float:
        return overflow_penalty(self.gamma) if self.eta is None else self.eta

    def arrival_distribution(self) -> ArrivalDistribution:
        """The i.i.d. per-slot arrival pmf a planner would assume."""
        if self.arrival_mode == "poisson":
            mean = self.arrival_rate_pkts_per_s * self.phy.slot_seconds
            return ArrivalDistribution.poisson(mean, self.truncation_tail)
        if self.arrival_mode == "deterministic":
            return ArrivalDistribution.deterministic(self.arrival_count)
        if self.arrival_mode == "uniform":
            return ArrivalDistribution.uniform(self.arrival_count)
        return self.build_arrival_model().pmf  # mmpp: stationary mixture

    def resolved_channel_matrix(self) -> np.ndarray:
        if self.channel_matrix is not None:
            return np.asarray(self.channel_matrix, dtype=np.float64)
        return birth_death_matrix(len(self.gains_db), self.channel_stay, self.channel_step)

    def build_model(self) -> JointModel:
        return JointModel(
            gains_db=self.gains_db,
            channel_matrix=self.resolved_channel_matrix(),
            arrivals=self.arrival_distribution(),
            phy=self.phy,
            profile=self.power,
            queue=QueueConfig(self.capacity, self.effective_eta),
            plr_grid=self.plr_grid,
            z_max=self.z_max,
            gamma=self.gamma,
        )

    def build_channel_model(self) -> ChannelModel:
        return ChannelModel(
            self.resolved_channel_matrix(),
            mode=self.channel_mode,
            perturb_magnitude=self.perturb_magnitude,
        )

    def build_arrival_model(self) -> ArrivalModel:
        if self.arrival_mode == "mmpp":
            return ArrivalModel(
                "mmpp",
                slot_seconds=self.phy.slot_seconds,
                mmpp_rates=self.mmpp_rates,
                mmpp_stationary=self.mmpp_stationary,
                mmpp_stay=self.mmpp_stay,
                truncation_tail=self.truncation_tail,
            )
        return ArrivalModel("stationary", pmf=self.arrival_distribution())

    def initial_state(self) -> State:
        h = len(self.gains_db) // 2 if self.h_init is None else self.h_init
        x = PowerState.ON if self.x_init == "on" else PowerState.OFF
        return State(self.b_init, h, x)

    def build_env(self, model: JointModel | None = None) -> Environment:
        m = self.build_model() if model is None else model
        return Environment(
            m,
            self.build_channel_model(),
            self.build_arrival_model(),
            RngStreams.from_seed(self.seed),
            self.initial_state(),
        )

    def schedules(self) -> LearningSchedule:
        return LearningSchedule(
            alpha_power=self.alpha_power,
            beta_power=self.beta_power,
            eps_start=self.eps_start,
            eps_decay=self.eps_decay,
            eps_floor=self.eps_floor,
        )

    def multiplier(self, fixed: bool = False) -> MultiplierState:
        return MultiplierState(mu=self.mu, target=self.g_bar, mu_max=self.mu_max, fixed=fixed)

    def init_arrivals(self) -> ArrivalDistribution:
        return ArrivalDistribution.deterministic(self.init_arrival_pkts)

    # ---- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build from a JSON object; a non-object, an unknown or missing key and a
        value of the wrong type (see ``_reader``) raise ``ConfigError``."""
        d = _fields_of(cls, d, "config")
        d["phy"] = PhyConfig(**_fields_of(PhyConfig, d.get("phy", {}), "phy"))
        d["power"] = PowerProfile(**_fields_of(PowerProfile, d.get("power", {"p_on": 0.32}), "power"))
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def model_fingerprint(self) -> dict:
        """The part of the config that determines solver tables."""
        return {
            "phy": dataclasses.asdict(self.phy),
            "power": dataclasses.asdict(self.power),
            "capacity": self.capacity,
            "gamma": repr(self.gamma),
            "eta": repr(self.effective_eta),
            "mu": repr(self.mu),
            "plr_grid": [repr(p) for p in self.plr_grid],
            "z_max": self.z_max,
            "gains_db": [repr(g) for g in self.gains_db],
            "channel_matrix": [
                [repr(v) for v in row] for row in self.resolved_channel_matrix().tolist()
            ],
            "arrival_pmf": [repr(v) for v in self.arrival_distribution().pmf.tolist()],
        }


def _reader(tp):
    """The value a field annotated ``tp`` stores for a JSON value: a finite float
    for a float, a JSON integer included, so that ``1`` and ``1.0`` give one
    config; an integer for an int (``true`` is neither); a tuple for an array;
    null only for ``X | None``; a dataclass's object as is (read on its own).
    Raises ``TypeError`` for a value of another type and ``ValueError`` for
    ``NaN``, ``Infinity`` and ``-Infinity``, which Python's ``json`` reads."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        read = _reader(args[0])
        return lambda v: None if v is None else read(v)
    if origin is tuple:  # tuple[X, ...]
        read = _reader(args[0])

        def read_tuple(v):
            if type(v) not in (list, tuple):
                raise TypeError
            return tuple(map(read, v))

        return read_tuple
    if dataclasses.is_dataclass(tp):
        return lambda v: v
    kinds = (int, float) if tp is float else (tp,)

    def read_scalar(v):
        if type(v) not in kinds:
            raise TypeError
        if tp is float and not -np.inf < v < np.inf:  # NaN fails both comparisons
            raise ValueError
        return tp(v)

    return read_scalar


# per class, a reader per field (``_reader``) and the fields without a default;
# the annotations are strings (postponed evaluation), so they are resolved once, here
_SCHEMAS = {
    cls: (
        {k: _reader(tp) for k, tp in typing.get_type_hints(cls).items()},
        {f.name for f in dataclasses.fields(cls) if f.default is MISSING and f.default_factory is MISSING},
    )
    for cls in (ExperimentConfig, PhyConfig, PowerProfile)
}


def _fields_of(cls, d, what: str) -> dict:
    """The fields of ``cls`` that the JSON object ``d`` gives, each as its field
    stores it (``_reader``); every field without a default must be given."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object")
    readers, required = _SCHEMAS[cls]
    if not readers.keys() >= d.keys():
        raise ConfigError(f"unknown {what} keys {sorted(d.keys() - readers.keys())}")
    if not d.keys() >= required:
        raise ConfigError(f"missing {what} keys {sorted(required - d.keys())}")
    fields = {}
    for key, value in d.items():
        try:
            fields[key] = readers[key](value)
        except (TypeError, ValueError, OverflowError) as exc:  # an int past float range overflows
            kind = "finite" if type(exc) is ValueError else cls.__dataclass_fields__[key].type
            raise ConfigError(f"{what} key {key!r} must be {kind}, got {value!r}") from None
    return fields


def table_profile(p_on: float = 0.32, **overrides) -> ExperimentConfig:
    """Stock full-scale profile; p_on selects the radio's on-state draw in watts."""
    kw = dict(power=PowerProfile(p_on=p_on), mu_max=5.0)
    kw.update(overrides)
    return ExperimentConfig(**kw)


def reduced_profile(**overrides) -> ExperimentConfig:
    """Small instance (11 buffer levels, 4 channel states) for exact cross-checks."""
    kw = dict(
        capacity=10,
        gains_db=REDUCED_GAINS_DB,
        power=PowerProfile(p_on=0.32),
        horizon=20_000,
        mu_max=5.0,
    )
    kw.update(overrides)
    return ExperimentConfig(**kw)
