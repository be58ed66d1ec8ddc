"""Radio power management: on/off state, switching commands, power draw."""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigError


class PowerState(IntEnum):
    OFF = 0
    ON = 1


class PmAction(IntEnum):
    """Command issued to the radio: target state for the next slot."""

    S_OFF = 0
    S_ON = 1


@dataclass(frozen=True)
class PowerProfile:
    """Circuit power levels (watts) and switching reliability of the radio."""

    p_on: float
    p_off: float = 0.0
    p_tr: float | None = None  # defaults to p_on
    theta: float = 1.0  # probability a switch command takes effect this slot

    def __post_init__(self) -> None:
        if self.p_tr is None:
            object.__setattr__(self, "p_tr", self.p_on)
        if not all(-np.inf < p < np.inf for p in (self.p_on, self.p_off, self.p_tr)):
            raise ConfigError("power levels must be finite")
        if not (self.p_off >= 0.0 and self.p_on > self.p_off):
            raise ConfigError("need p_on > p_off >= 0")
        if self.p_tr < self.p_on:
            raise ConfigError("need p_tr >= p_on")
        if not (0.0 < self.theta <= 1.0):
            raise ConfigError("theta must lie in (0, 1]")


def pm_transition_pmf(x: PowerState, y: PmAction, theta: float) -> np.ndarray:
    """Distribution of the next radio state, indexed [P(off), P(on)].

    A command toward the current state always holds; a switch command
    succeeds with probability theta and is otherwise retried next slot.
    """
    if not (0.0 < theta <= 1.0):
        raise ConfigError("theta must lie in (0, 1]")
    if y == PmAction.S_ON:
        if x == PowerState.ON:
            return np.array([0.0, 1.0])
        return np.array([1.0 - theta, theta])
    if x == PowerState.OFF:
        return np.array([1.0, 0.0])
    return np.array([theta, 1.0 - theta])
