"""Finite transmission buffer: arrivals, departures, holding and overflow cost."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ArrivalDistribution:
    """Per-slot packet arrival counts as an explicit finite pmf.

    Index l of ``pmf`` is P[l packets arrive]. Unbounded models are truncated
    with the residual tail folded into the last bin so the pmf stays exact.
    """

    pmf: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.pmf, dtype=np.float64)
        object.__setattr__(self, "pmf", p)
        if p.ndim != 1 or p.size == 0:
            raise ConfigError("arrival pmf must be a nonempty vector")
        if np.any(p < 0.0):
            raise ConfigError("arrival pmf has negative mass")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ConfigError(f"arrival pmf sums to {p.sum()!r}, not 1")

    @property
    def l_max(self) -> int:
        return self.pmf.size - 1

    @property
    def mean(self) -> float:
        return float(self.pmf @ np.arange(self.pmf.size))

    @classmethod
    def deterministic(cls, k: int) -> "ArrivalDistribution":
        if k < 0:
            raise ConfigError("arrival count must be nonnegative")
        pmf = np.zeros(k + 1)
        pmf[k] = 1.0
        return cls(pmf)

    @classmethod
    def uniform(cls, l_max: int) -> "ArrivalDistribution":
        if l_max < 0:
            raise ConfigError("l_max must be nonnegative")
        return cls(np.full(l_max + 1, 1.0 / (l_max + 1)))

    @classmethod
    def poisson(cls, mean: float, tail: float = 1e-9) -> "ArrivalDistribution":
        """Truncated Poisson; cut where the true tail drops below ``tail``."""
        if mean < 0:
            raise ConfigError("poisson mean must be nonnegative")
        if mean == 0:
            return cls.deterministic(0)
        terms = [math.exp(-mean)]
        if terms[0] == 0.0:  # the terms would all be 0 and never reach the tail
            raise ConfigError(f"poisson mean {mean!r} is too large to tabulate: exp(-mean) underflows")
        remaining = 1.0 - terms[0]
        k = 0
        while remaining >= tail:
            k += 1
            terms.append(terms[-1] * mean / k)
            remaining -= terms[-1]
        pmf = np.array(terms)
        pmf[-1] = 1.0 - pmf[:-1].sum()  # fold the tail into the last bin
        return cls(pmf)


@dataclass(frozen=True)
class QueueConfig:
    """Buffer capacity in packets and the weight of a dropped packet."""

    capacity: int
    eta: float

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigError("capacity must be at least 1")
        if self.eta < 0:
            raise ConfigError("eta must be nonnegative")


def overflow_penalty(gamma: float) -> float:
    """Drop weight gamma / (1 - gamma) that makes dropping never cheaper than holding.

    Computed through exact rationals so decimal-valued gamma gives the exact
    ratio (0.98 -> 49, not 48.9999...).
    """
    if not (0.0 <= gamma < 1.0):
        raise ConfigError("gamma must lie in [0, 1)")
    g = Fraction(str(float(gamma)))
    return float(g / (1 - g))
