"""Physical-layer model: modulation order, bit error probability, transmit power.

The transmitter sends ``z`` packets per slot by scaling the modulation order,
so the bit error probability (BEP), the per-packet loss ratio (PLR), and the
required transmit power are all tied together through the channel gain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

# BEP(snr) = BEP_COEF * exp(-SNR_SLOPE * snr / (2^beta - 1)), the standard
# smooth upper bound for square M-QAM over a flat channel.
BEP_COEF = 0.2
SNR_SLOPE = 1.5
BEP_MAX = 0.5


@dataclass(frozen=True)
class PhyConfig:
    """Link-layer constants that fix the modulation/power trade-off."""

    packet_bits: int = 5000
    symbol_rate_hz: float = 500e3
    slot_seconds: float = 10e-3
    noise_psd_w_per_hz: float = 2e-11
    bandwidth_hz: float = 500e3
    max_bits_per_symbol: int = 10

    def __post_init__(self) -> None:
        if self.packet_bits <= 0:
            raise ConfigError("packet_bits must be positive")
        for name in ("symbol_rate_hz", "slot_seconds", "noise_psd_w_per_hz", "bandwidth_hz"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if self.max_bits_per_symbol < 1:
            raise ConfigError("max_bits_per_symbol must be at least 1")
        if self.max_bits_per_symbol > 1023:  # snr_for_bep's 2**beta is a float
            raise ConfigError("max_bits_per_symbol must be at most 1023")
        if not self.symbols_per_slot < math.inf:
            raise ConfigError("symbol_rate_hz * slot_seconds overflows")
        if not self.noise_power_w < math.inf:
            raise ConfigError("noise_psd_w_per_hz * bandwidth_hz overflows")

    @property
    def symbols_per_slot(self) -> float:
        return self.symbol_rate_hz * self.slot_seconds

    @property
    def noise_power_w(self) -> float:
        return self.noise_psd_w_per_hz * self.bandwidth_hz


@dataclass(frozen=True)
class BepLevel:
    """A point on the transmission-quality grid, stored both ways."""

    bep: float
    plr: float

    def __post_init__(self) -> None:
        if not (0.0 < self.bep <= BEP_MAX):
            raise ConfigError(f"bep {self.bep} outside (0, {BEP_MAX}]")
        if not (0.0 < self.plr < 1.0):
            raise ConfigError(f"plr {self.plr} outside (0, 1)")

    @classmethod
    def from_plr(cls, plr: float, packet_bits: int) -> "BepLevel":
        return cls(bep=bep_of_plr(plr, packet_bits), plr=plr)


def bits_per_symbol(z: int, cfg: PhyConfig) -> int:
    """Modulation order needed to fit z packets into one slot.

    The slot is a hard real-time boundary, so the order must come out as a
    positive integer; anything else means the grids in the config disagree.
    """
    if z < 0:
        raise ConfigError(f"packet count z={z} is negative")
    if z == 0:
        return 0
    raw = z * cfg.packet_bits / cfg.symbols_per_slot
    rounded = round(raw)
    if rounded < 1 or abs(raw - rounded) > 1e-9:
        raise ConfigError(
            f"z={z} needs {raw} bits/symbol, which is not a positive integer"
        )
    return int(rounded)


def snr_for_bep(bep: float, beta: int) -> float:
    """SNR required to hit a target bit error probability.

    Inverts BEP(snr) = BEP_COEF * exp(-SNR_SLOPE * snr / (2^beta - 1)).
    """
    if not (0.0 < bep <= BEP_MAX):
        raise ConfigError(f"bep {bep} outside (0, {BEP_MAX}]")
    if beta < 1:
        raise ConfigError(f"beta={beta} must be >= 1")
    # Targets looser than the snr=0 value need no power at all.
    return max(0.0, (2.0**beta - 1.0) * math.log(BEP_COEF / bep) / SNR_SLOPE)


def bep_of_plr(plr: float, packet_bits: int) -> float:
    """Bit error probability that yields the target packet loss ratio."""
    return -math.expm1(math.log1p(-plr) / packet_bits)
