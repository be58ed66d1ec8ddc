"""Link-layer arithmetic against frozen and independently solved references."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from greentx.errors import ConfigError
from greentx.phy import (
    BEP_COEF,
    BEP_MAX,
    BepLevel,
    PhyConfig,
    bep_of_plr,
    bits_per_symbol,
    snr_for_bep,
)
from oracles import bep_level_from_bep, bep_of_snr, goodput_pmf, plr_of_bep, tx_power

PACKET_BITS = 5000

# Frozen references, computed independently before the implementation existed.
BEP_FOR_PLR = {
    0.01: 2.0100651505166266e-06,
    0.02: 4.0405333005272244e-06,
    0.04: 8.164365575436996e-06,
    0.08: 1.667618273872897e-05,
    0.16: 3.487006945395023e-05,
}
SNR_REQ_Z1_PLR1 = 7.671937007194756
TX_POWER_BEST_GAIN_Z1_PLR1 = 0.00012385257154998638


def test_bep_for_quality_grid_matches_reference():
    for plr, bep in BEP_FOR_PLR.items():
        assert bep_of_plr(plr, PACKET_BITS) == pytest.approx(bep, rel=1e-12)


def test_plr_bep_roundtrip_on_grid():
    for plr in BEP_FOR_PLR:
        back = plr_of_bep(bep_of_plr(plr, PACKET_BITS), PACKET_BITS)
        assert back == pytest.approx(plr, rel=1e-12)


@given(st.floats(1e-9, 0.9), st.integers(1, 20000))
def test_plr_bep_roundtrip_property(plr, bits):
    assert plr_of_bep(bep_of_plr(plr, bits), bits) == pytest.approx(plr, rel=1e-9)


def test_required_snr_matches_bracketing_solver():
    bep = BEP_FOR_PLR[0.01]
    got = snr_for_bep(bep, 1)
    assert got == pytest.approx(SNR_REQ_Z1_PLR1, rel=1e-12)
    numeric = brentq(lambda s: bep_of_snr(s, 1) - bep, 0.0, 1e4, xtol=1e-12)
    assert got == pytest.approx(numeric, rel=1e-9)


def test_zero_snr_error_rate_is_the_coefficient():
    assert bep_of_snr(0.0, 3) == BEP_COEF


def test_generous_targets_need_no_power():
    assert snr_for_bep(BEP_COEF, 1) == 0.0
    assert snr_for_bep(0.4, 2) == 0.0


@given(st.floats(1e-12, 0.19), st.integers(1, 10))
def test_snr_inverts_error_rate(bep, beta):
    assert bep_of_snr(snr_for_bep(bep, beta), beta) == pytest.approx(bep, rel=1e-9)


@given(st.floats(0.0, 50.0), st.floats(0.01, 50.0))
def test_error_rate_decreases_with_snr(snr, extra):
    assert bep_of_snr(snr + extra, 2) <= bep_of_snr(snr, 2)
    assert 0.0 < bep_of_snr(snr, 2) <= BEP_MAX


@given(st.integers(1, 9), st.floats(0.1, 100.0))
def test_denser_constellations_cost_reliability(beta, snr):
    assert bep_of_snr(snr, beta + 1) >= bep_of_snr(snr, beta)


def test_bits_per_symbol_is_packet_count_at_stock_rates():
    cfg = PhyConfig()
    assert [bits_per_symbol(z, cfg) for z in range(11)] == list(range(11))


def test_bits_per_symbol_rejects_fractional_orders():
    cfg = PhyConfig(slot_seconds=7e-3)
    with pytest.raises(ConfigError):
        bits_per_symbol(1, cfg)
    with pytest.raises(ConfigError):
        bits_per_symbol(-1, PhyConfig())


def test_tx_power_reference_point():
    got = tx_power(-2.08, BEP_FOR_PLR[0.01], 1, PhyConfig())
    assert got == pytest.approx(TX_POWER_BEST_GAIN_Z1_PLR1, rel=1e-12)


def test_tx_power_free_when_idle():
    assert tx_power(-18.82, BEP_FOR_PLR[0.01], 0, PhyConfig()) == 0.0


def test_tx_power_monotone_in_gain_and_quality():
    cfg = PhyConfig()
    worse_gain = tx_power(-18.82, BEP_FOR_PLR[0.01], 1, cfg)
    better_gain = tx_power(-2.08, BEP_FOR_PLR[0.01], 1, cfg)
    assert worse_gain > better_gain
    looser = tx_power(-2.08, BEP_FOR_PLR[0.16], 1, cfg)
    assert looser < better_gain


def test_goodput_pmf_small_case():
    assert goodput_pmf(2, 0.5).tolist() == [0.25, 0.5, 0.25]
    assert goodput_pmf(0, 0.3).tolist() == [1.0]


@given(st.integers(0, 10), st.floats(1e-9, 0.999))
def test_goodput_pmf_is_a_distribution(z, plr):
    pmf = goodput_pmf(z, plr)
    assert pmf.size == z + 1
    assert np.all(pmf >= 0.0)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_bep_level_builders_agree():
    a = BepLevel.from_plr(0.01, PACKET_BITS)
    b = bep_level_from_bep(a.bep, PACKET_BITS)
    assert b.plr == pytest.approx(a.plr, rel=1e-12)
    with pytest.raises(ConfigError):
        BepLevel(bep=0.7, plr=0.01)


def test_phy_config_validation():
    with pytest.raises(ConfigError):
        PhyConfig(packet_bits=0)
    with pytest.raises(ConfigError):
        PhyConfig(symbol_rate_hz=-1.0)
    assert PhyConfig().noise_power_w == pytest.approx(1e-5, rel=1e-12)
    with pytest.raises(ConfigError, match="max_bits_per_symbol"):
        PhyConfig(max_bits_per_symbol=1024)  # 2**1024 is past the float range
    # the products that the power table divides by must be finite too
    with pytest.raises(ConfigError, match="noise_psd_w_per_hz"):
        PhyConfig(noise_psd_w_per_hz=1e300, bandwidth_hz=1e300)
    assert PhyConfig().symbols_per_slot == pytest.approx(5000.0, rel=1e-12)


@pytest.mark.parametrize("name", ["symbol_rate_hz", "slot_seconds", "noise_psd_w_per_hz", "bandwidth_hz"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_phy_config_refuses_a_plant_field_that_is_not_finite(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be positive and finite"):
        PhyConfig(**{name: value})
