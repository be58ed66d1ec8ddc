"""Buffer dynamics and costs against brute-force enumeration."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greentx
from greentx.errors import ConfigError
from greentx.queueing import ArrivalDistribution, QueueConfig, overflow_penalty
from oracles import buffer_cost, buffer_transition_pmf, expected_overflow, goodput_pmf, next_buffer


def test_poisson_truncation_point():
    # mean 2 packets/slot at tail mass < 1e-9 cuts at 15 (computed beforehand)
    d = ArrivalDistribution.poisson(2.0)
    assert d.l_max == 15
    assert d.pmf.sum() == 1.0  # residual folded into the last bin exactly
    assert d.mean == pytest.approx(2.0, abs=1e-7)
    direct = [math.exp(-2.0) * 2.0**k / math.factorial(k) for k in range(15)]
    assert np.allclose(d.pmf[:15], direct, rtol=1e-12)


@pytest.mark.parametrize("mean", [800.0, math.inf])
def test_poisson_refuses_a_mean_that_never_tabulates(mean):
    # exp(-mean) underflows to 0.0, so the tail never shrank and the call
    # never returned: run it in a child process that a timeout ends
    code = (
        "import sys\n"
        "from greentx.errors import ConfigError\n"
        "from greentx.queueing import ArrivalDistribution\n"
        "try:\n"
        f"    ArrivalDistribution.poisson(float({str(mean)!r}))\n"
        "except ConfigError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(greentx.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=20)
    assert done.returncode == 0, done.stderr
    assert "poisson mean" in done.stdout
    # a mean of 600 (60000 packets/s at the stock 10 ms slot) still tabulates
    assert ArrivalDistribution.poisson(600.0).pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_deterministic_and_uniform_builders():
    d = ArrivalDistribution.deterministic(3)
    assert d.pmf.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert d.l_max == 3 and d.mean == 3.0
    u = ArrivalDistribution.uniform(4)
    assert u.pmf.tolist() == [0.2] * 5
    assert u.mean == pytest.approx(2.0)


def test_arrival_distribution_validation():
    with pytest.raises(ConfigError):
        ArrivalDistribution(np.array([0.5, 0.4]))  # mass missing
    with pytest.raises(ConfigError):
        ArrivalDistribution(np.array([1.5, -0.5]))


def test_next_buffer_clamps_at_capacity():
    assert next_buffer(5, 2, 1, 10) == 4
    assert next_buffer(9, 0, 5, 10) == 10
    assert next_buffer(3, 3, 0, 10) == 0


def test_transition_pmf_tiny_case_by_hand():
    # one packet in the buffer, one attempt at 50% loss, no arrivals
    arr = ArrivalDistribution.deterministic(0)
    pmf = buffer_transition_pmf(1, 1, 0.5, arr, 2)
    assert pmf.tolist() == [0.5, 0.5, 0.0]


def test_transition_pmf_aggregates_overflow_in_top_bin():
    # empty transmission, arrivals 0..3 uniform, capacity 2: bursts 2 and 3 pool at 2
    arr = ArrivalDistribution.uniform(3)
    pmf = buffer_transition_pmf(0, 0, 0.01, arr, 2)
    assert pmf == pytest.approx([0.25, 0.25, 0.5])


def test_transition_pmf_validates_inputs():
    arr = ArrivalDistribution.deterministic(0)
    with pytest.raises(ConfigError):
        buffer_transition_pmf(3, 4, 0.1, arr, 10)
    with pytest.raises(ConfigError):
        buffer_transition_pmf(11, 0, 0.1, arr, 10)


@settings(max_examples=60)
@given(st.integers(0, 25), st.integers(0, 10), st.sampled_from([0.01, 0.16, 0.5]))
def test_transition_pmf_is_a_distribution(b, z, plr):
    z = min(z, b)
    arr = ArrivalDistribution.poisson(2.0)
    pmf = buffer_transition_pmf(b, z, plr, arr, 25)
    assert pmf.size == 26
    assert np.all(pmf >= 0.0)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def _cost_by_enumeration(b, z, plr, arr, cap, eta):
    fp = goodput_pmf(z, plr)
    total = 0.0
    for f in range(z + 1):
        for l, pl in enumerate(arr.pmf):
            post = b - f
            total += fp[f] * pl * (post + eta * max(post + l - cap, 0))
    return total


@settings(max_examples=40)
@given(st.integers(0, 10), st.integers(0, 10), st.sampled_from([0.01, 0.3]))
def test_buffer_cost_matches_enumeration(b, z, plr):
    z = min(z, b)
    arr = ArrivalDistribution.poisson(2.0)
    got = buffer_cost(b, z, plr, arr, 10, eta=49.0)
    want = _cost_by_enumeration(b, z, plr, arr, 10, 49.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_expected_overflow_cases():
    det3 = ArrivalDistribution.deterministic(3)
    assert expected_overflow(2, det3, 4) == 1.0
    assert expected_overflow(0, det3, 4) == 0.0
    # uniform 0..3 onto a full buffer drops the whole burst
    u = ArrivalDistribution.uniform(3)
    assert expected_overflow(4, u, 4) == pytest.approx(1.5)


def test_drop_penalty_exact_at_stock_discount():
    assert overflow_penalty(0.98) == 49.0  # exact, not 48.999...
    assert overflow_penalty(0.5) == 1.0
    assert overflow_penalty(0.0) == 0.0
    with pytest.raises(ConfigError):
        overflow_penalty(1.0)


@given(st.floats(0.01, 0.99))
def test_drop_penalty_matches_its_defining_ratio(gamma):
    eta = overflow_penalty(gamma)
    assert eta * (1.0 - gamma) == pytest.approx(gamma, rel=1e-9)


def test_queue_config_validation():
    assert QueueConfig(10, 49.0).capacity == 10
    with pytest.raises(ConfigError):
        QueueConfig(0, 49.0)
    with pytest.raises(ConfigError):
        QueueConfig(10, -1.0)
