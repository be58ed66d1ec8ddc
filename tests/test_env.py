"""Simulated plant: rng streams, channel and traffic models, slot execution."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greentx.env import (
    MMPP_RATES,
    MMPP_STATIONARY,
    ArrivalModel,
    BlockUniforms,
    ChannelModel,
    Environment,
    RngStreams,
    birth_death_matrix,
    mmpp_step,
    perturb_channel,
    threshold_k_action,
)
from greentx.errors import ConfigError, FeasibilityError
from greentx.model import State
from greentx.power import PmAction, PowerState
from greentx.queueing import ArrivalDistribution
from oracles import ScalarDrawEnv, feasible_sa, joint_transition_pmf, power_cost

MMPP_MEAN_PKTS_PER_S = 211.95000000000002  # stationary @ rates, frozen


# ---- rng streams -----------------------------------------------------------


def test_streams_are_deterministic_and_independent():
    a = RngStreams.from_seed(7)
    b = RngStreams.from_seed(7)
    assert a.goodput.random(5).tolist() == b.goodput.random(5).tolist()
    assert a.channel.random(5).tolist() == b.channel.random(5).tolist()
    c = RngStreams.from_seed(7)
    assert c.goodput.random(3).tolist() != c.arrival.random(3).tolist()


def test_stream_snapshot_restores_mid_sequence():
    s = RngStreams.from_seed(3)
    s.arrival.random(10)
    snap = s.snapshot()
    ahead = s.arrival.random(5).tolist()
    s.arrival.random(100)
    s.restore(snap)
    assert s.arrival.random(5).tolist() == ahead


# ---- channel ----------------------------------------------------------------


def test_birth_death_matrix_reference_rows():
    p = birth_death_matrix(8)
    assert p[0].tolist() == [0.8, 0.2, 0, 0, 0, 0, 0, 0]
    assert p[3].tolist() == [0, 0, 0.2, 0.6, 0.2, 0, 0, 0]
    assert p[7].tolist() == [0, 0, 0, 0, 0, 0, 0.2, 0.8]
    assert np.all(p.sum(axis=1) == 1.0)
    assert birth_death_matrix(1).tolist() == [[1.0]]


def test_birth_death_matrix_validation():
    with pytest.raises(ConfigError):
        birth_death_matrix(4, stay=0.5, step=0.2)
    with pytest.raises(ConfigError):
        birth_death_matrix(0)


def test_perturb_zero_magnitude_is_identity():
    m = birth_death_matrix(8)
    out = perturb_channel(m, 0.0, np.random.default_rng(0))
    assert np.array_equal(out, m)
    with pytest.raises(ConfigError):
        perturb_channel(m, -0.1, np.random.default_rng(0))


@settings(max_examples=40)
@given(st.integers(0, 10_000), st.floats(0.01, 2.0))
def test_perturb_keeps_rows_stochastic(seed, magnitude):
    m = birth_death_matrix(6)
    out = perturb_channel(m, magnitude, np.random.default_rng(seed))
    assert out.shape == m.shape
    assert np.all(out >= 0.0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_perturb_falls_back_when_a_row_loses_all_mass():
    m = np.array([[0.5, 0.5]])
    hit = False
    for seed in range(50):
        noise = np.random.default_rng(seed).uniform(-10, 10, size=(1, 2))
        if np.all(m + noise <= 0.0):
            out = perturb_channel(m, 10.0, np.random.default_rng(seed))
            assert out.tolist() == [[0.5, 0.5]]
            hit = True
            break
    assert hit


def test_channel_model_steps_stay_in_range(reduced_cfg):
    gains = reduced_cfg.gains_db
    cm = ChannelModel(birth_death_matrix(len(gains)))
    rng = np.random.default_rng(1)
    hs = []
    h = 0
    for _ in range(500):
        h = cm.step(h, rng)
        hs.append(h)
    assert set(hs) <= set(range(len(gains)))
    assert max(abs(a - b) for a, b in zip(hs, hs[1:])) <= 1  # nearest neighbor
    with pytest.raises(ConfigError):
        ChannelModel(birth_death_matrix(len(gains)), mode="wobbly")


def test_perturbed_channel_mode_smoke(reduced_cfg):
    gains = reduced_cfg.gains_db
    cm = ChannelModel(birth_death_matrix(len(gains)), mode="perturbed", perturb_magnitude=0.1)
    rng = np.random.default_rng(2)
    for _ in range(200):
        assert 0 <= cm.step(2, rng) < len(gains)


# ---- traffic ----------------------------------------------------------------


def test_mmpp_constants_are_consistent():
    pi = np.array(MMPP_STATIONARY)
    assert pi.sum() == 1.0
    assert float(pi @ np.array(MMPP_RATES)) == MMPP_MEAN_PKTS_PER_S


def test_mmpp_step_holds_or_redraws():
    rng = np.random.default_rng(0)
    assert mmpp_step(3, rng, stay_prob=1.0) == 3
    draws = np.array([mmpp_step(0, rng, stay_prob=0.0) for _ in range(20_000)])
    freq = np.bincount(draws, minlength=5) / draws.size
    pi = np.array(MMPP_STATIONARY)
    assert np.all(np.abs(freq - pi) < 4.0 * np.sqrt(pi * (1 - pi) / draws.size) + 1e-3)


def test_mmpp_arrival_model_mixture_pmf():
    am = ArrivalModel("mmpp")
    assert am.pmf.pmf.sum() == 1.0
    # observer-averaged mean matches the stationary rate mix (per slot)
    assert am.pmf.mean == pytest.approx(MMPP_MEAN_PKTS_PER_S * 10e-3, abs=1e-6)
    assert am.chain_state == int(np.argmax(np.array(MMPP_STATIONARY)))


def test_mmpp_sample_mean_tracks_modulated_rate():
    am = ArrivalModel("mmpp")
    rng = np.random.default_rng(12)
    n = 50_000
    total = sum(am.sample(rng) for _ in range(n))
    # the modulating chain holds w.p. 0.99, so the effective sample size is
    # far below n; the bound below allows for that autocorrelation
    assert total / n == pytest.approx(MMPP_MEAN_PKTS_PER_S * 10e-3, abs=0.45)


def test_mmpp_snapshot_round_trip():
    am = ArrivalModel("mmpp")
    rng = np.random.default_rng(5)
    for _ in range(300):
        am.sample(rng)
    snap = am.snapshot()
    state = am.chain_state
    for _ in range(100):
        am.sample(rng)
    am.restore(snap)
    assert am.chain_state == state


def test_stationary_arrival_model():
    dist = ArrivalDistribution.poisson(2.0)
    am = ArrivalModel("stationary", pmf=dist)
    rng = np.random.default_rng(8)
    n = 30_000
    mean = sum(am.sample(rng) for _ in range(n)) / n
    assert mean == pytest.approx(2.0, abs=0.04)
    assert am.snapshot() == {"chain_state": None}
    with pytest.raises(ConfigError):
        ArrivalModel("stationary")
    with pytest.raises(ConfigError):
        ArrivalModel("burst")


# ---- slot execution -----------------------------------------------------------


def _det_env(model, s0, arrivals_k=3, seed=0):
    channel = ChannelModel(np.eye(model.n_h))
    arrivals = ArrivalModel(
        "stationary", pmf=ArrivalDistribution.deterministic(arrivals_k)
    )
    return Environment(model, channel, arrivals, RngStreams.from_seed(seed), s0)


def test_env_step_rejects_infeasible(reduced_model):
    env = _det_env(reduced_model, State(0, 1, PowerState.ON))
    with pytest.raises(FeasibilityError):
        env.step(2)  # one packet from an empty buffer


@pytest.mark.parametrize("x", [PowerState.OFF, PowerState.ON], ids=["sleeping", "full"])
def test_env_step_refuses_action_indices_off_the_list(reduced_model, x):
    # an index off the action list names no action: -1 once delivered six
    # packets from an empty buffer, and n_a raised a bare IndexError
    m = reduced_model
    b = 0 if x == PowerState.OFF else m.queue.capacity
    env = _det_env(m, State(b, 1, x))
    s = env.s
    for a in (-1, -m.n_a, m.n_a, m.n_a + 1):
        with pytest.raises(FeasibilityError):
            env.step(a)
        assert env.s == s, a


def test_env_step_bookkeeping_on_a_full_buffer(reduced_model):
    m = reduced_model
    s = State(10, 1, PowerState.ON)
    env = _det_env(m, s, arrivals_k=3)
    out = env.step(1)  # stay on, send nothing
    assert out.s == m.state_index(s) and out.a == 1
    assert out.f == 0 and out.l == 3
    assert out.holding == 10
    assert out.drops == 3
    assert out.g_realized == 10 + m.queue.eta * 3
    assert out.s_next == m.state_index(State(10, 1, PowerState.ON))  # identity channel, theta = 1
    # the post-decision state is (holding, channel of s, radio of s_next)
    assert m.state_of(out.s).h == 1
    assert out.power_w == m.profile.p_on


def test_env_step_transmission_bookkeeping(reduced_model):
    m = reduced_model
    env = _det_env(m, State(6, 2, PowerState.ON), arrivals_k=0, seed=42)
    a = 2 + 5 * 3  # four packets at the lowest PLR
    assert m.actions[a].z == 4
    out = env.step(a)
    assert 0 <= out.f <= 4
    assert out.holding == 6 - out.f
    assert out.drops == 0
    assert m.state_of(out.s_next).b == out.holding
    assert out.power_w == m.rho_hxa[2, 1, 2 + 5 * 3]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**6), st.integers(0, 2**32 - 1))
def test_env_step_lands_where_the_joint_model_allows(reduced_cfg, reduced_model, si, pick, seed):
    m = reduced_model
    s = si % m.n_s
    feas = np.flatnonzero(feasible_sa(m)[s])
    a = int(feas[pick % feas.size])
    env = replace(reduced_cfg, seed=seed).build_env(m)
    env.s = s
    out = env.step(a)
    st_s, act = m.state_of(s), m.actions[a]
    assert (out.s, out.a) == (s, a) and env.s == out.s_next
    assert joint_transition_pmf(m, st_s, act)[out.s_next] > 0.0
    assert out.power_w == power_cost(m, st_s, act)


def test_environment_snapshot_replays_identically(reduced_cfg, reduced_model):
    env = reduced_cfg.build_env(reduced_model)
    pol_rng = np.random.default_rng(0)

    def random_action(s):
        feas = np.flatnonzero(feasible_sa(reduced_model)[s])
        return int(feas[pol_rng.integers(feas.size)])

    for _ in range(50):
        env.step(random_action(env.s))
    snap = env.snapshot()
    probe = [env.step(1) for _ in range(30)]
    env.restore(snap)
    replay = [env.step(1) for _ in range(30)]
    assert probe == replay


def _block_ends(count):
    """Slots at which the first ``count`` blocks of an unrewound stream run out."""
    ends, size, total = [], BlockUniforms.FIRST_BLOCK, 0
    for _ in range(count):
        total += size
        ends.append(total)
        size = min(2 * size, BlockUniforms.MAX_BLOCK)
    return ends


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 24, 100, 505, 1000])
def test_block_uniforms_are_the_scalar_draws(n):
    blocks, scalar = RngStreams.from_seed(4).pm, RngStreams.from_seed(4).pm
    draws = BlockUniforms(blocks)
    assert [draws.random() for _ in range(n)] == [scalar.random() for _ in range(n)]
    draws.rewind()
    assert blocks.bit_generator.state == scalar.bit_generator.state
    assert draws.random() == scalar.random()  # draws on from the rewound state


# around the ends of the first block, of the first doubled block and of the
# first block at the cap, counted on an unrewound stream (so exact for a
# run's first cut; a snapshot rewinds and later blocks start from there)
_FIRST, _SECOND, *_, _CAPPED = _block_ends(6)
_CUTS = sorted({1, *(e + d for e in (_FIRST, _SECOND, _CAPPED) for d in (-1, 0, 1))})


@pytest.mark.parametrize(
    "kind",
    [
        {},
        {"arrival_mode": "mmpp"},
        {"channel_mode": "perturbed", "perturb_magnitude": 0.05},
    ],
    ids=["stationary", "mmpp", "perturbed"],
)
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    policy_seed=st.integers(0, 2**31 - 1),
    cuts=st.sets(st.sampled_from(_CUTS), min_size=1),
)
def test_block_draws_equal_scalar_draws(reduced_cfg, kind, seed, policy_seed, cuts):
    cfg = replace(reduced_cfg, seed=seed, **kind)
    model = cfg.build_model()
    env, ref = cfg.build_env(model), ScalarDrawEnv(cfg.build_env(model))
    policy = np.random.default_rng(policy_seed)
    for n in range(1, max(cuts) + 1):
        feas = np.flatnonzero(feasible_sa(model)[env.s])
        a = int(feas[policy.integers(feas.size)])
        assert env.step(a) == ref.step(a), n
        if n in cuts:
            # a snapshot rewinds the blocks; the run then draws on from there
            assert env.snapshot() == ref.snapshot(), n


def test_environment_is_wired_from_config(reduced_cfg):
    env = reduced_cfg.build_env()
    assert isinstance(env, Environment)
    assert env.s == env.model.state_index(reduced_cfg.initial_state())
    out = env.step(1)
    assert env.s == out.s_next


# ---- fixed-threshold baseline --------------------------------------------------


def test_threshold_policy_branches(reduced_model):
    m = reduced_model
    on, off = PowerState.ON, PowerState.OFF
    a = threshold_k_action(State(7, 0, on), 5, m)
    assert (a.z, a.y) == (7, PmAction.S_ON) and a.bep.plr == 0.01
    a = threshold_k_action(State(0, 0, on), 5, m)
    assert (a.z, a.y) == (0, PmAction.S_OFF)
    a = threshold_k_action(State(6, 0, off), 5, m)
    assert (a.z, a.y) == (0, PmAction.S_ON)
    a = threshold_k_action(State(5, 0, off), 5, m)
    assert (a.z, a.y) == (0, PmAction.S_OFF)
    # drain is capped by the largest grid packet count
    a = threshold_k_action(State(10, 0, on), 5, m)
    assert a.z == m.z_max
    a = threshold_k_action(State(3, 0, on), 5, m, fixed_plr=0.04)
    assert a.bep.plr == 0.04
    with pytest.raises(ConfigError):
        threshold_k_action(State(3, 0, on), 5, m, fixed_plr=0.03)
