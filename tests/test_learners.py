"""Step-size schedules, multiplier ascent, and both online learners."""
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from greentx.config import reduced_profile
from greentx.env import SlotOutcome
from greentx.errors import ConfigError, FeasibilityError
from greentx.harness import OBSERVATIONS, load_checkpoint, run_experiment
from greentx.learners import (
    ALPHA_TABLE_START,
    LearningSchedule,
    MultiplierState,
    PdsLearner,
    QLearner,
    epsilon_greedy,
    mu_update,
    pds_update,
    q_update,
    ve_batch_update,
)
from greentx.model import State
from greentx.pds import FactoredDynamics
from greentx.planner import TIE_TOL
from greentx.power import PowerState
from oracles import (
    action_values_slice,
    PdsExperienceTuple,
    PostDecisionState,
    all_states,
    alpha_by_power,
    best_continuation_by_mask,
    default_schedules,
    epsilon_greedy_by_mask,
    feasible_sa,
    greedy_row_by_argmax,
    is_feasible,
    ve_batch_by_fancy_index,
    virtual_tuples,
)


def _outcome(model, s, a, *, f=0, l=0, x_next=PowerState.ON, h_next=None):
    """The slot record of action index a taken in State s."""
    h_next = s.h if h_next is None else h_next
    holding = s.b - f
    cap = model.queue.capacity
    drops = max(holding + l - cap, 0)
    return SlotOutcome(
        s=model.state_index(s),
        a=a,
        f=f,
        l=l,
        s_next=model.state_index(State(min(holding + l, cap), h_next, x_next)),
        power_w=float(model.rho_hxa[s.h, int(s.x), a]),
        holding=holding,
        drops=drops,
        g_realized=holding + model.queue.eta * drops,
    )


# ---- schedules -------------------------------------------------------------


def test_schedule_validation():
    with pytest.raises(ConfigError):
        LearningSchedule(alpha_power=0.5)
    with pytest.raises(ConfigError):
        LearningSchedule(alpha_power=0.7, beta_power=0.7)
    with pytest.raises(ConfigError):
        LearningSchedule(alpha_power=1.0, beta_power=1.0)
    assert default_schedules().alpha(0) == 1.0


def test_multiplier_rate_sinks_below_value_rate():
    s = default_schedules()
    assert s.beta(10_000) / s.alpha(10_000) == pytest.approx(
        0.06309384169901314, rel=1e-12
    )
    ns = np.arange(1, 1001)
    alphas = np.array([s.alpha(n) for n in ns])
    betas = np.array([s.beta(n) for n in ns])
    assert np.all(betas < alphas)
    ratio = betas / alphas
    assert np.all(np.diff(ratio) < 0.0)


def test_exploration_decays_to_floor():
    s = default_schedules()
    assert s.epsilon(0) == 0.5
    assert s.epsilon(1) == 0.49995
    assert s.epsilon(10**6) == 0.01


# ---- multiplier ------------------------------------------------------------


def test_mu_ascent_and_clipping():
    st = MultiplierState(mu=1.0, target=4.0, mu_max=5.0)
    assert mu_update(st, g_realized=10.0, beta_n=0.5) == 4.0
    assert mu_update(st, g_realized=1000.0, beta_n=1.0) == 5.0
    st2 = MultiplierState(mu=0.1, target=4.0, mu_max=5.0)
    assert mu_update(st2, g_realized=0.0, beta_n=1.0) == 0.0
    pinned = MultiplierState(mu=1.0, target=4.0, mu_max=5.0, fixed=True)
    assert mu_update(pinned, g_realized=10.0, beta_n=0.5) == 1.0 == pinned.mu


@settings(max_examples=300, deadline=None)
@given(
    mu_max=hst.floats(1e-3, 1e3),
    start=hst.floats(0.0, 1.0),
    g=hst.floats(-1e6, 1e6),
    beta=hst.floats(0.0, 1.0),
)
@example(mu_max=5.0, start=0.0, g=4.0, beta=0.5)  # lands exactly on 0
@example(mu_max=5.0, start=1.0, g=4.0, beta=0.5)  # lands exactly on mu_max
@example(mu_max=5.0, start=0.0, g=-1e6, beta=1.0)  # clipped at 0
@example(mu_max=5.0, start=1.0, g=1e6, beta=1.0)  # clipped at mu_max
def test_mu_update_equals_np_clip_and_stays_in_range(mu_max, start, g, beta):
    st = MultiplierState(mu=start * mu_max, target=4.0, mu_max=mu_max)
    expected = float(np.clip(st.mu + beta * (g - st.target), 0.0, mu_max))
    got = mu_update(st, g_realized=g, beta_n=beta)
    assert type(got) is float and type(st.mu) is float
    assert got == expected == st.mu
    assert 0.0 <= got <= mu_max


def test_multiplier_validation():
    with pytest.raises(ConfigError):
        MultiplierState(mu_max=0.0)
    with pytest.raises(ConfigError):
        MultiplierState(mu=2.0, mu_max=1.0)
    with pytest.raises(ConfigError):
        MultiplierState(target=-1.0)
    # mu_max bounds only a price that moves; a fixed one need only be finite and nonnegative
    assert MultiplierState(mu=2.0, mu_max=1.0, fixed=True).mu == 2.0
    for mu in (-0.5, np.inf, np.nan):
        with pytest.raises(ConfigError):
            MultiplierState(mu=mu, mu_max=1.0, fixed=True)


def _raw_prices(cfg, tmp_path):
    """The price and realized buffer cost of each slot of a run, as recorded (not windowed)."""
    ck = tmp_path / "run.ckpt"
    run_experiment(cfg, checkpoint_path=ck, checkpoint_every=cfg.horizon)
    obs = load_checkpoint(ck)["observations"]
    return obs[:, OBSERVATIONS.index("mu")], obs[:, OBSERVATIONS.index("g_realized")]


def _assert_the_loop_steps_the_price(cfg, mu, g):
    """Slot n + 1's price is ``mu_update`` of slot n's with beta(n), bit for bit."""
    beta = cfg.schedules().beta
    assert mu[0] == cfg.mu
    for n in range(len(mu) - 1):
        price = MultiplierState(mu=mu[n], target=cfg.g_bar, mu_max=cfg.mu_max)
        assert np.float64(mu_update(price, g[n], beta(n))).tobytes() == mu[n + 1].tobytes()


# ---- conventional Q-learning ------------------------------------------------


def test_q_update_hand_example():
    q = np.zeros((2, 2))
    got = q_update(q, 0, 0, cost=2.0, s_next_idx=1, alpha=0.5, gamma=0.5, n_feasible=[2, 2])
    assert got == 1.0 and q[0, 0] == 1.0
    assert q[0, 1] == 0.0 and np.all(q[1] == 0.0)


def test_q_update_backs_up_only_feasible_continuations():
    q = np.array([[0.0, 0.0], [3.0, -5.0]])
    q_update(q, 0, 1, cost=1.0, s_next_idx=1, alpha=1.0, gamma=0.5, n_feasible=[2, 1])
    assert q[0, 1] == 1.0 + 0.5 * 3.0  # the -5 entry lies past state 1's prefix


def test_epsilon_greedy_modes():
    rng = np.random.default_rng(0)
    row = np.array([9.0, 1.0, 1.0 + 1e-10, 0.0])
    # eps = 0: earliest entry of the feasible prefix within the tie window; index 3 lies past it
    assert epsilon_greedy(row[:3], 0.0, rng) == 1
    picks = {epsilon_greedy(row[:3], 1.0, rng) for _ in range(200)}
    assert picks == {0, 1, 2}


# models over a small grid of buffer sizes, batch limits and PLR grids
PREFIX_GRID = [
    dict(capacity=capacity, z_max=z_max, plr_grid=plr_grid)
    for capacity in (3, 6)
    for z_max in (1, 3)
    for plr_grid in ((0.05,), (0.01, 0.1), (0.01, 0.02, 0.04))
]


def _grid_id(kw):
    return f"cap{kw['capacity']}-z{kw['z_max']}-plr{len(kw['plr_grid'])}"


@pytest.mark.parametrize("kw", PREFIX_GRID, ids=_grid_id)
def test_feasible_actions_are_a_prefix_of_the_action_list(kw):
    m = reduced_profile(**kw).build_model()
    n_plr = len(kw["plr_grid"])
    for s in all_states(m):
        k = 2 + min(s.b, m.z_max) * n_plr if s.x == PowerState.ON else 2
        assert [is_feasible(m, s, a) for a in m.actions] == [j < k for j in range(m.n_a)], s


def _planted_q(model, rng):
    """A random Q table whose infeasible entries lie below every feasible
    one, and whose feasible rows hold entries at the minimum, inside the
    tie window, on its edge and just past it."""
    feas = feasible_sa(model)
    q = rng.normal(size=feas.shape)
    q[~feas] = -1e3
    for s in range(model.n_s):
        idx = np.flatnonzero(feas[s])
        low = q[s, idx].min()
        offsets = (0.0, 0.5 * TIE_TOL, TIE_TOL, 2.0 * TIE_TOL)
        picks = rng.choice(idx, size=min(len(offsets), len(idx)), replace=False)
        for a, offset in zip(picks, offsets):
            q[s, a] = low + offset
    return q


def _learner_with(model, q, eps, seed):
    sched = LearningSchedule(eps_start=eps, eps_decay=1.0, eps_floor=eps)
    learner = QLearner(model, sched, np.random.default_rng(seed))
    learner.q[...] = q
    return learner


@pytest.mark.parametrize("kw", PREFIX_GRID[::4], ids=_grid_id)
def test_q_learner_greedy_action_reads_the_masked_row(kw):
    m = reduced_profile(**kw).build_model()
    q = _planted_q(m, np.random.default_rng(11))
    learner = _learner_with(m, q, 0.0, seed=3)
    rng, feas = np.random.default_rng(3), feasible_sa(m)
    for s in range(m.n_s):
        assert learner.act(s, s, 0.0) == epsilon_greedy_by_mask(q[s], feas[s], 0.0, rng), s


@pytest.mark.parametrize("kw", PREFIX_GRID[::4], ids=_grid_id)
def test_q_learner_exploration_draws_the_masked_rows_actions(kw):
    m = reduced_profile(**kw).build_model()
    q = _planted_q(m, np.random.default_rng(12))
    learner = _learner_with(m, q, 1.0, seed=4)
    rng, feas = np.random.default_rng(4), feasible_sa(m)
    for n, s in enumerate(list(range(m.n_s)) * 3):
        assert learner.act(s, n, 0.0) == epsilon_greedy_by_mask(q[s], feas[s], 1.0, rng), s
    assert learner.rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("kw", PREFIX_GRID[::4], ids=_grid_id)
def test_q_learner_backup_reads_the_masked_row(kw):
    m = reduced_profile(**kw).build_model()
    q = _planted_q(m, np.random.default_rng(13))
    learner = _learner_with(m, q, 0.0, seed=5)
    feas, mu = feasible_sa(m), 0.5
    for s_next in range(m.n_s):
        out = SlotOutcome(
            s=0, a=0, f=0, l=0, s_next=s_next, power_w=0.25, holding=0, drops=0, g_realized=0.0
        )
        learner.q[0, 0], learner.visits[0, 0] = q[0, 0], 0
        best = best_continuation_by_mask(learner.q, feas, s_next)
        want = (1.0 - 1.0) * q[0, 0] + 1.0 * (0.25 + mu * 0.0 + m.gamma * best)
        learner.learn(out, s_next, mu)
        assert learner.q[0, 0] == want, s_next


def test_q_learner_refuses_a_model_whose_feasible_sets_are_not_prefixes(reduced_model):
    m = reduced_model
    swapped = [2, 1, 0, *range(3, m.n_a)]  # actions 0 and 2 exchanged
    shuffled = SimpleNamespace(n_s=m.n_s, n_a=m.n_a, n_h=m.n_h, feasible_bxa=m.feasible_bxa[..., swapped])
    with pytest.raises(FeasibilityError):
        QLearner(shuffled, default_schedules(), np.random.default_rng(0))


def test_q_learner_first_visit_writes_sampled_target(reduced_model):
    m = reduced_model
    learner = QLearner(m, default_schedules(), np.random.default_rng(5))
    s = State(3, 1, PowerState.ON)
    si = m.state_index(s)
    ai = learner.act(si, 0, 0.5)
    out = _outcome(m, s, ai, f=m.actions[ai].z, l=2)
    learner.learn(out, 0, 0.5)
    # alpha(0) = 1 and the table started at zero, so the entry is the bare
    # cost, priced at the mu the slot was handed
    assert learner.q[si, ai] == out.power_w + 0.5 * out.g_realized
    assert learner.visits[si, ai] == 1


def test_q_learner_second_visit_uses_per_pair_rate(reduced_model):
    m = reduced_model
    sched = default_schedules()
    learner = QLearner(m, sched, np.random.default_rng(5))
    s = State(3, 1, PowerState.ON)
    si = m.state_index(s)
    ai = learner.act(si, 0, 0.0)
    out = _outcome(m, s, ai, f=m.actions[ai].z, l=2)
    learner.learn(out, 0, 0.0)
    q_old = learner.q[si, ai]
    sn = out.s_next
    best_next = learner.q[sn][feasible_sa(m)[sn]].min()
    learner.learn(out, 1, 0.5)
    alpha = sched.alpha(1)  # second visit of this pair
    want = (1.0 - alpha) * q_old + alpha * (
        out.power_w + 0.5 * out.g_realized + m.gamma * best_next
    )
    assert learner.q[si, ai] == want


# ---- post-decision learning --------------------------------------------------


def test_pds_greedy_is_deterministic_and_canonical(reduced_model):
    m = reduced_model
    f = FactoredDynamics(m)
    v = np.zeros((m.n_b, m.n_h, m.n_x))
    s = State(6, 2, PowerState.ON)
    _, a1 = f.greedy_row(s.b, s.h, int(s.x), v, mu=1.0)
    _, a2 = f.greedy_row(s.b, s.h, int(s.x), v, mu=1.0)
    assert a1 == a2
    q = action_values_slice(f, s.h, v, 1.0)[s.b, int(s.x)]
    assert a1 == int(np.argmin(np.where(np.isinf(q), np.inf, q)))


def test_pds_update_full_step_hits_target(reduced_model):
    m = reduced_model
    f = FactoredDynamics(m)
    v = np.zeros((m.n_b, m.n_h, m.n_x))
    # 8 arrivals on 4 held packets overflow capacity 10 by 2
    b, h, x, h_next, l = 4, 1, int(PowerState.ON), 2, 8
    val, _ = f.greedy_row(10, h_next, x, v, 1.0)
    target = 1.0 * (m.queue.eta * 2) + m.gamma * val
    got = pds_update(v, b, h, x, h_next, l, alpha=1.0, mu=1.0, factored=f)
    assert got == target and v[4, 1, 1] == target
    assert np.count_nonzero(v) == 1  # single-entry update


def test_pds_update_blends_with_alpha(reduced_model):
    m = reduced_model
    f = FactoredDynamics(m)
    v = np.full((m.n_b, m.n_h, m.n_x), 10.0)
    off = int(PowerState.OFF)
    target = m.gamma * f.greedy_row(2, 0, off, v, 0.5)[0]
    got = pds_update(v, 2, 0, off, h_next=0, l=0, alpha=0.25, mu=0.5, factored=f)
    assert got == 0.75 * 10.0 + 0.25 * target


def test_virtual_tuples_cover_every_buffer_and_radio(reduced_model):
    m = reduced_model
    real = PdsExperienceTuple(
        s_pds=PostDecisionState(4, 2, PowerState.ON),
        cost_unknown=0.0,
        s_next=State(7, 3, PowerState.ON),
        l=3,
    )
    vts = virtual_tuples(m, real)
    assert len(vts) == m.n_b * m.n_x
    seen = {(t.s_pds.b, int(t.s_pds.x)) for t in vts}
    assert seen == {(b, x) for b in range(m.n_b) for x in (0, 1)}
    cap, eta = m.queue.capacity, m.queue.eta
    for t in vts:
        assert t.l == 3 and t.s_pds.h == 2 and t.s_next.h == 3
        assert int(t.s_next.x) == int(t.s_pds.x)
        assert t.s_next.b == min(t.s_pds.b + 3, cap)
        assert t.cost_unknown == eta * max(t.s_pds.b + 3 - cap, 0)
        assert t.s is None and t.a is None
    assert real.s_pds in {t.s_pds for t in vts}


def test_ve_batch_matches_sequential_virtual_updates(reduced_model):
    m = reduced_model
    f = FactoredDynamics(m)
    rng = np.random.default_rng(9)
    v0 = rng.uniform(0.0, 50.0, size=(m.n_b, m.n_h, m.n_x))
    tup = PdsExperienceTuple(
        s_pds=PostDecisionState(6, 1, PowerState.ON),
        cost_unknown=0.0,
        s_next=State(8, 2, PowerState.ON),
        l=2,
    )
    alpha, mu = 0.3, 1.0

    batched = v0.copy()
    wrote = ve_batch_update(batched, tup.s_pds.h, tup.s_next.h, tup.l, alpha, mu, f)
    assert wrote == m.n_b * m.n_x

    # reference: every virtual target computed from the frozen pre-update
    # table, then written simultaneously
    manual = v0.copy()
    vals = f.state_values_slice(tup.s_next.h, v0, mu)
    for t in virtual_tuples(m, tup):
        target = mu * t.cost_unknown + m.gamma * vals[t.s_next.b, int(t.s_next.x)]
        b, h, x = t.s_pds.b, t.s_pds.h, int(t.s_pds.x)
        manual[b, h, x] = (1.0 - alpha) * v0[b, h, x] + alpha * target
    assert np.array_equal(batched, manual)
    # untouched channel slices stay bit-identical
    other = [h for h in range(m.n_h) if h != tup.s_pds.h]
    assert np.array_equal(batched[:, other, :], v0[:, other, :])


def test_ve_off_batch_slot_updates_single_entry(reduced_model):
    m = reduced_model
    f = FactoredDynamics(m)
    v0 = np.full((m.n_b, m.n_h, m.n_x), 5.0)
    sched = default_schedules()
    learner = PdsLearner(f, v0, sched, ve_period=10)
    # slot 7: not a multiple of the period
    # stay on with nothing sent or arriving; the channel moves from 0 to 1
    out = _outcome(m, State(3, 0, PowerState.ON), 1, h_next=1)
    learner.learn(out, 7, 1.0)
    v = learner.v_tilde
    assert learner.visits.sum() == 1
    assert np.count_nonzero(v != v0) == 1 and v[3, 0, 1] != v0[3, 0, 1]
    # switched off during the slot: the entry is keyed by the radio after it
    out = _outcome(m, State(3, 0, PowerState.ON), 0, x_next=PowerState.OFF, h_next=1)
    learner.learn(out, 8, 1.0)
    assert learner.visits[3, 0, 0] == 1 and learner.visits.sum() == 2
    with pytest.raises(ConfigError):
        PdsLearner(f, v0, sched, ve_period=0)


def test_pds_learner_updates_table_and_price(reduced_model, tmp_path):
    m = reduced_model
    f = FactoredDynamics(m)
    v0 = np.zeros((m.n_b, m.n_h, m.n_x))
    learner = PdsLearner(f, v0, default_schedules())
    s = State(8, 1, PowerState.ON)
    a = learner.act(m.state_index(s), 0, 1.0)
    assert a == f.greedy_row(8, 1, 1, learner.v_tilde, 1.0)[1]
    out = _outcome(m, s, a, f=min(m.actions[a].z, 3), l=0)
    learner.learn(out, 0, 1.0)
    assert np.count_nonzero(learner.v_tilde) == 1  # unbatched single write
    assert learner.v_tilde is not v0  # defensive copy of the initial table
    # the learner holds no price: the run loop steps it after every slot
    cfg = reduced_profile(algorithm="pds", mu=1.0, horizon=300, seed=3)
    mu, g = _raw_prices(cfg, tmp_path)
    _assert_the_loop_steps_the_price(cfg, mu, g)
    steps = np.diff(mu)
    assert (steps > 0).any() and (steps < 0).any()


def test_pds_learner_mu_is_clipped_at_its_cap(tmp_path):
    # target 0: every slot that holds a packet pushes the price up, from a full buffer
    cfg = reduced_profile(
        algorithm="pds_ve", mu=4.99, mu_max=5.0, g_bar=0.0, b_init=10, horizon=60, seed=1
    )
    mu, g = _raw_prices(cfg, tmp_path)
    _assert_the_loop_steps_the_price(cfg, mu, g)
    assert mu.max() == 5.0 and (mu == 5.0).sum() > 1


def test_pds_learner_steps_each_entry_on_its_own_count(reduced_model):
    m = reduced_model
    f = FactoredDynamics(m)
    sched = default_schedules()
    v0 = np.random.default_rng(3).uniform(0.0, 50.0, size=(m.n_b, m.n_h, m.n_x))
    learner = PdsLearner(f, v0, sched)
    n = 10_000  # late in a run, where the global alpha(n) is small
    s = State(5, 1, PowerState.ON)
    out = _outcome(m, s, learner.act(m.state_index(s), n, 1.0), f=0, l=1)
    entry = (5, 1, 1)  # (holding, channel of s, radio after the slot)
    for visit in (0, 1):
        want = learner.v_tilde.copy()
        pds_update(want, *entry, 1, 1, sched.alpha(visit), 1.0, f)
        learner.learn(out, n + visit, 1.0)
        assert np.array_equal(learner.v_tilde, want)
        assert learner.visits[entry] == visit + 1
    # the second write blends with alpha(1), far above alpha(10_001)
    assert sched.alpha(1) > 10 * sched.alpha(n + 1)
    assert learner.visits.sum() == 2


def test_ve_learner_batch_slot_steps_fresh_entries_fully(reduced_model):
    m = reduced_model
    f = FactoredDynamics(m)
    sched = default_schedules()
    v0 = np.random.default_rng(4).uniform(0.0, 50.0, size=(m.n_b, m.n_h, m.n_x))
    learner = PdsLearner(f, v0, sched, ve_period=5)
    n, mu = 10, 1.0  # a batch slot
    s = State(6, 2, PowerState.ON)
    out = _outcome(m, s, learner.act(m.state_index(s), n, mu), f=0, l=2, h_next=3)
    h = s.h
    learner.visits[3, h, 1] = 7  # written before: steps with alpha(7)
    learner.visits[0, h + 1, 0] = 4  # another channel: not written this slot
    visits0 = learner.visits.copy()

    want = v0.copy()
    ve_batch_update(want, h, 3, 2, sched.alpha(visits0[:, h, :]), mu, f)
    full = v0.copy()
    ve_batch_update(full, h, 3, 2, 1.0, mu, f)
    learner.learn(out, n, mu)
    assert np.array_equal(learner.v_tilde, want)
    fresh = visits0[:, h, :] == 0
    # never written before: alpha(0) = 1 lands each entry on its target
    assert np.array_equal(learner.v_tilde[:, h, :][fresh], full[:, h, :][fresh])
    assert learner.v_tilde[3, h, 1] != full[3, h, 1]
    grew = learner.visits - visits0
    assert np.all(grew[:, h, :] == 1)
    assert np.count_nonzero(grew) == m.n_b * m.n_x

    # off-batch slot: exactly the observed entry counts one more write
    visits1 = learner.visits.copy()
    learner.learn(out, n + 1, mu)
    grew = learner.visits - visits1
    assert grew[6, h, 1] == 1 and grew.sum() == 1


def test_pds_learner_rejects_a_nonpositive_period(reduced_model):
    m = reduced_model
    with pytest.raises(ConfigError):
        PdsLearner(
            FactoredDynamics(m),
            np.zeros((m.n_b, m.n_h, m.n_x)),
            default_schedules(),
            ve_period=0,
        )


@settings(max_examples=40, deadline=None)
@given(data=hst.data())
def test_pds_slot_equals_the_array_formulas_byte_for_byte(reduced_model, data):
    """Greedy rows, batch and single updates, step sizes and counts, as bytes.

    Random tables, prices and visit counts; arrivals up to and beyond the
    buffer capacity; the batch learner's step-size table has to grow during
    its second slot, since one count there lies past its first size.
    """
    m = reduced_model
    f = FactoredDynamics(m)
    cap = m.queue.capacity
    rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1), label="seed"))
    power = data.draw(hst.floats(0.51, 0.99), label="alpha_power")
    sched = LearningSchedule(alpha_power=power, beta_power=1.0)
    mu_max = 50.0
    mu = data.draw(hst.floats(0.0, mu_max), label="mu")
    v0 = rng.uniform(-5.0, 60.0, size=(m.n_b, m.n_h, m.n_x))
    visits0 = rng.integers(0, ALPHA_TABLE_START, size=v0.shape)

    for b in range(m.n_b):
        for x in range(m.n_x):
            h = int(rng.integers(m.n_h))
            got = f.greedy_row(b, h, x, v0, mu)
            want = greedy_row_by_argmax(f, b, h, x, v0, mu)
            assert got[1] == want[1]
            assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()

    def outcome(h, h_next, x, holding, l):
        drops = max(holding + l - cap, 0)
        return SlotOutcome(
            s=m.encode(holding, h, x), a=0, f=0, l=l,
            s_next=m.encode(min(holding + l, cap), h_next, x), power_w=0.0,
            holding=holding, drops=drops, g_realized=holding + m.queue.eta * drops,
        )

    for period in (1, None):
        learner = PdsLearner(f, v0, sched, ve_period=period)
        learner.visits[...] = visits0
        v, visits = v0.copy(), visits0.copy()
        # the run loop's price, which moves between slots
        ref_price = MultiplierState(mu=mu, target=4.0, mu_max=mu_max)
        for slot in range(3):
            h, h_next, x = (int(i) for i in rng.integers((m.n_h, m.n_h, m.n_x)))
            holding = int(rng.integers(cap + 1))
            l = data.draw(hst.integers(0, cap + 4), label="l")
            if slot == 1:  # a count past the table's first size
                big = data.draw(hst.integers(ALPHA_TABLE_START, 8 * ALPHA_TABLE_START), label="big")
                learner.visits[holding, h, x] = visits[holding, h, x] = big
            out = outcome(h, h_next, x, holding, l)
            s = m.encode(holding, h, x)
            act = learner.act(s, slot, ref_price.mu)
            assert act == greedy_row_by_argmax(f, holding, h, x, v, ref_price.mu)[1]
            learner.learn(out, slot, ref_price.mu)
            if period == 1:
                alpha = alpha_by_power(visits[:, h, :], power)
                ve_batch_by_fancy_index(v, h, h_next, l, alpha, ref_price.mu, f)
                visits[:, h, :] += 1
            else:
                n = visits[holding, h, x]
                alpha = alpha_by_power(n, power)
                val, _ = greedy_row_by_argmax(f, min(holding + l, cap), h_next, x, v, ref_price.mu)
                target = ref_price.mu * (m.queue.eta * out.drops) + m.gamma * val
                v[holding, h, x] = (1.0 - alpha) * v[holding, h, x] + alpha * target
                visits[holding, h, x] += 1
            mu_update(ref_price, out.g_realized, sched.beta(slot))
            assert learner.v_tilde.tobytes() == v.tobytes()
            assert learner.visits.tobytes() == visits.tobytes()
