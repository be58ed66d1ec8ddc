"""Step-size schedules, multiplier ascent, and both online learners."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from greentx.env import SlotOutcome
from greentx.errors import ConfigError
from greentx.learners import (
    LearningSchedule,
    MultiplierState,
    PdsExperienceTuple,
    PdsLearner,
    QLearner,
    epsilon_greedy,
    experience_from,
    mu_update,
    pds_greedy,
    pds_state_value,
    pds_update,
    q_update,
    ve_batch_update,
)
from greentx.model import State
from greentx.pds import FactoredDynamics, PostDecisionState
from greentx.power import PowerState
from oracles import default_schedules, virtual_tuples


def _outcome(model, s, a, *, f=0, l=0, x_next=PowerState.ON, h_next=None):
    h_next = s.h if h_next is None else h_next
    holding = s.b - f
    cap = model.queue.capacity
    drops = max(holding + l - cap, 0)
    return SlotOutcome(
        s=s,
        action=a,
        f=f,
        l=l,
        x_next=x_next,
        h_next=h_next,
        power_w=float(model.rho_hxa[s.h, int(s.x), model.action_index[a]]),
        holding=holding,
        drops=drops,
        g_realized=holding + model.queue.eta * drops,
        s_pds=PostDecisionState(s.b - f, s.h, x_next),
        s_next=State(min(holding + l, cap), h_next, x_next),
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


# ---- conventional Q-learning ------------------------------------------------


def test_q_update_hand_example():
    q = np.zeros((2, 2))
    feas = np.ones((2, 2), dtype=bool)
    got = q_update(q, 0, 0, cost=2.0, s_next_idx=1, alpha=0.5, gamma=0.5, feasible_sa=feas)
    assert got == 1.0 and q[0, 0] == 1.0
    assert q[0, 1] == 0.0 and np.all(q[1] == 0.0)


def test_q_update_backs_up_only_feasible_continuations():
    q = np.array([[0.0, 0.0], [-5.0, 3.0]])
    feas = np.array([[True, True], [False, True]])
    q_update(q, 0, 1, cost=1.0, s_next_idx=1, alpha=1.0, gamma=0.5, feasible_sa=feas)
    assert q[0, 1] == 1.0 + 0.5 * 3.0  # the -5 entry is masked


def test_epsilon_greedy_modes():
    rng = np.random.default_rng(0)
    row = np.array([9.0, 1.0, 1.0 + 1e-10, 0.0])
    feas = np.array([0, 1, 2])
    # eps = 0: earliest feasible entry within the tie window; index 3 is masked
    assert epsilon_greedy(row, feas, 0.0, rng) == 1
    picks = {epsilon_greedy(row, feas, 1.0, rng) for _ in range(200)}
    assert picks == {0, 1, 2}


def test_q_learner_first_visit_writes_sampled_target(reduced_model):
    m = reduced_model
    learner = QLearner(
        m,
        default_schedules(),
        MultiplierState(mu=0.0, target=4.0, mu_max=100.0),
        np.random.default_rng(5),
    )
    s = State(3, 1, PowerState.ON)
    a = learner.act(s)
    ai = learner._last_action_idx
    out = _outcome(m, s, a, f=a.z, l=2)
    learner.learn(out)
    si = m.state_index(s)
    # alpha(0) = 1 and the table started at zero, so the entry is the bare cost
    assert learner.q[si, ai] == out.power_w + 0.0 * out.g_realized
    assert learner.visits[si, ai] == 1 and learner.n == 1
    # multiplier moved by beta(0) * (g - target)
    assert learner.multiplier.mu == max(0.0, 1.0 * (out.g_realized - 4.0))


def test_q_learner_second_visit_uses_per_pair_rate(reduced_model):
    m = reduced_model
    sched = default_schedules()
    learner = QLearner(
        m, sched, MultiplierState(mu=0.0, target=4.0, mu_max=100.0),
        np.random.default_rng(5),
    )
    s = State(3, 1, PowerState.ON)
    a = learner.act(s)
    ai = learner._last_action_idx
    out = _outcome(m, s, a, f=a.z, l=2)
    learner.learn(out)
    si = m.state_index(s)
    q_old = learner.q[si, ai]
    mu_before = learner.multiplier.mu
    sn = m.state_index(out.s_next)
    best_next = learner.q[sn][m.feasible_sa[sn]].min()
    learner._last_action_idx = ai
    learner.learn(out)
    alpha = sched.alpha(1)  # second visit of this pair
    want = (1.0 - alpha) * q_old + alpha * (
        out.power_w + mu_before * out.g_realized + m.gamma * best_next
    )
    assert learner.q[si, ai] == want


# ---- post-decision learning --------------------------------------------------


def test_pds_greedy_is_deterministic_and_canonical(reduced_model_mu1):
    m = reduced_model_mu1
    f = FactoredDynamics(m)
    v = np.zeros((m.n_b, m.n_h, m.n_x))
    s = State(6, 2, PowerState.ON)
    a1 = pds_greedy(s, v, f, mu=1.0)
    a2 = pds_greedy(s, v, f, mu=1.0)
    assert a1 == a2
    q = f.action_values_slice(s.h, v, 1.0)[s.b, int(s.x)]
    assert m.action_index[a1] == int(np.argmin(np.where(np.isinf(q), np.inf, q)))


def test_pds_update_full_step_hits_target(reduced_model_mu1):
    m = reduced_model_mu1
    f = FactoredDynamics(m)
    v = np.zeros((m.n_b, m.n_h, m.n_x))
    tup = PdsExperienceTuple(
        s_pds=PostDecisionState(4, 1, PowerState.ON),
        cost_unknown=2.0 * m.queue.eta,
        s_next=State(5, 1, PowerState.ON),
        l=3,
    )
    target = 1.0 * tup.cost_unknown + m.gamma * pds_state_value(tup.s_next, v, f, 1.0)
    got = pds_update(v, tup, alpha=1.0, mu=1.0, factored=f)
    assert got == target and v[4, 1, 1] == target
    assert np.count_nonzero(v) == 1  # single-entry update


def test_pds_update_blends_with_alpha(reduced_model_mu1):
    m = reduced_model_mu1
    f = FactoredDynamics(m)
    v = np.full((m.n_b, m.n_h, m.n_x), 10.0)
    tup = PdsExperienceTuple(
        s_pds=PostDecisionState(2, 0, PowerState.OFF),
        cost_unknown=0.0,
        s_next=State(2, 0, PowerState.OFF),
        l=0,
    )
    target = m.gamma * pds_state_value(tup.s_next, v, f, 0.5)
    got = pds_update(v, tup, alpha=0.25, mu=0.5, factored=f)
    assert got == 0.75 * 10.0 + 0.25 * target


def test_experience_from_carries_the_slot(reduced_model):
    m = reduced_model
    s = State(9, 1, PowerState.ON)
    a = m.actions[2]
    out = _outcome(m, s, a, f=0, l=3)  # 9 + 3 overflows capacity 10 by 2
    tup = experience_from(out, m.queue.eta)
    assert tup.cost_unknown == m.queue.eta * 2
    assert tup.s_pds == out.s_pds and tup.s_next == out.s_next
    assert tup.l == 3 and tup.s == s and tup.a == a


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


def test_ve_batch_matches_sequential_virtual_updates(reduced_model_mu1):
    m = reduced_model_mu1
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
    wrote = ve_batch_update(batched, tup, alpha, mu, f, period=1, n=0)
    assert wrote == m.n_b * m.n_x

    # reference: every virtual target computed from the frozen pre-update
    # table, then written simultaneously
    manual = v0.copy()
    vals, _ = f.state_values_slice(tup.s_next.h, v0, mu)
    for t in virtual_tuples(m, tup):
        target = mu * t.cost_unknown + m.gamma * vals[t.s_next.b, int(t.s_next.x)]
        b, h, x = t.s_pds.b, t.s_pds.h, int(t.s_pds.x)
        manual[b, h, x] = (1.0 - alpha) * v0[b, h, x] + alpha * target
    assert np.array_equal(batched, manual)
    # untouched channel slices stay bit-identical
    other = [h for h in range(m.n_h) if h != tup.s_pds.h]
    assert np.array_equal(batched[:, other, :], v0[:, other, :])


def test_ve_off_batch_slot_updates_single_entry(reduced_model_mu1):
    m = reduced_model_mu1
    f = FactoredDynamics(m)
    v0 = np.full((m.n_b, m.n_h, m.n_x), 5.0)
    tup = PdsExperienceTuple(
        s_pds=PostDecisionState(3, 0, PowerState.ON),
        cost_unknown=0.0,
        s_next=State(3, 1, PowerState.ON),
        l=0,
    )
    v = v0.copy()
    wrote = ve_batch_update(v, tup, 0.5, 1.0, f, period=10, n=7)
    assert wrote == 1
    assert np.count_nonzero(v != v0) == 1 and v[3, 0, 1] != v0[3, 0, 1]
    with pytest.raises(ConfigError):
        ve_batch_update(v, tup, 0.5, 1.0, f, period=0, n=0)


def test_pds_learner_updates_table_and_price(reduced_model_mu1):
    m = reduced_model_mu1
    f = FactoredDynamics(m)
    v0 = np.zeros((m.n_b, m.n_h, m.n_x))
    learner = PdsLearner(
        f, v0, default_schedules(), MultiplierState(mu=1.0, target=4.0, mu_max=5.0)
    )
    s = State(8, 1, PowerState.ON)
    a = learner.act(s)
    assert a == pds_greedy(s, learner.v_tilde, f, 1.0)
    # deliver only part of the backlog so the buffer-cost sample exceeds 4
    out = _outcome(m, s, a, f=min(a.z, 3), l=0)
    mu_before = learner.multiplier.mu
    learner.learn(out)
    assert learner.n == 1
    assert learner.multiplier.mu == np.clip(
        mu_before + 1.0 * (out.g_realized - 4.0), 0.0, 5.0
    )
    assert learner.multiplier.mu > mu_before
    assert np.count_nonzero(learner.v_tilde) == 1  # unbatched single write
    assert learner.v_tilde is not v0  # defensive copy of the initial table


def test_pds_learner_mu_is_clipped_at_its_cap(reduced_model_mu1):
    f = FactoredDynamics(reduced_model_mu1)
    m = reduced_model_mu1
    learner = PdsLearner(
        f,
        np.zeros((m.n_b, m.n_h, m.n_x)),
        default_schedules(),
        MultiplierState(mu=4.9, target=4.0, mu_max=5.0),
        ve_period=1,
    )
    s = State(10, 0, PowerState.ON)
    a = learner.act(s)
    out = _outcome(m, s, a, f=0, l=10)  # heavy burst, large g sample
    learner.learn(out)
    assert learner.multiplier.mu == 5.0


def test_pds_learner_steps_each_entry_on_its_own_count(reduced_model_mu1):
    m = reduced_model_mu1
    f = FactoredDynamics(m)
    sched = default_schedules()
    v0 = np.random.default_rng(3).uniform(0.0, 50.0, size=(m.n_b, m.n_h, m.n_x))
    learner = PdsLearner(f, v0, sched, MultiplierState(mu=1.0, target=4.0, mu_max=5.0))
    learner.n = 10_000  # late in a run, where the global alpha(n) is small
    s = State(5, 1, PowerState.ON)
    out = _outcome(m, s, learner.act(s), f=0, l=1)
    tup = experience_from(out, m.queue.eta)
    st = tup.s_pds
    entry = (st.b, st.h, int(st.x))
    for visit in (0, 1):
        want = learner.v_tilde.copy()
        pds_update(want, tup, sched.alpha(visit), learner.multiplier.mu, f)
        learner.learn(out)
        assert np.array_equal(learner.v_tilde, want)
        assert learner.visits[entry] == visit + 1
    # the second write blends with alpha(1), far above alpha(10_001)
    assert sched.alpha(1) > 10 * sched.alpha(learner.n)
    assert learner.visits.sum() == 2


def test_ve_learner_batch_slot_steps_fresh_entries_fully(reduced_model_mu1):
    m = reduced_model_mu1
    f = FactoredDynamics(m)
    sched = default_schedules()
    v0 = np.random.default_rng(4).uniform(0.0, 50.0, size=(m.n_b, m.n_h, m.n_x))
    learner = PdsLearner(
        f, v0, sched, MultiplierState(mu=1.0, target=4.0, mu_max=5.0), ve_period=5
    )
    learner.n = 10  # a batch slot
    s = State(6, 2, PowerState.ON)
    out = _outcome(m, s, learner.act(s), f=0, l=2, h_next=3)
    tup = experience_from(out, m.queue.eta)
    h = tup.s_pds.h
    learner.visits[3, h, 1] = 7  # written before: steps with alpha(7)
    learner.visits[0, h + 1, 0] = 4  # another channel: not written this slot
    visits0 = learner.visits.copy()
    mu = learner.multiplier.mu

    want = v0.copy()
    ve_batch_update(want, tup, sched.alpha(visits0[:, h, :]), mu, f, period=1, n=0)
    full = v0.copy()
    ve_batch_update(full, tup, 1.0, mu, f, period=1, n=0)
    learner.learn(out)
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
    learner.learn(out)
    st = tup.s_pds
    grew = learner.visits - visits1
    assert grew[st.b, st.h, int(st.x)] == 1 and grew.sum() == 1


def test_pds_learner_rejects_a_nonpositive_period(reduced_model_mu1):
    m = reduced_model_mu1
    with pytest.raises(ConfigError):
        PdsLearner(
            FactoredDynamics(m),
            np.zeros((m.n_b, m.n_h, m.n_x)),
            default_schedules(),
            MultiplierState(),
            ve_period=0,
        )
