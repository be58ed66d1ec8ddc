"""End-to-end acceptance checks for the shipped configuration.

One test per advertised guarantee, each at its stated tolerance, each
printing a one-line measurement next to the verdict. Expensive learning
runs are shared through module-scoped fixtures; every run is seeded, so
the verdicts are reproducible.
"""
import time

import numpy as np
import pytest

from greentx.config import reduced_profile, table_profile
from greentx.harness import run_experiment
from greentx.learners import epsilon_greedy, q_update, ve_batch_update
from greentx.model import State
from greentx.pds import FactoredDynamics, pds_value_iteration
from greentx.planner import value_iteration
from greentx.power import PmAction, PowerState, pm_transition_pmf
from greentx.queueing import overflow_penalty
from oracles import (
    PdsExperienceTuple,
    PostDecisionState,
    all_states,
    buffer_cost,
    buffer_transition_pmf,
    feasible_actions,
    goodput_pmf,
    joint_transition_pmf,
    known_cost,
    known_pmf,
    lagrangian_cost,
    post_decision_policy,
    unknown_pmf,
)
from oracles import unknown_cost as unknown_cost_of

SEEDS = (0, 1, 2, 3, 4)

# wall-clock seconds per fixture group, for the shared runtime budget
_elapsed: dict[str, float] = {}


def _verdict(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def _seeded_runs(key, **cfg_kwargs):
    t0 = time.monotonic()
    runs = [run_experiment(table_profile(seed=s, **cfg_kwargs)) for s in SEEDS]
    _elapsed[key] = time.monotonic() - t0
    return runs


@pytest.fixture(scope="module")
def ve1_runs():
    # default horizon, so these runs serve both the 10k read and the final slot
    return _seeded_runs("ve1", algorithm="pds_ve", ve_period=1)


@pytest.fixture(scope="module")
def ve25_runs():
    return _seeded_runs("ve25", algorithm="pds_ve", ve_period=25, horizon=10_000)


@pytest.fixture(scope="module")
def pds_runs():
    return _seeded_runs("pds", algorithm="pds", horizon=10_000)


@pytest.fixture(scope="module")
def q_runs():
    return _seeded_runs("q", algorithm="q", horizon=10_000)


@pytest.fixture(scope="module")
def sub_runs():
    return _seeded_runs("sub", algorithm="suboptimal", horizon=5_000)


def test_criterion_01_direct_and_post_decision_planners_agree(reduced_model):
    t0 = time.monotonic()
    mismatches = {}
    for mu in (0.0, 1.0, 10.0):
        m = reduced_model
        pol_direct = value_iteration(m, mu).policy
        pol_split = post_decision_policy(m, pds_value_iteration(m, mu).v_tilde, mu)
        mismatches[mu] = int(np.count_nonzero(pol_direct != pol_split))
    dt = time.monotonic() - t0
    ok = all(v == 0 for v in mismatches.values()) and dt < 60.0
    print(
        f"criterion 1: policy mismatches by multiplier {mismatches} "
        f"({dt:.1f}s) -> {_verdict(ok)}"
    )
    assert mismatches == {0.0: 0, 1.0: 0, 10.0: 0}
    assert dt < 60.0


def test_criterion_02_factored_halves_compose_to_the_joint_model(reduced_model):
    m, mu = reduced_model, 1.0
    fac = FactoredDynamics(m)
    pds_all = [PostDecisionState(s.b, s.h, s.x) for s in all_states(m)]
    unknown = np.stack([unknown_pmf(fac, p) for p in pds_all])
    unknown_cost = np.array([unknown_cost_of(fac, p, mu) for p in pds_all])
    worst_pmf = worst_cost = 0.0
    pairs = 0
    for s in all_states(m):
        for a in feasible_actions(m, s):
            k = known_pmf(fac, s, a)
            worst_pmf = max(worst_pmf, np.abs(k @ unknown - joint_transition_pmf(m, s, a)).max())
            composed = known_cost(fac, s, a, mu) + k @ unknown_cost
            worst_cost = max(worst_cost, abs(composed - lagrangian_cost(m, s, a, mu)))
            pairs += 1
    ok = worst_pmf <= 1e-12 and worst_cost <= 1e-12
    print(
        f"criterion 2: {pairs} state-action pairs, worst pmf gap {worst_pmf:.2e}, "
        f"worst cost gap {worst_cost:.2e} (tol 1e-12) -> {_verdict(ok)}"
    )
    assert worst_pmf <= 1e-12
    assert worst_cost <= 1e-12


def test_criterion_03_overflow_penalty_is_exact_at_the_stock_discount():
    got = overflow_penalty(0.98)
    ok = got == 49
    print(f"criterion 3: overflow_penalty(0.98) = {got!r} (expected 49 exactly) -> {_verdict(ok)}")
    assert got == 49


def test_criterion_04_online_table_reaches_the_offline_fixed_point():
    t0 = time.monotonic()
    cfg = reduced_profile(
        algorithm="pds_ve", ve_period=1, horizon=200_000, mu=1.0, init_mu=1.0
    )
    result = run_experiment(cfg, fixed_mu=True)
    v_star = pds_value_iteration(cfg.build_model(), 1.0).v_tilde
    rel = np.abs(result.tables["v_tilde"] - v_star).max() / np.abs(v_star).max()
    dt = time.monotonic() - t0
    ok = rel < 0.05 and dt < 300.0
    print(
        f"criterion 4: relative sup error {rel:.4f} after 2e5 slots "
        f"(tol 0.05, {dt:.0f}s) -> {_verdict(ok)}"
    )
    assert rel < 0.05
    assert dt < 300.0


def test_criterion_05_denser_batching_learns_faster(
    ve1_runs, ve25_runs, pds_runs, q_runs, sub_runs
):
    m1 = float(np.mean([r.record_at(9_999).cum_cost for r in ve1_runs]))
    m25 = float(np.mean([r.final.cum_cost for r in ve25_runs]))
    mp = float(np.mean([r.final.cum_cost for r in pds_runs]))
    mq = float(np.mean([r.final.cum_cost for r in q_runs]))
    m1_5k = float(np.mean([r.record_at(4_999).cum_cost for r in ve1_runs]))
    msub = float(np.mean([r.final.cum_cost for r in sub_runs]))
    total = sum(_elapsed[k] for k in ("ve1", "ve25", "pds", "q", "sub"))
    ordered = m1 <= m25 <= mp <= mq
    outer = mq >= 2.0 * m1
    near_ref = m1_5k <= 1.2 * msub
    ok = ordered and outer and near_ref and total < 1800.0
    print(
        f"criterion 5: cost at slot 10k over {len(SEEDS)} seeds "
        f"ve(1)={m1:.4f} <= ve(25)={m25:.4f} <= pds={mp:.4f} <= q={mq:.4f}; "
        f"outer ratio {mq / m1:.1f}x (need >=2x); at 5k ve(1)={m1_5k:.4f} vs "
        f"reference {msub:.4f} (need <=1.2x); runs took {total:.0f}s -> {_verdict(ok)}"
    )
    assert ordered
    assert outer
    assert near_ref
    assert total < 1800.0


def test_criterion_06_q_learning_converges_on_a_toy_chain():
    t0 = time.monotonic()
    # 3-state, 2-action chain with known dynamics as the oracle
    P = np.array(
        [
            [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3]],
            [[0.3, 0.3, 0.4], [0.5, 0.4, 0.1]],
            [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]],
        ]
    )
    C = np.array([[1.0, 2.5], [0.4, 1.8], [3.0, 0.2]])
    gamma = 0.9
    q_star = np.zeros((3, 2))
    for _ in range(4_000):
        q_star = C + gamma * P @ q_star.min(axis=1)

    rng = np.random.default_rng(1234)
    n_feasible = [2, 2, 2]  # both actions of every state
    q = np.zeros((3, 2))
    visits = np.zeros((3, 2), dtype=np.int64)
    s = 0
    for n in range(100_000):
        eps = max(0.01, 0.5 * 0.9999**n)
        a = epsilon_greedy(q[s], eps, rng)
        s_next = int(rng.choice(3, p=P[s, a]))
        visits[s, a] += 1
        alpha = (1.0 / (1.0 + visits[s, a])) ** 0.7
        q_update(q, s, a, C[s, a], s_next, alpha, gamma, n_feasible)
        s = s_next
    rel = np.abs(q - q_star).max() / np.abs(q_star).max()
    dt = time.monotonic() - t0
    ok = rel < 0.05 and dt < 60.0
    print(
        f"criterion 6: relative sup error {rel:.4f} after 1e5 slots "
        f"(tol 0.05, {dt:.0f}s) -> {_verdict(ok)}"
    )
    assert rel < 0.05
    assert dt < 60.0


def test_criterion_07_batch_update_touches_one_channel_slice(full_model):
    fac = FactoredDynamics(full_model)
    rng = np.random.default_rng(7)
    before = rng.normal(size=(full_model.n_b, full_model.n_h, full_model.n_x))
    after = before.copy()
    tup = PdsExperienceTuple(
        s_pds=PostDecisionState(4, 3, PowerState.ON),
        cost_unknown=0.0,
        s_next=State(6, 5, PowerState.ON),
        l=2,
    )
    written = ve_batch_update(after, h=3, h_next=5, l=2, alpha=0.065, mu=0.7, factored=fac)
    changed = np.argwhere(after != before)
    other_h = [h for h in range(full_model.n_h) if h != tup.s_pds.h]
    others_identical = np.array_equal(after[:, other_h, :], before[:, other_h, :])
    n_expected = full_model.n_b * full_model.n_x
    ok = written == n_expected == len(changed) and others_identical
    print(
        f"criterion 7: one batch slot changed {len(changed)} entries "
        f"(expected {n_expected}), channel slices {sorted(set(changed[:, 1].tolist()))}, "
        f"others bit-identical: {others_identical} -> {_verdict(ok)}"
    )
    assert written == n_expected
    assert len(changed) == n_expected
    assert set(changed[:, 1].tolist()) == {tup.s_pds.h}
    assert others_identical


def test_criterion_08_distributions_normalize_and_match_monte_carlo(full_model):
    m = full_model
    worst = 0.0
    plrs = sorted({a.bep.plr for a in m.actions if a.z > 0})
    for z in range(m.z_max + 1):
        for plr in plrs:
            worst = max(worst, abs(goodput_pmf(z, plr).sum() - 1.0))
    for b in range(m.n_b):
        for a in m.actions:
            if a.z > b:
                continue
            pmf = buffer_transition_pmf(b, a.z, a.bep.plr, m.arrivals, m.queue.capacity)
            worst = max(worst, abs(pmf.sum() - 1.0))
    fac = FactoredDynamics(m)
    for s in all_states(m):
        for a in feasible_actions(m, s):
            worst = max(worst, abs(known_pmf(fac, s, a).sum() - 1.0))
    for s in all_states(m):
        p = PostDecisionState(s.b, s.h, s.x)
        worst = max(worst, abs(unknown_pmf(fac, p).sum() - 1.0))
    for x in (PowerState.OFF, PowerState.ON):
        for y in (PmAction.S_OFF, PmAction.S_ON):
            for theta in (1.0, 0.5):
                worst = max(worst, abs(pm_transition_pmf(x, y, theta).sum() - 1.0))

    rng = np.random.default_rng(88)
    n_samples = 1_000_000
    l_values = np.arange(m.arrivals.pmf.size)
    cap, eta = m.queue.capacity, m.queue.eta
    worst_sigma = 0.0
    for _ in range(20):
        b = int(rng.integers(m.n_b))
        a = m.actions[int(rng.choice([i for i, act in enumerate(m.actions) if act.z <= b]))]
        f = rng.binomial(a.z, 1.0 - a.bep.plr, size=n_samples) if a.z else np.zeros(n_samples, int)
        l = rng.choice(l_values, size=n_samples, p=m.arrivals.pmf)
        post = b - f
        samples = post + eta * np.maximum(post + l - cap, 0)
        analytic = buffer_cost(b, a.z, a.bep.plr, m.arrivals, cap, eta)
        se = samples.std(ddof=1) / np.sqrt(n_samples)
        gap = abs(analytic - samples.mean())
        worst_sigma = max(worst_sigma, gap / se if se > 0 else 0.0)
        assert gap <= 3.0 * se + 1e-9, (b, a.z, a.bep.plr, analytic, samples.mean(), se)
    ok = worst <= 1e-12
    print(
        f"criterion 8: worst pmf normalization gap {worst:.2e} (tol 1e-12); "
        f"monte carlo worst gap {worst_sigma:.2f} standard errors (tol 3) -> {_verdict(ok)}"
    )
    assert worst <= 1e-12


def test_criterion_09_learned_policy_beats_the_threshold_frontier():
    cfg = table_profile(algorithm="pds_ve", ve_period=50, seed=0)
    learned = run_experiment(cfg).final
    frontier = []
    for k in range(cfg.capacity + 1):
        fin = run_experiment(table_profile(algorithm="threshold", threshold_k=k, seed=0)).final
        frontier.append((k, fin.cum_power_w, fin.cum_holding))
    eligible = [(k, p) for k, p, h in frontier if h <= 4.0]
    bar_k, bar_power = min(eligible, key=lambda t: t[1])
    ok = learned.cum_power_w < bar_power
    print(
        f"criterion 9: learned point ({learned.cum_power_w:.4f} W, "
        f"holding {learned.cum_holding:.2f}) vs best threshold at holding<=4: "
        f"k={bar_k} ({bar_power:.4f} W); need learned strictly below -> {_verdict(ok)}"
    )
    assert learned.cum_power_w < bar_power


def test_criterion_10_multiplier_tracks_the_holding_target(ve1_runs):
    holdings = [r.final.cum_holding for r in ve1_runs]
    in_band = [3.0 <= h <= 5.0 for h in holdings]
    shapes = []
    for r in ve1_runs:
        w = r.column("mu_window")
        shapes.append(w[-1] < w.max())
    ok = all(in_band) and all(shapes)
    print(
        f"criterion 10: final holding per seed {[f'{h:.2f}' for h in holdings]} "
        f"(band [3, 5]); windowed multiplier ends below its peak: {shapes} -> {_verdict(ok)}"
    )
    assert all(in_band), holdings
    assert all(shapes)


def test_criterion_11_identical_config_and_seed_reproduce_the_csv():
    kwargs = dict(algorithm="pds_ve", ve_period=1, horizon=3_000, seed=123)
    first = run_experiment(table_profile(**kwargs)).csv_text()
    second = run_experiment(table_profile(**kwargs)).csv_text()
    ok = first.encode() == second.encode()
    print(
        f"criterion 11: two runs, {len(first.encode())} CSV bytes each, "
        f"byte-identical: {ok} -> {_verdict(ok)}"
    )
    assert ok
