"""Run orchestration: metrics accounting, persistence, resume, the run loop's actors."""
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from greentx.config import reduced_profile
from greentx.errors import ConfigError, TableFormatError
from greentx.harness import (
    CSV_COLUMNS,
    MetricsAccumulator,
    MetricsRecord,
    PolicyActor,
    emit_metrics_csv,
    load_checkpoint,
    load_tables,
    metrics_csv_text,
    run_experiment,
    save_checkpoint,
    serialize_tables,
    solve_tables,
)
from greentx.planner import value_iteration
from oracles import per_step_suboptimal


# ---- metrics accounting ------------------------------------------------------


def test_accumulator_matches_vectorized_recompute():
    rng = np.random.default_rng(0)
    n = 500
    power = rng.uniform(0.0, 0.5, n)
    g = rng.uniform(0.0, 60.0, n)
    holding = rng.integers(0, 11, n).astype(float)
    drops = rng.integers(0, 3, n).astype(float)
    off = rng.random(n) < 0.3
    mu = rng.uniform(0.0, 5.0, n)

    acc = MetricsAccumulator(mu_window=7)
    rows = np.array(
        [
            acc.update(
                power_w=power[i],
                g_realized=g[i],
                holding=holding[i],
                drops=drops[i],
                off_slot=bool(off[i]),
                mu=mu[i],
            ).astuple()
            for i in range(n)
        ]
    )
    counts = np.arange(1, n + 1, dtype=float)
    assert np.array_equal(rows[:, 0], np.arange(n))
    assert np.array_equal(rows[:, 1], np.cumsum(power + mu * g) / counts)
    assert np.array_equal(rows[:, 2], np.cumsum(power) / counts)
    assert np.array_equal(rows[:, 3], np.cumsum(holding) / counts)
    assert np.array_equal(rows[:, 4], np.cumsum(drops) / counts)
    assert np.array_equal(rows[:, 5], np.cumsum(off) / counts)
    window = np.array([mu[max(0, i - 6) : i + 1].mean() for i in range(n)])
    assert np.allclose(rows[:, 6], window, rtol=1e-12)


def test_window_mean_stays_nonnegative_when_the_running_sum_drifts():
    # 0.3 + 0.6 rounds below 0.9, so once both leave the window the running
    # sum sits at -1.1e-16 although every mu in it is zero
    acc = MetricsAccumulator(mu_window=2)
    rows = [
        acc.update(
            power_w=0.0, g_realized=0.0, holding=0.0, drops=0.0, off_slot=False, mu=mu
        )
        for mu in (0.3, 0.6, 0.0, 0.0)
    ]
    assert acc._mu_wsum < 0.0
    assert rows[-1].mu_window == 0.0
    assert all(r.mu_window >= 0.0 for r in rows)


def test_csv_text_is_exact_and_round_trips():
    rec = MetricsRecord(0, 0.1 + 0.2, 0.32, 3.0, 0.0, 0.5, 1.0)
    text = metrics_csv_text([rec])
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "0,0.30000000000000004,0.32,3.0,0.0,0.5,1.0"
    parsed = [float(v) for v in lines[1].split(",")[1:]]
    assert parsed == [0.1 + 0.2, 0.32, 3.0, 0.0, 0.5, 1.0]
    assert metrics_csv_text([]) == ",".join(CSV_COLUMNS) + "\n"


def test_emit_csv_writes_bytes(tmp_path):
    path = tmp_path / "m.csv"
    emit_metrics_csv([MetricsRecord(0, 1, 2, 3, 4, 0.0, 0.0)], path)
    assert path.read_text() == metrics_csv_text([MetricsRecord(0, 1, 2, 3, 4, 0.0, 0.0)])


# ---- table persistence ---------------------------------------------------------


def test_tables_round_trip_with_header_checks(tmp_path, reduced_cfg):
    path = tmp_path / "tables.npz"
    tables = {"v": np.linspace(0.0, 1.0, 88), "policy": np.arange(88, dtype=np.int64)}
    fp = reduced_cfg.model_fingerprint()
    serialize_tables(tables, path, kind="vi", fingerprint=fp)
    loaded, header = load_tables(path, expect_kind="vi", fingerprint=fp)
    assert set(loaded) == {"v", "policy"}
    assert np.array_equal(loaded["v"], tables["v"])
    assert loaded["policy"].dtype == np.int64
    assert header["kind"] == "vi" and header["format_version"] == 1

    with pytest.raises(TableFormatError):
        load_tables(path, expect_kind="pds")
    other = replace(reduced_cfg, gamma=0.97).model_fingerprint()
    with pytest.raises(TableFormatError):
        load_tables(path, fingerprint=other)


def test_tables_reject_non_finite_and_headerless(tmp_path):
    with pytest.raises(TableFormatError):
        serialize_tables(
            {"v": np.array([1.0, np.inf])}, tmp_path / "bad.npz",
            kind="vi", fingerprint={},
        )
    bare = tmp_path / "bare.npz"
    np.savez(bare, v=np.ones(3))
    with pytest.raises(TableFormatError):
        load_tables(bare)


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "ck.ckpt"
    payload = {"slot": 3, "arr": np.arange(4)}
    save_checkpoint(path, payload)
    back = load_checkpoint(path)
    assert back["slot"] == 3 and np.array_equal(back["arr"], payload["arr"])


class _MakesMarker:
    """Unpickling this creates a directory: a stand-in for arbitrary code."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return (os.mkdir, (self.marker,))


def test_checkpoint_loading_never_unpickles(tmp_path):
    marker = tmp_path / "marker"
    crafted = tmp_path / "crafted.ckpt"
    with open(crafted, "wb") as fh:
        pickle.dump({"slot": 0, "payload": _MakesMarker(marker)}, fh)
    with pytest.raises((TableFormatError, ConfigError)):
        load_checkpoint(crafted)
    assert not marker.exists()
    cfg = reduced_profile(algorithm="pds_ve", horizon=50, seed=2)
    with pytest.raises((TableFormatError, ConfigError)):
        run_experiment(cfg, resume_from=crafted)
    assert not marker.exists()


# ---- the run loop ---------------------------------------------------------------


def test_rerun_is_byte_deterministic():
    cfg = reduced_profile(algorithm="pds_ve", horizon=300, seed=11)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.csv_text() == r2.csv_text()
    assert np.array_equal(r1.history, r2.history)
    assert np.array_equal(r1.tables["v_tilde"], r2.tables["v_tilde"])


@pytest.mark.parametrize("algorithm", ["q", "pds", "pds_ve", "suboptimal", "threshold", "vi"])
def test_resume_reproduces_uninterrupted_run(tmp_path, algorithm):
    cfg = reduced_profile(algorithm=algorithm, horizon=400, seed=2)
    ck = tmp_path / "run.ckpt"
    full = run_experiment(cfg, checkpoint_path=ck, checkpoint_every=150)
    resumed = run_experiment(cfg, resume_from=ck)  # continues from slot 300
    assert np.array_equal(resumed.history, full.history)
    assert resumed.csv_text() == full.csv_text()
    assert resumed.mu_final == full.mu_final
    assert resumed.tables.keys() == full.tables.keys()
    for name, table in full.tables.items():
        assert np.array_equal(resumed.tables[name], table)


def test_pds_tables_count_every_written_entry():
    cfg = reduced_profile(algorithm="pds_ve", ve_period=1, horizon=300, seed=11)
    res = run_experiment(cfg)
    assert set(res.tables) == {"v_tilde", "visits"}
    model = cfg.build_model()
    # period 1: every slot writes the whole (buffer, radio) slice once
    assert res.tables["visits"].sum() == cfg.horizon * model.n_b * model.n_x


def test_resume_rejects_a_different_config(tmp_path):
    cfg = reduced_profile(algorithm="pds_ve", horizon=200, seed=2)
    ck = tmp_path / "run.ckpt"
    run_experiment(cfg, checkpoint_path=ck, checkpoint_every=100)
    with pytest.raises(ConfigError):
        run_experiment(replace(cfg, seed=3), resume_from=ck)


def test_fixed_policy_override_controls_the_run(reduced_cfg):
    cfg = replace(reduced_cfg, horizon=400, mu=0.0)
    model = cfg.build_model()
    hold_on = np.ones(model.n_s, dtype=np.int64)  # keep the radio on, never send
    res = run_experiment(cfg, policy=hold_on)
    f = res.final
    assert f.theta_off == 0.0
    assert f.cum_power_w == pytest.approx(model.profile.p_on, rel=1e-12)
    assert f.mu_window == 0.0
    # never transmitting pins the buffer at capacity once filled
    assert res.column("cum_holding")[-1] > 8.0
    assert f.cum_overflow > 1.0


def test_policy_actor_validates_shape(reduced_model):
    with pytest.raises(ConfigError):
        PolicyActor(reduced_model, np.zeros(5, dtype=np.int64), 0.0)


def test_exact_policy_runner_reports_its_tables():
    cfg = reduced_profile(algorithm="vi", mu=1.0, horizon=300, seed=4)
    res = run_experiment(cfg)
    assert set(res.tables) == {"policy", "v"}
    assert res.mu_final == 1.0
    assert np.all(res.column("mu_window") == 1.0)
    v, pol = value_iteration(cfg.build_model())
    assert np.array_equal(res.tables["policy"], pol)
    assert np.allclose(res.tables["v"], v)


def test_threshold_run_sleeps_and_wakes():
    cfg = reduced_profile(algorithm="threshold", threshold_k=5, horizon=600, seed=6)
    res = run_experiment(cfg)
    assert res.tables["threshold_k"] == 5
    assert 0.0 < res.final.theta_off < 1.0
    # the policy drains whenever awake, so the buffer cannot run away
    assert res.final.cum_holding < cfg.capacity / 2
    assert res.final.cum_overflow < 0.1


def test_true_stats_reference_follows_the_exact_policy():
    cfg = reduced_profile(algorithm="suboptimal", mu=1.0, horizon=250, seed=9)
    res = run_experiment(cfg, fixed_mu=True, true_stats=True)
    v, pol = value_iteration(cfg.build_model().with_mu(1.0))
    assert np.array_equal(res.tables["policy"], pol)
    assert res.mu_final == 1.0


def test_estimating_reference_replans_on_epochs():
    cfg = reduced_profile(algorithm="vi", horizon=220, seed=1, epoch_slots=100, mu=0.2)
    res = per_step_suboptimal(cfg, fixed_mu=True)
    assert set(res.tables) == {"v", "policy"}
    assert np.all(np.isfinite(res.history))
    assert res.history.shape == (220, len(CSV_COLUMNS))


def test_run_writes_csv_and_tables(tmp_path):
    cfg = reduced_profile(algorithm="vi", mu=1.0, horizon=50, seed=0)
    csv_path = tmp_path / "out.csv"
    tab_path = tmp_path / "tables.npz"
    res = run_experiment(cfg, out_csv=csv_path, tables_out=tab_path)
    assert csv_path.read_text() == res.csv_text()
    loaded, header = load_tables(
        tab_path, expect_kind="vi", fingerprint=cfg.model_fingerprint()
    )
    assert np.array_equal(loaded["policy"], res.tables["policy"])
    assert header["dims"]["v"] == [88]


def test_record_access_helpers():
    cfg = reduced_profile(algorithm="threshold", horizon=40, seed=3)
    res = run_experiment(cfg)
    assert res.record_at(0).n == 0
    assert res.final.n == 39
    assert res.column("cum_power_w").shape == (40,)
    first_line = res.csv_text().splitlines()[1]
    assert first_line.startswith("0,")


def test_solve_tables_routes_agree(reduced_cfg):
    cfg = replace(reduced_cfg, mu=1.0, b_init=0)
    direct = solve_tables(cfg, "vi")
    split = solve_tables(cfg, "pds")
    assert set(direct) == {"v", "policy"}
    assert set(split) == {"v_tilde", "v", "policy"}
    assert np.array_equal(direct["policy"], split["policy"])
    assert np.allclose(direct["v"], split["v"], atol=1e-6)
    with pytest.raises(ConfigError):
        solve_tables(cfg, "lp")
