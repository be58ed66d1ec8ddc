"""Run orchestration: metrics accounting, persistence, resume, the run loop's actors."""
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from greentx import harness, learners
from greentx.config import reduced_profile, table_profile
from greentx.errors import ConfigError, TableFormatError
from greentx.harness import (
    CSV_CHUNK_ROWS,
    CSV_COLUMNS,
    OBSERVATIONS,
    MetricsAccumulator,
    MetricsRecord,
    PolicyActor,
    _header_blob,
    _read_npz,
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
from oracles import RunningSumMetrics, csv_text_by_rows, per_step_suboptimal


# ---- metrics accounting ------------------------------------------------------


def _record(acc, power, g, holding, drops, off, mu):
    """Feeds the slots to an accumulator; returns its update calls' results."""
    return [
        acc.update(
            power_w=float(power[i]),
            g_realized=float(g[i]),
            holding=float(holding[i]),
            drops=float(drops[i]),
            off_slot=bool(off[i]),
            mu=float(mu[i]),
        )
        for i in range(len(mu))
    ]


def test_accumulator_matches_vectorized_recompute():
    rng = np.random.default_rng(0)
    n = 500
    power = rng.uniform(0.0, 0.5, n)
    g = rng.uniform(0.0, 60.0, n)
    holding = rng.integers(0, 11, n).astype(float)
    drops = rng.integers(0, 3, n).astype(float)
    off = rng.random(n) < 0.3
    mu = rng.uniform(0.0, 5.0, n)
    obs = (power, g, holding, drops, off, mu)

    for w in (1, 7, n + 13):
        acc = MetricsAccumulator(n, mu_window=w)
        _record(acc, *obs)
        rows = acc.history()
        reference = np.array(_record(RunningSumMetrics(mu_window=w), *obs))
        assert rows.shape == reference.shape == (n, len(CSV_COLUMNS))
        for j in range(len(CSV_COLUMNS)):
            assert np.array_equal(rows[:, j], reference[:, j]), (w, CSV_COLUMNS[j])
        counts = np.arange(1, n + 1, dtype=float)
        assert np.array_equal(rows[:, 0], np.arange(n))
        assert np.array_equal(rows[:, 1], np.cumsum(power + mu * g) / counts)
        assert np.array_equal(rows[:, 2], np.cumsum(power) / counts)
        assert np.array_equal(rows[:, 3], np.cumsum(holding) / counts)
        assert np.array_equal(rows[:, 4], np.cumsum(drops) / counts)
        assert np.array_equal(rows[:, 5], np.cumsum(off) / counts)
        window = np.array([mu[max(0, i - w + 1) : i + 1].mean() for i in range(n)])
        assert np.allclose(rows[:, 6], window, rtol=1e-12)


def test_window_mean_stays_nonnegative_when_the_running_sum_drifts():
    # 0.3 + 0.6 rounds below 0.9, so once both leave the window the running
    # sum sits at -1.1e-16 although every mu in it is zero
    assert 0.3 + 0.6 - 0.3 - 0.6 < 0.0
    mus = (0.3, 0.6, 0.0, 0.0)
    acc = MetricsAccumulator(len(mus), mu_window=2)
    zeros = [0.0] * len(mus)
    _record(acc, zeros, zeros, zeros, zeros, zeros, mus)
    rows = [MetricsRecord(int(r[0]), *r[1:]) for r in acc.history().tolist()]
    assert rows[-1].mu_window == 0.0
    assert all(r.mu_window >= 0.0 for r in rows)


def test_window_mean_is_the_running_sum_bit_for_bit():
    # signed zeros, the 0.3/0.6 drift pattern and random prices, compared as
    # bytes so that a -0.0 where the running sum gives 0.0 also fails
    rng = np.random.default_rng(3)
    patterns = (
        [-0.0, -0.0, 0.0, 2.0, -0.0],
        [0.3, 0.6] * 20 + [0.0] * 10,
        rng.uniform(0.0, 5.0, 300).tolist(),
    )
    for mus in patterns:
        zeros = [0.0] * len(mus)
        for w in (1, 2, 7, len(mus), len(mus) + 3):
            acc = MetricsAccumulator(len(mus), mu_window=w)
            _record(acc, zeros, zeros, zeros, zeros, zeros, mus)
            got = acc.history()[:, CSV_COLUMNS.index("mu_window")]
            rows = _record(RunningSumMetrics(mu_window=w), zeros, zeros, zeros, zeros, zeros, mus)
            assert got.tobytes() == np.array([r.mu_window for r in rows]).tobytes(), w


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


# values whose shortest round-trip text takes each of repr's forms
CSV_VALUES = (-0.0, 5e-324, 1e-5, 1e16, 1e22, 3.0, -2.0, 1e15, 0.1 + 0.2, np.inf, -np.inf, np.nan)


def _history(n_rows, seed=0):
    """Metric rows numbered from 0: about half the values drawn from
    CSV_VALUES, the others normal draws."""
    rng = np.random.default_rng(seed)
    shape = (n_rows, len(CSV_COLUMNS) - 1)
    values = np.where(rng.random(shape) < 0.5, rng.choice(CSV_VALUES, size=shape), rng.normal(size=shape))
    return np.column_stack([np.arange(n_rows, dtype=np.float64), values])


def _assert_csv_matches_rows(history, tmp_path):
    want = csv_text_by_rows(history)
    assert metrics_csv_text(history) == want
    path = tmp_path / "m.csv"
    emit_metrics_csv(history, path)
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize(
    "n_rows", [0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 3]
)
def test_csv_matches_the_per_row_formatter(n_rows, tmp_path):
    history = _history(n_rows, seed=n_rows)
    _assert_csv_matches_rows(history, tmp_path)
    assert metrics_csv_text(history).count("\n") == n_rows + 1


def test_csv_of_a_history_slice_keeps_its_slot_numbers(tmp_path):
    history = _history(500 + 2 * CSV_CHUNK_ROWS + 3)[500:]
    _assert_csv_matches_rows(history, tmp_path)
    slots = [line.split(",")[0] for line in metrics_csv_text(history).splitlines()[1:]]
    assert slots == [str(n) for n in range(500, 500 + len(history))]


def test_csv_of_metric_records_matches_the_per_row_formatter(tmp_path):
    records = [MetricsRecord(n, *row[1:]) for n, row in enumerate(_history(CSV_CHUNK_ROWS + 5).tolist())]
    _assert_csv_matches_rows(records, tmp_path)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hst.tuples(hst.integers(0, 2 * CSV_CHUNK_ROWS + 3), hst.just(len(CSV_COLUMNS) - 1)),
        elements=hst.floats(width=64),
    )
)
def test_csv_of_drawn_rows_matches_the_per_row_formatter(values):
    history = np.column_stack([np.arange(len(values), dtype=np.float64), values])
    assert metrics_csv_text(history) == csv_text_by_rows(history)


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


def test_tables_refuse_headers_whose_dims_or_dtypes_do_not_describe_them(tmp_path, reduced_cfg):
    path = tmp_path / "tables.npz"
    serialize_tables({"v": np.ones(4)}, path, kind="vi", fingerprint=reduced_cfg.model_fingerprint())
    header, arrays = _read_npz(path)
    bad = [
        {**header, "dims": [[4]]},
        {**header, "dims": None},
        {**header, "dtypes": "float64"},
        {k: v for k, v in header.items() if k != "dtypes"},
        {**header, "dtypes": {"v": "int64"}},
    ]
    for i, h in enumerate(bad):
        other = tmp_path / f"bad{i}.npz"
        np.savez(other, __header__=_header_blob(h), **arrays)
        with pytest.raises(TableFormatError):
            load_tables(other)


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
    # the last checkpoint lands on slot 300, then on the horizon itself,
    # which leaves the resumed run no slot to run
    for every in (150, 200):
        full = run_experiment(cfg, checkpoint_path=ck, checkpoint_every=every)
        assert load_checkpoint(ck)["slot"] == cfg.horizon // every * every
        resumed = run_experiment(cfg, resume_from=ck)
        assert np.array_equal(resumed.history, full.history)
        assert resumed.csv_text() == full.csv_text()
        assert resumed.mu_final == full.mu_final
        assert resumed.tables.keys() == full.tables.keys()
        for name, table in full.tables.items():
            assert np.array_equal(resumed.tables[name], table)


def test_a_resumed_reference_run_makes_no_start_solve(tmp_path, monkeypatch):
    # resumed at slot 300, the first slot of an epoch: its re-solve decides
    # every later action, so it is the only solve the resumed run makes
    cfg = table_profile(algorithm="suboptimal", seed=1, horizon=350)
    ck = tmp_path / "run.ckpt"
    full = run_experiment(cfg, checkpoint_path=ck, checkpoint_every=300)
    solves = []

    def counted(*args, **kwargs):
        solves.append(args[1])
        return value_iteration(*args, **kwargs)

    monkeypatch.setattr(harness, "value_iteration", counted)
    resumed = run_experiment(cfg, resume_from=ck)
    assert len(solves) == 1
    assert resumed.csv_text() == full.csv_text()
    assert resumed.tables.keys() == full.tables.keys()
    for name, table in full.tables.items():
        assert np.array_equal(resumed.tables[name], table)


@pytest.mark.parametrize("options", [
    {"checkpoint_path": "run.ckpt"},
    {"checkpoint_every": 10},
    {"checkpoint_path": "run.ckpt", "checkpoint_every": 0},
], ids=["path-without-period", "period-without-path", "zero-period"])
def test_checkpoint_options_that_cannot_work_are_refused(tmp_path, options):
    if "checkpoint_path" in options:
        options = dict(options, checkpoint_path=tmp_path / options["checkpoint_path"])
    with pytest.raises(ConfigError, match="checkpoint"):
        run_experiment(reduced_profile(algorithm="q", horizon=50), **options)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("algorithm, update", [("q", "q_update"), ("pds_ve", "ve_batch_update")])
def test_each_slot_makes_one_learner_update_and_one_metrics_write(monkeypatch, algorithm, update):
    # the benchmark's per-slot entry and metrics figures count these calls
    calls = {update: 0, "metrics": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(learners, update, counted(update, getattr(learners, update)))
    monkeypatch.setattr(MetricsAccumulator, "update", counted("metrics", MetricsAccumulator.update))
    cfg = reduced_profile(algorithm=algorithm, ve_period=1, horizon=300, seed=2)
    run_experiment(cfg)
    assert calls == {update: cfg.horizon, "metrics": cfg.horizon}


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


def test_resume_refuses_other_run_options(tmp_path):
    # resumed under another fixed_mu, true_stats or policy, a checkpoint would
    # splice two different runs into one metric stream
    cfg = table_profile(algorithm="pds_ve", horizon=400, seed=1)
    ck = tmp_path / "run.ckpt"
    full = run_experiment(cfg, checkpoint_path=ck, checkpoint_every=150)
    with pytest.raises(ConfigError):
        run_experiment(cfg, resume_from=ck, fixed_mu=True)
    assert run_experiment(cfg, resume_from=ck).csv_text() == full.csv_text()

    sub = reduced_profile(algorithm="suboptimal", horizon=60, seed=1)
    run_experiment(sub, checkpoint_path=ck, checkpoint_every=50, true_stats=True)
    with pytest.raises(ConfigError):
        run_experiment(sub, resume_from=ck)

    # send nothing, and switch the radio off (action 0) or keep it on (action 1):
    # both are feasible everywhere
    off, on = (np.full(sub.build_model().n_s, a, dtype=np.int64) for a in (0, 1))
    full = run_experiment(sub, checkpoint_path=ck, checkpoint_every=50, policy=on)
    for other in ({}, {"policy": off}):
        with pytest.raises(ConfigError):
            run_experiment(sub, resume_from=ck, **other)
    # the digest is of the int64 table the run follows, whatever form it came in
    resumed = run_experiment(sub, resume_from=ck, policy=on.tolist())
    assert resumed.csv_text() == full.csv_text()


def test_resume_refuses_malformed_checkpoints(tmp_path):
    cfg = reduced_profile(algorithm="q", horizon=200, seed=2)
    ck = tmp_path / "run.ckpt"
    full = run_experiment(cfg, checkpoint_path=ck, checkpoint_every=100)
    good = load_checkpoint(ck)
    assert good["slot"] == 200 and set(good) == {
        "config", "options", "slot", "mu", "observations", "env", "actor",
    }

    def with_columns(slot, size):
        obs = np.resize(good["observations"], (size, len(OBSERVATIONS)))
        return {**good, "slot": slot, "observations": obs}

    def without(key):
        return {k: v for k, v in good.items() if k != key}

    def at_state(state):
        return {**good, "env": {**good["env"], "state": state}}

    bad = [
        with_columns(201, 201),  # past the horizon, with columns to match
        with_columns(-1, 0),
        with_columns(100, 200),
        with_columns(200, 199),
        *(without(key) for key in good),
        at_state([0, 5, 0]),  # h = 5 on a 4-level channel grid
        at_state([11, 0, 0]),
        at_state([0, 0, 2]),
        at_state([0, 0]),
        {**good, "observations": good["observations"].astype(np.float32)},
    ]
    for i, payload in enumerate(bad):
        path = tmp_path / f"bad{i}.ckpt"
        save_checkpoint(path, payload)
        with pytest.raises(TableFormatError):
            run_experiment(cfg, resume_from=path)
    save_checkpoint(tmp_path / "again.ckpt", good)
    assert run_experiment(cfg, resume_from=tmp_path / "again.ckpt").csv_text() == full.csv_text()


def _mid_run_checkpoint(tmp_path, algorithm):
    cfg = reduced_profile(algorithm=algorithm, horizon=50, seed=2)
    ck = tmp_path / "run.ckpt"
    run_experiment(cfg, checkpoint_path=ck, checkpoint_every=20)
    good = load_checkpoint(ck)
    assert good["slot"] == 40
    return cfg, good


def _assert_refused(tmp_path, cfg, payload):
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, payload)
    with pytest.raises(TableFormatError):
        run_experiment(cfg, resume_from=path)


def test_resume_refuses_an_env_without_streams(tmp_path):
    cfg, good = _mid_run_checkpoint(tmp_path, "q")
    env = {k: v for k, v in good["env"].items() if k != "streams"}
    _assert_refused(tmp_path, cfg, {**good, "env": env})


def test_resume_refuses_streams_that_are_not_generator_states(tmp_path):
    cfg, good = _mid_run_checkpoint(tmp_path, "q")
    _assert_refused(tmp_path, cfg, {**good, "env": {**good["env"], "streams": 5}})
    pm = good["env"]["streams"]["pm"]
    negative = {**pm, "state": {**pm["state"], "state": -1}}
    streams = {**good["env"]["streams"], "pm": negative}
    _assert_refused(tmp_path, cfg, {**good, "env": {**good["env"], "streams": streams}})


def test_resume_refuses_a_pds_actor_without_its_table(tmp_path):
    cfg, good = _mid_run_checkpoint(tmp_path, "pds_ve")
    actor = {k: v for k, v in good["actor"].items() if k != "v_tilde"}
    _assert_refused(tmp_path, cfg, {**good, "actor": actor})


def test_resume_refuses_a_q_table_of_another_shape(tmp_path):
    cfg, good = _mid_run_checkpoint(tmp_path, "q")
    _assert_refused(tmp_path, cfg, {**good, "actor": {**good["actor"], "q": np.zeros(3)}})


def test_resume_refuses_a_config_that_is_not_a_mapping(tmp_path):
    cfg, good = _mid_run_checkpoint(tmp_path, "q")
    _assert_refused(tmp_path, cfg, {**good, "config": np.zeros(3)})


def _bad_learner_values(good, table):
    """Actor snapshots of the right layout whose values no run reaches."""
    actor = good["actor"]
    nan_table = actor[table].copy()
    nan_table[0, 0] = np.nan
    return [
        {**actor, "visits": actor["visits"] - 10**6},
        {**actor, table: nan_table},
        {**actor, table: np.full_like(actor[table], np.inf)},
    ]


@pytest.mark.parametrize("algorithm", ["pds_ve", "pds"])
def test_resume_refuses_pds_values_no_run_reaches(tmp_path, algorithm):
    cfg, good = _mid_run_checkpoint(tmp_path, algorithm)
    for actor in _bad_learner_values(good, "v_tilde"):
        _assert_refused(tmp_path, cfg, {**good, "actor": actor})


def test_resume_refuses_q_values_no_run_reaches(tmp_path):
    cfg, good = _mid_run_checkpoint(tmp_path, "q")
    for actor in _bad_learner_values(good, "q"):
        _assert_refused(tmp_path, cfg, {**good, "actor": actor})


def _bad_suboptimal_values(actor, gap):
    """Suboptimal-actor snapshots of the right layout that no run reaches, per gap."""
    if gap == "counts":
        arrivals = actor["arrival_counts"].copy()
        arrivals[0] = -1
        return [
            {**actor, "arrival_counts": actor["arrival_counts"] - 10**6},
            {**actor, "arrival_counts": arrivals},
            {**actor, "channel_counts": actor["channel_counts"] - 1},
        ]
    if gap == "tables":
        nan_v = actor["v"].copy()
        nan_v[3] = np.nan
        return [
            {**actor, "v": nan_v},
            {**actor, "v": np.full_like(actor["v"], -np.inf)},
            *({**actor, "solved_mu": mu} for mu in (np.nan, np.inf)),
        ]
    policy = actor["policy"]
    return [
        {**actor, "policy": np.full_like(policy, 9999)},
        {**actor, "policy": np.where(np.arange(policy.size) == 5, -1, policy)},
        {**actor, "policy": np.full_like(policy, 2)},  # one packet everywhere, empty buffers too
        {**actor, "policy": policy.astype(np.float64)},
    ]


@pytest.mark.parametrize("gap", ["counts", "tables", "policy"])
def test_resume_refuses_suboptimal_values_no_run_reaches(tmp_path, gap):
    cfg, good = _mid_run_checkpoint(tmp_path, "suboptimal")
    for actor in _bad_suboptimal_values(good["actor"], gap):
        _assert_refused(tmp_path, cfg, {**good, "actor": actor})


@pytest.mark.parametrize("algorithm", ["q", "pds", "pds_ve", "suboptimal", "vi"])
def test_resume_refuses_a_price_no_run_reaches(tmp_path, algorithm):
    cfg, good = _mid_run_checkpoint(tmp_path, algorithm)
    assert type(good["mu"]) is float  # the price of slot 40, stored once
    for mu in (np.nan, np.inf, -0.5, 1e9, 1, "0.5", None):
        _assert_refused(tmp_path, cfg, {**good, "mu": mu})
    if algorithm == "vi":  # a fixed price never leaves the configured one
        assert good["mu"] == cfg.mu
        _assert_refused(tmp_path, cfg, {**good, "mu": cfg.mu + 0.5})


@pytest.mark.parametrize("algorithm", ["q", "pds_ve", "suboptimal"])
def test_resume_refuses_an_actor_that_still_carries_a_clock_or_price(tmp_path, algorithm):
    """The layout of earlier versions, whose actors held their own slot count and price."""
    cfg, good = _mid_run_checkpoint(tmp_path, algorithm)
    actor = good["actor"]
    assert not {"n", "mu"} & set(actor)
    for extra in ({"n": 40}, {"mu": good["mu"]}, {"n": 40, "mu": good["mu"]}):
        _assert_refused(tmp_path, cfg, {**good, "actor": {**actor, **extra}})


def test_the_reference_resumed_at_an_epoch_start_equals_its_uninterrupted_run(tmp_path):
    cfg = reduced_profile(algorithm="suboptimal", epoch_slots=20, horizon=60, seed=2)
    ck = tmp_path / "run.ckpt"
    full = run_experiment(cfg, checkpoint_path=ck, checkpoint_every=40)
    assert load_checkpoint(ck)["slot"] == 40  # the last epoch's re-solve is still to come
    resumed = run_experiment(cfg, resume_from=ck)
    assert resumed.csv_text() == full.csv_text()
    for name in ("v", "policy"):
        assert resumed.tables[name].tobytes() == full.tables[name].tobytes()
    # no solve follows the last slot: the tables are those of the last epoch's policy
    last_epoch = run_experiment(replace(cfg, horizon=41))
    for name in ("v", "policy"):
        assert last_epoch.tables[name].tobytes() == full.tables[name].tobytes()


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
        PolicyActor(reduced_model, np.zeros(5, dtype=np.int64))


def test_policy_actor_refuses_policies_it_cannot_follow(reduced_model):
    m = reduced_model
    stay_off = np.zeros(m.n_s, dtype=np.int64)  # z = 0: feasible everywhere
    PolicyActor(m, stay_off)
    send_one = int(np.flatnonzero(m.action_z == 1)[0])
    empty_on = m.encode(0, 0, 1)  # nothing to send
    full_off = m.encode(m.n_b - 1, 0, 0)  # cannot send while off
    bad = [
        stay_off + 0.7,  # floats, which int64 would truncate to 0
        np.where(np.arange(m.n_s) == 3, m.n_a, stay_off),
        np.where(np.arange(m.n_s) == 3, -1, stay_off),
        np.full(m.n_s, 9999),
        np.where(np.arange(m.n_s) == empty_on, send_one, stay_off),
        np.where(np.arange(m.n_s) == full_off, send_one, stay_off),
    ]
    for policy in bad:
        with pytest.raises(TableFormatError):
            PolicyActor(m, policy)


def test_exact_policy_runner_reports_its_tables():
    cfg = reduced_profile(algorithm="vi", mu=1.0, horizon=300, seed=4)
    res = run_experiment(cfg)
    assert set(res.tables) == {"policy", "v"}
    assert res.mu_final == 1.0
    assert np.all(res.column("mu_window") == 1.0)
    sol = value_iteration(cfg.build_model(), cfg.mu)
    assert np.array_equal(res.tables["policy"], sol.policy)
    assert np.allclose(res.tables["v"], sol.v)


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
    assert np.array_equal(res.tables["policy"], value_iteration(cfg.build_model(), 1.0).policy)
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
