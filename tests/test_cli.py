"""End-to-end checks of the command line front end (in-process)."""
import numpy as np
import pytest

from greentx.cli import main
from greentx.config import reduced_profile
from greentx.harness import load_tables


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "cfg.json"
    reduced_profile(horizon=200, seed=0).save(path)
    return str(path)


def test_solve_then_eval_round_trip(tmp_path, cfg_file, capsys):
    tables = tmp_path / "sol.npz"
    rc = main(["solve", "--method", "pds", "--config", cfg_file, "--out", str(tables)])
    assert rc == 0
    loaded, header = load_tables(tables, expect_kind="solve_pds")
    assert {"v_tilde", "v", "policy"} <= set(loaded)

    out_csv = tmp_path / "eval.csv"
    rc = main(
        ["eval", "--tables", str(tables), "--config", cfg_file, "--out", str(out_csv)]
    )
    assert rc == 0
    text = out_csv.read_text().splitlines()
    assert text[0].startswith("n,cum_cost")
    assert len(text) == 201
    assert "cum_power_w=" in capsys.readouterr().out


def test_eval_refuses_mismatched_model(tmp_path, cfg_file):
    tables = tmp_path / "sol.npz"
    assert main(["solve", "--config", cfg_file, "--out", str(tables)]) == 0
    # a different on-power changes the model the tables were solved for
    rc = main(
        ["eval", "--tables", str(tables), "--config", cfg_file,
         "--p-on", "0.5", "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2


def test_learn_writes_metrics_and_tables(tmp_path, cfg_file):
    out_csv = tmp_path / "learn.csv"
    tab = tmp_path / "learned.npz"
    rc = main(
        ["learn", "--algorithm", "pds-ve", "--ve-period", "1", "--config", cfg_file,
         "--horizon", "150", "--out", str(out_csv), "--tables-out", str(tab)]
    )
    assert rc == 0
    assert len(out_csv.read_text().splitlines()) == 151
    loaded, header = load_tables(tab, expect_kind="pds_ve")
    assert "v_tilde" in loaded and np.all(np.isfinite(loaded["v_tilde"]))


def test_learn_q_seed_override_changes_stream(tmp_path, cfg_file):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["learn", "--algorithm", "q", "--config", cfg_file, "--horizon", "120"]
    assert main(base + ["--seed", "1", "--out", str(a)]) == 0
    assert main(base + ["--seed", "2", "--out", str(b)]) == 0
    assert a.read_text() != b.read_text()
    rerun = tmp_path / "a2.csv"
    assert main(base + ["--seed", "1", "--out", str(rerun)]) == 0
    assert rerun.read_text() == a.read_text()


def test_baseline_single_k(tmp_path, cfg_file):
    single = tmp_path / "k5.csv"
    rc = main(["baseline", "--k", "5", "--config", cfg_file, "--out", str(single)])
    assert rc == 0
    assert len(single.read_text().splitlines()) == 201


def test_baseline_flag_conflicts(tmp_path, cfg_file):
    out = str(tmp_path / "x.csv")
    assert main(["baseline", "--config", cfg_file, "--out", out]) == 2


def test_suboptimal_command(tmp_path, cfg_file):
    out = tmp_path / "sub.csv"
    rc = main(
        ["suboptimal", "--true-stats", "--config", cfg_file, "--horizon", "120",
         "--out", str(out)]
    )
    assert rc == 0
    assert len(out.read_text().splitlines()) == 121


def test_missing_config_file_reports_cleanly(tmp_path, capsys):
    rc = main(
        ["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "t.npz")]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err
