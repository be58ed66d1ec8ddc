"""End-to-end checks of the command line front end (in-process)."""
import dataclasses
import re

import numpy as np
import pytest

import greentx.cli
from greentx.cli import build_parser, main
from greentx.config import ExperimentConfig, reduced_profile, table_profile
from greentx.errors import ConvergenceError, FeasibilityError, InitializationError
from greentx.harness import load_tables, run_experiment


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


def test_eval_refuses_mismatched_model(tmp_path, cfg_file, capsys):
    tables = tmp_path / "sol.npz"
    assert main(["solve", "--config", cfg_file, "--out", str(tables)]) == 0
    # a different (still valid) on-power changes the model the tables were solved for
    rc = main(
        ["eval", "--tables", str(tables), "--config", cfg_file,
         "--p-on", "0.3", "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2
    assert "error: model fingerprint mismatch" in capsys.readouterr().err


def test_eval_refuses_a_file_that_is_not_a_table(tmp_path, cfg_file, capsys):
    bogus = tmp_path / "g.npz"
    bogus.write_text("not a table\n")
    rc = main(
        ["eval", "--tables", str(bogus), "--config", cfg_file, "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable table file") and "Traceback" not in err


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


@pytest.mark.parametrize("error", [FeasibilityError, InitializationError, ConvergenceError])
def test_package_errors_end_a_command_with_status_2(tmp_path, cfg_file, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("no way through")

    monkeypatch.setattr(greentx.cli, "run_experiment", fail)
    rc = main(["learn", "--algorithm", "pds", "--config", cfg_file, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: no way through\n"


@pytest.mark.parametrize("method", ["vi", "pds"])
def test_mu_flag_solves_at_that_price(tmp_path, method):
    by_flag = tmp_path / "flag.npz"
    by_config = tmp_path / "config.npz"
    cfg_path = tmp_path / "mu1.json"
    table_profile(mu=1.0).save(cfg_path)
    assert main(["solve", "--method", method, "--mu", "1", "--out", str(by_flag)]) == 0
    assert main(["solve", "--method", method, "--config", str(cfg_path), "--out", str(by_config)]) == 0
    assert by_flag.read_bytes() == by_config.read_bytes()


@pytest.mark.parametrize("command", [
    ["solve"],
    ["learn", "--algorithm", "pds"],
])
def test_negative_mu_is_reported(tmp_path, cfg_file, capsys, command):
    rc = main(command + ["--config", cfg_file, "--mu", "-1", "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "mu" in err and "Traceback" not in err


@pytest.mark.parametrize("mu", ["nan", "1e306", "1e308"])
def test_a_price_the_solvers_cannot_use_is_refused_at_once(tmp_path, capsys, mu):
    # 1e306 used to sweep NaNs for 200 000 sweeps before it failed
    rc = main(["solve", "--mu", mu, "--out", str(tmp_path / "x.npz")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "mu" in err
    assert not (tmp_path / "x.npz").exists()


def test_a_negative_start_table_price_is_refused(tmp_path, capsys):
    path = tmp_path / "init_mu.json"
    path.write_text('{"init_mu": -1.0}')
    rc = main(["learn", "--algorithm", "pds", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "error: mu must be finite and nonnegative\n"


@pytest.mark.parametrize("field, value", [
    ("eps_decay", 2.0), ("eps_decay", -0.5), ("eps_start", -1.0), ("eps_start", 1.5),
    ("eps_floor", 2.0), ("eps_floor", -0.1),
])
def test_exploration_values_outside_the_unit_interval_are_refused(tmp_path, capsys, field, value):
    # eps_decay 2.0 once overflowed at slot 1025 (2.0**1025) with a traceback,
    # and the others ran silently
    path = tmp_path / "eps.json"
    path.write_text(f'{{"{field}": {value!r}}}')
    rc = main(["learn", "--algorithm", "q", "--horizon", "1100", "--config", str(path),
               "--out", str(tmp_path / "q.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {field} must lie in [0, 1]\n"


def test_a_fixed_price_is_not_bounded_by_mu_max(tmp_path, capsys):
    assert table_profile().mu_max == 5.0
    out = tmp_path / "k3.csv"
    assert main(["baseline", "--k", "3", "--mu", "10", "--horizon", "20", "--out", str(out)]) == 0
    assert capsys.readouterr().out.rstrip().endswith(" mu_window=10")
    # a price that moves is still held inside [0, mu_max]
    rc = main(["learn", "--algorithm", "q", "--mu", "10", "--horizon", "20",
               "--out", str(tmp_path / "q.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: mu must start inside [0, mu_max]")


def test_a_config_that_writes_mu_as_an_integer_solves_the_model_eval_expects(tmp_path, capsys):
    config, tables = tmp_path / "c.json", tmp_path / "vi.npz"
    config.write_text('{"mu": 1}')
    assert main(["solve", "--method", "vi", "--config", str(config), "--out", str(tables)]) == 0
    rc = main(["eval", "--tables", str(tables), "--mu", "1", "--horizon", "20",
               "--out", str(tmp_path / "eval.csv")])
    assert rc == 0, capsys.readouterr().err


def test_p_on_moves_a_transition_power_that_equals_it(tmp_path):
    # above the stock transition power 0.32, which used to stay behind and be refused
    assert main(["learn", "--algorithm", "q", "--p-on", "0.5", "--horizon", "10",
                 "--out", str(tmp_path / "q.csv")]) == 0
    args = build_parser().parse_args(["solve", "--p-on", "0.2", "--out", "x"])
    assert greentx.cli._load_config(args).model_fingerprint() == table_profile(p_on=0.2).model_fingerprint()
    # a config's own transition power stays as it is
    config = tmp_path / "c.json"
    config.write_text('{"power": {"p_on": 0.32, "p_tr": 0.6}}')
    args = build_parser().parse_args(["solve", "--config", str(config), "--p-on", "0.4", "--out", "x"])
    power = greentx.cli._load_config(args).power
    assert (power.p_on, power.p_tr) == (0.4, 0.6)


def test_the_parser_is_built_once_and_keeps_no_state(tmp_path, cfg_file, capsys):
    assert build_parser() is build_parser()
    base = ["learn", "--algorithm", "pds-ve", "--config", cfg_file, "--horizon", "150"]
    tables = tmp_path / "t.npz"
    assert main(base + ["--ve-period", "1", "--out", str(tmp_path / "p1.csv"),
                        "--tables-out", str(tables)]) == 0
    tables.unlink()
    assert main(base + ["--ve-period", "50", "--out", str(tmp_path / "p50.csv")]) == 0
    assert not tables.exists()  # the earlier --tables-out did not carry over
    assert main(base + ["--out", str(tmp_path / "default.csv")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "default.csv", "p1.csv", "p50.csv",
    ]
    # the config's period (1) again, not the last call's 50
    default = (tmp_path / "default.csv").read_text()
    assert default == (tmp_path / "p1.csv").read_text()
    assert default != (tmp_path / "p50.csv").read_text()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: greentx" in capsys.readouterr().out


@pytest.mark.parametrize("argv, fields, run_options", [
    (["baseline", "--k", "3"], {"algorithm": "threshold", "threshold_k": 3}, {}),
    (["learn", "--algorithm", "pds-ve", "--ve-period", "50"],
     {"algorithm": "pds_ve", "ve_period": 50}, {}),
    (["learn", "--algorithm", "q", "--seed", "4", "--horizon", "120", "--mu", "0.5"],
     {"algorithm": "q", "seed": 4, "horizon": 120, "mu": 0.5}, {}),
    (["suboptimal", "--true-stats"], {"algorithm": "suboptimal"}, {"true_stats": True}),
])
def test_each_flag_sets_the_config_field_it_names(tmp_path, cfg_file, argv, fields, run_options):
    by_cli, by_api = tmp_path / "cli.csv", tmp_path / "api.csv"
    assert main(argv + ["--config", cfg_file, "--out", str(by_cli)]) == 0
    cfg = dataclasses.replace(ExperimentConfig.load(cfg_file), **fields)
    run_experiment(cfg, out_csv=by_api, **run_options)
    assert by_cli.read_bytes() == by_api.read_bytes()


COMMON_FLAGS = [
    "--config CONFIG", "--seed SEED", "--horizon HORIZON", "--p-on P_ON", "--mu MU", "--out OUT",
]


@pytest.mark.parametrize("command, flags", [
    ("solve", ["--method {vi,pds}"]),
    ("learn", ["--algorithm {q,pds,pds-ve}", "--ve-period VE_PERIOD", "--tables-out TABLES_OUT"]),
    ("baseline", ["--k K"]),
    ("suboptimal", ["--true-stats"]),
    ("eval", ["--tables TABLES"]),
])
def test_help_lists_each_subcommands_flags(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    options = capsys.readouterr().out.split("options:\n")[1]
    listed = [re.split(r"\s{2,}", line.strip())[0]
              for line in options.splitlines() if line.startswith("  -")]
    assert listed == ["-h, --help", *flags, *COMMON_FLAGS]


def test_baseline_needs_k(tmp_path, cfg_file, capsys):
    rc = main(["baseline", "--config", cfg_file, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "error: baseline needs --k\n"
    assert not (tmp_path / "x.csv").exists()


def test_table_files_keep_the_name_they_were_given(tmp_path, cfg_file, capsys):
    solved = tmp_path / "x.bin"
    assert main(["solve", "--config", cfg_file, "--out", str(solved)]) == 0
    assert capsys.readouterr().out == f"wrote ['policy', 'v'] to {solved}\n"
    rc = main(["eval", "--tables", str(solved), "--config", cfg_file,
               "--out", str(tmp_path / "eval.csv")])
    assert rc == 0
    learned = tmp_path / "qt"
    rc = main(["learn", "--algorithm", "q", "--config", cfg_file, "--horizon", "50",
               "--out", str(tmp_path / "q.csv"), "--tables-out", str(learned)])
    assert rc == 0
    assert "q" in load_tables(learned, expect_kind="q")[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "eval.csv", "q.csv", "qt", "x.bin",
    ]


@pytest.mark.parametrize("text, flags", [
    ('{"seed": 0, "horizon_slots": 50}', []),  # unknown key
    ('{"power": {"p_on": 0.32, "p_sleep": 0.0}}', []),  # unknown nested key
    ('{"seed": 0,', []),  # malformed JSON
    ("[1, 2]", []),  # not an object
    ("{}", ["--seed", "-1"]),
    ('{"seed": "a"}', []),  # a string for an integer
    ('{"capacity": "25"}', []),  # a numeric string for an integer
    ('{"gains_db": 3}', []),  # a number for an array
    ('{"power": {}}', []),  # a nested object without its required p_on
    ('{"g_bar": NaN}', []),  # Python's json reads NaN and Infinity
    ('{"power": {"p_on": 0.32, "p_tr": NaN}}', []),
    ('{"arrival_rate_pkts_per_s": NaN}', []),
    ('{"eta": Infinity}', []),
    ('{"channel_mode": "perturbed", "perturb_magnitude": NaN}', []),
    ('{"channel_mode": "perturbed", "perturb_magnitude": 1e308}', []),  # noise span overflows
    ("{}", ["--p-on", "inf"]),
    ("{}", ["--p-on", "nan"]),
    ('{"gains_db": [-4000.0, -10.0]}', []),  # a gain that underflows to 0
    ('{"phy": {"packet_bits": 1000000, "max_bits_per_symbol": 5000}}', []),  # 2**2000 overflows
], ids=["unknown-key", "unknown-nested-key", "malformed-json", "not-an-object", "negative-seed",
        "string-seed", "string-capacity", "scalar-gains", "power-without-p-on", "nan-g-bar",
        "nan-p-tr", "nan-arrival-rate", "infinite-eta", "nan-perturbation", "overflowing-perturbation",
        "infinite-p-on-flag", "nan-p-on-flag", "underflowing-gain", "overflowing-modulation-order"])
def test_bad_configs_end_in_one_error_line(tmp_path, capsys, text, flags):
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc = main(["learn", "--algorithm", "q", "--config", str(path), *flags,
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
