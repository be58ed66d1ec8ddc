"""Command line front end: solve, learn, baseline, suboptimal, eval."""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import ExperimentConfig, table_profile
from .errors import ConfigError
from .harness import load_tables, run_experiment, serialize_tables, solve_tables


def _add_common(p: argparse.ArgumentParser, out_help: str) -> None:
    p.add_argument("--config", help="JSON config file (defaults to the stock profile)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--horizon", type=int, help="override the run length in slots")
    p.add_argument("--p-on", type=float, dest="p_on", help="override the radio on-power in watts")
    p.add_argument("--out", required=True, help=out_help)


def _load_config(args, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig.load(args.config) if args.config else table_profile()
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if args.p_on is not None:
        overrides["power"] = dataclasses.replace(cfg.power, p_on=args.p_on)
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _report(result) -> None:
    rec = result.final
    print(
        f"slots={rec.n + 1} cum_cost={rec.cum_cost:.6g} "
        f"cum_power_w={rec.cum_power_w:.6g} cum_holding={rec.cum_holding:.6g} "
        f"theta_off={rec.theta_off:.4f} mu_window={rec.mu_window:.6g}"
    )


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    tables = solve_tables(cfg, args.method)
    serialize_tables(
        tables, args.out, kind=f"solve_{args.method}", fingerprint=cfg.model_fingerprint()
    )
    print(f"wrote {sorted(tables)} to {args.out}")
    return 0


def _cmd_learn(args) -> int:
    algorithm = args.algorithm.replace("-", "_")
    overrides = {"algorithm": algorithm}
    if args.ve_period is not None:
        overrides["ve_period"] = args.ve_period
    cfg = _load_config(args, **overrides)
    result = run_experiment(cfg, out_csv=args.out, tables_out=args.tables_out)
    _report(result)
    return 0


def _cmd_baseline(args) -> int:
    if args.k is None:
        raise ConfigError("baseline needs --k")
    cfg = _load_config(args, algorithm="threshold", threshold_k=args.k)
    result = run_experiment(cfg, out_csv=args.out)
    _report(result)
    return 0


def _cmd_suboptimal(args) -> int:
    cfg = _load_config(args, algorithm="suboptimal")
    result = run_experiment(cfg, out_csv=args.out, true_stats=args.true_stats)
    _report(result)
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_config(args)
    tables, _ = load_tables(args.tables, fingerprint=cfg.model_fingerprint())
    if "policy" not in tables:
        raise ConfigError(f"{args.tables} holds no policy table")
    result = run_experiment(cfg, policy=tables["policy"], out_csv=args.out)
    _report(result)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greentx",
        description="Energy-efficient transmission control: planning, learning, baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact solution from true statistics")
    p.add_argument("--method", choices=("vi", "pds"), default="vi")
    _add_common(p, "output table file (.npz)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("learn", help="run an online learner")
    p.add_argument("--algorithm", choices=("q", "pds", "pds-ve"), required=True)
    p.add_argument("--ve-period", type=int, dest="ve_period")
    p.add_argument("--tables-out", dest="tables_out", help="also save learned tables (.npz)")
    _add_common(p, "metrics CSV path")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("baseline", help="threshold-k baseline")
    p.add_argument("--k", type=int, help="wake the sleeping radio once the backlog exceeds k")
    _add_common(p, "metrics CSV path")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("suboptimal", help="re-planning reference on estimated statistics")
    p.add_argument("--true-stats", action="store_true", dest="true_stats")
    _add_common(p, "metrics CSV path")
    p.set_defaults(func=_cmd_suboptimal)

    p = sub.add_parser("eval", help="roll out a stored policy")
    p.add_argument("--tables", required=True, help="table file holding a policy")
    _add_common(p, "metrics CSV path")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
