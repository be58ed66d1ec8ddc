"""Command line front end: solve, learn, baseline, suboptimal, eval."""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .config import ExperimentConfig, table_profile
from .errors import (
    ConfigError, ConvergenceError, FeasibilityError, InitializationError, TableFormatError,
)
from .harness import load_tables, run_experiment, serialize_tables, solve_tables

# the package's own errors, and files it cannot read or write, end a command
# with one "error: ..." line and status 2 instead of a traceback
REPORTED = (
    ConfigError, TableFormatError, FeasibilityError, InitializationError, ConvergenceError, OSError,
)


def _add_common(p: argparse.ArgumentParser, out_help: str) -> None:
    p.add_argument("--config", help="JSON config file (defaults to the stock profile)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--horizon", type=int, help="override the run length in slots")
    p.add_argument("--p-on", type=float, dest="p_on", help="override the radio on-power in watts")
    p.add_argument("--mu", type=float, help="override the price of buffer cost (nonnegative)")
    p.add_argument("--out", required=True, help=out_help)


def _load_config(args) -> ExperimentConfig:
    """The --config file or the stock profile, each given flag setting the field it names."""
    cfg = ExperimentConfig.load(args.config) if args.config else table_profile()
    given = {k: v for k, v in vars(args).items() if k in cfg.__dataclass_fields__ and v is not None}
    if "algorithm" in given:  # the flag spells pds_ve "pds-ve"
        given["algorithm"] = given["algorithm"].replace("-", "_")
    if args.p_on is not None:  # a transition power equal to p_on (the default) moves with it
        p_tr = args.p_on if cfg.power.p_tr == cfg.power.p_on else cfg.power.p_tr
        given["power"] = dataclasses.replace(cfg.power, p_on=args.p_on, p_tr=p_tr)
    return dataclasses.replace(cfg, **given)


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    tables = solve_tables(cfg, args.method)
    serialize_tables(
        tables, args.out, kind=f"solve_{args.method}", fingerprint=cfg.model_fingerprint()
    )
    print(f"wrote {sorted(tables)} to {args.out}")
    return 0


def _cmd_run(args) -> int:
    """learn, baseline, suboptimal and eval: one ``run_experiment`` and its summary."""
    if args.algorithm == "threshold" and args.threshold_k is None:
        raise ConfigError("baseline needs --k")
    cfg = _load_config(args)
    policy = None
    if args.tables is not None:
        tables, _ = load_tables(args.tables, fingerprint=cfg.model_fingerprint())
        if "policy" not in tables:
            raise ConfigError(f"{args.tables} holds no policy table")
        policy = tables["policy"]
    result = run_experiment(cfg, policy=policy, out_csv=args.out, tables_out=args.tables_out,
                            true_stats=args.true_stats)
    rec = result.final
    print(
        f"slots={rec.n + 1} cum_cost={rec.cum_cost:.6g} "
        f"cum_power_w={rec.cum_power_w:.6g} cum_holding={rec.cum_holding:.6g} "
        f"theta_off={rec.theta_off:.4f} mu_window={rec.mu_window:.6g}"
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.

    Parsing leaves no state on it: each ``parse_args`` call starts from a
    fresh namespace, so ``main`` can reuse it call after call. Every caller
    gets this one parser, so none may add to it.
    """
    parser = argparse.ArgumentParser(
        prog="greentx",
        description="Energy-efficient transmission control: planning, learning, baselines.",
    )
    # set by only some subcommands (func: all but solve); None leaves a config field as is
    parser.set_defaults(algorithm=None, threshold_k=None, tables=None, tables_out=None,
                        true_stats=False, func=_cmd_run)
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

    p = sub.add_parser("baseline", help="threshold-k baseline")
    p.add_argument("--k", type=int, dest="threshold_k", metavar="K",
                   help="wake the sleeping radio once the backlog exceeds k")
    _add_common(p, "metrics CSV path")
    p.set_defaults(algorithm="threshold")

    p = sub.add_parser("suboptimal", help="re-planning reference on estimated statistics")
    p.add_argument("--true-stats", action="store_true", dest="true_stats")
    _add_common(p, "metrics CSV path")
    p.set_defaults(algorithm="suboptimal")

    p = sub.add_parser("eval", help="roll out a stored policy")
    p.add_argument("--tables", required=True, help="table file holding a policy")
    _add_common(p, "metrics CSV path")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except REPORTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
