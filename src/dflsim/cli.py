"""Command-line entry point.

Subcommands: run, sweep, validate, report. Exit codes: 0 success,
1 config/usage error or a seed that fails before its round 1, 2 a failure
during a round.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import summarize
from .config import ConfigError, load_config, parse_config, parse_sweep, read_document
from .sim import METRICS_COLUMNS, SimulationError, run_experiment, setup_seed

# The package logger: progress records from dflsim.sim reach the same level.
log = logging.getLogger("dflsim")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the CLI contract wants 1.
    def error(self, message):
        raise UsageError(f"{self.format_usage()}\n{self.prog}: error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="dflsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--outdir", help="output directory (overrides config and DFLSIM_OUTDIR)")
        p.add_argument("--quiet", action="store_true",
                       help="log warnings only: no progress or summary lines")
        p.add_argument("--parallel", type=int, default=1, metavar="N",
                       help="worker processes that run the seeds (at most one per seed)")
        p.add_argument("--rounds", type=int, help="override the configured round count")
        p.add_argument("--seed-override", help="comma-separated seed list replacing the config's")

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="grid over temperature/attack values")
    p_sweep.add_argument("config")
    add_common(p_sweep)

    p_validate = sub.add_parser("validate", help="check a config and set up each of its seeds")
    p_validate.add_argument("config")

    p_report = sub.add_parser("report", help="re-derive summary tables from a run directory")
    p_report.add_argument("rundir")
    return parser


def _apply_overrides(config, args):
    if getattr(args, "rounds", None) is not None:
        config = replace(config, rounds=args.rounds)
    if getattr(args, "seed_override", None) is not None:
        try:
            seeds = tuple(int(s) for s in args.seed_override.split(","))
        except ValueError:
            raise ConfigError(f"--seed-override expects integers, got {args.seed_override!r}")
        config = replace(config, seeds=seeds)
    return config


def _set_up_every_seed(configs) -> None:
    """setup_seed on every seed of every config, as run does before each seed's round 1."""
    for config in configs:
        for seed in config.seeds:
            setup_seed(config, seed)


def _cmd_run(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    summary = run_experiment(config, parallel=args.parallel, outdir=args.outdir)
    log.info("run '%s': mean_acc=%.4f var=%.3f (%.1fs)", config.name, summary.mean_acc,
             summary.var_points, summary.wall_clock_sec)
    return 0


def _cmd_sweep(args) -> int:
    configs = [_apply_overrides(config, args) for config in parse_sweep(read_document(args.config))]
    _set_up_every_seed(configs)
    for config in configs:
        summary = run_experiment(config, parallel=args.parallel, outdir=args.outdir)
        log.info("sweep '%s': mean_acc=%.4f var=%.3f", config.name, summary.mean_acc,
                 summary.var_points)
    return 0


def _cmd_validate(args) -> int:
    doc = read_document(args.config)
    # A sweep document is told apart by its keys; parse_sweep names any it lacks.
    if isinstance(doc, dict) and not doc.keys().isdisjoint({"base", "grid"}):
        configs = parse_sweep(doc)
    else:
        configs = (parse_config(doc),)
    _set_up_every_seed(configs)
    print("\n".join(f"ok: '{config.name}' is a valid run config" for config in configs))
    return 0


# How each metrics.csv column is read: round, seed and client are integers.
_METRICS_TYPES = (int, int, int, float, float, float, float)


def _cmd_report(args) -> int:
    metrics_path = Path(args.rundir) / "metrics.csv"
    if not metrics_path.exists():
        raise ConfigError(f"no metrics.csv under {args.rundir}")
    rows = []
    with open(metrics_path, newline="") as f:
        reader = csv.reader(f)
        if next(reader, None) != METRICS_COLUMNS:
            raise ConfigError(f"{metrics_path}: expected the columns {','.join(METRICS_COLUMNS)}")
        for row in reader:
            where = f"{metrics_path}, line {reader.line_num}"
            if len(row) != len(METRICS_COLUMNS):
                raise ConfigError(f"{where}: expected {len(METRICS_COLUMNS)} values, got {len(row)}")
            try:
                rows.append([read(value) for read, value in zip(_METRICS_TYPES, row)])
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
    per_seed, cross_seed = summarize(rows)
    print(json.dumps({"per_seed": per_seed, "cross_seed": cross_seed}, indent=2, sort_keys=True))
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    logging.basicConfig(format="%(message)s")
    log.setLevel(logging.WARNING if getattr(args, "quiet", False) else logging.INFO)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "validate": _cmd_validate,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
