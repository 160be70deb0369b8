"""Command line entry points.

    fedfusion run <config.ini>              run a federated experiment
    fedfusion bound-check <config.ini>      evaluate the generalization bound suite
    fedfusion partition-stats <config.ini>  report per-client label skew

Exit codes: 0 success, 1 configuration error, 2 runtime error, 130 interrupted
(SIGINT, as from Ctrl-C). Output goes under the config's output directory (or
FEDFUSION_OUTPUT_ROOT when set). Nothing nondeterministic is printed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ._errors import ConfigError
from .harness import (
    load_bound_config,
    load_experiment_config,
    partition_report,
    resolve_output_root,
    run_bound_suite,
    run_experiment,
)


def _cmd_run(args) -> int:
    cfg = load_experiment_config(args.config)
    summary = run_experiment(cfg)
    root = resolve_output_root(cfg)
    for strategy in cfg.strategies:
        agg = summary["aggregate"][strategy]
        reached = agg["target_reached_count"]
        mean_rounds = agg["mean_rounds_to_target"]
        rounds_txt = "-" if mean_rounds is None else f"{mean_rounds:.2f}"
        print(
            f"{strategy}: mean test acc {agg['mean_test_acc_fused']:.4f}, "
            f"rounds to target {rounds_txt} ({reached}/{len(cfg.seeds)} seeds reached)"
        )
    print(f"summary: {root / 'summary.json'}")
    return 0


def _cmd_bound_check(args) -> int:
    cfg = load_bound_config(args.config)
    out = run_bound_suite(cfg)
    print(
        f"bound held on {out['holds']}/{out['instances']} instances "
        f"({out['vacuous']} vacuous), min slack {out['min_slack']:.4f}"
    )
    return 0


def _cmd_partition_stats(args) -> int:
    if args.seed is not None and args.seed < 0:  # before the config: numpy's seed error would name nothing
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    cfg = load_experiment_config(args.config)
    seed = cfg.seeds[0] if args.seed is None else args.seed
    report = partition_report(cfg, seed)
    print(f"alpha={report['alpha']} clients={report['clients']} classes={report['classes']}")
    print(f"mean label entropy: {report['mean_entropy']:.4f} nats")
    print("client  size  entropy  histogram")
    for row in report["clients_detail"]:
        hist = ",".join(str(c) for c in row["class_histogram"])
        print(f"{row['client']:>6}  {row['size']:>4}  {row['entropy']:.4f}  [{hist}]")
    print(f"report: {resolve_output_root(cfg) / f'partition_stats_seed{seed}.json'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedfusion", description="Deterministic federated learning simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a federated experiment from a config file")
    p_run.add_argument("config", help="experiment INI file")
    p_run.set_defaults(fn=_cmd_run)

    p_bound = sub.add_parser("bound-check", help="evaluate the generalization bound suite")
    p_bound.add_argument("config", help="INI file with a [bound] section")
    p_bound.set_defaults(fn=_cmd_bound_check)

    p_part = sub.add_parser("partition-stats", help="report per-client label skew")
    p_part.add_argument("config", help="experiment INI file")
    p_part.add_argument("--seed", type=int, default=None, help="seed to report (default: first)")
    p_part.set_defaults(fn=_cmd_partition_stats)

    args = parser.parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # its error line says why a run diverged; workers inherit it
            return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # run_training has ended its pool's workers by now (_Workers.close)
        print("interrupted", file=sys.stderr)
        return 130
