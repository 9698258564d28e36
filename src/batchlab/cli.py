"""Command-line interface.

Subcommands: train, sweep, cost, tables.  Exit codes: 0 success,
2 diverged run, 3 configuration error, 4 dataset format error.
"""

import argparse
import sys
from dataclasses import fields

from . import config, costmodel, runner
from .errors import ConfigError, FormatError


def _build_parser():
    p = argparse.ArgumentParser(prog="batchlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run one experiment from a config file")
    t.add_argument("config")
    t.add_argument("--output-root", default=".")

    s = sub.add_parser("sweep", help="run every config in a directory")
    s.add_argument("config_dir")
    s.add_argument("--output-root", default=".")

    c = sub.add_parser("cost", help="print the analytical cost report")
    c.add_argument("--model", required=True, choices=costmodel.model_preset_names())
    c.add_argument("--cluster", required=True, choices=costmodel.cluster_preset_names())
    c.add_argument("--batch", type=int, required=True)
    c.add_argument("--epochs", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--gamma", type=float, default=costmodel.P100_GAMMA)

    tb = sub.add_parser("tables", help="emit published-table reproductions as CSV")
    tb.add_argument("--out", default="tables")
    return p


def _cmd_train(args):
    cfg = config.parse_config(args.config)
    res = runner.run_experiment(cfg, args.output_root)
    final = res.log.rows[-1] if res.log.rows else None
    print(f"status: {res.log.status}")
    print(f"iterations: {len(res.log.rows)} (model: {res.report.iterations})")
    if final is not None:
        print(f"final loss: {final.loss:.6f}  train_acc: {final.train_acc:.4f}  "
              f"test_acc: {final.test_acc:.4f}")
    print(f"outputs: {res.out_dir}")
    return runner.EXIT_OK if not res.log.diverged else runner.EXIT_DIVERGED


def _cmd_sweep(args):
    results, path = runner.sweep(args.config_dir, args.output_root)
    print(f"ran {len(results)} configs -> {path}")
    if any(r.log.diverged for r in results):
        return runner.EXIT_DIVERGED
    return runner.EXIT_OK


def _cmd_cost(args):
    profile = costmodel.model_preset(args.model)
    spec = costmodel.cluster_preset(args.cluster, workers=args.workers, gamma=args.gamma)
    report = costmodel.total_time(profile, spec, args.epochs, args.n, args.batch)
    for f in fields(report):
        print(f"{f.name}: {getattr(report, f.name)}")
    return runner.EXIT_OK


def _cmd_tables(args):
    for path in runner.emit_tables(args.out):
        print(path)
    return runner.EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "sweep": _cmd_sweep,
        "cost": _cmd_cost,
        "tables": _cmd_tables,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return runner.EXIT_CONFIG
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return runner.EXIT_FORMAT


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
