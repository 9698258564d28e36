"""Experiment orchestration: run, sweep, and table emission.

All outputs are UTF-8 CSV files with LF line endings.  Every emitted file
starts with '# section.key = value' comment lines echoing the fully resolved
configuration, so any row is reproducible from its own header.
"""

import csv
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cluster, config, costmodel, data, nn, optim
from .errors import ConfigError

OUTPUT_ROOT_ENV = "BATCHLAB_OUTPUT_ROOT"

EXIT_OK = 0
EXIT_DIVERGED = 2
EXIT_CONFIG = 3
EXIT_FORMAT = 4

# flops per example for a dense layer: 2*in*out forward, ~4*in*out backward
DENSE_FLOPS_FACTOR = 6


@dataclass
class ExperimentResult:
    cfg: config.ExperimentConfig
    log: cluster.TrainingLog
    report: costmodel.CostReport
    out_dir: Path


def resolve_output_dir(cfg, output_root=None):
    root = output_root or os.environ.get(OUTPUT_ROOT_ENV, ".")
    return Path(root) / cfg.output_dir


def build_dataset(ds):
    if ds.kind in ("synthetic-blobs", "synthetic-spirals"):
        return data.gen_synthetic(ds.kind, ds.n, ds.num_classes, ds.input_dim, ds.seed, ds.noise)
    if ds.kind == "idx-file":
        if not ds.images or not ds.labels:
            raise ConfigError("idx-file dataset needs images= and labels= paths")
        for p in (ds.images, ds.labels):
            if not Path(p).exists():
                raise ConfigError(f"dataset file does not exist: {p}")
        return data.load_idx(ds.images, ds.labels, ds.num_classes, ds.seed)
    raise ConfigError(f"unknown dataset kind {ds.kind!r}")


def network_profile(specs, name="experiment"):
    """Analytical profile of the configured network (dense-dominated)."""
    # |W| is counted on the ParamSet the network really builds
    params = sum(g.param.size for g in nn.init_network(specs, 0).params)
    flops = 0.0
    width = specs[0].in_dim
    for s in specs:
        if s.kind == nn.DENSE:
            flops += DENSE_FLOPS_FACTOR * s.in_dim * s.out_dim
            width = s.out_dim
        elif s.kind == nn.BATCHNORM:
            flops += 10 * width
    return costmodel.ModelProfile(name, params, float(flops))


def cost_report(cfg, n_train):
    profile = network_profile(cfg.layers)
    spec = costmodel.cluster_preset(cfg.cost.network, workers=cfg.workers, gamma=cfg.cost.gamma)
    return costmodel.total_time(profile, spec, cfg.hyper.epochs, n_train, cfg.hyper.batch_size)


def _write_csv(path, header_meta, fieldnames, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in header_meta:
            fh.write(f"# {key} = {value}\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def read_csv(path):
    """Read an emitted CSV back into (meta dict, row dicts)."""
    meta = {}
    with open(path, encoding="utf-8") as fh:
        lines = []
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            else:
                lines.append(line)
    return meta, list(csv.DictReader(lines))


def _config_meta(cfg, extra=()):
    meta = [(f"{sec}.{key}", value) for sec, key, value in config.config_items(cfg)]
    return meta + list(extra)


def run_experiment(cfg, output_root=None):
    """Train per the config, attach the analytical cost report, emit files."""
    dataset = build_dataset(cfg.dataset)
    run = cluster.ClusterRun(cfg.workers, cfg.hyper.batch_size, cfg.seed)
    log = cluster.train(run, cfg.layers, dataset, cfg.hyper)
    report = cost_report(cfg, dataset.n_train)

    out_dir = resolve_output_dir(cfg, output_root)
    meta = _config_meta(cfg, [("run.status", log.status), ("run.n_train", dataset.n_train),
                              ("run.bitwise_invariant", str(run.bitwise_invariant).lower())])

    _write_csv(
        out_dir / "log.csv",
        meta,
        ["epoch", "iteration", "lr", "loss", "train_acc", "test_acc",
         "lambda_min", "lambda_med", "lambda_max", "wall_ms"],
        ({
            "epoch": r.epoch, "iteration": r.iteration, "lr": repr(r.lr),
            "loss": repr(r.loss), "train_acc": repr(r.train_acc),
            "test_acc": repr(r.test_acc), "lambda_min": repr(r.lambda_min),
            "lambda_med": repr(r.lambda_med), "lambda_max": repr(r.lambda_max),
            "wall_ms": f"{r.wall_ms:.3f}",
        } for r in log.rows),
    )

    if log.lambda_history:
        names = sorted(log.lambda_history[0])
        _write_csv(
            out_dir / "lambdas.csv",
            meta,
            ["iteration"] + names,
            ({"iteration": i, **{k: repr(v) for k, v in lam.items()}}
             for i, lam in enumerate(log.lambda_history)),
        )

    _write_csv(
        out_dir / "cost.csv",
        meta,
        ["iterations", "messages", "comm_volume_words", "t_comp_per_iter",
         "t_comm_per_iter", "t_iter", "total_time", "total_flops", "energy_joules"],
        [{
            "iterations": report.iterations,
            "messages": report.messages,
            "comm_volume_words": report.comm_volume_words,
            "t_comp_per_iter": repr(report.t_comp_per_iter),
            "t_comm_per_iter": repr(report.t_comm_per_iter),
            "t_iter": repr(report.t_iter),
            "total_time": repr(report.total_time),
            "total_flops": repr(report.total_flops),
            "energy_joules": repr(report.energy_joules),
        }],
    )
    return ExperimentResult(cfg, log, report, out_dir)


def sweep(config_dir, output_root=None):
    """Run every config in a directory and emit a comparison CSV."""
    paths = sorted(Path(config_dir).glob("*.cfg")) + sorted(Path(config_dir).glob("*.ini"))
    if not paths:
        raise ConfigError(f"no .cfg/.ini configs in {config_dir}")
    cfgs = [config.parse_config(p) for p in paths]
    ref = cfgs[0]
    for p, c in zip(paths, cfgs):
        if c.dataset != ref.dataset:
            raise ConfigError(f"{p}: sweep configs must share the dataset section")
        if c.hyper.epochs != ref.hyper.epochs:
            raise ConfigError(f"{p}: sweep configs must share the epoch budget")

    results = [run_experiment(c, output_root) for c in cfgs]
    root = Path(output_root or os.environ.get(OUTPUT_ROOT_ENV, "."))
    rows = []
    for p, res in zip(paths, results):
        final = res.log.rows[-1] if res.log.rows else None
        rows.append({
            "name": p.stem,
            "batch_size": res.cfg.hyper.batch_size,
            "workers": res.cfg.workers,
            "status": res.log.status,
            "final_train_acc": repr(final.train_acc) if final else "",
            "final_test_acc": repr(final.test_acc) if final else "",
            "iterations": res.report.iterations,
            "messages": res.report.messages,
            "comm_volume_words": res.report.comm_volume_words,
            "total_time_model": repr(res.report.total_time),
            "energy_joules": repr(res.report.energy_joules),
        })
    _write_csv(
        root / "sweep.csv",
        [("sweep.configs", ",".join(p.name for p in paths)),
         ("sweep.epochs", ref.hyper.epochs)],
        list(rows[0]),
        rows,
    )
    return results, root / "sweep.csv"


# ---------------------------------------------------------------------------
# published-table reproductions
# ---------------------------------------------------------------------------

TABLE2_BATCHES = [512, 1024, 2048, 4096, 8192, 1_280_000]
TABLE2_EPOCHS = 100
TABLE2_DATASET = costmodel.IMAGENET_TRAIN_SIZE
TABLE2_LOCAL_BATCH = 512


def table2_rows(profile=None, network="mellanox_fdr", gamma=costmodel.P100_GAMMA):
    profile = profile or costmodel.model_preset("resnet50")
    rows = []
    for b in TABLE2_BATCHES:
        workers = b // TABLE2_LOCAL_BATCH
        spec = costmodel.cluster_preset(network, workers=workers, gamma=gamma)
        report = costmodel.total_time(profile, spec, TABLE2_EPOCHS, TABLE2_DATASET, b)
        expr = "t_comp" if workers == 1 else f"t_comp + log({workers})*t_comm"
        rows.append({
            "batch_size": b,
            "epochs": TABLE2_EPOCHS,
            "iterations": report.iterations,
            "workers": workers,
            "iteration_time_expr": expr,
            "t_comp": repr(report.t_comp_per_iter),
            "t_comm": repr(report.t_comm_per_iter),
            "t_iter": repr(report.t_iter),
            "total_time": repr(report.total_time),
        })
    return rows


def table7_rows():
    rows = []
    for name in costmodel.model_preset_names():
        m = costmodel.model_preset(name)
        rows.append({
            "model": m.name,
            "num_params": m.num_params,
            "flops_per_image": repr(m.flops_per_image),
            "scaling_ratio": repr(costmodel.scaling_ratio(m)),
        })
    return rows


def table10_rows():
    rows = []
    for name in costmodel.cluster_preset_names():
        spec = costmodel.cluster_preset(name)
        rows.append({"network": name, "alpha": repr(spec.alpha), "beta": repr(spec.beta)})
    return rows


_ENERGY_KIND = {
    "32 bit int add": "computation",
    "32 bit float add": "computation",
    "32 bit register access": "communication",
    "32 bit int multiply": "computation",
    "32 bit float multiply": "computation",
    "32 bit SRAM access": "communication",
    "32 bit DRAM access": "communication",
}


def table11_rows():
    return [
        {"operation": op, "type": _ENERGY_KIND[op], "energy_pj": repr(pj)}
        for op, pj in costmodel.energy_table().items()
    ]


def emit_tables(out_dir):
    out = Path(out_dir)
    specs = [
        ("table2.csv", table2_rows()),
        ("table7.csv", table7_rows()),
        ("table10.csv", table10_rows()),
        ("table11.csv", table11_rows()),
    ]
    paths = []
    for name, rows in specs:
        path = out / name
        _write_csv(path, [("source", "batchlab tables")], list(rows[0]), rows)
        paths.append(path)
    return paths
