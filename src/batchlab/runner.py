"""Experiment orchestration: run, sweep, and table emission.

All outputs are UTF-8 CSV files with LF line endings, written under an
output root (default: the working directory).  Every emitted file starts
with '# section.key = value' comment lines echoing the fully resolved
configuration, so any row is reproducible from its own header.
"""

import csv
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import cluster, config, costmodel, data, nn
from .errors import ConfigError

EXIT_OK = 0
EXIT_DIVERGED = 2
EXIT_CONFIG = 3
EXIT_FORMAT = 4


@dataclass
class ExperimentResult:
    cfg: config.ExperimentConfig
    log: cluster.TrainingLog
    report: costmodel.CostReport
    out_dir: Path


def build_dataset(ds):
    if ds.kind != "idx-file":
        return data.gen_synthetic(ds.kind, ds.n, ds.num_classes, ds.input_dim, ds.seed, ds.noise)
    if not ds.images or not ds.labels:
        raise ConfigError("idx-file dataset needs images= and labels= paths")
    try:
        return data.load_idx(ds.images, ds.labels, ds.num_classes, ds.seed)
    except OSError as exc:  # missing, a directory, or unreadable
        raise ConfigError(f"cannot read dataset file {exc.filename}: {exc.strerror}") from exc


def network_profile(specs):
    """Analytical profile read off the network's ParamSet: flops per example are
    6 per dense weight (2 forward, ~4 backward) plus 10 per batch-norm channel."""
    params = nn.init_network(specs, 0).params
    flops = sum({nn.WEIGHT: 6, nn.NORM_SCALE: 10}.get(g.category, 0) * g.param.size
                for g in params)
    return costmodel.ModelProfile("experiment", params.param.size, float(flops))


def cost_report(cfg, n_train):
    profile = network_profile(cfg.layers)
    spec = costmodel.cluster_preset(cfg.cost.network, workers=cfg.workers, gamma=cfg.cost.gamma)
    return costmodel.total_time(profile, spec, cfg.hyper.epochs, n_train, cfg.hyper.batch_size)


def _cell(value):
    """A CSV cell: a str as it is; anything else as repr(value), which
    round-trips floats, with a numpy scalar written as the Python number it holds."""
    if isinstance(value, str):
        return value
    return repr(value.item() if isinstance(value, np.generic) else value)


def _write_csv(path, meta, columns, rows):
    """Write the `# key = value` lines of `meta`, the column row, then one line
    per row; each row maps every column to its raw value."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {key} = {value}\n" for key, value in meta)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(row[name]) for name in columns] for row in rows)


def read_csv(path):
    """Read an emitted CSV back into (meta dict, row dicts); the meta is the
    `#` lines above the column row."""
    with open(path, encoding="utf-8") as fh:
        lines = list(fh)
    n = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    meta = {}
    for line in lines[:n]:
        key, _, value = line[1:].partition("=")
        meta[key.strip()] = value.strip()
    return meta, list(csv.DictReader(lines[n:]))


def _columns(record_type):
    return [f.name for f in fields(record_type)]


def _config_meta(cfg, extra=()):
    meta = [(f"{sec}.{key}", value) for sec, key, value in config.config_items(cfg)]
    return meta + list(extra)


def run_experiment(cfg, output_root="."):
    """Train per the config, attach the analytical cost report, and write
    log.csv, lambdas.csv (when a step ran) and cost.csv to
    `output_root`/`cfg.output_dir`."""
    dataset = build_dataset(cfg.dataset)
    log = cluster.train(cfg.layers, dataset, cfg.hyper, cfg.workers, cfg.seed)
    report = cost_report(cfg, dataset.n_train)

    out_dir = Path(output_root) / cfg.output_dir
    b = cfg.hyper.batch_size
    meta = _config_meta(cfg, [("run.status", log.status), ("run.n_train", dataset.n_train),
                              ("run.bitwise_invariant",
                               str(nn.bitwise_invariant(b, cfg.workers)).lower()),
                              ("run.leaf_block", nn.leaf_block(b))])

    _write_csv(out_dir / "log.csv", meta, _columns(cluster.LogRow),
               ({**vars(r), "wall_ms": f"{r.wall_ms:.3f}"} for r in log.rows))
    if log.lambda_history:
        _write_csv(out_dir / "lambdas.csv", meta, ["iteration"] + sorted(log.lambda_history[0]),
                   ({"iteration": i, **lam} for i, lam in enumerate(log.lambda_history)))
    _write_csv(out_dir / "cost.csv", meta, _columns(costmodel.CostReport), [vars(report)])
    return ExperimentResult(cfg, log, report, out_dir)


def sweep(config_dir, output_root="."):
    """Run every config in a directory and emit `output_root`/sweep.csv.

    The configs must share the dataset section and the epoch budget, and
    each must write to its own [output] dir; otherwise nothing trains.
    """
    paths = sorted(Path(config_dir).glob("*.cfg")) + sorted(Path(config_dir).glob("*.ini"))
    if not paths:
        raise ConfigError(f"no .cfg/.ini configs in {config_dir}")
    cfgs = [config.parse_config(p) for p in paths]
    ref = cfgs[0]
    owners = {}  # output dir -> the config that writes there
    for p, c in zip(paths, cfgs):
        if c.dataset != ref.dataset:
            raise ConfigError(f"{p}: sweep configs must share the dataset section")
        if c.hyper.epochs != ref.hyper.epochs:
            raise ConfigError(f"{p}: sweep configs must share the epoch budget")
        other = owners.setdefault(Path(c.output_dir), p)
        if other != p:
            raise ConfigError(f"{other} and {p} both write to [output] dir = {c.output_dir}")

    results = [run_experiment(c, output_root) for c in cfgs]
    root = Path(output_root)
    rows = []
    for p, res in zip(paths, results):
        final = res.log.rows[-1] if res.log.rows else None
        rows.append({
            "name": p.stem,
            "batch_size": res.cfg.hyper.batch_size,
            "workers": res.cfg.workers,
            "status": res.log.status,
            "final_train_acc": final.train_acc if final else "",
            "final_test_acc": final.test_acc if final else "",
            "iterations": res.report.iterations,
            "messages": res.report.messages,
            "comm_volume_words": res.report.comm_volume_words,
            "total_time_model": res.report.total_time,
            "energy_joules": res.report.energy_joules,
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


def table2_rows():
    """ResNet-50 on Mellanox FDR at P100 speed, 512 examples per worker."""
    profile = costmodel.model_preset("resnet50")
    rows = []
    for b in TABLE2_BATCHES:
        workers = b // TABLE2_LOCAL_BATCH
        spec = costmodel.cluster_preset("mellanox_fdr", workers=workers)
        report = costmodel.total_time(profile, spec, TABLE2_EPOCHS, TABLE2_DATASET, b)
        expr = "t_comp" if workers == 1 else f"t_comp + log({workers})*t_comm"
        rows.append({
            "batch_size": b,
            "epochs": TABLE2_EPOCHS,
            "iterations": report.iterations,
            "workers": workers,
            "iteration_time_expr": expr,
            "t_comp": report.t_comp_per_iter,
            "t_comm": report.t_comm_per_iter,
            "t_iter": report.t_iter,
            "total_time": report.total_time,
        })
    return rows


def table7_rows():
    rows = []
    for name in costmodel.model_preset_names():
        m = costmodel.model_preset(name)
        rows.append({
            "model": m.name,
            "num_params": m.num_params,
            "flops_per_image": m.flops_per_image,
            "scaling_ratio": costmodel.scaling_ratio(m),
        })
    return rows


def table10_rows():
    rows = []
    for name in costmodel.cluster_preset_names():
        spec = costmodel.cluster_preset(name)
        rows.append({"network": name, "alpha": spec.alpha, "beta": spec.beta})
    return rows


def table11_rows():
    """Energy per operation; memory accesses are communication, arithmetic computation."""
    return [
        {"operation": op,
         "type": "communication" if op.endswith("access") else "computation",
         "energy_pj": pj}
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
