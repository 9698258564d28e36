"""Experiment configuration: a flat INI-style key=value format.

Sections: [network], [hyper], [cluster], [dataset], [output], and an
optional [cost] for the analytical model.  Unknown sections and keys are
rejected, so a misspelled option fails instead of silently taking its
default.  parse_config(write_config(cfg)) returns an equal ExperimentConfig.
"""

import configparser
import io
from dataclasses import dataclass, field

from . import nn
from .errors import ConfigError
from .optim import DEFAULT_LARS_SKIP, HyperParams


@dataclass
class DatasetConfig:
    kind: str  # synthetic-blobs | synthetic-spirals | idx-file
    n: int = 0
    num_classes: int = 2
    input_dim: int = 2
    seed: int = 0
    noise: float = None
    images: str = ""
    labels: str = ""


@dataclass
class CostConfig:
    network: str = "mellanox_fdr"
    gamma: float = 0.9e-13


@dataclass
class ExperimentConfig:
    layers: list
    hyper: HyperParams
    workers: int
    seed: int
    dataset: DatasetConfig
    output_dir: str
    cost: CostConfig = field(default_factory=CostConfig)


KNOWN_KEYS = {
    "network": {"layers"},
    "hyper": {
        "base_lr", "epochs", "batch_size", "momentum", "weight_decay", "poly_power",
        "warmup_epochs", "lars_enabled", "lars_trust", "lars_skip",
    },
    "cluster": {"workers", "seed"},
    "dataset": {"kind", "n", "num_classes", "input_dim", "seed", "noise", "images", "labels"},
    "output": {"dir"},
    "cost": {"network", "gamma"},
}


def parse_layers(text):
    """Parse a layer stack like 'dense 2 64, batchnorm, relu, ..., softmax-xent'."""
    specs = []
    for i, chunk in enumerate(t.strip() for t in text.split(",")):
        parts = chunk.split()
        if not parts:
            raise ConfigError(f"empty layer entry at position {i}")
        kind, args = parts[0], parts[1:]
        try:
            if kind == "dense":
                specs.append(nn.dense(int(args[0]), int(args[1])))
            elif kind == "batchnorm":
                specs.append(nn.batchnorm(float(args[0])) if args else nn.batchnorm())
            elif kind == "relu":
                specs.append(nn.relu())
            elif kind == "softmax-xent":
                specs.append(nn.softmax_xent())
            else:
                raise ConfigError(f"unknown layer kind {kind!r} at position {i}")
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"bad layer entry {chunk!r}: {exc}") from exc
    return specs


def format_layers(specs):
    out = []
    for s in specs:
        if s.kind == nn.DENSE:
            out.append(f"dense {s.in_dim} {s.out_dim}")
        elif s.kind == nn.BATCHNORM:
            out.append("batchnorm" if s.eps == nn.BN_EPS else f"batchnorm {s.eps!r}")
        else:
            out.append(s.kind)
    return ", ".join(out)


def _bool(text):
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _parser():
    return configparser.ConfigParser(interpolation=None, inline_comment_prefixes=None)


def parse_config(path):
    cp = _parser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return _from_parser(cp, path)


def parse_config_string(text, origin="<string>"):
    cp = _parser()
    cp.read_string(text)
    return _from_parser(cp, origin)


def _check_known(cp, origin):
    unknown = []
    for sec in cp.sections():
        if sec not in KNOWN_KEYS:
            unknown.append(f"section [{sec}]")
        else:
            unknown += [f"key {sec}.{key}" for key in cp[sec] if key not in KNOWN_KEYS[sec]]
    if unknown:
        raise ConfigError(f"{origin}: unknown {', '.join(unknown)}")


def _from_parser(cp, origin):
    _check_known(cp, origin)
    try:
        layers = parse_layers(cp["network"]["layers"])
        h = cp["hyper"]
        skip = h.get("lars_skip", None)
        hyper = HyperParams(
            base_lr=float(h["base_lr"]),
            epochs=int(h["epochs"]),
            batch_size=int(h["batch_size"]),
            momentum=float(h.get("momentum", "0.9")),
            weight_decay=float(h.get("weight_decay", "0.0005")),
            poly_power=float(h.get("poly_power", "2.0")),
            warmup_epochs=int(h.get("warmup_epochs", "0")),
            lars_enabled=_bool(h.get("lars_enabled", "false")),
            lars_trust=float(h.get("lars_trust", "0.001")),
            lars_skip_categories=(
                DEFAULT_LARS_SKIP if skip is None
                else frozenset(x.strip() for x in skip.split(",") if x.strip())
            ),
        )
        c = cp["cluster"]
        d = cp["dataset"]
        dataset = DatasetConfig(
            kind=d["kind"].strip(),
            n=int(d.get("n", "0")),
            num_classes=int(d.get("num_classes", "2")),
            input_dim=int(d.get("input_dim", "2")),
            seed=int(d.get("seed", "0")),
            noise=float(d["noise"]) if "noise" in d else None,
            images=d.get("images", ""),
            labels=d.get("labels", ""),
        )
        o = cp["output"]
        cost = CostConfig()
        if cp.has_section("cost"):
            k = cp["cost"]
            cost = CostConfig(
                network=k.get("network", cost.network).strip(),
                gamma=float(k.get("gamma", repr(cost.gamma))),
            )
        return ExperimentConfig(
            layers=layers,
            hyper=hyper,
            workers=int(c["workers"]),
            seed=int(c["seed"]),
            dataset=dataset,
            output_dir=o["dir"].strip(),
            cost=cost,
        )
    except KeyError as exc:
        raise ConfigError(f"{origin}: missing config key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{origin}: bad config value: {exc}") from exc


def config_items(cfg):
    """Flat (section, key, value) triples in canonical order."""
    hp = cfg.hyper
    ds = cfg.dataset
    items = [
        ("network", "layers", format_layers(cfg.layers)),
        ("hyper", "base_lr", repr(hp.base_lr)),
        ("hyper", "momentum", repr(hp.momentum)),
        ("hyper", "weight_decay", repr(hp.weight_decay)),
        ("hyper", "poly_power", repr(hp.poly_power)),
        ("hyper", "warmup_epochs", str(hp.warmup_epochs)),
        ("hyper", "epochs", str(hp.epochs)),
        ("hyper", "batch_size", str(hp.batch_size)),
        ("hyper", "lars_enabled", "true" if hp.lars_enabled else "false"),
        ("hyper", "lars_trust", repr(hp.lars_trust)),
        ("hyper", "lars_skip", ",".join(sorted(hp.lars_skip_categories))),
        ("cluster", "workers", str(cfg.workers)),
        ("cluster", "seed", str(cfg.seed)),
        ("dataset", "kind", ds.kind),
    ]
    if ds.kind == "idx-file":
        items += [
            ("dataset", "num_classes", str(ds.num_classes)),
            ("dataset", "seed", str(ds.seed)),
            ("dataset", "images", ds.images),
            ("dataset", "labels", ds.labels),
        ]
    else:
        items += [
            ("dataset", "n", str(ds.n)),
            ("dataset", "num_classes", str(ds.num_classes)),
            ("dataset", "input_dim", str(ds.input_dim)),
            ("dataset", "seed", str(ds.seed)),
        ]
        if ds.noise is not None:
            items.append(("dataset", "noise", repr(ds.noise)))
    items += [
        ("output", "dir", cfg.output_dir),
        ("cost", "network", cfg.cost.network),
        ("cost", "gamma", repr(cfg.cost.gamma)),
    ]
    return items


def write_config_string(cfg):
    buf = io.StringIO()
    section = None
    for sec, key, value in config_items(cfg):
        if sec != section:
            if section is not None:
                buf.write("\n")
            buf.write(f"[{sec}]\n")
            section = sec
        buf.write(f"{key} = {value}\n")
    return buf.getvalue()


def write_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_config_string(cfg))
