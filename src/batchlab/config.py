"""Experiment configuration: a flat INI-style key=value format.

Sections: [network], [hyper], [cluster], [dataset], [output], and an
optional [cost] for the analytical model, with every key listed once in
SCHEMA.  Unknown sections and keys, and dataset keys the chosen kind never
reads, are rejected, so a misspelled or ignored option fails loudly.
parse_config(write_config(cfg)) returns an equal ExperimentConfig.
"""

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

from . import costmodel, nn
from .errors import ConfigError, PartitionError
from .optim import HyperParams

# The [dataset] keys each dataset kind reads.
_SYNTHETIC = frozenset({"kind", "n", "num_classes", "input_dim", "seed", "noise"})
DATASET_KEYS = {"synthetic-blobs": _SYNTHETIC, "synthetic-spirals": _SYNTHETIC,
                "idx-file": frozenset({"kind", "num_classes", "seed", "images", "labels"})}


@dataclass
class DatasetConfig:
    kind: str
    n: int = 0
    num_classes: int = 2
    input_dim: int = 2
    seed: int = 0
    noise: float = None
    images: str = ""
    labels: str = ""

    def __post_init__(self):
        if self.kind not in DATASET_KEYS:
            raise ConfigError(f"unknown dataset kind {self.kind!r}; have {sorted(DATASET_KEYS)}")
        if self.seed < 0:
            raise ConfigError(f"need dataset seed >= 0, got {self.seed}")
        if self.noise is not None and not 0 <= self.noise < math.inf:
            raise ConfigError(f"need a finite dataset noise >= 0, got {self.noise!r}")


@dataclass
class CostConfig:
    network: str = "mellanox_fdr"
    gamma: float = costmodel.P100_GAMMA

    def __post_init__(self):
        # raises ConfigError for an unknown preset or a gamma that is not finite and > 0
        costmodel.cluster_preset(self.network, gamma=self.gamma)


@dataclass
class ExperimentConfig:
    layers: list
    hyper: HyperParams
    workers: int
    seed: int
    dataset: DatasetConfig
    output_dir: str
    cost: CostConfig = field(default_factory=CostConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"need cluster seed >= 0, got {self.seed}")
        if self.workers < 1:
            raise ConfigError("need at least one worker")
        if self.hyper.batch_size % self.workers:
            raise PartitionError(
                f"global batch {self.hyper.batch_size} not divisible by {self.workers} workers"
            )


# Every settable (section, key) in header order, with the ExperimentConfig
# attribute it sets (dotted through the hyper/dataset/cost record).  The
# field's type picks the parser and formatter; its default is the key's.
SCHEMA = (
    ("network", "layers", "layers"),
    ("hyper", "base_lr", "hyper.base_lr"),
    ("hyper", "momentum", "hyper.momentum"),
    ("hyper", "weight_decay", "hyper.weight_decay"),
    ("hyper", "poly_power", "hyper.poly_power"),
    ("hyper", "warmup_epochs", "hyper.warmup_epochs"),
    ("hyper", "epochs", "hyper.epochs"),
    ("hyper", "batch_size", "hyper.batch_size"),
    ("hyper", "lars_enabled", "hyper.lars_enabled"),
    ("hyper", "lars_trust", "hyper.lars_trust"),
    ("hyper", "lars_skip", "hyper.lars_skip_categories"),
    ("cluster", "workers", "workers"),
    ("cluster", "seed", "seed"),
    ("dataset", "kind", "dataset.kind"),
    ("dataset", "n", "dataset.n"),
    ("dataset", "num_classes", "dataset.num_classes"),
    ("dataset", "input_dim", "dataset.input_dim"),
    ("dataset", "seed", "dataset.seed"),
    ("dataset", "noise", "dataset.noise"),
    ("dataset", "images", "dataset.images"),
    ("dataset", "labels", "dataset.labels"),
    ("output", "dir", "output_dir"),
    ("cost", "network", "cost.network"),
    ("cost", "gamma", "cost.gamma"),
)


# layer kind -> (constructor, type of each argument); relu and softmax-xent take none
_LAYER_KINDS = {
    nn.DENSE: (nn.dense, int),
    nn.BATCHNORM: (nn.batchnorm, float),
    nn.RELU: (nn.relu, str),
    nn.SOFTMAX_XENT: (nn.softmax_xent, str),
}


def parse_layers(text):
    """Parse a layer stack like 'dense 2 64, batchnorm, relu, ..., softmax-xent'."""
    specs = []
    for i, chunk in enumerate(t.strip() for t in text.split(",")):
        if not chunk:
            raise ConfigError(f"empty layer entry at position {i}")
        kind, *args = chunk.split()
        if kind not in _LAYER_KINDS:
            raise ConfigError(f"unknown layer kind {kind!r} at position {i}")
        make, arg_type = _LAYER_KINDS[kind]
        try:
            specs.append(make(*map(arg_type, args)))
        except (TypeError, ValueError) as exc:  # wrong argument count or value
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
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# field type -> (parse text, format value)
_CODECS = {
    float: (float, repr),
    int: (int, str),
    str: (str, str),
    bool: (_bool, lambda v: "true" if v else "false"),
    frozenset: (lambda t: frozenset(filter(None, map(str.strip, t.split(",")))),
                lambda v: ",".join(sorted(v))),
    list: (parse_layers, format_layers),
}

# ExperimentConfig attribute -> record class: hyper, dataset, cost
_RECORDS = {f.name: f.type for f in fields(ExperimentConfig) if is_dataclass(f.type)}


def _resolve(path):
    """(record attribute or None, dataclass field) for a SCHEMA path."""
    record, _, name = path.rpartition(".")
    owner = _RECORDS.get(record, ExperimentConfig)
    return record or None, next(f for f in fields(owner) if f.name == name)


_ROWS = tuple((sec, key, *_resolve(path)) for sec, key, path in SCHEMA)
_SECTIONS = {sec for sec, _, _ in SCHEMA}
_KEYS = {(sec, key) for sec, key, _ in SCHEMA}


def parse_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_string(text, path)


def parse_config_string(text, origin="<string>"):
    """Parse config text; every error is a ConfigError that starts with `origin`."""
    try:
        return _parse(text, origin)
    except (configparser.Error, ConfigError) as exc:
        raise ConfigError(f"{origin}: {exc}") from exc


def _parse(text, origin):
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=None)
    cp.read_string(text, source=str(origin))
    given = {(sec, key): value for sec in cp.sections() for key, value in cp.items(sec, raw=True)}
    unknown = [f"section [{sec}]" for sec in cp.sections() if sec not in _SECTIONS]
    unknown += [f"key {sec}.{key}" for sec, key in given if (sec, key) not in _KEYS]
    if unknown:
        raise ConfigError(f"unknown {', '.join(unknown)}")
    values = {record: {} for record in (None, *_RECORDS)}
    try:
        for sec, key, record, f in _ROWS:
            if (sec, key) in given:
                values[record][f.name] = _CODECS[f.type][0](given[sec, key])
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing config key {sec}.{key}")
        records = {record: cls(**values[record]) for record, cls in _RECORDS.items()}
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    kind = records["dataset"].kind
    stray = [f"dataset.{key}" for key in values["dataset"] if key not in DATASET_KEYS[kind]]
    if stray:
        raise ConfigError(f"dataset kind {kind} does not read {', '.join(stray)}")
    return ExperimentConfig(**values[None], **records)


def config_items(cfg):
    """(section, key, value) triples in header order, but for None values and
    dataset keys the dataset kind does not read."""
    reads = DATASET_KEYS[cfg.dataset.kind]
    items = []
    for sec, key, record, f in _ROWS:
        value = getattr(getattr(cfg, record) if record else cfg, f.name)
        if value is not None and (sec != "dataset" or key in reads):
            items.append((sec, key, _CODECS[f.type][1](value)))
    return items


def write_config_string(cfg):
    lines = {}
    for sec, key, value in config_items(cfg):
        lines.setdefault(sec, []).append(f"{key} = {value}\n")
    return "\n".join(f"[{sec}]\n" + "".join(body) for sec, body in lines.items())


def write_config(cfg, path):
    Path(path).write_text(write_config_string(cfg), encoding="utf-8")
