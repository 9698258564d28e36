"""Minimal feed-forward network engine with exact analytic gradients.

Layers: dense, batchnorm, relu, and a terminal softmax cross-entropy loss.
Everything is float64.  All batch-level reductions use the deterministic
pairwise tree from :mod:`batchlab.reduction`, and the whole forward/backward
is expressed over a list of batch shards so that a P-worker data-parallel
run and the single-worker run perform bit-identical arithmetic (batch-norm
statistics are computed over the *global* batch, sync-BN style).
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBatchError,
    NumericOverflowError,
    StaleCacheError,
)
from .reduction import tree_reduce, tree_sum

DENSE = "dense"
BATCHNORM = "batchnorm"
RELU = "relu"
SOFTMAX_XENT = "softmax-xent"

BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # running-statistics decay for eval mode

WEIGHT = "weight"
BIAS = "bias"
NORM_SCALE = "norm-scale"
NORM_SHIFT = "norm-shift"


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_dim: int = 0
    out_dim: int = 0
    eps: float = BN_EPS


def dense(in_dim, out_dim):
    return LayerSpec(DENSE, in_dim=in_dim, out_dim=out_dim)


def batchnorm(eps=BN_EPS):
    return LayerSpec(BATCHNORM, eps=eps)


def relu():
    return LayerSpec(RELU)


def softmax_xent():
    return LayerSpec(SOFTMAX_XENT)


@dataclass
class ParamGroup:
    name: str
    param: np.ndarray
    grad: np.ndarray
    momentum_buf: np.ndarray
    category: str


class ParamSet:
    """Ordered, named parameter groups with grad and momentum buffers."""

    def __init__(self, groups):
        self.groups = list(groups)
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate parameter group names: {names}")
        self._by_name = {g.name: g for g in self.groups}

    def __iter__(self):
        return iter(self.groups)

    def __len__(self):
        return len(self.groups)

    def __getitem__(self, name):
        return self._by_name[name]

    def set_grads(self, grads):
        """Copy a name -> array mapping into the grad buffers."""
        for g in self.groups:
            np.copyto(g.grad, grads[g.name])

    def checksum(self):
        h = hashlib.sha256()
        for g in self.groups:
            h.update(g.name.encode())
            h.update(np.ascontiguousarray(g.param).tobytes())
        return h.hexdigest()


def validate_specs(specs):
    """Check dimension compatibility; return the feature width before each layer."""
    if not specs:
        raise ConfigError("empty layer stack")
    if specs[-1].kind != SOFTMAX_XENT:
        raise ConfigError("network must end in a softmax-xent layer")
    if sum(1 for s in specs if s.kind == SOFTMAX_XENT) != 1:
        raise ConfigError("exactly one softmax-xent layer allowed (at the end)")
    if specs[0].kind != DENSE:
        raise ConfigError("first layer must be dense (defines the input width)")
    widths = []
    width = specs[0].in_dim
    for i, s in enumerate(specs):
        widths.append(width)
        if s.kind == DENSE:
            if s.in_dim <= 0 or s.out_dim <= 0:
                raise ConfigError(f"layer {i}: dense dims must be positive")
            if s.in_dim != width:
                raise ConfigError(
                    f"layers {i - 1}->{i}: dense expects in_dim={width}, got {s.in_dim}"
                )
            width = s.out_dim
        elif s.kind == BATCHNORM:
            if s.eps <= 0:
                raise ConfigError(f"layer {i}: batchnorm eps must be positive")
        elif s.kind in (RELU, SOFTMAX_XENT):
            pass
        else:
            raise ConfigError(f"layer {i}: unknown kind {s.kind!r}")
    return widths


class Network:
    """Layer stack plus its ParamSet and batch-norm running statistics."""

    def __init__(self, specs, params, bn_state, input_dim, num_classes):
        self.specs = list(specs)
        self.params = params
        self.bn_state = bn_state  # layer index -> dict(mean, var)
        self.input_dim = input_dim
        self.num_classes = num_classes
        self._live_cache = None

    def checksum(self):
        h = hashlib.sha256()
        h.update(self.params.checksum().encode())
        for i in sorted(self.bn_state):
            h.update(self.bn_state[i]["mean"].tobytes())
            h.update(self.bn_state[i]["var"].tobytes())
        return h.hexdigest()


def init_network(specs, seed):
    """Build a Network with deterministic scaled-uniform weight init.

    Weights ~ U(-lim, lim) with lim = sqrt(6 / (fan_in + fan_out)) drawn from
    a single PCG64 stream seeded with `seed`; biases and norm shifts start at
    zero, norm scales at one.  Same (specs, seed) gives bitwise-identical
    parameters.
    """
    widths = validate_specs(specs)
    rng = np.random.Generator(np.random.PCG64(seed))
    groups = []
    bn_state = {}
    for i, s in enumerate(specs):
        if s.kind == DENSE:
            lim = np.sqrt(6.0 / (s.in_dim + s.out_dim))
            w = rng.uniform(-lim, lim, size=(s.in_dim, s.out_dim))
            b = np.zeros(s.out_dim)
            groups.append(ParamGroup(f"dense{i}.weight", w, np.zeros_like(w), np.zeros_like(w), WEIGHT))
            groups.append(ParamGroup(f"dense{i}.bias", b, np.zeros_like(b), np.zeros_like(b), BIAS))
        elif s.kind == BATCHNORM:
            d = widths[i]
            scale = np.ones(d)
            shift = np.zeros(d)
            groups.append(
                ParamGroup(f"bn{i}.scale", scale, np.zeros_like(scale), np.zeros_like(scale), NORM_SCALE)
            )
            groups.append(
                ParamGroup(f"bn{i}.shift", shift, np.zeros_like(shift), np.zeros_like(shift), NORM_SHIFT)
            )
            bn_state[i] = {"mean": np.zeros(d), "var": np.ones(d)}
    num_classes = widths[-1]
    return Network(specs, ParamSet(groups), bn_state, specs[0].in_dim, num_classes)


# ---------------------------------------------------------------------------
# sharded forward / backward engine
# ---------------------------------------------------------------------------

@dataclass
class EngineCache:
    global_n: int
    grads: dict  # sum-convention gradients, precomputed by forward_loss
    owner: object = None


def _check_finite(arr, layer_index):
    if not np.all(np.isfinite(arr)):
        raise NumericOverflowError(layer_index)


def _dense_forward(x, w, b):
    # Explicit broadcast-multiply + per-row reduction instead of BLAS matmul:
    # each example's result is then bit-identical regardless of batch size.
    return (x[:, :, None] * w[None, :, :]).sum(axis=1) + b


def _dense_backward_input(d, w):
    return (d[:, None, :] * w[None, :, :]).sum(axis=2)


def forward_backward_shards(net, shard_x, shard_y, update_running=True):
    """Run one synchronous forward+backward of `net` over batch shards.

    Every shard reads the same network.  Per-example terms are summed within
    each shard with the canonical tree, and the per-shard partials combine
    with the same tree; for power-of-two shard sizes the per-shard trees
    compose into the tree of the whole batch, so results are independent of
    the shard layout.  Batch-norm statistics and their backward coupling
    terms are reduced over the global batch this way (sync-BN), and the
    running statistics are updated once per layer.

    Returns (loss_sum, correct_count, shard_grads) where loss_sum is the
    tree-sum of per-example losses, correct_count the number of argmax hits,
    and shard_grads a per-shard dict of sum-convention parameter gradients.
    """
    specs = net.specs
    params = net.params
    nshards = len(shard_x)
    sizes = [len(x) for x in shard_x]
    n = sum(sizes)
    acts = [np.asarray(x, dtype=np.float64) for x in shard_x]
    labels = [np.asarray(y, dtype=np.int64) for y in shard_y]
    records = []

    for i, s in enumerate(specs):
        if s.kind == DENSE:
            w = params[f"dense{i}.weight"].param
            b = params[f"dense{i}.bias"].param
            records.append(acts)
            acts = [_dense_forward(x, w, b) for x in acts]
            for a in acts:
                _check_finite(a, i)
        elif s.kind == RELU:
            masks = [a > 0 for a in acts]
            records.append(masks)
            acts = [a * m for a, m in zip(acts, masks)]
        elif s.kind == BATCHNORM:
            if n < 2:
                raise DegenerateBatchError(
                    f"batchnorm layer {i}: training-mode statistics need a batch of >= 2"
                )
            s1 = tree_reduce([tree_sum(a) for a in acts])
            s2 = tree_reduce([tree_sum(a * a) for a in acts])
            mean = s1 / n
            var = np.maximum(s2 / n - mean * mean, 0.0)
            inv = 1.0 / np.sqrt(var + s.eps)
            gamma = params[f"bn{i}.scale"].param
            beta = params[f"bn{i}.shift"].param
            xhats = [(a - mean) * inv for a in acts]
            records.append((xhats, inv))
            acts = [gamma * xhat + beta for xhat in xhats]
            for a in acts:
                _check_finite(a, i)
            if update_running:
                st = net.bn_state[i]
                st["mean"] = BN_MOMENTUM * st["mean"] + (1.0 - BN_MOMENTUM) * mean
                st["var"] = BN_MOMENTUM * st["var"] + (1.0 - BN_MOMENTUM) * var
        else:  # softmax-xent, last layer
            records.append(None)

    # terminal softmax cross-entropy
    probs = []
    correct = 0
    shard_loss = []
    for j in range(nshards):
        z = acts[j]
        _check_finite(z, len(specs) - 1)
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        idx = np.arange(sizes[j])
        with np.errstate(divide="ignore"):  # p == 0 gives inf, caught just below
            losses = -np.log(p[idx, labels[j]])
        _check_finite(losses, len(specs) - 1)
        shard_loss.append(tree_sum(losses))
        correct += int(np.count_nonzero(p.argmax(axis=1) == labels[j]))
        probs.append(p)
    loss_sum = float(tree_reduce(shard_loss))

    # backward, sum convention
    shard_grads = [dict() for _ in range(nshards)]
    deltas = []
    for j in range(nshards):
        onehot = np.zeros_like(probs[j])
        onehot[np.arange(sizes[j]), labels[j]] = 1.0
        deltas.append(probs[j] - onehot)

    for i in range(len(specs) - 2, -1, -1):
        s = specs[i]
        rec = records[i]
        if s.kind == DENSE:
            w = params[f"dense{i}.weight"].param
            for j in range(nshards):
                x = rec[j]
                d = deltas[j]
                shard_grads[j][f"dense{i}.weight"] = tree_sum(np.einsum("bi,bj->bij", x, d))
                shard_grads[j][f"dense{i}.bias"] = tree_sum(d)
                deltas[j] = _dense_backward_input(d, w)
        elif s.kind == RELU:
            deltas = [d * m for d, m in zip(deltas, rec)]
        elif s.kind == BATCHNORM:
            xhats, inv = rec
            gamma = params[f"bn{i}.scale"].param
            t1 = [tree_sum(d) for d in deltas]
            t2 = [tree_sum(d * xhat) for d, xhat in zip(deltas, xhats)]
            big_t1 = tree_reduce(t1)
            big_t2 = tree_reduce(t2)
            for j in range(nshards):
                shard_grads[j][f"bn{i}.scale"] = t2[j]
                shard_grads[j][f"bn{i}.shift"] = t1[j]
                deltas[j] = gamma * inv * (deltas[j] - big_t1 / n - xhats[j] * (big_t2 / n))
    return loss_sum, correct, shard_grads


# ---------------------------------------------------------------------------
# single-network convenience API (mean-loss convention)
# ---------------------------------------------------------------------------

def forward_loss(net, inputs, labels, update_running=True):
    """Mean softmax cross-entropy over the batch; returns (loss, cache)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if inputs.ndim != 2 or inputs.shape[1] != net.input_dim:
        raise ConfigError(
            f"batch shape {inputs.shape} incompatible with input width {net.input_dim}"
        )
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= net.num_classes:
        raise ConfigError("labels out of range")
    loss_sum, _, shard_grads = forward_backward_shards(
        net, [inputs], [labels], update_running=update_running
    )
    n = len(inputs)
    cache = EngineCache(n, shard_grads[0], owner=net)  # backward is precomputed; cache gates it
    net._live_cache = cache
    return loss_sum / n, cache


def backward(net, cache):
    """Fill grad buffers with the gradient of the *mean* batch loss."""
    if cache is None or cache.owner is not net or net._live_cache is not cache:
        raise StaleCacheError("backward() requires the cache from the most recent forward_loss()")
    n = cache.global_n
    for g in net.params:
        np.copyto(g.grad, cache.grads[g.name] / n)
    net._live_cache = None


def predict_logits(net, inputs):
    """Eval-mode forward (batch norm uses running statistics); fast path."""
    x = np.asarray(inputs, dtype=np.float64)
    for i, s in enumerate(net.specs):
        if s.kind == DENSE:
            x = x @ net.params[f"dense{i}.weight"].param + net.params[f"dense{i}.bias"].param
        elif s.kind == RELU:
            x = np.maximum(x, 0.0)
        elif s.kind == BATCHNORM:
            st = net.bn_state[i]
            xhat = (x - st["mean"]) / np.sqrt(st["var"] + s.eps)
            x = net.params[f"bn{i}.scale"].param * xhat + net.params[f"bn{i}.shift"].param
    return x


def accuracy(net, inputs, labels):
    logits = predict_logits(net, inputs)
    return float(np.mean(logits.argmax(axis=1) == np.asarray(labels)))
