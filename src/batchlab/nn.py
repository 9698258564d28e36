"""Minimal feed-forward network engine with exact analytic gradients.

Layers: dense, batchnorm, relu, and a terminal softmax cross-entropy loss.
Everything is float64.  One array carries the whole batch through the
layers.  Dense products are BLAS GEMMs over fixed blocks of
:func:`leaf_block` rows, a shape set by the global batch size alone.  A
P-worker split only orders the batch sums: a pairwise tree (from
:mod:`batchlab.reduction`) within each worker's slice, then the same tree
over the P partials.  For power-of-two slices that the block size divides,
that is the single-worker tree, so both runs perform bit-identical arithmetic
(batch-norm statistics are computed over the *global* batch, sync-BN style).
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBatchError,
    NumericOverflowError,
    PartitionError,
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


@dataclass(frozen=True)
class ParamGroup:
    """One named group: its span of the flat vectors and shaped views of it."""

    name: str
    category: str
    span: slice
    param: np.ndarray
    grad: np.ndarray
    momentum_buf: np.ndarray


class ParamSet:
    """Named parameter groups over three flat float64 vectors.

    `param`, `grad` and `momentum` each hold every group back to back, in
    construction order; a group's `.param`, `.grad` and `.momentum_buf` are
    shaped views of its span, so writes through either side are shared.
    """

    def __init__(self, groups):
        """`groups` are (name, category, initial array) triples."""
        groups = list(groups)
        names = [name for name, _, _ in groups]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate parameter group names: {names}")
        self.param = np.concatenate([a.reshape(-1) for _, _, a in groups])
        self.grad = np.zeros_like(self.param)
        self.momentum = np.zeros_like(self.param)
        self.groups = []
        start = 0
        for name, category, a in groups:
            span = slice(start, start + a.size)
            start = span.stop
            views = (v[span].reshape(a.shape) for v in (self.param, self.grad, self.momentum))
            self.groups.append(ParamGroup(name, category, span, *views))
        self._by_name = {g.name: g for g in self.groups}

    def __iter__(self):
        return iter(self.groups)

    def __getitem__(self, name):
        return self._by_name[name]

    def checksum(self):
        h = hashlib.sha256()
        for g in self.groups:
            h.update(g.name.encode())
        h.update(self.param.tobytes())
        return h.hexdigest()


class Network:
    """Layer stack plus its ParamSet and batch-norm running statistics."""

    def __init__(self, specs, params, bn_state, layer_groups, input_dim, num_classes):
        self.specs = list(specs)
        self.params = params
        self.bn_state = bn_state  # layer index -> dict(mean, var)
        self.layer_groups = layer_groups  # per layer: (weight, bias), (scale, shift) or ()
        self.input_dim = input_dim
        self.num_classes = num_classes

    def checksum(self):
        h = hashlib.sha256()
        h.update(self.params.checksum().encode())
        for i in sorted(self.bn_state):
            h.update(self.bn_state[i]["mean"].tobytes())
            h.update(self.bn_state[i]["var"].tobytes())
        return h.hexdigest()


def init_network(specs, seed):
    """Check the layer stack and build its Network with deterministic init.

    Weights ~ U(-lim, lim) with lim = sqrt(6 / (fan_in + fan_out)) drawn from
    a single PCG64 stream seeded with `seed`; biases and norm shifts start at
    zero, norm scales at one.  Same (specs, seed) gives bitwise-identical
    parameters.  A stack whose kinds, order or widths do not fit is a ConfigError.
    """
    if not specs:
        raise ConfigError("empty layer stack")
    if specs[-1].kind != SOFTMAX_XENT:
        raise ConfigError("network must end in a softmax-xent layer")
    if specs[0].kind != DENSE:
        raise ConfigError("first layer must be dense (defines the input width)")
    rng = np.random.Generator(np.random.PCG64(seed))
    layers = []  # per layer: its (name, category, initial array) groups
    bn_state = {}
    width = specs[0].in_dim
    for i, s in enumerate(specs):
        if s.kind == DENSE:
            if s.in_dim <= 0 or s.out_dim <= 0:
                raise ConfigError(f"layer {i}: dense dims must be positive")
            if s.in_dim != width:
                raise ConfigError(
                    f"layers {i - 1}->{i}: dense expects in_dim={width}, got {s.in_dim}"
                )
            lim = np.sqrt(6.0 / (s.in_dim + s.out_dim))
            w = rng.uniform(-lim, lim, size=(s.in_dim, s.out_dim))
            layers.append([(f"dense{i}.weight", WEIGHT, w),
                           (f"dense{i}.bias", BIAS, np.zeros(s.out_dim))])
            width = s.out_dim
        elif s.kind == BATCHNORM:
            if s.eps <= 0:
                raise ConfigError(f"layer {i}: batchnorm eps must be positive")
            layers.append([(f"bn{i}.scale", NORM_SCALE, np.ones(width)),
                           (f"bn{i}.shift", NORM_SHIFT, np.zeros(width))])
            bn_state[i] = {"mean": np.zeros(width), "var": np.ones(width)}
        elif s.kind == SOFTMAX_XENT and i < len(specs) - 1:
            raise ConfigError("exactly one softmax-xent layer allowed (at the end)")
        elif s.kind in (RELU, SOFTMAX_XENT):
            layers.append([])
        else:
            raise ConfigError(f"layer {i}: unknown kind {s.kind!r}")
    params = ParamSet(g for layer in layers for g in layer)
    layer_groups = [tuple(params[name] for name, _, _ in layer) for layer in layers]
    return Network(specs, params, bn_state, layer_groups, specs[0].in_dim, width)


# ---------------------------------------------------------------------------
# sharded forward / backward engine
# ---------------------------------------------------------------------------

def _check_finite(arr, layer_index):
    if not np.all(np.isfinite(arr)):
        raise NumericOverflowError(layer_index)


def leaf_block(batch):
    """Rows per dense GEMM block for a global batch of `batch`: max(1, lowbit(B) // 32).

    It depends on B alone, so every split of B whose slices it divides runs
    the same fixed-shape products; B / leaf_block(B) is at most 32 blocks.
    """
    return max(1, (batch & -batch) // 32)


def _forward(net, a, blocks, shard_sums=None, update_running=False):
    """The layer walk that training and evaluation share; returns (logits, records).

    `blocks(v)` shapes a dense layer's input for its GEMM.  With `shard_sums`
    (training), batch norm uses the batch statistics reduced over the shard
    trees and `records[i]` holds what the backward needs of layer i; without
    it, batch norm reads `net.bn_state` and nothing is recorded.
    """
    n = len(a)
    records = []
    keep = records.append if shard_sums else lambda _: None
    for i, (s, groups) in enumerate(zip(net.specs, net.layer_groups)):
        if s.kind == DENSE:
            w, b = groups
            keep(a)
            a = (blocks(a) @ w.param).reshape(n, -1)
            a += b.param
            _check_finite(a, i)
        elif s.kind == RELU:
            mask = a > 0
            keep(mask)
            a = a * mask
        elif s.kind == BATCHNORM:
            scale, shift = groups
            st = net.bn_state[i]
            if shard_sums:
                if n < 2:
                    raise DegenerateBatchError(
                        f"batchnorm layer {i}: training-mode statistics need a batch of >= 2"
                    )
                mean = tree_reduce(list(shard_sums(a))) / n
                var = np.maximum(tree_reduce(list(shard_sums(a * a))) / n - mean * mean, 0.0)
            else:
                mean, var = st["mean"], st["var"]
            inv = 1.0 / np.sqrt(var + s.eps)
            xhat = (a - mean) * inv
            keep((xhat, inv))
            a = scale.param * xhat + shift.param
            _check_finite(a, i)
            if update_running:
                st["mean"] = BN_MOMENTUM * st["mean"] + (1.0 - BN_MOMENTUM) * mean
                st["var"] = BN_MOMENTUM * st["var"] + (1.0 - BN_MOMENTUM) * var
    _check_finite(a, len(net.specs) - 1)
    return a, records


def forward_backward_shards(net, shard_x, shard_y, update_running=True):
    """Run one synchronous forward+backward of `net` over equal batch shards.

    The shards are concatenated and every layer runs once over the batch.
    Every dense product is one BLAS GEMM per block of c = gcd(leaf_block(B),
    B/P) consecutive rows, and the weight gradient's block partials
    x_blk.T @ d_blk are a batch sum like any other.  Every batch sum is a
    canonical tree within each shard, and the per-shard partials combine with
    the same tree; for power-of-two shard sizes that leaf_block(B) divides,
    the blocks and trees are those of the whole batch, so results are
    independent of the shard layout.  Batch-norm statistics and their
    backward coupling terms are reduced over the global batch this way
    (sync-BN), and the running statistics are updated once per layer.

    Returns (loss_sum, correct_count, grads) where loss_sum is the tree-sum
    of per-example losses, correct_count the number of argmax hits, and grads
    a (shards, |W|) array whose row j is shard j's sum-convention gradient,
    laid out like `net.params.grad`.
    """
    sizes = [len(x) for x in shard_x]
    if len(set(sizes)) > 1:
        raise PartitionError(f"shards of unequal size {sizes}")
    nshards, m = len(sizes), sizes[0]
    n = nshards * m
    c = math.gcd(leaf_block(n), m)
    a = np.asarray(np.concatenate(shard_x), dtype=np.float64)
    labels = np.asarray(np.concatenate(shard_y), dtype=np.int64)

    def blocks(v):
        return v.reshape(n // c, c, *v.shape[1:])

    def shard_sums(v):
        # one tree_sum over the (rows per shard, P, ...) view builds all P per-shard trees
        return tree_sum(v.reshape(nshards, -1, *v.shape[1:]).swapaxes(0, 1))

    a, records = _forward(net, a, blocks, shard_sums, update_running)

    # terminal softmax cross-entropy
    z = a - a.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    idx = np.arange(n)
    with np.errstate(divide="ignore"):  # p == 0 gives inf, caught just below
        losses = -np.log(p[idx, labels])
    _check_finite(losses, len(net.specs) - 1)
    loss_sum = float(tree_reduce(list(shard_sums(losses))))
    correct = int(np.count_nonzero(p.argmax(axis=1) == labels))

    # backward, sum convention; row j of grads is shard j's gradient
    grads = np.empty((nshards, net.params.param.size))
    d = p
    d[idx, labels] -= 1.0  # softmax minus one-hot
    for i in range(len(net.specs) - 2, -1, -1):
        s, rec = net.specs[i], records[i]
        if s.kind == DENSE:
            w, b = net.layer_groups[i]
            partials = blocks(rec).swapaxes(1, 2) @ blocks(d)
            grads[:, w.span] = shard_sums(partials).reshape(nshards, -1)
            grads[:, b.span] = shard_sums(d)
            d = (blocks(d) @ w.param.T).reshape(n, -1)
        elif s.kind == RELU:
            d = d * rec
        elif s.kind == BATCHNORM:
            scale, shift = net.layer_groups[i]
            xhat, inv = rec
            grads[:, shift.span] = t1 = shard_sums(d)
            grads[:, scale.span] = t2 = shard_sums(d * xhat)
            big_t1, big_t2 = tree_reduce(list(t1)), tree_reduce(list(t2))
            d = scale.param * inv * (d - big_t1 / n - xhat * (big_t2 / n))
    return loss_sum, correct, grads


# ---------------------------------------------------------------------------
# batch check and single-network API (mean-loss convention)
# ---------------------------------------------------------------------------

def check_batch(net, inputs, labels):
    """Reject a batch that does not fit `net`; return it as float64 / int64 arrays.

    The inputs must be 2-D with `net.input_dim` columns, there must be one
    label per example, and every label must name one of the network's
    `num_classes` outputs.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if inputs.ndim != 2 or inputs.shape[1] != net.input_dim:
        raise ConfigError(
            f"batch shape {inputs.shape} incompatible with input width {net.input_dim}"
        )
    if labels.shape != (len(inputs),):
        raise ConfigError(f"labels of shape {labels.shape} for {len(inputs)} examples")
    lo, hi = labels.min(initial=0), labels.max(initial=0)
    if lo < 0 or hi >= net.num_classes:
        raise ConfigError(
            f"labels span [{lo}, {hi}] but the network has {net.num_classes} classes"
        )
    return inputs, labels


def loss_and_grad(net, inputs, labels, update_running=True):
    """Mean softmax cross-entropy over the batch; fills the grad buffers with its gradient."""
    inputs, labels = check_batch(net, inputs, labels)
    loss_sum, _, grads = forward_backward_shards(
        net, [inputs], [labels], update_running=update_running
    )
    n = len(inputs)
    np.divide(grads[0], n, out=net.params.grad)
    return loss_sum / n


def predict_logits(net, inputs):
    """Eval-mode forward: the training layer walk, with batch norm on the running
    statistics and each dense layer as one GEMM over all of `inputs`."""
    return _forward(net, np.asarray(inputs, dtype=np.float64), lambda v: v)[0]


def accuracy(net, inputs, labels):
    logits = predict_logits(net, inputs)
    return float(np.mean(logits.argmax(axis=1) == np.asarray(labels)))
