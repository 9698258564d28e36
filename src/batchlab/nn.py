"""Minimal feed-forward network engine with exact analytic gradients.

Layers: dense, batchnorm, relu, and a terminal softmax cross-entropy loss.
Everything is float64.  One array carries the whole batch through the
layers.  Dense products are BLAS GEMMs over fixed blocks of
:func:`leaf_block` rows, a shape set by the global batch size alone.  A
P-worker split, in which worker j owns rows [j*B/P, (j+1)*B/P) of that one
array, only orders the batch sums: a pairwise tree (from
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
    """Layer stack plus its ParamSet, batch-norm running statistics and step workspace.

    The workspace holds the arrays a training step writes, keyed by (role,
    shape, dtype).  It starts empty; the first step of each batch shape fills
    it and later steps of that shape reuse its arrays, so a step allocates no
    batch-sized array.
    """

    def __init__(self, specs, params, bn_state, layer_groups, input_dim, num_classes):
        self.specs = list(specs)
        self.params = params
        self.bn_state = bn_state  # layer index -> dict(mean, var)
        self.layer_groups = layer_groups  # per layer: (weight, bias), (scale, shift) or ()
        self.input_dim = input_dim
        self.num_classes = num_classes
        self.workspace = {}

    def buffer(self, role, shape, dtype=np.float64):
        """The workspace array for (role, shape, dtype), created on first use."""
        key = (role, shape, dtype)
        buf = self.workspace.get(key)
        if buf is None:
            buf = self.workspace[key] = np.empty(shape, dtype)
        return buf

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


def _fresh(role, shape, dtype=np.float64):
    return np.empty(shape, dtype)


def _forward(net, a, blocks, alloc, shard_sums=None):
    """The layer walk that training and evaluation share; returns (logits, records).

    `blocks(v)` shapes a dense layer's input for its GEMM, and `alloc(role,
    shape, dtype)` supplies each array the walk writes.  Only dense layers
    take new arrays for their outputs: batch norm writes its output over its
    input and relu multiplies in place, so the input `a` is never written,
    the first layer being dense.  With `shard_sums` (training), batch norm uses
    the batch statistics reduced over the shard trees, folds them into the
    running statistics `net.bn_state`, and `records[i]` holds what the backward
    needs of layer i; without it (evaluation), batch norm reads `net.bn_state`
    and nothing is recorded.
    """
    n = len(a)
    records = []
    keep = records.append if shard_sums else lambda _: None
    for i, (s, groups) in enumerate(zip(net.specs, net.layer_groups)):
        if s.kind == DENSE:
            w, b = groups
            keep(a)
            out = alloc(("dense", i), (n, s.out_dim))
            np.matmul(blocks(a), w.param, out=blocks(out))
            a = out
            a += b.param
            _check_finite(a, i)
        elif s.kind == RELU:
            mask = np.greater(a, 0, out=alloc(("relu", i), a.shape, np.bool_))
            keep(mask)
            a *= mask
        elif s.kind == BATCHNORM:
            scale, shift = groups
            st = net.bn_state[i]
            xhat = alloc(("batchnorm", i), a.shape)
            if shard_sums:
                if n < 2:
                    raise DegenerateBatchError(
                        f"batchnorm layer {i}: training-mode statistics need a batch of >= 2"
                    )
                mean = tree_reduce(list(shard_sums(a))) / n
                sq_sums = shard_sums(np.multiply(a, a, out=xhat), in_place=True)
                var = np.maximum(tree_reduce(list(sq_sums)) / n - mean * mean, 0.0)
            else:
                mean, var = st["mean"], st["var"]
            inv = 1.0 / np.sqrt(var + s.eps)
            np.subtract(a, mean, out=xhat)
            xhat *= inv
            keep((xhat, inv))
            np.multiply(xhat, scale.param, out=a)
            a += shift.param
            _check_finite(a, i)
            if shard_sums:
                st["mean"] = BN_MOMENTUM * st["mean"] + (1.0 - BN_MOMENTUM) * mean
                st["var"] = BN_MOMENTUM * st["var"] + (1.0 - BN_MOMENTUM) * var
    _check_finite(a, len(net.specs) - 1)
    return a, records


def forward_backward_shards(net, x, y, shards):
    """Run one synchronous forward+backward of `net` over the batch `x`, `y`
    split into `shards` equal shards: shard j is rows [j*B/P, (j+1)*B/P).

    `x` and `y` are float64 / int64 arrays as :func:`check_batch` returns
    them; `x` is read, never written.  Every layer runs once over the batch,
    writing every batch-sized array into `net.workspace`.
    Every dense product is one BLAS GEMM per block of c = gcd(leaf_block(B),
    B/P) consecutive rows, and the weight gradient's block partials
    x_blk.T @ d_blk are a batch sum like any other.  Every batch sum is a
    canonical tree within each shard, and the per-shard partials combine with
    the same tree; for power-of-two shard sizes that leaf_block(B) divides,
    the blocks and trees are those of the whole batch, so results are
    independent of the shard layout.  Batch-norm statistics and their
    backward coupling terms are reduced over the global batch this way
    (sync-BN), and the running statistics are updated once per layer.  A
    batch that `shards` does not divide is a PartitionError.

    Returns (loss_sum, correct_count, grads) where loss_sum is the tree-sum
    of per-example losses, correct_count the number of argmax hits, and grads
    a (shards, |W|) array whose row j is shard j's sum-convention gradient,
    laid out like `net.params.grad`.  `grads` is a workspace array, valid
    until the next call on `net`.
    """
    n = len(x)
    if shards < 1 or n % shards:
        raise PartitionError(f"batch of {n} not divisible into {shards} shards")
    m = n // shards
    c = math.gcd(leaf_block(n), m)
    buf = net.buffer

    def blocks(v):
        return v.reshape(n // c, c, *v.shape[1:])

    def shard_sums(v, in_place=False):
        # one tree_sum over the (rows per shard, P, ...) view builds all P per-shard
        # trees; the result is a view of a workspace array, or of v when in place
        v = v.reshape(shards, -1, *v.shape[1:]).swapaxes(0, 1)
        scratch = v if in_place else buf("sums", ((m + 1) // 2, *v.shape[1:]))
        return tree_sum(v, scratch)

    a, records = _forward(net, x, blocks, buf, shard_sums)

    # terminal softmax cross-entropy, written over the logits
    p = a
    np.subtract(p, p.max(axis=1, keepdims=True), out=p)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    idx = np.arange(n)
    with np.errstate(divide="ignore"):  # p == 0 gives inf, caught just below
        losses = -np.log(p[idx, y])
    _check_finite(losses, len(net.specs) - 1)
    loss_sum = float(tree_reduce(list(shard_sums(losses, in_place=True))))
    correct = int(np.count_nonzero(p.argmax(axis=1) == y))

    # backward, sum convention; row j of grads is shard j's gradient.  Each
    # dense layer's input gradient is written over its input record, which
    # is spent once the weight gradient is taken.
    grads = buf("grads", (shards, net.params.param.size))
    d = p
    d[idx, y] -= 1.0  # softmax minus one-hot
    for i in range(len(net.specs) - 2, -1, -1):
        s, rec = net.specs[i], records[i]
        if s.kind == DENSE:
            w, b = net.layer_groups[i]
            partials = buf("partials", (n // c, s.in_dim, s.out_dim))
            np.matmul(blocks(rec).swapaxes(1, 2), blocks(d), out=partials)
            grads[:, w.span] = shard_sums(partials, in_place=True).reshape(shards, -1)
            grads[:, b.span] = shard_sums(d)
            if i > 0:  # nothing uses the gradient of the network's input
                np.matmul(blocks(d), w.param.T, out=blocks(rec))
                d = rec
        elif s.kind == RELU:
            d *= rec
        elif s.kind == BATCHNORM:
            scale, shift = net.layer_groups[i]
            xhat, inv = rec
            grads[:, shift.span] = shard_sums(d)
            dx = np.multiply(d, xhat, out=buf("dxhat", d.shape))
            grads[:, scale.span] = shard_sums(dx, in_place=True)
            mean_t1 = tree_reduce(list(grads[:, shift.span])) / n
            mean_t2 = tree_reduce(list(grads[:, scale.span])) / n
            # d <- scale * inv * (d - mean_t1 - xhat * mean_t2), in place
            d -= mean_t1
            d -= np.multiply(xhat, mean_t2, out=dx)
            d *= scale.param * inv
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


def loss_and_grad(net, inputs, labels):
    """Mean softmax cross-entropy over the batch; fills the grad buffers with its gradient.

    Like every training step it folds the batch statistics into the
    batch-norm running statistics, which training itself never reads.
    """
    inputs, labels = check_batch(net, inputs, labels)
    loss_sum, _, grads = forward_backward_shards(net, inputs, labels, 1)
    n = len(inputs)
    np.divide(grads[0], n, out=net.params.grad)
    return loss_sum / n


def predict_logits(net, inputs):
    """Eval-mode forward: the training layer walk, with batch norm on the running
    statistics and each dense layer as one GEMM over all of `inputs`."""
    return _forward(net, np.asarray(inputs, dtype=np.float64), lambda v: v, _fresh)[0]


def accuracy(net, inputs, labels):
    logits = predict_logits(net, inputs)
    return float(np.mean(logits.argmax(axis=1) == np.asarray(labels)))
