"""Minimal feed-forward network engine with exact analytic gradients.

Layers: dense, batchnorm, relu, and a terminal softmax cross-entropy loss.
Everything is float64.  One array carries the whole batch through the
layers.  Dense products are BLAS GEMMs over fixed blocks of
:func:`leaf_block` rows, a shape set by the global batch size alone.  A
P-worker split, in which worker j owns rows [j*B/P, (j+1)*B/P) of the
batch, only orders the batch sums: the pairwise tree of
:mod:`batchlab.reduction` within each worker's slice, then the same tree
over the P partials.  For power-of-two slices that the block size divides,
that is the single-worker tree, so both runs perform bit-identical arithmetic
(batch-norm statistics are computed over the *global* batch, sync-BN style).
A training step carries the batch with each worker's rows in
`reduction.tree_order` (:func:`_tree_layout`), so that every batch sum,
the whole parameter gradient among them, runs the in-place levels of
`reduction.tree_levels` over contiguous halves, then
`reduction.stride_levels` across the workers; the layout changes which
rows are stored where, not which rows are added.  Those levels and every
other view a step uses are built once per (B, P), in the step plan kept on
the Network.  A step checks its loss once, and the layer walk reruns with
a check per layer only to name the layer at which a non-finite step
overflowed.
"""

import hashlib
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBatchError,
    NumericOverflowError,
    PartitionError,
)
# A step runs prebuilt levels and calls neither tree_sum nor tree_reduce, but
# nn keeps both names: bench/spans.py traces the engine's batch sums through them.
from .reduction import (  # noqa: F401
    run_levels,
    stride_levels,
    tree_levels,
    tree_order,
    tree_reduce,
    tree_sum,
)

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
    `rate` and `step` are flat scratch vectors of the same layout that the
    optimizer update writes.
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
        self.rate = np.empty_like(self.param)
        self.step = np.empty_like(self.param)
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

    The workspace holds the float64 arrays a training step writes, keyed by
    (role, shape), and `plans` the step plan of each (B, P) split, the views
    of those arrays that a step uses.  Both start empty; the first step of
    each split fills them and later steps reuse them, so a step allocates no
    batch-sized array and builds no view.
    """

    def __init__(self, specs, params, bn_state, layer_groups, input_dim, num_classes):
        self.specs = list(specs)
        self.params = params
        self.bn_state = bn_state  # layer index -> dict(mean, var)
        self.layer_groups = layer_groups  # per layer: (weight, bias), (scale, shift) or ()
        self.input_dim = input_dim
        self.num_classes = num_classes
        self.workspace = {}
        self.plans = {}  # (B, P) -> step plan, see nn._step_plan

    def buffer(self, role, shape):
        """The float64 workspace array for (role, shape), created on first use."""
        key = (role, shape)
        buf = self.workspace.get(key)
        if buf is None:
            buf = self.workspace[key] = np.empty(shape)
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
            if not 0 < s.eps < math.inf:
                raise ConfigError(f"layer {i}: batchnorm eps must be finite and positive")
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

def leaf_block(batch):
    """Rows per dense GEMM block for a global batch of `batch`: max(1, lowbit(B) // 32).

    It depends on B alone, so every split of B whose slices it divides runs
    the same fixed-shape products; B / leaf_block(B) is at most 32 blocks.
    """
    return max(1, (batch & -batch) // 32)


def bitwise_invariant(batch, shards):
    """Whether splitting a batch of `batch` rows into `shards` shards gives the
    1-shard bits: one shard, or `batch / shards` a power of two that
    :func:`leaf_block` divides, so the split runs the 1-shard GEMM blocks and
    trees.  `shards` must divide `batch`.
    """
    local = batch // shards
    return shards == 1 or ((local & (local - 1)) == 0 and local % leaf_block(batch) == 0)


def _fresh(role, shape):
    return np.empty(shape)


def _layer_views(net, x, blocks, alloc, grad=None):
    """Per layer, the arrays and views the layer walk over the batch `x` uses.

    `blocks(v)` shapes a dense layer's input or output for its GEMM, and
    `alloc(role, shape)` supplies each array the walk writes.  Layer i's
    views hold in `a` the array it reads.  Only dense layers take new arrays
    for their outputs: batch norm writes its output over its input and relu
    multiplies it in place by a float 0/1 mask, so `x` is never written, the
    first layer being dense.  With `grad` (a training step's gradient rows
    and level builders, see :func:`_step_plan`), batch norm also gets the
    levels that reduce its batch statistics, and every layer the views its
    backward uses.
    """
    n = len(x)
    layers = []
    a = x
    for i, (s, groups) in enumerate(zip(net.specs, net.layer_groups)):
        v = SimpleNamespace(a=a)
        if s.kind == DENSE:
            w, b = groups
            v.weight, v.bias = w.param, b.param
            v.out = a = alloc(("dense", i), (n, s.out_dim))
            v.a_blocks, v.out_blocks = blocks(v.a), blocks(v.out)
        elif s.kind == RELU:
            v.mask = alloc(("relu", i), a.shape)
        elif s.kind == BATCHNORM:
            scale, shift = groups
            v.scale, v.shift = scale.param, shift.param
            v.xhat = alloc(("batchnorm", i), a.shape)
            v.inv = alloc(("bninv", i), a.shape[1:])
        layers.append(v)
        if grad is None:
            continue
        part, block_levels, shard_levels = grad
        if s.kind == DENSE:
            v.a_blocks_t, v.weight_t = v.a_blocks.swapaxes(1, 2), w.param.T
            v.wpart = part[:, w.span].reshape(-1, s.in_dim, s.out_dim)
            v.bpart = part[:, b.span]
            v.bias_levels, v.bias_sums = block_levels(v.out)
        elif s.kind == BATCHNORM:
            if n < 2:
                raise DegenerateBatchError(
                    f"batchnorm layer {i}: training-mode statistics need a batch of >= 2"
                )
            # one tree over the stacked [a, a*a] forward and [d * xhat, d]
            # backward; the latter is laid out like the adjacent scale and
            # shift spans, and its batch sums give the coupling terms
            stats = alloc("bnsums", (n, 2, a.shape[1]))
            v.halves = stats[:, 0], stats[:, 1]
            v.stat_levels, v.stat_sums = shard_levels(stats)
            v.means = alloc(("bnmeans", i), (2, a.shape[1]))
            v.mean_rows = tuple(v.means)
            v.var = alloc(("bnvar", i), a.shape[1:])
            v.block_levels, sums = block_levels(stats)
            v.spart = part[:, scale.span.start:shift.span.stop]
            v.spart_sums = sums.reshape(len(sums), -1)
            v.coupling_levels, v.coupling_sums = shard_levels(sums)
    return layers


def _forward(net, plan, check_each=False):
    """The layer walk that training and evaluation share; returns the logits.

    `plan` holds the input array and each layer's views (:func:`_layer_views`).
    In a training plan, batch norm uses the batch statistics reduced over the
    shard trees, left in its `mean_rows` and `var` for the caller to fold
    into the running statistics `net.bn_state` once the step is known to be
    finite; in an evaluation plan it reads `net.bn_state`.  The walk checks
    nothing unless `check_each`: then a layer whose output is not finite
    raises NumericOverflowError naming it.
    """
    a = plan.input
    for i, (s, v) in enumerate(zip(net.specs, plan.layers)):
        if s.kind == DENSE:
            np.matmul(v.a_blocks, v.weight, out=v.out_blocks)
            a = v.out
            a += v.bias
        elif s.kind == RELU:
            np.greater(a, 0, out=v.mask)
            a *= v.mask
        elif s.kind == BATCHNORM:
            if plan.training:
                sum_x, sum_xx = v.halves
                np.copyto(sum_x, a)
                np.multiply(a, a, out=sum_xx)
                run_levels(v.stat_levels)
                np.divide(v.stat_sums, len(a), out=v.means)
                mean, sq_mean = v.mean_rows
                var = np.multiply(mean, mean, out=v.var)
                np.subtract(sq_mean, var, out=var)
                np.maximum(var, 0.0, out=var)
            else:
                st = net.bn_state[i]
                mean, var = st["mean"], st["var"]
            inv = np.add(var, s.eps, out=v.inv)
            np.sqrt(inv, out=inv)
            np.divide(1.0, inv, out=inv)
            np.subtract(a, mean, out=v.xhat)
            v.xhat *= inv
            np.multiply(v.xhat, v.scale, out=a)
            a += v.shift
        if check_each and not np.isfinite(a).all():
            raise NumericOverflowError(i)
    return a


def _overflow(net, plan):
    """The NumericOverflowError of a walk over `plan` that did not end finite.

    The walk reruns with a check after every layer, which names the first
    layer whose output is not finite; if every layer's is, the loss was not,
    and the error names the loss layer.
    """
    try:
        _forward(net, plan, check_each=True)
    except NumericOverflowError as exc:
        return exc
    return NumericOverflowError(len(net.specs) - 1)


def _tree_layout(n, shards):
    """The row permutation that gathers a batch of `n` rows in `shards` shards into tree order.

    With m = n / shards, layout row t*shards + j is batch row
    j*m + tree_order(m)[t]: each shard's rows in `reduction.tree_order`,
    shard-minor, so that a (m, shards, ...) view of the layout puts each
    level of every shard's tree in contiguous rows.
    """
    m = n // shards
    return (np.arange(shards) * m + tree_order(m)[:, None]).reshape(-1)


def _step_plan(net, n, shards):
    """Every array and view a training step of `n` rows in `shards` shards uses.

    Built at the first step of that shape and kept in `net.plans`, so that a
    warm step makes no view and looks up no workspace array.  Every batch
    sum is a list of in-place steps (`reduction.tree_levels`): within each
    GEMM block, within each shard, and across the shards, where
    `reduction.stride_levels` adds `tree_reduce`'s pairs over the P shard
    sums left in worker order.  The int arrays (the layout and the gathered
    labels) stay out of `net.workspace`, which holds a step's float arrays.
    """
    m = n // shards
    c = math.gcd(leaf_block(n), m)
    q = n // c

    def blocks(v):
        return v.reshape(c, q, *v.shape[1:]).swapaxes(0, 1)

    def block_levels(v):
        # in place over v: the tree within each block; its (B/c, ...) block sums
        return tree_levels(v.reshape(c, q, *v.shape[1:]))

    def shard_levels(v):
        # in place over v: each shard's tree over its rows, then the tree
        # over the P shard sums; the sum over the whole batch
        steps, rows = tree_levels(v.reshape(-1, shards, *v.shape[1:]))
        across, total = stride_levels(rows)
        return steps + across, total

    buf = net.buffer
    part = buf("part", (q, net.params.param.size))
    x = buf("input", (n, net.input_dim))
    layers = _layer_views(net, x, blocks, buf, (part, block_levels, shard_levels))
    losses = buf("losses", (n,))
    loss_levels, loss_sum = shard_levels(losses)
    grad_levels, grads = tree_levels(part.reshape(-1, shards, part.shape[1]))
    logits = layers[-1].a  # what the softmax-xent layer reads
    return SimpleNamespace(
        training=True, c=c, perm=_tree_layout(n, shards), input=x, layers=layers,
        batchnorms=[(i, v) for i, (s, v) in enumerate(zip(net.specs, layers))
                    if s.kind == BATCHNORM],
        labels=np.empty(n, np.int64), picked=np.empty(n, np.int64),
        row_starts=np.arange(n) * net.num_classes, probs=logits.reshape(-1),
        row_buf=buf("softmax", (n, 1)), losses=losses, loss_levels=loss_levels,
        loss_sum=loss_sum, grad_levels=grad_levels, grads=grads,
    )


def forward_backward_shards(net, x, y, shards):
    """Run one synchronous forward+backward of `net` over the batch `x`, `y`
    split into `shards` equal shards: shard j is rows [j*B/P, (j+1)*B/P).

    `x` and `y` are float64 / int64 arrays as :func:`check_batch` returns
    them; `x` is read, never written.  Every layer runs once over the batch,
    through the views of the step plan of (B, P) (:func:`_step_plan`), built
    at the first step of that shape; every batch-sized array it writes is in
    `net.workspace`.

    The batch is first gathered into tree order (:func:`_tree_layout`), and
    every batch sum runs the levels of the canonical pairwise tree over each
    shard's m = B/P rows, whose levels add contiguous rows.  The GEMM block
    c = gcd(leaf_block(B), m) is a power of two dividing m, so the layout is
    c contiguous slabs of B/c rows, slab r holding row rev_c(r) of every
    block of c consecutive batch rows (`tree_order(c)` is rev_c).  A block is
    a strided view of the slabs, so every dense product is still one BLAS
    GEMM per block, and the first log2(c) levels of a shard's tree are the
    tree within each block.  The backward writes each block's gradient into
    one (B/c, |W|) array laid out like `net.params.grad` (a dense layer's
    x_blk.T @ d_blk and bias block sums, batch norm's block sums of
    [d * xhat, d]), and one tree over each shard's m/c rows of it gives
    every shard's gradient.  The per-shard sums of the loss and of batch
    norm combine with `tree_reduce`'s pairs, in place; for power-of-two
    shard sizes that leaf_block(B) divides, the blocks and trees are those
    of the whole batch, so results are independent of the shard layout.
    Batch-norm statistics and their backward coupling terms are reduced
    over the global batch this way (sync-BN).

    The walk runs unchecked under `np.errstate`, and one check of the loss
    sum and the lowest logit (a -inf logit can leave the loss finite) finds
    a non-finite forward: it raises the NumericOverflowError that names the
    first layer whose output is not finite (:func:`_overflow`).  Only a
    finite step folds its batch statistics into the running statistics,
    once per layer.  An empty batch is a ConfigError, and one that `shards`
    does not divide a PartitionError.

    Returns (loss_sum, correct_count, grads) where loss_sum is the tree-sum
    of per-example losses, correct_count the number of argmax hits, and grads
    a (shards, |W|) array whose row j is shard j's sum-convention gradient,
    laid out like `net.params.grad`.  `grads` is a workspace array, valid
    until the next call on `net`.
    """
    n = len(x)
    if n == 0:
        raise ConfigError("empty training batch: a step needs at least one example")
    if shards < 1 or n % shards:
        raise PartitionError(f"batch of {n} not divisible into {shards} shards")
    plan = net.plans.get((n, shards))
    if plan is None:
        plan = net.plans[n, shards] = _step_plan(net, n, shards)
    # perm is in range; mode="clip" spares the copy of `out` that "raise" makes
    x.take(plan.perm, axis=0, out=plan.input, mode="clip")
    y = y.take(plan.perm, out=plan.labels, mode="clip")
    picked = np.add(plan.row_starts, y, out=plan.picked)  # flat index of each row's label

    with np.errstate(all="ignore"):  # a non-finite forward raises below instead
        p = _forward(net, plan)
        lowest = p.min()
        # terminal softmax cross-entropy, written over the logits
        row = plan.row_buf
        np.maximum.reduce(p, axis=1, out=row, keepdims=True)
        np.subtract(p, row, out=p)
        np.exp(p, out=p)
        np.add.reduce(p, axis=1, out=row, keepdims=True)
        p /= row
        losses = plan.probs.take(picked, out=plan.losses)
        np.log(losses, out=losses)
        np.negative(losses, out=losses)
        run_levels(plan.loss_levels)
        loss_sum = float(plan.loss_sum[0])
        if not (math.isfinite(loss_sum) and math.isfinite(lowest)):
            raise _overflow(net, plan)
    for i, v in plan.batchnorms:
        st = net.bn_state[i]
        st["mean"] = BN_MOMENTUM * st["mean"] + (1.0 - BN_MOMENTUM) * v.mean_rows[0]
        st["var"] = BN_MOMENTUM * st["var"] + (1.0 - BN_MOMENTUM) * v.var
    correct = int(np.count_nonzero(p.argmax(axis=1) == y))

    # backward, sum convention.  Row r of the plan's gradient rows holds
    # block r's gradient, laid out like net.params.grad.  Each dense layer's
    # input gradient is written over its input, which is spent once the
    # weight gradient is taken, and its bias block sums over d, spent after that.
    d = p
    plan.probs[picked] -= 1.0  # softmax minus one-hot
    for i in range(len(net.specs) - 2, -1, -1):
        s, v = net.specs[i], plan.layers[i]
        if s.kind == DENSE:  # d is v.out
            # a block's weight partial is a_blk.T @ d_blk, rank one at c == 1
            if plan.c == 1:
                np.einsum("bi,bj->bij", v.a, d, out=v.wpart)
            else:
                np.matmul(v.a_blocks_t, v.out_blocks, out=v.wpart)
            if i > 0:  # nothing uses the gradient of the network's input
                np.matmul(v.out_blocks, v.weight_t, out=v.a_blocks)
            run_levels(v.bias_levels)
            np.copyto(v.bpart, v.bias_sums)
            d = v.a
        elif s.kind == RELU:
            d *= v.mask
        elif s.kind == BATCHNORM:
            d_xhat, d_copy = v.halves
            np.multiply(d, v.xhat, out=d_xhat)
            np.copyto(d_copy, d)
            run_levels(v.block_levels)
            np.copyto(v.spart, v.spart_sums)
            run_levels(v.coupling_levels)
            np.divide(v.coupling_sums, n, out=v.means)
            mean_t2, mean_t1 = v.mean_rows
            # d <- scale * inv * (d - mean_t1 - xhat * mean_t2), in place;
            # xhat and inv are spent after this
            d -= mean_t1
            d -= np.multiply(v.xhat, mean_t2, out=v.xhat)
            d *= np.multiply(v.scale, v.inv, out=v.inv)
    run_levels(plan.grad_levels)
    return loss_sum, correct, plan.grads


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
    statistics and each dense layer as one GEMM over all of `inputs`.

    Only the logits are checked; if they are not finite, the
    NumericOverflowError names the first layer whose output is not.
    """
    x = np.asarray(inputs, dtype=np.float64)
    plan = SimpleNamespace(training=False, input=x,
                           layers=_layer_views(net, x, lambda v: v, _fresh))
    with np.errstate(all="ignore"):
        logits = _forward(net, plan)
        if not np.isfinite(logits).all():
            raise _overflow(net, plan)
    return logits


EVAL_ROWS = 64  # test rows per evaluation GEMM


def accuracy(net, inputs, labels):
    """Fraction of argmax hits, evaluated in blocks of EVAL_ROWS rows; nan for no rows.

    The batch is checked like a training batch (:func:`check_batch`).  Rows
    are independent in eval mode, so the blocks give the hits of one pass
    over all rows, while keeping each GEMM small enough to stay on one BLAS
    thread.  If any row overflows, the NumericOverflowError names the first
    layer at which one does, whatever block it is in.
    """
    inputs, labels = check_batch(net, inputs, labels)
    if not len(inputs):
        return math.nan  # like the mean of no rows
    hits, overflows = 0, []
    for start in range(0, len(inputs), EVAL_ROWS):
        rows = slice(start, start + EVAL_ROWS)
        try:
            logits = predict_logits(net, inputs[rows])
        except NumericOverflowError as exc:
            overflows.append(exc)
            continue
        hits += np.count_nonzero(logits.argmax(axis=1) == labels[rows])
    if overflows:
        raise min(overflows, key=lambda exc: exc.layer_index)
    return float(np.divide(hits, len(inputs)))
