"""Minimal feed-forward network engine with exact analytic gradients.

Layers: dense, batchnorm, relu, and a terminal softmax cross-entropy loss.
Everything is float64.  One array carries the whole batch through the
layers.  Dense products are BLAS GEMMs over fixed blocks of
:func:`leaf_block` rows, a shape set by the global batch size alone.
Every batch sum is the one pairwise tree of :mod:`batchlab.reduction`
over the whole batch, whatever the split (batch-norm statistics are
computed over the *global* batch, sync-BN style).  A P-worker split, in
which worker j owns rows [j*B/P, (j+1)*B/P) of the batch, sets only the
GEMM block and where the parameter gradient's tree stops: at aligned
nodes that no worker boundary cuts, whose sums the all-reduce finishes
with the rest of the same tree.  Wherever the split keeps the 1-worker
GEMM blocks, both runs perform bit-identical arithmetic.  A training step
carries the batch in `reduction.tree_order`, so that every batch sum is
one `reduction.tree_levels`, whose levels add contiguous halves; the
layout changes which rows are stored where, not which rows are added.
Batch norm's variance is the centered mean of (a - mean)**2, and its four
sums take one scratch array in turn.

Each layer kind, the softmax cross-entropy loss among them, is written
once, in :func:`_layer_calls`, which builds a layer's forward and backward
calls as `functools.partial`s over the layer's arrays.  A training step
runs the calls of the step plan built once per (B, P) and kept on the
Network: each layer's forward list, three calls that fold the batch
statistics into the running ones, `net.running`, then the backward lists,
last layer first.  Evaluation runs the one forward walk of the evaluation
plan over all its rows, built once per row count and kept on the Network
too; its batch norm reads `net.running`, which a step updates in place.
Every call with a row-vector operand goes through a tile of at least
numpy's buffer length.  A step checks its loss once, and the forward reruns
with a check per layer only to name the layer at which a non-finite step
overflowed.
"""

import hashlib
import math
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType, SimpleNamespace

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBatchError,
    NumericOverflowError,
    PartitionError,
)
# A step runs prebuilt levels and calls neither tree_sum nor tree_reduce, so their
# spans never fire; nn keeps both names only so that bench/spans.py's TRACED
# resolves (ROADMAP item 1 retires them).
from .reduction import (  # noqa: F401
    run_levels,
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

CACHE_LINE = 64  # bytes: a cache line, and one AVX-512 vector


def aligned_empty(shape):
    """An uninitialised float64 array of `shape` whose data starts on a CACHE_LINE boundary.

    numpy's allocator aligns float64 data to 8 bytes at least, so the array
    is a slice of one over-allocated by CACHE_LINE / 8 - 1 elements.  A step
    works on such arrays only: a vector load that straddles two lines costs
    more than one within a line.
    """
    size = math.prod(shape)
    raw = np.empty(size + CACHE_LINE // 8 - 1)
    skip = -raw.ctypes.data % CACHE_LINE // 8
    return raw[skip:skip + size].reshape(shape)


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
    `step` is a flat scratch vector of the same layout that the optimizer
    update writes.  All four start on a cache line (:func:`aligned_empty`).
    """

    def __init__(self, groups):
        """`groups` are (name, category, initial array) triples."""
        groups = list(groups)
        names = [name for name, _, _ in groups]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate parameter group names: {names}")
        size = (sum(a.size for _, _, a in groups),)
        self.param = np.concatenate([a.reshape(-1) for _, _, a in groups],
                                    out=aligned_empty(size))
        self.grad, self.momentum, self.step = (aligned_empty(size) for _ in range(3))
        self.grad.fill(0.0)
        self.momentum.fill(0.0)
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

    `running` is one float64 vector, starting on a cache line, of each batch
    norm's running mean and variance, layer i's at its span `bn_spans[i]`;
    `bn_state[i]` is a read-only mapping of `mean` and `var` to views of them.
    `params` and `running` are read-only attributes, as the plans hold views
    of their arrays: they are written in place.
    The workspace holds the float64 arrays a training step writes, keyed by
    (role, shape), and `plans` the step plan of each (B, P) split, the calls
    over those arrays that a step makes.  Both start empty; the first step of
    each split fills them and later steps reuse them, so a step allocates no
    batch-sized array and builds no view.  `plans["eval"]` is the evaluation
    plan of the latest row count evaluated (see :func:`_eval_plan`), one walk
    over all its rows with arrays of its own, which reads `running` as a
    step updates it in place.
    """

    def __init__(self, specs, params, running, bn_spans, layer_groups, input_dim, num_classes):
        self.specs = list(specs)
        self._params, self._running, self.bn_spans = params, running, bn_spans
        self.bn_state = MappingProxyType({
            i: MappingProxyType(dict(zip(("mean", "var"), running[span].reshape(2, -1))))
            for i, span in bn_spans.items()})
        self.layer_groups = layer_groups  # per layer: (weight, bias), (scale, shift) or ()
        self.input_dim = input_dim
        self.num_classes = num_classes
        self.workspace = {}
        self.plans = {}  # (B, P) -> step plan (nn._step_plan); "eval" -> nn._eval_plan

    params = property(lambda self: self._params)
    running = property(lambda self: self._running)

    def buffer(self, role, shape):
        """The float64 workspace array for (role, shape), created on first use
        by :func:`aligned_empty`, so that it starts on a cache line."""
        key = (role, shape)
        buf = self.workspace.get(key)
        if buf is None:
            buf = self.workspace[key] = aligned_empty(shape)
        return buf

    def checksum(self):
        h = hashlib.sha256()
        h.update(self.params.checksum().encode())
        h.update(self.running.tobytes())
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
    bn_spans, stats = {}, 0  # batch-norm layer index -> its span of Network.running
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
            bn_spans[i] = slice(stats, stats + 2 * width)
            stats += 2 * width
        elif s.kind == SOFTMAX_XENT and i < len(specs) - 1:
            raise ConfigError("exactly one softmax-xent layer allowed (at the end)")
        elif s.kind in (RELU, SOFTMAX_XENT):
            layers.append([])
        else:
            raise ConfigError(f"layer {i}: unknown kind {s.kind!r}")
    params = ParamSet(g for layer in layers for g in layer)
    layer_groups = [tuple(params[name] for name, _, _ in layer) for layer in layers]
    running = aligned_empty((stats,))
    for span in bn_spans.values():
        running[span].reshape(2, -1)[:] = [[0.0], [1.0]]  # mean 0, variance 1
    return Network(specs, params, running, bn_spans, layer_groups, specs[0].in_dim, width)


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
    1-shard bits: whether :func:`leaf_block` divides `batch / shards`, so the
    split runs the 1-shard GEMM blocks.  Every split runs the 1-shard trees.
    `shards` must divide `batch`.
    """
    return (batch // shards) % leaf_block(batch) == 0


def _row_calls(alloc, ufunc, v, row, out):
    """``ufunc(v, row, out)`` over a C-contiguous (n, w) `v` and `out` and a (w,)
    `row`, as two calls through a tile: (fill, call).

    numpy copies a broadcast operand through its iterator buffer of
    ``np.getbufsize()`` elements whenever the inner run is shorter than that.
    So the fill copies `row` into every row of the tile ``alloc("tile", (r, w))``,
    r the smallest divisor of n with r * w >= ``np.getbufsize()`` (n if there
    is none), and the call runs `ufunc` over the (n / r, r * w) views of `v`
    and `out` with the flat tile as their row.  Every element meets the same
    operand as under broadcasting, so the bits are the broadcast call's.  A
    walk fills each tile right before its call, so one tile of a shape
    serves every call.
    """
    n, w = v.shape
    r = next((d for d in range(1, n) if n % d == 0 and d * w >= np.getbufsize()), n)
    tile = alloc("tile", (r, w))
    return [partial(np.copyto, tile, row),
            partial(ufunc, v.reshape(-1, r * w), tile.reshape(-1), out.reshape(-1, r * w))]


def _layer_calls(net, x, blocks, alloc, grad=None):
    """The calls of a walk over the batch `x`: per layer (forward calls, backward calls, output).

    `blocks(v)` gives the views of a dense layer's input or output, one per
    GEMM (a step's one strided view, or an evaluation's blocks), and
    `alloc(role, shape)` supplies each float array the walk writes.  Each
    call is a `functools.partial` over those arrays that `reduction.run_levels`
    runs.  Only dense layers take new arrays for their outputs: batch norm
    writes its output over its input and relu multiplies it in place by a
    float 0/1 mask, so `x` is never written, the first layer being dense.
    Every call with a row-vector operand (a dense bias, a batch-norm
    statistic or parameter) runs through a tile (:func:`_row_calls`).

    Without `grad`, batch norm reads its span of `net.running` as it is when
    the calls run and normalizes its input in place, the softmax-xent layer
    makes no call and its output stays the logits, and no layer has a backward
    call.  With `grad`, a training step's (c, gradient rows, batch statistics,
    block levels, labels) (see :func:`_step_plan`; ``block_levels(v, into)``
    builds the sums of `v`'s rows within each GEMM block, as
    `reduction.tree_levels` does, and every sum over the whole batch is a
    `reduction.tree_levels` of its own), batch norm writes its (mean,
    variance) over the global batch into its span of the batch statistics, a
    vector laid out like `net.running`, and the softmax-xent layer writes the
    softmax over the logits and outputs (loss sum, lowest logit), as a -inf
    logit can leave the loss finite.  Run last layer first, the backward calls
    write the gradient of each layer's output over that output, and a dense
    layer writes its input gradient over its input.
    """
    n = len(x)
    if grad is not None:
        c, part, batch_stats, block_levels, labels = grad
    layers = []
    row_calls = partial(_row_calls, alloc)
    a = x
    for i, (s, groups) in enumerate(zip(net.specs, net.layer_groups)):
        fwd, bwd = [], []
        if s.kind == DENSE:
            w, b = groups
            out = alloc(("dense", i), (n, s.out_dim))
            a_blocks, out_blocks = blocks(a), blocks(out)
            fwd = [*(partial(np.matmul, u, w.param, out=o) for u, o in zip(a_blocks, out_blocks)),
                   *row_calls(np.add, out, b.param, out)]
            if grad is not None:
                (a_blocks,), (out_blocks,) = a_blocks, out_blocks  # a step's one strided view
                # a block's weight partial is a_blk.T @ d_blk, rank one at c == 1
                wpart = part[:, w.span].reshape(-1, s.in_dim, s.out_dim)
                bwd = [partial(np.einsum, "bi,bj->bij", a, out, out=wpart) if c == 1
                       else partial(np.matmul, a_blocks.swapaxes(1, 2), out_blocks, out=wpart)]
                if i > 0:  # nothing uses the gradient of the network's input
                    bwd.append(partial(np.matmul, out_blocks, w.param.T, out=a_blocks))
                # the bias block sums, over d once the input gradient has read it
                bias_levels, bias_sums = block_levels(out)
                bwd += [*bias_levels, partial(np.copyto, part[:, b.span], bias_sums)]
            a = out
        elif s.kind == RELU:
            mask = alloc(("relu", i), a.shape)
            fwd = [partial(np.greater, a, 0, mask), partial(np.multiply, a, mask, a)]
            bwd = fwd[1:]  # d *= mask: relu's gradient, like its output, is `a`
        elif s.kind == BATCHNORM:
            scale, shift = groups
            inv = alloc(("bninv", i), a.shape[1:])
            stats = net.running if grad is None else batch_stats
            mean, var = stats[net.bn_spans[i]].reshape(2, -1)
            if grad is None:
                xhat = a  # nothing reads it after the forward
                fwd = row_calls(np.subtract, a, mean, xhat)
            else:
                if n < 2:
                    raise DegenerateBatchError(f"batchnorm layer {i}: training-mode "
                                               "statistics need a batch of >= 2")
                xhat = alloc(("batchnorm", i), a.shape)
                sums = alloc("bnsum", a.shape)  # each sum ends before the next starts
                # the mean, its first level written into `sums` so that `a` is
                # only read; then xhat = a - mean and the variance as the mean
                # of xhat * xhat (E[a*a] - mean*mean cancels: see README)
                mean_levels, mean_sum = tree_levels(a, sums)
                var_levels, var_sum = tree_levels(sums)
                fwd = [*mean_levels, partial(np.divide, mean_sum, n, mean),
                       *row_calls(np.subtract, a, mean, xhat),
                       partial(np.multiply, xhat, xhat, sums),
                       *var_levels, partial(np.divide, var_sum, n, var)]
                # the block sums of d * xhat (in place) and of d (read again,
                # so its first level goes into `sums`), copied into the scale
                # and shift spans, whose trees give the coupling terms; then,
                # in place, d <- scale * inv * (d - mean_t1 - xhat * mean_t2);
                # xhat and inv are spent after this
                bwd = [partial(np.multiply, a, xhat, sums)]
                mean_t2, mean_t1 = var, mean
                for summand, into, group, term in ((sums, None, scale, mean_t2),
                                                   (a, sums, shift, mean_t1)):
                    steps, block_sums = block_levels(summand, into)
                    coupling, total = tree_levels(block_sums)
                    bwd += [*steps, partial(np.copyto, part[:, group.span], block_sums),
                            *coupling, partial(np.divide, total, n, term)]
                bwd += [*row_calls(np.subtract, a, mean_t1, a),
                        *row_calls(np.multiply, xhat, mean_t2, xhat),
                        partial(np.subtract, a, xhat, a),
                        partial(np.multiply, scale.param, inv, inv),
                        *row_calls(np.multiply, a, inv, a)]
            fwd += [partial(np.add, var, s.eps, inv), partial(np.sqrt, inv, inv),
                    partial(np.divide, 1.0, inv, inv),
                    *row_calls(np.multiply, xhat, inv, xhat),
                    *row_calls(np.multiply, xhat, scale.param, a),
                    *row_calls(np.add, a, shift.param, a)]
        elif grad is not None:  # softmax-xent, over the logits `a`
            out = alloc("loss", (2,))
            row = alloc("softmax", (n, 1))
            losses = alloc("losses", (n,))
            loss_levels, loss_sum = tree_levels(losses)
            probs = a.reshape(-1)
            row_starts = np.arange(n) * a.shape[1]
            picked = np.empty(n, np.int64)  # the flat index of each row's label
            # the row maximum as a fold over the columns: max is exact, so
            # the fold gives np.maximum.reduce's bits at a fraction of its cost
            row_max = [partial(np.copyto, row, a[:, :1]),
                       *(partial(np.maximum, row, a[:, j:j + 1], out=row)
                         for j in range(1, a.shape[1]))]
            fwd = [partial(np.minimum.reduce, a, None, None, out[1, ...]),
                   partial(np.add, row_starts, labels, picked),
                   *row_max, partial(np.subtract, a, row, a), partial(np.exp, a, a),
                   partial(np.add.reduce, a, 1, None, row, True), partial(np.divide, a, row, a),
                   partial(probs.take, picked, None, losses),
                   partial(np.log, losses, losses), partial(np.negative, losses, losses),
                   *loss_levels, partial(np.copyto, out[:1], loss_sum)]
            # sum convention: the gradient of the logits is the softmax minus one-hot
            bwd = [partial(np.subtract.at, probs, picked, 1.0)]
            a = out
        layers.append((fwd, bwd, a))
    return layers


def _forward(layers, check_each=False):
    """Run a layer walk's forward calls (:func:`_layer_calls`); returns the last output.

    The walk checks nothing unless `check_each`: then a layer whose output
    is not finite raises NumericOverflowError naming it.
    """
    for i, (calls, _, out) in enumerate(layers):
        run_levels(calls)
        if check_each and not np.isfinite(out).all():
            raise NumericOverflowError(i)
    return out


def _step_plan(net, n, shards):
    """The prebuilt calls and arrays of a training step of `n` rows in `shards` shards.

    Built at the first step of that shape and kept in `net.plans`, so that a
    warm step makes no view and looks up no workspace array.  It holds the
    layers of :func:`_layer_calls`, the three `fold` calls that fold their
    batch statistics into `net.running` (run <- M * run + (1 - M) * batch, M =
    BN_MOMENTUM; batch is scaled in place, as the backward writes it before it
    reads it), and one flat backward list: the layers' backward lists, last
    layer first, then the tree over the gradient rows.  The batch is gathered
    in `reduction.tree_order(n)`, whatever the split, and every batch sum is
    one `reduction.tree_levels`: within each GEMM block over the (c, B/c,
    ...) reshape, and over the whole batch on the array itself.  The gradient
    rows are a (B/c, |W| rounded up to 8) array, so that each row starts on
    a cache line; the layers write its [:, :|W|] view and its zero padding
    is summed with the rest.  Their tree stops at one row per aligned node of
    s rows, s the largest power of two dividing m = B/P, so that no node
    spans two shards: row p holds node `tree_order(B/s)[p]`, and the
    returned `grads` is the (B/s, |W|) view of those rows; at P = 1 the tree
    runs to the end and `grads` has one row.
    The int arrays (the layout, the gathered labels and their flat indices)
    stay out of `net.workspace`, which holds a step's float arrays.
    """
    m = n // shards
    c = math.gcd(leaf_block(n), m)
    q = n // c
    nodes = 1 if shards == 1 else n // (m & -m)

    def blocks(v):
        return (v.reshape(c, q, *v.shape[1:]).swapaxes(0, 1),)

    def block_levels(v, into=None):
        # the tree within each block, written into `into` if given; its (B/c, ...) block sums
        stack = lambda u: u if u is None else u.reshape(c, q, *u.shape[1:])
        return tree_levels(stack(v), stack(into))

    buf = net.buffer
    size = net.params.param.size
    per_line = CACHE_LINE // 8  # float64s
    part = buf("part", (q, -(-size // per_line) * per_line))
    part[:, size:] = 0.0  # the padding, summed with the rest and never read
    x = buf("input", (n, net.input_dim))
    labels = np.empty(n, np.int64)
    run = net.running
    batch = buf("bnbatch", run.shape)
    layers = _layer_calls(net, x, blocks, buf,
                          (c, part[:, :size], batch, block_levels, labels))
    grad_levels, grads = tree_levels(part.reshape(-1, nodes, part.shape[1]))
    return SimpleNamespace(
        perm=tree_order(n), input=x, labels=labels, layers=layers,
        fold=[partial(np.multiply, run, BN_MOMENTUM, run),
              partial(np.multiply, 1.0 - BN_MOMENTUM, batch, batch),
              partial(np.add, run, batch, run)],
        backward=[call for _, bwd, _ in reversed(layers) for call in bwd] + grad_levels,
        grads=grads[:, :size],
    )


def forward_backward_shards(net, x, y, shards):
    """Run one synchronous forward+backward of `net` over the batch `x`, `y`
    split into `shards` equal shards: shard j is rows [j*B/P, (j+1)*B/P).

    `x` and `y` are float64 / int64 arrays as :func:`check_batch` returns
    them; `x` is read, never written.  Every layer, the softmax
    cross-entropy loss among them, runs once over the batch, as the prebuilt
    calls of the step plan of (B, P) (:func:`_step_plan`), built at the
    first step of that shape; every batch-sized array it writes is in
    `net.workspace`.

    The batch is first gathered into `reduction.tree_order(B)`, whatever
    the split, and every batch sum runs the levels of the canonical pairwise
    tree over the whole batch, whose levels add contiguous rows.  The GEMM
    block c = gcd(leaf_block(B), m), m = B/P, is a power of two dividing m,
    so the layout is c contiguous slabs of B/c rows, slab r holding row
    rev_c(r) of every block of c consecutive batch rows (`tree_order(c)` is
    rev_c).  A block is a strided view of the slabs, so every dense product
    is still one BLAS GEMM per block, and the first log2(c) levels of the
    tree are the tree within each block.  The backward writes each block's
    gradient into one (B/c, |W|) array laid out like `net.params.grad` (a
    dense layer's x_blk.T @ d_blk and bias block sums, batch norm's block
    sums of [d * xhat, d]), its rows padded to start on cache lines, and the
    tree over it stops at the aligned nodes of s rows, s the largest power
    of two dividing m, which no shard boundary cuts.  Batch-norm statistics
    and their backward coupling terms are reduced over the global batch
    (sync-BN).  Where leaf_block(B) divides m, the blocks are those of the
    whole batch, and the node sums finish with the rest of its tree, so
    results are independent of the split.

    The forward runs unchecked under `np.errstate`, and one check of the
    loss layer's (loss sum, lowest logit) finds a non-finite forward, which
    reruns with a check per layer to raise the NumericOverflowError naming
    the first layer whose output is not finite, the loss layer at the
    latest.  A finite step folds its batch statistics into the running
    statistics, counts its hits and runs the backward.  An empty batch is a
    ConfigError, and one that `shards` does not divide a PartitionError.

    Returns (loss_sum, correct_count, grads) where loss_sum is the tree-sum
    of per-example losses, correct_count the number of argmax hits, and grads
    the sum-convention gradients of the nodes, laid out like
    `net.params.grad`, in tree order: a (B/s, |W|) array whose row p is the
    gradient of batch rows [i*s, (i+1)*s), i = `tree_order(B/s)[p]`, or a
    (1, |W|) array of the whole batch's gradient when `shards` is 1.  For a
    power-of-two m these are the P shard gradients.  Reduced with
    `tree_reduce` in batch order, the rows give the whole tree's bits.
    `grads` is a workspace array, valid until the next call on `net`.
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
    with np.errstate(all="ignore"):  # a non-finite forward raises below instead
        loss_sum, lowest = _forward(plan.layers)
        if not (math.isfinite(loss_sum) and math.isfinite(lowest)):
            _forward(plan.layers, check_each=True)  # raises, naming the layer
    run_levels(plan.fold)  # before the backward, which writes over the batch statistics
    probs = plan.layers[-2][2]  # the loss layer's input, which its softmax overwrote
    correct = int(np.count_nonzero(probs.argmax(axis=1) == y))
    run_levels(plan.backward)
    return float(loss_sum), correct, plan.grads


# ---------------------------------------------------------------------------
# batch check and single-network API (mean-loss convention)
# ---------------------------------------------------------------------------

def _check_width(net, inputs):
    if inputs.ndim != 2 or inputs.shape[1] != net.input_dim:
        raise ConfigError(
            f"batch shape {inputs.shape} incompatible with input width {net.input_dim}"
        )


def check_batch(net, inputs, labels):
    """Reject a batch that does not fit `net`; return it as float64 / int64 arrays.

    The inputs must be 2-D with `net.input_dim` columns and finite, there
    must be one label per example, and every label must be a whole number
    naming one of the network's `num_classes` outputs.  A batch numpy cannot
    read as numbers is a ConfigError too; numpy reads `None` as NaN.
    """
    try:
        inputs = np.asarray(inputs, dtype=np.float64)
        given = np.asarray(labels)
    except (TypeError, ValueError) as exc:  # ragged rows, say, or strings that are not numbers
        raise ConfigError(f"batch is not numeric: {exc}") from None
    if given.dtype.kind not in "biuf":
        raise ConfigError(f"labels must be whole numbers, not {given.dtype} values")
    with np.errstate(invalid="ignore"):  # a NaN or out-of-range cast is caught below
        labels = given.astype(np.int64, copy=False)
        bad = given[labels != given]
    if bad.size:
        raise ConfigError(f"labels must be whole numbers; {bad.size} are not: {bad[:5].tolist()}")
    _check_width(net, inputs)
    bad = inputs.size - np.count_nonzero(np.isfinite(inputs))
    if bad:  # it would be read as a diverged step, not as a bad batch
        raise ConfigError(f"inputs must be finite; {bad} are not")
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


EVAL_ROWS = 64  # test rows per evaluation GEMM


def _eval_alloc():
    """An `alloc` for an evaluation walk (:func:`_layer_calls` without `grad`).

    Only the dense outputs and the relu masks of such a walk are batch-sized,
    and only one of them is live between calls: the activation, which is the
    latest dense output.  So the dense outputs of one shape take two arrays
    in turn, and a relu's mask is the one that its input does not hold.  The
    rest (tiles, batch norm's inverse deviations) gets an array per (role, shape).
    """
    pairs, rest = {}, {}

    def alloc(role, shape):
        kind = role if isinstance(role, str) else role[0]
        if kind not in (DENSE, RELU):
            if (role, shape) not in rest:
                rest[role, shape] = aligned_empty(shape)
            return rest[role, shape]
        if shape not in pairs:
            pairs[shape] = [aligned_empty(shape), aligned_empty(shape)]
        pair = pairs[shape]  # the latest dense output of this shape first
        if kind == DENSE:
            pair.reverse()
            return pair[0]
        return pair[1]

    return alloc


def _eval_plan(net, n):
    """The prebuilt walk of an evaluation of `n` rows: its input and calls.

    Built at the first evaluation of that row count and kept as
    `net.plans["eval"]`.  A dense layer is one stacked GEMM of a GEMM per
    full block of EVAL_ROWS rows and one GEMM over the n % EVAL_ROWS rows
    left, so that each row meets the GEMM shape of a per-block walk (padding
    the last block to EVAL_ROWS rows changes logit bits); every other call,
    element-wise, runs once over all n rows.  Batch norm reads its span of
    `net.running` when the calls run, which a training step updates in
    place, so the plan serves every evaluation of `n` rows.
    """
    full = n - n % EVAL_ROWS

    def blocks(v):
        return [u for u in (v[:full].reshape(-1, EVAL_ROWS, v.shape[1]), v[full:]) if len(u)]

    x = aligned_empty((n, net.input_dim))
    return SimpleNamespace(rows=n, input=x, layers=_layer_calls(net, x, blocks, _eval_alloc()))


def _evaluate(net, inputs):
    """The eval-mode logits of the rows of the float64 (n, input width) `inputs`, n > 0.

    The array is the plan's, valid until the next evaluation.  Only the
    logits are checked; if any are not finite, the walk reruns with a check
    per layer, and the NumericOverflowError names the first layer at which
    any row's output is not finite.
    """
    plan = net.plans.get("eval")
    if plan is None or plan.rows != len(inputs):
        plan = net.plans["eval"] = _eval_plan(net, len(inputs))
    np.copyto(plan.input, inputs)
    with np.errstate(all="ignore"):
        logits = _forward(plan.layers)
        if not np.isfinite(logits).all():
            _forward(plan.layers, check_each=True)  # raises, naming the layer
    return logits


def predict_logits(net, inputs):
    """Eval-mode forward: the training layer walk, with batch norm on the running
    statistics, each dense layer a GEMM per block of EVAL_ROWS rows (:func:`_eval_plan`).

    Returns a copy of the logits.  If they are not all finite, the
    NumericOverflowError names the first layer at which any row's output is not.
    """
    x = np.asarray(inputs, dtype=np.float64)
    _check_width(net, x)
    if not len(x):
        return np.empty((0, net.num_classes))  # no plan: a tile needs a row
    return _evaluate(net, x).copy()


def accuracy(net, inputs, labels):
    """Fraction of argmax hits, each dense layer a GEMM per block of EVAL_ROWS rows; nan for no rows.

    The batch is checked like a training batch (:func:`check_batch`).  Rows
    are independent in eval mode, so the blocks give the hits of one pass
    over all rows, while keeping each GEMM small enough to stay on one BLAS
    thread.  If any row overflows, the NumericOverflowError names the first
    layer at which one does.
    """
    inputs, labels = check_batch(net, inputs, labels)
    if not len(inputs):
        return math.nan  # like the mean of no rows
    predicted = _evaluate(net, inputs).argmax(axis=1)
    return float(np.divide(np.count_nonzero(predicted == labels), len(inputs)))
