"""Deterministic in-process simulation of P-worker synchronous SGD.

Every worker reads one shared parameter store and holds a contiguous slice
of the global batch.  In synchronous SGD all workers apply the same reduced
gradient with the same rule, so their replicas are identical by construction
and one store stands for all of them; the simulator updates it once per step.
Local gradients are per-example tree sums over each slice, reduced across
workers with the same pairwise tree; the summed gradient is divided by the
global batch size once.  When the local batch size is a power of two the
per-worker trees compose into the tree a single worker would use, so the
P-worker trajectory is bitwise-identical to the 1-worker one.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import nn, optim
from .errors import (
    ConfigError,
    ConsistencyError,
    DivergenceError,
    NumericOverflowError,
    PartitionError,
    ProtocolError,
)
from .reduction import tree_reduce


@dataclass
class ClusterRun:
    workers: int
    global_batch: int
    seed: int = 0

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError("need at least one worker")
        if self.global_batch < 1 or self.global_batch % self.workers != 0:
            raise PartitionError(
                f"global batch {self.global_batch} not divisible by {self.workers} workers"
            )

    @property
    def bitwise_invariant(self):
        """P == 1 or B/P a power of two: the split then gives the 1-worker bits."""
        local = self.global_batch // self.workers
        return self.workers == 1 or (local & (local - 1)) == 0


@dataclass
class WorkerState:
    worker_id: int
    net: nn.Network
    batch_x: np.ndarray = None
    batch_y: np.ndarray = None


@dataclass
class LogRow:
    epoch: int
    iteration: int
    lr: float
    loss: float
    train_acc: float
    test_acc: float
    lambda_min: float
    lambda_med: float
    lambda_max: float
    wall_ms: float


@dataclass
class TrainingLog:
    rows: list = field(default_factory=list)
    lambda_history: list = field(default_factory=list)  # per-iteration name -> lambda
    status: str = "completed"

    @property
    def diverged(self):
        return self.status.startswith("diverged")

    def final_test_acc(self):
        return self.rows[-1].test_acc if self.rows else float("nan")


def partition_batch(batch_x, batch_y, workers):
    """Contiguous index-order slices, one per worker."""
    b = len(batch_x)
    if b % workers != 0:
        raise PartitionError(f"batch of {b} not divisible by {workers} workers")
    step = b // workers
    return [
        (batch_x[j * step:(j + 1) * step], batch_y[j * step:(j + 1) * step])
        for j in range(workers)
    ]


def make_workers(net, count):
    """`count` workers that all read the one parameter store `net`."""
    return [WorkerState(j, net) for j in range(count)]


def assign_batch(workers, batch_x, batch_y):
    for w, (x, y) in zip(workers, partition_batch(batch_x, batch_y, len(workers))):
        w.batch_x, w.batch_y = x, y


def check_synchronized(workers):
    """Raise ConsistencyError unless every worker reads worker 0's store."""
    net = workers[0].net
    bad = [w.worker_id for w in workers if w.net is not net]
    if bad:
        raise ConsistencyError(f"workers {bad} do not share worker 0's parameter store")


def local_gradients(workers):
    """Per-worker sum-convention gradients over the assigned slices.

    Batch-norm statistics are exchanged over the global batch (sync-BN), so
    this performs the collective forward/backward for all workers at once.
    Returns (loss_sum, correct_count, [grads per worker]).
    """
    check_synchronized(workers)
    xs = [w.batch_x for w in workers]
    ys = [w.batch_y for w in workers]
    return nn.forward_backward_shards(workers[0].net, xs, ys)


def all_reduce(grad_sets):
    """Elementwise sum over workers in the fixed pairwise-left tree order."""
    ref = grad_sets[0]
    for j, g in enumerate(grad_sets[1:], start=1):
        if set(g) != set(ref):
            raise ProtocolError(f"worker {j} gradient groups differ from worker 0")
        for name in ref:
            if g[name].shape != ref[name].shape:
                raise ProtocolError(f"shape mismatch in group {name!r} on worker {j}")

    def combine(a, b):
        return {name: a[name] + b[name] for name in a}

    return tree_reduce(list(grad_sets), combine)


def global_step(run, workers, hp, st):
    """One synchronous iteration: local grads, all-reduce, one shared update.

    Returns (mean_loss, correct_count, lr, lambdas), where lr is the
    scheduled learning rate the update applied.
    """
    loss_sum, correct, grads = local_gradients(workers)
    summed = all_reduce(grads)
    b = sum(len(w.batch_x) for w in workers)
    params = workers[0].net.params
    params.set_grads({name: arr / b for name, arr in summed.items()})
    lr = optim.scheduled_lr(hp, st)
    lambdas = optim.apply_update(params, hp, lr, iteration=st.iteration)
    st.iteration += 1
    return loss_sum / b, correct, lr, lambdas


def train(run, specs, dataset, hp, eval_test=True):
    """Fixed-epoch-budget synchronous training; returns a TrainingLog.

    Runs floor(E*n/B) iterations with floor(n/B) iterations per epoch and a
    deterministic per-epoch shuffle derived from (run.seed, epoch).  A
    non-finite loss or update terminates the run with a divergence record
    instead of raising.
    """
    if run.global_batch != hp.batch_size:
        raise ConfigError(
            f"cluster batch {run.global_batch} != optimizer batch {hp.batch_size}"
        )
    train_x = np.asarray(dataset.train_x, dtype=np.float64)
    train_y = np.asarray(dataset.train_y, dtype=np.int64)
    n = len(train_x)
    b = hp.batch_size
    ipe = n // b
    if ipe == 0:
        raise ConfigError(f"batch size {b} exceeds training set size {n}")
    st = optim.ScheduleState(optim.max_iterations(hp.epochs, n, b), ipe)

    net = nn.init_network(specs, run.seed)
    workers = make_workers(net, run.workers)
    log = TrainingLog()

    has_test = eval_test and getattr(dataset, "test_x", None) is not None and len(dataset.test_x)
    test_acc = nn.accuracy(net, dataset.test_x, dataset.test_y) if has_test else float("nan")

    epoch = 0
    while st.iteration < st.max_iterations:
        perm = np.random.default_rng((run.seed, epoch)).permutation(n)
        for k in range(ipe):
            if st.iteration >= st.max_iterations:
                break
            idx = perm[k * b:(k + 1) * b]
            assign_batch(workers, train_x[idx], train_y[idx])
            t0 = time.perf_counter()
            try:
                loss, correct, lr, lambdas = global_step(run, workers, hp, st)
            except (NumericOverflowError, DivergenceError):
                log.status = f"diverged@{st.iteration}"
                return log
            wall_ms = (time.perf_counter() - t0) * 1000.0
            lams = sorted(lambdas.values())
            log.rows.append(LogRow(
                epoch=epoch,
                iteration=st.iteration - 1,
                lr=lr,
                loss=loss,
                train_acc=correct / b,
                test_acc=test_acc,
                lambda_min=lams[0],
                lambda_med=lams[len(lams) // 2],
                lambda_max=lams[-1],
                wall_ms=wall_ms,
            ))
            log.lambda_history.append(dict(lambdas))
            if not np.isfinite(loss):
                log.status = f"diverged@{st.iteration - 1}"
                return log
        if has_test:
            test_acc = nn.accuracy(net, dataset.test_x, dataset.test_y)
            if log.rows:
                log.rows[-1].test_acc = test_acc
        epoch += 1
    log.status = "completed"
    return log
