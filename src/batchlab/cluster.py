"""Deterministic in-process simulation of P-worker synchronous SGD.

A P-worker cluster is the list of its workers, each of them the one network,
and each step takes the global batch as an argument: worker j owns rows
[j*B/P, (j+1)*B/P) of it.  In synchronous SGD all workers apply the same
reduced gradient with the same rule, so their replicas are identical by
construction and one network stands for all of them; the simulator updates
it once per step.  Local gradients are the per-example tree sums over
aligned nodes of each worker's rows, the 1-worker tree stopped where it
would cross a worker boundary, and the step hands them back in batch
order; the all-reduce finishes the same pairwise tree over those node
sums, and the summed gradient is divided by the global batch size once.
The splits whose P-worker trajectory is bitwise-identical to the 1-worker
one are those :func:`nn.bitwise_invariant` names.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import costmodel, nn, optim
from .errors import ConfigError, ConsistencyError, DivergenceError, NumericOverflowError
from .reduction import tree_reduce


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


def make_workers(net, count):
    """`count` workers, each of them the one network `net`."""
    return [net] * count


def check_synchronized(workers):
    """Raise ConsistencyError unless every worker is worker 0's network."""
    bad = [j for j, net in enumerate(workers) if net is not workers[0]]
    if bad:
        raise ConsistencyError(f"workers {bad} are not worker 0's network")


def all_reduce(grads):
    """Sum the node gradients of `nn.forward_backward_shards`, in batch order,
    with the fixed pairwise-left tree.

    Each combine adds its right row into its left one, so `grads` is
    consumed and the sum is returned in its first row, node 0.
    """
    return tree_reduce(list(grads), lambda a, b: np.add(a, b, out=a))


def global_step(workers, x, y, hp, st):
    """One synchronous iteration over the global batch `x`, `y`: local grads,
    all-reduce, one shared update.

    Batch-norm statistics are exchanged over the global batch (sync-BN), so
    one collective forward/backward computes every worker's gradient.
    Returns (mean_loss, correct_count, lr, lambdas), where lr is the
    scheduled learning rate the update applied.
    """
    check_synchronized(workers)
    net = workers[0]
    loss_sum, correct, grads = nn.forward_backward_shards(net, x, y, len(workers))
    b = len(x)
    params = net.params
    np.divide(all_reduce(grads), b, out=params.grad)
    lr, lambdas = optim.sgd_step(params, hp, st)
    return loss_sum / b, correct, lr, lambdas


def train(specs, dataset, hp, workers, seed):
    """Fixed-epoch-budget synchronous training on `workers` workers; returns
    a TrainingLog.

    B is `hp.batch_size`.  Runs floor(E*n/B) iterations, floor(n/B) per
    epoch: iteration i is step i mod floor(n/B) of epoch i div floor(n/B),
    and each epoch draws a deterministic shuffle from (seed, epoch), the
    seed the network is initialised from.  The test set is evaluated before
    the first step and after the last step of each epoch and of the run,
    into that step's `test_acc` (nan for an empty test split).  A
    non-finite forward, loss or update ends the run with a divergence record
    instead of raising; an evaluation that overflows after k steps records
    `diverged@<k> layer <i>`.  Fewer than one worker is a ConfigError, as in
    the config, and a batch that `workers` does not divide raises
    PartitionError at the first step.
    """
    if workers < 1:
        raise ConfigError("need at least one worker")
    net = nn.init_network(specs, seed)
    train_x, train_y = nn.check_batch(net, dataset.train_x, dataset.train_y)
    test_x, test_y = nn.check_batch(net, dataset.test_x, dataset.test_y)
    n = len(train_x)
    b = hp.batch_size
    ipe = n // b
    if ipe == 0:
        raise ConfigError(f"batch size {b} exceeds training set size {n}")
    st = optim.ScheduleState(costmodel.iterations(hp.epochs, n, b), ipe)

    replicas = make_workers(net, workers)
    log = TrainingLog()

    def evaluate():
        return nn.accuracy(net, test_x, test_y) if len(test_x) else float("nan")

    try:
        test_acc = evaluate()
        while st.iteration < st.max_iterations:
            epoch, k = divmod(st.iteration, ipe)
            if k == 0:
                perm = np.random.default_rng((seed, epoch)).permutation(n)
            idx = perm[k * b:(k + 1) * b]
            x, y = train_x[idx], train_y[idx]
            t0 = time.perf_counter()
            loss, correct, lr, lambdas = global_step(replicas, x, y, hp, st)
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
            log.lambda_history.append(lambdas)
            if k == ipe - 1 or st.iteration == st.max_iterations:
                test_acc = log.rows[-1].test_acc = evaluate()
    except NumericOverflowError as exc:
        log.status = f"diverged@{st.iteration} layer {exc.layer_index}"
    except DivergenceError as exc:
        log.status = f"diverged@{st.iteration} group {exc.group}"
    return log
