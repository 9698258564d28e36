import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from batchlab import cluster, costmodel, data, nn, optim
from batchlab.errors import ConfigError, ConsistencyError, PartitionError
from batchlab.reduction import tree_reduce
from conftest import MLP_SPECS, SMALL_SPECS, random_batch

NOBN_SPECS = [nn.dense(2, 4), nn.relu(), nn.dense(4, 3), nn.softmax_xent()]


def make_dataset(n, seed=0, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    y = rng.integers(0, classes, n)
    return data.Dataset(x, y, x[: max(n // 10, 1)], y[: max(n // 10, 1)], classes, 2)


def ready_workers(specs, seed, P):
    return cluster.make_workers(nn.init_network(specs, seed), P)


def local_grads(specs, seed, x, y, P):
    """The (P, |W|) per-worker gradients of a fresh `specs` network on (x, y)."""
    return nn.forward_backward_shards(nn.init_network(specs, seed), x, y, P)[2]


class TestPartition:
    def test_indivisible_rejected(self):
        x, y = random_batch(0, n=10)
        with pytest.raises(PartitionError, match="10 not divisible into 4"):
            local_grads(NOBN_SPECS, 0, x, y, 4)


class TestLocalGradients:
    def test_single_worker_sum_is_batch_times_mean(self):
        x, y = random_batch(0, n=8)
        grads = local_grads(SMALL_SPECS, 7, x, y, 1)

        ref = nn.init_network(SMALL_SPECS, 7)
        nn.loss_and_grad(ref, x, y)
        assert grads.shape == (1, ref.params.grad.size)
        # exact because B = 8 is a power of two
        assert np.array_equal(grads[0], 8 * ref.params.grad)

    def test_all_duplicates_slice_scales_single_example(self):
        x1, y1 = random_batch(1, n=1)
        x = np.repeat(x1, 4, axis=0)
        y = np.repeat(y1, 4)
        grads = local_grads(NOBN_SPECS, 3, x, y, 1)
        g1 = local_grads(NOBN_SPECS, 3, x1, y1, 1)
        assert np.array_equal(grads[0], 4 * g1[0])

    def test_identical_slices_give_bitwise_identical_gradients(self):
        x1, y1 = random_batch(2, n=4)
        x = np.concatenate([x1, x1])
        y = np.concatenate([y1, y1])
        grads = local_grads(SMALL_SPECS, 5, x, y, 2)
        assert np.array_equal(grads[0], grads[1])

    @pytest.mark.parametrize("B, P", [(24, 2), (48, 3), (12, 4)])
    def test_each_worker_gradient_is_its_own_slice(self, B, P):
        # without batch norm no term couples the slices, so worker j's
        # gradients are exactly those of rows [j*B/P, (j+1)*B/P) run alone
        x, y = random_batch(10, n=B)
        grads = local_grads(NOBN_SPECS, 6, x, y, P)
        m = B // P
        assert grads.shape == (P, nn.init_network(NOBN_SPECS, 6).params.grad.size)
        for j, g in enumerate(grads):
            (alone,) = local_grads(NOBN_SPECS, 6, x[j * m:(j + 1) * m], y[j * m:(j + 1) * m], 1)
            assert g.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("B, P", [
        (32, 1), (32, 2), (32, 4), (48, 3), (24, 2), (96, 1), (12, 4),
    ])
    def test_each_worker_gradient_is_the_pairwise_tree_of_its_examples(self, B, P):
        # the reduction law end to end: at c == 1 and without batch norm,
        # every entry of worker j's gradient is tree_reduce, in batch order,
        # over the one-example gradients of its rows
        m = B // P
        assert math.gcd(nn.leaf_block(B), m) == 1
        x, y = random_batch(11, n=B)
        net = nn.init_network(NOBN_SPECS, 6)
        alone = [nn.forward_backward_shards(net, x[r:r + 1], y[r:r + 1], 1)[2][0].copy()
                 for r in range(B)]
        grads = local_grads(NOBN_SPECS, 6, x, y, P)
        for j, g in enumerate(grads):
            assert g.tobytes() == tree_reduce(alone[j * m:(j + 1) * m]).tobytes()

    def test_desynchronized_replica_detected(self):
        x, y = random_batch(3, n=8)
        workers = ready_workers(SMALL_SPECS, 5, 2)
        workers[1].net = nn.init_network(SMALL_SPECS, 5)
        workers[1].net.params["dense0.weight"].param[0, 0] += 1.0
        hp = optim.HyperParams(base_lr=0.1, epochs=1, batch_size=8)
        st_ = optim.ScheduleState(max_iterations=1, iterations_per_epoch=1)
        with pytest.raises(ConsistencyError):
            cluster.global_step(workers, x, y, hp, st_)


class TestAllReduce:
    def test_identical_summands(self):
        out = cluster.all_reduce(np.full((4, 6), 0.5))
        assert np.array_equal(out, np.full(6, 2.0))

    def test_cancellation_is_exact(self):
        g = np.random.default_rng(0).standard_normal(9)
        out = cluster.all_reduce(np.stack([g, -g]))
        assert np.all(out == 0.0)

    def test_worker_partials_reduce_to_single_pass_sum(self):
        x, y = random_batch(4, n=16)
        reduced = cluster.all_reduce(local_grads(SMALL_SPECS, 9, x, y, 4))
        full = local_grads(SMALL_SPECS, 9, x, y, 1)
        assert np.array_equal(reduced, full[0])


class TestGlobalStep:
    def _hp(self, **kw):
        base = dict(base_lr=0.1, epochs=4, batch_size=16)
        base.update(kw)
        return optim.HyperParams(**base)

    def test_single_worker_equals_plain_sgd_step(self):
        x, y = random_batch(5, n=16)
        hp = self._hp()
        st_ = optim.ScheduleState(max_iterations=10, iterations_per_epoch=5)
        workers = ready_workers(SMALL_SPECS, 2, 1)
        cluster.global_step(workers, x, y, hp, st_)

        ref = nn.init_network(SMALL_SPECS, 2)
        st2 = optim.ScheduleState(max_iterations=10, iterations_per_epoch=5)
        nn.loss_and_grad(ref, x, y)
        optim.sgd_step(ref.params, hp, st2)
        for a, b in zip(workers[0].net.params, ref.params):
            assert np.array_equal(a.param, b.param)

    @pytest.mark.parametrize("P", [2, 4, 8])
    def test_multi_worker_step_bitwise_equals_single(self, P):
        x, y = random_batch(6, n=16)
        hp = self._hp()
        nets = {}
        for workers_count in (1, P):
            st_ = optim.ScheduleState(max_iterations=10, iterations_per_epoch=5)
            workers = ready_workers(SMALL_SPECS, 4, workers_count)
            cluster.global_step(workers, x, y, hp, st_)
            nets[workers_count] = workers[0].net
        assert nets[1].checksum() == nets[P].checksum()

    def test_hundred_step_trajectories_bitwise_equal(self):
        full = make_dataset(512, seed=8)
        ds = data.Dataset(full.train_x, full.train_y, full.test_x[:0], full.test_y[:0], 3, 2)
        hp = optim.HyperParams(base_lr=0.05, epochs=13, batch_size=64)
        losses = {}
        for P in (1, 4):
            log = cluster.train(SMALL_SPECS, ds, hp, P, 11)
            losses[P] = [r.loss for r in log.rows]
        assert len(losses[1]) == 104  # floor(13 * 512 / 64)
        assert losses[1][:100] == losses[4][:100]


def lars_checksums(B, P, x, y, steps=6, seed=3):
    """Parameter checksum after each of `steps` LARS steps over consecutive B-row batches."""
    hp = optim.HyperParams(base_lr=0.4, epochs=1, batch_size=B, lars_enabled=True)
    st_ = optim.ScheduleState(max_iterations=steps, iterations_per_epoch=steps)
    workers = cluster.make_workers(nn.init_network(MLP_SPECS, seed), P)
    sums = []
    for k in range(steps):
        cluster.global_step(workers, x[k * B:(k + 1) * B], y[k * B:(k + 1) * B], hp, st_)
        sums.append(workers[0].net.checksum())
    return sums


# Trains 40 steps of the spirals MLP at (B, P) from argv and prints the checksum.
BLAS_CHILD = """
import sys
from batchlab import cluster, config, data, nn, optim
B, P = int(sys.argv[1]), int(sys.argv[2])
ds = data.gen_synthetic("synthetic-spirals", 10000, 3, 2, seed=1)
specs = config.parse_layers(
    "dense 2 64, batchnorm, relu, dense 64 64, batchnorm, relu, dense 64 3, softmax-xent")
hp = optim.HyperParams(base_lr=0.05 * B / 32, epochs=3, batch_size=B, lars_enabled=True)
st = optim.ScheduleState(max_iterations=40, iterations_per_epoch=len(ds.train_x) // B)
workers = cluster.make_workers(nn.init_network(specs, 5), P)
for k in range(40):
    rows = slice(k * B % 8192, k * B % 8192 + B)
    cluster.global_step(workers, ds.train_x[rows], ds.train_y[rows], hp, st)
print(workers[0].net.checksum())
"""


class TestLeafBlocks:
    @pytest.mark.parametrize("B, expected", [
        (1, 1), (24, 1), (32, 1), (48, 1), (64, 2), (256, 8), (512, 16), (1024, 32), (4096, 128),
    ])
    def test_rule(self, B, expected):
        assert nn.leaf_block(B) == expected

    @pytest.mark.parametrize("B, P, exact", [
        (512, 32, True), (256, 16, True), (1024, 32, True), (48, 3, True), (32, 32, True),
        (512, 64, False), (24, 2, False),
    ])
    def test_flag_names_the_exact_splits(self, spirals, B, P, exact):
        assert nn.bitwise_invariant(B, P) is exact
        if exact:
            x, y = spirals.train_x, spirals.train_y
            assert lars_checksums(B, P, x, y) == lars_checksums(B, 1, x, y)

    def test_slices_smaller_than_the_block_still_run(self, spirals):
        # 8-row slices multiply 8-row blocks where one worker multiplies 16
        assert nn.leaf_block(512) == 16
        x, y = spirals.train_x[:512], spirals.train_y[:512]
        reduced = {}
        for P in (1, 64):
            reduced[P] = cluster.all_reduce(local_grads(MLP_SPECS, 2, x, y, P))
        assert np.all(np.isfinite(reduced[64]))
        scale = np.abs(reduced[1]).max()
        assert np.abs(reduced[64] - reduced[1]).max() <= 1e-12 * scale

    @pytest.mark.parametrize("B, P", [(512, 1), (256, 16)])
    def test_bits_do_not_depend_on_blas_threads(self, B, P):
        sums = []
        for env in ({**os.environ, "OPENBLAS_NUM_THREADS": "1"}, dict(os.environ)):
            proc = subprocess.run([sys.executable, "-c", BLAS_CHILD, str(B), str(P)],
                                  env=env, capture_output=True, text=True, check=True)
            sums.append(proc.stdout.strip())
        assert sums[0] == sums[1] and len(sums[0]) == 64


def lars_step(net, P, x, y):
    """One B=len(x) LARS global_step of `net` split over P workers; returns its loss."""
    B = len(x)
    hp = optim.HyperParams(base_lr=0.05 * B / 32, epochs=1, batch_size=B, lars_enabled=True)
    st_ = optim.ScheduleState(max_iterations=10, iterations_per_epoch=10, iteration=3)
    return cluster.global_step(cluster.make_workers(net, P), x, y, hp, st_)[0]


class TestWorkspace:
    def test_stale_contents_never_leak_into_a_step(self, spirals):
        # Poison every workspace array between steps and alternate two batch
        # shapes on one network: each step must still give the loss, the
        # reduced gradient and the update of a fresh network in its state.
        net = nn.init_network(MLP_SPECS, 4)
        x, y = spirals.train_x, spirals.train_y
        for k, (B, P) in enumerate([(256, 16), (64, 4)] * 3):
            for arr in net.workspace.values():
                arr[...] = True if arr.dtype == np.bool_ else np.nan
            fresh = nn.init_network(MLP_SPECS, 4)
            fresh.params.param[:] = net.params.param
            fresh.params.momentum[:] = net.params.momentum
            fresh.bn_state = {i: dict(st_) for i, st_ in net.bn_state.items()}
            rows = slice(k * 256, k * 256 + B)
            loss = lars_step(net, P, x[rows], y[rows])
            assert loss == lars_step(fresh, P, x[rows], y[rows])
            assert net.params.grad.tobytes() == fresh.params.grad.tobytes()
            assert net.checksum() == fresh.checksum()
        assert len({key[1] for key in net.workspace if key[0] == ("dense", 0)}) == 2

    def test_each_split_builds_its_plan_once(self, spirals):
        # A step plan per (B, P) split, built at its first step: later steps
        # of that split reuse the plan and every workspace array, new ones
        # included, so a warm step makes no view and allocates no array.
        net = nn.init_network(MLP_SPECS, 4)
        x, y = spirals.train_x, spirals.train_y
        splits = [(256, 16), (64, 4)]
        for B, P in splits:
            lars_step(net, P, x[:B], y[:B])
        plans, arrays = dict(net.plans), dict(net.workspace)
        assert list(plans) == splits
        for B, P in splits * 2:
            lars_step(net, P, x[B:2 * B], y[B:2 * B])
            assert net.plans.keys() == plans.keys()
            assert all(net.plans[key] is plan for key, plan in plans.items())
            assert net.workspace.keys() == arrays.keys()
            assert all(net.workspace[key] is arr for key, arr in arrays.items())

    @pytest.mark.parametrize("B, P", [(256, 16), (512, 1), (32, 1)])
    def test_a_warm_step_allocates_no_batch_sized_array(self, spirals, B, P):
        net = nn.init_network(MLP_SPECS, 4)
        x, y = spirals.train_x[:B], spirals.train_y[:B]
        for _ in range(2):
            lars_step(net, P, x, y)
        before = dict(net.workspace)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            lars_step(net, P, x, y)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert net.workspace.keys() == before.keys()
        assert all(net.workspace[key] is arr for key, arr in before.items())
        # the step's own batch-sized arrays come to megabytes (a 1 MB weight
        # gradient block array at both shapes); what is left is small
        assert peak < 128 * 1024, peak


class TestTrain:
    def test_single_iteration_boundary(self):
        ds = make_dataset(64, seed=1)
        hp = optim.HyperParams(base_lr=0.05, epochs=1, batch_size=64)
        log = cluster.train(SMALL_SPECS, ds, hp, 1, 0)
        assert len(log.rows) == 1
        assert log.status == "completed"

    def test_same_config_gives_identical_log(self):
        ds = make_dataset(256, seed=2)
        hp = optim.HyperParams(base_lr=0.05, epochs=2, batch_size=32)
        logs = [cluster.train(SMALL_SPECS, ds, hp, 2, 9)
                for _ in range(2)]
        # wall_ms is measured, everything else must match bitwise
        sem = lambda log: [(r.epoch, r.iteration, r.lr, r.loss, r.train_acc, r.test_acc,
                            r.lambda_min, r.lambda_med, r.lambda_max) for r in log.rows]
        assert sem(logs[0]) == sem(logs[1])
        assert logs[0].status == logs[1].status

    def test_iteration_accounting_matches_cost_model(self):
        ds = make_dataset(300, seed=3)
        hp = optim.HyperParams(base_lr=0.05, epochs=3, batch_size=32)
        log = cluster.train(SMALL_SPECS, ds, hp, 1, 0)
        assert len(log.rows) == costmodel.iterations(3, 300, 32) == 28

    def test_epochs_and_evaluations_follow_the_schedule(self, monkeypatch):
        # 300 examples at B=32: 9 steps per epoch, 28 steps in 3 epochs
        steps, evaluated_after = [], []
        step, accuracy = cluster.global_step, nn.accuracy

        def counted_step(*args):
            steps.append(1)
            return step(*args)

        def counted_accuracy(*args):
            evaluated_after.append(len(steps))
            return accuracy(*args)

        monkeypatch.setattr(cluster, "global_step", counted_step)
        monkeypatch.setattr(nn, "accuracy", counted_accuracy)
        ds = make_dataset(300, seed=3)
        hp = optim.HyperParams(base_lr=0.05, epochs=3, batch_size=32)
        log = cluster.train(SMALL_SPECS, ds, hp, 1, 0)
        assert [r.epoch for r in log.rows] == [0] * 9 + [1] * 9 + [2] * 9 + [3]
        assert evaluated_after == [0, 9, 18, 27, 28]

    def test_empty_test_split_reads_nan(self, monkeypatch):
        monkeypatch.setattr(nn, "accuracy", lambda *a: pytest.fail("evaluated an empty split"))
        ds = make_dataset(300, seed=3)
        ds.test_x, ds.test_y = ds.test_x[:0], ds.test_y[:0]
        hp = optim.HyperParams(base_lr=0.05, epochs=2, batch_size=32)
        log = cluster.train(SMALL_SPECS, ds, hp, 1, 0)
        assert len(log.rows) == 18 and log.status == "completed"
        assert all(np.isnan(r.test_acc) for r in log.rows)

    def test_divergent_run_preserves_partial_log(self):
        ds = make_dataset(256, seed=4)
        hp = optim.HyperParams(base_lr=1e6, epochs=4, batch_size=64, weight_decay=0.0)
        log = cluster.train(SMALL_SPECS, ds, hp, 1, 0)
        assert log.diverged
        assert log.status.startswith("diverged@")
        assert len(log.rows) < costmodel.iterations(4, 256, 64)
        # the forward pass overflowed: the status names the layer
        assert re.fullmatch(r"diverged@\d+ layer \d+", log.status), log.status

    def test_evaluation_overflow_is_a_divergence(self):
        # the test inputs overflow dense0 in the evaluation before the first step
        ds = make_dataset(256, seed=4)
        with np.errstate(over="ignore"):
            ds.test_x = ds.test_x * 1e308
        hp = optim.HyperParams(base_lr=0.05, epochs=2, batch_size=64)
        with np.errstate(over="ignore", invalid="ignore"):
            log = cluster.train(SMALL_SPECS, ds, hp, 1, 0)
        assert log.status == "diverged@0 layer 0"
        assert log.rows == []

    @pytest.mark.parametrize("P", [1, 4])
    def test_update_divergence_names_group(self, P):
        # inputs of scale 10 give dense0.weight gradients past 1, so lr = 1e308
        # overflows the first update before any forward pass does
        ds = make_dataset(256, seed=4)
        ds.train_x *= 10.0
        hp = optim.HyperParams(base_lr=1e308, epochs=4, batch_size=64)
        with np.errstate(over="ignore", invalid="ignore"):
            log = cluster.train(NOBN_SPECS, ds, hp, P, 0)
        assert log.status == "diverged@0 group dense0.weight"
        assert log.rows == []

    def test_label_outside_classes_rejected(self):
        ds = make_dataset(256, seed=6)
        ds.train_y[5] = -1
        hp = optim.HyperParams(base_lr=0.05, epochs=1, batch_size=32)
        with pytest.raises(ConfigError, match=r"labels span \[-1, 2\]"):
            cluster.train(SMALL_SPECS, ds, hp, 1, 0)

    @pytest.mark.parametrize("n_labels", [250, 260])
    def test_label_count_must_match_examples(self, n_labels):
        ds = make_dataset(256, seed=6)
        ds.train_y = np.resize(ds.train_y, n_labels)
        hp = optim.HyperParams(base_lr=0.05, epochs=1, batch_size=32)
        with pytest.raises(ConfigError, match=re.escape(f"labels of shape ({n_labels},) for 256")):
            cluster.train(SMALL_SPECS, ds, hp, 1, 0)

    def test_zero_workers_is_the_config_error(self, monkeypatch):
        # the config's own message, before any worker record is made
        monkeypatch.setattr(cluster, "make_workers", lambda *a: pytest.fail("made workers"))
        ds = make_dataset(256, seed=5)
        hp = optim.HyperParams(base_lr=0.05, epochs=1, batch_size=32)
        with pytest.raises(ConfigError, match="^need at least one worker$"):
            cluster.train(SMALL_SPECS, ds, hp, 0, 0)

    def test_indivisible_split_fails_at_the_first_step(self):
        ds = make_dataset(256, seed=5)
        hp = optim.HyperParams(base_lr=0.05, epochs=1, batch_size=32)
        with pytest.raises(PartitionError, match="batch of 32 not divisible into 3 shards"):
            cluster.train(SMALL_SPECS, ds, hp, 3, 0)
