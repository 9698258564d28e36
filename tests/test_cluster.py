import numpy as np
import pytest

from batchlab import cluster, costmodel, data, nn, optim
from batchlab.errors import ConfigError, ConsistencyError, PartitionError, ProtocolError
from conftest import SMALL_SPECS, random_batch

NOBN_SPECS = [nn.dense(2, 4), nn.relu(), nn.dense(4, 3), nn.softmax_xent()]


def make_dataset(n, seed=0, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    y = rng.integers(0, classes, n)
    return data.Dataset(x, y, x[: max(n // 10, 1)], y[: max(n // 10, 1)], classes, 2)


def ready_workers(specs, seed, batch_x, batch_y, P):
    net = nn.init_network(specs, seed)
    workers = cluster.make_workers(net, P)
    cluster.assign_batch(workers, batch_x, batch_y)
    return workers


class TestPartition:
    def test_even_slices_preserve_order(self):
        x = np.arange(16, dtype=float).reshape(8, 2)
        y = np.arange(8)
        parts = cluster.partition_batch(x, y, 4)
        assert len(parts) == 4
        assert all(len(px) == 2 for px, _ in parts)
        assert np.array_equal(np.concatenate([px for px, _ in parts]), x)
        assert np.array_equal(np.concatenate([py for _, py in parts]), y)

    def test_single_worker_identity(self):
        x = np.arange(16, dtype=float).reshape(8, 2)
        y = np.arange(8)
        (px, py), = cluster.partition_batch(x, y, 1)
        assert np.array_equal(px, x) and np.array_equal(py, y)

    def test_indivisible_rejected(self):
        x = np.zeros((10, 2))
        with pytest.raises(PartitionError):
            cluster.partition_batch(x, np.zeros(10, dtype=int), 4)

    def test_cluster_run_validates_divisibility(self):
        with pytest.raises(PartitionError):
            cluster.ClusterRun(4, 10)


class TestLocalGradients:
    def test_single_worker_sum_is_batch_times_mean(self):
        x, y = random_batch(0, n=8)
        workers = ready_workers(SMALL_SPECS, 7, x, y, 1)
        _, _, grads = cluster.local_gradients(workers)

        ref = nn.init_network(SMALL_SPECS, 7)
        _, cache = nn.forward_loss(ref, x, y)
        nn.backward(ref, cache)
        for g in ref.params:
            # exact because B = 8 is a power of two
            assert np.array_equal(grads[0][g.name], 8 * g.grad)

    def test_all_duplicates_slice_scales_single_example(self):
        x1, y1 = random_batch(1, n=1)
        x = np.repeat(x1, 4, axis=0)
        y = np.repeat(y1, 4)
        workers = ready_workers(NOBN_SPECS, 3, x, y, 1)
        _, _, grads = cluster.local_gradients(workers)
        single = ready_workers(NOBN_SPECS, 3, x1, y1, 1)
        _, _, g1 = cluster.local_gradients(single)
        for name in grads[0]:
            assert np.array_equal(grads[0][name], 4 * g1[0][name])

    def test_identical_slices_give_bitwise_identical_gradients(self):
        x1, y1 = random_batch(2, n=4)
        x = np.concatenate([x1, x1])
        y = np.concatenate([y1, y1])
        workers = ready_workers(SMALL_SPECS, 5, x, y, 2)
        _, _, grads = cluster.local_gradients(workers)
        for name in grads[0]:
            assert np.array_equal(grads[0][name], grads[1][name])

    @pytest.mark.parametrize("B, P", [(24, 2), (48, 3), (12, 4)])
    def test_each_worker_gradient_is_its_own_slice(self, B, P):
        # without batch norm no term couples the slices, so every worker's
        # gradients are exactly those of its slice run alone
        x, y = random_batch(10, n=B)
        workers = ready_workers(NOBN_SPECS, 6, x, y, P)
        _, _, grads = cluster.local_gradients(workers)
        assert len(grads) == P
        for w, g in zip(workers, grads):
            _, _, (alone,) = nn.forward_backward_shards(w.net, [w.batch_x], [w.batch_y])
            assert set(g) == set(alone)
            for name in g:
                assert g[name].tobytes() == alone[name].tobytes()

    def test_unequal_shards_rejected(self):
        x, y = random_batch(11, n=8)
        net = nn.init_network(NOBN_SPECS, 6)
        with pytest.raises(PartitionError, match=r"\[3, 5\]"):
            nn.forward_backward_shards(net, [x[:3], x[3:]], [y[:3], y[3:]])

    def test_desynchronized_replica_detected(self):
        x, y = random_batch(3, n=8)
        workers = ready_workers(SMALL_SPECS, 5, x, y, 2)
        workers[1].net = nn.init_network(SMALL_SPECS, 5)
        workers[1].net.params["dense0.weight"].param[0, 0] += 1.0
        with pytest.raises(ConsistencyError):
            cluster.local_gradients(workers)


class TestAllReduce:
    def test_identical_summands(self):
        g = {"w": np.full((2, 2), 0.5)}
        out = cluster.all_reduce([dict(g) for _ in range(4)])
        assert np.array_equal(out["w"], np.full((2, 2), 2.0))

    def test_cancellation_is_exact(self):
        g = np.random.default_rng(0).standard_normal((3, 3))
        out = cluster.all_reduce([{"w": g}, {"w": -g}])
        assert np.all(out["w"] == 0.0)

    def test_shape_mismatch_names_group(self):
        with pytest.raises(ProtocolError, match="w"):
            cluster.all_reduce([{"w": np.zeros(2)}, {"w": np.zeros(3)}])

    def test_worker_partials_reduce_to_single_pass_sum(self):
        x, y = random_batch(4, n=16)
        multi = ready_workers(SMALL_SPECS, 9, x, y, 4)
        _, _, grads = cluster.local_gradients(multi)
        reduced = cluster.all_reduce(grads)

        single = ready_workers(SMALL_SPECS, 9, x, y, 1)
        _, _, full = cluster.local_gradients(single)
        for name in reduced:
            assert np.array_equal(reduced[name], full[0][name])


class TestGlobalStep:
    def _hp(self, **kw):
        base = dict(base_lr=0.1, epochs=4, batch_size=16)
        base.update(kw)
        return optim.HyperParams(**base)

    def test_single_worker_equals_plain_sgd_step(self):
        x, y = random_batch(5, n=16)
        hp = self._hp()
        st_ = optim.ScheduleState(max_iterations=10, iterations_per_epoch=5)
        run = cluster.ClusterRun(1, 16, seed=2)
        workers = ready_workers(SMALL_SPECS, 2, x, y, 1)
        cluster.global_step(run, workers, hp, st_)

        ref = nn.init_network(SMALL_SPECS, 2)
        st2 = optim.ScheduleState(max_iterations=10, iterations_per_epoch=5)
        _, cache = nn.forward_loss(ref, x, y)
        nn.backward(ref, cache)
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
            run = cluster.ClusterRun(workers_count, 16, seed=4)
            workers = ready_workers(SMALL_SPECS, 4, x, y, workers_count)
            cluster.global_step(run, workers, hp, st_)
            nets[workers_count] = workers[0].net
        assert nets[1].checksum() == nets[P].checksum()

    def test_hundred_step_trajectories_bitwise_equal(self):
        ds = make_dataset(512, seed=8)
        hp = optim.HyperParams(base_lr=0.05, epochs=13, batch_size=64)
        losses = {}
        for P in (1, 4):
            log = cluster.train(cluster.ClusterRun(P, 64, seed=11), SMALL_SPECS, ds, hp,
                                eval_test=False)
            losses[P] = [r.loss for r in log.rows]
        assert len(losses[1]) == 104  # floor(13 * 512 / 64)
        assert losses[1][:100] == losses[4][:100]


class TestTrain:
    def test_single_iteration_boundary(self):
        ds = make_dataset(64, seed=1)
        hp = optim.HyperParams(base_lr=0.05, epochs=1, batch_size=64)
        log = cluster.train(cluster.ClusterRun(1, 64, seed=0), SMALL_SPECS, ds, hp)
        assert len(log.rows) == 1
        assert log.status == "completed"

    def test_same_config_gives_identical_log(self):
        ds = make_dataset(256, seed=2)
        hp = optim.HyperParams(base_lr=0.05, epochs=2, batch_size=32)
        logs = [cluster.train(cluster.ClusterRun(2, 32, seed=9), SMALL_SPECS, ds, hp)
                for _ in range(2)]
        # wall_ms is measured, everything else must match bitwise
        sem = lambda log: [(r.epoch, r.iteration, r.lr, r.loss, r.train_acc, r.test_acc,
                            r.lambda_min, r.lambda_med, r.lambda_max) for r in log.rows]
        assert sem(logs[0]) == sem(logs[1])
        assert logs[0].status == logs[1].status

    def test_iteration_accounting_matches_cost_model(self):
        ds = make_dataset(300, seed=3)
        hp = optim.HyperParams(base_lr=0.05, epochs=3, batch_size=32)
        log = cluster.train(cluster.ClusterRun(1, 32, seed=0), SMALL_SPECS, ds, hp)
        assert len(log.rows) == costmodel.iterations(3, 300, 32) == 28

    def test_divergent_run_preserves_partial_log(self):
        ds = make_dataset(256, seed=4)
        hp = optim.HyperParams(base_lr=1e6, epochs=4, batch_size=64, weight_decay=0.0)
        log = cluster.train(cluster.ClusterRun(1, 64, seed=0), SMALL_SPECS, ds, hp)
        assert log.diverged
        assert log.status.startswith("diverged@")
        assert len(log.rows) < costmodel.iterations(4, 256, 64)

    def test_mismatched_batch_rejected(self):
        ds = make_dataset(256, seed=5)
        hp = optim.HyperParams(base_lr=0.05, epochs=2, batch_size=32)
        with pytest.raises(ConfigError):
            cluster.train(cluster.ClusterRun(1, 64, seed=0), SMALL_SPECS, ds, hp)
