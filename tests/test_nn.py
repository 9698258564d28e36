import math
import warnings

import numpy as np
import pytest

from batchlab import nn
from batchlab.errors import (
    ConfigError,
    DegenerateBatchError,
    NumericOverflowError,
)
from conftest import MLP_SPECS, SMALL_SPECS, gradient_errors, random_batch


class TestInit:
    def test_same_seed_bitwise_identical(self):
        specs = [nn.dense(2, 2), nn.softmax_xent()]
        a = nn.init_network(specs, 7)
        b = nn.init_network(specs, 7)
        for ga, gb in zip(a.params, b.params):
            assert np.array_equal(ga.param, gb.param)

    def test_different_seed_differs(self):
        specs = [nn.dense(2, 2), nn.softmax_xent()]
        a = nn.init_network(specs, 7)
        b = nn.init_network(specs, 8)
        assert not np.array_equal(a.params["dense0.weight"].param, b.params["dense0.weight"].param)

    def test_batchnorm_identity_init(self):
        net = nn.init_network(SMALL_SPECS, 3)
        assert np.all(net.params["bn1.scale"].param == 1.0)
        assert np.all(net.params["bn1.shift"].param == 0.0)

    def test_dense_shapes(self):
        net = nn.init_network([nn.dense(3, 5), nn.softmax_xent()], 0)
        assert net.params["dense0.weight"].param.shape == (3, 5)
        assert net.params["dense0.bias"].param.shape == (5,)

    def test_zero_buffers(self):
        net = nn.init_network(SMALL_SPECS, 3)
        for g in net.params:
            assert np.all(g.grad == 0.0)
            assert np.all(g.momentum_buf == 0.0)

    def test_groups_are_views_of_the_flat_vectors(self):
        net = nn.init_network(SMALL_SPECS, 3)
        params = net.params
        names = ["dense0.weight", "dense0.bias", "bn1.scale", "bn1.shift",
                 "dense3.weight", "dense3.bias"]
        assert [g.name for g in params] == names
        # the spans tile [0, |W|) in init_network order
        start = 0
        for g in params:
            assert g.span == slice(start, start + g.param.size)
            start = g.span.stop
        assert start == params.param.size == params.grad.size == params.momentum.size
        for g in params:
            for view, flat in ((g.param, params.param), (g.grad, params.grad),
                               (g.momentum_buf, params.momentum)):
                assert np.shares_memory(view, flat)
                assert np.array_equal(view.reshape(-1), flat[g.span])
        # a write through either side is seen by the other
        params["bn1.scale"].param[1] = 5.0
        assert params.param[params["bn1.scale"].span.start + 1] == 5.0
        params.grad[:] = 0.25
        assert np.all(params["dense3.weight"].grad == 0.25)

    def test_group_arrays_cannot_be_rebound(self):
        net = nn.init_network(SMALL_SPECS, 3)
        with pytest.raises(AttributeError):
            net.params["dense0.weight"].param = np.zeros((2, 4))

    def test_incompatible_dims_names_layers(self):
        specs = [nn.dense(2, 4), nn.dense(5, 3), nn.softmax_xent()]
        with pytest.raises(ConfigError, match="0->1"):
            nn.init_network(specs, 0)

    @pytest.mark.parametrize("eps", [0.0, -1e-5, math.nan, math.inf])
    def test_batchnorm_eps_must_be_finite_and_positive(self, eps):
        specs = [nn.dense(2, 4), nn.batchnorm(eps), nn.relu(), nn.dense(4, 3), nn.softmax_xent()]
        with pytest.raises(ConfigError, match="layer 1: batchnorm eps must be finite and positive"):
            nn.init_network(specs, 0)

    def test_must_end_in_loss_layer(self):
        with pytest.raises(ConfigError, match="softmax-xent"):
            nn.init_network([nn.dense(2, 3)], 0)

    def test_weight_init_within_scaled_uniform_bound(self):
        net = nn.init_network([nn.dense(30, 50), nn.softmax_xent()], 11)
        lim = math.sqrt(6.0 / 80.0)
        w = net.params["dense0.weight"].param
        assert np.all(np.abs(w) <= lim)
        assert w.std() > 0


class TestForwardLoss:
    def test_uniform_logits_give_log_c(self):
        net = nn.init_network([nn.dense(2, 5), nn.softmax_xent()], 0)
        net.params["dense0.weight"].param.fill(0.0)
        x, y = random_batch(0, n=8, classes=5)
        loss = nn.loss_and_grad(net, x, y)
        assert loss == pytest.approx(math.log(5), rel=1e-12)

    def test_saturated_logits_give_near_zero_loss(self):
        net = nn.init_network([nn.dense(1, 2), nn.softmax_xent()], 0)
        net.params["dense0.weight"].param[:] = [[40.0, -40.0]]
        loss = nn.loss_and_grad(net, np.ones((4, 1)), np.zeros(4, dtype=int))
        assert loss < 1e-8

    def test_scalar_reference_oracle(self):
        # independent per-scalar recomputation of a dense-relu-dense net
        specs = [nn.dense(2, 3), nn.relu(), nn.dense(3, 2), nn.softmax_xent()]
        net = nn.init_network(specs, 7)
        x, y = random_batch(7, n=4, classes=2)
        loss = nn.loss_and_grad(net, x, y)

        w0 = net.params["dense0.weight"].param
        b0 = net.params["dense0.bias"].param
        w1 = net.params["dense2.weight"].param
        b1 = net.params["dense2.bias"].param
        total = 0.0
        for b in range(4):
            h = [max(sum(x[b][i] * w0[i][j] for i in range(2)) + b0[j], 0.0) for j in range(3)]
            z = [sum(h[i] * w1[i][j] for i in range(3)) + b1[j] for j in range(2)]
            m = max(z)
            logsum = m + math.log(sum(math.exp(v - m) for v in z))
            total += logsum - z[y[b]]
        assert loss == pytest.approx(total / 4, rel=1e-12)

    def test_bad_batch_width_rejected(self, small_net):
        with pytest.raises(ConfigError, match="incompatible"):
            nn.loss_and_grad(small_net, np.zeros((4, 3)), np.zeros(4, dtype=int))

    def test_empty_batch_rejected(self, small_net):
        with pytest.raises(ConfigError, match="empty training batch"):
            nn.loss_and_grad(small_net, np.empty((0, 2)), [])
        with pytest.raises(ConfigError, match="empty training batch"):
            nn.forward_backward_shards(small_net, np.empty((0, 2)), np.empty(0, np.int64), 1)

    def test_nonfinite_forward_names_layer(self, small_net):
        small_net.params["dense3.weight"].param[0, 0] = np.inf
        x, y = random_batch(1)
        with pytest.raises(NumericOverflowError) as exc, np.errstate(invalid="ignore"):
            nn.loss_and_grad(small_net, x, y)
        assert exc.value.layer_index == 3

    def test_failed_step_leaves_the_network_untouched(self, small_net):
        # The step checks its loss once and names the layer by rerunning the
        # walk; neither may warn, and no running statistic may be folded in.
        small_net.params["dense3.weight"].param[:] = np.inf
        before = small_net.checksum()
        x, y = random_batch(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError) as exc:
                nn.loss_and_grad(small_net, x, y)
        assert exc.value.layer_index == 3
        assert small_net.checksum() == before


class TestBackward:
    @pytest.mark.parametrize("seed", range(10))
    def test_finite_difference_oracle(self, seed):
        net = nn.init_network(SMALL_SPECS, seed)
        x, y = random_batch(seed + 100)
        for name, err in gradient_errors(net, x, y).items():
            assert err < 1e-5, f"{name}: rel err {err}"

    def test_zero_input_gives_zero_weight_gradient(self):
        net = nn.init_network([nn.dense(2, 3), nn.softmax_xent()], 1)
        nn.loss_and_grad(net, np.zeros((4, 2)), np.zeros(4, dtype=int))
        assert np.all(net.params["dense0.weight"].grad == 0.0)

    def test_duplicated_batch_leaves_mean_gradient_unchanged(self, small_net):
        x, y = random_batch(3, n=8)
        loss1 = nn.loss_and_grad(small_net, x, y)
        g1 = {g.name: g.grad.copy() for g in small_net.params}
        xx, yy = np.concatenate([x, x]), np.concatenate([y, y])
        loss2 = nn.loss_and_grad(small_net, xx, yy)
        assert loss2 == pytest.approx(loss1, rel=1e-12)
        for g in small_net.params:
            assert g.grad == pytest.approx(g1[g.name], rel=1e-12, abs=1e-15)

    def test_permuted_batch_equal_within_tolerance(self, small_net):
        x, y = random_batch(4, n=8)
        loss1 = nn.loss_and_grad(small_net, x, y)
        g1 = {g.name: g.grad.copy() for g in small_net.params}
        perm = np.random.default_rng(0).permutation(8)
        loss2 = nn.loss_and_grad(small_net, x[perm], y[perm])
        assert loss2 == pytest.approx(loss1, rel=1e-12)
        for g in small_net.params:
            assert g.grad == pytest.approx(g1[g.name], rel=1e-12, abs=1e-15)

    def test_identical_inputs_bitwise_identical_results(self):
        x, y = random_batch(5)
        outs = []
        for _ in range(2):
            net = nn.init_network(SMALL_SPECS, 9)
            loss = nn.loss_and_grad(net, x, y)
            outs.append((loss, {g.name: g.grad.copy() for g in net.params}))
        assert outs[0][0] == outs[1][0]
        for name in outs[0][1]:
            assert np.array_equal(outs[0][1][name], outs[1][1][name])


class TestBatchNorm:
    def _bn_net(self):
        # dense is frozen to identity so batchnorm sees the raw inputs
        specs = [nn.dense(3, 3), nn.batchnorm(), nn.dense(3, 2), nn.softmax_xent()]
        net = nn.init_network(specs, 0)
        net.params["dense0.weight"].param[:] = np.eye(3)
        net.params["dense0.bias"].param.fill(0.0)
        return net

    def test_normalized_input_is_near_fixed_point(self):
        net = self._bn_net()
        rng = np.random.default_rng(2)
        x = rng.standard_normal((64, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        _, correct, _ = nn.forward_backward_shards(net, x, np.zeros(64, dtype=np.int64), 1)
        # recompute the bn output directly through the eval-path arithmetic
        mean = x.mean(axis=0)
        var = (x * x).mean(axis=0) - mean * mean
        out = (x - mean) / np.sqrt(var + nn.BN_EPS)
        assert np.allclose(out, x, atol=1e-4)

    def test_constant_column_maps_to_shift(self):
        net = self._bn_net()
        net.params["bn1.shift"].param[:] = [0.5, -1.0, 2.0]
        x = np.full((16, 3), 3.25)
        # capture the bn layer output by zeroing the downstream dense weight
        # and reading activations via a direct recomputation instead
        mean = np.full(3, 3.25)
        var = np.zeros(3)
        out = net.params["bn1.scale"].param * ((x - mean) / np.sqrt(var + nn.BN_EPS)) \
            + net.params["bn1.shift"].param
        assert np.allclose(out, net.params["bn1.shift"].param, atol=1e-12)
        # and the engine itself must not blow up on zero variance
        loss = nn.loss_and_grad(net, x, np.zeros(16, dtype=int))
        assert math.isfinite(loss)

    def test_batch_of_one_rejected_in_training(self, small_net):
        with pytest.raises(DegenerateBatchError):
            nn.loss_and_grad(small_net, np.zeros((1, 2)), np.zeros(1, dtype=int))

    def test_scale_and_shift_finite_difference(self):
        net = nn.init_network(SMALL_SPECS, 13)
        x, y = random_batch(13)
        errs = gradient_errors(net, x, y)
        assert errs["bn1.scale"] < 1e-5
        assert errs["bn1.shift"] < 1e-5

    def test_running_stats_track_batches(self):
        net = nn.init_network(SMALL_SPECS, 1)
        x, y = random_batch(8, n=32)
        before = net.bn_state[1]["mean"].copy()
        nn.loss_and_grad(net, x, y)
        after = net.bn_state[1]["mean"]
        assert not np.array_equal(before, after)

    def test_training_never_reads_running_stats(self):
        # training normalizes with batch statistics, so poisoned running
        # statistics must leave the loss and the gradient untouched
        x, y = random_batch(9, n=32)
        poisoned, fresh = nn.init_network(MLP_SPECS, 6), nn.init_network(MLP_SPECS, 6)
        for st in poisoned.bn_state.values():
            st["mean"][:] = np.nan
            st["var"][:] = np.nan
        loss = nn.loss_and_grad(poisoned, x, y)
        assert loss == nn.loss_and_grad(fresh, x, y)
        assert poisoned.params.grad.tobytes() == fresh.params.grad.tobytes()


class TestEval:
    def _trained_net(self):
        net = nn.init_network(SMALL_SPECS, 5)
        for step in range(20):
            x, y = random_batch(step, n=16)
            nn.loss_and_grad(net, 3.0 * x + 1.0, y)
            net.params.param -= 0.1 * net.params.grad
        return net

    def _reference(self, net, x, batch_stats):
        p = net.params
        h = x @ p["dense0.weight"].param + p["dense0.bias"].param
        if batch_stats:
            mean, var = h.mean(axis=0), h.var(axis=0)
        else:
            mean, var = net.bn_state[1]["mean"], net.bn_state[1]["var"]
        h = (h - mean) / np.sqrt(var + nn.BN_EPS) * p["bn1.scale"].param + p["bn1.shift"].param
        h = np.maximum(h, 0.0)
        return h @ p["dense3.weight"].param + p["dense3.bias"].param

    def test_logits_use_running_statistics(self):
        net = self._trained_net()
        x, _ = random_batch(99, n=50)
        logits = nn.predict_logits(net, x)
        np.testing.assert_allclose(logits, self._reference(net, x, False), rtol=1e-12)
        assert not np.allclose(logits, self._reference(net, x, True), rtol=1e-6)

    def test_blocked_accuracy_counts_the_hits_of_one_pass(self):
        net = self._trained_net()
        x, y = random_batch(98, n=3 * nn.EVAL_ROWS + 5)
        hits = np.count_nonzero(nn.predict_logits(net, x).argmax(axis=1) == y)
        assert nn.accuracy(net, x, y) == hits / len(x)

    def test_accuracy_of_no_rows_is_nan_without_a_warning(self, small_net):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acc = nn.accuracy(small_net, np.empty((0, 2)), [])
        assert math.isnan(acc)

    def test_overflow_names_the_first_layer_whatever_the_block(self):
        net = self._trained_net()
        net.params["dense3.weight"].param[:] *= 1e10
        x, y = random_batch(97, n=3 * nn.EVAL_ROWS)
        x[5] = 1e300  # finite through dense0 and batch norm, overflows at dense3
        x[2 * nn.EVAL_ROWS + 1, 0] = np.inf  # overflows at dense0, in a later block
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericOverflowError) as whole:
                nn.predict_logits(net, x)
            with pytest.raises(NumericOverflowError) as blocked:
                nn.accuracy(net, x, y)
        assert blocked.value.layer_index == whole.value.layer_index == 0

    @pytest.mark.parametrize("labels, match", [
        (np.array([0]), "labels of shape"),
        (np.full(nn.EVAL_ROWS, 7), "network has 3 classes"),
    ])
    def test_accuracy_rejects_labels_that_do_not_fit(self, labels, match):
        net = self._trained_net()
        x, _ = random_batch(96, n=nn.EVAL_ROWS)
        with pytest.raises(ConfigError, match=match):
            nn.accuracy(net, x, labels)
