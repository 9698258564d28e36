import math
import tracemalloc
import warnings

import numpy as np
import pytest

from batchlab import nn
from batchlab.errors import (
    ConfigError,
    DegenerateBatchError,
    NumericOverflowError,
)
from batchlab.reduction import run_levels
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

    def test_running_statistics_cannot_be_rebound(self):
        # bn_state's mappings are read-only views of the flat running
        # statistics: a rebinding fails at once, and writes go into the vector
        net = nn.init_network(SMALL_SPECS, 3)
        with pytest.raises(TypeError):
            net.bn_state[1] = {"mean": np.zeros(4), "var": np.ones(4)}
        with pytest.raises(TypeError):
            net.bn_state[1]["mean"] = np.zeros(4)
        assert net.running.tolist() == [0.0] * 4 + [1.0] * 4
        net.bn_state[1]["var"][:] = 2.0
        assert net.running.tolist() == [0.0] * 4 + [2.0] * 4

    def test_network_arrays_cannot_be_rebound(self):
        # the plans' calls are bound to net.params' and net.running's arrays,
        # so both are written in place and neither can be rebound
        net = nn.init_network(SMALL_SPECS, 1)
        x, y = random_batch(8)
        nn.loss_and_grad(net, x, y)
        with pytest.raises(AttributeError):
            net.running = net.running.copy()
        with pytest.raises(AttributeError):
            net.params = nn.init_network(SMALL_SPECS, 2).params
        # in place, a step sees both writes
        other = nn.init_network(SMALL_SPECS, 2)
        net.running[:] = other.running
        net.params.param[:] = other.params.param
        assert nn.loss_and_grad(net, x, y) == nn.loss_and_grad(other, x, y)
        assert net.checksum() == other.checksum()
        net.params.param -= 1.0
        assert np.array_equal(net.params["dense0.weight"].param,
                              other.params["dense0.weight"].param - 1.0)

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

    @pytest.mark.parametrize("labels, named", [
        ([0.5, 1.7], r"2 are not: \[0\.5, 1\.7\]"),
        ([0.9, 1.0], r"1 are not: \[0\.9\]"),
        ([np.nan, 1.0], r"1 are not: \[nan\]"),
        ([2.0, np.inf], r"1 are not: \[inf\]"),
        ([0.0, 2.0 ** 63], r"1 are not: \[9\.223372036854776e\+18\]"),
    ], ids=["fractions", "one-fraction", "nan", "inf", "past-int64"])
    def test_labels_that_are_not_whole_numbers_rejected(self, small_net, labels, named):
        # a cast to int64 would train on, or count hits against, other labels
        x, _ = random_batch(3, n=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NaN label must not warn on its way out
            with pytest.raises(ConfigError, match=f"labels must be whole numbers; {named}"):
                nn.loss_and_grad(small_net, x, labels)
            with pytest.raises(ConfigError, match=f"labels must be whole numbers; {named}"):
                nn.accuracy(small_net, x, labels)

    @pytest.mark.parametrize("inputs, labels, bad_inputs", [
        ([[0.0, 1.0], [1.0, 0.0]], ["0.5", "1"], False),
        ([[0.0, 1.0], [1.0, 0.0]], [0, None], False),
        ([["a", "b"]], [0], True),
        ([[0.0, 1.0], [1.0]], [0, 1], True),
        ([[0.0, 1.0], [1.0, 0.0]], [[0], [1, 2]], False),
    ], ids=["string-labels", "none-label", "string-inputs", "ragged-rows", "ragged-labels"])
    def test_batch_that_is_not_numeric_rejected(self, small_net, inputs, labels, bad_inputs):
        # numpy's own ValueError or TypeError would escape the package's errors
        named = "batch is not numeric|labels must be whole numbers"
        with pytest.raises(ConfigError, match=named):
            nn.loss_and_grad(small_net, inputs, labels)
        with pytest.raises(ConfigError, match=named):
            nn.accuracy(small_net, inputs, labels)
        if bad_inputs:
            with pytest.raises(ConfigError, match="batch is not numeric"):
                nn.predict_logits(small_net, inputs)

    @pytest.mark.parametrize("value", [None, np.nan, -np.inf])
    def test_inputs_that_are_not_finite_rejected(self, small_net, value):
        # a bad batch, not a divergence at layer 0; numpy reads None as NaN
        inputs = [[0.0, value], [1.0, 2.0]]
        with pytest.raises(ConfigError, match="^inputs must be finite; 1 are not$"):
            nn.loss_and_grad(small_net, inputs, [0, 1])
        with pytest.raises(ConfigError, match="^inputs must be finite; 1 are not$"):
            nn.accuracy(small_net, inputs, [0, 1])
        with pytest.raises(ConfigError, match="^inputs must be finite; 1 are not$"):
            nn.predict_logits(small_net, inputs)

    def test_whole_float_labels_accepted(self, small_net):
        x, _ = random_batch(3, n=2)
        assert nn.accuracy(small_net, x, [2.0, 0.0]) == nn.accuracy(small_net, x, [2, 0])
        assert nn.loss_and_grad(small_net, x, [2.0, 0.0]) == nn.loss_and_grad(small_net, x, [2, 0])

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

    @pytest.mark.parametrize("P", [1, 4])
    @pytest.mark.parametrize("label", [3, -1])
    def test_step_rejects_a_label_outside_the_classes(self, small_net, P, label):
        # The loss layer's gather clips its indices, so a stray label would
        # quietly train on another class; the step raises check_batch's
        # error before it folds a batch statistic into the network.
        x, y = random_batch(1)
        y[5] = label
        before = small_net.checksum()
        with pytest.raises(ConfigError, match="but the network has 3 classes"):
            nn.forward_backward_shards(small_net, x, y, P)
        assert small_net.checksum() == before

    @pytest.mark.parametrize("weights, label, layer", [
        ([[1000.0, -1000.0]], 1, 1),
        ([[0.0, -np.inf]], 0, 0),
    ], ids=["label-probability-underflows", "minus-inf-logit-finite-loss"])
    def test_nonfinite_loss_names_its_layer(self, weights, label, layer):
        # The label's probability underflowing leaves every layer finite but
        # not the loss, so the loss layer is named; a -inf logit can leave
        # the loss finite, and the dense layer that made it is named.
        net = nn.init_network([nn.dense(1, 2), nn.softmax_xent()], 0)
        net.params["dense0.weight"].param[:] = weights
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError) as exc:
                nn.loss_and_grad(net, np.ones((4, 1)), np.full(4, label))
        assert exc.value.layer_index == layer


class TestStepPlan:
    @pytest.mark.parametrize("B, P", [(32, 1), (512, 1), (256, 16)])
    def test_per_layer_lists_make_the_whole_step(self, B, P):
        # Each plan entry is (forward calls, backward calls, output), the
        # loss layer's output being (loss sum, lowest logit).  Run by hand
        # over poisoned arrays, the forward lists first layer first, the
        # backward lists last layer first and then the gradient-row tree
        # give the step's bits.
        net = nn.init_network(MLP_SPECS, 5)
        x, y = random_batch(B, n=B)
        loss_sum, _, grads = nn.forward_backward_shards(net, x, y, P)
        want = np.stack(grads).tobytes()
        plan = net.plans[B, P]
        for buf in net.workspace.values():
            buf.fill(np.nan)
        x.take(plan.perm, axis=0, out=plan.input)
        y.take(plan.perm, out=plan.labels)
        for forward, _, _ in plan.layers:
            run_levels(forward)
        assert repr(float(plan.layers[-1][2][0])) == repr(loss_sum)
        per_layer = [call for _, backward, _ in reversed(plan.layers) for call in backward]
        assert plan.backward[:len(per_layer)] == per_layer
        for _, backward, _ in reversed(plan.layers):
            run_levels(backward)
        run_levels(plan.backward[len(per_layer):])  # the tree over the gradient rows
        assert np.stack(grads).tobytes() == want

    @pytest.mark.parametrize("B, P", [(32, 1), (512, 1), (256, 16)])
    def test_step_arrays_start_on_a_cache_line(self, B, P):
        # every float array a step touches, and every node's gradient row,
        # starts on a 64-byte boundary, so no vector load straddles two lines;
        # every step hands back the plan's one tuple of those rows
        net = nn.init_network(MLP_SPECS, 5)
        x, y = random_batch(B, n=B)
        grads = nn.forward_backward_shards(net, x, y, P)[2]
        p = net.params
        arrays = [*net.workspace.values(), net.running,
                  p.param, p.grad, p.momentum, p.step, *grads]
        assert [a.ctypes.data % nn.CACHE_LINE for a in arrays] == [0] * len(arrays)
        assert [g.shape for g in grads] == [p.param.shape] * P
        assert nn.forward_backward_shards(net, x, y, P)[2] is grads


class TestRowCalls:
    @pytest.mark.parametrize("n, w, r", [
        (1, 64, 1), (3, 64, 3), (24, 64, 24), (45, 64, 45),
        (512, 64, 128), (1000, 64, 200), (512, 3, 512),
    ])
    @pytest.mark.parametrize("ufunc", [np.add, np.subtract, np.multiply])
    def test_tiled_call_gives_the_broadcast_bytes(self, ufunc, n, w, r):
        # The row goes through a tile of r rows, r the smallest divisor of n
        # whose r * w elements fill numpy's iterator buffer, or n when none
        # does; the call over the tiled views gives the broadcast call's bytes,
        # into another array and in place.
        rng = np.random.default_rng(n * w)
        v, row = rng.standard_normal((n, w)), rng.standard_normal(w)
        v[0, :3] = [-0.0, np.inf, np.nan]
        row[-1] = -0.0
        tiles = {}

        def alloc(role, shape):
            return tiles.setdefault((role, shape), np.full(shape, np.nan))

        with np.errstate(all="ignore"):
            want = ufunc(v, row).tobytes()
            out = np.full_like(v, np.nan)
            run_levels(nn._row_calls(alloc, ufunc, v, row, out))
            assert out.tobytes() == want
            run_levels(nn._row_calls(alloc, ufunc, v, row, v))
            assert v.tobytes() == want
        assert list(tiles) == [("tile", (r, w))]


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

    def _bn_output(self, net, n):
        # the batch-norm output of the latest step of n rows, in tree order:
        # the backward writes over it, so the forward lists are rerun by hand
        plan = net.plans[n, 1]
        run_levels(plan.layers[0][0])
        run_levels(plan.layers[1][0])
        return plan, plan.layers[1][2]

    def test_normalized_input_is_near_fixed_point(self):
        net = self._bn_net()
        rng = np.random.default_rng(2)
        x = rng.standard_normal((64, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        nn.forward_backward_shards(net, x, np.zeros(64, dtype=np.int64), 1)
        plan, out = self._bn_output(net, 64)
        np.testing.assert_allclose(out, x[plan.perm], rtol=0, atol=1e-4)

    def test_constant_column_maps_to_shift(self):
        net = self._bn_net()
        shift = net.params["bn1.shift"].param
        shift[:] = [0.5, -1.0, 2.0]
        x = np.full((16, 3), 3.25)
        # the engine must not blow up on zero variance
        loss = nn.loss_and_grad(net, x, np.zeros(16, dtype=int))
        assert math.isfinite(loss)
        _, out = self._bn_output(net, 16)
        assert np.array_equal(out, np.broadcast_to(shift, out.shape))

    def test_batch_of_one_rejected_in_training(self, small_net):
        with pytest.raises(DegenerateBatchError):
            nn.loss_and_grad(small_net, np.zeros((1, 2)), np.zeros(1, dtype=int))

    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_scale_and_shift_finite_difference(self, n):
        # a step's GEMM blocks are of 1, 2 and 16 rows, so the gradient rows
        # copy each batch sum's block sums at three depths of its tree
        net = nn.init_network(SMALL_SPECS, 13)
        x, y = random_batch(13, n=n)
        errs = gradient_errors(net, x, y)
        assert errs["bn1.scale"] < 1e-5
        assert errs["bn1.shift"] < 1e-5

    def test_running_stats_track_batches(self):
        # Each step folds each layer's batch (mean, variance), computed here
        # with numpy over the layer's input, into its running statistics:
        # M * prev + (1 - M) * batch.  The two layers have different widths,
        # so a span of `net.running` or of the batch statistics taken for
        # another layer's, or a mean for a variance, gives other values.
        specs = [nn.dense(2, 8), nn.batchnorm(), nn.relu(), nn.dense(8, 5), nn.batchnorm(),
                 nn.relu(), nn.dense(5, 3), nn.softmax_xent()]
        net = nn.init_network(specs, 1)
        groups, M = net.layer_groups, nn.BN_MOMENTUM
        want = {i: [np.zeros(w), np.ones(w)] for i, w in ((1, 8), (4, 5))}
        for step in range(2):
            x, y = random_batch(8 + step, n=32)
            h = x
            for i in want:  # each batch norm follows a dense layer
                w, b, scale, shift = (g.param for g in groups[i - 1] + groups[i])
                h = h @ w + b
                mean, var = h.mean(axis=0), h.var(axis=0)
                want[i] = [M * prev + (1 - M) * now for prev, now in zip(want[i], (mean, var))]
                h = np.maximum((h - mean) / np.sqrt(var + nn.BN_EPS) * scale + shift, 0.0)
            nn.loss_and_grad(net, x, y)
            net.params.param -= 0.5 * net.params.grad
            for i, (mean, var) in want.items():
                np.testing.assert_allclose(net.bn_state[i]["mean"], mean, rtol=1e-12)
                np.testing.assert_allclose(net.bn_state[i]["var"], var, rtol=1e-12)
            np.testing.assert_allclose(net.running, np.concatenate(want[1] + want[4]),
                                       rtol=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 1e8])
    def test_variance_of_offset_inputs(self, offset):
        # E[a*a] - E[a]**2 cancels to nothing once |mean| >> std (at an
        # offset of 1e8, to exact zeros); the centered mean of (a - mean)**2
        # keeps the variance of the dense output that the step computed.
        # The backward writes over the batch statistics, so the forward
        # lists are rerun by hand, reading that output before batch norm
        # writes its own over it.
        specs = [nn.dense(2, 16), nn.batchnorm(), nn.relu(), nn.dense(16, 3), nn.softmax_xent()]
        net = nn.init_network(specs, 3)
        x, y = random_batch(4, n=256)
        nn.forward_backward_shards(net, x + offset, y, 1)
        plan = net.plans[256, 1]
        run_levels(plan.layers[0][0])
        h = plan.layers[0][2].copy()
        run_levels(plan.layers[1][0])
        var = net.workspace["bnbatch", net.running.shape][net.bn_spans[1]].reshape(2, -1)[1]
        assert np.count_nonzero(var) == 16
        np.testing.assert_allclose(var, h.var(axis=0), rtol=1e-9, atol=0)
        if offset == 0.0:
            one_pass = (h * h).mean(axis=0) - h.mean(axis=0) ** 2
            np.testing.assert_allclose(var, one_pass, rtol=1e-14, atol=0)

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
    def _trained_net(self, specs=SMALL_SPECS, steps=20):
        net = nn.init_network(specs, 5)
        for step in range(steps):
            x, y = random_batch(step, n=16)
            nn.loss_and_grad(net, 3.0 * x + 1.0, y)
            net.params.param -= 0.1 * net.params.grad
        return net

    def _per_block(self, net, x):
        # a walk of its own over each block of EVAL_ROWS rows, every array fresh
        logits = []
        for start in range(0, len(x), nn.EVAL_ROWS):
            rows = x[start:start + nn.EVAL_ROWS]
            layers = nn._layer_calls(net, rows, lambda v: (v,), lambda role, shape: np.empty(shape))
            logits.append(nn._forward(layers))
        return np.concatenate(logits)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 999, 1000])
    def test_prebuilt_walk_gives_the_bytes_of_per_block_walks(self, n):
        # One walk over all n rows, each dense layer a stacked GEMM over the
        # full blocks and a GEMM over the rest; every row's logits are those
        # of its own block.  A training step folds into the running
        # statistics in place, so the plan is kept across steps and reads
        # the new ones.
        net = self._trained_net(MLP_SPECS, steps=5)
        x, y = random_batch(n, n=n)
        plans = []
        for _ in range(2):
            want = self._per_block(net, x)
            assert nn.predict_logits(net, x).tobytes() == want.tobytes()
            assert nn.accuracy(net, x, y) == np.count_nonzero(want.argmax(axis=1) == y) / n
            plans.append(net.plans["eval"])
            for k in range(3):
                nn.loss_and_grad(net, *random_batch(50 + k, n=32))
                net.params.param -= 0.1 * net.params.grad
        assert plans[0] is plans[1]

    def test_one_evaluation_plan_rebuilt_for_a_new_row_count(self):
        net = self._trained_net()
        x, y = random_batch(95, n=130)
        nn.accuracy(net, x, y)
        plan = net.plans["eval"]
        logits = nn.predict_logits(net, x)
        assert net.plans["eval"] is plan
        logits[:] = np.nan  # a copy: the next evaluation is unchanged
        assert not np.isnan(nn.predict_logits(net, x)).any()
        nn.accuracy(net, x[:65], y[:65])
        assert net.plans["eval"] is not plan and net.plans["eval"].rows == 65
        assert list(net.plans) == [(16, 1), "eval"]  # the training step plan, and one evaluation plan
        # running statistics written in place are read by the kept plan
        plan = net.plans["eval"]
        net.bn_state[1]["mean"][:] += 1.0
        net.bn_state[1]["var"][:] *= 2.0
        assert nn.predict_logits(net, x[:65]).tobytes() == self._per_block(net, x[:65]).tobytes()
        assert net.plans["eval"] is plan

    def test_evaluation_plan_keeps_two_arrays_per_width(self):
        # Batch norm normalizes in place and a relu's mask is the array its
        # input does not hold, so the plan keeps two (rows, 64) arrays, not
        # one per layer.
        net = self._trained_net(MLP_SPECS, steps=1)
        x, y = random_batch(94, n=1000)
        tracemalloc.start()
        try:
            nn.accuracy(net, x, y)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 1.5 * 2 * 1000 * 64 * 8, kept

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
            logits = nn.predict_logits(small_net, np.empty((0, 2)))
        assert math.isnan(acc)
        assert logits.dtype == np.float64 and logits.shape == (0, 3)

    @pytest.mark.parametrize("n, late", [
        pytest.param(3 * nn.EVAL_ROWS, 2 * nn.EVAL_ROWS + 1, id="last-full-block"),
        pytest.param(3 * nn.EVAL_ROWS + 5, 3 * nn.EVAL_ROWS + 2, id="rows-left-over"),
    ])
    def test_overflow_names_the_first_layer_whatever_the_block(self, n, late):
        net = self._trained_net()
        net.params["dense3.weight"].param[:] *= 1e10
        x, y = random_batch(97, n=n)
        net.params["dense0.weight"].param[:, 0] = 2.0  # 1e308 * 2 overflows
        x[5] = 1e300  # finite through dense0 and batch norm, overflows at dense3
        x[late] = 1e308  # overflows at dense0, in a later block
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
