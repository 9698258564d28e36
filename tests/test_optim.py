import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from batchlab import nn, optim
from batchlab.errors import ConfigError, DivergenceError, ScheduleExhaustedError
from conftest import SMALL_SPECS, random_batch


def make_hp(**kw):
    base = dict(base_lr=0.1, epochs=10, batch_size=32)
    base.update(kw)
    return optim.HyperParams(**base)


class TestLinearScaling:
    def test_published_optimum(self):
        assert optim.linear_scaled_lr(0.02, 512, 4096) == 0.16

    def test_identity(self):
        assert optim.linear_scaled_lr(0.02, 512, 512) == 0.02

    def test_factor_128(self):
        assert optim.linear_scaled_lr(0.2, 256, 32768) == 25.6

    def test_nonpositive_batch_rejected(self):
        with pytest.raises(ConfigError):
            optim.linear_scaled_lr(0.1, 0, 64)
        with pytest.raises(ConfigError):
            optim.linear_scaled_lr(0.1, 64, -1)

    @given(st.floats(0.001, 10), st.integers(1, 1024), st.integers(1, 64))
    def test_homogeneity(self, lr, base, k):
        scaled = optim.linear_scaled_lr(lr, base, k * base)
        assert scaled == pytest.approx(k * optim.linear_scaled_lr(lr, base, base), rel=1e-12)


class TestSchedule:
    def test_poly_endpoints_and_midpoint(self):
        hp = make_hp(base_lr=0.4, poly_power=2.0)
        st_ = optim.ScheduleState(max_iterations=100, iterations_per_epoch=10)
        st_.iteration = 0
        assert optim.scheduled_lr(hp, st_) == 0.4
        st_.iteration = 100
        assert optim.scheduled_lr(hp, st_) == 0.0
        st_.iteration = 50
        assert optim.scheduled_lr(hp, st_) == pytest.approx(0.1, rel=1e-12)

    def test_warmup_ramp_and_continuity(self):
        hp = make_hp(base_lr=0.8, warmup_epochs=2)
        st_ = optim.ScheduleState(max_iterations=100, iterations_per_epoch=10)
        warmup = 20
        st_.iteration = 0
        assert optim.scheduled_lr(hp, st_) == pytest.approx(0.8 / warmup)
        st_.iteration = warmup - 1
        assert optim.scheduled_lr(hp, st_) == 0.8  # exactly base_lr at warmup end
        st_.iteration = warmup
        assert optim.scheduled_lr(hp, st_) == 0.8  # poly start, continuous

    def test_monotone_after_warmup(self):
        hp = make_hp(base_lr=0.8, warmup_epochs=2, poly_power=2.0)
        st_ = optim.ScheduleState(max_iterations=200, iterations_per_epoch=10)
        lrs = []
        for it in range(20, 201):
            st_.iteration = it
            lrs.append(optim.scheduled_lr(hp, st_))
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_no_jump_bigger_than_one_ramp_increment(self):
        hp = make_hp(base_lr=1.0, warmup_epochs=3)
        st_ = optim.ScheduleState(max_iterations=60, iterations_per_epoch=5)
        warmup = 15
        prev = None
        for it in range(61):
            st_.iteration = it
            lr = optim.scheduled_lr(hp, st_)
            if prev is not None:
                assert abs(lr - prev) <= 1.0 / warmup + 1e-12
            prev = lr

    def test_exhausted_schedule_rejected(self):
        hp = make_hp()
        st_ = optim.ScheduleState(max_iterations=10, iterations_per_epoch=5, iteration=11)
        with pytest.raises(ScheduleExhaustedError):
            optim.scheduled_lr(hp, st_)


class TestLars:
    def test_unit_norms(self):
        assert optim.lars_local_lr(np.array([1.0]), np.array([1.0]), 0.0, 0.001) == 0.001

    def test_zero_params_give_zero(self):
        assert optim.lars_local_lr(np.zeros(4), np.ones(4), 0.0, 0.01) == 0.0

    def test_hand_evaluated_case(self):
        # ||w||=2, ||g||=1, wd=0.5 -> 0.01 * 2 / (1 + 1) = 0.01
        out = optim.lars_local_lr(np.array([2.0]), np.array([1.0]), 0.5, 0.01)
        assert out == pytest.approx(0.01, rel=1e-12)

    def test_zero_denominator_falls_back_to_one(self):
        assert optim.lars_local_lr(np.array([3.0]), np.zeros(1), 0.0, 0.01) == 1.0

    @pytest.mark.parametrize("shape", [(1,), (7,), (64,), (2, 64), (64, 3)])
    @pytest.mark.parametrize("kind", ["random", "zero-params", "zero-denominator"])
    def test_trust_ratio_has_the_linalg_norm_bits(self, shape, kind):
        # the update's norms skip np.linalg.norm's dispatch, not its arithmetic
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        w, g = rng.standard_normal(shape), rng.standard_normal(shape)
        wd = 0.0005
        if kind == "zero-params":
            w[...] = 0.0
        elif kind == "zero-denominator":
            g[...], wd = 0.0, 0.0
        w_norm, g_norm = float(np.linalg.norm(w)), float(np.linalg.norm(g))
        denom = g_norm + wd * w_norm
        expected = 0.0 if w_norm == 0.0 else 1.0 if denom == 0.0 else 0.02 * w_norm / denom
        assert repr(optim.lars_local_lr(w, g, wd, 0.02)) == repr(expected)

    @given(st.floats(0.01, 100.0))
    def test_scale_invariance_without_decay(self, c):
        w = np.array([3.0, 4.0])
        g = np.array([1.0, 2.0])
        lam = optim.lars_local_lr(w, g, 0.0, 0.001)
        assert optim.lars_local_lr(c * w, c * g, 0.0, 0.001) == pytest.approx(lam, rel=1e-12)

    def test_skip_categories_get_unit_lambda(self):
        net = nn.init_network(SMALL_SPECS, 0)
        hp = make_hp(lars_enabled=True)
        for g in net.params:
            g.grad[:] = 1.0
        for g in net.params:
            lam = optim.group_local_lr(g, hp)
            if g.category in hp.lars_skip_categories:
                assert lam == 1.0
            else:
                assert lam != 1.0


class TestSgdStep:
    def _one_group_net(self):
        net = nn.init_network([nn.dense(2, 3), nn.softmax_xent()], 5)
        return net

    def test_vanilla_step_subtracts_gradient(self):
        net = self._one_group_net()
        hp = optim.HyperParams(base_lr=1.0, epochs=10, batch_size=32, momentum=0.0,
                               weight_decay=0.0, poly_power=2.0)
        # hold lr at exactly 1.0 by applying the raw update
        g = net.params["dense0.weight"]
        g.grad[:] = 0.25
        before = g.param.copy()
        optim.apply_update(net.params, hp, lr=1.0)
        assert np.array_equal(g.param, before - 0.25)

    def test_momentum_unrolled_two_steps(self):
        net = self._one_group_net()
        hp = optim.HyperParams(base_lr=0.1, epochs=10, batch_size=32, momentum=0.9,
                               weight_decay=0.0)
        g = net.params["dense0.weight"]
        before = g.param.copy()
        for _ in range(2):
            g.grad[:] = 0.5
            optim.apply_update(net.params, hp, lr=0.1)
        # v1 = lr*g, v2 = 0.9*v1 + lr*g -> total displacement lr*g*(1 + 1.9)
        assert g.param == pytest.approx(before - 0.1 * 0.5 * 2.9, rel=1e-12)

    def test_lars_scales_update_magnitude(self):
        net = self._one_group_net()
        hp = optim.HyperParams(base_lr=0.1, epochs=10, batch_size=32, momentum=0.0,
                               weight_decay=0.0, lars_enabled=True, lars_trust=0.02)
        g = net.params["dense0.weight"]
        g.grad[:] = np.random.default_rng(0).standard_normal(g.param.shape)
        before = g.param.copy()
        w_norm = np.linalg.norm(g.param)
        g_norm = np.linalg.norm(g.grad)
        grad = g.grad.copy()
        optim.apply_update(net.params, hp, lr=0.1)
        delta = before - g.param
        expected = 0.02 * w_norm / g_norm * 0.1 * grad
        assert delta == pytest.approx(expected, rel=1e-12)

    def test_lars_reproduces_plain_step_when_lambda_is_one(self):
        # norms chosen equal so trust=1 yields lambda = 1 exactly
        plain = self._one_group_net()
        lars = self._one_group_net()
        for net in (plain, lars):
            net.params["dense0.weight"].param[:] = 0.0
            net.params["dense0.weight"].param[0, :2] = [3.0, 4.0]
            net.params["dense0.weight"].grad[:] = 0.0
            net.params["dense0.weight"].grad[1, :2] = [4.0, 3.0]
        hp_plain = optim.HyperParams(base_lr=0.1, epochs=10, batch_size=32, weight_decay=0.0)
        hp_lars = optim.HyperParams(base_lr=0.1, epochs=10, batch_size=32, weight_decay=0.0,
                                    lars_enabled=True, lars_trust=1.0,
                                    lars_skip_categories=frozenset({"bias"}))
        optim.apply_update(plain.params, hp_plain, lr=0.1)
        optim.apply_update(lars.params, hp_lars, lr=0.1)
        assert np.array_equal(plain.params["dense0.weight"].param,
                              lars.params["dense0.weight"].param)

    def test_step_determinism_bitwise(self):
        outs = []
        for _ in range(2):
            net = self._one_group_net()
            hp = make_hp()
            st_ = optim.ScheduleState(max_iterations=10, iterations_per_epoch=5)
            for g in net.params:
                g.grad[:] = 0.125
            optim.sgd_step(net.params, hp, st_)
            outs.append(net.params["dense0.weight"].param.copy())
            assert st_.iteration == 1
        assert np.array_equal(outs[0], outs[1])

    def test_nonfinite_update_raises_with_iteration(self):
        # inf and -inf gradients leave -inf and inf parameters, which the
        # smallest and the largest parameter catch; NaN, both
        for value in (np.nan, np.inf, -np.inf):
            net = self._one_group_net()
            net.params["dense0.weight"].grad[0, 0] = value
            with pytest.raises(DivergenceError) as exc:
                optim.apply_update(net.params, make_hp(), lr=1.0, iteration=42)
            assert exc.value.iteration == 42

    def test_nonfinite_update_names_first_bad_group(self):
        net = nn.init_network(SMALL_SPECS, 3)
        net.params["bn1.shift"].grad[0] = np.nan
        net.params["dense3.weight"].grad[0, 0] = np.inf
        with pytest.raises(DivergenceError, match="group bn1.shift") as exc:
            optim.apply_update(net.params, make_hp(), lr=0.1, iteration=7)
        assert exc.value.group == "bn1.shift"
        assert exc.value.iteration == 7

    @pytest.mark.parametrize("lars", [False, True])
    def test_flat_update_equals_per_group_loop(self, lars):
        hp = make_hp(momentum=0.9, weight_decay=0.003, lars_enabled=lars, lars_trust=0.02)
        rng = np.random.default_rng(4)
        flat, ref = nn.init_network(SMALL_SPECS, 2), nn.init_network(SMALL_SPECS, 2)
        for step in range(3):
            for net in (flat, ref):
                net.params.grad[:] = np.random.default_rng(step).standard_normal(net.params.grad.size)
            lr = float(rng.uniform(0.05, 0.5))
            lambdas = optim.apply_update(flat.params, hp, lr)
            # the plain per-group update the flat one replaces
            expected = {}
            for g in ref.params:
                lam = optim.group_local_lr(g, hp)
                expected[g.name] = lam
                step_g = g.grad + hp.weight_decay * g.param
                g.momentum_buf[...] *= hp.momentum
                g.momentum_buf[...] += (lam * lr) * step_g
                g.param[...] -= g.momentum_buf
            assert lambdas == expected
            assert flat.params.param.tobytes() == ref.params.param.tobytes()
            assert flat.params.momentum.tobytes() == ref.params.momentum.tobytes()
        assert lars == any(lam != 1.0 for lam in lambdas.values())

    def test_hyperparam_validation(self):
        with pytest.raises(ConfigError):
            make_hp(base_lr=-1.0)
        with pytest.raises(ConfigError):
            make_hp(momentum=1.0)
        with pytest.raises(ConfigError):
            make_hp(warmup_epochs=10)  # must stay below epochs

    def test_lars_skip_names_only_parameter_categories(self):
        make_hp(lars_skip_categories=frozenset({nn.WEIGHT, nn.BIAS, nn.NORM_SCALE, nn.NORM_SHIFT}))
        with pytest.raises(ConfigError, match=re.escape("['norm-shfit']")):
            make_hp(lars_skip_categories=frozenset({"bias", "norm-scale", "norm-shfit"}))
