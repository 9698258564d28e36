import math
import warnings

import pytest

from batchlab import costmodel, reduction
from batchlab.errors import ConfigError


def resnet50():
    return costmodel.model_preset("resnet50")


def alexnet():
    return costmodel.model_preset("alexnet")


# (epochs, n, batch, expected): the published Table 2 counts, then floor cases
ITERATION_CASES = [
    (100, 1_280_000, 512, 250_000),
    (100, 1_280_000, 1024, 125_000),
    (100, 1_280_000, 2048, 62_500),
    (100, 1_280_000, 4096, 31_250),
    (100, 1_280_000, 8192, 15_625),
    (100, 1_280_000, 1_280_000, 100),
    (50, 9000, 32, 14_062),
    (1, 64, 64, 1),
]


class TestIterations:
    @pytest.mark.parametrize("epochs,n,batch,expected", ITERATION_CASES,
                             ids=[f"{b}-{x}" for _, _, b, x in ITERATION_CASES])
    def test_published_iteration_counts(self, epochs, n, batch, expected):
        assert costmodel.iterations(epochs, n, batch) == expected

    def test_full_batch_single_pass(self):
        assert costmodel.iterations(1, 777, 777) == 1

    def test_oversized_batch_warns_and_returns_zero(self):
        with pytest.warns(UserWarning):
            assert costmodel.iterations(1, 100, 200) == 0

    def test_homogeneity_in_batch_size(self):
        base = costmodel.iterations(100, 1_280_000, 512)
        for k in (2, 4, 8):
            assert costmodel.iterations(100, 1_280_000, 512 * k) == base // k

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            costmodel.iterations(0, 10, 1)


class TestCommVolume:
    def test_product_of_model_size_and_iterations(self):
        vol = costmodel.comm_volume(alexnet(), 100, 1_280_000, 512)
        assert vol == 61_000_000 * 250_000

    def test_single_iteration_volume_is_model_size(self):
        assert costmodel.comm_volume(alexnet(), 1, 512, 512) == 61_000_000

    def test_doubling_batch_halves_volume(self):
        v1 = costmodel.comm_volume(resnet50(), 100, 1_280_000, 512)
        v2 = costmodel.comm_volume(resnet50(), 100, 1_280_000, 1024)
        assert v2 * 2 == v1


class TestIterationTime:
    def _spec(self, workers):
        return costmodel.cluster_preset("mellanox_fdr", workers=workers)

    def test_single_worker_has_no_comm_term(self):
        t_comp, _, t_iter = costmodel.iteration_time(resnet50(), self._spec(1), 512)
        assert t_iter == t_comp

    def test_two_workers_pay_one_tree_stage(self):
        spec = self._spec(2)
        t_comp, t_comm, t_iter = costmodel.iteration_time(resnet50(), spec, 1024)
        # same per-worker compute as P=1 at local batch 512
        t_comp1, _, _ = costmodel.iteration_time(resnet50(), self._spec(1), 512)
        assert t_comp == t_comp1
        assert t_iter == t_comp + t_comm  # log2(2) == 1

    def test_three_workers_pay_two_tree_stages(self):
        # the pairwise tree over 3 partials is 2 deep, as tree_reduce runs it
        spec = self._spec(3)
        t_comp, t_comm, t_iter = costmodel.iteration_time(resnet50(), spec, 1536)
        assert t_iter == t_comp + 2 * t_comm
        rep = costmodel.total_time(resnet50(), spec, 100, 1_280_000, 1536)
        assert rep.messages == 2 * rep.iterations
        assert rep.t_iter == t_iter

    @pytest.mark.parametrize("P", range(1, 34))
    def test_stages_are_the_simulated_tree_depth(self, P):
        # the depth of the pairwise tree the all-reduce runs over P rows,
        # counted as the traced benchmark counts it
        depth = reduction.tree_reduce([0] * P, lambda a, b: max(a, b) + 1)
        spec = costmodel.cluster_preset("mellanox_fdr", workers=P)
        rep = costmodel.total_time(resnet50(), spec, 1, 1_280_000, 64 * P)
        assert rep.messages == depth * rep.iterations

    def test_compute_time_from_published_constants(self):
        t_comp, _, _ = costmodel.iteration_time(resnet50(), self._spec(1), 512)
        assert t_comp == pytest.approx(7.7e9 * 512 * 0.9e-13, rel=1e-12)
        assert t_comp == pytest.approx(0.355, abs=5e-4)

    def test_indivisible_batch_rejected(self):
        with pytest.raises(ConfigError):
            costmodel.iteration_time(resnet50(), self._spec(3), 512)


class TestTotalTime:
    def test_report_self_consistency(self):
        spec = costmodel.cluster_preset("intel_qdr", workers=16)
        rep = costmodel.total_time(resnet50(), spec, 100, 1_280_000, 8192)
        assert rep.total_time == rep.iterations * rep.t_iter
        assert rep.messages == rep.iterations * 4  # ceil(log2 16)
        assert rep.comm_volume_words == costmodel.comm_volume(resnet50(), 100, 1_280_000, 8192)

    def test_single_worker_zero_messages(self):
        spec = costmodel.cluster_preset("intel_qdr", workers=1)
        rep = costmodel.total_time(resnet50(), spec, 100, 1_280_000, 512)
        assert rep.messages == 0
        assert rep.total_time == rep.iterations * rep.t_comp_per_iter

    def test_total_flops_independent_of_batch_and_workers(self):
        flops = costmodel.total_flops(resnet50(), 90, 1_280_000)
        for b, p in ((512, 1), (8192, 16), (32768, 64)):
            spec = costmodel.cluster_preset("mellanox_fdr", workers=p)
            rep = costmodel.total_time(resnet50(), spec, 90, 1_280_000, b)
            assert rep.total_flops == flops

    def test_compute_component_halves_when_workers_double(self):
        # fixed local batch 512: doubling (B, P) together halves iters * t_comp
        prev = None
        for p in (1, 2, 4, 8):
            spec = costmodel.cluster_preset("mellanox_fdr", workers=p)
            rep = costmodel.total_time(resnet50(), spec, 100, 1_280_000, 512 * p)
            comp = rep.iterations * rep.t_comp_per_iter
            if prev is not None:
                assert comp == prev / 2
            prev = comp

    def test_oversized_batch_warns_once(self):
        # the report counts its iterations once: one warning, not one per count
        spec = costmodel.cluster_preset("mellanox_fdr", workers=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = costmodel.total_time(alexnet(), spec, 1, 1000, 2048)
        assert [w.category for w in caught] == [UserWarning]
        assert rep.iterations == rep.comm_volume_words == 0

    def test_energy_uses_flop_mix_and_dram_words(self):
        spec = costmodel.cluster_preset("mellanox_fdr", workers=2)
        rep = costmodel.total_time(alexnet(), spec, 1, 1024, 512)
        table = costmodel.energy_table()
        expected = (rep.total_flops * 0.5 * (0.9 + 3.7)
                    + rep.comm_volume_words * table["32 bit DRAM access"]) * 1e-12
        assert rep.energy_joules == pytest.approx(expected, rel=1e-12)


class TestFlopArithmetic:
    def test_resnet50_ninety_epoch_flops(self):
        profile = costmodel.ModelProfile("resnet50-exact", 25_000_000,
                                         costmodel.RESNET50_FLOPS_PER_IMAGE)
        flops = costmodel.total_flops(profile, 90, costmodel.IMAGENET_TRAIN_SIZE)
        assert flops == pytest.approx(90 * 1.28e6 * 7.72e9, rel=1e-12)
        assert flops == pytest.approx(8.89e17, rel=5e-3)

    def test_whole_machine_time_about_five_seconds(self):
        profile = costmodel.ModelProfile("resnet50-exact", 25_000_000,
                                         costmodel.RESNET50_FLOPS_PER_IMAGE)
        t = costmodel.whole_machine_time(profile, 90, costmodel.IMAGENET_TRAIN_SIZE,
                                         costmodel.TOP_SUPERCOMPUTER_FLOPS)
        assert 4.0 <= t <= 5.0


class TestScalingRatio:
    def test_alexnet_ratio(self):
        assert costmodel.scaling_ratio(alexnet()) == pytest.approx(24.6, abs=0.5)

    def test_resnet50_ratio(self):
        assert costmodel.scaling_ratio(resnet50()) == pytest.approx(308, abs=0.5)

    def test_unit_ratio(self):
        assert costmodel.scaling_ratio(costmodel.ModelProfile("unit", 10, 10.0)) == 1.0


class TestPresets:
    def test_network_constants_exact(self):
        assert costmodel.cluster_preset("mellanox_fdr").alpha == 0.7e-6
        assert costmodel.cluster_preset("mellanox_fdr").beta == 0.2e-9
        assert costmodel.cluster_preset("intel_qdr").alpha == 1.2e-6
        assert costmodel.cluster_preset("intel_qdr").beta == 0.3e-9
        assert costmodel.cluster_preset("intel_10gbe").alpha == 7.2e-6
        assert costmodel.cluster_preset("intel_10gbe").beta == 0.9e-9

    def test_energy_table_exact(self):
        table = costmodel.energy_table()
        assert table["32 bit int add"] == 0.1
        assert table["32 bit float add"] == 0.9
        assert table["32 bit register access"] == 1.0
        assert table["32 bit int multiply"] == 3.1
        assert table["32 bit float multiply"] == 3.7
        assert table["32 bit SRAM access"] == 5.0
        assert table["32 bit DRAM access"] == 640.0

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            costmodel.model_preset("vgg")
        with pytest.raises(ConfigError):
            costmodel.cluster_preset("ethernet")
