"""Acceptance gate: ten end-to-end criteria, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines on success;
under plain pytest they appear in captured output when a criterion fails.
"""

import multiprocessing
import os
import statistics
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest

from batchlab import cluster, config, costmodel, nn, optim, runner
from conftest import MLP_SPECS, SMALL_SPECS, gradient_errors

SPIRAL_HYPER = dict(momentum=0.9, weight_decay=0.0005, poly_power=2.0)


def report(num, desc, ok, detail=""):
    line = f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def run_trajectory(workers_count, train_x, train_y, batch, iters, seed=17):
    """Per-iteration parameter checksums under the synchronous protocol."""
    n = len(train_x)
    ipe = n // batch
    hp = optim.HyperParams(base_lr=0.05, epochs=(iters * batch) // n,
                           batch_size=batch, **SPIRAL_HYPER)
    st = optim.ScheduleState(max_iterations=iters, iterations_per_epoch=ipe)
    workers = cluster.make_workers(nn.init_network(MLP_SPECS, seed), workers_count)
    sums = []
    epoch = 0
    while st.iteration < iters:
        perm = np.random.default_rng((seed, epoch)).permutation(n)
        for k in range(ipe):
            if st.iteration >= iters:
                break
            idx = perm[k * batch:(k + 1) * batch]
            cluster.global_step(workers, train_x[idx], train_y[idx], hp, st)
            sums.append(workers[0].checksum())
        epoch += 1
    return sums


def test_c1_worker_count_invariance(spirals):
    """200 optimizer steps give bitwise-identical parameters for 1..16 workers."""
    x = spirals.train_x[:512]
    y = spirals.train_y[:512]
    baseline = run_trajectory(1, x, y, batch=256, iters=200)
    mismatches = {}
    for P in (2, 4, 8, 16):
        traj = run_trajectory(P, x, y, batch=256, iters=200)
        diff = sum(a != b for a, b in zip(baseline, traj))
        if diff or len(traj) != len(baseline):
            mismatches[P] = diff
    report(1, "worker-count invariance, 200 iterations, P in 1..16",
           not mismatches, f"mismatching steps per P: {mismatches or 'none'}")


def test_c2_analytic_gradients_match_finite_differences():
    """Every layer kind and parameter category, ten seeds, rel err < 1e-5."""
    worst = 0.0
    for seed in range(10):
        net = nn.init_network(SMALL_SPECS, seed)
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((8, 2))
        y = rng.integers(0, 3, 8)
        errs = gradient_errors(net, x, y)
        worst = max(worst, max(errs.values()))
    report(2, "finite-difference gradient check, 10 seeds", worst < 1e-5,
           f"worst relative error {worst:.3e}")


def test_c3_iteration_table(tmp_path):
    """Emitted iteration table reproduces the published 100-epoch counts."""
    runner.emit_tables(tmp_path)
    _, rows = runner.read_csv(tmp_path / "table2.csv")
    got = {int(r["batch_size"]): int(r["iterations"]) for r in rows}
    want = {512: 250_000, 1024: 125_000, 2048: 62_500,
            4096: 31_250, 8192: 15_625, 1_280_000: 100}
    report(3, "iteration counts for 100 epochs of 1.28M images",
           got == want, f"got {got}")


def test_c4_scaling_ratios(tmp_path):
    """Flops-per-parameter ratios of the two reference models, within 0.5."""
    runner.emit_tables(tmp_path)
    _, rows = runner.read_csv(tmp_path / "table7.csv")
    ratios = {r["model"]: float(r["scaling_ratio"]) for r in rows}
    ok = (abs(ratios["alexnet"] - 24.6) <= 0.5
          and abs(ratios["resnet50"] - 308.0) <= 0.5)
    report(4, "communication-to-computation scaling ratios", ok, f"{ratios}")


def test_c5_whole_machine_flop_arithmetic():
    """90-epoch flop total within 0.5% and ideal machine time in [4, 5] s."""
    profile = costmodel.ModelProfile("resnet50-exact", 25_000_000,
                                     costmodel.RESNET50_FLOPS_PER_IMAGE)
    flops = costmodel.total_flops(profile, 90, costmodel.IMAGENET_TRAIN_SIZE)
    t = costmodel.whole_machine_time(profile, 90, costmodel.IMAGENET_TRAIN_SIZE,
                                     costmodel.TOP_SUPERCOMPUTER_FLOPS)
    target = 90 * 1.28e6 * 7.72e9
    ok = abs(flops - target) <= 0.005 * target and 4.0 <= t <= 5.0
    report(5, "whole-machine flop arithmetic", ok,
           f"flops {flops:.4e}, time {t:.3f} s")


def test_c6_hardware_presets(tmp_path):
    """Latency/bandwidth and per-operation energy constants survive emission."""
    runner.emit_tables(tmp_path)
    _, net_rows = runner.read_csv(tmp_path / "table10.csv")
    alphas = {r["network"]: float(r["alpha"]) for r in net_rows}
    _, e_rows = runner.read_csv(tmp_path / "table11.csv")
    energy = {r["operation"]: float(r["energy_pj"]) for r in e_rows}
    ok = (alphas["mellanox_fdr"] == 0.7e-6
          and energy["32 bit float add"] == 0.9
          and energy["32 bit DRAM access"] == 640.0)
    report(6, "hardware preset constants round-trip through CSV", ok,
           f"alpha {alphas.get('mellanox_fdr')}, "
           f"fadd {energy.get('32 bit float add')}, "
           f"dram {energy.get('32 bit DRAM access')}")


_SPIRAL_RUNS = {}


def _train_spirals(spirals, batch, base_lr, warmup_epochs, lars, seed):
    """(final test accuracy, status) of one 50-epoch run."""
    hp = optim.HyperParams(base_lr=base_lr, epochs=50, batch_size=batch,
                           warmup_epochs=warmup_epochs, lars_enabled=lars,
                           **SPIRAL_HYPER)
    log = cluster.train(MLP_SPECS, spirals, hp, 1, seed)
    return log.final_test_acc(), log.status


def _spiral_accuracy(spirals, batch, base_lr, warmup_epochs, lars, seed):
    """(final test accuracy, status) of one 50-epoch run; memoised so that c10
    reuses c7's baseline runs."""
    key = (id(spirals), batch, base_lr, warmup_epochs, lars, seed)
    if key not in _SPIRAL_RUNS:
        _SPIRAL_RUNS[key] = _train_spirals(spirals, *key[1:])
    return _SPIRAL_RUNS[key]


def _prefetch_spirals(spirals, runs):
    """Memoise the (batch, base_lr, warmup_epochs, lars, seed) runs of `runs`
    not yet done, two at a time in spawned processes of one BLAS thread each.

    The runs are independent and deterministic, and their bits do not depend
    on the BLAS thread count, so where one runs does not change its result.
    Spawned workers read OPENBLAS_NUM_THREADS when they load numpy, so it is
    set only while the pool exists and this process keeps its thread count.
    On a 2-CPU host four B=4096 runs took 6.75 s in-process at 2 BLAS threads,
    2.8 s on two 1-thread workers and 9.7-10.0 s on two 2-thread workers.
    """
    missing = [r for r in runs if (id(spirals), *r) not in _SPIRAL_RUNS]
    if not missing:
        return
    context = multiprocessing.get_context("spawn")
    with (mock.patch.dict(os.environ, OPENBLAS_NUM_THREADS="1"),
          ProcessPoolExecutor(2, mp_context=context) as pool):
        futures = {r: pool.submit(_train_spirals, spirals, *r) for r in missing}
        for r, future in futures.items():
            _SPIRAL_RUNS[(id(spirals), *r)] = future.result()


def test_c7_large_batch_matches_small_batch_accuracy(spirals):
    """16x batch with scaled lr, warmup, and adaptive per-layer rates holds accuracy.

    Median held-out accuracy over five seeds must stay within one point of
    the small-batch baseline.  The scaled-lr run without adaptive rates is
    executed and reported for context but not asserted.
    """
    _prefetch_spirals(spirals, [(32, 0.05, 0, False, seed) for seed in range(5)]
                      + [(512, 0.8, 5, True, seed) for seed in range(5)]
                      + [(512, 0.8, 5, False, 0)])
    base, large = [], []
    for seed in range(5):
        acc, status = _spiral_accuracy(spirals, 32, 0.05, 0, False, seed)
        assert status == "completed"
        base.append(acc)
        acc, status = _spiral_accuracy(spirals, 512, 0.8, 5, True, seed)
        assert status == "completed"
        large.append(acc)
    plain_acc, plain_status = _spiral_accuracy(spirals, 512, 0.8, 5, False, 0)
    med_base = statistics.median(base)
    med_large = statistics.median(large)
    print(f"  baseline B=32 lr=0.05: {[f'{a:.4f}' for a in base]} median {med_base:.4f}")
    print(f"  adaptive B=512 lr=0.8: {[f'{a:.4f}' for a in large]} median {med_large:.4f}")
    print(f"  plain    B=512 lr=0.8: {plain_acc:.4f} ({plain_status}, not asserted)")
    report(7, "large-batch accuracy within 1 point of baseline, 5-seed median",
           med_large >= med_base - 0.01,
           f"baseline {med_base:.4f}, large batch {med_large:.4f}")


def test_c8_learning_rate_schedule_contract():
    """Linear scaling, warmup ramp continuity, and polynomial decay endpoints."""
    hp = optim.HyperParams(base_lr=0.4, epochs=10, batch_size=32,
                           poly_power=2.0, warmup_epochs=2)
    st = optim.ScheduleState(max_iterations=100, iterations_per_epoch=10)
    checks = {}
    st.iteration = 0
    checks["warmup start"] = optim.scheduled_lr(hp, st) == pytest.approx(0.4 / 20)
    st.iteration = 19
    checks["warmup end"] = optim.scheduled_lr(hp, st) == 0.4
    st.iteration = 20
    checks["poly start"] = optim.scheduled_lr(hp, st) == 0.4
    st.iteration = 100
    checks["poly end"] = optim.scheduled_lr(hp, st) == 0.0
    checks["linear scaling"] = optim.linear_scaled_lr(0.02, 512, 4096) == 0.16
    bad = [k for k, v in checks.items() if not v]
    report(8, "learning-rate schedule contract", not bad, f"failed: {bad or 'none'}")


def test_c9_divergence_exit_code_and_partial_log(tmp_path):
    """An unstable run exits with code 2 and leaves a usable partial log."""
    layers = [nn.dense(2, 8), nn.batchnorm(), nn.relu(),
              nn.dense(8, 3), nn.softmax_xent()]
    cfg = config.ExperimentConfig(
        layers=layers,
        hyper=optim.HyperParams(base_lr=1e6, epochs=4, batch_size=32, **SPIRAL_HYPER),
        workers=1,
        seed=0,
        dataset=config.DatasetConfig(kind="synthetic-spirals", n=640,
                                     num_classes=3, input_dim=2, seed=1),
        output_dir="unstable",
    )
    path = tmp_path / "unstable.cfg"
    config.write_config(cfg, path)
    proc = subprocess.run(
        [sys.executable, "-m", "batchlab", "train", str(path),
         "--output-root", str(tmp_path)],
        capture_output=True, text=True,
    )
    meta, rows = runner.read_csv(tmp_path / "unstable" / "log.csv")
    ok = (proc.returncode == runner.EXIT_DIVERGED
          and meta["run.status"].startswith("diverged@")
          and len(rows) >= 1
          and len(rows) < costmodel.iterations(4, int(meta["run.n_train"]), 32))
    report(9, "divergence exit code and partial log", ok,
           f"rc {proc.returncode}, status {meta.get('run.status')}, rows {len(rows)}")


def test_c10_lars_holds_accuracy_where_linear_scaling_collapses(spirals):
    """At B=4096 (2 steps per epoch) linear scaling plus warmup alone collapses;
    adaptive per-layer rates hold the small-batch accuracy.

    Over five seeds, lr = 0.05 * 4096/32 and 5 warmup epochs: the LARS median
    stays within one point of c7's B=32 baseline median, and the plain median
    is at least 0.2 below the LARS median.  A diverged plain run counts with
    the last test accuracy it recorded.
    """
    _prefetch_spirals(spirals, [(32, 0.05, 0, False, seed) for seed in range(5)]
                      + [(4096, 6.4, 5, lars, seed) for seed in range(5) for lars in (True, False)])
    base = [_spiral_accuracy(spirals, 32, 0.05, 0, False, seed)[0] for seed in range(5)]
    lars, plain = [], []
    for seed in range(5):
        acc, status = _spiral_accuracy(spirals, 4096, 6.4, 5, True, seed)
        assert status == "completed"
        lars.append(acc)
        plain.append(_spiral_accuracy(spirals, 4096, 6.4, 5, False, seed))
    med_base = statistics.median(base)
    med_lars = statistics.median(lars)
    med_plain = statistics.median(acc for acc, _ in plain)
    print(f"  baseline B=32 lr=0.05: median {med_base:.4f}")
    print(f"  LARS  B=4096 lr=6.4: {[f'{a:.4f}' for a in lars]} median {med_lars:.4f}")
    print(f"  plain B=4096 lr=6.4: {[f'{a:.4f} ({s})' for a, s in plain]} "
          f"median {med_plain:.4f}")
    report(10, "LARS within 1 point of baseline where plain scaling loses 0.2, 5-seed medians",
           med_lars >= med_base - 0.01 and med_plain <= med_lars - 0.2,
           f"baseline {med_base:.4f}, LARS {med_lars:.4f}, plain {med_plain:.4f}")
