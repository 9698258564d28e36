#!/usr/bin/env python3
"""batchlab training benchmark.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload spirals-b512-p1 --seed 1 --seconds 20 --trace 0

Each workload is one INI config.  The benchmark writes it, then repeats whole
fixed-epoch experiments through batchlab's own entry points,
``config.parse_config`` and ``runner.run_experiment`` into a temporary output
directory, until ``--seconds`` are spent.  It checks every experiment's
outputs, prints a report, and prints one JSON result as its last line:
end-to-end metrics with ``--trace 0``; with ``--trace 1``, per-layer metrics
from a traced second half of the run (see spans.py).  The full record of the
latest run of each workload and mode, with the environment manifest and, when
traced, every span, is written to ``bench/out/``.

Exit status: 0 when every check passes, 1 when a check fails, 2 when the
arguments are bad or batchlab's sources are not in the checkout.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import manifest
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

LAYERS = "dense 2 64, batchnorm, relu, dense 64 64, batchnorm, relu, dense 64 3, softmax-xent"
N = 10000
N_TRAIN = N * 9 // 10  # data.gen_synthetic keeps 90% for training


@dataclass(frozen=True)
class Workload:
    batch: int
    workers: int
    base_lr: float
    warmup_epochs: int
    lars: bool
    epochs: int  # budget of one experiment; a run pools the steps of many


WORKLOADS = {
    # c7's small-batch baseline: many tiny steps, so fixed per-step costs
    # (Python dispatch in nn, the optim group loop, the schedule) dominate.
    "spirals-b32-p1": Workload(32, 1, 0.05, 0, False, 2),
    # c7's large-batch config: the nn dense kernels dominate.  At P=1 the
    # cluster layer does no work, so replica changes should not move it.
    "spirals-b512-p1": Workload(512, 1, 0.8, 1, True, 4),
    # The simulated cluster: sync-BN, a 16-input tree all-reduce, 16 updates
    # and 2 replica audits per step.  Carries the bitwise P-invariance check.
    "spirals-b256-p16": Workload(256, 16, 0.4, 1, True, 3),
}

END_TO_END_UNITS = {
    "train_examples_per_s": "examples/s",
    "step_ms_p50": "ms",
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_test_acc": "fraction",
}

PER_LAYER_UNITS = {
    **spans.UNITS,
    "cluster.global_step.wall_ms_p95": "ms",
    "cluster.replica_overhead_ratio": "ratio",
    "costmodel.messages_per_iter": "messages/iter",
    "costmodel.comm_words_per_iter": "words/iter",
    "trace.train_examples_per_s": "examples/s",
    "trace.throughput_ratio": "ratio",
}

SETUP_REPS = 101


def config_text(w, seed, workers, epochs):
    return f"""[network]
layers = {LAYERS}

[hyper]
base_lr = {w.base_lr!r}
epochs = {epochs}
batch_size = {w.batch}
warmup_epochs = {min(w.warmup_epochs, epochs - 1)}
lars_enabled = {"true" if w.lars else "false"}

[cluster]
workers = {workers}
seed = {seed}

[dataset]
kind = synthetic-spirals
n = {N}
num_classes = 3
input_dim = 2
seed = {seed}

[output]
dir = run
"""


def import_batchlab():
    src = ROOT / "src"
    if not (src / "batchlab" / "__init__.py").is_file():
        print(f"bench: batchlab sources not found under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import batchlab

    return batchlab


class TrainClock:
    """Times each ``cluster.train`` call, the one wrapper untraced runs use."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.inner = cluster.train
        self.last_s = None

    def __enter__(self):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return self.inner(*args, **kwargs)
            finally:
                self.last_s = time.perf_counter() - t0

        self.cluster.train = timed
        return self

    def __exit__(self, *exc):
        self.cluster.train = self.inner


class _SetupDone(Exception):
    """Raised in place of the first evaluation or step to end a set-up run."""


@dataclass
class Experiment:
    run_s: float
    train_s: float
    steps: int
    failed: int
    wall_ms: list
    signature: list  # per step: loss and lambda_* columns of log.csv, as written
    final_test_acc: float
    final_loss: float
    problems: list
    report: object  # the run's costmodel.CostReport


@dataclass
class Measured:
    exps: list  # every experiment of the run, traced or not
    reference: Experiment  # the P=1 reference, or None
    metrics: dict  # name -> value, the metrics of the result line
    notes: dict  # sample counts and figures the report prints beside them
    record: dict  # more content for the record file


class Bench:
    def __init__(self, bl, workload, seed, epochs, tmp, clock):
        self.bl = bl
        self.w = workload
        self.seed = seed
        self.epochs = epochs
        self.tmp = tmp
        self.clock = clock
        self.planned = epochs * N_TRAIN // workload.batch
        self.started = 0
        self.cfg_path = self._write_config(workload.workers)

    def _write_config(self, workers):
        path = self.tmp / f"p{workers}.cfg"
        path.write_text(config_text(self.w, self.seed, workers, self.epochs), encoding="utf-8")
        return path

    def setup_times(self):
        """Seconds from config parse to the end of network and replica init.

        Each set-up run stops where ``cluster.train`` first evaluates or
        steps.  The first evaluation is left out because waking the BLAS
        threads for it costs either almost nothing or about 8 ms, depending
        on the host; ``nn.accuracy.ms_p50`` and ``run_s`` time it.
        """
        nn, cluster = self.bl.nn, self.bl.cluster
        real = nn.accuracy, cluster.global_step

        def stop(*args, **kwargs):
            raise _SetupDone

        nn.accuracy = cluster.global_step = stop
        times = []
        try:
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                try:
                    self.bl.runner.run_experiment(self.bl.config.parse_config(self.cfg_path), self.tmp)
                except _SetupDone:
                    times.append(time.perf_counter() - t0)
                else:
                    raise RuntimeError("run_experiment returned without evaluating or training")
        finally:
            nn.accuracy, cluster.global_step = real
        return times

    def experiment(self, cfg_path):
        self.started += 1
        out_root = tempfile.mkdtemp(dir=self.tmp)
        try:
            cfg = self.bl.config.parse_config(cfg_path)
            t0 = time.perf_counter()
            res = self.bl.runner.run_experiment(cfg, out_root)
            run_s = time.perf_counter() - t0
            return self._read_back(res, run_s)
        finally:
            shutil.rmtree(out_root)

    def _read_back(self, res, run_s):
        read_csv = self.bl.runner.read_csv
        log = res.log
        problems = []
        if log.status != "completed":
            problems.append(f"run.status = {log.status}")
        meta, rows = read_csv(res.out_dir / "log.csv")
        if meta.get("run.status") != log.status:
            problems.append("log.csv header run.status disagrees with the run")
        if len(rows) != self.planned:
            problems.append(f"log.csv has {len(rows)} of {self.planned} steps")
        if [r["loss"] for r in rows] != [repr(r.loss) for r in log.rows]:
            problems.append("log.csv loss column does not read back as trained")
        if log.lambda_history:
            _, lambda_rows = read_csv(res.out_dir / "lambdas.csv")
            if len(lambda_rows) != len(rows):
                problems.append("lambdas.csv and log.csv differ in step count")
        _, cost_rows = read_csv(res.out_dir / "cost.csv")
        if len(cost_rows) != 1 or int(cost_rows[0]["iterations"]) != self.planned:
            problems.append("cost.csv iterations differ from the epoch budget")
        losses = [float(r["loss"]) for r in rows]
        finite = sum(1 for x in losses if math.isfinite(x))
        late = losses[len(losses) // 2:]
        return Experiment(
            run_s=run_s,
            train_s=self.clock.last_s,
            steps=len(rows),
            failed=self.planned - finite,
            wall_ms=[float(r["wall_ms"]) for r in rows],
            signature=[(r["loss"], r["lambda_min"], r["lambda_med"], r["lambda_max"]) for r in rows],
            final_test_acc=float(rows[-1]["test_acc"]) if rows else math.nan,
            final_loss=sum(late) / len(late) if late else math.nan,
            problems=problems,
            report=res.report,
        )

    def timed(self, seconds, min_runs):
        """Whole experiments until the next one would end past `seconds`."""
        exps = []
        start = time.perf_counter()
        while True:
            exps.append(self.experiment(self.cfg_path))
            elapsed = time.perf_counter() - start
            if len(exps) >= min_runs and elapsed * (len(exps) + 1) / len(exps) > seconds:
                return exps

    def reference(self):
        """The same config at P=1, untimed; None for single-worker workloads."""
        if self.w.workers == 1:
            return None
        return self.experiment(self._write_config(1))

    def gate(self, exps, reference):
        """(attempted, failed, problems) over the timed experiments.

        A step fails if it is missing or non-finite (divergence), or if its
        loss and lambda columns differ bit for bit from the P=1 reference;
        on single-worker workloads, from the first experiment of the run,
        which must repeat exactly.
        """
        base = reference.signature if reference else exps[0].signature
        base_name = "the P=1 reference" if reference else "experiment 0"
        problems = [f"P=1 reference: {p}" for p in reference.problems] if reference else []
        attempted = failed = 0
        for k, e in enumerate(exps):
            mismatched = sum(1 for a, b in zip(e.signature, base) if a != b)
            attempted += self.planned
            failed += min(self.planned, e.failed + mismatched)
            problems += [f"experiment {k}: {p}" for p in e.problems]
            if mismatched:
                problems.append(f"experiment {k}: {mismatched} steps differ from {base_name}")
        return attempted, failed, problems

    def examples_per_s(self, exps):
        return statistics.median(e.steps * self.w.batch / e.train_s for e in exps)

    def run_untraced(self, seconds):
        setup = self.setup_times()
        exps = self.timed(seconds, min_runs=2)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reference = self.reference()
        walls = [x for e in exps for x in e.wall_ms]
        metrics = {
            "train_examples_per_s": self.examples_per_s(exps),
            "step_ms_p50": statistics.median(walls),
            "run_s": statistics.median(e.run_s for e in exps),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "final_test_acc": exps[0].final_test_acc,
        }
        late = exps[0].steps - exps[0].steps // 2
        notes = {
            "train_examples_per_s": f"median of {len(exps)} experiments",
            "step_ms_p50": f"{len(walls)} steps",
            "step_ms_p95": f"{statistics.quantiles(walls, n=20)[18]!r} ms over {len(walls)} steps, "
                           f"{len(walls) // 20} beyond it (reported, not bounded)",
            "run_s": f"median of {len(exps)} experiments",
            "setup_s": f"median of {len(setup)} set-ups",
            "peak_rss_mb": "this process, after the timed experiments",
            "final_test_acc": "last epoch, 1000 test examples",
            "final_loss": f"{exps[0].final_loss!r} nats, mean training loss over the last "
                          f"{late} steps (reported, not bounded)",
        }
        return Measured(exps, reference, metrics, notes, {})

    def run_traced(self, seconds):
        untraced = self.timed(seconds / 2, min_runs=1)
        with spans.Tracer(self.bl) as tracer:
            traced = self.timed(seconds / 2, min_runs=1)
        reference = self.reference()
        metrics, steps = spans.layer_metrics(tracer)
        untraced_walls = [x for e in untraced for x in e.wall_ms]
        report = traced[0].report
        traced_rate = self.examples_per_s(traced)
        metrics.update({
            "cluster.global_step.wall_ms_p95": statistics.quantiles(untraced_walls, n=20)[18],
            "cluster.replica_overhead_ratio":
                statistics.median(untraced_walls) / statistics.median(reference.wall_ms)
                if reference else 1.0,
            "costmodel.messages_per_iter": report.messages / report.iterations,
            "costmodel.comm_words_per_iter": report.comm_volume_words / report.iterations,
            "trace.train_examples_per_s": traced_rate,
            "trace.throughput_ratio": traced_rate / self.examples_per_s(untraced),
        })
        notes = {
            "traced": f"{len(traced)} experiments, {steps} steps, {len(tracer.spans)} spans",
            "untraced": f"{len(untraced)} experiments",
            "all-reduce per step": (
                f"simulator {metrics['cluster.all_reduce.stages_per_step']:g} stages and "
                f"{metrics['cluster.all_reduce.words_per_step']:g} words; cost model "
                f"{metrics['costmodel.messages_per_iter']:g} messages and "
                f"{metrics['costmodel.comm_words_per_iter']:g} words"),
        }
        return Measured(untraced + traced, reference, metrics, notes, {"trace": spans.dump(tracer)})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="sets the dataset and cluster seeds")
    p.add_argument("--seconds", type=float, required=True, help="time to spend measuring")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--epochs", type=int, default=None,
                   help="override the workload's epoch budget (self-check only)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.epochs is not None and args.epochs < 1:
        p.error("--epochs must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    loadavg = os.getloadavg()
    bl = import_batchlab()
    env = manifest.collect(ROOT, loadavg)
    w = WORKLOADS[args.workload]
    epochs = args.epochs or w.epochs
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS

    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    measured = Measured([], None, {}, {}, {})
    try:
        with TrainClock(bl.cluster) as clock:
            bench = Bench(bl, w, args.seed, epochs, tmp, clock)
            try:
                measured = (bench.run_traced if args.trace else bench.run_untraced)(args.seconds)
                attempted, failed, problems = bench.gate(measured.exps, measured.reference)
            except bl.errors.BatchLabError as exc:
                # a run that raises (a replica desync, say) loses all its steps
                attempted, failed = bench.started * bench.planned, bench.planned
                problems = [f"experiment raised {type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = failed == 0 and not problems
    metrics, notes = measured.metrics, measured.notes
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"B={w.batch} P={w.workers} epochs={epochs} ({bench.planned} steps per experiment)")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"gate {'PASS' if correct else 'FAIL'}: {attempted} steps attempted, {failed} failed, "
          f"failed_step_ratio {failed / attempted:.6g}; steps checked bit for bit against "
          f"{'the P=1 reference' if w.workers > 1 else 'the first experiment'}")
    for p in problems:
        print(f"  problem: {p}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value:.6g} {units[name]}{note}")
    for name in [n for n in notes if n not in metrics]:
        print(f"  {name}: {notes[name]}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "epochs": epochs,
        "env": env, "problems": problems, "notes": notes, **result, **measured.record,
    }
    out = OUT_DIR / f"{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
