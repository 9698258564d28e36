"""Spans around batchlab's public functions, recorded from outside the package.

A span is ``[name, start_ns, end_ns, parent]``; ``parent`` is the index of the
enclosing span, or -1.  Spans are kept in memory and written out by the caller
when the benchmark ends.

A function is traced by replacing the attribute its caller looks it up
through, so ``TRACED`` names the module each call site actually uses: for
example ``cluster.train`` calls ``nn.init_network`` through ``nn``, and
``nn`` and ``cluster`` each import ``tree_reduce`` from ``reduction`` under
their own name.
"""

import statistics
import time
from collections import defaultdict

# (module the caller looks the name up in, attribute, span name)
TRACED = [
    ("config", "parse_config", "config.parse_config"),
    ("runner", "run_experiment", "runner.run_experiment"),
    ("runner", "build_dataset", "runner.build_dataset"),
    ("data", "gen_synthetic", "data.gen_synthetic"),
    ("costmodel", "total_time", "costmodel.total_time"),
    ("cluster", "train", "cluster.train"),
    ("cluster", "make_workers", "cluster.make_workers"),
    ("cluster", "global_step", "cluster.global_step"),
    ("cluster", "check_synchronized", "cluster.check_synchronized"),
    ("cluster", "all_reduce", "cluster.all_reduce"),
    ("cluster", "tree_reduce", "reduction.tree_reduce"),
    ("nn", "init_network", "nn.init_network"),
    ("nn", "forward_backward_shards", "nn.forward_backward_shards"),
    ("nn", "accuracy", "nn.accuracy"),
    ("nn", "tree_sum", "reduction.tree_sum"),
    ("nn", "tree_reduce", "reduction.tree_reduce"),
    ("optim", "scheduled_lr", "optim.scheduled_lr"),
    ("optim", "apply_update", "optim.apply_update"),
    ("optim", "lars_local_lr", "optim.lars_local_lr"),
]

# Modules whose self time is reported per training step.
STEP_MODULES = ("nn", "reduction", "optim", "cluster")

# per-layer metric name -> unit; the order is the report order
UNITS = {
    "nn.forward_backward_shards.ms_p50": "ms",
    "nn.forward_backward_shards.share": "fraction",
    "nn.accuracy.ms_p50": "ms",
    "nn.init_network.ms": "ms",
    "reduction.tree_sum.calls_per_step": "calls/step",
    "reduction.tree_sum.ms_per_step": "ms/step",
    "reduction.tree_reduce.calls_per_step": "calls/step",
    "optim.apply_update.ms_p50": "ms",
    "optim.apply_update.calls_per_step": "calls/step",
    "optim.lars_local_lr.calls_per_step": "calls/step",
    "optim.scheduled_lr.calls_per_step": "calls/step",
    "cluster.check_synchronized.ms_p50": "ms",
    "cluster.check_synchronized.calls_per_step": "calls/step",
    "cluster.all_reduce.ms_p50": "ms",
    "cluster.all_reduce.stages_per_step": "stages/step",
    "cluster.all_reduce.words_per_step": "words/step",
    "cluster.train.self_ms_per_step": "ms/step",
    "cluster.make_workers.ms": "ms",
    "data.gen_synthetic.ms": "ms",
    "config.parse_config.ms": "ms",
    "costmodel.total_time.ms": "ms",
    "runner.emit_ms": "ms",
    **{f"{m}.self_ms_per_step": "ms/step" for m in STEP_MODULES},
}


def _words(value):
    if isinstance(value, dict):
        return sum(v.size for v in value.values())
    return value.size


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit.

    The wrapper on ``cluster``'s ``tree_reduce`` also counts what the
    simulated all-reduce combines: tree levels (stages) and the words each
    combine receives from its right-hand operand.
    """

    def __init__(self, batchlab):
        self.batchlab = batchlab
        self.spans = []
        self.stack = []
        self.allreduce_stages = 0
        self.allreduce_words = 0
        self._saved = []

    def __enter__(self):
        for module_name, attr, span_name in TRACED:
            module = getattr(self.batchlab, module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            if module_name == "cluster" and attr == "tree_reduce":
                fn = self._counting(fn)
            setattr(module, attr, self._span(fn, span_name))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _span(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def _counting(self, tree_reduce):
        tracer = self

        def counted(items, combine=None):
            add = combine if combine is not None else (lambda a, b: a + b)

            def combine_tagged(a, b):
                tracer.allreduce_words += _words(b[1])
                return max(a[0], b[0]) + 1, add(a[1], b[1])

            stages, total = tree_reduce([(0, x) for x in items], combine_tagged)
            tracer.allreduce_stages += stages
            return total

        return counted


def _ms(ns):
    return ns / 1e6


def layer_metrics(tracer):
    """Per-layer metrics (see ``UNITS``) from the recorded spans."""
    spans = tracer.spans
    durations = defaultdict(list)
    child_ns = [0] * len(spans)
    emit_ns = {}
    for name, start, end, parent in spans:
        durations[name].append(end - start)
        if parent >= 0:
            child_ns[parent] += end - start
            if spans[parent][0] == "runner.run_experiment" and name in (
                    "runner.build_dataset", "cluster.train"):
                emit_ns[parent] = emit_ns.get(parent, 0) + end - start
    self_ns = defaultdict(int)
    train_self_ns = 0
    emit = []
    for i, (name, start, end, parent) in enumerate(spans):
        own = end - start - child_ns[i]
        self_ns[name.split(".")[0]] += own
        if name == "cluster.train":
            train_self_ns += own
        elif name == "runner.run_experiment":
            emit.append(end - start - emit_ns.get(i, 0))

    steps = len(durations["cluster.global_step"])
    if steps == 0:
        raise RuntimeError("traced run recorded no training step")

    def p50(name):
        return _ms(statistics.median(durations[name])) if durations[name] else 0.0

    def per_step(name):
        return len(durations[name]) / steps

    metrics = {
        "nn.forward_backward_shards.ms_p50": p50("nn.forward_backward_shards"),
        "nn.forward_backward_shards.share":
            sum(durations["nn.forward_backward_shards"]) / sum(durations["cluster.train"]),
        "nn.accuracy.ms_p50": p50("nn.accuracy"),
        "nn.init_network.ms": p50("nn.init_network"),
        "reduction.tree_sum.calls_per_step": per_step("reduction.tree_sum"),
        "reduction.tree_sum.ms_per_step": _ms(sum(durations["reduction.tree_sum"])) / steps,
        "reduction.tree_reduce.calls_per_step": per_step("reduction.tree_reduce"),
        "optim.apply_update.ms_p50": p50("optim.apply_update"),
        "optim.apply_update.calls_per_step": per_step("optim.apply_update"),
        "optim.lars_local_lr.calls_per_step": per_step("optim.lars_local_lr"),
        "optim.scheduled_lr.calls_per_step": per_step("optim.scheduled_lr"),
        "cluster.check_synchronized.ms_p50": p50("cluster.check_synchronized"),
        "cluster.check_synchronized.calls_per_step": per_step("cluster.check_synchronized"),
        "cluster.all_reduce.ms_p50": p50("cluster.all_reduce"),
        "cluster.all_reduce.stages_per_step": tracer.allreduce_stages / steps,
        "cluster.all_reduce.words_per_step": tracer.allreduce_words / steps,
        "cluster.train.self_ms_per_step": _ms(train_self_ns) / steps,
        "cluster.make_workers.ms": p50("cluster.make_workers"),
        "data.gen_synthetic.ms": p50("data.gen_synthetic"),
        "config.parse_config.ms": p50("config.parse_config"),
        "costmodel.total_time.ms": p50("costmodel.total_time"),
        "runner.emit_ms": _ms(statistics.median(emit)),
    }
    for module in STEP_MODULES:
        metrics[f"{module}.self_ms_per_step"] = _ms(self_ns[module]) / steps
    return metrics, steps


def dump(tracer):
    """Spans in a compact JSON-ready form: a name table and index rows."""
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    return {
        "fields": ["name", "start_ns", "end_ns", "parent"],
        "names": names,
        "spans": [[index[n], s, e, p] for n, s, e, p in tracer.spans],
    }
