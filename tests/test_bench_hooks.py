"""The benchmark calls, patches and traces batchlab functions by module
attribute; each one it names must exist, or ``bench/run.py`` breaks."""

import importlib.util
from pathlib import Path

import pytest

import batchlab
from batchlab import cluster, costmodel, nn, optim
from conftest import SMALL_SPECS, random_batch

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.TRACED
        if not callable(getattr(getattr(batchlab, module, None), attr, None))
    ]
    assert spans.TRACED and not missing


# What bench/run.py's untraced path calls or patches, by module attribute.
RUN_HOOKS = [
    ("cluster", "train"),
    ("cluster", "global_step"),
    ("nn", "accuracy"),
    ("runner", "run_experiment"),
    ("runner", "read_csv"),
    ("config", "parse_config"),
]


def test_every_function_the_untraced_bench_uses_exists():
    missing = [
        f"{module}.{attr}"
        for module, attr in RUN_HOOKS
        if not callable(getattr(getattr(batchlab, module, None), attr, None))
    ]
    assert not missing
    # run.py counts an experiment that raises this as one that lost its steps
    assert issubclass(batchlab.errors.BatchLabError, Exception)


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


# Where B/P is not a power of two, the gradient tree stops at more aligned
# nodes than there are workers, and the all-reduce combines those node rows:
# (24, 2) traces 3 stages and 5|W| words against the model's 1 message, and
# (45, 5) 6 stages and 44|W| words against 3 messages.
NODE_OWNERS = pytest.mark.xfail(reason="ROADMAP item 5: messages from node owners", strict=True)


@pytest.mark.parametrize("B, P", [  # each case is named by its worker count
    pytest.param(16, 1, id="1"), pytest.param(48, 3, id="3"), pytest.param(256, 16, id="16"),
    pytest.param(24, 2, id="2", marks=NODE_OWNERS), pytest.param(45, 5, id="5", marks=NODE_OWNERS),
])
def test_traced_all_reduce_is_the_cost_model_tree(B, P):
    # The traced bench counts what the simulated all-reduce combines, to hold
    # it against the cost model: one step at P workers runs the model's
    # ceil(log2 P) stages and receives (P - 1) * |W| words.
    net = nn.init_network(SMALL_SPECS, 0)
    x, y = random_batch(P, n=B)
    hp = optim.HyperParams(base_lr=0.05, epochs=1, batch_size=B)
    st = optim.ScheduleState(max_iterations=1, iterations_per_epoch=1)
    with load_spans().Tracer(batchlab) as tracer:
        cluster.global_step(cluster.make_workers(net, P), x, y, hp, st)
    words = net.params.param.size
    report = costmodel.total_time(costmodel.ModelProfile("small", words, 1.0),
                                  costmodel.ClusterSpec(P, 0.0, 0.0, 1e-12), 1, B, B)
    assert tracer.allreduce_stages == report.messages / report.iterations
    assert tracer.allreduce_words == (P - 1) * words
