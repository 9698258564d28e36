"""The traced benchmark wraps batchlab functions by module attribute; each
one it names must exist, or ``bench/run.py --trace 1`` breaks."""

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


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@pytest.mark.parametrize("P", [1, 3, 16])
def test_traced_all_reduce_is_the_cost_model_tree(P):
    # The traced bench counts what the simulated all-reduce combines, to hold
    # it against the cost model: one step at P workers runs the model's
    # ceil(log2 P) stages and receives (P - 1) * |W| words.
    B = 16 * P
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
