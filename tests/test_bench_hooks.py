"""The traced benchmark wraps batchlab functions by module attribute; each
one it names must exist, or ``bench/run.py --trace 1`` breaks."""

import importlib.util
from pathlib import Path

import batchlab

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
