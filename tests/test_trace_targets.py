"""The names the benchmark's tracer wraps (`benchmarks/spans.py`) exist.

A traced benchmark run fails with `TraceTargetMissing` when one of them
is renamed or removed; this finds it without running the benchmark.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from clustertess import ClusterProperty


def _spans():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_exist():
    spans = _spans()
    targets = [(module, attr) for module, attr, *_ in spans.SPANS + spans.COUNTERS]
    for module, attr in targets + list(spans.PROPERTY_FACTORIES):
        bound = getattr(importlib.import_module(f"clustertess.{module}"), attr, None)
        assert callable(bound), f"clustertess.{module}.{attr}"
    fields = {field.name for field in dataclasses.fields(ClusterProperty)}
    assert set(spans.PROPERTY_CALLABLES) <= fields
