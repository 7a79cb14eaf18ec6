"""The library functions that the benchmark's span tracer wraps."""

import importlib
import importlib.util
import os
import sys

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks", "spans.py")


def test_every_traced_name_exists_and_is_callable(monkeypatch):
    # Tracer.install looks up each name with getattr, so a renamed or deleted
    # function would fail every benchmark run, whatever the other tests say
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # read the file only
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{name}" for module, names in spans.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert spans.TRACED and missing == []
