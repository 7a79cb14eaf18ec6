"""The library functions that the benchmark's span tracer wraps."""

import importlib
import importlib.util
import json
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


# tiny runs of the benchmark's four steps: the same commands and code paths
_TINY = {
    "train": {"split": {"washout": 20, "train": 60, "eval": 60},
              "reservoir": {"instances": 2}},
    "tipc": {"reservoir": {"masks": [257]},
             "tipc": {"analysis_len": 120, "washout": 20, "max_degree": 2,
                      "max_input_delay": 4, "max_state_delay": 1}},
    "ipc": {"input": {"low": -1.0, "high": 1.0},
            "tipc": {"family": "legendre", "max_degree": 2, "max_input_delay": 3,
                     "threshold": "surrogate", "surrogates": 2, "analysis_len": 300,
                     "washout": 10}},
    "esp": {"reservoir": {"n_qubits": 6}, "esp": {"trials": 2, "steps": 4}},
}

# the kernel path label each tiny run's run_qnr calls get, or None for none
_PATHS = {"train": "pair", "tipc": "full", "ipc": None, "esp": "full_kraus"}


def test_traced_runs_record_their_attributes(tmp_path, monkeypatch):
    # the tracer reads attributes of the arguments and results (_ATTRS:
    # config.n_qubits, has_cross_pair_gates, .kept and .dropped); a renamed
    # one would fail every benchmark run with an error span, and a command
    # that stopped calling run_qnr would leave its kernel-path metric at 0
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module in spans.TRACED:
        importlib.import_module(module)
    from qnr import cli, tipc
    import numpy as np

    def traced(run):
        """The result of one traced call of ``run`` and its per-layer metrics."""
        tracer = spans.Tracer()
        tracer.install()
        try:
            result = run()
        finally:
            tracer.uninstall()
        records = tracer.to_json()
        assert [r["name"] for r in records if r["attrs"].get("error")] == []
        return result, spans.layer_metrics(records)

    for command, config in _TINY.items():
        path = tmp_path / f"{command}.yaml"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path), "--seed", "3",
                "--out", str(tmp_path / command), "--threads", "1"]
        code, metrics = traced(lambda: cli.main(argv))
        assert code == 0
        assert (metrics["reservoir.run_qnr.calls"] > 0) == (_PATHS[command] is not None)
        for label in ("pair", "full", "full_kraus"):
            per_step = metrics[f"reservoir.run_qnr.{label}.us_per_step"]
            assert (per_step > 0) == (label == _PATHS[command]), (command, label)
    basis = np.random.default_rng(3).normal(size=(50, 4))
    _, metrics = traced(lambda: tipc.orthonormalize(basis))
    assert metrics["tipc.orthonormalize.calls"] == 1
    assert metrics["tipc.orthonormalize.kept"] == 4
