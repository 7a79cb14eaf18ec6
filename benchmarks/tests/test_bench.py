"""Self-tests of the benchmark harness; kept out of the package test suite.

    python3 -m pytest benchmarks/tests -q
"""

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import (ESP_6Q, IPC_SURROGATE, NARMA2_DESK,  # noqa: E402
                       TIPC_ENTANGLED, WORKLOADS, Step, Workload, check)

# Tiny versions of the workloads' four steps: same commands and code paths.
TINY = {
    "train": Step("train",
                  {"split": {"washout": 20, "train": 60, "eval": 60},
                   "reservoir": {"instances": 2}},
                  NARMA2_DESK.read_outputs),
    "ipc": Step("ipc",
                {"input": {"low": -1.0, "high": 1.0},
                 "tipc": {"family": "legendre", "max_degree": 2,
                          "max_input_delay": 3, "threshold": "surrogate",
                          "surrogates": 2, "analysis_len": 300,
                          "washout": 10}},
                IPC_SURROGATE.read_outputs),
    "tipc": Step("tipc",
                 {"reservoir": {"masks": [257]},
                  "tipc": {"analysis_len": 120, "washout": 20,
                           "max_degree": 2, "max_input_delay": 4,
                           "max_state_delay": 1}},
                 TIPC_ENTANGLED.read_outputs),
    "esp": Step("esp",
                {"reservoir": {"n_qubits": 6},
                 "esp": {"trials": 2, "steps": 4}},
                ESP_6Q.read_outputs),
}

# which run_qnr path each tiny workload must take
PATHS = {"train": "pair", "ipc": None, "tipc": "full", "esp": "full_kraus"}


def _child(step, out: Path, trace: bool) -> dict:
    out.mkdir()
    cfg = out.parent / f"{out.name}.yaml"
    cfg.write_text(json.dumps(step.config))
    result = out.parent / f"{out.name}.json"
    subprocess.run([sys.executable, str(run.CHILD), str(result), str(ROOT / "src"),
                    "1" if trace else "0", "--",
                    *step.cli_args(cfg, 3, out)],
                   env=run.child_env(), check=True, capture_output=True,
                   timeout=120)
    return json.loads(result.read_text())


@pytest.mark.parametrize("command", sorted(TINY))
def test_traced_and_untraced_runs_write_identical_outputs(tmp_path, command):
    step = TINY[command]
    plain = _child(step, tmp_path / "plain", trace=False)
    traced = _child(step, tmp_path / "traced", trace=True)
    # manifest.json names the output directory, which differs on purpose
    files = sorted(p.name for p in (tmp_path / "plain").iterdir()
                   if p.name != "manifest.json")
    assert files == sorted(p.name for p in (tmp_path / "traced").iterdir()
                           if p.name != "manifest.json")
    for name in files:
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "traced" / name).read_bytes()), name
    assert "spans" not in plain
    t_setup, t_return = plain["t_setup"], plain["t_return"]
    assert plain["t_start"] < t_setup < t_return

    m = spans.layer_metrics(traced["spans"])
    if PATHS[command] is None:
        assert m["reservoir.run_qnr.calls"] == 0
    else:
        assert m["reservoir.run_qnr.calls"] > 0
        for path in ("pair", "full", "full_kraus"):
            per_step = m[f"reservoir.run_qnr.{path}.us_per_step"]
            assert (per_step > 0) == (path == PATHS[command]), path
    assert m[f"cli.{command}.self_s"] > 0
    assert m["import.s"] > 0 and m["config.assemble.s"] > 0


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "attrs": {}}


def test_self_time_subtracts_direct_children():
    s = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.leaf", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("lone", 20.0, 30.0, -1),
    ]
    got = spans.self_times(s)
    # root: 10 - (3 + 4); a: 3 - 1
    assert got == pytest.approx([3.0, 2.0, 1.0, 4.0, 10.0])
    table = spans.self_time_table(s)
    assert [r[2] for r in table] == sorted((r[2] for r in table), reverse=True)
    assert dict((n, t) for n, _, t in table)["root"] == pytest.approx(3.0)


def test_output_gate_flags_a_perturbed_reference(tmp_path):
    tiny = Workload("tiny-simulate", (TINY["train"], TINY["esp"]))
    good = run.session(ROOT, tiny, 3, tmp_path, "ref",
                       deadline=time.monotonic() + 120)
    assert good["problems"] == []
    reference = good["outputs"]
    assert {k.split(".")[0] for k in reference} == {"train", "esp"}
    assert run.measure(ROOT, tiny, 3, tmp_path, 0, False, reference)[0][
        "problems"] == []

    key = "esp.slope_per_step"
    bad = dict(reference, **{key: reference[key] * (1 + 1e-6)})
    samples = run.measure(ROOT, tiny, 3, tmp_path, 0, False, bad)
    assert len(samples) == 1
    assert any(key in p for p in samples[0]["problems"])


def test_session_joins_the_spans_of_its_steps(tmp_path):
    tiny = Workload("tiny-simulate", (TINY["train"], TINY["esp"]))
    s = run.session(ROOT, tiny, 3, tmp_path, "traced", trace=True,
                    deadline=time.monotonic() + 120)
    assert s["problems"] == []
    assert s["wall_s"] == pytest.approx(sum(s["step_wall_s"].values()))
    # a parent left unshifted would point into the first step's spans,
    # which ended before the second step's started
    for sp in s["spans"]:
        if sp["parent"] >= 0:
            parent = s["spans"][sp["parent"]]
            assert parent["start"] <= sp["start"] <= sp["end"] <= parent["end"]
    m = spans.layer_metrics(s["spans"])
    assert m["reservoir.run_qnr.pair.us_per_step"] > 0
    assert m["reservoir.run_qnr.full_kraus.us_per_step"] > 0
    assert m["cli.train.self_s"] > 0 and m["cli.esp.self_s"] > 0


def test_gate_tolerance_and_exact_fields():
    ref = json.loads(run.REFERENCES.read_text())["workloads"]["capacity"]["0"]
    assert check(copy.deepcopy(ref), ref) == []
    close = {k: v * (1 + 1e-12) if isinstance(v, float) else v
             for k, v in ref.items()}
    assert check(close, ref) == []
    rank_key = next(k for k in ref if k.endswith(".rank"))
    assert check(dict(ref, **{rank_key: ref[rank_key] + 1}), ref)
    missing = dict(ref)
    del missing[rank_key]
    assert check(missing, ref)


def test_every_reference_seed_and_workload_is_recorded():
    refs = json.loads(run.REFERENCES.read_text())["workloads"]
    assert sorted(refs) == sorted(WORKLOADS)
    from workloads import REFERENCE_SEEDS
    for name in WORKLOADS:
        assert sorted(refs[name], key=int) == [str(s) for s in range(REFERENCE_SEEDS)]


def test_wrappers_cover_every_binding():
    import qnr.cli as cli
    import qnr.reservoir as reservoir
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = {w: o for o, w in tracer.installed}
        originals = {id(o) for o in wrapped.values()}
        for mod in spans.qnr_modules():
            for key, value in vars(mod).items():
                assert id(value) not in originals, f"{mod.__name__}.{key}"
                if isinstance(value, dict):
                    assert not originals & set(map(id, value.values())), key
        for name in ("run_qnr", "fit_readout", "narma2", "nrmse",
                     "spatial_multiplex", "esp_probe", "analyze_states",
                     "ipc_of_target"):
            assert getattr(cli, name) in wrapped, name
        assert reservoir.compile_noise in wrapped
        assert cli._COMMANDS["tipc"] in wrapped
    finally:
        tracer.uninstall()
    assert not any(getattr(f, "__wrapped__", None) for f in cli._COMMANDS.values())
    assert reservoir.run_qnr.__module__ == "qnr.reservoir"
    assert not hasattr(reservoir.run_qnr, "__wrapped__")


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(spans.layer_metrics([])) | {"trace.overhead_s"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                           "simulate", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
