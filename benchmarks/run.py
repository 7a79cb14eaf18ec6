"""qnr benchmark: one run of one workload.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qnr checkout.  Every measured operation is one
session of the workload: its ``qnr`` CLI commands, one after the other,
each in a fresh interpreter (``child.py``) with one BLAS thread pinned
through the child's environment.  Sessions run in a closed loop while they
fit in ``--seconds``.

--trace 0 measures the end-to-end metrics and reports their medians over
the sessions: ``wall_s`` (per command, spawn to the command's return,
summed over the session), ``setup_s`` (per command, spawn to the first
call into ``reservoir`` or ``tipc``, by then imports, config assembly and
drawing the inputs are done; summed) and ``peak_rss_mb`` (the largest
process of the session).

--trace 1 runs rounds of one untraced and one traced session and reports
the per-layer metrics of the traced ones (medians), plus
``trace.overhead_s``, the traced minus the untraced median wall time.

Every session's outputs are checked against ``references.json``; a
mismatch, an error exit or a timeout is a failed operation.  The last line of stdout is the JSON result; the run record
(environment, every sample, self-time table) goes to
``.bench_run/records/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS, check, master_seed  # noqa: E402

CHILD = HERE / "child.py"
REFERENCES = HERE / "references.json"
BLAS_THREADS = "1"
# a run, with every process it starts, must end within 180 s
RUN_BUDGET_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONPATH", None)
    return env


def invoke(root: Path, step, seed: int, work: Path, tag: str, *,
           trace: bool = False, timeout: float = 120.0) -> dict:
    """Run one step of a workload in a child process; returns its timings,
    its outputs (if it exited cleanly) and any problems.

    ``wall_s`` and ``setup_s`` count from just before the spawn.  A child
    that fails or times out still yields its wall time, up to its exit.
    """
    out = work / tag
    out.mkdir(parents=True)
    cfg = out / "config.yaml"
    cfg.write_text(json.dumps(step.config))   # JSON is valid YAML
    result = work / f"{tag}.json"
    argv = [sys.executable, str(CHILD), str(result), str(root / "src"),
            "1" if trace else "0", "--",
            *step.cli_args(cfg, seed, out)]
    problems = []
    with open(work / f"{tag}.log", "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=root, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            problems.append(f"timed out after {timeout:.0f} s")
        t_exit = time.monotonic()
    rec = {}
    if result.exists():
        rec = json.loads(result.read_text())
    if proc.returncode != 0:
        last = (rec.get("error") or "").strip().splitlines()[-1:]
        problems.append(f"exit code {proc.returncode} {' '.join(last)}")
    sample = {
        "tag": tag,
        "wall_s": (rec.get("t_return") or t_exit) - t_spawn,
        "setup_s": (rec.get("t_setup") or t_exit) - t_spawn,
        "peak_rss_mb": rec.get("peak_rss_kib", 0) / 1024.0,
        "versions": rec.get("versions"),
        "spans": rec.get("spans"),
        "problems": problems,
    }
    if not problems:
        try:
            sample["outputs"] = step.read_outputs(out)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"unreadable outputs: {exc!r}")
    shutil.rmtree(out)
    return sample


def session(root: Path, workload, seed: int, work: Path, tag: str, *,
            trace: bool = False, deadline: float) -> dict:
    """Run the workload's steps one after the other; one sample for all.

    Times add up over the steps and memory is the largest step's.  The
    steps' spans are joined into one list, so per-layer metrics cover the
    session.
    """
    parts = [invoke(root, step, seed, work, f"{tag}.{step.command}",
                    trace=trace,
                    timeout=max(1.0, deadline - time.monotonic()))
             for step in workload.steps]
    joined = []
    for p in parts:
        offset = len(joined)
        joined += [dict(sp, parent=sp["parent"] + offset if sp["parent"] >= 0
                        else -1) for sp in p["spans"] or []]
    sample = {
        "tag": tag,
        "wall_s": sum(p["wall_s"] for p in parts),
        "setup_s": sum(p["setup_s"] for p in parts),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "step_wall_s": {st.command: p["wall_s"]
                        for st, p in zip(workload.steps, parts)},
        "versions": parts[0]["versions"],
        "spans": joined if trace else None,
        "problems": [f"{st.command}: {x}"
                     for st, p in zip(workload.steps, parts)
                     for x in p["problems"]],
    }
    if not sample["problems"]:
        sample["outputs"] = {f"{st.command}.{k}": v
                             for st, p in zip(workload.steps, parts)
                             for k, v in p["outputs"].items()}
    return sample


def load_reference(name: str, seed: int) -> dict:
    refs = json.loads(REFERENCES.read_text())
    return refs["workloads"][name][str(seed)]


def environment(root: Path) -> dict:
    """Where and on what this run happened; versions come from the child."""
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "blas_threads_pinned": int(BLAS_THREADS)}


def run_rounds(seconds: float, round_fn) -> list:
    """Closed loop: start another round while it is expected to end within
    ``seconds``, judged by the previous round's duration.  At least one."""
    start = time.monotonic()
    results = []
    while True:
        t0 = time.monotonic()
        results.append(round_fn(len(results)))
        took = time.monotonic() - t0
        # the budget cap keeps a slow round from pushing the run past 180 s
        if time.monotonic() - start + took > min(seconds, RUN_BUDGET_S / 2):
            return results


def measure(root, workload, seed, work, seconds, trace, reference) -> list:
    deadline = time.monotonic() + RUN_BUDGET_S

    def checked(tag, **kw):
        s = session(root, workload, seed, work, tag, deadline=deadline, **kw)
        if "outputs" in s:
            s["problems"] = check(s.pop("outputs"), reference)
        return s

    if not trace:
        def one_round(k):
            return [checked(f"run{k}")]
    else:
        def one_round(k):
            return [checked(f"plain{k}"), checked(f"traced{k}", trace=True)]
    return [s for group in run_rounds(seconds, one_round) for s in group]


def summarize(samples, trace: bool) -> dict:
    """Metric name -> value for one run."""
    med = statistics.median
    if not trace:
        return {
            "wall_s": med(s["wall_s"] for s in samples),
            "setup_s": med(s["setup_s"] for s in samples),
            "peak_rss_mb": med(s["peak_rss_mb"] for s in samples),
        }
    traced = [s for s in samples if s["tag"].startswith("traced")]
    plain = [s for s in samples if s["tag"].startswith("plain")]
    per_run = [spans.layer_metrics(s["spans"]) for s in traced if s["spans"]]
    per_run = per_run or [spans.layer_metrics([])]
    metrics = {key: med(m[key] for m in per_run) for key in per_run[0]}
    metrics["trace.overhead_s"] = (med(s["wall_s"] for s in traced)
                                   - med(s["wall_s"] for s in plain))
    return metrics


def declared_units(root: Path, trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qnr" / "cli.py").is_file():
        print(f"error: {root} is not a qnr checkout (no src/qnr/cli.py)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = master_seed(args.seed)
    reference = load_reference(workload.name, seed)
    units = declared_units(root, bool(args.trace))

    work = root / ".bench_run" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        samples = measure(root, workload, seed, work, args.seconds,
                          bool(args.trace), reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = summarize(samples, bool(args.trace))
    last = next((s for s in reversed(samples) if s["spans"]), None)
    table = spans.self_time_table(last["spans"]) if last else None
    if set(metrics) != set(units):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    failed = sum(1 for s in samples if s["problems"])

    record = {
        "workload": workload.name, "seed": args.seed, "master_seed": seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(root),
        "versions": next((s["versions"] for s in samples if s["versions"]), None),
        "samples": [{k: v for k, v in s.items() if k not in ("spans", "versions")}
                    for s in samples],
        "metrics": metrics,
        "self_time": table,
    }
    records = root / ".bench_run" / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": record["environment"],
                      "versions": record["versions"]}), file=sys.stderr)
    for s in samples:
        for p in s["problems"]:
            print(f"{s['tag']}: {p}", file=sys.stderr)
    if table:
        # shares of the traced session's wall time; the rest is interpreter
        # start-up and code outside the traced functions
        for name, calls, self_s in table[:10]:
            print(f"self {name:40s} {calls:7d} calls {self_s:9.4f} s "
                  f"{100 * self_s / last['wall_s']:5.1f}%", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
