"""The benchmark's workloads and the output gate that checks their results.

Each workload is a session of two ``qnr`` CLI commands, each with a config
file, run one after the other.  The two workloads load different modules:
``simulate`` the reservoir step kernels, ``capacity`` the capacity solver
(see README.md for the reasons).  The benchmark seed selects the master
seed handed to the CLI; the CLI derives every input, instance seed and
surrogate permutation from it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Tuple

# Reference outputs exist for master seeds 0 .. REFERENCE_SEEDS-1.
REFERENCE_SEEDS = 16

# One tolerance for every float output: math.isclose with these bounds.
# Not zero: results differ in the last bits across BLAS thread counts.
REL_TOL = 1e-9
ABS_TOL = 1e-12

IPC_LABELS = ("P1(u[t])", "P1(u[t-1])", "P1(u[t-2])")


def master_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _train_outputs(out: Path) -> dict:
    m = _read_json(out / "metrics.json")
    return {"nrmse_train": m["nrmse_train"], "nrmse_eval": m["nrmse_eval"]}


def _ipc_outputs(out: Path) -> dict:
    prof = _read_json(out / "ipc_profile.json")
    caps = {r["label"]: r["capacity"] for r in prof["records"]}
    res = {"threshold": prof["threshold"]}
    res.update({label: caps[label] for label in IPC_LABELS})
    return res


def _tipc_outputs(out: Path) -> dict:
    res = {}
    for path in sorted(out.glob("profile_*.json")):
        name = path.stem[len("profile_"):]
        prof = _read_json(path)
        for key in ("rank", "c_tiv_tot", "c_tv_tot"):
            res[f"{name}.{key}"] = prof[key]
        with open(out / f"profile_{name}_per_qubit.csv") as fh:
            for row in csv.DictReader(fh):
                q = f"{name}.q{row['qubit']}"
                res[f"{q}.rank"] = int(row["rank"])
                res[f"{q}.c_tiv_tot"] = float(row["c_tiv_tot"])
                res[f"{q}.c_tv_tot"] = float(row["c_tv_tot"])
    return res


def _esp_outputs(out: Path) -> dict:
    rate = _read_json(out / "esp_rate.json")
    return {"slope_per_step": rate["slope_per_step"],
            "final_delta": rate["final_delta"]}


@dataclass(frozen=True)
class Step:
    """One ``qnr`` CLI invocation of a workload."""

    command: str                      # qnr subcommand
    config: dict                      # written as the --config file
    read_outputs: Callable[[Path], Dict[str, float]]

    def cli_args(self, config_path: Path, seed: int, out: Path) -> list:
        return [self.command, "--config", str(config_path), "--preset", "desk",
                "--seed", str(seed), "--out", str(out), "--threads", "1"]


@dataclass(frozen=True)
class Workload:
    """A session: its steps run one after the other, each in a fresh process.
    Output keys are prefixed with the step's command."""

    name: str
    steps: Tuple[Step, ...]


# 25 damping masks on the pair path; the split is cut from 5,000 to 500
# steps so that many sessions fit in one measurement.
NARMA2_DESK = Step("train", {"split": {"washout": 100, "train": 200, "eval": 200}},
                   _train_outputs)
# six qubits: every step goes through qsim.apply_kraus per qubit.
ESP_6Q = Step("esp", {"reservoir": {"n_qubits": 6}, "esp": {"trials": 6}},
              _esp_outputs)
# criterion-8 settings: tall 20,000 x 164 Legendre basis, re-evaluated and
# re-orthonormalized once per surrogate.
IPC_SURROGATE = Step("ipc", {"input": {"low": -1.0, "high": 1.0},
                             "tipc": {"family": "legendre", "max_degree": 3,
                                      "max_input_delay": 8,
                                      "threshold": "surrogate",
                                      "surrogates": 3, "surrogate_sigma": 1.2,
                                      "analysis_len": 20000, "washout": 200}},
                     _ipc_outputs)
# one-hop entangler (mask 257): full-register kernel, then a wide,
# rank-deficient basis (498 x 4,494) and four per-qubit re-analyses.
TIPC_ENTANGLED = Step("tipc", {"reservoir": {"masks": [257]},
                               "tipc": {"analysis_len": 500}},
                      _tipc_outputs)

# Two workloads, not one per command: the host's speed drifts by tens of
# percent over minutes, and only long runs average that out; the
# benchmark's time budget allows long runs for two workloads.  Each pairs
# the commands that load the same modules, so that a change to the step
# kernels shows on ``simulate`` and one to the capacity solver on
# ``capacity``, and the other workload bypasses it.
WORKLOADS = {w.name: w for w in (
    Workload("simulate", (NARMA2_DESK, ESP_6Q)),
    Workload("capacity", (IPC_SURROGATE, TIPC_ENTANGLED)),
)}


def check(outputs: dict, reference: dict) -> list:
    """Mismatches of one run's outputs against the recorded reference.

    Integers (ranks) must match exactly, floats within REL_TOL/ABS_TOL.
    """
    problems = []
    if set(outputs) != set(reference):
        problems.append(f"outputs {sorted(set(outputs) ^ set(reference))} "
                        "missing or unexpected")
    for key in sorted(set(outputs) & set(reference)):
        got, want = outputs[key], reference[key]
        if isinstance(want, int):
            ok = got == want
        else:
            ok = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        if not ok:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    return problems
