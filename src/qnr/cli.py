"""Command-line front end: simulate | train | tipc | ipc | esp | ingest.

Every command takes --config/--preset/--seed/--out/--threads, assembles a
validated configuration and runs deterministically from the master seed.
``main`` makes the output directory, runs the command, which writes its
artifacts there and returns their paths, and writes ``manifest.json`` last:
the config hash and the artifacts.  A command that fails writes no manifest.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import config as cfgmod
from . import dataio
from .noise import AMPLITUDE_DAMPING, NoiseSpec
from .reservoir import (QnrConfig, StateMatrix, esp_probe, fit_readout, narma2,
                        nrmse, run_esn, run_qnr, spatial_multiplex)
from .rng import stream
from .tipc import analyze_states, ipc_of_target


def _draw_inputs(cfg, length: int) -> np.ndarray:
    if cfg.input.kind == "csv":
        values = dataio.read_inputs_csv(cfg.input.path)
        if len(values) < length:
            raise dataio.IngestError(
                f"{cfg.input.path}: need {length} inputs, file has {len(values)}")
        return values[:length]
    rng = stream(cfg.seed, "inputs")
    return rng.uniform(cfg.input.low, cfg.input.high, size=length)


def _unit_interval(cfg, inputs: np.ndarray) -> np.ndarray:
    """Inputs mapped affinely onto [0, 1], the NARMA2 recurrence domain."""
    lo, hi = cfg.input.low, cfg.input.high
    if cfg.input.kind == "csv":
        lo, hi = float(inputs.min()), float(inputs.max())
        if lo == hi:
            raise ValueError("constant input sequence")
    return (inputs - lo) / (hi - lo)


def _target_sequence(cfg, inputs: np.ndarray) -> np.ndarray:
    if cfg.task == "narma2":
        return narma2(_unit_interval(cfg, inputs))
    path = cfg.target.path
    if not path:
        raise cfgmod.ConfigError("csv_target task requires target.path")
    y = dataio.read_inputs_csv(path)
    if len(y) < len(inputs):
        raise dataio.IngestError(f"{path}: need {len(inputs)} targets, file has {len(y)}")
    return y[:len(inputs)]


def _pool(workers: int):
    """A process pool; imported here, so that serial runs never load it."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def _run_instances(cfg, inputs: np.ndarray):
    """The config's reservoir instances and their state matrices over the
    inputs, run optionally on a process pool; order-stable."""
    instances = cfg.qnr_instances()
    configs = [qc for _, _, qc in instances]
    if cfg.threads > 1:
        with _pool(cfg.threads) as pool:
            return instances, list(pool.map(run_qnr, configs, [inputs] * len(configs)))
    return instances, [run_qnr(qc, inputs) for qc in configs]


def _manifest(cfg, command: str, artifacts, extra: dict) -> dict:
    return {
        "command": command,
        "config_hash": cfgmod.config_hash(cfg),
        "config": cfgmod.to_dict(cfg),
        "versions": {
            "qnr": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "artifacts": [str(a) for a in artifacts],
        **extra,
    }


# ---------------------------------------------------------------------------
# Commands: each takes the config and the output directory, writes its
# artifacts, and returns their paths and the manifest's extra keys
# ---------------------------------------------------------------------------

def cmd_simulate(cfg, out: Path):
    inputs = _draw_inputs(cfg, cfg.split.total)
    instances, states = _run_instances(cfg, inputs)
    artifacts = [out / "inputs.csv"]
    dataio.write_inputs_csv(artifacts[0], inputs)
    inst_meta = []
    for (i, mask, qc), sm in zip(instances, states):
        name = f"states_{i:04d}.csv" if mask is None else f"states_m{mask:04d}.csv"
        path = out / name
        dataio.write_states_csv(path, sm)
        artifacts.append(path)
        inst_meta.append({"index": i, "mask": mask, "seed": qc.seed, "file": name})
    print(f"simulate: wrote {len(states)} state files to {out}")
    return artifacts, {"instances": inst_meta}


def cmd_train(cfg, out: Path):
    inputs = _draw_inputs(cfg, cfg.split.total)
    y = _target_sequence(cfg, inputs)
    tr, ev = cfg.split.train_range, cfg.split.eval_range
    metrics = {"task": cfg.task, "split": cfgmod.to_dict(cfg)["split"]}
    if cfg.reservoir.kind == "qnr":
        instances, states = _run_instances(cfg, inputs)
        X = spatial_multiplex(states)
        readout = fit_readout(X.data, y, tr)
        yhat = readout.predict(X.data)
        metrics.update({
            "reservoir": "qnr",
            "instances": [{"index": i, "mask": m, "seed": qc.seed}
                          for i, m, qc in instances],
            "n_features": X.n_features,
            "nrmse_train": nrmse(y, yhat, tr),
            "nrmse_eval": nrmse(y, yhat, ev),
            "weights": readout.weights.tolist(),
            "readout": {"bias": readout.has_bias, "rank": readout.rank,
                        "condition": readout.condition,
                        "residual_norm": readout.residual_norm},
        })
    else:
        per_config = []
        for k in range(cfg.esn.configurations):
            sm = run_esn(cfg.esn_instance(k), inputs)
            readout = fit_readout(sm.data, y, tr)
            yhat = readout.predict(sm.data)
            per_config.append({
                "configuration": k,
                "nrmse_train": nrmse(y, yhat, tr),
                "nrmse_eval": nrmse(y, yhat, ev),
            })
        metrics.update({
            "reservoir": "esn",
            "n_nodes": cfg.esn.n_nodes,
            "spectral_radius": cfg.esn.spectral_radius,
            "per_configuration": per_config,
            "nrmse_train": float(np.mean([m["nrmse_train"] for m in per_config])),
            "nrmse_eval": float(np.mean([m["nrmse_eval"] for m in per_config])),
        })
    path = out / "metrics.json"
    dataio.write_json(path, metrics)
    print(f"train: eval NRMSE = {metrics['nrmse_eval']:.4f} ({metrics['reservoir']}, "
          f"task {cfg.task})")
    return [path], {}


def _profiles(cfg, sm: StateMatrix, inputs, input_offset):
    """Profile of the whole state matrix, and one summary row per qubit alone."""
    profs = (analyze_states(cols, inputs, input_offset, cfg.tipc,
                            surrogate_rng=stream(cfg.seed, "surrogate"),
                            input_range=(cfg.input.low, cfg.input.high),
                            input_uniform=cfg.input.kind == "uniform")
             for cols in [sm.data] + [sm.data[:, [q]] for q in range(sm.n_features)])
    whole = next(profs)
    return whole, [(q, p.rank, p.c_tiv_tot, p.c_tv_tot, p.c_tot) for q, p in enumerate(profs)]


def cmd_tipc(cfg, out: Path):
    if cfg.ingest.states:
        inputs, states = dataio.read_trace(cfg.ingest.inputs, cfg.ingest.states)
        # recorded traces carry no washout rows; delays eat into the window
        offset = cfg.tipc.max_input_delay
        window = offset + cfg.tipc.max_state_delay
        if len(inputs) <= window:
            raise dataio.IngestError(
                f"{cfg.ingest.states[0]}: {len(inputs)} state rows, but "
                f"tipc.max_input_delay + tipc.max_state_delay = {window} "
                f"needs at least {window + 1}")
        runs = [(f"trace{i}", None, StateMatrix(sm.data[offset:]), inputs, offset)
                for i, sm in enumerate(states)]
    else:
        w, span = cfg.tipc.washout, cfg.tipc.analysis_len
        inputs = _draw_inputs(cfg, w + span)
        runs = [(f"inst{i:04d}" if mask is None else f"m{mask:04d}", mask,
                 StateMatrix(sm.data[w:]), inputs, w)
                for (i, mask, _), sm in zip(*_run_instances(cfg, inputs))]
    # analyse every run before writing: a run that fails (a window too short
    # for its rank's chi2 threshold) leaves no partial output
    analysed = [(name, mask, *_profiles(cfg, sm, inputs_used, offset))
                for name, mask, sm, inputs_used, offset in runs]
    artifacts, summary = [], []
    for name, mask, prof, per_qubit in analysed:
        pj = out / f"profile_{name}.json"
        pc = out / f"profile_{name}_degrees.csv"
        dataio.write_profile_json(pj, prof)
        dataio.write_profile_degrees_csv(pc, prof)
        artifacts += [pj, pc]
        pq = out / f"profile_{name}_per_qubit.csv"
        dataio.write_csv(pq, ["qubit", "rank", "c_tiv_tot", "c_tv_tot", "c_tot"], per_qubit)
        artifacts.append(pq)
        summary.append((name, "" if mask is None else mask, prof.rank, prof.c_tiv_tot,
                        prof.c_tv_tot, prof.c_tot))
        print(f"tipc {name}: r={prof.rank} C_TIV={prof.c_tiv_tot:.4f} "
              f"C_TV={prof.c_tv_tot:.4f}")
    spath = out / "tipc_summary.csv"
    dataio.write_csv(spath, ["name", "mask", "rank", "c_tiv_tot", "c_tv_tot", "c_tot"],
                     summary)
    artifacts.append(spath)
    if cfg.ingest.states and cfg.ingest.metadata:
        # raw pairing of device metadata (error rates etc.) with capacities
        hpath = out / "hardware_capacity.csv"
        keys = sorted(cfg.ingest.metadata)
        meta = [cfg.ingest.metadata[k] for k in keys]
        dataio.write_csv(hpath, ["name", *keys, "c_tiv_tot", "c_tv_tot", "rank"],
                         ((name, *meta, tiv, tv, rank)
                          for name, _, rank, tiv, tv, _ in summary))
        artifacts.append(hpath)
    return artifacts, {}


def cmd_ipc(cfg, out: Path):
    w, span = cfg.tipc.washout, cfg.tipc.analysis_len
    inputs = _draw_inputs(cfg, w + span)
    y = _target_sequence(cfg, inputs)[w:]
    prof = ipc_of_target(y, inputs, w, cfg.tipc, surrogate_rng=stream(cfg.seed, "surrogate"),
                         input_range=(cfg.input.low, cfg.input.high),
                         input_uniform=cfg.input.kind == "uniform")
    pj, pc = out / "ipc_profile.json", out / "ipc_profile_degrees.csv"
    dataio.write_profile_json(pj, prof)
    dataio.write_profile_degrees_csv(pc, prof)
    caps = prof.capacity.tolist()
    lead = sorted((caps[j], prof.terms[j].label())
                  for j in np.flatnonzero(~prof.truncated).tolist())
    for cap, label in lead[::-1][:3]:
        print(f"ipc: {label} = {cap:.4f}")
    return [pj, pc], {}


def cmd_esp(cfg, out: Path):
    qnr_cfg = QnrConfig(
        n_qubits=cfg.reservoir.n_qubits,
        input_scaling=cfg.reservoir.input_scaling,
        noise=[NoiseSpec(AMPLITUDE_DAMPING, cfg.esp.gamma)],
        seed=cfg.seed,
    )
    inputs = _draw_inputs(cfg, cfg.esp.steps)
    probe = esp_probe(qnr_cfg, inputs, cfg.esp.trials)
    csv_path = out / "esp_decay.csv"
    dataio.write_esp_csv(csv_path, probe.deltas)
    payload = {
        "gamma": cfg.esp.gamma,
        "trials": cfg.esp.trials,
        "steps": cfg.esp.steps,
        "slope_per_step": probe.slope,
        "fit_points": probe.fit_points,
        "final_delta": float(probe.deltas[-1]),
    }
    jpath = out / "esp_rate.json"
    dataio.write_json(jpath, payload)
    print(f"esp: gamma={cfg.esp.gamma} slope={probe.slope:.5f} "
          f"delta[{cfg.esp.steps}]={probe.deltas[-1]:.3e}")
    return [csv_path, jpath], {}


def cmd_ingest(cfg, out: Path):
    if not cfg.ingest.states:
        raise cfgmod.ConfigError("ingest.states must list at least one CSV")
    inputs, states = dataio.read_trace(cfg.ingest.inputs, cfg.ingest.states)
    artifacts = [out / "ingested_inputs.csv"]
    dataio.write_inputs_csv(artifacts[0], inputs)
    meta = []
    for i, sm in enumerate(states):
        spath = out / f"ingested_states_{i:04d}.csv"
        dataio.write_states_csv(spath, sm)
        artifacts.append(spath)
        meta.append({"index": i, "steps": sm.n_steps, "features": sm.n_features,
                     "source": str(cfg.ingest.states[i])})
    print(f"ingest: validated {len(states)} trace(s), T={states[0].n_steps}")
    return artifacts, {"traces": meta, "metadata": cfg.ingest.metadata}


_COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "tipc": cmd_tipc,
    "ipc": cmd_ipc,
    "esp": cmd_esp,
    "ingest": cmd_ingest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnr",
        description="Quantum noise-induced reservoir simulator and capacity analyzer",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="YAML config file")
        p.add_argument("--preset", choices=("desk", "paper"), default="desk")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None, help="worker processes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    file_dict = cfgmod.load_file(args.config) if args.config else None
    cfg = cfgmod.assemble(file_dict, preset_name=args.preset, seed=args.seed,
                          out=args.out, threads=args.threads)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    artifacts, extra = _COMMANDS[args.command](cfg, out)
    dataio.write_json(out / "manifest.json", _manifest(cfg, args.command, artifacts, extra))
    return 0


if __name__ == "__main__":
    sys.exit(main())
