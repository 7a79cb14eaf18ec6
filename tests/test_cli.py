"""Config schema, CSV exchange, and CLI subcommand tests."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from qnr import cli
from qnr import config as cfgmod
from qnr import dataio
from qnr.cli import main
from qnr.noise import NoiseSpec, specs_from_mask
from qnr.reservoir import EsnConfig, QnrConfig, StateMatrix, benchmark_masks
from qnr.tipc import TipcSettings, analyze_states


# (id, tipc section, key its error names); analysis_len is a config-only key
BAD_TIPC = [pytest.param(tipc, key, id=name) for name, tipc, key in [
    ("max_state_delay", {"max_state_delay": -1}, "max_state_delay"),
    ("max_degree", {"max_degree": 0}, "max_degree"),
    ("max_input_delay", {"max_input_delay": 0}, "max_input_delay"),
    ("surrogates", {"surrogates": 0}, "surrogates"),
    ("p-zero", {"p": 0.0}, "p"),
    ("p-one", {"p": 1.0}, "p"),
    ("term_cap", {"term_cap": 0}, "term_cap"),
    ("analysis_len", {"analysis_len": 2, "max_state_delay": 2}, "analysis_len"),
    ("sigma", {"sigma": 0.0}, "sigma"),
    ("surrogate_sigma", {"surrogate_sigma": -1.2}, "surrogate_sigma"),
    ("threshold", {"threshold": "surogate"}, "threshold"),
    ("sigma-negative", {"sigma": -1.0}, "sigma"),
    ("surrogate_sigma-zero", {"surrogate_sigma": 0.0}, "surrogate_sigma"),
    # integers beyond float range used to pass: 10**400 < math.inf
    ("sigma-huge", {"sigma": 10**400}, "sigma"),
    ("surrogate_sigma-huge", {"surrogate_sigma": 10**400}, "surrogate_sigma"),
]]

# (id, library call, start of its error): the cases of
# test_bad_reservoir_values_name_their_key built as the run builds them,
# and three values the library used to take (targets (1.5,) became (1,))
BAD_LIBRARY_RESERVOIR = [pytest.param(build, message, id=name) for name, build, message in [
    ("n_qubits-odd", lambda: QnrConfig(n_qubits=3), r"n_qubits must be an even integer"),
    ("n_qubits-large", lambda: QnrConfig(n_qubits=14), r"n_qubits must be an even integer"),
    ("n_qubits-esn", lambda: QnrConfig(n_qubits=3, noise=[NoiseSpec("amplitude_damping", 0.05)]),
     r"n_qubits must be an even integer"),
    ("noise-rate", lambda: NoiseSpec("amplitude_damping", 1.5), r"rate must be a number"),
    ("noise-targets", lambda: QnrConfig(noise=[NoiseSpec("bit_flip", 0.1),
                                               NoiseSpec("amplitude_damping", 0.1, (9,))]),
     r"noise\[1\]\.targets must be qubits in \[0, 3\], got \[9\]"),
    ("masks-two-hop", lambda: QnrConfig(n_qubits=2, noise=specs_from_mask(512, 0.1)),
     r"noise\[0\]\.kind: entangler_two_hop needs at least 3 qubits"),
    ("masks-all-two-hop", lambda: QnrConfig(n_qubits=2, noise=specs_from_mask(1023, 0.1)),
     r"noise\[9\]\.kind: entangler_two_hop needs at least 3 qubits"),
    ("noise-two-hop", lambda: QnrConfig(n_qubits=2, noise=[NoiseSpec("entangler_two_hop", 0.1)]),
     r"noise\[0\]\.kind: entangler_two_hop needs at least 3 qubits"),
    ("instances-damping", lambda: benchmark_masks(600), r"instances must be at most 512"),
    ("noise-repeated-kind", lambda: QnrConfig(noise=[NoiseSpec("bit_flip", 0.1),
                                                     NoiseSpec("bit_flip", 0.2)]),
     r"noise\[1\]\.kind: duplicate noise kind 'bit_flip' \(noise\[0\]\)"),
    ("targets-float", lambda: NoiseSpec("bit_flip", 0.1, (1.5,)), r"targets must be"),
    ("rate-string", lambda: NoiseSpec("bit_flip", "0.1"), r"rate must be a number"),
    ("n_qubits-float", lambda: QnrConfig(n_qubits=4.0), r"n_qubits must be an even integer"),
    ("input_scaling-huge", lambda: QnrConfig(input_scaling=10**400),
     r"input_scaling must be a finite number"),
]]


class TestConfig:
    def test_defaults_validate(self):
        cfg = cfgmod.ExperimentConfig()
        cfg.validate()

    def test_round_trip_through_yaml(self):
        cfg = cfgmod.assemble({"seed": 777, "reservoir": {"instances": 3}},
                              preset_name="desk")
        again = cfgmod.parse(cfgmod.serialize(cfg))
        assert again == cfg
        assert cfgmod.config_hash(again) == cfgmod.config_hash(cfg)

    def test_unknown_top_level_key(self):
        with pytest.raises(cfgmod.ConfigError, match="unknown top-level"):
            cfgmod.from_dict({"tusk": "narma2"})

    def test_unknown_nested_key(self):
        with pytest.raises(cfgmod.ConfigError, match="reservoir"):
            cfgmod.from_dict({"reservoir": {"noise_rte": 0.1}})

    def test_bad_values_rejected(self):
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.from_dict({"task": "narma3"})
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.from_dict({"reservoir": {"noise_rate": 1.5}})
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.from_dict({"input": {"kind": "uniform", "low": 1.0, "high": 0.0}})
        # out-of-range masks used to alias onto their low ten bits
        for masks in ([1025, -1], [1024], [-1], [1.0], [True], "some", 5):
            with pytest.raises(cfgmod.ConfigError, match="reservoir.masks"):
                cfgmod.from_dict({"reservoir": {"masks": masks}})

    @pytest.mark.parametrize("steps", [0, -3])
    def test_esp_steps_must_be_positive(self, steps, tmp_path):
        # zero steps used to crash `qnr esp` inside numpy's reshape
        with pytest.raises(cfgmod.ConfigError, match=r"esp.steps must be >= 1"):
            main(["esp", "--config", _write_cfg(tmp_path, {"esp": {"steps": steps}}),
                  "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("kind", ["uniform", "csv"])
    @pytest.mark.parametrize("span,message", [
        ({"high": float("inf")}, r"^input\.high must be finite, got inf"),
        ({"low": -float("inf")}, r"^input\.low must be finite, got -inf"),
        ({"low": float("nan")}, r"^input\.low must be finite, got nan"),
        ({"low": -1e308, "high": 1e308}, r"^input\.high - input\.low must be finite"),
        ({"high": 10**400}, r"^input\.high must be finite, got 10{400}$"),
        ({"low": -10**400}, r"^input\.low must be finite, got -10{400}$"),
        ({"low": -10**308, "high": 10**308}, r"^input\.high - input\.low must be finite"),
    ], ids=["inf", "-inf", "nan", "overflow", "huge-int", "-huge-int", "overflow-int"])
    def test_non_finite_input_range_names_its_key(self, tmp_path, kind, span, message):
        # each used to pass validation, and `qnr train` then died in numpy with
        # "OverflowError: high - low range exceeds valid bounds"; the two keys
        # are the Legendre range of csv inputs too.  Integers beyond float
        # range died in validation with a bare OverflowError
        extra = {"path": str(tmp_path / "u.csv")} if kind == "csv" else {}
        cfg = _write_cfg(tmp_path, {"input": {"kind": kind, **span, **extra}})
        with pytest.raises(cfgmod.ConfigError, match=message):
            main(["train", "--config", cfg, "--out", str(tmp_path / "out")])

    def test_empty_split_rejected(self):
        # an all-zero split used to pass validation and crash in run_qnr
        with pytest.raises(cfgmod.ConfigError, match=r"split\.washout \+ split\.train"):
            cfgmod.assemble({"split": {"washout": 0, "train": 0, "eval": 0}})

    @pytest.mark.parametrize("tipc,key", BAD_TIPC)
    def test_bad_tipc_values_name_their_key(self, tipc, key):
        # a negative max_state_delay used to shift every input factor by a
        # row; the others failed deep in tipc, or wrote empty profiles
        with pytest.raises(cfgmod.ConfigError, match=rf"tipc\.{key} "):
            cfgmod.assemble({"tipc": tipc})

    @pytest.mark.parametrize("tipc,key", [c for c in BAD_TIPC if c.id != "analysis_len"])
    def test_library_rejects_bad_tipc_values_too(self, tipc, key, rng):
        # the library used to run these: a misspelt threshold as chi2, a
        # negative sigma keeping every term, surrogate_sigma 0 as threshold 0
        u = rng.uniform(0, 1, 230)
        with pytest.raises(ValueError, match=rf"tipc\.{key} "):
            analyze_states(rng.normal(size=(200, 2)), u, 30, TipcSettings(**tipc),
                           surrogate_rng=rng)

    @pytest.mark.parametrize("build,message", BAD_LIBRARY_RESERVOIR)
    def test_library_rejects_bad_reservoir_values_too(self, build, message):
        with pytest.raises(ValueError, match="^" + message):
            build()

    @pytest.mark.parametrize("key,value", [("n_nodes", 2.5), ("spectral_radius", -1),
                                           ("internal_prob", 2), ("input_prob", -1),
                                           ("spectral_radius", float("inf")),
                                           ("input_scaling", float("nan")),
                                           ("input_scaling", "x"),
                                           pytest.param("spectral_radius", 10**400,
                                                        id="spectral_radius-huge"),
                                           pytest.param("input_scaling", 10**400,
                                                        id="input_scaling-huge")])
    def test_bad_esn_values_name_their_key(self, key, value):
        # each used to run: probabilities 2 and -1 wrote an eval NRMSE of
        # 1.0038, and a non-finite scale died in the analysis with "state
        # matrix contains NaN or Inf", naming no key; an integer scale beyond
        # float range died in validation with a bare OverflowError
        with pytest.raises(ValueError, match=rf"^{key} must be"):
            EsnConfig(**{key: value})
        with pytest.raises(cfgmod.ConfigError, match=rf"^esn\.{key} must be"):
            cfgmod.assemble({"esn": {key: value}})

    @pytest.mark.parametrize("text,message", [
        ("tipc: {p: 1e-4}", r"^tipc\.p must be a number .*got '1e-4'.* 1\.0e-4"),
        ("seed: 1.5", r"^seed must be an integer, got 1\.5"),
    ], ids=["tipc-p-string", "seed-float"])
    def test_wrongly_typed_scalars_name_their_key(self, text, message):
        # YAML 1.1 reads 1e-4 as a string, which died in a bare TypeError;
        # seed 1.5 ran as seed 1 while the manifest recorded 1.5
        with pytest.raises(cfgmod.ConfigError, match=message):
            cfgmod.parse(text)

    @pytest.mark.parametrize("overlay,message", [
        ({"split": {"train": 200.5}}, r"^split\.train must be an integer, got 200\.5"),
        ({"threads": 1.5}, r"^threads must be an integer, got 1\.5"),
        ({"split": {"washout": "100"}}, r"^split\.washout must be an integer, got '100'"),
        ({"input": {"low": "0"}}, r"^input\.low must be a number, got '0'"),
        ({"esp": {"gamma": "0.05"}}, r"^esp\.gamma must be a number, got '0\.05'"),
        ({"reservoir": {"input_scaling": "pi"}},
         r"^reservoir\.input_scaling must be a finite number, got 'pi'"),
        ({"tipc": {"washout": 200.5}}, r"^tipc\.washout must be an integer, got 200\.5"),
        ({"esn": {"configurations": 2.5}},
         r"^esn\.configurations must be an integer, got 2\.5"),
        ({"reservoir": {"noise_rate": "0.1"}},
         r"^reservoir\.noise_rate must be a number in \[0, 1\], got '0\.1'"),
        ({"reservoir": {"instances": "2"}},
         r"^reservoir\.instances must be an integer >= 1, got '2'"),
        ({"out": 1.5}, r"^out must be a string, got 1\.5"),
        ({"input": {"path": True}}, r"^input\.path must be a string or null, got True"),
        ({"target": {"path": 1.5}}, r"^target\.path must be a string or null, got 1\.5"),
        ({"ingest": {"states": "x"}}, r"^ingest\.states must be a list of strings, got 'x'"),
        ({"reservoir": {"noise": 1.5}},
         r"^reservoir\.noise must be null or a list of channels, got 1\.5"),
        ({"ingest": {"metadata": [1, 2]}},
         r"^ingest\.metadata must be a mapping, got \[1, 2\]"),
        ({"ingest": {"metadata": "ab"}}, r"^ingest\.metadata must be a mapping, got 'ab'"),
    ], ids=["split-train-float", "threads-float", "split-washout-string",
            "input-low-string", "esp-gamma-string", "input_scaling-string",
            "tipc-washout-float", "esn-configurations-float", "noise_rate-string",
            "instances-string", "out-float", "input-path-bool", "target-path-float",
            "ingest-states-string", "reservoir-noise-float", "ingest-metadata-list",
            "ingest-metadata-string"])
    def test_wrongly_typed_config_values_name_their_key(self, overlay, message):
        # the first two passed assemble and died in a bare TypeError in the
        # run, the next three in validate; the rest were accepted, except
        # reservoir.noise: 1.5, which died in a bare TypeError, and
        # ingest.metadata, which qnr tipc read only after writing every
        # profile, dying in a bare IndexError or TypeError
        with pytest.raises(cfgmod.ConfigError, match=message):
            cfgmod.assemble(overlay)

    def test_default_config_hashes_are_pinned(self):
        # every manifest names this hash: renaming or reordering a field of
        # any section, TipcSettings included, changes it
        assert cfgmod.config_hash(cfgmod.assemble(None, preset_name="desk")) == \
            "d7bde9660894daf289534c909c7a1deed5e722c835c518d0dfb46a0c4776f38c"
        assert cfgmod.config_hash(cfgmod.assemble(None, preset_name="paper")) == \
            "30504133c6129249272cb435fb0a15fceb0bc7381a490343716f1f7407eb4946"

    @pytest.mark.parametrize("reservoir,key", [
        ({"n_qubits": 3}, r"reservoir\.n_qubits"),
        ({"n_qubits": 14}, r"reservoir\.n_qubits"),
        ({"n_qubits": 3, "kind": "esn"}, r"reservoir\.n_qubits"),
        ({"noise": [{"kind": "amplitude_damping", "rate": 1.5}]}, r"reservoir\.noise\[0\]\.rate"),
        ({"noise": [{"kind": "bit_flip"}, {"kind": "amplitude_damping", "targets": [9]}]},
         r"reservoir\.noise\[1\]\.targets"),
        ({"masks": [512], "n_qubits": 2}, r"reservoir\.masks"),
        ({"masks": "all", "n_qubits": 2}, r"reservoir\.masks"),
        ({"noise": [{"kind": "entangler_two_hop"}], "n_qubits": 2},
         r"reservoir\.noise\[0\]\.kind"),
        ({"instances": 600}, r"reservoir\.instances must be at most 512"),
        ({"noise": [{"kind": "bit_flip"}, {"kind": "bit_flip", "rate": 0.2}]},
         r"reservoir\.noise\[1\]\.kind"),
        ({"input_scaling": 10**400}, r"reservoir\.input_scaling must be a finite number"),
        ({"masks": [1, 3, 1]}, r"reservoir\.masks\[2\]: duplicate mask 1 \(masks\[0\]\)"),
    ], ids=["n_qubits-odd", "n_qubits-large", "n_qubits-esn", "noise-rate", "noise-targets",
            "masks-two-hop", "masks-all-two-hop", "noise-two-hop", "instances-damping",
            "noise-repeated-kind", "input_scaling-huge", "masks-repeated"])
    def test_bad_reservoir_values_name_their_key(self, reservoir, key):
        # each used to pass assemble and fail once the instances were
        # built, without the key (a bare IndexError for the targets); an
        # integer scale beyond float range died in assemble with a bare
        # OverflowError; a repeated mask passed, and its second instance
        # overwrote the first one's files
        with pytest.raises(cfgmod.ConfigError, match=key):
            cfgmod.assemble({"reservoir": reservoir})

    def test_preset_paper_split(self):
        cfg = cfgmod.assemble(None, preset_name="paper")
        assert (cfg.split.washout, cfg.split.train, cfg.split.eval) == (9998, 20000, 20000)

    def test_file_overrides_preset(self):
        cfg = cfgmod.assemble({"split": {"train": 123}}, preset_name="desk")
        assert cfg.split.train == 123
        assert cfg.split.washout == 1000

    def test_flag_overrides(self):
        cfg = cfgmod.assemble({}, preset_name="desk", seed=42, out="elsewhere", threads=3)
        assert (cfg.seed, cfg.out, cfg.threads) == (42, "elsewhere", 3)

    def test_mask_list_default_is_damping_masks(self):
        cfg = cfgmod.assemble({"reservoir": {"instances": 4}})
        assert cfg.reservoir.mask_list() == [1, 3, 5, 7]

    def test_mask_all_sweep(self):
        cfg = cfgmod.assemble({"reservoir": {"masks": "all"}})
        assert cfg.reservoir.mask_list() == list(range(1024))

    def test_instance_seeds_differ_and_reproduce(self):
        cfg = cfgmod.assemble({"reservoir": {"instances": 3}}, seed=9)
        seeds = [qc.seed for _, _, qc in cfg.qnr_instances()]
        assert len(set(seeds)) == 3
        again = [qc.seed for _, _, qc in cfg.qnr_instances()]
        assert seeds == again

    def test_explicit_noise_instances(self):
        cfg = cfgmod.assemble({"reservoir": {
            "instances": 1, "noise": [{"kind": "amplitude_damping", "rate": 0.05}]}})
        (_, mask, qc), = cfg.qnr_instances()
        assert mask is None
        assert qc.noise[0].kind == "amplitude_damping"
        assert qc.noise[0].rate == 0.05


class TestCsvExchange:
    def test_inputs_round_trip_bit_exact(self, tmp_path, rng):
        values = rng.uniform(-1, 1, size=257)
        path = tmp_path / "inputs.csv"
        dataio.write_inputs_csv(path, values)
        back = dataio.read_inputs_csv(path)
        assert np.array_equal(back, values)

    def test_states_round_trip_bit_exact(self, tmp_path, rng):
        data = rng.normal(size=(101, 7)) * np.logspace(-9, 3, 7)
        path = tmp_path / "states.csv"
        dataio.write_states_csv(path, data)
        back = dataio.read_states_csv(path)
        assert np.array_equal(back.data, data)

    def test_nan_row_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "states.csv"
        path.write_text("t,x1,x2\n0,0.1,0.2\n1,nan,0.3\n")
        with pytest.raises(dataio.IngestError, match="states.csv:3"):
            dataio.read_states_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "states.csv"
        path.write_text("time,x1\n0,0.1\n")
        with pytest.raises(dataio.IngestError, match="header"):
            dataio.read_states_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "states.csv"
        path.write_text("t,x1,x2\n0,0.1,0.2\n1,0.3\n")
        with pytest.raises(dataio.IngestError, match="states.csv:3"):
            dataio.read_states_csv(path)

    @pytest.mark.parametrize("t,line", [(("0", "0", "5"), 3), (("nan", "0", "2"), 2),
                                        (("1", "2", "3"), 2), (("0", "1", "inf"), 4)],
                             ids=["repeated", "nan", "from-one", "inf"])
    @pytest.mark.parametrize("kind", ["inputs", "states"])
    def test_t_must_count_rows(self, tmp_path, kind, t, line):
        # rows out of order or missing would be analysed in file order
        path = tmp_path / f"{kind}.csv"
        path.write_text(("t,value\n" if kind == "inputs" else "t,x1\n")
                        + "".join(f"{s},0.5\n" for s in t))
        read = dataio.read_inputs_csv if kind == "inputs" else dataio.read_states_csv
        with pytest.raises(dataio.IngestError,
                           match=rf"{kind}\.csv:{line}: t must be {line - 2}, got"):
            read(path)

    @pytest.mark.parametrize("broken", ["input", "target", "ingest"])
    def test_commands_reject_t_out_of_order(self, tmp_path, rng, broken):
        # every command that reads a trace CSV: input.kind csv, target.path
        # and ingest; row 50 of the broken file repeats t = 49
        u = rng.uniform(0, 1, size=120)
        paths = {name: tmp_path / f"{name}.csv" for name in ("input", "target", "ingest")}
        dataio.write_inputs_csv(paths["input"], u)
        dataio.write_inputs_csv(paths["target"], np.roll(u, 1))
        dataio.write_states_csv(paths["ingest"], rng.normal(size=(120, 2)))
        lines = paths[broken].read_text().splitlines()
        lines[51] = "49," + lines[51].split(",", 1)[1]
        paths[broken].write_text("\n".join(lines) + "\n")
        if broken == "ingest":
            payload = {"ingest": {"inputs": str(paths["input"]),
                                  "states": [str(paths["ingest"])]}}
            command = "tipc"
        else:
            payload = {"task": "csv_target",
                       "split": {"washout": 10, "train": 60, "eval": 40},
                       "input": {"kind": "csv", "path": str(paths["input"])},
                       "target": {"path": str(paths["target"])},
                       "reservoir": {"instances": 1, "masks": [1]}}
            command = "train"
        cfg = _write_cfg(tmp_path, payload)
        with pytest.raises(dataio.IngestError,
                           match=rf"{broken}\.csv:52: t must be 50, got '49'"):
            main([command, "--config", cfg, "--out", str(tmp_path / "out")])

    def test_bundle_length_mismatch(self, tmp_path, rng):
        ip = tmp_path / "inputs.csv"
        sp = tmp_path / "states.csv"
        dataio.write_inputs_csv(ip, rng.uniform(size=10))
        dataio.write_states_csv(sp, rng.normal(size=(9, 2)))
        with pytest.raises(dataio.IngestError, match="state rows"):
            dataio.read_trace(str(ip), [str(sp)])


def _write_cfg(tmp_path, payload):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def _small_split():
    return {"washout": 30, "train": 40, "eval": 40}


# a tiny config per command; ingest reads a trace that simulate wrote
_TINY = {
    "simulate": {"split": _small_split(), "reservoir": {"instances": 2, "masks": [1, 3]}},
    "train": {"split": _small_split(), "reservoir": {"instances": 2, "masks": [1, 3]}},
    "tipc": {"reservoir": {"instances": 1, "masks": [1]},
             "tipc": {"washout": 30, "analysis_len": 200, "max_degree": 1,
                      "max_input_delay": 3, "max_state_delay": 0}},
    "ipc": {"tipc": {"washout": 30, "analysis_len": 200, "max_degree": 2,
                     "max_input_delay": 3}},
    "esp": {"esp": {"trials": 2, "steps": 20}},
}


class TestCommands:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_manifest_lists_every_artifact(self, tmp_path, command):
        payload = _TINY.get(command)
        if command == "ingest":
            trace = tmp_path / "trace"
            main(["simulate", "--config", _write_cfg(tmp_path, _TINY["simulate"]),
                  "--out", str(trace)])
            payload = {"ingest": {"inputs": str(trace / "inputs.csv"),
                                  "states": [str(trace / "states_m0001.csv"),
                                             str(trace / "states_m0003.csv")]}}
        path = _write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out), "--seed", "4"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        written = sorted(str(p) for p in out.iterdir() if p.name != "manifest.json")
        assert written and sorted(manifest["artifacts"]) == written
        cfg = cfgmod.assemble(cfgmod.load_file(path), seed=4, out=str(out))
        assert manifest["config_hash"] == cfgmod.config_hash(cfg)

    def test_simulate_writes_states_and_manifest(self, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "split": _small_split(),
            "reservoir": {"instances": 2, "masks": [1, 3]},
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert len(manifest["instances"]) == 2
        assert manifest["config_hash"]
        sm = dataio.read_states_csv(out / "states_m0001.csv")
        assert sm.n_steps == 110 and sm.n_features == 4

    def test_simulate_reruns_byte_identical(self, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "split": _small_split(),
            "reservoir": {"instances": 1, "masks": [5]},
        })
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out_a), "--seed", "5"])
        main(["simulate", "--config", cfg, "--out", str(out_b), "--seed", "5"])
        a = (out_a / "states_m0005.csv").read_bytes()
        b = (out_b / "states_m0005.csv").read_bytes()
        assert a == b

    def test_simulate_noiseless_states_are_zero(self, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "split": _small_split(),
            "reservoir": {"instances": 1, "masks": [0]},
        })
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(out)])
        sm = dataio.read_states_csv(out / "states_m0000.csv")
        assert np.abs(sm.data).max() <= 1e-10

    def test_train_qnr_and_metrics(self, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "split": _small_split(),
            "reservoir": {"instances": 2, "masks": [1, 3]},
        })
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["reservoir"] == "qnr"
        assert metrics["n_features"] == 8
        assert 0 <= metrics["nrmse_eval"] < 5

    @pytest.mark.parametrize("split,key", [
        ({"washout": 10, "train": 0, "eval": 50}, "train_range"),
        ({"washout": 10, "train": 50, "eval": 0}, "eval_range"),
    ], ids=["train", "eval"])
    def test_train_on_empty_split_writes_nothing(self, tmp_path, split, key):
        # an empty training split used to write NaN into metrics.json and
        # score the eval rows with a readout fitted on no rows
        cfg = _write_cfg(tmp_path, {"split": split,
                                    "reservoir": {"instances": 1, "masks": [1]}})
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=rf"{key} .* selects no rows"):
            main(["train", "--config", cfg, "--out", str(out)])
        assert not (out / "metrics.json").exists()

    def test_train_with_threads_matches_serial(self, tmp_path):
        payload = {
            "split": _small_split(),
            "reservoir": {"instances": 2, "masks": [1, 9]},
        }
        cfg = _write_cfg(tmp_path, payload)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["train", "--config", cfg, "--out", str(out1), "--seed", "3"])
        main(["train", "--config", cfg, "--out", str(out2), "--seed", "3",
              "--threads", "2"])
        m1 = json.loads((out1 / "metrics.json").read_text())
        m2 = json.loads((out2 / "metrics.json").read_text())
        assert m1["nrmse_eval"] == m2["nrmse_eval"]

    def test_simulate_with_threads_matches_serial(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"split": _small_split(),
                                    "reservoir": {"instances": 2, "masks": [1, 129]}})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2), "--threads", "2"]) == 0
        # manifest.json names the output directory and the thread count
        names = sorted(p.name for p in out1.iterdir() if p.name != "manifest.json")
        assert names == ["inputs.csv", "states_m0001.csv", "states_m0129.csv"]
        assert names == sorted(p.name for p in out2.iterdir() if p.name != "manifest.json")
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_simulate_full_mask_sweep(self, tmp_path):
        # the whole 1024-combination sweep, at a token split length
        cfg = _write_cfg(tmp_path, {
            "split": {"washout": 1, "train": 3, "eval": 3},
            "reservoir": {"masks": "all"},
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        files = sorted(out.glob("states_m*.csv"))
        assert len(files) == 1024
        assert files[0].name == "states_m0000.csv"
        assert files[-1].name == "states_m1023.csv"

    def test_train_esn(self, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "split": _small_split(),
            "reservoir": {"kind": "esn"},
            "esn": {"n_nodes": 10, "configurations": 2},
        })
        out = tmp_path / "out"
        main(["train", "--config", cfg, "--out", str(out)])
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["reservoir"] == "esn"
        assert len(metrics["per_configuration"]) == 2

    def test_train_csv_target(self, tmp_path, rng):
        u = rng.uniform(0, 1, size=120)
        y = np.roll(u, 1)
        ipath, tpath = tmp_path / "u.csv", tmp_path / "y.csv"
        dataio.write_inputs_csv(ipath, u)
        dataio.write_inputs_csv(tpath, y)
        cfg = _write_cfg(tmp_path, {
            "task": "csv_target",
            "split": {"washout": 10, "train": 60, "eval": 40},
            "input": {"kind": "csv", "path": str(ipath)},
            "target": {"path": str(tpath)},
            "reservoir": {"instances": 1, "masks": [1]},
        })
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0

    def test_tipc_profiles_and_per_qubit(self, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "reservoir": {"instances": 1,
                          "noise": [{"kind": "amplitude_damping", "rate": 0.1}]},
            "tipc": {"washout": 30, "analysis_len": 300, "max_degree": 2,
                     "max_input_delay": 5, "max_state_delay": 1},
        })
        out = tmp_path / "out"
        assert main(["tipc", "--config", cfg, "--out", str(out), "--seed", "11"]) == 0
        prof = json.loads((out / "profile_inst0000.json").read_text())
        assert prof["rank"] >= 1
        assert prof["c_tiv_tot"] > 0
        per_qubit = (out / "profile_inst0000_per_qubit.csv").read_text().splitlines()
        assert per_qubit[0] == "qubit,rank,c_tiv_tot,c_tv_tot,c_tot"
        assert len(per_qubit) == 5
        for q, line in enumerate(per_qubit[1:]):
            fields = line.split(",")
            assert len(fields) == 5
            assert fields[0] == str(q)
            assert fields[1] == str(int(fields[1]))
        degrees = (out / "profile_inst0000_degrees.csv").read_text().splitlines()
        assert degrees[0] == "degree,tiv_total,tv_total"
        summary = (out / "tipc_summary.csv").read_text().splitlines()
        assert summary[0] == "name,mask,rank,c_tiv_tot,c_tv_tot,c_tot"
        assert summary[1].startswith(f"inst0000,,{prof['rank']},")

    def test_tipc_summary_names_masks(self, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "reservoir": {"instances": 1, "masks": [3]},
            "tipc": {"washout": 30, "analysis_len": 200, "max_degree": 1,
                     "max_input_delay": 3, "max_state_delay": 0},
        })
        out = tmp_path / "out"
        assert main(["tipc", "--config", cfg, "--out", str(out)]) == 0
        summary = (out / "tipc_summary.csv").read_text().splitlines()
        assert len(summary) == 2
        assert summary[1].split(",")[:2] == ["m0003", "3"]

    def test_tipc_with_threads_matches_serial(self, tmp_path, monkeypatch):
        pools = []
        pool = cli._pool

        def recording_pool(workers):
            pools.append(workers)
            return pool(workers)

        monkeypatch.setattr(cli, "_pool", recording_pool)
        cfg = _write_cfg(tmp_path, {
            "reservoir": {"instances": 2, "masks": [1, 129]},
            "tipc": {"washout": 30, "analysis_len": 200, "max_degree": 1,
                     "max_input_delay": 3, "max_state_delay": 0},
        })
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["tipc", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
        assert main(["tipc", "--config", cfg, "--out", str(out2), "--threads", "2"]) == 0
        assert pools == [2]
        # manifest.json names the output directory and the thread count
        names = sorted(p.name for p in out1.iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in out2.iterdir() if p.name != "manifest.json")
        assert len(names) == 7
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_import_leaves_the_process_pool_out(self):
        # serial runs, the default, never start a pool: importing one costs
        # every qnr process ~1.5 MiB and ~25 ms
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, qnr.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            check=True)
        assert out.stdout.strip() == "[]"

    @staticmethod
    def _tipc_on_ingested_trace(tmp_path, rng, metadata):
        u = rng.uniform(0, 1, size=260)
        x = np.column_stack([0.3 * np.roll(u, 1) + 0.1, 0.2 * np.roll(u, 2)])
        ipath, spath = tmp_path / "u.csv", tmp_path / "x.csv"
        dataio.write_inputs_csv(ipath, u)
        dataio.write_states_csv(spath, x)
        cfg = _write_cfg(tmp_path, {
            "ingest": {"inputs": str(ipath), "states": [str(spath)], "metadata": metadata},
            "tipc": {"max_degree": 1, "max_input_delay": 4, "max_state_delay": 0,
                     "washout": 30},
        })
        out = tmp_path / "out"
        assert main(["tipc", "--config", cfg, "--out", str(out)]) == 0
        return out

    def test_tipc_on_ingested_trace_with_metadata(self, tmp_path, rng):
        out = self._tipc_on_ingested_trace(tmp_path, rng,
                                           {"device": "loopback", "cnot_error": 0.02})
        prof = json.loads((out / "profile_trace0.json").read_text())
        assert prof["rank"] == 2
        hw = (out / "hardware_capacity.csv").read_text().splitlines()
        assert hw[0] == "name,cnot_error,device,c_tiv_tot,c_tv_tot,rank"
        assert hw[1].startswith("trace0,0.02,loopback,")
        tiv, tv, rank = hw[1].split(",")[3:]
        assert (float(tiv), float(tv), int(rank)) == (
            prof["c_tiv_tot"], prof["c_tv_tot"], prof["rank"])

    def test_hardware_capacity_quotes_its_cells(self, tmp_path, rng):
        # a comma in a metadata value used to make a 7-field row under a
        # 6-field header; a comma or a line break in a key broke it the same way
        metadata = {"device": "ibm_lagos, rev 2", "cnot, error\nmean": 0.02,
                    'say "hi"': "a\nb"}
        out = self._tipc_on_ingested_trace(tmp_path, rng, metadata)
        with open(out / "hardware_capacity.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        keys = sorted(metadata)
        assert rows[0] == ["name", *keys, "c_tiv_tot", "c_tv_tot", "rank"]
        assert len(rows) == 2 and len(rows[1]) == len(rows[0])
        assert rows[1][:4] == ["trace0", *(str(metadata[k]) for k in keys)]
        prof = json.loads((out / "profile_trace0.json").read_text())
        assert rows[1][4:] == [str(prof["c_tiv_tot"]), str(prof["c_tv_tot"]),
                               str(prof["rank"])]

    @pytest.mark.parametrize("rows", [15, 22])
    def test_tipc_rejects_trace_shorter_than_delay_window(self, tmp_path, rng, rows):
        # the default window is max_input_delay 20 + max_state_delay 2; a
        # 15-row trace used to write a rank-0 profile after a numpy warning
        ipath, spath = tmp_path / "u.csv", tmp_path / "x.csv"
        dataio.write_inputs_csv(ipath, rng.uniform(0, 1, size=rows))
        dataio.write_states_csv(spath, rng.normal(size=(rows, 2)))
        cfg = _write_cfg(tmp_path, {"ingest": {"inputs": str(ipath),
                                               "states": [str(spath)]}})
        with pytest.raises(dataio.IngestError,
                           match=rf"x\.csv: {rows} state rows.* needs at least 23"):
            main(["tipc", "--config", cfg, "--out", str(tmp_path / "out")])

    def test_tipc_rejects_window_too_short_for_chi2_threshold(self, tmp_path):
        # 8 analysed rows put the rank-1 threshold at 30.27 / 8 = 3.78; the
        # profile used to be written with every capacity truncated
        cfg = _write_cfg(tmp_path, {"reservoir": {"masks": [1]},
                                    "tipc": {"analysis_len": 10}})
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=r"8 analysed rows .* rank 1: it is 3\.78.*"
                           r"at least 31 rows .*tipc\.analysis_len"):
            main(["tipc", "--config", cfg, "--out", str(out)])
        assert not list(out.glob("profile_*"))

    def test_tipc_short_window_for_one_mask_writes_nothing(self, tmp_path):
        # 38 analysed rows suffice for mask 1 (rank 1, 31 rows) but not for
        # mask 257 (rank 4, 48 rows); mask 1's files used to be written
        cfg = _write_cfg(tmp_path, {"reservoir": {"masks": [1, 257]},
                                    "tipc": {"analysis_len": 40}})
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=r"38 analysed rows .* rank 4.*at least 48 rows"):
            main(["tipc", "--config", cfg, "--out", str(out)])
        assert list(out.iterdir()) == []

    def test_ipc_narma2(self, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "input": {"kind": "uniform", "low": -1.0, "high": 1.0},
            "tipc": {"washout": 30, "analysis_len": 500, "max_degree": 2,
                     "max_input_delay": 4},
        })
        out = tmp_path / "out"
        assert main(["ipc", "--config", cfg, "--out", str(out)]) == 0
        prof = json.loads((out / "ipc_profile.json").read_text())
        assert prof["rank"] == 1
        top = max(prof["records"], key=lambda r: r["capacity"])
        assert top["label"] == "P1(u[t])"

    def test_ipc_synthetic_csv_target(self, tmp_path, rng):
        # y = 0.5 u_{t-1} + 0.2 u_{t-2}^2 through the csv path
        u = rng.uniform(-1, 1, size=600)
        y = 0.5 * np.roll(u, 1) + 0.2 * np.roll(u, 2) ** 2
        ipath, tpath = tmp_path / "u.csv", tmp_path / "y.csv"
        dataio.write_inputs_csv(ipath, u)
        dataio.write_inputs_csv(tpath, y)
        cfg = _write_cfg(tmp_path, {
            "task": "csv_target",
            "input": {"kind": "csv", "path": str(ipath), "low": -1.0, "high": 1.0},
            "target": {"path": str(tpath)},
            "tipc": {"washout": 30, "analysis_len": 500, "max_degree": 2,
                     "max_input_delay": 4},
        })
        out = tmp_path / "out"
        assert main(["ipc", "--config", cfg, "--out", str(out)]) == 0
        prof = json.loads((out / "ipc_profile.json").read_text())
        # csv inputs have no declared distribution: monomial family labels
        kept = {r["label"] for r in prof["records"] if not r["truncated"]}
        assert "u[t-1]" in kept

    def test_esp_outputs(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"esp": {"gamma": 0.2, "trials": 3, "steps": 40}})
        out = tmp_path / "out"
        assert main(["esp", "--config", cfg, "--out", str(out)]) == 0
        rate = json.loads((out / "esp_rate.json").read_text())
        assert rate["slope_per_step"] == pytest.approx(np.log(0.8), rel=0.15)
        decay = (out / "esp_decay.csv").read_text().splitlines()
        assert decay[0] == "t,delta"
        assert len(decay) == 42  # header + initial row + 40 steps

    def test_ingest_round_trip(self, tmp_path, rng):
        u = rng.uniform(0, 1, size=50)
        states = rng.normal(size=(50, 3))
        ipath, spath = tmp_path / "u.csv", tmp_path / "x.csv"
        dataio.write_inputs_csv(ipath, u)
        dataio.write_states_csv(spath, states)
        cfg = _write_cfg(tmp_path, {
            "ingest": {"inputs": str(ipath), "states": [str(spath)],
                       "metadata": {"device": "testbox", "cnot_error": 0.01}},
        })
        out = tmp_path / "out"
        assert main(["ingest", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metadata"]["device"] == "testbox"
        back = dataio.read_states_csv(out / "ingested_states_0000.csv")
        assert np.array_equal(back.data, states)

    @pytest.mark.parametrize("command", ["tipc", "ingest"])
    @pytest.mark.parametrize("given, missing", [("states", "inputs"), ("inputs", "states")],
                             ids=["states-alone", "inputs-alone"])
    def test_ingest_inputs_and_states_go_together(self, tmp_path, rng, command, given,
                                                  missing):
        # states alone died in read_trace with a bare TypeError, and tipc
        # ignored inputs alone and simulated instead
        ipath, spath = tmp_path / "u.csv", tmp_path / "x.csv"
        dataio.write_inputs_csv(ipath, rng.uniform(0, 1, size=50))
        dataio.write_states_csv(spath, rng.normal(size=(50, 2)))
        ingest = {"inputs": str(ipath), "states": [str(spath)]}
        del ingest[missing]
        cfg = _write_cfg(tmp_path, {"ingest": ingest,
                                    "reservoir": {"instances": 1, "masks": [1]},
                                    "tipc": {"washout": 30, "analysis_len": 200,
                                             "max_degree": 1, "max_state_delay": 0}})
        out = tmp_path / "out"
        with pytest.raises(cfgmod.ConfigError,
                           match=rf"^ingest\.{missing} is required with ingest\.{given}$"):
            main([command, "--config", cfg, "--out", str(out)])
        assert not out.exists()

    def test_ingest_requires_states(self, tmp_path):
        cfg = _write_cfg(tmp_path, {})
        with pytest.raises(cfgmod.ConfigError):
            main(["ingest", "--config", cfg, "--out", str(tmp_path / "o")])
