"""Experiment configuration: a strict, nested YAML schema.

Configs load in three layers: the preset (``desk`` by default, ``paper``
for the full-length protocol), then the config file, then CLI flag
overrides.  Unknown keys anywhere are errors, so a typo in a noise rate
fails fast instead of silently corrupting a sweep.  ``parse`` and
``serialize`` round-trip losslessly; the sha256 hash of the canonical
serialization identifies a config in every manifest the tools write.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import yaml

from .noise import ENTANGLER_TWO_HOP, NOISE_KINDS, NoiseSpec, specs_from_mask
from .qsim import MAX_QUBITS
from .reservoir import DAMPING_MASKS, EsnConfig, QnrConfig, benchmark_masks
from .rng import stream
from .tipc import TipcSettings


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key path."""


@dataclass
class InputSpec:
    kind: str = "uniform"          # uniform | csv
    low: float = 0.0
    high: float = 1.0
    path: Optional[str] = None

    def validate(self):
        if self.kind not in ("uniform", "csv"):
            raise ConfigError(f"input.kind must be uniform or csv, got {self.kind!r}")
        if self.kind == "uniform" and not self.low < self.high:
            raise ConfigError("input.low must be below input.high")
        if self.kind == "csv" and not self.path:
            raise ConfigError("input.path required for csv inputs")


@dataclass
class SplitSpec:
    washout: int = 1000
    train: int = 2000
    eval: int = 2000

    def validate(self):
        if min(self.washout, self.train, self.eval) < 0:
            raise ConfigError("split lengths must be non-negative")
        if self.total < 1:
            raise ConfigError("split.washout + split.train + split.eval must be >= 1")

    @property
    def total(self) -> int:
        return self.washout + self.train + self.eval

    @property
    def train_range(self) -> slice:
        return slice(self.washout, self.washout + self.train)

    @property
    def eval_range(self) -> slice:
        return slice(self.washout + self.train, self.total)


@dataclass
class ReservoirSpec:
    kind: str = "qnr"              # qnr | esn
    n_qubits: int = 4
    input_scaling: float = math.pi
    instances: int = 25
    noise_rate: float = 0.1
    masks: Optional[object] = None  # None -> damping masks; "all"; or explicit list
    noise: Optional[List[Dict]] = None  # explicit channel list overrides masks

    def validate(self):
        if self.kind not in ("qnr", "esn"):
            raise ConfigError(f"reservoir.kind must be qnr or esn, got {self.kind!r}")
        # checked for esn too: `qnr esp` builds a qubit register from it
        n = self.n_qubits
        if not (type(n) is int and n % 2 == 0 and 2 <= n <= MAX_QUBITS):
            raise ConfigError(f"reservoir.n_qubits must be an even integer in "
                              f"[2, {MAX_QUBITS}], got {n!r}")
        if self.instances < 1:
            raise ConfigError("reservoir.instances must be >= 1")
        if self.masks is None and self.noise is None and self.instances > len(DAMPING_MASKS):
            raise ConfigError(f"reservoir.instances must be at most {len(DAMPING_MASKS)}, the "
                              f"number of damping masks, got {self.instances}")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ConfigError("reservoir.noise_rate must be in [0, 1]")
        n_masks = 2 ** len(NOISE_KINDS)
        if self.masks not in (None, "all") and not (
                isinstance(self.masks, (list, tuple))
                and all(type(m) is int and 0 <= m < n_masks for m in self.masks)):
            raise ConfigError(f"reservoir.masks must be null, \"all\" or a list of "
                              f"integers in [0, {n_masks - 1}], got {self.masks!r}")
        # the 2-hop entangler couples qubits j and j + 2
        two_hop = 1 << NOISE_KINDS.index(ENTANGLER_TWO_HOP)
        if self.masks is not None and n < 3 and any(m & two_hop for m in self.mask_list()):
            raise ConfigError(f"reservoir.masks: {ENTANGLER_TWO_HOP} (mask bit {two_hop}) "
                              f"needs at least 3 qubits, n_qubits is {n}")
        for i, entry in enumerate(self.noise or []):
            keys = set(entry)
            if not keys <= {"kind", "rate", "targets"}:
                raise ConfigError(f"reservoir.noise entries allow kind/rate/targets, "
                                  f"got {sorted(keys)}")
            if entry.get("kind") not in NOISE_KINDS:
                raise ConfigError(f"reservoir.noise[{i}].kind: unknown noise kind "
                                  f"{entry.get('kind')!r}")
            kinds = [e["kind"] for e in self.noise[:i]]
            if entry["kind"] in kinds:
                raise ConfigError(f"reservoir.noise[{i}].kind: {entry['kind']!r} repeats "
                                  f"reservoir.noise[{kinds.index(entry['kind'])}]")
            if entry["kind"] == ENTANGLER_TWO_HOP and n < 3:
                raise ConfigError(f"reservoir.noise[{i}].kind: {ENTANGLER_TWO_HOP} "
                                  f"needs at least 3 qubits, n_qubits is {n}")
            rate = entry.get("rate", self.noise_rate)
            if not (type(rate) in (int, float) and 0.0 <= rate <= 1.0):
                raise ConfigError(f"reservoir.noise[{i}].rate must be in [0, 1], got {rate!r}")
            targets = entry.get("targets", [])
            if not (isinstance(targets, (list, tuple))
                    and all(type(q) is int and 0 <= q < n for q in targets)):
                raise ConfigError(f"reservoir.noise[{i}].targets must be a list of qubits "
                                  f"in [0, {n - 1}], got {targets!r}")

    def mask_list(self) -> List[int]:
        if self.noise is not None:
            return []
        if self.masks is None:
            return benchmark_masks(self.instances)
        if self.masks == "all":
            return list(range(1024))
        return list(self.masks)

    def explicit_specs(self) -> List[NoiseSpec]:
        return [
            NoiseSpec(e["kind"], float(e.get("rate", self.noise_rate)),
                      tuple(e["targets"]) if "targets" in e else "all")
            for e in (self.noise or [])
        ]


@dataclass
class EsnSpec:
    n_nodes: int = 50
    spectral_radius: float = 0.6
    input_scaling: float = 0.1
    internal_prob: float = 0.5
    input_prob: float = 0.1
    configurations: int = 10

    def validate(self):
        if self.n_nodes < 1:
            raise ConfigError("esn.n_nodes must be >= 1")
        if self.configurations < 1:
            raise ConfigError("esn.configurations must be >= 1")


@dataclass
class TipcSpec(TipcSettings):
    washout: int = 200
    analysis_len: int = 2000

    def validate(self):
        try:
            super().validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.analysis_len <= self.max_state_delay:
            raise ConfigError("tipc.analysis_len must exceed tipc.max_state_delay")
        if self.washout < self.max_input_delay:
            raise ConfigError("tipc.washout must cover max_input_delay of history")


@dataclass
class EspSpec:
    gamma: float = 0.05
    trials: int = 20
    steps: int = 175

    def validate(self):
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("esp.gamma must be in (0, 1)")
        if self.trials < 2:
            raise ConfigError("esp.trials must be >= 2")
        if self.steps < 1:
            raise ConfigError("esp.steps must be >= 1")


@dataclass
class TargetSpec:
    path: Optional[str] = None


@dataclass
class IngestSpec:
    inputs: Optional[str] = None
    states: List[str] = field(default_factory=list)
    metadata: Dict = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    task: str = "narma2"           # narma2 | csv_target
    seed: int = 12345
    out: str = "out"
    threads: int = 1
    input: InputSpec = field(default_factory=InputSpec)
    split: SplitSpec = field(default_factory=SplitSpec)
    reservoir: ReservoirSpec = field(default_factory=ReservoirSpec)
    esn: EsnSpec = field(default_factory=EsnSpec)
    tipc: TipcSpec = field(default_factory=TipcSpec)
    esp: EspSpec = field(default_factory=EspSpec)
    target: TargetSpec = field(default_factory=TargetSpec)
    ingest: IngestSpec = field(default_factory=IngestSpec)

    def validate(self):
        if self.task not in ("narma2", "csv_target"):
            raise ConfigError(f"task must be narma2 or csv_target, got {self.task!r}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        for section in (self.input, self.split, self.reservoir, self.esn,
                        self.tipc, self.esp):
            section.validate()

    # -- instance construction ------------------------------------------------

    def qnr_instances(self) -> List[tuple]:
        """(index, mask-or-None, QnrConfig) per reservoir instance; per-instance
        seeds derive from the master seed through the instance stream."""
        res = self.reservoir
        out = []
        if res.noise is not None:
            specs = res.explicit_specs()
            for i in range(res.instances):
                out.append((i, None, self._qnr_config(specs, i)))
            return out
        for i, mask in enumerate(res.mask_list()):
            out.append((i, mask, self._qnr_config(specs_from_mask(mask, res.noise_rate), i)))
        return out

    def _qnr_config(self, specs: List[NoiseSpec], index: int) -> QnrConfig:
        inst_seed = int(stream(self.seed, "instance", index).integers(0, 2**63))
        return QnrConfig(
            n_qubits=self.reservoir.n_qubits,
            input_scaling=self.reservoir.input_scaling,
            noise=specs,
            seed=inst_seed,
        )

    def esn_instance(self, k: int) -> EsnConfig:
        esn_seed = int(stream(self.seed, "esn", k).integers(0, 2**63))
        return EsnConfig(
            n_nodes=self.esn.n_nodes,
            spectral_radius=self.esn.spectral_radius,
            input_scaling=self.esn.input_scaling,
            internal_prob=self.esn.internal_prob,
            input_prob=self.esn.input_prob,
            seed=esn_seed,
        )


_SECTIONS = {
    "input": InputSpec,
    "split": SplitSpec,
    "reservoir": ReservoirSpec,
    "esn": EsnSpec,
    "tipc": TipcSpec,
    "esp": EspSpec,
    "target": TargetSpec,
    "ingest": IngestSpec,
}


def _build(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    return cls(**data)


def from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    top_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - top_fields
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if key in _SECTIONS:
            kwargs[key] = _build(_SECTIONS[key], value, key)
        else:
            kwargs[key] = value
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


def to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def parse(text: str) -> ExperimentConfig:
    return from_dict(yaml.safe_load(text) or {})


def serialize(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(to_dict(cfg), sort_keys=True)


def load_file(path) -> dict:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    return data or {}


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def _deep_merge(base: dict, overlay: dict) -> dict:
    out = dict(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def preset(name: str) -> dict:
    """Preset base dicts.  ``desk`` is the 1/10-scale protocol; ``paper``
    uses the full 9,998/20,000/20,000 split and the 2e4-step analysis
    window.  Both set the benchmark instance noise rate to 0.2, which
    reproduces the reported 25-instance NARMA2 error."""
    if name == "desk":
        return {
            "split": {"washout": 1000, "train": 2000, "eval": 2000},
            "reservoir": {"noise_rate": 0.2},
            "tipc": {"analysis_len": 2000, "washout": 200},
        }
    if name == "paper":
        return {
            "split": {"washout": 9998, "train": 20000, "eval": 20000},
            "reservoir": {"noise_rate": 0.2},
            "tipc": {"analysis_len": 20000, "washout": 200},
        }
    raise ConfigError(f"unknown preset {name!r}")


def assemble(file_dict: Optional[dict] = None, preset_name: str = "desk",
             seed: Optional[int] = None, out: Optional[str] = None,
             threads: Optional[int] = None) -> ExperimentConfig:
    """Layer preset, config file, and flag overrides into a validated config."""
    merged = preset(preset_name)
    if file_dict:
        merged = _deep_merge(merged, file_dict)
    cfg = from_dict(merged)
    if seed is not None:
        cfg.seed = int(seed)
    if out is not None:
        cfg.out = out
    if threads is not None:
        cfg.threads = int(threads)
    cfg.validate()
    return cfg
