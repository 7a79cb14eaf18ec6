"""Experiment configuration: a strict, nested YAML schema.

Configs load in three layers: the preset (``desk`` by default, ``paper``
for the full-length protocol), then the config file, then CLI flag
overrides.  Unknown keys anywhere are errors, so a typo in a noise rate
fails fast instead of silently corrupting a sweep.  ``parse`` and
``serialize`` round-trip losslessly; the sha256 hash of the canonical
serialization identifies a config in every manifest the tools write.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import yaml

from .noise import NoiseSpec, is_finite, is_real, specs_from_mask
from .reservoir import EsnConfig, QnrConfig, benchmark_masks
from .rng import stream
from .tipc import TipcSettings


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key path."""


@contextlib.contextmanager
def _key(path: str):
    """Re-raise a library ValueError, which names its field, as a ConfigError
    under the key path in front of it."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{path}{exc}") from None


# annotation of a field -> (whether a value has that type, its name in errors)
_TYPES = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (lambda v: type(v) in (int, float), "a number"),
    "str": (lambda v: type(v) is str, "a string"),
    "Optional[str]": (lambda v: v is None or type(v) is str, "a string or null"),
    "List[str]": (lambda v: type(v) is list and all(type(x) is str for x in v),
                  "a list of strings"),
    "Dict": (lambda v: type(v) is dict, "a mapping"),
}


def _check_types(section, path: str):
    """Raise ConfigError unless each field of a section annotated in
    ``_TYPES`` holds a value of that type, naming the key as
    ``<path><key>``.  A bool is not an int, and neither is a string.
    Sections whose keys a library constructor checks call it after that
    check, so that its message wins."""
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        if f.type in _TYPES and not _TYPES[f.type][0](value):
            raise ConfigError(f"{path}{f.name} must be {_TYPES[f.type][1]}, got {value!r}")


@dataclass
class InputSpec:
    kind: str = "uniform"          # uniform | csv
    low: float = 0.0
    high: float = 1.0
    path: Optional[str] = None

    def validate(self):
        _check_types(self, "input.")
        if self.kind not in ("uniform", "csv"):
            raise ConfigError(f"input.kind must be uniform or csv, got {self.kind!r}")
        # the range of uniform draws, and the Legendre range of csv inputs
        for key in ("low", "high"):
            if not is_finite(getattr(self, key)):
                raise ConfigError(f"input.{key} must be finite, got {getattr(self, key)!r}")
        if not is_finite(self.high - self.low):
            raise ConfigError("input.high - input.low must be finite")
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
        _check_types(self, "split.")
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
        if not (type(self.instances) is int and self.instances >= 1):
            raise ConfigError(f"reservoir.instances must be an integer >= 1, "
                              f"got {self.instances!r}")
        if not (is_real(self.noise_rate) and 0.0 <= self.noise_rate <= 1.0):
            raise ConfigError(f"reservoir.noise_rate must be a number in [0, 1], "
                              f"got {self.noise_rate!r}")
        if not (self.noise is None or type(self.noise) is list):
            raise ConfigError(f"reservoir.noise must be null or a list of channels, "
                              f"got {self.noise!r}")
        if not (self.masks in (None, "all") or isinstance(self.masks, (list, tuple))):
            raise ConfigError(f"reservoir.masks must be null, \"all\" or a list of masks, "
                              f"got {self.masks!r}")
        for i, entry in enumerate(self.noise or []):
            if not (isinstance(entry, dict) and "kind" in entry
                    and set(entry) <= {"kind", "rate", "targets"}):
                raise ConfigError(f"reservoir.noise[{i}] must be a mapping of kind and "
                                  f"optional rate and targets, got {entry!r}")
        # the rest is checked by building what the run builds, for esn too:
        # `qnr esp` builds a qubit register from n_qubits
        specs = self.explicit_specs()
        with _key("reservoir."):
            QnrConfig(self.n_qubits, self.input_scaling, noise=specs)
            masks = self.mask_list()
        for i, mask in enumerate(masks):
            with _key(f"reservoir.masks[{i}]: "):
                QnrConfig(self.n_qubits, noise=specs_from_mask(mask, self.noise_rate))
            # two instances of one mask would write the same files
            if masks.index(mask) < i:
                raise ConfigError(f"reservoir.masks[{i}]: duplicate mask {mask} "
                                  f"(masks[{masks.index(mask)}])")

    def mask_list(self) -> List[int]:
        if self.noise is not None:
            return []
        if self.masks is None:
            return benchmark_masks(self.instances)
        if self.masks == "all":
            return list(range(1024))
        return list(self.masks)

    def explicit_specs(self) -> List[NoiseSpec]:
        specs = []
        for i, e in enumerate(self.noise or []):
            with _key(f"reservoir.noise[{i}]."):
                specs.append(NoiseSpec(e["kind"], e.get("rate", self.noise_rate),
                                       e.get("targets", "all")))
        return specs


@dataclass
class EsnSpec:
    n_nodes: int = 50
    spectral_radius: float = 0.6
    input_scaling: float = 0.1
    internal_prob: float = 0.5
    input_prob: float = 0.1
    configurations: int = 10

    def validate(self):
        with _key("esn."):
            self.instance(seed=0)
        _check_types(self, "esn.")
        if self.configurations < 1:
            raise ConfigError("esn.configurations must be >= 1")

    def instance(self, seed: int) -> EsnConfig:
        """The library config of one weight draw."""
        return EsnConfig(self.n_nodes, self.spectral_radius, self.input_scaling,
                         self.internal_prob, self.input_prob, seed)


@dataclass
class TipcSpec(TipcSettings):
    washout: int = 200
    analysis_len: int = 2000

    def validate(self):
        with _key(""):
            super().validate()
        _check_types(self, "tipc.")
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
        _check_types(self, "esp.")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("esp.gamma must be in (0, 1)")
        if self.trials < 2:
            raise ConfigError("esp.trials must be >= 2")
        if self.steps < 1:
            raise ConfigError("esp.steps must be >= 1")


@dataclass
class TargetSpec:
    path: Optional[str] = None

    def validate(self):
        _check_types(self, "target.")


@dataclass
class IngestSpec:
    inputs: Optional[str] = None
    states: List[str] = field(default_factory=list)
    metadata: Dict = field(default_factory=dict)

    def validate(self):
        _check_types(self, "ingest.")
        # a trace is its inputs and its states: either one alone is half of it
        for key, other in (("inputs", "states"), ("states", "inputs")):
            if getattr(self, other) and not getattr(self, key):
                raise ConfigError(f"ingest.{key} is required with ingest.{other}")


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
        _check_types(self, "")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        for section in (self.input, self.split, self.reservoir, self.esn,
                        self.tipc, self.esp, self.target, self.ingest):
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
        return self.esn.instance(int(stream(self.seed, "esn", k).integers(0, 2**63)))


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
    # a section is a field whose default is built by a dataclass
    factory = {f.name: f.default_factory for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - set(factory)
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
    cfg = ExperimentConfig(**{
        key: _build(factory[key], value, key) if dataclasses.is_dataclass(factory[key]) else value
        for key, value in data.items()})
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
    if seed is not None:
        merged["seed"] = int(seed)
    if out is not None:
        merged["out"] = out
    if threads is not None:
        merged["threads"] = int(threads)
    return from_dict(merged)
