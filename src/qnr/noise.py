"""Noise channel library: Kraus sets for decoherence, unitary perturbations
for coherent errors, and a compiler that turns declarative specs into a
deterministic per-step plan.

Decoherence kinds (amplitude/phase damping, depolarizing, bit/phase flip)
compile to single-qubit Kraus sets applied to every target qubit after each
input cycle.  Coherent kinds perturb the circuit itself: over-rotations scale
RX or RZ angles, CNOT bias replaces CNOTs by controlled-RX(pi(1+eps)), and
the entangler kinds append small conditional rotations between nearby qubits.
Per-qubit perturbation strengths eps = s * rate with s ~ Uniform(0, 1) are
sampled once at compile time and frozen for the lifetime of the reservoir.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .qsim import I2, PAULI_X, PAULI_Y, PAULI_Z, GateSpec

AMPLITUDE_DAMPING = "amplitude_damping"
PHASE_DAMPING = "phase_damping"
DEPOLARIZING = "depolarizing"
BIT_FLIP = "bit_flip"
PHASE_FLIP = "phase_flip"
OVER_ROTATION_RX = "over_rotation_rx"
OVER_ROTATION_RZ = "over_rotation_rz"
CNOT_BIAS = "cnot_bias"
ENTANGLER_ONE_HOP = "entangler_one_hop"
ENTANGLER_TWO_HOP = "entangler_two_hop"

# Canonical order; bit k of an instance mask activates NOISE_KINDS[k].
NOISE_KINDS = (
    AMPLITUDE_DAMPING,
    PHASE_DAMPING,
    DEPOLARIZING,
    BIT_FLIP,
    PHASE_FLIP,
    OVER_ROTATION_RX,
    OVER_ROTATION_RZ,
    CNOT_BIAS,
    ENTANGLER_ONE_HOP,
    ENTANGLER_TWO_HOP,
)
DECOHERENCE_KINDS = NOISE_KINDS[:5]


def is_int(x) -> bool:
    """True for an integer, numpy's included, that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_real(x) -> bool:
    """True for a real number, numpy's included, that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def is_finite(x) -> bool:
    """True for a real number that is not a bool and that a float holds
    without overflow: NaN, the infinities and an integer beyond float range
    are not finite."""
    return is_real(x) and abs(x) <= sys.float_info.max


@dataclass(frozen=True)
class NoiseSpec:
    """One noise channel: kind, rate (p, gamma or eps_max), target qubits."""

    kind: str
    rate: float
    targets: Union[str, Tuple[int, ...]] = "all"

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"kind: unknown noise kind {self.kind!r}")
        if not (is_real(self.rate) and 0.0 <= self.rate <= 1.0):
            raise ValueError(f"rate must be a number in [0, 1], got {self.rate!r}")
        if self.targets != "all":
            if not (isinstance(self.targets, (list, tuple)) and all(map(is_int, self.targets))):
                raise ValueError(f"targets must be \"all\" or a list of integer qubits, "
                                 f"got {self.targets!r}")
            object.__setattr__(self, "targets", tuple(self.targets))


def check_specs(specs: Sequence[NoiseSpec], n_qubits: int):
    """Check a noise list against an n-qubit register: no kind repeats, every
    target lies in the register, and a 2-hop entangler has qubits j, j + 2."""
    first = {}
    for i, spec in enumerate(specs):
        if spec.kind in first:
            raise ValueError(f"noise[{i}].kind: duplicate noise kind {spec.kind!r} "
                             f"(noise[{first[spec.kind]}])")
        first[spec.kind] = i
        if spec.kind == ENTANGLER_TWO_HOP and n_qubits < 3:
            raise ValueError(f"noise[{i}].kind: {ENTANGLER_TWO_HOP} needs at least 3 qubits, "
                             f"n_qubits is {n_qubits}")
        if spec.targets != "all" and not all(0 <= q < n_qubits for q in spec.targets):
            raise ValueError(f"noise[{i}].targets must be qubits in [0, {n_qubits - 1}], "
                             f"got {list(spec.targets)}")


def _rate_check(p: float):
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {p}")


def kraus_depolarizing(p: float) -> List[np.ndarray]:
    """K0 = sqrt(1-p) I, K_{1..3} = sqrt(p/3) {X, Y, Z}."""
    _rate_check(p)
    return [
        np.sqrt(1.0 - p) * I2,
        np.sqrt(p / 3.0) * PAULI_X,
        np.sqrt(p / 3.0) * PAULI_Y,
        np.sqrt(p / 3.0) * PAULI_Z,
    ]


def kraus_bit_flip(p: float) -> List[np.ndarray]:
    """K0 = sqrt(1-p) I, K1 = sqrt(p) X."""
    _rate_check(p)
    return [np.sqrt(1.0 - p) * I2, np.sqrt(p) * PAULI_X]


def kraus_phase_flip(p: float) -> List[np.ndarray]:
    """K0 = sqrt(1-p) I, K1 = sqrt(p) Z."""
    _rate_check(p)
    return [np.sqrt(1.0 - p) * I2, np.sqrt(p) * PAULI_Z]


def kraus_amplitude_damping(gamma: float) -> List[np.ndarray]:
    """K0 = diag(1, sqrt(1-gamma)), K1 = sqrt(gamma)|0><1|; relaxation to |0>."""
    _rate_check(gamma)
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return [k0, k1]


def kraus_phase_damping(gamma: float) -> List[np.ndarray]:
    """K0 = diag(1, sqrt(1-gamma)), K1 = diag(0, sqrt(gamma)); pure dephasing."""
    _rate_check(gamma)
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [0.0, np.sqrt(gamma)]], dtype=complex)
    return [k0, k1]


KRAUS_FACTORIES = {
    AMPLITUDE_DAMPING: kraus_amplitude_damping,
    PHASE_DAMPING: kraus_phase_damping,
    DEPOLARIZING: kraus_depolarizing,
    BIT_FLIP: kraus_bit_flip,
    PHASE_FLIP: kraus_phase_flip,
}


def sample_epsilons(eps_max: float, n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Frozen per-qubit perturbation strengths eps_i = s_i * eps_max, s ~ U(0,1)."""
    _rate_check(eps_max)
    return eps_max * rng.uniform(0.0, 1.0, size=n_qubits)


def perturb_over_rotation(gates: Sequence[GateSpec], epsilons: np.ndarray,
                          gate_kind: str = "RX") -> List[GateSpec]:
    """Scale the angle of every matching rotation gate by (1 + eps_target)."""
    if gate_kind not in ("RX", "RZ"):
        raise ValueError("over-rotation applies to RX or RZ gates")
    out = []
    for g in gates:
        if g.kind == gate_kind:
            out.append(GateSpec(g.kind, g.target, angle=g.angle * (1.0 + epsilons[g.target])))
        else:
            out.append(g)
    return out


def perturb_cnot_bias(gates: Sequence[GateSpec], epsilons: np.ndarray) -> List[GateSpec]:
    """Replace each CNOT by CRX(pi (1 + eps_target)) with the same control/target."""
    out = []
    for g in gates:
        if g.kind == "CNOT":
            out.append(GateSpec("CRX", g.target, control=g.control,
                                angle=np.pi * (1.0 + epsilons[g.target])))
        else:
            out.append(g)
    return out


def entangler_gates(epsilons: np.ndarray, hop: int, n_qubits: int) -> List[GateSpec]:
    """Unintended CRX(pi eps_j) between qubits (j, j+hop) on a linear chain."""
    if hop not in (1, 2):
        raise ValueError("hop must be 1 or 2")
    if n_qubits < hop + 1:
        raise ValueError(f"need at least {hop + 1} qubits for a {hop}-hop entangler")
    return [
        GateSpec("CRX", target=j + hop, control=j, angle=np.pi * epsilons[j])
        for j in range(n_qubits - hop)
    ]


@dataclass
class CompiledNoise:
    """Deterministic per-step noise plan for one reservoir instance.

    ``perturb_circuit`` rewrites the ideal gate list (coherent noise), and
    ``decoherence`` lists the (kind, kraus set, targets) channels applied
    after the circuit, in spec order; ``sampled_epsilons`` holds the frozen
    per-qubit strengths.
    """

    sampled_epsilons: dict = field(default_factory=dict)
    decoherence: list = field(default_factory=list)
    entanglers: List[GateSpec] = field(default_factory=list)

    def perturb_circuit(self, gates: Sequence[GateSpec]) -> List[GateSpec]:
        out = list(gates)
        if OVER_ROTATION_RX in self.sampled_epsilons:
            out = perturb_over_rotation(out, self.sampled_epsilons[OVER_ROTATION_RX], "RX")
        if OVER_ROTATION_RZ in self.sampled_epsilons:
            out = perturb_over_rotation(out, self.sampled_epsilons[OVER_ROTATION_RZ], "RZ")
        if CNOT_BIAS in self.sampled_epsilons:
            out = perturb_cnot_bias(out, self.sampled_epsilons[CNOT_BIAS])
        out.extend(self.entanglers)
        return out

    @property
    def has_cross_pair_gates(self) -> bool:
        """True when some appended gate couples different 2-qubit blocks."""
        return any(g.control // 2 != g.target // 2 for g in self.entanglers)


def compile_noise(specs: Sequence[NoiseSpec], n_qubits: int, seed: int) -> CompiledNoise:
    """Compile specs into a CompiledNoise; pure function of (specs, n, seed)."""
    check_specs(specs, n_qubits)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    compiled = CompiledNoise()
    for spec in specs:
        if spec.kind in DECOHERENCE_KINDS:
            kraus = KRAUS_FACTORIES[spec.kind](spec.rate)
            targets = tuple(range(n_qubits)) if spec.targets == "all" else spec.targets
            compiled.decoherence.append((spec.kind, kraus, targets))
        else:
            # one uniform draw per qubit per coherent spec, in listed order
            compiled.sampled_epsilons[spec.kind] = sample_epsilons(spec.rate, n_qubits, rng)
    if ENTANGLER_ONE_HOP in compiled.sampled_epsilons:
        compiled.entanglers.extend(
            entangler_gates(compiled.sampled_epsilons[ENTANGLER_ONE_HOP], 1, n_qubits))
    if ENTANGLER_TWO_HOP in compiled.sampled_epsilons:
        compiled.entanglers.extend(
            entangler_gates(compiled.sampled_epsilons[ENTANGLER_TWO_HOP], 2, n_qubits))
    return compiled


def specs_from_mask(mask: int, rate: float) -> List[NoiseSpec]:
    """Noise list for a 10-bit instance mask; bit k activates NOISE_KINDS[k]."""
    if not (is_int(mask) and 0 <= mask < 2 ** len(NOISE_KINDS)):
        raise ValueError(f"mask must be an integer in [0, {2 ** len(NOISE_KINDS) - 1}], "
                         f"got {mask!r}")
    return [NoiseSpec(NOISE_KINDS[b], rate) for b in range(len(NOISE_KINDS)) if mask >> b & 1]
