"""Dense density-matrix simulation for small qubit registers.

States are plain ``(2**n, 2**n)`` complex ndarrays with qubit 0 as the
leftmost (most significant) tensor factor.  All operations are pure
functions returning new arrays, so independent trajectories can be
evolved in parallel without shared state.  Dense complex128 storage caps
the register at 12 qubits (~256 MB per state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

MAX_QUBITS = 12

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def rx_matrix(theta) -> np.ndarray:
    """Rotation about X by ``theta``; an array of angles gives a stack of
    matrices, shape ``theta.shape + (2, 2)``."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.multiply.outer(c, I2) - 1j * np.multiply.outer(s, PAULI_X)


def rz_matrix(theta) -> np.ndarray:
    """Rotation about Z by ``theta``; broadcasts over angles like ``rx_matrix``."""
    return np.exp(np.multiply.outer(theta, [-0.5j, 0.5j]))[..., :, None] * I2


def crx_block(theta) -> np.ndarray:
    """Controlled-RX on (control, target): identity block plus literal RX block.
    Broadcasts over angles like ``rx_matrix``."""
    out = np.array(np.broadcast_to(np.eye(4, dtype=complex), np.shape(theta) + (4, 4)))
    out[..., 2:, 2:] = rx_matrix(theta)
    return out


CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


@dataclass(frozen=True)
class GateSpec:
    """One gate: kind RX | RZ | H | CNOT | CRX, with target/control/angle."""

    kind: str
    target: int
    control: Optional[int] = None
    angle: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("RX", "RZ", "H", "CNOT", "CRX"):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind in ("RX", "RZ", "CRX") and self.angle is None:
            raise ValueError(f"{self.kind} requires an angle")
        if self.kind in ("CNOT", "CRX"):
            if self.control is None:
                raise ValueError(f"{self.kind} requires a control qubit")
            if self.control == self.target:
                raise ValueError("control and target must differ")

    def local_matrix(self) -> np.ndarray:
        """Gate matrix on its own qubit(s): 2x2, or 4x4 on (control, target)."""
        if self.kind == "RX":
            return rx_matrix(self.angle)
        if self.kind == "RZ":
            return rz_matrix(self.angle)
        if self.kind == "H":
            return HADAMARD
        if self.kind == "CNOT":
            return CNOT_MATRIX
        return crx_block(self.angle)

    def qubits(self) -> tuple:
        if self.control is None:
            return (self.target,)
        return (self.control, self.target)


def _check_indices(gate: GateSpec, n_qubits: int):
    for q in gate.qubits():
        if not 0 <= q < n_qubits:
            raise IndexError(f"gate qubit {q} out of range for {n_qubits} qubits")


def prepare_plus_state(n_qubits: int) -> np.ndarray:
    """Product of |+> on every qubit; every matrix entry equals 2**-n."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    dim = 2**n_qubits
    return np.full((dim, dim), 1.0 / dim, dtype=complex)


def contract_axes(op: np.ndarray, tens: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Apply ``op`` to the given axes of ``tens``, leaving the others alone.

    ``op`` holds its k output axes first and its k input axes last, each
    input axis matching the size of the ``tens`` axis it contracts with; the
    output axes take the places of the contracted ones.
    """
    k = len(axes)
    out = np.tensordot(op, tens, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, list(range(k)), list(axes))


def _apply_operator(rho: np.ndarray, op: np.ndarray, qubits: Sequence[int],
                    n: int) -> np.ndarray:
    """rho -> op rho op^dag with op acting on the given qubits (identity elsewhere).

    Contracts the small operator against the ket axes and its conjugate
    against the bra axes; O(4**n * 2**k) instead of full 8**n matmuls.
    """
    small = op.reshape((2,) * (2 * len(qubits)))
    out = contract_axes(small, rho.reshape((2,) * (2 * n)), qubits)
    out = contract_axes(small.conj(), out, [n + q for q in qubits])
    return out.reshape(rho.shape)


def apply_unitary(rho: np.ndarray, gates: Sequence[GateSpec]) -> np.ndarray:
    """Conjugate rho by the ordered gate product (first gate acts first)."""
    n = _n_qubits_of(rho)
    out = rho
    for g in gates:
        _check_indices(g, n)
        out = _apply_operator(out, g.local_matrix(), g.qubits(), n)
    return out


def compile_unitary(gates: Sequence[GateSpec], n_qubits: int) -> np.ndarray:
    """Full 2**n x 2**n matrix of the ordered gate product (small n only)."""
    dim = 2**n_qubits
    U = np.eye(dim, dtype=complex)
    for g in gates:
        _check_indices(g, n_qubits)
        small = g.local_matrix().reshape((2,) * (2 * len(g.qubits())))
        U = contract_axes(small, U.reshape((2,) * (2 * n_qubits)), g.qubits())
        U = U.reshape(dim, dim)
    return U


def apply_kraus(rho: np.ndarray, kraus: Sequence[np.ndarray],
                targets: Sequence[int]) -> np.ndarray:
    """Operator-sum update: rho -> sum_i K_i rho K_i^dag on the target qubits.

    The Kraus set must be complete on its subspace; violations are rejected
    with the deviation norm in the message.
    """
    n = _n_qubits_of(rho)
    targets = list(targets)
    dim = 2 ** len(targets)
    acc = np.zeros((dim, dim), dtype=complex)
    for K in kraus:
        if K.shape != (dim, dim):
            raise ValueError(f"Kraus operator shape {K.shape} does not match targets")
        acc += K.conj().T @ K
    defect = np.abs(acc - np.eye(dim)).max()
    if defect > 1e-10:
        raise ValueError(f"Kraus set incomplete: max |sum K^dag K - I| = {defect:.3e}")
    for q in targets:
        if not 0 <= q < n:
            raise IndexError(f"target qubit {q} out of range")
    out = np.zeros_like(rho)
    for K in kraus:
        out += _apply_operator(rho, K, targets, n)
    return out


def expect_pauli_z(rho: np.ndarray, qubit: int) -> float:
    """Tr(rho Z_qubit), computed from the diagonal."""
    n = _n_qubits_of(rho)
    if not 0 <= qubit < n:
        raise IndexError(f"qubit {qubit} out of range for {n} qubits")
    return float(z_sign_matrix(n)[qubit] @ np.real(np.diagonal(rho)))


def z_sign_matrix(n_qubits: int) -> np.ndarray:
    """(n, 2**n) matrix of Z_i eigenvalues: row i dotted with the diagonal of
    an n-qubit state gives Tr(rho Z_i)."""
    idx = np.arange(2**n_qubits)
    bits = (idx >> (n_qubits - 1 - np.arange(n_qubits))[:, None]) & 1
    return 1.0 - 2.0 * bits


def expect_all_z(rho: np.ndarray) -> np.ndarray:
    """Vector of Tr(rho Z_i) for every qubit."""
    return z_sign_matrix(_n_qubits_of(rho)) @ np.real(np.diagonal(rho))


def build_input_unitary(n_qubits: int, scaling: float, u: float) -> list:
    """Input-encoding circuit: per even pair (i, i+1), in application order,
    RX_i(s u), RX_{i+1}(s u), CNOT_{i,i+1}, RZ_{i+1}(s u), CNOT_{i,i+1}."""
    if n_qubits % 2 != 0:
        raise ValueError("n_qubits must be even for the pairwise input circuit")
    theta = scaling * u
    gates = []
    for i in range(0, n_qubits, 2):
        j = i + 1
        gates.append(GateSpec("RX", target=i, angle=theta))
        gates.append(GateSpec("RX", target=j, angle=theta))
        gates.append(GateSpec("CNOT", target=j, control=i))
        gates.append(GateSpec("RZ", target=j, angle=theta))
        gates.append(GateSpec("CNOT", target=j, control=i))
    return gates


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """(1/2) sum |eigenvalues(rho1 - rho2)|; the standard 1/2 normalization."""
    if rho1.shape != rho2.shape:
        raise ValueError(f"dimension mismatch: {rho1.shape} vs {rho2.shape}")
    eig = np.linalg.eigvalsh(rho1 - rho2)
    return float(0.5 * np.abs(eig).sum())


def _n_qubits_of(rho: np.ndarray) -> int:
    dim = rho.shape[0]
    n = int(round(np.log2(dim)))
    if rho.shape != (dim, dim) or 2**n != dim:
        raise ValueError(f"not a density matrix shape: {rho.shape}")
    return n


def haar_product_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure product state as a density matrix."""
    psi = np.array([1.0], dtype=complex)
    for _ in range(n_qubits):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        psi = np.kron(psi, v)
    return np.outer(psi, psi.conj())


def check_density_matrix(rho: np.ndarray, psd: bool = True):
    """Raise if rho is not Hermitian unit-trace (and PSD when requested).

    Meant for tests and debug paths; the simulation loops do not call it.
    """
    herm = np.abs(rho - rho.conj().T).max()
    if herm > 1e-10:
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = abs(np.trace(rho) - 1.0)
    if tr > 1e-10:
        raise ValueError(f"trace deviates from 1 by {tr:.3e}")
    if psd:
        lam = np.linalg.eigvalsh(rho).min()
        if lam < -1e-9:
            raise ValueError(f"negative eigenvalue {lam:.3e}")
