from typing import Sequence

import numpy as np
import pytest

from qnr.qsim import I2, PAULI_X, PAULI_Y, PAULI_Z, _n_qubits_of


def random_density(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix from a Ginibre draw."""
    dim = 2**n_qubits
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    return rho / np.trace(rho)


def random_pure(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))


def partial_trace(rho: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Reduced state on the kept qubits (ascending index order)."""
    n = _n_qubits_of(rho)
    keep = sorted(keep)
    tens = rho.reshape((2,) * (2 * n))
    cur = n
    for q in sorted(set(range(n)) - set(keep), reverse=True):
        tens = np.trace(tens, axis1=q, axis2=cur + q)
        cur -= 1
    dim = 2 ** len(keep)
    return tens.reshape(dim, dim)


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Extended Bloch vector (1, rx, ry, rz) of a single-qubit state."""
    if rho.shape != (2, 2):
        raise ValueError("bloch_vector expects a single-qubit state")
    return np.array(
        [
            1.0,
            float(np.real(np.trace(rho @ PAULI_X))),
            float(np.real(np.trace(rho @ PAULI_Y))),
            float(np.real(np.trace(rho @ PAULI_Z))),
        ]
    )


def density_from_bloch(r: np.ndarray) -> np.ndarray:
    """Single-qubit state from an extended Bloch vector (1, rx, ry, rz)."""
    _, rx, ry, rz = r
    return 0.5 * (I2 + rx * PAULI_X + ry * PAULI_Y + rz * PAULI_Z)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
