"""Unit tests for the density-matrix engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnr import qsim
from qnr.qsim import (GateSpec, apply_kraus, apply_unitary, build_input_unitary,
                      compile_unitary, expect_all_z, expect_pauli_z, prepare_plus_state,
                      trace_distance)

from conftest import (bloch_vector, density_from_bloch, partial_trace, purity,
                      random_density)


class TestPrepareState:
    def test_single_qubit_plus(self):
        rho = prepare_plus_state(1)
        assert np.allclose(rho, [[0.5, 0.5], [0.5, 0.5]])

    def test_two_qubit_entries(self):
        rho = prepare_plus_state(2)
        assert rho.shape == (4, 4)
        assert np.allclose(rho, 0.25)

    def test_three_qubit_pure(self):
        rho = prepare_plus_state(3)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert abs(purity(rho) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [0, 13])
    def test_dimension_bounds(self, n):
        with pytest.raises(ValueError):
            prepare_plus_state(n)


class TestUnitaries:
    def test_rx_pi_flips_ground_state(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = apply_unitary(rho, [GateSpec("RX", 0, angle=np.pi)])
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-12)

    def test_empty_gate_list_is_identity(self, rng):
        rho = random_density(2, rng)
        assert np.allclose(apply_unitary(rho, []), rho)

    def test_cnot_on_plus_zero_gives_bell(self):
        # |+0> -> (|00> + |11>)/sqrt(2); each marginal is maximally mixed
        rho = np.kron(prepare_plus_state(1), np.diag([1.0, 0.0]).astype(complex))
        out = apply_unitary(rho, [GateSpec("CNOT", target=1, control=0)])
        assert abs(purity(out) - 1.0) < 1e-12
        red = partial_trace(out, [0])
        assert abs(purity(red) - 0.5) < 1e-12
        assert abs(expect_pauli_z(out, 0)) < 1e-12
        assert abs(expect_pauli_z(out, 1)) < 1e-12

    def test_preserves_trace_and_spectrum(self, rng):
        rho = random_density(3, rng)
        gates = [
            GateSpec("RX", 0, angle=0.7),
            GateSpec("H", 2),
            GateSpec("CNOT", target=2, control=0),
            GateSpec("RZ", 1, angle=-1.2),
            GateSpec("CRX", target=1, control=2, angle=2.1),
        ]
        out = apply_unitary(rho, gates)
        assert abs(np.trace(out) - 1.0) < 1e-10
        assert np.allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), atol=1e-10)

    @given(st.floats(-2 * np.pi, 2 * np.pi))
    @settings(max_examples=25, deadline=None)
    def test_purity_preserved_for_any_angle(self, angle):
        rho = prepare_plus_state(2)
        out = apply_unitary(rho, [GateSpec("RX", 0, angle=angle),
                                  GateSpec("RZ", 1, angle=angle / 2),
                                  GateSpec("CNOT", target=1, control=0)])
        assert abs(purity(out) - 1.0) < 1e-10

    def test_gate_matrices_unitary(self):
        for gate in [GateSpec("RX", 0, angle=0.3), GateSpec("RZ", 0, angle=-2.2),
                     GateSpec("H", 0), GateSpec("CNOT", 1, control=0),
                     GateSpec("CRX", 1, control=0, angle=1.9)]:
            U = gate.local_matrix()
            assert np.abs(U.conj().T @ U - np.eye(U.shape[0])).max() <= 1e-12

    def test_contraction_matches_compiled_matrix(self, rng):
        rho = random_density(3, rng)
        gates = build_input_unitary(2, np.pi, 0.37) + [
            GateSpec("CRX", target=2, control=0, angle=0.5)]
        U = compile_unitary(gates, 3)
        assert np.allclose(apply_unitary(rho, gates), U @ rho @ U.conj().T, atol=1e-12)

    def test_invalid_index_rejected(self):
        rho = prepare_plus_state(1)
        with pytest.raises(IndexError):
            apply_unitary(rho, [GateSpec("RX", 1, angle=0.1)])

    def test_control_equals_target_rejected(self):
        with pytest.raises(ValueError):
            GateSpec("CNOT", target=0, control=0)


class TestKraus:
    def test_identity_channel(self, rng):
        rho = random_density(2, rng)
        out = apply_kraus(rho, [np.eye(2, dtype=complex)], [1])
        assert np.allclose(out, rho)

    def test_full_amplitude_damping_relaxes(self):
        rho = np.diag([0.0, 1.0]).astype(complex)
        k0 = np.diag([1.0, 0.0]).astype(complex)
        k1 = np.array([[0, 1], [0, 0]], dtype=complex)
        out = apply_kraus(rho, [k0, k1], [0])
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_depolarizing_z_expectation(self):
        # direct Kraus-sum evaluation: <Z> = 1 - 4p/3 at p = 0.1
        from qnr.noise import kraus_depolarizing
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = apply_kraus(rho, kraus_depolarizing(0.1), [0])
        assert abs(expect_pauli_z(out, 0) - (1 - 4 * 0.1 / 3)) < 1e-12

    def test_incomplete_set_rejected_with_norm(self):
        rho = prepare_plus_state(1)
        with pytest.raises(ValueError, match="incomplete"):
            apply_kraus(rho, [0.5 * np.eye(2, dtype=complex)], [0])

    def test_embedding_consistency_on_product_states(self, rng):
        # single-qubit channel on qubit k of a product state == channel on the
        # factor, re-tensored
        from qnr.noise import kraus_amplitude_damping
        kraus = kraus_amplitude_damping(0.3)
        factors = [random_density(1, rng) for _ in range(3)]
        rho = factors[0]
        for f in factors[1:]:
            rho = np.kron(rho, f)
        for k in range(3):
            out = apply_kraus(rho, kraus, [k])
            fk = sum(K @ factors[k] @ K.conj().T for K in kraus)
            expected = np.eye(1, dtype=complex)
            for i in range(3):
                expected = np.kron(expected, fk if i == k else factors[i])
            assert np.abs(out - expected).max() < 1e-12

    def test_trace_preserved(self, rng):
        from qnr.noise import kraus_phase_damping
        rho = random_density(3, rng)
        out = apply_kraus(rho, kraus_phase_damping(0.4), [2])
        assert abs(np.trace(out) - 1.0) < 1e-10


class TestObservables:
    def test_ground_state(self):
        assert expect_pauli_z(np.diag([1.0, 0.0]).astype(complex), 0) == pytest.approx(1.0)

    def test_plus_state(self):
        assert abs(expect_pauli_z(prepare_plus_state(1), 0)) < 1e-12

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            expect_pauli_z(prepare_plus_state(2), 2)

    def test_expect_all_z_matches_single(self, rng):
        rho = random_density(3, rng)
        allz = expect_all_z(rho)
        for q in range(3):
            assert allz[q] == pytest.approx(expect_pauli_z(rho, q))


class TestInputCircuit:
    def test_structure_and_order(self):
        gates = build_input_unitary(4, np.pi, 0.3)
        assert len(gates) == 10
        kinds = [g.kind for g in gates[:5]]
        assert kinds == ["RX", "RX", "CNOT", "RZ", "CNOT"]
        assert gates[0].target == 0 and gates[1].target == 1
        assert gates[2].control == 0 and gates[2].target == 1
        assert gates[5].target == 2  # second block starts at qubit 2

    def test_zero_input_is_identity(self):
        U = compile_unitary(build_input_unitary(2, np.pi, 0.0), 2)
        assert np.abs(U - np.eye(4)).max() < 1e-12

    def test_odd_qubit_count_rejected(self):
        with pytest.raises(ValueError):
            build_input_unitary(3, np.pi, 0.1)

    def test_zero_readout_single_step(self):
        # both Z expectations stay zero on |++> at s = pi, u = 0.5
        rho = prepare_plus_state(2)
        out = apply_unitary(rho, build_input_unitary(2, np.pi, 0.5))
        assert np.abs(expect_all_z(out)).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    def test_noiseless_zero_readout_trajectory(self, n, rng):
        rho = prepare_plus_state(n)
        worst = 0.0
        for u in rng.uniform(0.0, 1.0, size=120):
            rho = apply_unitary(rho, build_input_unitary(n, np.pi, u))
            worst = max(worst, np.abs(expect_all_z(rho)).max())
        assert worst <= 1e-10


class TestTraceDistance:
    def test_identical_states(self, rng):
        rho = random_density(2, rng)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_zero_vs_plus(self):
        # eigenvalues of the difference are +-1/sqrt(2) / 2-scaled: D = 1/sqrt(2)
        a = np.diag([1.0, 0.0]).astype(complex)
        assert trace_distance(a, prepare_plus_state(1)) == pytest.approx(1 / np.sqrt(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(prepare_plus_state(1), prepare_plus_state(2))


class TestHelpers:
    def test_partial_trace_of_product(self, rng):
        a, b = random_density(1, rng), random_density(1, rng)
        rho = np.kron(a, b)
        assert np.allclose(partial_trace(rho, [0]), a, atol=1e-12)
        assert np.allclose(partial_trace(rho, [1]), b, atol=1e-12)

    def test_bloch_roundtrip(self, rng):
        rho = random_density(1, rng)
        vec = bloch_vector(rho)
        assert vec[0] == 1.0
        assert np.allclose(density_from_bloch(vec), rho, atol=1e-12)

    def test_haar_product_state(self, rng):
        rho = qsim.haar_product_state(3, rng)
        qsim.check_density_matrix(rho)
        assert abs(purity(rho) - 1.0) < 1e-10
        red = partial_trace(rho, [0])
        assert abs(purity(red) - 1.0) < 1e-10  # product state: pure marginals

    def test_check_density_matrix_rejects(self):
        bad = np.array([[0.5, 0.5], [0.4, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            qsim.check_density_matrix(bad)
