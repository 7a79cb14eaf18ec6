"""Noise library tests, including the extended-Bloch channel oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnr import noise, qsim
from qnr.noise import (AMPLITUDE_DAMPING, BIT_FLIP, CNOT_BIAS, DEPOLARIZING,
                       ENTANGLER_ONE_HOP, ENTANGLER_TWO_HOP, KRAUS_FACTORIES,
                       NOISE_KINDS, OVER_ROTATION_RX, OVER_ROTATION_RZ,
                       PHASE_DAMPING, PHASE_FLIP, NoiseSpec, compile_noise,
                       entangler_gates, kraus_amplitude_damping, kraus_bit_flip,
                       kraus_depolarizing, kraus_phase_damping, kraus_phase_flip,
                       perturb_cnot_bias, perturb_over_rotation, sample_epsilons,
                       specs_from_mask)
from qnr.qsim import (GateSpec, apply_kraus, apply_unitary, build_input_unitary,
                      compile_unitary, expect_all_z, expect_pauli_z, prepare_plus_state)

from conftest import bloch_vector, density_from_bloch, random_density, random_pure


def bloch_map_oracle(kind: str, rate: float) -> np.ndarray:
    """Independent 4x4 affine action of each channel on (1, rx, ry, rz)."""
    if kind == AMPLITUDE_DAMPING:
        s = np.sqrt(1.0 - rate)
        return np.array([[1, 0, 0, 0],
                         [0, s, 0, 0],
                         [0, 0, s, 0],
                         [rate, 0, 0, 1.0 - rate]])
    if kind == PHASE_DAMPING:
        s = np.sqrt(1.0 - rate)
        return np.diag([1.0, s, s, 1.0])
    if kind == DEPOLARIZING:
        c = 1.0 - 4.0 * rate / 3.0
        return np.diag([1.0, c, c, c])
    if kind == BIT_FLIP:
        c = 1.0 - 2.0 * rate
        return np.diag([1.0, 1.0, c, c])
    if kind == PHASE_FLIP:
        c = 1.0 - 2.0 * rate
        return np.diag([1.0, c, c, 1.0])
    raise ValueError(kind)


ZERO = np.diag([1.0, 0.0]).astype(complex)
ONE = np.diag([0.0, 1.0]).astype(complex)


class TestKrausSets:
    @pytest.mark.parametrize("factory", list(KRAUS_FACTORIES.values()))
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5, 0.97, 1.0])
    def test_completeness(self, factory, rate):
        acc = sum(K.conj().T @ K for K in factory(rate))
        assert np.abs(acc - np.eye(2)).max() <= 1e-12

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_completeness_any_rate(self, rate):
        for factory in KRAUS_FACTORIES.values():
            acc = sum(K.conj().T @ K for K in factory(rate))
            assert np.abs(acc - np.eye(2)).max() <= 1e-12

    @pytest.mark.parametrize("kind", list(KRAUS_FACTORIES))
    def test_bloch_oracle_on_random_states(self, kind, rng):
        # channel output must equal the independently coded affine Bloch map
        kraus = KRAUS_FACTORIES[kind](0.23)
        M = bloch_map_oracle(kind, 0.23)
        for _ in range(100):
            rho = random_density(1, rng)
            out = apply_kraus(rho, kraus, [0])
            expected = density_from_bloch(M @ bloch_vector(rho))
            assert np.abs(out - expected).max() <= 1e-10

    def test_rate_out_of_range(self):
        for factory in KRAUS_FACTORIES.values():
            with pytest.raises(ValueError):
                factory(1.2)

    def test_depolarizing_identity_at_zero(self, rng):
        rho = random_density(1, rng)
        assert np.allclose(apply_kraus(rho, kraus_depolarizing(0.0), [0]), rho)

    def test_depolarizing_maximal(self, rng):
        # p = 3/4 sends every state to I/2
        rho = random_density(1, rng)
        out = apply_kraus(rho, kraus_depolarizing(0.75), [0])
        assert np.abs(out - np.eye(2) / 2).max() < 1e-12

    def test_bit_flip_full(self):
        out = apply_kraus(ZERO, kraus_bit_flip(1.0), [0])
        assert np.allclose(out, ONE)

    def test_bit_flip_partial_z(self):
        out = apply_kraus(ZERO, kraus_bit_flip(0.3), [0])
        assert expect_pauli_z(out, 0) == pytest.approx(1 - 2 * 0.3)

    def test_phase_flip_fixes_z_eigenstate(self):
        out = apply_kraus(ZERO, kraus_phase_flip(0.4), [0])
        assert np.allclose(out, ZERO)

    def test_amplitude_damping_cases(self):
        rho = random_density(1, np.random.default_rng(5))
        assert np.allclose(apply_kraus(rho, kraus_amplitude_damping(0.0), [0]), rho)
        out = apply_kraus(rho, kraus_amplitude_damping(1.0), [0])
        assert np.allclose(out, ZERO, atol=1e-12)
        out = apply_kraus(ONE, kraus_amplitude_damping(0.1), [0])
        assert expect_pauli_z(out, 0) == pytest.approx(2 * 0.1 - 1)  # gamma + (1-gamma) rz

    def test_phase_damping_cases(self):
        assert np.allclose(apply_kraus(ZERO, kraus_phase_damping(0.6), [0]), ZERO)
        plus = prepare_plus_state(1)
        out = apply_kraus(plus, kraus_phase_damping(1.0), [0])
        assert np.abs(out - np.eye(2) / 2).max() < 1e-12
        out = apply_kraus(plus, kraus_phase_damping(0.19), [0])
        assert bloch_vector(out)[1] == pytest.approx(0.9)  # <X> = sqrt(1 - 0.19)

    @pytest.mark.parametrize("kind", [DEPOLARIZING, BIT_FLIP, PHASE_FLIP, PHASE_DAMPING])
    def test_unital_channels_fix_maximally_mixed(self, kind):
        mixed = np.eye(4, dtype=complex) / 4
        out = apply_kraus(mixed, KRAUS_FACTORIES[kind](0.37), [1])
        assert np.abs(out - mixed).max() <= 1e-12

    def test_amplitude_damping_not_unital(self):
        mixed = np.eye(2, dtype=complex) / 2
        out = apply_kraus(mixed, kraus_amplitude_damping(0.3), [0])
        assert np.allclose(out, np.diag([(1 + 0.3) / 2, (1 - 0.3) / 2]))

    @pytest.mark.parametrize("kind", list(KRAUS_FACTORIES))
    def test_cptp_on_random_states(self, kind, rng):
        kraus = KRAUS_FACTORIES[kind](0.31)
        for _ in range(10):
            rho = random_density(2, rng)
            out = apply_kraus(rho, kraus, [1])
            assert abs(np.trace(out) - 1.0) <= 1e-10
            assert np.abs(out - out.conj().T).max() <= 1e-9
            assert np.linalg.eigvalsh(out).min() >= -1e-9


class TestEpsilonSampling:
    def test_zero_max(self, rng):
        assert np.all(sample_epsilons(0.0, 6, rng) == 0.0)

    def test_deterministic_under_seed(self):
        a = sample_epsilons(0.1, 8, np.random.default_rng(77))
        b = sample_epsilons(0.1, 8, np.random.default_rng(77))
        assert np.array_equal(a, b)

    def test_range_and_mean(self):
        rng = np.random.default_rng(123)
        eps = sample_epsilons(0.1, 10000, rng)
        assert eps.min() >= 0.0 and eps.max() <= 0.1
        assert abs(eps.mean() - 0.05) < 0.003


class TestCoherentPerturbations:
    def test_over_rotation_zero_eps_is_identity(self):
        gates = build_input_unitary(4, np.pi, 0.4)
        assert perturb_over_rotation(gates, np.zeros(4), "RX") == gates

    def test_over_rotation_scales_angle(self):
        gates = [GateSpec("RX", 0, angle=np.pi)]
        out = perturb_over_rotation(gates, np.array([0.1]), "RX")
        assert out[0].angle == pytest.approx(1.1 * np.pi)

    def test_over_rotation_leaves_other_kinds(self):
        gates = build_input_unitary(2, np.pi, 0.4)
        out = perturb_over_rotation(gates, np.full(2, 0.2), "RZ")
        for g_in, g_out in zip(gates, out):
            if g_in.kind == "RZ":
                assert g_out.angle == pytest.approx(g_in.angle * 1.2)
            else:
                assert g_out == g_in

    def test_perturbed_circuit_still_unitary(self, rng):
        gates = build_input_unitary(4, np.pi, 0.83)
        eps = sample_epsilons(0.1, 4, rng)
        out = perturb_cnot_bias(perturb_over_rotation(gates, eps, "RX"), eps)
        U = compile_unitary(out, 4)
        assert np.abs(U.conj().T @ U - np.eye(16)).max() <= 1e-12

    def test_cnot_bias_zero_eps_matches_cnot_observables(self, rng):
        # CRX(pi) equals CNOT up to a phase on the controlled block: identical
        # Z expectations after one application, for any state
        for _ in range(20):
            rho = random_density(2, rng)
            a = apply_unitary(rho, [GateSpec("CRX", 1, control=0, angle=np.pi)])
            b = apply_unitary(rho, [GateSpec("CNOT", 1, control=0)])
            assert np.abs(expect_all_z(a) - expect_all_z(b)).max() <= 1e-12

    def test_cnot_bias_eps_one_acts_like_deleted_cnot(self, rng):
        # CRX(2 pi) = controlled(-I): the input block reduces to the same
        # circuit with its CNOTs removed, so whole trajectories agree
        rho_a = qsim.haar_product_state(2, rng)
        rho_b = rho_a.copy()
        for u in np.linspace(0.1, 0.9, 7):
            gates = build_input_unitary(2, np.pi, u)
            biased = perturb_cnot_bias(gates, np.ones(2))
            removed = [g for g in gates if g.kind != "CNOT"]
            rho_a = apply_unitary(rho_a, biased)
            rho_b = apply_unitary(rho_b, removed)
            assert np.abs(expect_all_z(rho_a) - expect_all_z(rho_b)).max() <= 1e-10

    def test_entangler_counts(self):
        eps = np.full(4, 0.05)
        assert len(entangler_gates(eps, 1, 4)) == 3
        assert len(entangler_gates(eps, 2, 4)) == 2
        with pytest.raises(ValueError):
            entangler_gates(eps, 2, 2)

    def test_entangler_zero_eps_is_identity(self):
        gates = entangler_gates(np.zeros(4), 1, 4)
        U = compile_unitary(gates, 4)
        assert np.abs(U - np.eye(16)).max() < 1e-12


class TestCompileNoise:
    def test_deterministic(self):
        specs = [NoiseSpec(AMPLITUDE_DAMPING, 0.1), NoiseSpec(OVER_ROTATION_RX, 0.1),
                 NoiseSpec(ENTANGLER_ONE_HOP, 0.05)]
        a = compile_noise(specs, 4, seed=99)
        b = compile_noise(specs, 4, seed=99)
        for kind in a.sampled_epsilons:
            assert np.array_equal(a.sampled_epsilons[kind], b.sampled_epsilons[kind])
        assert [(k, t) for k, _, t in a.decoherence] == \
            [(k, t) for k, _, t in b.decoherence]
        assert a.entanglers == b.entanglers and a.entanglers

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            compile_noise([NoiseSpec(BIT_FLIP, 0.1), NoiseSpec(BIT_FLIP, 0.2)], 4, 0)

    def test_empty_specs_is_ideal(self):
        compiled = compile_noise([], 4, 0)
        assert compiled.decoherence == [] and compiled.entanglers == []
        assert not compiled.has_cross_pair_gates
        gates = build_input_unitary(4, np.pi, 0.3)
        assert compiled.perturb_circuit(gates) == gates

    def test_deco_order_follows_specs(self):
        specs = [NoiseSpec(PHASE_FLIP, 0.1), NoiseSpec(AMPLITUDE_DAMPING, 0.2)]
        compiled = compile_noise(specs, 2, 0)
        assert [k for k, _, _ in compiled.decoherence] == [PHASE_FLIP, AMPLITUDE_DAMPING]

    def test_cross_pair_detection(self):
        one_hop = compile_noise([NoiseSpec(ENTANGLER_ONE_HOP, 0.1)], 4, 1)
        assert one_hop.has_cross_pair_gates  # (1, 2) couples the blocks
        bias = compile_noise([NoiseSpec(CNOT_BIAS, 0.1)], 4, 1)
        assert not bias.has_cross_pair_gates

    def test_targets_subset(self):
        compiled = compile_noise([NoiseSpec(AMPLITUDE_DAMPING, 0.1, (0, 2))], 4, 0)
        assert compiled.decoherence[0][2] == (0, 2)

    def test_specs_from_mask(self):
        specs = specs_from_mask(0b1000000001, 0.1)
        assert [s.kind for s in specs] == [AMPLITUDE_DAMPING, ENTANGLER_TWO_HOP]
        assert specs_from_mask(0, 0.1) == []
        with pytest.raises(ValueError):
            specs_from_mask(1024, 0.1)

    def test_noiseless_invariant_with_zero_rate_entangler(self, rng):
        compiled = compile_noise([NoiseSpec(ENTANGLER_ONE_HOP, 0.0)], 4, 3)
        rho = prepare_plus_state(4)
        for u in rng.uniform(0, 1, size=30):
            gates = compiled.perturb_circuit(build_input_unitary(4, np.pi, u))
            rho = apply_unitary(rho, gates)
            assert np.abs(expect_all_z(rho)).max() <= 1e-10
