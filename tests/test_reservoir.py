"""Reservoir dynamics, benchmark target, readout and ESP probe tests."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnr.noise import (AMPLITUDE_DAMPING, BIT_FLIP, CNOT_BIAS, DEPOLARIZING,
                       ENTANGLER_ONE_HOP, ENTANGLER_TWO_HOP, OVER_ROTATION_RX,
                       OVER_ROTATION_RZ, PHASE_DAMPING, NoiseSpec, compile_noise)
from qnr.qsim import (apply_kraus, apply_unitary, build_input_unitary,
                      expect_all_z, haar_product_state, prepare_plus_state)
from qnr import reservoir
from qnr.rng import stream
from qnr.reservoir import (EsnConfig, QnrConfig, StateMatrix, benchmark_masks,
                           esn_weights, esp_probe, fit_readout, narma2, nrmse,
                           run_esn, run_qnr, spatial_multiplex)


def spy(monkeypatch, module, name) -> list:
    """Count the calls of ``module.name``; returns the list the calls land in."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def haar_pairs(n_qubits: int, rng) -> np.ndarray:
    """(n/2, 4, 4) Haar-random pair product states: one initial state of run_qnr."""
    return np.array([haar_product_state(2, rng) for _ in range(n_qubits // 2)])


def reference_qnr(config: QnrConfig, inputs, initial=None) -> np.ndarray:
    """Gate-by-gate evolution through the generic simulator ops from the kron
    of the pair states ``initial``; the oracle for the block kernel of run_qnr."""
    compiled = compile_noise(config.noise, config.n_qubits, config.seed)
    rho = (prepare_plus_state(config.n_qubits) if initial is None
           else functools.reduce(np.kron, initial))
    rows = []
    for u in inputs:
        gates = compiled.perturb_circuit(
            build_input_unitary(config.n_qubits, config.input_scaling, u))
        rho = apply_unitary(rho, gates)
        for _, kraus, targets in compiled.decoherence:
            for q in targets:
                rho = apply_kraus(rho, kraus, [q])
        rows.append(expect_all_z(rho))
    return np.array(rows)


_REFERENCE_CASES = [
    [NoiseSpec(AMPLITUDE_DAMPING, 0.1)],
    [NoiseSpec(AMPLITUDE_DAMPING, 0.1), NoiseSpec(PHASE_DAMPING, 0.2),
     NoiseSpec(DEPOLARIZING, 0.05)],
    [NoiseSpec(AMPLITUDE_DAMPING, 0.1), NoiseSpec(OVER_ROTATION_RX, 0.1),
     NoiseSpec(CNOT_BIAS, 0.1)],
    [NoiseSpec(BIT_FLIP, 0.1), NoiseSpec(OVER_ROTATION_RZ, 0.2)],
    [NoiseSpec(AMPLITUDE_DAMPING, 0.1), NoiseSpec(ENTANGLER_ONE_HOP, 0.1)],
    [NoiseSpec(ENTANGLER_TWO_HOP, 0.15), NoiseSpec(PHASE_DAMPING, 0.1)],
    [NoiseSpec(CNOT_BIAS, 0.1), NoiseSpec(ENTANGLER_ONE_HOP, 0.1)],
]


class TestRunQnr:
    def test_noiseless_states_are_zero(self, rng):
        cfg = QnrConfig(n_qubits=4, seed=3)
        sm = run_qnr(cfg, rng.uniform(0, 1, size=200))
        assert np.abs(sm.data).max() <= 1e-10

    @pytest.mark.parametrize("n_qubits, specs, initial", [
        *[pytest.param(4, specs, False, id=f"specs{k}")
          for k, specs in enumerate(_REFERENCE_CASES)],
        # the one-hop entangler's only gate lies inside the single pair
        pytest.param(2, [NoiseSpec(ENTANGLER_ONE_HOP, 0.1), NoiseSpec(AMPLITUDE_DAMPING, 0.1)],
                     False, id="n2-one-hop"),
        pytest.param(2, _REFERENCE_CASES[2], False, id="n2-specs2"),
        *[pytest.param(6, _REFERENCE_CASES[k], False, id=f"n6-specs{k}") for k in (0, 2, 4, 6)],
        *[pytest.param(4, _REFERENCE_CASES[k], True, id=f"initial-specs{k}")
          for k in (0, 1, 4)],
        pytest.param(8, _REFERENCE_CASES[4], False, id="n8-specs4"),
    ])
    def test_matches_gate_by_gate_reference(self, n_qubits, specs, initial, rng):
        cfg = QnrConfig(n_qubits=n_qubits, noise=specs, seed=11)
        rho0 = haar_pairs(n_qubits, rng) if initial else None
        # the gate-by-gate reference is slow on 8 qubits
        inputs = rng.uniform(0, 1, size=5 if n_qubits == 8 else 25)
        fast = run_qnr(cfg, inputs, initial=rho0).data
        slow = reference_qnr(cfg, inputs, initial=rho0)
        assert np.abs(fast - slow).max() <= 1e-12

    def test_bit_identical_reruns(self, rng):
        cfg = QnrConfig(noise=[NoiseSpec(AMPLITUDE_DAMPING, 0.1),
                               NoiseSpec(OVER_ROTATION_RX, 0.1)], seed=21)
        inputs = rng.uniform(0, 1, size=40)
        a = run_qnr(cfg, inputs).data
        b = run_qnr(cfg, inputs).data
        assert np.array_equal(a, b)

    def test_damping_constant_input_converges(self):
        cfg = QnrConfig(noise=[NoiseSpec(AMPLITUDE_DAMPING, 0.9)], seed=0)
        sm = run_qnr(cfg, np.full(60, 0.35))
        step = np.abs(np.diff(sm.data, axis=0)).max(axis=1)
        assert step[-1] < 1e-10  # fast forgetting: fixed point reached

    def test_rejects_nonfinite_inputs(self):
        with pytest.raises(ValueError):
            run_qnr(QnrConfig(), [0.1, np.nan])

    @pytest.mark.parametrize("inputs", [
        pytest.param([], id="empty"), pytest.param(np.zeros((3, 2)), id="2-D"),
        pytest.param(np.zeros((1, 4)), id="row"), pytest.param(0.3, id="scalar"),
    ])
    def test_rejects_empty_or_non_1d_inputs(self, inputs):
        with pytest.raises(ValueError, match=r"inputs have shape \(.*expected a non-empty 1-D"):
            run_qnr(QnrConfig(), inputs)

    def test_odd_qubits_rejected(self):
        with pytest.raises(ValueError):
            QnrConfig(n_qubits=3)

    @pytest.mark.parametrize("n_qubits, specs", [
        pytest.param(4, [NoiseSpec(ENTANGLER_ONE_HOP, 0.1)], id="n4-one-hop"),
        pytest.param(2, [NoiseSpec(AMPLITUDE_DAMPING, 0.1)], id="n2-damping"),
    ])
    def test_stacked_initial_states_match_single_runs(self, n_qubits, specs, rng):
        cfg = QnrConfig(n_qubits=n_qubits, noise=specs, seed=13)
        inputs = rng.uniform(0, 1, size=30)
        states = [haar_pairs(n_qubits, rng) for _ in range(3)]
        single = np.hstack([run_qnr(cfg, inputs, initial=s).data for s in states])
        stacked = run_qnr(cfg, inputs, initial=np.array(states)).data
        assert stacked.shape == (30, 3 * n_qubits)
        assert np.array_equal(stacked, single)

    @pytest.mark.parametrize("specs", [
        pytest.param([NoiseSpec(AMPLITUDE_DAMPING, 0.1)], id="pair-blocks"),
        pytest.param([NoiseSpec(ENTANGLER_TWO_HOP, 0.1)], id="register"),
    ])
    def test_one_kernel_call_per_run(self, specs, monkeypatch, rng):
        calls = spy(monkeypatch, reservoir, "_evolve")
        run_qnr(QnrConfig(n_qubits=6, noise=specs, seed=2), rng.uniform(0, 1, size=10))
        assert len(calls) == 1

    @pytest.mark.parametrize("steps_per_chunk", [1, 7])
    @pytest.mark.parametrize("specs, k, blocks, dim", [
        pytest.param([NoiseSpec(AMPLITUDE_DAMPING, 0.1)], 1, 2, 4, id="pair-blocks"),
        pytest.param([NoiseSpec(AMPLITUDE_DAMPING, 0.1), NoiseSpec(OVER_ROTATION_RX, 0.1)],
                     3, 6, 4, id="stack-of-3"),
        pytest.param([NoiseSpec(ENTANGLER_ONE_HOP, 0.1), NoiseSpec(PHASE_DAMPING, 0.1)],
                     1, 1, 16, id="register"),
    ])
    def test_chunk_boundaries_leave_states_unchanged(self, steps_per_chunk, specs, k, blocks,
                                                     dim, monkeypatch, rng):
        cfg = QnrConfig(n_qubits=4, noise=specs, seed=17)
        inputs = rng.uniform(0, 1, size=23)
        initial = np.array([haar_pairs(4, rng) for _ in range(k)])
        default = run_qnr(cfg, inputs, initial=initial).data
        monkeypatch.setattr(reservoir, "_CHUNK_BYTES", steps_per_chunk * blocks * dim * dim * 16)
        assert reservoir._chunk_steps(blocks, dim) == steps_per_chunk
        assert np.array_equal(run_qnr(cfg, inputs, initial=initial).data, default)

    @pytest.mark.parametrize("blocks, dim", [
        pytest.param(1, 2**12, id="n12-register"),
        pytest.param(1, 2**6, id="n6-register"),
        pytest.param(2, 4, id="n4-pairs"),
        pytest.param(60, 4, id="n12-stack-of-10"),
    ])
    def test_chunk_length_stays_within_budget(self, blocks, dim):
        # a 12-qubit register state is 256 MiB: a chunk never holds two of them
        steps = reservoir._chunk_steps(blocks, dim)
        per_step = blocks * dim * dim * 16
        assert steps >= 1 and (steps == 1 or steps * per_step <= reservoir._CHUNK_BYTES)
        assert (steps + 1) * per_step > reservoir._CHUNK_BYTES

    @pytest.mark.parametrize("shape", [(8, 8), (16, 8), (2, 16, 8), (1, 1, 16, 16), (16,),
                                       (16, 16), (2, 16, 16), (3, 4, 4), (2, 2, 2, 4),
                                       (1, 1, 2, 4, 4)])
    def test_wrongly_shaped_initial_state_names_shapes(self, shape):
        with pytest.raises(ValueError, match=r"shape \(.*expected \(2, 4, 4\) or \(k, 2, 4, 4\)"):
            run_qnr(QnrConfig(n_qubits=4), [0.1, 0.2], initial=np.zeros(shape))


class TestRunEsn:
    def test_zero_input_scaling_gives_zero_states(self, rng):
        cfg = EsnConfig(n_nodes=30, input_scaling=0.0, seed=4)
        sm = run_esn(cfg, rng.uniform(0, 1, size=50))
        assert np.abs(sm.data).max() == 0.0

    def test_states_bounded_by_tanh(self, rng):
        cfg = EsnConfig(n_nodes=40, seed=5)
        sm = run_esn(cfg, rng.uniform(0, 1, size=100))
        assert sm.data.min() > -1.0 and sm.data.max() < 1.0

    def test_spectral_radius_normalization(self):
        W, _ = esn_weights(EsnConfig(n_nodes=50, spectral_radius=0.6, seed=9))
        assert np.abs(np.linalg.eigvals(W)).max() == pytest.approx(0.6, rel=1e-10)

    def test_deterministic(self, rng):
        inputs = rng.uniform(0, 1, size=30)
        a = run_esn(EsnConfig(seed=7), inputs).data
        b = run_esn(EsnConfig(seed=7), inputs).data
        assert np.array_equal(a, b)


class TestMultiplex:
    def test_single_matrix_unchanged(self, rng):
        sm = StateMatrix(rng.normal(size=(10, 4)))
        assert np.array_equal(spatial_multiplex([sm]).data, sm.data)

    def test_concatenates_features(self, rng):
        mats = [StateMatrix(rng.normal(size=(10, 4))) for _ in range(25)]
        assert spatial_multiplex(mats).n_features == 100

    def test_130_instances_width(self, rng):
        mats = [StateMatrix(rng.normal(size=(5, 4))) for _ in range(130)]
        assert spatial_multiplex(mats).n_features == 520

    def test_time_mismatch_rejected(self, rng):
        mats = [StateMatrix(rng.normal(size=(10, 4))),
                StateMatrix(rng.normal(size=(11, 4)))]
        with pytest.raises(ValueError):
            spatial_multiplex(mats)

    def test_added_columns_never_hurt_training_fit(self, rng):
        y = rng.normal(size=200)
        a = StateMatrix(rng.normal(size=(200, 3)))
        b = StateMatrix(rng.normal(size=(200, 3)))
        both = spatial_multiplex([a, b])
        r_single = fit_readout(a.data, y, slice(0, 200)).residual_norm
        r_both = fit_readout(both.data, y, slice(0, 200)).residual_norm
        assert r_both <= r_single + 1e-9


class TestNarma2:
    def test_zero_input_recurrence(self):
        y = narma2(np.zeros(3))
        assert y[0] == pytest.approx(0.1)
        assert y[1] == pytest.approx(0.4 * 0.1 + 0.4 * 0.1 * 0.0 + 0.1)

    def test_zero_input_fixed_point(self):
        # y = 0.4 y + 0.4 y^2 + 0.1 has stable root (3 - sqrt(5)) / 4
        y = narma2(np.zeros(200))
        assert y[-1] == pytest.approx((3 - np.sqrt(5)) / 4, abs=1e-12)

    def test_unit_impulse_first_value(self):
        y = narma2(np.array([1.0]))
        assert y[0] == pytest.approx(0.6 * 0.3**3 + 0.1)

    def test_bounded_on_random_inputs(self, rng):
        y = narma2(rng.uniform(0, 1, size=5000))
        assert np.isfinite(y).all()
        assert 0.0 < y.min() and y.max() < 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            narma2(np.array([-0.2, 0.5]))


class TestReadout:
    def test_realizable_target_fits_exactly(self, rng):
        X = rng.normal(size=(100, 5))
        w_true = rng.normal(size=5)
        y = X @ w_true + 2.0
        ro = fit_readout(X, y, slice(0, 100))
        assert ro.residual_norm <= 1e-10 * np.linalg.norm(y)
        assert np.abs(ro.predict(X) - y).max() < 1e-8

    def test_zero_states_with_bias_predicts_mean(self, rng):
        X = np.zeros((50, 3))
        y = rng.normal(size=50)
        ro = fit_readout(X, y, slice(0, 50))
        assert ro.degenerate
        assert np.allclose(ro.weights[:-1], 0.0)
        assert ro.weights[-1] == pytest.approx(y.mean())

    def test_minimum_norm_solution_on_rank_deficient_states(self, rng):
        base = rng.normal(size=(80, 3))
        X = np.hstack([base, base[:, :2]])  # duplicated columns: rank 3
        y = rng.normal(size=80)
        ro = fit_readout(X, y, slice(0, 80), add_bias=False)
        # ridge solution in the limit lambda -> 0 is the minimum-norm solution;
        # lambda small enough for negligible bias, large enough to stay stable
        lam = 1e-6
        w_ridge = np.linalg.solve(X.T @ X + lam * np.eye(5), X.T @ y)
        assert np.abs(ro.weights - w_ridge).max() < 1e-4
        assert np.linalg.norm(ro.weights) <= np.linalg.norm(w_ridge) + 1e-8

    def test_residual_orthogonal_to_columns(self, rng):
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        ro = fit_readout(X, y, slice(0, 60), add_bias=False)
        resid = y - ro.predict(X)
        assert np.abs(X.T @ resid).max() <= 1e-8 * np.linalg.norm(y) * np.linalg.norm(X)

    def test_empty_train_range_rejected(self, rng):
        # a zero-row fit used to return zero weights and a NaN training score
        X, y = rng.normal(size=(60, 4)), rng.normal(size=60)
        with pytest.raises(ValueError, match=r"train_range slice\(10, 10, None\) selects no rows"):
            fit_readout(X, y, slice(10, 10))


class TestNrmse:
    def test_perfect_prediction(self, rng):
        y = rng.normal(size=40)
        assert nrmse(y, y) == 0.0

    def test_mean_prediction_scores_one(self, rng):
        y = rng.normal(size=500)
        assert nrmse(y, np.full_like(y, y.mean())) == pytest.approx(1.0)

    @given(st.floats(-50, 50).filter(lambda a: abs(a) > 1e-3))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, a):
        rng = np.random.default_rng(8)
        y = rng.normal(size=64)
        yhat = y + rng.normal(size=64) * 0.3
        assert nrmse(a * y, a * yhat) == pytest.approx(nrmse(y, yhat), rel=1e-9)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            nrmse(np.ones(10), np.zeros(10))

    def test_empty_eval_range_rejected(self, rng):
        # an empty range used to score NaN
        y = rng.normal(size=40)
        with pytest.raises(ValueError, match=r"eval_range slice\(40, 40, None\) selects no rows"):
            nrmse(y, y, slice(40, 40))

    def test_column_scaling_leaves_readout_nrmse_unchanged(self, rng):
        X = rng.normal(size=(300, 6))
        y = X @ rng.normal(size=6) + 0.1 * rng.normal(size=300)
        tr, ev = slice(0, 200), slice(200, 300)
        base = fit_readout(X, y, tr)
        scaled = fit_readout(X * 7.5, y, tr)
        a = nrmse(y, base.predict(X), ev)
        b = nrmse(y, scaled.predict(X * 7.5), ev)
        assert a == pytest.approx(b, rel=1e-8)


class TestBenchmarkMasks:
    def test_first_masks_are_odd_ascending(self):
        masks = benchmark_masks(25)
        assert masks == list(range(1, 50, 2))
        assert all(m & 1 for m in masks)

    def test_count_cap(self):
        assert len(benchmark_masks(130)) == 130
        with pytest.raises(ValueError):
            benchmark_masks(513)


class TestEspProbe:
    def test_identical_initial_states_stay_identical(self, rng):
        cfg = QnrConfig(noise=[NoiseSpec(AMPLITUDE_DAMPING, 0.1)], seed=5)
        pairs = haar_pairs(4, rng)
        probe = esp_probe(cfg, rng.uniform(0, 1, 30), 3,
                          initial_states=[pairs.copy() for _ in range(3)])
        assert np.all(probe.deltas == 0.0)

    def test_decay_rate_matches_damping(self, rng):
        # empirical per-step log slope tracks log(1 - gamma)
        gamma = 0.2
        cfg = QnrConfig(noise=[NoiseSpec(AMPLITUDE_DAMPING, gamma)], seed=6)
        probe = esp_probe(cfg, rng.uniform(0, 1, 90), 6)
        assert probe.slope == pytest.approx(np.log(1 - gamma), rel=0.1)
        assert probe.deltas[-1] < probe.deltas[0] * 1e-4

    def test_trials_share_one_run(self, monkeypatch, rng):
        runs = spy(monkeypatch, reservoir, "run_qnr")
        compiles = spy(monkeypatch, reservoir, "compile_noise")
        cfg = QnrConfig(noise=[NoiseSpec(AMPLITUDE_DAMPING, 0.1)], seed=5)
        esp_probe(cfg, rng.uniform(0, 1, 20), 4)
        assert len(runs) == 1 and len(compiles) == 1

    def test_trials_evolve_as_pair_blocks(self, monkeypatch, rng):
        # a product start without entanglers never builds a register block
        calls = spy(monkeypatch, reservoir, "_evolve")
        cfg = QnrConfig(n_qubits=6, noise=[NoiseSpec(AMPLITUDE_DAMPING, 0.1)], seed=5)
        esp_probe(cfg, rng.uniform(0, 1, 20), 4)
        assert len(calls) == 1 and calls[0][3].shape == (3 * 4, 4, 4)

    def test_initial_states_split_the_register_product_state(self, monkeypatch, rng):
        # pair states drawn in turn consume the normals of one n-qubit draw
        calls = spy(monkeypatch, reservoir, "_evolve")
        cfg = QnrConfig(n_qubits=6, noise=[NoiseSpec(AMPLITUDE_DAMPING, 0.1)], seed=8)
        esp_probe(cfg, rng.uniform(0, 1, 5), 3)
        for m, pairs in enumerate(calls[0][3].reshape(3, 3, 4, 4)):
            register = haar_product_state(6, stream(8, "esp", "init", m))
            assert np.abs(functools.reduce(np.kron, pairs) - register).max() <= 1e-15

    def test_requires_two_trials(self, rng):
        cfg = QnrConfig(noise=[NoiseSpec(AMPLITUDE_DAMPING, 0.1)])
        with pytest.raises(ValueError):
            esp_probe(cfg, rng.uniform(0, 1, 10), 1)
