"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Heavy artifacts (the benchmark runs, the target-capacity decomposition) are
computed once per module and shared.  Two sub-checks are implemented at
their stated tolerances but fail against the measured behavior of the
system; their assertion messages carry the measured values.  They are left
red deliberately instead of loosening the tolerances:

* 7: a 50-node ESN built exactly to its stated protocol solves NARMA2 at
  NRMSE ~0.04, far better than the 25-instance QNR (~0.25), so +-0.05
  parity cannot hold.
* 8c: no input scaling of the NARMA2 recurrence can place ~0.111 capacity
  at delay 2 while keeping the delay-0/1 components at 0.585/0.145; the
  measured value is ~0.06.

3b asserts the per-step decay slope log(1-gamma), not the (1/2)log(1-gamma)
of the echo-state-property upper bound.  Every trial starts from the same
20 Haar product states for both gamma, so delta_0 = 1.63 in both runs.
Starting from delta_0, a 175-step decay lands inside 3a's endpoint brackets
only at a mean slope in [-0.0623, -0.0491] for gamma = 0.05 (bracket
[3e-5, 3e-4]) and in [-0.1149, -0.1018] for gamma = 0.10 (bracket
[3e-9, 3e-8]).  log(1-gamma) (-0.0513, -0.1054) lies inside both ranges;
(1/2)log(1-gamma) (-0.0256, -0.0527) lies outside both, so the bound's rate
cannot pass together with 3a.
"""

import time

import numpy as np
import pytest

from qnr import config as cfgmod
from qnr import dataio
from qnr.noise import (AMPLITUDE_DAMPING, BIT_FLIP, CNOT_BIAS, DEPOLARIZING,
                       ENTANGLER_ONE_HOP, ENTANGLER_TWO_HOP, KRAUS_FACTORIES,
                       OVER_ROTATION_RX, OVER_ROTATION_RZ, PHASE_DAMPING,
                       PHASE_FLIP, NoiseSpec)
from qnr.qsim import apply_kraus, bloch_vector, density_from_bloch
from qnr.reservoir import (QnrConfig, StateMatrix, esp_probe, fit_readout,
                           narma2, nrmse, run_esn, run_qnr, spatial_multiplex)
from qnr.rng import stream
from qnr.tipc import TipcSettings, analyze_states, chi2_threshold, ipc_of_target

from conftest import random_density
from test_noise import bloch_map_oracle

MASTER_SEED = 12345


def report(tag: str, ok: bool, detail: str):
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


def _inputs(length, low=0.0, high=1.0, seed=MASTER_SEED):
    return stream(seed, "inputs").uniform(low, high, size=length)


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_noiseless_null_computation():
    t0 = time.perf_counter()
    sm = run_qnr(QnrConfig(n_qubits=4, seed=MASTER_SEED), _inputs(1000))
    elapsed = time.perf_counter() - t0
    worst = float(np.abs(sm.data).max())
    report("1 noiseless null", worst <= 1e-10 and elapsed < 1.0,
           f"max|x| = {worst:.2e}, runtime {elapsed:.2f}s")


# -- 2 ----------------------------------------------------------------------

def test_criterion_02_channel_bloch_oracles():
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for kind, factory in KRAUS_FACTORIES.items():
        rate = 0.17
        kraus = factory(rate)
        M = bloch_map_oracle(kind, rate)
        for _ in range(100):
            rho = random_density(1, rng)
            out = apply_kraus(rho, kraus, [0])
            expected = density_from_bloch(M @ bloch_vector(rho))
            worst = max(worst, float(np.abs(out - expected).max()))
    report("2 channel oracles", worst <= 1e-10, f"max deviation {worst:.2e}")


# -- 3 ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def esp_runs():
    out = {}
    t0 = time.perf_counter()
    for gamma in (0.05, 0.10):
        cfg = QnrConfig(n_qubits=4,
                        noise=[NoiseSpec(AMPLITUDE_DAMPING, gamma)],
                        seed=MASTER_SEED)
        out[gamma] = esp_probe(cfg, _inputs(175), 20)
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_03a_esp_decay_brackets(esp_runs):
    d05 = esp_runs[0.05].deltas[-1]
    d10 = esp_runs[0.10].deltas[-1]
    ok = (3e-5 <= d05 <= 3e-4) and (3e-9 <= d10 <= 3e-8) \
        and esp_runs["elapsed"] < 30.0
    report("3a esp brackets", ok,
           f"delta(175): gamma=0.05 -> {d05:.3e}, gamma=0.10 -> {d10:.3e}, "
           f"runtime {esp_runs['elapsed']:.1f}s")


def test_criterion_03b_esp_decay_slope(esp_runs):
    msgs, ok = [], True
    for gamma in (0.05, 0.10):
        slope = esp_runs[gamma].slope
        target = np.log(1.0 - gamma)
        ok &= abs(slope - target) <= 0.1 * abs(target)
        msgs.append(f"gamma={gamma}: slope {slope:.5f} vs log(1-g) "
                    f"{target:.5f} (paper's bound (1/2)log(1-g) = "
                    f"{0.5 * target:.5f}, which the slope lies below)")
    report("3b esp slope", ok, "; ".join(msgs))


# -- 4 ----------------------------------------------------------------------

def _single_noise_states(kind, rate, inputs, seed=MASTER_SEED):
    cfg = QnrConfig(n_qubits=4, noise=[NoiseSpec(kind, rate)], seed=seed)
    return run_qnr(cfg, inputs)


def test_criterion_04_zero_capacity_noise_classes():
    t0 = time.perf_counter()
    washout, span = 60, 2000
    inputs = _inputs(washout + span)
    settings = TipcSettings(max_degree=2, max_input_delay=8, max_state_delay=1,
                            family="legendre")
    failures = []
    for kind in (OVER_ROTATION_RX, OVER_ROTATION_RZ, BIT_FLIP, PHASE_FLIP,
                 PHASE_DAMPING, DEPOLARIZING):
        sm = _single_noise_states(kind, 0.1, inputs)
        prof = analyze_states(sm.data[washout:], inputs, washout, settings, input_range=(0.0, 1.0))
        if prof.rank != 0 or prof.terms:
            failures.append(f"{kind}: r={prof.rank}")
    for kind in (CNOT_BIAS, ENTANGLER_ONE_HOP, ENTANGLER_TWO_HOP):
        sm = _single_noise_states(kind, 0.1, inputs)
        prof = analyze_states(sm.data[washout:], inputs, washout, settings, input_range=(0.0, 1.0))
        if not (prof.c_tiv_tot == 0.0 and prof.c_tv_tot > 0.0):
            failures.append(f"{kind}: TIV={prof.c_tiv_tot:.4f} TV={prof.c_tv_tot:.4f}")
    elapsed = time.perf_counter() - t0
    report("4 zero-capacity classes", not failures and elapsed < 120.0,
           f"failures: {failures or 'none'}, runtime {elapsed:.0f}s")


# -- 5 ----------------------------------------------------------------------

def test_criterion_05a_damping_induces_tiv_monotone():
    washout, span = 60, 2000
    inputs = _inputs(washout + span)
    settings = TipcSettings(max_degree=2, max_input_delay=10, max_state_delay=1,
                            family="legendre")
    fractions = []
    details = []
    for gamma in (0.02, 0.05, 0.1, 0.2):
        sm = _single_noise_states(AMPLITUDE_DAMPING, gamma, inputs)
        prof = analyze_states(sm.data[washout:], inputs, washout, settings, input_range=(0.0, 1.0))
        assert prof.c_tiv_tot > 0.0, f"gamma={gamma}: no TIV capacity"
        frac = prof.c_tiv_tot / prof.c_tot
        fractions.append(frac)
        details.append(f"gamma={gamma}: TIV={prof.c_tiv_tot:.3f} frac={frac:.3f}")
    inversions = sum(1 for a, b in zip(fractions, fractions[1:]) if b < a - 1e-9)
    report("5a damping TIV trend", inversions <= 1,
           "; ".join(details) + f"; inversions={inversions}")


def test_criterion_05b_symmetric_input_suppresses_first_order():
    washout, span = 60, 2000
    inputs = stream(MASTER_SEED, "inputs").uniform(-1.0, 1.0, washout + span)
    settings = TipcSettings(max_degree=2, max_input_delay=10, max_state_delay=1,
                            family="legendre")
    sm = _single_noise_states(AMPLITUDE_DAMPING, 0.1, inputs)
    prof = analyze_states(sm.data[washout:], inputs, washout, settings, input_range=(-1.0, 1.0))
    first_order = prof.tiv_by_degree.get(1, 0.0)
    report("5b symmetric input", first_order == 0.0,
           f"first-order TIV total {first_order:.2e} "
           f"(threshold {prof.threshold:.2e}), second-order "
           f"{prof.tiv_by_degree.get(2, 0.0):.3f}")


# -- 6 / 7 -------------------------------------------------------------------

def _benchmark(preset):
    cfg = cfgmod.assemble(None, preset_name=preset)
    inputs = _inputs(cfg.split.total, seed=cfg.seed)
    y = narma2(inputs)
    mats = [run_qnr(qc, inputs) for _, _, qc in cfg.qnr_instances()]
    X = spatial_multiplex(mats)
    ro = fit_readout(X.data, y, cfg.split.train_range)
    yhat = ro.predict(X.data)
    return cfg, inputs, y, nrmse(y, yhat, cfg.split.eval_range)


@pytest.fixture(scope="module")
def desk_benchmark():
    t0 = time.perf_counter()
    cfg, inputs, y, err = _benchmark("desk")
    return {"cfg": cfg, "inputs": inputs, "y": y, "nrmse": err,
            "elapsed": time.perf_counter() - t0}


def test_criterion_06a_narma2_desk_scale(desk_benchmark):
    err, elapsed = desk_benchmark["nrmse"], desk_benchmark["elapsed"]
    report("6a narma2 desk", err <= 0.30 and elapsed < 600.0,
           f"eval NRMSE {err:.4f} (bound 0.30), runtime {elapsed:.0f}s")


def test_criterion_06b_narma2_paper_scale():
    t0 = time.perf_counter()
    _, _, _, err = _benchmark("paper")
    elapsed = time.perf_counter() - t0
    report("6b narma2 paper scale", abs(err - 0.21) <= 0.05,
           f"eval NRMSE {err:.4f} vs 0.21 +- 0.05, runtime {elapsed:.0f}s")


def test_criterion_07_esn_parity(desk_benchmark):
    cfg = desk_benchmark["cfg"]
    inputs, y = desk_benchmark["inputs"], desk_benchmark["y"]
    scores = []
    for k in range(cfg.esn.configurations):
        sm = run_esn(cfg.esn_instance(k), inputs)
        ro = fit_readout(sm.data, y, cfg.split.train_range)
        scores.append(nrmse(y, ro.predict(sm.data), cfg.split.eval_range))
    esn_err = float(np.mean(scores))
    gap = abs(esn_err - desk_benchmark["nrmse"])
    report("7 esn parity", gap <= 0.05,
           f"ESN-50 (10 cfg avg) NRMSE {esn_err:.4f} vs QNR "
           f"{desk_benchmark['nrmse']:.4f}: |gap| = {gap:.4f} > 0.05")


# -- 8 ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def narma2_ipc():
    t0 = time.perf_counter()
    T, washout = 20000, 200
    u = stream(MASTER_SEED, "inputs").uniform(-1.0, 1.0, washout + T)
    y = narma2((u + 1.0) / 2.0)[washout:]
    settings = TipcSettings(max_degree=3, max_input_delay=8,
                            family="legendre",
                            threshold="surrogate", surrogates=200,
                            surrogate_sigma=1.2)
    prof = ipc_of_target(y, u, washout, settings,
                         surrogate_rng=stream(MASTER_SEED, "surrogate"), input_range=(-1.0, 1.0))
    caps = {t.label(): c for t, c in zip(prof.terms, prof.capacity.tolist())}
    return {"caps": caps, "elapsed": time.perf_counter() - t0}


@pytest.mark.parametrize("part,label,target", [
    ("8a", "P1(u[t])", 0.585),
    ("8b", "P1(u[t-1])", 0.145),
    ("8c", "P1(u[t-2])", 0.111),
])
def test_criterion_08_narma2_ipc_components(narma2_ipc, part, label, target):
    got = narma2_ipc["caps"][label]
    ok = abs(got - target) <= 0.03
    if part == "8a":
        ok = ok and narma2_ipc["elapsed"] < 300.0
    report(f"{part} ipc {label}", ok,
           f"capacity {got:.4f} vs {target} +- 0.03 "
           f"(runtime {narma2_ipc['elapsed']:.0f}s)")


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_completeness_oracle():
    rng = np.random.default_rng(MASTER_SEED)
    T, a, b = 4000, (0.5, 0.8), (1.0, 0.7)
    u = rng.uniform(-1, 1, size=T + 100)
    x = np.zeros((T + 100, 2))
    for t in range(1, T + 100):
        x[t] = [a[k] * x[t - 1, k] + b[k] * u[t] for k in range(2)]
    settings = TipcSettings(max_degree=1, max_input_delay=30, max_state_delay=2,
                            family="legendre")
    prof = analyze_states(x[100:], u, 100, settings, input_range=(-1.0, 1.0))
    total = sum(prof.capacity.tolist())
    ok = prof.rank == 2 and abs(total - prof.rank) <= 0.01 * prof.rank \
        and prof.c_tv_tot == 0.0
    report("9 completeness oracle", ok,
           f"r={prof.rank}, sum C = {total:.4f}, truncated TV = {prof.c_tv_tot}")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_chi2_threshold_calibration():
    rng = np.random.default_rng(MASTER_SEED)
    T, r = 2000, 4
    from qnr.tipc import normalize_states, orthonormalize, capacities
    ns = normalize_states(rng.normal(size=(T, r)))
    base = rng.uniform(-1, 1, size=T)
    caps = []
    for _ in range(1000):
        xi = base[rng.permutation(T)]
        ortho = orthonormalize(xi[:, None].copy())
        caps.append(capacities(ns.P, ortho)[0])
    empirical = float(np.quantile(caps, 0.99))
    theoretical = chi2_threshold(T, r, p=1e-2, sigma=1.0)
    rel = abs(empirical - theoretical) / theoretical
    report("10 chi2 calibration", rel <= 0.15,
           f"empirical q99 {empirical:.3e} vs chi2 {theoretical:.3e} "
           f"(rel dev {rel:.1%})")


# -- ingest path (criteria note) ----------------------------------------------

def test_ingest_profile_matches_in_memory_bit_level(tmp_path):
    washout, span = 20, 180
    cfg = QnrConfig(n_qubits=12,
                    noise=[NoiseSpec(AMPLITUDE_DAMPING, 0.1)], seed=MASTER_SEED)
    inputs = _inputs(washout + span)
    sm = run_qnr(cfg, inputs)
    assert sm.data.shape == (200, 12)
    settings = TipcSettings(max_degree=2, max_input_delay=5, max_state_delay=1,
                            family="legendre")
    direct = analyze_states(sm.data[washout:], inputs, washout, settings, input_range=(0.0, 1.0))

    ipath, spath = tmp_path / "inputs.csv", tmp_path / "states.csv"
    dataio.write_inputs_csv(ipath, inputs)
    dataio.write_states_csv(spath, sm)
    trace_inputs, trace_states = dataio.read_trace(str(ipath), [str(spath)])
    assert np.array_equal(trace_inputs, inputs)
    assert np.array_equal(trace_states[0].data, sm.data)
    ingested = analyze_states(trace_states[0].data[washout:], trace_inputs,
                              washout, settings, input_range=(0.0, 1.0))
    same = dataio.profile_to_dict(direct) == dataio.profile_to_dict(ingested)
    report("ingest bit-level equality", same and direct.rank >= 1,
           f"rank {direct.rank}, records {len(direct.terms)}, "
           f"profiles identical: {same}")
