"""Quantum noise-induced reservoir computing toolkit."""

__version__ = "0.1.0"

from .noise import (
    NOISE_KINDS,
    NoiseSpec,
    compile_noise,
    kraus_amplitude_damping,
    kraus_bit_flip,
    kraus_depolarizing,
    kraus_phase_damping,
    kraus_phase_flip,
    specs_from_mask,
)
from .qsim import (
    GateSpec,
    apply_kraus,
    apply_unitary,
    build_input_unitary,
    expect_pauli_z,
    prepare_plus_state,
    trace_distance,
)
from .reservoir import (
    EsnConfig,
    QnrConfig,
    Readout,
    StateMatrix,
    benchmark_masks,
    esp_probe,
    fit_readout,
    narma2,
    nrmse,
    run_esn,
    run_qnr,
    spatial_multiplex,
)
from .tipc import (
    BasisTerm,
    CapacityProfile,
    TipcSettings,
    analyze_states,
    capacities,
    chi2_threshold,
    enumerate_bases,
    evaluate_bases,
    ipc_of_target,
    normalize_states,
    orthonormalize,
    profile,
    shuffle_surrogate_threshold,
)

__all__ = [name for name in dir() if not name.startswith("_")]
