"""Input-driven reservoir dynamics and the regression harness around them.

``run_qnr`` evolves a noisy qubit register under the pairwise input circuit
and records Pauli-Z expectations; ``run_esn`` is the classical echo state
network baseline.  Both return a ``StateMatrix`` whose row t is the state
after consuming input u_t.  The rest of the module covers spatial
multiplexing, the NARMA2 benchmark target, least-squares readout training,
NRMSE scoring, and the echo-state-property probe.

One kernel implements the reservoir map, once per ``run_qnr``, on a stack of
independent blocks.  Each step conjugates every block of qubit pairs by the
kron of its pair unitaries (then the entangler gates, if any) and applies each
pair's decoherence superoperator.  Runs start from products of pair states:
without entanglers each pair of each initial state is a 4 x 4 block, and
entanglers make each initial state one register block, the kron of its pairs.
Everything that does not depend on the state is built per chunk of steps (the
block unitaries, their adjoints, and afterwards the Z readout, one
matrix-vector product per block), so a step is two conjugation matmuls and the
superoperators: one more matmul for single-pair blocks.  The test suite checks
the kernel against gate-by-gate evolution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import qsim
from .noise import (NoiseSpec, check_specs, compile_noise, is_finite, is_int, is_real, CNOT_BIAS,
                    OVER_ROTATION_RX, OVER_ROTATION_RZ)
from .rng import stream


@dataclass
class QnrConfig:
    """Quantum reservoir instance: topology, input scaling, noise, seed."""

    n_qubits: int = 4
    input_scaling: float = math.pi
    noise: List[NoiseSpec] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        n = self.n_qubits
        if not (is_int(n) and n % 2 == 0 and 2 <= n <= qsim.MAX_QUBITS):
            raise ValueError(f"n_qubits must be an even integer in [2, {qsim.MAX_QUBITS}], "
                             f"got {n!r}")
        if not is_finite(self.input_scaling):
            raise ValueError(f"input_scaling must be a finite number, "
                             f"got {self.input_scaling!r}")
        check_specs(self.noise, n)


@dataclass
class EsnConfig:
    """Echo state network baseline parameters (uniform [0,1] weight draws)."""

    n_nodes: int = 50
    spectral_radius: float = 0.6
    input_scaling: float = 0.1
    internal_prob: float = 0.5
    input_prob: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not (is_int(self.n_nodes) and self.n_nodes >= 1):
            raise ValueError(f"n_nodes must be an integer >= 1, got {self.n_nodes!r}")
        if not (is_finite(self.spectral_radius) and self.spectral_radius >= 0.0):
            raise ValueError(f"spectral_radius must be a finite number >= 0, "
                             f"got {self.spectral_radius!r}")
        if not is_finite(self.input_scaling):
            raise ValueError(f"input_scaling must be a finite number, "
                             f"got {self.input_scaling!r}")
        for key in ("internal_prob", "input_prob"):
            p = getattr(self, key)
            if not (is_real(p) and 0.0 <= p <= 1.0):
                raise ValueError(f"{key} must be a number in [0, 1], got {p!r}")


@dataclass
class StateMatrix:
    """T x N matrix of reservoir readouts, time-ordered rows."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise ValueError("state matrix must be 2-D")
        if not np.isfinite(self.data).all():
            raise ValueError("state matrix contains NaN or Inf")

    @property
    def n_steps(self) -> int:
        return self.data.shape[0]

    @property
    def n_features(self) -> int:
        return self.data.shape[1]


# ---------------------------------------------------------------------------
# QNR simulation
# ---------------------------------------------------------------------------

def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two stacks of square matrices: (..., de, de)."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-1] * b.shape[-1],) * 2)


def _step_unitaries(config: QnrConfig, compiled, inputs: np.ndarray) -> np.ndarray:
    """(T, n/2, 4, 4) pair step unitaries for the whole input sequence.

    Pair p acts on qubits (i, j) = (2p, 2p+1) with RX_i, RX_j, CX, RZ_j, CX in
    chronological order; over-rotation scales the RX/RZ angles and CNOT bias
    turns CX into CRX(pi (1 + eps_j)), a matmul like CX's.  RZ_j enters as the
    diagonal phases it is.
    """
    n = config.n_qubits
    eps = compiled.sampled_epsilons
    sx = 1.0 + eps.get(OVER_ROTATION_RX, np.zeros(n))
    sz = 1.0 + eps.get(OVER_ROTATION_RZ, np.zeros(n))
    theta = config.input_scaling * inputs[:, None]
    cx = (qsim.crx_block(np.pi * (1.0 + eps[CNOT_BIAS][1::2])) if CNOT_BIAS in eps
          else qsim.CNOT_MATRIX)
    B = cx @ _kron(qsim.rx_matrix(theta * sx[0::2]), qsim.rx_matrix(theta * sx[1::2]))
    # I x RZ_j is diagonal: its product scales row (a, b) of B by RZ_j's phase b
    B *= np.tile(np.diagonal(qsim.rz_matrix(theta * sz[1::2]), axis1=-2, axis2=-1), 2)[..., None]
    return cx @ B


def _pair_superop(compiled, pair: int) -> np.ndarray:
    """16x16 superoperator of the decoherence channels on one pair, composed
    in spec order, acting on the row-major vectorized 4x4 pair state; the
    identity when no channel touches the pair."""
    L = None
    for _, kraus, targets in compiled.decoherence:
        for q in (2 * pair, 2 * pair + 1):
            if q in targets:
                K = np.asarray(kraus)
                on_pair = _kron(K, qsim.I2) if q % 2 == 0 else _kron(qsim.I2, K)
                Lq = _kron(on_pair, on_pair.conj()).sum(axis=0)
                L = Lq if L is None else Lq @ L
    return np.eye(16, dtype=complex) if L is None else L


# bytes of b * 4**m * 4**m complex entries that one chunk of steps may hold.
# A chunk's arrays stay below glibc's 128 KiB mmap threshold, so they reuse
# heap memory instead of faulting in fresh pages on every chunk (a 6-qubit
# register state alone is 64 KiB).
_CHUNK_BYTES = 1 << 16


def _chunk_steps(n_blocks: int, dim: int) -> int:
    """Steps per chunk for n_blocks blocks of dim x dim states: as many as fit
    the byte budget, at least 1."""
    return max(1, _CHUNK_BYTES // (n_blocks * dim * dim * 16))


def _evolve(steps: np.ndarray, superops: np.ndarray, entangler: Optional[np.ndarray],
            rho: np.ndarray) -> np.ndarray:
    """Z expectations (T, b, 2m) of the b blocks of m pairs in ``rho`` (b, 4**m, 4**m).

    ``rho`` stacks k states of nb blocks each, state-major, so block i takes
    its pair unitaries from ``steps[t]`` (nb, m, 4, 4) and its 16x16 pair
    superoperators from ``superops`` (nb or 1, m, 16, 16) at index i % nb.
    Each step conjugates every block by the kron of its pair unitaries, then by
    ``entangler`` unless it is None, and multiplies each pair's (ket, bra)
    axes by its superoperator.

    The steps run in chunks whose states fit ``_CHUNK_BYTES``.  Per chunk the
    block unitaries (kron, then entangler) and their adjoints are built at
    once; per step come the two conjugation matmuls and the superoperators:
    one matmul on the (16, 1) column of a single-pair block, or the per-pair
    contraction of a register block.  Either writes the step's states into
    the chunk's one state buffer, and after the chunk the Z readout of that
    buffer is one matrix-vector product per block.
    """
    T, nb, m = steps.shape[:3]
    d = 4**m
    rho = rho.reshape(-1, nb, d, d)
    b = len(rho) * nb
    signs = qsim.z_sign_matrix(2 * m)
    out = np.empty((T, b, 2 * m))
    L = _chunk_steps(b, d)
    w0, w1 = np.empty((2,) + rho.shape, dtype=complex)
    states = np.empty((L,) + rho.shape, dtype=complex)
    if m == 1:
        # the vectorized pair states as (16, 1) columns, for the superoperators
        col = rho.shape[:2] + (16, 1)
        superop, w1_cols, state_cols = superops[:, 0], w1.reshape(col), states.reshape((L,) + col)
    else:
        # axes (k, nb, ket pairs, bra pairs) with pair p's (ket, bra) moved to 2, 3
        to_front = [(0, 1, 2 + p, 2 + m + p) + tuple(a for a in range(2, 2 + 2 * m)
                                                   if a not in (2 + p, 2 + m + p))
                    for p in range(m)]
        perms = [(axes, tuple(np.argsort(axes))) for axes in to_front]
    for c in range(0, T, L):
        U = functools.reduce(_kron, np.moveaxis(steps[c:c + L], 2, 0))
        if entangler is not None:
            U = entangler @ U
        Uh = U.conj().swapaxes(-1, -2)
        for j in range(len(U)):
            np.matmul(U[j], rho, out=w0)
            np.matmul(w0, Uh[j], out=w1)
            if m == 1:
                np.matmul(superop, w1_cols, out=state_cols[j])
            else:
                tens = w1.reshape(rho.shape[:2] + (4,) * (2 * m))
                for p, (axes, back) in enumerate(perms):
                    moved = tens.transpose(axes)
                    tens = superops[:, p] @ moved.reshape(moved.shape[:2] + (16, -1))
                    tens = tens.reshape(moved.shape).transpose(back)
                states[j] = tens.reshape(rho.shape)
            rho = states[j]
        held = np.real(np.diagonal(states[:len(U)], axis1=-2, axis2=-1))
        # a matrix-vector product per block: gemm here would move the last bit
        readout = (signs @ held[..., None])[..., 0]
        out[c:c + len(U)] = readout.reshape(len(U), b, 2 * m)
    return out


def run_qnr(config: QnrConfig, inputs: Sequence[float],
            initial: Optional[np.ndarray] = None) -> StateMatrix:
    """Evolve the noisy reservoir over the input sequence.

    Row t of the result holds the Z expectation of every qubit after the
    perturbed circuit for u_t and the decoherence channels have acted.  The
    run is a pure function of (config, inputs, initial state).  ``initial``
    holds the states of the pairs (2p, 2p+1) the register starts in: one
    (n/2, 4, 4) state, by default |+> on every qubit, or a stack (k, n/2, 4, 4),
    whose result has k n columns, column block i the run from ``initial[i]``.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 1 or not inputs.size:
        raise ValueError(f"inputs have shape {inputs.shape}; expected a non-empty 1-D sequence")
    if not np.isfinite(inputs).all():
        raise ValueError("inputs must be finite")
    n, m = config.n_qubits, config.n_qubits // 2
    pairs = (np.broadcast_to(qsim.prepare_plus_state(2), (m, 4, 4)) if initial is None
             else np.asarray(initial))
    if pairs.ndim > 4 or pairs.shape[-3:] != (m, 4, 4):
        raise ValueError(f"initial state has shape {np.shape(initial)}; expected "
                         f"({m}, 4, 4) or (k, {m}, 4, 4) for {n} qubits")
    pairs = pairs.reshape((-1, m, 4, 4))
    compiled = compile_noise(config.noise, n, config.seed)
    steps = _step_unitaries(config, compiled, inputs)
    superops = np.array([_pair_superop(compiled, p) for p in range(m)])
    if compiled.entanglers:
        # entanglers couple qubits: each initial state is one register block
        ent = qsim.compile_unitary(compiled.entanglers, n)
        rho = functools.reduce(_kron, pairs.swapaxes(0, 1))
        data = _evolve(steps[:, None], superops[None], ent, rho)
    else:
        # each pair of each state is a block
        data = _evolve(steps[:, :, None], superops[:, None], None, pairs.reshape(-1, 4, 4))
    return StateMatrix(data.reshape(len(inputs), -1))


# ---------------------------------------------------------------------------
# ESN baseline
# ---------------------------------------------------------------------------

def esn_weights(config: EsnConfig):
    """Scaled internal and input weight draws for one ESN configuration.

    Both weight kinds are uniform [0, 1] masked by their connection
    probabilities; the internal matrix is normalized by its largest absolute
    eigenvalue before scaling by the spectral radius.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(config.seed))))
    N = config.n_nodes
    W = rng.uniform(0.0, 1.0, size=(N, N)) * (rng.uniform(size=(N, N)) < config.internal_prob)
    top = np.abs(np.linalg.eigvals(W)).max()
    if top > 0:
        W = W / top
    w_in = rng.uniform(0.0, 1.0, size=N) * (rng.uniform(size=N) < config.input_prob)
    return config.spectral_radius * W, config.input_scaling * w_in


def run_esn(config: EsnConfig, inputs: Sequence[float]) -> StateMatrix:
    """Echo state network: x_t = tanh(rho W x_{t-1} + iota w_in u_t)."""
    inputs = np.asarray(inputs, dtype=float)
    W, w_in = esn_weights(config)
    x = np.zeros(config.n_nodes)
    out = np.empty((len(inputs), config.n_nodes))
    for t, u in enumerate(inputs):
        x = np.tanh(W @ x + w_in * u)
        out[t] = x
    return StateMatrix(out)


# ---------------------------------------------------------------------------
# Harness: multiplexing, benchmark target, readout, scoring
# ---------------------------------------------------------------------------

def spatial_multiplex(matrices: Sequence[StateMatrix]) -> StateMatrix:
    """Concatenate reservoir features horizontally; all inputs share time."""
    if not matrices:
        raise ValueError("no state matrices to multiplex")
    steps = {m.n_steps for m in matrices}
    if len(steps) != 1:
        raise ValueError(f"time length mismatch across reservoirs: {sorted(steps)}")
    return StateMatrix(np.hstack([m.data for m in matrices]))


def narma2(inputs: Sequence[float]) -> np.ndarray:
    """Second-order NARMA target:
    y_t = 0.4 y_{t-1} + 0.4 y_{t-1} y_{t-2} + 0.6 (0.3 u_t)^3 + 0.1,
    seeded with y_{-1} = y_{-2} = 0."""
    u = np.asarray(inputs, dtype=float)
    if u.size and (u.min() < 0.0 or u.max() > 1.0):
        raise ValueError("narma2 inputs must lie in [0, 1]")
    # on Python floats, a third of the time of numpy scalars, to the same bits;
    # memoryviews yield and take them one at a time, without a list of them
    y = np.empty(len(u))
    out = memoryview(y)
    y1 = y2 = 0.0
    for t, ut in enumerate(memoryview(u)):
        ynew = 0.4 * y1 + 0.4 * y1 * y2 + 0.6 * (0.3 * ut) ** 3 + 0.1
        out[t] = ynew
        y2, y1 = y1, ynew
    return y


@dataclass
class Readout:
    """Trained linear readout with fit diagnostics."""

    weights: np.ndarray
    has_bias: bool
    residual_norm: float
    rank: int
    condition: float
    degenerate: bool = False

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self.has_bias:
            return X @ self.weights[:-1] + self.weights[-1]
        return X @ self.weights


# Relative singular-value cutoff of the readout's pseudo-inverse.
_SV_CUTOFF = 1e-10


def fit_readout(X: np.ndarray, y: Sequence[float], train_range: slice,
                add_bias: bool = True) -> Readout:
    """Minimum-norm least squares over the training rows.

    Solved through the SVD pseudo-inverse with a relative singular-value
    cutoff, so rank-deficient state matrices get the minimum-norm solution.
    An all-zero feature block is flagged as degenerate (bias, if enabled,
    still absorbs the target mean).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X and y must have matching time length")
    Xtr = X[train_range]
    ytr = y[train_range]
    if not len(ytr):
        raise ValueError(f"train_range {train_range} selects no rows")
    degenerate = not np.any(Xtr)
    if add_bias:
        Xtr = np.hstack([Xtr, np.ones((Xtr.shape[0], 1))])
    w, res, rank, sv = np.linalg.lstsq(Xtr, ytr, rcond=_SV_CUTOFF)
    resid = float(np.linalg.norm(Xtr @ w - ytr))
    kept = sv[sv > _SV_CUTOFF * sv[0]] if sv.size else sv
    cond = float(kept[0] / kept[-1]) if kept.size else np.inf
    return Readout(weights=w, has_bias=add_bias, residual_norm=resid,
                   rank=int(rank), condition=cond, degenerate=degenerate)


def nrmse(y: Sequence[float], yhat: Sequence[float],
          eval_range: Optional[slice] = None) -> float:
    """Root mean square error over the range, normalized by std(y) there."""
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if eval_range is not None:
        y = y[eval_range]
        yhat = yhat[eval_range]
        if not len(y):
            raise ValueError(f"eval_range {eval_range} selects no rows")
    sigma = np.std(y)
    if sigma == 0:
        raise ValueError("target has zero variance over the evaluation range")
    return float(np.sqrt(np.mean((y - yhat) ** 2)) / sigma)


# The noise masks, ascending, that include amplitude damping (bit 0); damping
# is the only kind that induces time-invariant capacity.
DAMPING_MASKS = tuple(m for m in range(1, 1024) if m & 1)


def benchmark_masks(instances: int) -> List[int]:
    """The first `instances` of ``DAMPING_MASKS``."""
    if not (is_int(instances) and 0 <= instances <= len(DAMPING_MASKS)):
        raise ValueError(f"instances must be at most {len(DAMPING_MASKS)}, the number of "
                         f"damping masks, and a non-negative integer; got {instances!r}")
    return list(DAMPING_MASKS[:instances])


# ---------------------------------------------------------------------------
# Echo state property probe
# ---------------------------------------------------------------------------

@dataclass
class EspProbe:
    """Decay of state differences across random initial conditions."""

    deltas: np.ndarray          # mean 2-norm difference per step, t = 0..T
    slope: float                # least-squares slope of log(delta) vs t
    fit_points: int             # samples used for the fit (pre-floor segment)


# State differences at or below this are roundoff: the decay fit stops there.
_ESP_FLOOR = 1e-13


def esp_probe(config: QnrConfig, inputs: Sequence[float], n_trials: int,
              initial_states: Optional[Sequence[Sequence[np.ndarray]]] = None) -> EspProbe:
    """Drive n_trials copies of the reservoir from random initial states.

    Trial m starts from n/2 Haar-random pair product states drawn in turn from
    the ("esp", "init", m) stream; ``initial_states`` replaces them with one
    list of n/2 (4, 4) pair states per trial.  All trials run as one stack of
    pair states in one ``run_qnr`` call.
    Returns the averaged state difference against the first trajectory,
    delta_t = mean_m ||x_t^(m) - x_t^(1)||_2, plus the fitted log-decay
    slope per step.  The fit stops where the curve hits the numerical floor.
    """
    if n_trials < 2:
        raise ValueError("esp_probe needs at least 2 trials")
    inputs = np.asarray(inputs, dtype=float)
    if initial_states is None:
        rngs = [stream(config.seed, "esp", "init", m) for m in range(n_trials)]
        initial_states = [[qsim.haar_product_state(2, rng) for _ in range(config.n_qubits // 2)]
                          for rng in rngs]
    if len(initial_states) != n_trials:
        raise ValueError("need one initial state per trial")
    pairs = np.array(initial_states)
    data = run_qnr(config, inputs, initial=pairs).data
    # trial m's trajectory from x_0 on; C order, so the mean adds trials in turn
    trajs = np.empty((n_trials, len(inputs) + 1, config.n_qubits))
    trajs[:, 0] = [np.concatenate([qsim.expect_all_z(p) for p in s]) for s in pairs]
    trajs[:, 1:] = data.reshape(len(inputs), n_trials, -1).swapaxes(0, 1)
    deltas = np.mean(np.linalg.norm(trajs[1:] - trajs[0], axis=2), axis=0)
    good = deltas > _ESP_FLOOR
    # fit on the initial contiguous pre-floor segment
    stop = int(np.argmin(good)) if not good.all() else len(deltas)
    tgrid = np.arange(stop)
    if stop >= 2 and deltas[:stop].min() > 0:
        slope = float(np.polyfit(tgrid, np.log(deltas[:stop]), 1)[0])
    else:
        slope = float("nan")
    return EspProbe(deltas=deltas, slope=slope, fit_points=stop)
