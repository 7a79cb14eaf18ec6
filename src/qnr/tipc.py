"""Temporal information processing capacity (TIPC) analysis.

The pipeline: rank-normalize a state matrix through a compact SVD, expand
the normalized states in orthonormal polynomial bases built from input
history and normalized-state history, project to get one capacity per
basis term, truncate against a noise threshold, and aggregate totals per
degree, split into time-invariant (input-only) and time-variant
(state-history) parts.  Capacities are held as arrays: ``capacities``
returns one float64 per term, in term order, and a ``CapacityProfile``
keeps the term list, that array, a bool mask of the truncated terms and
the per-degree totals.

Settings.  ``TipcSettings`` holds the ``tipc:`` config keys of the analysis
and ``analyze_states`` validates it; the inputs' declared range and kind
come with the inputs, as keyword arguments.

Conventions.  State row t is aligned with input u_t: the row was measured
after the circuit consumed u_t, so the expansion's delay-1 factor refers
to u_t itself.  Internally terms carry expansion delays s >= 1; emitted
labels count back from u_t, i.e. "u[t-d]" with d = s - 1.  States are
column-centered before the SVD and every basis is orthogonalized against
the constant, which is what makes the chi-squared error model for the
capacities of uninformative terms apply.

Solver.  ``orthonormalize`` takes only the basis: the constant always comes
first and the drop floor is ``_DROP_TOL``.  It factors a tall,
well-conditioned basis by Cholesky of its Gram matrix, which reads the
column-major basis in place; any other basis, or one whose Gram factor
fails its condition or pivot check, by one LAPACK Householder QR; and falls
back to modified Gram-Schmidt when a QR pivot lies under twice the drop
floor, so keep/drop decisions are Gram-Schmidt's.  Q is never formed:
``capacities`` applies Q^T from the factor.  The solvers call seven
compiled functions of scipy (``dsyrk``, ``dpotrf``, ``dtrcon``, ``dtrtrs``,
``dgeqrf``, ``dgeqrf_lwork``, ``dormqr``), which ``_blas_lapack`` loads on
first use from scipy's ``linalg/_fblas`` and ``linalg/_flapack`` extension
files: every ``qnr`` command imports this module, and ``train``, ``esp``
and ``simulate`` never call them.  That load, ``import scipy`` included,
takes 0.016-0.019 s and 4 MiB after numpy (2-core Xeon VM, scipy 1.17).
The ``scipy.linalg`` package, which holds the public wrappers, would cost
another 0.18-0.28 s and 22 MiB per process, mostly because scipy's
array-API shim imports ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``.  ``scipy.special`` is not used: the
Legendre polynomials and the chi-squared quantile are ported to numpy and
``math`` below.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .noise import is_int, is_real
from .reservoir import StateMatrix

# State directions with singular value below this times the largest are dropped.
_SV_CUTOFF = 1e-10


@dataclass
class NormalizedStates:
    """Orthonormal time courses of the linearly independent state directions."""

    P: np.ndarray                 # T x r, orthonormal columns, zero column means
    singular_values: np.ndarray   # all singular values of the centered matrix
    rank: int


def normalize_states(X: np.ndarray, abs_floor: Optional[float] = None) -> NormalizedStates:
    """Center columns and compact-SVD the state matrix X = P S Q^T.

    Columns of P with singular value below max(_SV_CUTOFF * sigma_max,
    abs_floor) are dropped; the default absolute floor 1e-8 * sqrt(T)
    classifies roundoff-scale state matrices (the noiseless reservoir) as
    rank zero.  P column signs are fixed by making each column's
    largest-magnitude entry positive.
    """
    X = X.data if isinstance(X, StateMatrix) else np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("state matrix must be 2-D")
    if not np.isfinite(X).all():
        raise ValueError("state matrix contains NaN or Inf")
    T = X.shape[0]
    if abs_floor is None:
        abs_floor = 1e-8 * np.sqrt(T)
    Xc = X - X.mean(axis=0)
    if not np.any(Xc):
        return NormalizedStates(np.empty((T, 0)), np.zeros(0), 0)
    P, sv, _ = np.linalg.svd(Xc, full_matrices=False)
    keep = sv >= max(_SV_CUTOFF * sv[0], abs_floor)
    r = int(np.sum(keep))
    P = P[:, :r]
    for k in range(r):
        col = P[:, k]
        if col[np.argmax(np.abs(col))] < 0:
            P[:, k] = -col
    return NormalizedStates(P, sv, r)


@dataclass(frozen=True)
class BasisTerm:
    """One product basis of input and normalized-state history.

    ``input_exponents`` maps expansion delay s >= 1 (s = 1 is u_t) to its
    exponent; ``state_exponents`` maps (feature k, delay s >= 1) to its
    exponent.  ``family`` picks raw powers or Legendre polynomials for the
    input factors; state factors are always raw powers.
    """

    input_exponents: Tuple[Tuple[int, int], ...] = ()
    state_exponents: Tuple[Tuple[int, int, int], ...] = ()
    family: str = "monomial"

    @property
    def input_order(self) -> int:
        return sum(e for _, e in self.input_exponents)

    @property
    def state_order(self) -> int:
        return sum(e for _, _, e in self.state_exponents)

    @property
    def degree(self) -> int:
        return self.input_order + self.state_order

    @property
    def max_delay(self) -> int:
        delays = [s for s, _ in self.input_exponents]
        delays += [s for _, s, _ in self.state_exponents]
        return max(delays) if delays else 0

    @property
    def is_time_invariant(self) -> bool:
        return self.state_order == 0

    def label(self) -> str:
        """Human-readable label; delays count back from u_t (delay 0)."""
        parts = []
        for s, e in self.input_exponents:
            d = s - 1
            arg = "u[t]" if d == 0 else f"u[t-{d}]"
            if self.family == "legendre":
                parts.append(f"P{e}({arg})")
            else:
                parts.append(arg if e == 1 else f"{arg}^{e}")
        for k, s, e in self.state_exponents:
            base = f"x{k + 1}[t-{s}]"
            parts.append(base if e == 1 else f"{base}^{e}")
        return " ".join(parts)


def enumerate_bases(max_degree: int, max_input_delay: int, max_state_delay: int,
                    rank: int, family: str = "monomial",
                    term_cap: int = 20000) -> List[BasisTerm]:
    """All terms with input order + state order <= max_degree, in the fixed
    evaluation order: ascending (degree, state order, max delay, reverse-
    lexicographic exponent tuples).

    The enumeration is cached per argument set (the per-qubit re-analyses
    of ``qnr tipc`` repeat it); each call returns a new list.
    """
    return list(_enumerate_bases(max_degree, max_input_delay, max_state_delay,
                                 rank, family, term_cap))


@functools.lru_cache(maxsize=16)
def _enumerate_bases(max_degree: int, max_input_delay: int, max_state_delay: int,
                     rank: int, family: str, term_cap: int) -> Tuple[BasisTerm, ...]:
    if max_degree < 1 or max_input_delay < 1:
        raise ValueError("max_degree and max_input_delay must be >= 1")
    if family not in ("monomial", "legendre"):
        raise ValueError(f"unknown basis family {family!r}")
    # (feature k, or None for the input; delay s), in the sort key's order
    variables = [(None, s) for s in range(1, max_input_delay + 1)]
    variables += [(k, s) for s in range(1, max_state_delay + 1) for k in range(rank)]
    keyed = []
    for degree in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(len(variables)), degree):
            neg = [0] * len(variables)
            for vi in combo:
                neg[vi] -= 1
            inp, sta = [], []
            for vi in dict.fromkeys(combo):
                k, s = variables[vi]
                if k is None:
                    inp.append((s, -neg[vi]))
                else:
                    sta.append((k, s, -neg[vi]))
            term = BasisTerm(input_exponents=tuple(inp),
                             state_exponents=tuple(sorted(sta)), family=family)
            state_order = degree - sum(e for _, e in inp)
            max_delay = max(variables[vi][1] for vi in combo)
            keyed.append(((degree, state_order, max_delay, tuple(neg)), term))
            if len(keyed) > term_cap:
                raise ValueError(
                    f"basis enumeration exceeds the term cap ({term_cap}); "
                    "reduce max_degree or the delay windows")
    keyed.sort(key=lambda pair: pair[0])
    return tuple(term for _, term in keyed)


def evaluate_bases(terms: Sequence[BasisTerm], inputs: np.ndarray, input_offset: int,
                   xhat: Optional[np.ndarray] = None, start_row: int = 0,
                   n_rows: Optional[int] = None,
                   input_range: Tuple[float, float] = (-1.0, 1.0)) -> np.ndarray:
    """Basis time series over state rows [start_row, start_row + n_rows).

    ``inputs[input_offset + i]`` is the input consumed by state row i, so the
    expansion delay-s factor of row i reads ``inputs[input_offset + i - s + 1]``.
    Legendre input factors are evaluated after affinely mapping the declared
    input range onto [-1, 1]; state factors read raw powers of ``xhat``, the
    delay-s one of row i at ``xhat[i - s]``, so no state delay may exceed
    ``start_row``.  Each distinct factor is evaluated once per call and shared
    by the terms that contain it.  The result is column-major, so each term's
    column is contiguous for the solvers of ``orthonormalize``.
    """
    inputs = np.asarray(inputs, dtype=float)
    if xhat is not None and n_rows is None:
        n_rows = xhat.shape[0] - start_row
    if n_rows is None:
        raise ValueError("n_rows required when no normalized states are given")
    max_in_delay = max((s for t in terms for s, _ in t.input_exponents), default=1)
    first = input_offset + start_row - max_in_delay + 1
    end = input_offset + start_row + n_rows
    if first < 0:
        raise ValueError("not enough input history for the requested delays")
    if end > len(inputs):
        raise ValueError(f"inputs of shape {inputs.shape} are too short for {n_rows} state "
                         f"rows from row {start_row} at input_offset {input_offset}: "
                         f"they need {end} inputs")
    if not np.isfinite(inputs[first:end]).all():
        raise ValueError(f"inputs of shape {inputs.shape} hold NaN or Inf in the window "
                         f"[{first}, {end}) that {n_rows} state rows read")
    lo, hi = input_range
    legendre = any(t.family == "legendre" for t in terms)
    if legendre:
        if inputs.min() < lo - 1e-12 or inputs.max() > hi + 1e-12:
            raise ValueError(
                f"inputs outside declared range [{lo}, {hi}]: "
                f"[{inputs.min():.6g}, {inputs.max():.6g}]")
        scaled = (2.0 * inputs - (lo + hi)) / (hi - lo)
    else:
        scaled = inputs

    out = np.empty((n_rows, len(terms)), order="F")
    rows = np.arange(start_row, start_row + n_rows)
    factors: Dict[tuple, np.ndarray] = {}   # (s, e, family) or (k, s, e)
    for j, term in enumerate(terms):
        fs = []
        for s, e in term.input_exponents:
            key = (s, e, term.family)
            if key not in factors:
                seg_idx = input_offset + rows - s + 1
                factors[key] = (_legendre(e, scaled[seg_idx])
                                if term.family == "legendre" else inputs[seg_idx] ** e)
            fs.append(factors[key])
        for k, s, e in term.state_exponents:
            if xhat is None:
                raise ValueError("state-history term without normalized states")
            key = (k, s, e)
            if key not in factors:
                if s > start_row:
                    raise ValueError(
                        f"state-history delay {s} exceeds start_row {start_row}: "
                        "not enough state history for the requested delays")
                factors[key] = xhat[rows - s, k] ** e
            fs.append(factors[key])
        col = out[:, j]
        col[:] = fs[0] if fs else 1.0
        for f in fs[1:]:
            col *= f
    return out


def _legendre(n: int, x: np.ndarray) -> np.ndarray:
    """Legendre polynomial P_n(x) for n >= 1, as ``scipy.special.eval_legendre``
    computes it for an integer degree.

    The recurrence on d_k = P_k - P_{k-1} is bit-identical to scipy's.  For
    |x| < 1e-5, where it loses precision, scipy sums the power series about
    0; so does this, from the same leading coefficient, which is exact
    except at n = 2, where scipy's beta(2, -1/2) rounds to the literal below.
    That is bit-identical to scipy for n <= 6 and within 2e-16 above.
    """
    if n == 1:
        return x.copy()
    xm1 = x - 1.0
    d, p, t = xm1.copy(), x.copy(), np.empty_like(x)
    for k in range(1, n):
        k = float(k)
        # d = ((2k + 1)/(k + 1)) (x - 1) p + (k/(k + 1)) d, in scipy's order,
        # in place: a temporary per operation costs more than the arithmetic
        np.multiply((2.0 * k + 1.0) / (k + 1.0), xm1, out=t)
        t *= p
        d *= k / (k + 1.0)
        d += t
        p += d
    small = np.abs(x) < 1e-5
    if small.any():
        xs = x[small]
        a = n // 2
        sign = 1.0 if a % 2 == 0 else -1.0
        if n % 2 == 0:
            # beta(a + 1, -1/2) = -2 4^a (a!)^2 / (2a)!
            beta = (-3.9999999999999996 if a == 1 else
                    -2 * 4 ** a * math.factorial(a) ** 2 / math.factorial(2 * a))
            d = np.full_like(xs, sign * (-2.0 / beta))
        else:
            # beta(a + 1, 1/2) = 4^(a+1) a! (a+1)! / (2a+2)!
            beta = (4 ** (a + 1) * math.factorial(a) * math.factorial(a + 1)
                    / math.factorial(2 * a + 2))
            d = sign * (2.0 * xs / beta)
        ps = np.zeros_like(xs)
        for k in range(a + 1):
            ps += d
            d *= -2.0 * xs ** 2 * (a - k) * (2 * n + 1 - 2 * a + 2 * k)
            d /= (n + 1 - 2 * a + 2 * k) * (n + 2 - 2 * a + 2 * k)
        p[small] = ps
    return p


# A column is dropped when its component orthogonal to the constant and the
# kept columns has norm below this times sqrt(T).
_DROP_TOL = 1e-8
# Columns per matrix-product block of the Gram-Schmidt solver.
_GS_BLOCK = 64
# The Gram/Cholesky solver squares the basis's condition number, so it is
# taken only while the condition estimate of its column-equilibrated factor
# is at most this: eps * 64**2 = 9.1e-13.
_GRAM_MAX_COND = 64.0
# ... and only with at least this many rows per column.  Nearer square, a
# 164-term Legendre basis of uniform inputs already fails the condition bound
# (its estimate is 68 at 4 rows per column, 36 at 6), so the Gram matrix
# would be formed for nothing before the QR.
_GRAM_MIN_ROWS_PER_COLUMN = 8


@functools.lru_cache(maxsize=None)
def _blas_lapack():
    """scipy's compiled BLAS and LAPACK wrappers, as the modules (blas, lapack).

    They are loaded from their files under their own dotted names, without
    running ``scipy/linalg/__init__.py``.  CPython keeps one copy of such an
    extension per (name, file), so a later ``import scipy.linalg`` finds
    these modules and its ``blas.dsyrk`` and ``lapack.dgeqrf`` are the same
    functions.
    """
    import scipy
    where = os.path.join(scipy.__path__[0], "linalg")
    modules = []
    for name in ("_fblas", "_flapack"):
        paths = [os.path.join(where, name + suffix)
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            raise ImportError(f"no {name} extension in {where} (scipy {scipy.__version__})")
        spec = importlib.util.spec_from_file_location(f"scipy.linalg.{name}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        modules.append(module)
    return tuple(modules)


@dataclass
class Orthonormalized:
    """Result of the sequential orthonormalization of the basis matrix.

    ``kept`` and ``dropped`` index the basis columns.  The kept vectors
    (constant excluded) are held as the factor of the solver that took the
    basis: ``("cholesky", A, R)``, the basis A itself and the upper
    triangular R of [constant | A] = Q R; ``("householder", F, tau)``,
    LAPACK's QR of [constant | kept columns]; or ``("gram_schmidt", Q)``.
    ``project`` is the one way to read them.
    """

    kept: List[int]
    dropped: List[int]
    _factor: tuple = field(repr=False)

    @property
    def n_rows(self) -> int:
        return self._factor[1].shape[0]

    def project(self, P: np.ndarray) -> np.ndarray:
        """Q^T P: coefficients of P's columns on the kept vectors (n_kept x r)."""
        kind, *factor = self._factor
        if kind == "gram_schmidt":
            return factor[0].T @ P
        _, lapack = _blas_lapack()
        if kind == "householder":
            F, tau = factor
            lwork = int(lapack.dormqr("L", "T", F, tau, P, -1)[1][0])
            QtP, _, _ = lapack.dormqr("L", "T", F, tau, P, lwork)
            return QtP[1:F.shape[1]]
        # R^-T F^T P, with F^T P from P's column sums and A^T P
        A, R = factor
        FtP = np.empty((R.shape[0], P.shape[1]), order="F")
        FtP[0] = P.sum(axis=0) / np.sqrt(A.shape[0])
        FtP[1:] = A.T @ P
        QtP, _ = lapack.dtrtrs(R, FtP, trans=1, overwrite_b=1)
        return QtP[1:]


def orthonormalize(basis: np.ndarray) -> Orthonormalized:
    """Sequential orthonormalization of the columns after the constant.

    A column is dropped as linearly dependent when its component orthogonal
    to the constant and to every earlier kept column has norm below
    ``_DROP_TOL * sqrt(T)``; once T vectors are kept (the constant included)
    they span R^T and every later column is dropped.  The constant centers
    every retained basis but is not reported.

    Three solvers are tried in turn; the first whose checks pass takes the
    basis:

    1. Gram/Cholesky, for a tall basis (at least
       ``_GRAM_MIN_ROWS_PER_COLUMN`` rows per column, so it cannot saturate
       R^T): Cholesky of the column-equilibrated Gram matrix of the constant
       and the basis, formed without copying the basis.  It passes when the
       factorization succeeds, its condition estimate is at most
       ``_GRAM_MAX_COND`` and every pivot R_jj (constant excluded) is at
       least twice the floor; then every column is kept.
    2. LAPACK Householder QR of the constant and the leading min(B, T - 1)
       columns.  It passes when every |R_jj| (constant excluded) is at
       least twice the floor; those columns are kept and the rest dropped.
    3. Modified Gram-Schmidt on the whole basis (``_GS_BLOCK`` columns per
       matrix product, one re-orthogonalization pass), which applies the
       drop rule column by column.

    Real bases drop nothing before they saturate R^T.  Where 1 or 2 passes,
    Gram-Schmidt decides the same, because their pivots agree to rounding
    far inside the factor two; the condition bound keeps the Gram's squared
    conditioning to ~1e-12 relative.
    """
    A = np.asarray(basis, dtype=float)
    T, _ = A.shape
    if T == 0:
        raise ValueError(f"basis has no rows (shape {A.shape})")
    floor = _DROP_TOL * np.sqrt(T)
    return _cholesky(A, floor) or _householder(A, floor) or _gram_schmidt(A, floor)


def _cholesky(A: np.ndarray, floor: float) -> Optional[Orthonormalized]:
    """Solver 1 of ``orthonormalize``, or None where its gate fails.

    The Gram matrix of [constant | A] is A^T A from dsyrk, which reads a
    column-major A in place and a row-major one as its transpose, bordered
    by A's column sums.  Its columns are scaled to unit norm before the
    factorization, so that the condition estimate sees the directions of
    the basis, not the scales of its columns.  Comparisons are written so
    that NaN fails them.
    """
    T, B = A.shape
    if B == 0 or T < _GRAM_MIN_ROWS_PER_COLUMN * B:
        return None
    blas, lapack = _blas_lapack()
    a, trans = (A, 1) if A.flags.f_contiguous else (A.T, 0)
    G = np.zeros((1 + B, 1 + B), order="F")
    G[1:, 1:] = blas.dsyrk(1.0, a, trans=trans)
    G[0, 0] = 1.0
    G[0, 1:] = A.sum(axis=0) / np.sqrt(T)
    norms = np.sqrt(np.diagonal(G))
    # a pivot never exceeds its column's norm
    if not norms[1:].min() >= 2.0 * floor:
        return None
    R, info = lapack.dpotrf(G / norms / norms[:, None], overwrite_a=1)
    if info != 0 or not lapack.dtrcon(R)[0] * _GRAM_MAX_COND >= 1.0:
        return None
    R *= norms
    if not np.diagonal(R)[1:].min() >= 2.0 * floor:
        return None
    return Orthonormalized(kept=list(range(B)), dropped=[],
                           _factor=("cholesky", A, R))


def _householder(A: np.ndarray, floor: float) -> Optional[Orthonormalized]:
    """Solver 2 of ``orthonormalize``, or None where its gate fails."""
    T, B = A.shape
    m = min(B, T - 1)
    if m == 0:
        return None
    _, lapack = _blas_lapack()
    F = np.empty((T, 1 + m), order="F")
    F[:, 0] = 1.0 / np.sqrt(T)
    F[:, 1:] = A[:, :m]
    # the lwork=-1 query of dgeqrf would copy the whole matrix
    lwork = int(lapack.dgeqrf_lwork(T, 1 + m)[0])
    F, tau, _, _ = lapack.dgeqrf(F, lwork=lwork, overwrite_a=1)
    if np.abs(np.diagonal(F)[1:]).min() < 2.0 * floor:
        return None
    return Orthonormalized(kept=list(range(m)), dropped=list(range(m, B)),
                           _factor=("householder", F, tau))


def _gram_schmidt(A: np.ndarray, floor: float) -> Orthonormalized:
    """Blocked modified Gram-Schmidt with the drop rule of ``orthonormalize``.

    Columns are processed in blocks so the projections run as matrix
    products, which changes nothing about the result beyond float rounding.
    Stopping at T kept vectors changes no decision at sane scales: a later
    column's residual is roundoff, ~1e-16 of its norm, which stays under
    the floor unless the norm nears 1e8 * sqrt(T).  Above that the stop
    keeps roundoff from passing as more than T orthonormal vectors.  Q is
    column-major, so its leading columns are contiguous for the block
    projections.
    """
    T, B = A.shape
    Q = np.empty((T, min(B + 1, T)), order="F")
    Q[:, 0] = 1.0 / np.sqrt(T)
    k = 1
    kept: List[int] = []
    dropped: List[int] = []
    for j0 in range(0, B, _GS_BLOCK):
        if k == T:
            dropped.extend(range(j0, B))
            break
        blk = A[:, j0:j0 + _GS_BLOCK].copy(order="F")
        for _ in range(2):
            blk -= Q[:, :k] @ (Q[:, :k].T @ blk)
        k_block = k
        for c in range(blk.shape[1]):
            if k == T:
                dropped.append(j0 + c)
                continue
            v = blk[:, c]
            for _ in range(2):
                if k > k_block:
                    qs = Q[:, k_block:k]
                    v = v - qs @ (qs.T @ v)
            nv = np.linalg.norm(v)
            if nv < floor:
                dropped.append(j0 + c)
                continue
            Q[:, k] = v / nv
            kept.append(j0 + c)
            k += 1
    return Orthonormalized(kept=kept, dropped=dropped,
                           _factor=("gram_schmidt", Q[:, 1:k]))


def capacities(P: np.ndarray, ortho: Orthonormalized) -> np.ndarray:
    """C_i = ||P^T xi_i||^2 for each basis column, in column order; dropped
    columns get 0."""
    if ortho.n_rows != P.shape[0]:
        raise ValueError("basis rows and state rows are misaligned")
    caps = np.zeros(len(ortho.kept) + len(ortho.dropped))
    if ortho.kept:
        G = ortho.project(P)         # n_kept x r
        caps[ortho.kept] = np.sum(G * G, axis=1)
    return caps


def chi2_threshold(T: int, r: int, p: float = 1e-4, sigma: float = 2.0) -> float:
    """sigma times the top-p quantile of the chi^2(r)/T capacity error model."""
    if T <= 0:
        raise ValueError("T must be positive")
    if r != int(r) or r < 1:
        raise ValueError(f"threshold needs an integer rank >= 1, got {r!r}")
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    return sigma * _chi2_quantile(p, int(r)) / T


def _chi2_sf(x: float, r: int) -> float:
    """P(chi^2(r) > x) for an integer r >= 1, in closed form: with h = x/2,
    e^-h sum_{k < r/2} h^k / k! for even r, and erfc(sqrt(h)) +
    e^-h sqrt(2x/pi) (1 + x/3 + x^2/15 + ...), (r - 1)/2 terms, for odd r.

    The sum is rescaled by 2^-900 whenever it passes 1e300, so that large
    ranks neither overflow it nor underflow e^-h.
    """
    h = 0.5 * x
    even = r % 2 == 0
    head, weight = (0.0, 1.0) if even else (math.erfc(math.sqrt(h)),
                                            math.sqrt(2.0 * x / math.pi))
    series, term, shift = 0.0, 1.0, 0
    for k in range(1, r // 2 + 1):
        series += term
        term *= h / k if even else x / (2 * k + 1)
        if series > 1e300:
            series, term, shift = series * 2.0 ** -900, term * 2.0 ** -900, shift + 900
    return head + math.exp(shift * math.log(2.0) - h) * weight * series


def _chi2_cdf(x: float, r: int) -> float:
    """P(chi^2(r) <= x) for x > 0 from the lower-tail series: with h = x/2
    and a = r/2, e^-h sum_{k >= 0} h^(a+k) / Gamma(a+k+1).

    Where ``_chi2_quantile`` reads it, below the median, h < a + 1, so the
    terms shrink from the first and the series converges geometrically.
    """
    h, a = 0.5 * x, 0.5 * r
    series, term, k = 1.0, 1.0, 0
    while True:
        k += 1
        term *= h / (a + k)
        if series + term == series:
            return math.exp(a * math.log(h) - h - math.lgamma(a + 1.0)) * series
        series += term


def _chi2_quantile(p: float, r: int) -> float:
    """The x with P(chi^2(r) > x) = p: bisection until the bracket stops
    shrinking (at most 54 steps for r = 1-64 and 1e-6 <= p <= 0.5; 112 at
    r = 1 and p = 1 - 1e-9).

    For p <= 0.5 the predicate is ``_chi2_sf`` against p.  Above, the
    survival function rounds near 1 and would lose the root's digits, so it
    is ``_chi2_cdf`` against 1 - p, which is exact there.  For r = 1-64 the
    root is within 3.4e-16 relative of the 40-digit root for 1e-6 <= p <=
    0.5 (``scipy.special.chdtri`` errs by up to 1.8e-14 there) and within
    4.3e-15 for 0.6 <= p <= 1 - 1e-9 (chdtri: 2.8e-15).
    """
    q = 1.0 - p

    def below(x: float) -> bool:
        return _chi2_sf(x, r) > p if p <= 0.5 else _chi2_cdf(x, r) < q

    lo, hi = 0.0, float(r)
    while below(hi):
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if below(mid):
            lo = mid
        else:
            hi = mid


def shuffle_surrogate_threshold(inputs: np.ndarray, input_offset: int,
                                terms: Sequence[BasisTerm], P: np.ndarray,
                                rng: np.random.Generator,
                                xhat: Optional[np.ndarray] = None,
                                start_row: int = 0,
                                input_range: Tuple[float, float] = (-1.0, 1.0),
                                n_surrogates: int = 200,
                                sigma: float = 1.2) -> float:
    """Threshold from time-shuffled inputs: sigma * max surrogate capacity.

    Each surrogate permutes the input sequence, re-evaluates and
    re-orthonormalizes all bases, and records the largest capacity seen.
    Only terms containing an input factor enter the maximum: a pure
    state-history term is unchanged by the shuffle, so it would place the
    threshold above its own true capacity.
    """
    if n_surrogates < 1:
        raise ValueError("need at least one surrogate")
    inputs = np.asarray(inputs, dtype=float)
    n_rows = P.shape[0]
    eligible = np.array([t.input_order > 0 for t in terms], dtype=bool)
    worst = 0.0
    for _ in range(n_surrogates):
        shuffled = inputs[rng.permutation(len(inputs))]
        # no local holds the basis: it is freed before the next one is built
        caps = capacities(P, orthonormalize(evaluate_bases(
            terms, shuffled, input_offset, xhat=xhat, start_row=start_row,
            n_rows=n_rows, input_range=input_range)))
        worst = max(worst, caps[eligible].max(initial=0.0))
    return float(sigma * worst)


@dataclass
class CapacityProfile:
    """Truncated capacity decomposition of one reservoir or target.

    ``capacity[j]`` and ``truncated[j]`` belong to ``terms[j]``.
    """

    terms: Sequence[BasisTerm]
    capacity: np.ndarray          # float64, one per term
    truncated: np.ndarray         # bool, capacity < threshold
    rank: int
    threshold: float
    threshold_params: Dict[str, float] = field(default_factory=dict)
    tiv_by_degree: Dict[int, float] = field(default_factory=dict)
    tv_by_degree: Dict[int, float] = field(default_factory=dict)

    @property
    def c_tot(self) -> float:
        return self.c_tiv_tot + self.c_tv_tot

    @property
    def c_tiv_tot(self) -> float:
        return sum(self.tiv_by_degree.values(), 0.0)

    @property
    def c_tv_tot(self) -> float:
        return sum(self.tv_by_degree.values(), 0.0)

    def degrees(self) -> List[int]:
        return sorted(set(self.tiv_by_degree) | set(self.tv_by_degree))


def profile(terms: Sequence[BasisTerm], caps: np.ndarray, threshold: float, rank: int,
            threshold_params: Optional[Dict[str, float]] = None) -> CapacityProfile:
    """Apply threshold truncation and aggregate per input order d.

    A term contributes its capacity when C >= C_th and zero otherwise; the
    per-degree bin is the term's input order N_j, with time-invariant
    (M_j = 0) and time-variant (M_j > 0) terms aggregated separately.  Each
    bin is a left-to-right sum in term order, and holds a degree only if one
    of its terms survives.
    """
    caps = np.asarray(caps, dtype=float)
    truncated = caps < threshold
    tiv: Dict[int, float] = {}
    tv: Dict[int, float] = {}
    values = caps.tolist()
    for j in np.flatnonzero(~truncated).tolist():
        term = terms[j]
        bins = tiv if term.is_time_invariant else tv
        d = term.input_order
        bins[d] = bins.get(d, 0.0) + values[j]
    return CapacityProfile(terms=terms, capacity=caps, truncated=truncated,
                           rank=rank, threshold=threshold,
                           threshold_params=dict(threshold_params or {}),
                           tiv_by_degree=tiv, tv_by_degree=tv)


@dataclass
class TipcSettings:
    """Analysis keys of the ``tipc:`` config section, under its YAML names and
    defaults; ``config.TipcSpec`` adds the analysis window to them."""

    max_degree: int = 3
    max_input_delay: int = 20
    max_state_delay: int = 2
    p: float = 1e-4
    sigma: float = 2.0
    family: str = "auto"           # auto | monomial | legendre
    threshold: str = "chi2"        # chi2 | surrogate
    surrogates: int = 200
    surrogate_sigma: float = 1.2
    term_cap: int = 20000

    def validate(self):
        """Raise ValueError naming the first bad key as ``tipc.<key>``."""
        if self.family not in ("auto", "monomial", "legendre"):
            raise ValueError(f"tipc.family invalid: {self.family!r}")
        if self.threshold not in ("chi2", "surrogate"):
            raise ValueError(f"tipc.threshold invalid: {self.threshold!r}")
        for key in ("max_degree", "max_input_delay", "surrogates", "term_cap"):
            value = getattr(self, key)
            if not (is_int(value) and value >= 1):
                raise ValueError(f"tipc.{key} must be an integer >= 1, got {value!r}")
        if not (is_int(self.max_state_delay) and self.max_state_delay >= 0):
            raise ValueError(f"tipc.max_state_delay must be an integer >= 0, "
                             f"got {self.max_state_delay!r}")
        # a sigma <= 0 would make a threshold <= 0, keeping every term, noise included
        for key, high in (("p", 1.0), ("sigma", math.inf), ("surrogate_sigma", math.inf)):
            value = getattr(self, key)
            if not (is_real(value) and 0.0 < value < high):
                # YAML 1.1 reads an exponent without a decimal point as a string
                hint = (f"; YAML reads {value} as a string, write a decimal point as in "
                        "1.0e-4" if isinstance(value, str) else "")
                raise ValueError(f"tipc.{key} must be a number in (0, {high:g}), "
                                 f"got {value!r}{hint}")


def analyze_states(states, inputs: np.ndarray, input_offset: int,
                   settings: TipcSettings,
                   surrogate_rng: Optional[np.random.Generator] = None, *,
                   input_range: Tuple[float, float] = (0.0, 1.0),
                   input_uniform: bool = True) -> CapacityProfile:
    """Full TIPC profile of a state matrix against its input sequence.

    ``input_offset`` positions the states in the input array: state row i
    consumed ``inputs[input_offset + i]``, and earlier entries provide the
    delay history; family ``auto`` means Legendre if ``input_uniform``.
    With state-history terms enabled, the first ``max_state_delay`` rows only
    serve as history and the capacities are measured against the remaining
    rows, re-orthonormalized.
    """
    settings.validate()
    X = states.data if isinstance(states, StateMatrix) else np.asarray(states, dtype=float)
    ns = normalize_states(X)
    if ns.rank == 0:
        return profile([], np.zeros(0), float("nan"), 0)
    lx = settings.max_state_delay
    T_eval = X.shape[0] - lx
    if settings.threshold == "surrogate":
        if surrogate_rng is None:
            raise ValueError("surrogate threshold needs an rng")
        params = {"mode": "surrogate", "n_surrogates": settings.surrogates,
                  "sigma": settings.surrogate_sigma}
    else:
        params = {"mode": "chi2", "p": settings.p, "sigma": settings.sigma}
        th = chi2_threshold(T_eval, ns.rank, settings.p, settings.sigma)
        # no capacity exceeds 1 (a unit vector's squared projection)
        if th > 1.0:
            need = math.ceil(chi2_threshold(1, ns.rank, settings.p, settings.sigma))
            raise ValueError(
                f"{T_eval} analysed rows are too few for the chi2 threshold at "
                f"rank {ns.rank}: it is {th:.4g}, above the largest possible "
                f"capacity 1, so every term would be truncated; the threshold "
                f"needs at least {need} rows (after {lx} state-history rows). "
                "Raise tipc.analysis_len or analyse a longer trace")
    family = settings.family
    if family == "auto":
        family = "legendre" if input_uniform else "monomial"
    terms = enumerate_bases(settings.max_degree, settings.max_input_delay,
                            lx, ns.rank, family, settings.term_cap)
    P_eval = normalize_states(ns.P[lx:], abs_floor=1e-12).P if lx > 0 else ns.P
    # no local holds the basis: it is freed once ``capacities`` has read it
    caps = capacities(P_eval, orthonormalize(evaluate_bases(
        terms, inputs, input_offset, xhat=ns.P, start_row=lx, n_rows=T_eval,
        input_range=input_range)))
    if params["mode"] == "surrogate":
        th = shuffle_surrogate_threshold(
            inputs, input_offset, terms, P_eval, surrogate_rng, xhat=ns.P,
            start_row=lx, input_range=input_range,
            n_surrogates=settings.surrogates, sigma=settings.surrogate_sigma)
    return profile(terms, caps, th, ns.rank, params)


def ipc_of_target(y: np.ndarray, inputs: np.ndarray, input_offset: int,
                  settings: TipcSettings,
                  surrogate_rng: Optional[np.random.Generator] = None, *,
                  input_range: Tuple[float, float] = (0.0, 1.0),
                  input_uniform: bool = True) -> CapacityProfile:
    """Information processing capacity of a scalar target sequence.

    The target is treated as a one-feature state matrix and decomposed on
    input-history bases only, characterizing what the task demands.
    """
    y = np.asarray(y, dtype=float).reshape(-1, 1)
    if np.std(y) == 0:
        raise ValueError("target sequence is constant")
    return analyze_states(y, inputs, input_offset, replace(settings, max_state_delay=0),
                          surrogate_rng=surrogate_rng, input_range=input_range,
                          input_uniform=input_uniform)
