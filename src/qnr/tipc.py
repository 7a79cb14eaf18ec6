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

Solver.  ``capacities(P, basis, ...)`` takes the basis matrix, or its term
list followed by the arguments of ``evaluate_bases``; ``orthonormalize``
takes the same and returns the keep/drop decisions only.  Both run one
solver chain (``_project``), which has no knobs: the constant always comes
first and the drop floor is ``_DROP_TOL``.  It factors a tall,
well-conditioned basis by Cholesky of its Gram matrix; any other basis, or
one whose Gram factor fails its condition or pivot check, by one LAPACK
Householder QR of the constant and the leading min(B, T - 1) columns; and
falls back to modified Gram-Schmidt on the whole basis when a QR pivot lies
under twice the drop floor, so keep/drop decisions are Gram-Schmidt's.  Q is
never formed.  The Gram pass and the QR read the same column-major row
panels of [constant | A | P]: a basis matrix is copied after the constant
and before P into one panel, and a term list is evaluated in panels of
``_PANEL_ROWS`` rows, one panel held at a time.  A tall basis is added panel
by panel to the Gram matrix of [constant | A] and to its product with P.
The QR factors the whole panel, P included, so Q^T P is the triangle's block
right of the basis columns: ``dgeqrf`` on the first panel and ``dtpqrt``
against the running (1 + B + r)-square triangle on each later one.  A
saturated term list, with at least as many terms as rows, is one panel of
its leading T - 1 columns, since its QR's triangle is as large as the whole
basis; only Gram-Schmidt evaluates a term list whole.  The solvers call six
compiled functions (``dsyrk``, ``dpotrf``, ``dtrcon``, ``dtrtrs``,
``dgeqrf``, ``dtpqrt``), which ``_blas_lapack`` binds on first use: every
``qnr`` command imports this module, and ``train``, ``esp`` and ``simulate``
never call them.  Where numpy's own OpenBLAS exports them, as numpy's wheels
do, ``_lapack`` binds them through ``ctypes`` in the library numpy has
already loaded, so the solver shares numpy's thread pool and no second BLAS
is mapped; that takes 2.3-4.0 ms and 0.02 MiB after numpy, nearly all of it
importing ``_lapack``.  Elsewhere (numpy built on MKL, Accelerate or a
system BLAS) scipy's ``linalg/_fblas`` and ``linalg/_flapack`` extension
files are loaded without importing the ``scipy`` package, with scipy's own
OpenBLAS: 3.8-4.3 ms and 3.5 MiB per process (2-core Xeon VM, numpy 2.4 with
OpenBLAS 0.3.31, scipy 1.17 with 0.3.30).  The ``scipy.linalg`` package,
which holds the public wrappers, would cost another 0.18-0.28 s and 22 MiB
per process, mostly because scipy's array-API shim imports ``numpy.f2py``,
``numpy.testing`` and ``numpy.ma``.  ``scipy.special`` is not used: the
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

from .noise import is_finite, is_int
from .reservoir import StateMatrix

# State directions with singular value below this times the largest are dropped.
_SV_CUTOFF = 1e-10


@dataclass
class NormalizedStates:
    """Orthonormal time courses of the linearly independent state directions."""

    P: np.ndarray                 # T x r, orthonormal columns, zero column means
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
        return NormalizedStates(np.empty((T, 0)), 0)
    P, sv, _ = np.linalg.svd(Xc, full_matrices=False)
    keep = sv >= max(_SV_CUTOFF * sv[0], abs_floor)
    r = int(np.sum(keep))
    P = P[:, :r]
    for k in range(r):
        col = P[:, k]
        if col[np.argmax(np.abs(col))] < 0:
            P[:, k] = -col
    return NormalizedStates(P, r)


@dataclass(frozen=True, slots=True)
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
    # (feature k, or None for the input; delay s): combinations_with_replacement
    # yields each degree's combinations in the reverse-lexicographic order of
    # their exponent vectors over this list, so a stable sort on (state
    # order, max delay) within the degree completes the evaluation order
    variables = [(None, s) for s in range(1, max_input_delay + 1)]
    variables += [(k, s) for s in range(1, max_state_delay + 1) for k in range(rank)]
    shared: Dict[tuple, tuple] = {}   # every exponent entry and tuple, built once
    terms: List[BasisTerm] = []
    count = 0
    for degree in range(1, max_degree + 1):
        buckets: Dict[Tuple[int, int], List[BasisTerm]] = {}
        for combo in itertools.combinations_with_replacement(range(len(variables)), degree):
            inp, sta = [], []
            for vi in dict.fromkeys(combo):
                k, s = variables[vi]
                entry = (s, combo.count(vi)) if k is None else (k, s, combo.count(vi))
                (inp if k is None else sta).append(shared.setdefault(entry, entry))
            inp, sta = tuple(inp), tuple(sorted(sta))
            state_order = degree - sum(e for _, e in inp)
            max_delay = max(variables[vi][1] for vi in combo)
            buckets.setdefault((state_order, max_delay), []).append(
                BasisTerm(shared.setdefault(inp, inp), shared.setdefault(sta, sta), family))
            count += 1
            if count > term_cap:
                raise ValueError(
                    f"basis enumeration exceeds the term cap ({term_cap}); "
                    "reduce max_degree or the delay windows")
        for key in sorted(buckets):
            terms.extend(buckets[key])
    return tuple(terms)


def evaluate_bases(terms: Sequence[BasisTerm], inputs: np.ndarray, input_offset: int,
                   xhat: Optional[np.ndarray] = None, start_row: int = 0,
                   n_rows: Optional[int] = None,
                   input_range: Tuple[float, float] = (-1.0, 1.0), *,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Basis time series over state rows [start_row, start_row + n_rows).

    ``inputs[input_offset + i]`` is the input consumed by state row i, so the
    expansion delay-s factor of row i reads ``inputs[input_offset + i - s + 1]``.
    Legendre input factors are evaluated after affinely mapping the declared
    input range onto [-1, 1]; state factors read raw powers of ``xhat``, the
    delay-s one of row i at ``xhat[i - s]``, so no state delay may exceed
    ``start_row``.  Each input factor is evaluated once per exponent, and each
    state power once per (feature, exponent), over the window that all delays
    span; a delay's factor is a slice of that window.  The result is
    column-major, so each term's column is contiguous for the solvers of
    ``capacities``.

    ``out``, an n_rows x k array with contiguous columns, receives the
    leading k columns only.  Every term is still checked, so the errors do
    not depend on how many columns are evaluated.
    """
    inputs = np.asarray(inputs, dtype=float)
    n_rows = _n_rows(xhat, start_row, n_rows)
    window, max_in_delay, max_st_delay = _checked_window(
        terms, inputs, input_offset, xhat, start_row, n_rows, input_range)
    if any(t.family == "legendre" for t in terms):
        lo, hi = input_range
        scaled = (2.0 * window - (lo + hi)) / (hi - lo)

    if out is None:
        out = np.empty((n_rows, len(terms)), order="F")
    windows: Dict[tuple, np.ndarray] = {}   # (e, family) or (k, e): all delays
    factors: Dict[tuple, np.ndarray] = {}   # (s, e, family) or (k, s, e): a slice
    for j, term in enumerate(terms[:out.shape[1]]):
        fs = []
        for s, e in term.input_exponents:
            key = (s, e, term.family)
            if key not in factors:
                if (e, term.family) not in windows:
                    windows[e, term.family] = (_legendre(e, scaled)
                                               if term.family == "legendre" else window ** e)
                factors[key] = windows[e, term.family][max_in_delay - s:][:n_rows]
            fs.append(factors[key])
        for k, s, e in term.state_exponents:
            key = (k, s, e)
            if key not in factors:
                if (k, e) not in windows:
                    windows[k, e] = (xhat[start_row - max_st_delay:start_row + n_rows - 1, k]
                                     ** e)
                factors[key] = windows[k, e][max_st_delay - s:][:n_rows]
            fs.append(factors[key])
        col = out[:, j]
        col[:] = fs[0] if fs else 1.0
        for f in fs[1:]:
            col *= f
    return out


def _checked_window(terms: Sequence[BasisTerm], inputs: np.ndarray, input_offset: int,
                    xhat: Optional[np.ndarray], start_row: int, n_rows: int,
                    input_range: Tuple[float, float]) -> Tuple[np.ndarray, int, int]:
    """The checks of ``evaluate_bases`` on every term, raising ValueError;
    then the inputs that the rows read, the largest input delay (at least
    1) and the largest state delay."""
    max_in_delay = max((s for t in terms for s, _ in t.input_exponents), default=1)
    first = input_offset + start_row - max_in_delay + 1
    end = input_offset + start_row + n_rows
    if first < 0:
        raise ValueError("not enough input history for the requested delays")
    if end > len(inputs):
        raise ValueError(f"inputs of shape {inputs.shape} are too short for {n_rows} state "
                         f"rows from row {start_row} at input_offset {input_offset}: "
                         f"they need {end} inputs")
    window = inputs[first:end]
    if not np.isfinite(window).all():
        raise ValueError(f"inputs of shape {inputs.shape} hold NaN or Inf in the window "
                         f"[{first}, {end}) that {n_rows} state rows read")
    lo, hi = input_range
    if any(t.family == "legendre" for t in terms):
        if inputs.min() < lo - 1e-12 or inputs.max() > hi + 1e-12:
            raise ValueError(
                f"inputs outside declared range [{lo}, {hi}]: "
                f"[{inputs.min():.6g}, {inputs.max():.6g}]")
    max_st_delay = max((s for t in terms for _, s, _ in t.state_exponents), default=0)
    if max_st_delay and xhat is None:
        raise ValueError("state-history term without normalized states")
    if max_st_delay > start_row:
        raise ValueError(
            f"state-history delay {max_st_delay} exceeds start_row {start_row}: "
            "not enough state history for the requested delays")
    return window, max_in_delay, max_st_delay


def _n_rows(xhat: Optional[np.ndarray] = None, start_row: int = 0,
            n_rows: Optional[int] = None, **_) -> int:
    """The basis rows of ``evaluate_bases``: ``n_rows``, else xhat's rows
    from ``start_row``."""
    if n_rows is not None:
        return n_rows
    if xhat is None:
        raise ValueError("n_rows required when no normalized states are given")
    return xhat.shape[0] - start_row


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
# Rows per panel of a term list streamed into its Gram matrix or its
# Householder QR.  Fixed, not shrunk as the basis widens: dsyrk slows on short
# panels (the Gram of a 19,998 x 2,299 basis took 3.02 s in 228-row panels,
# 2.26 s in 912-row ones), and the streamed QR of that basis took 7.8-8.1 s
# in 2,048-row panels against 7.6-8.5 s in 4,096-row ones, at half the panel.
_PANEL_ROWS = 2048
# Columns per block of dtpqrt's reflectors: on that basis 32 took 9.3 s, and
# 128 no less time than 64.
_TP_BLOCK = 64


@functools.lru_cache(maxsize=None)
def _blas_lapack():
    """The solver's six compiled BLAS and LAPACK functions, as (blas, lapack).

    Where numpy's own OpenBLAS exports them, as numpy's wheels do, both are
    the module ``_lapack``, whose ``ctypes`` bindings run the solver in
    numpy's library and thread pool.  Elsewhere (numpy on MKL, Accelerate or a
    system BLAS) they are scipy's wrapper modules ``_fblas`` and
    ``_flapack``, loaded from their files under their own dotted names,
    without running ``scipy/__init__.py`` or ``scipy/linalg/__init__.py``:
    scipy's directory comes from its import spec, and only a missing file
    reads the version, from the distribution metadata beside that
    directory.  CPython keeps one copy of such an extension per (name,
    file), so a later ``import scipy.linalg`` finds these modules.  The
    choice is made by looking at numpy's library, once per process (see the
    module docstring for the cost of each).
    """
    from . import _lapack
    if _lapack.load():
        return _lapack, _lapack
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("the capacity solvers need scipy, which is not installed")
    root = spec.submodule_search_locations[0]
    where = os.path.join(root, "linalg")
    modules = []
    for name in ("_fblas", "_flapack"):
        paths = [os.path.join(where, name + suffix)
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            from importlib import metadata
            dist = next(metadata.distributions(name="scipy", path=[os.path.dirname(root)]),
                        None)
            raise ImportError(f"no {name} extension in {where} "
                              f"(scipy {dist.version if dist else 'of unknown version'})")
        spec = importlib.util.spec_from_file_location(f"scipy.linalg.{name}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        modules.append(module)
    return tuple(modules)


@dataclass
class Orthonormalized:
    """Keep/drop decisions of the sequential orthonormalization: ``kept``
    and ``dropped`` index the basis columns."""

    kept: List[int]
    dropped: List[int]


def orthonormalize(basis, inputs: Optional[np.ndarray] = None, input_offset: int = 0,
                   **evaluation) -> Orthonormalized:
    """Which columns after the constant the sequential orthonormalization
    keeps, and which it drops.

    ``basis`` is the basis matrix, or its term list followed by the rest of
    ``evaluate_bases``' arguments (``inputs``, ``input_offset`` and its
    keywords), as for ``capacities``, whose solvers decide.

    A column is dropped as linearly dependent when its component orthogonal
    to the constant and to every earlier kept column has norm below
    ``_DROP_TOL * sqrt(T)``; once T vectors are kept (the constant included)
    they span R^T and every later column is dropped.  The constant centers
    every retained basis but is not reported.
    """
    T = len(basis) if inputs is None else _n_rows(**evaluation)
    kept, dropped, _ = _project(np.empty((T, 0)), basis, inputs, input_offset, **evaluation)
    return Orthonormalized(kept, dropped)


def _project(P: np.ndarray, basis, inputs: Optional[np.ndarray] = None,
             input_offset: int = 0, **evaluation):
    """(kept, dropped, Q^T P): the decisions of ``orthonormalize`` and the
    coefficients of P's columns on the kept vectors (n_kept x r).

    ``basis`` is a basis matrix A, or a term list with the rest of
    ``evaluate_bases``' arguments.  The first two solvers read
    [constant | A | P] in row panels: a matrix's one copy, or the panels of
    ``_basis_panels``.  Three solvers are tried in turn; the first whose gate
    passes takes the basis:

    1. ``_gram_factor``, for a tall basis (at least
       ``_GRAM_MIN_ROWS_PER_COLUMN`` rows per column, so it cannot saturate
       R^T): Cholesky of the column-equilibrated Gram matrix of the constant
       and the basis.  It passes when the factorization succeeds, its
       condition estimate is at most ``_GRAM_MAX_COND`` and every pivot R_jj
       (constant excluded) is at least twice the floor; then every column is
       kept.
    2. ``_householder_panels``, a Householder QR of the constant, the
       leading m = min(B, T - 1) columns and P.  It passes when every |R_jj|
       of the m columns is at least twice the floor; those columns are kept
       and the rest dropped.
    3. ``_gram_schmidt`` on the whole basis, which applies the drop rule
       column by column.

    Real bases drop nothing before they saturate R^T.  Where 1 or 2 passes,
    Gram-Schmidt decides the same, because their pivots agree to rounding
    far inside the factor two; the condition bound keeps the Gram's squared
    conditioning to ~1e-12 relative.
    """
    if inputs is None:
        A = np.asarray(basis, dtype=float)
        T, B = A.shape
    else:
        T, B = _n_rows(**evaluation), len(basis)
    if T == 0:
        raise ValueError(f"basis has no rows (shape {(T, B)})")
    if T != P.shape[0]:
        raise ValueError("basis rows and state rows are misaligned")

    def panels(columns: int):
        if inputs is not None:
            return _basis_panels(basis, inputs, input_offset, **evaluation, columns=columns,
                                 P=P)
        F = np.empty((T, 1 + columns + P.shape[1]), order="F")
        F[:, 0] = 1.0 / np.sqrt(T)
        F[:, 1:1 + columns] = A[:, :columns]
        F[:, 1 + columns:] = P
        return [F]

    floor = _DROP_TOL * np.sqrt(T)
    if _is_tall(T, B):
        QtP = _gram_factor(panels(B), T, B, floor)
        if QtP is not None:
            return list(range(B)), [], QtP
    m = min(B, T - 1)
    if m > 0:
        QtP = _householder_panels(panels(m), T, m, floor)
        if QtP is not None:
            return list(range(m)), list(range(m, B)), QtP
    if inputs is not None:
        A = evaluate_bases(basis, inputs, input_offset, **evaluation)
    kept, dropped, Q = _gram_schmidt(A, floor)
    return kept, dropped, Q.T @ P


def _is_tall(T: int, B: int) -> bool:
    """Whether a T x B basis goes to the Gram/Cholesky solver first."""
    return 0 < B and _GRAM_MIN_ROWS_PER_COLUMN * B <= T


def _gram_factor(panels, T: int, B: int, floor: float) -> Optional[np.ndarray]:
    """Solver 1 of ``_project`` on a T x B basis A given as row panels of
    [constant | A | P], F = [constant | A]: Q^T P on the B basis columns, or
    None where the gate fails.

    Each panel adds its F^T F by dsyrk and its F^T P by a matrix product.
    The Gram's columns are scaled to unit norm before the factorization, so
    that the condition estimate sees the directions of the basis, not the
    scales of its columns.  With F = Q R, Q^T P = R^-T F^T P, by dtrtrs.
    Comparisons are written so that NaN fails them.
    """
    blas, lapack = _blas_lapack()
    G = np.zeros((1 + B, 1 + B), order="F")
    FtP = 0.0   # becomes the first panel's F^T P, then accumulates in place
    for panel in panels:
        F = panel[:, :1 + B]
        G = blas.dsyrk(1.0, F, trans=1, beta=1.0, c=G, overwrite_c=1)
        FtP += F.T @ panel[:, 1 + B:]
    norms = np.sqrt(np.diagonal(G))
    # a pivot never exceeds its column's norm
    if not norms[1:].min() >= 2.0 * floor:
        return None
    G /= norms   # in place, in the order of G / norms / norms[:, None]
    G /= norms[:, None]
    R, info = lapack.dpotrf(G, overwrite_a=1)
    if info != 0 or not lapack.dtrcon(R)[0] * _GRAM_MAX_COND >= 1.0:
        return None
    R *= norms
    if not np.diagonal(R)[1:].min() >= 2.0 * floor:
        return None
    return lapack.dtrtrs(R, FtP, trans=1, overwrite_b=1)[0][1:]


def _basis_panels(terms: Sequence[BasisTerm], inputs: np.ndarray, input_offset: int,
                  xhat: Optional[np.ndarray] = None, start_row: int = 0,
                  n_rows: Optional[int] = None,
                  input_range: Tuple[float, float] = (-1.0, 1.0), *, columns: int,
                  P: np.ndarray):
    """[constant | the leading ``columns`` columns of the basis A of
    ``evaluate_bases`` | P] in column-major panels of ``_PANEL_ROWS`` rows,
    the last one shorter, each written into the same buffer.  A saturated
    term list, of at least as many terms as rows, is one panel whatever its
    rows: its QR's triangle is as large as the whole basis, so splitting it
    would save nothing.  All rows and terms are checked before the first
    panel, so the errors are those of one evaluation."""
    inputs = np.asarray(inputs, dtype=float)
    T, width = _n_rows(xhat, start_row, n_rows), 1 + columns + P.shape[1]
    _checked_window(terms, inputs, input_offset, xhat, start_row, T, input_range)
    rows = T if len(terms) >= T else _PANEL_ROWS
    buffer = np.empty(min(T, rows) * width)
    for row in range(0, T, rows):
        n = min(rows, T - row)
        panel = buffer[:n * width].reshape((n, width), order="F")
        panel[:, 0] = 1.0 / np.sqrt(T)
        evaluate_bases(terms, inputs, input_offset, xhat, start_row + row, n, input_range,
                       out=panel[:, 1:1 + columns])
        panel[:, 1 + columns:] = P[row:row + n]
        yield panel


def _householder_panels(panels, T: int, B: int, floor: float) -> Optional[np.ndarray]:
    """Solver 2 of ``_project`` on a T x B basis A, B < T, given as row
    panels of [constant | A | P]: Q^T P on the B basis columns, or None
    where a pivot (constant excluded) lies under twice the floor.  The
    comparison is written so that NaN fails it.

    One Householder QR factors the whole augmented matrix, so its triangle
    holds Q^T P in the rows of the basis columns and the columns of P.  The
    first panel is factored by dgeqrf, so a basis of one panel is solved as
    the whole matrix is.  Each later panel is folded into the running
    (1 + B + r)-square triangle by dtpqrt.  A first panel with fewer rows
    than columns leaves the triangle's lower rows zero.  The pivots are read
    once every row has been folded in.
    """
    _, lapack = _blas_lapack()
    panels = iter(panels)
    F = next(panels)
    # with overwrite_a, the lwork=-1 query reads F's shape without copying it
    lwork = int(lapack.dgeqrf(F, lwork=-1, overwrite_a=1)[2][0])
    R = F = lapack.dgeqrf(F, lwork=lwork, overwrite_a=1)[0]
    width = F.shape[1]
    if len(F) < T:
        R = np.zeros((width, width), order="F")
        R[:len(F)] = F[:width]   # dtpqrt reads only its upper triangle
    for F in panels:
        R = lapack.dtpqrt(0, min(_TP_BLOCK, width), R, F, overwrite_a=1, overwrite_b=1)[0]
    if not np.abs(np.diagonal(R)[1:1 + B]).min() >= 2.0 * floor:
        return None
    return R[1:1 + B, 1 + B:]


def _gram_schmidt(A: np.ndarray, floor: float) -> Tuple[List[int], List[int], np.ndarray]:
    """Blocked modified Gram-Schmidt with the drop rule of ``orthonormalize``:
    (kept, dropped, Q), Q the kept vectors without the constant.

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
    return kept, dropped, Q[:, 1:k]


def capacities(P: np.ndarray, basis, inputs: Optional[np.ndarray] = None,
               input_offset: int = 0, **evaluation) -> np.ndarray:
    """C_i = ||P^T xi_i||^2 for each basis column, in column order; dropped
    columns get 0.

    ``basis`` is the basis matrix, or its term list followed by the rest of
    ``evaluate_bases``' arguments (``inputs``, ``input_offset`` and its
    keywords).  A term list is evaluated only as far as the solvers read it,
    in row panels of ``_PANEL_ROWS``, and whole only for Gram-Schmidt (see
    the module docstring).
    """
    kept, dropped, QtP = _project(P, basis, inputs, input_offset, **evaluation)
    caps = np.zeros(len(kept) + len(dropped))
    caps[kept] = np.sum(QtP * QtP, axis=1)
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
        caps = capacities(P, terms, shuffled, input_offset, xhat=xhat,
                          start_row=start_row, n_rows=n_rows, input_range=input_range)
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
            if not (is_finite(value) and 0.0 < value < high):
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
    caps = capacities(P_eval, terms, inputs, input_offset, xhat=ns.P, start_row=lx,
                      n_rows=T_eval, input_range=input_range)
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
