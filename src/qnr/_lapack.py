"""numpy's own BLAS and LAPACK, bound through ``ctypes`` for the capacity
solver of ``tipc``.

numpy's wheels link ``numpy.linalg._umath_linalg`` against scipy-openblas64,
which exports CBLAS and LAPACKE under a ``scipy_`` prefix and a ``64_``
suffix, with 64-bit integers (ILP64).  ``ctypes.CDLL`` of that extension's
file returns the handle of the module numpy has already loaded, and a symbol
lookup on it also searches the libraries it depends on, so no path is
searched and no second BLAS is loaded.  ``load`` binds the six functions
that the solver calls, which this module then provides with the call
signatures and results of scipy's f2py wrappers (``scipy.linalg.blas`` and
``scipy.linalg.lapack``) as far as the solver uses them; it returns False
where numpy's library does not export them (numpy built on MKL,
Accelerate or a system BLAS).

LAPACK is called through the LAPACKE ``_work`` functions in column-major
layout, which pass their arguments straight to LAPACK: the plain LAPACKE
functions scan their inputs for NaN and return early, and the solver's
gates must see a NaN as LAPACK computes with it.  Before any pointer reaches
the library every array is checked to be float64 and its shape against the
others.  An array the call writes is copied into a new column-major array,
as f2py copies it, unless it is column-major and ``overwrite_*`` is set.
An array the call only reads must already be column-major: in the solver
each is a basis panel or a factor that an earlier call returned.  Every
violation raises ValueError, and so does an illegal argument that LAPACK
reports (info < 0).
"""

from __future__ import annotations

import ctypes

import numpy as np
import numpy.linalg._umath_linalg as _umath_linalg

# scipy-openblas64's symbol names: prefix + CBLAS or LAPACKE name + suffix
_PREFIX, _SUFFIX = "scipy_", "64_"
# the CBLAS and LAPACKE enum values used: column-major, upper, no transpose, transpose
_COL_MAJOR, _UPPER, _NO_TRANS, _TRANS = 102, 121, 111, 112

# argument types: enum, 64-bit integer, double, pointer, character
_E, _I, _D, _P, _C = (ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p,
                      ctypes.c_char)
_SIGNATURES = {   # name: (result, arguments)
    "cblas_dsyrk": (None, (_E, _E, _E, _I, _I, _D, _P, _I, _D, _P, _I)),
    "LAPACKE_dpotrf_work": (_I, (_E, _C, _I, _P, _I)),
    "LAPACKE_dtrcon_work": (_I, (_E, _C, _C, _C, _I, _P, _I, _P, _P, _P)),
    "LAPACKE_dtrtrs_work": (_I, (_E, _C, _C, _C, _I, _I, _P, _I, _P, _I)),
    "LAPACKE_dgeqrf_work": (_I, (_E, _I, _I, _P, _I, _P, _P, _I)),
    "LAPACKE_dtpqrt_work": (_I, (_E, _I, _I, _I, _I, _P, _I, _P, _I, _P, _I, _P)),
}
# the bound symbols, filled by load(): the same ones on every call
_functions = {}


def load() -> bool:
    """Bind the functions below to numpy's OpenBLAS; False where numpy's
    library does not export all of their symbols."""
    try:
        library = ctypes.CDLL(_umath_linalg.__file__)
        functions = {name: getattr(library, _PREFIX + name + _SUFFIX)
                     for name in _SIGNATURES}
    except (OSError, AttributeError):
        return False
    for name, (result, arguments) in _SIGNATURES.items():
        functions[name].restype, functions[name].argtypes = result, arguments
    _functions.update(functions)
    return True


def _checked(name: str, x) -> np.ndarray:
    x = np.asarray(x)
    if x.dtype != np.float64:
        raise ValueError(f"{name} must be float64, not {x.dtype}")
    if x.ndim != 2:
        raise ValueError(f"{name} must have 2 dimensions, not shape {x.shape}")
    return x


def _read(name: str, x) -> np.ndarray:
    """An array the call only reads: float64 and column-major."""
    x = _checked(name, x)
    if not x.flags.f_contiguous:
        raise ValueError(f"{name} must be column-major (Fortran order)")
    return x


def _written(name: str, x, overwrite) -> np.ndarray:
    """An array the call writes: itself where ``overwrite`` is set and it is
    column-major and writeable, else a column-major copy, as f2py does."""
    x = _checked(name, x)
    if overwrite and x.flags.f_contiguous and x.flags.writeable:
        return x
    return np.array(x, order="F")


def _shape(name: str, x: np.ndarray, shape: tuple):
    if x.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, not {x.shape}")


def _lapack(name: str, *args) -> int:
    """Call LAPACKE_<name>_work column-major: arrays by pointer, strings as
    characters; raise on an illegal argument."""
    info = _functions[f"LAPACKE_{name}_work"](
        _COL_MAJOR, *(a.ctypes.data if isinstance(a, np.ndarray) else
                      a.encode() if isinstance(a, str) else a for a in args))
    if info < 0:
        # LAPACKE counts the layout as argument 1
        raise ValueError(f"{name}: argument {-info - 1} had an illegal value")
    return info


def dsyrk(alpha, a, beta=0.0, c=None, trans=0, overwrite_c=0):
    """c = alpha a a^T + beta c, or alpha a^T a + beta c with ``trans``,
    upper triangle."""
    a = _read("a", a)
    n, k = a.shape[::-1] if trans else a.shape
    if c is None:
        c = np.zeros((n, n), order="F")
    else:
        c = _written("c", c, overwrite_c)
        _shape("c", c, (n, n))
    _functions["cblas_dsyrk"](_COL_MAJOR, _UPPER, _TRANS if trans else _NO_TRANS, n, k,
                              alpha, a.ctypes.data, max(1, a.shape[0]), beta, c.ctypes.data,
                              max(1, n))
    return c


def dpotrf(a, overwrite_a=0):
    """(R, info): the upper Cholesky factor, its lower triangle cleared."""
    a = _written("a", a, overwrite_a)
    n = a.shape[1]
    _shape("a", a, (n, n))
    info = _lapack("dpotrf", "U", n, a, max(1, n))
    a[np.tri(n, k=-1, dtype=bool)] = 0.0
    return a, info


def dtrcon(a):
    """(rcond, info): the reciprocal 1-norm condition estimate of the upper
    triangle of a."""
    a = _read("a", a)
    n = a.shape[1]
    _shape("a", a, (n, n))
    rcond = np.zeros(1)
    info = _lapack("dtrcon", "1", "U", "N", n, a, max(1, n), rcond, np.empty(3 * n),
                   np.empty(n, dtype=np.int64))
    return float(rcond[0]), info


def dtrtrs(a, b, trans=0, overwrite_b=0):
    """(x, info): x solves R x = b, or R^T x = b with ``trans``, R the
    upper triangle of a."""
    a, b = _read("a", a), _written("b", b, overwrite_b)
    n = a.shape[1]
    _shape("a", a, (n, n))
    _shape("b", b, (n, b.shape[1]))
    info = _lapack("dtrtrs", "U", "T" if trans else "N", "N", n, b.shape[1], a, max(1, n),
                   b, max(1, n))
    return b, info


def dgeqrf(a, lwork=None, overwrite_a=0):
    """(qr, tau, work, info): Householder QR of a."""
    a = _written("a", a, overwrite_a)
    m, n = a.shape
    lwork = max(3 * n, 1) if lwork is None else lwork
    tau, work = np.empty(min(m, n)), np.empty(max(lwork, 1))
    info = _lapack("dgeqrf", m, n, a, max(1, m), tau, work, lwork)
    return a, tau, work, info


def dtpqrt(l, nb, a, b, overwrite_a=0, overwrite_b=0):
    """(a, b, t, info): QR of the triangle a stacked on b, in blocks of nb
    reflectors."""
    a, b = _written("a", a, overwrite_a), _written("b", b, overwrite_b)
    m, n = b.shape
    _shape("a", a, (n, n))
    t = np.zeros((max(nb, 1), n), order="F")
    info = _lapack("dtpqrt", m, n, l, nb, a, max(1, n), b, max(1, m), t, max(nb, 1),
                   np.empty(max(nb, 1) * n))
    return a, b, t, info
