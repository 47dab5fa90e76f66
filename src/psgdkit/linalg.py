"""Small dense and structured matrix algebra underpinning the preconditioners.

All routines operate on float64 numpy arrays. Triangular matrices are kept as
full square arrays; only the relevant triangle is meaningful and the diagonal
must stay strictly positive (that is what keeps the factors on their group).
"""

import math
import os

import numpy as np

from .errors import ContractViolationError, NumericInputError

__all__ = ["tri_solve"]


def _first_trtrs(*args):
    # The first solve fetches LAPACK's float64 triangular solve, the routine scipy's
    # solve_triangular ends in, and later solves call it directly: the diag and scan
    # families and the baselines never solve. It loads scipy's LAPACK extension
    # alone, not scipy.linalg, whose import is most of a fresh process's start-up
    # time and memory. Loaded under its full name, the extension is the one object
    # an `import scipy.linalg` shares, in either order. find_spec only locates the
    # scipy package: its __init__ never runs, which assumes scipy's
    # _distributor_init does nothing the extension needs (a standard scipy's only
    # tries an absent _distributor_init_local).
    global _trtrs
    from importlib.machinery import PathFinder
    from importlib.util import find_spec, module_from_spec
    scipy = find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    where = os.path.join(os.path.dirname(scipy.origin), "linalg")
    spec = PathFinder.find_spec("scipy.linalg._flapack", [where])
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack was not found in {where}")
    flapack = module_from_spec(spec)
    spec.loader.exec_module(flapack)
    _trtrs = flapack.dtrtrs
    return _trtrs(*args)


_trtrs = _first_trtrs


def _all_finite(a: np.ndarray) -> bool:
    # A finite a.a proves every entry finite (a sum of squares cannot cancel an
    # inf or a nan); only a sum that overflows needs the entries scanned.
    # np.vdot, unlike ndarray.dot, reports no overflow in numpy's error state.
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def tri_solve(t: np.ndarray, b: np.ndarray, lower: bool = False,
              transpose: bool = False) -> np.ndarray:
    """Solve T x = b (or T^T x = b) for a triangular T with positive diagonal.

    ``b`` may be a vector or a matrix of stacked right-hand sides. This is the
    checked entry point; code that has already validated its factor calls
    :func:`_tri_solve_unchecked`, which returns the same bits.
    """
    t = np.asarray(t, dtype=float)
    b = np.asarray(b, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ContractViolationError(f"triangular factor must be square, got {t.shape}")
    if b.shape[0] != t.shape[0]:
        raise ContractViolationError(
            f"dimension mismatch: factor is {t.shape[0]}, rhs has leading {b.shape[0]}")
    if not (np.isfinite(t).all() and np.isfinite(b).all()):
        raise NumericInputError("non-finite entries in triangular solve input")
    if np.any(np.diag(t) <= 0.0):
        raise ContractViolationError("triangular factor requires a strictly positive diagonal")
    if b.size == 0:
        return np.empty_like(b)
    return _tri_solve_unchecked(t, b, lower, transpose)


def _tri_solve_unchecked(t: np.ndarray, b: np.ndarray, lower: bool = False,
                         transpose: bool = False) -> np.ndarray:
    """``tri_solve`` for a float64 factor with a positive diagonal and a non-empty
    float64 right-hand side; no argument is checked. Non-finite entries are
    allowed and give non-finite output, which the caller's norm test must catch.

    Arguments reach LAPACK as scipy.linalg.solve_triangular passes them: a
    factor that is not Fortran-ordered is solved as the transposed system of
    its transpose, which keeps the results bit-identical to that function.
    """
    if t.flags.f_contiguous:
        x, _ = _trtrs(t, b, lower, transpose)
    else:
        x, _ = _trtrs(t.T, b, not lower, not transpose)
    return x
