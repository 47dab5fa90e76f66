"""Small dense and structured matrix algebra underpinning the preconditioners.

All routines operate on float64 numpy arrays. Triangular matrices are kept as
full square arrays; only the relevant triangle is meaningful and the diagonal
must stay strictly positive (that is what keeps the factors on their group).
"""

import math
import os

import numpy as np

# Internal kernels: the preconditioners are the public entry points.
__all__ = []


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
    """Solve T x = b (or T^T x = b) for a triangular T; no argument is checked.

    The caller guarantees the precondition: ``t`` is a square float64 factor with a
    positive diagonal, as every state ``set_factors`` admits holds, and ``b`` a
    non-empty float64 vector or matrix of stacked right-hand sides whose leading
    dimension is ``t``'s. Non-finite entries are allowed and give non-finite
    output, which the caller's norm test or finiteness check must catch.

    Arguments reach LAPACK as scipy.linalg.solve_triangular passes them: a
    factor that is not Fortran-ordered is solved as the transposed system of
    its transpose, which keeps the results bit-identical to that function.
    """
    if t.flags.f_contiguous:
        x, _ = _trtrs(t, b, lower, transpose)
    else:
        x, _ = _trtrs(t.T, b, not lower, not transpose)
    return x
