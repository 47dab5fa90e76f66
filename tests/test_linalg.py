import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from psgdkit.linalg import tri_solve

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# Solves, in a fresh interpreter, with psgdkit and with scipy.linalg in the order argv[1]
# names; prints whether scipy.linalg was unloaded after psgdkit's first solve, whether
# psgdkit's solve is the routine get_lapack_funcs returns, and whether
# solve_triangular gives tri_solve's bits on every (lower, transpose) case.
LOAD_ORDER = """
import json, sys
import numpy as np
from psgdkit import linalg

rng = np.random.default_rng(5)
cases = []
for lower in (False, True):
    for transpose in (False, True):
        for order in ("C", "F"):
            t = 0.3 * rng.standard_normal((7, 7))
            t = np.tril(t) if lower else np.triu(t)
            np.fill_diagonal(t, 0.5 + rng.random(7))
            cases.append((np.asarray(t, order=order), rng.standard_normal((7, 3)),
                          lower, transpose))


def psgdkit_solves():
    return [linalg.tri_solve(t, b, lower, transpose) for t, b, lower, transpose in cases]


if sys.argv[1] == "psgdkit-first":
    ours = psgdkit_solves()
    unloaded = "scipy.linalg" not in sys.modules
from scipy.linalg import get_lapack_funcs, solve_triangular
if sys.argv[1] == "scipy-first":
    ours = psgdkit_solves()
    unloaded = None
theirs = [solve_triangular(t, b, lower=lower, trans=int(transpose), check_finite=False)
          for t, b, lower, transpose in cases]
print(json.dumps({
    "unloaded": unloaded,
    "same_routine": linalg._trtrs is get_lapack_funcs("trtrs", (np.empty((1, 1)),)),
    "same_bits": all(x.tobytes() == y.tobytes() for x, y in zip(ours, theirs))}))
"""


class TestTriSolve:
    def test_identity(self):
        x = tri_solve(np.eye(2), np.array([3.0, -1.0]))
        np.testing.assert_allclose(x, [3.0, -1.0])

    def test_back_substitution(self):
        # by hand: 4 x2 = 8 -> x2 = 2; 2 x1 + x2 = 5 -> x1 = 1.5
        t = np.array([[2.0, 1.0], [0.0, 4.0]])
        np.testing.assert_allclose(tri_solve(t, np.array([5.0, 8.0])), [1.5, 2.0])

    def test_forward_substitution_transposed(self):
        # T^T x = b by hand: 2 x1 = 2 -> x1 = 1; x1 + 4 x2 = 9 -> x2 = 2
        t = np.array([[2.0, 1.0], [0.0, 4.0]])
        np.testing.assert_allclose(
            tri_solve(t, np.array([2.0, 9.0]), transpose=True), [1.0, 2.0])

    @pytest.mark.parametrize("dim", [2, 5, 17, 64])
    def test_residual_well_conditioned(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(10):
            t = np.triu(0.3 * rng.standard_normal((dim, dim)))
            np.fill_diagonal(t, 1.0 + rng.random(dim))
            b = rng.standard_normal(dim)
            x = tri_solve(t, b)
            assert np.linalg.norm(t @ x - b) <= 1e-12 * np.linalg.norm(b)
            x = tri_solve(t, b, transpose=True)
            assert np.linalg.norm(t.T @ x - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rhs", ["vector", "matrix", "transposed-matrix"])
    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("lower", [False, True])
    def test_bit_identical_to_scipy(self, lower, transpose, rhs, order):
        # the preconditioner trajectories rely on these exact bits; Kronecker
        # updates pass transposed (Fortran-ordered) views as factor and rhs
        rng = np.random.default_rng(17)
        for dim in (1, 2, 3, 7):
            t = 0.3 * rng.standard_normal((dim, dim))
            t = np.tril(t) if lower else np.triu(t)
            np.fill_diagonal(t, 0.5 + rng.random(dim))
            t = np.asarray(t, order=order)
            b = {"vector": rng.standard_normal(dim),
                 "matrix": rng.standard_normal((dim, 3)),
                 "transposed-matrix": rng.standard_normal((3, dim)).T}[rhs]
            for factor, is_lower in ((t, lower), (t.T, not lower)):
                ref = solve_triangular(factor, b, lower=is_lower, trans=int(transpose),
                                       check_finite=False)
                x = tri_solve(factor, b, lower=is_lower, transpose=transpose)
                assert x.shape == ref.shape
                assert x.tobytes() == ref.tobytes()

    def test_one_by_one_solve_multiplies_by_the_reciprocal(self):
        # Pins the LAPACK fact that KronPrecond's single solve path relies on for
        # the bits of its 1 x n and m x 1 blocks: with two or more right-hand
        # sides, a 1x1 solve multiplies by the pivot's reciprocal; with one it
        # divides.
        rng = np.random.default_rng(10)
        for draw in range(2000):
            t = np.array([[10.0 ** rng.uniform(-8.0, 8.0)]])
            b = 10.0 ** rng.uniform(-8.0, 8.0) * rng.standard_normal((1, int(rng.integers(1, 9))))
            b[0, 0] = (0.0, -0.0, b[0, 0])[draw % 3]
            x = tri_solve(t, b, bool(rng.integers(2)), bool(rng.integers(2)))
            expected = b * (1.0 / t[0, 0]) if b.shape[1] > 1 else b / t[0, 0]
            assert x.tobytes() == expected.tobytes()


@pytest.mark.parametrize("order", ["psgdkit-first", "scipy-first"])
def test_both_load_orders_share_scipys_routine(order):
    # this module imports scipy.linalg at collection, so each order runs in a
    # fresh interpreter
    out = subprocess.run([sys.executable, "-c", LOAD_ORDER, order],
                         env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
                         check=True)
    record = json.loads(out.stdout.splitlines()[-1])
    assert record == {"unloaded": True if order == "psgdkit-first" else None,
                      "same_routine": True, "same_bits": True}


def test_missing_lapack_extension_names_the_directory_searched(tmp_path):
    # a scipy package without linalg/_flapack first on the path: the first solve
    # raises ImportError naming the directory it searched
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    script = ("import numpy as np\n"
              "from psgdkit.linalg import tri_solve\n"
              "try:\n"
              "    tri_solve(np.eye(2), np.ones(2))\n"
              "except ImportError as exc:\n"
              "    print(exc)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), SRC])},
                         check=True)
    assert str(tmp_path / "scipy" / "linalg") in out.stdout


def test_missing_scipy_surfaces_at_the_first_solve():
    # with scipy unimportable, psgdkit still imports; the first solve raises
    # ModuleNotFoundError naming scipy
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "import numpy as np\n"
              "from psgdkit.linalg import tri_solve\n"
              "try:\n"
              "    tri_solve(np.eye(2), np.ones(2))\n"
              "except ModuleNotFoundError as exc:\n"
              "    print(exc.name)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, check=True)
    assert out.stdout.split() == ["scipy"]
