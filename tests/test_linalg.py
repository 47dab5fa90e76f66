import numpy as np
import pytest
from scipy.linalg import solve_triangular

from psgdkit.errors import ContractViolationError, NumericInputError
from psgdkit.linalg import _tri_solve_unchecked, tri_solve


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
        # KronPrecond's 1 x n and m x 1 blocks skip LAPACK for their 1x1
        # factor and multiply by the pivot's reciprocal instead. That is what
        # the solve returns, bit for bit, with two or more right-hand sides;
        # with one it divides, so a 1 x 1 block keeps the LAPACK call.
        rng = np.random.default_rng(10)
        for draw in range(2000):
            t = np.array([[10.0 ** rng.uniform(-8.0, 8.0)]])
            b = 10.0 ** rng.uniform(-8.0, 8.0) * rng.standard_normal((1, int(rng.integers(1, 9))))
            b[0, 0] = (0.0, -0.0, b[0, 0])[draw % 3]
            x = _tri_solve_unchecked(t, b, bool(rng.integers(2)), bool(rng.integers(2)))
            expected = b * (1.0 / t[0, 0]) if b.shape[1] > 1 else b / t[0, 0]
            assert x.tobytes() == expected.tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError):
            tri_solve(np.eye(3), np.ones(2))

    def test_non_finite_input(self):
        with pytest.raises(NumericInputError):
            tri_solve(np.eye(2), np.array([np.nan, 1.0]))

    def test_nonpositive_diagonal(self):
        with pytest.raises(ContractViolationError):
            tri_solve(np.array([[1.0, 0.0], [0.0, -2.0]]), np.ones(2))
