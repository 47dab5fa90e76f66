import math
import warnings

import numpy as np
import pytest

from psgdkit.curvature import (
    APPROX_PROBE_STD,
    ProbeConfig,
    TangentPair,
    apply_damping,
    approx_delta_g,
    exact_delta_g,
    sample_delta_theta,
)
from psgdkit.errors import CapabilityError, ContractViolationError, NumericEvaluationError
from psgdkit.problems import make_quadratic, make_rosenbrock, make_xor_mlp


class TestTangentPair:
    def test_length_mismatch(self):
        with pytest.raises(ContractViolationError):
            TangentPair(np.ones(2), np.ones(3))

    def test_zero_probe_rejected(self):
        with pytest.raises(ContractViolationError):
            TangentPair(np.zeros(3), np.ones(3))

    def test_overflowing_self_dot_of_finite_pair_reports_nothing(self):
        # 1e200 squared overflows, but the pair is finite and must pass silently
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            pair = TangentPair(np.array([1e200, 1.0]), np.ones(2))
        assert pair.delta_theta[0] == 1e200


class TestProbeConfig:
    def test_mode_defaults(self):
        assert ProbeConfig(mode="exact").sample_std == 1.0
        assert ProbeConfig(mode="approximate").sample_std == APPROX_PROBE_STD
        assert APPROX_PROBE_STD == 2.0 ** -11.5

    def test_invalid(self):
        with pytest.raises(ContractViolationError):
            ProbeConfig(mode="fancy")
        with pytest.raises(ContractViolationError):
            ProbeConfig(damping="sometimes")
        with pytest.raises(ContractViolationError):
            ProbeConfig(damping_lambda=-1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_damping_strength_rejected(self, lam):
        with pytest.raises(ContractViolationError, match="damping strength must be finite"):
            ProbeConfig(damping="traditional", damping_lambda=lam)


class TestSampleDeltaTheta:
    def test_unit_std_statistics(self):
        cfg = ProbeConfig(mode="exact")
        rng = np.random.default_rng(0)
        draws = np.array([sample_delta_theta(3, cfg, rng) for _ in range(100_000)])
        assert np.all(np.abs(draws.mean(axis=0)) < 0.02)
        np.testing.assert_allclose(draws.var(axis=0), 1.0, rtol=0.05)

    def test_approximate_std_variance(self):
        cfg = ProbeConfig(mode="approximate")
        rng = np.random.default_rng(1)
        draws = sample_delta_theta(200_000, cfg, rng)
        # per-entry variance is the single-precision machine epsilon 2^-23
        np.testing.assert_allclose(draws.var(), 2.0 ** -23, rtol=0.05)

    def test_deterministic_given_state(self):
        cfg = ProbeConfig(mode="exact")
        a = sample_delta_theta(5, cfg, np.random.default_rng(42))
        b = sample_delta_theta(5, cfg, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


class TestApproxDeltaG:
    def test_quadratic_is_exact(self):
        h = np.diag([2.0, -5.0])
        grad = lambda th: h @ th
        out = approx_delta_g(grad, np.zeros(2), np.array([1e-4, 1e-4]))
        np.testing.assert_allclose(out, [2e-4, -5e-4], rtol=1e-12)

    def test_linear_function_gives_zero(self):
        grad = lambda th: np.array([3.0, -1.0])
        out = approx_delta_g(grad, np.ones(2), np.array([0.3, -0.2]))
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_rosenbrock_matches_exact_hvp(self):
        ev = make_rosenbrock().bind_batch(0)
        theta = np.array([1.0, 1.0])
        dt = 1e-5 * np.array([1.0, 0.0])
        approx = approx_delta_g(ev.grad, theta, dt)
        exact = exact_delta_g(ev.hvp, theta, dt)
        np.testing.assert_allclose(approx, exact, rtol=1e-3, atol=1e-9)

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_raises(self, bad, shifted):
        # the bad entry is in grad(theta) or in grad(theta + dt)
        grad = lambda th: np.array([1.0, bad if (th[0] > 0.0) == shifted else 2.0])
        with pytest.raises(NumericEvaluationError, match="differencing"):
            approx_delta_g(grad, np.zeros(2), np.array([1.0, 0.0]))

    def test_large_finite_gradient_passes(self):
        # the gradients' self-dots overflow, so their entries are scanned instead
        grad = lambda th: np.array([1e200, 1e200 * (1.0 + th[0])])
        with np.errstate(all="raise"):
            out = approx_delta_g(grad, np.zeros(2), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(out, [0.0, 1e200])


class TestExactDeltaG:
    def test_diagonal_hessian(self):
        hvp = lambda th, v: np.diag([2.0, -5.0]) @ v
        np.testing.assert_allclose(
            exact_delta_g(hvp, np.zeros(2), np.array([1.0, 1.0])), [2.0, -5.0])

    def test_rosenbrock_origin(self):
        # Hessian at the origin is [[2, 0], [0, 200]]
        ev = make_rosenbrock().bind_batch(0)
        np.testing.assert_allclose(
            exact_delta_g(ev.hvp, np.zeros(2), np.array([1.0, 0.0])), [2.0, 0.0])
        np.testing.assert_allclose(
            exact_delta_g(ev.hvp, np.zeros(2), np.array([0.0, 1.0])), [0.0, 200.0])

    def test_missing_capability(self):
        with pytest.raises(CapabilityError):
            exact_delta_g(None, np.zeros(2), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_hvp_raises(self, bad):
        hvp = lambda th, v: np.array([1.0, bad, 2.0])
        with pytest.raises(NumericEvaluationError, match="Hessian-vector product"):
            exact_delta_g(hvp, np.zeros(3), np.ones(3))

    def test_large_finite_hvp_passes(self):
        hvp = lambda th, v: np.array([1e200, -1e200])
        with np.errstate(all="raise"):
            out = exact_delta_g(hvp, np.zeros(2), np.ones(2))
        np.testing.assert_array_equal(out, [1e200, -1e200])

    def test_zero_probe_documented_degenerate(self):
        # a zero probe yields a zero response but is rejected as a pair
        hvp = lambda th, v: np.diag([2.0, -5.0]) @ v
        out = exact_delta_g(hvp, np.zeros(2), np.zeros(2))
        np.testing.assert_array_equal(out, [0.0, 0.0])
        with pytest.raises(ContractViolationError):
            TangentPair(np.zeros(2), out)


class TestApplyDamping:
    def test_traditional_zero_lambda_identity(self):
        pair = TangentPair(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        cfg = ProbeConfig(mode="exact", damping="traditional", damping_lambda=0.0)
        out = apply_damping(pair, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(out.delta_g, pair.delta_g)

    def test_traditional_shifts_by_lambda_probe(self):
        pair = TangentPair(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        cfg = ProbeConfig(mode="exact", damping="traditional", damping_lambda=0.1)
        out = apply_damping(pair, cfg, np.random.default_rng(0))
        np.testing.assert_allclose(out.delta_g, [0.1, 0.2])
        np.testing.assert_array_equal(out.delta_theta, pair.delta_theta)

    def test_nonconvex_statistics(self):
        cfg = ProbeConfig(mode="exact", damping="nonconvex", damping_lambda=0.1)
        rng = np.random.default_rng(2)
        n = 100_000
        dts = rng.standard_normal(n)
        added = np.empty(n)
        for i in range(n):
            pair = TangentPair(np.array([dts[i]]), np.array([0.0]))
            added[i] = apply_damping(pair, cfg, rng).delta_g[0]
        assert abs(added.mean()) < 3e-3
        np.testing.assert_allclose(added.var(), 0.1 ** 2 * cfg.sample_std ** 2, rtol=0.05)
        corr = np.corrcoef(dts, added)[0, 1]
        assert abs(corr) < 0.02

    def test_nonconvex_leaves_probe_unchanged(self):
        cfg = ProbeConfig(mode="exact", damping="nonconvex", damping_lambda=0.5)
        pair = TangentPair(np.array([1.0, -1.0]), np.array([2.0, 3.0]))
        out = apply_damping(pair, cfg, np.random.default_rng(3))
        np.testing.assert_array_equal(out.delta_theta, pair.delta_theta)


class TestHvpProperties:
    def quadratic(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        return make_quadratic(0.5 * (a + a.T), rng.standard_normal(4))

    def test_differencing_equals_hvp_on_quadratics(self):
        prob = self.quadratic()
        ev = prob.bind_batch(0)
        rng = np.random.default_rng(8)
        for _ in range(10):
            theta = rng.standard_normal(4)
            dt = 1e-4 * rng.standard_normal(4)
            a = approx_delta_g(ev.grad, theta, dt)
            b = exact_delta_g(ev.hvp, theta, dt)
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("prob_maker", [
        lambda: make_quadratic(np.diag([2.0, -5.0, 1.0])),
        make_rosenbrock,
        lambda: make_xor_mlp(4),
    ])
    def test_linearity(self, prob_maker):
        prob = prob_maker()
        ev = prob.bind_batch(0)
        rng = np.random.default_rng(9)
        for _ in range(10):
            theta = 0.5 * rng.standard_normal(prob.dim)
            v1 = rng.standard_normal(prob.dim)
            v2 = rng.standard_normal(prob.dim)
            a, b = rng.standard_normal(2)
            lhs = exact_delta_g(ev.hvp, theta, a * v1 + b * v2)
            rhs = a * exact_delta_g(ev.hvp, theta, v1) + b * exact_delta_g(ev.hvp, theta, v2)
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-12)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    @pytest.mark.parametrize("prob_maker", [
        lambda: make_quadratic(np.diag([2.0, -5.0, 1.0])),
        make_rosenbrock,
        lambda: make_xor_mlp(4),
    ])
    def test_symmetry_as_bilinear_form(self, prob_maker):
        prob = prob_maker()
        ev = prob.bind_batch(0)
        rng = np.random.default_rng(10)
        for _ in range(10):
            theta = 0.5 * rng.standard_normal(prob.dim)
            v1 = rng.standard_normal(prob.dim)
            v2 = rng.standard_normal(prob.dim)
            lhs = v2 @ exact_delta_g(ev.hvp, theta, v1)
            rhs = v1 @ exact_delta_g(ev.hvp, theta, v2)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-12)
