import copy
import warnings

import numpy as np
import pytest

from psgdkit.curvature import TangentPair
from psgdkit.errors import (
    ContractViolationError,
    DegenerateCurvatureError,
    DegenerateStateError,
    NumericInputError,
    PsgdkitError,
)
from psgdkit.preconditioners import (
    FAMILIES,
    DensePrecond,
    DiagPrecond,
    DirectSumPrecond,
    KronPrecond,
    Preconditioner,
    ScanPrecond,
    SpluPrecond,
    closed_form_diagonal,
    estimation_criterion,
    make_preconditioner,
)
from psgdkit.problems import ParamBlock, ParamLayout, make_xor_mlp
from psgdkit.verify import pattern_closure_worst, scan_pattern, splu_pattern, whitening_residual


def fresh_variants():
    return [
        DensePrecond(6),
        DiagPrecond(6),
        KronPrecond(2, 3),
        ScanPrecond(2, 3),
        SpluPrecond(6, 2),
        DirectSumPrecond([("a", KronPrecond(2, 2)), ("b", DiagPrecond(2))]),
    ]


def random_pair(rng, dim, scale=1.0):
    dt = rng.standard_normal(dim)
    return TangentPair(dt, scale * rng.standard_normal(dim))


class TestApply:
    def test_fresh_state_is_identity(self):
        rng = np.random.default_rng(0)
        for p in fresh_variants():
            g = rng.standard_normal(p.dim)
            np.testing.assert_allclose(p.apply(g), g, rtol=0, atol=1e-14)
            np.testing.assert_allclose(p.apply_inv(g), g, rtol=0, atol=1e-14)

    def test_diag_squares_factor(self):
        p = DiagPrecond(2).set_factors(q=[2.0, 3.0])
        np.testing.assert_allclose(p.apply(np.array([1.0, 1.0])), [4.0, 9.0])

    def test_dense_factored_product(self):
        p = DensePrecond(2).set_factors(q=[[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(p.apply(np.array([1.0, 0.0])), [1.0, 1.0])

    def test_apply_is_positive_definite_action(self):
        # v^T P v = ||Q v||^2 > 0 on any reachable state
        rng = np.random.default_rng(1)
        for p in fresh_variants():
            for _ in range(50):
                p.update(random_pair(rng, p.dim, scale=rng.uniform(0.2, 3.0)), 0.3)
            for _ in range(1000):
                v = rng.standard_normal(p.dim)
                assert v @ p.apply(v) > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError):
            DensePrecond(3).apply(np.ones(2))


class TestUpdate:
    def test_dense_whitened_probe_is_fixed_point(self):
        p = DensePrecond(3)
        e1 = np.array([1.0, 0.0, 0.0])
        p.update(TangentPair(e1, e1), 0.1)
        np.testing.assert_array_equal(p.q, np.eye(3))

    def test_dense_single_axis_step(self):
        # gradient is triu(4 e1 e1^T - e1 e1^T) = 3 e1 e1^T, normalized step
        # multiplies Q11 by (1 - mu0)
        p = DensePrecond(2)
        e1 = np.array([1.0, 0.0])
        p.update(TangentPair(e1, 2.0 * e1), 0.25)
        np.testing.assert_allclose(p.q[0, 0], 0.75)
        np.testing.assert_allclose(p.q[1, 1], 1.0)

    def test_diag_converges_to_closed_form_scalar(self):
        rng = np.random.default_rng(2)
        p = DiagPrecond(1)
        for _ in range(10_000):
            dt = rng.standard_normal(1)
            p.update(TangentPair(dt, 2.0 * dt), 0.01)
        assert abs(p.q[0] - 1.0 / np.sqrt(2.0)) <= 0.02 / np.sqrt(2.0)

    def test_step_out_of_range(self):
        p = DiagPrecond(2)
        with pytest.raises(ContractViolationError):
            p.update(TangentPair(np.ones(2), np.ones(2)), 1.5)

    def test_update_rejected_when_diagonal_would_collapse(self):
        p = DiagPrecond(1).set_factors(q=[1.5e-150])
        # a pure shrink step (curvature response dominates) would multiply the
        # factor by (1 - mu0) and cross the floor, so the state is kept
        p.update(TangentPair(np.array([1e-320]), np.array([1.0])), 0.5)
        np.testing.assert_array_equal(p.q, [1.5e-150])

    def test_collapsed_state_is_refused(self):
        p = DensePrecond(2)
        with pytest.raises(DegenerateStateError):
            p.set_factors(q=np.diag([1e-301, 1.0]))
        np.testing.assert_array_equal(p.q, np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("maker, factor, index", [
        (lambda: DensePrecond(3), "q", (0, 2)),
        (lambda: DensePrecond(3), "q", (1, 1)),
        (lambda: KronPrecond(2, 3), "q1", (0, 1)),
        (lambda: KronPrecond(2, 3), "q2", (2, 2)),
        (lambda: SpluPrecond(5, 2), "l1", (1, 0)),
        (lambda: SpluPrecond(5, 2), "l2", (2, 1)),
        (lambda: SpluPrecond(5, 2), "l3", (0,)),
        (lambda: SpluPrecond(5, 2), "u1", (0, 0)),
        (lambda: SpluPrecond(5, 2), "u2", (1, 2)),
        (lambda: SpluPrecond(5, 2), "u3", (2,)),
        (lambda: DiagPrecond(3), "q", (1,)),
        (lambda: ScanPrecond(2, 3), "q1", (0,)),
        (lambda: ScanPrecond(2, 3), "d2", (2,)),
        (lambda: ScanPrecond(2, 3), "c2", (1,)),
    ])
    def test_non_finite_factor_raises_on_update(self, maker, factor, index, bad):
        p = maker()
        getattr(p, factor)[index] = bad
        before = {k: v.copy() for k, v in vars(p).items() if isinstance(v, np.ndarray)}
        with pytest.raises(NumericInputError):
            p.update(random_pair(np.random.default_rng(0), p.dim), 0.1)
        for k, v in before.items():
            np.testing.assert_array_equal(getattr(p, k), v)

    @pytest.mark.parametrize("maker", [lambda: DensePrecond(3), lambda: KronPrecond(2, 3),
                                       lambda: KronPrecond(1, 5), lambda: SpluPrecond(5, 2)])
    def test_non_finite_factor_raises_with_zero_probe_entries(self, maker):
        # Dense, kron and splu updates scan no factor: a non-finite entry must
        # reach a gradient norm through the kernel's own products, also where
        # the probe entries it meets are zero (inf * 0 is nan). Every entry of
        # every factor, the unused triangle and a -inf on a diagonal included
        # (update checks no floor), on the BLAS in use. Under
        # np.errstate(all="raise") any warning the fold let through would
        # surface as FloatingPointError instead of the expected class.
        rng = np.random.default_rng(8)
        trained = maker()
        for _ in range(10):
            trained.update(random_pair(rng, trained.dim), 0.2)
        for name, _ in trained.factors:
            for index in np.ndindex(getattr(trained, name).shape):
                meets = _probe_entries_meeting(trained, name, index)
                for bad in (np.nan, np.inf, -np.inf):
                    for zeros in ("dg", "dt and dg", "all of dg"):
                        p = copy.deepcopy(trained)
                        getattr(p, name)[index] = bad
                        before = {k: v.copy() for k, v in vars(p).items()
                                  if isinstance(v, np.ndarray)}
                        dt, dg = rng.standard_normal(p.dim), rng.standard_normal(p.dim)
                        dg[slice(None) if zeros == "all of dg" else meets] = 0.0
                        if zeros == "dt and dg" and dt[meets].size < dt.size:
                            dt[meets] = 0.0
                        with np.errstate(all="raise"), pytest.raises(NumericInputError):
                            p.update(TangentPair(dt, dg), 0.1)
                        for k, v in before.items():
                            np.testing.assert_array_equal(getattr(p, k), v)

    def test_diag_rejects_nan_candidate(self):
        # the gradient [inf, 0] normalizes to a zero step, and 0 * inf turns
        # the first candidate entry into nan, which must not be admitted
        p = DiagPrecond(2)
        with np.errstate(all="ignore"):
            p.update(TangentPair(np.ones(2), np.array([1e200, 1.0])), 0.1)
        np.testing.assert_array_equal(p.q, [1.0, 1.0])

    @pytest.mark.parametrize("dim, order, seed", [(12, 3, 1), (6, 6, 5), (16, 10, 1)])
    def test_splu_admits_no_non_finite_candidate(self, dim, order, seed):
        # Probes scaled by up to 1e+-150 overflow the candidate factors; a
        # candidate with an inf off the diagonal once passed the diagonal
        # check, so an update returned normally and every later one raised.
        # These seeds made that happen within 300 updates.
        rng = np.random.default_rng(seed)

        def probe():
            v = rng.standard_normal(dim)
            if rng.random() < 0.5:
                return 10.0 ** rng.uniform(-150, 150) * v
            v[rng.integers(dim)] *= 10.0 ** rng.uniform(-150, 150)
            return v

        p = SpluPrecond(dim, order)
        returned = 0
        for _ in range(300):
            pair = TangentPair(probe(), probe())
            with np.errstate(all="ignore"):
                try:
                    p.update(pair, 0.9)
                except PsgdkitError:
                    continue
            returned += 1
            for name, _ in p.factors:
                assert np.isfinite(getattr(p, name)).all(), name
        assert returned > 150

    def test_splu_overflow_on_the_u_side_alone_raises(self):
        # u2 = 1e200 keeps the L side of the gradient finite (at most 1e300) and
        # overflows gu3, so only the U half of the norm test sees it; it must
        # raise before the L factors are assigned
        p = SpluPrecond(2, 1).set_factors(u2=[[1e200]])
        before = [getattr(p, name).tobytes() for name, _ in p.factors]
        with pytest.raises(NumericInputError, match="non-finite preconditioner gradient"):
            p.update(TangentPair(np.array([0.0, 1.0]), np.array([9e149, 1e-51])), 0.1)
        assert [getattr(p, name).tobytes() for name, _ in p.factors] == before

    def test_overflowing_gradient_raises_on_update(self):
        p = DensePrecond(2)
        with np.errstate(over="ignore"), pytest.raises(NumericInputError):
            p.update(TangentPair(np.ones(2), np.array([1e200, 1.0])), 0.1)
        np.testing.assert_array_equal(p.q, np.eye(2))


def _probe_entries_meeting(p, name, index):
    """Flat probe entries that the factor entry at index multiplies in Q dg."""
    if isinstance(p, KronPrecond):
        grid = np.arange(p.dim).reshape(p.n, p.m).T  # column-major, as the kernel reads it
        return (grid[list(index), :] if name == "q1" else grid[:, list(index)]).ravel()
    if isinstance(p, SpluPrecond):  # l2, u2, l3 and u3 act on the trailing block
        offsets = {"l2": (p.r, 0), "u2": (0, p.r), "l3": (p.r,), "u3": (p.r,)}
        return [i + o for i, o in zip(index, offsets.get(name, (0, 0)))]
    return list(index)


class TestClosedFormDiagonal:
    def test_direct_substitution(self):
        np.testing.assert_allclose(
            closed_form_diagonal(np.array([1.0, 1.0]), np.array([4.0, 9.0])),
            [0.5, 1.0 / 3.0])

    def test_unit(self):
        np.testing.assert_allclose(closed_form_diagonal(np.ones(1), np.ones(1)), [1.0])

    def test_monte_carlo_moments(self):
        h = np.diag([2.0, -5.0])
        rng = np.random.default_rng(3)
        dts = rng.standard_normal((100_000, 2))
        dgs = dts @ h.T
        p = closed_form_diagonal((dts * dts).mean(axis=0), (dgs * dgs).mean(axis=0))
        np.testing.assert_allclose(p, [0.5, 0.2], rtol=0.02)

    def test_zero_curvature_rejected(self):
        with pytest.raises(DegenerateCurvatureError):
            closed_form_diagonal(np.ones(2), np.array([1.0, 0.0]))


class TestSpluMatvec:
    def test_fresh_identity(self):
        p = SpluPrecond(7, 3)
        v = np.arange(7.0)
        for which in ("q", "qt", "qinv", "qinvt"):
            np.testing.assert_allclose(p.matvec(v, which), v)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        p = SpluPrecond(12, 3)
        for _ in range(300):
            p.update(random_pair(rng, 12, scale=rng.uniform(0.3, 2.0)), 0.3)
        for _ in range(10):
            v = rng.standard_normal(12)
            np.testing.assert_allclose(
                p.matvec(p.matvec(v, "q"), "qinv"), v, atol=1e-10)
            np.testing.assert_allclose(
                p.matvec(p.matvec(v, "qt"), "qinvt"), v, atol=1e-10)

    def test_dense_materialization_agreement(self):
        rng = np.random.default_rng(5)
        p = SpluPrecond(8, 2)
        for _ in range(300):
            p.update(random_pair(rng, 8, scale=rng.uniform(0.3, 2.0)), 0.3)
        q = p.materialize_q()
        for _ in range(10):
            v = rng.standard_normal(8)
            np.testing.assert_allclose(p.matvec(v, "q"), q @ v, atol=1e-12)
            np.testing.assert_allclose(p.matvec(v, "qt"), q.T @ v, atol=1e-12)
            np.testing.assert_allclose(p.matvec(v, "qinv"),
                                       np.linalg.solve(q, v), atol=1e-12)
            np.testing.assert_allclose(p.matvec(v, "qinvt"),
                                       np.linalg.solve(q.T, v), atol=1e-12)

    def test_bad_selector(self):
        with pytest.raises(ContractViolationError):
            SpluPrecond(4, 2).matvec(np.ones(4), "p")

    @pytest.mark.parametrize("where, index, bad", [
        (where, index, bad)
        for where, index in [("l1", (1, 0)), ("l2", (2, 1)), ("l3", (0,)), ("u1", (0, 1)),
                             ("u2", (1, 2)), ("u3", (2,)), ("v", (4,))]
        for bad in ([np.nan] if where in ("l3", "u3") else [np.nan, np.inf])
    ] + [("l3", (0,), np.inf), ("u3", (2,), np.inf)])
    def test_inverse_products_reject_non_finite(self, where, index, bad):
        # the public inverse paths check v and every factor, which the update
        # kernel skips for a state its norm test covers; an inf in l3 or u3
        # divides its entry to zero before any solve could see it
        rng = np.random.default_rng(7)
        p = SpluPrecond(5, 2)
        for _ in range(20):
            p.update(random_pair(rng, 5), 0.3)
        v = rng.standard_normal(5)
        (v if where == "v" else getattr(p, where))[index] = bad
        for call in (lambda: p.matvec(v, "qinv"), lambda: p.matvec(v, "qinvt"),
                     lambda: p.apply_inv(v)):
            with np.errstate(all="ignore"), pytest.raises(NumericInputError):
                call()

    @pytest.mark.parametrize("dim, factor", [(2, "l1"), (1, "u1")],
                             ids=["l1-near-floor", "u1-near-floor"])
    def test_inverse_product_that_overflows_raises(self, dim, factor):
        # a diagonal just above the floor overflows a solve from finite inputs,
        # inside a product (the next solve sees an inf) or in its last solve
        # (the result is inf); either way the product is not returned
        p = SpluPrecond(dim, 1)
        getattr(p, factor)[0, 0] = 1e-299
        v = np.full(dim, 1e10)
        for call in (lambda: p.matvec(v, "qinv"), lambda: p.matvec(v, "qinvt"),
                     lambda: p.apply_inv(v)):
            with np.errstate(all="ignore"), pytest.raises(NumericInputError):
                call()

    @pytest.mark.parametrize("method, inner, outer", [("apply", "q", "qt"),
                                                      ("apply_inv", "qinvt", "qinv")])
    def test_apply_checks_input_and_state(self, method, inner, outer):
        rng = np.random.default_rng(6)
        p = SpluPrecond(6, 2)
        for _ in range(50):
            p.update(random_pair(rng, 6, scale=rng.uniform(0.3, 2.0)), 0.3)
        v = rng.standard_normal(6)
        assert getattr(p, method)(v).tobytes() == p.matvec(p.matvec(v, inner), outer).tobytes()
        with pytest.raises(ContractViolationError):
            getattr(p, method)(np.ones(5))
        before = getattr(p, method)(v)
        with pytest.raises(DegenerateStateError):
            p.set_factors(u3=np.where(np.arange(4) == 1, 1e-301, p.u3))
        assert getattr(p, method)(v).tobytes() == before.tobytes()


class TestScanQ2Matvec:
    def test_feature_normalization(self):
        nu = np.array([1.0, -2.0])
        sigma = np.array([2.0, 4.0])
        p = ScanPrecond(1, 3).set_factors(d2=[1.0 / sigma[0], 1.0 / sigma[1], 1.0],
                                          c2=[-nu[0] / sigma[0], -nu[1] / sigma[1]])
        x = np.array([3.0, 2.0, 1.0])
        np.testing.assert_allclose(
            p.materialize_q2() @ x, [(3.0 - 1.0) / 2.0, (2.0 + 2.0) / 4.0, 1.0])

    def test_identity(self):
        p = ScanPrecond(2, 4)
        x = np.arange(4.0)
        np.testing.assert_allclose(p.materialize_q2() @ x, x)

    def test_small_example(self):
        p = ScanPrecond(1, 2).set_factors(d2=[2.0, 1.0], c2=[3.0])
        np.testing.assert_allclose(p.materialize_q2() @ np.array([1.0, 1.0]), [5.0, 1.0])

    def test_matches_dense_factor(self):
        # the structured products of apply and apply_inv, against the dense Q,
        # at the shapes where Q2 has no last column above its diagonal (n == 1),
        # only that column (m == 1), and both
        rng = np.random.default_rng(6)
        for m, n in ((1, 1), (1, 7), (7, 1), (6, 9)):
            p = ScanPrecond(m, n)
            for _ in range(5):
                p.set_factors(q1=0.5 + rng.random(m), d2=0.5 + rng.random(n),
                              c2=0.5 * rng.standard_normal(n - 1))
                q = p.materialize_q()
                g, v = rng.standard_normal(m * n), rng.standard_normal(m * n)
                expect_g = q.T @ (q @ g)
                expect_v = np.linalg.solve(q.T @ q, v)
                assert np.linalg.norm(p.apply(g) - expect_g) <= 1e-12 * np.linalg.norm(expect_g)
                assert (np.linalg.norm(p.apply_inv(v) - expect_v)
                        <= 1e-12 * np.linalg.norm(expect_v))


class TestDirectSum:
    def test_all_zero_block_probe_rejected(self):
        p = DirectSumPrecond([("a", DiagPrecond(2)), ("b", DiagPrecond(3))])
        pair = TangentPair(np.array([0.0, 0.0, 1.0, 2.0, 3.0]), np.ones(5))
        with pytest.raises(ContractViolationError):
            p.update(pair, 0.1)

    def test_update_calls_each_block_update_once(self, monkeypatch):
        # The sum checks the pair once and hands each block its slice through
        # the block's public update, the entry the benchmark tracer counts.
        calls = []
        block_update = KronPrecond.update

        def counting(block, pair, step):
            calls.append(block)
            block_update(block, pair, step)

        monkeypatch.setattr(KronPrecond, "update", counting)
        p = make_preconditioner("kron", make_xor_mlp(4).layout)
        rng = np.random.default_rng(9)
        p.update(random_pair(rng, p.dim), 0.1)
        assert [id(b) for b in calls] == [id(b) for _, b in p.blocks]
        dt = rng.standard_normal(p.dim)
        dt[p.slices[1]] = 0.0
        with pytest.raises(ContractViolationError):
            p.update(TangentPair(dt, rng.standard_normal(p.dim)), 0.1)
        assert len(calls) == 2

    def test_block_probe_with_overflowing_self_dot_reports_nothing(self):
        # block a's slice [1e154, 1e154] is finite and squares finitely, but its
        # self-dot overflows: the slice's probe check must not report it
        p = DirectSumPrecond([("a", DiagPrecond(2)), ("b", DiagPrecond(2))])
        pair = TangentPair(np.array([1e154, 1e154, 1.0, 1.0]), np.ones(4))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            p.update(pair, 0.1)
        assert np.all(p.blocks[0][1].q > 1.0)

    def test_blocks_update_independently(self):
        rng = np.random.default_rng(7)
        p = DirectSumPrecond([("a", DiagPrecond(2)), ("b", DiagPrecond(3))])
        solo = DiagPrecond(2)
        for _ in range(20):
            pair = random_pair(rng, 5, scale=2.0)
            p.update(pair, 0.1)
            solo.update(TangentPair(pair.delta_theta[:2], pair.delta_g[:2]), 0.1)
        np.testing.assert_allclose(p.blocks[0][1].q, solo.q)

    @staticmethod
    def trained_sum(seed):
        rng = np.random.default_rng(seed)
        p = DirectSumPrecond([("a", KronPrecond(2, 3)), ("b", SpluPrecond(5, 2)),
                              ("c", ScanPrecond(3, 2))])
        for _ in range(30):
            p.update(random_pair(rng, p.dim, scale=rng.uniform(0.3, 2.0)), 0.3)
        return p, rng.standard_normal(p.dim)

    @pytest.mark.parametrize("method", ["apply", "apply_inv"])
    def test_apply_is_the_concatenated_block_applies(self, method):
        p, v = self.trained_sum(10)
        expected = np.concatenate([getattr(b, method)(v[s]) for (_, b), s in
                                   zip(p.blocks, p.slices)])
        assert getattr(p, method)(v).tobytes() == expected.tobytes()
        assert getattr(p, method)(list(v)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("method", ["apply", "apply_inv"])
    def test_apply_checks_the_vector_once(self, method, monkeypatch):
        p, v = self.trained_sum(11)
        checks = []
        check = Preconditioner._check_dim

        def counting(self, x):
            checks.append(self)
            return check(self, x)

        monkeypatch.setattr(Preconditioner, "_check_dim", counting)
        getattr(p, method)(v)
        assert checks == [p]

    @pytest.mark.parametrize("method", ["apply", "apply_inv"])
    def test_apply_rejects_a_wrong_length(self, method):
        p, v = self.trained_sum(12)
        for bad in (v[:-1], np.append(v, 1.0), list(v[:-1]), v[:, None], [[1.0, 2.0]]):
            with pytest.raises(ContractViolationError, match=f"length {p.dim}"):
                getattr(p, method)(bad)

    @pytest.mark.parametrize("method", ["apply", "apply_inv"])
    def test_collapsed_splu_block_raises_through_the_sum(self, method):
        layout = ParamLayout([ParamBlock("w1", (2, 3)), ParamBlock("w2", (4,))])
        p = make_preconditioner("splu", layout, splu_order=2, per_block=True)
        v = np.random.default_rng(13).standard_normal(p.dim)
        before = getattr(p, method)(v)
        with pytest.raises(DegenerateStateError, match="SpluPrecond factor diagonal collapsed"):
            p.blocks[1][1].set_factors(u3=[1.0, 1e-301])
        assert getattr(p, method)(v).tobytes() == before.tobytes()


FAMILY_SHAPES = [(DensePrecond, (4,)), (DiagPrecond, (4,)), (KronPrecond, (3, 2)),
                 (ScanPrecond, (3, 2)), (SpluPrecond, (5, 2))]


class TestDeclaration:
    @pytest.mark.parametrize("cls, shape", FAMILY_SHAPES)
    def test_fresh_state_is_declared_identity(self, cls, shape):
        p = cls(*shape)
        assert tuple(getattr(p, f) for f in cls.shape_fields) == shape
        assert p.dim == (shape[0] if "dim" in cls.shape_fields else shape[0] * shape[1])
        for (name, structure), s in zip(cls.factors, cls.factor_shapes(*shape)):
            a = getattr(p, name)
            assert a.shape == s and a.dtype == float, name
            expected = {"upper": np.eye(s[0]), "lower": np.eye(s[0]),
                        "positive": np.ones(s), "free": np.zeros(s)}[structure]
            np.testing.assert_array_equal(a, expected)
        assert p.min_diag() == 1.0

    @pytest.mark.parametrize("cls, shape", FAMILY_SHAPES)
    def test_zero_shape_field_rejected(self, cls, shape):
        for i, field in enumerate(cls.shape_fields):
            bad = shape[:i] + (0,) + shape[i + 1:]
            for make in (cls, cls.factor_shapes):
                with pytest.raises(ContractViolationError,
                                   match=f"{cls.__name__} dimension {field} must be at least 1"):
                    make(*bad)

    def test_splu_order_above_dim_rejected(self):
        for make in (SpluPrecond, SpluPrecond.factor_shapes):
            with pytest.raises(ContractViolationError, match="order"):
                make(4, 5)

    def test_collapse_message_names_the_family(self):
        with pytest.raises(DegenerateStateError, match="KronPrecond factor diagonal collapsed"):
            KronPrecond(2, 2).set_factors(q2=np.diag([1.0, 1e-301]))


def trained_state(cls, shape, seed):
    rng = np.random.default_rng(seed)
    p = cls(*shape)
    for _ in range(30):
        p.update(random_pair(rng, p.dim, scale=rng.uniform(0.3, 2.0)), 0.3)
    return p


def factor_faults(p):
    """(class, message pattern, arrays) of set_factors calls that must fail."""
    family = type(p).__name__
    faults = [(ContractViolationError, f"{family} has no factor 'q9'", {"q9": np.ones(1)})]
    for name, structure in p.factors:
        a = getattr(p, name)
        corner = (0,) * a.ndim

        def bad(value, index=corner, a=a):
            b = a.copy()
            b[index] = value
            return b

        faults += [(ContractViolationError, rf"factor {name} of shape", {name: np.append(a, 1.0)}),
                   (NumericInputError, rf"non-finite entries in factor {name}$", {name: bad(np.nan)}),
                   (NumericInputError, rf"non-finite entries in factor {name}$", {name: bad(np.inf)})]
        if structure != "free":
            faults.append((DegenerateStateError,
                           rf"{family} factor diagonal collapsed: entry below 1e-150 in factor {name}$",
                           {name: bad(np.nextafter(1e-150, 0.0))}))
        if structure in ("upper", "lower"):
            faults.append((ContractViolationError, rf"triangle of factor {name}$",
                           {name: bad(1.0, (1, 0) if structure == "upper" else (0, 1))}))
    return faults


class TestSetFactors:
    @pytest.mark.parametrize("cls, shape", FAMILY_SHAPES)
    def test_trained_factors_round_trip_bitwise(self, cls, shape):
        p = trained_state(cls, shape, 0)
        arrays = {name: getattr(p, name) for name, _ in cls.factors}
        q = cls(*shape).set_factors(**arrays)
        for name, a in arrays.items():
            assert getattr(q, name).tobytes() == a.tobytes()
            assert not np.shares_memory(getattr(q, name), a)
        v = np.random.default_rng(1).standard_normal(p.dim)
        assert q.apply(v).tobytes() == p.apply(v).tobytes()

    @pytest.mark.parametrize("cls, shape", FAMILY_SHAPES)
    def test_each_fault_names_its_factor_and_assigns_nothing(self, cls, shape):
        # each fault alone, then after a good value of the first factor in the
        # same call: neither call may change any factor
        p = trained_state(cls, shape, 2)
        first = cls.factors[0][0]
        good = {first: getattr(trained_state(cls, shape, 3), first)}
        before = [getattr(p, name).tobytes() for name, _ in cls.factors]
        for error, message, arrays in factor_faults(p):
            for call in (arrays, {**good, **arrays}):
                with pytest.raises(error, match=message):
                    p.set_factors(**call)
                assert [getattr(p, name).tobytes() for name, _ in cls.factors] == before


class TestParamCount:
    def test_table_values(self):
        assert ScanPrecond(4, 3).param_count() == 9
        assert KronPrecond(1, 1).param_count() == 2
        assert DensePrecond(2).param_count() == 3
        assert DiagPrecond(12).param_count() == 12
        # each triangle 3*4/2, each free block 9*3, each positive diagonal 9
        assert SpluPrecond(12, 3).param_count() == 2 * (3 * 4 // 2 + 9 * 3 + 9)
        assert KronPrecond(4, 3).param_count() == (16 + 9 + 4 + 3) // 2

    def test_direct_sum_sums_blocks(self):
        p = DirectSumPrecond([("a", KronPrecond(2, 3)), ("b", DiagPrecond(4))])
        assert p.param_count() == KronPrecond(2, 3).param_count() + 4


class TestFactory:
    def test_whole_theta_variants(self):
        layout = ParamLayout([ParamBlock("w1", (2, 3)), ParamBlock("w2", (4,))])
        assert isinstance(make_preconditioner("dense", layout), DensePrecond)
        assert isinstance(make_preconditioner("diag", layout), DiagPrecond)
        p = make_preconditioner("splu", layout, splu_order=20)
        assert isinstance(p, SpluPrecond) and p.r == layout.size

    def test_per_block_factored_variants(self):
        layout = ParamLayout([ParamBlock("w1", (2, 3)), ParamBlock("w2", (4,))])
        p = make_preconditioner("kron", layout)
        assert isinstance(p, DirectSumPrecond)
        assert isinstance(p.blocks[0][1], KronPrecond)
        assert (p.blocks[1][1].m, p.blocks[1][1].n) == (4, 1)
        s = make_preconditioner("scan", layout)
        assert isinstance(s.blocks[0][1], ScanPrecond)

    def test_per_block_flat_variants(self):
        layout = ParamLayout([ParamBlock("w1", (2, 3)), ParamBlock("w2", (4,))])
        p = make_preconditioner("diag", layout, per_block=True)
        assert isinstance(p, DirectSumPrecond)
        assert [b.dim for _, b in p.blocks] == [6, 4]

    @pytest.mark.parametrize("variant", ["kron", "scan"])
    def test_block_families_reject_a_rank_3_tensor(self, variant):
        layout = ParamLayout([ParamBlock("w1", (2, 3)), ParamBlock("t", (2, 2, 2))])
        with pytest.raises(ContractViolationError, match="unsupported tensor rank 3"):
            make_preconditioner(variant, layout)

    def test_unknown_variant_rejected(self):
        layout = ParamLayout([ParamBlock("w1", (2, 3))])
        for per_block in (False, True):
            with pytest.raises(ContractViolationError, match="unknown preconditioner variant"):
                make_preconditioner("lbfgs", layout, per_block=per_block)

    def test_families_table(self):
        assert list(FAMILIES) == ["dense", "diag", "splu", "kron", "scan"]
        assert [cls.tag for cls in FAMILIES.values()] == [1, 2, 3, 4, 5]
        layout = ParamLayout([ParamBlock("w1", (2, 3)), ParamBlock("w2", (4,))])
        for variant, cls in FAMILIES.items():
            p = make_preconditioner(variant, layout, splu_order=3)
            blocks = [b for _, b in p.blocks] if isinstance(p, DirectSumPrecond) else [p]
            assert all(type(b) is cls for b in blocks)


class TestMinDiag:
    def test_smallest_factor_diagonal(self):
        kron = KronPrecond(2, 2).set_factors(q2=[[1.0, -5.0], [0.0, 0.25]])
        splu = SpluPrecond(4, 2).set_factors(l2=np.full((2, 2), -3.0), u3=[2.0, 0.1])
        scan = ScanPrecond(2, 3).set_factors(c2=[-4.0, -4.0], d2=[1.0, 0.5, 2.0])
        cases = [(kron, 0.25), (splu, 0.1), (scan, 0.5),
                 (DirectSumPrecond([("a", DiagPrecond(2)), ("b", kron)]), 0.25)]
        for p, expected in cases:
            assert p.min_diag() == expected

    @pytest.mark.parametrize("maker, factor, index", [
        (lambda: DensePrecond(3), "q", (1, 1)),
        (lambda: SpluPrecond(4, 2), "l1", (0, 0)),
        (lambda: SpluPrecond(4, 2), "u3", (1,)),
        (lambda: ScanPrecond(2, 3), "d2", (2,)),
        # Python's min passes over a nan that is not first
        (lambda: DirectSumPrecond([("a", DiagPrecond(2)), ("b", DiagPrecond(2))]), "b.q", (0,)),
    ])
    def test_nan_diagonal_gives_nan(self, maker, factor, index):
        p = owner = maker()
        *blocks, factor = factor.split(".")
        for name in blocks:
            owner = dict(owner.blocks)[name]
        getattr(owner, factor)[index] = np.nan
        assert np.isnan(owner.min_diag())
        assert np.isnan(p.min_diag())


class TestCriterionDescent:
    @pytest.mark.parametrize("maker", [
        lambda: DensePrecond(6),
        lambda: DiagPrecond(6),
        lambda: KronPrecond(2, 3),
        lambda: ScanPrecond(2, 3),
        lambda: SpluPrecond(6, 2),
    ])
    def test_best_criterion_non_increasing(self, maker):
        h = np.diag([1.0, -2.0, 3.0, -4.0, 5.0, -6.0])
        rng = np.random.default_rng(9)
        pairs = []
        for _ in range(256):
            dt = rng.standard_normal(6)
            pairs.append(TangentPair(dt, h @ dt))
        p = maker()
        values = [estimation_criterion(p, pairs)]
        for _ in range(20):
            for pair in pairs:
                p.update(pair, 0.01)
            values.append(estimation_criterion(p, pairs))
        best = np.minimum.accumulate(values)
        assert np.all(np.diff(best) <= 1e-9)
        # the trend must actually descend, not just stall
        assert values[-1] < 0.75 * values[0]


class TestFixedPointMoments:
    def test_whitening_residual_small_at_fixed_point(self):
        assert whitening_residual(seed=11) <= 0.10


class TestPatternClosure:
    def test_scan_q2_pattern_closed_under_product(self):
        rng = np.random.default_rng(13)
        p = ScanPrecond(2, 6).set_factors(d2=0.5 + rng.random(6), c2=rng.standard_normal(5))
        assert np.all(p.materialize_q2()[~scan_pattern(6)] == 0.0)
        assert pattern_closure_worst(scan_pattern(6), rng) == 0.0

    @pytest.mark.parametrize("lower", [True, False])
    def test_splu_patterns_closed_under_product(self, lower):
        rng = np.random.default_rng(14)
        allowed = splu_pattern(7, 2, lower)
        p = SpluPrecond(7, 2)
        for _ in range(20):
            p.update(random_pair(rng, 7), 0.3)
        factor = p.materialize_lu()[0 if lower else 1]
        assert np.all(factor[~allowed] == 0.0)
        assert pattern_closure_worst(allowed, rng) == 0.0
