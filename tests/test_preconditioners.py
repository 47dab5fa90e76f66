import copy
import math
import pickle
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from psgdkit.checkpoint import state_from_bytes, state_to_bytes
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
    _extent,
    _invariant_fault,
    closed_form_diagonal,
    estimation_criterion,
    make_preconditioner,
)
from psgdkit.problems import ParamBlock, ParamLayout, make_xor_mlp
from psgdkit.verify import (
    _ANCHORS,
    _CLOSURE,
    _anchor_worst,
    _random_state,
    pattern_closure_worst,
    positivity_violations,
    whitening_residual,
)


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
        (lambda: KronPrecond(1, 3), "q1", (0, 0)),  # a 1x1 factor steps on scalars
    ])
    def test_non_finite_factor_raises_on_update(self, maker, factor, index, bad):
        # A non-finite entry cannot reach a factor that update meets: writing it
        # in place raises, on a state from every path into one, and leaves the
        # state as it was. set_factors copies the caller's arrays, which stay
        # writable.
        rng = np.random.default_rng(0)
        trained = maker()
        for _ in range(3):  # each factor an admitted candidate
            trained.update(random_pair(rng, trained.dim), 0.1)
        arrays = {name: getattr(trained, name).copy() for name, _ in trained.factors}
        built = maker().set_factors(**arrays)
        assert all(a.flags.writeable for a in arrays.values())
        in_sum = DirectSumPrecond([("a", trained)])
        states = [maker(), built, trained, state_from_bytes(state_to_bytes(trained)),
                  copy.deepcopy(trained), pickle.loads(pickle.dumps(trained)),
                  copy.deepcopy(in_sum).blocks[0][1],
                  pickle.loads(pickle.dumps(in_sum)).blocks[0][1]]
        for p in states:
            before = [getattr(p, name).tobytes() for name, _ in p.factors]
            with pytest.raises(ValueError, match="read-only"):
                getattr(p, factor)[index] = bad
            assert [getattr(p, name).tobytes() for name, _ in p.factors] == before
            p.update(random_pair(rng, p.dim), 0.1)

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

    @pytest.mark.parametrize("make", [lambda: DensePrecond(2), lambda: DiagPrecond(2),
                                      lambda: KronPrecond(2, 1), lambda: ScanPrecond(2, 1),
                                      lambda: SpluPrecond(2, 1)],
                             ids=["dense", "diag", "kron", "scan", "splu"])
    def test_overflowing_gradient_raises_on_update(self, make):
        # dg = [1e200, 1] squares to inf in every family's gradient: one policy
        # raises before any factor is assigned, and no warning escapes (pytest
        # turns one into an error)
        p = make()
        before = [getattr(p, name).tobytes() for name, _ in p.factors]
        with pytest.raises(NumericInputError, match="non-finite preconditioner gradient"):
            p.update(TangentPair(np.ones(2), np.array([1e200, 1.0])), 0.1)
        assert [getattr(p, name).tobytes() for name, _ in p.factors] == before

    @pytest.mark.parametrize("make, probe, side", [
        (lambda: DensePrecond(2).set_factors(q=[[1.0, 1e308], [0.0, 1.0]]), "wide", ["q"]),
        (lambda: KronPrecond(2, 1).set_factors(q1=[[1.0, 1e308], [0.0, 1.0]]), "wide", ["q1"]),
        (lambda: ScanPrecond(1, 2).set_factors(c2=[1e308]), "wide", ["d2", "c2"]),
        (lambda: DiagPrecond(1).set_factors(q=[1e308]), "narrow", ["q"]),
        (lambda: DensePrecond(1).set_factors(q=[[1e308]]), "narrow", ["q"]),
    ], ids=["dense-q", "kron-q1", "scan-c2", "diag-q", "dense-1x1-q"])
    def test_update_admits_no_state_set_factors_refuses(self, make, probe, side):
        # Each gradient is finite and about -1 on the big factor's side, so the
        # step 0.9 grows 1e308 to 1.9e308, which overflows: that side's
        # candidates are refused together (scan's finite d2 with its c2), and
        # the state stays one set_factors accepts.
        p = make()
        before = {name: getattr(p, name).tobytes() for name in side}
        pair = {"wide": TangentPair(np.array([1.0, 1e308]), np.array([1e-3, 0.0])),
                "narrow": TangentPair(np.array([1e308]), np.array([1e-320]))}[probe]
        p.update(pair, 0.9)
        for name, _ in p.factors:
            assert np.isfinite(getattr(p, name)).all(), name
        assert {name: getattr(p, name).tobytes() for name in side} == before
        assert state_to_bytes(state_from_bytes(state_to_bytes(p))) == state_to_bytes(p)


def family_states(p):
    return p._states


UNKNOWN = (math.inf, 0.0)  # a bound that proves nothing, so update scans every side
NEAR_ONE = 1.0 - 2.0 ** -53  # the largest step below 1


class TestBound:
    """The bound (hi, lo) each state carries admits a side's candidates without
    the scan only when they would pass it (see Preconditioner.update)."""

    @pytest.mark.parametrize("make", [
        lambda: DensePrecond(1), lambda: DensePrecond(3), lambda: DiagPrecond(1),
        lambda: DiagPrecond(3), lambda: KronPrecond(1, 1), lambda: KronPrecond(1, 3),
        lambda: KronPrecond(3, 1), lambda: KronPrecond(2, 3), lambda: ScanPrecond(1, 1),
        lambda: ScanPrecond(2, 1), lambda: ScanPrecond(1, 3), lambda: ScanPrecond(2, 3),
        lambda: SpluPrecond(1, 1), lambda: SpluPrecond(3, 1), lambda: SpluPrecond(4, 2),
        lambda: SpluPrecond(3, 3),
        lambda: DirectSumPrecond([("inner", DirectSumPrecond([("a", KronPrecond(2, 2)),
                                                              ("b", DiagPrecond(1))])),
                                  ("c", ScanPrecond(2, 2))]),
    ], ids=["dense1", "dense3", "diag1", "diag3", "kron1x1", "kron1x3", "kron3x1", "kron2x3",
            "scan1x1", "scan2x1", "scan1x3", "scan2x3", "splu1,1", "splu3,1", "splu4,2",
            "splu3,3", "nested-sum"])
    def test_bound_path_matches_the_scan(self, make):
        # Each update of a state that carries its bound leaves the same bytes,
        # or raises the same error, as the same state with its bound unknown;
        # every bound it carries holds for its factors, and the state loads
        # back. Probes mix unit scales (the bound path) with scales of up to
        # 1e+-160 (the scan), at steps from 1e-9 to the largest below 1.
        rng = np.random.default_rng(2024)
        p = make()

        def probe():
            v = rng.standard_normal(p.dim)
            if rng.random() < 0.5:
                return v
            if rng.random() < 0.5:
                return 10.0 ** rng.uniform(-160, 160) * v
            v[rng.integers(p.dim)] *= 10.0 ** rng.uniform(-160, 160)
            return v

        proven = scanned = 0
        for _ in range(200):
            pair = TangentPair(probe(), probe())
            step = [1e-9, 0.5, 1.0 - 1e-9, NEAR_ONE][rng.integers(4)]
            ref = copy.deepcopy(p)
            for s in family_states(ref):
                s._bound = UNKNOWN
            outcomes = []
            for s in (p, ref):
                try:
                    s.update(pair, step)
                    outcomes.append(None)
                except PsgdkitError as e:
                    outcomes.append((type(e), str(e)))
            assert outcomes[0] == outcomes[1]
            assert state_to_bytes(p) == state_to_bytes(ref)
            assert state_to_bytes(state_from_bytes(state_to_bytes(p))) == state_to_bytes(p)
            for s in family_states(p):
                (hi, lo), (max_entry, min_diag) = s._bound, s._exact_bound()
                assert hi >= max_entry and lo <= min_diag
                exact = (hi, lo) == (max_entry, min_diag)
                proven += outcomes[0] is None and not exact
                scanned += outcomes[0] is None and exact
        assert proven >= 10 and scanned >= 10, (proven, scanned)

    @pytest.mark.parametrize("make", [lambda: DensePrecond(3), lambda: KronPrecond(2, 3)],
                             ids=["dense", "kron"])
    def test_subnormal_side_norm_keeps_the_factors(self, make):
        # A side norm of about 1e-310 makes step / norm inf, and every
        # candidate inf or nan, while the state's own bound would prove it:
        # the norm's range is part of the proof, so the side is scanned,
        # refused, and the state keeps its factors and loads back.
        rng = np.random.default_rng(3)
        p = make()
        for _ in range(30):
            p.update(random_pair(rng, p.dim), 0.3)
        hi, lo = p._bound
        assert hi <= 1e100 and lo * 0.5 >= 1e-140
        before = state_to_bytes(p)
        dg = 1e-155 * rng.standard_normal(p.dim)
        pair = TangentPair(np.full(p.dim, 1e-300), dg)
        norms = [float(np.abs(g).max()) for g in p._pair_gradient(pair.delta_theta, pair.delta_g)]
        assert all(0.0 < n < 1e-308 and 0.5 / n == math.inf for n in norms)
        p.update(pair, 0.5)
        assert state_to_bytes(p) == before
        assert state_to_bytes(state_from_bytes(before)) == before

    @pytest.mark.parametrize("make", [lambda: DiagPrecond(2), lambda: DensePrecond(2),
                                      lambda: DensePrecond(1)], ids=["diag", "dense", "dense1x1"])
    @pytest.mark.parametrize("scale", [1.0, 1.5e-150])
    def test_step_near_one_admits_no_diagonal_below_the_floor(self, make, scale):
        # At the largest step below 1, mu = fl(step / norm) times the gradient
        # entry that sets the norm rounds to 1 for this x, so the candidate's
        # diagonal entry is 0: the step margin in 1 - step - delta keeps the
        # proof from admitting it, with the bound of the unit state (1, 1)
        # and with a diagonal entry just above the floor alike.
        x = next(x for x in (1.0 + i / 1000 for i in range(1000))
                 if (NEAR_ONE / (x * x)) * (x * x) >= 1.0)
        p = make()
        p.set_factors(q=np.diag([scale, 1.0][:p.dim]) if p.factors[0][1] == "upper"
                      else [scale, 1.0])
        before = state_to_bytes(p)
        dg = np.zeros(p.dim)
        dg[0] = x / scale
        dt = np.zeros(p.dim)
        dt[-1] = 1e-300
        p.update(TangentPair(dt, dg), NEAR_ONE)
        assert p.min_diag() >= 1e-150
        assert state_to_bytes(p) == before


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

    def test_nan_moment_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ContractViolationError, match="m2_theta"):
                closed_form_diagonal(np.array([1.0, bad]), np.ones(2))
            with pytest.raises(DegenerateCurvatureError, match="nan entry"):
                closed_form_diagonal(np.ones(2), np.array([bad, 1.0]))


# States with a diagonal entry at the floor, for a finite v whose inverse
# product overflows.
FLOOR_STATES = {
    "dense": lambda: DensePrecond(2).set_factors(q=np.diag([1e-150, 1.0])),
    "diag": lambda: DiagPrecond(2).set_factors(q=[1e-150, 1.0]),
    "kron": lambda: KronPrecond(2, 1).set_factors(q1=np.diag([1e-150, 1.0])),
    "scan": lambda: ScanPrecond(2, 1).set_factors(q1=[1e-150, 1.0]),
    "l1-near-floor": lambda: SpluPrecond(2, 1).set_factors(l1=[[1e-150]]),
    "u1-near-floor": lambda: SpluPrecond(1, 1).set_factors(u1=[[1e-150]]),
    "direct-sum": lambda: DirectSumPrecond([("a", DiagPrecond(1).set_factors(q=[1e-150])),
                                            ("b", KronPrecond(1, 1))]),
}


class TestSpluMatvec:
    def test_fresh_identity(self):
        p = SpluPrecond(7, 3)
        v = np.arange(7.0)
        for product in (p.apply, p.apply_inv):
            np.testing.assert_allclose(product(v), v)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        p = SpluPrecond(12, 3)
        for _ in range(300):
            p.update(random_pair(rng, 12, scale=rng.uniform(0.3, 2.0)), 0.3)
        for _ in range(10):
            v = rng.standard_normal(12)
            np.testing.assert_allclose(p.apply_inv(p.apply(v)), v, atol=1e-10)
            np.testing.assert_allclose(p.apply(p.apply_inv(v)), v, atol=1e-10)

    def test_dense_materialization_agreement(self):
        rng = np.random.default_rng(5)
        p = SpluPrecond(8, 2)
        for _ in range(300):
            p.update(random_pair(rng, 8, scale=rng.uniform(0.3, 2.0)), 0.3)
        q = p.materialize_q()
        for _ in range(10):
            v = rng.standard_normal(8)
            np.testing.assert_allclose(p.apply(v), q.T @ (q @ v), atol=1e-12)
            np.testing.assert_allclose(p.apply_inv(v), np.linalg.solve(q.T @ q, v), atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_inverse_products_reject_non_finite(self, bad):
        rng = np.random.default_rng(7)
        p = SpluPrecond(5, 2)
        for _ in range(20):
            p.update(random_pair(rng, 5), 0.3)
        v = rng.standard_normal(5)
        v[4] = bad
        with pytest.raises(NumericInputError, match="inverse product's input"):
            p.apply_inv(v)

    # apply_inv has one contract for every family, tested here for all
    @pytest.mark.parametrize("make", FLOOR_STATES.values(), ids=FLOOR_STATES.keys())
    def test_inverse_product_that_overflows_raises(self, make):
        # P^{-1} v divides v[0] = 1e10 by 1e-300, and v[0] = 1e300 overflows a
        # triangular family's first solve already; a nan in v is refused first.
        # The overflow reads the same for every family, and neither may warn
        # (pytest turns a warning into an error).
        p = make()
        for big in (1e10, 1e300):
            with pytest.raises(NumericInputError, match="non-finite inverse product"):
                p.apply_inv(np.array([big, 1.0])[:p.dim])
        with pytest.raises(NumericInputError, match="inverse product's input"):
            p.apply_inv(np.array([np.nan, 1.0])[:p.dim])
        assert np.isfinite(p.apply_inv(np.ones(p.dim))).all()

    @pytest.mark.parametrize("method", ["apply", "apply_inv"])
    def test_apply_checks_input_and_state(self, method):
        rng = np.random.default_rng(6)
        p = SpluPrecond(6, 2)
        for _ in range(50):
            p.update(random_pair(rng, 6, scale=rng.uniform(0.3, 2.0)), 0.3)
        v = rng.standard_normal(6)
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
        # the structured products of apply and apply_inv of every family, against
        # the dense Q: scan where Q2 has no last column above its diagonal
        # (n == 1), only that column (m == 1), and both; splu at order 1, below
        # its dim and at its dim; and a direct sum
        rng = np.random.default_rng(6)
        states = [ScanPrecond(1, 1), ScanPrecond(1, 7), ScanPrecond(7, 1), ScanPrecond(6, 9),
                  DensePrecond(6), DiagPrecond(6), KronPrecond(3, 4), KronPrecond(1, 5),
                  SpluPrecond(7, 1), SpluPrecond(7, 3), SpluPrecond(7, 7),
                  DirectSumPrecond([("a", KronPrecond(2, 3)), ("b", SpluPrecond(5, 2))])]
        for p in states:
            blocks = [b for _, b in p.blocks] if isinstance(p, DirectSumPrecond) else [p]
            for _ in range(5):
                for block in blocks:
                    _random_state(block, rng, 0.3)
                q = p.materialize_q()
                g, v = rng.standard_normal(p.dim), rng.standard_normal(p.dim)
                expect_g = q.T @ (q @ g)
                expect_v = np.linalg.solve(q.T @ q, v)
                assert np.linalg.norm(p.apply(g) - expect_g) <= 1e-12 * np.linalg.norm(expect_g)
                assert (np.linalg.norm(p.apply_inv(v) - expect_v)
                        <= 1e-12 * np.linalg.norm(expect_v))


def scan_apply_reference(p, g):
    """Q^T Q g of a ScanPrecond with X = g's (m, n) matrix: (q1^2 * ((X Q2^T) Q2)) raveled."""
    n, d2, c2, q1 = p.n, p.d2, p.c2, p.q1
    x = g.reshape(n, p.m).T
    y = x * d2
    if n > 1:
        y[:, :-1] += x[:, -1:] * c2
    z = y * d2
    if n > 1:
        z[:, -1] += y[:, :-1].dot(c2)
    return ((q1 * q1)[:, None] * z).T.ravel()


def scan_apply_inv_reference(p, v):
    """(Q^T Q)^{-1} v of a ScanPrecond: the two triangular solves on v's (m, n) matrix."""
    n, d2, c2, q1 = p.n, p.d2, p.c2, p.q1
    x = v.reshape(n, p.m).T / (q1 * q1)[:, None]
    y = x / d2
    if n > 1:
        y[:, -1] = (x[:, -1] - y[:, :-1].dot(c2)) / d2[-1]
    z = np.empty_like(y)
    z[:, -1] = y[:, -1] / d2[-1]
    if n > 1:
        z[:, :-1] = (y[:, :-1] - z[:, -1:] * c2) / d2[:-1]
    return z.T.ravel()


def scan_pair_gradient_reference(p, dt, dg):
    """(g1, gd, gc) of a ScanPrecond from A = Q1 dG Q2^T and B = Q1^{-1} dT Q2^{-1}, (m, n)."""
    m, n, d2, c2, q1 = p.m, p.n, p.d2, p.c2, p.q1
    dt, dg = dt.reshape(n, m).T, dg.reshape(n, m).T
    a = dg * d2
    if n > 1:
        a[:, :-1] += dg[:, -1:] * c2
    a = q1[:, None] * a
    x = dt / q1[:, None]
    bt = x / d2
    if n > 1:
        bt[:, -1] = (x[:, -1] - bt[:, :-1].dot(c2)) / d2[-1]
    aa, bb = a * a, bt * bt
    g1 = np.add.reduce(aa, 1) - np.add.reduce(bb, 1)
    gd = np.add.reduce(aa, 0) - np.add.reduce(bb, 0)
    gc = a[:, :-1].T.dot(a[:, -1]) - bt[:, :-1].T.dot(bt[:, -1]) if n > 1 else np.zeros(0)
    return g1, gd, gc


class TestScanKernels:
    # scan's three kernels bit for bit against the (m, n)-layout formulas above,
    # on trained states and on inputs scaled from 1e-5 to 1e5
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (3, 1), (4, 3), (6, 9), (16, 17)])
    def test_kernels_match_reference_bit_for_bit(self, shape):
        rng = np.random.default_rng(sum(shape))
        p = ScanPrecond(*shape)
        for _ in range(40):
            p.update(random_pair(rng, p.dim, scale=rng.uniform(0.3, 2.0)), 0.3)
        for scale in np.logspace(-5.0, 5.0, 11):
            g, v, dt, dg = scale * rng.standard_normal((4, p.dim))
            assert p._apply(g).tobytes() == scan_apply_reference(p, g).tobytes()
            assert p._apply_inv(v).tobytes() == scan_apply_inv_reference(p, v).tobytes()
            got = p._pair_gradient(dt, dg)
            expect = scan_pair_gradient_reference(p, dt, dg)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in expect]


# A side candidate that steps along the wrong side: Q - mu Q G for kron's q1,
# and U1 - mu G U1 for splu's u1, by its side's index.
WRONG_SIDES = {
    "kron": (0, lambda p, mu, g: (p.q1 - mu * p.q1.dot(g),)),
    "splu": (1, lambda p, mu, g1, g2, g3: ((p.u1 - mu * g1.dot(p.u1),)
                                           + SpluPrecond._u_candidates(p, mu, g1, g2, g3)[1:])),
}


class TestCriterionAnchor:
    @pytest.mark.parametrize("variant", WRONG_SIDES)
    def test_anchor_catches_a_wrong_step(self, variant, monkeypatch):
        # the anchor steps along each side's own candidate, so it fails the
        # family once a candidate no longer steps along its gradient
        cls = FAMILIES[variant]
        assert _anchor_worst(variant, np.random.default_rng(2024)) <= 1e-5
        index, wrong = WRONG_SIDES[variant]
        sides = list(cls._sides)
        sides[index] = sides[index][:3] + (wrong,)
        monkeypatch.setattr(cls, "_sides", sides)
        assert _anchor_worst(variant, np.random.default_rng(2024)) > 1e-5


class TestDirectSum:
    @pytest.mark.parametrize("entry", [
        ("a", "nope"), ("a", DiagPrecond(1), "extra"), (1, DiagPrecond(1)), "ab"],
        ids=["not-a-state", "three-items", "int-name", "not-a-pair"])
    def test_entry_that_is_not_a_name_state_pair_rejected(self, entry):
        with pytest.raises(ContractViolationError, match="direct sum block 1 must be a"):
            DirectSumPrecond([("ok", DiagPrecond(1)), entry])

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

    def test_update_is_atomic_when_a_block_raises(self):
        # block a's step is admitted, then block b's gradient overflows: the
        # sum raises and block a keeps the factor it had
        p = DirectSumPrecond([("a", DensePrecond(2)), ("b", DensePrecond(2))])
        with pytest.raises(NumericInputError, match="non-finite preconditioner gradient"):
            p.update(TangentPair(np.array([1.0, 2.0, 1.0, 1.0]),
                                 np.array([3.0, 1.0, 1e200, 1.0])), 0.1)
        np.testing.assert_array_equal(p.blocks[0][1].q, np.eye(2))
        np.testing.assert_array_equal(p.blocks[1][1].q, np.eye(2))
        # the restore covers each block's bound: the sum goes on as a fresh sum
        # set to those factors does
        fresh = DirectSumPrecond([("a", DensePrecond(2)), ("b", DensePrecond(2))])
        for (_, f), (_, b) in zip(fresh.blocks, p.blocks):
            f.set_factors(q=b.q)
            assert b._bound == f._bound
        pair = TangentPair(np.array([1.0, 2.0, 1.0, 1.0]), np.array([3.0, 1.0, 0.5, 1.0]))
        for s in (p, fresh):
            s.update(pair, 0.1)
        assert state_to_bytes(p) == state_to_bytes(fresh)

    def test_nested_update_is_atomic_when_a_later_block_raises(self):
        # the inner sum's blocks both step, then c's gradient overflows: the
        # outer sum puts the inner sum's blocks back too
        inner = DirectSumPrecond([("a", DiagPrecond(1)), ("b", KronPrecond(1, 1))])
        p = DirectSumPrecond([("inner", inner), ("c", DiagPrecond(1))])
        before = state_to_bytes(p)
        with pytest.raises(NumericInputError):
            p.update(TangentPair(np.ones(3), np.array([3.0, 2.0, 1e200])), 0.1)
        assert state_to_bytes(p) == before
        p.update(TangentPair(np.ones(3), np.array([3.0, 2.0, 1.0])), 0.1)
        assert inner.blocks[0][1].q[0] < 1.0 and inner.blocks[1][1].q1[0, 0] < 1.0

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

    @pytest.mark.parametrize("make, family, field", [
        (lambda: DensePrecond(2.5), "DensePrecond", "dim"),
        (lambda: DiagPrecond(np.float64(3.0)), "DiagPrecond", "dim"),
        (lambda: SpluPrecond(10, 2.5), "SpluPrecond", "r"),
        (lambda: DensePrecond(True), "DensePrecond", "dim"),
        (lambda: KronPrecond(2, "3"), "KronPrecond", "n"),
    ], ids=["float", "numpy-float", "splu-order-float", "bool", "str"])
    def test_non_integer_shape_field_rejected(self, make, family, field):
        with pytest.raises(ContractViolationError,
                           match=f"{family} dimension {field} must be an integer"):
            make()

    def test_numpy_integer_shape_field_builds(self):
        p = DensePrecond(np.int64(3))
        assert p.dim == 3 and p.q.shape == (3, 3)

    def test_shape_fields_hold_the_integers_read(self):
        # so a state's record is that of the same state built from plain ints
        for cls, shape in [(DensePrecond, (np.int64(3),)),
                           (KronPrecond, (np.int32(2), np.int64(3))),
                           (SpluPrecond, (np.int64(6), np.int64(2)))]:
            p = cls(*shape)
            assert all(type(getattr(p, f)) is int for f in ("dim",) + cls.shape_fields)
            assert state_to_bytes(p) == state_to_bytes(cls(*map(int, shape)))

    def test_state_freed_with_its_last_reference(self):
        # no state refers to itself, so dropping it frees it without the cycle
        # collector (a loader that builds many states holds none of them)
        for make in (lambda: DensePrecond(3), lambda: KronPrecond(2, 3),
                     lambda: DirectSumPrecond([("s", DirectSumPrecond([("a", DiagPrecond(2))])),
                                               ("b", ScanPrecond(2, 3))])):
            p = make()
            leaves = [weakref.ref(s) for s in p._states]
            ref = weakref.ref(p)
            del p
            assert ref() is None and all(r() is None for r in leaves)

    def test_shape_field_count_checked(self):
        for shape in ((), (2, 3)):
            with pytest.raises(ContractViolationError, match="takes 1 shape fields"):
                DensePrecond(*shape)

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

        faults += [(ContractViolationError, rf"factor {name} must hold real numbers$",
                    {name: value}) for value in ("x", [[1.0, 2.0], [3.0]], {}, a + 1j)]
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


def reference_fault(structure, a):
    """The group invariant written out: every entry finite, then every diagonal
    entry (a triangle's main diagonal, each entry of a positive vector, none of
    a free factor) at least 1e-150."""
    if not all(math.isfinite(x) for x in a.ravel().tolist()):
        return NumericInputError
    diagonal = {"upper": lambda: [a[i, i] for i in range(len(a))],
                "lower": lambda: [a[i, i] for i in range(len(a))],
                "positive": lambda: a.tolist(), "free": lambda: []}[structure]()
    return None if all(x >= 1e-150 for x in diagonal) else DegenerateStateError


FLOOR = 1e-150
EDGE_ENTRIES = [math.nan, math.inf, -math.inf, 1e200, -1e200, 5e-324, -5e-324, 2.2e-308, 0.0,
                -0.0, 1.0, -1.0, FLOOR, np.nextafter(FLOOR, 0.0), np.nextafter(FLOOR, 1.0), -FLOOR]
ENTRY = st.sampled_from(EDGE_ENTRIES) | st.floats()


@st.composite
def factor_arrays(draw):
    """(structure, array) of any structure: a triangle's square array of side 0 to 4 or
    a vector of length 0 to 5, so 1-element and empty arrays come up often."""
    structure = draw(st.sampled_from(["upper", "lower", "positive", "free"]))
    n = draw(st.integers(0, 4 if structure in ("upper", "lower") else 5))
    shape = (n, n) if structure in ("upper", "lower") else (n,)
    return structure, draw(arrays(float, shape, elements=ENTRY))


class TestInvariant:
    @given(factor_arrays())
    def test_admission_is_the_written_out_invariant(self, drawn):
        structure, a = drawn
        hi, lo = _extent(structure, a)
        assert _invariant_fault(hi, lo) is reference_fault(structure, a)
        if reference_fault(structure, a) is not NumericInputError:
            # a finite factor's extent is its exact bound
            diagonal = a.diagonal() if a.ndim == 2 else a if structure == "positive" else a[:0]
            assert hi == max(map(abs, a.ravel().tolist()), default=0.0)
            assert lo == min(diagonal.tolist(), default=math.inf)

    def test_positivity_counts_a_positive_diagonal_entry_below_the_floor(self, monkeypatch):
        # a stubbed diag update that leaves 1e-160, positive but below the floor,
        # on the diagonal: counted for diag and for the direct sum that holds one
        def update(self, pair, step):
            self.q = np.concatenate([[1e-160], np.ones(self.dim - 1)])

        monkeypatch.setattr(DiagPrecond, "update", update)
        counts = positivity_violations(np.random.default_rng(0), updates=3, step=0.5)
        assert counts == {"dense": 0, "diag": 3, "kron": 0, "scan": 0, "splu": 0,
                          "direct-sum": 3}


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
        nested = DirectSumPrecond([("s", p), ("c", DensePrecond(2))])
        assert nested.param_count() == p.param_count() + 3


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
                 (DirectSumPrecond([("a", DiagPrecond(2)), ("b", kron)]), 0.25),
                 (DirectSumPrecond([("s", DirectSumPrecond([("a", scan), ("b", splu)])),
                                    ("c", kron)]), 0.1)]
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
        a = getattr(owner, factor).copy()
        a[index] = np.nan
        setattr(owner, factor, a)
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


def assert_support_kept(row, seed):
    """A state of the closure row's family trained by 20 updates holds nothing
    outside the support of a random state's group factors, and that support is
    closed under products."""
    cls, shape, factors = _CLOSURE[row]
    rng = np.random.default_rng(seed)
    p = cls(*shape)
    _random_state(p, rng, 0.5)
    outside = [f == 0.0 for f in factors(p)]
    assert all(out.any() for out in outside)
    p = cls(*shape)
    for _ in range(20):
        p.update(random_pair(rng, p.dim), 0.3)
    assert all(np.all(f[out] == 0.0) for out, f in zip(outside, factors(p)))
    assert pattern_closure_worst(cls(*shape), factors, rng) == 0.0


class TestPatternClosure:
    def test_scan_q2_pattern_closed_under_product(self):
        assert_support_kept("scan", 13)

    @pytest.mark.parametrize("lower", [True, False])
    def test_splu_patterns_closed_under_product(self, lower):
        assert_support_kept("splu-L" if lower else "splu-U", 14)

    @pytest.mark.parametrize("row", ["dense", "kron"])
    def test_triangles_closed_under_product(self, row):
        assert_support_kept(row, 15)

    def test_closure_catches_a_pattern_that_is_not_a_group(self):
        # the diagonal and the first superdiagonal: a product fills the second
        band = pattern_closure_worst(DensePrecond(5), lambda p: (np.tril(p.q, 1),),
                                     np.random.default_rng(16))
        assert band > 0.0


TRIANGULAR = [(DensePrecond, (5,)), (KronPrecond, (3, 4)), (SpluPrecond, (7, 3))]


class TestSupport:
    @pytest.mark.parametrize("cls, shape", TRIANGULAR, ids=lambda v: getattr(v, "__name__", ""))
    def test_update_projects_each_gradient_onto_its_support(self, cls, shape, monkeypatch):
        # a gradient entry outside a triangular factor's support reaches no
        # factor: the update is byte for byte the one from the clean gradient
        p, rng = cls(*shape), np.random.default_rng(17)
        _random_state(p, rng, 0.5)
        pairs = [random_pair(rng, p.dim) for _ in range(5)]
        clean, polluted = copy.deepcopy(p), copy.deepcopy(p)
        for pair in pairs:
            clean.update(pair, 0.2)
        pair_gradient = cls._pair_gradient

        def with_outside_entries(self, dt, dg):
            grads = pair_gradient(self, dt, dg)
            for g, (_, structure) in zip(grads, self.factors):
                if structure in ("upper", "lower"):
                    g[(-1, 0) if structure == "upper" else (0, -1)] += 1.0
            return grads

        monkeypatch.setattr(cls, "_pair_gradient", with_outside_entries)
        for pair in pairs:
            polluted.update(pair, 0.2)
        for name, structure in p.factors:
            a = getattr(polluted, name)
            if structure in ("upper", "lower"):
                outside = np.tri(len(a), k=-1, dtype=bool)
                assert np.all((a if structure == "upper" else a.T)[outside] == 0.0)
            assert a.tobytes() == getattr(clean, name).tobytes()

    @pytest.mark.parametrize("variant, shape",
                             [(v, shape) for v, (_, shape, _) in _ANCHORS.items()]
                             + [("kron", (1, 5))])
    def test_random_state_diagonal(self, variant, shape):
        # verify's random states pass set_factors at scale 0.5, with every
        # triangular diagonal in 1 + 0.5 [0, 1)
        p, rng = FAMILIES[variant](*shape), np.random.default_rng(18)
        for _ in range(200):
            _random_state(p, rng, 0.5)
            for name, structure in p.factors:
                if structure in ("upper", "lower"):
                    d = getattr(p, name).diagonal()
                    assert np.all((1.0 <= d) & (d < 1.5))
