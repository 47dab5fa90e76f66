"""Verification suites: gradient checks, fixed points, group closure, inverses.

Each suite returns a list of CheckResult rows (name, measured value,
tolerance, pass flag). The CLI renders them and sets the exit status; the
test suite asserts on them directly. The experiments behind the rows
(fixed points, the closed-form diagonal, positivity over adversarial
updates, pattern closure, inverses) are functions that take their seeds
and sizes as parameters. The acceptance tests call these same functions
with their own seeds, tolerances and budgets, so each experiment has one
copy. Checks that evaluate the estimation criterion do so through an
independent dense route (materialized Q, numpy solves) so the factored
implementations are compared against plain algebra. The family checks read
each family's declaration: random states and group directions are drawn on
each factor's declared support, the criterion-gradient anchor steps along a
side's own candidate, the step update takes, the closure check takes each
family's pattern from the support of its own materialized factors, and the
inverse check runs apply and apply_inv of any state.
"""

from dataclasses import dataclass

import numpy as np

from .curvature import TangentPair
from .preconditioners import (
    DensePrecond,
    DiagPrecond,
    DirectSumPrecond,
    KronPrecond,
    ScanPrecond,
    SpluPrecond,
    _project,
    closed_form_diagonal,
)
from .preconditioners import _extent, _invariant_fault
from .problems import make_addition_rnn, make_quadratic, make_rosenbrock, make_xor_mlp

__all__ = ["CheckResult", "SUITES", "run_suite", "fd_gradient", "gradient_selfcheck",
           "dense_fixed_point", "diag_closed_form_error", "whitening_residual",
           "positivity_violations", "pattern_closure_worst", "inverse_errors"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    ok: bool


def _result(name, measured, tolerance, larger_ok=False):
    ok = measured >= tolerance if larger_ok else measured <= tolerance
    return CheckResult(name, float(measured), float(tolerance), bool(ok))


def fd_gradient(loss, theta, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    g = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (loss(theta + e) - loss(theta - e)) / (2.0 * h)
    return g


def gradient_selfcheck(problem, n_points=20, seed=0, scale=0.5):
    """Worst relative deviation of the hand-coded gradient from differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ev = problem.bind_batch(12345)
    for _ in range(n_points):
        theta = scale * rng.standard_normal(problem.dim)
        g = ev.grad(theta)
        gf = fd_gradient(ev.loss, theta)
        rel = np.max(np.abs(g - gf)) / max(np.max(np.abs(g)), 1e-12)
        worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# criterion gradient anchors
# ---------------------------------------------------------------------------

def _criterion_dense(q, pairs):
    """Estimation criterion evaluated through plain dense algebra."""
    p = q.T @ q
    total = 0.0
    for pr in pairs:
        total += pr.delta_g @ p @ pr.delta_g
        total += pr.delta_theta @ np.linalg.solve(p, pr.delta_theta)
    return total / len(pairs)


def _mean_pair_gradients(p, pairs):
    grads = [p._pair_gradient(pr.delta_theta, pr.delta_g) for pr in pairs]
    return [sum(parts) / len(pairs) for parts in zip(*grads)]


def _random_pairs(rng, dim, count=16):
    a = rng.standard_normal((dim, dim))
    h = 0.5 * (a + a.T)
    pairs = []
    for _ in range(count):
        dt = rng.standard_normal(dim)
        pairs.append(TangentPair(dt, h @ dt + 0.1 * rng.standard_normal(dim)))
    return pairs


def _random_state(p, rng, scale):
    """Fill p's declared factors: a triangle of scale * normals over a diagonal in
    1 + scale * [0, 1), a positive vector in 0.5 + [0, 1), free scale * normals."""
    values = {}
    for name, structure in p.factors:
        shape = getattr(p, name).shape
        if structure == "positive":
            values[name] = 0.5 + rng.random(shape)
            continue
        values[name] = _project(structure, scale * rng.standard_normal(shape))
        if structure != "free":
            np.fill_diagonal(values[name], 1.0 + scale * rng.random(shape[0]))
    p.set_factors(**values)


def _direction(p, grads, k, rng):
    """Q along a group direction E of side k % len(p._sides) as a function of the
    step s, and the analytic derivative 2 <E, grad> there. E holds one random
    array per factor of the side on the factor's support, so <E, grad> reads
    only the gradient's projection, and Q(s) is the side's own candidate at
    step -s with E in place of the gradients."""
    part, names, structures, candidate = p._sides[k % len(p._sides)]
    es = [_project(structure, rng.standard_normal(g.shape))
          for structure, g in zip(structures, grads[part])]
    shape = [getattr(p, field) for field in p.shape_fields]
    factors = {name: getattr(p, name) for name, _ in p.factors}

    def q_at(s):
        stepped = dict(zip(names, candidate(p, -s, *es)))
        return type(p)(*shape).set_factors(**{**factors, **stepped}).materialize_q()

    return q_at, 2.0 * sum(np.vdot(e, g) for e, g in zip(es, grads[part]))


# variant: (family, shape, scale of its random state)
_ANCHORS = {
    "dense": (DensePrecond, (5,), 0.3),
    "diag": (DiagPrecond, (6,), 0.3),
    "kron": (KronPrecond, (3, 4), 0.2),
    "scan": (ScanPrecond, (3, 4), 0.3),
    "splu": (SpluPrecond, (8, 2), 0.2),
}


def _anchor_worst(variant, rng, n_dirs=20, h=1e-6):
    """Worst relative mismatch of analytic vs. finite-difference derivative.

    The analytic side is the implementation's stored relative gradient; the
    directional derivative along the step its update takes with a group
    direction E in place of the gradient (dQ = E Q, or dU = U E for the LU
    upper factor) must equal twice the inner product <E, grad>.
    """
    cls, shape, scale = _ANCHORS[variant]
    p = cls(*shape)
    _random_state(p, rng, scale)
    pairs = _random_pairs(rng, p.dim)
    grads = _mean_pair_gradients(p, pairs)
    worst = 0.0
    for k in range(n_dirs):
        q_at, an = _direction(p, grads, k, rng)
        fd = (_criterion_dense(q_at(h), pairs) - _criterion_dense(q_at(-h), pairs)) / (2 * h)
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-300))
    return worst


def suite_gradcheck():
    results = []
    problems = [
        (make_quadratic(np.diag([2.0, -5.0, 1.0]), np.array([1.0, 0.0, -1.0])), 1e-6),
        (make_rosenbrock(), 1e-6),
        (make_xor_mlp(4), 1e-6),
        (make_addition_rnn(5, 3), 1e-5),
    ]
    for prob, tol in problems:
        results.append(_result(f"gradient/{prob.name}", gradient_selfcheck(prob), tol))
    rng = np.random.default_rng(2024)
    for variant in _ANCHORS:
        results.append(_result(f"criterion-gradient/{variant}",
                               _anchor_worst(variant, rng), 1e-5))
    return results


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def dense_fixed_point(seed, dim, updates, step):
    """|eig(Q H Q^T)| after training a dense P on the noiseless quadratic
    H = diag(1, -2, 3, ...); at the fixed point all of them are 1."""
    h = np.diag([float(k if k % 2 else -k) for k in range(1, dim + 1)])
    rng = np.random.default_rng(seed)
    p = DensePrecond(dim)
    for _ in range(updates):
        dt = rng.standard_normal(dim)
        p.update(TangentPair(dt, h @ dt), step)
    return np.abs(np.linalg.eigvalsh(p.q @ h @ p.q.T))


def diag_closed_form_error(seed, updates, step, noise=0.0):
    """Worst relative deviation of a trained diagonal P from the equilibration
    closed form on H = diag(2, -5), whose response may carry symmetric noise
    of scale ``noise`` (then E[dg_i^2] = H_ii^2 + 2 noise^2)."""
    h = np.diag([2.0, -5.0])
    rng = np.random.default_rng(seed)
    p = DiagPrecond(2)
    for _ in range(updates):
        dt = rng.standard_normal(2)
        if noise:
            raw = rng.standard_normal((2, 2))
            raw[1, 0] = raw[0, 1]
            dg = (h + noise * raw) @ dt
        else:
            dg = h @ dt
        p.update(TangentPair(dt, dg), step)
    target = closed_form_diagonal(np.ones(2), np.array([4.0, 25.0]) + 2.0 * noise ** 2)
    return np.max(np.abs(p.q * p.q - target) / target)


def whitening_residual(seed):
    """Relative residual of P E[dg dg^T] P = E[dt dt^T] on sample moments, for
    a dense P refined with a small step and averaged over the tail: an
    estimate of the state where the expected update vanishes."""
    h = np.diag([1.0, -2.0, 3.0, -4.0, 5.0, -6.0])
    rng = np.random.default_rng(seed)
    p = DensePrecond(6)
    for _ in range(5000):
        dt = rng.standard_normal(6)
        p.update(TangentPair(dt, h @ dt), 0.01)
    pbar = np.zeros((6, 6))
    navg = 0
    for k in range(60_000):
        dt = rng.standard_normal(6)
        p.update(TangentPair(dt, h @ dt), 0.001)
        if k >= 40_000:
            pbar += p.q.T @ p.q
            navg += 1
    pbar /= navg
    n = 20_000
    dts = rng.standard_normal((n, 6))
    dgs = dts @ h.T
    mg = dgs.T @ dgs / n
    mt = dts.T @ dts / n
    return np.linalg.norm(pbar @ mg @ pbar - mt) / np.linalg.norm(mt)


def suite_fixedpoint():
    eig = dense_fixed_point(0, 10, 20_000, 0.01)
    return [
        _result("fixedpoint/dense-eig-max", np.max(eig), 1.1),
        _result("fixedpoint/dense-eig-min", np.min(eig), 0.9, larger_ok=True),
        _result("fixedpoint/diag-closed-form", diag_closed_form_error(1, 50_000, 0.01), 0.05),
        _result("fixedpoint/whitening-residual", whitening_residual(2), 0.10),
    ]


# ---------------------------------------------------------------------------
# group closure and invariants
# ---------------------------------------------------------------------------

def positivity_violations(rng, updates, step):
    """Updates after which a factor of a family state (a direct sum's blocks
    included) breaks the group invariant that set_factors enforces
    (_invariant_fault: a non-finite entry, or a diagonal entry below the floor),
    per family, over adversarially scaled random pairs."""
    variants = [
        ("dense", DensePrecond(8)),
        ("diag", DiagPrecond(16)),
        ("kron", KronPrecond(4, 3)),
        ("scan", ScanPrecond(4, 3)),
        ("splu", SpluPrecond(12, 3)),
        ("direct-sum", DirectSumPrecond([("a", KronPrecond(2, 3)), ("b", DiagPrecond(4))])),
    ]
    counts = {}
    for name, p in variants:
        counts[name], states = 0, getattr(p, "_states", [p])
        for _ in range(updates):
            dt = rng.standard_normal(p.dim)
            dg = rng.standard_normal(p.dim) * rng.uniform(0.1, 3.0)
            p.update(TangentPair(dt, dg), step)
            counts[name] += any(_invariant_fault(*_extent(structure, getattr(s, factor)))
                                for s in states for factor, structure in s.factors)
    return counts


def pattern_closure_worst(p, factors, rng, scale=0.5, draws=50):
    """Largest entry outside the support of a group factor in the product of
    that factor from two random states of p, over draws pairs; 0 when the
    support is closed under products, as the group needs. factors(p) gives
    the state's group factors as dense matrices, and the support of each is
    its nonzero entries on one more random state, drawn first."""
    _random_state(p, rng, scale)
    outside = [f == 0.0 for f in factors(p)]
    worst = 0.0
    for _ in range(draws):
        _random_state(p, rng, scale)
        first = factors(p)
        _random_state(p, rng, scale)
        for out, a, b in zip(outside, first, factors(p)):
            worst = max(worst, np.max(np.abs((a @ b)[out]), initial=0.0))
    return worst


# row: (family, shape, its group factors of a state as dense matrices)
_CLOSURE = {
    "dense": (DensePrecond, (6,), lambda p: (p.q,)),
    "kron": (KronPrecond, (3, 4), lambda p: (p.q1, p.q2)),
    "scan": (ScanPrecond, (2, 6), lambda p: (p.materialize_q2(),)),
    "splu-L": (SpluPrecond, (6, 2), lambda p: p.materialize_lu()[:1]),
    "splu-U": (SpluPrecond, (6, 2), lambda p: p.materialize_lu()[1:]),
}


def suite_groups(updates=10000, step=0.5):
    counts = positivity_violations(np.random.default_rng(7), updates, step)
    results = [_result(f"groups/positivity-{name}", c, 0) for name, c in counts.items()]
    rng = np.random.default_rng(8)
    for name, (cls, shape, factors) in _CLOSURE.items():
        results.append(_result(f"groups/{name}-pattern-closure",
                               pattern_closure_worst(cls(*shape), factors, rng), 0.0))
    return results


# ---------------------------------------------------------------------------
# inverses
# ---------------------------------------------------------------------------

def inverse_errors(p, rng, updates=200, step=0.2, scale=1.0):
    """(round trip, dense agreement) of apply and apply_inv on p, trained in
    place by updates steps on pairs of normal dt and scale * normal dg.

    The round trip is the worst deviation of P^{-1} P v from v; the agreement
    is the worst deviation of P v and P^{-1} v from the materialized P.
    """
    for _ in range(updates):
        dt = rng.standard_normal(p.dim)
        p.update(TangentPair(dt, scale * rng.standard_normal(p.dim)), step)
    q = p.materialize_q()
    pd = q.T @ q
    round_trip = agreement = 0.0
    for _ in range(20):
        v = rng.standard_normal(p.dim)
        round_trip = max(round_trip, np.max(np.abs(p.apply_inv(p.apply(v)) - v)))
        agreement = max(agreement, np.max(np.abs(p.apply(v) - pd @ v)))
        agreement = max(agreement, np.max(np.abs(p.apply_inv(v) - np.linalg.solve(pd, v))))
    return round_trip, agreement


def suite_inverses():
    rng = np.random.default_rng(11)
    round_trip, _ = inverse_errors(SpluPrecond(12, 3), rng, step=0.3)
    results = [_result("inverses/splu-round-trip", round_trip, 1e-10)]
    _, agreement = inverse_errors(SpluPrecond(8, 2), rng, step=0.3)
    results.append(_result("inverses/splu-dense-agreement", agreement, 1e-12))
    _, agreement = inverse_errors(KronPrecond(3, 4), rng)
    results.append(_result("inverses/kron-dense-agreement", agreement, 1e-10))
    round_trip, _ = inverse_errors(ScanPrecond(3, 4), rng)
    results.append(_result("inverses/scan-round-trip", round_trip, 1e-10))
    round_trip, _ = inverse_errors(DensePrecond(6), rng)
    results.append(_result("inverses/dense-round-trip", round_trip, 1e-10))
    return results


SUITES = {
    "gradcheck": suite_gradcheck,
    "fixedpoint": suite_fixedpoint,
    "groups": suite_groups,
    "inverses": suite_inverses,
}


def run_suite(name: str):
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite())
        return out
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
