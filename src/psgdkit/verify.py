"""Verification suites: gradient checks, fixed points, group closure, inverses.

Each suite returns a list of CheckResult rows (name, measured value,
tolerance, pass flag). The CLI renders them and sets the exit status; the
test suite asserts on them directly. The experiments behind the rows
(fixed points, the closed-form diagonal, positivity over adversarial
updates, pattern closure, splu inverses) are functions that take their
seeds and sizes as parameters. The acceptance tests call these same
functions with their own seeds, tolerances and budgets, so each experiment
has one copy. Checks that evaluate the estimation criterion do so through
an independent dense route (materialized Q, numpy solves) so the factored
implementations are compared against plain algebra.
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
    closed_form_diagonal,
)
from .problems import make_addition_rnn, make_quadratic, make_rosenbrock, make_xor_mlp

__all__ = ["CheckResult", "SUITES", "run_suite", "fd_gradient", "gradient_selfcheck",
           "dense_fixed_point", "diag_closed_form_error", "whitening_residual",
           "positivity_violations", "pattern_closure_worst", "scan_pattern", "splu_pattern",
           "splu_inverse_errors"]


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
    grads = [g if isinstance(g, tuple) else (g,) for g in grads]
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
        if structure in ("upper", "lower"):
            tri = np.triu if structure == "upper" else np.tril
            values[name] = (tri(scale * rng.standard_normal(shape))
                            + np.diag(1.0 + scale * rng.random(shape[0])))
        elif structure == "positive":
            values[name] = 0.5 + rng.random(shape)
        else:
            values[name] = scale * rng.standard_normal(shape)
    p.set_factors(**values)


def _dense_direction(p, grads, k, rng):
    e = np.triu(rng.standard_normal((p.dim, p.dim)))
    return (lambda s: p.q + s * e @ p.q), 2.0 * np.sum(e * grads[0])


def _diag_direction(p, grads, k, rng):
    e = rng.standard_normal(p.dim)
    return (lambda s: np.diag(p.q + s * e * p.q)), 2.0 * np.sum(e * grads[0])


def _kron_direction(p, grads, k, rng):
    e = np.triu(rng.standard_normal((p.m, p.m) if k % 2 == 0 else (p.n, p.n)))
    if k % 2 == 0:
        return (lambda s: np.kron(p.q2, p.q1 + s * e @ p.q1)), 2.0 * np.sum(e * grads[0])
    return (lambda s: np.kron(p.q2 + s * e @ p.q2, p.q1)), 2.0 * np.sum(e * grads[1])


def _scan_direction(p, grads, k, rng):
    g1, gd, gc = grads
    q2 = p.materialize_q2()
    if k % 2 == 0:
        e = rng.standard_normal(p.m)
        return (lambda s: np.kron(q2, np.diag(p.q1 + s * e * p.q1))), 2.0 * np.sum(e * g1)
    ed = rng.standard_normal(p.n)
    ec = rng.standard_normal(p.n - 1)
    e = np.diag(ed)
    e[:-1, -1] = ec
    return ((lambda s: np.kron(q2 + s * e @ q2, np.diag(p.q1))),
            2.0 * (np.sum(ed * gd) + np.sum(ec * gc)))


def _splu_direction(p, grads, k, rng):
    # E L on even k (E lower, first r columns), U E on odd k (E upper, first r rows)
    dim, r, lower = p.dim, p.r, k % 2 == 0
    low, up = p.materialize_lu()
    off = np.s_[r:, :r] if lower else np.s_[:r, r:]
    e = np.zeros((dim, dim))
    e[:r, :r] = (np.tril if lower else np.triu)(rng.standard_normal((r, r)))
    e[off] = rng.standard_normal(e[off].shape)
    e[r:, r:] = np.diag(rng.standard_normal(dim - r))
    g1, g2, g3 = grads[:3] if lower else grads[3:]
    an = 2.0 * (np.sum(e[:r, :r] * g1) + np.sum(e[off] * g2) + np.sum(np.diag(e)[r:] * g3))
    return ((lambda s: (low + s * e @ low) @ up) if lower
            else (lambda s: low @ (up + s * up @ e))), an


# variant: (family, shape, scale of its random state, direction sampler). A
# sampler(p, grads, k, rng) returns Q along a group direction E as a function
# of the step s, and the analytic derivative 2 <E, grad> there.
_ANCHORS = {
    "dense": (DensePrecond, (5,), 0.3, _dense_direction),
    "diag": (DiagPrecond, (6,), 0.3, _diag_direction),
    "kron": (KronPrecond, (3, 4), 0.2, _kron_direction),
    "scan": (ScanPrecond, (3, 4), 0.3, _scan_direction),
    "splu": (SpluPrecond, (8, 2), 0.2, _splu_direction),
}


def _anchor_worst(variant, rng, n_dirs=20, h=1e-6):
    """Worst relative mismatch of analytic vs. finite-difference derivative.

    The analytic side is the implementation's stored relative gradient; the
    directional derivative along a group direction E (dQ = E Q, or dU = U E
    for the LU upper factor) must equal twice the inner product <E, grad>.
    """
    cls, shape, scale, direction = _ANCHORS[variant]
    p = cls(*shape)
    _random_state(p, rng, scale)
    pairs = _random_pairs(rng, p.dim)
    grads = _mean_pair_gradients(p, pairs)
    worst = 0.0
    for k in range(n_dirs):
        q_at, an = direction(p, grads, k, rng)
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
    """Updates after which a family's smallest factor diagonal is not positive,
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
        counts[name] = 0
        for _ in range(updates):
            dt = rng.standard_normal(p.dim)
            dg = rng.standard_normal(p.dim) * rng.uniform(0.1, 3.0)
            p.update(TangentPair(dt, dg), step)
            if not p.min_diag() > 0.0:  # a nan diagonal counts
                counts[name] += 1
    return counts


def scan_pattern(n):
    """Nonzero pattern of the scan normalization factor: diagonal and last column."""
    allowed = np.eye(n, dtype=bool)
    allowed[:-1, -1] = True
    return allowed


def splu_pattern(n, r, lower):
    """Nonzero pattern of a sparse-LU factor: the diagonal plus the first r
    columns of the lower triangle, or the first r rows of the upper one."""
    idx = np.arange(n)
    if lower:
        return np.eye(n, dtype=bool) | ((idx[:, None] >= idx) & (idx[None, :] < r))
    return np.eye(n, dtype=bool) | ((idx[:, None] <= idx) & (idx[:, None] < r))


def pattern_closure_worst(allowed, rng):
    """Largest entry outside ``allowed`` in products of two random matrices with
    that pattern and a positive diagonal; 0 when the pattern is a group."""
    n = allowed.shape[0]
    worst = 0.0
    for _ in range(50):
        mats = []
        for _ in range(2):
            m = np.zeros((n, n))
            m[allowed] = rng.standard_normal(np.count_nonzero(allowed))
            np.fill_diagonal(m, 0.5 + rng.random(n))
            mats.append(m)
        worst = max(worst, np.max(np.abs((mats[0] @ mats[1])[~allowed])))
    return worst


def suite_groups(updates=10000, step=0.5):
    counts = positivity_violations(np.random.default_rng(7), updates, step)
    results = [_result(f"groups/positivity-{name}", c, 0) for name, c in counts.items()]
    rng = np.random.default_rng(8)
    for name, allowed in (("scan", scan_pattern(6)),
                          ("splu-L", splu_pattern(6, 2, lower=True)),
                          ("splu-U", splu_pattern(6, 2, lower=False))):
        results.append(_result(f"groups/{name}-pattern-closure",
                               pattern_closure_worst(allowed, rng), 0.0))
    return results


# ---------------------------------------------------------------------------
# inverses
# ---------------------------------------------------------------------------

def splu_inverse_errors(rng, dim, order, updates, scale=1.0):
    """(round trip, dense agreement) of a trained splu state's block products.

    The round trip is the worst deviation of Q^{-1} Q v and Q^{-T} Q^T v from
    v; the agreement is the worst deviation of the four products from the
    materialized Q and numpy solves.
    """
    p = SpluPrecond(dim, order)
    for _ in range(updates):
        dt = rng.standard_normal(dim)
        p.update(TangentPair(dt, scale * rng.standard_normal(dim)), 0.3)
    q = p.materialize_q()
    round_trip = agreement = 0.0
    for _ in range(20):
        v = rng.standard_normal(dim)
        round_trip = max(round_trip, np.max(np.abs(p.matvec(p.matvec(v, "q"), "qinv") - v)))
        round_trip = max(round_trip, np.max(np.abs(p.matvec(p.matvec(v, "qt"), "qinvt") - v)))
        for which, ref in (("q", q @ v), ("qt", q.T @ v),
                           ("qinv", np.linalg.solve(q, v)),
                           ("qinvt", np.linalg.solve(q.T, v))):
            agreement = max(agreement, np.max(np.abs(p.matvec(v, which) - ref)))
    return round_trip, agreement


def _apply_errors(p, rng):
    """(round trip, dense agreement) of apply and apply_inv on a trained state.

    The round trip is the worst deviation of P^{-1} P v from v; the agreement
    is the worst deviation of P v and P^{-1} v from the materialized P.
    """
    for _ in range(200):
        p.update(TangentPair(rng.standard_normal(p.dim), rng.standard_normal(p.dim)), 0.2)
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
    results = []
    rng = np.random.default_rng(11)
    round_trip, _ = splu_inverse_errors(rng, 12, 3, 200)
    results.append(_result("inverses/splu-round-trip", round_trip, 1e-10))
    _, agreement = splu_inverse_errors(rng, 8, 2, 200)
    results.append(_result("inverses/splu-dense-agreement", agreement, 1e-12))

    _, agreement = _apply_errors(KronPrecond(3, 4), rng)
    results.append(_result("inverses/kron-dense-agreement", agreement, 1e-10))
    round_trip, _ = _apply_errors(ScanPrecond(3, 4), rng)
    results.append(_result("inverses/scan-round-trip", round_trip, 1e-10))
    round_trip, _ = _apply_errors(DensePrecond(6), rng)
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
