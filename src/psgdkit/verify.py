"""Verification suites: gradient checks, fixed points, group closure, inverses.

Each suite returns a list of CheckResult rows (name, measured value,
tolerance, pass flag). The CLI renders them and sets the exit status; the
test suite asserts on them directly. Checks that evaluate the estimation
criterion do so through an independent dense route (materialized Q, numpy
solves) so the factored implementations are compared against plain algebra.
"""

from dataclasses import dataclass

import numpy as np

from .curvature import TangentPair
from .preconditioners import (
    DensePrecond,
    DiagPrecond,
    DirectSumPrecond,
    KronPrecond,
    Preconditioner,
    ScanPrecond,
    SpluPrecond,
    closed_form_diagonal,
)
from .problems import make_addition_rnn, make_quadratic, make_rosenbrock, make_xor_mlp

__all__ = ["CheckResult", "SUITES", "run_suite", "fd_gradient", "gradient_selfcheck"]


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
    acc = None
    for pr in pairs:
        parts = p._pair_gradient(pr.delta_theta, pr.delta_g)
        parts = parts if isinstance(parts, tuple) else (parts,)
        if acc is None:
            acc = [np.array(g, dtype=float, copy=True) for g in parts]
        else:
            for a, g in zip(acc, parts):
                a += g
    return [a / len(pairs) for a in acc]


def _random_pairs(rng, dim, count=16):
    a = rng.standard_normal((dim, dim))
    h = 0.5 * (a + a.T)
    pairs = []
    for _ in range(count):
        dt = rng.standard_normal(dim)
        pairs.append(TangentPair(dt, h @ dt + 0.1 * rng.standard_normal(dim)))
    return pairs


def _anchor_worst(variant, rng, n_dirs=20, h=1e-6):
    """Worst relative mismatch of analytic vs. finite-difference derivative.

    The analytic side is the implementation's stored relative gradient; the
    directional derivative along a group direction E (dQ = E Q, or dU = U E
    for the LU upper factor) must equal twice the inner product <E, grad>.
    """
    def rel(fd, an):
        return abs(fd - an) / max(abs(fd), abs(an), 1e-300)

    worst = 0.0
    if variant == "dense":
        dim = 5
        p = DensePrecond(dim)
        p.q = np.triu(0.3 * rng.standard_normal((dim, dim))) + np.diag(1.0 + 0.3 * rng.random(dim))
        pairs = _random_pairs(rng, dim)
        (g,) = _mean_pair_gradients(p, pairs)
        for _ in range(n_dirs):
            e = np.triu(rng.standard_normal((dim, dim)))
            fd = (_criterion_dense(p.q + h * e @ p.q, pairs)
                  - _criterion_dense(p.q - h * e @ p.q, pairs)) / (2 * h)
            worst = max(worst, rel(fd, 2.0 * np.sum(e * g)))
    elif variant == "diag":
        dim = 6
        p = DiagPrecond(dim)
        p.q = 0.5 + rng.random(dim)
        pairs = _random_pairs(rng, dim)
        (g,) = _mean_pair_gradients(p, pairs)
        for _ in range(n_dirs):
            e = rng.standard_normal(dim)
            fd = (_criterion_dense(np.diag(p.q + h * e * p.q), pairs)
                  - _criterion_dense(np.diag(p.q - h * e * p.q), pairs)) / (2 * h)
            worst = max(worst, rel(fd, 2.0 * np.sum(e * g)))
    elif variant == "kron":
        m, n = 3, 4
        p = KronPrecond(m, n)
        p.q1 = np.triu(0.2 * rng.standard_normal((m, m))) + np.diag(1.0 + 0.2 * rng.random(m))
        p.q2 = np.triu(0.2 * rng.standard_normal((n, n))) + np.diag(1.0 + 0.2 * rng.random(n))
        pairs = _random_pairs(rng, m * n)
        g1, g2 = _mean_pair_gradients(p, pairs)
        for k in range(n_dirs):
            if k % 2 == 0:
                e = np.triu(rng.standard_normal((m, m)))
                qp = np.kron(p.q2, p.q1 + h * e @ p.q1)
                qm = np.kron(p.q2, p.q1 - h * e @ p.q1)
                an = 2.0 * np.sum(e * g1)
            else:
                e = np.triu(rng.standard_normal((n, n)))
                qp = np.kron(p.q2 + h * e @ p.q2, p.q1)
                qm = np.kron(p.q2 - h * e @ p.q2, p.q1)
                an = 2.0 * np.sum(e * g2)
            fd = (_criterion_dense(qp, pairs) - _criterion_dense(qm, pairs)) / (2 * h)
            worst = max(worst, rel(fd, an))
    elif variant == "scan":
        m, n = 3, 4
        p = ScanPrecond(m, n)
        p.q1 = 0.5 + rng.random(m)
        p.d2 = 0.5 + rng.random(n)
        p.c2 = 0.3 * rng.standard_normal(n - 1)
        pairs = _random_pairs(rng, m * n)
        g1, gd, gc = _mean_pair_gradients(p, pairs)
        q2 = p.materialize_q2()
        for k in range(n_dirs):
            if k % 2 == 0:
                e = rng.standard_normal(m)
                qp = np.kron(q2, np.diag(p.q1 + h * e * p.q1))
                qm = np.kron(q2, np.diag(p.q1 - h * e * p.q1))
                an = 2.0 * np.sum(e * g1)
            else:
                ed = rng.standard_normal(n)
                ec = rng.standard_normal(n - 1)
                e = np.diag(ed)
                e[:-1, -1] = ec
                qp = np.kron(q2 + h * e @ q2, np.diag(p.q1))
                qm = np.kron(q2 - h * e @ q2, np.diag(p.q1))
                an = 2.0 * (np.sum(ed * gd) + np.sum(ec * gc))
            fd = (_criterion_dense(qp, pairs) - _criterion_dense(qm, pairs)) / (2 * h)
            worst = max(worst, rel(fd, an))
    elif variant == "splu":
        dim, r = 8, 2
        p = SpluPrecond(dim, r)
        p.l1 = np.tril(0.2 * rng.standard_normal((r, r))) + np.diag(1.0 + 0.2 * rng.random(r))
        p.l2 = 0.2 * rng.standard_normal((dim - r, r))
        p.l3 = 0.5 + rng.random(dim - r)
        p.u1 = np.triu(0.2 * rng.standard_normal((r, r))) + np.diag(1.0 + 0.2 * rng.random(r))
        p.u2 = 0.2 * rng.standard_normal((r, dim - r))
        p.u3 = 0.5 + rng.random(dim - r)
        pairs = _random_pairs(rng, dim)
        gl1, gl2, gl3, gu1, gu2, gu3 = _mean_pair_gradients(p, pairs)
        low, up = p.materialize_lu()
        for k in range(n_dirs):
            if k % 2 == 0:
                e = np.zeros((dim, dim))
                e[:r, :r] = np.tril(rng.standard_normal((r, r)))
                e[r:, :r] = rng.standard_normal((dim - r, r))
                e[r:, r:] = np.diag(rng.standard_normal(dim - r))
                qp = (low + h * e @ low) @ up
                qm = (low - h * e @ low) @ up
                an = 2.0 * (np.sum(e[:r, :r] * gl1) + np.sum(e[r:, :r] * gl2)
                            + np.sum(np.diag(e)[r:] * gl3))
            else:
                e = np.zeros((dim, dim))
                e[:r, :r] = np.triu(rng.standard_normal((r, r)))
                e[:r, r:] = rng.standard_normal((r, dim - r))
                e[r:, r:] = np.diag(rng.standard_normal(dim - r))
                qp = low @ (up + h * up @ e)
                qm = low @ (up - h * up @ e)
                an = 2.0 * (np.sum(e[:r, :r] * gu1) + np.sum(e[:r, r:] * gu2)
                            + np.sum(np.diag(e)[r:] * gu3))
            fd = (_criterion_dense(qp, pairs) - _criterion_dense(qm, pairs)) / (2 * h)
            worst = max(worst, rel(fd, an))
    else:
        raise ValueError(f"unknown variant {variant!r}")
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
    for variant in ("dense", "diag", "kron", "scan", "splu"):
        results.append(_result(f"criterion-gradient/{variant}",
                               _anchor_worst(variant, rng), 1e-5))
    return results


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def suite_fixedpoint():
    results = []

    # dense: trained on a noiseless indefinite quadratic, P H gets unit
    # absolute eigenvalues
    hdiag = np.array([k * (1 if k % 2 else -1) for k in range(1, 11)], dtype=float)
    h = np.diag(hdiag)
    rng = np.random.default_rng(0)
    p = DensePrecond(10)
    for _ in range(20000):
        dt = rng.standard_normal(10)
        p.update(TangentPair(dt, h @ dt), 0.01)
    eig = np.linalg.eigvalsh(p.q @ h @ p.q.T)
    results.append(_result("fixedpoint/dense-eig-max", np.max(np.abs(eig)), 1.1))
    results.append(_result("fixedpoint/dense-eig-min", np.min(np.abs(eig)), 0.9, larger_ok=True))

    # diagonal: adaptive state matches the closed form
    h2 = np.diag([2.0, -5.0])
    rng = np.random.default_rng(1)
    d = DiagPrecond(2)
    for _ in range(50000):
        dt = rng.standard_normal(2)
        d.update(TangentPair(dt, h2 @ dt), 0.01)
    target = closed_form_diagonal(np.ones(2), np.array([4.0, 25.0]))
    rel = np.max(np.abs(d.q * d.q - target) / target)
    results.append(_result("fixedpoint/diag-closed-form", rel, 0.05))

    # whitening identity on sample moments at the (tail-averaged) fixed point
    h6 = np.diag([1.0, -2.0, 3.0, -4.0, 5.0, -6.0])
    rng = np.random.default_rng(2)
    p = DensePrecond(6)
    for _ in range(5000):
        dt = rng.standard_normal(6)
        p.update(TangentPair(dt, h6 @ dt), 0.01)
    pbar = np.zeros((6, 6))
    navg = 0
    for k in range(60000):
        dt = rng.standard_normal(6)
        p.update(TangentPair(dt, h6 @ dt), 0.001)
        if k >= 40000:
            pbar += p.q.T @ p.q
            navg += 1
    pbar /= navg
    mg = np.zeros((6, 6))
    mt = np.zeros((6, 6))
    n = 20000
    for _ in range(n):
        dt = rng.standard_normal(6)
        dg = h6 @ dt
        mg += np.outer(dg, dg)
        mt += np.outer(dt, dt)
    mg /= n
    mt /= n
    resid = np.linalg.norm(pbar @ mg @ pbar - mt) / np.linalg.norm(mt)
    results.append(_result("fixedpoint/whitening-residual", resid, 0.10))
    return results


# ---------------------------------------------------------------------------
# group closure and invariants
# ---------------------------------------------------------------------------

def _fresh_variants():
    return [
        ("dense", DensePrecond(8), 8),
        ("diag", DiagPrecond(16), 16),
        ("kron", KronPrecond(4, 3), 12),
        ("scan", ScanPrecond(4, 3), 12),
        ("splu", SpluPrecond(12, 3), 12),
        ("direct-sum", DirectSumPrecond([("a", KronPrecond(2, 3)), ("b", DiagPrecond(4))]), 10),
    ]


def min_group_diagonal(p):
    """Smallest diagonal entry over all triangular factors of a state."""
    if not isinstance(p, Preconditioner):
        raise TypeError(f"unknown preconditioner {type(p).__name__}")
    return float(p.min_diag())


def suite_groups(updates=10000, step=0.5):
    results = []
    rng = np.random.default_rng(7)
    for name, p, dim in _fresh_variants():
        violations = 0
        for _ in range(updates):
            dt = rng.standard_normal(dim)
            dg = rng.standard_normal(dim) * rng.uniform(0.1, 3.0)
            p.update(TangentPair(dt, dg), step)
            if min_group_diagonal(p) <= 0.0:
                violations += 1
        results.append(_result(f"groups/positivity-{name}", violations, 0))

    # sparsity patterns closed under multiplication
    rng = np.random.default_rng(8)
    n = 6
    worst = 0.0
    for _ in range(50):
        def scan_mat():
            m = np.diag(rng.random(n) + 0.5)
            m[:-1, -1] = rng.standard_normal(n - 1)
            return m
        prod = scan_mat() @ scan_mat()
        mask = np.eye(n, dtype=bool)
        mask[:-1, -1] = True
        worst = max(worst, np.max(np.abs(prod[~mask])))
    results.append(_result("groups/scan-pattern-closure", worst, 0.0))

    r = 2
    worst_l = 0.0
    worst_u = 0.0
    for _ in range(50):
        def splu_l():
            m = np.zeros((n, n))
            m[:r, :r] = np.tril(rng.standard_normal((r, r))) + np.eye(r)
            m[r:, :r] = rng.standard_normal((n - r, r))
            m[r:, r:] = np.diag(rng.random(n - r) + 0.5)
            return m
        def splu_u():
            m = np.zeros((n, n))
            m[:r, :r] = np.triu(rng.standard_normal((r, r))) + np.eye(r)
            m[:r, r:] = rng.standard_normal((r, n - r))
            m[r:, r:] = np.diag(rng.random(n - r) + 0.5)
            return m
        # zeros outside {first r columns, diagonal} of the lower triangle
        prod = splu_l() @ splu_l()
        allowed = np.zeros((n, n), dtype=bool)
        allowed[:, :r] = True
        allowed |= np.eye(n, dtype=bool)
        allowed &= np.tril(np.ones((n, n), dtype=bool))
        worst_l = max(worst_l, np.max(np.abs(prod[~allowed])))
        produ = splu_u() @ splu_u()
        allowed_u = np.zeros((n, n), dtype=bool)
        allowed_u[:r, :] = True
        allowed_u |= np.eye(n, dtype=bool)
        allowed_u &= np.triu(np.ones((n, n), dtype=bool))
        worst_u = max(worst_u, np.max(np.abs(produ[~allowed_u])))
    results.append(_result("groups/splu-L-pattern-closure", worst_l, 0.0))
    results.append(_result("groups/splu-U-pattern-closure", worst_u, 0.0))
    return results


# ---------------------------------------------------------------------------
# inverses
# ---------------------------------------------------------------------------

def suite_inverses():
    results = []
    rng = np.random.default_rng(11)

    p = SpluPrecond(12, 3)
    for _ in range(200):
        p.update(TangentPair(rng.standard_normal(12), rng.standard_normal(12)), 0.3)
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(12)
        worst = max(worst, np.max(np.abs(p.matvec(p.matvec(v, "q"), "qinv") - v)))
        worst = max(worst, np.max(np.abs(p.matvec(p.matvec(v, "qt"), "qinvt") - v)))
    results.append(_result("inverses/splu-round-trip", worst, 1e-10))

    p = SpluPrecond(8, 2)
    for _ in range(200):
        p.update(TangentPair(rng.standard_normal(8), rng.standard_normal(8)), 0.3)
    q = p.materialize_q()
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(8)
        for which, ref in (("q", q @ v), ("qt", q.T @ v),
                           ("qinv", np.linalg.solve(q, v)),
                           ("qinvt", np.linalg.solve(q.T, v))):
            worst = max(worst, np.max(np.abs(p.matvec(v, which) - ref)))
    results.append(_result("inverses/splu-dense-agreement", worst, 1e-12))

    k = KronPrecond(3, 4)
    for _ in range(200):
        k.update(TangentPair(rng.standard_normal(12), rng.standard_normal(12)), 0.2)
    qk = k.materialize_q()
    pk = qk.T @ qk
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(12)
        worst = max(worst, np.max(np.abs(k.apply(v) - pk @ v)))
        worst = max(worst, np.max(np.abs(k.apply_inv(v) - np.linalg.solve(pk, v))))
    results.append(_result("inverses/kron-dense-agreement", worst, 1e-10))

    s = ScanPrecond(3, 4)
    for _ in range(200):
        s.update(TangentPair(rng.standard_normal(12), rng.standard_normal(12)), 0.2)
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(12)
        worst = max(worst, np.max(np.abs(s.apply_inv(s.apply(v)) - v)))
    results.append(_result("inverses/scan-round-trip", worst, 1e-10))

    d = DensePrecond(6)
    for _ in range(200):
        d.update(TangentPair(rng.standard_normal(6), rng.standard_normal(6)), 0.2)
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(6)
        worst = max(worst, np.max(np.abs(d.apply_inv(d.apply(v)) - v)))
    results.append(_result("inverses/dense-round-trip", worst, 1e-10))
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
