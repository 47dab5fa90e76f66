"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. Tolerances and runtime budgets are asserted, not advisory.
"""

import time

import numpy as np

from psgdkit.cli import main as cli_main
from psgdkit.curvature import ProbeConfig, TangentPair
from psgdkit.optimizer import RunConfig, run
from psgdkit.preconditioners import KronPrecond, ScanPrecond
from psgdkit.problems import make_xor_mlp
from psgdkit.verify import (
    _anchor_worst,
    dense_fixed_point,
    diag_closed_form_error,
    positivity_violations,
    splu_inverse_errors,
)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_c01_rosenbrock_default_config(tmp_path):
    # documented defaults: mu 0.5, precond step 0.1, clip 1.0, exact probes
    started = time.perf_counter()
    code = cli_main(["run", "--problem", "rosenbrock", "--method", "psgd",
                     "--precond", "dense", "--iters", "500", "--seed", "0",
                     "--out", str(tmp_path)])
    elapsed = time.perf_counter() - started
    lines = (tmp_path / "rosenbrock-psgd-dense-mu0.5-seed0.csv").read_text().splitlines()
    final_loss = float(lines[-1].split(",")[1])
    n_rows = len(lines) - 2
    ok = code == 0 and n_rows == 500 and final_loss < 1e-8 and elapsed < 1.0
    report(1, ok, f"final loss {final_loss:.3e} in {n_rows} iterations, {elapsed:.2f}s")


def test_c02_dense_fixed_point():
    started = time.perf_counter()
    eig = dense_fixed_point(seed=0, dim=10, updates=20_000, step=0.01)
    elapsed = time.perf_counter() - started
    ok = eig.min() >= 0.9 and eig.max() <= 1.1 and elapsed < 10.0
    report(2, ok, f"|eig(PH)| in [{eig.min():.4f}, {eig.max():.4f}], {elapsed:.1f}s")


def test_c03_diagonal_esgd_equivalence():
    started = time.perf_counter()
    rel_clean = diag_closed_form_error(seed=1, updates=50_000, step=0.01)
    # gradient noise scale 0.2; preconditioner step 0.003 keeps the
    # stationary fluctuation inside the tolerance
    rel_noisy = diag_closed_form_error(seed=100, updates=50_000, step=0.003, noise=0.2)
    elapsed = time.perf_counter() - started
    ok = rel_clean <= 0.05 and rel_noisy <= 0.05 and elapsed < 5.0
    report(3, ok, f"relative error {rel_clean:.3%} noiseless / {rel_noisy:.3%} noisy, "
                  f"{elapsed:.1f}s")


def test_c04_kron_fixed_point():
    started = time.perf_counter()
    rng0 = np.random.default_rng(7)
    a = rng0.standard_normal((3, 3))
    h1 = 0.5 * (a + a.T)
    b = rng0.standard_normal((4, 4))
    h2 = 0.5 * (b + b.T)
    assert np.linalg.eigvalsh(h1).min() < 0 < np.linalg.eigvalsh(h2).max()  # indefinite
    h = np.kron(h2, h1)
    rng = np.random.default_rng(0)
    p = KronPrecond(3, 4)
    for _ in range(50_000):
        dt = rng.standard_normal(12)
        p.update(TangentPair(dt, h @ dt), 0.01)
    pfull = np.kron(p.q2.T @ p.q2, p.q1.T @ p.q1)
    eig = np.abs(np.linalg.eigvals(pfull @ h))
    elapsed = time.perf_counter() - started
    ok = eig.min() >= 0.85 and eig.max() <= 1.15 and elapsed < 30.0
    report(4, ok, f"|eig((P2 x P1) H)| in [{eig.min():.4f}, {eig.max():.4f}], {elapsed:.1f}s")


def test_c05_criterion_gradient_checks():
    started = time.perf_counter()
    worst = {}
    for i, variant in enumerate(["dense", "diag", "kron", "scan", "splu"]):
        worst[variant] = _anchor_worst(variant, np.random.default_rng(1000 + i), n_dirs=20)
    elapsed = time.perf_counter() - started
    measured = max(worst.values())
    ok = measured <= 1e-5 and elapsed < 5.0
    report(5, ok, f"worst relative mismatch {measured:.3e} over "
                  f"{sorted(worst)} at 20 directions each, {elapsed:.1f}s")


def test_c06_splu_block_inverses():
    started = time.perf_counter()
    worst = max(splu_inverse_errors(np.random.default_rng(4), dim=12, order=3, updates=300,
                                    scale=1.5))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 1.0
    report(6, ok, f"worst round-trip/materialization deviation {worst:.3e}, {elapsed:.2f}s")


def test_c07_group_invariants_adversarial():
    started = time.perf_counter()
    counts = positivity_violations(np.random.default_rng(8), updates=10_000, step=0.5)
    violations = sum(counts.values())
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 10.0
    report(7, ok, f"{violations} positivity violations over 6x10^4 adversarial updates, "
                  f"{elapsed:.1f}s")


def test_c08_scan_normalization():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    nu = np.array([1.5, -2.0])
    sigma = np.array([0.7, 2.5])
    p = ScanPrecond(1, 3).set_factors(d2=[1.0 / sigma[0], 1.0 / sigma[1], 1.0],
                                      c2=[-nu[0] / sigma[0], -nu[1] / sigma[1]])
    feats = nu + sigma * rng.standard_normal((10_000, 2))
    out = np.column_stack([feats, np.ones(len(feats))]) @ p.materialize_q2().T
    mean = out[:, :2].mean(axis=0)
    var = out[:, :2].var(axis=0)
    elapsed = time.perf_counter() - started
    ok = (np.all(np.abs(mean) <= 0.02) and np.all((var >= 0.96) & (var <= 1.04))
          and np.allclose(out[:, 2], 1.0) and elapsed < 1.0)
    report(8, ok, f"normalized mean {np.round(mean, 4)}, variance {np.round(var, 4)}, "
                  f"{elapsed:.2f}s")


def test_c09_noise_amplification_inequality():
    started = time.perf_counter()
    dim = 5
    rng = np.random.default_rng(12)
    a = rng.standard_normal((dim, dim))
    h = 0.5 * (a + a.T) + np.diag([3.0, -3.0, 2.0, -2.0, 4.0])
    hinv = np.linalg.inv(h)
    noise = 0.5
    n = 100_000
    raw = rng.standard_normal((n, dim, dim))
    s = np.triu(raw) + np.transpose(np.triu(raw, 1), (0, 2, 1))
    dts = rng.standard_normal((n, dim))
    dgs = np.einsum("nij,nj->ni", h + noise * s, dts)
    hg = dgs @ hinv.T
    diff = (hg.T @ hg - dts.T @ dts) / n
    w = np.linalg.eigvalsh(0.5 * (diff + diff.T))
    elapsed = time.perf_counter() - started
    ok = w.min() >= -1e-6 and elapsed < 10.0
    report(9, ok, f"min eigenvalue {w.min():.3e} over 10^5 samples, {elapsed:.1f}s")


def test_c10_comparative_smoke_benchmark():
    # documented grids (5 points per method) and glass-box config:
    #   psgd-kron: precond step 0.05, clip 10*sqrt(dim), exact probes
    # cap 3000 iterations; a run that never reaches the threshold counts as
    # cap + 1
    started = time.perf_counter()
    prob = make_xor_mlp(4)
    cap = 3000
    threshold = 0.01
    grids = {
        "sgd": [0.5, 1.0, 2.0, 5.0, 10.0],
        "rmsprop": [0.005, 0.01, 0.05, 0.1, 0.3],
        "psgd": [0.05, 0.1, 0.2, 0.5, 0.9],
    }

    def iterations_to_threshold(cfg):
        res = run(prob, cfg)
        for row in res.rows:
            if np.isfinite(row.train_loss) and row.train_loss < threshold:
                return row.iter
        return cap + 1

    best_median = {}
    for method, grid in grids.items():
        medians = []
        for mu in grid:
            its = []
            for seed in range(5):
                if method == "psgd":
                    cfg = RunConfig(method="psgd", precond_variant="kron", mu=mu,
                                    precond_mu=0.05, clip_omega=10.0 * np.sqrt(prob.dim),
                                    probe=ProbeConfig(mode="exact"), iters=cap, seed=seed)
                else:
                    cfg = RunConfig(method=method, mu=mu, iters=cap, seed=seed)
                its.append(iterations_to_threshold(cfg))
            medians.append(np.median(its))
        best_median[method] = min(medians)
    elapsed = time.perf_counter() - started
    ok = (best_median["psgd"] < best_median["sgd"]
          and best_median["psgd"] < best_median["rmsprop"]
          and elapsed < 120.0)
    report(10, ok, "median iterations to loss<0.01 at best step size: "
                   f"psgd-kron {best_median['psgd']:.0f}, sgd {best_median['sgd']:.0f}, "
                   f"rmsprop {best_median['rmsprop']:.0f}, {elapsed:.0f}s")
