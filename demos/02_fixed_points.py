"""What the estimation criterion converges to, on problems with known answers.

Feeding probe pairs (dt, H dt) from an indefinite diagonal Hessian to a dense
preconditioner drives P toward |H|^{-1}: the product P H ends up with unit
absolute eigenvalues, so steps are Newton-sized in every direction but never
flip uphill along negative curvature. The diagonal family converges to the
closed-form equilibration rule sqrt(E[dt^2] / E[dg^2]).
"""

import numpy as np

from psgdkit import DensePrecond, DiagPrecond, TangentPair, closed_form_diagonal

h = np.diag([1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0, 9.0, -10.0])
rng = np.random.default_rng(0)

p = DensePrecond(10)
for step in range(20_000):
    dt = rng.standard_normal(10)
    p.update(TangentPair(dt, h @ dt), 0.01)
    if step + 1 in (100, 1000, 5000, 20_000):
        eig = np.abs(np.linalg.eigvalsh(p.q @ h @ p.q.T))
        print(f"after {step + 1:6d} pairs   |eig(PH)| in [{eig.min():.3f}, {eig.max():.3f}]")

print("\ndiagonal family vs the closed form on H = diag(2, -5):")
h2 = np.diag([2.0, -5.0])
d = DiagPrecond(2)
for _ in range(50_000):
    dt = rng.standard_normal(2)
    d.update(TangentPair(dt, h2 @ dt), 0.01)
target = closed_form_diagonal(np.ones(2), np.array([4.0, 25.0]))
print(f"learned  P diagonal {np.round(d.q * d.q, 4)}")
print(f"closed   form       {np.round(target, 4)}   (= 1/|h_ii|)")
