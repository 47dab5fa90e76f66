"""Criterion-based preconditioned stochastic gradient descent toolkit.

Learns positive definite preconditioners P = Q^T Q online from random
parameter perturbations and their gradient responses, with five factored
families (dense, diagonal, sparse LU, Kronecker product, and
scaling-and-normalization), two Hessian-vector-product routes, first-order
baselines, and a deterministic benchmark harness.
"""

# The package exports each library module's __all__. cli, verify and linalg
# stay out, so that `import psgdkit` loads neither the CLI nor scipy.
from .checkpoint import *
from .curvature import *
from .errors import *
from .optimizer import *
from .preconditioners import *
from .problems import *

__version__ = "0.1.0"
