"""Criterion-based preconditioned stochastic gradient descent toolkit.

Learns positive definite preconditioners P = Q^T Q online from random
parameter perturbations and their gradient responses, with five factored
families (dense, diagonal, sparse LU, Kronecker product, and
scaling-and-normalization), two Hessian-vector-product routes, first-order
baselines, and a deterministic benchmark harness.
"""

from .checkpoint import load_state, save_state, state_from_bytes, state_to_bytes
from .curvature import (
    APPROX_PROBE_STD,
    ProbeConfig,
    TangentPair,
    apply_damping,
    approx_delta_g,
    exact_delta_g,
    make_tangent_pair,
    sample_delta_theta,
)
from .errors import (
    CapabilityError,
    ContractViolationError,
    DegenerateCurvatureError,
    DegenerateStateError,
    NumericEvaluationError,
    NumericInputError,
    PsgdkitError,
)
from .optimizer import (
    RunConfig,
    RunResult,
    TraceRow,
    run,
    skip_admits,
    step,
)
from .preconditioners import (
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
from .problems import (
    BoundEvaluator,
    ParamBlock,
    ParamLayout,
    Problem,
    make_addition_rnn,
    make_quadratic,
    make_rosenbrock,
    make_xor_mlp,
)

__version__ = "0.1.0"
