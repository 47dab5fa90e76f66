"""Tangent probes: parameter perturbations and the matching gradient responses.

A probe is a pair (delta_theta, delta_g). delta_theta is a random parameter
perturbation; delta_g is the resulting change of the stochastic gradient,
obtained either by differencing two gradient evaluations on the same bound
mini-batch or by an exact Hessian-vector product. These pairs are the only
statistic the preconditioners learn from.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapabilityError,
    ContractViolationError,
    NumericEvaluationError,
    NumericInputError,
)
from .linalg import _all_finite

__all__ = [
    "APPROX_PROBE_STD",
    "ProbeConfig",
    "TangentPair",
    "apply_damping",
    "approx_delta_g",
    "exact_delta_g",
    "make_tangent_pair",
    "sample_delta_theta",
]

# Probe std for the differencing mode: sqrt(2^-23), i.e. per-entry variance
# equal to single-precision machine epsilon. Exact mode uses unit variance.
APPROX_PROBE_STD = 2.0 ** -11.5


def _check_probe(dt: np.ndarray, dg: np.ndarray) -> None:
    """Raise unless the equal-length float vectors dt, dg are finite and dt is not all zero."""
    # A finite, positive dt.dt means dt is finite and not all zero, and a
    # finite dg.dg means dg is finite: a sum of squares cannot cancel an inf
    # or a nan. np.vdot, unlike ndarray.dot, reports no overflow in numpy's
    # error state, and only a sum that over- or underflows sends the check on
    # to scan the entries.
    if 0.0 < np.vdot(dt, dt) < math.inf and math.isfinite(np.vdot(dg, dg)):
        return
    if not (np.isfinite(dt).all() and np.isfinite(dg).all()):
        raise NumericInputError("non-finite entries in tangent pair")
    if not dt.any():
        raise ContractViolationError("delta_theta must not be all zero")


@dataclass(frozen=True)
class TangentPair:
    """A (delta_theta, delta_g) probe pair."""

    delta_theta: np.ndarray
    delta_g: np.ndarray

    def __post_init__(self):
        dt = np.asarray(self.delta_theta, dtype=float)
        dg = np.asarray(self.delta_g, dtype=float)
        if dt.shape != dg.shape or dt.ndim != 1:
            raise ContractViolationError(
                f"probe vectors must be equal-length 1-D, got {dt.shape} and {dg.shape}")
        _check_probe(dt, dg)
        object.__setattr__(self, "delta_theta", dt)
        object.__setattr__(self, "delta_g", dg)

    @property
    def dim(self) -> int:
        return self.delta_theta.shape[0]


@dataclass(frozen=True)
class ProbeConfig:
    """How probes are drawn and regularized.

    mode         -- "approximate" (gradient differencing) or "exact" (Hvp)
    damping      -- "none", "traditional" (adds lam*delta_theta to delta_g) or
                    "nonconvex" (adds lam times a fresh independent probe)
    """

    mode: str = "exact"
    damping: str = "none"
    damping_lambda: float = 0.0

    def __post_init__(self):
        if self.mode not in ("approximate", "exact"):
            raise ContractViolationError(f"unknown probe mode {self.mode!r}")
        if self.damping not in ("none", "traditional", "nonconvex"):
            raise ContractViolationError(f"unknown damping kind {self.damping!r}")
        if not 0.0 <= self.damping_lambda < math.inf:
            raise ContractViolationError(
                f"damping strength must be finite and nonnegative, got {self.damping_lambda}",
                field="damping_lambda")

    @property
    def sample_std(self) -> float:
        """Per-entry std of delta_theta: APPROX_PROBE_STD when differencing, 1 for Hvps."""
        return APPROX_PROBE_STD if self.mode == "approximate" else 1.0


def sample_delta_theta(dim: int, cfg: ProbeConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw delta_theta with i.i.d. zero-mean normal entries of std cfg.sample_std."""
    if dim < 1:
        raise ContractViolationError("probe dimension must be at least 1")
    z = rng.standard_normal(dim)
    std = cfg.sample_std
    return z if std == 1.0 else std * z  # 1.0 * z is z, bit for bit


def approx_delta_g(grad_at, theta: np.ndarray, delta_theta: np.ndarray) -> np.ndarray:
    """Gradient differencing on one bound batch: grad(theta + dt) - grad(theta).

    ``grad_at`` must be a closure already bound to a single mini-batch so both
    evaluations see the same realization; it is exact (up to rounding) on
    quadratics and O(|dt|) accurate otherwise. ``grad(theta)`` is evaluated
    first: a bound evaluator that remembers its last theta then still holds
    the step's gradient, so the probe costs one new gradient evaluation.
    """
    theta = np.asarray(theta, dtype=float)
    delta_theta = np.asarray(delta_theta, dtype=float)
    g0 = np.asarray(grad_at(theta), dtype=float)
    g1 = np.asarray(grad_at(theta + delta_theta), dtype=float)
    if not (_all_finite(g0) and _all_finite(g1)):
        raise NumericEvaluationError("non-finite gradient during probe differencing")
    return g1 - g0


def exact_delta_g(hvp, theta: np.ndarray, delta_theta: np.ndarray) -> np.ndarray:
    """Exact Hessian-vector product H(theta) @ delta_theta; no step-size limit."""
    if hvp is None:
        raise CapabilityError("problem does not provide an exact Hessian-vector product")
    out = np.asarray(hvp(np.asarray(theta, dtype=float),
                         np.asarray(delta_theta, dtype=float)), dtype=float)
    if not _all_finite(out):
        raise NumericEvaluationError("non-finite Hessian-vector product")
    return out


def apply_damping(pair: TangentPair, cfg: ProbeConfig,
                  rng: np.random.Generator) -> TangentPair:
    """Regularize a probe pair before it reaches the preconditioner.

    Traditional damping shifts every curvature estimate by +lambda; the
    non-convexity-compatible variant adds lambda times an independent probe
    with the same distribution, leaving delta_theta untouched.
    """
    if cfg.damping == "none" or cfg.damping_lambda == 0.0:
        return pair
    if cfg.damping == "traditional":
        extra = cfg.damping_lambda * pair.delta_theta
    else:
        extra = cfg.damping_lambda * sample_delta_theta(pair.dim, cfg, rng)
    return TangentPair(pair.delta_theta, pair.delta_g + extra)


def make_tangent_pair(evaluator, theta: np.ndarray, cfg: ProbeConfig,
                      rng: np.random.Generator) -> TangentPair:
    """Sample a probe, evaluate its gradient response, and apply damping.

    ``evaluator`` is a bound-batch evaluator exposing ``grad`` and optionally
    ``hvp``; the probe and the gradient share the batch by construction.
    """
    dt = sample_delta_theta(theta.shape[0], cfg, rng)
    if cfg.mode == "exact":
        dg = exact_delta_g(evaluator.hvp, theta, dt)
    else:
        dg = approx_delta_g(evaluator.grad, theta, dt)
    return apply_damping(TangentPair(dt, dg), cfg, rng)
