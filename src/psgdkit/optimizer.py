"""Training loops: preconditioned SGD plus SGD, RMSProp and ESGD baselines.

The preconditioned step keeps a deliberate data dependence: the gradient of
iteration t is preconditioned with the state produced at iteration t-1, and
the probe of iteration t only produces the state for t+1. Preconditioning and
preconditioner learning therefore commute and could run in parallel; here they
run sequentially but the trajectory is identical either way.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .curvature import (
    APPROX_PROBE_STD,
    ProbeConfig,
    approx_delta_g,
    exact_delta_g,
    make_tangent_pair,
)
from .errors import (
    ContractViolationError,
    DegenerateCurvatureError,
    DegenerateStateError,
    NumericEvaluationError,
    NumericInputError,
    PsgdkitError,
)
from .preconditioners import FAMILIES, Preconditioner, closed_form_diagonal, make_preconditioner
from .problems import Problem, _integer

__all__ = [
    "RunConfig",
    "RunDiverged",
    "RunResult",
    "TraceRow",
    "batch_seed_for",
    "esgd_step",
    "psgd_step",
    "rmsprop_step",
    "run",
    "sgd_step",
    "skip_admits",
]

METHODS = ("psgd", "sgd", "rmsprop", "esgd")

# The RMSProp baseline's decay of the squared-gradient average, and the
# constant added to its root before dividing.
RMSPROP_BETA = 0.9
RMSPROP_EPS = 1e-8


@dataclass
class RunConfig:
    """One training run: method, step sizes, probe setup, schedule, seed."""

    method: str = "psgd"
    precond_variant: str = "dense"
    splu_order: int = 10
    per_block: bool = False
    mu: float = 0.5
    precond_mu: float = 0.01
    clip_omega: float | None = None
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    skip_schedule: str = "never"  # "never" skips nothing; "log10" uses skip_admits
    iters: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ContractViolationError(f"unknown method {self.method!r}")
        if self.precond_variant not in FAMILIES:
            raise ContractViolationError(f"unknown variant {self.precond_variant!r}")
        if self.skip_schedule not in ("never", "log10"):
            raise ContractViolationError(f"unknown skip schedule {self.skip_schedule!r}")
        if not 0.0 < self.mu < math.inf:
            raise ContractViolationError("step size must be finite and positive")
        if not 0.0 < self.precond_mu < 1.0:
            raise ContractViolationError("preconditioner step size must lie in (0, 1)")
        if self.clip_omega is not None and not self.clip_omega > 0.0:
            raise ContractViolationError("clip threshold must be positive")
        _integer(self.splu_order, "splu_order")
        if _integer(self.iters, "iters") < 1:
            raise ContractViolationError("iters must be at least 1")
        if _integer(self.seed, "seed") < 0:
            raise ContractViolationError("seed must be nonnegative")


@dataclass(frozen=True)
class TraceRow:
    iter: int
    train_loss: float
    grad_norm: float
    precond_grad_norm: float
    clipped: bool
    wall_ns: int


@dataclass
class RunResult:
    rows: list
    theta: np.ndarray
    state: object
    diverged: bool


class RunDiverged(PsgdkitError):
    """Raised by a step when the loss or gradient turns non-finite."""

    def __init__(self, row: TraceRow):
        super().__init__("run diverged")
        self.row = row


def skip_admits(t: int) -> bool:
    """True when iteration t should refresh the preconditioner.

    Admission rule: t mod max(floor(log10 t), 1) == 0, so every iteration is
    admitted below t = 100 and roughly one in floor(log10 t) afterwards.
    """
    if t < 1:
        raise ContractViolationError("iteration index starts at 1")
    divisor = max(len(str(t)) - 1, 1)
    return t % divisor == 0


def batch_seed_for(seed: int, t: int) -> int:
    """Deterministic per-iteration batch seed, decoupled from the probe stream."""
    return int(np.random.SeedSequence([seed, 0xBA7C4, t]).generate_state(1)[0])


def _probe_stream(cfg: RunConfig) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, 0x9B0BE]))


def _admits(cfg: RunConfig, t: int) -> bool:
    return True if cfg.skip_schedule == "never" else skip_admits(t)


def _norm(x) -> float:
    """The 2-norm of a float vector: what np.linalg.norm computes, without its checks."""
    return math.sqrt(x.dot(x))


def _finish_row(t, loss, g_norm, pg_norm, clipped, started) -> TraceRow:
    wall = time.perf_counter_ns() - started if started is not None else 0
    return TraceRow(t, loss, g_norm, pg_norm, clipped, wall)


def _begin_step(theta, problem: Problem, cfg: RunConfig, t: int, timing: bool):
    """Start the timer, bind iteration t's batch and evaluate loss and gradient.

    A seeded problem is bound with iteration t's batch seed, a seed-free one
    with the run's seed. Returns (started, bound evaluator, loss, gradient,
    gradient norm) and raises RunDiverged when the loss or the gradient is
    not finite.
    """
    started = time.perf_counter_ns() if timing else None
    ev = problem.bind_batch(batch_seed_for(cfg.seed, t) if problem.seeded else cfg.seed)
    loss = ev.loss(theta)
    g = ev.grad(theta)
    g_norm = _norm(g)
    if not (math.isfinite(loss) and math.isfinite(g_norm)):
        raise RunDiverged(_finish_row(t, loss, g_norm, float("nan"), False, started))
    return started, ev, loss, g, g_norm


def psgd_step(theta, problem: Problem, precond: Preconditioner, cfg: RunConfig,
              t: int, rng, timing: bool = False):
    """One preconditioned step; returns (theta, precond, trace row).

    The incoming preconditioner state preconditions this iteration's gradient;
    the probe (when the schedule admits t) produces the state for t + 1. Both
    the probe and the gradient see the same bound batch.
    """
    started, ev, loss, g, g_norm = _begin_step(theta, problem, cfg, t, timing)

    pg = precond.apply(g)  # incoming (last-iteration) state
    if _admits(cfg, t):
        precond.update(make_tangent_pair(ev, theta, cfg.probe, rng), cfg.precond_mu)

    pg_norm = _norm(pg)
    clipped = False
    if cfg.clip_omega is not None:
        scale = pg_norm / cfg.clip_omega
        clipped = scale > 1.0
        if clipped:
            pg = pg / scale
    theta = theta - cfg.mu * pg
    return theta, precond, _finish_row(t, loss, g_norm, pg_norm, clipped, started)


def sgd_step(theta, problem: Problem, state, cfg: RunConfig, t: int, rng,
             timing: bool = False):
    started, _, loss, g, g_norm = _begin_step(theta, problem, cfg, t, timing)
    theta = theta - cfg.mu * g
    return theta, state, _finish_row(t, loss, g_norm, g_norm, False, started)


def rmsprop_step(theta, problem: Problem, state, cfg: RunConfig, t: int, rng,
                 timing: bool = False):
    started, _, loss, g, g_norm = _begin_step(theta, problem, cfg, t, timing)
    v = np.zeros_like(g) if state is None else state
    v = RMSPROP_BETA * v + (1.0 - RMSPROP_BETA) * g * g
    step = g / (np.sqrt(v) + RMSPROP_EPS)
    theta = theta - cfg.mu * step
    return theta, v, _finish_row(t, loss, g_norm, _norm(step), False, started)


def esgd_step(theta, problem: Problem, state, cfg: RunConfig, t: int, rng,
              timing: bool = False):
    """Equilibrated SGD: divide the gradient by the RMS gradient response.

    Unit-normal probes feed a running mean of the squared Hessian-vector
    product; the exact Hvp is used when the problem provides one, otherwise
    gradient differencing at the small probe scale, rescaled back to a
    unit-normal probe by linearity.
    """
    started, ev, loss, g, g_norm = _begin_step(theta, problem, cfg, t, timing)

    v = rng.standard_normal(theta.shape[0])
    if ev.hvp is not None:
        h = exact_delta_g(ev.hvp, theta, v)
    else:
        h = approx_delta_g(ev.grad, theta, APPROX_PROBE_STD * v) / APPROX_PROBE_STD
    m2_sum, count = (np.zeros_like(g), 0) if state is None else state
    m2_sum = m2_sum + h * h
    count += 1
    p = closed_form_diagonal(np.ones_like(g), m2_sum / count)
    pg = p * g
    theta = theta - cfg.mu * pg
    return theta, (m2_sum, count), _finish_row(t, loss, g_norm, _norm(pg),
                                               False, started)


_STEPS = {"sgd": sgd_step, "rmsprop": rmsprop_step, "esgd": esgd_step}


def run(problem: Problem, cfg: RunConfig, timing: bool = False) -> RunResult:
    """Run a full configured training loop; deterministic given (config, seed)."""
    theta = problem.initial_theta(cfg.seed)
    rng = _probe_stream(cfg)
    rows = []
    if cfg.method == "psgd":
        state = make_preconditioner(cfg.precond_variant, problem.layout,
                                    cfg.splu_order, cfg.per_block)
        step = psgd_step
    else:
        state = None
        step = _STEPS[cfg.method]
    with np.errstate(all="ignore"):  # entered once; every step runs inside it
        for t in range(1, cfg.iters + 1):
            try:
                theta, state, row = step(theta, problem, state, cfg, t, rng, timing)
            except RunDiverged as stop:
                rows.append(stop.row)
                return RunResult(rows, theta, state, True)
            except (NumericEvaluationError, NumericInputError,
                    DegenerateCurvatureError, DegenerateStateError):
                # numeric failure inside a step (e.g. exploded factors after the
                # curvature vanished); record a diagnostic row and stop the run
                rows.append(TraceRow(t, float("nan"), float("nan"), float("nan"), False, 0))
                return RunResult(rows, theta, state, True)
            rows.append(row)
    return RunResult(rows, theta, state, False)
