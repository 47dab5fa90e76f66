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
from .problems import Problem, _integer, _is_word

__all__ = [
    "RunConfig",
    "RunDiverged",
    "RunResult",
    "TraceRow",
    "batch_seed_for",
    "run",
    "skip_admits",
    "step",
]

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
        for name, ok, fault in (
                ("mu", 0.0 < self.mu < math.inf, "step size must be finite and positive"),
                ("precond_mu", 0.0 < self.precond_mu < 1.0,
                 "preconditioner step size must lie in (0, 1)"),
                ("clip_omega", self.clip_omega is None or self.clip_omega > 0.0,
                 "clip threshold must be positive"),
                ("splu_order", _integer(self.splu_order, "splu_order") >= 1,
                 "splu_order must be at least 1"),
                ("iters", _integer(self.iters, "iters") >= 1, "iters must be at least 1"),
                ("seed", _integer(self.seed, "seed") >= 0, "seed must be nonnegative")):
            if not ok:
                raise ContractViolationError(f"{fault}, got {getattr(self, name)}", field=name)


@dataclass(frozen=True, slots=True)
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
    if (t := _integer(t, "iteration index")) < 1:  # an int, so str(t) is its digits
        raise ContractViolationError("iteration index starts at 1")
    divisor = max(len(str(t)) - 1, 1)
    return t % divisor == 0


def batch_seed_for(seed: int, t: int) -> int:
    """Deterministic per-iteration batch seed, decoupled from the probe stream.

    It is the first word of SeedSequence([seed, 0xBA7C4, t]). When seed and t
    are ints in [0, 2**32), the three words go in as one uint32 array, which
    SeedSequence reads as the same entropy without converting each int.
    """
    words = [seed, 0xBA7C4, t]
    if _is_word(seed) and _is_word(t):
        words = np.array(words, dtype=np.uint32)
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def _probe_stream(cfg: RunConfig) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, 0x9B0BE]))


def _norm(x) -> float:
    """The 2-norm of a float vector: what np.linalg.norm computes, without its checks."""
    return math.sqrt(x.dot(x))


def _psgd(theta, ev, g, precond: Preconditioner, cfg, t, rng):
    """P g with the incoming (last-iteration) state.

    The probe, when the schedule admits t, then produces the state for t + 1
    from the same bound batch.
    """
    d = precond.apply(g)
    if cfg.skip_schedule == "never" or skip_admits(t):
        precond.update(make_tangent_pair(ev, theta, cfg.probe, rng), cfg.precond_mu)
    return d, precond


def _sgd(theta, ev, g, state, cfg, t, rng):
    return g, state


def _rmsprop(theta, ev, g, v, cfg, t, rng):
    v = np.zeros_like(g) if v is None else v
    v = RMSPROP_BETA * v + (1.0 - RMSPROP_BETA) * g * g
    return g / (np.sqrt(v) + RMSPROP_EPS), v


def _esgd(theta, ev, g, state, cfg, t, rng):
    """Equilibrated SGD: divide the gradient by the RMS gradient response.

    Unit-normal probes feed a running mean of the squared Hessian-vector
    product; the exact Hvp is used when the problem provides one, otherwise
    gradient differencing at the small probe scale, rescaled back to a
    unit-normal probe by linearity.
    """
    v = rng.standard_normal(theta.shape[0])
    if ev.hvp is not None:
        h = exact_delta_g(ev.hvp, theta, v)
    else:
        h = approx_delta_g(ev.grad, theta, APPROX_PROBE_STD * v) / APPROX_PROBE_STD
    m2_sum, count = (np.zeros_like(g), 0) if state is None else state
    m2_sum = m2_sum + h * h
    count += 1
    p = closed_form_diagonal(np.ones_like(g), m2_sum / count)
    return p * g, (m2_sum, count)


_DIRECTIONS = {"psgd": _psgd, "sgd": _sgd, "rmsprop": _rmsprop, "esgd": _esgd}
METHODS = tuple(_DIRECTIONS)


def step(theta, problem: Problem, state, cfg: RunConfig, t: int, rng, timing: bool = False):
    """One step theta - mu d of cfg.method; returns (theta, state, trace row).

    Binds iteration t's batch (a seeded problem with iteration t's batch
    seed, a seed-free one with the run's seed), takes the loss and gradient,
    and raises RunDiverged when either is not finite. The method's direction
    d then sees that batch and state: g for sgd, g / (sqrt v + eps) for
    rmsprop, p * g for esgd and P g for psgd. Only psgd clips d, to norm
    cfg.clip_omega; the baselines ignore it.
    """
    started = time.perf_counter_ns() if timing else 0
    ev = problem.bind_batch(batch_seed_for(cfg.seed, t) if problem.seeded else cfg.seed)
    loss = ev.loss(theta)
    g = ev.grad(theta)
    g_norm = _norm(g)
    if not (math.isfinite(loss) and math.isfinite(g_norm)):
        wall = time.perf_counter_ns() - started if timing else 0
        raise RunDiverged(TraceRow(t, loss, g_norm, float("nan"), False, wall))
    d, state = _DIRECTIONS[cfg.method](theta, ev, g, state, cfg, t, rng)
    d_norm = _norm(d)
    clipped = False
    if cfg.method == "psgd" and cfg.clip_omega is not None:
        scale = d_norm / cfg.clip_omega
        clipped = scale > 1.0
        if clipped:
            d = d / scale
    theta = theta - cfg.mu * d
    wall = time.perf_counter_ns() - started if timing else 0
    return theta, state, TraceRow(t, loss, g_norm, d_norm, clipped, wall)


def run(problem: Problem, cfg: RunConfig, timing: bool = False) -> RunResult:
    """Run a full configured training loop; deterministic given (config, seed)."""
    theta = problem.initial_theta(cfg.seed)
    rng = _probe_stream(cfg)
    rows = []
    state = (make_preconditioner(cfg.precond_variant, problem.layout, cfg.splu_order,
                                 cfg.per_block) if cfg.method == "psgd" else None)
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
