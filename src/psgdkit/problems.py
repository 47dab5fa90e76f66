"""Desk-scale benchmark problems with hand-coded gradients and exact Hvps.

Each problem binds a mini-batch by seed (a pure function), returning an
evaluator whose loss, gradient and optional Hessian-vector product all see the
same batch realization. That makes gradient differencing on one batch and
run-level determinism structural rather than a calling convention. A problem
whose batch ignores the seed says so (``seeded=False``), so a run need not
derive one. A run takes the loss, the gradient and a curvature probe at each
theta, so the network problems make one forward and backward pass per
distinct theta on a bound batch: loss, gradient and Hvp at one theta share
it, and a repeated gradient is a lookup.

Parameters are described by a layout of named tensors; flat vectors use
column-major order per block, matching the matricization the Kronecker-style
preconditioners use.
"""

import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ContractViolationError

__all__ = [
    "BoundEvaluator",
    "ParamBlock",
    "ParamLayout",
    "Problem",
    "make_addition_rnn",
    "make_quadratic",
    "make_rosenbrock",
    "make_xor_mlp",
]


@dataclass(frozen=True)
class ParamBlock:
    """One named tensor: a vector (n,) or matrix (m, n) slice of theta."""

    name: str
    shape: tuple

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


class ParamLayout:
    """Ordered decomposition of the flat parameter vector into named tensors."""

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        if not self.blocks:
            raise ContractViolationError("layout needs at least one block")
        self.size = sum(b.size for b in self.blocks)

    def checked(self, theta) -> np.ndarray:
        """theta as a float array, once it is a flat vector of this layout's size."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.size,):
            raise ContractViolationError(
                f"flat vector of length {self.size} expected, got {theta.shape}")
        return theta


def _integer(value, what: str) -> int:
    """value as an int; ContractViolationError unless it is an integer (numpy's
    pass) other than a bool."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ContractViolationError(f"{what} must be an integer, got {value!r}") from None


def _at_least(value, low: int, what: str, field: str) -> None:
    """ContractViolationError, naming field, unless value is an integer (see _integer)
    of at least low."""
    if _integer(value, what) < low:
        raise ContractViolationError(f"{what} must be at least {low}, got {value}", field=field)


def _is_word(x) -> bool:
    """True for an int in [0, 2**32), which a SeedSequence reads as one uint32 word."""
    return type(x) is int and 0 <= x < 1 << 32


def _batch_rng(seed) -> np.random.Generator:
    """default_rng(seed): the generator a seeded problem draws its batch from.

    A seed in [0, 2**32) goes into its SeedSequence as one uint32 word, which
    gives the same stream without the int's conversion; any other seed takes
    default_rng itself, with its result or its error.
    """
    if _is_word(seed):
        entropy = np.random.SeedSequence(np.array([seed], dtype=np.uint32))
        return np.random.Generator(np.random.PCG64(entropy))
    return np.random.default_rng(seed)


def _last_value(fn):
    """fn(th), recomputed only when th differs in value from the last call's th.

    The key is th's exact value (its shape and bytes as float64), since a
    caller may change an array in place between calls. fn runs on a read-only
    copy of th rebuilt from the key, so what it returns cannot alias the
    caller's array; an array fn hands on to callers must be made read-only by
    fn, so no caller can write into what the next call returns. A call that
    raises caches nothing.
    """
    last = (None, None)  # (key, value), swapped as one tuple so no reader mixes two calls

    def memo(th):
        nonlocal last
        th = np.asarray(th, dtype=float)
        key = (th.shape, th.tobytes())
        seen, value = last
        if seen != key:
            value = fn(np.frombuffer(key[1]).reshape(th.shape))
            last = (key, value)
        return value

    return memo


@dataclass(frozen=True)
class BoundEvaluator:
    """Loss/gradient/Hvp closures bound to one mini-batch realization."""

    loss: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hvp: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class Problem:
    """A benchmark problem: layout, batch binding, and a default start point.

    ``seeded`` says whether ``bind_batch`` depends on its seed. A run derives
    a fresh batch seed per iteration only for a seeded problem; a seed-free
    one is bound with the run's seed, which gives the same batch. A problem
    is seeded unless it says otherwise, since nothing can tell from the
    ``bind_batch`` callable alone.
    """

    name: str
    layout: ParamLayout
    bind_batch: Callable[[int], BoundEvaluator]
    initial_theta: Callable[[int], np.ndarray]
    seeded: bool = True

    @property
    def dim(self) -> int:
        return self.layout.size


def make_quadratic(h: np.ndarray, b: Optional[np.ndarray] = None,
                   noise_scale: float = 0.0, batch_size: int = 1) -> Problem:
    """Quadratic loss b^T theta + 0.5 theta^T H theta, optionally noisy.

    A batch draws ``batch_size`` independent symmetric perturbations of H and
    of b (i.i.d. standard normal entries scaled by ``noise_scale``) and
    averages them; noise_scale 0 gives the deterministic quadratic. The exact
    Hvp is v -> H_hat v. H must be a non-empty, finite, symmetric matrix, b
    finite, ``noise_scale`` finite and nonnegative, and ``batch_size`` an
    integer at least 1.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ContractViolationError("Hessian must be square")
    if h.size == 0:
        raise ContractViolationError("Hessian must not be empty", field="h")
    if not np.isfinite(h).all():  # a nan would pass the symmetry test below
        raise ContractViolationError("Hessian must be finite", field="h")
    if np.max(np.abs(h - h.T)) > 1e-12 * max(1.0, np.max(np.abs(h))):
        raise ContractViolationError("Hessian must be symmetric")
    dim = h.shape[0]
    b = np.zeros(dim) if b is None else np.asarray(b, dtype=float)
    if b.shape != (dim,):
        raise ContractViolationError("linear term has the wrong length")
    if not np.isfinite(b).all():
        raise ContractViolationError("linear term must be finite")
    if not 0.0 <= noise_scale < np.inf:
        raise ContractViolationError(
            f"noise scale must be nonnegative and finite, got {noise_scale}", field="noise_scale")
    _at_least(batch_size, 1, "batch size", "batch_size")
    layout = ParamLayout([ParamBlock("theta", (dim,))])
    upper = np.triu(np.ones((dim, dim), bool))

    def draw(rng):  # one sample: a matrix (raw's upper triangle, mirrored), then a vector
        raw = rng.standard_normal((dim, dim))
        return np.where(upper, raw, raw.T), rng.standard_normal(dim)

    def evaluator(h_hat, b_hat) -> BoundEvaluator:
        # ndarray.dot rather than @, as in the XOR MLP: the same bits for less overhead.
        # The loss halves theta before the product, as `0.5 * th @ h th` parses; halving
        # the product instead can overflow where this does not.
        return BoundEvaluator(
            loss=lambda th: float(b_hat.dot(th) + (0.5 * th).dot(h_hat.dot(th))),
            grad=lambda th: h_hat.dot(th) + b_hat,
            hvp=lambda th, v: h_hat.dot(v),
        )

    exact = evaluator(h, b)  # noise_scale 0's evaluator, built once for every seed

    def bind(seed: int) -> BoundEvaluator:
        if noise_scale == 0.0:
            return exact
        rng = _batch_rng(seed)
        # each sum starts from its first draw, so a one-sample batch adds nothing
        # and divides by nothing (x / 1 is x)
        s_acc, n_acc = draw(rng)
        if batch_size == 1:
            return evaluator(h + noise_scale * s_acc, b + noise_scale * n_acc)
        for _ in range(batch_size - 1):
            s, n = draw(rng)
            s_acc += s
            n_acc += n
        return evaluator(h + noise_scale * s_acc / batch_size,
                         b + noise_scale * n_acc / batch_size)

    return Problem(
        name="quadratic",
        layout=layout,
        bind_batch=bind,
        initial_theta=lambda seed: np.random.default_rng(seed).standard_normal(dim),
        seeded=noise_scale != 0.0,
    )


def make_rosenbrock() -> Problem:
    """The 2-D banana valley 100 (y - x^2)^2 + (1 - x)^2, minimum 0 at (1, 1)."""
    layout = ParamLayout([ParamBlock("theta", (2,))])

    def loss(th):
        x, y = th
        return float(100.0 * (y - x * x) ** 2 + (1.0 - x) ** 2)

    def grad(th):
        x, y = th
        return np.array([
            -400.0 * x * (y - x * x) - 2.0 * (1.0 - x),
            200.0 * (y - x * x),
        ])

    def hvp(th, v):
        x, y = th
        hxx = 1200.0 * x * x - 400.0 * y + 2.0
        hxy = -400.0 * x
        return np.array([hxx * v[0] + hxy * v[1], hxy * v[0] + 200.0 * v[1]])

    ev = BoundEvaluator(loss=loss, grad=grad, hvp=hvp)
    return Problem(
        name="rosenbrock",
        layout=layout,
        bind_batch=lambda seed: ev,
        initial_theta=lambda seed: np.array([-1.2, 1.0]),
        seeded=False,
    )


def _softplus(z):
    return np.logaddexp(0.0, z)


def _sigmoid(z):
    # overflow-free logistic
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def make_xor_mlp(hidden: int) -> Problem:
    """Two-layer tanh network on the four-point XOR set with logistic loss.

    Both affine blocks take inputs augmented with a constant 1. The batch is
    always the full set, so the problem is seed-free. The gradient is
    hand-coded backprop and the exact Hvp comes from a forward-over-reverse
    pass; loss, gradient and Hvp at one theta share one forward and backward
    pass, made once.
    """
    _at_least(hidden, 2, "hidden size", "hidden")
    layout = ParamLayout([
        ParamBlock("w1", (hidden, 3)),
        ParamBlock("w2", (1, hidden + 1)),
    ])
    n1 = 3 * hidden  # w1's share of theta, column-major as in the layout
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    targets = np.array([0.0, 1.0, 1.0, 0.0])
    ones, zeros = np.ones((4, 1)), np.zeros((4, 1))
    xa = np.concatenate([x, ones], axis=1)
    nb = 4.0

    # ndarray.dot and a positional reduce axis rather than @ and axis=: on these
    # tiny arrays each skips a layer that costs about as much as the arithmetic.
    # Every product and row sum keeps its operands' shapes, and so its bits.
    @_last_value
    def evaluate(th):
        """(s, read-only gradient, then the intermediates hvp reuses) at th."""
        w1 = layout.checked(th)[:n1].reshape((hidden, 3), order="F")
        w2 = th[n1:]
        z = np.tanh(xa.dot(w1.T))
        za = np.concatenate([z, ones], axis=1)
        s = za.dot(w2)
        p = _sigmoid(s)
        ds = (p - targets) / nb
        dz = ds[:, None] * w2[:hidden]
        dtanh = 1.0 - z * z
        gw1 = (dz * dtanh).T.dot(xa)
        grad = np.concatenate([gw1.ravel(order="F"), ds.dot(za)])
        grad.flags.writeable = False
        return s, grad, w2, z, za, p, ds, dz, dtanh

    def loss(th):
        s = evaluate(th)[0]
        return float(np.add.reduce(_softplus(s) - targets * s) / nb)

    def grad(th):
        return evaluate(th)[1]

    def hvp(th, v):
        _, _, w2, z, za, p, ds, dz, dtanh = evaluate(th)
        v = layout.checked(v)
        v1 = v[:n1].reshape((hidden, 3), order="F")
        v2 = v[n1:]

        rz = dtanh * xa.dot(v1.T)
        rza = np.concatenate([rz, zeros], axis=1)
        rs = za.dot(v2) + np.add.reduce(rza * w2, 1)
        rds = p * (1.0 - p) * rs / nb

        rgw2 = rds.dot(za) + ds.dot(rza)
        rdz = ds[:, None] * v2[:hidden] + rds[:, None] * w2[:hidden]
        rda1 = rdz * dtanh - 2.0 * dz * z * rz
        rgw1 = rda1.T.dot(xa)
        return np.concatenate([rgw1.ravel(order="F"), rgw2])

    ev = BoundEvaluator(loss=loss, grad=grad, hvp=hvp)
    return Problem(
        name="xor-mlp",
        layout=layout,
        bind_batch=lambda seed: ev,
        initial_theta=lambda seed: 0.5 * np.random.default_rng(seed).standard_normal(layout.size),
        seeded=False,
    )


def make_addition_rnn(seq_len: int, hidden: int, batch_size: int = 8) -> Problem:
    """Vanilla tanh RNN predicting the mean of two marked values in a sequence.

    Sequences hold uniform[0, 1] values with a {0, 1} marker channel flagging
    two distinct positions; the target is the mean of the two flagged values.
    Gradients come from hand-coded backprop through time; no exact Hvp is
    provided (use gradient differencing).
    """
    _at_least(seq_len, 4, "sequence length", "seq_len")
    _at_least(hidden, 1, "hidden size", "hidden")
    _at_least(batch_size, 1, "batch size", "batch_size")
    layout = ParamLayout([
        ParamBlock("w_rec", (hidden, hidden + 3)),
        ParamBlock("w_out", (1, hidden + 1)),
    ])
    n1 = hidden * (hidden + 3)  # w_rec's share of theta, column-major as in the layout
    rows = np.arange(batch_size)[:, None]
    one = np.ones((batch_size, 1))

    def bind(seed: int) -> BoundEvaluator:
        # the values, then the row whose two smallest entries mark the positions
        rng = _batch_rng(seed)
        values = rng.random((batch_size, seq_len))
        pos = rng.random((batch_size, seq_len)).argsort(1)[:, :2]
        marked = values[rows, pos]
        targets = 0.5 * (marked[:, 0] + marked[:, 1])  # the two values, summed in order
        # step t's augmented input [h_{t-1}, x_t, 1], so w_rec's gradient is one
        # stacked product over the steps. The batch fixes x_t = [value, mark] and
        # the 1 here; each theta fills h_{t-1} into its own copy, never into this one.
        xs_batch = np.zeros((seq_len, batch_size, hidden + 3))
        xs_batch[:, :, hidden] = values.T
        xs_batch[pos, rows, hidden + 1] = 1.0
        xs_batch[:, :, hidden + 2] = 1.0
        inputs = xs_batch[:, :, hidden:hidden + 2]

        @_last_value
        def evaluate(th):
            """(prediction, read-only gradient) at th: the forward pass, then BPTT."""
            w = layout.checked(th)[:n1].reshape((hidden, hidden + 3), order="F")
            wo = th[n1:]
            wh = w[:, :hidden]
            wht, bias = wh.T, w[:, hidden + 2]
            xw = inputs @ w[:, hidden:hidden + 2].T  # equals the per-step products bit for bit
            xs = xs_batch.copy()
            states = np.zeros((seq_len + 1, batch_size, hidden))
            for t in range(seq_len):
                a = states[t].dot(wht)  # h W^T + x W_x^T + b, summed in this order
                a += xw[t]
                a += bias
                np.tanh(a, out=states[t + 1])
            xs[:, :, :hidden] = states[:-1]
            ha = np.concatenate([states[-1], one], axis=1)
            pred = ha.dot(wo)

            dpred = 2.0 * (pred - targets) / batch_size
            dtanh = 1.0 - states * states
            das = np.empty((seq_len, batch_size, hidden))  # step t's da in das[t - 1]
            dh = dpred[:, None] * wo[:hidden]
            for t in range(seq_len, 0, -1):
                da = np.multiply(dh, dtanh[t], out=das[t - 1])
                if t > 1:  # no step before the first reads dh
                    dh = da.dot(wh)
            # step t's product [h_{t-1}, x_t, 1]^T da, w_rec's gradient transposed, as
            # its own product would round; summed from t = seq_len down
            gwt = np.add.reduce(np.matmul(xs.transpose(0, 2, 1), das)[::-1], 0)
            grad = np.concatenate([gwt.ravel(), dpred.dot(ha)])
            grad.flags.writeable = False
            return pred, grad

        def loss(th):
            d = evaluate(th)[0] - targets
            return float(np.add.reduce(d * d) / batch_size)  # np.mean's sum and divide

        def grad(th):
            return evaluate(th)[1]

        return BoundEvaluator(loss=loss, grad=grad, hvp=None)

    return Problem(
        name="addition-rnn",
        layout=layout,
        bind_batch=bind,
        initial_theta=lambda seed: 0.2 * np.random.default_rng(seed).standard_normal(layout.size),
    )
