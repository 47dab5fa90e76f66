import numpy as np
import pytest

from psgdkit.curvature import approx_delta_g
from psgdkit.errors import ContractViolationError
from psgdkit.problems import (
    Problem,
    make_addition_rnn,
    make_quadratic,
    make_rosenbrock,
    make_xor_mlp,
)
from psgdkit.verify import gradient_selfcheck


class TestQuadratic:
    def test_gradient_example(self):
        prob = make_quadratic(np.diag([2.0, -5.0]))
        ev = prob.bind_batch(0)
        np.testing.assert_allclose(ev.grad(np.array([1.0, 1.0])), [2.0, -5.0])

    def test_differencing_is_exact(self):
        prob = make_quadratic(np.diag([2.0, -5.0]))
        ev = prob.bind_batch(0)
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(2)
        dt = 1e-3 * rng.standard_normal(2)
        np.testing.assert_allclose(ev.grad(theta + dt) - ev.grad(theta),
                                   ev.hvp(theta, dt), rtol=1e-12, atol=1e-15)

    def test_gradient_is_affine_in_theta_per_batch(self):
        # same-batch identity: grad(theta) - grad(0) = H_hat theta
        prob = make_quadratic(np.diag([1.0, 2.0, 3.0]), noise_scale=0.5)
        rng = np.random.default_rng(2)
        for seed in (1, 2, 3):
            ev = prob.bind_batch(seed)
            theta = rng.standard_normal(3)
            np.testing.assert_allclose(ev.grad(theta) - ev.grad(np.zeros(3)),
                                       ev.hvp(theta, theta), rtol=1e-12)

    def test_noisy_gradient_is_unbiased(self):
        h = np.diag([1.0, -2.0, 3.0])
        b = np.array([0.5, 0.0, -0.5])
        prob = make_quadratic(h, b, noise_scale=0.1)
        theta = np.array([1.0, 1.0, 1.0])
        n = 100_000
        acc = np.zeros(3)
        for seed in range(n):
            acc += prob.bind_batch(seed).grad(theta)
        np.testing.assert_allclose(acc / n, h @ theta + b, atol=0.01 * np.linalg.norm(h @ theta + b) + 2e-3)

    def test_loss_halves_theta_before_the_product(self):
        # b.th + (0.5 th).(H th), grouped as `0.5 * th @ (h @ th)` parses: near the
        # float64 limit the loss stays finite where th.(H th) alone overflows
        h, theta = -np.eye(1), np.array([1.5e154])
        loss = make_quadratic(h).bind_batch(0).loss(theta)
        assert loss == float(0.5 * theta @ (h @ theta)) > -np.inf

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractViolationError):
            make_quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("h, b, noise, fault", [
        (np.diag([np.nan, 1.0]), None, 0.0, "Hessian must be finite"),
        (np.diag([np.inf, 1.0]), None, 0.0, "Hessian must be finite"),
        (np.eye(2), np.array([0.0, np.nan]), 0.0, "linear term must be finite"),
        (np.eye(2), np.array([-np.inf, 0.0]), 0.0, "linear term must be finite"),
        (np.eye(2), None, np.nan, "noise scale must be nonnegative and finite"),
        (np.eye(2), None, np.inf, "noise scale must be nonnegative and finite"),
    ], ids=["nan-hessian", "inf-hessian", "nan-linear", "inf-linear", "nan-noise", "inf-noise"])
    def test_non_finite_terms_rejected(self, h, b, noise, fault):
        with pytest.raises(ContractViolationError, match=fault):
            make_quadratic(h, b, noise_scale=noise)

    def test_empty_hessian_rejected(self):
        with pytest.raises(ContractViolationError, match="empty"):
            make_quadratic(np.zeros((0, 0)))

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(ContractViolationError, match="batch size"):
            make_quadratic(np.eye(2), noise_scale=0.1, batch_size=0)


class TestRosenbrock:
    def test_global_minimum(self):
        ev = make_rosenbrock().bind_batch(0)
        assert ev.loss(np.array([1.0, 1.0])) == 0.0

    def test_gradient_at_origin(self):
        ev = make_rosenbrock().bind_batch(0)
        np.testing.assert_allclose(ev.grad(np.zeros(2)), [-2.0, 0.0])

    def test_hvp_at_origin(self):
        ev = make_rosenbrock().bind_batch(0)
        np.testing.assert_allclose(ev.hvp(np.zeros(2), np.array([0.0, 1.0])), [0.0, 200.0])

    def test_finite_difference_selfcheck(self):
        assert gradient_selfcheck(make_rosenbrock()) <= 1e-6


class TestXorMlp:
    def test_zero_weights_loss_is_log_two(self):
        prob = make_xor_mlp(4)
        ev = prob.bind_batch(0)
        np.testing.assert_allclose(ev.loss(np.zeros(prob.dim)), np.log(2.0), rtol=1e-12)

    def test_gradient_selfcheck(self):
        assert gradient_selfcheck(make_xor_mlp(4)) <= 1e-6

    def test_hvp_linearity_and_symmetry(self):
        prob = make_xor_mlp(3)
        ev = prob.bind_batch(0)
        rng = np.random.default_rng(3)
        for _ in range(10):
            theta = 0.5 * rng.standard_normal(prob.dim)
            v1 = rng.standard_normal(prob.dim)
            v2 = rng.standard_normal(prob.dim)
            lin = ev.hvp(theta, 2.0 * v1 - 3.0 * v2)
            ref = 2.0 * ev.hvp(theta, v1) - 3.0 * ev.hvp(theta, v2)
            scale = max(np.max(np.abs(ref)), 1e-12)
            assert np.max(np.abs(lin - ref)) <= 1e-8 * scale
            s1 = v2 @ ev.hvp(theta, v1)
            s2 = v1 @ ev.hvp(theta, v2)
            assert abs(s1 - s2) <= 1e-8 * max(abs(s1), abs(s2), 1e-12)

    def test_hvp_matches_finite_differences(self):
        prob = make_xor_mlp(4)
        ev = prob.bind_batch(0)
        rng = np.random.default_rng(4)
        for _ in range(5):
            theta = 0.5 * rng.standard_normal(prob.dim)
            v = rng.standard_normal(prob.dim)
            h = 1e-6
            fd = (ev.grad(theta + h * v) - ev.grad(theta - h * v)) / (2.0 * h)
            hv = ev.hvp(theta, v)
            assert np.max(np.abs(fd - hv)) <= 1e-6 * max(np.max(np.abs(hv)), 1.0)


def rnn_reference(seq_len, hidden, batch_size, seed, th):
    """Loss and gradient of make_addition_rnn's batch `seed` at th, step by step.

    The plain BPTT loop: per step, the input projection in the forward pass,
    and three products and a column sum in the backward pass, each block
    summed from t = seq_len down, starting at 0.
    """
    rng = np.random.default_rng(seed)
    values = rng.random((batch_size, seq_len))
    marks = np.zeros((batch_size, seq_len))
    pos = np.argsort(rng.random((batch_size, seq_len)), axis=1)[:, :2]
    rows = np.arange(batch_size)[:, None]
    marks[rows, pos] = 1.0
    targets = 0.5 * (values[rows[:, 0], pos[:, 0]] + values[rows[:, 0], pos[:, 1]])
    inputs = np.stack([values.T, marks.T], axis=2)
    n1 = hidden * (hidden + 3)
    w, wo = th[:n1].reshape((hidden, hidden + 3), order="F"), th[n1:]
    wh, wx, bias = w[:, :hidden], w[:, hidden:hidden + 2], w[:, hidden + 2]
    states = [np.zeros((batch_size, hidden))]
    for u in inputs:
        states.append(np.tanh(states[-1] @ wh.T + u @ wx.T + bias))
    ha = np.hstack([states[-1], np.ones((batch_size, 1))])
    pred = ha @ wo
    dpred = 2.0 * (pred - targets) / batch_size
    gwh, gwx, gb = np.zeros((hidden, hidden)), np.zeros((hidden, 2)), np.zeros(hidden)
    dh = np.outer(dpred, wo[:hidden])
    for t in range(seq_len, 0, -1):
        da = dh * (1.0 - states[t] * states[t])
        gwh += da.T @ states[t - 1]
        gwx += da.T @ inputs[t - 1]
        gb += da.sum(axis=0)
        dh = da @ wh
    gw = np.concatenate([gwh, gwx, gb[:, None]], axis=1)
    return float(np.mean((pred - targets) ** 2)), np.concatenate([gw.ravel(order="F"), dpred @ ha])


def rnn_cases(hidden):
    for seq_len in (4, 10, 17):
        for batch_size in (1, 3, 16):
            prob = make_addition_rnn(seq_len, hidden, batch_size=batch_size)
            for seed in (0, 1):
                for scale in (1.0, 3.0):
                    th = scale * prob.initial_theta(seed)
                    ev = prob.bind_batch(seed + 5)
                    yield (ev.loss(th), ev.grad(th),
                           rnn_reference(seq_len, hidden, batch_size, seed + 5, th))


class TestAdditionRnn:
    @pytest.mark.parametrize("hidden", [2, 3, 6, 9])
    def test_matches_step_by_step_reference_bit_for_bit(self, hidden):
        for loss, grad, (ref_loss, ref_grad) in rnn_cases(hidden):
            assert loss == ref_loss
            assert grad.tobytes() == ref_grad.tobytes()

    def test_one_hidden_unit_matches_reference_to_rounding(self):
        # with one hidden unit the reference's products and column sum take
        # other numpy paths (dot, pairwise sum) than the fused product
        for loss, grad, (ref_loss, ref_grad) in rnn_cases(1):
            assert loss == ref_loss
            assert np.max(np.abs(grad - ref_grad)) <= 1e-13 * np.max(np.abs(ref_grad))

    def test_later_calls_leave_an_earlier_gradient_alone(self):
        prob = make_addition_rnn(10, 6, batch_size=16)
        ev = prob.bind_batch(4)
        th1, th2 = prob.initial_theta(1), prob.initial_theta(2)
        g1 = ev.grad(th1)
        before = g1.tobytes()
        g2 = ev.grad(th2)
        again = ev.grad(th1)
        assert again.tobytes() == before and g1.tobytes() == before
        assert g2.tobytes() != before
        assert not g1.flags.writeable

    def test_zero_weights_mse_is_target_second_moment(self):
        # prediction is identically 0, so the loss equals the spread of the
        # targets about 0; oracle: Monte Carlo over targets alone
        prob = make_addition_rnn(8, 4, batch_size=4)
        theta0 = np.zeros(prob.dim)
        n_batches = 2500  # 10^4 sequences
        acc = 0.0
        for seed in range(n_batches):
            acc += prob.bind_batch(seed).loss(theta0)
        measured = acc / n_batches
        rng = np.random.default_rng(99)
        vals = rng.random((10_000, 2))
        oracle = float(np.mean((0.5 * vals.sum(axis=1)) ** 2))
        np.testing.assert_allclose(measured, oracle, rtol=0.05)

    def test_gradient_selfcheck(self):
        assert gradient_selfcheck(make_addition_rnn(5, 3)) <= 1e-5

    def test_deterministic_batches(self):
        prob = make_addition_rnn(6, 3)
        theta = prob.initial_theta(0)
        assert prob.bind_batch(7).loss(theta) == prob.bind_batch(7).loss(theta)
        assert prob.bind_batch(7).loss(theta) != prob.bind_batch(8).loss(theta)

    def test_no_exact_hvp(self):
        assert make_addition_rnn(5, 3).bind_batch(0).hvp is None


# seeds on both sides of the uint32 words a batch generator takes in one piece
BATCH_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**40 + 3]


def quadratic_reference(h, b, noise_scale, batch_size, seed):
    """(H_hat, b_hat) of make_quadratic's batch `seed`, drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    upper = np.triu(np.ones(h.shape, bool))
    s_acc = n_acc = None
    for _ in range(batch_size):
        raw = rng.standard_normal(h.shape)
        s, n = np.where(upper, raw, raw.T), rng.standard_normal(len(b))
        s_acc, n_acc = (s, n) if s_acc is None else (s_acc + s, n_acc + n)
    return h + noise_scale * s_acc / batch_size, b + noise_scale * n_acc / batch_size


class TestBatchStreams:
    """A seeded batch is what default_rng(seed) draws, whichever path its seed takes."""

    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_quadratic_batch_is_default_rng_draw(self, batch_size, seed):
        h, b = np.diag([1.0, 2.0, 3.0]), np.array([0.5, 0.0, -0.5])
        ev = make_quadratic(h, b, noise_scale=0.1, batch_size=batch_size).bind_batch(seed)
        h_hat, b_hat = quadratic_reference(h, b, 0.1, batch_size, seed)
        theta, v = np.random.default_rng(9).standard_normal((2, 3))
        assert ev.loss(theta) == float(b_hat @ theta + 0.5 * theta @ (h_hat @ theta))
        assert ev.grad(theta).tobytes() == (h_hat @ theta + b_hat).tobytes()
        assert ev.hvp(theta, v).tobytes() == (h_hat @ v).tobytes()

    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    def test_rnn_batch_is_default_rng_draw(self, seed):
        prob = make_addition_rnn(6, 3, batch_size=4)
        th = prob.initial_theta(0)
        ev = prob.bind_batch(seed)
        ref_loss, ref_grad = rnn_reference(6, 3, 4, seed, th)
        assert ev.loss(th) == ref_loss
        assert ev.grad(th).tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("maker", [
        lambda: make_quadratic(np.diag([1.0, 2.0]), noise_scale=0.1),
        lambda: make_addition_rnn(5, 3),
    ], ids=["noisy-quadratic", "rnn"])
    def test_negative_seed_raises_numpys_error(self, maker):
        with pytest.raises(ValueError):
            maker().bind_batch(-1)

    def test_noise_free_quadratic_binds_one_evaluator(self):
        prob = make_quadratic(np.diag([1.0, 2.0]))
        assert prob.bind_batch(0) is prob.bind_batch(12345)


class TestSelfChecks:
    @pytest.mark.parametrize("maker,tol", [
        (lambda: make_quadratic(np.diag([2.0, -5.0, 1.0]), np.array([1.0, 0.0, -1.0])), 1e-6),
        (make_rosenbrock, 1e-6),
        (lambda: make_xor_mlp(4), 1e-6),
        (lambda: make_addition_rnn(5, 3), 1e-5),
    ])
    def test_twenty_random_points(self, maker, tol):
        assert gradient_selfcheck(maker(), n_points=20) <= tol


MEMO_MAKERS = {
    "rnn": lambda: make_addition_rnn(6, 3, batch_size=4),
    "xor": lambda: make_xor_mlp(3),
}


class TestBoundEvaluatorMemo:
    """A network evaluator remembers its last theta; it must act as if it did not."""

    @staticmethod
    def fresh(name):
        # a new problem, so not even the XOR problem's shared evaluator has seen a theta
        return MEMO_MAKERS[name]().bind_batch(3)

    @staticmethod
    def points(name):
        rng = np.random.default_rng(11)
        dim = MEMO_MAKERS[name]().dim
        return 0.5 * rng.standard_normal(dim), 0.5 * rng.standard_normal(dim), rng.standard_normal(dim)

    @pytest.mark.parametrize("name", sorted(MEMO_MAKERS))
    def test_interleaved_calls_match_fresh_evaluators(self, name):
        th1, th2, v = self.points(name)
        ev = self.fresh(name)
        calls = [("grad", th1), ("loss", th1), ("grad", th2), ("hvp", th1), ("grad", th1),
                 ("loss", th2), ("hvp", th2), ("grad", th2), ("loss", th1), ("grad", th1)]
        for method, th in calls:
            if method == "hvp" and ev.hvp is None:
                continue
            args = (th.copy(), v) if method == "hvp" else (th.copy(),)
            got = getattr(ev, method)(*args)
            want = getattr(self.fresh(name), method)(*args)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (method, th is th1)
        assert ev.grad(th1.copy()) is ev.grad(th1.copy())  # a repeated gradient is a lookup

    @pytest.mark.parametrize("name", sorted(MEMO_MAKERS))
    def test_theta_mutated_in_place(self, name):
        th1, th2, v = self.points(name)
        ev = self.fresh(name)
        th = th1.copy()
        g1 = ev.grad(th).copy()
        th[:] = th2
        np.testing.assert_array_equal(ev.grad(th), self.fresh(name).grad(th2))
        assert ev.loss(th) == self.fresh(name).loss(th2)
        assert not np.array_equal(g1, ev.grad(th))
        # the remembered pass must not alias the caller's array either: a hit
        # on th1's forward pass after th changed still sees th1
        th[:] = th1
        ev.loss(th)
        th[:] = th2
        np.testing.assert_array_equal(ev.grad(th1.copy()), self.fresh(name).grad(th1))
        if ev.hvp is not None:
            ev.loss(th1.copy())
            np.testing.assert_array_equal(ev.hvp(th1.copy(), v), self.fresh(name).hvp(th1, v))

    @pytest.mark.parametrize("name", sorted(MEMO_MAKERS))
    def test_wrong_length_still_rejected_after_valid_call(self, name):
        th1, _, _ = self.points(name)
        ev = self.fresh(name)
        g = ev.grad(th1)
        for bad in (th1[:-1], np.append(th1, 0.0), th1[:, None]):
            with pytest.raises(ContractViolationError):
                ev.grad(bad)
            with pytest.raises(ContractViolationError):
                ev.loss(bad)
            if ev.hvp is not None:
                with pytest.raises(ContractViolationError):
                    ev.hvp(bad, th1)
                with pytest.raises(ContractViolationError):
                    ev.hvp(th1, bad)
        np.testing.assert_array_equal(ev.grad(th1), g)

    @pytest.mark.parametrize("name", sorted(MEMO_MAKERS))
    def test_returned_gradient_cannot_be_written_into(self, name):
        th1, _, _ = self.points(name)
        ev = self.fresh(name)
        g = ev.grad(th1)
        try:
            g += 1.0
        except ValueError:
            pass
        np.testing.assert_array_equal(ev.grad(th1), self.fresh(name).grad(th1))

    @pytest.mark.parametrize("name", sorted(MEMO_MAKERS))
    def test_differenced_probe_matches_fresh_gradients(self, name):
        th1, _, v = self.points(name)
        dt = 1e-4 * v
        ev = self.fresh(name)
        ev.grad(th1)  # the step's gradient, as the optimizer evaluates it first
        want = self.fresh(name).grad(th1 + dt) - self.fresh(name).grad(th1)
        assert approx_delta_g(ev.grad, th1, dt).tobytes() == want.tobytes()


SEED_FREE_MAKERS = {
    "xor": lambda: make_xor_mlp(4),
    "rosenbrock": make_rosenbrock,
    "quadratic": lambda: make_quadratic(np.diag([2.0, -5.0, 1.0]), np.array([1.0, 0.0, -1.0])),
}


class TestSeededDeclaration:
    """Each shipped problem says truly whether its batch depends on the seed."""

    @pytest.mark.parametrize("name", sorted(SEED_FREE_MAKERS))
    def test_seed_free_batches_ignore_the_seed(self, name):
        prob = SEED_FREE_MAKERS[name]()
        assert prob.seeded is False
        rng = np.random.default_rng(5)
        theta, v = rng.standard_normal(prob.dim), rng.standard_normal(prob.dim)
        a, b = prob.bind_batch(1), prob.bind_batch(2)
        assert a.loss(theta.copy()) == b.loss(theta.copy())
        assert a.grad(theta.copy()).tobytes() == b.grad(theta.copy()).tobytes()
        assert a.hvp(theta.copy(), v).tobytes() == b.hvp(theta.copy(), v).tobytes()

    @pytest.mark.parametrize("maker", [
        lambda: make_quadratic(np.diag([1.0, 2.0]), noise_scale=0.1),
        lambda: make_addition_rnn(5, 3),
    ], ids=["noisy-quadratic", "rnn"])
    def test_seeded_problems_say_so(self, maker):
        assert maker().seeded is True

    def test_user_built_problem_is_seeded_by_default(self):
        base = make_rosenbrock()
        prob = Problem("custom", base.layout, base.bind_batch, base.initial_theta)
        assert prob.seeded is True


class TestSizeArguments:
    """Each builder's sizes are integers; numpy integers count as integers."""

    @pytest.mark.parametrize("build, fault", [
        (lambda: make_xor_mlp(2.5), "hidden size"),
        (lambda: make_addition_rnn(6, 2.5), "hidden size"),
        (lambda: make_addition_rnn(6.0, 3), "sequence length"),
        (lambda: make_addition_rnn(6, 3, batch_size=1.5), "batch size"),
        (lambda: make_quadratic(np.eye(2), batch_size=2.0), "batch size"),
        (lambda: make_xor_mlp(True), "hidden size"),
        (lambda: make_addition_rnn(6, 3, batch_size=True), "batch size"),
    ], ids=["xor-hidden", "rnn-hidden", "rnn-seq-len", "rnn-batch-size", "quad-batch-size",
            "xor-hidden-bool", "rnn-batch-size-bool"])
    def test_non_integer_size_rejected(self, build, fault):
        with pytest.raises(ContractViolationError, match=f"{fault} must be an integer"):
            build()

    def test_numpy_integer_sizes_accepted(self):
        assert make_xor_mlp(np.int64(3)).dim == 13
        assert make_addition_rnn(np.int32(6), np.int64(3), batch_size=np.int64(2)).dim == 22
        assert make_quadratic(np.eye(2), batch_size=np.int64(2)).dim == 2
