import copy
import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest

from psgdkit.curvature import ProbeConfig, TangentPair
from psgdkit.errors import ContractViolationError
from psgdkit.optimizer import (
    METHODS,
    RunConfig,
    TraceRow,
    batch_seed_for,
    run,
    skip_admits,
    step,
)
from psgdkit.preconditioners import DensePrecond, make_preconditioner
from psgdkit.problems import (
    BoundEvaluator,
    ParamBlock,
    ParamLayout,
    Problem,
    make_addition_rnn,
    make_quadratic,
    make_rosenbrock,
    make_xor_mlp,
)


def quad_config(**kw):
    base = dict(method="psgd", precond_variant="dense", mu=0.1, precond_mu=0.01,
                probe=ProbeConfig(mode="exact"), iters=10, seed=0)
    base.update(kw)
    return RunConfig(**base)


class TestSkipAdmits:
    def test_small_iterations_always_admit(self):
        assert all(skip_admits(t) for t in range(1, 10))

    def test_examples(self):
        assert skip_admits(10)
        assert not skip_admits(101)
        assert skip_admits(102)

    def test_against_string_length_oracle(self):
        for t in range(1, 20_000):
            divisor = max(len(str(t)) - 1, 1)
            assert skip_admits(t) == (t % divisor == 0)

    def test_rejects_zero(self):
        with pytest.raises(ContractViolationError):
            skip_admits(0)

    def test_reads_its_index_as_an_integer(self):
        with pytest.raises(ContractViolationError, match="must be an integer, got 102.0"):
            skip_admits(102.0)
        with pytest.raises(ContractViolationError, match="must be an integer, got True"):
            skip_admits(True)


class TestPsgdStep:
    def test_identity_preconditioner_is_plain_sgd(self):
        prob = make_quadratic(np.diag([2.0, 8.0]))
        cfg = quad_config(mu=0.1)
        precond = DensePrecond(2)
        theta, _, row = step(np.array([1.0, 1.0]), prob, precond, cfg, 1,
                             np.random.default_rng(0))
        np.testing.assert_allclose(theta, [0.8, 0.2])
        assert not row.clipped

    def test_clipping_scales_by_half(self):
        # ||P g|| = 10 against a threshold of 5 scales the update by 1/2
        h = np.diag([1.0, 1.0])
        prob = make_quadratic(h)
        cfg = quad_config(mu=1.0, clip_omega=5.0)
        theta0 = np.array([10.0, 0.0])  # gradient norm 10 with P = I
        precond = DensePrecond(2)
        theta, _, row = step(theta0, prob, precond, cfg, 1, np.random.default_rng(0))
        assert row.clipped
        np.testing.assert_allclose(theta0 - theta, [5.0, 0.0])

    def test_converged_preconditioner_contracts(self):
        # P close to |H|^{-1} turns a unit step into a near-Newton step
        h = np.diag([2.0, 8.0])
        prob = make_quadratic(h)
        precond = DensePrecond(2)
        rng = np.random.default_rng(1)
        for _ in range(5000):
            dt = rng.standard_normal(2)
            precond.update(TangentPair(dt, h @ dt), 0.01)
        cfg = quad_config(mu=1.0)
        theta0 = np.array([3.0, -2.0])
        theta, _, _ = step(theta0, prob, precond, cfg, 1, rng)
        assert np.linalg.norm(theta) <= 0.15 * np.linalg.norm(theta0)


class TestBaselines:
    def test_sgd_step(self):
        prob = make_quadratic(np.diag([1.0, 1.0]), np.array([0.0, 0.0]))
        cfg = RunConfig(method="sgd", mu=0.1, iters=1, seed=0)
        theta0 = np.array([1.0, -2.0])  # gradient equals theta for H = I
        theta, _, _ = step(theta0, prob, None, cfg, 1, np.random.default_rng(0))
        np.testing.assert_allclose(theta0 - theta, [0.1, -0.2])

    def test_rmsprop_constant_gradient_limit(self):
        # with a constant gradient the step approaches mu * sign(g)
        prob = make_quadratic(np.zeros((2, 2)), np.array([3.0, -0.5]))
        cfg = RunConfig(method="rmsprop", mu=0.01, iters=1, seed=0)
        theta = np.zeros(2)
        state = None
        rng = np.random.default_rng(0)
        for t in range(1, 2001):
            prev = theta.copy()
            theta, state, _ = step(theta, prob, state, cfg, t, rng)
        np.testing.assert_allclose(np.abs(prev - theta), [0.01, 0.01], rtol=1e-3)

    def test_esgd_converges_to_equilibration(self):
        prob = make_quadratic(np.diag([2.0, -5.0]))
        cfg = RunConfig(method="esgd", mu=0.01, iters=1, seed=0)
        theta = np.array([1.0, 1.0])
        state = None
        rng = np.random.default_rng(2)
        for t in range(1, 10_001):
            theta, state, _ = step(theta, prob, state, cfg, t, rng)
        m2_sum, count = state
        p = np.sqrt(1.0 / (m2_sum / count))
        np.testing.assert_allclose(p, [0.5, 0.2], rtol=0.05)

    @pytest.mark.parametrize("method", ["sgd", "rmsprop", "esgd"])
    def test_baselines_ignore_clip(self, method):
        # the CLI sets clip=auto for every xor-mlp and addition-rnn run; only psgd clips
        prob = make_xor_mlp(4)
        cfg = RunConfig(method=method, mu=0.05, iters=20, seed=0)
        plain = run(prob, cfg)
        clip = run(prob, dataclasses.replace(cfg, clip_omega=1e-3))
        assert plain.rows == clip.rows and not any(r.clipped for r in clip.rows)
        np.testing.assert_array_equal(plain.theta, clip.theta)


class TestRunLoop:
    def test_bitwise_determinism(self):
        prob = make_quadratic(np.diag([1.0, -2.0, 3.0]), noise_scale=0.3)
        cfg = quad_config(iters=50, mu=0.05)
        a = run(prob, cfg)
        b = run(prob, cfg)
        assert not a.diverged and not b.diverged
        assert a.rows == b.rows
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_deferred_preconditioner_contract(self):
        # preconditioning with the incoming state commutes with the update:
        # an explicit snapshot-update-then-precondition step yields the same
        # trajectory bit for bit
        prob = make_quadratic(np.diag([1.0, -2.0, 3.0]), noise_scale=0.2)
        cfg = quad_config(iters=40, mu=0.05)

        res = run(prob, cfg)

        from psgdkit.curvature import make_tangent_pair
        from psgdkit.optimizer import _probe_stream
        theta = prob.initial_theta(cfg.seed)
        rng = _probe_stream(cfg)
        precond = make_preconditioner(cfg.precond_variant, prob.layout, cfg.splu_order)
        thetas = []
        for t in range(1, cfg.iters + 1):
            ev = prob.bind_batch(batch_seed_for(cfg.seed, t))
            g = ev.grad(theta)
            incoming = copy.deepcopy(precond)
            # reordered: learn first, precondition with the snapshot after
            precond.update(make_tangent_pair(ev, theta, cfg.probe, rng), cfg.precond_mu)
            theta = theta - cfg.mu * incoming.apply(g)
            thetas.append(theta.copy())
        np.testing.assert_array_equal(thetas[-1], res.theta)

    def test_update_norm_bounded_by_clip(self):
        prob = make_quadratic(np.diag([50.0, -80.0]))
        cfg = quad_config(iters=60, mu=0.3, clip_omega=2.0)
        theta = prob.initial_theta(cfg.seed)
        from psgdkit.optimizer import _probe_stream
        rng = _probe_stream(cfg)
        precond = make_preconditioner(cfg.precond_variant, prob.layout, cfg.splu_order)
        for t in range(1, cfg.iters + 1):
            new_theta, precond, _ = step(theta, prob, precond, cfg, t, rng)
            assert np.linalg.norm(new_theta - theta) / cfg.mu <= 2.0 + 1e-12
            theta = new_theta

    def test_psgd_matches_sgd_when_gradient_already_white(self):
        # H = I keeps the relative gradient exactly zero, so the dense state
        # stays at identity and the trajectories agree bit for bit
        prob = make_quadratic(np.eye(3))
        psgd_cfg = quad_config(iters=30, mu=0.2)
        sgd_cfg = RunConfig(method="sgd", mu=0.2, iters=30, seed=0)
        a = run(prob, psgd_cfg)
        b = run(prob, sgd_cfg)
        np.testing.assert_array_equal(a.theta, b.theta)
        assert [r.train_loss for r in a.rows] == [r.train_loss for r in b.rows]

    def test_psgd_stabilizes_where_sgd_diverges(self):
        # max |eig(H)| = 100 > 2/mu destroys SGD at mu = 0.5; PSGD-dense
        # descends monotonically after the burn-in window
        h = np.diag([1.0, 100.0])
        prob = make_quadratic(h)
        sgd = run(prob, RunConfig(method="sgd", mu=0.5, iters=200, seed=0))
        sgd_losses = [r.train_loss for r in sgd.rows]
        assert sgd.diverged or sgd_losses[-1] > 1e6

        psgd = run(prob, quad_config(mu=0.5, iters=2000))
        assert not psgd.diverged
        losses = [r.train_loss for r in psgd.rows]
        burn = len(losses) // 10
        tail = losses[burn:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
        assert tail[-1] < 1e-10

    def test_skip_schedule_controls_update_count(self):
        calls = []

        class CountingPrecond(DensePrecond):
            def update(self, pair, step):
                calls.append(1)
                super().update(pair, step)

        prob = make_quadratic(np.diag([1.0, 2.0]))
        cfg = quad_config(iters=150, skip_schedule="log10")
        from psgdkit.optimizer import _probe_stream
        theta = prob.initial_theta(cfg.seed)
        rng = _probe_stream(cfg)
        precond = CountingPrecond(2)
        for t in range(1, cfg.iters + 1):
            theta, precond, _ = step(theta, prob, precond, cfg, t, rng)
        expected = sum(1 for t in range(1, 151) if skip_admits(t))
        assert len(calls) == expected < 150

    def test_diverged_run_keeps_diagnostic_row(self):
        prob = make_quadratic(np.diag([1.0, 100.0]))
        res = run(prob, RunConfig(method="sgd", mu=10.0, iters=300, seed=0))
        assert res.diverged
        assert not np.isfinite(res.rows[-1].train_loss)
        assert res.rows[-1].iter == len(res.rows)

    @staticmethod
    def failing_hvp_problem(first_bad_call, bad=np.inf):
        """A seed-free quadratic 0.5 |theta|^2 whose Hvp returns bad from call first_bad_call on."""
        calls = []

        def hvp(theta, v):
            calls.append(1)
            return np.full_like(v, bad) if len(calls) >= first_bad_call else v.copy()

        evaluator = BoundEvaluator(loss=lambda th: 0.5 * float(th.dot(th)),
                                   grad=lambda th: th.copy(), hvp=hvp)
        return Problem("failing-hvp", ParamLayout([ParamBlock("x", (2,))]),
                       bind_batch=lambda seed: evaluator,
                       initial_theta=lambda seed: np.array([1.0, -2.0]), seeded=False)

    @pytest.mark.parametrize("method", ["psgd", "esgd"])
    def test_numeric_failure_ends_run_with_nan_row(self, method):
        cfg = RunConfig(method=method, mu=0.1, probe=ProbeConfig(mode="exact"),
                        iters=10, seed=0)
        res = run(self.failing_hvp_problem(4), cfg)
        assert res.diverged
        assert len(res.rows) == 4
        last = res.rows[-1]
        assert (last.iter, last.clipped, last.wall_ns) == (4, False, 0)
        assert all(math.isnan(x) for x in (last.train_loss, last.grad_norm,
                                           last.precond_grad_norm))
        three = run(self.failing_hvp_problem(4), dataclasses.replace(cfg, iters=3))
        assert not three.diverged and res.rows[:3] == three.rows
        np.testing.assert_array_equal(res.theta, three.theta)

    def test_overflowing_hvp_moment_ends_an_esgd_run_with_nan_row(self):
        # A finite Hvp of 1e200 squares to inf in esgd's running second moment,
        # which closed_form_diagonal refuses (DegenerateCurvatureError): the run
        # stops with the numeric-failure row instead of stepping on a zero
        # diagonal entry.
        cfg = RunConfig(method="esgd", mu=0.1, probe=ProbeConfig(mode="exact"), iters=10, seed=0)
        res = run(self.failing_hvp_problem(4, bad=1e200), cfg)
        assert res.diverged
        assert len(res.rows) == 4
        last = res.rows[-1]
        assert (last.iter, last.clipped, last.wall_ns) == (4, False, 0)
        assert all(math.isnan(x) for x in (last.train_loss, last.grad_norm,
                                           last.precond_grad_norm))

    @pytest.mark.parametrize("method", METHODS)
    def test_timing_fills_wall_ns(self, method):
        prob = make_quadratic(np.diag([1.0, 2.0]), noise_scale=0.1)
        cfg = quad_config(method=method, iters=5)
        assert all(r.wall_ns > 0 for r in run(prob, cfg, timing=True).rows)
        assert all(r.wall_ns == 0 for r in run(prob, cfg).rows)


class TestTraceRow:
    # a run keeps one row per iteration, so a row holds its six fields in slots
    # and carries no instance dict
    def rows(self):
        prob = make_quadratic(np.diag([1.0, 2.0]), noise_scale=0.1)
        return run(prob, quad_config(iters=3), timing=True).rows

    def test_has_no_instance_dict(self):
        row = self.rows()[0]
        assert not hasattr(row, "__dict__")
        assert TraceRow.__slots__ == tuple(f.name for f in dataclasses.fields(TraceRow))

    def test_round_trips_equal(self):
        for row in self.rows():
            for copied in (pickle.loads(pickle.dumps(row)), copy.deepcopy(row),
                           dataclasses.replace(row)):
                assert type(copied) is TraceRow and copied == row and copied is not row
        row = self.rows()[-1]
        moved = dataclasses.replace(row, clipped=True)
        assert moved.clipped and moved.iter == row.iter and moved.wall_ns == row.wall_ns

    def test_fields_are_frozen(self):
        row = self.rows()[0]
        for name, value in (("train_loss", 0.0), ("wall_ns", 1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(row, name, value)


class TestRunConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ContractViolationError):
            RunConfig(method="adam")
        with pytest.raises(ContractViolationError):
            RunConfig(mu=0.0)
        with pytest.raises(ContractViolationError):
            RunConfig(precond_mu=1.0)
        with pytest.raises(ContractViolationError):
            RunConfig(iters=0)
        with pytest.raises(ContractViolationError):
            RunConfig(skip_schedule="sometimes")
        for mu in (math.inf, math.nan):
            with pytest.raises(ContractViolationError, match="step size"):
                RunConfig(mu=mu)
        with pytest.raises(ContractViolationError, match="seed"):
            RunConfig(seed=-1)
        for field in ("iters", "seed", "splu_order"):
            for bad in (2.5, 3.0, "3", None, True):
                with pytest.raises(ContractViolationError, match=f"{field} must be an integer"):
                    RunConfig(**{field: bad})
        RunConfig(iters=np.int64(3), seed=np.int32(1), splu_order=np.int64(2))

    @pytest.mark.parametrize("variant", ["dense", "diag", "splu"])
    @pytest.mark.parametrize("order", [0, -3])
    def test_splu_order_below_one_rejected_for_every_variant(self, variant, order):
        with pytest.raises(ContractViolationError,
                           match=f"splu_order must be at least 1, got {order}") as exc:
            RunConfig(precond_variant=variant, splu_order=order)
        assert exc.value.field == "splu_order"

    @pytest.mark.parametrize("build, field, message", [
        (lambda: RunConfig(mu=-1.0), "mu", "step size must be finite and positive, got -1.0"),
        (lambda: RunConfig(precond_mu=1.0), "precond_mu",
         "preconditioner step size must lie in (0, 1), got 1.0"),
        (lambda: RunConfig(clip_omega=0.0), "clip_omega",
         "clip threshold must be positive, got 0.0"),
        (lambda: RunConfig(splu_order=0), "splu_order", "splu_order must be at least 1, got 0"),
        (lambda: RunConfig(iters=0), "iters", "iters must be at least 1, got 0"),
        (lambda: RunConfig(seed=-2), "seed", "seed must be nonnegative, got -2"),
        (lambda: ProbeConfig(damping_lambda=-0.5), "damping_lambda",
         "damping strength must be finite and nonnegative, got -0.5"),
        (lambda: make_quadratic(np.diag([np.nan, 1.0])), "h", "Hessian must be finite"),
        (lambda: make_quadratic(np.eye(2), noise_scale=-1.0), "noise_scale",
         "noise scale must be nonnegative and finite, got -1.0"),
        (lambda: make_quadratic(np.eye(2), batch_size=0), "batch_size",
         "batch size must be at least 1, got 0"),
        (lambda: make_xor_mlp(1), "hidden", "hidden size must be at least 2, got 1"),
        (lambda: make_addition_rnn(3, 2), "seq_len", "sequence length must be at least 4, got 3"),
        (lambda: make_addition_rnn(6, 0), "hidden", "hidden size must be at least 1, got 0"),
        (lambda: make_addition_rnn(6, 2, batch_size=0), "batch_size",
         "batch size must be at least 1, got 0"),
    ], ids=["mu", "precond-mu", "clip-omega", "splu-order", "iters", "seed", "damping-lambda",
            "quad-h", "quad-noise-scale", "quad-batch-size", "xor-hidden", "rnn-seq-len",
            "rnn-hidden", "rnn-batch-size"])
    def test_range_fault_names_its_field(self, build, field, message):
        # the command line maps field to the flag that gave the value
        with pytest.raises(ContractViolationError) as exc:
            build()
        assert str(exc.value) == message
        assert exc.value.field == field

    def test_batch_seed_stream_is_stable(self):
        assert batch_seed_for(0, 1) == batch_seed_for(0, 1)
        assert batch_seed_for(0, 1) != batch_seed_for(0, 2)
        assert batch_seed_for(0, 1) != batch_seed_for(1, 1)


class TestBatchSeeds:
    """A run derives a batch seed per iteration only for a seeded problem."""

    @staticmethod
    def count_seed_calls(monkeypatch, problem):
        calls = []

        def counting(seed, t):
            calls.append(t)
            return batch_seed_for(seed, t)

        monkeypatch.setattr("psgdkit.optimizer.batch_seed_for", counting)
        res = run(problem, RunConfig(method="sgd", mu=1e-4, iters=20, seed=0))
        assert not res.diverged
        return calls

    @pytest.mark.parametrize("maker", [
        lambda: make_xor_mlp(3),
        make_rosenbrock,
        lambda: make_quadratic(np.diag([1.0, 2.0])),
    ], ids=["xor", "rosenbrock", "quadratic"])
    def test_seed_free_problem_derives_no_seed(self, monkeypatch, maker):
        assert self.count_seed_calls(monkeypatch, maker()) == []

    @pytest.mark.parametrize("maker", [
        lambda: make_quadratic(np.diag([1.0, 2.0]), noise_scale=0.1),
        lambda: make_addition_rnn(5, 3),
    ], ids=["noisy-quadratic", "rnn"])
    def test_seeded_problem_derives_one_seed_per_iteration(self, monkeypatch, maker):
        assert self.count_seed_calls(monkeypatch, maker()) == list(range(1, 21))

    @pytest.mark.parametrize("t", [1, 999, 2**32])
    @pytest.mark.parametrize("seed", [0, 1, 2**31, 2**32 - 1, 2**32, 2**40 + 3])
    def test_batch_seed_is_the_seed_sequence_word(self, seed, t):
        # uint32 words below 2**32 and the int path above must give one entropy
        expected = int(np.random.SeedSequence([seed, 0xBA7C4, t]).generate_state(1)[0])
        assert batch_seed_for(seed, t) == expected

    def test_negative_seed_raises_numpys_error(self):
        with pytest.raises(ValueError):
            batch_seed_for(-1, 1)


class TestRosenbrockRun:
    def test_documented_config_finds_minimum(self):
        prob = make_rosenbrock()
        cfg = RunConfig(method="psgd", precond_variant="dense", mu=0.5, precond_mu=0.1,
                        clip_omega=1.0, probe=ProbeConfig(mode="exact"), iters=500, seed=0)
        res = run(prob, cfg)
        assert not res.diverged
        assert res.rows[-1].train_loss < 1e-8


def _golden_cases():
    rnn = make_addition_rnn(10, 6, batch_size=16)
    xor = make_xor_mlp(4)
    # hidden 3 and 7 pin Hvp bits that hidden 4 cannot see: a product or row sum
    # over a differently shaped operand rounds the same there but not at these sizes
    xor3, xor7 = make_xor_mlp(3), make_xor_mlp(7)
    # the quad-cli benchmark's noisy quadratic with the CLI's quad settings; at
    # mu 0.5 the loss climbs past 1e30 before the preconditioner catches up
    quad = make_quadratic(np.diag(np.logspace(-1.0, 1.0, 16)), noise_scale=0.01)
    quad_cases = {
        f"quad-psgd-{variant}": (quad, RunConfig(
            method="psgd", precond_variant=variant, splu_order=4, mu=0.5, precond_mu=0.01,
            probe=ProbeConfig(mode="exact"), iters=300, seed=0))
        # scan on the quadratic's one vector tensor is the n == 1 block, whose c2 is
        # empty; kron's is the m x 1 block
        for variant in ("dense", "diag", "splu", "scan", "kron")
    }
    # splu of order 1, so l1 and u1 are 1x1; a seed above 2**32 takes batch_seed_for's
    # and the batch generator's int path rather than their uint32 words
    quad_cases["quad-psgd-splu-r1"] = (quad, RunConfig(
        method="psgd", precond_variant="splu", splu_order=1, mu=0.5, precond_mu=0.01,
        probe=ProbeConfig(mode="exact"), iters=300, seed=2**32 + 5))
    return {
        **quad_cases,
        "rosenbrock-psgd-dense": (make_rosenbrock(), RunConfig(
            method="psgd", precond_variant="dense", mu=0.5, precond_mu=0.1, clip_omega=1.0,
            probe=ProbeConfig(mode="exact"), iters=300, seed=0)),
        "xor-sgd": (xor, RunConfig(method="sgd", mu=0.5, iters=200, seed=0)),
        "xor-rmsprop": (xor, RunConfig(method="rmsprop", mu=0.01, iters=200, seed=0)),
        "xor-esgd": (xor, RunConfig(method="esgd", mu=0.05, iters=200, seed=0)),
        "rnn-psgd-scan": (rnn, RunConfig(
            method="psgd", precond_variant="scan", mu=0.1, precond_mu=0.01,
            clip_omega=10.0 * math.sqrt(rnn.dim), probe=ProbeConfig(mode="approximate"),
            skip_schedule="log10", iters=200, seed=0)),
        "rnn-esgd": (rnn, RunConfig(method="esgd", mu=0.05, iters=200, seed=0)),
        "xor-psgd-kron": (xor, RunConfig(
            method="psgd", precond_variant="kron", mu=0.5, precond_mu=0.05,
            clip_omega=10.0 * math.sqrt(xor.dim), probe=ProbeConfig(mode="exact"),
            iters=200, seed=0)),
        "xor3-psgd-kron": (xor3, RunConfig(
            method="psgd", precond_variant="kron", mu=0.5, precond_mu=0.05,
            clip_omega=10.0 * math.sqrt(xor3.dim), probe=ProbeConfig(mode="exact"),
            iters=200, seed=0)),
        "xor7-esgd": (xor7, RunConfig(method="esgd", mu=0.05, iters=200, seed=0)),
        # per-block splu at the default order 10: w1's block is 12 with r = 10, w2's
        # is 5 with r = 5, so l2, u2, l3 and u3 of the second block are empty
        "xor-psgd-splu-perblock": (xor, RunConfig(
            method="psgd", precond_variant="splu", per_block=True, mu=0.5, precond_mu=0.05,
            clip_omega=10.0 * math.sqrt(xor.dim), probe=ProbeConfig(mode="exact"),
            iters=200, seed=0)),
        # differenced probes: the only path that takes a gradient at a theta
        # (theta + dtheta) whose loss is never taken
        "xor-psgd-dense-approx": (xor, RunConfig(
            method="psgd", precond_variant="dense", mu=0.5, precond_mu=0.05,
            clip_omega=10.0 * math.sqrt(xor.dim), probe=ProbeConfig(mode="approximate"),
            iters=200, seed=0)),
    }


GOLDEN_TRAJECTORIES = {
    "quad-psgd-dense": "6fd3ba452a02f6b582790652e7dfe9552e969bccdb404db8471f07355b85e1bc",
    "quad-psgd-diag": "d2643282af47adf3cdef7f93b37249ce0638ff14ddd615639ec2591618e1cece",
    "quad-psgd-splu": "f7a9d189cdfc969dd9ae3ddd2470136ea8bbbe1bb746ef68af2ac127e10bf7ec",
    "quad-psgd-scan": "835ecabde4f4d1efbde5cf7b2d2bebaa07769e72781a386182cd548d53a88daf",
    "quad-psgd-kron": "71d589dc5baf53b52b44df4bac7a7f951228b160b0dd9fd242d5de269e7b7a11",
    "quad-psgd-splu-r1": "73d861e2d3d2c691f03ba885db80e1c2eb7b763668e88bbadf5eaa630cc929ff",
    "rosenbrock-psgd-dense": "2d67c6194074da9797df2f66889f110c07d1eb9e0e95033934d855d712e7b833",
    "xor-sgd": "e455b3059d45025dcb4669d658d6b24e50b4c9743ada915fad4b693674daa7fd",
    "xor-rmsprop": "33f03222af0c94e00bbe550c8f9499d13462783929a7b913834911f94dcb1604",
    "xor-esgd": "60a8b39f57a5861dc0e2bb15e580781fcd23ceef0ee73522a77f8619c395d0b1",
    "rnn-psgd-scan": "e7e1e1791e8f57c707ceb0255714654f0cac1c161862fb31a2ecdfa1dcc60951",
    "rnn-esgd": "12236b5071ef69fa9bb72e05a3b6897a11517292aca929286b9e6366d25a3ec5",
    "xor-psgd-kron": "7a15f53e8ea62ecd2bcedfba44a7379ee487c7ab4574013ee0a6c1fd00634b6e",
    "xor3-psgd-kron": "a8a2621f3aeaf8799e02f40f7c92964b6d5b752a6036a1cece0c064da45fdd7a",
    "xor7-esgd": "773ea2b41d279f94efbb3eafb388455e6a4225d78ad4c23d8868d56f5b1859a6",
    "xor-psgd-dense-approx": "2d5342e613ae0d0b08a2c43a075fa049c29df83c095c5fa332d5370de9cad3c7",
    "xor-psgd-splu-perblock": "7d6fb3da4a81a027bb2df42e516b66ab2559f65d24f80409d6631e12668aef8a",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRAJECTORIES))
def test_golden_trajectories(name):
    # sha256 over every row's loss, gradient norms and clip flag, then the
    # final theta, all as little-endian float64: a speed-up that changes one
    # bit of a differenced probe, a BPTT sum or an update changes the digest
    problem, cfg = _golden_cases()[name]
    res = run(problem, cfg)
    rows = np.array([[r.train_loss, r.grad_norm, r.precond_grad_norm, r.clipped]
                     for r in res.rows], dtype="<f8")
    digest = hashlib.sha256(rows.tobytes() + res.theta.astype("<f8").tobytes()).hexdigest()
    assert not res.diverged and len(res.rows) == cfg.iters
    assert digest == GOLDEN_TRAJECTORIES[name]
