"""The benchmark's three workloads, driven only through psgdkit's public API.

A workload turns a seed into a list of jobs (`prepare`); each job is one
public call (`psgdkit.run` or `psgdkit.cli.main`) followed by a checkpoint
round trip of every final state through `psgdkit.checkpoint`. `execute`
times the public call and returns what the correctness gate needs.
Why each workload exists is recorded in NOTES.md.
"""

import contextlib
import io
import json
import math
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

import psgdkit
from psgdkit import (ProbeConfig, RunConfig, checkpoint, make_addition_rnn,
                     make_preconditioner, make_quadratic, make_xor_mlp)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
# The seed whose outputs are pinned in reference.json; every command also runs it.
DEFAULT_SEED = 0
REL_TOL = 1e-12


@dataclass
class Result:
    """One training run as the correctness gate sees it."""

    name: str
    losses: list
    theta: np.ndarray
    diverged: bool
    state_bytes: bytes  # the final state, as psgdkit.checkpoint writes it
    reserialized: bytes  # state_to_bytes(state_from_bytes(state_bytes))


@dataclass
class Call:
    """One executed job: the public call's wall time and everything it produced."""

    call_s: float  # around the public call only
    total_s: float  # the public call plus the checkpoint round trips
    results: list
    files: dict = field(default_factory=dict)  # CLI output files, name -> bytes

    @property
    def iters(self):
        return sum(len(r.losses) for r in self.results)


def _round_trip(blob):
    return checkpoint.state_to_bytes(checkpoint.state_from_bytes(blob))


@dataclass
class RunJob:
    """`psgdkit.run(problem, cfg)`, then the final state's checkpoint round trip."""

    name: str
    problem: object
    cfg: object

    def execute(self, tracer=None):
        problem = self.problem if tracer is None else tracer.wrap_problem(self.problem)
        start = time.perf_counter()
        res = psgdkit.run(problem, self.cfg)
        called = time.perf_counter()
        blob = checkpoint.state_to_bytes(res.state)
        again = _round_trip(blob)
        done = time.perf_counter()
        result = Result(self.name, [r.train_loss for r in res.rows], res.theta,
                        res.diverged, blob, again)
        return Call(called - start, done - start, [result])


@dataclass
class CliJob:
    """`psgdkit.cli.main(argv)` writing traces, summary.csv and the saved state to out_dir."""

    argv: list
    out_dir: str
    saved: str  # the --save-precond path

    def execute(self, tracer=None):
        from psgdkit import cli
        captured = []
        inner = cli.run

        def capture(problem, cfg, *args, **kwargs):
            res = inner(problem, cfg, *args, **kwargs)
            captured.append((f"psgd-{cfg.precond_variant}-seed{cfg.seed}", res))
            return res

        cli.run = capture
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(self.argv)
        except SystemExit as exc:  # argparse and the CLI's own error exits
            status = exc.code
        finally:
            cli.run = inner
        called = time.perf_counter()
        if status != 0 or len(captured) != self.argv.count("--run"):
            raise RuntimeError(f"psgdkit cli exited with {status} after {len(captured)} runs")
        results = []
        for name, res in captured:
            blob = checkpoint.state_to_bytes(res.state)
            results.append(Result(name, [r.train_loss for r in res.rows], res.theta,
                                  res.diverged, blob, _round_trip(blob)))
        with open(self.saved, "rb") as fh:
            saved = fh.read()
        again = _round_trip(saved)
        done = time.perf_counter()
        if saved != results[-1].state_bytes or again != saved:
            raise RuntimeError("--save-precond did not write the last run's state")
        files = {}
        for entry in sorted(os.listdir(self.out_dir)):
            with open(os.path.join(self.out_dir, entry), "rb") as fh:
                files[entry] = fh.read()
        return Call(called - start, done - start, results, files)


@dataclass
class Workload:
    name: str
    target: float  # iters_to_target counts iterations until train_loss < target
    prepare: object  # (seed, scratch_dir) -> list of jobs


def _xor_kron(seed, scratch):
    # make_xor_mlp(4) with the xor-mlp CLI defaults and the c10 threshold
    problem = make_xor_mlp(4)
    # run() builds its own state; building one here makes set-up time cover it
    make_preconditioner("kron", problem.layout)
    jobs = []
    for k in range(4):
        cfg = RunConfig(method="psgd", precond_variant="kron", mu=0.5, precond_mu=0.05,
                        clip_omega=10.0 * math.sqrt(problem.dim),
                        probe=ProbeConfig(mode="exact"), iters=200, seed=4 * seed + k)
        jobs.append(RunJob(f"seed{cfg.seed}", problem, cfg))
    return jobs


def _rnn_scan(seed, scratch):
    # the configuration of demos/05_addition_rnn.py, cut to 1000 iterations
    problem = make_addition_rnn(10, 6, batch_size=16)
    make_preconditioner("scan", problem.layout)
    cfg = RunConfig(method="psgd", precond_variant="scan", mu=0.1, precond_mu=0.01,
                    clip_omega=10.0 * math.sqrt(problem.dim),
                    probe=ProbeConfig(mode="approximate"), skip_schedule="log10",
                    iters=1000, seed=seed)
    return [RunJob(f"seed{seed}", problem, cfg)]


QUAD_DIAG = np.logspace(-1.0, 1.0, 16)  # positive definite, condition number 100
QUAD_FAMILIES = ("dense", "diag", "splu")


def _quad_cli(seed, scratch):
    from psgdkit import cli  # noqa: F401  (the CLI's import cost is part of set-up)
    problem = make_quadratic(np.diag(QUAD_DIAG), noise_scale=0.01)
    # the CLI builds its own; building them here makes set-up time cover it
    for family in QUAD_FAMILIES:
        RunConfig(method="psgd", precond_variant=family, splu_order=4, iters=1000, seed=seed)
        make_preconditioner(family, problem.layout, splu_order=4)
    out_dir = os.path.join(scratch, f"quad-cli-seed{seed}")
    os.makedirs(out_dir, exist_ok=True)
    saved = os.path.join(out_dir, "final.pcs")
    argv = ["sweep", "--problem", "quad", "--dim", str(QUAD_DIAG.size),
            "--quad-diag", ",".join(repr(float(d)) for d in QUAD_DIAG),
            "--noise", "0.01", "--splu-order", "4", "--iters", "1000",
            "--seed", str(seed), "--out", out_dir, "--save-precond", saved]
    for family in QUAD_FAMILIES:
        argv += ["--run", f"psgd:{family}"]
    return [CliJob(argv, out_dir, saved)]


WORKLOADS = {w.name: w for w in (
    Workload("xor-kron", 0.01, _xor_kron),
    Workload("rnn-scan", 0.02, _rnn_scan),
    Workload("quad-cli", 0.01, _quad_cli),
)}


def iters_to_target(result, target):
    """First iteration whose train_loss is below target; iterations + 1 if none."""
    for i, loss in enumerate(result.losses, start=1):
        if loss < target:
            return i
    return len(result.losses) + 1


def factor_diagonals(blob):
    """Diagonal entries of every factor in a checkpoint record.

    Follows the record layout documented in psgdkit's README, which must stay
    byte-compatible, so no psgdkit internals are needed to check positivity.
    """
    diagonals = []

    def record(pos):
        if blob[pos:pos + 4] != b"PCS1":
            raise ValueError("bad magic")
        tag, nshape = struct.unpack_from("<BI", blob, pos + 4)
        pos += 9
        shape = struct.unpack_from(f"<{nshape}Q", blob, pos)
        pos += 8 * nshape
        (count,) = struct.unpack_from("<Q", blob, pos)
        values = np.frombuffer(blob, "<f8", count, pos + 8)
        pos += 8 + 8 * count
        if tag == 6:
            (nblocks,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            for _ in range(nblocks):
                (name_len,) = struct.unpack_from("<H", blob, pos)
                pos = record(pos + 2 + name_len)
            return pos
        if tag == 1:
            (dim,) = shape
            diagonals.append(values.reshape(dim, dim).diagonal())
        elif tag == 2:
            diagonals.append(values)
        elif tag == 3:
            dim, r = shape
            k = dim - r
            l1, l3 = values[:r * r], values[r * r + k * r:r * r + k * r + k]
            u = values[r * r + k * r + k:]
            diagonals.extend([l1.reshape(r, r).diagonal(), l3,
                              u[:r * r].reshape(r, r).diagonal(), u[r * r + r * k:]])
        elif tag == 4:
            m, n = shape
            diagonals.extend([values[:m * m].reshape(m, m).diagonal(),
                              values[m * m:].reshape(n, n).diagonal()])
        elif tag == 5:
            m, n = shape
            diagonals.extend([values[:m], values[m:m + n]])
        else:
            raise ValueError(f"unknown tag {tag}")
        return pos

    if record(0) != len(blob):
        raise ValueError("trailing bytes")
    return np.concatenate(diagonals)


def result_failures(result):
    """Seed-independent checks on one run."""
    failures = []
    if result.diverged:
        failures.append("diverged")
    if result.reserialized != result.state_bytes:
        failures.append("checkpoint round trip does not re-serialize to identical bytes")
    try:
        if not np.all(factor_diagonals(result.state_bytes) > 0.0):
            failures.append("a factor diagonal is not strictly positive")
    except (ValueError, struct.error) as exc:
        failures.append(f"unreadable checkpoint record: {exc}")
    return failures


def same_outputs(first, again):
    """True when a repeated call reproduced the first call's outputs exactly."""
    return (first.files == again.files and len(first.results) == len(again.results)
            and all(a.losses == b.losses and np.array_equal(a.theta, b.theta)
                    and a.state_bytes == b.state_bytes
                    for a, b in zip(first.results, again.results)))


def reference_entries(results, target):
    return [{"name": r.name, "final_loss": float(r.losses[-1]),
             "theta": [float(v) for v in r.theta],
             "iters_to_target": iters_to_target(r, target)} for r in results]


def reference_failures(results, expected, target):
    """Compare default-seed runs with the committed reference, to REL_TOL relative."""
    if len(results) != len(expected):
        return {None: [f"{len(results)} runs, reference has {len(expected)}"]}
    failures = {}
    for r, ref in zip(results, expected):
        bad = []
        want_theta = np.array(ref["theta"])
        if r.name != ref["name"]:
            bad.append(f"run {r.name!r} where the reference has {ref['name']!r}")
        if not abs(r.losses[-1] - ref["final_loss"]) <= REL_TOL * abs(ref["final_loss"]):
            bad.append(f"final loss {r.losses[-1]!r} != reference {ref['final_loss']!r}")
        if r.theta.shape != want_theta.shape or not (
                np.max(np.abs(r.theta - want_theta)) <= REL_TOL * np.max(np.abs(want_theta))):
            bad.append("final theta differs from the reference")
        if iters_to_target(r, target) != ref["iters_to_target"]:
            bad.append(f"iters_to_target {iters_to_target(r, target)} != reference "
                       f"{ref['iters_to_target']}")
        if bad:
            failures[r.name] = bad
    return failures


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
