"""Tests of the benchmark itself: python3 -m pytest benchmarks -q"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from bootstrap import ROOT, import_psgdkit

import_psgdkit()
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_declared_metrics_match_the_emitted_ones():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric_with_a_unit(workload, trace):
    out = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace,
                "--smoke")
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] != 0 for v in result["metrics"].values())
    report = "\n".join(lines[:-1])
    for name in ("iters_per_s", "iters_to_target", "fail_ratio", "python=", "numpy=",
                 "scipy=", "nproc=", "OPENBLAS_NUM_THREADS=1", "OMP_NUM_THREADS=1", "seed=1"):
        assert name in report
    if trace == "1":
        for span in tracer.SPANS:
            assert f"{span}.self_us_per_iter" in report
            assert f"{span}.calls_per_iter" in report
        assert "cli.trace_bytes_per_iter" in report


@pytest.fixture(scope="module")
def default_seed_results(tmp_path_factory):
    wl = workloads.WORKLOADS["xor-kron"]
    jobs = wl.prepare(workloads.DEFAULT_SEED, str(tmp_path_factory.mktemp("scratch")))
    return [r for job in jobs for r in job.execute().results]


def test_default_seed_matches_the_committed_reference(default_seed_results):
    expected = workloads.load_reference()["xor-kron"]
    assert workloads.reference_failures(default_seed_results, expected, 0.01) == {}
    assert all(workloads.result_failures(r) == [] for r in default_seed_results)


@pytest.mark.parametrize("perturb", [
    lambda ref: ref[0]["theta"].__setitem__(0, ref[0]["theta"][0] * (1 + 1e-9)),
    lambda ref: ref[1].__setitem__("final_loss", ref[1]["final_loss"] * (1 + 1e-9)),
    lambda ref: ref[2].__setitem__("iters_to_target", ref[2]["iters_to_target"] + 1),
    lambda ref: ref.pop(),
])
def test_perturbed_reference_trips_the_gate(default_seed_results, perturb):
    expected = workloads.load_reference()["xor-kron"]
    perturb(expected)
    assert workloads.reference_failures(default_seed_results, expected, 0.01) != {}


def test_bad_state_trips_the_gate(default_seed_results):
    from psgdkit import DiagPrecond, checkpoint
    state = DiagPrecond(3)
    state.q = np.array([1.0, -0.5, 2.0])
    blob = checkpoint.state_to_bytes(state)
    bad = workloads.Result("neg", [1.0], np.zeros(3), False, blob, blob)
    assert workloads.result_failures(bad) == ["a factor diagonal is not strictly positive"]
    good = default_seed_results[0]
    broken = workloads.Result("trip", good.losses, good.theta, False, good.state_bytes, b"")
    assert len(workloads.result_failures(broken)) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "benchmarks"), tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "xor-kron", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
