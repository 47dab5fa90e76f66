"""Every name a psgdkit module lists in ``__all__`` exists, so star imports work,
and importing psgdkit leaves scipy.linalg unloaded until a run first solves."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import psgdkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(psgdkit.__path__))


def test_modules_found():
    assert {"preconditioners", "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"psgdkit.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"psgdkit.{name}.__all__ names missing attributes: {missing}"


# Runs, in one fresh interpreter, the CLI invocations below (3 iterations each) and
# prints, after the import and after each run, whether scipy.linalg is loaded.
IMPORT_CONTRACT = """
import json, sys
import psgdkit, psgdkit.cli
loaded = {"import": "scipy.linalg" in sys.modules}
for argv in sys.argv[2:]:
    psgdkit.cli.main(["run", *argv.split(), "--iters", "3", "--out", sys.argv[1]])
    loaded[argv] = "scipy.linalg" in sys.modules
print(json.dumps(loaded))
"""


def test_scipy_linalg_loads_at_first_triangular_solve(tmp_path):
    never_solve = ["--problem addition-rnn --precond scan", "--problem quad --precond diag",
                   "--problem xor-mlp --method sgd", "--problem xor-mlp --method rmsprop",
                   "--problem xor-mlp --method esgd"]
    solves = "--problem xor-mlp --precond kron"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", IMPORT_CONTRACT, str(tmp_path), *never_solve,
                          solves], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded == {"import": False, **dict.fromkeys(never_solve, False), solves: True}
