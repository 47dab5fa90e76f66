"""Every name a psgdkit module lists in ``__all__`` exists, so star imports work,
the package exports exactly its library modules' ``__all__``, and no run imports
scipy.linalg, or even the scipy package: a run's first triangular solve loads
LAPACK's routine from scipy's LAPACK extension alone."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types

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


def test_package_exports_each_library_modules_all():
    # the package's public names, apart from its submodules and version, are
    # exactly what its library modules declare
    library = ["checkpoint", "curvature", "errors", "optimizer", "preconditioners", "problems"]
    declared = {n for m in library for n in importlib.import_module(f"psgdkit.{m}").__all__}
    public = {n for n, v in vars(psgdkit).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == declared


# Runs, in one fresh interpreter, the CLI invocations in argv[3:] (3 iterations each)
# and prints, after the import and after each run, whether the module argv[2] names is
# loaded and whether the triangular solve is still the stub that loads LAPACK at its
# first call.
IMPORT_CONTRACT = """
import json, sys
import psgdkit, psgdkit.cli
from psgdkit import linalg


def seen():
    return [sys.argv[2] in sys.modules, linalg._trtrs is linalg._first_trtrs]


record = {"import": seen()}
for argv in sys.argv[3:]:
    psgdkit.cli.main(["run", *argv.split(), "--iters", "3", "--out", sys.argv[1]])
    record[argv] = seen()
print(json.dumps(record))
"""
SOLVES = ["--problem xor-mlp --precond kron", "--problem quad --precond dense",
          "--problem quad --precond splu"]


def contract(out_dir, module, argvs):
    """IMPORT_CONTRACT's record of the runs argvs, watching module."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", IMPORT_CONTRACT, str(out_dir), module, *argvs],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_lapack_loads_at_first_triangular_solve_and_scipy_linalg_never(tmp_path):
    never_solve = ["--problem addition-rnn --precond scan", "--problem quad --precond diag",
                   "--problem xor-mlp --method sgd", "--problem xor-mlp --method rmsprop",
                   "--problem xor-mlp --method esgd"]
    record = contract(tmp_path, "scipy.linalg", never_solve + SOLVES)
    assert record == {"import": [False, True], **dict.fromkeys(never_solve, [False, True]),
                      **dict.fromkeys(SOLVES, [False, False])}


def test_no_solving_run_executes_the_scipy_package(tmp_path):
    # the first solve locates scipy's directory without running its __init__, so the
    # LAPACK routine is loaded while the package itself never is
    record = contract(tmp_path, "scipy", SOLVES)
    assert record == {"import": [False, True], **dict.fromkeys(SOLVES, [False, False])}
