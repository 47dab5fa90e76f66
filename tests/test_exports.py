"""Every name a psgdkit module lists in ``__all__`` exists, so star imports work."""

import importlib
import pkgutil

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
