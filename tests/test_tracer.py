"""The benchmark tracer's patch points exist, and install() puts each back."""

import importlib.util
import os

import numpy as np

import psgdkit
from psgdkit import checkpoint, cli, optimizer, preconditioners
from psgdkit.curvature import TangentPair

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks", "tracer.py")
_SPEC = importlib.util.spec_from_file_location("tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)

OWNERS = [psgdkit, checkpoint, cli, optimizer, preconditioners,
          *(getattr(preconditioners, name) for name in tracer.FAMILIES)]


def test_install_patches_and_restores_every_attribute():
    before = [dict(vars(owner)) for owner in OWNERS]
    t = tracer.Tracer()
    with t.install():
        patched = {(owner.__name__, name) for owner, saved in zip(OWNERS, before)
                   for name, value in vars(owner).items() if saved.get(name) is not value}
        p = preconditioners.DensePrecond(2)
        p.update(TangentPair(np.array([1.0, 0.0]), np.array([2.0, 0.0])), 0.25)
    assert ("psgdkit.preconditioners", "tri_solve") in patched
    for name in tracer.FAMILIES:
        assert {(name, "update"), (name, "apply")} <= patched
    assert t.update_attempts == t.update_changes == 1
    for owner, saved in zip(OWNERS, before):
        after = dict(vars(owner))
        assert after.keys() == saved.keys(), owner.__name__
        assert all(after[name] is value for name, value in saved.items()), owner.__name__


def test_every_triangular_solve_is_timed():
    # the tracer's linalg.tri_solve span patches preconditioners.tri_solve, the one
    # solve: each triangular family's update and inverse product adds calls to it
    rng = np.random.default_rng(3)
    dense = preconditioners.DensePrecond(5)
    kron = preconditioners.KronPrecond(4, 3)
    splu = preconditioners.SpluPrecond(6, 2)

    def update(p):
        p.update(TangentPair(rng.standard_normal(p.dim), rng.standard_normal(p.dim)), 0.1)

    actions = {"dense update": lambda: update(dense), "kron update": lambda: update(kron),
               "splu update": lambda: update(splu),
               "dense apply_inv": lambda: dense.apply_inv(np.ones(5)),
               "kron apply_inv": lambda: kron.apply_inv(np.ones(12))}
    t = tracer.Tracer()
    with t.install():
        for action, act in actions.items():
            before = t.by_name().get("linalg.tri_solve", (0, 0))[0]
            act()
            assert t.by_name().get("linalg.tri_solve", (0, 0))[0] > before, action
