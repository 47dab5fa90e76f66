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
