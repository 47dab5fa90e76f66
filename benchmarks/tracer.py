"""Span tracer that wraps psgdkit's public entry points from outside.

Each span has a name (the layer: module plus entry point), a duration and
the span that called it. Spans stay in memory, aggregated per (caller, name):
call count, total time and self time (duration minus the spans it called).
Nothing under src/ is changed; `install` swaps module and class attributes
and puts the originals back on exit.
"""

import contextlib
import dataclasses
import time
from collections import defaultdict

import numpy as np

# class name -> family name used in span names
FAMILIES = {
    "DensePrecond": "dense",
    "DiagPrecond": "diag",
    "SpluPrecond": "splu",
    "KronPrecond": "kron",
    "ScanPrecond": "scan",
    "DirectSumPrecond": "direct_sum",
}

# every span install() records, in report order
SPANS = (("optimizer.run", "problems.bind_batch", "problems.loss", "problems.grad",
          "problems.hvp", "curvature.make_tangent_pair")
         + tuple(f"preconditioners.{f}.{m}" for f in FAMILIES.values() for m in ("update", "apply"))
         + ("linalg.tri_solve", "checkpoint.state_to_bytes", "checkpoint.state_from_bytes",
            "cli.main"))


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)  # (caller, name) -> count
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.update_attempts = 0  # update calls on a state that holds factors
        self.update_changes = 0  # ... of which changed at least one factor
        self._stack = []  # open spans: [name, ns spent in the spans they called]

    def wrap(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                stack.pop()
                caller = None
                if stack:
                    caller = stack[-1][0]
                    stack[-1][1] += elapsed
                key = (caller, name)
                self.calls[key] += 1
                self.total_ns[key] += elapsed
                self.self_ns[key] += elapsed - frame[1]

        return traced

    def wrap_update(self, name, fn):
        """Trace a preconditioner update and count whether it changed the state."""
        traced = self.wrap(name, fn)

        def update(precond, *args, **kwargs):
            before = {k: v.copy() for k, v in vars(precond).items() if isinstance(v, np.ndarray)}
            traced(precond, *args, **kwargs)
            if before:
                self.update_attempts += 1
                self.update_changes += any(not np.array_equal(v, getattr(precond, k))
                                           for k, v in before.items())

        return update

    def wrap_problem(self, problem):
        """The same problem, with bind_batch and the bound loss/grad/hvp traced."""
        bind = self.wrap("problems.bind_batch", problem.bind_batch)

        def bind_batch(seed):
            ev = bind(seed)
            hvp = None if ev.hvp is None else self.wrap("problems.hvp", ev.hvp)
            return dataclasses.replace(ev, loss=self.wrap("problems.loss", ev.loss),
                                       grad=self.wrap("problems.grad", ev.grad), hvp=hvp)

        return dataclasses.replace(problem, bind_batch=bind_batch)

    def by_name(self):
        """name -> (calls, self ns), summed over callers."""
        out = defaultdict(lambda: [0, 0])
        for key, count in self.calls.items():
            out[key[1]][0] += count
            out[key[1]][1] += self.self_ns[key]
        return dict(out)

    def admitted_updates(self):
        """Preconditioner update calls made by the optimizer, not by a direct sum."""
        return sum(count for (caller, name), count in self.calls.items()
                   if name.endswith(".update") and not (caller or "").endswith(".update"))

    @contextlib.contextmanager
    def install(self):
        import psgdkit
        from psgdkit import checkpoint, cli, optimizer, preconditioners

        def problem_factory(fn):
            return lambda *args, **kwargs: self.wrap_problem(fn(*args, **kwargs))

        patches = [
            (psgdkit, "run", lambda fn: self.wrap("optimizer.run", fn)),
            (cli, "run", lambda fn: self.wrap("optimizer.run", fn)),
            (cli, "main", lambda fn: self.wrap("cli.main", fn)),
            (cli, "make_quadratic", problem_factory),
            (optimizer, "make_tangent_pair",
             lambda fn: self.wrap("curvature.make_tangent_pair", fn)),
            (preconditioners, "tri_solve", lambda fn: self.wrap("linalg.tri_solve", fn)),
            (checkpoint, "state_to_bytes", lambda fn: self.wrap("checkpoint.state_to_bytes", fn)),
            (checkpoint, "state_from_bytes",
             lambda fn: self.wrap("checkpoint.state_from_bytes", fn)),
        ]
        for cls_name, family in FAMILIES.items():
            cls = getattr(preconditioners, cls_name)
            patches.append((cls, "update", lambda fn, f=family:
                            self.wrap_update(f"preconditioners.{f}.update", fn)))
            patches.append((cls, "apply", lambda fn, f=family:
                            self.wrap(f"preconditioners.{f}.apply", fn)))
        saved = []
        try:
            for owner, attr, make in patches:
                original = getattr(owner, attr)
                saved.append((owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original, own in reversed(saved):
                if own:
                    setattr(owner, attr, original)
                else:  # it was inherited
                    delattr(owner, attr)
