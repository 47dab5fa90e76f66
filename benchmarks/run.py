"""psgdkit benchmark: training throughput, set-up cost and correctness.

Run from the repository root:

    python3 benchmarks/run.py --workload xor-kron --seed 1 --seconds 15 --trace 0

Workloads: xor-kron, rnn-scan, quad-cli (see NOTES.md). --trace 0 measures
the end-to-end metrics (calibrated_iters_per_s, setup_s, peak_rss_mb) with
tracing off; --trace 1 measures the per-layer metrics in traced calls that
alternate with untraced ones. Every command also runs the default seed and checks it against
reference.json. A report goes to standard output, and its last line is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 1 when any correctness check fails and 2 when psgdkit cannot be
imported from this checkout.

    --smoke             one fresh process and one measured pass, for tests
    --write-reference   rewrite reference.json from the default seed
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from bootstrap import ROOT, SRC, THREAD_VARS, import_psgdkit, pin_threads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROCESSES = 5
# A round figure near calibration_s() on the machine the benchmark was defined
# on; it only sets the scale of the calibrated figures.
CALIBRATION_NOMINAL_S = 0.025
# calibration loops after each public call take at least this share of its time
CALIBRATION_SHARE = 0.1
# Span self times must add up to the traced wall time to within this share.
TRACE_TOLERANCE = 0.02

END_TO_END = {"calibrated_iters_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "optimizer.run.self_us_per_iter": "us",
    "problems.bind_batch.self_us_per_iter": "us",
    "problems.loss.self_us_per_iter": "us",
    "problems.grad.self_us_per_iter": "us",
    "problems.grad.calls_per_iter": "calls/iter",
    "curvature.make_tangent_pair.self_us_per_iter": "us",
    "preconditioners.update.self_us_per_iter": "us",
    "preconditioners.apply.self_us_per_iter": "us",
    "preconditioners.update.admitted_ratio": "calls/iter",
    "preconditioners.update.changed_ratio": "ratio",
    "checkpoint.state_to_bytes.self_us_per_iter": "us",
    "checkpoint.state_from_bytes.self_us_per_iter": "us",
    "checkpoint.bytes": "bytes",
    "trace.us_per_iter": "us",
    "trace.overhead_ratio": "ratio",
}


class Tally:
    """Training runs attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, call, extra=None):
        import workloads
        extra = extra or {}
        for r in call.results:
            failures = (workloads.result_failures(r) + extra.get(None, [])
                        + extra.get(r.name, []))
            self.attempted += 1
            if failures:
                self.failed += 1
                self.messages += [f"{r.name}: {m}" for m in failures]


def calibration_s():
    """Wall time of a fixed loop of small numpy and Python work that uses no psgdkit.

    The shared host this benchmark was defined on changes speed by up to 2x,
    over periods from under a second to tens of seconds, for all code alike.
    Timings taken next to this loop are scaled by CALIBRATION_NOMINAL_S / its
    time, which cancels that drift to within a few per cent while a change to
    psgdkit shows in full (see NOTES.md).
    """
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8))
    v = rng.standard_normal(8)
    acc = 0.0
    start = time.perf_counter()
    for i in range(3000):
        w = a @ v
        a = a - 0.001 * np.outer(w, v)
        acc += float(np.linalg.norm(w)) + (i % 7) * 0.5
        v = np.tanh(w) if i % 2 else w / (1.0 + abs(acc))
    return time.perf_counter() - start


def calibrate_for(seconds):
    """Mean calibration_s() over loops repeated until they took at least `seconds`."""
    times = [calibration_s()]
    while sum(times) < seconds:
        times.append(calibration_s())
    return statistics.mean(times)


def fresh_process(workload, seed, scratch):
    """Set-up seconds, calibrations around it and peak RSS (MB) of one fresh process."""
    calibration = calibration_s()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "setup_child.py"), workload,
                             str(seed), scratch], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=150)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    calibrations = [calibration, calibration_s()]
    return setup_s, calibrations, json.loads(rest.strip().splitlines()[-1])["peak_rss_mb"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def layer_metrics(tracer, traced, untraced):
    """Per-layer metrics of the traced calls, plus the full span table."""
    from tracer import SPANS
    iters = sum(c.iters for c in traced)
    wall_ns = sum(c.total_s for c in traced) * 1e9
    spans = tracer.by_name()
    table = {}
    for name in SPANS:
        calls, self_ns = spans.get(name, (0, 0))
        table[f"{name}.self_us_per_iter"] = self_ns / 1e3 / iters
        table[f"{name}.calls_per_iter"] = calls / iters
    per_layer = {name: table[name] for name in PER_LAYER if name in table}
    for kind in ("update", "apply"):
        per_layer[f"preconditioners.{kind}.self_us_per_iter"] = sum(
            v for k, v in table.items()
            if k.startswith("preconditioners.") and k.endswith(f".{kind}.self_us_per_iter"))
    per_layer["preconditioners.update.admitted_ratio"] = tracer.admitted_updates() / iters
    per_layer["preconditioners.update.changed_ratio"] = (
        tracer.update_changes / max(tracer.update_attempts, 1))
    results = [r for c in traced for r in c.results]
    per_layer["checkpoint.bytes"] = statistics.mean(len(r.state_bytes) for r in results)
    per_layer["trace.us_per_iter"] = wall_ns / 1e3 / iters

    def us_per_iter(calls):
        return statistics.median(c.call_s * 1e6 / c.iters for c in calls)

    per_layer["trace.overhead_ratio"] = us_per_iter(traced) / us_per_iter(untraced) - 1.0
    trace_csv = sum(len(data) for name, data in traced[0].files.items()
                    if name.endswith(".csv") and name != "summary.csv")
    table["cli.trace_bytes_per_iter"] = trace_csv / traced[0].iters
    self_sum_ns = sum(tracer.self_ns.values())
    return per_layer, table, self_sum_ns / wall_ns


@contextlib.contextmanager
def scratch_dir():
    path = os.path.join(OUT, f"scratch-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def set_up_metrics(wl, seed, scratch, count, report):
    """setup_s and peak_rss_mb from `count` fresh processes, one at a time."""
    samples = [fresh_process(wl.name, seed, scratch) for _ in range(count)]
    raw = statistics.median(s for s, _, _ in samples)
    # one calibration next to a 0.3 s sample jitters too much; use their median
    calibration = statistics.median(c for _, cs, _ in samples for c in cs)
    metrics = {"setup_s": raw * CALIBRATION_NOMINAL_S / calibration,
               "peak_rss_mb": statistics.median(m for _, _, m in samples)}
    report(f"setup_s          {metrics['setup_s']:.4f} s (calibrated)  median of "
           f"{count} fresh processes; raw median {raw:.4f} s")
    report(f"peak_rss_mb      {metrics['peak_rss_mb']:.2f} MB  median of {count} fresh processes")
    return metrics


def first_pass(wl, seed, scratch, tally, report):
    """The jobs at `seed` and their first, checked and discarded, calls.

    The default seed always runs first and is compared with reference.json;
    when it is `seed`, that pass is also the warm-up.
    """
    import workloads
    jobs = wl.prepare(seed, scratch)
    reference_jobs = (jobs if seed == workloads.DEFAULT_SEED
                      else wl.prepare(workloads.DEFAULT_SEED, scratch))
    reference_calls = [job.execute() for job in reference_jobs]
    mismatches = workloads.reference_failures(
        [r for c in reference_calls for r in c.results], workloads.load_reference()[wl.name],
        wl.target)
    for call in reference_calls:
        tally.check(call, mismatches)
    first = reference_calls
    if seed != workloads.DEFAULT_SEED:
        first = [job.execute() for job in jobs]
        for call in first:
            tally.check(call)
    reached = [workloads.iters_to_target(r, wl.target) for c in first for r in c.results]
    report(f"iters_to_target  {statistics.median(reached):g} iters  median of "
           f"{len(reached)} training runs (target train_loss {wl.target:g})")
    return jobs, first


def measure(args, tally, report):
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload]
    with scratch_dir() as scratch:
        metrics = {}
        if not args.trace:
            metrics = set_up_metrics(wl, args.seed, scratch,
                                     1 if args.smoke else SETUP_PROCESSES, report)
        jobs, first = first_pass(wl, args.seed, scratch, tally, report)

        tracer = Tracer()
        untraced, traced, calibrated = [], [], []
        calibration = calibration_s()
        deadline = time.perf_counter() + args.seconds
        while True:
            for job, baseline in zip(jobs, first):
                calls = [job.execute()]
                before, calibration = calibration, calibrate_for(
                    CALIBRATION_SHARE * calls[0].call_s)
                calibrated.append(calls[0].iters / calls[0].call_s
                                  * (before + calibration) / 2 / CALIBRATION_NOMINAL_S)
                untraced.append(calls[0])
                if args.trace:
                    with tracer.install():
                        calls.append(job.execute(tracer))
                    traced.append(calls[1])
                for call in calls:
                    same = workloads.same_outputs(baseline, call)
                    tally.check(call, {} if same else
                                {None: ["outputs differ from an identical earlier call"]})
            if args.smoke or time.perf_counter() >= deadline:
                break

    raw = [c.iters / c.call_s for c in untraced]
    q1, q3 = quartiles(calibrated)
    report(f"iters_per_s      {statistics.median(raw):.2f} 1/s  raw median of {len(raw)} "
           f"public calls")
    report(f"calibrated_iters_per_s {statistics.median(calibrated):.2f} 1/s  median of "
           f"{len(calibrated)} public calls (q1 {q1:.2f}, q3 {q3:.2f})")
    if not args.trace:
        metrics["calibrated_iters_per_s"] = statistics.median(calibrated)
        return {name: metrics[name] for name in END_TO_END}

    per_layer, table, coverage = layer_metrics(tracer, traced, untraced)
    report(f"traced: {len(traced)} calls, {sum(c.iters for c in traced)} iterations; "
           f"span self times cover {coverage:.4f} of the traced wall")
    if abs(coverage - 1.0) > TRACE_TOLERANCE:
        tally.failed += 1
        tally.messages.append(f"span self times cover {coverage:.4f} of the traced wall, "
                              f"outside 1 +- {TRACE_TOLERANCE}")
    for name, value in table.items():
        report(f"  {name:52s} {value:12.4f}")
    with open(os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.json"), "w") as fh:
        json.dump({"spans": [{"caller": caller, "name": name, "calls": count,
                              "total_ns": tracer.total_ns[(caller, name)],
                              "self_ns": tracer.self_ns[(caller, name)]}
                             for (caller, name), count in sorted(
                                 tracer.calls.items(), key=lambda kv: str(kv[0]))],
                   "table": table, "per_layer": per_layer}, fh, indent=1)
    return per_layer


def write_reference():
    import workloads
    reference = {}
    with scratch_dir() as scratch:
        for wl in workloads.WORKLOADS.values():
            calls = [job.execute() for job in wl.prepare(workloads.DEFAULT_SEED, scratch)]
            results = [r for c in calls for r in c.results]
            reference[wl.name] = workloads.reference_entries(results, wl.target)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["xor-kron", "rnn-scan", "quad-cli"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    pin_threads()
    try:
        import_psgdkit()
    except ImportError as exc:
        print(f"benchmark: cannot import psgdkit from {SRC}: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.write_reference:
        write_reference()
        return 0

    import numpy
    import scipy

    def report(line):
        print(line, flush=True)

    report(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
           f"trace={args.trace} python={platform.python_version()} numpy={numpy.__version__} "
           f"scipy={scipy.__version__} nproc={len(os.sched_getaffinity(0))} "
           + " ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS))
    tally = Tally()
    try:
        values = measure(args, tally, report)
    except Exception as exc:  # a raising workload is a failed run, not a crash
        traceback.print_exc()
        tally.failed += 1
        tally.attempted += 1
        tally.messages.append(f"{type(exc).__name__}: {exc}")
        values = {}
    report(f"fail_ratio       {tally.failed / max(tally.attempted, 1):g}      "
           f"{tally.failed} of {tally.attempted} training runs failed")
    for message in tally.messages[:20]:
        report(f"FAIL {message}")
    units = PER_LAYER if args.trace else END_TO_END
    correct = tally.failed == 0 and not tally.messages
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
