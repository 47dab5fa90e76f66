"""Before/after record of the benchmark: parent revision against this checkout.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --out BENCH.json

PROTOCOL states how each block of the record is measured, and the record
keeps a copy of it under `protocol`. The script uses the standard library
only; it neither imports psgdkit nor writes anything under benchmarks/.
"""

import argparse
import ast
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
TRACED = 5  # traced runs per side and workload
GAIN_PAIRS = 9  # pairs of the PAIRS the change must read better in for a gain
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ENVIRONMENT = ("python", "numpy", "scipy", "nproc", *THREAD_VARS)
TIER1_TIMED = ("c03", "c07", "c10")  # acceptance tests whose durations are recorded
# (variant, shape fields) of the family record, and its runs per side
FAMILY_SIZES = [("dense", (16,)), ("dense", (64,)), ("dense", (128,)), ("diag", (16,)),
                ("kron", (4, 3)), ("kron", (6, 9)), ("kron", (16, 17)),
                ("scan", (1, 7)), ("scan", (4, 3)), ("scan", (6, 9)), ("scan", (16, 17)),
                ("splu", (16, 4)), ("splu", (128, 10))]
FAMILY_RUNS = 9
FAMILY_REPEATS, FAMILY_CALLS = 7, 300  # each time is the best of the repeats of the calls
# A fresh CLI run whose preconditioner solves, and its runs per side
COLD_CLI = ["-m", "psgdkit", "run", "--problem", "xor-mlp", "--precond", "kron", "--iters", "3"]
COLD_RUNS = 15
# The family block's process (PROTOCOL["families"]). argv is the repeats, the calls per
# repeat, FAMILY_SIZES as JSON and a JSON object mapping each side, the one that runs first
# first, to its tree's src/psgdkit, which it loads under a package name of its own. Each
# kind maps to a function that makes the callable to time for one repeat, and to its
# arguments. It prints one JSON object mapping each side to "variant shape" to each kind's
# best per-call time in us over the repeats, and to update_minflt.
FAMILY_SCRIPT = """
import copy, importlib.util, json, resource, sys, time
import numpy as np
repeats, calls = int(sys.argv[1]), int(sys.argv[2])


def load(side, path):
    name = "psgdkit_" + side
    spec = importlib.util.spec_from_file_location(name, path + "/__init__.py",
                                                  submodule_search_locations=[path])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def kinds(psgdkit, variant, shape):
    p = psgdkit.preconditioners.FAMILIES[variant](*shape)
    rng = np.random.default_rng(0)
    pairs = [psgdkit.curvature.TangentPair(rng.standard_normal(p.dim), rng.standard_normal(p.dim))
             for _ in range(8)]
    for i in range(40):
        p.update(pairs[i % 8], 0.1)
    args = [pairs[i % 8] for i in range(calls)]
    name = p.factors[0][0]
    big = getattr(p, name).copy()
    big.flat[0] = 1e120
    fallback = copy.deepcopy(p).set_factors(**{name: big})
    vectors = [pair.delta_g for pair in args]
    blobs = [psgdkit.checkpoint.state_to_bytes(p)] * calls
    return {"update_us": (lambda: lambda pair: p.update(pair, 1e-9), args),
            "fallback_us": (lambda: lambda pair: fallback.update(pair, 1e-9), args),
            "apply_us": (lambda: copy.deepcopy(p).apply, vectors),
            "apply_inv_us": (lambda: copy.deepcopy(p).apply_inv, vectors),
            "load_us": (lambda: psgdkit.checkpoint.state_from_bytes, blobs)}


def per_call_us(make, args):
    fn = make()
    start = time.perf_counter()
    for a in args:
        fn(a)
    return (time.perf_counter() - start) / len(args) * 1e6


packages = {side: load(side, path) for side, path in json.loads(sys.argv[4]).items()}
sides, turn = list(packages), 0
record = {side: {} for side in sides}
for variant, shape in json.loads(sys.argv[3]):
    key = f"{variant} {'x'.join(map(str, shape))}"
    timed = {side: kinds(psgdkit, variant, shape) for side, psgdkit in packages.items()}
    for kind in timed[sides[0]]:
        best, faults = dict.fromkeys(sides, float("inf")), dict.fromkeys(sides, 0)
        for _ in range(repeats):
            turn += 1
            for side in sides if turn % 2 else sides[::-1]:
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                best[side] = min(best[side], per_call_us(*timed[side][kind]))
                faults[side] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        for side in sides:
            entry = record[side].setdefault(key, {})
            entry[kind] = best[side]
            if kind == "update_us":
                entry["update_minflt"] = faults[side] / (repeats * calls)
print(json.dumps(record))
"""
# The bits block's CLI invocations (PROTOCOL["bits"]). None passes --timing, and the --out,
# --save-precond and --config paths are relative; a --config file holds BIT_CONFIG. The
# first is quad-cli's argv (benchmarks/workloads.py) at 300 iterations, and QUAD_CLI_DIAG
# is its --quad-diag as that argv writes it.
QUAD_CLI_DIAG = ("0.1,0.13593563908785256,0.18478497974222907,0.251188643150958,"
                 "0.34145488738336016,0.46415888336127786,0.6309573444801932,"
                 "0.8576958985908941,1.1659144011798317,1.5848931924611134,"
                 "2.1544346900318834,2.9286445646252357,3.981071705534973,5.411695265464638,"
                 "7.3564225445964135,10.0")
BIT_CONFIG = "problem=xor-mlp\niters=40\nrun=psgd:kron:0.5\nrun=sgd::1.0\nreps=2\n"
BIT_CLI = [
    ["sweep", "--problem", "quad", "--dim", "16", "--quad-diag", QUAD_CLI_DIAG, "--noise",
     "0.01", "--splu-order", "4", "--iters", "300", "--seed", "3", "--out", "runs",
     "--save-precond", "final.pcs", "--run", "psgd:dense", "--run", "psgd:diag", "--run",
     "psgd:splu"],
    ["sweep", "--problem", "quad", "--noise", "0.1", "--iters", "60", "--reps", "2", "--run",
     "psgd:dense", "--run", "psgd:diag", "--run", "psgd:splu", "--save-precond", "state.pcs",
     "--out", "runs"],
    # two runs that diverge
    ["run", "--problem", "quad", "--precond", "dense", "--mu", "3", "--noise", "0.3", "--iters",
     "200", "--out", "runs"],
    ["run", "--problem", "quad", "--precond", "diag", "--mu", "10", "--iters", "100", "--out",
     "runs"],
    ["run", "--problem", "xor-mlp", "--precond", "kron", "--iters", "100", "--save-precond",
     "state.pcs", "--out", "runs"],
    ["run", "--problem", "xor-mlp", "--precond", "splu", "--per-block", "--iters", "100",
     "--out", "runs"],
    ["run", "--problem", "addition-rnn", "--precond", "scan", "--skip", "log10", "--iters",
     "120", "--out", "runs"],
    ["run", "--problem", "addition-rnn", "--precond", "kron", "--iters", "60", "--out", "runs"],
    # the rnn-scan workload's shape, with an update every iteration and its saved scan state
    ["run", "--problem", "addition-rnn", "--hidden", "6", "--seq-len", "10", "--batch-size",
     "16", "--precond", "scan", "--iters", "100", "--save-precond", "state.pcs", "--out", "runs"],
    ["run", "--problem", "rosenbrock", "--iters", "200", "--out", "runs"],
    # a 2 x 1 kron block and its saved state
    ["run", "--problem", "rosenbrock", "--precond", "kron", "--iters", "200", "--save-precond",
     "state.pcs", "--out", "runs"],
    ["run", "--problem", "quad", "--noise", "0.1", "--batch-size", "3", "--precond", "splu",
     "--splu-order", "1", "--clip", "auto", "--damping", "trad:0.1", "--iters", "80", "--out",
     "runs"],
    ["run", "--problem", "xor-mlp", "--precond", "kron", "--damping", "noncvx:0.1", "--iters",
     "100", "--out", "runs"],
    ["sweep", "--config", "exp.cfg", "--out", "runs"],
    ["sweep", "--problem", "xor-mlp", "--iters", "50", "--run", "sgd::1.0", "--run",
     "rmsprop::0.01", "--run", "esgd::0.1", "--reps", "2", "--out", "runs"],
    # esgd's differenced probes: addition-rnn has no exact Hessian-vector product
    ["run", "--problem", "addition-rnn", "--method", "esgd", "--iters", "60", "--out", "runs"],
    ["run", "--problem", "quad", "--quad-diag", "2,8", "--method", "sgd", "--mu", "0.1",
     "--iters", "3", "--name", "golden", "--out", "runs"],
    # no exact Hessian-vector product: exits 2 and writes no output directory
    ["sweep", "--problem", "addition-rnn", "--probe", "exact", "--iters", "3", "--run", "sgd",
     "--run", "psgd:dense", "--out", "runs"],
    # apply_inv, which no run or sweep calls
    ["verify", "inverses"],
]
BIT_OUTPUTS = ("exit", "stdout", "stderr", "files")
NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER)
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
# How each block of the record is measured. main copies it into the record's `protocol`,
# with the run's pair count, seconds and seeds.
PROTOCOL = {
    "revisions": "parent is the --parent revision and change a snapshot of this checkout's tracked "
                 "files (git stash create, or HEAD when nothing changed; stage new files first), "
                 "so edits made while it runs are not measured; each side records its revision "
                 "and src_tree, the hash of its src/, and is extracted with git archive into a "
                 "temporary directory, where each of its commands runs, deleted at the end",
    "code_size": "per side: src_lines, the wc -l total of src/psgdkit/*.py; src_code_lines, the "
                 "lines of those files that hold a token other than a comment, less docstrings "
                 "(code_lines); src_code_lines_by_file, the same count per file",
    "order": "pair i runs the parent first when i is even and the change first when it is odd "
             "(run_order): the pairs, the traced runs, the family processes, the cold CLI runs "
             "and the tier-1 runs alternate so, and a drift of the host weighs on both sides alike",
    "bits": f"first, each of the {len(BIT_CLI)} BIT_CLI invocations as PYTHONPATH=src python -m "
            "psgdkit in each tree, one compute thread, from a fresh directory per side and "
            "invocation, so the relative paths match: per invocation its argv, parent_exit and "
            "whether the exit code, stdout, stderr and the names and bytes of the written files "
            "are identical, and identical over them all",
    "command": "python3 benchmarks/run.py --trace 0",
    "workloads": "then the command on each workload of BENCHMARK.json for its run_seconds, in "
                 "pairs that run both sides on seed --first-seed + i, its last output line one "
                 "JSON object: per side, correct (every run correct, the traced runs included), "
                 "failed and attempted over the pairs, and per end-to-end metric each side's "
                 "per-pair values with their median and quartiles, change_over_parent (the same "
                 "summary of each pair's change/parent ratio, null when a parent value is 0), "
                 "change_better, verdict and gain; environment is the side's first run's",
    "layers": f"after a workload's pairs, python3 benchmarks/run.py --trace 1, {TRACED} runs per "
              "side on the first seeds, writing span tables into the trees: per per-layer "
              "metric its unit, each side's values with their median and quartiles, and "
              "change_lower, the runs whose change value is below the parent's on the same seed",
    "layer_claim": f"a layer moved only if change_lower is {TRACED} (lower) or 0 (higher) of "
                   f"{TRACED} runs and the medians differ by more than the parent's q3 - q1; "
                   "otherwise it is unresolved",
    "verdict": "per end-to-end metric and workload: worse when the median change/parent ratio "
               "is worse than 1 -/+ its bound in BENCHMARK.json; unresolved when the parent's "
               "(q3 - q1) / median exceeds the bound and not every change run beats every "
               "parent run; within_bound otherwise. change_better counts the pairs the change "
               "reads better, ties for neither side",
    "gain": "per end-to-end metric and workload: true when the change reads better in at least "
            f"{GAIN_PAIRS} of the {PAIRS} pairs and its median is better than the parent's by "
            "more than the parent's q3 - q1",
    "families": f"after the workloads, {FAMILY_RUNS} FAMILY_SCRIPT processes with one compute "
                "thread, each loading both trees and running the sides one after the other per "
                "state, kind and repeat, the side that runs first alternating, so both share "
                "each phase in which a shared host runs a process about twice as slow: the best "
                f"per-call time in us of {FAMILY_REPEATS} repeats of {FAMILY_CALLS} calls on "
                "each FAMILY_SIZES state, trained by 40 updates at step 0.1 on eight seeded "
                "pairs, of update_us (step 1e-9, so the proven bound admits each call and the "
                "state barely moves), fallback_us (the same after set_factors puts the first "
                "factor entry at 1e120, so every call scans), apply_us and apply_inv_us (each "
                "repeat on a fresh copy of the state, so no one placement of its factors in "
                "memory sets every repeat's time) and load_us (state_from_bytes), and "
                "update_minflt, the minor page faults per timed update call; per state and "
                "kind, each side's summary and change_over_parent",
    "cold_cli": f"then PYTHONPATH=src python {' '.join(COLD_CLI)} in each tree, {COLD_RUNS} "
                "fresh processes per side, for a first solve's loading is a few per cent of its "
                "wall time: each side's summary of the wall time and the os.wait4 peak RSS, and "
                "change_over_parent; the benchmark's setup_s makes no solve, so it cannot show "
                "what a first solve costs",
    "tier1": "last, PYTHONPATH=src python -m pytest -q --continue-on-collection-errors "
             "--durations=0 in each tree, two pairs: per side, each run's wall time, last "
             f"output line, exit code and the call durations of {', '.join(TIER1_TIMED)}, and "
             "the medians of the wall time and of c10",
}


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev, dest):
    """Extract revision rev of this repository into dest, a directory it creates."""
    os.mkdir(dest)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def sources(tree):
    """(name, bytes) of each of tree's src/psgdkit/*.py, in name order."""
    pkg = os.path.join(tree, "src", "psgdkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                yield name, fh.read()


def src_lines(tree):
    """Newlines in tree's src/psgdkit/*.py together, as `wc -l` counts them."""
    return sum(source.count(b"\n") for _, source in sources(tree))


def code_lines(source):
    """Lines of one Python source that hold a token other than a comment, less docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def src_code_lines_by_file(tree):
    """File name -> code lines (see code_lines), for tree's src/psgdkit/*.py."""
    return {name: code_lines(source) for name, source in sources(tree)}


def bench(tree, workload, seed, seconds, trace=0):
    """(environment, JSON result) of one benchmark command run in tree."""
    out = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree}: no output\n{out.stderr}")
    env = dict(tok.split("=", 1) for tok in lines[0].split() if "=" in tok)
    return {k: env[k] for k in ENVIRONMENT if k in env}, json.loads(lines[-1])


def families(trees, repeats=FAMILY_REPEATS, calls=FAMILY_CALLS):
    """Per side, FAMILY_SCRIPT's record of each FAMILY_SIZES state, from one process that
    loads the trees (side -> tree, the side that runs first first)."""
    packages = {side: os.path.join(tree, "src", "psgdkit") for side, tree in trees.items()}
    out = subprocess.run([sys.executable, "-c", FAMILY_SCRIPT, str(repeats), str(calls),
                          json.dumps(FAMILY_SIZES), json.dumps(packages)], capture_output=True,
                         text=True, env={**os.environ, **dict.fromkeys(THREAD_VARS, "1")})
    if out.returncode:
        raise RuntimeError(f"family record of {packages} failed\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def compared(values):
    """Each side's summary of its values, and the summary of the change/parent ratio of
    each pair, run i of the change over run i of the parent (None when a parent value is
    0). values maps each side to its list of values, in run order."""
    entry = {side: summary(v) for side, v in values.items()}
    pairs = list(zip(values["parent"], values["change"]))
    entry["change_over_parent"] = (summary([c / p for p, c in pairs])
                                   if all(p for p, _ in pairs) else None)
    return entry


def compared_records(runs):
    """compared() of each leaf of the sides' records, in their key tree. runs maps each
    side to its list of records, in run order: numbers, or dicts of one key tree whose
    leaves are numbers (a families() side, a cold_cli() result)."""
    if not isinstance(runs["parent"][0], dict):
        return compared(runs)
    return {key: compared_records({side: [r[key] for r in rs] for side, rs in runs.items()})
            for key in runs["parent"][0]}


def cold_cli(tree, out):
    """Wall time and peak RSS (MB, from os.wait4) of one fresh COLD_CLI process run in
    tree with its src on the path, writing its trace under out."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *COLD_CLI, "--out", out], cwd=tree,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": os.path.join(tree, "src")})
    stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = time.perf_counter() - start
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError(f"cold CLI run in {tree} failed\n{stderr.decode()}")
    return {"wall_s": wall_s, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def bit_run(tree, cwd, argv):
    """Exit code, stdout, stderr and written files (path relative to cwd -> bytes) of one
    BIT_CLI invocation run in tree from cwd, a directory it creates."""
    os.makedirs(cwd)
    if "--config" in argv:
        with open(os.path.join(cwd, argv[argv.index("--config") + 1]), "w") as fh:
            fh.write(BIT_CONFIG)
    given = set(os.listdir(cwd))
    out = subprocess.run([sys.executable, "-m", "psgdkit", *argv], cwd=cwd, capture_output=True,
                         env={**os.environ, **dict.fromkeys(THREAD_VARS, "1"),
                              "PYTHONPATH": os.path.join(tree, "src")})
    files = {}
    for root, _, names in os.walk(cwd):
        for name in names:
            path = os.path.relpath(os.path.join(root, name), cwd)
            if path not in given:
                with open(os.path.join(cwd, path), "rb") as fh:
                    files[path] = fh.read()
    return {"exit": out.returncode, "stdout": out.stdout, "stderr": out.stderr, "files": files}


def bit_compare(parent, change):
    """Whether two bit_run results agree in each of BIT_OUTPUTS (the files by their
    names and bytes), and `identical` when they agree in all of them."""
    entry = {output: parent[output] == change[output] for output in BIT_OUTPUTS}
    entry["identical"] = all(entry.values())
    return entry


def bits(trees, tmp):
    """Each BIT_CLI invocation's argv, the parent's exit code and the bit_compare of its
    runs in the trees (side -> tree), each side from its own directories under tmp, with
    `identical` over all of them."""
    invocations = []
    for i, argv in enumerate(BIT_CLI):
        runs = {side: bit_run(tree, os.path.join(tmp, f"bits-{side}", str(i)), argv)
                for side, tree in trees.items()}
        invocations.append({"argv": argv, "parent_exit": runs["parent"]["exit"],
                            **bit_compare(runs["parent"], runs["change"])})
    return {"identical": all(e["identical"] for e in invocations), "invocations": invocations}


def tier1(tree):
    """Wall time, last output line, exit code and timed call durations of tier-1 in tree."""
    pythonpath = os.pathsep.join(p for p in ("src", os.environ.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                          "--durations=0"], cwd=tree, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": pythonpath})
    wall_s = time.perf_counter() - start
    lines = out.stdout.strip().splitlines()
    # "31.20s call     tests/test_acceptance.py::test_c10_..."
    durations = {test: float(parts[0].rstrip("s")) for parts in map(str.split, lines)
                 for test in TIER1_TIMED
                 if len(parts) == 3 and parts[1] == "call" and f"::test_{test}_" in parts[2]}
    return {"wall_s": wall_s, "result": lines[-1] if lines else "", "exit": out.returncode,
            "call_s": durations}


def run_order(i):
    """The sides in the order they run in pair i: the parent first when i is even."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def alternating(pairs, run):
    """Each side's list of run(side, i) over the pairs i, each pair in run_order."""
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        for side in run_order(i):
            runs[side].append(run(side, i))
    return runs


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(spec, entry):
    """(change_better, verdict) of one end-to-end metric's entry on one workload, by
    PROTOCOL["verdict"]; spec is the metric's declaration in BENCHMARK.json."""
    higher, bound = spec["better"] == "higher", spec["bound"]

    def beats(change, parent):
        return change > parent if higher else change < parent

    parent, change = entry["parent"], entry["change"]
    better = sum(beats(c, p) for p, c in zip(parent["values"], change["values"]))
    ratio = entry["change_over_parent"]["median"]
    if ratio < 1 - bound if higher else ratio > 1 + bound:
        return better, "worse"
    spread = (parent["q3"] - parent["q1"]) / parent["median"]
    if spread > bound and not all(beats(c, p) for c in change["values"]
                                  for p in parent["values"]):
        return better, "unresolved"
    return better, "within_bound"


def gain(spec, entry):
    """Whether one end-to-end metric's entry on one workload, with its change_better,
    shows a gain by PROTOCOL["gain"]; spec is the metric's declaration in BENCHMARK.json."""
    parent, change = entry["parent"], entry["change"]
    ahead = change["median"] - parent["median"]
    if spec["better"] != "higher":
        ahead = -ahead
    return entry["change_better"] >= GAIN_PAIRS and ahead > parent["q3"] - parent["q1"]


def workload_record(trees, workload, spec, first_seed, record):
    """One workload's entry (PROTOCOL["workloads"] and ["layers"]); the first run of each
    side sets record[side]["environment"]."""

    def runs(pairs, trace):
        def run(side, i):
            env, result = bench(trees[side], workload, first_seed + i, spec["run_seconds"],
                                trace)
            record[side].setdefault("environment", env)
            print(f"{workload} trace {trace} pair {i} {side}: correct={result['correct']}",
                  flush=True)
            return result
        return alternating(pairs, run)

    paired, traced = runs(PAIRS, 0), runs(TRACED, 1)
    entry = {side: {"correct": all(r["correct"] for r in rs + traced[side]),
                    "failed": sum(r["failed"] for r in rs),
                    "attempted": sum(r["attempted"] for r in rs)}
             for side, rs in paired.items()}
    entry["layers"] = {}
    for layer, first in traced["parent"][0]["metrics"].items():
        per_side = {side: [r["metrics"][layer]["value"] for r in rs]
                    for side, rs in traced.items()}
        entry["layers"][layer] = {
            "unit": first["unit"], **{side: summary(v) for side, v in per_side.items()},
            "change_lower": sum(c < p for p, c in zip(per_side["parent"], per_side["change"]))}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        entry[name] = compared({side: [r["metrics"][name]["value"] for r in rs]
                                for side, rs in paired.items()})
        entry[name]["change_better"], entry[name]["verdict"] = verdict(metric, entry[name])
        entry[name]["gain"] = gain(metric, entry[name])
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    revisions = {"parent": git("rev-parse", args.parent),
                 "change": git("rev-parse", git("stash", "create") or "HEAD")}
    record = {side: {"revision": rev, "src_tree": git("rev-parse", f"{rev}:src")}
              for side, rev in revisions.items()}
    record["protocol"] = {"pairs": PAIRS, "seconds": spec["run_seconds"],
                          "seeds": [args.first_seed + i for i in range(PAIRS)], **PROTOCOL}
    record["workloads"] = {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: os.path.join(tmp, side) for side in revisions}
        for side, rev in revisions.items():
            extract(rev, trees[side])
            by_file = src_code_lines_by_file(trees[side])
            record[side].update(src_lines=src_lines(trees[side]),
                                src_code_lines=sum(by_file.values()),
                                src_code_lines_by_file=by_file)
        record["bits"] = bits(trees, tmp)
        print(f"bits: identical={record['bits']['identical']}", flush=True)
        for w in spec["workloads"]:
            record["workloads"][w["name"]] = workload_record(trees, w["name"], spec,
                                                             args.first_seed, record)
        family_runs = [families({side: trees[side] for side in run_order(i)})
                       for i in range(FAMILY_RUNS)]
        record["families"] = compared_records({side: [r[side] for r in family_runs]
                                               for side in revisions})
        record["cold_cli"] = compared_records(alternating(
            COLD_RUNS, lambda side, i: cold_cli(trees[side], os.path.join(tmp, "cold_cli"))))
        for side, runs in alternating(2, lambda side, i: tier1(trees[side])).items():
            c10 = [r["call_s"]["c10"] for r in runs if "c10" in r["call_s"]]
            print(f"tier-1 {side}: {[r['result'] for r in runs]}", flush=True)
            record[side]["tier1"] = {"runs": runs,
                                     "median_wall_s": statistics.median(r["wall_s"] for r in runs),
                                     "median_c10_s": statistics.median(c10) if c10 else None}
    with open(os.path.join(ROOT, args.out), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
