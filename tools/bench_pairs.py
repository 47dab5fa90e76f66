"""Before/after record of the benchmark: parent revision against this checkout.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --out BENCH.json

It extracts the parent revision and the change with `git archive` into
temporary directories. The change is a snapshot of this checkout's tracked
files (`git stash create`, or HEAD when nothing changed; stage new files
first), so edits made while it runs are not measured. First, `bits` runs each
BIT_CLI invocation in both trees and records, per invocation and over all of
them, whether the two sides' exit codes, stdout, stderr and written files are
identical. It then runs
`benchmarks/run.py --trace 0` for `run_seconds` of `BENCHMARK.json` on each of
its workloads, for the parent and the change in ten alternating pairs: pair i
uses seed `--first-seed + i` for both sides, and the side that runs first
alternates from pair to pair. It reads each command's last output line (one
JSON object) and writes, for both revisions, the commit, the hash of its
`src/` tree, its code size (`src_lines`, the `wc -l` total of
`src/psgdkit/*.py`, `src_code_lines`, the lines of those files that hold
code rather than blanks, comments or docstrings, and `src_code_lines_by_file`,
the same count per file) and the environment, and per
workload and end-to-end metric the per-pair values with their median and
quartiles. The change/parent ratio of each pair is recorded as well, with its
median and quartiles (see `compared`), and so are `change_better`, the pairs the
change reads better in the metric's `better` direction, the metric's
`verdict` against its `bound` (see `verdict`) and whether it shows a `gain`
(see `gain`). After the pairs, each side runs
`benchmarks/run.py --trace 1` five times per workload, run i on seed
`--first-seed + i` for both sides, the side that runs first alternating as in
the pairs; `correct` covers these runs too. The workload's `layers` map each
per-layer metric to its unit, each side's per-run values with their median
and quartiles, and `change_lower`, the number of runs i whose change value is
below the parent's. Then both sides time every family's `update` (proven and
fallback), `apply`, `apply_inv` and state loading at the sizes of FAMILY_SIZES,
and count the minor page faults of their timed `update` calls, in one fresh
interpreter that loads both extracted trees (FAMILY_SCRIPT), FAMILY_RUNS times,
the side that runs first alternating as the pairs; `families` holds, per size
and kind, each side's summary and that of the change/parent ratio of each
pair of runs. On a shared host a process's timings can run about twice as
slow for seconds at a time, so the script runs the two sides one after the
other for each state, kind and repeat, and both share each slow phase; the
pairs' ratios and their quartiles show what spread remains. Then each side runs COLD_CLI, a fresh CLI process whose
run solves, COLD_RUNS times in its extracted tree, alternating as the pairs;
`cold_cli` holds each side's summary of the wall time and of the peak RSS
that `os.wait4` reports, and that of their change/parent ratios per pair. The
benchmark's `setup_s` cannot show what a first solve costs, for its set-up
makes none. Last, each side runs the tier-1 suite twice in its extracted tree
(`PYTHONPATH=src python -m pytest -q --continue-on-collection-errors`, with
`--durations=0`), in the order parent, change, change, parent, so a drift of
the host over the four runs weighs on both sides alike. Each run's wall time,
last output line, exit code and c03, c07 and c10 call durations are stored
in that side's `tier1` `runs`, with the side's medians of the wall time and
of c10 beside them.

The script uses the standard library only; it neither imports psgdkit nor
writes anything under benchmarks/: the traced runs write their span tables
into the extracted trees, which are deleted at the end.
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
TIER1_ORDER = ("parent", "change", "change", "parent")
# (variant, shape fields) of the family record, and its runs per side (alternating)
FAMILY_SIZES = [("dense", (16,)), ("dense", (64,)), ("dense", (128,)), ("diag", (16,)),
                ("kron", (4, 3)), ("kron", (6, 9)), ("kron", (16, 17)),
                ("scan", (4, 3)), ("scan", (6, 9)), ("scan", (16, 17)),
                ("splu", (16, 4)), ("splu", (128, 10))]
FAMILY_RUNS = 9
FAMILY_REPEATS, FAMILY_CALLS = 7, 300  # each time is the best of the repeats of the calls
# A fresh CLI run whose preconditioner solves, timed COLD_RUNS times per side (alternating).
# A first solve's loading is a few per cent of such a run's wall time, under the spread
# of a handful of runs on a shared host.
COLD_CLI = ["-m", "psgdkit", "run", "--problem", "xor-mlp", "--precond", "kron", "--iters", "3"]
COLD_RUNS = 15
# Run in a fresh interpreter with one compute thread: argv is the repeats, the calls per
# repeat, FAMILY_SIZES as JSON and a JSON object mapping each side, the one that runs first
# first, to its tree's src/psgdkit. The process loads both trees' psgdkit, each under a
# package name of its own, so that both sides share each slow phase of a shared host. Each
# side's state of each size is trained by 40 updates at step 0.1 on eight seeded pairs, and
# for each state, kind and repeat the two sides run one after the other, the side that
# runs first alternating. The kinds: update at step 1e-9, so each call is admitted by the
# proven bound and the state barely moves; fallback, update at step 1e-9 on a copy whose
# first factor entry set_factors puts at 1e120, above the bound's range, so every call
# scans; apply and apply_inv, each repeat on a fresh copy of the state, so that no one
# placement of its factors in memory sets every repeat's time; and load, state_from_bytes
# of the trained state's record. Each kind maps to a function that makes the callable to
# time for one repeat, and to its arguments. It prints one JSON object mapping each side
# to "variant shape" to each kind's best per-call time in us over the repeats, and to
# update_minflt, the minor page faults (ru_minflt) per timed update call over all the
# repeats.
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
# CLI invocations whose exit code, stdout, stderr and written files must be identical at
# the parent and the change; none passes --timing. Each runs as `python -m psgdkit` with
# one compute thread in a fresh directory of its own per side, so the relative --out,
# --save-precond and --config paths are the same on both sides; a --config file holds
# BIT_CONFIG. The first is quad-cli's argv (benchmarks/workloads.py) at 300 iterations, and
# QUAD_CLI_DIAG is its --quad-diag as that argv writes it.
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
    ["run", "--problem", "rosenbrock", "--iters", "200", "--out", "runs"],
    # a 2 x 1 kron block and its saved state
    ["run", "--problem", "rosenbrock", "--precond", "kron", "--iters", "200", "--save-precond",
     "state.pcs", "--out", "runs"],
    ["run", "--problem", "quad", "--noise", "0.1", "--batch-size", "3", "--precond", "splu",
     "--splu-order", "1", "--clip", "auto", "--damping", "trad:0.1", "--iters", "80", "--out",
     "runs"],
    ["sweep", "--config", "exp.cfg", "--out", "runs"],
    ["sweep", "--problem", "xor-mlp", "--iters", "50", "--run", "sgd::1.0", "--run",
     "rmsprop::0.01", "--run", "esgd::0.1", "--reps", "2", "--out", "runs"],
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


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev, dest):
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


def family_record(runs):
    """Per "variant shape" and kind (update_us, apply_us, ...): compared() of the
    sides' family runs. runs maps each side to its list of families() records."""
    return {key: {kind: compared({side: [r[key][kind] for r in rs]
                                  for side, rs in runs.items()})
                  for kind in kinds}
            for key, kinds in runs["parent"][0].items()}


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


def cold_record(runs):
    """Per measure (wall_s, peak_rss_mb): compared() of the sides' cold_cli runs. runs
    maps each side to its list of cold_cli() results."""
    return {measure: compared({side: [r[measure] for r in rs] for side, rs in runs.items()})
            for measure in ("wall_s", "peak_rss_mb")}


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
    durations = {}
    for line in lines:  # "31.20s call     tests/test_acceptance.py::test_c10_..."
        parts = line.split()
        for test in TIER1_TIMED:
            if len(parts) == 3 and parts[1] == "call" and f"::test_{test}_" in parts[2]:
                durations[test] = float(parts[0].rstrip("s"))
    return {"wall_s": wall_s, "result": lines[-1] if lines else "", "exit": out.returncode,
            "call_s": durations}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(spec, entry):
    """(change_better, verdict) of one end-to-end metric's entry on one workload.

    spec is the metric's declaration in BENCHMARK.json, with its `better`
    direction and its `bound`. change_better counts the pairs whose change
    value is better in that direction; a tie counts for neither side. The
    verdict is "worse" when the median change/parent ratio is worse than
    1 - bound (higher is better) or 1 + bound (lower is better);
    "unresolved" when the parent's (q3 - q1) / median exceeds the bound and
    not every change run beats every parent run; and "within_bound"
    otherwise.
    """
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
    """True when one end-to-end metric's entry on one workload shows a gain.

    The change must read better in at least GAIN_PAIRS of the pairs
    (`change_better`, which `verdict` counts), and its median must be better
    than the parent's, in the metric's `better` direction, by more than the
    parent's q3 - q1.
    """
    parent, change = entry["parent"], entry["change"]
    ahead = change["median"] - parent["median"]
    if spec["better"] != "higher":
        ahead = -ahead
    return entry["change_better"] >= GAIN_PAIRS and ahead > parent["q3"] - parent["q1"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    parent_rev = git("rev-parse", args.parent)
    change_rev = git("rev-parse", git("stash", "create") or "HEAD")
    record = {side: {"revision": rev, "src_tree": git("rev-parse", f"{rev}:src")}
              for side, rev in (("parent", parent_rev), ("change", change_rev))}
    record["protocol"] = {"command": "python3 benchmarks/run.py --trace 0",
                          "pairs": PAIRS, "seconds": seconds,
                          "seeds": [args.first_seed + i for i in range(PAIRS)],
                          "order": "alternating; parent first in even pairs",
                          "bits": f"each of the {len(BIT_CLI)} BIT_CLI invocations as "
                                  "PYTHONPATH=src python -m psgdkit in each tree, one compute "
                                  "thread, from a fresh directory per side and invocation, "
                                  "before the pairs: whether the exit code, stdout, stderr "
                                  "and the names and bytes of the written files are identical",
                          "layers": f"python3 benchmarks/run.py --trace 1, {TRACED} runs per "
                                    "side on the first seeds, alternating as the pairs, after "
                                    "the pairs",
                          "layer_claim": "a layer moved only if change_lower is "
                                         f"{TRACED} (lower) or 0 (higher) of {TRACED} runs and "
                                         "the medians differ by more than the parent's q3 - q1; "
                                         "otherwise it is unresolved",
                          "verdict": "per end-to-end metric and workload: worse when the "
                                     "median change/parent ratio is worse than 1 -/+ its bound "
                                     "in BENCHMARK.json; unresolved when the parent's "
                                     "(q3 - q1) / median exceeds the bound and not every "
                                     "change run beats every parent run; within_bound "
                                     "otherwise. change_better counts the pairs the change "
                                     "reads better, ties for neither side",
                          "gain": "per end-to-end metric and workload: true when the "
                                  f"change reads better in at least {GAIN_PAIRS} of the "
                                  f"{PAIRS} pairs and its median is better than the "
                                  "parent's by more than the parent's q3 - q1",
                          "families": f"FAMILY_SCRIPT, {FAMILY_RUNS} processes that each load "
                                      "both trees, after the layers, the side that runs first "
                                      "alternating per process and per state, kind and "
                                      "repeat: the best per-call update (step 1e-9), fallback "
                                      "(update at step 1e-9 after set_factors puts the first "
                                      "factor entry at 1e120, so every call scans), apply, "
                                      "apply_inv and load (state_from_bytes) time in us of "
                                      f"{FAMILY_REPEATS} repeats of {FAMILY_CALLS} calls on "
                                      "each FAMILY_SIZES state, trained by 40 updates at step "
                                      "0.1, and update_minflt, the minor page faults per timed "
                                      "update call over all repeats; each kind's "
                                      "change_over_parent summarizes the per-pair ratios",
                          "cold_cli": f"PYTHONPATH=src python {' '.join(COLD_CLI)} in each "
                                      f"tree, {COLD_RUNS} fresh processes per side alternating "
                                      "as the pairs, after the families: wall time and the "
                                      "os.wait4 peak RSS, with the per-pair ratios",
                          "tier1": "PYTHONPATH=src python -m pytest -q "
                                   "--continue-on-collection-errors --durations=0, twice per "
                                   "side in the order parent, change, change, parent, after "
                                   "the cold CLI runs"}
    record["workloads"] = {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        for side, rev in (("parent", parent_rev), ("change", change_rev)):
            os.mkdir(trees[side])
            extract(rev, trees[side])
            record[side]["src_lines"] = src_lines(trees[side])
            by_file = src_code_lines_by_file(trees[side])
            record[side]["src_code_lines"] = sum(by_file.values())
            record[side]["src_code_lines_by_file"] = by_file
        record["bits"] = bits(trees, tmp)
        print(f"bits: identical={record['bits']['identical']}", flush=True)
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    env, result = bench(trees[side], workload, seed, seconds)
                    record[side].setdefault("environment", env)
                    runs[side].append(result)
                    value = result["metrics"].get("calibrated_iters_per_s", {}).get("value")
                    print(f"{workload} pair {i} seed {seed} {side}: correct={result['correct']} "
                          f"calibrated_iters_per_s={value}", flush=True)
            entry = {side: {"correct": all(r["correct"] for r in rs),
                            "failed": sum(r["failed"] for r in rs),
                            "attempted": sum(r["attempted"] for r in rs)}
                     for side, rs in runs.items()}
            traced = {"parent": [], "change": []}
            for i in range(TRACED):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    _, result = bench(trees[side], workload, args.first_seed + i, seconds,
                                      trace=1)
                    entry[side]["correct"] = entry[side]["correct"] and result["correct"]
                    traced[side].append(result["metrics"])
                    print(f"{workload} traced {i} {side}: correct={result['correct']}",
                          flush=True)
            entry["layers"] = {}
            for layer, first in traced["parent"][0].items():
                per_side = {side: [m[layer]["value"] for m in ms] for side, ms in traced.items()}
                entry["layers"][layer] = {
                    "unit": first["unit"],
                    **{side: summary(v) for side, v in per_side.items()},
                    "change_lower": sum(c < p for p, c in zip(per_side["parent"],
                                                              per_side["change"]))}
            for metric in spec["end_to_end"]:
                name = metric["name"]
                entry[name] = compared({side: [r["metrics"][name]["value"] for r in rs]
                                        for side, rs in runs.items()})
                entry[name]["change_better"], entry[name]["verdict"] = verdict(metric,
                                                                               entry[name])
                entry[name]["gain"] = gain(metric, entry[name])
            record["workloads"][workload] = entry
        family_runs = {"parent": [], "change": []}
        for i in range(FAMILY_RUNS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side, times in families({side: trees[side] for side in order}).items():
                family_runs[side].append(times)
            print(f"families {i}", flush=True)
        record["families"] = family_record(family_runs)
        cold_runs = {"parent": [], "change": []}
        for i in range(COLD_RUNS):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                cold_runs[side].append(cold_cli(trees[side], os.path.join(tmp, "cold_cli")))
                print(f"cold CLI {i} {side}: {cold_runs[side][-1]}", flush=True)
        record["cold_cli"] = cold_record(cold_runs)
        tier1_runs = {"parent": [], "change": []}
        for side in TIER1_ORDER:
            tier1_runs[side].append(tier1(trees[side]))
            print(f"tier-1 {side}: {tier1_runs[side][-1]['result']}", flush=True)
        for side, runs in tier1_runs.items():
            c10 = [r["call_s"]["c10"] for r in runs if "c10" in r["call_s"]]
            record[side]["tier1"] = {
                "runs": runs,
                "median_wall_s": statistics.median(r["wall_s"] for r in runs),
                "median_c10_s": statistics.median(c10) if c10 else None}
    with open(os.path.join(ROOT, args.out), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
