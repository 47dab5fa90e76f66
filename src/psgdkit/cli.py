"""Command-line runner: deterministic experiments, CSV traces, verification.

Subcommands:
    run     execute one training run, write a CSV trace and a summary row
    sweep   execute several configurations with seed-offset repetitions
    verify  run a verification suite (gradcheck, fixedpoint, groups, inverses)

Every run writes ``<name>.csv`` with one comment header line recording the
full configuration, a column header naming ``TraceRow``'s fields in declared
order, and one raw row per iteration. A ``summary.csv`` holds one row of
SUMMARY_COLUMNS per run: its configuration and final/best losses;
loss smoothing (exponential moving average, factor 0.99) is applied only in
the summary, never to the trace. wall_ns is 0 unless --timing is given, so
identical invocations produce byte-identical files.

Each problem is one PROBLEMS entry: the problem flags it reads, its defaults
and its builder. Explicit flags win; a problem flag the problem does not read
is a usage error. A key=value config file names flags by key: each line is
parsed as that flag, ahead of the command line's own flags, which therefore
override it. The output directory is ./runs, overridable by the PSGDKIT_OUT
environment variable and the --out flag.
"""

import argparse
import math
import os
import sys
from collections import namedtuple
from dataclasses import fields as dataclass_fields
from itertools import takewhile
from operator import attrgetter

import numpy as np

from .checkpoint import _atomic_write, save_state
from .curvature import ProbeConfig
from .errors import ContractViolationError, PsgdkitError
from .optimizer import METHODS, RMSPROP_BETA, RMSPROP_EPS, RunConfig, TraceRow, run
from .preconditioners import FAMILIES
from .problems import make_addition_rnn, make_quadratic, make_rosenbrock, make_xor_mlp
from .verify import SUITES, run_suite

SMOOTHING = 0.99


def _quadratic(dim, quad_diag, noise, batch_size):
    if quad_diag == "alternating":
        diag = [k * (1 if k % 2 else -1) for k in range(1, dim + 1)]
    else:
        diag = _numbers(quad_diag)
    return make_quadratic(np.diag(np.array(diag, dtype=float)), noise_scale=noise,
                          batch_size=batch_size)


# flags: the problem flags it reads, dest -> default, in trace-header order, which
# build takes as keywords; defaults: its values for flags every problem reads
ProblemEntry = namedtuple("ProblemEntry", "flags defaults build")
PROBLEMS = {
    "quad": ProblemEntry(dict(dim=10, quad_diag="alternating", noise=0.0, batch_size=1),
                         dict(mu=0.5, precond_mu=0.01, clip="none", probe="exact"), _quadratic),
    "rosenbrock": ProblemEntry({}, dict(mu=0.5, precond_mu=0.1, clip=1.0, probe="exact"),
                               make_rosenbrock),
    "xor-mlp": ProblemEntry(dict(hidden=4),
                            dict(mu=0.5, precond_mu=0.05, clip="auto", probe="exact"),
                            make_xor_mlp),
    "addition-rnn": ProblemEntry(dict(hidden=4, seq_len=8, batch_size=1),
                                 dict(mu=0.1, precond_mu=0.01, clip="auto", probe="approx"),
                                 make_addition_rnn),
}
PROBLEM_FLAGS = {dest for e in PROBLEMS.values() for dest in e.flags}
# the flag that gives a library argument, where its name is not the flag's
FIELD_FLAGS = {"h": "--quad-diag", "noise_scale": "--noise", "clip_omega": "--clip",
               "damping_lambda": "--damping"}


def _flag_type(parse, expected):
    """An argparse type: parse(text). A ValueError becomes argparse's usage error,
    naming the flag and `expected`. The value's range is the library's to check."""
    def convert(text):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
    return convert


def _numbers(text):
    return [float(v) for v in text.split(",")] if text else []


def _parse_damping(text):
    if text == "none":
        return "none", 0.0
    for prefix, kind in (("trad:", "traditional"), ("noncvx:", "nonconvex")):
        if text.startswith(prefix):
            return kind, float(text[len(prefix):])
    raise ValueError(text)


def _run_name(text):
    # a run name is its trace's file name in the output directory, beside summary.csv,
    # and the first field of its summary row; an empty one stands for the name the
    # configuration gives
    unsafe = {"/", os.sep, os.altsep, ",", "\n", "\r", "\0"}
    if text in (".", "..", "summary") or unsafe & set(text):
        raise ValueError(text)
    return text


def _run_spec(text):
    # the flag values a sweep --run value overrides; an empty part overrides none, and a
    # fourth part stays in mu, which then does not parse
    parts = zip(("method", "precond", "mu"), text.split(":", 2))
    return {key: float(value) if key == "mu" else value for key, value in parts if value}


def _resolve_problem(parser, args):
    """Fill in the chosen problem's defaults for the flags not given; exit 2 on a
    given problem flag that the problem does not read, and on a --dim below 1,
    which no library argument holds."""
    entry = PROBLEMS[args.problem]
    for dest in vars(args):
        if dest in PROBLEM_FLAGS and dest not in entry.flags:
            flag = "--" + dest.replace("_", "-")
            parser.exit(2, f"psgdkit: {flag} is not read by --problem {args.problem}\n")
    if getattr(args, "dim", 1) < 1:
        parser.error(f"argument --dim: must be at least 1 (Hessian must not be empty), "
                     f"got {args.dim}")
    # an explicit diagonal sets the dimension, which the header then records
    if getattr(args, "quad_diag", "alternating") != "alternating":
        dim = len(_numbers(args.quad_diag))
        if getattr(args, "dim", dim) != dim:
            parser.exit(2, f"psgdkit: --dim {args.dim} differs from the {dim} values "
                           f"of --quad-diag\n")
        args.dim = dim
    for dest, default in {**entry.flags, **entry.defaults}.items():
        if getattr(args, dest, None) is None:
            setattr(args, dest, default)


def _resolve_clip(clip, problem):
    if clip == "none":
        return None
    if clip == "auto":
        return 10.0 * math.sqrt(problem.dim)
    return clip


def _make_config(args, problem, seed):
    kind, lam = args.damping
    mode = "approximate" if args.probe == "approx" else "exact"
    return RunConfig(
        method=args.method,
        precond_variant=args.precond,
        splu_order=args.splu_order,
        per_block=args.per_block,
        mu=args.mu,
        precond_mu=args.precond_mu,
        clip_omega=_resolve_clip(args.clip, problem),
        probe=ProbeConfig(mode=mode, damping=kind, damping_lambda=lam),
        skip_schedule=args.skip,
        iters=args.iters,
        seed=seed,
    )


def _config_fields(args, cfg):
    """The trace header's fields; the run name and the summary read theirs from it."""
    problem_fields = {dest: getattr(args, dest) for dest in PROBLEMS[args.problem].flags}
    return {
        "problem": args.problem,
        "method": cfg.method,
        "precond": cfg.precond_variant if cfg.method == "psgd" else "-",
        "mu": cfg.mu,
        "precond_mu": cfg.precond_mu,
        "clip": "none" if cfg.clip_omega is None else f"{cfg.clip_omega:g}",
        "probe": cfg.probe.mode,
        "probe_std": f"{cfg.probe.sample_std:g}",
        "damping": cfg.probe.damping,
        "damping_lambda": f"{cfg.probe.damping_lambda:g}",
        "skip": cfg.skip_schedule,
        "splu_order": cfg.splu_order,
        "per_block": int(cfg.per_block),
        "iters": cfg.iters,
        # recorded for every problem, as 1 for one that draws no batch
        "batch_size": problem_fields.pop("batch_size", 1),
        "seed": cfg.seed,
        "rmsprop_beta": RMSPROP_BETA,
        "rmsprop_eps": RMSPROP_EPS,
        "smoothing": SMOOTHING,
        **problem_fields,
    }


def _write_lines(path, lines):
    """Write lines, each ended by a newline, to path as UTF-8 (see _atomic_write)."""
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


# The trace's columns are TraceRow's fields in declared order. A row writes the repr of
# each value converted by its field's declared type: float, or int for int and bool.
# _trace_lines is built from the fields once, around one f-string per row,
# f"{int(r.iter)!r},{float(r.train_loss)!r},...", since a run writes a row per
# iteration and that formats them as fast as an f-string written out by hand.
_TRACE_FIELDS = dataclass_fields(TraceRow)
_TRACE_CONVERT = {float: "float", int: "int", bool: "int"}
_trace_lines = eval("lambda rows: [f'%s' for r in rows]" % ",".join(
    "{%s(r.%s)!r}" % (_TRACE_CONVERT[f.type], f.name) for f in _TRACE_FIELDS))


def _write_trace(path, fields, rows):
    _write_lines(path, ["# psgdkit " + " ".join(f"{k}={v}" for k, v in fields.items()),
                        ",".join(f.name for f in _TRACE_FIELDS), *_trace_lines(rows)])


def _smoothed_final(losses):
    s = None
    for value in takewhile(math.isfinite, losses):
        s = value if s is None else SMOOTHING * s + (1.0 - SMOOTHING) * value
    return float("nan") if s is None else s


_LOSS = attrgetter("train_loss")

# summary.csv's columns in order: name, value for a Run and its RunResult, and whether
# the run's stdout line reports it after the first column, the run name
SUMMARY_COLUMNS = (
    ("name", lambda r, res: r.name, False),
    ("problem", lambda r, res: r.fields["problem"], False),
    ("method", lambda r, res: r.fields["method"], False),
    ("precond", lambda r, res: r.fields["precond"], False),
    ("mu", lambda r, res: f"{r.fields['mu']:g}", False),
    ("seed", lambda r, res: r.fields["seed"], False),
    ("iters_run", lambda r, res: len(res.rows), False),
    ("final_loss", lambda r, res: repr(float(res.rows[-1].train_loss)), True),
    ("best_loss", lambda r, res: repr(float(min(filter(math.isfinite, map(_LOSS, res.rows)),
                                                default=math.nan))), True),
    ("final_loss_smoothed", lambda r, res: repr(_smoothed_final(map(_LOSS, res.rows))), False),
    ("diverged", lambda r, res: int(res.diverged), True),
)


def _write_summary(path, entries):
    _write_lines(path, [",".join(column for column, _, _ in SUMMARY_COLUMNS),
                        *(",".join(map(str, entry)) for entry in entries)])


# One run of a run or sweep, built and checked: its namespace, problem, RunConfig,
# trace header fields and name.
Run = namedtuple("Run", "args problem cfg fields name")


def _build_run(parser, args, spec, seed):
    """The Run of one spec and seed. A library range check that names its field exits 2
    as a usage error on the flag that gave the value: --run if spec set it."""
    entry = PROBLEMS[args.problem]
    try:
        problem = entry.build(**{dest: getattr(args, dest) for dest in entry.flags})
        cfg = _make_config(args, problem, seed)
    except ContractViolationError as exc:
        if exc.field is None:
            raise
        flag = "--run" if exc.field in spec else FIELD_FLAGS.get(
            exc.field, "--" + exc.field.replace("_", "-"))
        parser.error(f"argument {flag}: {exc}")
    fields = _config_fields(args, cfg)
    bits = (fields["problem"], fields["method"], fields["precond"], f"mu{fields['mu']:g}",
            f"seed{fields['seed']}")
    return Run(args, problem, cfg, fields, args.name or "-".join(b for b in bits if b != "-"))


def _write_run(r, result, out_dir):
    """Write a finished run's trace and --save-precond state; its summary entry."""
    _write_trace(os.path.join(out_dir, r.name + ".csv"), r.fields, result.rows)
    if r.args.save_precond and r.cfg.method == "psgd":
        save_state(result.state, r.args.save_precond)
    return tuple(value(r, result) for _, value, _ in SUMMARY_COLUMNS)


def _add_run_flags(p):
    def problem_flag(flag, help, **kwargs):
        # given means present in the namespace; _resolve_problem fills in the rest
        dest = flag[2:].replace("-", "_")
        readers = ", ".join(name for name, e in PROBLEMS.items() if dest in e.flags)
        p.add_argument(flag, default=argparse.SUPPRESS, help=f"{help} ({readers})", **kwargs)

    integer, number = _flag_type(int, "an integer"), _flag_type(float, "a number")
    p.add_argument("--problem", required=True, choices=list(PROBLEMS))
    problem_flag("--dim", "quadratic dimension", type=integer)
    # an empty diagonal stands for the alternating default, as the header records it
    problem_flag("--quad-diag", "explicit quadratic Hessian diagonal, by default "
                                "alternating +1,-2,...,+-dim", metavar="D1,D2,...",
                 type=_flag_type(lambda t: t if _numbers(t) else "alternating",
                                 "comma-separated numbers"))
    problem_flag("--noise", "quadratic gradient noise scale", type=number)
    problem_flag("--hidden", "hidden units", type=integer)
    problem_flag("--seq-len", "sequence length", type=integer)
    problem_flag("--batch-size", "mini-batch size", type=integer)
    p.add_argument("--method", default="psgd", choices=list(METHODS))
    p.add_argument("--precond", default="dense", choices=list(FAMILIES))
    p.add_argument("--splu-order", type=integer, default=10,
                   help="sparse-LU order r (clamped to the problem dimension)")
    p.add_argument("--per-block", action="store_true",
                   help="one dense/diag/splu block per tensor instead of whole-theta")
    p.add_argument("--mu", default=None, type=number, help="step size (default per problem)")
    p.add_argument("--precond-mu", default=None, type=number,
                   help="preconditioner step size (default per problem)")
    p.add_argument("--probe", default=None, choices=["approx", "exact"],
                   help="Hessian-vector probe mode (default per problem)")
    p.add_argument("--clip", default=None,
                   type=_flag_type(lambda t: t if t in ("none", "auto") else float(t),
                                   "none, auto or a number"),
                   help="preconditioned gradient clip threshold: none, auto "
                        "(10*sqrt(dim)) or a number (default per problem)")
    p.add_argument("--skip", default="never", choices=["never", "log10"],
                   help="preconditioner update-skipping schedule")
    p.add_argument("--damping", default="none",
                   type=_flag_type(_parse_damping, "none, trad:LAMBDA or noncvx:LAMBDA"),
                   help="probe damping: none, trad:LAMBDA or noncvx:LAMBDA")
    p.add_argument("--iters", type=integer, default=500)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--out", default=None, help="output directory (env PSGDKIT_OUT)")
    p.add_argument("--timing", action="store_true",
                   help="record real wall_ns (breaks byte-identical traces)")
    p.add_argument("--save-precond", default=None, metavar="PATH",
                   help="write the final preconditioner state to PATH")


def _config_flags(path, parser):
    """The flags a key=value config file names, as command-line arguments of parser.

    A key is a flag name written with '_' or '-'. A switch is given when its
    value is 1, true or yes; any other flag gets the value as written.
    """
    flags = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            action = parser._option_string_actions.get(flag)
            if action is None or action.dest in ("config", "help"):
                raise ValueError(f"unknown config key {key!r}")
            if action.nargs != 0:
                flags.append(f"{flag}={value}")
            elif value.lower() in ("1", "true", "yes"):
                flags.append(flag)
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None, metavar="FILE",
                        help="key=value lines, each read as the flag its key names")
    parser = argparse.ArgumentParser(
        prog="psgdkit",
        description="Preconditioned SGD benchmark runner (deterministic, CSV traces).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[config], help="execute one training run")
    _add_run_flags(p_run)
    p_run.add_argument("--name", default=None, help="override the run name",
                       type=_flag_type(_run_name, "a file name other than ., .. or summary "
                                                  "holding no /, comma, line break or NUL"))
    p_run.set_defaults(specs=None, reps=1)

    p_sweep = sub.add_parser("sweep", parents=[config],
                             help="execute several runs with seed offsets")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--run", action="append", default=None, metavar="SPEC",
                         dest="specs", type=_flag_type(_run_spec, "method[:variant[:mu]]"),
                         help="method[:variant[:mu]] (repeatable); defaults to the "
                              "flag-level method/variant/mu")
    p_sweep.add_argument("--reps", type=_flag_type(int, "an integer"), default=1,
                         help="repetitions per spec with seed offsets")
    p_sweep.set_defaults(name=None)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])

    if argv and argv[0] in ("run", "sweep"):
        path = config.parse_known_args(argv[1:])[0].config
        if path:
            try:
                argv[1:1] = _config_flags(path, sub.choices[argv[0]])
            except (OSError, ValueError) as exc:
                parser.exit(2, f"psgdkit: config error: {exc}\n")

    args = parser.parse_args(argv)
    return _dispatch(sub.choices[args.command], args)


def _dispatch(parser, args) -> int:
    """Execute the parsed subcommand; parser is its own, for its usage errors."""
    if args.command == "verify":
        results = run_suite(args.suite)
        failed = sum(not r.ok for r in results)
        for r in results:
            print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: measured {r.measured:.6g} "
                  f"vs tolerance {r.tolerance:.6g}")
        print(f"{len(results) - failed}/{len(results)} checks passed")
        return 1 if failed else 0

    # run is one spec (the flags' own) and one rep; sweep may give several of each
    if args.reps < 1:  # no library argument holds the repetition count
        parser.error(f"argument --reps: must be at least 1, got {args.reps}")
    _resolve_problem(parser, args)
    out_dir = args.out or os.environ.get("PSGDKIT_OUT") or "runs"
    try:
        # every run is built, and so checked, and then finished before the first
        # write, so a run that fails leaves no file behind
        runs = [_build_run(parser, argparse.Namespace(**{**vars(args), **spec}), spec,
                           args.seed + rep)
                for spec in args.specs or [{}] for rep in range(args.reps)]
        names = [r.name for r in runs]
        clash = next((name for name in names if names.count(name) > 1), None)
        if clash is not None:  # mu is named by :g, so distinct specs may share a name
            parser.exit(2, f"psgdkit: two runs would write "
                           f"{os.path.join(out_dir, clash + '.csv')}\n")
        results = [run(r.problem, r.cfg, timing=r.args.timing) for r in runs]
        # made only now, so a run rejected before its first write leaves no directory
        os.makedirs(out_dir, exist_ok=True)
        entries = [_write_run(r, res, out_dir) for r, res in zip(runs, results)]
        _write_summary(os.path.join(out_dir, "summary.csv"), entries)
    except (PsgdkitError, ValueError, OSError) as exc:  # an OSError names its path
        parser.exit(2, f"psgdkit: {exc}\n")

    for entry in entries:
        print(f"{entry[0]}: " + " ".join(f"{column}={value}" for (column, _, shown), value
                                         in zip(SUMMARY_COLUMNS, entry) if shown))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
