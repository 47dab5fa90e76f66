import dataclasses
import io
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psgdkit.checkpoint import load_state, save_state, state_to_bytes
from psgdkit.cli import SUMMARY_COLUMNS, _write_trace, main
from psgdkit.optimizer import TraceRow
from psgdkit.preconditioners import DensePrecond
from psgdkit.verify import SUITES, suite_groups

CSV_HEADER = "iter,train_loss,grad_norm,precond_grad_norm,clipped,wall_ns"
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def read(path):
    with open(path) as fh:
        return fh.read()


def run_cli(args):
    return main(list(args))


class TestRun:
    def test_rosenbrock_acceptance_command(self, tmp_path):
        out = tmp_path / "runs"
        code = run_cli(["run", "--problem", "rosenbrock", "--method", "psgd",
                        "--precond", "dense", "--iters", "500", "--seed", "0",
                        "--out", str(out)])
        assert code == 0
        trace = read(out / "rosenbrock-psgd-dense-mu0.5-seed0.csv").splitlines()
        assert trace[0].startswith("# psgdkit ")
        assert trace[1] == CSV_HEADER
        assert len(trace) == 502  # header comment + column header + 500 rows
        final_loss = float(trace[-1].split(",")[1])
        assert final_loss < 1e-8

    def test_unstable_sgd_marks_diverged_but_exits_zero(self, tmp_path):
        out = tmp_path / "runs"
        code = run_cli(["run", "--problem", "quad", "--quad-diag", "1,100",
                        "--method", "sgd", "--mu", "10", "--iters", "300",
                        "--out", str(out)])
        assert code == 0
        summary = read(out / "summary.csv").splitlines()
        row = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert row["diverged"] == "1"

    def test_byte_identical_reruns(self, tmp_path):
        args = ["run", "--problem", "quad", "--noise", "0.1", "--method", "psgd",
                "--precond", "kron", "--iters", "40", "--seed", "3"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(out_a)]) == 0
        assert run_cli(args + ["--out", str(out_b)]) == 0
        name = "quad-psgd-kron-mu0.5-seed3.csv"
        assert read(out_a / name) == read(out_b / name)
        assert read(out_a / "summary.csv") == read(out_b / "summary.csv")

    def test_golden_header_and_short_trace(self, tmp_path):
        # pins the schema and a short deterministic sgd trace on the
        # noiseless quadratic (exact values from the recurrence
        # theta <- theta - 0.1 H theta)
        out = tmp_path / "runs"
        run_cli(["run", "--problem", "quad", "--quad-diag", "2,8", "--method", "sgd",
                 "--mu", "0.1", "--iters", "3", "--seed", "0", "--name", "golden",
                 "--out", str(out)])
        lines = read(out / "golden.csv").splitlines()
        assert lines[1] == CSV_HEADER
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(2)
        h = np.diag([2.0, 8.0])
        for row in rows:
            g = h @ theta
            assert float(row[1]) == pytest.approx(0.5 * theta @ g, rel=1e-12)
            assert float(row[2]) == pytest.approx(np.linalg.norm(g), rel=1e-12)
            assert row[4] == "0" and row[5] == "0"
            theta = theta - 0.1 * g

    def test_save_precond_round_trips(self, tmp_path):
        out = tmp_path / "runs"
        state_path = tmp_path / "state.pcs"
        run_cli(["run", "--problem", "quad", "--method", "psgd", "--precond", "dense",
                 "--iters", "50", "--out", str(out), "--save-precond", str(state_path)])
        p = load_state(state_path)
        assert isinstance(p, DensePrecond)
        assert p.dim == 10
        assert not np.array_equal(p.q, np.eye(10))  # it actually learned

    def test_out_naming_a_file_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "runs"
        out.write_text("kept\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--problem", "rosenbrock", "--iters", "3", "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"psgdkit: [Errno 17] File exists: '{out}'\n"
        assert out.read_text() == "kept\n"

    def test_save_precond_into_a_missing_directory_is_an_error(self, tmp_path, capsys):
        # the trace, written before the state, remains; the summary is not written
        out, state_path = tmp_path / "runs", tmp_path / "missing" / "state.pcs"
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--problem", "rosenbrock", "--iters", "3", "--name", "r", "--out",
                     str(out), "--save-precond", str(state_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"psgdkit: [Errno 2] No such file or directory: '{state_path}'\n")
        assert sorted(os.listdir(out)) == ["r.csv"]
        assert not state_path.parent.exists()

    def test_failed_save_leaves_the_saved_state(self, tmp_path, monkeypatch):
        # a save writes a temporary file and renames it: when that fails, the
        # state saved before is whole and no temporary file remains
        path = tmp_path / "state.pcs"
        save_state(DensePrecond(3), path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError(28, "No space left on device", str(dst))

        monkeypatch.setattr(os, "replace", fail)
        trained = DensePrecond(3).set_factors(q=np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(OSError, match="No space left"):
            save_state(trained, path)
        assert path.read_bytes() == before == state_to_bytes(DensePrecond(3))
        assert os.listdir(tmp_path) == ["state.pcs"]

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PSGDKIT_OUT", str(tmp_path / "envruns"))
        monkeypatch.chdir(tmp_path)
        run_cli(["run", "--problem", "rosenbrock", "--iters", "5"])
        assert (tmp_path / "envruns" / "summary.csv").exists()

    def test_config_file_defaults_and_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem=rosenbrock\niters=7\nseed=5\nmethod=sgd\nmu=0.001\n")
        out = tmp_path / "runs"
        run_cli(["run", "--config", str(cfg), "--problem", "rosenbrock",
                 "--iters", "9", "--out", str(out)])
        # --iters overrides the file; seed/method/mu come from the file
        trace = read(out / "rosenbrock-sgd-mu0.001-seed5.csv").splitlines()
        assert len(trace) == 2 + 9

    def test_config_file_values_pass_the_flags_checks(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("probe=approximate\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--config", str(cfg), "--problem", "quad",
                     "--out", str(tmp_path / "runs")])
        assert exc.value.code == 2
        assert "'approximate'" in capsys.readouterr().err

    def test_config_file_switch_and_dashed_key(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("quad-diag=1,-3\nper_block=yes\nsplu_order=1\n")
        out = tmp_path / "runs"
        assert run_cli(["run", "--config", str(cfg), "--problem", "quad", "--precond",
                        "splu", "--iters", "3", "--name", "c", "--out", str(out)]) == 0
        header = read(out / "c.csv").splitlines()[0]
        for token in ("quad_diag=1,-3", "per_block=1", "splu_order=1"):
            assert token in header

    @pytest.mark.parametrize("argv", [
        ["--name", name] for name in (".", "..", "../escaped", "a/b", "a,b", "a\nb", "a\rb",
                                      "a\0b", "summary")] + [
        ["--config", f"name={name}"] for name in (".", "..", "../escaped", "a,b", "a\0b")],
        ids=["dot", "dotdot", "parent", "slash", "comma", "newline", "return", "nul", "summary",
             "config-dot", "config-dotdot", "config-parent", "config-comma", "config-nul"])
    def test_unsafe_name_is_usage_error(self, argv, tmp_path, capsys):
        # the name is the trace's file name and the summary row's first field: one that
        # leaves the output directory, would be overwritten by summary.csv or splits the
        # row exits 2 before any output
        if argv[0] == "--config":
            (tmp_path / "exp.cfg").write_text(argv[1] + "\n")
            argv = ["--config", str(tmp_path / "exp.cfg")]
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--problem", "rosenbrock", "--iters", "2", "--out", str(out), *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert ("argument --name: expected a file name other than ., .. or summary holding "
                "no /, comma, line break or NUL, got ") in err
        assert sorted(os.listdir(tmp_path)) == (["exp.cfg"] if "--config" in argv else [])

    def test_empty_name_is_the_configured_name(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run_cli(["run", "--problem", "rosenbrock", "--iters", "2", "--name", "",
                        "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["rosenbrock-psgd-dense-mu0.5-seed0.csv",
                                           "summary.csv"]
        assert capsys.readouterr().out.startswith("rosenbrock-psgd-dense-mu0.5-seed0: ")

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("nonsense=1\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--config", str(cfg), "--problem", "rosenbrock"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("problem", ["quad", "rosenbrock", "xor-mlp", "addition-rnn"])
    def test_batch_size_below_one_is_usage_error(self, problem, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--problem", problem, "--batch-size", "0"])
        assert exc.value.code == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_empty_quadratic_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--problem", "quad", "--dim", "0", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "Hessian must not be empty" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, fault", [
        (["--seed", "-1"], "argument --seed: seed must be nonnegative, got -1"),
        (["--precond", "splu", "--splu-order", "0"],
         "argument --splu-order: splu_order must be at least 1, got 0"),
        (["--dim", "3", "--quad-diag", "1,2"], "--dim 3 differs from the 2 values of --quad-diag"),
        (["--noise", "-1"], "noise scale must be nonnegative"),
    ], ids=["negative-seed", "zero-splu-order", "dim-against-diag", "negative-noise"])
    def test_rejected_run_names_its_fault_and_writes_nothing(self, argv, fault, tmp_path,
                                                             capsys):
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--problem", "quad", *argv, "--iters", "3", "--out", str(out)])
        assert exc.value.code == 2
        assert fault in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, fault", [
        (["run", "--problem", "quad", "--dim", "-2"], "argument --dim: must be at least 1"),
        (["run", "--problem", "quad", "--noise", "-1"],
         "argument --noise: noise scale must be nonnegative and finite, got -1.0"),
        (["run", "--problem", "quad", "--noise", "inf"],
         "argument --noise: noise scale must be nonnegative and finite, got inf"),
        (["run", "--problem", "quad", "--iters", "0"],
         "argument --iters: iters must be at least 1, got 0"),
        (["run", "--problem", "xor-mlp", "--hidden", "0"],
         "argument --hidden: hidden size must be at least 2, got 0"),
        (["run", "--problem", "addition-rnn", "--hidden", "0"],
         "argument --hidden: hidden size must be at least 1, got 0"),
        (["run", "--problem", "addition-rnn", "--seq-len", "0"],
         "argument --seq-len: sequence length must be at least 4, got 0"),
        (["run", "--problem", "quad", "--mu", "nan"],
         "argument --mu: step size must be finite and positive, got nan"),
        (["run", "--problem", "quad", "--precond-mu", "2"],
         "argument --precond-mu: preconditioner step size must lie in (0, 1), got 2.0"),
        (["sweep", "--problem", "quad", "--run", "psgd:dense:nan"],
         "argument --run: step size must be finite and positive, got nan"),
        (["run", "--problem", "quad", "--clip", "0"],
         "argument --clip: clip threshold must be positive, got 0.0"),
        (["run", "--problem", "quad", "--damping", "trad:-1"],
         "argument --damping: damping strength must be finite and nonnegative, got -1.0"),
        (["run", "--problem", "quad", "--quad-diag", "nan,1"],
         "argument --quad-diag: Hessian must be finite"),
    ], ids=["negative-dim", "negative-noise", "infinite-noise", "zero-iters", "xor-zero-hidden",
            "rnn-zero-hidden", "zero-seq-len", "nan-mu", "precond-mu-above-one", "nan-run-mu",
            "zero-clip", "negative-damping", "nan-diag"])
    def test_out_of_range_value_names_its_flag(self, argv, fault, tmp_path, capsys):
        # rejected as a usage error before any output, not by the run's own checks
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert fault in captured.err and captured.out == ""
        assert not out.exists()

    def test_empty_diagonal_is_the_alternating_default(self, tmp_path):
        out = tmp_path / "runs"
        assert run_cli(["run", "--problem", "quad", "--quad-diag", "", "--iters", "2", "--name",
                        "h", "--out", str(out)]) == 0
        assert read(out / "h.csv").splitlines()[0].endswith(
            " dim=10 quad_diag=alternating noise=0.0")

    @pytest.mark.parametrize("dim", [[], ["--dim", "3"]], ids=["dim-omitted", "dim-agrees"])
    def test_explicit_diagonal_sets_the_header_dim(self, dim, tmp_path):
        out = tmp_path / "runs"
        assert run_cli(["run", "--problem", "quad", *dim, "--quad-diag", "1,2,3", "--iters",
                        "2", "--name", "h", "--out", str(out)]) == 0
        assert read(out / "h.csv").splitlines()[0].endswith(" dim=3 quad_diag=1,2,3 noise=0.0")

    @pytest.mark.parametrize("flag, value, fault", [
        ("--quad-diag", "nan,1", "Hessian must be finite"),
        ("--quad-diag", "1e400,1", "Hessian must be finite"),
        ("--damping", "trad:nan", "damping strength must be finite"),
        ("--damping", "trad:inf", "damping strength must be finite"),
    ], ids=["nan-diag", "overflowing-diag", "nan-damping", "inf-damping"])
    def test_non_finite_value_is_usage_error(self, flag, value, fault, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--problem", "quad", "--dim", "2", flag, value, "--iters", "3",
                     "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert fault in capsys.readouterr().err

    @pytest.mark.parametrize("problem, fields", [
        ("quad", "mu=0.5 precond_mu=0.01 clip=none probe=exact probe_std=1"),
        ("rosenbrock", "mu=0.5 precond_mu=0.1 clip=1 probe=exact probe_std=1"),
        ("xor-mlp", "mu=0.5 precond_mu=0.05 clip=41.2311 probe=exact probe_std=1"),
        ("addition-rnn", "mu=0.1 precond_mu=0.01 clip=57.4456 probe=approximate "
                         "probe_std=0.000345267"),
    ], ids=["quad", "rosenbrock", "xor-mlp", "addition-rnn"])
    def test_default_header_line(self, problem, fields, tmp_path):
        out = tmp_path / "runs"
        assert run_cli(["run", "--problem", problem, "--iters", "2", "--name", "h",
                        "--out", str(out)]) == 0
        own = {"quad": " dim=10 quad_diag=alternating noise=0.0", "rosenbrock": "",
               "xor-mlp": " hidden=4", "addition-rnn": " hidden=4 seq_len=8"}[problem]
        assert read(out / "h.csv").splitlines()[0] == (
            f"# psgdkit problem={problem} method=psgd precond=dense {fields} damping=none "
            "damping_lambda=0 skip=never splu_order=10 per_block=0 iters=2 batch_size=1 "
            f"seed=0 rmsprop_beta=0.9 rmsprop_eps=1e-08 smoothing=0.99{own}")

    @pytest.mark.parametrize("problem, argv, config, flag", [
        ("quad", ["--hidden", "0", "--seq-len", "2"], "", "--hidden"),
        ("quad", ["--seq-len", "2"], "", "--seq-len"),
        ("rosenbrock", ["--dim", "3"], "", "--dim"),
        ("rosenbrock", ["--batch-size", "2"], "", "--batch-size"),
        ("xor-mlp", ["--noise", "0.1"], "", "--noise"),
        ("addition-rnn", ["--quad-diag", "1,2"], "", "--quad-diag"),
        ("quad", [], "hidden=3\n", "--hidden"),
    ], ids=["quad-hidden", "quad-seq-len", "rosenbrock-dim", "rosenbrock-batch-size",
            "xor-mlp-noise", "addition-rnn-quad-diag", "quad-hidden-config"])
    def test_unread_problem_flag_is_usage_error(self, problem, argv, config, flag, tmp_path,
                                                capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config)
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--config", str(cfg), "--problem", problem, *argv,
                     "--iters", "3", "--out", str(out)])
        assert exc.value.code == 2
        assert f"psgdkit: {flag} is not read by --problem {problem}" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--problem", "hills"])
        assert exc.value.code == 2

    def test_damping_skip_per_block_and_timing_flags(self, tmp_path):
        out = tmp_path / "runs"
        code = run_cli(["run", "--problem", "quad", "--dim", "6", "--noise", "0.2",
                        "--method", "psgd", "--precond", "splu", "--splu-order", "2",
                        "--per-block", "--probe", "approx", "--damping", "noncvx:0.05",
                        "--skip", "log10", "--iters", "120", "--timing",
                        "--out", str(out)])
        assert code == 0
        lines = read(out / "quad-psgd-splu-mu0.5-seed0.csv").splitlines()
        header = lines[0]
        for token in ("damping=nonconvex", "damping_lambda=0.05", "skip=log10",
                      "splu_order=2", "per_block=1", "probe=approximate"):
            assert token in header
        # --timing records real durations
        assert any(int(line.split(",")[5]) > 0 for line in lines[2:])

    def test_traditional_damping_flag(self, tmp_path):
        out = tmp_path / "runs"
        assert run_cli(["run", "--problem", "quad", "--dim", "4", "--method", "psgd",
                        "--precond", "diag", "--damping", "trad:0.1", "--iters", "20",
                        "--out", str(out)]) == 0
        assert "damping=traditional" in read(out / "quad-psgd-diag-mu0.5-seed0.csv")

    def test_bad_damping_spec_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--problem", "quad", "--damping", "ridge=0.1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, config, flag", [
        (["run", "--quad-diag", "1,,2"], "", "--quad-diag"),
        (["run", "--damping", "trad:x"], "", "--damping"),
        (["run", "--clip", "abc"], "", "--clip"),
        (["sweep", "--run", "psgd:kron:abc"], "", "--run"),
        (["sweep", "--run", "psgd:dense:0.1:junk"], "", "--run"),
        (["sweep", "--run", "psgd:dense:0.1:"], "", "--run"),
        (["run"], "quad_diag=1,x\n", "--quad-diag"),
        (["sweep"], "run=sgd::fast\n", "--run"),
        (["run", "--hidden", "x"], "", "--hidden"),
        (["run", "--seq-len", "2.5"], "", "--seq-len"),
    ], ids=["quad-diag", "damping", "clip", "run", "run-fourth-part", "run-trailing-colon",
            "quad-diag-config", "run-config", "hidden", "seq-len"])
    def test_malformed_value_names_its_flag(self, argv, config, flag, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config)
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--config", str(cfg), "--problem", "quad", "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}: expected" in capsys.readouterr().err
        assert not out.exists()


def _rejected_by(parse):
    """Short texts that parse rejects with a ValueError: a flag's malformed values."""
    def rejected(text):
        try:
            parse(text)
        except ValueError:
            return True
        return False
    return st.text(alphabet="0123456789+-.eE_ ,:xn", max_size=6).filter(rejected)


NON_FINITE = st.sampled_from([math.inf, math.nan])
NEGATIVE = st.floats(max_value=-5e-324)  # below 0, so -0.0 is not drawn
EVERY_PROBLEM = ["quad", "rosenbrock", "xor-mlp", "addition-rnn"]
MALFORMED_NUMBER = _rejected_by(float)
MALFORMED_INTEGER = _rejected_by(int)
# flag, the problems that read it, its out-of-range values, its malformed texts
HOSTILE_VALUES = {
    "mu": ("--mu", EVERY_PROBLEM, st.floats(max_value=0.0) | NON_FINITE, MALFORMED_NUMBER),
    "precond-mu": ("--precond-mu", EVERY_PROBLEM,
                   st.floats(max_value=0.0) | st.floats(min_value=1.0) | NON_FINITE,
                   MALFORMED_NUMBER),
    "noise": ("--noise", ["quad"], NEGATIVE | NON_FINITE, MALFORMED_NUMBER),
    "clip": ("--clip", EVERY_PROBLEM, st.floats(max_value=0.0) | st.just(math.nan),
             _rejected_by(lambda t: t if t in ("none", "auto") else float(t))),
    "damping": ("--damping", EVERY_PROBLEM, (NEGATIVE | NON_FINITE).map(lambda v: f"trad:{v!r}"),
                MALFORMED_NUMBER.map("trad:".__add__)),
    "iters": ("--iters", EVERY_PROBLEM, st.integers(max_value=0), MALFORMED_INTEGER),
    "seed": ("--seed", EVERY_PROBLEM, st.integers(max_value=-1), MALFORMED_INTEGER),
    "splu-order": ("--splu-order", EVERY_PROBLEM, st.integers(max_value=0), MALFORMED_INTEGER),
    "batch-size": ("--batch-size", ["quad", "addition-rnn"], st.integers(max_value=0),
                   MALFORMED_INTEGER),
    "xor-hidden": ("--hidden", ["xor-mlp"], st.integers(max_value=1), MALFORMED_INTEGER),
    "rnn-hidden": ("--hidden", ["addition-rnn"], st.integers(max_value=0), MALFORMED_INTEGER),
    "seq-len": ("--seq-len", ["addition-rnn"], st.integers(max_value=3), MALFORMED_INTEGER),
}


class TestHostileFlags:
    """Each out-of-range or malformed value of a flag, given on the command line or
    in a config file, exits 2 naming the flag and writes nothing."""

    @pytest.mark.parametrize("case", list(HOSTILE_VALUES))
    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_hostile_value_names_its_flag(self, case, data):
        flag, problems, out_of_range, malformed = HOSTILE_VALUES[case]
        problem = data.draw(st.sampled_from(problems), label="problem")
        value = data.draw(out_of_range.map(repr) | malformed, label="value")
        in_config = data.draw(st.booleans(), label="in_config")
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "exp.cfg")
            with open(cfg, "w") as fh:
                fh.write(f"{flag[2:]}={value}\n" if in_config else "")
            out = os.path.join(tmp, "runs")
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr), \
                    pytest.raises(SystemExit) as exc:
                run_cli(["run", "--config", cfg, "--problem", problem,
                         *([] if in_config else [f"{flag}={value}"]), "--out", out])
            assert exc.value.code == 2
            assert f"argument {flag}: " in stderr.getvalue()
            assert stdout.getvalue() == ""
            assert not os.path.exists(out)


def test_readme_states_the_declared_columns():
    # the README's trace format section writes out both headers for readers
    with open(README) as fh:
        section = fh.read().split("### Trace format", 1)[1]
    fenced = re.search(r"```\n(.*)\n```", section).group(1)
    assert fenced.split(",") == [f.name for f in dataclasses.fields(TraceRow)]
    listed = re.search(r"`summary.csv` has columns\s+`([^`]*)`", section).group(1)
    assert "".join(listed.split()).split(",") == [column for column, _, _ in SUMMARY_COLUMNS]


def test_trace_values_are_written_by_their_declared_types(tmp_path):
    # a float field as repr(float(v)), an int or bool field as int(v), whatever the
    # value's own type
    row = TraceRow(np.int64(7), np.float64(0.1), 2, np.float32(0.5), np.True_, np.int64(3))
    _write_trace(str(tmp_path / "t.csv"), {"problem": "quad"}, [row])
    assert read(tmp_path / "t.csv") == f"# psgdkit problem=quad\n{CSV_HEADER}\n7,0.1,2.0,0.5,1,3\n"


class TestSweep:
    def test_specs_and_seed_offsets(self, tmp_path):
        out = tmp_path / "runs"
        code = run_cli(["sweep", "--problem", "xor-mlp", "--iters", "20",
                        "--run", "sgd::1.0", "--run", "psgd:kron:0.5",
                        "--reps", "2", "--seed", "10", "--out", str(out)])
        assert code == 0
        names = sorted(os.listdir(out))
        assert names == [
            "summary.csv",
            "xor-mlp-psgd-kron-mu0.5-seed10.csv",
            "xor-mlp-psgd-kron-mu0.5-seed11.csv",
            "xor-mlp-sgd-mu1-seed10.csv",
            "xor-mlp-sgd-mu1-seed11.csv",
        ]
        summary = read(out / "summary.csv").splitlines()
        assert len(summary) == 5

    def test_sweep_is_checked_before_it_writes(self, tmp_path, capsys):
        # the second spec's fault stops the sweep before the first spec runs
        out = tmp_path / "D"
        with pytest.raises(SystemExit) as exc:
            run_cli(["sweep", "--problem", "quad", "--run", "psgd:dense", "--run",
                     "psgd:dense:nan", "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --run: step size must be finite and positive" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_sweep_that_fails_in_a_run_writes_nothing(self, tmp_path, capsys):
        # the first spec runs to its end; the second fails inside run, and then
        # neither writes a trace nor the sweep a summary
        out = tmp_path / "pp"
        with pytest.raises(SystemExit) as exc:
            run_cli(["sweep", "--problem", "addition-rnn", "--probe", "exact", "--iters", "3",
                     "--run", "sgd", "--run", "psgd:dense", "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("specs, trace", [
        (["psgd:dense:0.1", "psgd:dense:0.1000001"], "rosenbrock-psgd-dense-mu0.1-seed0.csv"),
        (["sgd::0.5", "sgd::0.5"], "rosenbrock-sgd-mu0.5-seed0.csv"),
    ], ids=["mu-digits", "identical"])
    def test_runs_that_share_a_trace_name_are_refused(self, specs, trace, tmp_path, capsys):
        # a trace is named by mu's :g form, so a second run would overwrite the first
        out = tmp_path / "runs"
        argv = ["sweep", "--problem", "rosenbrock", "--iters", "2", "--out", str(out)]
        for spec in specs:
            argv += ["--run", spec]
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"psgdkit: two runs would write {os.path.join(str(out), trace)}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_reps_below_one_is_usage_error(self, reps, tmp_path, capsys):
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            run_cli(["sweep", "--problem", "rosenbrock", "--reps", reps, "--out", str(out)])
        assert exc.value.code == 2
        assert "--reps" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_run_line_and_reps(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("run=psgd:kron:0.5\nreps=2\n")
        out = tmp_path / "runs"
        assert run_cli(["sweep", "--config", str(cfg), "--problem", "xor-mlp",
                        "--iters", "5", "--out", str(out)]) == 0
        assert len(read(out / "summary.csv").splitlines()) == 1 + 2

    def test_config_file_run_lines_come_first(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem=xor-mlp\niters=5\nrun=psgd:kron:0.5\nreps=2\n")
        out = tmp_path / "runs"
        assert run_cli(["sweep", "--config", str(cfg), "--run", "sgd::1.0",
                        "--out", str(out)]) == 0
        names = [line.split(",")[0] for line in read(out / "summary.csv").splitlines()[1:]]
        assert names == ["xor-mlp-psgd-kron-mu0.5-seed0", "xor-mlp-psgd-kron-mu0.5-seed1",
                         "xor-mlp-sgd-mu1-seed0", "xor-mlp-sgd-mu1-seed1"]


# each suite's rows, as (name, tolerance), in order
SUITE_ROWS = {
    "gradcheck": [
        ("gradient/quadratic", 1e-6), ("gradient/rosenbrock", 1e-6),
        ("gradient/xor-mlp", 1e-6), ("gradient/addition-rnn", 1e-5),
        ("criterion-gradient/dense", 1e-5), ("criterion-gradient/diag", 1e-5),
        ("criterion-gradient/kron", 1e-5), ("criterion-gradient/scan", 1e-5),
        ("criterion-gradient/splu", 1e-5),
    ],
    "inverses": [
        ("inverses/splu-round-trip", 1e-10), ("inverses/splu-dense-agreement", 1e-12),
        ("inverses/kron-dense-agreement", 1e-10), ("inverses/scan-round-trip", 1e-10),
        ("inverses/dense-round-trip", 1e-10),
    ],
}


class TestVerify:
    @pytest.mark.parametrize("suite", ["inverses", "gradcheck"])
    def test_suites_pass(self, suite, capsys):
        assert run_cli(["verify", suite]) == 0
        printed = capsys.readouterr().out
        assert "FAIL" not in printed
        assert "checks passed" in printed

    @pytest.mark.parametrize("suite", SUITE_ROWS)
    def test_suite_rows(self, suite):
        results = SUITES[suite]()
        assert [(r.name, r.tolerance) for r in results] == SUITE_ROWS[suite]
        assert all(r.ok for r in results)

    def test_groups_suite_short(self):
        results = suite_groups(updates=200)
        assert [r.name for r in results] == [
            "groups/positivity-dense", "groups/positivity-diag", "groups/positivity-kron",
            "groups/positivity-scan", "groups/positivity-splu", "groups/positivity-direct-sum",
            "groups/dense-pattern-closure", "groups/kron-pattern-closure",
            "groups/scan-pattern-closure", "groups/splu-L-pattern-closure",
            "groups/splu-U-pattern-closure",
        ]
        assert all(r.ok for r in results)
        assert list(SUITES) == ["gradcheck", "fixedpoint", "groups", "inverses"]
