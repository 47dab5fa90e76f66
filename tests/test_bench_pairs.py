"""The run-order, protocol, verdict, gain, record-comparison, cold-CLI and bit-check rules of
tools/bench_pairs.py, on hand-built entries."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

HIGHER = {"name": "calibrated_iters_per_s", "better": "higher", "bound": 0.22}
LOWER = {"name": "setup_s", "better": "lower", "bound": 0.25}
# ten parent runs: median 100, quartiles 98.75 and 101.25 (q3 - q1 = 2.5)
PARENT = [98.0, 99.0, 100.0, 101.0, 102.0, 98.0, 99.0, 100.0, 101.0, 102.0]


def judged(spec, parent, change):
    """An end-to-end entry as bench_pairs.main builds it, with its verdict and gain."""
    entry = {"parent": bench_pairs.summary(parent), "change": bench_pairs.summary(change)}
    entry["change_over_parent"] = bench_pairs.summary([c / p for p, c in zip(parent, change)])
    entry["change_better"], entry["verdict"] = bench_pairs.verdict(spec, entry)
    entry["gain"] = bench_pairs.gain(spec, entry)
    return entry


def test_run_order_alternates_from_the_parent():
    assert bench_pairs.run_order(0) == ("parent", "change")
    assert bench_pairs.run_order(1) == ("change", "parent")
    # two pairs: parent, change, change, parent, as the tier-1 runs go
    assert [s for i in range(2) for s in bench_pairs.run_order(i)] == [
        "parent", "change", "change", "parent"]
    runs = bench_pairs.alternating(3, lambda side, i: (side, i))
    assert runs == {"parent": [("parent", 0), ("parent", 1), ("parent", 2)],
                    "change": [("change", 0), ("change", 1), ("change", 2)]}


def test_protocol_states_each_block():
    # the record's blocks (bits, workloads, families, cold_cli), each workload's layers,
    # each side's tier1 and code size, and the rules that judge them; main adds the run's
    # pair count, seconds and seeds
    assert {"revisions", "code_size", "order", "bits", "command", "workloads", "layers",
            "layer_claim", "verdict", "gain", "families", "cold_cli", "tier1"} == set(
        bench_pairs.PROTOCOL)
    assert all(isinstance(v, str) and v for v in bench_pairs.PROTOCOL.values())
    assert f"each of the {len(bench_pairs.BIT_CLI)} BIT_CLI" in bench_pairs.PROTOCOL["bits"]


def test_parent_quartiles():
    parent = bench_pairs.summary(PARENT)
    assert (parent["median"], parent["q1"], parent["q3"]) == (100.0, 98.75, 101.25)


def test_gain_in_every_pair():
    entry = judged(HIGHER, PARENT, [1.1 * p for p in PARENT])
    assert (entry["change_better"], entry["verdict"], entry["gain"]) == (10, "within_bound", True)


def test_gain_needs_nine_pairs():
    change = [1.1 * p for p in PARENT[:8]] + [0.9 * p for p in PARENT[8:]]
    entry = judged(HIGHER, PARENT, change)
    assert entry["change_better"] == 8
    assert entry["change"]["median"] - entry["parent"]["median"] > 2.5
    assert entry["gain"] is False
    change[8] = 1.1 * PARENT[8]
    assert judged(HIGHER, PARENT, change)["gain"] is True


def test_gain_needs_medians_beyond_the_parent_spread():
    # better in every pair, but the medians differ by 2.0 against q3 - q1 = 2.5
    entry = judged(HIGHER, PARENT, [p + 2.0 for p in PARENT])
    assert entry["change_better"] == 10
    assert entry["gain"] is False
    assert judged(HIGHER, PARENT, [p + 3.0 for p in PARENT])["gain"] is True


def test_gain_for_a_lower_is_better_metric():
    assert judged(LOWER, PARENT, [0.9 * p for p in PARENT])["gain"] is True
    entry = judged(LOWER, PARENT, [1.1 * p for p in PARENT])
    assert (entry["change_better"], entry["gain"]) == (0, False)


def test_ties_count_for_neither_side():
    entry = judged(HIGHER, PARENT, list(PARENT))
    assert (entry["change_better"], entry["verdict"], entry["gain"]) == (0, "within_bound", False)


@pytest.mark.parametrize("spec, factor", [(HIGHER, 0.7), (LOWER, 1.3)], ids=["higher", "lower"])
def test_worse_beyond_the_bound(spec, factor):
    entry = judged(spec, PARENT, [factor * p for p in PARENT])
    assert (entry["change_better"], entry["verdict"], entry["gain"]) == (0, "worse", False)


def test_within_the_bound_when_worse_by_less():
    entry = judged(HIGHER, PARENT, [0.8 * p for p in PARENT])
    assert (entry["verdict"], entry["gain"]) == ("within_bound", False)


def test_unresolved_when_the_parent_spreads_beyond_the_bound():
    # (q3 - q1) / median = 0.5 > 0.22, and the change runs overlap the parent's
    parent = [60.0, 70.0, 100.0, 130.0, 140.0] * 2
    entry = judged(HIGHER, parent, [p + 1.0 for p in parent])
    assert (entry["change_better"], entry["verdict"]) == (10, "unresolved")
    # every change run above every parent run resolves it
    entry = judged(HIGHER, parent, [200.0] * 10)
    assert entry["verdict"] == "within_bound"


def test_family_record_of_this_checkout():
    # one short run of the family script with this checkout on both sides, loaded
    # twice in one process: every size reports a positive time of each kind for each side
    checkout = os.path.dirname(os.path.dirname(_PATH))
    both = bench_pairs.families({"change": checkout, "parent": checkout}, repeats=1, calls=2)
    assert list(both) == ["change", "parent"]
    times = {"update_us", "fallback_us", "apply_us", "apply_inv_us", "load_us"}
    for record in both.values():
        assert list(record) == [f"{v} {'x'.join(map(str, shape))}"
                                for v, shape in bench_pairs.FAMILY_SIZES]
        assert all(set(r) == times | {"update_minflt"} for r in record.values())
        assert all(min(r[kind] for kind in times) > 0.0 and r["update_minflt"] >= 0.0
                   for r in record.values())


def test_family_record_summarizes_each_side():
    runs = {"parent": [{"dense 16": {"update_us": u, "apply_us": 2.0}} for u in (10.0, 12.0, 11.0)],
            "change": [{"dense 16": {"update_us": u, "apply_us": 2.0}} for u in (9.0, 8.0, 8.8)]}
    record = bench_pairs.compared_records(runs)["dense 16"]
    assert record["update_us"]["parent"]["median"] == 11.0
    assert record["update_us"]["change"]["median"] == 8.8
    # per pair: 9/10, 8/12 and 8.8/11, whose median is 0.8
    assert record["update_us"]["change_over_parent"]["median"] == pytest.approx(0.8)
    assert record["apply_us"]["change_over_parent"] == bench_pairs.summary([1.0, 1.0, 1.0])
    assert set(record) == {"update_us", "apply_us"}


def test_family_record_takes_the_ratio_of_each_pair():
    # run i of the change over run i of the parent, then summarized: a slow process
    # on either side moves one pair's ratio, not a whole side's median
    runs = {"parent": [{"dense 16": {"update_us": u}} for u in (10.0, 26.0, 16.0)],
            "change": [{"dense 16": {"update_us": u}} for u in (20.0, 13.0, 16.0)]}
    ratio = bench_pairs.compared_records(runs)["dense 16"]["update_us"]["change_over_parent"]
    assert ratio == bench_pairs.summary([2.0, 0.5, 1.0])
    assert (ratio["q1"], ratio["median"], ratio["q3"]) == (0.5, 1.0, 2.0)


def test_family_record_of_a_count_the_parent_reads_zero():
    # update_minflt counts faults: a parent median of 0 gives no ratio
    def record(parent, change):
        runs = {"parent": [{"dense 128": {"update_minflt": f}} for f in parent],
                "change": [{"dense 128": {"update_minflt": f}} for f in change]}
        return bench_pairs.compared_records(runs)["dense 128"]["update_minflt"]

    assert record((0.0, 0.0, 0.5), (0.0, 0.0, 0.0))["change_over_parent"] is None
    assert record((40.0, 45.0, 42.0), (14.0, 14.0, 0.0))["change_over_parent"]["median"] == 14 / 45


def test_cold_cli_of_this_checkout(tmp_path):
    # one fresh CLI run in this checkout: its trace goes under the given directory,
    # and it reports a positive wall time and a peak RSS that holds at least numpy
    run = bench_pairs.cold_cli(os.path.dirname(os.path.dirname(_PATH)), str(tmp_path))
    assert set(run) == {"wall_s", "peak_rss_mb"}
    assert run["wall_s"] > 0.0 and run["peak_rss_mb"] > 10.0
    assert os.listdir(tmp_path)


def test_cold_record_summarizes_each_side():
    runs = {"parent": [{"wall_s": w, "peak_rss_mb": 58.0} for w in (0.6, 0.7, 0.65)],
            "change": [{"wall_s": w, "peak_rss_mb": 40.6} for w in (0.3, 0.35, 0.325)]}
    record = bench_pairs.compared_records(runs)
    assert record["wall_s"]["parent"]["median"] == 0.65
    assert record["wall_s"]["change_over_parent"]["median"] == pytest.approx(0.5)
    assert record["peak_rss_mb"]["change_over_parent"]["median"] == pytest.approx(0.7)


def bit_result(**changes):
    result = {"exit": 0, "stdout": b"run: final_loss=0.5\n", "stderr": b"",
              "files": {"runs/summary.csv": b"name\nrun\n", "runs/run.csv": b"iter\n1\n"}}
    return {**result, **changes}


def test_bit_compare_of_identical_runs():
    assert bench_pairs.bit_compare(bit_result(), bit_result()) == {
        "exit": True, "stdout": True, "stderr": True, "files": True, "identical": True}


@pytest.mark.parametrize("output, value", [
    ("exit", 2), ("stdout", b"run: final_loss=0.25\n"), ("stderr", b"warning\n"),
    ("files", {"runs/summary.csv": b"name\nrun\n", "runs/run.csv": b"iter\n2\n"}),
    ("files", {"runs/summary.csv": b"name\nrun\n"}),
    ("files", {"runs/summary.csv": b"name\nrun\n", "runs/run.csv": b"iter\n1\n",
               "state.pcs": b""}),
], ids=["exit", "stdout", "stderr", "file-bytes", "file-missing", "file-added"])
def test_bit_compare_names_the_output_that_differs(output, value):
    entry = bench_pairs.bit_compare(bit_result(), bit_result(**{output: value}))
    assert entry == {**dict.fromkeys(bench_pairs.BIT_OUTPUTS, True), output: False,
                     "identical": False}


def test_bit_cli_list():
    # at least 12 invocations, none timed, each with relative paths the same on both sides
    assert len(bench_pairs.BIT_CLI) >= 12
    for argv in bench_pairs.BIT_CLI:
        assert "--timing" not in argv
        for flag in ("--out", "--save-precond", "--config"):
            if flag in argv:
                assert not os.path.isabs(argv[argv.index(flag) + 1])


# a stand-in for `python -m psgdkit`: it echoes its argv and the config file it is given,
# writes runs/argv.txt and a state file, and exits 3
STUB_MAIN = """
import os, sys
os.makedirs("runs", exist_ok=True)
with open(os.path.join("runs", "argv.txt"), "w") as fh:
    fh.write(" ".join(sys.argv[1:]) + MARK)
with open("state.pcs", "w") as fh:
    fh.write(open(sys.argv[-1]).read() if "--config" in sys.argv else "")
print("ran", sys.argv[1])
sys.exit(3)
"""


def stub_tree(root, mark):
    pkg = root / "src" / "psgdkit"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "__main__.py").write_text(f"MARK = {mark!r}\n" + STUB_MAIN)
    return str(root)


def test_bits_of_stub_trees(tmp_path, monkeypatch):
    # each side runs every invocation from a fresh directory of its own, with the config
    # file written there; only written files are compared, and one differing byte in one
    # file makes that invocation, and the block, not identical
    monkeypatch.setattr(bench_pairs, "BIT_CLI", [["run", "--config", "exp.cfg"], ["sweep"]])
    same = {side: stub_tree(tmp_path / side, "") for side in ("parent", "change")}
    record = bench_pairs.bits(same, str(tmp_path / "same"))
    assert record["identical"] is True
    assert [e["parent_exit"] for e in record["invocations"]] == [3, 3]
    assert sorted(os.listdir(tmp_path / "same" / "bits-change" / "0")) == [
        "exp.cfg", "runs", "state.pcs"]
    assert (tmp_path / "same" / "bits-parent" / "0" / "state.pcs").read_text() == \
        bench_pairs.BIT_CONFIG
    trees = {"parent": same["parent"], "change": stub_tree(tmp_path / "other", "!")}
    record = bench_pairs.bits(trees, str(tmp_path / "differ"))
    assert record["identical"] is False
    assert [(e["files"], e["stdout"], e["identical"]) for e in record["invocations"]] == [
        (False, True, False), (False, True, False)]
