"""tools/bench_pairs.py against two stub checkouts whose perfbench/run.py
prints canned env and result lines and logs each call."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

# prints what perfbench/run.py prints: progress, an env line, one JSON result
FAKE_RUN = """\
import json, sys
from pathlib import Path

args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
here = Path.cwd()
canned = json.loads((here / "canned.json").read_text())
with open(canned["log"], "a") as fh:
    fh.write(f"{here.name} {args['--workload']} {args['--seed']} {args['--seconds']}\\n")
run = canned["runs"][args["--seed"]]
if run.get("crash"):
    sys.exit("crashed")
print("train_s          1.0 s")
print("env " + json.dumps({"git_sha": canned["sha"], **run["env"]}))
print(json.dumps({"correct": run["failed"] == 0, "attempted": 2, "failed": run["failed"],
                  "metrics": {k: {"value": v, "unit": "-"}
                              for k, v in run["metrics"].items()}}))
"""

# pair i runs seed 100 + i; run_s is printed but not in the stub BENCHMARK.json
CANNED = {
    "parent": {"train_s": [4.0, 5.0, 6.0, 7.0], "test_acc": [0.9, 0.9, 0.9, 0.9],
               "failed": [0, 0, 0, 0]},
    "change": {"train_s": [3.0, 5.0, 7.0, 6.5], "test_acc": [0.9, 0.95, 0.85, 0.9],
               "failed": [0, 1, 0, 0]},
}
VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1", "python": "3.12.3"}
SPEC = {"end_to_end": [{"name": "train_s", "better": "lower", "bound": 0.01},
                       {"name": "test_acc", "better": "higher", "bound": 0.05}]}


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def make_checkout(root: Path, side: str, log: Path, script: str = FAKE_RUN,
                  canned: dict = CANNED, named: bool = True) -> Path:
    co = root / side
    (co / "perfbench").mkdir(parents=True)
    (co / "perfbench" / "run.py").write_text(script)
    (co / "BENCHMARK.json").write_text(json.dumps(SPEC))
    c = canned[side]
    runs = {str(100 + i): {"failed": c["failed"][i], "crash": c.get("crash", [False] * 4)[i],
                           "metrics": {"train_s": c["train_s"][i],
                                       "test_acc": c["test_acc"][i], "run_s": 9.0,
                                       "spmm_products": c.get("spmm", [12] * 4)[i]},
                           "env": {"inputs_sha256": {"graph": f"g{100 + i}"}, "nproc": 2,
                                   "blas_threads": 2, **VERSIONS,
                                   **c.get("env", [{}] * 4)[i]}}
            for i in range(4)}
    (co / "canned.json").write_text(json.dumps(
        {"log": str(log), "sha": f"sha-{side}" if named else None, "runs": runs}))
    return co


def test_bench_pairs_alternates_and_summarises(tmp_path):
    log = tmp_path / "calls.log"
    parent = make_checkout(tmp_path, "parent", log)
    change = make_checkout(tmp_path, "change", log)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc = load_tool().main(["--parent", str(parent), "--change", str(change),
                           "--workload", "w1", "--pairs", "4", "--seconds", "3",
                           "--seed", "100", "--out", str(out_dir)])
    assert rc == 0
    # the parent goes first in even pairs, the change in odd ones
    assert log.read_text().splitlines() == [
        "parent w1 100 3.0", "change w1 100 3.0",
        "change w1 101 3.0", "parent w1 101 3.0",
        "parent w1 102 3.0", "change w1 102 3.0",
        "change w1 103 3.0", "parent w1 103 3.0"]

    res = json.loads((out_dir / "BENCH_w1.json").read_text())
    assert (res["workload"], res["pairs"], res["seconds"]) == ("w1", 4, 3.0)
    assert res["seeds"] == [100, 101, 102, 103]
    assert res["cores"] >= 1
    assert res["parent"]["checkout"] == "parent"
    assert res["parent"]["git_sha"] == "sha-parent"
    assert res["change"]["git_sha"] == "sha-change"
    assert res["parent"]["versions"] == res["change"]["versions"] == VERSIONS
    assert res["commits_named"] is True
    # only the metrics BENCHMARK.json declares are summarised
    assert set(res["parent"]["metrics"]) == {"train_s", "test_acc"}
    # exclusive quartiles: the (n + 1) * j / 4-th order statistic, interpolated
    assert res["parent"]["metrics"]["train_s"] == {
        "median": 5.5, "q1": 4.25, "q3": 6.75, "runs": [4.0, 5.0, 6.0, 7.0]}
    assert res["change"]["metrics"]["train_s"] == {
        "median": 5.75, "q1": 3.5, "q3": 6.875, "runs": [3.0, 5.0, 7.0, 6.5]}
    # pairs 0 and 3 won, pair 1 tied, pair 2 lost; test_acc: one win, two ties
    assert res["change_wins"] == {"train_s": 2, "test_acc": 1}
    # 2 of 4 pairs is no gain; train_s's median is 4.5% worse, past its 1%
    assert res["gain_met"] == {"train_s": False, "test_acc": False}
    assert res["within_bound"] == {"train_s": False, "test_acc": True}
    assert res["parent"]["fail_rate"] == 0.0
    assert res["change"]["fail_rate"] == 1 / 8
    assert res["fail_rate_ok"] is False
    # test_acc moved in pairs 1 and 2; both sides ran the same inputs
    assert res["outputs_identical"] is False
    assert res["inputs_match"] is True
    assert res["complete"] is True


def test_bench_pairs_makes_a_missing_out_directory_before_the_first_pair(tmp_path):
    log = tmp_path / "calls.log"
    sides = [make_checkout(tmp_path, side, log) for side in ("parent", "change")]
    out_dir = tmp_path / "new" / "out"
    made = []
    tool = load_tool()
    run_once = tool.run_once

    def spy(*args):
        made.append(out_dir.is_dir())
        return run_once(*args)

    tool.run_once = spy
    rc = tool.main(["--parent", str(sides[0]), "--change", str(sides[1]),
                    "--workload", "w1", "--pairs", "2", "--seed", "100",
                    "--out", str(out_dir)])
    assert rc == 0
    assert made == [True] * 4
    assert json.loads((out_dir / "BENCH_w1.json").read_text())["pairs"] == 2


def test_bench_pairs_stops_when_a_run_prints_no_result(tmp_path):
    log = tmp_path / "calls.log"
    parent = make_checkout(tmp_path, "parent", log)
    change = make_checkout(tmp_path, "change", log,
                           script="import sys\nsys.exit('crashed')\n")
    with pytest.raises(SystemExit, match="printed no result"):
        load_tool().main(["--parent", str(parent), "--change", str(change),
                          "--workload", "w1", "--pairs", "1", "--seed", "100",
                          "--out", str(tmp_path)])
    assert log.read_text().splitlines() == ["parent w1 100 40"]
    assert not (tmp_path / "BENCH_w1.json").exists()


def test_bench_pairs_keeps_the_pairs_before_a_run_that_prints_no_result(tmp_path):
    # the change's run of pair 1 crashes: pair 0 is on file, and the tool
    # exits non-zero
    log = tmp_path / "calls.log"
    canned = {"parent": CANNED["parent"],
              "change": {**CANNED["change"], "crash": [False, True, False, False]}}
    sides = [make_checkout(tmp_path, side, log, canned=canned)
             for side in ("parent", "change")]
    with pytest.raises(SystemExit, match="printed no result") as exc:
        load_tool().main(["--parent", str(sides[0]), "--change", str(sides[1]),
                          "--workload", "w1", "--pairs", "3", "--seed", "100",
                          "--out", str(tmp_path)])
    assert exc.value.code not in (0, None)
    assert log.read_text().splitlines() == [
        "parent w1 100 40", "change w1 100 40", "change w1 101 40"]
    res = json.loads((tmp_path / "BENCH_w1.json").read_text())
    assert (res["complete"], res["pairs"], res["seeds"]) == (False, 1, [100])
    assert res["parent"]["metrics"]["train_s"]["runs"] == [4.0]
    assert res["change"]["metrics"]["train_s"]["runs"] == [3.0]
    assert res["change_wins"] == {"train_s": 1, "test_acc": 0}


@pytest.mark.parametrize("change_train_s,gain,within", [
    # the parent's train_s runs 4-7 s: median 5.5, quartiles 2.5 apart.
    # Every pair won, median 3.0 below the parent's: a gain
    ([1.0, 2.0, 3.0, 4.0], True, True),
    # every pair won, but the median gap (0.1) is inside the parent's
    # quartile spread: no gain, and within the bound
    ([3.9, 4.9, 5.9, 6.9], False, True),
    # three pairs of four won: no gain
    ([3.0, 4.0, 6.5, 4.5], False, True),
    # every pair lost, the median 1.8% worse, past the 1% bound
    ([4.1, 5.1, 6.1, 7.1], False, False),
])
def test_bench_pairs_judges_gain_and_bound(tmp_path, change_train_s, gain, within):
    log = tmp_path / "calls.log"
    canned = {"parent": CANNED["parent"],
              "change": {**CANNED["parent"], "train_s": change_train_s}}
    sides = [make_checkout(tmp_path, side, log, canned=canned)
             for side in ("parent", "change")]
    load_tool().main(["--parent", str(sides[0]), "--change", str(sides[1]),
                      "--workload", "w1", "--pairs", "4", "--seed", "100",
                      "--out", str(tmp_path)])
    res = json.loads((tmp_path / "BENCH_w1.json").read_text())
    assert res["gain_met"]["train_s"] is gain
    assert res["within_bound"]["train_s"] is within
    # identical test_acc on both sides: no gain, within its bound
    assert (res["gain_met"]["test_acc"], res["within_bound"]["test_acc"]) == (False, True)


@pytest.mark.parametrize("change_train_s,unresolved", [
    # the parent's quartiles are 2.5 apart, wider than 1% of its 5.5
    # median, and the change's runs overlap the parent's: unresolved
    ([3.9, 4.9, 5.9, 6.9], True),
    ([3.0, 4.0, 6.5, 4.5], True),
    # every change run beats every parent run: resolved despite the spread
    ([1.0, 2.0, 3.0, 3.9], False),
])
def test_bench_pairs_reports_unresolved_metrics(tmp_path, change_train_s, unresolved):
    log = tmp_path / "calls.log"
    canned = {"parent": CANNED["parent"],
              "change": {**CANNED["parent"], "train_s": change_train_s}}
    sides = [make_checkout(tmp_path, side, log, canned=canned)
             for side in ("parent", "change")]
    load_tool().main(["--parent", str(sides[0]), "--change", str(sides[1]),
                      "--workload", "w1", "--pairs", "4", "--seed", "100",
                      "--out", str(tmp_path)])
    res = json.loads((tmp_path / "BENCH_w1.json").read_text())
    # test_acc: every run equal, no spread, so resolved
    assert res["unresolved"] == {"train_s": unresolved, "test_acc": False}


@pytest.mark.parametrize("parent_failed,change_failed,ok", [
    ([0, 0, 0, 0], [0, 0, 0, 0], True),
    ([0, 1, 0, 0], [0, 0, 1, 0], True),  # equal shares, failed in other pairs
    ([1, 0, 1, 0], [0, 0, 0, 1], True),
    ([0, 0, 0, 1], [0, 1, 0, 1], False),
])
def test_bench_pairs_judges_the_fail_rate(tmp_path, parent_failed, change_failed, ok):
    log = tmp_path / "calls.log"
    canned = {"parent": {**CANNED["parent"], "failed": parent_failed},
              "change": {**CANNED["parent"], "failed": change_failed}}
    sides = [make_checkout(tmp_path, side, log, canned=canned)
             for side in ("parent", "change")]
    load_tool().main(["--parent", str(sides[0]), "--change", str(sides[1]),
                      "--workload", "w1", "--pairs", "4", "--seed", "100",
                      "--out", str(tmp_path)])
    res = json.loads((tmp_path / "BENCH_w1.json").read_text())
    assert res["parent"]["fail_rate"] == sum(parent_failed) / 8
    assert res["change"]["fail_rate"] == sum(change_failed) / 8
    assert res["fail_rate_ok"] is ok


@pytest.mark.parametrize("change,identical,match", [
    ({}, True, True),
    ({"spmm": [12, 12, 13, 12]}, False, True),   # one more product in pair 2
    ({"env": [{}, {}, {}, {"nproc": 1}]}, True, False),
    ({"env": [{}, {"inputs_sha256": {"graph": "other"}}, {}, {}]}, True, False),
    ({"env": [{"blas_threads": 1}] * 4}, True, False),
    # the same inputs on another numpy, scipy or python: another LAPACK
    ({"env": [{}, {}, {"numpy": "2.3.0"}, {}]}, True, False),
    ({"env": [{"scipy": "1.16.0"}] * 4}, True, False),
    ({"env": [{}, {"python": "3.11.9"}, {}, {}]}, True, False),
])
def test_bench_pairs_checks_outputs_and_inputs(tmp_path, change, identical, match):
    log = tmp_path / "calls.log"
    canned = {"parent": CANNED["parent"], "change": {**CANNED["parent"], **change}}
    sides = [make_checkout(tmp_path, side, log, canned=canned)
             for side in ("parent", "change")]
    load_tool().main(["--parent", str(sides[0]), "--change", str(sides[1]),
                      "--workload", "w1", "--pairs", "4", "--seed", "100",
                      "--out", str(tmp_path)])
    res = json.loads((tmp_path / "BENCH_w1.json").read_text())
    assert res["outputs_identical"] is identical
    assert res["inputs_match"] is match


@pytest.mark.parametrize("unnamed", ["parent", "change"])
def test_bench_pairs_flags_a_side_that_names_no_commit(tmp_path, capsys, unnamed):
    log = tmp_path / "calls.log"
    sides = [make_checkout(tmp_path, side, log, named=side != unnamed)
             for side in ("parent", "change")]
    rc = load_tool().main(["--parent", str(sides[0]), "--change", str(sides[1]),
                           "--workload", "w1", "--pairs", "4", "--seed", "100",
                           "--out", str(tmp_path)])
    assert rc == 0
    res = json.loads((tmp_path / "BENCH_w1.json").read_text())
    assert res[unnamed]["git_sha"] is None
    assert res["commits_named"] is False
    assert "names no git commit" in capsys.readouterr().err
