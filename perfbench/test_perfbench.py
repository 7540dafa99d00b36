"""Tests of the benchmark itself, on small versions of its workloads.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from diffbank import io as dio  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from inputs import decimal_rows, write_planted  # noqa: E402
from spans import PER_LAYER, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import make_workload, run_pipeline  # noqa: E402

SMALL = {"desk-ablation": 600, "scale-legendre": 3000, "mid-spectral": 8000}


def traced_round(name, seed, workdir):
    w = make_workload(name, seed, workdir / f"in{seed}", n=SMALL[name])
    tracer = Tracer()
    tracer.install()
    try:
        rnd = run.run_round(w.pipelines, workdir, run_pipeline, tracer, tag=name)
    finally:
        tracer.uninstall()
    return rnd, tracer


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    out = {}
    for name in SMALL:
        wd = tmp_path_factory.mktemp(name)
        out[name] = [traced_round(name, 5, wd), traced_round(name, 5, wd)]
    return out


def test_decimal_rows_match_python_formatting():
    a = np.array([0, 7, 10, 99, 100, 123456])
    b = np.array([5, 0, 1, 1000, 9, 42])
    want = "".join(f"{i}\t{j}\tx\n" for i, j in zip(a, b)).encode()
    assert decimal_rows([a, b], b"\tx\n") == want


def test_planted_inputs_follow_the_seed_and_load(tmp_path):
    n = 500
    one = write_planted(n, 3, tmp_path / "a")
    again = write_planted(n, 3, tmp_path / "b")
    other = write_planted(n, 4, tmp_path / "c")
    assert one["sha256"] == again["sha256"]
    assert all(one["sha256"][k] != other["sha256"][k] for k in one["sha256"])
    g = dio.load_edge_list(one["paths"]["edges"], n)
    lv = dio.load_labels(one["paths"]["labels"], n)
    assert g.num_edges == one["stored_entries"]
    assert dio.load_features(one["paths"]["features"]).shape == (n, inputs.DIM)
    assert lv.num_classes == inputs.CLASSES
    assert np.all(lv.train_mask | lv.val_mask | lv.test_mask)


def test_closed_form_products(tmp_path):
    got = {}
    for name, n in SMALL.items():
        for p in make_workload(name, 0, tmp_path / name, n=n).pipelines:
            got[p.label.split("/")[0]] = p.expected_spmm
    assert got == {"monomial-dad": 6, "robust": 26, "robust+hrp": 32,
                   "legendre": 12, "krylov": 14, "auto": 32}


def test_same_seed_gives_identical_counts_and_accuracy(rounds):
    for name, ((first, t1), (second, t2)) in rounds.items():
        assert first["spmm_products"] == second["spmm_products"], name
        assert first["test_acc"] == second["test_acc"], name
        m1, m2 = layer_metrics(t1.spans), layer_metrics(t2.spans)
        counts = [k for k, unit in PER_LAYER.items() if unit != "s"]
        assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}, name


def test_small_workloads_pass_their_checks(rounds):
    for name, runs in rounds.items():
        for rnd, _ in runs:
            assert [p["errors"] for p in rnd["pipelines"] if p["errors"]] == [], name


def test_spans_nest_and_self_times_are_non_negative(rounds):
    for name, runs in rounds.items():
        for _, tracer in runs:
            spans = tracer.spans
            by_id = {sp["id"]: sp for sp in spans}
            for sp in spans:
                assert sp["end"] >= sp["start"]
                if sp["parent"] is not None:
                    parent = by_id[sp["parent"]]
                    assert parent["start"] <= sp["start"] and sp["end"] <= parent["end"]
                    assert parent["run"] == sp["run"]
            assert min(self_times(spans).values()) >= -1e-9, name
            assert tracer.unbound == []


def test_every_layer_is_measured_on_some_workload(rounds):
    seen = {k: 0 for k in PER_LAYER}
    for runs in rounds.values():
        for k, v in layer_metrics(runs[0][1].spans).items():
            seen[k] += v
    # breakdowns count a rare event; the rest must all have fired
    assert [k for k, v in seen.items() if v <= 0] == ["krylov.breakdowns"]


def test_wrong_expected_count_is_reported_as_a_failure(tmp_path, monkeypatch, capsys):
    w = make_workload("desk-ablation", 1, tmp_path, n=SMALL["desk-ablation"])
    wrong = replace(w, pipelines=[replace(p, expected_spmm=p.expected_spmm + 1)
                                  for p in w.pipelines[:2]])
    monkeypatch.setitem(workloads.WORKLOADS, "desk-ablation", lambda seed, wd: wrong)
    for var in ("DIFFBANK_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):  # main() sets these; restore them afterwards
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    code = run.main(["--workload", "desk-ablation", "--seed", "9999", "--seconds", "0",
                     "--trace", "0"])
    out = capsys.readouterr()
    result = json.loads(out.out.strip().splitlines()[-1])
    assert code == 1
    # a zero time budget allows a single round of the two pipelines
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 2)
    assert out.err.count("closed form") == 2
