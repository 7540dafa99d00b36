import json
import tracemalloc

import numpy as np
import pytest

from diffbank import ConfigError, DataError, validate_config
from diffbank import experiment, graph
from diffbank.cli import main
from diffbank.config import to_stage_plan, to_train_config
from diffbank.experiment import (build_bank, prepare_dataset, run_ablation,
                                 run_experiment, run_seed, summarize)
from diffbank.graph import LabelVector, build_graph, spmm_call_count
from diffbank.hrp import run_hrp_training
from diffbank.rng import rng_for
from diffbank.io import save_edge_list, save_features, save_labels


def tiny_cfg(**over):
    raw = {
        "dataset": {"synthetic": {"generator": "sbm", "n": 40, "blocks": 2,
                                  "p_intra": 0.2, "p_inter": 0.05,
                                  "feature_dim": 3}},
        "basis": "legendre",
        "hops": 3,
        "train": {"epochs": 2, "batch_size": 16, "trunk": [8], "lr": 0.05},
        "hrp": {"stages": 1, "epochs": 2},
        "seeds": [0],
    }
    raw.update(over)
    return validate_config(raw)


def test_prepare_dataset_synthetic_is_seeded():
    cfg = tiny_cfg()
    g1, x1, lv1, info1 = prepare_dataset(cfg, 0)
    g2, x2, lv2, info2 = prepare_dataset(cfg, 0)
    assert info1["graph_hash"] == info2["graph_hash"]
    assert info1["feature_hash"] == info2["feature_hash"]
    g3, x3, _, info3 = prepare_dataset(cfg, 1)
    assert info3["feature_hash"] != info1["feature_hash"]
    assert info1["source"] == "synthetic"


def test_prepare_dataset_from_files(tmp_path):
    cfg0 = tiny_cfg()
    g, x, lv, _ = prepare_dataset(cfg0, 0)
    edges = tmp_path / "g.tsv"
    labels = tmp_path / "y.tsv"
    feats = tmp_path / "x.fmx"
    save_edge_list(str(edges), g)
    save_labels(str(labels), lv)
    save_features(str(feats), x)
    cfg = tiny_cfg(dataset={"edges": str(edges), "labels": str(labels),
                            "features": str(feats)})
    g2, x2, lv2, info = prepare_dataset(cfg, 0)
    assert info["source"] == "files"
    assert g2.n == g.n
    assert np.allclose(x2, x, atol=1e-6)
    assert np.array_equal(lv2.labels, lv.labels)
    # same files regardless of seed
    _, _, _, info_b = prepare_dataset(cfg, 7)
    assert info_b["graph_hash"] == info["graph_hash"]


def test_prepare_dataset_without_features_uses_labels(tmp_path):
    cfg0 = tiny_cfg()
    g, x, lv, _ = prepare_dataset(cfg0, 0)
    edges = tmp_path / "g.tsv"
    labels = tmp_path / "y.tsv"
    save_edge_list(str(edges), g)
    save_labels(str(labels), lv)
    cfg = tiny_cfg(dataset={"edges": str(edges), "labels": str(labels)})
    _, x2, lv2, _ = prepare_dataset(cfg, 0)
    assert x2.shape == (g.n, lv2.num_classes)
    train_rows = x2[lv2.train_mask]
    assert np.all(train_rows.sum(axis=1) == 1.0)
    assert np.all(x2[~lv2.train_mask] == 0.0)


def write_file_dataset(tmp_path, seed=0, **over):
    """The tiny synthetic dataset of ``seed`` as edge, label and feature files."""
    g, x, lv, _ = prepare_dataset(tiny_cfg(), seed)
    paths = {"edges": tmp_path / "g.tsv", "labels": tmp_path / "y.tsv",
             "features": tmp_path / "x.fmx"}
    save_edge_list(str(paths["edges"]), g)
    save_labels(str(paths["labels"]), lv)
    save_features(str(paths["features"]), x)
    return tiny_cfg(dataset={k: str(v) for k, v in paths.items()}, **over)


def count_edge_list_loads(monkeypatch) -> list:
    """Log the memo's state at each ``load_edge_list`` call in ``experiment``."""
    calls = []
    load = experiment.load_edge_list

    def counted(*args, **kw):
        calls.append(dict(experiment._FILE_MEMO))
        return load(*args, **kw)

    monkeypatch.setattr(experiment, "load_edge_list", counted)
    experiment._FILE_MEMO.clear()
    return calls


@pytest.mark.parametrize("cores", [1, 2])
def test_ablation_parses_a_file_dataset_once(tmp_path, monkeypatch, cores):
    # one parse whether the kernel runs on one thread or two
    monkeypatch.setattr(graph, "_WORK_FLOOR", 0)
    monkeypatch.setattr(graph, "_CORES", cores)
    cfg = write_file_dataset(tmp_path, seeds=[0, 1])
    calls = count_edge_list_loads(monkeypatch)
    res = run_ablation(cfg)
    assert len(calls) == 1  # 2 seeds x 3 arms share one parse
    hashes = {r["data"]["graph_hash"] for a in res["arms"].values() for r in a["runs"]}
    assert len(hashes) == 1


def test_file_dataset_memo_follows_the_files(tmp_path, monkeypatch):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    cfg_a = write_file_dataset(tmp_path / "a", seed=0)
    cfg_b = write_file_dataset(tmp_path / "b", seed=1)
    calls = count_edge_list_loads(monkeypatch)
    info = prepare_dataset(cfg_a, 0)[3]
    assert prepare_dataset(cfg_a, 5)[3] == info
    assert len(calls) == 1
    # another dataset evicts the first before it is parsed
    prepare_dataset(cfg_b, 0)
    assert len(calls) == 2 and calls[1] == {}
    assert prepare_dataset(cfg_a, 0)[3] == info
    assert len(calls) == 3
    # rewriting a file re-parses it
    g, x, lv, _ = prepare_dataset(cfg_a, 0)
    save_edge_list(cfg_a["dataset"]["edges"], build_graph(np.array([[0, g.n - 1]]), g.n))
    g2, x2, lv2, info2 = prepare_dataset(cfg_a, 0)
    assert len(calls) == 4
    assert g2.num_edges == 2 and info2["graph_hash"] != info["graph_hash"]
    assert info2["feature_hash"] == info["feature_hash"]
    # other graph options are another dataset
    prepare_dataset({**cfg_a, "dataset": {**cfg_a["dataset"], "add_self_loops": True}}, 0)
    assert len(calls) == 5


def test_file_dataset_arrays_are_read_only(tmp_path):
    cfg = write_file_dataset(tmp_path)
    g, x, lv, _ = prepare_dataset(cfg, 0)
    for a in (x, lv.labels, lv.train_mask, lv.val_mask, lv.test_mask,
              g.row_ptr, g.col_idx):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    # label features stand in for a missing feature file, read-only too
    del cfg["dataset"]["features"]
    with pytest.raises(ValueError, match="read-only"):
        prepare_dataset(cfg, 0)[1][0, 0] = 1.0
    # label diffusion builds its own matrix from the shared ones
    x_ld = prepare_dataset({**cfg, "label_diffusion": True}, 0)[1]
    x_ld[0, 0] = 1.0


def test_prepare_dataset_feature_row_mismatch(tmp_path):
    cfg0 = tiny_cfg()
    g, x, lv, _ = prepare_dataset(cfg0, 0)
    edges = tmp_path / "g.tsv"
    labels = tmp_path / "y.tsv"
    feats = tmp_path / "x.fmx"
    save_edge_list(str(edges), g)
    save_labels(str(labels), lv)
    save_features(str(feats), x[:-1])
    cfg = tiny_cfg(dataset={"edges": str(edges), "labels": str(labels),
                            "features": str(feats)})
    with pytest.raises(DataError, match="feature rows"):
        prepare_dataset(cfg, 0)


def test_label_diffusion_appends_channels():
    plain = tiny_cfg()
    g, x, lv, _ = prepare_dataset(plain, 0)
    cfg = tiny_cfg(label_diffusion=True)
    g2, x2, lv2, _ = prepare_dataset(cfg, 0)
    assert x2.shape[1] == x.shape[1] + lv2.num_classes
    assert np.array_equal(x2[:, :x.shape[1]], x)


def test_build_bank_dispatch_and_spmm_accounting():
    cfg = tiny_cfg()
    g, x, lv, _ = prepare_dataset(cfg, 0)
    for basis, expect in (("monomial", 3), ("chebyshev", 3), ("legendre", 3),
                          ("jacobi", 3), ("krylov", 4)):
        c = tiny_cfg(basis=basis)
        bank, details = build_bank(c, g, x)
        assert details["spmm"] == expect
        assert bank.hops == 3
    auto = tiny_cfg(basis="auto",
                    calibration={"order": 10, "probes": 8})
    bank, details = build_bank(auto, g, x)
    assert details["spmm"] == 10 + 3  # moment estimation plus the bank build
    cal = details["calibration"]
    assert -1.0 <= cal["delta"] <= 1.0
    assert cal["alpha"] <= 0.0 and cal["beta"] <= 0.0
    assert bank.provenance["basis"] == "jacobi"


def test_build_bank_refuses_a_bank_past_physical_memory(monkeypatch):
    cfg = tiny_cfg(hops=3)
    g, x, _, _ = prepare_dataset(cfg, 0)
    need = max(experiment.memory_plan(cfg, g.n, g.num_edges, x.shape[1]).values())
    monkeypatch.setattr(graph, "_physical_bytes", lambda: need - 1)
    before = spmm_call_count()
    with pytest.raises(DataError, match="physical memory"):
        build_bank(cfg, g, x)
    assert spmm_call_count() == before
    monkeypatch.setattr(graph, "_physical_bytes", lambda: need)
    assert build_bank(cfg, g, x)[1]["spmm"] == 3


@pytest.mark.parametrize("basis,products", [("legendre", 3), ("krylov", 4)])
def test_build_bank_refuses_a_stage_boundary_past_physical_memory(monkeypatch, basis,
                                                                   products):
    # a 1-stage run's largest phase: the bank fits, a 2-stage run's boundary does not
    two = tiny_cfg(basis=basis, hops=3, hrp={"stages": 2, "epochs": 2})
    g, x, _, _ = prepare_dataset(two, 0)
    fits = max(experiment.memory_plan(tiny_cfg(basis=basis, hops=3), g.n, g.num_edges,
                                      x.shape[1]).values())
    monkeypatch.setattr(graph, "_physical_bytes", lambda: fits)
    before = spmm_call_count()
    with pytest.raises(DataError, match="stage boundary"):
        build_bank(two, g, x)
    assert spmm_call_count() == before
    assert build_bank(tiny_cfg(basis=basis, hops=3), g, x)[1]["spmm"] == products


def test_build_bank_refuses_a_krylov_basis_past_physical_memory(tmp_path, monkeypatch):
    # the slabs and half the float64 (order, n, d) basis tensor of order 4:
    # the basis does not fit, so neither build_bank nor a 1-stage train runs
    cfg = tiny_cfg(basis="krylov", hops=3)
    g, x, _, _ = prepare_dataset(cfg, 0)
    n, d = g.n, x.shape[1]
    monkeypatch.setattr(graph, "_physical_bytes", lambda: 4 * 4 * n * d + 8 * 4 * n * d // 2)
    before = spmm_call_count()
    with pytest.raises(DataError, match="physical memory"):
        build_bank(cfg, g, x)
    assert spmm_call_count() == before
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "r")]) == 3


@pytest.mark.parametrize("stages", [1, 2])
@pytest.mark.parametrize("basis", ["legendre", "auto", "krylov"])
@pytest.mark.parametrize("n", [20_000, 3_000])  # above and below the work floor at d = 64
def test_the_memory_plan_bounds_the_traced_peak(monkeypatch, n, basis, stages):
    # build_bank, and for 2 stages the staged run through its boundary,
    # allocate at most the plan's largest phase beside the graph and the
    # features; the plan is no more than 1.5 times that, so it refuses no
    # run that fits
    monkeypatch.setattr(graph, "_CORES", 2)
    d = 64
    g = build_graph(rng_for(3, "plan").integers(0, n, size=(5 * n, 2)), n)
    assert (g.num_edges * d >= graph._WORK_FLOOR) == (n > 3_000)
    x = rng_for(4, "plan").standard_normal((n, d)).astype(np.float32)
    split = rng_for(0, "plan").integers(0, 3, size=n)
    lv = LabelVector(labels=rng_for(1, "plan").integers(0, 2, size=n),
                     train_mask=split == 0, val_mask=split == 1, test_mask=split == 2,
                     num_classes=2)
    cfg = tiny_cfg(basis=basis, hops=6, hrp={"stages": stages, "epochs": 1},
                   train={"epochs": 1, "batch_size": 1024, "trunk": [8], "lr": 0.05})
    tracemalloc.start()
    try:
        bank, details = build_bank(cfg, g, x)
        if stages > 1:
            run_hrp_training(to_stage_plan(cfg), bank, g, lv, to_train_config(cfg, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    plan = details["memory_plan"]
    assert plan == experiment.memory_plan(cfg, n, g.num_edges, d)
    assert ("stage boundary" in plan) == (stages > 1)
    traced = peak + g.row_ptr.nbytes + g.col_idx.nbytes + x.nbytes
    assert traced <= max(plan.values()) + 2**18
    assert max(plan.values()) <= 1.5 * traced


def test_krylov_bank_details_are_json():
    cfg = tiny_cfg(basis="krylov")
    g, x, lv, _ = prepare_dataset(cfg, 0)
    x[:, 1] = 0.0
    bank, details = build_bank(cfg, g, x)
    assert details["skipped_channels"] == bank.provenance["skipped_channels"] == [1]
    assert json.loads(json.dumps(details))["breakdown_channels"] == []
    assert np.all(bank.slabs[:, :, 1] == 0.0)


def test_build_bank_rejects_mismatched_operator():
    # validate_config refuses this pairing, so bypass it to reach the guard
    # that build_bank keeps for configs built in code
    cfg = {**tiny_cfg(basis="legendre"), "operator": "dad"}
    with pytest.raises(ConfigError, match="shifted operator"):
        build_bank(cfg, *prepare_dataset(tiny_cfg(), 0)[:2])


def test_build_bank_krylov_order_floor():
    with pytest.raises(ConfigError, match="hops \\+ 1"):
        tiny_cfg(basis="krylov", krylov={"order": 3})
    # validate_config refuses that order, so bypass it to reach the floor
    # that diffuse keeps for recipes built in code
    cfg = {**tiny_cfg(basis="krylov"), "krylov": {"order": 3}}
    g, x, lv, _ = prepare_dataset(cfg, 0)
    with pytest.raises(ConfigError, match="hops \\+ 1"):
        build_bank(cfg, g, x)


def test_run_seed_report_shape():
    cfg = tiny_cfg(hrp={"stages": 2, "epochs": 2})
    row, result = run_seed(cfg, 0)
    assert set(row) >= {"seed", "test_metric", "val_metric", "best_stage",
                        "best_epoch", "total_diffusion_spmm", "preprocess_spmm",
                        "total_spmm", "hrp_spmm_share"}
    assert row["seed"] == 0
    assert 0.0 <= row["test_metric"] <= 1.0
    assert row["total_diffusion_spmm"] == 3  # one legendre re-propagation
    assert row["preprocess_spmm"] == 3
    assert row["total_spmm"] == 6
    assert row["hrp_spmm_share"] == pytest.approx(0.5)
    assert len(row["stages"]) == 2
    assert row["val_metric"] == result.best_val
    assert [s["epochs_run"] for s in row["stages"]] == [len(s.history)
                                                        for s in result.stages]


def test_run_experiment_summary_and_hash():
    cfg = tiny_cfg(seeds=[0, 1])
    res = run_experiment(cfg)
    assert res["seeds"] == [0, 1]
    assert len(res["runs"]) == 2
    vals = [r["test_metric"] for r in res["runs"]]
    assert res["summary"]["mean"] == pytest.approx(np.mean(vals))
    assert res["summary"]["per_seed"] == vals
    assert len(res["config_hash"]) == 64


def test_summarize_single_row_has_zero_std():
    s = summarize([{"test_metric": 0.75}])
    assert s["mean"] == 0.75 and s["std"] == 0.0


def _without_seconds(node):
    """A report row with every ``*seconds`` field left out, at any depth."""
    if isinstance(node, dict):
        return {k: _without_seconds(v) for k, v in node.items() if not k.endswith("seconds")}
    if isinstance(node, list):
        return [_without_seconds(v) for v in node]
    return node


def assert_threads_match_serial(monkeypatch, cfg):
    # operators cut their blocks when made, so each run makes its own
    monkeypatch.setattr(graph, "_WORK_FLOOR", 0)
    monkeypatch.setattr(graph, "_CORES", 2)
    threaded = run_experiment(cfg)["runs"]
    monkeypatch.setattr(graph, "_CORES", 1)
    serial = run_experiment(cfg)["runs"]
    assert [_without_seconds(r) for r in threaded] == [_without_seconds(r) for r in serial]
    return serial


def test_thread_count_does_not_change_the_numbers(monkeypatch):
    cfg = tiny_cfg(dataset={"synthetic": {"generator": "spectral-signal", "n": 60,
                                          "feature_dim": 3}},
                   hrp={"stages": 2, "epochs": 2}, seeds=[0, 1, 2, 3])
    assert_threads_match_serial(monkeypatch, cfg)


def test_thread_count_does_not_change_krylov_numbers(monkeypatch):
    cfg = tiny_cfg(dataset={"synthetic": {"generator": "spectral-signal", "n": 60,
                                          "feature_dim": 3}},
                   basis="krylov", hrp={"stages": 2, "epochs": 2},
                   seeds=[0, 1, 2, 3])
    serial = assert_threads_match_serial(monkeypatch, cfg)
    assert {r["bank"]["basis"] for r in serial} == {"krylov"}
    assert all(r["preprocess_spmm"] == 4 and r["total_diffusion_spmm"] == 4
               for r in serial)


def test_ablation_arms_share_seeds_and_differ_in_plan():
    cfg = tiny_cfg(basis="legendre", hrp={"stages": 2, "epochs": 2},
                   seeds=[0, 1])
    res = run_ablation(cfg)
    assert set(res["arms"]) == {"baseline-monomial-dad", "robust-basis",
                                "robust-basis+hrp"}
    for arm in res["arms"].values():
        assert [r["seed"] for r in arm["runs"]] == [0, 1]
    base = res["arms"]["baseline-monomial-dad"]["runs"][0]
    robust = res["arms"]["robust-basis"]["runs"][0]
    staged = res["arms"]["robust-basis+hrp"]["runs"][0]
    assert base["bank"]["basis"] == "monomial"
    assert robust["bank"]["basis"] == "legendre"
    assert base["total_diffusion_spmm"] == 0  # single stage, no re-propagation
    assert robust["total_diffusion_spmm"] == 0
    assert staged["total_diffusion_spmm"] == 3
    # identical data per seed across arms
    assert base["data"]["graph_hash"] == robust["data"]["graph_hash"]
    assert robust["data"]["graph_hash"] == staged["data"]["graph_hash"]


def test_epoch_list_ablation_runs_every_arm():
    # a per-stage epoch list: the single-stage arms keep its first budget
    cfg = tiny_cfg(hrp={"stages": 2, "epochs": [2, 1], "schedule": "cosine"})
    res = run_ablation(cfg)
    staged = res["arms"]["robust-basis+hrp"]["runs"][0]
    assert [len(a["runs"]) for a in res["arms"].values()] == [1, 1, 1]
    assert res["arms"]["robust-basis"]["runs"][0]["total_diffusion_spmm"] == 0
    assert staged["total_diffusion_spmm"] == 3


def test_ablation_refuses_a_bad_arm_before_any_seed_runs():
    # an API caller's dict, validated and then changed: every arm is refused
    cfg = tiny_cfg(hrp={"stages": 2, "epochs": 2})
    cfg["hrp"]["lambda0"] = 1.5
    before = spmm_call_count()
    with pytest.raises(ConfigError, match="lambda0"):
        run_ablation(cfg)
    assert spmm_call_count() == before
