import json

import numpy as np
import pytest

from diffbank import ConfigError, DataError, validate_config
from diffbank import graph, synth
from diffbank.experiment import (build_bank, prepare_dataset, run_ablation,
                                 run_experiment, run_seed, summarize)
from diffbank.graph import seed_threads, spmm_call_count
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
                    calibration={"order": 10, "probes": 8, "exact": False})
    bank, details = build_bank(auto, g, x)
    assert details["spmm"] == 10 + 3  # moment estimation plus the bank build
    cal = details["calibration"]
    assert -1.0 <= cal["delta"] <= 1.0
    assert cal["alpha"] <= 0.0 and cal["beta"] <= 0.0
    assert bank.provenance["basis"] == "jacobi"


def test_build_bank_refuses_a_bank_past_physical_memory(monkeypatch):
    cfg = tiny_cfg(hops=3)
    g, x, _, _ = prepare_dataset(cfg, 0)
    need = 4 * 4 * g.n * x.shape[1]
    monkeypatch.setattr(graph, "_physical_bytes", lambda: need - 1)
    before = spmm_call_count()
    with pytest.raises(DataError, match="physical memory"):
        build_bank(cfg, g, x)
    assert spmm_call_count() == before
    monkeypatch.setattr(graph, "_physical_bytes", lambda: need)
    assert build_bank(cfg, g, x)[1]["spmm"] == 3


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


def test_seeds_sharing_a_workdir_keep_their_own_snapshots(tmp_path):
    cfg = tiny_cfg(hrp={"stages": 2, "epochs": 3, "diagnostics": True},
                   seeds=[0, 1])
    rows = run_experiment(cfg, workdir=tmp_path)["runs"]
    assert [r["seed"] for r in rows] == [0, 1]
    per_seed = [sorted(tmp_path.glob(f"hidden_seed{seed}_s1_e*.npy"))
                for seed in (0, 1)]
    assert per_seed[0] and len(per_seed[0]) == len(per_seed[1])
    assert len(list(tmp_path.iterdir())) == 2 * len(per_seed[0])
    for a, b in zip(*per_seed):
        assert a.name.replace("seed0", "seed1") == b.name
        assert not np.array_equal(np.load(a), np.load(b))


def test_summarize_single_row_has_zero_std():
    s = summarize([{"test_metric": 0.75}])
    assert s["mean"] == 0.75 and s["std"] == 0.0


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("DIFFBANK_THREADS", raising=False)
    assert seed_threads() == 1
    monkeypatch.setenv("DIFFBANK_THREADS", "4")
    assert seed_threads() == 4
    monkeypatch.setenv("DIFFBANK_THREADS", "0")
    assert seed_threads() == 1
    monkeypatch.setenv("DIFFBANK_THREADS", "many")
    with pytest.raises(ConfigError):
        seed_threads()


def assert_threads_match_serial(monkeypatch, cfg):
    synth._spectrum_slot.cache_clear()  # the threads fill the spectrum memo
    monkeypatch.setenv("DIFFBANK_THREADS", "2")
    threaded = run_experiment(cfg)["runs"]
    monkeypatch.setenv("DIFFBANK_THREADS", "1")
    serial = run_experiment(cfg)["runs"]
    for t, s in zip(threaded, serial, strict=True):
        assert t["seed"] == s["seed"]
        assert t["data"] == s["data"]
        assert t["test_metric"] == s["test_metric"]
        assert t["val_metric"] == s["val_metric"]
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
