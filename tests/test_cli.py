import argparse
import json
import os

import numpy as np
import pytest

from diffbank import (ConfigError, SyntheticSpec, TrainConfig, cli, experiment, generate,
                      graph, load_bank_file)
from diffbank.banks import bank_report
from diffbank.cli import main
from diffbank.config import config_hash, load_config, validate_config
from diffbank.experiment import prepare_dataset, run_seed
from diffbank.hrp import build_model
from diffbank.io import (load_checkpoint, load_features, save_checkpoint, save_edge_list,
                         save_features,
                         save_labels)


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data"
    rc = main(["generate", "--generator", "sbm", "--nodes", "40",
               "--p-intra", "0.2", "--p-inter", "0.05", "--feature-dim", "3",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    return out


def write_config(tmp_path, **over):
    raw = {
        "dataset": {"synthetic": {"generator": "sbm", "n": 40, "blocks": 2,
                                  "p_intra": 0.2, "p_inter": 0.05,
                                  "feature_dim": 3}},
        "basis": "legendre",
        "hops": 3,
        "train": {"epochs": 3, "batch_size": 16, "trunk": [8], "lr": 0.05},
        "hrp": {"stages": 2, "epochs": 3},
        "seeds": [0],
    }
    raw.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_generate_writes_dataset(dataset, capsys):
    assert (dataset / "edges.tsv").exists()
    assert (dataset / "features.fmx").exists()
    assert (dataset / "labels.tsv").exists()


def test_preprocess_builds_bank(dataset, tmp_path, capsys):
    bank_path = tmp_path / "bank.hbk"
    rc = main(["preprocess", "--edges", str(dataset / "edges.tsv"),
               "--features", str(dataset / "features.fmx"),
               "--basis", "legendre", "--hops", "4", "--out", str(bank_path)])
    assert rc == 0
    bank = load_bank_file(str(bank_path))
    assert bank.hops == 4 and bank.width == 3
    assert bank.provenance["basis"] == "legendre"
    rc = main(["preprocess", "--edges", str(dataset / "edges.tsv"),
               "--features", str(dataset / "features.fmx"),
               "--basis", "krylov", "--hops", "3", "--krylov-order", "5",
               "--out", str(tmp_path / "kry.hbk")])
    assert rc == 0
    kry = load_bank_file(str(tmp_path / "kry.hbk"))
    assert kry.provenance["basis"] == "krylov"
    assert kry.provenance["order"] == 5


def test_preprocess_validates_like_a_config_file(dataset, tmp_path, capsys):
    common = ["preprocess", "--edges", str(dataset / "edges.tsv"),
              "--features", str(dataset / "features.fmx")]
    out = ["--out", str(tmp_path / "b.hbk")]
    rc = main(common + ["--basis", "krylov", "--operator", "dad"] + out)
    assert rc == 2
    assert "shifted" in capsys.readouterr().err
    rc = main(common + ["--basis", "krylov", "--krylov-order", "0"] + out)
    assert rc == 2
    assert "krylov.order" in capsys.readouterr().err
    # refused at validation, before the (here missing) feature file is read
    rc = main(["preprocess", "--edges", str(dataset / "edges.tsv"),
               "--features", str(tmp_path / "missing.fmx"), "--basis", "legendre",
               "--operator", "dad"] + out)
    assert rc == 2
    assert "the legendre basis runs on the shifted operator" in capsys.readouterr().err
    assert not (tmp_path / "b.hbk").exists()
    # without --basis the config default (calibrated Jacobi) applies
    rc = main(common + ["--hops", "2"] + out)
    assert rc == 0
    assert "calibrated weights" in capsys.readouterr().out
    assert load_bank_file(str(tmp_path / "b.hbk")).provenance["basis"] == "jacobi"


@pytest.mark.parametrize("flag, value", [("--snr", "nan"), ("--snr", "-1")])
def test_generate_validates_its_options_before_writing(tmp_path, capsys, flag, value):
    out = tmp_path / "D"
    rc = main(["generate", "--nodes", "40", flag, value, "--out", str(out)])
    assert rc == 2
    assert "dataset.synthetic" in capsys.readouterr().err
    assert not out.exists()


def test_generated_isolated_nodes_survive_the_edge_list(tmp_path):
    # at seed 0 the sparse draw leaves the highest node ids isolated
    data = tmp_path / "D"
    rc = main(["generate", "--generator", "sbm", "--nodes", "400", "--p-intra", "0.004",
               "--p-inter", "0.001", "--feature-dim", "4", "--seed", "0",
               "--out", str(data)])
    assert rc == 0
    rc = main(["preprocess", "--edges", str(data / "edges.tsv"),
               "--features", str(data / "features.fmx"), "--basis", "legendre",
               "--hops", "2", "--out", str(tmp_path / "b.hbk")])
    assert rc == 0
    assert load_bank_file(str(tmp_path / "b.hbk")).n == 400


def test_a_directed_graph_needs_the_da_operator(dataset, tmp_path, capsys):
    # a train config with undirected false is a case of the config-only test
    common = ["--edges", str(dataset / "edges.tsv"), "--directed"]
    rc = main(["calibrate", *common])
    assert rc == 2
    assert "operator da" in capsys.readouterr().err
    bank = tmp_path / "b.hbk"
    pre = ["preprocess", *common, "--features", str(dataset / "features.fmx"),
           "--out", str(bank)]
    rc = main(pre)
    assert rc == 2
    assert "operator da" in capsys.readouterr().err
    assert not bank.exists()
    rc = main(pre + ["--operator", "da", "--basis", "monomial"])
    assert rc == 0
    assert load_bank_file(str(bank)).provenance["operator"] == "da"


def test_an_ablation_arm_that_cannot_run_exits_2_before_any_data(
        dataset, tmp_path, capsys, monkeypatch):
    # the directed dataset runs on da; the baseline arm's dad operator cannot
    ds = {"edges": str(dataset / "edges.tsv"), "features": str(dataset / "features.fmx"),
          "labels": str(dataset / "labels.tsv"), "undirected": False}
    path = write_config(tmp_path, dataset=ds, operator="da", basis="monomial")
    monkeypatch.setattr(experiment, "prepare_dataset", lambda *a: pytest.fail("data read"))
    rc = main(["experiment", "--config", str(path), "--ablation"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ablation arm baseline-monomial-dad" in err and "operator da" in err


def test_generate_defaults_are_the_spec_defaults(tmp_path, capsys):
    rc = main(["generate", "--out", str(tmp_path / "cli")])
    assert rc == 0
    g, x, lv = generate(SyntheticSpec())
    ref = tmp_path / "ref"
    ref.mkdir()
    save_edge_list(str(ref / "edges.tsv"), g)
    save_features(str(ref / "features.fmx"), x)
    save_labels(str(ref / "labels.tsv"), lv)
    for name in ("edges.tsv", "features.fmx", "labels.tsv"):
        assert (tmp_path / "cli" / name).read_bytes() == (ref / name).read_bytes()


def _untimed(report):
    """A report without its wall-clock fields."""
    out = {k: v for k, v in report.items()
           if k not in ("train_seconds", "diffusion_seconds")}
    out["bank"] = {k: v for k, v in report["bank"].items() if k != "seconds"}
    out["stages"] = [{k: v for k, v in st.items()
                      if k not in ("train_seconds", "diffusion_seconds")}
                     for st in report["stages"]]
    return out


def test_train_artifacts_are_the_run_seed_results(tmp_path, capsys):
    cfg_path = write_config(tmp_path, seeds=[3])
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    cfg = load_config(str(cfg_path))
    row, result = run_seed(cfg, 3)
    report = json.loads((run_dir / "report.json").read_text())
    assert report.pop("config_hash") == config_hash(cfg)
    assert list(report) == list(row)
    assert _untimed(report) == _untimed(json.loads(json.dumps(row)))
    plan = report["bank"]["memory_plan"]
    assert set(plan) == {"operator", "bank", "stage boundary"}
    assert all(isinstance(v, int) and v > 0 for v in plan.values())
    lines = (run_dir / "epochs.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == [
        epoch for stage in result.stages for epoch in stage.history]


def test_calibrate_emits_json(dataset, tmp_path, capsys):
    rc = main(["calibrate", "--edges", str(dataset / "edges.tsv")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"delta", "alpha", "beta", "gamma", "moments",
                            "density"}
    assert -1.0 <= payload["delta"] <= 1.0
    assert len(payload["moments"]) == 21
    assert len(payload["density"]["grid"]) == len(payload["density"]["rho"])
    out = tmp_path / "cal.json"
    rc = main(["calibrate", "--edges", str(dataset / "edges.tsv"), "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["delta"] == payload["delta"]


def test_calibrate_checks_its_options_before_any_product(dataset, capsys):
    before = graph.spmm_call_count()
    rc = main(["calibrate", "--edges", str(dataset / "edges.tsv"), "--gamma", "1.5"])
    assert rc == 2
    assert ("config field calibration.gamma: 1.5 is greater than or equal to the maximum of 1"
            in capsys.readouterr().err)
    assert graph.spmm_call_count() == before


def test_a_moment_order_past_the_density_grid_exits_2_before_any_product(dataset, capsys):
    before = graph.spmm_call_count()
    rc = main(["calibrate", "--edges", str(dataset / "edges.tsv"),
               "--cheb-order", "1000000000"])
    assert rc == 2
    assert ("config field calibration.order: 1000000000 is greater than the maximum of 512"
            in capsys.readouterr().err)
    assert graph.spmm_call_count() == before


def test_train_then_evaluate_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path)
    run_dir = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--out", str(run_dir)])
    assert rc == 0
    for name in ("model.mdl", "bank.hbk", "report.json", "epochs.jsonl"):
        assert (run_dir / name).exists()
    report = json.loads((run_dir / "report.json").read_text())
    assert 0.0 <= report["test_metric"] <= 1.0
    epochs_run = sum(s["epochs_run"] for s in report["stages"])
    lines = (run_dir / "epochs.jsonl").read_text().strip().splitlines()
    assert len(lines) == epochs_run
    first = json.loads(lines[0])
    assert set(first) == {"stage", "epoch", "train_loss", "val_metric"}

    # labels live with the config's synthetic data; regenerate them to a file
    gen_dir = tmp_path / "gen"
    from diffbank.io import save_labels
    from diffbank.config import load_config
    from diffbank.experiment import prepare_dataset
    _, _, lv, _ = prepare_dataset(load_config(str(cfg)), 0)
    os.makedirs(gen_dir)
    save_labels(str(gen_dir / "labels.tsv"), lv)
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(run_dir / "model.mdl"),
               "--bank", str(run_dir / "bank.hbk"),
               "--labels", str(gen_dir / "labels.tsv")])
    assert rc == 0
    scores = json.loads(capsys.readouterr().out)
    assert set(scores) == {"train", "val", "test"}
    assert scores["test"] == pytest.approx(report["test_metric"], abs=1e-12)


def test_evaluate_refuses_labels_roc_auc_cannot_score(tmp_path, capsys, monkeypatch):
    three = {"synthetic": {"generator": "sbm", "n": 40, "blocks": 3,
                           "p_intra": 0.2, "p_inter": 0.05, "feature_dim": 3}}
    cfg = write_config(tmp_path, dataset=three)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
    _, _, lv, _ = prepare_dataset(load_config(str(cfg)), 0)
    save_labels(str(tmp_path / "three.tsv"), lv)
    rows = (tmp_path / "three.tsv").read_text().splitlines()
    # the same nodes in classes 0 and 1 only, then without class 1 among val
    (tmp_path / "two.tsv").write_text("".join(r.replace("\t2\t", "\t1\t") + "\n"
                                              for r in rows))
    (tmp_path / "val0.tsv").write_text("".join(
        r.replace("\t2\t", "\t1\t") + "\n" for r in rows
        if not (r.endswith("\tval") and "\t0\t" not in r)))
    # a two-class checkpoint on the same bank
    params, model_cfg = load_checkpoint(str(run_dir / "model.mdl"))
    bank = load_bank_file(str(run_dir / "bank.hbk"))
    two = build_model("mlp", bank.hops, bank.width, 2, TrainConfig(trunk=model_cfg["trunk"]))
    save_checkpoint(str(tmp_path / "two.mdl"), two.init(seed=0),
                    {**model_cfg, "num_classes": 2})
    scored = []
    real = cli.evaluate_split
    monkeypatch.setattr(cli, "evaluate_split", lambda *a: scored.append(a) or real(*a))
    capsys.readouterr()
    for model, labels, says in (
            (run_dir / "model.mdl", "three.tsv", "the labels have 3"),
            (run_dir / "model.mdl", "two.tsv", "the model has 3"),
            (tmp_path / "two.mdl", "val0.tsv", "both classes among the val nodes")):
        rc = main(["evaluate", "--model", str(model), "--bank", str(run_dir / "bank.hbk"),
                   "--labels", str(tmp_path / labels), "--metric", "roc_auc"])
        assert rc == 3
        assert says in capsys.readouterr().err
        assert scored == []
    rc = main(["evaluate", "--model", str(tmp_path / "two.mdl"),
               "--bank", str(run_dir / "bank.hbk"),
               "--labels", str(tmp_path / "two.tsv"), "--metric", "roc_auc"])
    assert rc == 0
    assert set(json.loads(capsys.readouterr().out)) == {"train", "val", "test"}


def test_evaluate_refuses_labels_that_label_no_node(tmp_path, capsys):
    cfg = write_config(tmp_path, hrp={"stages": 1, "epochs": 2})
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(run_dir / "model.mdl"),
               "--bank", str(run_dir / "bank.hbk"), "--labels", str(empty)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "no node" in captured.err


def test_diagnose_writes_sidecars(dataset, tmp_path, capsys):
    bank_path = tmp_path / "bank.hbk"
    main(["preprocess", "--edges", str(dataset / "edges.tsv"),
          "--features", str(dataset / "features.fmx"),
          "--basis", "monomial", "--operator", "dad", "--hops", "4",
          "--out", str(bank_path)])
    out_dir = tmp_path / "diag"
    rc = main(["diagnose", "--bank", str(bank_path), "--out", str(out_dir)])
    assert rc == 0
    assert os.listdir(out_dir) == ["conditioning.csv"]
    cond = (out_dir / "conditioning.csv").read_text().splitlines()
    assert cond[0] == "channel,cond,mean_abs_cos,g0,g1,g2,g3,g4"
    assert len(cond) == 1 + 3  # one row per channel


def test_diagnose_summarises_the_channels_with_no_zero_norm_hop(tmp_path, capsys):
    data = tmp_path / "data"
    main(["generate", "--generator", "sbm", "--nodes", "60", "--feature-dim", "3",
          "--seed", "1", "--out", str(data)])
    x = load_features(str(data / "features.fmx"))
    x[:, 1:] = 0.0
    save_features(str(data / "features.fmx"), x)
    bank_path = tmp_path / "bank.hbk"
    main(["preprocess", "--edges", str(data / "edges.tsv"),
          "--features", str(data / "features.fmx"), "--basis", "legendre",
          "--out", str(bank_path)])
    capsys.readouterr()
    rc = main(["diagnose", "--bank", str(bank_path), "--out", str(tmp_path / "diag")])
    assert rc == 0
    summary, zero = capsys.readouterr().out.splitlines()
    rep = bank_report(load_bank_file(str(bank_path)))
    assert np.isfinite(rep.cond[0]) and np.isfinite(rep.mean_abs_cos[0])
    assert summary.startswith(f"conditioning: median cond {rep.cond[0]:.3e}, "
                              f"mean |cos| {rep.mean_abs_cos[0]:.4f} -> ")
    assert zero == "zero-norm channels: [1, 2]"


def test_experiment_and_ablation(tmp_path, capsys):
    cfg = write_config(tmp_path, seeds=[0], hrp={"stages": 1, "epochs": 2},
                       train={"epochs": 2, "batch_size": 16, "trunk": [8],
                              "lr": 0.05})
    out = tmp_path / "exp.json"
    rc = main(["experiment", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "over 1 seeds" in text
    blob = json.loads(out.read_text())
    assert blob["summary"]["per_seed"]
    rc = main(["experiment", "--config", str(cfg), "--ablation"])
    assert rc == 0
    text = capsys.readouterr().out
    for arm in ("baseline-monomial-dad", "robust-basis", "robust-basis+hrp"):
        assert arm in text


def test_config_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dataset": {"synthetic": {"n": 40}},
                               "hops": 16}))
    rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "config field hops: 16 is greater than the maximum of 15" in capsys.readouterr().err


@pytest.mark.parametrize("over, says", [
    ({"hrp": {"schedule": "perhop"}}, "hrp.schedule"),
    ({"hrp": {"alpha_vectors": [[1.0, 0.5, 0.5, 0.5]]}}, "alpha_vectors"),
    ({"dataset": {"edges": "e.tsv", "undirected": False}}, "dataset.undirected"),
    ({"hrp": {"stages": 8, "epochs": 2}}, "maximum of 7"),
    ({"basis": "krylov", "krylov": {"order": 3}}, "hops + 1 = 4"),
])
def test_config_only_errors_exit_2_before_any_product(tmp_path, capsys, over, says):
    cfg = write_config(tmp_path, **over)
    before = graph.spmm_call_count()
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert says in capsys.readouterr().err
    assert graph.spmm_call_count() == before
    assert not (tmp_path / "r").exists()


def test_a_non_finite_config_number_exits_2_before_the_run(tmp_path, capsys):
    cfg = write_config(tmp_path, train={"epochs": 3, "batch_size": 16, "trunk": [8],
                                        "lr": float("nan")})
    assert "NaN" in cfg.read_text()  # json writes and reads it
    run_dir = tmp_path / "r"
    rc = main(["train", "--config", str(cfg), "--out", str(run_dir)])
    assert rc == 2
    assert "config field train.lr" in capsys.readouterr().err
    assert not run_dir.exists()


def test_a_non_finite_option_exits_2_before_the_bank(dataset, tmp_path, capsys):
    before = graph.spmm_call_count()
    rc = main(["preprocess", "--edges", str(dataset / "edges.tsv"),
               "--features", str(dataset / "features.fmx"), "--basis", "jacobi",
               "--alpha", "nan", "--out", str(tmp_path / "b.hbk")])
    assert rc == 2
    assert "config field jacobi.alpha" in capsys.readouterr().err
    assert graph.spmm_call_count() == before
    assert not (tmp_path / "b.hbk").exists()


def test_a_negative_seed_override_exits_2_before_the_run(tmp_path, capsys):
    run_dir = tmp_path / "r"
    rc = main(["train", "--config", str(write_config(tmp_path)), "--seed", "-1",
               "--out", str(run_dir)])
    assert rc == 2
    assert "config field seeds.0" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize("over, says", [
    ({"basis": "jacobi", "jacobi": {"alpha": -1.5}},
     "config field jacobi.alpha: -1.5 is less than or equal to the minimum of -1"),
    ({"seeds": [2**32]}, "config field seeds.0: 4294967296 is greater than the maximum"),
    ({"calibration": {"seed": -1}}, "config field calibration.seed: -1 is less than"),
    # SyntheticSpec's own rules, which no single schema field states
    ({"dataset": {"synthetic": {"n": 8, "blocks": 9}}}, "block count must lie in [1, n]"),
    ({"dataset": {"synthetic": {"generator": "spectral-signal", "n": 5000}}},
     "limited to 4096 nodes"),
], ids=["jacobi-alpha", "seed-past-32-bits", "negative-calibration-seed", "blocks-past-n",
        "dense-limit"])
def test_a_bound_breach_exits_2_before_the_run_directory(tmp_path, capsys, over, says):
    cfg = write_config(tmp_path, **over)
    with pytest.raises(ConfigError) as err:
        validate_config(json.loads(cfg.read_text()))
    assert says in str(err.value)
    run_dir = tmp_path / "r"
    rc = main(["train", "--config", str(cfg), "--out", str(run_dir)])
    assert rc == 2
    assert says in capsys.readouterr().err
    assert not run_dir.exists()


def test_a_jacobi_weight_breach_exits_2_before_the_graph_is_read(tmp_path, capsys):
    rc = main(["preprocess", "--edges", str(tmp_path / "missing.tsv"),
               "--features", str(tmp_path / "missing.fmx"), "--basis", "jacobi",
               "--alpha", "-2", "--out", str(tmp_path / "b.hbk")])
    assert rc == 2
    assert "config field jacobi.alpha" in capsys.readouterr().err


def test_a_generate_seed_past_32_bits_exits_2_before_writing(tmp_path, capsys):
    out = tmp_path / "D"
    rc = main(["generate", "--nodes", "40", "--seed", str(2**32), "--out", str(out)])
    assert rc == 2
    assert "config field seeds.0" in capsys.readouterr().err
    assert not out.exists()


# sizes past any machine's physical memory: each check fails before numpy allocates
def test_calibration_probes_past_physical_memory_exit_3(dataset, capsys):
    before = graph.spmm_call_count()
    rc = main(["calibrate", "--edges", str(dataset / "edges.tsv"), "--probes", str(10**12)])
    assert rc == 3
    assert "calibration probes on 40 nodes" in capsys.readouterr().err
    assert graph.spmm_call_count() == before


@pytest.mark.parametrize("over, says", [
    ({"train": {"epochs": 1, "trunk": [10**12]}}, "mlp parameters"),
    ({"backbone": "gru", "train": {"epochs": 1, "state_dim": 10**7}}, "gru parameters"),
    ({"dataset": {"synthetic": {"n": 40, "feature_dim": 10**12}}}, "feature channels"),
], ids=["mlp-trunk", "gru-state", "feature-dim"])
def test_a_run_sized_past_physical_memory_exits_3(tmp_path, capsys, over, says):
    rc = main(["train", "--config", str(write_config(tmp_path, **over)),
               "--out", str(tmp_path / "r")])
    assert rc == 3
    err = capsys.readouterr().err
    assert says in err and "physical memory" in err


def test_generate_past_physical_memory_exits_3_before_writing(tmp_path, capsys):
    out = tmp_path / "D"
    rc = main(["generate", "--nodes", "40", "--feature-dim", str(10**12), "--out", str(out)])
    assert rc == 3
    assert "physical memory" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_refuses_a_bank_the_checkpoint_does_not_fit(dataset, tmp_path, capsys):
    files = {k: str(dataset / f) for k, f in (("edges", "edges.tsv"),
                                              ("features", "features.fmx"),
                                              ("labels", "labels.tsv"))}
    run_dir = tmp_path / "run"
    rc = main(["train", "--config", str(write_config(tmp_path, dataset=files)),
               "--out", str(run_dir)])
    assert rc == 0
    other = tmp_path / "b2.hbk"
    rc = main(["preprocess", "--edges", files["edges"], "--features", files["features"],
               "--basis", "legendre", "--hops", "2", "--out", str(other)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(run_dir / "model.mdl"), "--bank", str(other),
               "--labels", files["labels"]])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "do not fit the model" in captured.err


def test_a_missing_labels_file_exits_3(dataset, tmp_path, capsys):
    ds = {"edges": str(dataset / "edges.tsv"), "features": str(dataset / "features.fmx"),
          "labels": str(tmp_path / "missing.tsv")}
    rc = main(["train", "--config", str(write_config(tmp_path, dataset=ds)),
               "--out", str(tmp_path / "r")])
    assert rc == 3
    assert "missing.tsv" in capsys.readouterr().err


def test_labels_a_run_cannot_use_exit_3_before_the_bank(dataset, tmp_path, capsys):
    rows = (dataset / "labels.tsv").read_text().splitlines()

    def files(name, drop):
        path = tmp_path / name
        path.write_text("".join(r + "\n" for r in rows if not r.endswith(drop)))
        return {"edges": str(dataset / "edges.tsv"),
                "features": str(dataset / "features.fmx"), "labels": str(path)}

    three = {"synthetic": {"generator": "sbm", "n": 40, "blocks": 3,
                           "p_intra": 0.2, "p_inter": 0.05, "feature_dim": 3}}
    for over, says in (
            ({"dataset": files("no_val.tsv", "\tval")}, "no val nodes"),
            ({"dataset": three, "metric": "roc_auc"}, "needs 2 classes"),
            ({"dataset": files("val0.tsv", "\t1\tval"), "metric": "roc_auc"},
             "both classes among the val nodes")):
        before = graph.spmm_call_count()
        rc = main(["train", "--config", str(write_config(tmp_path, **over)),
                   "--out", str(tmp_path / "r")])
        assert rc == 3
        assert says in capsys.readouterr().err
        assert graph.spmm_call_count() == before


def test_data_error_exits_3(dataset, tmp_path, capsys):
    rc = main(["preprocess", "--edges", str(tmp_path / "missing.tsv"),
               "--features", str(dataset / "features.fmx"),
               "--out", str(tmp_path / "b.hbk")])
    assert rc == 3
    assert "data error" in capsys.readouterr().err
    # malformed labels: node id beyond the graph
    labels = tmp_path / "labels.tsv"
    labels.write_text("99\t0\ttrain\n")
    bank_path = tmp_path / "bank.hbk"
    main(["preprocess", "--edges", str(dataset / "edges.tsv"),
          "--features", str(dataset / "features.fmx"),
          "--out", str(bank_path)])
    run_dir = tmp_path / "run"
    cfg = write_config(tmp_path)
    main(["train", "--config", str(cfg), "--out", str(run_dir)])
    rc = main(["evaluate", "--model", str(run_dir / "model.mdl"),
               "--bank", str(run_dir / "bank.hbk"), "--labels", str(labels)])
    assert rc == 3
    # a checkpoint whose config block does not describe a model
    bare = tmp_path / "bare.mdl"
    save_checkpoint(str(bare), {}, {"backbone": "mlp"})
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(bare), "--bank", str(run_dir / "bank.hbk"),
               "--labels", str(run_dir.parent / "data" / "labels.tsv")])
    assert rc == 3
    assert "lacks num_classes" in capsys.readouterr().err


def test_node_id_past_the_supported_maximum_exits_3(tmp_path, capsys):
    edges = tmp_path / "edges.tsv"
    edges.write_text("0\t1000000000000\n")
    rc = main(["calibrate", "--edges", str(edges)])
    assert rc == 3
    assert "supported maximum" in capsys.readouterr().err


def test_graph_past_physical_memory_exits_3(tmp_path, capsys, monkeypatch):
    # the patch fails first where build_graph has no preflight, so this
    # never reaches the 32 GB of row pointers an id of 2e9 would size
    monkeypatch.setattr(graph, "_physical_bytes", lambda: 2**30)
    edges = tmp_path / "edges.tsv"
    edges.write_text("0\t2000000000\n")
    rc = main(["calibrate", "--edges", str(edges)])
    assert rc == 3
    assert "physical memory" in capsys.readouterr().err


@pytest.mark.parametrize("stages,code", [(2, 3), (1, 0)])
def test_stage_boundary_past_physical_memory_exits_3(tmp_path, capsys, monkeypatch,
                                                     stages, code):
    # the largest phase of a 1-stage run's memory plan, 40 x 32 features over
    # 7 hops: the bank, the graph and the model fit, and a 2-stage run's
    # boundary does not
    synthetic = {"generator": "sbm", "n": 40, "blocks": 2, "p_intra": 0.2,
                 "p_inter": 0.05, "feature_dim": 32}
    cfg = write_config(tmp_path, dataset={"synthetic": synthetic}, hops=6,
                       hrp={"stages": stages, "epochs": 3})
    one = validate_config({**json.loads(cfg.read_text()), "hrp": {"stages": 1, "epochs": 3}})
    g, x, _, _ = prepare_dataset(one, 0)
    fits = max(experiment.memory_plan(one, g.n, g.num_edges, x.shape[1]).values())
    monkeypatch.setattr(graph, "_physical_bytes", lambda: fits)
    before = graph.spmm_call_count()
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == code
    if code:
        assert "stage boundary" in capsys.readouterr().err
        assert graph.spmm_call_count() == before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_error_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, train={"epochs": 3, "batch_size": 8,
                                        "trunk": [8], "lr": 1e30},
                       hrp={"stages": 1, "epochs": 3})
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == 4
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_bank_exits_4(dataset, tmp_path, capsys):
    huge = tmp_path / "huge.fmx"
    save_features(str(huge), 1e37 * load_features(str(dataset / "features.fmx")))
    rc = main(["preprocess", "--edges", str(dataset / "edges.tsv"),
               "--features", str(huge), "--basis", "monomial", "--operator", "lap",
               "--hops", "15", "--out", str(tmp_path / "b.hbk")])
    assert rc == 4
    assert "monomial bank slab" in capsys.readouterr().err
    assert not (tmp_path / "b.hbk").exists()


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_options_restate_no_library_default():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    checked = set()
    for name, parser in sub.choices.items():
        if parser.argument_default is not argparse.SUPPRESS:
            continue
        checked.add(name)
        for action in parser._actions:
            if action.option_strings:
                assert action.default is argparse.SUPPRESS, (name, action.option_strings)
    assert checked == {"generate", "preprocess", "calibrate", "evaluate", "diagnose"}
