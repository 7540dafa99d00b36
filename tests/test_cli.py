import json
import os

import numpy as np
import pytest

from diffbank import SyntheticSpec, generate, graph, load_bank_file
from diffbank.cli import main
from diffbank.config import config_hash, load_config
from diffbank.experiment import run_seed
from diffbank.io import (load_features, save_checkpoint, save_edge_list, save_features,
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
    rc = main(common + ["--hops", "2", "--exact"] + out)
    assert rc == 0
    assert "calibrated weights" in capsys.readouterr().out
    assert load_bank_file(str(tmp_path / "b.hbk")).provenance["basis"] == "jacobi"


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


def test_train_honours_hrp_diagnostics(tmp_path, capsys):
    cfg = write_config(tmp_path, hrp={"stages": 2, "diagnostics": True})
    run_dir = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--out", str(run_dir)])
    assert rc == 0
    report = json.loads((run_dir / "report.json").read_text())
    assert report["total_diagnostic_spmm"] > 0
    assert report["stages"][0]["spectral_distance_to_x"] is not None


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
    lines = (run_dir / "epochs.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == [
        epoch for stage in result.stages for epoch in stage.history]


def test_calibrate_emits_json(dataset, tmp_path, capsys):
    rc = main(["calibrate", "--edges", str(dataset / "edges.tsv"), "--exact"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"delta", "alpha", "beta", "gamma", "moments",
                            "density"}
    assert -1.0 <= payload["delta"] <= 1.0
    assert len(payload["moments"]) == 21
    assert len(payload["density"]["grid"]) == len(payload["density"]["rho"])
    out = tmp_path / "cal.json"
    rc = main(["calibrate", "--edges", str(dataset / "edges.tsv"), "--exact",
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["delta"] == payload["delta"]


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


def test_diagnose_writes_sidecars(dataset, tmp_path, capsys):
    bank_path = tmp_path / "bank.hbk"
    main(["preprocess", "--edges", str(dataset / "edges.tsv"),
          "--features", str(dataset / "features.fmx"),
          "--basis", "monomial", "--operator", "dad", "--hops", "4",
          "--out", str(bank_path)])
    out_dir = tmp_path / "diag"
    rc = main(["diagnose", "--bank", str(bank_path),
               "--edges", str(dataset / "edges.tsv"),
               "--features", str(dataset / "features.fmx"),
               "--krylov-order", "5", "--out", str(out_dir)])
    assert rc == 0
    cond = (out_dir / "conditioning.csv").read_text().splitlines()
    assert cond[0] == "channel,cond,mean_abs_cos,g0,g1,g2,g3,g4"
    assert len(cond) == 1 + 3  # one row per channel
    ritz = (out_dir / "ritz.csv").read_text().splitlines()
    assert ritz[0] == "channel,ritz_value,weight"
    assert len(ritz) > 1
    only = tmp_path / "diag2"
    rc = main(["diagnose", "--bank", str(bank_path), "--out", str(only)])
    assert rc == 0
    assert not (only / "ritz.csv").exists()


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
    assert "hop budget" in capsys.readouterr().err


@pytest.mark.parametrize("over, says", [
    ({"hrp": {"stages": 2, "epochs": 2, "schedule": "perhop",
              "alpha_vectors": [[1.0, 0.5, 1.5, 0.5]]}}, "outside [0, 1]"),
    ({"hrp": {"stages": 2, "epochs": 2, "schedule": "perhop",
              "alpha_vectors": [[1.0, 0.5, 0.5]]}}, "hops + 1 = 4"),
    ({"hrp": {"stages": 2, "epochs": 2, "schedule": "perhop",
              "alpha_vectors": [[0.5, 0.5, 0.5, 0.5]]}}, "exactly 1"),
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


def _spill_config(tmp_path):
    return write_config(tmp_path, train={"epochs": 2, "batch_size": 16, "trunk": [8],
                                         "lr": 0.05},
                        hrp={"stages": 2, "epochs": 2, "diagnostics": True})


def test_experiment_creates_a_missing_workdir(tmp_path, capsys):
    work = tmp_path / "spill" / "deeper"
    rc = main(["experiment", "--config", str(_spill_config(tmp_path)),
               "--workdir", str(work)])
    assert rc == 0
    assert sorted(work.glob("hidden_seed0_s1_e*.npy"))


def test_experiment_refuses_an_unusable_workdir_before_training(tmp_path, capsys,
                                                                monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a seed ran before the workdir was checked")

    monkeypatch.setattr("diffbank.experiment.run_seed", no_training)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    rc = main(["experiment", "--config", str(_spill_config(tmp_path)),
               "--workdir", str(blocker / "spill")])
    assert rc == 3
    assert "workdir" in capsys.readouterr().err


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
