import dataclasses
import inspect
import json

import pytest

from diffbank import (ConfigError, StagePlan, SyntheticSpec, TrainConfig, calibrate,
                      validate_config)
from diffbank.cli import main
from diffbank.config import (CONFIG_SCHEMA, config_hash, load_config, to_stage_plan,
                             to_synthetic_spec, to_train_config)
from diffbank.experiment import prepare_dataset

from test_acceptance import DESK_RAW
from test_docs import README, _code_blocks


def minimal():
    return {"dataset": {"synthetic": {"generator": "sbm", "n": 50}}}


def test_defaults_fill_in():
    cfg = validate_config(minimal())
    assert cfg["operator"] == "shifted"
    assert cfg["basis"] == "auto"
    assert cfg["hops"] == 6
    assert cfg["calibration"]["order"] == 20
    assert cfg["calibration"]["gamma"] == 0.5
    assert to_stage_plan(cfg).stages == 1  # StagePlan holds the hrp defaults
    assert cfg["seeds"] == [0]
    assert cfg["label_diffusion"] is False


def test_overrides_merge_without_clobbering_siblings():
    raw = minimal()
    raw["calibration"] = {"gamma": 0.8}
    cfg = validate_config(raw)
    assert cfg["calibration"]["gamma"] == 0.8
    assert cfg["calibration"]["order"] == 20  # sibling default survives
    assert raw["calibration"] == {"gamma": 0.8}  # input left untouched


def test_unknown_keys_rejected_with_dotted_path():
    raw = minimal()
    raw["calibration"] = {"probes": 8, "windup": 3}
    with pytest.raises(ConfigError, match="calibration"):
        validate_config(raw)
    with pytest.raises(ConfigError, match="<root>|dataset"):
        validate_config({"dataset": {}, "turbo": True})
    # the retired staged-run diagnostics switch fails loudly, not silently
    with pytest.raises(ConfigError, match="hrp"):
        validate_config({**minimal(), "hrp": {"diagnostics": True}})
    # so do the retired per-hop blend weights
    with pytest.raises(ConfigError, match="hrp"):
        validate_config({**minimal(), "hrp": {"alpha_vectors": [[1.0]]}})


def test_dataset_exclusivity_and_required_files():
    raw = {"dataset": {"synthetic": {"n": 50}, "edges": "e.tsv",
                       "labels": "l.tsv"}}
    with pytest.raises(ConfigError, match="not both"):
        validate_config(raw)
    with pytest.raises(ConfigError, match="missing edges"):
        validate_config({"dataset": {"labels": "l.tsv"}})
    # only the dataset loader reads labels, so it checks for them, before
    # it opens any file (e.tsv does not exist)
    cfg = validate_config({"dataset": {"edges": "e.tsv"}})
    with pytest.raises(ConfigError, match="missing labels"):
        prepare_dataset(cfg, 0)
    cfg = validate_config({"dataset": {"edges": "e.tsv", "labels": "l.tsv"}})
    assert cfg["dataset"]["edges"] == "e.tsv"


def test_budget_errors():
    raw = minimal()
    raw["hops"] = 16
    with pytest.raises(ConfigError,
                       match="config field hops: 16 is greater than the maximum of 15"):
        validate_config(raw)
    raw = minimal()
    raw["krylov"] = {"order": 16}
    with pytest.raises(ConfigError,
                       match="config field krylov.order: 16 is greater than the maximum of 15"):
        validate_config(raw)


@pytest.mark.parametrize("over, field", [
    ({"hrp": {"stages": 8}}, "hrp.stages"),
    ({"calibration": {"gamma": 0}}, "calibration.gamma"),
    ({"calibration": {"gamma": 1}}, "calibration.gamma"),
    ({"jacobi": {"beta": -1}}, "jacobi.beta"),
    ({"seeds": [0, 2**32]}, "seeds.1"),
    ({"calibration": {"seed": 2**32}}, "calibration.seed"),
    ({"dataset": {"synthetic": {"signal_quantile": 0.5}}}, "dataset.synthetic.signal_quantile"),
    ({"dataset": {"synthetic": {"signal_quantile": 1}}}, "dataset.synthetic.signal_quantile"),
])
def test_a_field_bound_is_a_schema_error_naming_the_field(over, field):
    with pytest.raises(ConfigError, match=f"^config field {field}: "):
        validate_config({**minimal(), **over})


@pytest.mark.parametrize("basis", ["legendre", "chebyshev", "jacobi"])
def test_polynomial_bases_need_the_shifted_operator(basis):
    for operator in ("dad", "da", "lap"):
        raw = minimal()
        raw.update({"basis": basis, "operator": operator})
        with pytest.raises(ConfigError, match=f"the {basis} basis runs on the shifted"):
            validate_config(raw)
    raw = minimal()
    raw["basis"] = basis
    assert validate_config(raw)["operator"] == "shifted"


def test_operator_basis_compatibility():
    raw = minimal()
    raw.update({"basis": "krylov", "operator": "dad"})
    with pytest.raises(ConfigError, match="shifted"):
        validate_config(raw)
    raw = minimal()
    raw.update({"basis": "auto", "operator": "dad"})
    with pytest.raises(ConfigError, match="shifted"):
        validate_config(raw)
    raw = minimal()
    raw.update({"basis": "monomial", "operator": "dad"})
    assert validate_config(raw)["operator"] == "dad"
    raw = minimal()
    raw["calibration"] = {"gamma": 1.0}
    with pytest.raises(ConfigError, match="gamma"):
        validate_config(raw)


def test_train_epochs_propagate_to_hrp_default():
    raw = minimal()
    raw["train"] = {"epochs": 33}
    cfg = validate_config(raw)
    assert cfg["hrp"]["epochs"] == 33
    raw["hrp"] = {"epochs": 7}
    cfg = validate_config(raw)
    assert cfg["hrp"]["epochs"] == 7


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(arr))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal()))
    cfg = load_config(str(good))
    assert cfg["hops"] == 6


def test_config_hash_stable_under_key_order():
    a = config_hash({"b": 1, "a": {"y": 2, "x": 3}})
    b = config_hash({"a": {"x": 3, "y": 2}, "b": 1})
    assert a == b and len(a) == 64
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_adapters():
    raw = minimal()
    raw["train"] = {"lr": 0.2, "trunk": [32, 16], "patience": 9}
    raw["metric"] = "roc_auc"
    raw["hrp"] = {"stages": 3, "lambda0": 0.25}
    raw["dataset"]["synthetic"].update({"snr": 2.5, "p_intra": 0.02})
    cfg = validate_config(raw)
    tc = to_train_config(cfg, seed=4)
    assert tc.lr == 0.2 and tc.trunk == (32, 16) and tc.seed == 4
    assert tc.metric == "roc_auc" and tc.patience == 9
    plan = to_stage_plan(cfg)
    assert plan.stages == 3 and plan.lambda0 == 0.25
    assert plan.patience == 9  # falls back to the train patience
    spec = to_synthetic_spec(cfg, seed=4)
    assert spec.n == 50 and spec.snr == 2.5 and spec.seed == 4
    assert spec.p_intra == 0.02


def test_schema_sections_are_the_dataclass_fields():
    props = CONFIG_SCHEMA["properties"]

    def fields(cls, *skip):
        return {f.name for f in dataclasses.fields(cls)} - set(skip)

    assert set(props["train"]["properties"]) == fields(TrainConfig, "metric", "seed")
    assert set(props["hrp"]["properties"]) == fields(StagePlan)
    synthetic = props["dataset"]["properties"]["synthetic"]["properties"]
    assert set(synthetic) == fields(SyntheticSpec, "seed")
    calibration = set(props["calibration"]["properties"])
    assert calibration <= set(inspect.signature(calibrate).parameters)


def test_removed_knobs_are_config_errors(tmp_path, capsys):
    # re-propagation reuses the preprocessing bank's recipe, so the hrp
    # section has no recipe keys
    hrp_recipe = [{"hrp": {key: value}} for key, value in (
        ("family", "chebyshev"), ("operator", "dad"), ("jacobi_alpha", 0.7),
        ("jacobi_beta", 0.1), ("lanczos_order", 9))]
    # every stage continues from its best-validation checkpoint
    screening = [{"hrp": {"checkpoint_policy": "best-val"}}, {"hrp": {"screen_epochs": 10}}]
    # Gaussian probes on the fixed grid; p_intra and p_inter set homophily
    calibration = [{"calibration": {key: value}} for key, value in (
        ("probe_kind", "gaussian"), ("grid", 512), ("exact", False))]
    homophily = {"dataset": {"synthetic": {**minimal()["dataset"]["synthetic"],
                                           "homophily": None}}}
    path = tmp_path / "config.json"
    for over in ({"row_scale": True}, {"krylov": {"reorth": "full"}}, *hrp_recipe,
                 *screening, *calibration, homophily):
        with pytest.raises(ConfigError, match="Additional properties") as err:
            validate_config({**minimal(), **over})
        node = over
        while isinstance(node, dict):
            key, node = list(node.items())[-1]
        assert repr(key) in str(err.value)  # the error names the field
        path.write_text(json.dumps({**minimal(), **over}))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    assert not (tmp_path / "r").exists()



# a validated config, written out as JSON, is a config file like any other
ROUND_TRIP = {
    "readme": json.loads(_code_blocks(README, "json")[0]),
    "desk": DESK_RAW,
    "krylov": {**minimal(), "basis": "krylov", "hops": 4},
    "krylov-order": {**minimal(), "basis": "krylov", "hops": 4, "krylov": {"order": 6}},
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP))
def test_a_validated_config_validates_again_unchanged(name):
    cfg = json.loads(json.dumps(validate_config(ROUND_TRIP[name])))
    again = validate_config(cfg)
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
