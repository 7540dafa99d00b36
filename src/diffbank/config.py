"""Experiment configuration: JSON schema, defaults, and dataclass adapters.

A config file is a single JSON object. Unknown keys are rejected so typos
fail loudly instead of silently running the default, and so are NaN and
infinity. The schema states every per-field bound once (the hop, Lanczos
step and stage budgets, the moment order, gamma, the Jacobi weights,
seeds), so a bound error names its field. ``validate_config`` adds only
the cross-field rules no class owns and builds the ``StagePlan`` and
``SyntheticSpec``, whose own rules run there too, so a bad config dies
before any graph is loaded.

The ``train``, ``hrp`` and ``dataset.synthetic`` sections map one to one
onto the fields of ``TrainConfig``, ``StagePlan`` and ``SyntheticSpec``,
and a key the user leaves out takes the dataclass default; the calibration
defaults are those of ``calibration.calibrate``. Each default has that one
home, and ``DEFAULTS`` holds only the top-level choices. The ``hrp``
section sets the stage schedule only: re-propagation reuses the recipe
that built the preprocessing bank, so it has no keys of its own.

``config_hash`` is the sha256 of the canonical re-serialization (sorted
keys, no whitespace), so formatting and key order do not change identity.
"""

import copy
import hashlib
import inspect
import json
import math

import jsonschema

from .backbone import TrainConfig
from .banks import MAX_HOPS
from .calibration import DEFAULT_GRID, calibrate
from .errors import ConfigError
from .graph import OPERATOR_KINDS
from .hrp import MAX_STAGES, RECIPE_BASES, StagePlan, krylov_order
from .krylov import MAX_LANCZOS_STEPS
from .rng import MAX_SEED
from .synth import SyntheticSpec

__all__ = [
    "CONFIG_SCHEMA", "DEFAULTS", "load_config",
    "validate_config", "config_hash", "to_train_config", "to_stage_plan",
    "to_synthetic_spec",
]

_OPERATORS = list(OPERATOR_KINDS)
_BASES = [*RECIPE_BASES, "auto"]  # auto: a calibrated jacobi recipe
_SEED = {"type": "integer", "minimum": 0, "maximum": MAX_SEED}
_JACOBI_WEIGHT = {"type": "number", "exclusiveMinimum": -1}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "dataset": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "synthetic": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "generator": {"enum": ["sbm", "spectral-signal"]},
                        "n": {"type": "integer", "minimum": 4},
                        "blocks": {"type": "integer", "minimum": 1},
                        "p_intra": {"type": "number", "minimum": 0, "maximum": 1},
                        "p_inter": {"type": "number", "minimum": 0, "maximum": 1},
                        "feature_dim": {"type": "integer", "minimum": 1},
                        "snr": {"type": "number", "minimum": 0},
                        "noise": {"type": "number", "minimum": 0},
                        "signal_quantile": {"type": "number", "exclusiveMinimum": 0.5,
                                            "exclusiveMaximum": 1},
                        "confounder_modes": {"type": "integer", "minimum": 0},
                        "confounder_scale": {"type": "number", "minimum": 0},
                    },
                },
                "edges": {"type": "string"},
                "features": {"type": "string"},
                "labels": {"type": "string"},
                "undirected": {"type": "boolean"},
                "add_self_loops": {"type": "boolean"},
                "num_nodes": {"type": "integer", "minimum": 1},
            },
        },
        "operator": {"enum": _OPERATORS},
        "basis": {"enum": _BASES},
        "hops": {"type": "integer", "minimum": 0, "maximum": MAX_HOPS},
        "jacobi": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "alpha": _JACOBI_WEIGHT,
                "beta": _JACOBI_WEIGHT,
            },
        },
        "calibration": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                # a series past the density grid's point count is not resolved on it
                "order": {"type": "integer", "minimum": 1, "maximum": DEFAULT_GRID},
                "probes": {"type": "integer", "minimum": 1},
                "gamma": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "seed": _SEED,
            },
        },
        "krylov": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "order": {"type": ["integer", "null"], "minimum": 1,
                          "maximum": MAX_LANCZOS_STEPS},
            },
        },
        "backbone": {"enum": ["mlp", "gru"]},
        "train": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lr": {"type": "number", "exclusiveMinimum": 0},
                "weight_decay": {"type": "number", "minimum": 0},
                "batch_size": {"type": "integer", "minimum": 1},
                "epochs": {"type": "integer", "minimum": 1},
                "trunk": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                "state_dim": {"type": "integer", "minimum": 1},
                "dropout": {"type": "number", "minimum": 0, "maximum": 0.99},
                "input_dropout": {"type": "number", "minimum": 0, "maximum": 0.99},
                "readout": {"enum": ["last", "mean"]},
                "patience": {"type": "integer", "minimum": 1},
            },
        },
        "hrp": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "stages": {"type": "integer", "minimum": 1, "maximum": MAX_STAGES},
                "epochs": {
                    "anyOf": [
                        {"type": "integer", "minimum": 1},
                        {"type": "array", "items": {"type": "integer", "minimum": 1}},
                    ]
                },
                "lambda0": {"type": "number", "minimum": 0, "maximum": 1},
                "schedule": {"enum": ["cosine", "constant"]},
                "warm_start": {"type": "boolean"},
                "patience": {"type": "integer", "minimum": 1},
            },
        },
        "metric": {"enum": ["accuracy", "roc_auc"]},
        "seeds": {"type": "array", "items": _SEED, "minItems": 1},
        "label_diffusion": {"type": "boolean"},
    },
    "required": ["dataset"],
}

_CALIBRATE_PARAMS = inspect.signature(calibrate).parameters

DEFAULTS = {
    "operator": "shifted",
    "basis": "auto",
    "hops": 6,
    "jacobi": {"alpha": 0.0, "beta": 0.0},
    "calibration": {
        key: _CALIBRATE_PARAMS[key].default
        for key in CONFIG_SCHEMA["properties"]["calibration"]["properties"]},
    "krylov": {"order": None},
    "backbone": "mlp",
    "train": {},
    "hrp": {},
    "metric": "accuracy",
    "seeds": [0],
    "label_diffusion": False,
}


def _merge(base, override):
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def _check_finite(node, path=()) -> None:
    """Raise ConfigError naming the field of a NaN or infinity, which ``json`` reads."""
    if isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"config field {'.'.join(map(str, path))}: {node} is not finite")
    for key, value in (node.items() if isinstance(node, dict) else
                       enumerate(node) if isinstance(node, list) else ()):
        _check_finite(value, (*path, key))


def validate_config(raw: dict) -> dict:
    """Validate against the schema, apply defaults, and run the cross-field rules."""
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        path = ".".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config field {path}: {exc.message}") from None
    _check_finite(raw)

    cfg = _merge(DEFAULTS, raw)

    ds = cfg["dataset"]
    if "synthetic" in ds:
        if "edges" in ds or "features" in ds or "labels" in ds:
            raise ConfigError("dataset must be either synthetic or file-based, not both")
        to_synthetic_spec(cfg, 0)
    elif "edges" not in ds:
        raise ConfigError("file-based dataset is missing edges")

    if cfg["basis"] != "monomial" and cfg["operator"] != "shifted":
        raise ConfigError(f"the {cfg['basis']} basis runs on the shifted operator only")
    if not ds.get("undirected", True) and cfg["operator"] != "da":
        raise ConfigError(f"dataset.undirected false needs operator da; operator "
                          f"{cfg['operator']} runs on undirected graphs only")
    if cfg["basis"] == "krylov":
        krylov_order(cfg["hops"], cfg["krylov"]["order"])
    # the staged plan inherits the train budgets it does not set itself
    for key in ("epochs", "patience"):
        if key in cfg["train"]:
            cfg["hrp"].setdefault(key, cfg["train"][key])
    to_stage_plan(cfg)
    return cfg


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return validate_config(raw)


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def to_train_config(cfg: dict, seed: int) -> TrainConfig:
    return TrainConfig(**cfg["train"], metric=cfg["metric"], seed=seed)


def to_stage_plan(cfg: dict) -> StagePlan:
    return StagePlan(**cfg["hrp"])


def to_synthetic_spec(cfg: dict, seed: int) -> SyntheticSpec:
    return SyntheticSpec(**cfg["dataset"]["synthetic"], seed=seed)
