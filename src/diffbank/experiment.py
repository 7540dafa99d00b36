"""Seeded experiment harness: dataset -> bank -> staged training -> metrics.

One seed is one full run: build (or load) the dataset, build the feature
bank with ``hrp.diffuse`` (which re-propagates too), train through the stage
plan, and score the test split at the best-validation checkpoint.
``run_seed`` is the only driver of that run and the only place its report
row is assembled; ``diffbank train`` writes that row as ``report.json``.
``run_experiment`` repeats it over the config's seed list, keeps the rows,
and reports mean and sample std.

``run_ablation`` runs three arms on shared seeds so the deltas isolate each
ingredient: plain power-iteration features on the random-walk-symmetric
operator, the configured robust basis without staging, and the full staged
plan. All arms of one seed draw the same dataset, and on a spectral-signal
dataset they share its dense eigendecomposition: ``synth`` memoizes it per
(spec, seed) process-wide for the 64 most recent specs, so for up to 64
seeds the second and third arm do not decompose again. A file dataset is
parsed once per process while its files are unchanged, so every seed and
arm shares one read-only graph, feature matrix and label set.

Seeds run one after another on the calling thread, so each seed's product
counts are its own. Its sparse products and the dense passes around them
run on the ``graph`` kernel's threads, one per core, which give every row
the serial sum: no number depends on the thread count.
"""

import hashlib
import json
import os
import threading
import time

import numpy as np

from .backbone import label_features
# imported only for perfbench's tracer bindings, as are the krylov names (ROADMAP
# item 6, "a per-phase cost meter"); hrp.diffuse builds banks
from .banks import chebyshev_bank, jacobi_bank, legendre_bank, monomial_bank  # noqa: F401
from .calibration import calibrate
from .config import (config_hash, to_stage_plan, to_synthetic_spec, to_train_config,
                     validate_config)
from .errors import ConfigError, DataError
from .graph import check_fits, graph_hash, make_operator, spmm_call_count
from .hrp import RunResult, StageResult, diffuse, evaluate_split, run_hrp_training
from .io import load_edge_list, load_features, load_features_csv, load_labels
from .krylov import batched_lanczos, ritz_bank, ritz_bank_as_hopbank  # noqa: F401
from .synth import generate

__all__ = ["prepare_dataset", "check_auc_labels", "load_graph", "load_feature_file",
           "build_bank", "run_seed", "run_experiment", "run_ablation", "summarize"]


def _array_hash(a: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(a.shape).encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def load_graph(ds: dict):
    """The graph of a file-based ``dataset`` section."""
    return load_edge_list(ds["edges"], ds.get("num_nodes"),
                          undirected=ds.get("undirected", True),
                          add_self_loops=ds.get("add_self_loops", False))


def load_feature_file(path: str, n: int) -> np.ndarray:
    """An ``.fmx`` or delimited-text feature matrix with one row per node."""
    x = load_features(path) if path.endswith(".fmx") else load_features_csv(path)
    if x.shape[0] != n:
        raise DataError(f"feature rows ({x.shape[0]}) do not match the graph "
                        f"({n} nodes)")
    return x


# the most recently parsed file dataset, under the stamps of its files
_FILE_MEMO: dict = {}
_FILE_MEMO_LOCK = threading.Lock()


def _file_stamp(path: str) -> tuple:
    st = os.stat(path)
    return os.path.realpath(path), st.st_size, st.st_mtime_ns, st.st_ino


def _content_hashes(g, x, lv) -> dict:
    return {"graph_hash": graph_hash(g), "feature_hash": _array_hash(x),
            "label_hash": _array_hash(lv.labels)}


def _load_files(ds: dict):
    """(graph, features, labels, content hashes) of a file-based ``dataset``.

    Parsed once per process while the files keep their path, size, mtime and
    inode and the section its graph options. Only the latest dataset is
    held, and it is dropped before another is parsed. The arrays are
    read-only because every caller shares them.
    """
    paths = [ds[k] for k in ("edges", "labels", "features") if k in ds]
    try:
        key = (tuple(_file_stamp(p) for p in paths), ds.get("num_nodes"),
               ds.get("undirected", True), ds.get("add_self_loops", False))
    except OSError:
        key = None  # the loaders report the unreadable file
    with _FILE_MEMO_LOCK:
        if key is None or _FILE_MEMO.get("key") != key:
            _FILE_MEMO.clear()
            g = load_graph(ds)
            lv = load_labels(ds["labels"], g.n)
            x = load_feature_file(ds["features"], g.n) if "features" in ds else label_features(lv)
            for a in (x, lv.labels, lv.train_mask, lv.val_mask, lv.test_mask):
                a.setflags(write=False)
            _FILE_MEMO.update(key=key, data=(g, x, lv, _content_hashes(g, x, lv)))
        return _FILE_MEMO["data"]


def check_auc_labels(lv, splits, num_classes: int | None = None) -> None:
    """Raise DataError unless ``roc_auc`` can score ``splits`` of the labels:
    2 classes in the labels (and in a model's ``num_classes``, if given),
    and both among each split's nodes."""
    for what, count in (("the labels have", lv.num_classes), ("the model has", num_classes)):
        if count not in (None, 2):
            raise DataError(f"roc_auc needs 2 classes, {what} {count}")
    for split in splits:
        if np.unique(lv.labels[getattr(lv, f"{split}_mask")]).size < 2:
            raise DataError(f"roc_auc needs both classes among the {split} nodes")


def prepare_dataset(cfg: dict, seed: int):
    """Return (graph, features, labels, info). Synthetic specs draw from the
    seed; file datasets are seed-independent, need a ``labels`` file, and
    are parsed once per process (see ``_load_files``).
    Labels with an empty train, val or test split raise DataError, and so
    do labels ``roc_auc`` cannot score: a class count other than 2, or a
    val or test split missing a class."""
    ds = cfg["dataset"]
    if "synthetic" in ds:
        spec = to_synthetic_spec(cfg, seed)
        g, x, lv = generate(spec)
        info = {"source": "synthetic", "generator": spec.generator}
        hashes = None
    else:
        if "labels" not in ds:
            raise ConfigError("file-based dataset is missing labels")
        g, x, lv, hashes = _load_files(ds)
        info = {"source": "files", "edges": ds["edges"]}
    for split in ("train", "val", "test"):
        if not getattr(lv, f"{split}_mask").any():
            raise DataError(f"the labels have no {split} nodes")
    if cfg["metric"] == "roc_auc":
        check_auc_labels(lv, ("val", "test"))
    if cfg.get("label_diffusion"):
        op = make_operator(g, "da")
        x = np.concatenate([x, label_features(lv, op)], axis=1)
        hashes = None
    info.update(hashes or _content_hashes(g, x, lv))
    return g, x, lv, info


def build_bank(cfg: dict, graph, x):
    """Construct the hop bank named by the config with ``hrp.diffuse``.

    Returns (bank, details) where details carries the calibrated Jacobi
    weights of the ``auto`` basis and the skipped and breakdown channels of
    a ``krylov`` bank's provenance. Every basis but ``monomial`` runs on the
    shifted operator. A bank whose float32 slabs, (hops + 1) * n * d * 4
    bytes, would not fit in physical memory raises DataError before any
    product.
    """
    basis = cfg["basis"]
    hops = cfg["hops"]
    details = {"basis": basis}
    if basis != "monomial" and cfg["operator"] != "shifted":
        raise ConfigError(f"the {basis} basis runs on the shifted operator, "
                          f"config says {cfg['operator']!r}")
    d = np.shape(x)[1]
    check_fits(4 * (hops + 1) * graph.n * d,
               f"a {hops}-hop bank of {graph.n} x {d} features")
    spmm0 = spmm_call_count()
    t0 = time.perf_counter()
    op = make_operator(graph, cfg["operator"])
    # diffuse reads only the keys its basis needs
    recipe = {"basis": basis, **cfg["jacobi"], **cfg["krylov"]}
    if basis == "auto":
        weights, density, moments = calibrate(op, **cfg["calibration"])
        details["calibration"] = {
            "delta": weights.delta, "alpha": weights.alpha,
            "beta": weights.beta, "gamma": weights.gamma,
            "moments": [float(m) for m in moments.values],
        }
        recipe = {"basis": "jacobi", "alpha": weights.alpha, "beta": weights.beta}
    bank = diffuse(op, x, hops, recipe)
    if basis == "krylov":
        for key in ("skipped_channels", "breakdown_channels"):
            details[key] = bank.provenance[key]
    details["spmm"] = spmm_call_count() - spmm0
    details["seconds"] = time.perf_counter() - t0
    return bank, details


def _stage_dict(r: StageResult) -> dict:
    return {
        "stage": r.stage,
        "selected_epoch": r.selected_epoch,
        "val_metric": r.val_metric,
        "epochs_run": len(r.history),
        "stopped_early": r.stopped_early,
        "diffusion_spmm": r.diffusion_spmm,
        "train_seconds": r.train_seconds,
        "diffusion_seconds": r.diffusion_seconds,
    }


def run_seed(cfg: dict, seed: int) -> tuple[dict, RunResult]:
    """One complete run for one seed.

    Returns the flat report row and the ``RunResult``, whose best model,
    parameters and bank a caller may save.
    """
    g, x, lv, data_info = prepare_dataset(cfg, seed)
    bank, bank_info = build_bank(cfg, g, x)
    plan = to_stage_plan(cfg)
    tcfg = to_train_config(cfg, seed)
    result = run_hrp_training(plan, bank, g, lv, tcfg,
                              model_kind=cfg["backbone"])
    test = evaluate_split(result.model, result.params, result.bank, lv,
                          lv.test_mask, cfg["metric"])
    stages = result.stages
    diffusion = sum(r.diffusion_spmm for r in stages)
    total_spmm = bank_info["spmm"] + diffusion
    row = {
        "seed": seed,
        "test_metric": float(test),
        "val_metric": float(result.best_val),
        "best_stage": result.best_stage,
        "best_epoch": result.best_epoch,
        "bank": bank_info,
        "data": data_info,
        "stages": [_stage_dict(r) for r in stages],
        "total_diffusion_spmm": diffusion,
        "preprocess_spmm": bank_info["spmm"],
        "total_spmm": total_spmm,
        "hrp_spmm_share": diffusion / total_spmm if total_spmm else 0.0,
        "train_seconds": sum(r.train_seconds for r in stages),
        "diffusion_seconds": sum(r.diffusion_seconds for r in stages),
    }
    return row, result


def summarize(rows: list) -> dict:
    vals = np.array([r["test_metric"] for r in rows], dtype=np.float64)
    return {
        "mean": float(vals.mean()),
        "std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
        "per_seed": [float(v) for v in vals],
    }


def run_experiment(cfg: dict) -> dict:
    seeds = cfg["seeds"]
    rows = [run_seed(cfg, s)[0] for s in seeds]  # only the row: no bank outlives its seed
    return {
        "config_hash": config_hash(cfg),
        "metric": cfg["metric"],
        "seeds": list(seeds),
        "runs": rows,
        "summary": summarize(rows),
    }


def _arm_config(cfg: dict, *, basis=None, operator=None, stages=None) -> dict:
    arm = json.loads(json.dumps(cfg))
    if basis is not None:
        arm["basis"] = basis
    if operator is not None:
        arm["operator"] = operator
    if stages is not None:
        hrp = arm["hrp"]
        hrp["stages"] = stages
        eps = hrp.get("epochs")
        if isinstance(eps, list):
            hrp["epochs"] = eps[:stages] if len(eps) >= stages else eps[0]
    return arm


def run_ablation(cfg: dict) -> dict:
    """Three arms on shared seeds: power baseline, robust basis, full plan.

    Every arm's config is validated before any seed runs, so an arm that
    cannot run (the ``dad`` baseline on a directed graph, say) raises
    ConfigError naming it before any data is read.
    """
    arms = {
        "baseline-monomial-dad": _arm_config(cfg, basis="monomial", operator="dad",
                                             stages=1),
        "robust-basis": _arm_config(cfg, stages=1),
        "robust-basis+hrp": _arm_config(cfg),
    }
    for name, arm_cfg in arms.items():
        try:
            arms[name] = validate_config(arm_cfg)
        except ConfigError as exc:
            raise ConfigError(f"ablation arm {name}: {exc}") from None
    out = {"config_hash": config_hash(cfg), "metric": cfg["metric"],
           "seeds": list(cfg["seeds"]), "arms": {}}
    for name, arm_cfg in arms.items():
        res = run_experiment(arm_cfg)
        out["arms"][name] = {
            "summary": res["summary"],
            "runs": res["runs"],
        }
    return out
