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
seeds the second and third arm, and any thread running the same seed, do
not decompose again.

Seeds always run on a thread pool of ``DIFFBANK_THREADS`` workers (default
1, which runs them one after another). Each seed's sparse products run on
the ``graph`` kernel's threads: the usable cores divided by
``DIFFBANK_THREADS``, at least 1, so the two pools never ask for more
threads than there are cores. The kernel gives every row the serial sum,
so no number depends on either thread count. SpMM counts come from the
module-global counter in ``graph``, so per-phase attribution is exact only
with one seed worker; totals and every reported metric are the same at
any thread count.

``run_experiment`` creates the ``workdir`` for hidden-state snapshots, or
refuses an unusable one, before any seed runs.
"""

import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .backbone import label_features
# imported only for perfbench's tracer bindings, as are the krylov names (ROADMAP
# item 5, "perfbench binds the bank builders in experiment"); hrp.diffuse builds banks
from .banks import chebyshev_bank, jacobi_bank, legendre_bank, monomial_bank  # noqa: F401
from .calibration import calibrate
from .config import (CALIBRATION_ARGS, config_hash, to_stage_plan,
                     to_synthetic_spec, to_train_config)
from .errors import ConfigError, DataError
from .graph import check_fits, graph_hash, make_operator, seed_threads, spmm_call_count
from .hrp import RunResult, StageResult, diffuse, evaluate_split, run_hrp_training
from .io import load_edge_list, load_features, load_features_csv, load_labels
from .krylov import batched_lanczos, ritz_bank, ritz_bank_as_hopbank  # noqa: F401
from .synth import generate

__all__ = ["prepare_dataset", "load_graph", "load_feature_file", "build_bank",
           "run_seed", "run_experiment", "run_ablation", "summarize"]


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


def prepare_dataset(cfg: dict, seed: int):
    """Return (graph, features, labels, info). Synthetic specs draw from the
    seed; file datasets are seed-independent and need a ``labels`` file.
    Labels with an empty train, val or test split raise DataError, and so
    do labels ``roc_auc`` cannot score: a class count other than 2, or a
    val or test split missing a class."""
    ds = cfg["dataset"]
    if "synthetic" in ds:
        spec = to_synthetic_spec(cfg, seed)
        g, x, lv = generate(spec)
        info = {"source": "synthetic", "generator": spec.generator}
    else:
        if "labels" not in ds:
            raise ConfigError("file-based dataset is missing labels")
        g = load_graph(ds)
        lv = load_labels(ds["labels"], g.n)
        if "features" in ds:
            x = load_feature_file(ds["features"], g.n)
        else:
            x = label_features(lv)
        info = {"source": "files", "edges": ds["edges"]}
    auc = cfg["metric"] == "roc_auc"
    if auc and lv.num_classes != 2:
        raise DataError(f"roc_auc needs 2 classes, the labels have {lv.num_classes}")
    for split in ("train", "val", "test"):
        ys = lv.labels[getattr(lv, f"{split}_mask")]
        if ys.size == 0:
            raise DataError(f"the labels have no {split} nodes")
        if auc and split != "train" and np.unique(ys).size < 2:
            raise DataError(f"roc_auc needs both classes among the {split} nodes")
    if cfg.get("label_diffusion"):
        op = make_operator(g, "da")
        x = np.concatenate([x, label_features(lv, op)], axis=1)
    info["graph_hash"] = graph_hash(g)
    info["feature_hash"] = _array_hash(x)
    info["label_hash"] = _array_hash(lv.labels)
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
        weights, density, moments = calibrate(
            op, **{CALIBRATION_ARGS.get(k, k): v for k, v in cfg["calibration"].items()})
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
        "spectral_distance_to_x": r.spectral_distance_to_x,
        "diffusion_spmm": r.diffusion_spmm,
        "diagnostic_spmm": r.diagnostic_spmm,
        "train_seconds": r.train_seconds,
        "diffusion_seconds": r.diffusion_seconds,
    }


def run_seed(cfg: dict, seed: int, *, workdir=None) -> tuple[dict, RunResult]:
    """One complete run for one seed.

    Returns the flat report row and the ``RunResult``, whose best model,
    parameters and bank a caller may save.
    """
    g, x, lv, data_info = prepare_dataset(cfg, seed)
    bank, bank_info = build_bank(cfg, g, x)
    plan = to_stage_plan(cfg)
    tcfg = to_train_config(cfg, seed)
    result = run_hrp_training(plan, bank, g, lv, tcfg,
                              model_kind=cfg["backbone"], workdir=workdir)
    test = evaluate_split(result.model, result.params, result.bank, lv,
                          lv.test_mask, cfg["metric"])
    stages = result.stages
    diffusion = sum(r.diffusion_spmm for r in stages)
    diagnostic = sum(r.diagnostic_spmm for r in stages)
    total_spmm = bank_info["spmm"] + diffusion + diagnostic
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
        "total_diagnostic_spmm": diagnostic,
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


def run_experiment(cfg: dict, *, workdir=None) -> dict:
    seeds = cfg["seeds"]
    if workdir is not None:
        try:
            os.makedirs(workdir, exist_ok=True)
        except OSError as exc:
            raise DataError(f"cannot use --workdir {workdir}: {exc}") from exc
    with ThreadPoolExecutor(max_workers=seed_threads()) as pool:
        # keep only the row, so no bank outlives its seed
        rows = list(pool.map(lambda s: run_seed(cfg, s, workdir=workdir)[0], seeds))
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
        arm["hrp"]["stages"] = stages
        eps = arm["hrp"].get("epochs")
        if isinstance(eps, list):
            arm["hrp"]["epochs"] = eps[:stages] if len(eps) >= stages else eps[0]
    return arm


def run_ablation(cfg: dict, *, workdir=None) -> dict:
    """Three arms on shared seeds: power baseline, robust basis, full plan."""
    arms = {
        "baseline-monomial-dad": _arm_config(cfg, basis="monomial", operator="dad",
                                             stages=1),
        "robust-basis": _arm_config(cfg, stages=1),
        "robust-basis+hrp": _arm_config(cfg),
    }
    out = {"config_hash": config_hash(cfg), "metric": cfg["metric"],
           "seeds": list(cfg["seeds"]), "arms": {}}
    for name, arm_cfg in arms.items():
        res = run_experiment(arm_cfg, workdir=workdir)
        out["arms"][name] = {
            "summary": res["summary"],
            "runs": res["runs"],
        }
    return out
