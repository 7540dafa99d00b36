"""Seeded experiment harness: dataset -> bank -> staged training -> metrics.

One seed is one full run: build (or load) the dataset, construct the feature
bank for the configured basis, train through the stage plan, and score the
test split at the best-validation checkpoint. ``run_experiment`` repeats
that over the config's seed list and reports mean and sample std.

``run_ablation`` runs three arms on shared seeds so the deltas isolate each
ingredient: plain power-iteration features on the random-walk-symmetric
operator, the configured robust basis without staging, and the full staged
plan. All arms of one seed draw the same dataset, and on a spectral-signal
dataset they share its dense eigendecomposition: ``synth`` memoizes it per
(spec, seed) process-wide for the 64 most recent specs, so for up to 64
seeds the second and third arm, and any thread running the same seed, do
not decompose again.

Seeds always run on a thread pool of ``DIFFBANK_THREADS`` workers (default
1, which runs them one after another). SpMM counts come from the
module-global counter in ``graph``, so per-phase attribution is exact only
with one worker; totals and every reported metric are the same at any
thread count.
"""

import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .backbone import label_features
from .banks import chebyshev_bank, jacobi_bank, legendre_bank, monomial_bank
from .calibration import calibrate
from .config import (CALIBRATION_ARGS, config_hash, to_stage_plan,
                     to_synthetic_spec, to_train_config)
from .errors import ConfigError, DataError
from .graph import graph_hash, make_operator, spmm_call_count
from .hrp import evaluate_split, run_hrp_training
from .io import load_edge_list, load_features, load_features_csv, load_labels
from .krylov import batched_lanczos, ritz_bank, ritz_bank_as_hopbank
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
    seed; file datasets are seed-independent and need a ``labels`` file."""
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
    if cfg.get("label_diffusion"):
        op = make_operator(g, "da")
        x = np.concatenate([x, label_features(lv, op)], axis=1)
    info["graph_hash"] = graph_hash(g)
    info["feature_hash"] = _array_hash(x)
    info["label_hash"] = _array_hash(lv.labels)
    return g, x, lv, info


def build_bank(cfg: dict, graph, x):
    """Construct the hop bank named by the config.

    Returns (bank, details) where details carries the calibration result
    for the ``auto`` basis and skipped-channel info for ``krylov``. Every
    basis but ``monomial`` runs on the shifted operator.
    """
    basis = cfg["basis"]
    hops = cfg["hops"]
    details = {"basis": basis}
    if basis != "monomial" and cfg["operator"] != "shifted":
        raise ConfigError(f"the {basis} basis runs on the shifted operator, "
                          f"config says {cfg['operator']!r}")
    spmm0 = spmm_call_count()
    t0 = time.perf_counter()
    op = make_operator(graph, cfg["operator"])

    if basis == "monomial":
        bank = monomial_bank(op, x, hops)
    elif basis == "chebyshev":
        bank = chebyshev_bank(op, x, hops)
    elif basis == "legendre":
        bank = legendre_bank(op, x, hops)
    elif basis == "jacobi":
        bank = jacobi_bank(op, x, hops, cfg["jacobi"]["alpha"], cfg["jacobi"]["beta"])
    elif basis == "auto":
        weights, density, moments = calibrate(
            op, **{CALIBRATION_ARGS.get(k, k): v for k, v in cfg["calibration"].items()})
        details["calibration"] = {
            "delta": weights.delta, "alpha": weights.alpha,
            "beta": weights.beta, "gamma": weights.gamma,
            "moments": [float(m) for m in moments.values],
        }
        bank = jacobi_bank(op, x, hops, weights.alpha, weights.beta)
    elif basis == "krylov":
        order = cfg["krylov"]["order"]
        if order is None:
            order = hops + 1
        if order < hops + 1:
            raise ConfigError(f"krylov order {order} cannot cover {hops} hops; "
                              f"need at least hops + 1 = {hops + 1}")
        fact = batched_lanczos(op, x, order)
        rb = ritz_bank(fact, n=graph.n)
        bank = ritz_bank_as_hopbank(rb, hops, raw_hop0=x)
        details["skipped_channels"] = fact.skipped.tolist()
        details["breakdown_channels"] = fact.ids[fact.steps < order].tolist()
    else:
        raise ConfigError(f"unknown basis {basis!r}")

    details["spmm"] = spmm_call_count() - spmm0
    details["seconds"] = time.perf_counter() - t0
    return bank, details


def run_seed(cfg: dict, seed: int, *, workdir=None) -> dict:
    """One complete run for one seed; returns a flat report dict."""
    g, x, lv, data_info = prepare_dataset(cfg, seed)
    bank, bank_info = build_bank(cfg, g, x)
    plan = to_stage_plan(cfg)
    tcfg = to_train_config(cfg, seed)
    result = run_hrp_training(plan, bank, g, lv, tcfg,
                              model_kind=cfg["backbone"], workdir=workdir)
    test = evaluate_split(result.model, result.params, result.bank, lv,
                          lv.test_mask, cfg["metric"])
    diffusion = result.report["total_diffusion_spmm"]
    diagnostic = result.report["total_diagnostic_spmm"]
    total_spmm = bank_info["spmm"] + diffusion + diagnostic
    return {
        "seed": seed,
        "test_metric": float(test),
        "val_metric": float(result.best_val),
        "best_stage": result.best_stage,
        "best_epoch": result.best_epoch,
        "bank": bank_info,
        "data": data_info,
        "stages": result.report["stages"],
        "total_diffusion_spmm": diffusion,
        "total_diagnostic_spmm": diagnostic,
        "preprocess_spmm": bank_info["spmm"],
        "total_spmm": total_spmm,
        "hrp_spmm_share": diffusion / total_spmm if total_spmm else 0.0,
        "train_seconds": result.report["total_train_seconds"],
        "diffusion_seconds": result.report["total_diffusion_seconds"],
    }


def summarize(rows: list) -> dict:
    vals = np.array([r["test_metric"] for r in rows], dtype=np.float64)
    return {
        "mean": float(vals.mean()),
        "std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
        "per_seed": [float(v) for v in vals],
    }


def _thread_count() -> int:
    raw = os.environ.get("DIFFBANK_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"DIFFBANK_THREADS must be an integer, got {raw!r}")


def run_experiment(cfg: dict, *, workdir=None) -> dict:
    seeds = cfg["seeds"]
    with ThreadPoolExecutor(max_workers=_thread_count()) as pool:
        rows = list(pool.map(lambda s: run_seed(cfg, s, workdir=workdir), seeds))
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
