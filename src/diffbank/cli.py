"""Command line entry points.

Subcommands mirror the pipeline phases::

    diffbank generate    write a synthetic dataset to disk
    diffbank preprocess  build a hop bank from a graph and features
    diffbank calibrate   estimate the spectral density and Jacobi weights
    diffbank train       one seed's run (``run_seed``) saved as artifacts
    diffbank evaluate    score a saved checkpoint on a split
    diffbank diagnose    per-channel hop conditioning of a saved bank
    diffbank experiment  multi-seed run or ablation from a config file

Options restate no library default: an option the user leaves out is
absent from the parsed arguments (``argparse.SUPPRESS``), so the
dataclass, ``calibrate`` or config default applies. An option's ``dest``
names where its value goes, with dots for nesting: ``preprocess --gamma``
and ``calibrate --gamma`` set ``calibration.gamma`` of a config that
``validate_config`` checks like any config file, before any file is read.
``generate``'s options but ``--seed`` and ``--out`` are the keys of a
``dataset.synthetic`` section, checked the same way before it writes, and
its ``--seed`` is checked as the config's one seed.

``train`` adds nothing to the run but its files: ``model.mdl`` and
``bank.hbk`` (the best stage's checkpoint and bank), ``report.json`` (the
``run_seed`` report row plus ``config_hash``) and ``epochs.jsonl`` (the
stages' epoch histories, one JSON line per epoch).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure. Anything else is a bug.
"""

import argparse
import json
import os
import sys

from . import io as dio
from .backbone import TrainConfig
from .banks import bank_report
from .calibration import calibrate
from .config import (CONFIG_SCHEMA, config_hash, load_config, to_synthetic_spec,
                     to_train_config, validate_config)
from .errors import ConfigError, DataError, DiffbankError, NumericalError
from .experiment import (build_bank, check_auc_labels, load_feature_file, load_graph,
                         run_ablation, run_experiment, run_seed)
from .graph import make_operator
from .hrp import build_model, evaluate_split
from .synth import SyntheticSpec, generate

__all__ = ["main"]

# checkpoint config keys that describe the model
_MODEL_KEYS = ("backbone", "num_classes", "trunk", "state_dim", "readout")


def _given(args) -> dict:
    """The options the user passed, nested at the dots of their ``dest``."""
    given = {}
    for name, value in vars(args).items():
        if name in ("command", "func"):
            continue
        *parents, leaf = name.split(".")
        node = given
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    return given


def _cmd_generate(args) -> int:
    given = _given(args)
    out = given.pop("out")
    seed = given.pop("seed", SyntheticSpec.seed)
    cfg = validate_config({"dataset": {"synthetic": given}, "seeds": [seed]})
    g, x, lv = generate(to_synthetic_spec(cfg, seed))
    os.makedirs(out, exist_ok=True)
    dio.save_edge_list(os.path.join(out, "edges.tsv"), g)
    dio.save_features(os.path.join(out, "features.fmx"), x)
    dio.save_labels(os.path.join(out, "labels.tsv"), lv)
    print(f"wrote {g.n} nodes, {g.num_edges} edges, {x.shape[1]} feature "
          f"channels to {out}")
    return 0


def _cmd_preprocess(args) -> int:
    raw = _given(args)
    out = raw.pop("out")
    cfg = validate_config(raw)
    g = load_graph(cfg["dataset"])
    x = load_feature_file(cfg["dataset"]["features"], g.n)
    bank, details = build_bank(cfg, g, x)
    dio.save_bank_file(out, bank)
    print(f"bank: {bank.hops} hops x {bank.n} nodes x {bank.width} channels "
          f"({details['spmm']} sparse products, {details['seconds']:.2f}s)")
    if "calibration" in details:
        c = details["calibration"]
        print(f"calibrated weights: alpha={c['alpha']:.4f} beta={c['beta']:.4f} "
              f"(imbalance {c['delta']:+.4f})")
    return 0


def _cmd_calibrate(args) -> int:
    raw = _given(args)
    out = raw.pop("out", None)
    cfg = validate_config(raw)
    op = make_operator(load_graph(cfg["dataset"]), "shifted")
    weights, density, moments = calibrate(op, **cfg["calibration"])
    payload = {
        "delta": weights.delta,
        "alpha": weights.alpha,
        "beta": weights.beta,
        "gamma": weights.gamma,
        "moments": [float(m) for m in moments.values],
        "density": {
            "grid": [float(v) for v in density.grid],
            "rho": [float(v) for v in density.rho],
        },
    }
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote calibration to {out} "
              f"(delta {weights.delta:+.4f} -> alpha {weights.alpha:.4f}, "
              f"beta {weights.beta:.4f})")
    else:
        print(text)
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:  # the override obeys a config file's seeds rule
        validate_config({**cfg, "seeds": [args.seed]})
    seed = cfg["seeds"][0] if args.seed is None else args.seed
    os.makedirs(args.out, exist_ok=True)
    row, result = run_seed(cfg, seed)
    chash = config_hash(cfg)
    tcfg = to_train_config(cfg, seed)
    model_cfg = {
        "backbone": cfg["backbone"], "hops": result.bank.hops,
        "width": result.bank.width, "num_classes": result.model.num_classes,
        "trunk": list(tcfg.trunk), "state_dim": tcfg.state_dim,
        "readout": tcfg.readout, "config_hash": chash,
        "best_stage": result.best_stage, "best_epoch": result.best_epoch,
    }
    dio.save_checkpoint(os.path.join(args.out, "model.mdl"), result.params,
                        model_cfg)
    dio.save_bank_file(os.path.join(args.out, "bank.hbk"), result.bank)
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump({"config_hash": chash, **row}, fh, indent=2)
        fh.write("\n")
    with open(os.path.join(args.out, "epochs.jsonl"), "w", encoding="utf-8") as fh:
        for stage in result.stages:
            fh.writelines(json.dumps(epoch) + "\n" for epoch in stage.history)
    print(f"best val {row['val_metric']:.4f} (stage {row['best_stage']}, epoch "
          f"{row['best_epoch']}); test {cfg['metric']} {row['test_metric']:.4f}")
    print(f"artifacts in {args.out}: model.mdl, bank.hbk, report.json, epochs.jsonl")
    return 0


def _cmd_evaluate(args) -> int:
    params, model_cfg = dio.load_checkpoint(args.model)
    bank = dio.load_bank_file(args.bank)
    lv = dio.load_labels(args.labels, bank.n)
    missing = [k for k in _MODEL_KEYS if k not in model_cfg]
    if missing:
        raise DataError(f"{args.model}: checkpoint config lacks {', '.join(missing)}")
    tcfg = TrainConfig(trunk=model_cfg["trunk"], state_dim=model_cfg["state_dim"],
                       readout=model_cfg["readout"],
                       metric=getattr(args, "metric", TrainConfig.metric))
    model = build_model(model_cfg["backbone"], bank.hops, bank.width,
                        model_cfg["num_classes"], tcfg)
    got = {k: v.shape for k, v in params.items()}
    if got != model.shapes():
        raise DataError("checkpoint parameters do not fit the model described "
                        "by its own config block")
    splits = [s for s in ("train", "val", "test") if getattr(lv, f"{s}_mask").any()]
    if not splits:
        raise DataError(f"{args.labels}: the labels put no node in any split")
    if tcfg.metric == "roc_auc":
        check_auc_labels(lv, splits, model_cfg["num_classes"])
    out = {s: evaluate_split(model, params, bank, lv, getattr(lv, f"{s}_mask"), tcfg.metric)
           for s in splits}
    print(json.dumps(out, indent=2))
    return 0


def _cmd_diagnose(args) -> int:
    bank = dio.load_bank_file(args.bank)
    rep = bank_report(bank)
    os.makedirs(args.out, exist_ok=True)
    cond_path = os.path.join(args.out, "conditioning.csv")
    with open(cond_path, "w", encoding="utf-8") as fh:
        diag_names = ",".join(f"g{k}" for k in range(bank.hops + 1))
        fh.write(f"channel,cond,mean_abs_cos,{diag_names}\n")
        for c in range(bank.width):
            diags = ",".join(f"{rep.gram[c][k, k]:.8e}" for k in range(bank.hops + 1))
            fh.write(f"{c},{rep.cond[c]:.8e},{rep.mean_abs_cos[c]:.8e},{diags}\n")
    print(f"conditioning: median cond {rep.summary['median_cond']:.3e}, "
          f"mean |cos| {rep.summary['mean_abs_cos']:.4f} -> {cond_path}")
    if len(rep.zero_norm_channels):
        print(f"zero-norm channels: {rep.zero_norm_channels.tolist()}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    if args.ablation:
        result = run_ablation(cfg)
        for name, arm in result["arms"].items():
            s = arm["summary"]
            print(f"{name}: {s['mean']:.4f} +/- {s['std']:.4f} "
                  f"({len(s['per_seed'])} seeds)")
    else:
        result = run_experiment(cfg)
        s = result["summary"]
        print(f"{cfg['metric']}: {s['mean']:.4f} +/- {s['std']:.4f} over "
              f"{len(s['per_seed'])} seeds")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"full report -> {args.out}")
    return 0


def _add_graph_args(p, features=True):
    p.add_argument("--edges", dest="dataset.edges", metavar="PATH", required=True,
                   help="tab-separated edge list")
    if features:
        p.add_argument("--features", dest="dataset.features", metavar="PATH", required=True,
                       help="feature matrix (.fmx binary or delimited text)")
    p.add_argument("--nodes", dest="dataset.num_nodes", metavar="N", type=int,
                   help="node count (default: the edge list's '# nodes:' line, "
                        "else the largest id + 1)")
    p.add_argument("--directed", dest="dataset.undirected", action="store_false")
    p.add_argument("--self-loops", dest="dataset.add_self_loops", action="store_true")


def _add_calibration_args(p):
    p.add_argument("--cheb-order", dest="calibration.order", type=int)
    p.add_argument("--probes", dest="calibration.probes", type=int)
    p.add_argument("--gamma", dest="calibration.gamma", type=float)
    p.add_argument("--seed", dest="calibration.seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="diffbank",
                                 description="sparse diffusion feature banks "
                                             "and staged training")
    sub = ap.add_subparsers(dest="command", required=True)
    schema = CONFIG_SCHEMA["properties"]

    def add(name, **kw):
        return sub.add_parser(name, argument_default=argparse.SUPPRESS, **kw)

    g = add("generate", help="write a synthetic dataset")
    g.add_argument("--generator", choices=["sbm", "spectral-signal"])
    g.add_argument("--nodes", dest="n", type=int)
    g.add_argument("--blocks", type=int)
    g.add_argument("--p-intra", type=float)
    g.add_argument("--p-inter", type=float)
    g.add_argument("--feature-dim", type=int)
    g.add_argument("--snr", type=float)
    g.add_argument("--noise", type=float)
    g.add_argument("--signal-quantile", type=float)
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    p = add("preprocess", help="build and save a hop bank")
    _add_graph_args(p)
    p.add_argument("--basis", choices=schema["basis"]["enum"])
    p.add_argument("--operator", choices=schema["operator"]["enum"])
    p.add_argument("--hops", type=int)
    p.add_argument("--alpha", dest="jacobi.alpha", type=float)
    p.add_argument("--beta", dest="jacobi.beta", type=float)
    _add_calibration_args(p)
    p.add_argument("--krylov-order", dest="krylov.order", type=int)
    p.add_argument("--out", required=True, help="output bank file (.hbk)")
    p.set_defaults(func=_cmd_preprocess)

    c = add("calibrate", help="spectral density and Jacobi weights")
    _add_graph_args(c, features=False)
    _add_calibration_args(c)
    c.add_argument("--out", help="JSON output path (default stdout)")
    c.set_defaults(func=_cmd_calibrate)

    t = sub.add_parser("train", help="staged training from a config file")
    t.add_argument("--config", required=True)
    t.add_argument("--seed", type=int, default=None,
                   help="override the first config seed")
    t.add_argument("--out", required=True, help="output directory")
    t.set_defaults(func=_cmd_train)

    e = add("evaluate", help="score a saved model on all splits")
    e.add_argument("--model", required=True, help="checkpoint file (.mdl)")
    e.add_argument("--bank", required=True, help="bank file (.hbk)")
    e.add_argument("--labels", required=True)
    e.add_argument("--metric", choices=schema["metric"]["enum"])
    e.set_defaults(func=_cmd_evaluate)

    d = add("diagnose", help="per-channel hop conditioning")
    d.add_argument("--bank", required=True)
    d.add_argument("--out", required=True, help="output directory")
    d.set_defaults(func=_cmd_diagnose)

    x = sub.add_parser("experiment", help="multi-seed run or ablation")
    x.add_argument("--config", required=True)
    x.add_argument("--ablation", action="store_true",
                   help="run baseline / robust / robust+staged arms")
    x.add_argument("--out", default=None, help="JSON report path")
    x.set_defaults(func=_cmd_experiment)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except DiffbankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
