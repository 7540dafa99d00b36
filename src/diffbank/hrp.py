"""Staged training with hidden-state re-propagation.

One run is a sequence of stages sharing a single model family. Stage s
trains on bank Z^(s); at its end the per-node hidden states H of its
best-validation checkpoint are extracted as data (no gradient ever
flows back into them, which the manual-gradient backbones make structural),
H is diffused into its own hop bank, and the next stage's bank is the
per-hop convex blend

    Z^(s+1)_k = alpha_{s,k} Z^(s)_k + (1 - alpha_{s,k}) Htilde_k,

with alpha_{s,0} pinned to 1 so hop 0 never drifts from the raw features,
and alpha_{s,k} = 1 - lambda_s for every hop k >= 1. The default schedule
lowers the re-propagated share lambda_s along a half cosine,
lambda_s = lambda0 * (1 + cos(pi s / S)) / 2, so late stages blend less;
the constant schedule keeps lambda_s = lambda0.

Blending at weight exactly 1 or exactly 0 copies the corresponding slab
instead of multiplying through, so a schedule that degenerates to plain
training reproduces it bit for bit.

A stage boundary holds two banks, Z^(s) and Z^(s+1), and no third
(``experiment.memory_plan`` counts what else). The staged run allocates
Z^(s+1) first and extracts H into its hop-0 slab; re-propagation diffuses
that slab into the array's other slabs, which makes it Htilde, and the
blend overwrites Htilde with Z^(s+1), copying hop 0 from Z^(s).

A bank's provenance is the recipe that rebuilds it (basis, operator, Jacobi
weights, Lanczos order), and ``diffuse`` builds every bank from a recipe, so
hidden states are diffused exactly as the features were. A multi-stage run
refuses, before stage 1, a bank whose provenance is not such a recipe.
"""

import copy
import math
import time
from dataclasses import dataclass

import numpy as np

from .backbone import (ConcatMLP, HopGRU, TrainConfig, accuracy, adam_step,
                       init_adam, model_scores, roc_auc, softmax_xent)
from .banks import HopBank, chebyshev_bank, jacobi_bank, legendre_bank, monomial_bank
from .errors import ConfigError, NumericalError
# spmm and ritz_bank are imported only for perfbench's tracer bindings (ROADMAP item 7)
from .graph import Graph, check_fits, make_operator, spmm, spmm_call_count  # noqa: F401
from .krylov import batched_lanczos, ritz_bank, ritz_bank_as_hopbank  # noqa: F401
from .rng import rng_for

__all__ = [
    "StagePlan",
    "StageResult",
    "RunResult",
    "cosine_blend_weight",
    "blend_alphas",
    "extract_hidden",
    "diffuse",
    "repropagate",
    "blend",
    "build_model",
    "train_stage",
    "evaluate_split",
    "run_hrp_training",
]

MAX_STAGES = 7
# rows per eval-mode forward of ``extract_hidden`` and ``evaluate_split``;
# the logits depend on it (see ``evaluate_split``)
_FORWARD_ROWS = 8192
RECIPE_BASES = ("monomial", "chebyshev", "legendre", "jacobi", "krylov")


@dataclass
class StagePlan:
    """Stage schedule. Re-propagation reuses the input bank's recipe, and
    every stage continues from its best-validation checkpoint."""

    stages: int = 1
    epochs: int | list = TrainConfig.epochs
    lambda0: float = 0.5
    schedule: str = "cosine"
    warm_start: bool = True
    patience: int = TrainConfig.patience

    def __post_init__(self):
        if self.stages < 1:
            raise ConfigError("stage count must be >= 1")
        if self.stages > MAX_STAGES:
            raise ConfigError(f"stage count {self.stages} exceeds the supported "
                              f"maximum of {MAX_STAGES}")
        if isinstance(self.epochs, int):
            self.epochs = [self.epochs] * self.stages
        self.epochs = [int(e) for e in self.epochs]
        if len(self.epochs) != self.stages or any(e < 1 for e in self.epochs):
            raise ConfigError("need one positive epoch budget per stage")
        if not (0.0 <= self.lambda0 <= 1.0):
            raise ConfigError("lambda0 must lie in [0, 1]")
        if self.schedule not in ("cosine", "constant"):
            raise ConfigError(f"unknown blend schedule {self.schedule!r}")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")


@dataclass
class StageResult:
    stage: int
    selected_epoch: int
    val_metric: float
    history: list
    diffusion_spmm: int
    train_seconds: float
    diffusion_seconds: float
    stopped_early: bool


@dataclass
class RunResult:
    model: object
    params: dict
    bank: HopBank
    best_stage: int
    best_epoch: int
    best_val: float
    stages: list


def cosine_blend_weight(s: int, stages: int, lambda0: float) -> float:
    """Re-propagated share for the blend entering stage s+1 (1 <= s < S)."""
    if not 1 <= s < stages:
        raise ValueError(f"stage index {s} outside [1, {stages})")
    return float(lambda0 * 0.5 * (1.0 + np.cos(np.pi * s / stages)))


def blend_alphas(plan: StagePlan, s: int, hops: int) -> np.ndarray:
    """Per-hop weights of the blend entering stage s+1: 1 at hop 0 and
    1 - lambda_s at every other hop."""
    if plan.schedule == "constant":
        w = plan.lambda0
    else:
        w = cosine_blend_weight(s, plan.stages, plan.lambda0)
    return np.concatenate([[1.0], np.full(hops, 1.0 - w)])


def build_model(kind: str, hops: int, width: int, num_classes: int, cfg: TrainConfig):
    """The backbone ``kind``; DataError if its float32 parameters and their
    two Adam moments would not fit in physical memory."""
    if kind == "mlp":
        model = ConcatMLP(hops, width, num_classes, trunk=cfg.trunk)
    elif kind == "gru":
        model = HopGRU(hops, width, num_classes, state_dim=cfg.state_dim,
                       readout=cfg.readout)
    else:
        raise ConfigError(f"unknown backbone kind {kind!r}")
    count = sum(math.prod(shape) for shape in model.shapes().values())
    check_fits(3 * 4 * count, f"a model of {count:,} {kind} parameters with its Adam state")
    return model


def extract_hidden(model, params, bank: HopBank, *,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Full-graph hidden states in eval mode, detached float32 copy.

    ``out``, a float32 (n, width) array such as the hop-0 slab of the bank
    they will be diffused into, receives them and is returned; by default
    a new array does. The forward runs ``_FORWARD_ROWS`` rows at a time,
    and its logits depend on that (see ``evaluate_split``). The hidden
    states of a 100k-node, width-64 bank were bit-identical at 8192, 2048
    and 1000 rows, but a matmul may switch kernels with its row count at
    other shapes.
    """
    n = bank.n
    if out is None:
        out = np.empty((n, bank.width), dtype=np.float32)
    elif out.shape != (n, bank.width) or out.dtype != np.float32:
        raise ValueError(f"out must be a float32 array of shape {(n, bank.width)}")
    for lo in range(0, n, _FORWARD_ROWS):
        ids = np.arange(lo, min(lo + _FORWARD_ROWS, n))
        _, hidden, _ = model.forward(params, bank.slabs, ids, train=False)
        out[lo:lo + len(ids)] = hidden.astype(np.float32, copy=False)
    return out


def krylov_order(hops: int, order: int | None) -> int:
    """The Lanczos order of a Krylov bank over ``hops`` hops: ``order``, or
    hops + 1 (the least order that covers the hops) when it is None."""
    if order is None:
        return hops + 1
    if order < hops + 1:
        raise ConfigError(f"krylov order {order} cannot cover {hops} hops; "
                          f"need at least hops + 1 = {hops + 1}")
    return order


def diffuse(op, x: np.ndarray, hops: int, recipe: dict, *,
            out: np.ndarray | None = None) -> HopBank:
    """Diffuse ``x`` into a hop bank on ``op`` by ``recipe``, which holds the
    keys a bank's provenance carries: ``basis``, ``alpha`` and ``beta`` for
    ``jacobi``, and ``order`` for ``krylov`` (None or absent means hops + 1).
    So a bank's provenance is the recipe that rebuilds it. ``out`` is
    passed to the bank builder: the slabs go into it, and ``x`` may be its
    slab 0."""
    basis = recipe.get("basis")
    if basis == "monomial":
        return monomial_bank(op, x, hops, out=out)
    if basis == "chebyshev":
        return chebyshev_bank(op, x, hops, out=out)
    if basis == "legendre":
        return legendre_bank(op, x, hops, out=out)
    if basis == "jacobi":
        return jacobi_bank(op, x, hops, recipe["alpha"], recipe["beta"], out=out)
    if basis == "krylov":
        fact = batched_lanczos(op, x, krylov_order(hops, recipe.get("order")))
        return ritz_bank_as_hopbank(fact, hops, raw_hop0=x, out=out)
    raise ConfigError(f"no bank recipe for basis {basis!r}")


def repropagate(graph: Graph, hidden: np.ndarray, hops: int, *, family: str,
                operator: str = "shifted", jacobi_alpha: float = 0.0,
                jacobi_beta: float = 0.0, lanczos_order: int | None = None,
                out: np.ndarray | None = None) -> HopBank:
    """Diffuse extracted hidden states into a fresh hop bank of ``family``
    on the graph's ``operator``, which must be ``shifted`` for every family
    but ``monomial``. The bank's slabs are ``out`` if given (see
    ``diffuse``), and ``hidden`` may be its slab 0."""
    return diffuse(make_operator(graph, operator), hidden, hops,
                   {"basis": family, "alpha": jacobi_alpha, "beta": jacobi_beta,
                    "order": lanczos_order}, out=out)


def blend(bank: HopBank, htilde: HopBank, alphas, *, out: np.ndarray | None = None) -> HopBank:
    """Per-hop convex blend of two banks of identical shape.

    The blended slabs go into ``out``, new slabs by default, so neither
    input changes; ``out=htilde.slabs`` blends in place, since each hop
    reads only its own slab of ``htilde`` before writing it. Weight-1 and
    weight-0 hops are copied, not recomputed, so those slabs stay
    bit-identical to their source.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if bank.slabs.shape != htilde.slabs.shape:
        raise ValueError("banks must have identical shapes to blend")
    if alphas.shape != (bank.hops + 1,):
        raise ValueError(f"need {bank.hops + 1} blend weights, got {alphas.shape}")
    if alphas[0] != 1.0:
        raise ValueError("hop-0 blend weight must be exactly 1")
    if np.any(alphas < 0.0) or np.any(alphas > 1.0):
        raise ValueError("blend weights must lie in [0, 1]")
    slabs = np.empty_like(bank.slabs) if out is None else out
    for k, a in enumerate(alphas):
        if a == 1.0:
            slabs[k] = bank.slabs[k]
        elif a == 0.0:
            if slabs is not htilde.slabs:
                slabs[k] = htilde.slabs[k]
        else:
            # (1 - a) h + a z, which rounds as a z + (1 - a) h does
            a32 = np.float32(a)
            np.multiply(htilde.slabs[k], np.float32(1.0) - a32, out=slabs[k])
            slabs[k] += a32 * bank.slabs[k]
    prov = dict(bank.provenance)
    prov["blended"] = {"alphas": alphas.tolist(), "source": htilde.provenance}
    return HopBank(hops=bank.hops, slabs=slabs, provenance=prov)


def evaluate_split(model, params, bank: HopBank, lv, mask, metric: str = "accuracy") -> float:
    """Deterministic eval-mode metric over an arbitrary node mask.

    The forward runs ``_FORWARD_ROWS`` rows at a time, and the logits, and
    so the metric, depend on that: the BLAS may pick another kernel for a
    matmul with fewer rows. With numpy 2.4.6's OpenBLAS 0.3.31 (Haswell
    kernels) the (M x 64) @ (64 x 4) logits matmul switches kernels below M
    of about 4096: on a 100k-node, width-64 bank, 4096-row chunks gave the
    8192-row logits, and 2048- and 1000-row chunks changed those of 97,700
    rows. So the row count is one constant that no caller sets.
    """
    ids = np.nonzero(np.asarray(mask))[0]
    logits = np.empty((ids.size, model.num_classes), dtype=np.float64)
    for lo in range(0, ids.size, _FORWARD_ROWS):
        sel = ids[lo:lo + _FORWARD_ROWS]
        lg, _, _ = model.forward(params, bank.slabs, sel, train=False)
        logits[lo:lo + len(sel)] = lg
    if metric == "accuracy":
        return accuracy(logits, lv.labels[ids])
    return roc_auc(model_scores(logits), lv.labels[ids])


def train_stage(model, params, adam, bank: HopBank, lv, cfg: TrainConfig, *,
                stage: int, epochs: int, seed: int, patience: int | None = None):
    """Train one stage in place and return its bookkeeping.

    The random streams for shuffling and dropout are keyed by (seed, stage,
    epoch), never shared with bank construction, so a stage retrains
    identically whether or not re-propagation ran before it. A batch's
    dropout stream is only made when a dropout rate is nonzero.

    Returns a dict with the epoch history, the best checkpoint (params and
    optimizer state are deep copies) and the early-stop flag.
    """
    train_ids = np.nonzero(lv.train_mask)[0]
    if train_ids.size == 0:
        raise ValueError("no training nodes")
    eff_patience = min(patience if patience is not None else cfg.patience, epochs)
    drops = cfg.dropout > 0.0 or cfg.input_dropout > 0.0
    best = {"epoch": 0, "val": -np.inf, "params": None, "adam": None}
    history = []
    since_best = 0
    stopped = False
    for epoch in range(1, epochs + 1):
        order = rng_for(seed, "shuffle", stage, epoch).permutation(train_ids)
        losses = []
        for bi, lo in enumerate(range(0, order.size, cfg.batch_size)):
            batch = order[lo:lo + cfg.batch_size]
            drop_rng = rng_for(seed, "dropout", stage, epoch, bi) if drops else None
            logits, _, cache = model.forward(
                params, bank.slabs, batch, train=True, dropout=cfg.dropout,
                input_dropout=cfg.input_dropout, rng=drop_rng)
            loss, dlogits = softmax_xent(logits, lv.labels[batch])
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite training loss at stage {stage} "
                                     f"epoch {epoch}")
            losses.append(loss)
            grads = model.backward(params, cache, dlogits)
            adam_step(params, grads, adam, cfg.lr, weight_decay=cfg.weight_decay)
        val = evaluate_split(model, params, bank, lv, lv.val_mask, cfg.metric)
        row = {"stage": stage, "epoch": epoch,
               "train_loss": float(np.mean(losses)), "val_metric": float(val)}
        history.append(row)
        if val > best["val"]:
            best = {"epoch": epoch, "val": float(val),
                    "params": copy.deepcopy(params), "adam": copy.deepcopy(adam)}
            since_best = 0
        else:
            since_best += 1
        if since_best >= eff_patience:
            stopped = True
            break
    return {"history": history, "best": best, "stopped_early": stopped}


def run_hrp_training(plan: StagePlan, bank: HopBank, graph: Graph | None, lv,
                     cfg: TrainConfig, *, model_kind: str = "mlp") -> RunResult:
    """Full staged run.

    Returns the globally best checkpoint across stages together with the
    bank of the stage it came from (a stage-s model only makes sense on
    the bank it trained on) and per-stage results: epoch history, selected
    epoch, seconds and sparse products.
    ``graph`` may be None only for single-stage plans, where no
    re-propagation happens.
    """
    if plan.stages > 1 and graph is None:
        raise ConfigError("multi-stage plans need the graph for re-propagation")
    hops = bank.hops
    model = build_model(model_kind, hops, bank.width, lv.num_classes, cfg)
    params = model.init(seed=cfg.seed, dtype=np.float32)
    adam = init_adam(params)
    recipe = bank.provenance  # checked here, so a bank no recipe rebuilds fails before stage 1
    need = ("operator", "alpha", "beta") if recipe.get("basis") == "jacobi" else ("operator",)
    if plan.stages > 1 and (recipe.get("basis") not in RECIPE_BASES
                            or any(k not in recipe for k in need)):
        raise ConfigError(f"no bank recipe in the input bank's provenance {recipe!r}")
    stage_results = []
    best_overall = {"val": -np.inf, "stage": 0, "epoch": 0, "params": None}
    best_bank = bank
    cur_bank = bank

    for s in range(1, plan.stages + 1):
        stage_bank = cur_bank
        t0 = time.perf_counter()
        out = train_stage(model, params, adam, stage_bank, lv, cfg, stage=s,
                          epochs=plan.epochs[s - 1], seed=cfg.seed,
                          patience=plan.patience)
        train_secs = time.perf_counter() - t0
        selected = out["best"]

        t1 = time.perf_counter()
        diff_spmm = 0
        if s < plan.stages:
            # Z^(s+1) first, so H is diffused and blended within it (see the
            # module docstring)
            slabs = np.empty_like(stage_bank.slabs)
            hidden = extract_hidden(model, selected["params"], stage_bank, out=slabs[0])
            pre = spmm_call_count()
            htilde = repropagate(
                graph, hidden, hops, family=recipe["basis"], operator=recipe["operator"],
                jacobi_alpha=recipe.get("alpha", 0.0), jacobi_beta=recipe.get("beta", 0.0),
                lanczos_order=recipe.get("order"), out=slabs)
            diff_spmm = spmm_call_count() - pre
            cur_bank = blend(stage_bank, htilde, blend_alphas(plan, s, hops), out=slabs)
        diff_secs = time.perf_counter() - t1

        stage_results.append(StageResult(
            stage=s, selected_epoch=selected["epoch"], val_metric=selected["val"],
            history=out["history"], diffusion_spmm=diff_spmm,
            train_seconds=train_secs, diffusion_seconds=diff_secs,
            stopped_early=out["stopped_early"]))

        if selected["val"] > best_overall["val"]:
            best_overall = {"val": selected["val"], "stage": s,
                            "epoch": selected["epoch"],
                            "params": selected["params"]}
            best_bank = stage_bank

        if s < plan.stages:
            if plan.warm_start:
                # best_overall may hold these params, so train on a copy
                params = copy.deepcopy(selected["params"])
                adam = selected["adam"]
            else:
                params = model.init(seed=cfg.seed + s, dtype=np.float32)
                adam = init_adam(params)

    return RunResult(model=model, params=best_overall["params"], bank=best_bank,
                     best_stage=best_overall["stage"], best_epoch=best_overall["epoch"],
                     best_val=best_overall["val"], stages=stage_results)
