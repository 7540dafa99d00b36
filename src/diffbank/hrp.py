"""Staged training with hidden-state re-propagation.

One run is a sequence of stages sharing a single model family. Stage s
trains on bank Z^(s); at its end the per-node hidden states H of its
best-validation checkpoint are extracted as data (no gradient ever
flows back into them, which the manual-gradient backbones make structural),
H is diffused into its own hop bank, and the next stage's bank is the
per-hop convex blend

    Z^(s+1)_k = alpha_{s,k} Z^(s)_k + (1 - alpha_{s,k}) Htilde_k,

with alpha_{s,0} pinned to 1 so hop 0 never drifts from the raw features.
The default schedule lowers the re-propagated share along a half cosine,
lambda_s = lambda0 * (1 + cos(pi s / S)) / 2, so late stages blend less.

Blending at weight exactly 1 or exactly 0 copies the corresponding slab
instead of multiplying through, so a schedule that degenerates to plain
training reproduces it bit for bit.

A bank's provenance is the recipe that rebuilds it (basis, operator, Jacobi
weights, Lanczos order), and ``diffuse`` builds every bank from a recipe, so
hidden states are diffused exactly as the features were. A multi-stage run
refuses, before stage 1, a bank whose provenance is not such a recipe.

The next stage continues from that checkpoint. With ``diagnostics`` on,
the first three epochs' params are copied as well, for hidden snapshots,
and the selected hidden states' spectral distance from the raw features is
measured; the Laplacian and the raw features' moment signature are made
once per run, on first use. With a ``workdir`` given, the snapshots spill
to ``hidden_seed{seed}_s{stage}_e{epoch}.npy`` there.
"""

import copy
import time
from dataclasses import dataclass

import numpy as np

from .backbone import (ConcatMLP, HopGRU, TrainConfig, accuracy, adam_step,
                       init_adam, model_scores, roc_auc, softmax_xent)
from .banks import HopBank, chebyshev_bank, jacobi_bank, legendre_bank, monomial_bank
from .errors import ConfigError, NumericalError
from .graph import Graph, make_operator, spmm, spmm_call_count
from .krylov import batched_lanczos, ritz_bank, ritz_bank_as_hopbank
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
    "moment_signature",
    "spectral_distance",
    "build_model",
    "train_stage",
    "evaluate_split",
    "run_hrp_training",
]

MAX_STAGES = 7
_RECIPE_BASES = ("monomial", "chebyshev", "legendre", "jacobi", "krylov")


@dataclass
class StagePlan:
    """Stage schedule. Re-propagation reuses the input bank's recipe, and
    every stage continues from its best-validation checkpoint.

    ``diagnostics=True`` additionally records hidden snapshots of the first
    three epochs, whose checkpoints are copied only then, and the spectral
    distance between the selected hidden states and the raw features. The
    distances cost extra sparse products, booked separately from
    the re-propagation itself so the report's diffusion share stays a
    statement about HRP proper.
    """

    stages: int = 1
    epochs: int | list = TrainConfig.epochs
    lambda0: float = 0.5
    schedule: str = "cosine"
    alpha_vectors: list | None = None
    warm_start: bool = True
    patience: int = TrainConfig.patience
    diagnostics: bool = False

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
        if self.schedule not in ("cosine", "constant", "perhop"):
            raise ConfigError(f"unknown blend schedule {self.schedule!r}")
        if self.schedule == "perhop":
            if self.alpha_vectors is None or len(self.alpha_vectors) != self.stages - 1:
                raise ConfigError("perhop schedule needs stages-1 alpha vectors")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")


@dataclass
class StageResult:
    stage: int
    selected_epoch: int
    val_metric: float
    history: list
    hidden_snapshots: dict
    spectral_distance_to_x: float | None
    diffusion_spmm: int
    diagnostic_spmm: int
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
    """Per-hop weights of the blend entering stage s+1; a per-hop vector
    must hold hops + 1 weights in [0, 1], the first exactly 1."""
    if plan.schedule == "perhop":
        alpha = np.asarray(plan.alpha_vectors[s - 1], dtype=np.float64)
        if alpha.shape != (hops + 1,):
            raise ConfigError(f"per-hop alpha vector {s} has the wrong length: "
                              f"need hops + 1 = {hops + 1} weights")
        if alpha[0] != 1.0:
            raise ConfigError("hop-0 blend weight must be exactly 1")
        if not np.all((alpha >= 0.0) & (alpha <= 1.0)):
            raise ConfigError(f"per-hop alpha vector {s} has a weight outside [0, 1]")
        return alpha
    if plan.schedule == "constant":
        w = plan.lambda0
    else:
        w = cosine_blend_weight(s, plan.stages, plan.lambda0)
    return np.concatenate([[1.0], np.full(hops, 1.0 - w)])


def build_model(kind: str, hops: int, width: int, num_classes: int, cfg: TrainConfig):
    if kind == "mlp":
        return ConcatMLP(hops, width, num_classes, trunk=cfg.trunk)
    if kind == "gru":
        return HopGRU(hops, width, num_classes, state_dim=cfg.state_dim,
                      readout=cfg.readout)
    raise ConfigError(f"unknown backbone kind {kind!r}")


def extract_hidden(model, params, bank: HopBank, chunk: int = 8192) -> np.ndarray:
    """Full-graph hidden states in eval mode, detached float32 copy."""
    n = bank.n
    out = np.empty((n, bank.width), dtype=np.float32)
    for lo in range(0, n, chunk):
        ids = np.arange(lo, min(lo + chunk, n))
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


def diffuse(op, x: np.ndarray, hops: int, recipe: dict) -> HopBank:
    """Diffuse ``x`` into a hop bank on ``op`` by ``recipe``, which holds the
    keys a bank's provenance carries: ``basis``, ``alpha`` and ``beta`` for
    ``jacobi``, and ``order`` for ``krylov`` (None or absent means hops + 1).
    So a bank's provenance is the recipe that rebuilds it."""
    basis = recipe.get("basis")
    if basis == "monomial":
        return monomial_bank(op, x, hops)
    if basis == "chebyshev":
        return chebyshev_bank(op, x, hops)
    if basis == "legendre":
        return legendre_bank(op, x, hops)
    if basis == "jacobi":
        return jacobi_bank(op, x, hops, recipe["alpha"], recipe["beta"])
    if basis == "krylov":
        fact = batched_lanczos(op, x, krylov_order(hops, recipe.get("order")))
        return ritz_bank_as_hopbank(ritz_bank(fact, n=op.n), hops, raw_hop0=x)
    raise ConfigError(f"no bank recipe for basis {basis!r}")


def repropagate(graph: Graph, hidden: np.ndarray, hops: int, *, family: str,
                operator: str = "shifted", jacobi_alpha: float = 0.0,
                jacobi_beta: float = 0.0, lanczos_order: int | None = None) -> HopBank:
    """Diffuse extracted hidden states into a fresh hop bank of ``family``
    on the graph's ``operator``, which must be ``shifted`` for every family
    but ``monomial``."""
    return diffuse(make_operator(graph, operator), hidden, hops,
                   {"basis": family, "alpha": jacobi_alpha, "beta": jacobi_beta,
                    "order": lanczos_order})


def blend(bank: HopBank, htilde: HopBank, alphas) -> HopBank:
    """Per-hop convex blend of two banks of identical shape.

    Weight-1 and weight-0 hops are copied, not recomputed, so those slabs
    stay bit-identical to their source.
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
    slabs = np.empty_like(bank.slabs)
    for k, a in enumerate(alphas):
        if a == 1.0:
            slabs[k] = bank.slabs[k]
        elif a == 0.0:
            slabs[k] = htilde.slabs[k]
        else:
            a32 = np.float32(a)
            np.multiply(a32, bank.slabs[k], out=slabs[k])
            slabs[k] += (np.float32(1.0) - a32) * htilde.slabs[k]
    prov = dict(bank.provenance)
    prov["blended"] = {"alphas": alphas.tolist(), "source": htilde.provenance}
    return HopBank(hops=bank.hops, slabs=slabs, provenance=prov)


def moment_signature(x: np.ndarray, lap_op, max_power: int = 4):
    """Per-channel normalized energy profile under repeated Laplacian powers.

    Channel c yields (mu_0..mu_K) with mu_k = ||L^k x_c||^2 / ||x_c||^2,
    normalized to sum to one. Returns (signatures, channel_ids); zero
    channels are dropped.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("signature input must be (n, d)")
    norms0 = np.sum(x * x, axis=0)
    keep = np.nonzero(norms0 > 0.0)[0]
    mus = np.empty((max_power + 1, keep.size))
    cur = x[:, keep]
    mus[0] = 1.0
    for k in range(1, max_power + 1):
        cur = spmm(lap_op, cur)
        mus[k] = np.sum(cur * cur, axis=0) / norms0[keep]
    sig = mus.T
    sig = sig / sig.sum(axis=1, keepdims=True)
    return sig, keep


def _jensen_shannon(p, q):
    m = 0.5 * (p + q)

    def kl(a, b):
        mask = a > 0
        return float(np.sum(a[mask] * np.log(a[mask] / b[mask])))

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def spectral_distance(x: np.ndarray, y: np.ndarray, lap_op, max_power: int = 4) -> float:
    """Mean per-channel Jensen-Shannon distance, in nats, between the moment
    signatures of two matrices."""
    if x.shape[1] != y.shape[1]:
        raise ValueError("channel counts differ")
    return _signature_distance(moment_signature(x, lap_op, max_power),
                               moment_signature(y, lap_op, max_power))


def _signature_distance(a, b) -> float:
    """``spectral_distance`` between two ``moment_signature`` results, so a
    signature used against many matrices is computed once."""
    (sx, cx), (sy, cy) = a, b
    common, ix, iy = np.intersect1d(cx, cy, return_indices=True)
    if common.size == 0:
        raise NumericalError("no channel is nonzero in both matrices")
    total = sum(_jensen_shannon(a, b) for a, b in zip(sx[ix], sy[iy]))
    return total / common.size


def _metric_fn(metric):
    if metric == "accuracy":
        return lambda logits, labels, mask: accuracy(logits, labels, mask)
    return lambda logits, labels, mask: roc_auc(model_scores(logits), labels, mask)


def evaluate_split(model, params, bank: HopBank, lv, mask, metric: str = "accuracy",
                   chunk: int = 8192) -> float:
    """Deterministic eval-mode metric over an arbitrary node mask."""
    ids = np.nonzero(np.asarray(mask))[0]
    logits = np.empty((ids.size, model.num_classes), dtype=np.float64)
    for lo in range(0, ids.size, chunk):
        sel = ids[lo:lo + chunk]
        lg, _, _ = model.forward(params, bank.slabs, sel, train=False)
        logits[lo:lo + len(sel)] = lg
    return _metric_fn(metric)(logits, lv.labels[ids], np.ones(ids.size, dtype=bool))


def train_stage(model, params, adam, bank: HopBank, lv, cfg: TrainConfig, *,
                stage: int, epochs: int, seed: int, patience: int | None = None,
                diagnostics: bool = False):
    """Train one stage in place and return its bookkeeping.

    The random streams for shuffling and dropout are keyed by (seed, stage,
    epoch), never shared with bank construction, so a stage retrains
    identically whether or not re-propagation ran before it. A batch's
    dropout stream is only made when a dropout rate is nonzero.

    Returns a dict with the epoch history, the best checkpoint (params and
    optimizer state are deep copies), the early-stop flag, and under the
    stage plan's ``diagnostics`` flag deep copies of the first three epochs'
    params (``early``, for hidden snapshots; empty otherwise).
    """
    train_ids = np.nonzero(lv.train_mask)[0]
    if train_ids.size == 0:
        raise ValueError("no training nodes")
    eff_patience = min(patience if patience is not None else cfg.patience, epochs)
    drops = cfg.dropout > 0.0 or cfg.input_dropout > 0.0
    best = {"epoch": 0, "val": -np.inf, "params": None, "adam": None}
    early = {}
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
        if diagnostics and epoch <= 3:
            early[epoch] = copy.deepcopy(params)
        if val > best["val"]:
            best = {"epoch": epoch, "val": float(val),
                    "params": copy.deepcopy(params), "adam": copy.deepcopy(adam)}
            since_best = 0
        else:
            since_best += 1
        if since_best >= eff_patience:
            stopped = True
            break
    return {"history": history, "best": best, "early": early,
            "stopped_early": stopped}


def _store_hidden(hidden: np.ndarray, workdir, seed: int, stage: int, epoch: int):
    """Keep a snapshot in memory, or spill to an .npy file named by seed,
    stage and epoch when a workdir is given (the CLI does, to bound resident
    memory on long runs; seeds sharing a workdir keep their own files)."""
    if workdir is None:
        return hidden
    import os

    path = os.path.join(str(workdir), f"hidden_seed{seed}_s{stage}_e{epoch}.npy")
    np.save(path, hidden)
    return path


def _load_hidden(snap):
    return np.load(snap) if isinstance(snap, str) else snap


def run_hrp_training(plan: StagePlan, bank: HopBank, graph: Graph | None, lv,
                     cfg: TrainConfig, *, model_kind: str = "mlp",
                     workdir=None) -> RunResult:
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
    # the Laplacian and the raw features' moment signature, made on first use
    lap_op = base_sig = None
    recipe = bank.provenance  # checked here, so a bank no recipe rebuilds fails before stage 1
    need = ("operator", "alpha", "beta") if recipe.get("basis") == "jacobi" else ("operator",)
    if plan.stages > 1 and (recipe.get("basis") not in _RECIPE_BASES
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
                          patience=plan.patience, diagnostics=plan.diagnostics)
        train_secs = time.perf_counter() - t0
        selected = out["best"]

        t1 = time.perf_counter()
        snapshots = {}
        dist = None
        diff_spmm = diag_spmm = 0
        if s < plan.stages:
            hidden = extract_hidden(model, selected["params"], stage_bank)
            if plan.diagnostics:
                pre = spmm_call_count()
                if base_sig is None:
                    lap_op = make_operator(graph, "lap")
                    base_sig = moment_signature(bank.slabs[0], lap_op)
                try:  # distance from hop 0, which no stage changes
                    dist = _signature_distance(moment_signature(hidden, lap_op),
                                               base_sig)
                except NumericalError:  # no channel is nonzero in both
                    pass
                for e, early_params in out["early"].items():
                    snapshots[e] = _store_hidden(
                        extract_hidden(model, early_params, stage_bank),
                        workdir, cfg.seed, s, e)
                snapshots[selected["epoch"]] = _store_hidden(
                    hidden, workdir, cfg.seed, s, selected["epoch"])
                diag_spmm = spmm_call_count() - pre
            pre = spmm_call_count()
            htilde = repropagate(
                graph, hidden, hops, family=recipe["basis"], operator=recipe["operator"],
                jacobi_alpha=recipe.get("alpha", 0.0), jacobi_beta=recipe.get("beta", 0.0),
                lanczos_order=recipe.get("order"))
            diff_spmm = spmm_call_count() - pre
            cur_bank = blend(stage_bank, htilde, blend_alphas(plan, s, hops))
        diff_secs = time.perf_counter() - t1

        stage_results.append(StageResult(
            stage=s, selected_epoch=selected["epoch"], val_metric=selected["val"],
            history=out["history"], hidden_snapshots=snapshots,
            spectral_distance_to_x=dist, diffusion_spmm=diff_spmm,
            diagnostic_spmm=diag_spmm, train_seconds=train_secs,
            diffusion_seconds=diff_secs, stopped_early=out["stopped_early"]))

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
