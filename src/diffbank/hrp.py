"""Staged training with hidden-state re-propagation.

One run is a sequence of stages sharing a single model family. Stage s
trains on bank Z^(s); at its end a checkpoint is selected, the per-node
hidden states H of that checkpoint are extracted as data (no gradient ever
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

Checkpoint selection is best-validation by default. The screening policy
keeps the three earliest epochs plus the two best as candidates, ranks
them with a cheap proxy (a fresh model trained briefly on a 2-hop blend),
and breaks proxy ties toward the candidate whose hidden states sit
farthest from the raw features in moment-signature distance; the raw
features' signature is computed once per run, on first use, and shared with
the diagnostics. The winner's own checkpoint continues; nothing is
retrained at full budget.
"""

import copy
import time
from dataclasses import dataclass, field

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
    "repropagate",
    "blend",
    "moment_signature",
    "spectral_distance",
    "screen_checkpoints",
    "build_model",
    "train_stage",
    "evaluate_split",
    "run_hrp_training",
]

MAX_STAGES = 7
FAMILIES = ("monomial", "chebyshev", "legendre", "jacobi", "krylov")


@dataclass
class StagePlan:
    """Stage schedule and re-propagation recipe.

    ``diagnostics=True`` additionally records early-epoch hidden snapshots
    and the spectral distance between the selected hidden states and the
    raw features. Those cost extra sparse products, booked separately from
    the re-propagation itself so the report's diffusion share stays a
    statement about HRP proper.
    """

    stages: int = 1
    epochs: int | list = TrainConfig.epochs
    lambda0: float = 0.5
    schedule: str = "cosine"
    alpha_vectors: list | None = None
    hrp_family: str = "same"
    hrp_operator: str = "shifted"
    jacobi_alpha: float = 0.0
    jacobi_beta: float = 0.0
    lanczos_order: int | None = None
    checkpoint_policy: str = "best-val"
    warm_start: bool = True
    patience: int = TrainConfig.patience
    screen_epochs: int = 10
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
        if self.hrp_family != "same" and self.hrp_family not in FAMILIES:
            raise ConfigError(f"unknown re-propagation family {self.hrp_family!r}")
        if self.checkpoint_policy not in ("best-val", "diversity-screened"):
            raise ConfigError(f"unknown checkpoint policy {self.checkpoint_policy!r}")
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
    report: dict = field(default_factory=dict)


def cosine_blend_weight(s: int, stages: int, lambda0: float) -> float:
    """Re-propagated share for the blend entering stage s+1 (1 <= s < S)."""
    if not 1 <= s < stages:
        raise ValueError(f"stage index {s} outside [1, {stages})")
    return float(lambda0 * 0.5 * (1.0 + np.cos(np.pi * s / stages)))


def blend_alphas(plan: StagePlan, s: int, hops: int) -> np.ndarray:
    if plan.schedule == "perhop":
        alpha = np.asarray(plan.alpha_vectors[s - 1], dtype=np.float64)
        if alpha.shape != (hops + 1,):
            raise ConfigError("per-hop alpha vector has the wrong length")
        if alpha[0] != 1.0:
            raise ConfigError("hop-0 blend weight must be exactly 1")
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
        out[lo:lo + len(ids)] = hidden.astype(np.float32)
    return out


def repropagate(graph: Graph, hidden: np.ndarray, hops: int, *, family: str,
                operator: str = "shifted", jacobi_alpha: float = 0.0,
                jacobi_beta: float = 0.0, lanczos_order: int | None = None) -> HopBank:
    """Diffuse extracted hidden states into a fresh hop bank.

    Reuses the same bank builders as preprocessing. The polynomial and
    Krylov families run on the shifted operator; the monomial family may
    use any operator kind.
    """
    if family not in FAMILIES:
        raise ConfigError(f"unknown re-propagation family {family!r}")
    if family == "monomial":
        op = make_operator(graph, operator)
        return monomial_bank(op, hidden, hops)
    op = make_operator(graph, "shifted")
    if family == "legendre":
        return legendre_bank(op, hidden, hops)
    if family == "chebyshev":
        return chebyshev_bank(op, hidden, hops)
    if family == "jacobi":
        return jacobi_bank(op, hidden, hops, jacobi_alpha, jacobi_beta)
    order = lanczos_order if lanczos_order is not None else hops + 1
    fact = batched_lanczos(op, hidden, order)
    rb = ritz_bank(fact, n=graph.n)
    return ritz_bank_as_hopbank(rb, hops, raw_hop0=hidden)


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
            slabs[k] = a32 * bank.slabs[k] + (np.float32(1.0) - a32) * htilde.slabs[k]
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


def screen_checkpoints(candidates, evaluate_small, diversity, tie_eps: float = 1e-9):
    """Rank candidates by ``evaluate_small``; near-ties (within ``tie_eps``)
    are broken toward higher ``diversity``, then toward the earlier
    candidate. Returns (winner, detail dict)."""
    if not candidates:
        raise ValueError("no candidates to screen")
    small = [float(evaluate_small(c)) for c in candidates]
    top = max(small)
    tied = [i for i, v in enumerate(small) if v >= top - tie_eps]
    if len(tied) > 1:
        divs = {i: float(diversity(candidates[i])) for i in tied}
        winner_idx = max(tied, key=lambda i: (divs[i], -i))
    else:
        winner_idx = tied[0]
    return candidates[winner_idx], {"small_scores": small, "winner_index": winner_idx}


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
                keep_early: int = 3, keep_best: int = 2, history_sink=None):
    """Train one stage in place and return its bookkeeping.

    The random streams for shuffling and dropout are keyed by (seed, stage,
    epoch), never shared with bank construction, so a stage retrains
    identically whether or not re-propagation ran before it.

    Returns a dict with the epoch history, the best checkpoint (params and
    optimizer state are deep copies), deep-copied early/top checkpoints for
    screening, and the early-stop flag.
    """
    train_ids = np.nonzero(lv.train_mask)[0]
    if train_ids.size == 0:
        raise ValueError("no training nodes")
    eff_patience = min(patience if patience is not None else cfg.patience, epochs)
    best = {"epoch": 0, "val": -np.inf, "params": None, "adam": None}
    tops = []
    top_ckpts = {}
    early = {}
    history = []
    since_best = 0
    stopped = False
    for epoch in range(1, epochs + 1):
        order = rng_for(seed, "shuffle", stage, epoch).permutation(train_ids)
        losses = []
        for bi, lo in enumerate(range(0, order.size, cfg.batch_size)):
            batch = order[lo:lo + cfg.batch_size]
            drop_rng = rng_for(seed, "dropout", stage, epoch, bi)
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
        if history_sink is not None:
            history_sink(row)
        if epoch <= keep_early:
            early[epoch] = {"params": copy.deepcopy(params), "adam": copy.deepcopy(adam)}
        if val > best["val"]:
            best = {"epoch": epoch, "val": float(val),
                    "params": copy.deepcopy(params), "adam": copy.deepcopy(adam)}
            since_best = 0
        else:
            since_best += 1
        tops.append((float(val), epoch))
        tops = sorted(tops, key=lambda t: (-t[0], t[1]))[:keep_best]
        kept = {e for _, e in tops}
        if epoch in kept:
            top_ckpts[epoch] = {"val": float(val), "params": copy.deepcopy(params),
                                "adam": copy.deepcopy(adam)}
        top_ckpts = {e: ck for e, ck in top_ckpts.items() if e in kept}
        if since_best >= eff_patience:
            stopped = True
            break
    return {"history": history, "best": best, "early": early,
            "top_epochs": sorted(top_ckpts), "top_ckpts": top_ckpts,
            "stopped_early": stopped}


def _resolve_reprop_spec(plan: StagePlan, bank: HopBank) -> dict:
    """Turn the plan's re-propagation fields into repropagate() kwargs;
    ``same`` inherits whatever family and weights built the input bank."""
    if plan.hrp_family == "same":
        prov = bank.provenance
        family = prov.get("basis", "legendre")
        if family not in FAMILIES:
            raise ConfigError(f"input bank has no reusable basis ({family!r}); "
                              "set an explicit re-propagation family")
        return {
            "family": family,
            "operator": prov.get("operator", "shifted"),
            "jacobi_alpha": float(prov.get("alpha", 0.0)),
            "jacobi_beta": float(prov.get("beta", 0.0)),
            "lanczos_order": prov.get("order"),
        }
    return {
        "family": plan.hrp_family,
        "operator": plan.hrp_operator,
        "jacobi_alpha": plan.jacobi_alpha,
        "jacobi_beta": plan.jacobi_beta,
        "lanczos_order": plan.lanczos_order,
    }


def _store_hidden(hidden: np.ndarray, workdir, stage: int, epoch: int):
    """Keep a snapshot in memory, or spill to an .npy file when a workdir
    is given (the CLI does, to bound resident memory on long runs)."""
    if workdir is None:
        return hidden
    import os

    path = os.path.join(str(workdir), f"hidden_s{stage}_e{epoch}.npy")
    np.save(path, hidden)
    return path


def _load_hidden(snap):
    return np.load(snap) if isinstance(snap, str) else snap


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


def _screen_stage(plan, model_kind, out, stage_bank, graph, lv, cfg, reprop_spec,
                  s, distance_to_x, model):
    """Diversity screening over {3 earliest, 2 best} checkpoints of a stage."""
    checkpoints = dict(out["early"])
    checkpoints.update(out["top_ckpts"])
    cand_epochs = sorted(checkpoints)
    candidates = []
    screen_hops = min(2, stage_bank.hops)
    alphas_small = blend_alphas(plan, s, screen_hops)
    for e in cand_epochs:
        hid = extract_hidden(model, checkpoints[e]["params"], stage_bank)
        candidates.append({"epoch": e, "hidden": hid, "ckpt": checkpoints[e]})

    def small_bank(cand):
        ht = repropagate(graph, cand["hidden"], screen_hops, **reprop_spec)
        small = HopBank(hops=screen_hops, slabs=stage_bank.slabs[:screen_hops + 1],
                        provenance=stage_bank.provenance)
        return blend(small, ht, alphas_small)

    def eval_small(cand):
        b = small_bank(cand)
        m = build_model(model_kind, screen_hops, b.width, lv.num_classes, cfg)
        p = m.init(seed=cfg.seed, dtype=np.float32)
        st = init_adam(p)
        res = train_stage(m, p, st, b, lv, cfg, stage=s, epochs=plan.screen_epochs,
                          seed=cfg.seed + 104729, patience=plan.screen_epochs)
        return res["best"]["val"]

    def diversity(cand):
        dist = distance_to_x(cand["hidden"])
        return -np.inf if dist is None else dist

    winner, _ = screen_checkpoints(candidates, eval_small, diversity)
    hist = {row["epoch"]: row["val_metric"] for row in out["history"]}
    return {"epoch": winner["epoch"], "val": hist[winner["epoch"]],
            "params": winner["ckpt"]["params"], "adam": winner["ckpt"]["adam"]}


def run_hrp_training(plan: StagePlan, bank: HopBank, graph: Graph | None, lv,
                     cfg: TrainConfig, *, model_kind: str = "mlp",
                     workdir=None, history_sink=None) -> RunResult:
    """Full staged run.

    Returns the globally best checkpoint across stages together with the
    bank of the stage it came from (a stage-s model only makes sense on
    the bank it trained on) and per-stage reports with diffusion costs.
    ``graph`` may be None only for single-stage plans, where no
    re-propagation happens.
    """
    if plan.stages > 1 and graph is None:
        raise ConfigError("multi-stage plans need the graph for re-propagation")
    hops = bank.hops
    model = build_model(model_kind, hops, bank.width, lv.num_classes, cfg)
    params = model.init(seed=cfg.seed, dtype=np.float32)
    adam = init_adam(params)
    lap_op = make_operator(graph, "lap") if graph is not None else None
    base_sig = None  # moment signature of the raw features, made on first use

    def distance_to_x(hidden):
        """Spectral distance from hop 0, which no stage changes; None when
        no channel is nonzero in both."""
        nonlocal base_sig
        if base_sig is None:
            base_sig = moment_signature(bank.slabs[0], lap_op)
        try:
            return _signature_distance(moment_signature(hidden, lap_op), base_sig)
        except NumericalError:
            return None

    reprop_spec = _resolve_reprop_spec(plan, bank) if plan.stages > 1 else None
    stage_results = []
    best_overall = {"val": -np.inf, "stage": 0, "epoch": 0, "params": None}
    best_bank = bank
    cur_bank = bank

    for s in range(1, plan.stages + 1):
        stage_bank = cur_bank
        t0 = time.perf_counter()
        out = train_stage(model, params, adam, stage_bank, lv, cfg, stage=s,
                          epochs=plan.epochs[s - 1], seed=cfg.seed,
                          patience=plan.patience, history_sink=history_sink)
        train_secs = time.perf_counter() - t0

        spmm0 = spmm_call_count()
        t1 = time.perf_counter()
        if plan.checkpoint_policy == "diversity-screened" and s < plan.stages:
            selected = _screen_stage(plan, model_kind, out, stage_bank, graph, lv,
                                     cfg, reprop_spec, s, distance_to_x, model)
        else:
            selected = out["best"]
        diag_spmm = spmm_call_count() - spmm0

        snapshots = {}
        hidden = None
        dist = None
        diff_spmm = 0
        if s < plan.stages:
            hidden = extract_hidden(model, selected["params"], stage_bank)
            if plan.diagnostics:
                pre = spmm_call_count()
                dist = distance_to_x(hidden)
                for e, snap in out["early"].items():
                    snapshots[e] = _store_hidden(
                        extract_hidden(model, snap["params"], stage_bank),
                        workdir, s, e)
                snapshots[selected["epoch"]] = _store_hidden(hidden, workdir, s,
                                                             selected["epoch"])
                diag_spmm += spmm_call_count() - pre
            pre = spmm_call_count()
            htilde = repropagate(graph, hidden, hops, **reprop_spec)
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
                            "params": copy.deepcopy(selected["params"])}
            best_bank = stage_bank

        if s < plan.stages:
            if plan.warm_start:
                params = copy.deepcopy(selected["params"])
                adam = copy.deepcopy(selected["adam"])
            else:
                params = model.init(seed=cfg.seed + s, dtype=np.float32)
                adam = init_adam(params)

    report = {
        "stages": [_stage_dict(r) for r in stage_results],
        "best_stage": best_overall["stage"],
        "best_epoch": best_overall["epoch"],
        "best_val": best_overall["val"],
        "total_diffusion_spmm": int(sum(r.diffusion_spmm for r in stage_results)),
        "total_diagnostic_spmm": int(sum(r.diagnostic_spmm for r in stage_results)),
        "total_train_seconds": float(sum(r.train_seconds for r in stage_results)),
        "total_diffusion_seconds": float(sum(r.diffusion_seconds for r in stage_results)),
    }
    return RunResult(model=model, params=best_overall["params"], bank=best_bank,
                     best_stage=best_overall["stage"], best_epoch=best_overall["epoch"],
                     best_val=best_overall["val"], stages=stage_results, report=report)
