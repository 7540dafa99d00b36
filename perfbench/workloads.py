"""Benchmark workloads and the pipeline that runs and checks each of them.

A workload is a list of pipelines. One *round* runs each of its pipelines
(all of them, or the next ``per_round``) once, in the order ``diffbank
train`` then ``diffbank evaluate`` uses the public API: ``prepare_dataset``, ``build_bank``, ``run_hrp_training``, ``evaluate_split``
and, for workloads with a file round trip, ``save_checkpoint`` and
``save_bank_file``, ``load_checkpoint`` and ``load_bank_file``, and
``evaluate_split`` again on the reloaded artifacts.

Every call goes through its module attribute (``experiment.build_bank``, not
a name bound at import), so the traced run sees the benchmark's own calls.

Why these workloads:

``desk-ablation``
    The acceptance config (spectral-signal, n=2000) under the three arms of
    ``diffbank experiment --ablation`` on three seeds; one round runs the
    three arms on one seed, and rounds take the seeds in turn. Dense
    ``eigh`` in the dataset generator and small-batch training dominate; it
    is the only workload that prepares the same (dataset, seed) pair more
    than once.
``scale-legendre``
    A 100k-node, mean-degree-20 file graph with 64 features and a Legendre
    K=6 bank over two stages, saved and reloaded. Edge-list parsing,
    width-64 sparse products, bank file I/O and large-batch training
    dominate; its banks (180 MB) are larger than the last-level cache. It
    never runs synth, calibration or Krylov code.
``mid-spectral``
    The same generator at 25k nodes, one Krylov pipeline (order 7, Krylov
    re-propagation) and one calibrated-Jacobi pipeline (20 moments x 64
    probes), each on its own input draw and one epoch per stage.
    Per-channel Lanczos and stochastic calibration do most of the work here.

The file graphs are half the size of ROADMAP's scale point (200k nodes) and
its mid point (50k), and a desk round holds one seed, so that one round
takes seconds, not a quarter of a minute or more. On a shared 2-vCPU host
the machine's speed drops by up to 1.5x for tens of seconds at a time, for
compute, memory-bound and interpreter work alike; a run that holds one long
round takes such a dip whole, while the median over several short rounds
mostly passes it by. Slower drifts over minutes, which hit the memory-bound
file workloads hardest, no in-run median removes.
"""

import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from diffbank import config, experiment, graph, hrp
from diffbank import io as dio
from diffbank.backbone import TrainConfig

from inputs import write_planted

__all__ = ["Pipeline", "Workload", "WORKLOADS", "make_workload", "expected_spmm",
           "run_pipeline"]

DESK_SYNTH = {
    "generator": "spectral-signal", "n": 2000, "feature_dim": 16,
    "p_intra": 0.01, "p_inter": 0.01, "snr": 0.7, "noise": 1.0,
    "signal_quantile": 0.97, "confounder_scale": 3.0}
DESK = {"basis": "auto", "hops": 6,
        "train": {"epochs": 30, "batch_size": 256, "trunk": [128], "lr": 0.01,
                  "patience": 30}}

# the three arms of run_ablation: power baseline, robust basis, full plan
ABLATION_ARMS = {
    "monomial-dad": {"basis": "monomial", "operator": "dad",
                     "hrp": {"stages": 1, "lambda0": 0.5}},
    "robust": {"hrp": {"stages": 1, "lambda0": 0.5}},
    "robust+hrp": {"hrp": {"stages": 2, "lambda0": 0.5}},
}

FILE = {"hops": 6, "hrp": {"stages": 2, "lambda0": 0.5}}
SCALE_TRAIN = {"epochs": 3, "batch_size": 1024, "trunk": [128], "lr": 0.01}
# mid-spectral measures bank building, so it trains just long enough to
# have hidden states to re-propagate
MID_TRAIN = {**SCALE_TRAIN, "epochs": 1}

# test accuracy must beat uniform guessing by this much; a model that
# learned nothing scores about 1 / num_classes
CHANCE_MARGIN = 0.02


@dataclass(frozen=True)
class Pipeline:
    """One dataset -> bank -> training -> evaluation pass and what it must give."""

    label: str
    cfg: dict
    seed: int
    round_trip: bool = False
    expected_spmm: int | None = None

    def __post_init__(self):
        if self.expected_spmm is None:
            object.__setattr__(self, "expected_spmm", expected_spmm(self.cfg))


@dataclass
class Workload:
    name: str
    pipelines: list
    inputs: dict = field(default_factory=dict)  # file name -> sha256
    per_round: int | None = None  # pipelines in one round; None runs them all

    @property
    def cycle(self) -> int:
        """Rounds it takes to run every pipeline once."""
        return -(-len(self.pipelines) // (self.per_round or len(self.pipelines)))

    def round(self, i: int) -> list:
        """The pipelines of round ``i``; rounds go through them in order."""
        k = self.per_round or len(self.pipelines)
        j = i % self.cycle
        return self.pipelines[j * k:(j + 1) * k]


def expected_spmm(cfg: dict) -> int:
    """Closed-form sparse-product count of one pipeline.

    The bank costs K products (Krylov: the Lanczos order), plus the moment
    order for a calibrated basis; each later stage re-propagates with the
    same family at the same cost. Diagnostics stay off and the checkpoint
    policy is best-validation, so nothing else multiplies.
    """
    hops = cfg["hops"]
    if cfg["basis"] == "krylov":
        per_bank = cfg["krylov"]["order"] or hops + 1
    else:
        per_bank = hops
    calib = cfg["calibration"]["order"] if cfg["basis"] == "auto" else 0
    return calib + per_bank * cfg["hrp"]["stages"]


def desk_ablation(seed: int, workdir: Path, n: int = 2000) -> Workload:
    dataset = {"synthetic": {**DESK_SYNTH, "n": n}}
    pipelines = [Pipeline(f"{arm}/seed{s}",
                          config.validate_config({**DESK, "dataset": dataset, **over}), s)
                 for s in range(3 * seed, 3 * seed + 3)
                 for arm, over in ABLATION_ARMS.items()]
    return Workload("desk-ablation", pipelines, per_round=len(ABLATION_ARMS))


def _file_dataset(planted: dict, n: int) -> dict:
    p = planted["paths"]
    return {"edges": p["edges"], "features": p["features"], "labels": p["labels"],
            "num_nodes": n}


def scale_legendre(seed: int, workdir: Path, n: int = 100_000) -> Workload:
    planted = write_planted(n, seed, workdir / "scale")
    cfg = config.validate_config({**FILE, "dataset": _file_dataset(planted, n),
                                  "train": SCALE_TRAIN, "basis": "legendre"})
    return Workload("scale-legendre", [Pipeline("legendre", cfg, seed, round_trip=True)],
                    {f"scale/{k}": v for k, v in planted["sha256"].items()})


def mid_spectral(seed: int, workdir: Path, n: int = 25_000) -> Workload:
    pipelines, inputs = [], {}
    arms = {"krylov": {"basis": "krylov", "krylov": {"order": 7}}, "auto": {"basis": "auto"}}
    for i, (arm, over) in enumerate(arms.items()):
        planted = write_planted(n, 2 * seed + i, workdir / arm)
        cfg = config.validate_config({**FILE, "dataset": _file_dataset(planted, n),
                                      "train": MID_TRAIN, **over})
        pipelines.append(Pipeline(arm, cfg, seed))
        inputs.update({f"{arm}/{k}": v for k, v in planted["sha256"].items()})
    return Workload("mid-spectral", pipelines, inputs)


WORKLOADS = {"desk-ablation": desk_ablation, "scale-legendre": scale_legendre,
             "mid-spectral": mid_spectral}


def make_workload(name: str, seed: int, workdir: Path, **size) -> Workload:
    return WORKLOADS[name](seed, workdir, **size)


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality, compared slab by slab so that checking a bank adds
    little to the peak memory the benchmark reports."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    bits = f"u{a.itemsize}"
    pairs = zip(a, b) if a.ndim == 3 else [(a, b)]
    return all(np.array_equal(p.view(bits), q.view(bits)) for p, q in pairs)


def run_pipeline(p: Pipeline, workdir: Path) -> dict:
    """Run one pipeline, time its phases and check every output.

    Returns phase seconds, the product count, the test accuracy and the list
    of failed checks (empty when the pipeline passed). Exceptions propagate;
    the caller counts them as failures.
    """
    cfg, seed = p.cfg, p.seed
    t = {}
    spmm0 = graph.spmm_call_count()
    start = perf_counter()
    g, x, lv, _ = experiment.prepare_dataset(cfg, seed)
    t["setup_s"] = perf_counter() - start
    start = perf_counter()
    bank, _ = experiment.build_bank(cfg, g, x)
    t["bank_s"] = perf_counter() - start
    x32 = np.asarray(x, dtype=np.float32)
    hop0_ok = _bits_equal(bank.slabs[0], x32)
    plan = config.to_stage_plan(cfg)
    tcfg = config.to_train_config(cfg, seed)
    start = perf_counter()
    result = hrp.run_hrp_training(plan, bank, g, lv, tcfg, model_kind=cfg["backbone"])
    t["train_s"] = perf_counter() - start
    # holding the input bank past training would make peak memory depend on
    # which stage wins
    del bank
    test = hrp.evaluate_split(result.model, result.params, result.bank, lv,
                              lv.test_mask, cfg["metric"])

    errors = []
    if not (hop0_ok and _bits_equal(result.bank.slabs[0], x32)):
        errors.append("hop-0 slab differs from the float32 input features")
    floor = 1.0 / lv.num_classes + CHANCE_MARGIN
    if not (np.isfinite(test) and test > floor):
        errors.append(f"test accuracy {test!r} is not above the floor {floor:.3f}")

    if p.round_trip:
        mdl, hbk = workdir / "model.mdl", workdir / "bank.hbk"
        model_cfg = {"backbone": cfg["backbone"], "hops": result.bank.hops,
                     "width": result.bank.width, "num_classes": lv.num_classes,
                     "trunk": list(tcfg.trunk), "state_dim": tcfg.state_dim,
                     "readout": tcfg.readout}
        dio.save_checkpoint(mdl, result.params, model_cfg)
        dio.save_bank_file(hbk, result.bank)
        params2, cfg2 = dio.load_checkpoint(mdl)
        bank2 = dio.load_bank_file(hbk)
        model2 = hrp.build_model(cfg2["backbone"], bank2.hops, bank2.width,
                                 cfg2["num_classes"],
                                 TrainConfig(trunk=tuple(cfg2["trunk"]),
                                             state_dim=cfg2["state_dim"],
                                             readout=cfg2["readout"]))
        test2 = hrp.evaluate_split(model2, params2, bank2, lv, lv.test_mask,
                                   cfg["metric"])
        if not (_bits_equal(bank2.slabs, result.bank.slabs)
                and bank2.provenance == result.bank.provenance):
            errors.append("reloaded bank differs from the in-memory bank")
        if test2 != test:
            errors.append(f"reloaded test metric {test2!r} != in-memory {test!r}")
        os.remove(mdl)
        os.remove(hbk)

    products = graph.spmm_call_count() - spmm0
    if products != p.expected_spmm:
        errors.append(f"{products} sparse products, closed form gives {p.expected_spmm}")
    return {"label": p.label, **t, "spmm_products": products,
            "test_acc": float(test), "best_stage": result.best_stage, "errors": errors}

