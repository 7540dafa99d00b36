"""Span tracing for the traced benchmark run, from outside the program.

``Tracer.install`` rebinds public functions where the pipeline looks them
up (``diffbank.banks.spmm``, ``diffbank.hrp.repropagate``,
``ConcatMLP.forward`` and so on) to wrappers that record one span per call:
name, start, end, parent span and run id, plus counters such as rows or
bytes. ``uninstall`` puts the originals back. The program itself is not
edited; a binding that no longer exists is skipped and listed in
``Tracer.unbound``.

Calls run on one thread (``DIFFBANK_THREADS=1``), so spans nest strictly
and a stack gives each span its parent. A span's self time is its duration
minus the time its direct children cover.
"""

import inspect
import json
import os
from time import perf_counter

import numpy as np

from diffbank import backbone, banks, calibration, experiment, graph, hrp, krylov, synth
from diffbank import io as dio

__all__ = ["Tracer", "layer_metrics", "PER_LAYER"]


def _spmm_note(args, out, sp):
    op, m = args["op"], args["m"]
    width = 1 if np.ndim(m) == 1 else np.shape(m)[1]
    mat = op._matrix
    sp["nnz_cols"] = mat.nnz * width
    # computed, not measured: CSR arrays read once, float64 operand read,
    # float64 result written
    sp["bytes"] = (mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
                   + 2 * 8 * op.n * width)


def _file_bytes(key):
    def note(args, out, sp):
        sp["bytes"] = os.path.getsize(args[key])
    return note


def _generate_note(args, out, sp):
    sp["key"] = repr(args["spec"])


def _moments_note(args, out, sp):
    sp["probe_cols"] = args["order"] * args["probes"]


def _bank_note(args, out, sp):
    sp["slab_bytes"] = out.slabs.nbytes


def _lanczos_note(args, out, sp):
    sp["channel_steps"] = sum(cf.steps for cf in out.channels)
    sp["breakdowns"] = sum(1 for cf in out.channels if cf.breakdown)


def _forward_note(args, out, sp):
    sp["rows"] = len(args["ids"])


_BANKS = ("monomial_bank", "chebyshev_bank", "legendre_bank", "jacobi_bank")

# (owner, attribute, span name, counter note); owners are the modules whose
# globals the pipeline resolves the name in
BINDINGS = [
    (experiment, "prepare_dataset", "experiment.prepare_dataset", None),
    (experiment, "build_bank", "experiment.build_bank", None),
    (experiment, "generate", "synth.generate", _generate_note),
    (experiment, "load_edge_list", "io.load_edge_list", _file_bytes("path")),
    (experiment, "load_features", "io.load_features", None),
    (experiment, "load_labels", "io.load_labels", None),
    (experiment, "make_operator", "graph.make_operator", None),
    (experiment, "calibrate", "calibration.calibrate", None),
    (experiment, "batched_lanczos", "krylov.batched_lanczos", _lanczos_note),
    *[(experiment, a, "banks.build", _bank_note) for a in _BANKS],
    (experiment, "ritz_bank", "krylov.ritz", None),
    (experiment, "ritz_bank_as_hopbank", "krylov.ritz", _bank_note),
    (synth, "build_graph", "graph.build_graph", None),
    (synth, "make_operator", "graph.make_operator", None),
    (dio, "build_graph", "graph.build_graph", None),
    (dio, "save_bank_file", "io.save_bank_file", _file_bytes("path")),
    (dio, "load_bank_file", "io.load_bank_file", None),
    (dio, "save_checkpoint", "io.save_checkpoint", None),
    (dio, "load_checkpoint", "io.load_checkpoint", None),
    (calibration, "estimate_moments", "calibration.estimate_moments", _moments_note),
    (graph, "spmm", "graph.spmm", _spmm_note),
    (banks, "spmm", "graph.spmm", _spmm_note),
    (calibration, "spmm", "graph.spmm", _spmm_note),
    (krylov, "spmm", "graph.spmm", _spmm_note),
    (hrp, "spmm", "graph.spmm", _spmm_note),
    (hrp, "run_hrp_training", "hrp.run_hrp_training", None),
    (hrp, "train_stage", "hrp.train_stage", None),
    (hrp, "evaluate_split", "hrp.evaluate_split", None),
    (hrp, "extract_hidden", "hrp.extract_hidden", None),
    (hrp, "repropagate", "hrp.repropagate", None),
    (hrp, "blend", "hrp.blend", None),
    (hrp, "adam_step", "backbone.adam_step", None),
    (hrp, "make_operator", "graph.make_operator", None),
    (hrp, "batched_lanczos", "krylov.batched_lanczos", _lanczos_note),
    *[(hrp, a, "banks.build", _bank_note) for a in _BANKS],
    (hrp, "ritz_bank", "krylov.ritz", None),
    (hrp, "ritz_bank_as_hopbank", "krylov.ritz", _bank_note),
    (backbone.ConcatMLP, "forward", "backbone.forward", _forward_note),
    (backbone.ConcatMLP, "backward", "backbone.backward", None),
]


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans = []
        self.unbound = []
        self.run = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, note):
        sig = inspect.signature(fn) if note is not None else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sp = {"id": len(spans), "name": name, "run": self.run,
                  "parent": stack[-1]["id"] if stack else None}
            spans.append(sp)
            stack.append(sp)
            sp["start"] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                sp["end"] = perf_counter()
                stack.pop()
            if note is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                note(bound.arguments, out, sp)
            return out

        return traced

    def install(self):
        for owner, attr, name, note in BINDINGS:
            fn = getattr(owner, attr, None)
            if fn is None:
                self.unbound.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, note))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")


# per-layer metrics: span name -> the suffixes reported for it
_TIMED = {
    "synth.generate": ("s", "calls"),
    "io.load_edge_list": ("s", "self_s"),
    "io.load_features": ("s",),
    "io.load_labels": ("s",),
    "io.save_bank_file": ("s",),
    "io.load_bank_file": ("s",),
    "io.save_checkpoint": ("s",),
    "io.load_checkpoint": ("s",),
    "graph.build_graph": ("s",),
    "graph.make_operator": ("s", "calls"),
    "graph.spmm": ("s", "calls"),
    "calibration.estimate_moments": ("s",),
    "calibration.calibrate": ("self_s",),
    "banks.build": ("self_s", "calls"),
    "krylov.batched_lanczos": ("s", "self_s"),
    "krylov.ritz": ("s",),
    "backbone.forward": ("s", "calls"),
    "backbone.backward": ("s",),
    "backbone.adam_step": ("s",),
    "hrp.train_stage": ("self_s",),
    "hrp.evaluate_split": ("s", "calls"),
    "hrp.extract_hidden": ("s",),
    "hrp.repropagate": ("self_s",),
    "hrp.blend": ("s",),
    "hrp.run_hrp_training": ("self_s",),
    "experiment.prepare_dataset": ("self_s",),
    "experiment.build_bank": ("self_s",),
}

# counters summed over spans: metric name -> (span names, span key);
# banks.slab_bytes counts polynomial and Krylov hop banks alike
_COUNTERS = {
    "io.load_edge_list.bytes": (("io.load_edge_list",), "bytes"),
    "io.save_bank_file.bytes": (("io.save_bank_file",), "bytes"),
    "graph.spmm.nnz_cols": (("graph.spmm",), "nnz_cols"),
    "graph.spmm.bytes_computed": (("graph.spmm",), "bytes"),
    "calibration.probe_cols": (("calibration.estimate_moments",), "probe_cols"),
    "banks.slab_bytes": (("banks.build", "krylov.ritz"), "slab_bytes"),
    "krylov.channel_steps": (("krylov.batched_lanczos",), "channel_steps"),
    "krylov.breakdowns": (("krylov.batched_lanczos",), "breakdowns"),
    "backbone.forward.rows": (("backbone.forward",), "rows"),
}


def _unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if "bytes" in metric:
        return "bytes"
    return "ratio" if metric.endswith("_ratio") else "count"


# every per-layer metric of a traced round, with its unit
PER_LAYER = {m: _unit(m) for m in
             [f"{name}.{suffix}" for name, sufs in _TIMED.items() for suffix in sufs]
             + list(_COUNTERS) + ["synth.generate.distinct_ratio"]}


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    own = {sp["id"]: sp["end"] - sp["start"] for sp in spans}
    for sp in spans:
        if sp["parent"] is not None:
            own[sp["parent"]] -= sp["end"] - sp["start"]
    return own


def layer_metrics(spans) -> dict:
    """Per-layer totals over ``spans``: seconds, self seconds, calls, counters."""
    own = self_times(spans)
    out = {}
    for name, suffixes in _TIMED.items():
        mine = [sp for sp in spans if sp["name"] == name]
        vals = {"s": sum(sp["end"] - sp["start"] for sp in mine),
                "self_s": sum(own[sp["id"]] for sp in mine),
                "calls": len(mine)}
        for suffix in suffixes:
            out[f"{name}.{suffix}"] = vals[suffix]
    for metric, (names, key) in _COUNTERS.items():
        out[metric] = sum(sp.get(key, 0) for sp in spans if sp["name"] in names)
    gen = [sp["key"] for sp in spans if sp["name"] == "synth.generate"]
    out["synth.generate.distinct_ratio"] = len(set(gen)) / len(gen) if gen else 0.0
    return out
