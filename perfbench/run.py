"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload desk-ablation --seed 0 --seconds 40 --trace 0

Inputs come from ``--seed`` alone. The process repeats *rounds* of the
workload (its pipelines, or the next few of them; see ``workloads.py``) for
about ``--seconds`` seconds: it starts another round only while the time
spent so far plus the median round still fits. It runs every pipeline at
least once, and at least two rounds unless that alone took ``--seconds``.
Each end-to-end metric but two is the median over rounds of a per-round
value:

    run_s          wall time of the round
    setup_s        time in prepare_dataset, summed over the round's pipelines
    bank_s         time in build_bank, summed likewise
    train_s        time in run_hrp_training, summed likewise
    spmm_products  sparse products in the round (exact)
    test_acc       mean test accuracy over the run's distinct pipelines
                   (not a median)
    peak_rss_mb    peak resident memory of the process during its first round,
                   input generation included (not a median)

``--trace 1`` alternates untraced and traced rounds, starting untraced,
and prints the per-layer metrics of the traced rounds instead, with the
tracing overhead (traced minus untraced ``run_s``) and the untraced
end-to-end numbers beside them. Spans are written to ``perfbench/results``.

The last stdout line is one JSON object with ``correct``, ``attempted`` and
``failed`` counting pipelines, and ``metrics``. A pipeline fails when it
raises or fails a check; ``failed / attempted`` is the fail rate. The exit
code is 0 when every pipeline passed, 1 when one failed, 2 when the program
sources are missing.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

UNITS = {"run_s": "s", "setup_s": "s", "bank_s": "s", "train_s": "s",
         "peak_rss_mb": "MB", "spmm_products": "count", "test_acc": "ratio"}
PHASES = ("setup_s", "bank_s", "train_s")
# the host's speed drifts by 10-20% within seconds, so a run rests on a
# single round only when that round alone took the whole time budget
MIN_ROUNDS = 2


# mid-spectral's BLAS work is many small calls (per-channel Lanczos
# reorthogonalisation, narrow products). On a 2-core Xeon VM its rounds took
# as long with one BLAS thread as with two, and while another process
# streamed memory on the second core they slowed 1.5-1.8x with two threads
# against 1.1-1.4x with one. desk-ablation's dense eigh and scale-legendre's
# large-batch training do run faster on both cores.
SINGLE_BLAS = {"mid-spectral"}


def cap_threads(workload: str) -> int:
    """One pipeline at a time; BLAS on one thread for the workloads in
    SINGLE_BLAS and on every core this process may use otherwise. Must run
    before numpy is imported."""
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    blas = 1 if workload in SINGLE_BLAS else nproc
    os.environ["DIFFBANK_THREADS"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas)
    return nproc


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_round(pipelines, workdir, run_pipeline, tracer=None, tag=""):
    cpu0 = os.times()
    start = perf_counter()
    pipes = []
    for p in pipelines:
        if tracer is not None:
            tracer.run = f"{tag}/{p.label}"
        try:
            pipes.append(run_pipeline(p, workdir))
        except Exception as exc:  # a failed pipeline is counted, not fatal
            traceback.print_exc()
            pipes.append({"label": p.label, "errors": [f"raised {exc!r}"]})
    wall = perf_counter() - start
    cpu1 = os.times()
    accs = [r["test_acc"] for r in pipes if "test_acc" in r]
    rnd = {"run_s": wall, "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
           "spmm_products": sum(r.get("spmm_products", 0) for r in pipes),
           "test_acc": sum(accs) / len(accs) if accs else 0.0,
           "pipelines": pipes}
    for k in PHASES:
        rnd[k] = sum(r.get(k, 0.0) for r in pipes)
    return rnd


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nproc = cap_threads(args.workload)
    src = ROOT / "src"
    if not (src / "diffbank" / "__init__.py").is_file():
        print(f"diffbank sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH)]

    import resource

    import numpy as np
    import scipy

    import diffbank
    from workloads import WORKLOADS, make_workload, run_pipeline

    if Path(diffbank.__file__).resolve().parent != (src / "diffbank").resolve():
        print(f"imported diffbank from {diffbank.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    results = BENCH / "results"
    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        rounds, traced = [], []
        begin = perf_counter()
        while True:
            i = len(rounds) + len(traced)
            use_trace = args.trace == 1 and len(rounds) > len(traced)
            if use_trace:
                first = len(tracer.spans)
                tracer.install()
                try:
                    rnd = run_round(workload.round(i), workdir, run_pipeline, tracer,
                                    tag=f"round{i}")
                finally:
                    tracer.uninstall()
                rnd["spans"] = tracer.spans[first:]
                traced.append(rnd)
            else:
                rounds.append(run_round(workload.round(i), workdir, run_pipeline))
            if len(rounds) == 1 and not traced:
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            done = rounds + traced
            elapsed = perf_counter() - begin
            typical = statistics.median(r["run_s"] for r in done)
            enough = len(done) >= workload.cycle and (
                len(done) >= MIN_ROUNDS or elapsed >= args.seconds)
            if args.trace and not traced:
                enough = False
            if enough and elapsed + typical > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = [p for r in rounds + traced for p in r["pipelines"]]
    failed = [p for p in everything if p["errors"]]
    for p in failed:
        print(f"FAIL {p['label']}: {'; '.join(p['errors'])}", file=sys.stderr)

    def med(rs, key):
        return statistics.median(r[key] for r in rs)

    e2e = {k: med(rounds, k) for k in ("run_s", *PHASES, "spmm_products")}
    # a pipeline's accuracy does not change from round to round, so each
    # counts once whatever the number of rounds
    accs = {p["label"]: p["test_acc"] for r in rounds for p in r["pipelines"]
            if "test_acc" in p}
    e2e["test_acc"] = sum(accs.values()) / len(accs) if accs else 0.0
    e2e["peak_rss_mb"] = peak_rss_kb / 1024.0
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "diffbank_threads": int(os.environ["DIFFBANK_THREADS"]),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "python": sys.version.split()[0], "git_sha": git_sha(),
        "inputs_sha256": workload.inputs,
        "rounds": len(rounds), "traced_rounds": len(traced),
        "attempted": len(everything), "failed": len(failed),
    }
    print("env " + json.dumps(env, sort_keys=True))
    for k, v in e2e.items():
        print(f"{'untraced ' if args.trace else ''}{k:<16} {v:.6g} {UNITS[k]}")
    print(f"fail_rate        {len(failed) / len(everything):.6g} "
          f"({len(failed)} of {len(everything)} pipelines)")

    if args.trace:
        from spans import PER_LAYER, layer_metrics
        layers = [layer_metrics(r["spans"]) for r in traced]
        metrics = {k: {"value": statistics.median(m[k] for m in layers), "unit": unit}
                   for k, unit in PER_LAYER.items()}
        metrics["run.cpu_s"] = {"value": med(rounds, "cpu_s"), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": med(traced, "run_s") - e2e["run_s"],
                                       "unit": "s"}
        for k, m in metrics.items():
            print(f"{k:<36} {m['value']:.6g} {m['unit']}")
        if tracer.unbound:
            print("not traced (binding missing): " + ", ".join(tracer.unbound))
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}

    results.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write(results / f"{stem}.spans.jsonl")
    for r in rounds + traced:
        r.pop("spans", None)
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": metrics, "rounds": rounds, "traced": traced},
                  fh, indent=1)
    print(json.dumps({"correct": not failed, "attempted": len(everything),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
