"""Run alternating parent/change pairs of the benchmark and save their spread.

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload scale-legendre --pairs 10 --seconds 40 --seed 2201

Pair i runs ``perfbench/run.py --workload W --seed SEED+i --seconds S`` once
in each checkout, one after the other: the parent first in even pairs, the
change first in odd ones, so a slow drift of the host's speed falls on both
sides alike. Runs are strictly sequential.

It writes ``BENCH_<workload>.json`` into ``--out`` (default the current
directory), which it makes, if missing, before the first pair, and
rewrites it after every pair from the pairs run so far, with ``complete``
false until the last pair is in. A run that prints no result stops the
tool with a non-zero exit, and the file keeps every pair before it. For
each side it holds the checkout's directory name, its git commit (null for a
checkout without ``.git``), its numpy, scipy and python versions, the
fail rate and, per end-to-end metric, the median, the quartiles and every
run's value; and the core count, the count of pairs run, seconds and
seeds. For each metric it holds:

``change_wins``
    the number of pairs the change won (ties count for neither side);
``gain_met``
    whether a gain may be claimed: the change won at least nine tenths of
    the pairs, and its median is better than the parent's by more than
    the distance between the parent's quartiles;
``within_bound``
    whether the change's median is no worse than the parent's by more
    than the metric's bound, a fraction of the parent's median;
``unresolved``
    whether the runs spread too widely to tell: the distance between the
    parent's quartiles is wider than the bound times the parent's median,
    and not every change run is better than every parent run. An unresolved metric is not shown to
    be unchanged, whatever ``within_bound`` says.

Which direction is better, and each bound, come from the change's
``BENCHMARK.json``. ``fail_rate_ok`` holds whether the change's fail rate
is no higher than the parent's. Two more checks put a bit-exact claim on
the record:

``outputs_identical``
    in every pair the change's ``test_acc`` and ``spmm_products`` equal
    the parent's;
``inputs_match``
    in every pair both sides' env lines agree on ``inputs_sha256``,
    ``nproc``, ``blas_threads``, ``numpy``, ``scipy`` and ``python``: same
    inputs on the same threads and the same libraries, whose LAPACK and
    BLAS a bit-exact claim depends on.

``commits_named`` holds whether both sides name their git commit. When
either does not, a warning goes to stderr: such a file cannot say which
code it compared.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

OUTPUTS = ("test_acc", "spmm_products")
VERSIONS = ("numpy", "scipy", "python")
INPUTS = ("inputs_sha256", "nproc", "blas_threads", *VERSIONS)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process: its metrics, pipeline counts and env line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: run.py printed no result (exit {proc.returncode})")
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"], "env": env}


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def judge(parent: dict, change: dict, wins: int, pairs: int, better: str,
          bound: float) -> dict:
    """``gain_met``, ``within_bound`` and ``unresolved`` of one metric from
    both sides' ``spread`` summaries and the change's pair wins."""
    sign = 1 if better == "higher" else -1
    gap = (change["median"] - parent["median"]) * sign
    width = parent["q3"] - parent["q1"]
    beats_all = min(sign * v for v in change["runs"]) > max(sign * v for v in parent["runs"])
    return {"gain_met": 10 * wins >= 9 * pairs and gap > width,
            "within_bound": gap >= -bound * abs(parent["median"]),
            "unresolved": width > bound * abs(parent["median"]) and not beats_all}


def summarise(args, sides: dict, runs: dict, better: dict, bound: dict) -> dict:
    """The file's contents for the pairs in ``runs``, one run per side each."""
    pairs = len(runs["parent"])
    out = {"workload": args.workload, "pairs": pairs, "seconds": args.seconds,
           "seeds": [args.seed + i for i in range(pairs)],
           "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count()}
    for side, rs in runs.items():
        out[side] = {
            "checkout": sides[side].resolve().name,
            "git_sha": rs[0]["env"].get("git_sha"),
            "versions": {k: rs[0]["env"].get(k) for k in VERSIONS},
            "fail_rate": sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs),
            "metrics": {m: spread([r["metrics"][m] for r in rs]) for m in better}}
    sign = {"lower": -1, "higher": 1}
    out["change_wins"] = {
        m: sum(sign[b] * (c["metrics"][m] - p["metrics"][m]) > 0
               for p, c in zip(runs["parent"], runs["change"]))
        for m, b in better.items()}
    verdicts = {m: judge(out["parent"]["metrics"][m], out["change"]["metrics"][m],
                         out["change_wins"][m], pairs, b, bound[m])
                for m, b in better.items()}
    for key in ("gain_met", "within_bound", "unresolved"):
        out[key] = {m: v[key] for m, v in verdicts.items()}
    out["fail_rate_ok"] = out["change"]["fail_rate"] <= out["parent"]["fail_rate"]
    both = list(zip(runs["parent"], runs["change"]))
    out["outputs_identical"] = all(p["metrics"].get(k) == c["metrics"].get(k)
                                   for p, c in both for k in OUTPUTS)
    out["inputs_match"] = all(p["env"].get(k) == c["env"].get(k)
                              for p, c in both for k in INPUTS)
    out["commits_named"] = all(out[side]["git_sha"] is not None for side in sides)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="parent checkout")
    ap.add_argument("--change", required=True, type=Path, help="changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--seed", type=int, default=2201, help="seed of the first pair")
    ap.add_argument("--out", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    args.out.mkdir(parents=True, exist_ok=True)  # a bad --out fails before any run

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    path = args.out / f"BENCH_{args.workload}.json"
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            r = run_once(sides[side], args.workload, args.seed + i, args.seconds)
            runs[side].append(r)
            print(f"pair {i} {side}: " + ", ".join(
                f"{k} {v:.4g}" for k, v in r["metrics"].items()), flush=True)
        # a run that prints no result raises above; the pairs before it stay
        out = summarise(args, sides, runs, better, bound)
        out["complete"] = i == args.pairs - 1
        path.write_text(json.dumps(out, indent=1) + "\n")

    if not out["commits_named"]:
        print("warning: a side names no git commit, so this file cannot say "
              "which code it compared", file=sys.stderr)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
