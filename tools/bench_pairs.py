"""Run alternating parent/change pairs of the benchmark and save their spread.

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload scale-legendre --pairs 10 --seconds 40 --seed 2201

Pair i runs ``perfbench/run.py --workload W --seed SEED+i --seconds S`` once
in each checkout, one after the other: the parent first in even pairs, the
change first in odd ones, so a slow drift of the host's speed falls on both
sides alike. Runs are strictly sequential.

It writes ``BENCH_<workload>.json`` (into ``--out``, default the current
directory). For each side it holds the checkout's directory name, its git
commit (null for a checkout without ``.git``), the fail rate and, per
end-to-end metric, the median, the quartiles and every run's value; for
each metric the number of pairs the change won (ties count for neither
side); and the core count, pair count, seconds and seeds. Which direction
is better comes from the change's ``BENCHMARK.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


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

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            r = run_once(sides[side], args.workload, args.seed + i, args.seconds)
            runs[side].append(r)
            print(f"pair {i} {side}: " + ", ".join(
                f"{k} {v:.4g}" for k, v in r["metrics"].items()), flush=True)

    out = {"workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
           "seeds": [args.seed + i for i in range(args.pairs)],
           "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count()}
    for side, rs in runs.items():
        out[side] = {
            "checkout": sides[side].resolve().name,
            "git_sha": rs[0]["env"].get("git_sha"),
            "fail_rate": sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs),
            "metrics": {m: spread([r["metrics"][m] for r in rs]) for m in better}}
    sign = {"lower": -1, "higher": 1}
    out["change_wins"] = {
        m: sum(sign[b] * (c["metrics"][m] - p["metrics"][m]) > 0
               for p, c in zip(runs["parent"], runs["change"]))
        for m, b in better.items()}
    path = args.out / f"BENCH_{args.workload}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
