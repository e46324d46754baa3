#!/usr/bin/env python3
"""Self-test of the deployment benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--workloads a,b] [--seed 7] [--other-seed 8]

For every workload it checks that
  * two traced runs with the same seed write identical per-instance
    deterministic counts (B&B nodes, LP pivots, presolve fixings, accepted
    annealing moves, fault-campaign successes);
  * a run with another seed builds a different corpus;
  * an untraced run prints exactly the end-to-end metrics of BENCHMARK.json
    and a traced run exactly its per-layer metrics, with their units, and
    every run passes its correctness checks.
Each run uses a one-second budget, so it makes a single pass over its corpus.
Exits non-zero on the first mismatch.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace, counts_path):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--counts", counts_path]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"selftest: {workload} seed {seed} trace {trace} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    with open(counts_path) as f:
        return result, json.load(f)


def check_metrics(workload, result, expected):
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"selftest: {workload}: correctness checks failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        sys.exit(f"selftest: {workload}: metric mismatch; missing {missing}, "
                 f"not in BENCHMARK.json {extra}, unit differs {units}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--other-seed", type=int, default=8)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as tmp:
        for w in args.workloads.split(","):
            path = lambda tag: os.path.join(tmp, f"{w}-{tag}.json")
            first, counts_a = run(w, args.seed, 1, path("a"))
            second, counts_b = run(w, args.seed, 1, path("b"))
            untraced, counts_c = run(w, args.other_seed, 0, path("c"))
            check_metrics(w, first, bench["per_layer"])
            check_metrics(w, second, bench["per_layer"])
            check_metrics(w, untraced, bench["end_to_end"])
            if counts_a != counts_b:
                diff = sorted(k for k in set(counts_a) | set(counts_b)
                              if counts_a.get(k) != counts_b.get(k))
                sys.exit(f"selftest: {w}: counts differ between identical runs on {diff}")
            if set(counts_a) == set(counts_c):
                sys.exit(f"selftest: {w}: seeds {args.seed} and {args.other_seed} built the same corpus")
            print(f"selftest: {w}: ok ({len(counts_a)} instances, "
                  f"{sum(len(c) for c in counts_a.values())} counts repeat exactly)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
