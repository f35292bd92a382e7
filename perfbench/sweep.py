"""Run the benchmark over several seeds and keep every run's output.

    python3 perfbench/sweep.py --out perfbench-results/base [--seeds 1-10] [--trace 0]
        [--workloads verify-gf2,oracle-gf3]

Runs `run.py` once per workload and seed, one run at a time, for the
`run_seconds` of BENCHMARK.json, and writes each run's standard output to
OUT/<workload>.seed<N>.trace<T>.txt.  Feed one or two such directories to
compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    status = 0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            path = os.path.join(args.out, f"{workload}.seed{seed}.trace{args.trace}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(proc.stdout)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else proc.stderr.strip()
            print(f"{workload} seed={seed} exit={proc.returncode} {last[:160]}", flush=True)
            status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
