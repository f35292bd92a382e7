"""Summarise one set of benchmark runs, or judge a second set against a first.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR] [--layers]

Each directory holds saved run.py outputs, as sweep.py writes them.  For
every workload and end-to-end metric it prints the median and quartiles of
each set and their spread (quartile distance over median).  Given two sets,
it also gives a verdict against the bounds in BENCHMARK.json:

  REGRESSION  the new median is worse than the base median by more than the bound
  unresolved  a set's spread is wider than the bound, and not every new run beats every base run
  gain        the new side wins at least 9 in 10 seed-matched pairs, and the medians differ by
              more than the base set's quartile distance
  same        otherwise

More failed operations per attempted one, or any incorrect output, is also
reported.  Exit status 1 when a set is incorrect, fails more, or regresses.
With --layers, the traced runs' per-layer medians are printed too, with the
tracing overhead (traced minus untraced time of the same round).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory: str) -> list[dict]:
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.txt"))):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
        info = next((json.loads(l[len("info: "):]) for l in lines if l.startswith("info: ")), None)
        if info is None or not lines:
            print(f"skipping {path}: not a benchmark run", file=sys.stderr)
            continue
        runs.append({"info": info, "result": json.loads(lines[-1])})
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def by_workload(runs: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in runs:
        if run["info"]["trace"] == trace:
            out.setdefault(run["info"]["workload"], []).append(run)
    return out


def series(runs: list[dict], name: str) -> dict[int, float]:
    return {r["info"]["seed"]: r["result"]["metrics"][name]["value"] for r in runs}


def verdict(base: dict[int, float], new: dict[int, float], bound: float, lower_better: bool) -> str:
    sign = 1 if lower_better else -1
    b, n = list(base.values()), list(new.values())
    bmed, nmed = statistics.median(b), statistics.median(n)
    worse = sign * (nmed - bmed) / bmed
    if worse > bound:
        return "REGRESSION"
    all_better = max(sign * x for x in n) < min(sign * x for x in b)
    if (spread(b) > bound or spread(n) > bound) and not all_better:
        return "unresolved"
    pairs = [(base[s], new[s]) for s in base.keys() & new.keys()]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    q1, _med, q3 = quartiles(b)
    if pairs and wins >= 0.9 * len(pairs) and -worse * bmed > q3 - q1:
        return "gain"
    return "same"


def fmt(x: float) -> str:
    return f"{x:.4g}"


def describe_env(name: str, runs: list[dict]) -> None:
    envs = {json.dumps(r["info"]["env"], sort_keys=True) for r in runs}
    for env in sorted(envs):
        print(f"{name} environment: {env}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--layers", action="store_true", help="also print per-layer medians of traced runs")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    sets = [("base", load_runs(args.base))] + ([("new", load_runs(args.new))] if args.new else [])
    for name, runs in sets:
        describe_env(name, runs)
    bad = False
    grouped = [(name, by_workload(runs, 0)) for name, runs in sets]
    print(f"{'workload':<24} {'metric':<18} {'set':<5} {'n':>3} {'q1':>10} {'median':>10} {'q3':>10} {'spread':>7}  verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        shares = {}
        for name, groups in grouped:
            runs = groups.get(workload, [])
            if not runs:
                print(f"{workload}: no untraced runs in the {name} set")
                continue
            attempted = sum(r["result"]["attempted"] for r in runs)
            failed = sum(r["result"]["failed"] for r in runs)
            shares[name] = failed / attempted
            if not all(r["result"]["correct"] for r in runs):
                print(f"{workload}: {name} set has incorrect outputs")
                bad = True
        if "base" in shares and "new" in shares and shares["new"] > shares["base"]:
            print(f"{workload}: more operations fail ({shares['base']:.4f} -> {shares['new']:.4f})")
            bad = True
        for m in bench["end_to_end"]:
            data = {name: series(groups[workload], m["name"]) for name, groups in grouped if workload in groups}
            for name, values in data.items():
                q1, med, q3 = quartiles(list(values.values()))
                v = ""
                if name == "new" and "base" in data:
                    v = verdict(data["base"], values, m["bound"], m["better"] == "lower")
                    bad = bad or v == "REGRESSION"
                print(
                    f"{workload:<24} {m['name']:<18} {name:<5} {len(values):>3} {fmt(q1):>10} "
                    f"{fmt(med):>10} {fmt(q3):>10} {spread(list(values.values())):>7.3f}  {v}"
                )
        for name, groups in grouped:
            runs = groups.get(workload, [])
            for part in sorted({p for r in runs for p in r["info"].get("parts_s", {})}):
                values = [r["info"]["parts_s"][part] for r in runs]
                q1, med, q3 = quartiles(values)
                print(
                    f"{workload:<24} {'part ' + part:<18} {name:<5} {len(runs):>3} {fmt(q1):>10} "
                    f"{fmt(med):>10} {fmt(q3):>10} {spread(values):>7.3f}  (share of wall_s, no bound)"
                )
        for name, share in shares.items():
            print(f"{workload:<24} {'failed share':<18} {name:<5} {share:.4f}")
    if args.layers:
        for name, runs in sets:
            for workload, traced in by_workload(runs, 1).items():
                layers = traced[0]["result"]["metrics"]
                print(f"\n{name} {workload}: per-layer medians over {len(traced)} traced runs")
                for metric in sorted(layers):
                    values = [r["result"]["metrics"][metric]["value"] for r in traced]
                    med = statistics.median(values)
                    if med:
                        print(f"  {metric:<48} {fmt(med):>12} {layers[metric]['unit']}")
                over = statistics.median(
                    r["result"]["metrics"]["trace.overhead_s"]["value"]
                    / r["result"]["metrics"]["trace.untraced_wall_s"]["value"]
                    for r in traced
                )
                print(f"  tracing overhead: {over:.1%} of the untraced round")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
