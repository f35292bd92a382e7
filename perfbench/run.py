"""Benchmark entry point: one run of one workload, result as JSON on the last line.

    python3 perfbench/run.py --workload verify-gf2 --seed 42 --seconds 20 --trace 0

Run from the root of a checkout.  It starts one worker process that
measures (worker.py), with set-up probes before and after it: fresh
processes that import `leavitt` from the checkout's src/ and generate the
inputs, then stop.  Every child gets the BLAS thread count fixed to one.
When the worker has ended, every output it wrote is checked here, against
answers worked out by workloads.py.  The second-to-last line of output
describes the run (environment, rounds, failures); the last line holds the
metrics: the end-to-end ones with ``--trace 0``, the per-layer ones with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from worker import output_path  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402

# set-up probes on each side of the worker, so that set-up is sampled before
# and after the measured round and a burst of machine load moves few samples
SETUP_PROBES_EACH_SIDE = 6
BLAS_THREADS = 1
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_ENV:
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, workdir: str, *extra: str, timeout: float) -> dict:
    argv = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
        *extra,
    ]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        argv + ["--t0", repr(t0)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe(args, workdir: str) -> float:
    return start_worker(args, workdir, "--setup-only", timeout=PROBE_TIMEOUT_S)["setup_s"]


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def judge(ops, attempts, workdir: str) -> tuple[list[dict], list[dict]]:
    """Failed operations, and wrong outcomes: a failure other than the operation's
    expected one, or an output its checker rejects.  The output of a non-zero
    exit is checked too, so a FAIL row is reported as wrong."""
    failures, wrong = [], []
    checked: set[bytes] = set()
    for attempt, (i, outcome) in enumerate(attempts):
        op = ops[i]
        if outcome is not None:
            failures.append({"op": op.name, "error": outcome})
            if outcome != op.expect_error:
                expected = f", expected {op.expect_error}" if op.expect_error else ""
                wrong.append({"op": op.name, "error": f"failed with {outcome}{expected}"})
            if not outcome.startswith("exit "):
                continue  # a crash leaves no output to check
        with open(output_path(workdir, attempt), encoding="utf-8") as fh:
            text = fh.read()
        digest = hashlib.sha256(f"{i}\0{text}".encode()).digest()
        if digest in checked:
            continue  # the same output of the same operation was checked before
        checked.add(digest)
        try:
            op.check(text)
        except CheckError as exc:
            wrong.append({"op": op.name, "error": str(exc)})
    return failures, wrong


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "leavitt", "cli.py")):
        print(f"error: no leavitt sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2

    work_root = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        try:
            setups = [probe(args, workdir) for _ in range(SETUP_PROBES_EACH_SIDE)]
            run = start_worker(args, workdir, timeout=WORKER_TIMEOUT_S)
            setups += [probe(args, workdir) for _ in range(SETUP_PROBES_EACH_SIDE)]
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        setups.append(run["setup_s"])
        failures, wrong = judge(WORKLOADS[args.workload](args.seed), run["attempts"], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)  # only when no other run is using it

    for w in wrong:
        print(f"wrong outcome of {w['op']}: {w['error']}", file=sys.stderr)
    if args.trace:
        metrics = {
            name: metric(value, _layer_unit(name)) for name, value in sorted(run["layers"].items())
        }
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(run["wall_s"], "s"),
            "peak_rss_mib": metric(run["peak_rss_mib"], "MiB"),
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": run["rounds"],
        "setup_samples_s": setups,
        "op_median_s": run.get("op_median_s", {}),
        "parts_s": run.get("parts_s", {}),
        "failures": failures,
        "wrong": wrong,
        "env": {
            "git_commit": git_commit(),
            "python": platform.python_version(),
            "numpy": run["numpy"],
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": run["blas_threads"],
            "blas_threads_env": BLAS_THREADS,
        },
    }
    print("info: " + json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(run["attempts"]),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
