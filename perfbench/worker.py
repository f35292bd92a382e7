"""One workload run, in its own process.

Started by run.py.  Set-up is process start, imports and input generation;
it ends when the first timed operation could start, and is measured against
the CLOCK_MONOTONIC reading the parent took just before starting this
process.  Then whole rounds of the workload's operations run until the
measuring time is used up; each operation calls the `leavitt` command's
entry point in this process, with its stdout written to a file of its own
in the work directory.  This process does not check outputs: run.py reads
the files after it has ended, so the checkers' memory stays out of this
process's peak resident set.  The result is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

from workloads import WORKLOADS  # noqa: E402


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def output_path(workdir: str, attempt: int) -> str:
    return os.path.join(workdir, f"out{attempt}.txt")


class Runner:
    """Runs operations through the CLI entry point and keeps their outcomes."""

    def __init__(self, cli, ops, workdir: str):
        self.cli = cli
        self.ops = ops
        self.workdir = workdir
        self.argvs = []
        for i, op in enumerate(ops):
            path = None
            if op.graph is not None:
                path = os.path.join(workdir, f"graph{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(op.graph, fh)
            self.argvs.append([path if a == "{graph}" else a for a in op.argv])
        self.times: list[list[float]] = [[] for _ in ops]
        # per attempt: [operation index, None or the exception type / "exit <code>"]
        self.attempts: list[list] = []
        self.stdout_bytes = 0

    def run_op(self, i: int) -> float:
        outcome = None
        path = output_path(self.workdir, len(self.attempts))
        # start each operation with no garbage, and keep the harness's own
        # objects out of the collector's way, as in a fresh `leavitt` process
        gc.collect()
        gc.freeze()
        with open(path, "w", encoding="utf-8") as out:
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = self.cli.main(self.argvs[i])
                if code != 0:
                    outcome = f"exit {code}"
            except SystemExit as exc:
                outcome = f"exit {exc.code}"
            except Exception as exc:  # a crash of the program is a failed operation
                outcome = type(exc).__name__
            elapsed = time.perf_counter() - start
        self.attempts.append([i, outcome])
        self.times[i].append(elapsed)
        self.stdout_bytes += os.path.getsize(path)
        return elapsed

    def round(self) -> float:
        return sum(self.run_op(i) for i in range(len(self.ops)))


PARTS = ("analyze", "lattice_wide", "lattice_deep")


def parts(ops, times) -> dict[str, float]:
    """Time per part of the round (see Op.part), for workloads that name parts."""
    out: dict[str, float] = {}
    for op, t in zip(ops, times):
        if op.part:
            out[op.part] = out.get(op.part, 0.0) + t
    return out


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy
    import leavitt
    from leavitt import cli

    if not os.path.abspath(leavitt.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"leavitt imported from {leavitt.__file__}, not from this checkout", file=sys.stderr)
        return 2

    runner = Runner(cli, WORKLOADS[args.workload](args.seed), args.workdir)
    setup_s = monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = {"setup_s": setup_s}
    if args.trace:
        from tracer import Tracer, layer_metrics

        untraced = runner.round()
        tracer = Tracer()
        tracer.install()
        stdout_before = runner.stdout_bytes
        traced = runner.round()
        layers = layer_metrics(tracer)
        layers["cli.stdout_bytes"] = runner.stdout_bytes - stdout_before
        layers["trace.untraced_wall_s"] = untraced
        layers["trace.traced_wall_s"] = traced
        layers["trace.overhead_s"] = traced - untraced
        untraced_parts = parts(runner.ops, [t[0] for t in runner.times])
        for part in PARTS:
            layers[f"calculus.{part}_s"] = untraced_parts.get(part, 0.0)
        result["layers"] = layers
        result["rounds"] = 2
    else:
        # whole rounds only: another one starts if it should end within the time
        start = time.perf_counter()
        rounds = 0
        while True:
            runner.round()
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > args.seconds:
                break
        result["rounds"] = rounds
        medians = [statistics.median(t) for t in runner.times]
        # the median round, operation by operation
        result["wall_s"] = sum(medians)
        result["op_median_s"] = {op.name: m for op, m in zip(runner.ops, medians)}
        result["parts_s"] = parts(runner.ops, medians)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(
        attempts=runner.attempts,
        numpy=numpy.__version__,
        blas_threads=blas_threads(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
