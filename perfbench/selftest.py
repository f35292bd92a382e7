"""Self-test of the output checkers: each accepts the program's real output and
rejects one corrupted copy of it.  Then run.py's judgement of failed
operations: only the expected failure of the operation that names it passes.

    python3 perfbench/selftest.py

Runs one operation per checker through the `leavitt` entry point of this
checkout (about half a minute, most of it `verify`), then feeds the checker
the output as produced and as corrupted.  Exit status 0 when every checker
accepts the first and rejects the second, and every failure is judged as
expected.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

from run import judge  # noqa: E402
from worker import output_path  # noqa: E402
from workloads import WORKLOADS, CheckError, strongly_connected_report  # noqa: E402


def _bump_row(text: str, row: str) -> str:
    return re.sub(rf"^({re.escape(row)}\s+)(\d+)", lambda m: m[1] + str(int(m[2]) - 1), text, flags=re.M)


def _bump_dimension(text: str) -> str:
    return re.sub(r"^oracle dimension: (\d+)", lambda m: f"oracle dimension: {int(m[1]) + 1}", text)


def _json_edit(edit):
    def corrupt(text: str) -> str:
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)

    return corrupt


def _drop_last(doc: list) -> None:
    doc.pop()


def _flip_regular(doc: dict) -> None:
    doc["is_regular"] = not doc["is_regular"]


def _flip_condition_l(doc: dict) -> None:
    doc["quotient_condition_L"] = not doc["quotient_condition_L"]


def _one_irregular(doc: list) -> None:
    doc[0]["is_regular"] = False


# (workload, operation, corruption)
CASES = (
    ("verify-gf2", "verify", lambda t: _bump_row(t, "perp-vertex-set")),
    ("oracle-gf3", "oracle-check dim=82 sinks=2 #1", _bump_dimension),
    ("calculus-families", "analyze K6 {}", _json_edit(_flip_regular)),
    ("calculus-families", "analyze ring150 {}", _json_edit(_flip_condition_l)),
    ("calculus-families", "lattice edgeless14", _json_edit(_drop_last)),
    ("calculus-families", "lattice comb20", _json_edit(_one_irregular)),
    ("calculus-families", "lattice ring20", _json_edit(_drop_last)),
)


def check_cases(tmp: str) -> tuple[list[str], dict[str, str]]:
    """Problems found, and the real output of each operation run."""
    from leavitt import cli

    problems, texts = [], {}
    for workload, op_name, corrupt in CASES:
        op = next(o for o in WORKLOADS[workload](42) if o.name == op_name)
        path = os.path.join(tmp, "graph.json")
        if op.graph is not None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(op.graph, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([path if a == "{graph}" else a for a in op.argv])
        text = texts[op_name] = out.getvalue()
        try:
            if code != 0:
                raise CheckError(f"exit {code}")
            op.check(text)
        except CheckError as exc:
            problems.append(f"{workload}/{op_name}: real output rejected: {exc}")
            continue
        bad = corrupt(text)
        try:
            if bad == text:
                raise RuntimeError("corruption changed nothing")
            op.check(bad)
        except CheckError as exc:
            print(f"ok    {workload}/{op_name}: corrupted output rejected ({str(exc)[:80]})")
            continue
        except RuntimeError as exc:
            problems.append(f"{workload}/{op_name}: {exc}")
            continue
        problems.append(f"{workload}/{op_name}: corrupted output accepted")
    return problems, texts


def judge_cases(tmp: str, texts: dict[str, str]) -> list[str]:
    """Attempts as the worker records them, with their outputs, through run.judge."""
    calculus, oracle = WORKLOADS["calculus-families"](42), WORKLOADS["oracle-gf3"](42)
    ring = next(i for i, o in enumerate(calculus) if o.expect_error)
    k6 = next(i for i, o in enumerate(calculus) if o.name == "analyze K6 {}")
    dim82 = next(i for i, o in enumerate(oracle) if o.name == "oracle-check dim=82 sinks=2 #1")
    fail_row = re.sub(r"checks  ok$", "checks  FAIL", texts[oracle[dim82].name], count=1, flags=re.M)
    # (what, operations, [(index, outcome, stdout)], wrong expected)
    cases = (
        ("the long ring fails as expected", calculus, [(ring, "RecursionError", "")], False),
        ("the long ring succeeds", calculus, [(ring, None, json.dumps(strongly_connected_report(calculus[ring].graph, [], False)))], False),
        ("the long ring fails another way", calculus, [(ring, "exit 1", "")], True),
        ("another operation raises", calculus, [(k6, "RecursionError", "")], True),
        ("oracle-check exits 1 with a FAIL row", oracle, [(dim82, "exit 1", fail_row)], True),
    )
    problems = []
    for what, ops, attempts, want_wrong in cases:
        for attempt, (_i, _outcome, text) in enumerate(attempts):
            with open(output_path(tmp, attempt), "w", encoding="utf-8") as fh:
                fh.write(text)
        failures, wrong = judge(ops, [[i, outcome] for i, outcome, _text in attempts], tmp)
        want_failed = sum(outcome is not None for _i, outcome, _text in attempts)
        if bool(wrong) != want_wrong or len(failures) != want_failed:
            problems.append(f"judge, {what}: {len(failures)} failed, wrong {wrong}")
        else:
            print(f"ok    judge, {what}: {len(failures)} failed, {len(wrong)} wrong")
    return problems


def main() -> int:
    work = os.path.join(os.path.dirname(HERE), ".perfbench-work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        problems, texts = check_cases(tmp)
        if not problems:
            problems = judge_cases(tmp, texts)
    for p in problems:
        print(f"FAIL  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
