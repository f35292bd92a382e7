"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The expensive sweeps (exhaustive acyclic oracle family, 1000-graph random
family) run once per module and are shared across criteria.
"""

import time
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest

from leavitt import Graph, analyze
from leavitt.cli import main
from leavitt.oracle import build_oracle
from leavitt.verify import (
    ROW_DPERP_VSET,
    ROW_L_PRESERVED,
    ROW_LATTICE_COUNT,
    ROW_MAXIMAL,
    ROW_PC_BIJECTION,
    ROW_PERP_GRADED,
    ROW_PERP_REGULAR,
    ROW_PERP_VSET,
    ROW_QUOTIENT_L_PC,
    ROW_REGULAR_L_IFF_PC,
    ROW_REGULARITY,
    calculus_checks_for_graph,
    draw_generators,
    exhaustive_acyclic_graphs,
    generated_ideal_check,
    laurent_checks,
    oracle_checks_for_graph,
    random_graph,
)

ORACLE_PRIME = 2
RANDOM_FAMILY_SIZE = 1000
RANDOM_SEED = 42
# stdout of `leavitt verify --seed 42`, committed so that output drift shows
GOLDEN_VERIFY = Path(__file__).parent / "golden" / "verify-seed42.txt"


def report(number, description, ok):
    print(f"ACCEPTANCE {number} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def oracle_sweep():
    """Exhaustive acyclic family (<= 4 vertices, <= 5 edges) against the oracle."""
    start = time.monotonic()
    family = exhaustive_acyclic_graphs(4, 5)
    counts = {}
    failures = []
    pool = []
    pairs = 0
    for g in family:
        algebra = build_oracle(g, ORACLE_PRIME)
        c, fs = oracle_checks_for_graph(g, ORACLE_PRIME, algebra=algebra)
        pairs += c[ROW_PERP_VSET]
        for row, k in c.items():
            counts[row] = counts.get(row, 0) + k
        failures.extend(fs)
        pool.append((g, algebra))
    duration = time.monotonic() - start
    return SimpleNamespace(
        family=family,
        counts=counts,
        failures=failures,
        pool=pool,
        pairs=pairs,
        duration=duration,
    )


@pytest.fixture(scope="module")
def random_sweep():
    """1000 seeded random graphs (<= 5 vertices, <= 8 edges), calculus rows only."""
    rng = Random(RANDOM_SEED)
    counts = {}
    failures = []
    for _ in range(RANDOM_FAMILY_SIZE):
        g = random_graph(rng, 5, 8)
        c, fs = calculus_checks_for_graph(g)
        for row, k in c.items():
            counts[row] = counts.get(row, 0) + k
        failures.extend(fs)
    return SimpleNamespace(counts=counts, failures=failures)


def rows_failed(failures, *rows):
    wanted = set(rows)
    return [f for f in failures if f.row in wanted]


def test_criterion_1_counterexample_graph_reproduction():
    g = Graph(("u", "v"), (("f", "u", "u"), ("g", "u", "v")))
    start = time.monotonic()
    rep = analyze(g, {"v"})
    duration = time.monotonic() - start
    ok = (
        rep.ideal.vertices == {"v"}
        and rep.bar_closure == {"u", "v"}
        and rep.perp_set == frozenset()
        and rep.double_perp_set == {"u", "v"}
        and rep.is_regular is False
        and rep.quotient.vertices == ("u",)
        and [e.name for e in rep.quotient.edges] == ["f"]
        and rep.quotient_condition_l is False
        and duration < 1.0
    )
    report(1, "loop-with-exit pipeline, exact values in under 1s", ok)


def test_criterion_2_oracle_equivalence(oracle_sweep):
    bad = rows_failed(
        oracle_sweep.failures, ROW_PERP_VSET, ROW_DPERP_VSET, ROW_REGULARITY
    )
    ok = (
        not bad
        and oracle_sweep.pairs > 0
        and len(oracle_sweep.family) == len(oracle_sweep.pool)
        and oracle_sweep.duration < 60.0
    )
    report(
        2,
        f"perp/double-perp/regularity agree with the GF(2) oracle on "
        f"{oracle_sweep.pairs} (graph, H) pairs in {oracle_sweep.duration:.1f}s",
        ok,
    )


def test_criterion_3_annihilators_are_graded(oracle_sweep):
    vertex_part = rows_failed(oracle_sweep.failures, ROW_PERP_GRADED)
    rng = Random(RANDOM_SEED + 1)
    random_failures = []
    trials = 500
    for _ in range(trials):
        g, algebra = oracle_sweep.pool[rng.randrange(len(oracle_sweep.pool))]
        problem = generated_ideal_check(algebra, draw_generators(rng, algebra.dimension, algebra.p))
        if problem:
            random_failures.append((g, problem))
    ok = not vertex_part and not random_failures
    report(
        3,
        f"annihilator graded for every vertex ideal and {trials} random ideals",
        ok,
    )


def test_criterion_4_perp_always_regular(random_sweep):
    bad = rows_failed(random_sweep.failures, ROW_PERP_REGULAR)
    checked = random_sweep.counts.get(ROW_PERP_REGULAR, 0)
    ok = not bad and checked >= RANDOM_FAMILY_SIZE
    report(
        4,
        f"perp regular and triple-perp identity on {checked} (graph, H) pairs "
        f"from {RANDOM_FAMILY_SIZE} random graphs",
        ok,
    )


def test_criterion_5_cycle_and_quotient_laws(random_sweep):
    bad = rows_failed(
        random_sweep.failures,
        ROW_PC_BIJECTION,
        ROW_QUOTIENT_L_PC,
        ROW_REGULAR_L_IFF_PC,
        ROW_L_PRESERVED,
    )
    ok = not bad
    report(
        5,
        "exit-free-cycle bijection and Condition (L) quotient laws over the random family",
        ok,
    )


def test_criterion_6_lattice_count(oracle_sweep):
    bad = rows_failed(oracle_sweep.failures, ROW_LATTICE_COUNT)
    graphs_checked = oracle_sweep.counts.get(ROW_LATTICE_COUNT, 0)
    ok = not bad and graphs_checked == len(oracle_sweep.family)
    report(
        6,
        f"lattice size = distinct oracle ideals = 2^sinks on {graphs_checked} acyclic graphs",
        ok,
    )


def test_criterion_7_laurent_annihilators():
    trials, failures = laurent_checks(Random(RANDOM_SEED), 5, 200)
    ok = trials == 200 and not failures
    report(7, "GF(5) Laurent annihilator-freeness and degree additivity, 200 trials", ok)


def test_criterion_8_maximal_ideal_dichotomy(random_sweep, oracle_sweep):
    bad = rows_failed(random_sweep.failures, ROW_MAXIMAL)
    acyclic_bad = []
    for g in oracle_sweep.family:
        _counts, fs = calculus_checks_for_graph(g)
        acyclic_bad.extend(f for f in fs if f.row == ROW_MAXIMAL)
    ok = not bad and not acyclic_bad
    report(8, "every maximal proper set classifies regular or perp-zero", ok)


def test_criterion_9_verify_is_deterministic(capsys):
    argv = ["verify", "--seed", "42"]
    code_first = main(argv)
    first = capsys.readouterr().out
    code_second = main(argv)
    second = capsys.readouterr().out
    golden = GOLDEN_VERIFY.read_text(encoding="utf-8")
    ok = code_first == 0 and code_second == 0 and first == second == golden
    report(
        9, "cmd_verify with seed 42 twice is byte-identical to the golden copy and passes", ok
    )
