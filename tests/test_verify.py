import concurrent.futures
import itertools
import json
import multiprocessing
import os
import sys
import threading
from collections import Counter
from pathlib import Path
from random import Random

import numpy as np
import pytest

from leavitt import (
    DEFAULT_DIMENSION_CAP,
    ENUMERATION_CUTOFF,
    Graph,
    LatticeTooLargeError,
    ideals,
    lattice_with_regularity,
    verify,
)
from leavitt.cli import main
from leavitt.gfp import max_exact_prime
from leavitt.oracle import _BLOCK_CACHE, OracleAlgebra, _sink_paths, build_oracle, is_graded_subspace
from leavitt.verify import (
    ALL_ROWS,
    CALCULUS_ROWS,
    ORACLE_ROWS,
    ROW_LATTICE_COUNT,
    ROW_MAXIMAL,
    ROW_PERP_GRADED,
    ROW_PERP_VSET,
    ROW_REGULAR_L_IFF_PC,
    ROW_REGULARITY,
    VerifyConfig,
    _mixed_degree_line,
    _oracle_task,
    _still_fails,
    calculus_checks_for_graph,
    exhaustive_acyclic_graphs,
    laurent_checks,
    minimize_counterexample,
    oracle_checks_for_graph,
    random_graph,
    run_verification,
)

from .strategies import primes_around

SMALL = VerifyConfig(max_vertices=3, max_edges=4, trials=40)


def test_small_run_passes():
    matrix = run_verification(SMALL)
    assert matrix.passed
    assert [r.name for r in matrix.rows] == list(ALL_ROWS)
    assert all(r.trials > 0 for r in matrix.rows)


def test_zero_trials_yield_empty_matrix():
    matrix = run_verification(VerifyConfig(trials=0))
    assert matrix.rows == ()
    assert matrix.passed


def test_matrix_is_deterministic():
    a = run_verification(SMALL)
    b = run_verification(SMALL)
    assert a.to_json_dict() == b.to_json_dict()
    assert a.render_text() == b.render_text()


@pytest.mark.parametrize("field", ["trials", "max_vertices", "max_edges"])
def test_config_refuses_negative_bounds(field):
    VerifyConfig(**{field: 0})
    flag = "--" + field.replace("_", "-")
    with pytest.raises(ValueError, match=flag):
        VerifyConfig(**{field: -1})


def test_config_refuses_max_vertices_past_cutoff():
    VerifyConfig(max_vertices=ENUMERATION_CUTOFF)  # constructed, not run
    with pytest.raises(LatticeTooLargeError):
        VerifyConfig(max_vertices=ENUMERATION_CUTOFF + 1)


def test_config_refuses_a_non_prime():
    assert VerifyConfig(prime=5).prime == 5  # built, not run
    with pytest.raises(ValueError, match="4 is not prime"):
        VerifyConfig(prime=4)


def test_config_refuses_prime_past_the_int64_bound():
    good, bad = primes_around(max_exact_prime(DEFAULT_DIMENSION_CAP))
    assert VerifyConfig(prime=good).prime == good  # built, not run
    with pytest.raises(ValueError, match="int64"):
        VerifyConfig(prime=bad)


def test_verify_runs_at_the_largest_accepted_prime(capsys):
    # each Laurent element checks its prime, by trial division up to its root
    good, _bad = primes_around(max_exact_prime(DEFAULT_DIMENSION_CAP))
    argv = ["verify", "--prime", str(good), "--max-vertices", "3", "--max-edges", "3"]
    assert main([*argv, "--trials", "25"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "result: PASS"


def test_random_graph_stream_is_seeded():
    a = [random_graph(Random(7), 5, 8) for _ in range(10)]
    b = [random_graph(Random(7), 5, 8) for _ in range(10)]
    assert a == b


def test_exhaustive_family_small_count():
    family = exhaustive_acyclic_graphs(2, 2)
    # empty graph, one vertex, two edgeless, single edge, double edge
    assert len(family) == 5
    assert all(g.is_acyclic() for g in family)
    assert Graph((), ()) in family


def test_exhaustive_family_deduplicates_relabelings():
    family = exhaustive_acyclic_graphs(2, 1)
    single_edge = [g for g in family if len(g.edges) == 1]
    assert len(single_edge) == 1  # a->b and b->a are the same class


def referee_acyclic_graphs(max_vertices, max_edges):
    """Referee: edge multisets over all ordered pairs of distinct vertices,
    one per isomorphism class, with the cyclic classes dropped."""
    family = []
    seen = set()
    for n in range(max_vertices + 1):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        perms = list(itertools.permutations(range(n)))
        for m in range(max_edges + 1):
            for combo in itertools.combinations_with_replacement(pairs, m):
                key = min(tuple(sorted((perm[a], perm[b]) for a, b in combo)) for perm in perms)
                if (n, key) in seen:
                    continue
                seen.add((n, key))
                graph = numbered_graph(n, combo)
                if graph.is_acyclic():
                    family.append(graph)
    return family


def least_relabelling_acyclic_graphs(max_vertices, max_edges):
    """Referee for the order: edge multisets over the pairs (i, j) with i < j,
    each keyed by its least relabelling; the first of each class is kept."""
    family = []
    for n in range(max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        perms = list(itertools.permutations(range(n)))
        seen = set()
        for m in range(max_edges + 1):
            for combo in itertools.combinations_with_replacement(pairs, m):
                key = min(tuple(sorted((perm[a], perm[b]) for a, b in combo)) for perm in perms)
                if key not in seen:
                    seen.add(key)
                    family.append(numbered_graph(n, combo))
    return family


def numbered_graph(n, pairs):
    """Vertices v0..v(n-1), and edge e<k> from v<a> to v<b> for the k-th pair (a, b)."""
    return Graph(
        tuple(f"v{i}" for i in range(n)),
        tuple((f"e{k}", f"v{a}", f"v{b}") for k, (a, b) in enumerate(pairs)),
    )


def class_key(graph):
    """Isomorphism-class key of a graph on vertices v0..v(n-1)."""
    n = len(graph.vertices)
    pairs = [(int(e.src[1:]), int(e.dst[1:])) for e in graph.edges]
    perms = itertools.permutations(range(n))
    return n, min(tuple(sorted((perm[a], perm[b]) for a, b in pairs)) for perm in perms)


@pytest.mark.parametrize(
    "bounds", [(4, 5), (3, 5), (3, 3), (2, 8)], ids=lambda b: f"{b[0]}v{b[1]}e"
)
def test_exhaustive_family_matches_the_ordered_pair_referee(bounds):
    family = exhaustive_acyclic_graphs(*bounds)
    keys = [class_key(g) for g in family]
    assert len(set(keys)) == len(keys)  # one graph per class
    assert set(keys) == {class_key(g) for g in referee_acyclic_graphs(*bounds)}
    # the same representatives in the same order, graph for graph
    assert list(family) == least_relabelling_acyclic_graphs(*bounds)
    if bounds == (4, 5):
        assert len(family) == 198


def no_exit_free_cycles(graph):
    raise RuntimeError("no cycle search")


@pytest.mark.parametrize("family", ["oracle", "calculus"])
def test_checks_report_setup_failure(monkeypatch, single_loop, family):
    if family == "oracle":  # the oracle refuses a graph with a cycle
        counts, failures = oracle_checks_for_graph(single_loop, 2, seed=43, trials=3)
        rows = [*ORACLE_ROWS, *[ROW_PERP_GRADED] * 3]
    else:
        monkeypatch.setattr(Graph, "exit_free_cycle_vertices", no_exit_free_cycles)
        counts, failures = calculus_checks_for_graph(single_loop)
        rows = list(CALCULUS_ROWS)
    assert counts == Counter(rows)
    # one failure per row, then one per trial, each with the set-up detail
    assert [f.row for f in failures] == rows
    assert failures[0].detail.startswith("setup failed: ")
    assert all(f.detail == failures[0].detail for f in failures)


def test_calculus_checks_clean_on_loop_with_exit(loop_with_exit):
    counts, failures = calculus_checks_for_graph(loop_with_exit)
    assert not failures
    assert counts["perp-always-regular"] == 3  # one trial per hereditary saturated set
    assert counts[ROW_MAXIMAL] == 1  # one trial per maximal proper set: {v}


def counted_backward_searches(monkeypatch):
    """Count the calls of ``ideals.bar_closure``, one backward search each."""
    calls = []
    real = ideals.bar_closure

    def counted(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(ideals, "bar_closure", counted)
    return calls


def test_the_calculus_rows_search_three_times_per_listed_set(monkeypatch):
    # a loop with an exit, a 2-cycle with an exit into it, and an isolated sink:
    # sets that are not regular, sets whose quotient loses (L), and maximal sets
    graph = Graph(
        ("a", "b", "c", "s"),
        (("l", "a", "a"), ("x", "a", "b"), ("bc", "b", "c"), ("cb", "c", "b"), ("ca", "c", "a")),
    )
    listed = len(list(lattice_with_regularity(graph)))
    calls = counted_backward_searches(monkeypatch)
    counts, failures = calculus_checks_for_graph(graph)
    assert not failures and counts[ROW_MAXIMAL] > 0
    # H, perp(H) and perp(perp(H)): each link of the chain is searched once,
    # and the maximal-ideal row reads the links that the set rows built
    assert len(calls) == 3 * listed


def test_no_kept_value_outlives_a_run(monkeypatch):
    # in process, where the counter sees every search
    usable_cpus(monkeypatch, 1)
    calls = counted_backward_searches(monkeypatch)
    run_verification(SMALL)
    first = len(calls)
    run_verification(SMALL)
    assert first > 0 and len(calls) == 2 * first


def test_maximal_dichotomy_violation_is_one_failure(monkeypatch, edgeless_ab):
    def broken(hs_sets):
        raise AssertionError("maximal set ['a'] is neither regular nor annihilator-zero")

    monkeypatch.setattr(ideals, "maximal_graded_ideals", broken)
    counts, failures = calculus_checks_for_graph(edgeless_ab)
    assert counts[ROW_MAXIMAL] == 1
    assert [f.row for f in failures] == [ROW_MAXIMAL]
    assert "neither regular nor annihilator-zero" in failures[0].detail


def flags_nothing_regular(graph):
    """The lattice pass with every regularity flag set to False."""
    return ((h, False) for h, _ in lattice_with_regularity(graph))


def test_a_wrong_lattice_flag_fails_the_regularity_row(monkeypatch):
    # every ideal of an acyclic graph is regular, so only a flag of False can be wrong there
    # set, not replaced, so that a runner that never reads the flags fails the asserts below
    monkeypatch.setattr(
        "leavitt.verify.lattice_with_regularity", flags_nothing_regular, raising=False
    )
    cfg = VerifyConfig(max_vertices=3, max_edges=3, trials=5)
    row = the_row(run_verification(cfg), ROW_REGULARITY)
    assert row.failures == row.trials
    assert row.detail == "H=(): oracle regular=True but lattice says False"
    assert row.counterexample == {"vertices": [], "edges": []}


def flags_every_set_regular(graph):
    """The lattice pass with every regularity flag set to True."""
    return ((h, True) for h, _ in lattice_with_regularity(graph))


def test_a_wrong_regular_flag_fails_verify_with_defaults(monkeypatch, capsys):
    # right on every oracle graph, whose ideals are all regular: only the calculus rows,
    # on random graphs with cycles, see it
    monkeypatch.setattr(
        "leavitt.verify.lattice_with_regularity", flags_every_set_regular, raising=False
    )
    assert main(["verify", "--json"]) == 1
    rows = {row["name"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
    assert {name for name, row in rows.items() if row["failures"]} == {ROW_REGULAR_L_IFF_PC}
    row = rows[ROW_REGULAR_L_IFF_PC]
    assert row["detail"].endswith(": calculus regular=False but lattice says True")
    # a loop with an exit is the smallest graph with a set that is not regular
    assert len(row["counterexample"]["vertices"]) == len(row["counterexample"]["edges"]) == 2


def recorded_trials(monkeypatch):
    """Make every random-ideal trial pass; returns the list of the generators each one got."""
    seen = []

    def check(algebra, generators):
        seen.append([g.tolist() for g in generators])

    monkeypatch.setattr("leavitt.verify.generated_ideal_check", check)
    return seen


def test_the_shrinker_replays_the_first_trials_of_a_graphs_task(monkeypatch):
    seen = recorded_trials(monkeypatch)
    cfg = VerifyConfig(prime=3)
    graph = exhaustive_acyclic_graphs()[-1]
    counts, failures = _oracle_task(cfg.prime, cfg.seed + 1, graph, 40)
    assert counts[ROW_PERP_GRADED] == 40 + counts[ROW_PERP_VSET]
    assert not failures
    task = list(seen)
    seen.clear()
    assert not _still_fails(ROW_PERP_GRADED, cfg, graph)
    assert seen == task[:32]
    assert len(task) == 40 and task[0] != task[1]


def test_the_shrinker_runs_trials_for_perp_graded_only(monkeypatch):
    seen = recorded_trials(monkeypatch)
    cfg = VerifyConfig(prime=3)
    graph = exhaustive_acyclic_graphs()[-1]
    for row in ORACLE_ROWS:
        if row != ROW_PERP_GRADED:
            assert not _still_fails(row, cfg, graph)
    assert seen == []
    assert not _still_fails(ROW_PERP_GRADED, cfg, graph)
    assert len(seen) == 32


def test_laurent_checks_pass():
    trials, failures = laurent_checks(Random(1), 5, 100)
    assert trials == 100
    assert not failures


def test_minimize_counterexample_shrinks():
    g = Graph(
        ("a", "b", "c"),
        (("e1", "a", "b"), ("e2", "b", "c"), ("e3", "a", "c"), ("e4", "c", "c")),
    )
    small = minimize_counterexample(g, lambda cand: len(cand.edges) >= 2)
    assert len(small.edges) == 2
    used = {v for e in small.edges for v in (e.src, e.dst)}
    assert set(small.vertices) == used


def the_row(matrix, name):
    (row,) = (r for r in matrix.rows if r.name == name)
    return row


def test_injected_mutant_fails_perp_row(monkeypatch):
    # break the backward closure: pretend H-bar is H itself
    monkeypatch.setattr(ideals, "bar_closure", lambda ideal: ideal.vertices)
    cfg = VerifyConfig(max_vertices=3, max_edges=3, trials=1)
    matrix = run_verification(cfg)
    row = the_row(matrix, ROW_PERP_VSET)
    assert row.failures > 0
    assert row.counterexample is not None
    # the smallest witness needs a vertex outside H that reaches H
    assert len(row.counterexample["vertices"]) == 3
    assert len(row.counterexample["edges"]) == 2
    assert not matrix.passed


def test_always_graded_mutant_fails_the_perp_graded_row(monkeypatch):
    # every annihilator is graded, so only the negative control of each
    # random-ideal trial can see a gradedness test that always says yes
    monkeypatch.setattr("leavitt.verify.is_graded_subspace", lambda algebra, subspace: True)
    cfg = VerifyConfig(max_vertices=3, max_edges=3, trials=5)
    row = the_row(run_verification(cfg), ROW_PERP_GRADED)
    assert row.failures > 0
    assert "spans a graded line" in row.detail
    # one edge is the smallest graph with two degrees
    assert len(row.counterexample["edges"]) == 1


@pytest.mark.parametrize("p", [2, 3])
def test_the_negative_control_is_a_line_in_one_block_that_is_not_graded(p):
    controls = 0
    for graph in exhaustive_acyclic_graphs():
        algebra = build_oracle(graph, p)
        degrees = algebra.degrees
        line = _mixed_degree_line(algebra)
        if not degrees.size or degrees.min() == degrees.max():
            assert line is None
            continue
        controls += 1
        assert [bool(pivots) for _basis, pivots in line.spans].count(True) == 1
        # the first lowest- and the first highest-degree unit of the whole algebra
        want = np.zeros_like(degrees)
        want[[degrees.argmin(), degrees.argmax()]] = 1
        assert line.dim == 1 and line.basis.tobytes() == want.tobytes()
        assert not is_graded_subspace(algebra, line)
    assert controls > 0


def test_mutant_matrix_is_still_deterministic(monkeypatch):
    monkeypatch.setattr(ideals, "bar_closure", lambda ideal: ideal.vertices)
    cfg = VerifyConfig(max_vertices=3, max_edges=3, trials=1)
    a = run_verification(cfg)
    b = run_verification(cfg)
    assert a.to_json_dict() == b.to_json_dict()


# verify forks its workers only where fork is a start method and the
# interpreter does not warn on a fork of a process with threads
needs_pool = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or sys.version_info >= (3, 12),
    reason="verify runs in process here",
)


def usable_cpus(monkeypatch, n):
    """Make ``verify`` see n usable CPUs, so that it runs the checks on n workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def one_and_two_workers(monkeypatch, cfg):
    """The matrix of ``cfg`` on one worker and on two, each as JSON and as text."""
    outputs = []
    for n in (1, 2):
        usable_cpus(monkeypatch, n)
        matrix = run_verification(cfg)
        outputs.append((matrix.to_json_dict(), matrix.render_text()))
    return outputs


def fails_on_two_edges(real):
    """A step of the oracle build, ``real``, that raises on every graph with two edges."""

    def step(graph, *args):
        if len(graph.edges) == 2:
            raise RuntimeError("no algebra for two edges")
        return real(graph, *args)

    return step


def trials_per_graph(cfg, family):
    """How many perp-graded trials of ``cfg`` fall on each graph, counted as the runner counts."""
    rng = Random(cfg.seed + 1)
    return Counter(family[rng.randrange(len(family))] for _ in range(cfg.trials))


MUTANTS = {
    "passing": None,
    # fails four oracle rows at the bounds below, in the oracle rows of each graph's task
    "bar-closure": ("leavitt.ideals.bar_closure", lambda ideal: ideal.vertices),
    # fails the random-ideal trials of perp-graded, which each graph's task runs after its rows
    "always-graded": ("leavitt.verify.is_graded_subspace", lambda algebra, subspace: True),
    # fails every oracle row of the two-edge graphs, and the trials that fall on them
    "build-fails": ("leavitt.verify.build_oracle", fails_on_two_edges(build_oracle)),
    # the same, from the step of the build that counts and lists each sink's paths
    "paths-fail": ("leavitt.oracle._sink_paths", fails_on_two_edges(_sink_paths)),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_two_workers_give_the_serial_matrix(monkeypatch, mutant):
    cfg = SMALL
    if MUTANTS[mutant]:
        monkeypatch.setattr(*MUTANTS[mutant])
        cfg = VerifyConfig(max_vertices=3, max_edges=3, trials=5)
    outputs = one_and_two_workers(monkeypatch, cfg)
    assert outputs[0] == outputs[1]
    assert outputs[0][0]["passed"] is (mutant == "passing")
    if mutant in ("build-fails", "paths-fail"):
        family = exhaustive_acyclic_graphs(cfg.max_vertices, cfg.max_edges)
        unbuilt = sum(len(g.edges) == 2 for g in family)
        drawn = sum(n for g, n in trials_per_graph(cfg, family).items() if len(g.edges) == 2)
        assert unbuilt and drawn  # else the case shows nothing
        rows = {row["name"]: row for row in outputs[0][0]["rows"]}
        assert rows[ROW_PERP_GRADED]["failures"] == unbuilt + drawn
        assert rows[ROW_PERP_GRADED]["detail"] == "setup failed: no algebra for two edges"


def ghost_is_edge_on_two_edges(real):
    """``OracleAlgebra._build_images``, ``real``, with each ghost image set to
    its edge's on every graph with two edges."""

    def build(self, paths):
        vertices, edges, ghosts = real(self, paths)
        return vertices, edges, edges.copy() if len(self.graph.edges) == 2 else ghosts

    return build


def test_an_algebra_that_fails_its_audit_fails_its_rows(monkeypatch, capsys):
    # the construction audit raises on the two-edge graphs: a failed law, exit 1, not a crash
    real = OracleAlgebra._build_images
    monkeypatch.setattr(OracleAlgebra, "_build_images", ghost_is_edge_on_two_edges(real))
    assert main(["verify", "--max-vertices", "3", "--max-edges", "3", "--trials", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "result: FAIL"
    detail = next(line for line in lines if line.startswith(f"detail[{ROW_PERP_VSET}]: "))
    _, _, detail = detail.partition(": ")
    assert detail.startswith("setup failed: ghost source/range relation fails for edge ")


def first_rows_only(n, p, rows):
    """A broken block solve: the ideal generated by a span is the matrices
    whose first row lies in its row basis, and whose other rows are zero."""
    basis, pivots = rows
    return np.pad(basis, ((0, 0), (0, n * n - n))), pivots


def test_a_trial_that_raises_while_shrinking_is_a_failure(monkeypatch):
    # the annihilator of a span that is not an ideal fails its closure audit
    # by raising, also in the trials that shrink the perp-graded witness
    monkeypatch.setattr("leavitt.oracle._block_ideal", first_rows_only)
    outputs = one_and_two_workers(monkeypatch, VerifyConfig(max_vertices=3, max_edges=3, trials=5))
    assert outputs[0] == outputs[1]
    rows = {row["name"]: row for row in outputs[0][0]["rows"]}
    assert rows[ROW_PERP_GRADED]["failures"] > 0
    # one edge is the smallest graph with a span that is not an ideal
    assert len(rows[ROW_PERP_GRADED]["counterexample"]["edges"]) == 1


def test_no_worker_outlives_the_run(monkeypatch):
    usable_cpus(monkeypatch, 2)
    run_verification(SMALL)
    assert multiprocessing.active_children() == []

    def broken(rng, p, trials):
        raise RuntimeError("broken Laurent row")

    monkeypatch.setattr("leavitt.verify.laurent_checks", broken)
    with pytest.raises(RuntimeError, match="broken Laurent row"):
        run_verification(SMALL)
    assert multiprocessing.active_children() == []


def dies_in_a_worker(monkeypatch):
    """Make the calculus check end its process when it runs in a worker."""
    parent = os.getpid()
    real = calculus_checks_for_graph

    def check(graph):
        if os.getpid() != parent:
            os._exit(1)
        return real(graph)

    monkeypatch.setattr("leavitt.verify.calculus_checks_for_graph", check)


@needs_pool
def test_a_dead_worker_is_an_internal_error(monkeypatch, capsys):
    usable_cpus(monkeypatch, 2)
    dies_in_a_worker(monkeypatch)
    code = main(["verify", "--max-vertices", "3", "--max-edges", "3", "--trials", "5"])
    assert code == 5
    assert "internal error: BrokenProcessPool" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


@needs_pool
def test_no_more_than_two_workers(monkeypatch):
    usable_cpus(monkeypatch, 64)
    started = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    assert run_verification(SMALL).passed
    assert started == [2]


def test_runs_in_process_beside_another_thread(monkeypatch):
    # a lock that another thread holds at a fork stays held in the child
    usable_cpus(monkeypatch, 2)
    dies_in_a_worker(monkeypatch)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert run_verification(SMALL).passed
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


def small_matrix_text():
    return run_verification(SMALL).render_text()


@needs_pool
def test_runs_in_process_inside_a_daemonic_worker(monkeypatch):
    # a multiprocessing.Pool worker is daemonic and may not start a pool of its own
    usable_cpus(monkeypatch, 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        text = pool.apply(small_matrix_text)
    assert text == small_matrix_text()


# -- the block cache lives for one command ------------------------------------------------


def forgets_the_generators(n, p, rows):
    """A broken block solve: every generated ideal is zero."""
    return np.zeros((0, n * n), dtype=np.int64), ()


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pool"])
def test_no_block_solve_outlives_its_run(monkeypatch, cpus):
    # a cache kept from the first run would answer the broken run's solves
    usable_cpus(monkeypatch, cpus)
    cfg = VerifyConfig(max_vertices=3, max_edges=3, trials=5)
    assert run_verification(cfg).passed
    with monkeypatch.context() as patch:
        patch.setattr("leavitt.oracle._block_ideal", forgets_the_generators)
        broken = run_verification(cfg)
    assert not broken.passed
    assert {r.name for r in broken.rows if r.failures} >= {ROW_PERP_VSET, ROW_LATTICE_COUNT}
    assert run_verification(cfg).passed
    assert _BLOCK_CACHE.get() is None


def test_no_block_solve_outlives_an_oracle_check(monkeypatch, capsys):
    argv = ["oracle-check", "--graph", str(Path(__file__).parent / "golden" / "oracle-7v.json")]
    assert main(argv) == 0
    with monkeypatch.context() as patch:
        patch.setattr("leavitt.oracle._block_ideal", forgets_the_generators)
        assert main(argv) == 1
    assert main(argv) == 0
    assert _BLOCK_CACHE.get() is None
    capsys.readouterr()


# -- failing runs, pinned byte for byte ----------------------------------------------------
#
# Every other golden copy is a passing run; these pin what a failing run
# prints: the order of the failures within a row, each row's first detail and
# the shrunk witness.


def raises_on_one_vertex_sets(real):
    """``ideals.pc_bijection_check``, ``real``, raising on every one-vertex set."""

    def check(graph, h):
        if len(h.vertices) == 1:
            raise IndexError("no bijection check for one vertex")
        return real(graph, h)

    return check


def raises_on_two_edge_algebras(real):
    """``vertex_set_of``, ``real``, raising on the algebra of every graph with two edges."""

    def read(algebra, subspace):
        if len(algebra.graph.edges) == 2:
            raise IndexError("no vertex set for two edges")
        return real(algebra, subspace)

    return read


def never_graded(algebra, subspace):
    raise IndexError("no grading")


GOLDEN = Path(__file__).parent / "golden"
SMALL_ARGV = ["verify", "--max-vertices", "3", "--max-edges", "3", "--trials", "20"]
ORACLE_7V_ARGV = ["oracle-check", "--graph", str(GOLDEN / "oracle-7v.json")]

# golden copy name: (argv, the (target, value) pairs to monkeypatch)
FAILING_RUNS = {
    # every per-set row fails through the set constructor's ValueError, and the dichotomy
    "verify-failing-bar-closure": (
        SMALL_ARGV, [("leavitt.ideals.bar_closure", lambda ideal: ideal.vertices)]
    ),
    # the calculus per-set check raises: each of its rows fails for those sets
    "verify-failing-pc-bijection-raises": (
        SMALL_ARGV,
        [(
            "leavitt.ideals.pc_bijection_check",
            raises_on_one_vertex_sets(ideals.pc_bijection_check),
        )],
    ),
    # the oracle per-set check, the lattice count and the random-ideal trials raise
    "verify-failing-vertex-set-raises": (
        SMALL_ARGV,
        [("leavitt.verify.vertex_set_of", raises_on_two_edge_algebras(verify.vertex_set_of))],
    ),
    "verify-failing-laurent": (
        SMALL_ARGV, [("leavitt.verify.laurent_perp_is_zero", lambda f: False)]
    ),
    # a set fails perp-vertex-set, then its check raises
    "oracle-check-7v-failing-perp-raises": (
        ORACLE_7V_ARGV,
        [("leavitt.ideals.perp", lambda h: h), ("leavitt.verify.is_graded_subspace", never_graded)],
    ),
}


@pytest.mark.parametrize("name", FAILING_RUNS)
def test_a_failing_run_matches_its_golden_copy(monkeypatch, capsys, name):
    argv, patches = FAILING_RUNS[name]
    for target, value in patches:
        monkeypatch.setattr(target, value)
    assert main(argv) == 1
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want
