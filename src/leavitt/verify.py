"""Property suites with a pass/fail matrix.

Each row states one law the vertex-set calculus must satisfy.  The laws
about annihilators are refereed against the matrix oracle on an exhaustive
family of small acyclic graphs, one per isomorphism class, listed from edge
multisets whose edges all run from a lower vertex label to a higher one (a
topological labelling, which every acyclic graph has).  The purely
graph-level laws run over seeded random graph samples (cycles allowed); the
Laurent row covers the single exit-free cycle family.  A failing row is
reported together with a greedily minimized witness graph.

The rows are one table, ``ROWS``: each row's name in print order, its family
and its seed offset.  The oracle family and the calculus family each state
their per-set laws as one generator of the laws a set breaks, and one
runner, :func:`_check_sets`, runs it over the listed sets; where the check
of a set raises, every per-set row of its family fails for that set.

Every per-graph check is a pure function of its own inputs: the oracle
check of a graph also runs the ``perp-graded`` random-ideal trials that
fall on it, drawn from a stream seeded by the run's seed and the graph, and
the runner's tasks, the shrinker and ``oracle-check`` all call that one
check.  So the runner hands the checks to a pool of worker processes, one
per usable CPU up to two, forked at the start of the run and joined before
it returns, and takes the results in the serial order; the matrix, the
failure details, the witnesses and their minimization (which stays serial)
are the same on any number of workers.  With one usable CPU, without the
``fork`` start method, on Python 3.12 and later, beside a second Python
thread, or in a daemonic process, the same tasks run in process.  A run
reuses the oracle's block solves across its algebras through one
:func:`leavitt.oracle.block_cache` for the run, and each worker through one
of its own.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import cache, partial, reduce
from random import Random

import numpy as np

from . import ideals
from .errors import InvalidArgumentError, LatticeTooLargeError
from .gfp import rref_pivots
from .graphdoc import document_from_graph
from .graphs import Graph
from .hereditary import (
    ENUMERATION_CUTOFF,
    HereditarySaturatedSet,
    hs_closure,
    lattice_with_regularity,
)
from .laurent import LaurentElement, laurent_perp_is_zero
from .oracle import (
    IdealSubspace,
    block_cache,
    build_oracle,
    ideal_generated_by,
    is_graded_subspace,
    perp_subspace,
    require_exact_prime,
    start_block_cache,
    sum_of_ideals,
    vertex_set_of,
)

ROW_PERP_VSET = "perp-vertex-set"
ROW_DPERP_VSET = "double-perp-vertex-set"
ROW_REGULARITY = "regularity-verdict"
ROW_PERP_REGULAR = "perp-always-regular"
ROW_PERP_GRADED = "perp-graded"
ROW_LATTICE_COUNT = "ideal-lattice-count"
ROW_PC_BIJECTION = "exitless-cycle-bijection"
ROW_QUOTIENT_L_PC = "quotient-condition-l-forces-pc"
ROW_REGULAR_L_IFF_PC = "regular-quotient-condition-l-iff-pc"
ROW_L_PRESERVED = "condition-l-preserved"
ROW_MAXIMAL = "maximal-ideal-dichotomy"
ROW_LAURENT = "laurent-annihilator-zero"

# every row in print order, as (name, family, seed offset); a "set" row has one
# trial per listed set, and its seed is the run's seed plus its offset
ROWS = (
    (ROW_PERP_VSET, "oracle set", 0),
    (ROW_DPERP_VSET, "oracle set", 0),
    (ROW_REGULARITY, "oracle set", 0),
    (ROW_PERP_REGULAR, "calculus set", 0),
    (ROW_PERP_GRADED, "oracle set", 1),
    (ROW_LATTICE_COUNT, "oracle graph", 0),
    (ROW_PC_BIJECTION, "calculus set", 0),
    (ROW_QUOTIENT_L_PC, "calculus set", 0),
    (ROW_REGULAR_L_IFF_PC, "calculus set", 0),
    (ROW_L_PRESERVED, "calculus set", 0),
    (ROW_MAXIMAL, "calculus graph", 0),
    (ROW_LAURENT, "laurent", 2),
)


def _rows_of(*families: str) -> tuple[str, ...]:
    return tuple(name for name, family, _ in ROWS if family in families)


def _seed(cfg: VerifyConfig, row: str) -> int:
    """The seed ``verify`` prints for ``row``, and of the random stream it draws."""
    return cfg.seed + next(offset for name, _, offset in ROWS if name == row)


ALL_ROWS = tuple(name for name, _, _ in ROWS)
ORACLE_ROWS = _rows_of("oracle set", "oracle graph")
CALCULUS_ROWS = _rows_of("calculus set", "calculus graph")

# the exhaustive oracle family stays desk-scale regardless of requested bounds
ORACLE_FAMILY_MAX_VERTICES = 4
ORACLE_FAMILY_MAX_EDGES = 5


@dataclass(frozen=True)
class VerifyConfig:
    max_vertices: int = 5
    max_edges: int = 8
    trials: int = 500
    seed: int = 42
    prime: int = 2

    def __post_init__(self):
        """Refuse, before any work, bounds that are negative or past the lattice
        cutoff, and a prime that is not prime or is past the oracle's
        int64-exact bound."""
        for flag, value in (
            ("--max-vertices", self.max_vertices),
            ("--max-edges", self.max_edges),
            ("--trials", self.trials),
        ):
            if value < 0:
                raise InvalidArgumentError(f"{flag} must be non-negative, got {value}")
        if self.max_vertices > ENUMERATION_CUTOFF:
            raise LatticeTooLargeError(
                f"--max-vertices {self.max_vertices} is past the lattice enumeration "
                f"cutoff of {ENUMERATION_CUTOFF} vertices"
            )
        require_exact_prime(self.prime)


@dataclass(frozen=True)
class Failure:
    row: str
    graph: Graph | None
    detail: str


@dataclass(frozen=True)
class RowResult:
    name: str
    trials: int
    failures: int
    seed: int
    counterexample: dict | None = None
    detail: str = ""


@dataclass(frozen=True)
class VerificationMatrix:
    config: VerifyConfig
    rows: tuple[RowResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.failures == 0 for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "rows": [asdict(r) for r in self.rows],
            "passed": self.passed,
        }

    def render_text(self) -> str:
        cfg = self.config
        lines = [
            "verification matrix  "
            f"seed={cfg.seed} prime={cfg.prime} max-vertices={cfg.max_vertices} "
            f"max-edges={cfg.max_edges} trials={cfg.trials}",
            f"{'row':<38} {'trials':>8} {'failures':>9} {'seed':>6}",
        ]
        for r in self.rows:
            lines.append(f"{r.name:<38} {r.trials:>8} {r.failures:>9} {r.seed:>6}")
        for r in self.rows:
            if r.failures:
                lines.append(f"counterexample[{r.name}]: " + json.dumps(r.counterexample))
                lines.append(f"detail[{r.name}]: {r.detail}")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


# -- graph families -------------------------------------------------------------


def exhaustive_acyclic_graphs(
    max_vertices: int = ORACLE_FAMILY_MAX_VERTICES,
    max_edges: int = ORACLE_FAMILY_MAX_EDGES,
) -> tuple[Graph, ...]:
    """Every acyclic multigraph within the bounds, one per isomorphism class.

    Every acyclic graph has a topological labelling, one in which each edge
    runs from a lower label to a higher one.  So the edge multisets over the
    pairs (i, j) with i < j reach every isomorphism class, and only acyclic
    ones; the first multiset of each class is its representative.  A
    multiset over the ordered pairs of n vertices is coded as one int, with
    the number of its edges on (a, b) as the base-(max_edges + 1) digit
    a * n + b.  When a class first appears, the codes of every relabelling
    of its representative are added to ``seen``, so each later multiset
    costs one lookup of its own code.
    """
    family: list[Graph] = []
    base = max_edges + 1
    for n in range(max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        # digit weights of the pairs under each relabelling, the identity's first
        weights = [
            [base ** (perm[a] * n + perm[b]) for a, b in pairs]
            for perm in itertools.permutations(range(n))
        ]
        seen: set[int] = set()
        for m in range(max_edges + 1):
            for combo in itertools.combinations_with_replacement(range(len(pairs)), m):
                if sum(weights[0][k] for k in combo) not in seen:
                    seen.update(sum(w[k] for k in combo) for w in weights)
                    family.append(_graph_from_pairs(n, [pairs[k] for k in combo]))
    return tuple(family)


def _graph_from_pairs(n: int, pairs) -> Graph:
    vertices = tuple(f"v{i}" for i in range(n))
    edges = tuple((f"e{k}", f"v{a}", f"v{b}") for k, (a, b) in enumerate(pairs))
    return Graph(vertices, edges)


def random_graph(rng: Random, max_vertices: int, max_edges: int) -> Graph:
    """Seeded random multigraph; loops and parallel edges allowed."""
    n = rng.randint(0, max_vertices)
    m = rng.randint(0, max_edges) if n else 0  # no edge count is drawn for the empty graph
    return _graph_from_pairs(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])


# -- per-graph checks -----------------------------------------------------------


def _setup_failed(rows, graph: Graph, exc: Exception):
    """One trial and one failure per row, for a graph whose set-up raised."""
    return dict.fromkeys(rows, 1), [Failure(row, graph, f"setup failed: {exc}") for row in rows]


def _check_sets(graph: Graph, lattice, rows, problems):
    """Run one family's per-set ``rows`` over the ``lattice`` pass of ``graph``.

    ``problems(h, flag)`` yields ``(row, detail)`` for each of the rows' laws
    that the set h, listed with that regularity flag, breaks, so the rows of
    a set share its solves and searches.  The set's label is built only for
    a failure.  Where ``problems`` raises, every row fails for that set too,
    after what it had yielded.  Returns (counts, failures) as the checks do.
    """
    failures: list[Failure] = []
    for h, flag in lattice:
        try:
            for row, detail in problems(h, flag):
                failures.append(Failure(row, graph, f"H={h.sorted_vertices()}: {detail}"))
        except Exception as exc:
            label = f"H={h.sorted_vertices()}: check raised {exc!r}"
            failures += [Failure(row, graph, label) for row in rows]
    return dict.fromkeys(rows, len(lattice)), failures


def oracle_checks_for_graph(graph: Graph, p: int, algebra=None, seed=None, trials=0):
    """Rows refereed by the matrix oracle, for one acyclic graph, then
    ``trials`` perp-graded random-ideal trials on its algebra.

    Returns (trial counts per row, failures), failures in that order: the
    per-set rows, the lattice count, the trials.  ``algebra``, when given,
    is the graph's prebuilt algebra.  The sets come from the lattice pass
    with the regularity flags that ``leavitt lattice`` prints, and
    ``regularity-verdict`` checks each flag as well as ``is_regular``.  The
    ideal of a vertex set is the sum of its vertices' ideals, folded in
    graph vertex order; each vertex's ideal and the zero ideal are built
    once per call, on first use inside the per-set runner's error handling,
    so a broken solve fails the rows of a set rather than the set-up.  The lattice count
    reads the vertex set of each distinct ideal once.  Each trial's
    generators come from :func:`draw_generators`, on a stream seeded by
    ``seed`` and the graph (a str seed, which hashes alike under every
    ``PYTHONHASHSEED``), so the runner's task and the shrinker draw the same
    first trials on one graph.  Where the algebra fails to build, every row
    and every trial fails with the set-up failure.  The lattice pass's
    refusal past the cutoff leaves this function: not a broken law.
    """
    try:
        if algebra is None:
            algebra = build_oracle(graph, p)
    except Exception as exc:  # oracle build is part of what the rows verify
        counts, failures = _setup_failed(ORACLE_ROWS, graph, exc)
        counts[ROW_PERP_GRADED] += trials
        return counts, failures + [Failure(ROW_PERP_GRADED, graph, failures[0].detail)] * trials
    lattice = list(lattice_with_regularity(graph))

    @cache
    def generated(vertex: str | None) -> IdealSubspace:
        """The ideal of one vertex, or at None the zero ideal."""
        return ideal_generated_by(algebra, [] if vertex is None else [algebra.vertex_image(vertex)])

    def ideal_of(vertices) -> IdealSubspace:
        summands = [generated(v) for v in graph.vertices if v in vertices] or [generated(None)]
        return reduce(sum_of_ideals, summands)

    def problems(h, flag):
        ideal = ideal_of(h.vertices)
        perp1 = perp_subspace(algebra, ideal)
        perp2 = perp_subspace(algebra, perp1)

        got = vertex_set_of(algebra, perp1)
        want = ideals.perp(h).vertices
        if got != want:
            yield ROW_PERP_VSET, f"oracle perp {sorted(got)} != calculus {sorted(want)}"
        got2 = vertex_set_of(algebra, perp2)
        want2 = ideals.double_perp(h).vertices
        if got2 != want2:
            yield ROW_DPERP_VSET, f"oracle double perp {sorted(got2)} != calculus {sorted(want2)}"
        oracle_regular = perp2 == ideal
        regular = ideals.is_regular(h)
        if oracle_regular != regular:
            yield ROW_REGULARITY, f"oracle regular={oracle_regular} but calculus says {regular}"
        elif oracle_regular != flag:
            yield ROW_REGULARITY, f"oracle regular={oracle_regular} but lattice says {flag}"
        if not is_graded_subspace(algebra, perp1):
            yield ROW_PERP_GRADED, "annihilator is not graded"

    counts, failures = _check_sets(graph, lattice, _rows_of("oracle set"), problems)
    counts[ROW_LATTICE_COUNT] = 1
    try:
        vertex_sets: dict = {}  # the oracle vertex set of each distinct ideal, by block key
        for size in range(len(graph.vertices) + 1):
            for subset in itertools.combinations(graph.vertices, size):
                ideal = ideal_of(subset)
                key = ideal.block_key
                if key not in vertex_sets:
                    vertex_sets[key] = vertex_set_of(algebra, ideal)
                got = vertex_sets[key]
                closed = hs_closure(graph, subset)
                if got != closed.vertices:
                    raise AssertionError(
                        f"X={sorted(subset)}: oracle vertex set {sorted(got)} != "
                        f"closure {closed.sorted_vertices()}"
                    )
        expected = 2 ** len(graph.sinks())
        if not (len(vertex_sets) == len(lattice) == expected):
            raise AssertionError(
                f"(oracle ideals, lattice size, 2^sinks) = "
                f"({len(vertex_sets)}, {len(lattice)}, {expected})"
            )
    except Exception as exc:
        failures.append(Failure(ROW_LATTICE_COUNT, graph, f"count check failed: {exc}"))

    counts[ROW_PERP_GRADED] += trials
    # seeding hashes the graph's repr (about 1% of an oracle-check), so only where trials run
    rng = Random(f"{seed} {graph!r}") if trials else None
    for _ in range(trials):
        generators = draw_generators(rng, algebra.dimension, p)
        try:
            problem = generated_ideal_check(algebra, generators)
        except Exception as exc:
            problem = f"random ideal check raised {exc!r}"
        if problem:
            failures.append(Failure(ROW_PERP_GRADED, graph, problem))
    return counts, failures


def draw_generators(rng: Random, dimension: int, p: int) -> list[np.ndarray]:
    """The random generators of one trial: one or two elements of an algebra
    of this dimension over GF(p), each with one to four nonzero coordinates."""
    return [_random_element(rng, dimension, p) for _ in range(rng.randint(1, 2))]


def _random_element(rng: Random, dimension: int, p: int) -> np.ndarray:
    vec = np.zeros(dimension, dtype=np.int64)
    if dimension == 0:
        return vec
    support = rng.sample(range(dimension), rng.randint(1, min(4, dimension)))
    for i in support:
        vec[i] = rng.randrange(1, p) if p > 2 else 1
    return vec


def generated_ideal_check(algebra, generators):
    """Is the annihilator of the ideal generated by ``generators`` graded?

    Returns None or what went wrong.  A negative control rides along: the
    sum of a lowest- and a highest-degree unit must span a line that is not
    graded (skipped when the algebra has one degree only; see
    :func:`_mixed_degree_line`).
    """
    ideal = ideal_generated_by(algebra, generators)
    perp1 = perp_subspace(algebra, ideal)
    if not is_graded_subspace(algebra, perp1):
        return "annihilator of a random ideal is not graded"
    mixed = _mixed_degree_line(algebra)
    if mixed is not None and is_graded_subspace(algebra, mixed):
        return "a sum of units of two degrees spans a graded line"
    hset = vertex_set_of(algebra, ideal)
    try:
        HereditarySaturatedSet(algebra.graph, hset)
    except ValueError as exc:
        return f"vertex set {sorted(hset)} of a random ideal is not hereditary saturated: {exc}"
    return None


def _mixed_degree_line(algebra):
    """The line spanned by a lowest- plus a highest-degree unit, held as one
    block span (it is not an ideal), or None where there is one degree only.

    The extremes are -L and L, L the length of a longest path g, and the
    block of the sink v that g ends holds both: e[v; v, g] and e[v; g, v].
    Every random-ideal trial on an algebra reads the line, so it is built
    once per algebra and kept on it; an algebra never changes once built.
    """
    kept = vars(algebra)
    if "_mixed_degree_line" in kept:
        return kept["_mixed_degree_line"]
    degrees = algebra.degrees
    mixed = None
    if degrees.size and degrees.min() != degrees.max():
        spans = [(np.zeros((0, n * n), dtype=np.int64), ()) for n in algebra._block_sizes]
        b = next(
            b for b in range(len(spans)) if degrees[algebra._columns(b)].max() == degrees.max()
        )
        block = degrees[algebra._columns(b)]
        line = np.zeros((1, block.size), dtype=np.int64)
        line[0, [block.argmin(), block.argmax()]] = 1
        spans[b] = (line, rref_pivots(line))
        mixed = IdealSubspace(algebra, spans)
    kept["_mixed_degree_line"] = mixed
    return mixed


def calculus_checks_for_graph(graph: Graph):
    """Graph-level rows (no oracle) for one graph, cycles allowed.

    The sets come from the lattice pass with the regularity flags that
    ``leavitt lattice`` prints; ``regular-quotient-condition-l-iff-pc``, whose
    law rests on the verdict, also fails where a flag disagrees with
    ``is_regular``.
    """
    try:
        lattice = list(lattice_with_regularity(graph))
        cond_l = graph.condition_l()
        pc = graph.exit_free_cycle_vertices()
    except Exception as exc:
        return _setup_failed(CALCULUS_ROWS, graph, exc)

    def problems(h, flag):
        p1 = ideals.perp(h)
        if not ideals.is_regular(p1):
            yield ROW_PERP_REGULAR, "perp not regular"
        p3 = ideals.perp(ideals.double_perp(h))
        if p1.vertices != p3.vertices:
            yield (
                ROW_PERP_REGULAR,
                f"perp {sorted(p1.vertices)} != triple perp {sorted(p3.vertices)}",
            )

        regular = ideals.is_regular(h)
        quotient_l = ideals.quotient_graph(graph, h).condition_l()
        pc_inside = pc <= h.vertices
        if regular and not ideals.pc_bijection_check(graph, h):
            yield ROW_PC_BIJECTION, "regular but cycle sets differ"
        if quotient_l and not pc_inside:
            yield ROW_QUOTIENT_L_PC, "quotient satisfies (L) but exit-free vertices escape H"
        if regular and quotient_l != pc_inside:
            yield (
                ROW_REGULAR_L_IFF_PC,
                f"regular but (L)-quotient={quotient_l} vs containment={pc_inside}",
            )
        elif regular != flag:
            yield ROW_REGULAR_L_IFF_PC, f"calculus regular={regular} but lattice says {flag}"
        if cond_l and regular and not quotient_l:
            yield ROW_L_PRESERVED, "quotient lost Condition (L)"

    counts, failures = _check_sets(graph, lattice, _rows_of("calculus set"), problems)
    try:
        counts[ROW_MAXIMAL] = len(ideals.maximal_graded_ideals([h for h, _ in lattice]))
    except Exception as exc:  # the dichotomy itself raises AssertionError
        counts[ROW_MAXIMAL] = 1
        failures.append(Failure(ROW_MAXIMAL, graph, f"check raised {exc!r}"))

    return counts, failures


def random_laurent(rng: Random, p: int) -> LaurentElement:
    """Nonzero element with support width at most 7, pinned at both ends."""
    width = rng.randint(1, 7)
    lo = rng.randint(-6, 6 - (width - 1))
    coeffs = {lo: rng.randint(1, p - 1)}
    if width > 1:
        coeffs[lo + width - 1] = rng.randint(1, p - 1)
        for d in range(lo + 1, lo + width - 1):
            c = rng.randrange(p)
            if c:
                coeffs[d] = c
    return LaurentElement(p, coeffs)


def laurent_checks(rng: Random, p: int, trials: int):
    """Annihilator-freeness and degree additivity over random pairs."""
    failures: list[Failure] = []
    for _ in range(trials):
        f = random_laurent(rng, p)
        g = random_laurent(rng, p)
        try:
            if not laurent_perp_is_zero(f):
                failures.append(Failure(ROW_LAURENT, None, f"{f!r}: annihilator test failed"))
                continue
            prod = f * g
            if (
                prod.is_zero
                or prod.min_degree != f.min_degree + g.min_degree
                or prod.max_degree != f.max_degree + g.max_degree
            ):
                failures.append(
                    Failure(ROW_LAURENT, None, f"degrees not additive for {f!r} * {g!r}")
                )
        except Exception as exc:
            failures.append(Failure(ROW_LAURENT, None, f"{f!r}: check raised {exc!r}"))
    return trials, failures


# -- counterexample minimization --------------------------------------------------


def minimize_counterexample(graph: Graph, still_fails) -> Graph:
    """Greedily drop edges, then vertices, while the failure persists: each
    round takes the first smaller graph, edges first, that still fails."""
    while True:
        smaller = itertools.chain(
            (graph.without_edge(e.name) for e in graph.edges),
            (graph.without_vertex(v) for v in graph.vertices),
        )
        candidate = next((g for g in smaller if still_fails(g)), None)
        if candidate is None:
            return graph
        graph = candidate


def _still_fails(row: str, cfg: VerifyConfig, g: Graph) -> bool:
    """True iff the graph-carrying ``row`` still fails on ``g``.

    ``perp-graded`` also fails when one of 32 random-ideal trials finds a
    problem: on a graph of the oracle family, the first 32 that the runner's
    task for that graph draws.
    """
    if row in CALCULUS_ROWS:
        _counts, failures = calculus_checks_for_graph(g)
    else:
        trials = 32 if row == ROW_PERP_GRADED else 0
        seed = _seed(cfg, ROW_PERP_GRADED)
        _counts, failures = oracle_checks_for_graph(g, cfg.prime, seed=seed, trials=trials)
    return any(f.row == row for f in failures)


# -- the runner -------------------------------------------------------------------

# the most worker processes one run starts: the speed-up was measured on two
# CPUs only, and each worker's BLAS library may start threads of its own
_MAX_WORKERS = 2
# chunks of each kind of task per worker: one task per item costs the
# runner, which shares the CPUs with the workers, more than it saves
_CHUNKS_PER_WORKER = 4


@block_cache()
def run_verification(cfg: VerifyConfig) -> VerificationMatrix:
    """Run every row; trials=0 yields an empty matrix.

    The per-graph checks are independent, so they run on a pool of the
    usable CPUs (see :func:`_task_map`): one task per oracle graph, which
    also runs the ``perp-graded`` random-ideal trials that fall on it, and
    one per random graph.  The runner draws only how many trials fall on
    each oracle graph; each task draws its own random ideals, seeded by the
    run's seed and its graph.  The Laurent row runs in this process while
    the pool works.  Results are taken in the serial order, so the output
    does not depend on the number of workers.  The run, shrinking included,
    has one block cache of its own, and so does each worker; none outlives
    the call.
    """
    if cfg.trials == 0:
        return VerificationMatrix(cfg, ())

    counts: Counter[str] = Counter()
    family = exhaustive_acyclic_graphs(
        min(cfg.max_vertices, ORACLE_FAMILY_MAX_VERTICES),
        min(cfg.max_edges, ORACLE_FAMILY_MAX_EDGES),
    )
    # the number of perp-graded trials that falls on each graph of the family
    rng = Random(_seed(cfg, ROW_PERP_GRADED))
    per_graph = Counter(rng.randrange(len(family)) for _ in range(cfg.trials))
    # drawn as they are checked, so that in process each graph is dropped,
    # with the lookup tables its checks cache on it, once it is checked
    graph_rng = Random(cfg.seed)
    randoms = (random_graph(graph_rng, cfg.max_vertices, cfg.max_edges) for _ in range(cfg.trials))

    with _task_map(len(family) + cfg.trials) as run:
        oracle_task = partial(_oracle_task, cfg.prime, _seed(cfg, ROW_PERP_GRADED))
        oracle_results = run(oracle_task, family, [per_graph[k] for k in range(len(family))])
        calculus_results = run(_calculus_task, randoms)
        counts[ROW_LAURENT], failures = laurent_checks(
            Random(_seed(cfg, ROW_LAURENT)), cfg.prime, cfg.trials
        )
        for c, fs in itertools.chain(oracle_results, calculus_results):
            counts.update(c)
            failures += fs

    results = []
    for name in ALL_ROWS:
        fs = [f for f in failures if f.row == name]
        counterexample = None
        witness = next((f.graph for f in fs if f.graph is not None), None)
        if witness is not None:
            witness = minimize_counterexample(witness, partial(_still_fails, name, cfg))
            counterexample = document_from_graph(witness)
        detail = fs[0].detail if fs else ""
        results.append(
            RowResult(name, counts[name], len(fs), _seed(cfg, name), counterexample, detail)
        )
    return VerificationMatrix(cfg, tuple(results))


@contextmanager
def _task_map(work: int):
    """Yield ``run``: ``run(fn, items, *more)`` is ``map`` over the usable CPUs.

    One worker per usable CPU, at most ``_MAX_WORKERS`` and one per unit of
    ``work``, forked from this process so that each inherits its module
    state as it is now (a monkeypatched function too).  ``run`` is the
    builtin ``map`` in this process instead where one worker would do,
    where ``fork`` is not a start method, on Python 3.12 and later (which
    warns on a fork of a process with threads, and numpy's BLAS starts
    some), in a process with a second Python thread (a lock another thread
    holds at the fork stays held in the child), and in a daemonic process
    (which may not start processes).  ``run`` queues every item at once, in
    ``_CHUNKS_PER_WORKER`` chunks per worker, and yields the results in item
    order (in process, lazily, as ``map`` does); ``fn`` must be a
    module-level function that nothing replaces, because it is sent to the
    workers by name.  Each worker starts an empty block cache and keeps it
    until the pool is shut down.  The pool is shut down and its processes
    joined before this returns, also when the body raises.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, work, _MAX_WORKERS)
    if sys.version_info >= (3, 12) or threading.active_count() > 1:
        workers = 1
    if workers > 1:
        import multiprocessing  # only on this path: it would slow every command's start

        if (
            "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
        ):
            workers = 1
    if workers <= 1:
        yield map
        return
    from concurrent.futures import ProcessPoolExecutor

    executor = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"), initializer=start_block_cache
    )

    def run(fn, items, *more):
        items = list(items)
        chunk = max(1, len(items) // (workers * _CHUNKS_PER_WORKER))
        return executor.map(fn, items, *more, chunksize=chunk)

    try:
        yield run
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


# The tasks below are what _task_map sends by name: private module-level functions
# that look the checks up by name when they run, so that a wrapper or a
# monkeypatch installed on a check is what the workers call.


def _oracle_task(p, seed, graph, count):
    return oracle_checks_for_graph(graph, p, seed=seed, trials=count)


def _calculus_task(graph):
    return calculus_checks_for_graph(graph)
