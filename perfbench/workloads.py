"""Seeded inputs for each workload, with the answer every output must match.

A workload is a list of operations; each operation is one `leavitt` command
line, optionally reading one generated graph file.  The expected answers are
worked out here from the graph documents alone (path counts, sink counts,
closed forms for the named families), never by calling into `leavitt`, so a
wrong program cannot agree with itself.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Callable


class CheckError(Exception):
    """An output differs from the independently computed answer."""


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]  # "{graph}" stands for the generated graph file
    graph: dict | None
    check: Callable[[str], None]  # raises CheckError on a wrong stdout
    part: str = ""  # the share of the round this operation's time is reported under
    expect_error: str | None = None  # the one way this operation is known to fail today


# -- graph documents ----------------------------------------------------------------


def document(vertices, edges) -> dict:
    return {
        "vertices": list(vertices),
        "edges": [{"name": n, "src": s, "dst": d} for n, s, d in edges],
    }


def _labels(rng: Random, prefix: str, count: int) -> list[str]:
    """Distinct, seed-dependent identifiers of one width (so string order is numeric order)."""
    return [f"{prefix}{k:06d}" for k in rng.sample(range(10**6), count)]


def _shuffled_doc(rng: Random, vertices, pairs, edge_prefix: str) -> dict:
    """Document with seed-chosen edge names and shuffled vertex and edge order."""
    names = _labels(rng, edge_prefix, len(pairs))
    edges = [(n, s, d) for n, (s, d) in zip(names, pairs)]
    vertices = list(vertices)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return document(vertices, edges)


def complete_with_loops(rng: Random, n: int) -> dict:
    vs = _labels(rng, "k", n)
    return _shuffled_doc(rng, vs, [(a, b) for a in vs for b in vs], "e")


def ring(rng: Random, n: int) -> dict:
    vs = _labels(rng, "r", n)
    return _shuffled_doc(rng, vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)], "e")


def chain(rng: Random, n: int) -> dict:
    vs = _labels(rng, "c", n)
    return _shuffled_doc(rng, vs, [(vs[i], vs[i + 1]) for i in range(n - 1)], "e")


def comb(rng: Random, teeth: int) -> dict:
    """A spine s_0 -> ... -> s_{k-1}, with a tooth s_i -> t_i (a sink) at every spine vertex."""
    spine = _labels(rng, "s", teeth)
    tips = _labels(rng, "t", teeth)
    pairs = [(spine[i], spine[i + 1]) for i in range(teeth - 1)]
    pairs += [(spine[i], tips[i]) for i in range(teeth)]
    return _shuffled_doc(rng, spine + tips, pairs, "e")


def edgeless(rng: Random, n: int) -> dict:
    return document(_labels(rng, "w", n), [])


# -- independent answers --------------------------------------------------------------


def _out_table(doc: dict) -> dict[str, list[str]]:
    out = {v: [] for v in doc["vertices"]}
    for e in doc["edges"]:
        out[e["src"]].append(e["dst"])
    return out


def paths_into_sinks(doc: dict) -> dict[str, int]:
    """Per sink of an acyclic graph, the number of paths ending there (trivial one included)."""
    out = _out_table(doc)

    @lru_cache(maxsize=None)
    def count(v: str, sink: str) -> int:
        return (v == sink) + sum(count(w, sink) for w in out[v])

    sinks = [v for v in doc["vertices"] if not out[v]]
    return {s: sum(count(v, s) for v in doc["vertices"]) for s in sinks}


def oracle_dimension(doc: dict) -> int:
    """One full matrix block per sink, of side the number of paths into it."""
    return sum(n * n for n in paths_into_sinks(doc).values())


def acyclic_lattice(doc: dict) -> list[dict]:
    """`lattice --json` of an acyclic graph: one regular set per set of sinks.

    In a finite acyclic graph a hereditary saturated set is fixed by the
    sinks S it contains: it is every vertex whose reachable sinks all lie in
    S.  So there are 2^(number of sinks) sets, and each equals its double
    annihilator, i.e. is regular.
    """
    out = _out_table(doc)
    reach: dict[str, frozenset[str]] = {}

    def sinks_below(v: str) -> frozenset[str]:
        if v not in reach:
            reach[v] = frozenset((v,)) if not out[v] else frozenset().union(
                *(sinks_below(w) for w in out[v])
            )
        return reach[v]

    sinks = [v for v in doc["vertices"] if not out[v]]
    sets = []
    for k in range(len(sinks) + 1):
        for chosen in itertools.combinations(sinks, k):
            s = frozenset(chosen)
            sets.append(sorted(v for v in doc["vertices"] if sinks_below(v) <= s))
    sets.sort(key=lambda vs: (len(vs), vs))
    return [{"vertices": vs, "is_regular": True} for vs in sets]


def strongly_connected_lattice(doc: dict) -> list[dict]:
    """`lattice --json` of a strongly connected graph: only the empty set and everything."""
    return [
        {"vertices": [], "is_regular": True},
        {"vertices": sorted(doc["vertices"]), "is_regular": True},
    ]


def strongly_connected_report(doc: dict, generators: list[str], cycles_have_exits: bool) -> dict:
    """`analyze --json` for a strongly connected graph in which every vertex emits.

    The only hereditary saturated sets are the empty set and everything, so
    any generator closes to everything; both ideals are regular, each being
    the other's annihilator.
    """
    everything = sorted(doc["vertices"])
    if generators:
        ideal, perp, quotient, condition_l = everything, [], document([], []), True
    else:
        ideal, perp, quotient, condition_l = [], everything, doc, cycles_have_exits
    return {
        "ideal": ideal,
        "bar_closure": ideal,
        "perp_set": perp,
        "double_perp_set": ideal,
        "is_regular": True,
        "quotient": quotient,
        "quotient_condition_L": condition_l,
        "pc_bijection_holds": True,
    }


def _canonical_dag(n: int, pairs) -> tuple | None:
    """Least adjacency-count matrix over all relabelings, or None when there is a cycle."""
    adj = [[0] * n for _ in range(n)]
    for a, b in pairs:
        adj[a][b] += 1
    reach = [{b for b in range(n) if adj[a][b]} for a in range(n)]
    for _ in range(n):
        reach = [r.union(*(reach[b] for b in r)) for r in reach]
    if any(a in reach[a] for a in range(n)):
        return None
    return min(
        tuple(adj[perm[a]][perm[b]] for a in range(n) for b in range(n))
        for perm in itertools.permutations(range(n))
    )


@lru_cache(maxsize=None)
def oracle_family_sinks(max_vertices: int = 4, max_edges: int = 5) -> tuple[int, ...]:
    """Sink count of every loop-free acyclic multigraph within the bounds, up to isomorphism.

    This is the exhaustive family `verify` referees against its matrix
    oracle: one per-set trial per hereditary saturated set (2^sinks of
    them) and one lattice-count trial per graph.
    """
    sinks = []
    for n in range(max_vertices + 1):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        seen = set()
        for m in range(max_edges + 1):
            for combo in itertools.combinations_with_replacement(pairs, m):
                key = _canonical_dag(n, combo)
                if key is None or key in seen:
                    continue
                seen.add(key)
                emitters = {a for a, _b in combo}
                sinks.append(n - len(emitters))
    return tuple(sinks)


# -- output checkers ----------------------------------------------------------------------


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def check_json_equal(stdout: str, expected) -> None:
    got = _json(stdout)
    if got != expected:
        raise CheckError(f"JSON output differs from the closed form (got {str(got)[:200]})")


VERIFY_ROWS_PER_SET_ORACLE = ("perp-vertex-set", "double-perp-vertex-set", "regularity-verdict")
VERIFY_ROWS_PER_SET_CALCULUS = (
    "perp-always-regular",
    "exitless-cycle-bijection",
    "quotient-condition-l-forces-pc",
    "regular-quotient-condition-l-iff-pc",
    "condition-l-preserved",
)
VERIFY_ROWS = VERIFY_ROWS_PER_SET_ORACLE + VERIFY_ROWS_PER_SET_CALCULUS + (
    "perp-graded",
    "ideal-lattice-count",
    "maximal-ideal-dichotomy",
    "laurent-annihilator-zero",
)
VERIFY_TRIALS = 500  # the CLI default, which the workload keeps


def check_verify(stdout: str, seed: int) -> None:
    """`verify` with defaults: 12 clean rows whose trial counts follow from the oracle family."""
    lines = stdout.splitlines()
    header = (
        f"verification matrix  seed={seed} prime=2 max-vertices=5 max-edges=8 "
        f"trials={VERIFY_TRIALS}"
    )
    if len(lines) != len(VERIFY_ROWS) + 3 or lines[0] != header:
        raise CheckError(f"unexpected matrix shape or header: {lines[:1]}")
    if lines[-1] != "result: PASS":
        raise CheckError(f"last line is {lines[-1]!r}")
    rows = {}
    for line in lines[2:-1]:
        parts = line.split()
        if len(parts) != 4 or not all(p.isdigit() for p in parts[1:]):
            raise CheckError(f"malformed row: {line!r}")
        rows[parts[0]] = (int(parts[1]), int(parts[2]))
    if set(rows) != set(VERIFY_ROWS):
        raise CheckError(f"rows are {sorted(rows)}")
    if any(failures for _trials, failures in rows.values()):
        raise CheckError("a row reports failures")
    trials = {name: t for name, (t, _f) in rows.items()}
    family = oracle_family_sinks()
    per_set = sum(2**s for s in family)
    want = {name: per_set for name in VERIFY_ROWS_PER_SET_ORACLE}
    # perp-graded adds one random-ideal trial per --trials on top of the per-set ones
    want["perp-graded"] = per_set + VERIFY_TRIALS
    want["ideal-lattice-count"] = len(family)
    want["laurent-annihilator-zero"] = VERIFY_TRIALS
    for name, count in want.items():
        if trials[name] != count:
            raise CheckError(f"{name}: {trials[name]} trials, expected {count}")
    calculus = {trials[name] for name in VERIFY_ROWS_PER_SET_CALCULUS}
    if len(calculus) != 1 or not 0 < trials["maximal-ideal-dichotomy"] <= calculus.pop():
        raise CheckError("calculus rows disagree on the number of hereditary saturated sets")


ORACLE_SET_ROWS = ("perp-vertex-set", "double-perp-vertex-set", "regularity-verdict", "perp-graded")


def check_oracle(stdout: str, doc: dict, prime: int) -> None:
    """`oracle-check`: the dimension from path counts, 2^sinks checks per set row, all ok."""
    lines = stdout.splitlines()
    want_dim = oracle_dimension(doc)
    if not lines or lines[0] != f"oracle dimension: {want_dim} over GF({prime})":
        raise CheckError(f"first line {lines[:1]}, expected dimension {want_dim}")
    per_set = 2 ** len(paths_into_sinks(doc))
    want = {row: per_set for row in ORACLE_SET_ROWS}
    want["ideal-lattice-count"] = 1
    got = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 4 or parts[2] != "checks" or not parts[1].isdigit():
            raise CheckError(f"malformed row: {line!r}")
        if parts[3] != "ok":
            raise CheckError(f"row {parts[0]} is {parts[3]}")
        got[parts[0]] = int(parts[1])
    if got != want:
        raise CheckError(f"check counts {got}, expected {want}")


# -- the workloads ---------------------------------------------------------------------------


def _verify_ops(seed: int) -> list[Op]:
    return [Op("verify", ("verify", "--seed", str(seed)), None, lambda out: check_verify(out, seed))]


# Block profiles (paths into each sink) of the oracle-gf3 graphs: two graphs
# per profile, dimensions 82..122.  Cost follows the profile closely, so a new
# seed gives new graphs but a comparable load; two per profile make the round
# long enough (~30 s) to average out this machine's speed swings.
ORACLE_PROFILES = ((9, 1), (7, 7), (8, 5, 1), (10, 1), (11, 1))
ORACLE_GRAPHS_PER_PROFILE = 2
ORACLE_PRIME = 3

# Six pairwise non-isomorphic 6-vertex, 7-edge acyclic graphs per profile, as
# edges "ab" (a -> b), drawn once by rejection sampling from random graphs
# with every edge from an earlier to a later vertex of a random order.  The
# seed picks two per profile and relabels them.  Drawing anew for every seed
# took 0.15-0.35 s of set-up, depending on the seed; picking from these costs
# the same for every seed.  Within a profile, oracle-check times differ by
# about 15%.
ORACLE_POOL = {
    (9, 1): (
        "25 25 31 41 42 45 51", "24 25 31 31 41 51 51", "21 31 41 43 51 53 54",
        "24 25 31 32 35 41 51", "25 35 35 43 45 45 51", "25 34 35 35 41 45 51",
    ),
    (7, 7): (
        "25 34 40 41 50 51 54", "25 35 45 45 45 50 51", "25 34 40 41 50 51 53",
        "25 31 40 40 43 51 54", "25 35 43 43 45 50 51", "25 32 42 43 43 50 51",
    ),
    (8, 5, 1): (
        "32 35 41 42 51 51 54", "32 35 42 42 51 51 54", "35 42 51 51 52 52 52",
        "32 41 45 45 51 51 52", "35 42 51 51 54 54 54", "32 35 42 43 45 51 52",
    ),
    (10, 1): (
        "25 25 32 32 41 45 51", "25 31 41 41 45 51 53", "25 31 41 41 51 53 53",
        "25 25 25 32 34 41 51", "25 31 41 42 43 53 53", "24 25 31 41 51 51 53",
    ),
    (11, 1): (
        "25 35 41 41 43 51 51", "24 25 32 35 41 45 51", "25 34 35 35 41 51 54",
        "21 31 35 41 43 51 51", "25 32 32 41 41 51 51", "25 34 35 41 41 51 51",
    ),
}


def _oracle_ops(seed: int) -> list[Op]:
    rng = Random(f"oracle-gf3/{seed}")
    ops = []
    for profile in ORACLE_PROFILES:
        chosen = rng.sample(ORACLE_POOL[profile], ORACLE_GRAPHS_PER_PROFILE)
        for k, edges in enumerate(chosen, 1):
            names = _labels(rng, "v", 6)
            doc = _shuffled_doc(rng, names, [(names[int(a)], names[int(b)]) for a, b in edges.split()], "e")
            ops.append(
                Op(
                    f"oracle-check dim={sum(n * n for n in profile)} sinks={len(profile)} #{k}",
                    ("oracle-check", "--graph", "{graph}", "--prime", str(ORACLE_PRIME)),
                    doc,
                    lambda out, doc=doc: check_oracle(out, doc, ORACLE_PRIME),
                )
            )
    return ops


def _json_check(expected: Callable[[], object]) -> Callable[[str], None]:
    """Compare with an answer worked out when checking, so set-up does not pay for it
    and the answer is not kept alive while later operations are timed."""
    return lambda out: check_json_equal(out, expected())


def _analyze_op(
    name: str, doc: dict, generators: list[str], cycles_have_exits: bool, expect_error: str | None = None
) -> Op:
    return Op(
        name,
        ("analyze", "--graph", "{graph}", "--generators", ",".join(generators), "--json"),
        doc,
        _json_check(lambda: strongly_connected_report(doc, generators, cycles_have_exits)),
        "analyze",
        expect_error,
    )


# Longer than the default recursion limit: Graph._cycle_dfs recurses once per
# path edge and raises RecursionError.  The input does not depend on the seed,
# so this operation fails in every round of every run.  Once it stops failing,
# its output is checked against the ring's closed form like the others.
LONG_RING = 1200


def _analyze_ops(seed: int) -> list[Op]:
    rng = Random(f"calculus-families/analyze/{seed}")
    ops = []
    for n in (6, 7, 8):
        doc = complete_with_loops(rng, n)
        ops.append(_analyze_op(f"analyze K{n} {{}}", doc, [], True))
        ops.append(_analyze_op(f"analyze K{n} {{v}}", doc, [rng.choice(doc["vertices"])], True))
    for n in (150, 175, 200):
        doc = ring(rng, n)
        ops.append(_analyze_op(f"analyze ring{n} {{}}", doc, [], False))
        ops.append(_analyze_op(f"analyze ring{n} {{v}}", doc, [rng.choice(doc["vertices"])], False))
    ops.append(
        _analyze_op(f"analyze ring{LONG_RING} {{}}", ring(Random(0), LONG_RING), [], False, "RecursionError")
    )
    return ops


def _lattice_op(name: str, part: str, doc: dict, expected: Callable[[dict], list[dict]]) -> Op:
    return Op(name, ("lattice", "--graph", "{graph}", "--json"), doc, _json_check(lambda: expected(doc)), part)


def _wide_ops(seed: int) -> list[Op]:
    rng = Random(f"calculus-families/wide/{seed}")
    ops = []
    for n in (14, 15, 16):
        doc = edgeless(rng, n)
        ops.append(_lattice_op(f"lattice edgeless{n}", "lattice_wide", doc, acyclic_lattice))
    return ops


def _deep_ops(seed: int) -> list[Op]:
    rng = Random(f"calculus-families/deep/{seed}")
    doc_chain, doc_ring, doc_comb = chain(rng, 20), ring(rng, 20), comb(rng, 10)
    return [
        _lattice_op("lattice chain20", "lattice_deep", doc_chain, acyclic_lattice),
        _lattice_op("lattice ring20", "lattice_deep", doc_ring, strongly_connected_lattice),
        _lattice_op("lattice comb20", "lattice_deep", doc_comb, acyclic_lattice),
    ]


def _calculus_ops(seed: int) -> list[Op]:
    """The named graph families, no oracle: analyze, then wide and deep lattices.

    Their times are reported apart as the parts analyze, lattice_wide and
    lattice_deep: many short cycles against one long cycle, and many sets
    against few sets found by the same 2^20 scan.
    """
    return _analyze_ops(seed) + _wide_ops(seed) + _deep_ops(seed)


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "verify-gf2": _verify_ops,
    "oracle-gf3": _oracle_ops,
    "calculus-families": _calculus_ops,
}
