import itertools

import pytest
from hypothesis import given, settings

from leavitt import (
    ENUMERATION_CUTOFF,
    Graph,
    HereditarySaturatedSet,
    LatticeTooLargeError,
    enumerate_hs_sets,
    hs_closure,
    is_hereditary,
    is_regular,
    is_saturated,
    lattice_with_regularity,
)

from .strategies import graphs, graphs_with_subset, ring


def naive_hs_closure(g, subset):
    """Referee: alternate absorbing out-neighbours with adding every emitter
    whose edges all land inside, until neither adds anything."""
    closed = set(subset)
    while True:
        grown = closed | {e.dst for e in g.edges if e.src in closed}
        grown |= {
            v for v in g.vertices if g.out_edges(v) and all(e.dst in grown for e in g.out_edges(v))
        }
        if grown == closed:
            return frozenset(closed)
        closed = grown


def naive_enumerate_hs_sets(g):
    """Referee: scan all 2^n subsets as bitmasks (bit i is the i-th vertex);
    an emitter must be inside exactly when all its edges land inside."""
    n = len(g.vertices)
    index = {v: i for i, v in enumerate(g.vertices)}
    out = [0] * n
    for e in g.edges:
        out[index[e.src]] |= 1 << index[e.dst]
    emitters = [i for i in range(n) if out[i]]
    hits = [
        frozenset(v for v, i in index.items() if (mask >> i) & 1)
        for mask in range(1 << n)
        if all((mask >> i) & 1 == (not out[i] & ~mask) for i in emitters)
    ]
    return sorted(hits, key=lambda h: (len(h), sorted(h)))


def test_is_hereditary(loop_with_exit):
    assert is_hereditary(loop_with_exit, {"v"})
    assert not is_hereditary(loop_with_exit, {"u"})
    assert is_hereditary(loop_with_exit, ())
    assert is_hereditary(loop_with_exit, {"u", "v"})


def test_is_saturated(loop_with_exit, path_abc):
    assert is_saturated(loop_with_exit, {"v"})
    # b is forced in by c, and then a by b
    assert not is_saturated(path_abc, {"b", "c"})
    assert is_saturated(path_abc, {"a", "b", "c"})
    assert is_saturated(path_abc, ())


def test_sinks_are_never_forced():
    g = Graph(("a", "b"), (("e", "a", "b"),))
    # b is a sink, so {} stays saturated even though b has no out-neighbours
    assert is_saturated(g, ())


def test_hs_closure(path_abc, loop_with_exit):
    assert hs_closure(path_abc, {"b"}).vertices == {"a", "b", "c"}
    assert hs_closure(path_abc, ()).vertices == frozenset()
    assert hs_closure(loop_with_exit, {"v"}).vertices == {"v"}


def test_constructor_rejects_bad_sets(loop_with_exit, path_abc):
    with pytest.raises(ValueError):
        HereditarySaturatedSet(loop_with_exit, frozenset({"u"}))
    with pytest.raises(ValueError):
        HereditarySaturatedSet(path_abc, frozenset({"b", "c"}))


def test_enumerate_hs_sets(loop_with_exit, edgeless_ab):
    assert [h.sorted_vertices() for h in enumerate_hs_sets(loop_with_exit)] == [
        (),
        ("v",),
        ("u", "v"),
    ]
    assert [h.sorted_vertices() for h in enumerate_hs_sets(edgeless_ab)] == [
        (),
        ("a",),
        ("b",),
        ("a", "b"),
    ]


def test_enumerate_single_edge_graph():
    # {b} alone is not saturated: a's only out-neighbour is b, forcing a in
    g = Graph(("a", "b"), (("e", "a", "b"),))
    assert [h.sorted_vertices() for h in enumerate_hs_sets(g)] == [(), ("a", "b")]


def test_enumerate_empty_graph():
    assert [h.sorted_vertices() for h in enumerate_hs_sets(Graph((), ()))] == [()]


def lattice_listing(g):
    return [(h.sorted_vertices(), regular) for h, regular in lattice_with_regularity(g)]


# Loops and parallel edges included, so that loops, cycles and forced-in
# emitters meet in one graph.
@settings(max_examples=300)
@given(graphs(max_vertices=8, max_edges=14))
def test_enumeration_matches_subset_scan_and_regularity(g):
    flagged = lattice_with_regularity(g)
    assert [h.vertices for h in enumerate_hs_sets(g)] == naive_enumerate_hs_sets(g)
    assert [h.vertices for h, _ in flagged] == naive_enumerate_hs_sets(g)
    assert [reg for _, reg in flagged] == [is_regular(h) for h, _ in flagged]


# 9 to 12 vertices: the lattice pass reads its masks in 8-bit chunks, so
# these graphs cross a chunk boundary, which the case above never does.
@settings(max_examples=40)
@given(graphs(min_vertices=9, max_vertices=12, max_edges=16))
def test_enumeration_across_a_chunk_boundary(g):
    flagged = lattice_with_regularity(g)
    assert [h.vertices for h, _ in flagged] == naive_enumerate_hs_sets(g)
    assert [reg for _, reg in flagged] == [is_regular(h) for h, _ in flagged]


@pytest.mark.parametrize("n", [16, 17])
def test_lattice_of_a_wide_edgeless_graph(n):
    # every subset is hereditary saturated and regular (its own double
    # annihilator); sorted by size, then by names, two and three chunks deep
    names = tuple(f"v{i:02d}" for i in range(n))
    flagged = lattice_with_regularity(Graph(names, ()))
    expected = [s for k in range(n + 1) for s in itertools.combinations(names, k)]
    assert len(expected) == 2**n
    assert [h.sorted_vertices() for h, _ in flagged] == expected
    assert all(reg for _, reg in flagged)


def test_lattice_of_a_long_chain():
    # one sink: the sink decides everything, and both sets are regular
    n = 20
    g = Graph(
        tuple(f"v{i:02d}" for i in range(n)),
        tuple((f"e{i}", f"v{i:02d}", f"v{i + 1:02d}") for i in range(n - 1)),
    )
    assert lattice_listing(g) == [((), True), (tuple(sorted(g.vertices)), True)]


def test_lattice_of_a_long_ring():
    g = ring(20)
    assert lattice_listing(g) == [((), True), (tuple(sorted(g.vertices)), True)]


def test_lattice_of_a_comb():
    # spine s0 -> ... -> s9 with a sink tooth ti at each si: one set per set S
    # of teeth, holding S and every si whose teeth ti, ..., t9 all lie in S
    teeth = 10
    spine = [f"s{i}" for i in range(teeth)]
    tips = [f"t{i}" for i in range(teeth)]
    g = Graph(
        tuple(spine + tips),
        tuple((f"a{i}", spine[i], spine[i + 1]) for i in range(teeth - 1))
        + tuple((f"b{i}", spine[i], tips[i]) for i in range(teeth)),
    )
    expected = []
    for mask in range(1 << teeth):
        chosen = {i for i in range(teeth) if (mask >> i) & 1}
        members = {tips[i] for i in chosen}
        members |= {spine[i] for i in range(teeth) if set(range(i, teeth)) <= chosen}
        expected.append(frozenset(members))
    expected.sort(key=lambda h: (len(h), sorted(h)))
    assert lattice_listing(g) == [(tuple(sorted(h)), True) for h in expected]


def test_lattice_of_two_cycles_joined_by_one_edge():
    # {c, d} is closed but not regular: every vertex has a path into it
    g = Graph(
        ("a", "b", "c", "d"),
        (("ab", "a", "b"), ("ba", "b", "a"), ("bc", "b", "c"), ("cd", "c", "d"), ("dc", "d", "c")),
    )
    assert lattice_listing(g) == [
        ((), True),
        (("c", "d"), False),
        (("a", "b", "c", "d"), True),
    ]


def test_lattice_of_a_loop_vertex_whose_only_edge_is_the_loop(single_loop):
    # the loop keeps w free: it is never forced in, unlike a loopless emitter
    assert lattice_listing(single_loop) == [((), True), (("w",), True)]
    g = Graph(("x", "w"), (("l", "w", "w"), ("e", "x", "w")))
    assert lattice_listing(g) == [((), True), (("w", "x"), True)]


def test_lattice_of_the_empty_graph():
    assert lattice_listing(Graph((), ())) == [((), True)]


def test_enumeration_cutoff():
    big = Graph(tuple(f"v{i}" for i in range(ENUMERATION_CUTOFF + 1)), ())
    with pytest.raises(LatticeTooLargeError):
        enumerate_hs_sets(big)


@given(graphs_with_subset())
def test_closure_is_extensive_and_idempotent(case):
    g, subset = case
    closed = hs_closure(g, subset)
    assert subset <= closed.vertices
    assert hs_closure(g, closed.vertices).vertices == closed.vertices


@given(graphs_with_subset())
def test_closure_is_monotone(case):
    g, subset = case
    for v in sorted(subset):
        smaller = subset - {v}
        assert hs_closure(g, smaller).vertices <= hs_closure(g, subset).vertices


@given(graphs())
def test_enumeration_is_exactly_the_closure_fixed_points(g):
    enumerated = {h.vertices for h in enumerate_hs_sets(g)}
    n = len(g.vertices)
    order = sorted(g.vertices)
    fixed = set()
    for mask in range(1 << n):
        subset = frozenset(order[i] for i in range(n) if (mask >> i) & 1)
        if hs_closure(g, subset).vertices == subset:
            fixed.add(subset)
    assert enumerated == fixed


@given(graphs())
def test_enumeration_contains_empty_and_everything(g):
    enumerated = {h.vertices for h in enumerate_hs_sets(g)}
    assert frozenset() in enumerated
    assert frozenset(g.vertices) in enumerated


@given(graphs())
def test_intersections_stay_hereditary_saturated(g):
    sets = enumerate_hs_sets(g)
    for a in sets:
        for b in sets:
            meet = a.vertices & b.vertices
            assert is_hereditary(g, meet)
            assert is_saturated(g, meet)


# Loops and parallel edges included: a closure that counted distinct
# out-neighbours instead of edges would let a vertex with parallel edges in
# too early.  Every single-vertex generator is tried, since one random
# subset per graph rarely hits such a vertex.
@settings(max_examples=300)
@given(graphs(max_vertices=6, max_edges=10))
def test_closure_matches_naive_fixed_point(g):
    for subset in [()] + [(v,) for v in g.vertices]:
        assert hs_closure(g, subset).vertices == naive_hs_closure(g, subset)


def test_closure_counts_parallel_edges():
    # u has two edges into v and one into the sink w: v joining leaves u out
    g = Graph(
        ("x", "v", "u", "w"),
        (("a", "v", "x"), ("b", "u", "v"), ("c", "u", "v"), ("d", "u", "w")),
    )
    assert hs_closure(g, {"x"}).vertices == {"x", "v"}


def test_closure_of_one_ring_vertex_is_the_ring():
    g = ring(10**4)
    assert hs_closure(g, ["v0"]).vertices == frozenset(g.vertices)


def test_closure_of_a_long_chain_sink_is_the_chain():
    # every vertex joins by saturation, one after the other, from the sink back
    n = 10**4
    g = Graph(
        tuple(f"v{i}" for i in range(n)),
        tuple((f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)),
    )
    assert hs_closure(g, [f"v{n - 1}"]).vertices == frozenset(g.vertices)
