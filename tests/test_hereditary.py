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
    is_regular,
    lattice_with_regularity,
)

from .strategies import graphs, graphs_with_named_vertices, graphs_with_subset, ring


def targets(g, v):
    """The targets of the edges that ``v`` emits."""
    return {e.dst for e in g.edges if e.src == v}


def naive_hs_closure(g, subset):
    """Referee: alternate absorbing out-neighbours with adding every emitter
    whose edges all land inside, until neither adds anything."""
    closed = set(subset)
    while True:
        grown = closed | {e.dst for e in g.edges if e.src in closed}
        grown |= {v for v in g.vertices if targets(g, v) and targets(g, v) <= grown}
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


def hereditary_by_definition(g, subset):
    """Referee: every edge from a member lands inside."""
    return all(e.dst in subset for e in g.edges if e.src in subset)


def saturated_by_definition(g, subset):
    """Referee: every emitter whose edges all land inside is a member."""
    return all(v in subset for v in g.vertices if targets(g, v) and targets(g, v) <= subset)


def rejection(g, subset):
    """The constructor's error message for the set, or None if it accepts it."""
    try:
        HereditarySaturatedSet(g, frozenset(subset))
    except ValueError as exc:
        return str(exc)
    return None


def test_is_hereditary(loop_with_exit):
    assert hereditary_by_definition(loop_with_exit, {"v"})
    assert not hereditary_by_definition(loop_with_exit, {"u"})
    assert hereditary_by_definition(loop_with_exit, set())
    assert hereditary_by_definition(loop_with_exit, {"u", "v"})
    # {u} is saturated, so the constructor refuses it for its hereditary half
    assert rejection(loop_with_exit, {"u"}) == "['u'] is not hereditary: an edge of 'u' leaves it"
    for accepted in ({"v"}, set(), {"u", "v"}):
        assert rejection(loop_with_exit, accepted) is None


def test_is_saturated(loop_with_exit, path_abc):
    assert saturated_by_definition(loop_with_exit, {"v"})
    # b is forced in by c, and then a by b
    assert not saturated_by_definition(path_abc, {"b", "c"})
    assert saturated_by_definition(path_abc, {"a", "b", "c"})
    assert saturated_by_definition(path_abc, set())
    # {b, c} is hereditary, so the constructor refuses it for its saturated half
    assert rejection(path_abc, {"b", "c"}) == (
        "['b', 'c'] is not saturated: every edge of 'a' lands in it"
    )
    assert rejection(loop_with_exit, {"v"}) is None
    assert rejection(path_abc, {"a", "b", "c"}) is None
    assert rejection(path_abc, set()) is None


def test_sinks_are_never_forced():
    g = Graph(("a", "b"), (("e", "a", "b"),))
    # b is a sink, so {} stays saturated even though b has no out-neighbours
    assert saturated_by_definition(g, set())
    assert rejection(g, set()) is None


def test_constructor_names_the_first_vertex_that_breaks_the_rule():
    # {a, d} fails both halves: a's edge leaves it, and c's only edge lands in it
    g = Graph(("a", "b", "c", "d"), (("e", "a", "b"), ("f", "c", "d")))
    assert not hereditary_by_definition(g, {"a", "d"})
    assert not saturated_by_definition(g, {"a", "d"})
    assert rejection(g, {"a", "d"}) == "['a', 'd'] is not hereditary: an edge of 'a' leaves it"
    # with c listed first, the saturated half is the one met first
    reordered = Graph(("c", "d", "a", "b"), g.edges)
    assert rejection(reordered, {"a", "d"}) == (
        "['a', 'd'] is not saturated: every edge of 'c' lands in it"
    )


def test_constructor_passes_over_sinks_before_the_emitter_it_names():
    # s (outside) and t (inside) are sinks listed before the emitter a, whose
    # only edge lands in {t}: all of a sink's (no) edges land inside any set,
    # so a check that walked the sinks too would name s instead of a
    g = Graph(("s", "t", "a"), (("e", "a", "t"),))
    assert rejection(g, {"t"}) == "['t'] is not saturated: every edge of 'a' lands in it"
    assert rejection(g, {"a"}) == "['a'] is not hereditary: an edge of 'a' leaves it"
    assert rejection(g, {"s"}) is None


# Loops and parallel edges included; every subset of every graph is tried.
@settings(max_examples=200)
@given(graphs(max_vertices=6, max_edges=10))
def test_constructor_accepts_exactly_the_sets_both_definitions_accept(g):
    order = sorted(g.vertices)
    for mask in range(1 << len(order)):
        subset = frozenset(v for i, v in enumerate(order) if mask >> i & 1)
        failing = set()
        if not hereditary_by_definition(g, subset):
            failing.add("hereditary")
        if not saturated_by_definition(g, subset):
            failing.add("saturated")
        message = rejection(g, subset)
        if not failing:
            assert message is None
        else:
            named = {half for half in ("hereditary", "saturated") if f"not {half}:" in message}
            assert len(named) == 1 and named <= failing, (message, failing)


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
    flagged = list(lattice_with_regularity(g))
    assert [h.vertices for h in enumerate_hs_sets(g)] == naive_enumerate_hs_sets(g)
    assert [h.vertices for h, _ in flagged] == naive_enumerate_hs_sets(g)
    assert [reg for _, reg in flagged] == [is_regular(h) for h, _ in flagged]


# 9 to 12 vertices: the lattice pass reads its masks in 8-bit chunks, so
# these graphs cross a chunk boundary, which the case above never does.
@settings(max_examples=40)
@given(graphs(min_vertices=9, max_vertices=12, max_edges=16))
def test_enumeration_across_a_chunk_boundary(g):
    flagged = list(lattice_with_regularity(g))
    assert [h.vertices for h, _ in flagged] == naive_enumerate_hs_sets(g)
    assert [reg for _, reg in flagged] == [is_regular(h) for h, _ in flagged]


def assert_listed_in_sorted_order(flagged):
    """Referee for the order that a listed set's sorted_vertices() hands back,
    which the pass formed through its per-chunk name tables."""
    for h, _ in flagged:
        assert h.sorted_vertices() == tuple(sorted(h.vertices))


# On both sides of the 8- and 16-bit chunk boundaries of the lattice pass.
@pytest.mark.parametrize("n", [8, 9, 16, 17])
def test_lattice_of_a_wide_edgeless_graph(n):
    # every subset is hereditary saturated and regular (its own double
    # annihilator); sorted by size, then by names, one to three chunks deep
    names = tuple(f"v{i:02d}" for i in range(n))
    flagged = list(lattice_with_regularity(Graph(names, ())))
    assert_listed_in_sorted_order(flagged)
    expected = [s for k in range(n + 1) for s in itertools.combinations(names, k)]
    assert len(expected) == 2**n
    assert [h.sorted_vertices() for h, _ in flagged] == expected
    assert all(reg for _, reg in flagged)


@settings(max_examples=50)
@given(graphs_with_named_vertices())
def test_a_listed_set_of_escaped_names_keeps_a_sorted_order(g):
    assert_listed_in_sorted_order(lattice_with_regularity(g))


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
    # the listing is lazy: the refusal comes at its first step, before any set
    listing = lattice_with_regularity(big)
    with pytest.raises(LatticeTooLargeError):
        next(listing)


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
            assert hereditary_by_definition(g, meet)
            assert saturated_by_definition(g, meet)
            assert HereditarySaturatedSet(g, meet).vertices == meet


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
