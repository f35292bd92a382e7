import pytest
from hypothesis import given, settings

from leavitt import Graph, UnknownVertexError

from .strategies import graphs, ring

# Loops and parallel edges included; small enough for the exponential referee.
referee_graphs = graphs(max_vertices=6, max_edges=10)


def names(cycle):
    return tuple(e.name for e in cycle)


def has_exit(g, cycle):
    """Referee: some vertex on the cycle emits an edge that is not on the cycle."""
    on_cycle = {e.src for e in cycle}
    return any(e.src in on_cycle and e not in cycle for e in g.edges)


def test_regular_vertices(loop_with_exit, edgeless_ab, path_abc):
    assert loop_with_exit.regular_vertices() == {"u"}
    assert edgeless_ab.regular_vertices() == frozenset()
    assert path_abc.regular_vertices() == {"a", "b"}


def test_sinks(loop_with_exit, path_abc):
    assert loop_with_exit.sinks() == {"v"}
    assert path_abc.sinks() == {"c"}


def test_tree(loop_with_exit, path_abc):
    assert loop_with_exit.tree("u") == {"u", "v"}
    assert loop_with_exit.tree("v") == {"v"}
    assert path_abc.tree("b") == {"b", "c"}


def test_tree_unknown_vertex(path_abc):
    with pytest.raises(UnknownVertexError):
        path_abc.tree("nope")


def test_backward_reach(loop_with_exit):
    assert loop_with_exit.backward_reach({"v"}) == {"u", "v"}
    assert loop_with_exit.backward_reach(()) == frozenset()
    isolated = Graph(("a", "b"), ())
    assert isolated.backward_reach({"a"}) == {"a"}


def test_cycles(loop_with_exit, path_abc, two_cycle):
    assert [names(c) for c in loop_with_exit.cycles()] == [("f",)]
    assert path_abc.cycles() == ()
    cycles = two_cycle.cycles()
    assert len(cycles) == 1
    assert names(cycles[0]) == ("e1", "e2")


def test_cycle_reported_once_per_rotation_class(two_cycle):
    # the same cycle is reachable from both base vertices but reported once
    assert len(two_cycle.cycles()) == 1


def test_cycle_has_exit(loop_with_exit, single_loop):
    (cyc,) = loop_with_exit.cycles()
    assert has_exit(loop_with_exit, cyc)
    (lonely,) = single_loop.cycles()
    assert not has_exit(single_loop, lonely)


def test_condition_l(loop_with_exit, single_loop, path_abc):
    assert loop_with_exit.condition_l()
    assert not single_loop.condition_l()
    assert path_abc.condition_l()


def test_exit_free_cycle_vertices(loop_with_exit, single_loop):
    assert loop_with_exit.exit_free_cycle_vertices() == frozenset()
    assert single_loop.exit_free_cycle_vertices() == {"w"}
    mixed = Graph(
        ("a", "b", "c"),
        (("e1", "a", "b"), ("e2", "b", "a")),
    )
    assert mixed.exit_free_cycle_vertices() == {"a", "b"}


def test_is_acyclic(loop_with_exit, path_abc):
    assert path_abc.is_acyclic()
    assert not loop_with_exit.is_acyclic()
    assert Graph(("a", "b"), ()).is_acyclic()


def test_parallel_loops_have_exits():
    g = Graph(("w",), (("l1", "w", "w"), ("l2", "w", "w")))
    assert len(g.cycles()) == 2
    assert g.condition_l()


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        Graph(("a", "a"), ())
    with pytest.raises(ValueError):
        Graph(("a", "b"), (("e", "a", "b"), ("e", "b", "a")))


def test_edge_endpoint_must_exist():
    with pytest.raises(ValueError):
        Graph(("a",), (("e", "a", "b"),))


def test_vertex_subset_validates(path_abc):
    assert path_abc.vertex_subset(["a", "a", "b"]) == {"a", "b"}
    with pytest.raises(UnknownVertexError):
        path_abc.vertex_subset(["a", "zz"])
    # the least unknown id, whatever the frozenset iteration order
    with pytest.raises(UnknownVertexError, match=r"^unknown vertex: 'xz'$"):
        path_abc.vertex_subset(["zz", "a", "yy", "xz"])


def test_without_edge_and_vertex(loop_with_exit):
    g = loop_with_exit.without_edge("f")
    assert [e.name for e in g.edges] == ["g"]
    g2 = loop_with_exit.without_vertex("v")
    assert g2.vertices == ("u",)
    assert [e.name for e in g2.edges] == ["f"]


def test_without_edge_refuses_an_unknown_name(loop_with_exit):
    with pytest.raises(ValueError, match=r"^unknown edge: 'zz'$"):
        loop_with_exit.without_edge("zz")
    with pytest.raises(ValueError, match=r"^unknown edge: 'f'$"):
        Graph(("u",)).without_edge("f")


@given(graphs())
def test_tree_contains_vertex_and_is_transitive(g):
    for v in g.vertices:
        t = g.tree(v)
        assert v in t
        for w in t:
            assert g.tree(w) <= t


@given(graphs())
def test_backward_reach_superset_and_idempotent(g):
    for v in g.vertices:
        reach = g.backward_reach({v})
        assert v in reach
        assert g.backward_reach(reach) == reach


@given(graphs())
def test_backward_reach_complement_is_hereditary(g):
    for v in g.vertices:
        complement = frozenset(g.vertices) - g.backward_reach({v})
        # hereditary by definition: every edge from a member lands inside
        assert all(e.dst in complement for e in g.edges if e.src in complement)


@given(graphs())
def test_condition_l_iff_no_exit_free_vertices(g):
    assert g.condition_l() == (g.exit_free_cycle_vertices() == frozenset())


@settings(max_examples=300)
@given(referee_graphs)
def test_is_acyclic_matches_cycle_enumeration(g):
    assert g.is_acyclic() == (len(g.cycles()) == 0)


@settings(max_examples=300)
@given(referee_graphs)
def test_exit_free_cycle_vertices_match_cycle_enumeration(g):
    want = {e.src for c in g.cycles() if not has_exit(g, c) for e in c}
    assert g.exit_free_cycle_vertices() == want


@given(referee_graphs)
def test_cycles_are_closed_simple_and_listed_once_as_least_rotations(g):
    cycles = g.cycles()
    assert sorted(cycles, key=lambda c: (len(c), names(c))) == list(cycles)
    classes = set()
    for c in cycles:
        assert all(e in g.edges for e in c)
        assert all(a.dst == b.src for a, b in zip(c, c[1:] + c[:1]))  # consecutive, closed
        assert len({e.src for e in c}) == len(c)
        rotations = [c[i:] + c[:i] for i in range(len(c))]
        assert names(c) == min(names(r) for r in rotations)
        classes.add(frozenset(e.name for e in c))
    assert len(classes) == len(cycles)  # each rotation class once


def test_cycle_layer_on_long_ring_does_not_recurse():
    g = ring(10**5)
    assert not g.condition_l()
    assert g.exit_free_cycle_vertices() == frozenset(g.vertices)
    assert not g.is_acyclic()


@given(graphs(acyclic=True))
def test_acyclic_strategy_yields_acyclic(g):
    assert g.is_acyclic()
    assert g.condition_l()
