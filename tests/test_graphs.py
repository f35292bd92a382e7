import pytest
from hypothesis import given, settings

from leavitt import Cycle, Edge, Graph, UnknownVertexError, is_hereditary

from .strategies import graphs, ring

# Loops and parallel edges included; small enough for the exponential referee.
referee_graphs = graphs(max_vertices=6, max_edges=10)


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
    assert [c.edge_names() for c in loop_with_exit.cycles()] == [("f",)]
    assert path_abc.cycles() == ()
    cycles = two_cycle.cycles()
    assert len(cycles) == 1
    assert cycles[0].length == 2
    assert cycles[0].edge_names() == ("e1", "e2")


def test_cycle_reported_once_per_rotation_class(two_cycle):
    # the same cycle is reachable from both base vertices but reported once
    assert len(two_cycle.cycles()) == 1


def test_cycle_has_exit(loop_with_exit, single_loop):
    (cyc,) = loop_with_exit.cycles()
    assert loop_with_exit.cycle_has_exit(cyc)
    (lonely,) = single_loop.cycles()
    assert not single_loop.cycle_has_exit(lonely)


def test_cycle_from_other_graph_rejected(loop_with_exit, single_loop):
    (lonely,) = single_loop.cycles()
    with pytest.raises(ValueError):
        loop_with_exit.cycle_has_exit(lonely)


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


def test_cycle_validation():
    loop = Edge("f", "u", "u")
    assert Cycle((loop,)).vertex_set() == {"u"}
    with pytest.raises(ValueError):
        Cycle((Edge("e1", "a", "b"),))
    with pytest.raises(ValueError):
        # closed but revisits a source
        Cycle(
            (
                Edge("e1", "a", "b"),
                Edge("e2", "b", "a"),
                Edge("e3", "a", "b"),
                Edge("e4", "b", "a"),
            )
        )


def test_without_edge_and_vertex(loop_with_exit):
    g = loop_with_exit.without_edge("f")
    assert [e.name for e in g.edges] == ["g"]
    g2 = loop_with_exit.without_vertex("v")
    assert g2.vertices == ("u",)
    assert [e.name for e in g2.edges] == ["f"]


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
        assert is_hereditary(g, complement)


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
    want = frozenset().union(*(c.vertex_set() for c in g.cycles() if not g.cycle_has_exit(c)))
    assert g.exit_free_cycle_vertices() == want


def test_cycle_layer_on_long_ring_does_not_recurse():
    g = ring(10**5)
    assert not g.condition_l()
    assert g.exit_free_cycle_vertices() == frozenset(g.vertices)
    assert not g.is_acyclic()


@given(graphs(acyclic=True))
def test_acyclic_strategy_yields_acyclic(g):
    assert g.is_acyclic()
    assert g.condition_l()
