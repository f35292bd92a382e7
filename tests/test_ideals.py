from random import Random

import pytest
from hypothesis import given

from leavitt import (
    CLASS_BOTH,
    CLASS_PERP_ZERO,
    CLASS_REGULAR,
    Graph,
    GraphMismatchError,
    HereditarySaturatedSet,
    analyze,
    bar_closure,
    double_perp,
    enumerate_hs_sets,
    hs_closure,
    ideals,
    is_regular,
    maximal_graded_ideals,
    pc_bijection_check,
    perp,
    quotient_graph,
)
from leavitt.verify import random_graph

from .strategies import graphs, graphs_with_subset


def isolated_pair():
    return Graph(("a", "b"), ())


def test_ideal_from_generators(loop_with_exit, path_abc):
    assert hs_closure(loop_with_exit, {"v"}).vertices == {"v"}
    assert hs_closure(loop_with_exit, ()).vertices == frozenset()
    # saturation pulls b (only out-neighbour c) and then a into the ideal of {c}
    assert hs_closure(path_abc, {"c"}).vertices == {"a", "b", "c"}


def test_bar_closure(loop_with_exit):
    j = hs_closure(loop_with_exit, {"v"})
    assert bar_closure(j) == {"u", "v"}
    assert bar_closure(hs_closure(loop_with_exit, ())) == frozenset()
    j2 = hs_closure(isolated_pair(), {"a"})
    assert bar_closure(j2) == {"a"}


def test_perp(loop_with_exit):
    j = hs_closure(loop_with_exit, {"v"})
    assert perp(j).vertices == frozenset()
    zero = hs_closure(loop_with_exit, ())
    assert perp(zero).vertices == {"u", "v"}
    j2 = hs_closure(isolated_pair(), {"a"})
    assert perp(j2).vertices == {"b"}


def test_double_perp(loop_with_exit):
    j = hs_closure(loop_with_exit, {"v"})
    assert double_perp(j).vertices == {"u", "v"}
    everything = hs_closure(loop_with_exit, {"u", "v"})
    assert double_perp(everything).vertices == {"u", "v"}
    j2 = hs_closure(isolated_pair(), {"a"})
    assert double_perp(j2).vertices == {"a"}


def test_is_regular(loop_with_exit):
    assert not is_regular(hs_closure(loop_with_exit, {"v"}))
    assert is_regular(hs_closure(loop_with_exit, ()))
    assert is_regular(hs_closure(isolated_pair(), {"a"}))


def test_quotient_graph(loop_with_exit, path_abc):
    j = hs_closure(loop_with_exit, {"v"})
    q = quotient_graph(loop_with_exit, j)
    assert q.vertices == ("u",)
    assert [e.name for e in q.edges] == ["f"]
    assert not q.condition_l()

    zero = hs_closure(loop_with_exit, ())
    assert quotient_graph(loop_with_exit, zero) == loop_with_exit

    full = hs_closure(path_abc, {"a", "b", "c"})
    q2 = quotient_graph(path_abc, full)
    assert q2.vertices == () and q2.edges == ()


def test_pc_bijection_check(loop_with_exit, path_abc):
    j = hs_closure(loop_with_exit, {"v"})
    assert not pc_bijection_check(loop_with_exit, j)
    for h in enumerate_hs_sets(path_abc):
        assert pc_bijection_check(path_abc, h)


def test_analyze_loop_with_exit(loop_with_exit):
    report = analyze(loop_with_exit, {"v"})
    assert report.ideal.vertices == {"v"}
    assert report.bar_closure == {"u", "v"}
    assert report.perp_set == frozenset()
    assert report.double_perp_set == {"u", "v"}
    assert report.is_regular is False
    assert report.quotient.vertices == ("u",)
    assert report.quotient_condition_l is False
    assert report.pc_bijection_holds is False
    # report invariants: perp and backward closure partition the vertices
    assert report.perp_set & report.bar_closure == frozenset()
    assert report.perp_set | report.bar_closure == frozenset(loop_with_exit.vertices)


def test_analyze_reports_the_verdict_of_is_regular(monkeypatch, loop_with_exit):
    # the report has no regularity test of its own, so a broken one shows in it
    monkeypatch.setattr(ideals, "is_regular", lambda h: True)
    assert analyze(loop_with_exit, {"v"}).is_regular is True


def test_analyze_zero_ideal(loop_with_exit):
    report = analyze(loop_with_exit, ())
    assert report.ideal.vertices == frozenset()
    assert report.is_regular is True
    assert report.quotient == loop_with_exit


def test_analyze_is_deterministic(loop_with_exit):
    a = analyze(loop_with_exit, {"v"})
    b = analyze(loop_with_exit, {"v"})
    assert a == b
    assert a.to_json_dict() == b.to_json_dict()


def test_analyze_empty_graph():
    report = analyze(Graph((), ()), ())
    assert report.is_regular is True
    assert report.quotient.vertices == ()
    assert report.pc_bijection_holds is True


def test_report_json_keys(loop_with_exit):
    doc = analyze(loop_with_exit, {"v"}).to_json_dict()
    assert doc["is_regular"] is False
    assert doc["quotient_condition_L"] is False
    assert doc["ideal"] == ["v"]
    assert doc["perp_set"] == []
    assert doc["quotient"]["vertices"] == ["u"]


def test_maximal_graded_ideals(loop_with_exit, edgeless_ab, single_loop):
    def labelled(g):
        maximal = maximal_graded_ideals(enumerate_hs_sets(g))
        return [(i.sorted_vertices(), label) for i, label in maximal]

    assert labelled(loop_with_exit) == [(("v",), CLASS_PERP_ZERO)]
    assert labelled(edgeless_ab) == [(("a",), CLASS_REGULAR), (("b",), CLASS_REGULAR)]
    assert labelled(single_loop) == [((), CLASS_REGULAR)]
    assert maximal_graded_ideals(enumerate_hs_sets(Graph((), ()))) == []


@given(graphs())
def test_galois_properties(g):
    everything = frozenset(g.vertices)
    for h in enumerate_hs_sets(g):
        bar = bar_closure(h)
        p1 = perp(h)
        dp = double_perp(h)
        # complement identity for the annihilator
        assert p1.vertices == everything - bar
        # sandwich: H inside double perp inside the backward closure
        assert h.vertices <= dp.vertices <= bar
        # the double perp is the set of vertices whose whole tree lies in bar
        assert dp.vertices == {w for w in g.vertices if g.tree(w) <= bar}
        # the annihilator is always regular, and triple perp equals perp
        assert is_regular(p1)
        assert perp(dp).vertices == p1.vertices


@given(graphs())
def test_perp_reverses_order(g):
    sets = enumerate_hs_sets(g)
    for a in sets:
        for b in sets:
            if a.vertices <= b.vertices:
                assert perp(b).vertices <= perp(a).vertices


@given(graphs())
def test_quotient_condition_l_forces_pc_inside(g):
    pc = g.exit_free_cycle_vertices()
    for h in enumerate_hs_sets(g):
        if quotient_graph(g, h).condition_l():
            assert pc <= h.vertices


@given(graphs())
def test_regular_ideals_respect_quotient_laws(g):
    cond_l = g.condition_l()
    pc = g.exit_free_cycle_vertices()
    for h in enumerate_hs_sets(g):
        if not is_regular(h):
            continue
        quotient_l = quotient_graph(g, h).condition_l()
        assert pc_bijection_check(g, h)
        assert quotient_l == (pc <= h.vertices)
        if cond_l:
            assert quotient_l


@given(graphs_with_subset())
def test_analyze_matches_the_separate_calls(case):
    g, generators = case
    report = analyze(g, generators)
    j = hs_closure(g, generators)
    assert report.perp_set == perp(j).vertices
    assert report.double_perp_set == double_perp(j).vertices
    assert report.is_regular == is_regular(j)
    assert report.quotient_condition_l == quotient_graph(g, j).condition_l()
    assert report.pc_bijection_holds == pc_bijection_check(g, j)


@given(graphs())
def test_maximal_labels_match_the_separate_calls(g):
    for ideal, label in maximal_graded_ideals(enumerate_hs_sets(g)):
        regular, perp_zero = is_regular(ideal), not perp(ideal).vertices
        assert label == {
            (True, True): CLASS_BOTH,
            (True, False): CLASS_REGULAR,
            (False, True): CLASS_PERP_ZERO,
        }[(regular, perp_zero)]


def maximal_by_pairwise_search(hs_sets):
    """The maximal proper sets in listing order, each compared with every proper set."""
    proper = hs_sets[:-1]
    return [h for h in proper if not any(h.vertices < other.vertices for other in proper)]


def _maximal_referee_graphs():
    edgeless = [Graph(tuple(f"v{i}" for i in range(n)), ()) for n in range(9)]
    rng = Random(42)  # verify's default calculus family: its seed and bounds
    return edgeless + [random_graph(rng, 5, 8) for _ in range(500)]


def test_maximal_sets_match_the_pairwise_search():
    for g in _maximal_referee_graphs():
        hs_sets = enumerate_hs_sets(g)
        got = maximal_graded_ideals(hs_sets)
        assert [h for h, _label in got] == maximal_by_pairwise_search(hs_sets)


# -- kept values: a set keeps its annihilator and quotient, a graph its exit-free cycles --


def plain_backward_search(g, targets):
    """Every vertex with a path into ``targets``, one scan of the edge list per vertex."""
    seen = set(targets)
    frontier = list(seen)
    while frontier:
        w = frontier.pop()
        for e in g.edges:
            if e.dst == w and e.src not in seen:
                seen.add(e.src)
                frontier.append(e.src)
    return frozenset(seen)


def plain_exit_free_cycle_vertices(g):
    """Vertices from which the walk along sole out-edges comes back within |V| steps."""
    out = {v: [e.dst for e in g.edges if e.src == v] for v in g.vertices}
    found = set()
    for v in g.vertices:
        w = v
        for _ in range(len(g.vertices)):
            if len(out[w]) != 1:
                break
            w = out[w][0]
            if w == v:
                found.add(v)
                break
    return frozenset(found)


def fresh(g, h):
    """A new copy of the graph and of the set on it, with nothing kept on either."""
    copy = Graph(g.vertices, g.edges)
    return copy, HereditarySaturatedSet(copy, h.vertices)


@given(graphs())
def test_kept_values_match_fresh_copies_and_plain_searches(g):
    everything = frozenset(g.vertices)
    sets = enumerate_hs_sets(g)
    # fill what each set keeps in an order unlike the checks below
    for h in reversed(sets):
        pc_bijection_check(g, h)
        is_regular(h)
    assert g.exit_free_cycle_vertices() == plain_exit_free_cycle_vertices(g)
    assert g.exit_free_cycle_vertices() == Graph(g.vertices, g.edges).exit_free_cycle_vertices()
    assert g.exit_free_cycle_vertices() is g.exit_free_cycle_vertices()
    for h in sets:
        want_perp = everything - plain_backward_search(g, h.vertices)
        want_double_perp = everything - plain_backward_search(g, want_perp)
        assert perp(h) == perp(fresh(g, h)[1])
        assert perp(h).vertices == want_perp
        assert double_perp(h) == double_perp(fresh(g, h)[1])
        assert double_perp(h).vertices == want_double_perp
        assert is_regular(h) == is_regular(fresh(g, h)[1]) == (h.vertices == want_double_perp)
        quotient = quotient_graph(g, h)
        assert quotient == quotient_graph(*fresh(g, h))
        assert quotient.exit_free_cycle_vertices() == plain_exit_free_cycle_vertices(quotient)
        assert pc_bijection_check(g, h) == pc_bijection_check(*fresh(g, h))
        assert perp(h) is perp(h)
        assert double_perp(h) is double_perp(h)
        assert quotient_graph(g, h) is quotient
        assert quotient.exit_free_cycle_vertices() is quotient.exit_free_cycle_vertices()


def test_a_kept_quotient_is_still_refused_for_another_graph(loop_with_exit, path_abc):
    h = hs_closure(loop_with_exit, {"v"})
    assert quotient_graph(loop_with_exit, h).vertices == ("u",)
    with pytest.raises(GraphMismatchError):
        quotient_graph(path_abc, h)
    with pytest.raises(GraphMismatchError):
        pc_bijection_check(path_abc, h)
    # an equal graph built apart is the set's own graph
    assert quotient_graph(Graph(loop_with_exit.vertices, loop_with_exit.edges), h).vertices == ("u",)
