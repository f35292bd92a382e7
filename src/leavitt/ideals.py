"""Graded-ideal calculus on vertex sets.

For a finite graph the graded two-sided ideals of the path algebra
correspond one-to-one with the hereditary saturated vertex sets, so the
whole calculus — annihilators, double annihilators, regularity, quotients —
runs on vertex sets alone.  The matrix oracle in :mod:`leavitt.oracle`
checks these shortcuts against genuine linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import GraphMismatchError
from .graphdoc import document_from_graph
from .graphs import Graph
from .hereditary import HereditarySaturatedSet, hs_closure

CLASS_REGULAR = "regular"
CLASS_PERP_ZERO = "perp_zero"
CLASS_BOTH = "both"


@dataclass(frozen=True)
class GradedIdeal:
    """A graded ideal, carried by its hereditary saturated vertex set."""

    h: HereditarySaturatedSet

    @property
    def graph(self) -> Graph:
        return self.h.graph

    @property
    def vertices(self) -> frozenset[str]:
        return self.h.vertices

    def sorted_vertices(self) -> tuple[str, ...]:
        return self.h.sorted_vertices()


def ideal_from_generators(graph: Graph, generators: Iterable[str]) -> GradedIdeal:
    """The graded ideal generated by a set of vertices (closed to hereditary saturated)."""
    return GradedIdeal(hs_closure(graph, generators))


def bar_closure(ideal: GradedIdeal) -> frozenset[str]:
    """Sources of finite paths into the ideal's vertex set; always a superset of it."""
    return ideal.graph.backward_reach(ideal.vertices)


def perp(ideal: GradedIdeal) -> GradedIdeal:
    """The annihilator ideal: complement of the backward closure.

    That complement is provably hereditary and saturated; the constructor
    re-checks it, so a violation aborts loudly instead of propagating a bug.
    """
    g = ideal.graph
    complement = g._vset - bar_closure(ideal)
    return GradedIdeal(HereditarySaturatedSet(g, complement))


def double_perp(ideal: GradedIdeal) -> GradedIdeal:
    """The double annihilator: vertices whose whole tree sits in the backward closure."""
    return perp(perp(ideal))


def is_regular(ideal: GradedIdeal) -> bool:
    """True iff the ideal equals its double annihilator."""
    return ideal.vertices == double_perp(ideal).vertices


def quotient_graph(graph: Graph, h: HereditarySaturatedSet) -> Graph:
    """Remove the set's vertices and every edge whose target lies in the set."""
    if h.graph != graph:
        raise GraphMismatchError("vertex set belongs to a different graph")
    return Graph(
        tuple(v for v in graph.vertices if v not in h.vertices),
        tuple(e for e in graph.edges if e.dst not in h.vertices),
    )


def pc_bijection_check(graph: Graph, h: HereditarySaturatedSet) -> bool:
    """Compare exit-free cycle vertices outside the set with those of the quotient.

    The identity map between the two sets is a bijection exactly when they
    are equal as vertex sets, which is guaranteed whenever the ideal of the
    set is regular; the check itself is unconditional so the implication can
    be property-tested.
    """
    return _pc_bijection(graph, h, quotient_graph(graph, h).exit_free_cycle_vertices())


def _pc_bijection(graph: Graph, h: HereditarySaturatedSet, quotient_pc: frozenset[str]) -> bool:
    return graph.exit_free_cycle_vertices() - h.vertices == quotient_pc


@dataclass(frozen=True)
class RegularityReport:
    """Everything the calculus can say about one graded ideal."""

    ideal: GradedIdeal
    bar_closure: frozenset[str]
    perp_set: frozenset[str]
    double_perp_set: frozenset[str]
    is_regular: bool
    quotient: Graph
    quotient_condition_l: bool
    pc_bijection_holds: bool

    def to_json_dict(self) -> dict:
        return {
            "ideal": sorted(self.ideal.vertices),
            "bar_closure": sorted(self.bar_closure),
            "perp_set": sorted(self.perp_set),
            "double_perp_set": sorted(self.double_perp_set),
            "is_regular": self.is_regular,
            "quotient": document_from_graph(self.quotient),
            "quotient_condition_L": self.quotient_condition_l,
            "pc_bijection_holds": self.pc_bijection_holds,
        }


def analyze(graph: Graph, generators: Iterable[str]) -> RegularityReport:
    """Full report for the ideal generated by ``generators``; deterministic."""
    ideal = ideal_from_generators(graph, generators)
    bar = bar_closure(ideal)
    perp_ideal = perp(ideal)
    dp_ideal = perp(perp_ideal)
    quotient = quotient_graph(graph, ideal.h)
    quotient_pc = quotient.exit_free_cycle_vertices()
    return RegularityReport(
        ideal=ideal,
        bar_closure=bar,
        perp_set=perp_ideal.vertices,
        double_perp_set=dp_ideal.vertices,
        is_regular=ideal.vertices == dp_ideal.vertices,
        quotient=quotient,
        quotient_condition_l=not quotient_pc,
        pc_bijection_holds=_pc_bijection(graph, ideal.h, quotient_pc),
    )


def maximal_graded_ideals(
    hs_sets: list[HereditarySaturatedSet],
) -> list[tuple[GradedIdeal, str]]:
    """Maximal proper hereditary saturated sets with their dichotomy label.

    ``hs_sets`` is the sorted listing of :func:`enumerate_hs_sets`, whose
    last entry is the whole vertex set.  Every maximal element is regular,
    has zero annihilator, or both: the double annihilator is hereditary
    saturated and contains the set, so by maximality it is the set itself
    (regular) or everything (annihilator zero).  A set matching neither
    label would be a bug and raises.
    """
    proper = hs_sets[:-1]
    out = []
    for h in proper:
        if any(h.vertices < other.vertices for other in proper):
            continue
        ideal = GradedIdeal(h)
        perp_ideal = perp(ideal)
        regular = h.vertices == perp(perp_ideal).vertices
        perp_zero = not perp_ideal.vertices
        if regular and perp_zero:
            label = CLASS_BOTH
        elif regular:
            label = CLASS_REGULAR
        elif perp_zero:
            label = CLASS_PERP_ZERO
        else:
            raise AssertionError(
                f"maximal set {h.sorted_vertices()} is neither regular nor annihilator-zero"
            )
        out.append((ideal, label))
    return out
