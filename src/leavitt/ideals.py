"""Graded-ideal calculus on vertex sets.

For a finite graph the graded two-sided ideals of the path algebra
correspond one-to-one with the hereditary saturated vertex sets, and every
regular ideal is graded.  So a graded ideal is passed around as its
:class:`~leavitt.hereditary.HereditarySaturatedSet` (build one with
``hs_closure`` from generators, or list them all with ``enumerate_hs_sets``),
and the whole calculus — annihilators, double annihilators, regularity,
quotients — runs on vertex sets alone.  The matrix oracle in
:mod:`leavitt.oracle` checks these shortcuts against genuine linear algebra.
Each verdict has one implementation, which ``analyze`` and
``maximal_graded_ideals`` call too, so ``verify`` checks what they report.

A set keeps its annihilator and its quotient graph, each built on first
request, once, and a graph keeps its exit-free cycle vertices: the objects
are immutable, so this changes costs, not results.  Each kept value lives
as long as its owner and no longer.  So the chain H, perp(H), perp(perp(H)),
... costs one backward search per link, however often ``double_perp`` and
``is_regular`` walk it, and ``analyze`` reads the backward closure of H off
the kept annihilator, its complement.
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


def bar_closure(h: HereditarySaturatedSet) -> frozenset[str]:
    """Sources of finite paths into the set; always a superset of it."""
    return h.graph.backward_reach(h.vertices)


def perp(h: HereditarySaturatedSet) -> HereditarySaturatedSet:
    """The annihilator ideal: complement of the backward closure.

    That complement is provably hereditary and saturated; the constructor
    re-checks it, so a violation aborts loudly instead of propagating a bug.
    Built once per set and kept on it.
    """
    kept = getattr(h, "_perp", None)
    if kept is None:
        g = h.graph
        kept = HereditarySaturatedSet(g, g._vset - bar_closure(h))
        object.__setattr__(h, "_perp", kept)
    return kept


def double_perp(h: HereditarySaturatedSet) -> HereditarySaturatedSet:
    """The double annihilator: vertices whose whole tree sits in the backward closure."""
    return perp(perp(h))


def is_regular(h: HereditarySaturatedSet) -> bool:
    """True iff the ideal of the set equals its double annihilator."""
    return h.vertices == double_perp(h).vertices


def quotient_graph(graph: Graph, h: HereditarySaturatedSet) -> Graph:
    """Remove the set's vertices and every edge that touches the set.

    The set is hereditary, so an edge with its source in the set has its
    target there too: these are the edges whose target lies in the set.
    Built once per set and kept on it, after the check that ``graph`` is
    the set's own.
    """
    if h.graph != graph:
        raise GraphMismatchError("vertex set belongs to a different graph")
    kept = getattr(h, "_quotient", None)
    if kept is None:
        kept = graph._without_vertices(h.vertices)
        object.__setattr__(h, "_quotient", kept)
    return kept


def pc_bijection_check(graph: Graph, h: HereditarySaturatedSet) -> bool:
    """Compare exit-free cycle vertices outside the set with those of the quotient.

    The identity map between the two sets is a bijection exactly when they
    are equal as vertex sets, which is guaranteed whenever the ideal of the
    set is regular; the check itself is unconditional so the implication can
    be property-tested.
    """
    quotient_pc = quotient_graph(graph, h).exit_free_cycle_vertices()
    return graph.exit_free_cycle_vertices() - h.vertices == quotient_pc


@dataclass(frozen=True)
class RegularityReport:
    """Everything the calculus can say about one graded ideal."""

    ideal: HereditarySaturatedSet
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
    h = hs_closure(graph, generators)
    quotient = quotient_graph(graph, h)
    annihilator = perp(h).vertices
    return RegularityReport(
        ideal=h,
        bar_closure=graph._vset - annihilator,  # bar(H) = V \ perp(H): no second search
        perp_set=annihilator,
        double_perp_set=double_perp(h).vertices,
        is_regular=is_regular(h),
        quotient=quotient,
        quotient_condition_l=quotient.condition_l(),
        pc_bijection_holds=pc_bijection_check(graph, h),
    )


def maximal_graded_ideals(
    hs_sets: list[HereditarySaturatedSet],
) -> list[tuple[HereditarySaturatedSet, str]]:
    """Maximal proper hereditary saturated sets with their dichotomy label.

    ``hs_sets`` is the sorted listing of :func:`enumerate_hs_sets`, whose
    last entry is the whole vertex set.  Every maximal element is regular,
    has zero annihilator, or both: the double annihilator is hereditary
    saturated and contains the set, so by maximality it is the set itself
    (regular) or everything (annihilator zero).  A set matching neither
    label would be a bug and raises.

    The proper sets are walked largest first: a set is maximal unless a
    maximal set kept before it contains it, since every proper superset is
    larger and lies inside a maximal one.  That costs one test per kept
    maximal set, not one per proper set.
    """
    maximal: list[HereditarySaturatedSet] = []
    for h in reversed(hs_sets[:-1]):
        if not any(h.vertices < kept.vertices for kept in maximal):
            maximal.append(h)
    out = []
    for h in reversed(maximal):
        regular = is_regular(h)
        perp_zero = not perp(h).vertices
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
        out.append((h, label))
    return out
