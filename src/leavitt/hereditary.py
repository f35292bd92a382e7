"""Hereditary and saturated vertex sets: predicates, closure, lattice enumeration.

A vertex set is *hereditary* when every edge leaving one of its vertices
lands back inside it, and *saturated* when every emitter outside it has an
edge that leaves it (an emitter whose edges all land inside is forced in;
sinks are never forced).  The sets that satisfy both form a lattice
(meet = intersection, join = closure of the union) which is exactly the
lattice of graded ideals of the path algebra.

The predicates and the closure are linear in the size of the graph.  Only
the lattice scan, which is exponential by design, works on bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import GraphMismatchError, LatticeTooLargeError
from .graphs import Graph

# Exhaustive enumeration walks all 2^|vertices| subsets; past this it refuses.
ENUMERATION_CUTOFF = 20


def is_hereditary(graph: Graph, subset: Iterable[str]) -> bool:
    """True iff every edge leaving a member of the set lands back inside it."""
    members = graph.vertex_subset(subset)
    return all(e.dst in members for v in members for e in graph._out[v])


def is_saturated(graph: Graph, subset: Iterable[str]) -> bool:
    """True iff every emitter outside the set has an edge that leaves the set."""
    members = graph.vertex_subset(subset)
    return all(
        any(e.dst not in members for e in es)
        for v, es in graph._out.items()
        if es and v not in members
    )


@dataclass(frozen=True)
class HereditarySaturatedSet:
    """A vertex set that passes both predicates; checked at construction."""

    graph: Graph
    vertices: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        if not is_hereditary(self.graph, self.vertices):
            raise ValueError(f"{sorted(self.vertices)} is not hereditary")
        if not is_saturated(self.graph, self.vertices):
            raise ValueError(f"{sorted(self.vertices)} is not saturated")

    def __contains__(self, vertex: str) -> bool:
        return vertex in self.vertices

    def __len__(self) -> int:
        return len(self.vertices)

    def sorted_vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.vertices))

    @property
    def is_everything(self) -> bool:
        return self.vertices == self.graph._vset


def hs_closure(graph: Graph, subset: Iterable[str]) -> HereditarySaturatedSet:
    """Smallest hereditary saturated superset of ``subset``.

    Two linear passes.  The forward reach of ``subset`` is its smallest
    hereditary superset.  Saturating it keeps it hereditary, since a vertex
    joins only once all of its edges land inside.  The saturation is one
    counting worklist: each emitter outside the set counts its edges that
    leave the set, joins when the count reaches 0, and on joining lowers the
    count of each in-neighbour by one per in-edge.  O(V + E) in total.
    """
    closed = set(graph._reach(subset, graph._out, "dst"))
    leaving = {
        v: sum(e.dst not in closed for e in es)
        for v, es in graph._out.items()
        if es and v not in closed
    }
    ready = [v for v, k in leaving.items() if not k]
    while ready:
        v = ready.pop()
        closed.add(v)
        for e in graph._in[v]:
            if e.src in leaving:
                leaving[e.src] -= 1
                if not leaving[e.src]:
                    ready.append(e.src)
    return HereditarySaturatedSet(graph, frozenset(closed))


def enumerate_hs_sets(graph: Graph) -> list[HereditarySaturatedSet]:
    """Every hereditary saturated subset, sorted by (size, membership).

    Brute force over all 2^|vertices| subsets as bitmasks (bit i is the
    i-th vertex); exponential by design and guarded by ``ENUMERATION_CUTOFF``.
    """
    n = len(graph.vertices)
    if n > ENUMERATION_CUTOFF:
        raise LatticeTooLargeError(
            f"graph has {n} vertices; exhaustive enumeration is capped at {ENUMERATION_CUTOFF}"
        )
    index = {v: i for i, v in enumerate(graph.vertices)}
    out = [0] * n
    for e in graph.edges:
        out[index[e.src]] |= 1 << index[e.dst]
    emitters = [i for i in range(n) if out[i]]
    hits = []
    for mask in range(1 << n):
        # hereditary + saturated together: an emitter is inside iff covered
        ok = True
        for i in emitters:
            inside = (mask >> i) & 1
            covered = not out[i] & ~mask
            if inside != covered:
                ok = False
                break
        if ok:
            hits.append(mask)
    sets = [
        HereditarySaturatedSet(
            graph, frozenset(v for v, i in index.items() if (mask >> i) & 1)
        )
        for mask in hits
    ]
    sets.sort(key=lambda h: (len(h.vertices), h.sorted_vertices()))
    return sets


def _require_same_graph(a: HereditarySaturatedSet, b: HereditarySaturatedSet) -> None:
    if a.graph != b.graph:
        raise GraphMismatchError("operands live over different graphs")


def hs_meet(a: HereditarySaturatedSet, b: HereditarySaturatedSet) -> HereditarySaturatedSet:
    """Lattice meet: the intersection (hereditary saturated again)."""
    _require_same_graph(a, b)
    return HereditarySaturatedSet(a.graph, a.vertices & b.vertices)


def hs_join(a: HereditarySaturatedSet, b: HereditarySaturatedSet) -> HereditarySaturatedSet:
    """Lattice join: the closure of the union."""
    _require_same_graph(a, b)
    return hs_closure(a.graph, a.vertices | b.vertices)
