"""Hereditary saturated vertex sets: the checked set, closure, lattice enumeration.

A vertex set is *hereditary* when every edge leaving one of its vertices
lands back inside it, and *saturated* when every emitter outside it has an
edge that leaves it (an emitter whose edges all land inside is forced in;
sinks are never forced).  The sets that satisfy both form a lattice
(meet = intersection, join = closure of the union) which is exactly the
lattice of graded ideals of the path algebra.

Both halves are one rule about emitters: an emitter is in the set exactly
when all of its edges land inside.  :class:`HereditarySaturatedSet` checks
that rule in one pass over the emitters, and the closure is linear in the
size of the graph too.  Only the lattice pass works on bitmasks: it branches
over strongly connected components, so its work grows with the number of
sets it lists, and it reads each set's regularity off the same masks.  Per
listed set it then does a fixed number of lookups, one per 8-bit chunk of
its masks, and one checked construction, which is O(V + E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import LatticeTooLargeError
from .graphs import Graph

# The lattice pass costs O(#components) per listed set, but a graph with n
# vertices can have 2^n sets (no edges); past this many vertices it refuses.
ENUMERATION_CUTOFF = 20
# The tail of the lattice pass reads masks through lookup tables of this many
# bits: at most three lookups per table and set below the cutoff.
CHUNK_BITS = 8


@dataclass(frozen=True)
class HereditarySaturatedSet:
    """A hereditary saturated vertex set, checked at construction in one pass.

    H qualifies iff each emitter is in H exactly when all of its edges land
    in H ("only if" is hereditary, "if" is saturated; sinks are free).  A
    rejection names the first vertex in graph order that breaks this rule,
    and the half that it breaks.
    """

    graph: Graph
    vertices: frozenset[str]

    def __post_init__(self):
        members = self.graph.vertex_subset(self.vertices)
        object.__setattr__(self, "vertices", members)
        for v, es in self.graph._out.items():
            if es and (v in members) != all(e.dst in members for e in es):
                if v in members:
                    why = f"not hereditary: an edge of {v!r} leaves it"
                else:
                    why = f"not saturated: every edge of {v!r} lands in it"
                raise ValueError(f"{sorted(members)} is {why}")

    def sorted_vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.vertices))


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
    """Every hereditary saturated subset, sorted by (size, membership)."""
    return [h for h, _ in lattice_with_regularity(graph)]


def lattice_with_regularity(graph: Graph) -> list[tuple[HereditarySaturatedSet, bool]]:
    """Every hereditary saturated subset with its regularity flag, in one pass.

    The pass branches over strongly connected components, successors first.
    A hereditary set holds each component wholly or not at all, and both
    halves only look along out-edges.  So once every component that a
    component C reaches is decided, C's choice is local: out if an edge of C
    leaves to a vertex outside the set (hereditary), in if C is one vertex
    without a loop whose edges all land inside (saturated), and either way
    otherwise (a sink, or C has an internal edge).  No branch dead-ends, so
    finding the sets costs O(#components) mask operations per listed set.

    The flag is the formula of :func:`leavitt.ideals.perp` on bitmasks:
    bar(H) is the OR of the backward reach masks of H's vertices, perp(H) is
    everything outside bar(H), and H is regular iff H == perp(perp(H)).
    bar(H) grows with H during the branching.  bar(perp(H)) and H's member
    names are read through two tables per 8-bit chunk of a mask (the OR of
    the backward reach masks of the chunk's bits, and the chunk's names in
    sorted order), so each costs at most three lookups below the cutoff.
    Each listed set is still built through the checking constructor, O(V + E).

    Bit ``n - 1 - i`` stands for the i-th vertex in sorted order, so among
    sets of one size, larger masks come first in membership order.
    """
    n = len(graph.vertices)
    if n > ENUMERATION_CUTOFF:
        raise LatticeTooLargeError(
            f"graph has {n} vertices; exhaustive enumeration is capped at {ENUMERATION_CUTOFF}"
        )
    names = sorted(graph.vertices)
    bit = {v: 1 << (n - 1 - i) for i, v in enumerate(names)}
    succ = dict.fromkeys(bit.values(), 0)
    for e in graph.edges:
        succ[bit[e.src]] |= bit[e.dst]
    fwd = {bit[v]: sum(bit[w] for w in graph.tree(v)) for v in names}
    back = {bit[v]: sum(bit[w] for w in graph.backward_reach((v,))) for v in names}
    # a component is fwd & back of any of its vertices; reaching more comes later
    components = sorted({fwd[b] & back[b] for b in succ}, key=lambda c: fwd[c & -c].bit_count())
    partial = [(0, 0)]  # (set, bar(set)) over the components decided so far
    for comp in components:
        edges_to = 0
        for b in _bits(comp):
            edges_to |= succ[b]
        exits = edges_to & ~comp
        # one vertex without a loop that emits; larger components have internal edges
        forced = edges_to and not edges_to & comp
        bar = back[comp & -comp]
        grown = []
        for h, h_bar in partial:
            if exits & ~h:
                grown.append((h, h_bar))
            elif forced:
                grown.append((h | comp, h_bar | bar))
            else:
                grown += ((h, h_bar), (h | comp, h_bar | bar))
        partial = grown
    everything = (1 << n) - 1
    partial.sort(key=lambda pair: (pair[0].bit_count(), -pair[0]))
    # bit j stands for names[n - 1 - j]; a higher bit comes earlier in sorted order
    chunks = list(zip(
        range(0, n, CHUNK_BITS),
        _chunk_tables([back[1 << j] for j in range(n)], int.__or__, 0),
        _chunk_tables(names[::-1], lambda tail, name: (name, *tail), ()),
    ))
    chunk_mask = (1 << CHUNK_BITS) - 1
    out = []
    for h, h_bar in partial:
        perp_h = everything & ~h_bar
        perp_bar = 0
        members = ()
        for shift, bar_of, names_of in chunks:
            perp_bar |= bar_of[perp_h >> shift & chunk_mask]
            members = names_of[h >> shift & chunk_mask] + members
        out.append((HereditarySaturatedSet(graph, members), h == everything & ~perp_bar))
    return out


def _chunk_tables(per_bit: list, join, empty) -> list[list]:
    """Lookup tables over the chunks of a mask, lowest chunk first (Four Russians).

    ``per_bit[j]`` is the value of bit j.  Entry c of the table of the chunk
    that starts at bit s is the join of the values of the bits of ``c << s``:
    each table doubles once per bit, so it has 2^min(bits, CHUNK_BITS) entries.
    """
    tables = []
    for start in range(0, len(per_bit), CHUNK_BITS):
        table = [empty]
        for value in per_bit[start:start + CHUNK_BITS]:
            table += [join(entry, value) for entry in table]
        tables.append(table)
    return tables


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low
