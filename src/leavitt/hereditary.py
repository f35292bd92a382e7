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
over strongly connected components, reads each set's regularity off the
same masks, checks each set's mask against the rule, and writes each set's
members in sorted order through one lookup per 8-bit chunk, all in a fixed
number of mask operations per listed set.  A caller says how a member is
written, so ``leavitt lattice`` writes its listing with no set object;
:func:`lattice_with_regularity` builds each set through the checking
constructor, which keeps the pass's sorted names as its ``sorted_vertices()``.
Both yield one set at a time, so a caller that writes each set out as it
comes never holds them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import LatticeTooLargeError
from .graphs import Graph

# The lattice pass costs O(#components) per listed set, but a graph with n
# vertices can have 2^n sets (no edges); past this many vertices it refuses.
ENUMERATION_CUTOFF = 20
# The lattice pass reads masks through one lookup table per chunk of this many
# bits: three tables, so three lookups, cover the cutoff.
CHUNK_BITS = 8


@dataclass(frozen=True)
class HereditarySaturatedSet:
    """A hereditary saturated vertex set, checked at construction in one pass.

    H qualifies iff each emitter is in H exactly when all of its edges land
    in H ("only if" is hereditary, "if" is saturated; sinks are free).  A
    rejection names the first vertex in graph order that breaks this rule,
    and the half that it breaks.  The set is immutable, so it keeps what is
    derived from it, each on first request, once: its sorted names here,
    and its annihilator and quotient graph in :mod:`leavitt.ideals`.
    """

    graph: Graph
    vertices: frozenset[str]

    def __post_init__(self):
        members = self.graph.vertex_subset(self.vertices)
        object.__setattr__(self, "vertices", members)
        for v, targets in self.graph._emitter_targets:
            if (v in members) != (targets <= members):
                if v in members:
                    why = f"not hereditary: an edge of {v!r} leaves it"
                else:
                    why = f"not saturated: every edge of {v!r} lands in it"
                raise ValueError(f"{sorted(members)} is {why}")

    def sorted_vertices(self) -> tuple[str, ...]:
        """The members in sorted order: the lattice pass's own order for a set it
        lists, otherwise sorted on first use, once."""
        return self._sorted

    @cached_property
    def _sorted(self) -> tuple[str, ...]:
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


def lattice_with_regularity(graph: Graph) -> Iterator[tuple[HereditarySaturatedSet, bool]]:
    """Every hereditary saturated subset with its regularity flag, one at a time.

    The sets and flags of :func:`lattice_pass`, each set built through the
    checking constructor from the member names that the pass looked up, which
    it keeps as its ``sorted_vertices()``.  An iterator: each set is yielded
    as soon as it is formed, and :class:`LatticeTooLargeError` is raised at
    its first step, before anything is yielded.
    """
    _, listing = lattice_pass(graph, lambda v: (v,), ())
    for members, regular in listing:
        listed = HereditarySaturatedSet(graph, members)
        object.__setattr__(listed, "_sorted", members)  # sorted_vertices() hands it back
        yield listed, regular


def lattice_pass(graph: Graph, piece, empty) -> tuple[int, Iterator[tuple[object, bool]]]:
    """The number of hereditary saturated sets, and the sets with their flags.

    Each set comes as ``empty`` plus ``piece(v)`` for each member v in sorted
    order (a one-name tuple, say, or an encoded name and its separator), with
    its regularity flag, in (size, membership) order.  The cap on the number
    of vertices is checked, and :class:`LatticeTooLargeError` raised, here.

    The pass branches over strongly connected components, successors first,
    carrying each partial set as a bare mask.  A hereditary set holds each
    component wholly or not at all, and both halves only look along
    out-edges.  So once every component that a component C reaches is
    decided, C's choice is local: out if an edge of C leaves to a vertex
    outside the set (hereditary), in if C is one vertex without a loop whose
    edges all land inside (saturated), and either way otherwise (a sink, or
    C has an internal edge).  No branch dead-ends, so finding the sets costs
    O(#components) mask operations per listed set.

    The flag is the formula of :func:`leavitt.ideals.perp` on bitmasks:
    bar(H) is the OR of the backward reach masks of H's vertices, perp(H) is
    everything outside bar(H), and H is regular iff H == perp(perp(H)).
    bar(H), bar(perp(H)) and H's pieces are read through one table per 8-bit
    chunk of a mask (the OR of the backward reach masks of the chunk's bits,
    and the chunk's pieces in sorted order): three lookups each.  Each mask
    is checked against the constructor's rule before it is yielded, one test
    per emitter (in H exactly when its successor mask lies in H), and one
    that breaks it raises the constructor's own ``ValueError``.

    Bit ``n - 1 - i`` stands for the i-th vertex in sorted order, so the
    masks are put in one bucket per size, and each bucket is listed in
    descending mask order: that is the (size, membership) order.
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
    partial = [0]  # the sets over the components decided so far
    for comp in components:
        edges_to = 0
        for b in _bits(comp):
            edges_to |= succ[b]
        exits = edges_to & ~comp
        # one vertex without a loop that emits; larger components have internal edges
        forced = edges_to and not edges_to & comp
        grown = []
        for h in partial:
            if exits & ~h:
                grown.append(h)
            elif forced:
                grown.append(h | comp)
            else:
                grown += (h, h | comp)
        partial = grown
    by_size = [[] for _ in range(n + 1)]
    for h in partial:
        by_size[h.bit_count()].append(h)
    count = len(partial)
    del partial
    emitters = [(b, s) for b, s in succ.items() if s]
    everything = (1 << n) - 1

    def listing():
        # bit j stands for names[n - 1 - j]; a higher bit comes earlier in sorted order
        low_bar, mid_bar, high_bar = _chunk_tables([back[1 << j] for j in range(n)], int.__or__, 0)
        low, mid, high = _chunk_tables([piece(v) for v in reversed(names)], lambda lo, hi: hi + lo, empty)
        k, k2, m = CHUNK_BITS, 2 * CHUNK_BITS, (1 << CHUNK_BITS) - 1
        for bucket in by_size:
            bucket.sort(reverse=True)
            for h in bucket:
                for b, s in emitters:
                    if (h & b != 0) != (s & ~h == 0):
                        # the checking constructor rejects it, naming the vertex
                        HereditarySaturatedSet(graph, [v for v in names if h & bit[v]])
                c0, c1, c2 = h & m, h >> k & m, h >> k2
                perp_h = everything & ~(low_bar[c0] | mid_bar[c1] | high_bar[c2])
                perp_bar = low_bar[perp_h & m] | mid_bar[perp_h >> k & m] | high_bar[perp_h >> k2]
                yield high[c2] + mid[c1] + low[c0], h == everything & ~perp_bar

    return count, listing()


def _chunk_tables(per_bit: list, join, empty) -> list[list]:
    """Lookup tables over the chunks of a mask, lowest chunk first (Four Russians).

    ``per_bit[j]`` is the value of bit j.  Entry c of the table of the chunk
    that starts at bit s joins the values of the bits of ``c << s``, each on
    top of the lower ones: each table doubles once per bit.  There is one
    table per chunk up to the cutoff; one past the last bit is ``[empty]``.
    """
    tables = []
    for start in range(0, ENUMERATION_CUTOFF, CHUNK_BITS):
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
