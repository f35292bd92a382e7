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
size of the graph too.  Only the lattice pass works on bitmasks.  It takes
its reach masks from one Warshall closure over the successor masks, and
branches over strongly connected components on whole lists of masks, one
list per size.  Then, a batch of sets at a time, it checks each mask
against the rule, reads each set's regularity off the same masks and writes
each set's members in sorted order through one lookup per 8-bit chunk, all
in a fixed number of mask operations per listed set.  A caller says how a
member is written, so ``leavitt lattice`` writes its listing with no set
object, one joined string per batch; :func:`lattice_with_regularity` builds
each set through the checking constructor, which keeps the pass's sorted
names as its ``sorted_vertices()``, and yields one set at a time.  Neither
holds more than one batch of texts or sets, so a caller that writes each
out as it comes never holds the listing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Iterator

from .errors import LatticeTooLargeError
from .graphs import Graph

# The lattice pass costs O(#components) per listed set, but a graph with n
# vertices can have 2^n sets (no edges); past this many vertices it refuses.
ENUMERATION_CUTOFF = 20
# The lattice pass reads masks through one lookup table per chunk of this many
# bits: three tables, so three lookups, cover the cutoff.
CHUNK_BITS = 8
# The lattice pass hands its sets over in batches of at most this many: each
# batch's fixed cost is spread thin, and its texts stay small beside the masks.
BATCH_SETS = 256


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
    as soon as its batch is formed, and :class:`LatticeTooLargeError` is
    raised at its first step, before anything is yielded.
    """
    _, batches = lattice_pass(graph, lambda v: (v,), ())
    for member_lists, flags in batches:
        for members, regular in zip(member_lists, flags):
            listed = HereditarySaturatedSet(graph, members)
            object.__setattr__(listed, "_sorted", members)  # sorted_vertices() hands it back
            yield listed, regular


def lattice_pass(graph: Graph, piece, empty) -> tuple[int, Iterator[tuple[list, list[bool]]]]:
    """The number of hereditary saturated sets, and the sets with their flags.

    Each set comes as ``empty`` plus ``piece(v)`` for each member v in sorted
    order (a one-name tuple, say, or an encoded name and its separator), with
    its regularity flag, in (size, membership) order.  The sets come in
    batches of at most :data:`BATCH_SETS`, each a list of member texts and the
    list of their flags, yielded as soon as it is formed.  The cap on the number of vertices is
    checked, and :class:`LatticeTooLargeError` raised, here.

    Bit ``n - 1 - i`` stands for the i-th vertex in sorted order, so a
    higher mask comes earlier in sorted order among sets of one size.  The
    forward and backward reach masks are the reflexive-transitive closures
    of the successor and predecessor masks (:func:`_reach_masks`).

    The pass branches over strongly connected components, successors first,
    carrying the partial sets as bare masks in one descending list per size.
    A hereditary set holds each component wholly or not at all, and both
    halves only look along out-edges.  So once every component that a
    component C reaches is decided, C's choice is local: out if an edge of C
    leaves to a vertex outside the set (hereditary), in if C is one vertex
    without a loop whose edges all land inside (saturated), and either way
    otherwise (a sink, or C has an internal edge).  Each component is applied
    to whole lists: the sets that may take C grow by C into the list of
    their size plus |C|, the sets that must take it leave their list, and
    each list that gains sets is then two descending runs, which one sort
    merges.  No branch
    dead-ends, so finding the sets costs O(#components) mask operations per
    listed set, and listing them in order needs no sort of its own.

    The flag is the formula of :func:`leavitt.ideals.perp` on bitmasks:
    bar(H) is the OR of the backward reach masks of H's vertices, perp(H) is
    everything outside bar(H), and H is regular iff H == perp(perp(H)).
    perp(H), perp(perp(H)) and H's pieces are read through one table per
    8-bit chunk of a mask (everything outside the OR of the backward reach
    masks of the chunk's bits, ANDed over the chunks; and the chunk's pieces
    in sorted order): three lookups each.  Each batch is checked against the
    constructor's rule before it is yielded, one test per emitter and set
    (in H exactly when its successor mask lies in H), and the first set that
    breaks it raises the constructor's own ``ValueError``.
    """
    n = len(graph.vertices)
    if n > ENUMERATION_CUTOFF:
        raise LatticeTooLargeError(
            f"graph has {n} vertices; exhaustive enumeration is capped at {ENUMERATION_CUTOFF}"
        )
    names = sorted(graph.vertices)
    position = {v: n - 1 - i for i, v in enumerate(names)}
    succ, pred = [0] * n, [0] * n
    for e in graph.edges:
        src, dst = position[e.src], position[e.dst]
        succ[src] |= 1 << dst
        pred[dst] |= 1 << src
    fwd, back = _reach_masks(succ), _reach_masks(pred)
    # a component is fwd & back of any of its vertices; one that reaches more
    # comes later, and among equals the lower mask comes first
    components = sorted({(f.bit_count(), f & b) for f, b in zip(fwd, back)})
    by_size = {0: [0]}  # the sets over the components decided so far, per size, descending
    for _, comp in components:
        edges_to = 0
        for j in _bits(comp):
            edges_to |= succ[j]
        exits = edges_to & ~comp
        size = comp.bit_count()
        grown = [(s + size, [h | comp for h in sets if h & exits == exits]) for s, sets in by_size.items()]
        # one vertex without a loop that emits; larger components have internal edges
        if edges_to and not edges_to & comp:
            kept = {s: [h for h in sets if h & exits != exits] for s, sets in by_size.items()}
            by_size = {s: sets for s, sets in kept.items() if sets}
        for s, sets in grown:
            if sets:
                if s in by_size:
                    sets += by_size[s]  # the sets with C, then those without: merge the two runs
                    sets.sort(reverse=True)
                by_size[s] = sets
    count = sum(map(len, by_size.values()))
    emitters = [(1 << j, s) for j, s in enumerate(succ) if s]
    everything = (1 << n) - 1

    def batches():
        # bit j stands for names[n - 1 - j]; a higher bit comes earlier in sorted order
        low_perp, mid_perp, high_perp = _chunk_tables([everything ^ b for b in back], int.__and__, everything)
        low, mid, high = _chunk_tables([piece(v) for v in reversed(names)], lambda lo, hi: hi + lo, empty)
        k, k2, m = CHUNK_BITS, 2 * CHUNK_BITS, (1 << CHUNK_BITS) - 1
        # each size's list is dropped once it is listed
        listed = chain.from_iterable(by_size.pop(s) for s in sorted(by_size))
        while batch := list(islice(listed, BATCH_SETS)):
            broken = {h for b, s in emitters for h in batch if (h & b != 0) != (s & ~h == 0)}
            if broken:
                # the checking constructor rejects the first of them, naming the vertex
                first = next(h for h in batch if h in broken)
                HereditarySaturatedSet(graph, [v for v in names if first >> position[v] & 1])
            perps = [low_perp[h & m] & mid_perp[h >> k & m] & high_perp[h >> k2] for h in batch]
            yield (
                [high[h >> k2] + mid[h >> k & m] + low[h & m] for h in batch],
                [h == low_perp[p & m] & mid_perp[p >> k & m] & high_perp[p >> k2]
                 for h, p in zip(batch, perps)],
            )

    return count, batches()


def _reach_masks(step: list[int]) -> list[int]:
    """Reflexive-transitive closure of a relation on bit positions (Warshall).

    ``step[j]`` is the mask of the positions one step from j.  Entry j of the
    result is the mask of every position that a path from j reaches, j
    included.  Round k lets paths pass through k: each mask that holds bit k
    takes in k's mask.  A position with no step adds no path and is skipped,
    so O(V) mask operations per position that has a step.
    """
    reach = [s | 1 << j for j, s in enumerate(step)]
    for k, s in enumerate(step):
        if s:
            bit, via = 1 << k, reach[k]
            reach = [r | via if r & bit else r for r in reach]
    return reach


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
    """The positions of the bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
