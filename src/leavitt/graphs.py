"""Finite directed multigraphs: reachability, exit-free cycles, Condition (L).

Vertices and edges are named and keep insertion order.  Parallel edges and
loops are allowed.  All values are immutable after construction and every
operation is a pure function, so graphs are safe to share freely.

Reach and the cycle layer are linear: exit-free cycles, Condition (L) and
acyclicity come from one Kahn peeling.  Only :meth:`Graph.cycles`, the
tests' exponential referee for that layer, lists cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import UnknownVertexError


class Edge(NamedTuple):
    """Directed edge ``src -> dst`` carrying its own name."""

    name: str
    src: str
    dst: str


@dataclass(frozen=True)
class Graph:
    """Finite directed multigraph over named vertices."""

    vertices: tuple[str, ...] = ()
    edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(
            self, "edges", tuple(e if isinstance(e, Edge) else Edge(*e) for e in self.edges)
        )
        seen: set[str] = set()
        for v in self.vertices:
            if v in seen:
                raise ValueError(f"duplicate vertex id: {v!r}")
            seen.add(v)
        names: set[str] = set()
        for e in self.edges:
            if e.name in names:
                raise ValueError(f"duplicate edge id: {e.name!r}")
            names.add(e.name)
            if e.src not in seen or e.dst not in seen:
                raise ValueError(f"edge {e.name!r} has an endpoint outside the vertex set")

    # -- derived lookup tables ------------------------------------------------

    @cached_property
    def _vset(self) -> frozenset[str]:
        return frozenset(self.vertices)

    @cached_property
    def _out(self) -> dict[str, tuple[Edge, ...]]:
        table: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            table[e.src].append(e)
        return {v: tuple(es) for v, es in table.items()}

    @cached_property
    def _in(self) -> dict[str, tuple[Edge, ...]]:
        table: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            table[e.dst].append(e)
        return {v: tuple(es) for v, es in table.items()}

    @cached_property
    def _emitter_targets(self) -> tuple[tuple[str, frozenset[str]], ...]:
        """Each emitter with the set of its edges' targets, in graph order."""
        return tuple((v, frozenset(e.dst for e in es)) for v, es in self._out.items() if es)

    @cached_property
    def _edge_by_name(self) -> dict[str, Edge]:
        return {e.name: e for e in self.edges}

    # -- basic accessors ------------------------------------------------------

    def require_vertex(self, vertex: str) -> None:
        if vertex not in self._vset:
            raise UnknownVertexError(f"unknown vertex: {vertex!r}")

    def vertex_subset(self, subset: Iterable[str]) -> frozenset[str]:
        """Validate and freeze a collection of vertex ids."""
        out = frozenset(subset)
        if not out <= self._vset:
            raise UnknownVertexError(f"unknown vertex: {min(out - self._vset)!r}")
        return out

    def in_edges(self, vertex: str) -> tuple[Edge, ...]:
        self.require_vertex(vertex)
        return self._in[vertex]

    # -- vertex-level operations ----------------------------------------------

    def regular_vertices(self) -> frozenset[str]:
        """Vertices emitting at least one edge; in a finite graph every emitter."""
        return frozenset(v for v in self.vertices if self._out[v])

    def sinks(self) -> frozenset[str]:
        return frozenset(v for v in self.vertices if not self._out[v])

    def _reach(
        self, subset: Iterable[str], table: dict[str, tuple[Edge, ...]], end: str
    ) -> frozenset[str]:
        """``subset`` plus every vertex a path along ``table`` leads to from it.

        ``table`` maps each vertex to the edges to follow from it (``_out`` or
        ``_in``) and ``end`` names the edge field that gives the next vertex.
        Iterative, O(V + E).
        """
        step = Edge._fields.index(end)
        seen = set(self.vertex_subset(subset))
        frontier = list(seen)
        while frontier:
            for e in table[frontier.pop()]:
                w = e[step]
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return frozenset(seen)

    def tree(self, vertex: str) -> frozenset[str]:
        """Forward-reachable set of ``vertex``, including the vertex itself."""
        return self._reach((vertex,), self._out, "dst")

    def backward_reach(self, subset: Iterable[str]) -> frozenset[str]:
        """All vertices with a (possibly trivial) path into ``subset``."""
        return self._reach(subset, self._in, "src")

    # -- cycles ----------------------------------------------------------------

    def _cyclic_core(self, out: dict[str, tuple[Edge, ...]]) -> frozenset[str]:
        """Vertices of the subgraph ``out`` that survive Kahn peeling.

        ``out`` maps each vertex of a subgraph to its out-edges; edges leaving
        the subgraph are ignored.  Repeatedly deleting vertices of in-degree 0
        leaves exactly the vertices that some cycle of the subgraph reaches.
        Iterative, O(V + E).
        """
        indeg = dict.fromkeys(out, 0)
        for es in out.values():
            for e in es:
                if e.dst in indeg:
                    indeg[e.dst] += 1
        queue = [v for v, d in indeg.items() if not d]
        while queue:
            for e in out[queue.pop()]:
                if e.dst in indeg:
                    indeg[e.dst] -= 1
                    if not indeg[e.dst]:
                        queue.append(e.dst)
        return frozenset(v for v, d in indeg.items() if d)

    def exit_free_cycle_vertices(self) -> frozenset[str]:
        """Union of the vertex sets of all cycles without an exit.

        A cycle has no exit exactly when each of its vertices emits exactly one
        edge, so these are the cycle vertices of the subgraph of out-degree-1
        vertices.  There each vertex has at most one successor, so a cycle
        reaches only its own vertices and the Kahn core is the union of cycles.
        """
        return self._cyclic_core({v: es for v, es in self._out.items() if len(es) == 1})

    def condition_l(self) -> bool:
        """Condition (L): every cycle has an exit (vacuously true without cycles)."""
        return not self.exit_free_cycle_vertices()

    def is_acyclic(self) -> bool:
        return not self._cyclic_core(self._out)

    def cycles(self) -> tuple[tuple[Edge, ...], ...]:
        """Every cycle (a closed path with distinct edge sources) as its
        rotation with the least edge names, sorted by (length, names).

        Exponential and unused by the library: it is the tests' referee for
        the methods above, and it stays because the benchmark's tracer wraps
        it by name.  Edge names are unique, so edge tuples compare by name.
        """
        found = set()
        for start in self.vertices:
            paths = [(start, ())]
            while paths:
                vertex, path = paths.pop()
                for e in self._out[vertex]:
                    if e.dst == start:
                        cycle = path + (e,)
                        found.add(min(cycle[i:] + cycle[:i] for i in range(len(cycle))))
                    elif all(f.dst != e.dst for f in path):
                        paths.append((e.dst, path + (e,)))
        return tuple(sorted(found, key=lambda cycle: (len(cycle), cycle)))

    # -- derived graphs ----------------------------------------------------------

    def without_edge(self, name: str) -> "Graph":
        if name not in self._edge_by_name:
            raise ValueError(f"unknown edge: {name!r}")
        return Graph(self.vertices, tuple(e for e in self.edges if e.name != name))

    def without_vertex(self, vertex: str) -> "Graph":
        """Drop a vertex together with all incident edges."""
        self.require_vertex(vertex)
        return Graph(
            tuple(v for v in self.vertices if v != vertex),
            tuple(e for e in self.edges if vertex not in (e.src, e.dst)),
        )
