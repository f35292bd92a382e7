"""Matrix-block realization of the path algebra of a finite acyclic graph.

For a finite acyclic graph the path algebra over a field decomposes as one
full matrix block per sink, of size the number of paths ending at that
sink.  Concretely the basis consists of matrix units ``e[v; g, l]`` where
``v`` is a sink and ``g``, ``l`` are paths into ``v``, multiplying by

    e[v; g, l] * e[w; m, n] = (v == w and l == m) * e[v; g, n]

with the integer grading ``deg e[v; g, l] = len(g) - len(l)``.  Vertices,
edges and ghost edges of the graph all have explicit images on this basis,
and the defining relations of the algebra are audited at construction.
That makes the module a brute-force referee for the vertex-set calculus:
ideals, annihilators and gradedness are computed by genuine row reduction
over GF(p) with no graph-theoretic shortcuts.

Costs are polynomial in the algebra dimension but the dimension itself is
exponential-ish in graph size; intended inputs are desk-scale graphs,
capped at ``DEFAULT_DIMENSION_CAP``.  All arithmetic is exact int64, which
bounds the prime by the cap (see :func:`leavitt.gfp.max_exact_prime`).

Products by matrix units drive everything: ideal generation, the closure
audit and the annihilator constraints.  A unit product copies one row or
one column of a block, so the products of any number of elements by every
unit are spanned by at most 2 * dim rows, built from bases of the spans of
their block rows and block columns (``OracleAlgebra._unit_products``).

Every RREF basis here grows by :func:`leavitt.gfp.reduce_rowspace`, which
extends a basis by new rows.  Ideals of vertex subsets are built once each
by :class:`IdealMemo`: the ideal generated by a set is the sum of the
ideals generated by its elements (ring theory, not the vertex calculus
under test), so the basis of the ideal of X is that of X minus its last
vertex, extended by the basis of that vertex's ideal.  Bases are interned
by their RREF bytes, and annihilators and vertex sets are memoized by the
RREF bytes of their argument.

The public :class:`IdealSubspace` constructor audits closure under
multiplication by every matrix unit.  Ideals from :func:`ideal_generated_by`
skip that audit, because its last round is that audit, and so do the
subset ideals of :class:`IdealMemo`, because a sum of ideals is an ideal.
The result of :func:`perp_subspace` is still audited, but not row-reduced
again: the nullspace comes out in RREF.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, OracleDimensionError, OracleUnsupportedError
from .gfp import (
    as_matrix,
    is_prime,
    max_exact_prime,
    nullspace_from_rref,
    reduce_rowspace,
    residual,
    rref,
)
from .graphs import Graph

DEFAULT_DIMENSION_CAP = 2000

# cap on the entries of the degree components stacked per membership call
# of is_graded_subspace (memory guard)
_BATCH_ENTRIES = 1 << 20

# cap on the entries of one block-diagonal gather of block rows or columns
# (memory guard: an algebra of many small blocks has width * width >> dim)
_GATHER_ENTRIES = 1 << 20


class OracleAlgebra:
    """Explicit finite-dimensional algebra over GF(p) for an acyclic graph.

    Use :func:`build_oracle` rather than constructing directly; the factory
    validates the graph, the prime and the dimension cap, and passes the
    paths into each sink that it listed to check the cap as ``paths``.
    """

    def __init__(self, graph: Graph, p: int, paths: dict[str, list[tuple[tuple[str, ...], str]]]):
        self.graph = graph
        self.p = p
        self.sinks = tuple(sorted(paths))
        self._paths = paths
        self._block_sizes = [len(self._paths[v]) for v in self.sinks]
        self.dimension = sum(n * n for n in self._block_sizes)

        offsets = []
        off = 0
        for n in self._block_sizes:
            offsets.append(off)
            off += n * n
        self._offsets = offsets
        self._path_index = {
            v: {names: i for i, (names, _src) in enumerate(self._paths[v])} for v in self.sinks
        }

        self.labels: list[tuple[str, tuple[str, ...], tuple[str, ...]]] = []
        degrees = np.zeros(self.dimension, dtype=np.int64)
        for b, v in enumerate(self.sinks):
            paths = self._paths[v]
            n = self._block_sizes[b]
            for i, (gi, _si) in enumerate(paths):
                for j, (lj, _sj) in enumerate(paths):
                    k = self._offsets[b] + i * n + j
                    self.labels.append((v, gi, lj))
                    degrees[k] = len(gi) - len(lj)
        self.degrees = degrees

        # structure triples: unit[ta] * unit[tb] = unit[tc]
        tas, tbs, tcs = [], [], []
        for b, n in enumerate(self._block_sizes):
            if n == 0:
                continue
            off = self._offsets[b]
            i, j, k = np.indices((n, n, n)).reshape(3, -1)
            tas.append(off + i * n + j)
            tbs.append(off + j * n + k)
            tcs.append(off + i * n + k)
        if tas:
            self._ta = np.concatenate(tas)
            self._tb = np.concatenate(tbs)
            self._tc = np.concatenate(tcs)
        else:
            self._ta = self._tb = self._tc = np.zeros(0, dtype=np.int64)

        # positions: the rows (equally, columns) of all blocks, numbered in
        # block order; unit k of block b sits at row position
        # starts[b] + _unit_i[k] and column position starts[b] + _unit_j[k]
        sizes = np.array(self._block_sizes, dtype=np.int64)
        firsts = np.array(offsets, dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        self._pos_size = np.repeat(sizes, sizes)
        self._pos_first_unit = np.repeat(firsts, sizes)
        unit_block = np.repeat(np.arange(sizes.size), sizes * sizes)
        local = np.arange(self.dimension) - firsts[unit_block]
        self._unit_i, self._unit_j = np.divmod(local, sizes[unit_block])
        self._unit_row_pos = starts[unit_block] + self._unit_i
        self._unit_col_pos = starts[unit_block] + self._unit_j

        self._vertex_images = {v: self._build_vertex_image(v) for v in graph.vertices}
        self._edge_images: dict[str, np.ndarray] = {}
        self._ghost_images: dict[str, np.ndarray] = {}
        for e in graph.edges:
            self._edge_images[e.name], self._ghost_images[e.name] = self._build_edge_images(e)
        self._audit_relations()

    # -- element helpers -------------------------------------------------------

    def zero(self) -> np.ndarray:
        return np.zeros(self.dimension, dtype=np.int64)

    def identity(self) -> np.ndarray:
        out = self.zero()
        for b, n in enumerate(self._block_sizes):
            off = self._offsets[b]
            for i in range(n):
                out[off + i * n + i] = 1
        return out

    def vertex_image(self, vertex: str) -> np.ndarray:
        self.graph.require_vertex(vertex)
        return self._vertex_images[vertex].copy()

    def edge_image(self, name: str) -> np.ndarray:
        return self._edge_images[name].copy()

    def ghost_image(self, name: str) -> np.ndarray:
        return self._ghost_images[name].copy()

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = self.zero()
        if self._ta.size:
            np.add.at(out, self._tc, x[self._ta] * y[self._tb])
        return out % self.p

    def product_rows(self, rows: np.ndarray):
        """Yield one matrix whose rows span every product unit * row and row * unit.

        It has at most 2 * dim rows, whatever the number of input rows.
        """
        yield self._unit_products(rows, transpose=False)

    def annihilator_constraints(self, rows: np.ndarray):
        """Yield one matrix of constraint rows for {a : a*x = x*a = 0 for x in rows}.

        For each x the equations (a*x)_k = 0 and (x*a)_k = 0 are linear in
        the coordinates of a; the rows of the yielded matrix span them, and
        there are at most 2 * dim of them.
        """
        yield self._unit_products(rows, transpose=True)

    def _unit_products(self, rows: np.ndarray, transpose: bool) -> np.ndarray:
        """Rows spanning the products of the rows by every matrix unit.

        Read each row x as its blocks x[b].  A left product unit * x copies
        one row of a block to another row position, and a right product
        x * unit copies one column.  So the left products of all rows span
        the elements whose block-b rows all lie in R_b, the span of the rows
        of every x[b], and the right products span those whose block-b
        columns all lie in C_b, the span of the columns.  The constraint
        (a*x)_k = 0 reads a column of x[b] along a row of a[b], and
        (x*a)_k = 0 reads a row of x[b] along a column, so when transposed
        the two spans trade places: rows in C_b and columns in R_b.

        Each basis vector of R_b (C_b) is placed at every row (column)
        position of its block, row-placed vectors first: at most
        sum(n_b * n_b) = dim rows per side.
        """
        dim = self.dimension
        if dim == 0 or rows.shape[0] == 0:
            return np.zeros((0, dim), dtype=np.int64)
        row_span, col_span = self._row_and_column_spans(rows)
        if transpose:
            row_span, col_span = col_span, row_span
        return np.vstack(
            [self._place(*row_span, along_rows=True), self._place(*col_span, along_rows=False)]
        )

    def _row_and_column_spans(self, rows: np.ndarray):
        """RREF bases of the spans of the block rows and of the block columns.

        The row (column) vectors of every block, each at its block's
        positions, form one block-diagonal matrix per side, whose RREF rows
        each lie in one block.  Both sides share one buffer, as the units
        of a block fill the same (row position, column position) pairs
        either way round.  The buffer holds a slice of the rows at a time,
        of at most ``_GATHER_ENTRIES`` entries, for algebras of many blocks.
        """
        width, p = self._pos_size.size, self.p
        row_span = col_span = np.zeros((0, width), dtype=np.int64), ()
        step = max(1, _GATHER_ENTRIES // (width * width))
        for start in range(0, rows.shape[0], step):
            chunk = rows[start : start + step]
            gathered = np.zeros((chunk.shape[0], width, width), dtype=np.int64)
            vectors = gathered.reshape(-1, width)
            gathered[:, self._unit_row_pos, self._unit_col_pos] = chunk
            row_span = reduce_rowspace(vectors[vectors.any(axis=1)], p, *row_span)
            gathered[:, self._unit_col_pos, self._unit_row_pos] = chunk
            col_span = reduce_rowspace(vectors[vectors.any(axis=1)], p, *col_span)
        return row_span, col_span

    def _place(self, basis: np.ndarray, pivots: tuple[int, ...], along_rows: bool) -> np.ndarray:
        """Each basis vector at every row (or column) position of its block.

        A vector of a block of size n gives n rows; its block is that of its
        pivot position.  The output is written by one scatter over the
        units of each vector's block, vector after vector.
        """
        piv = np.fromiter(pivots, dtype=np.int64, count=len(pivots))
        sizes = self._pos_size[piv]
        units = sizes * sizes
        vec = np.repeat(np.arange(piv.size), units)
        skip = self._pos_first_unit[piv] - (np.cumsum(units) - units)
        unit = np.arange(units.sum()) + np.repeat(skip, units)
        if along_rows:
            at, src = self._unit_i[unit], self._unit_col_pos[unit]
        else:
            at, src = self._unit_j[unit], self._unit_row_pos[unit]
        out = np.zeros((sizes.sum(), self.dimension), dtype=np.int64)
        out[np.repeat(np.cumsum(sizes) - sizes, units) + at, unit] = basis[vec, src]
        return out

    # -- construction internals ------------------------------------------------

    def _unit(self, block: int, i: int, j: int) -> int:
        n = self._block_sizes[block]
        return self._offsets[block] + i * n + j

    def _build_vertex_image(self, vertex: str) -> np.ndarray:
        out = self.zero()
        for b, v in enumerate(self.sinks):
            for i, (_names, src) in enumerate(self._paths[v]):
                if src == vertex:
                    out[self._unit(b, i, i)] = 1
        return out

    def _build_edge_images(self, edge) -> tuple[np.ndarray, np.ndarray]:
        """Images of the edge and of its ghost; the ghost's units are the edge's, transposed."""
        image, ghost = self.zero(), self.zero()
        for b, v in enumerate(self.sinks):
            index = self._path_index[v]
            for j, (names, src) in enumerate(self._paths[v]):
                if src == edge.dst:
                    i = index[(edge.name,) + names]
                    image[self._unit(b, i, j)] = 1
                    ghost[self._unit(b, j, i)] = 1
        return image, ghost

    def _audit_relations(self) -> None:
        """Check the defining relations on every generator image; bugs abort."""
        g = self.graph
        vi = self._vertex_images
        for u in g.vertices:
            for w in g.vertices:
                expect = vi[u] if u == w else self.zero()
                if not np.array_equal(self.mul(vi[u], vi[w]), expect):
                    raise RuntimeError(f"vertex idempotents not orthogonal at ({u}, {w})")
        for e in g.edges:
            img = self._edge_images[e.name]
            ghost = self._ghost_images[e.name]
            if not np.array_equal(self.mul(vi[e.src], img), img) or not np.array_equal(
                self.mul(img, vi[e.dst]), img
            ):
                raise RuntimeError(f"source/range relation fails for edge {e.name}")
            if not np.array_equal(self.mul(vi[e.dst], ghost), ghost) or not np.array_equal(
                self.mul(ghost, vi[e.src]), ghost
            ):
                raise RuntimeError(f"ghost source/range relation fails for edge {e.name}")
        for e in g.edges:
            for f in g.edges:
                expect = vi[e.dst] if e.name == f.name else self.zero()
                got = self.mul(self._ghost_images[e.name], self._edge_images[f.name])
                if not np.array_equal(got, expect):
                    raise RuntimeError(f"ghost-edge relation fails at ({e.name}, {f.name})")
        for v in sorted(g.regular_vertices()):
            acc = self.zero()
            for e in g.out_edges(v):
                product = self.mul(self._edge_images[e.name], self._ghost_images[e.name])
                acc = (acc + product) % self.p
            if not np.array_equal(acc, vi[v]):
                raise RuntimeError(f"range-decomposition relation fails at vertex {v}")
        total = self.zero()
        for v in g.vertices:
            total = (total + vi[v]) % self.p
        if not np.array_equal(total, self.identity()):
            raise RuntimeError("vertex idempotents do not sum to the identity")


def _paths_into(graph: Graph, sink: str) -> list[tuple[tuple[str, ...], str]]:
    """Paths ending at the sink, the trivial one included, as (edge names, source).

    Sorted by (length, names) for determinism.
    """
    done = []
    stack: list[tuple[tuple[str, ...], str]] = [((), sink)]
    while stack:
        names, src = stack.pop()
        done.append((names, src))
        for e in graph.in_edges(src):
            stack.append(((e.name,) + names, e.src))
    done.sort(key=lambda item: (len(item[0]), item[0]))
    return done


def require_exact_prime(p: int, dimension_cap: int = DEFAULT_DIMENSION_CAP) -> None:
    """Refuse p unless it is a prime with exact int64 arithmetic up to ``dimension_cap``.

    The bound is tested first: it is cheap, and it keeps the trial-division
    primality test, which is slow on huge inputs, to small p.
    """
    bound = max_exact_prime(dimension_cap)
    if p > bound:
        raise InvalidArgumentError(
            f"prime {p} is past {bound}, the largest p with exact int64 "
            f"arithmetic up to oracle dimension {dimension_cap}"
        )
    if not is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")


def build_oracle(graph: Graph, p: int, dimension_cap: int = DEFAULT_DIMENSION_CAP) -> OracleAlgebra:
    """Validated construction of the matrix oracle for an acyclic graph."""
    require_exact_prime(p, dimension_cap)
    if not graph.is_acyclic():
        raise OracleUnsupportedError("the matrix oracle covers acyclic graphs only")
    paths = {}
    dim = 0
    for v in sorted(graph.sinks()):
        paths[v] = _paths_into(graph, v)
        dim += len(paths[v]) ** 2
        if dim > dimension_cap:
            raise OracleDimensionError(
                f"oracle dimension exceeds the cap of {dimension_cap}"
            )
    return OracleAlgebra(graph, p, paths)


class Subspace:
    """Row space over GF(p), stored in canonical reduced echelon form."""

    def __init__(self, algebra: OracleAlgebra, vectors):
        self.algebra = algebra
        mat = as_matrix(vectors, algebra.dimension)
        self.basis, self.pivots = rref(mat, algebra.p)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def is_everything(self) -> bool:
        return self.dim == self.algebra.dimension

    def contains(self, vectors) -> bool:
        vectors = as_matrix([vectors] if np.ndim(vectors) == 1 else vectors, self.algebra.dimension)
        return not residual(vectors, self.basis, self.pivots, self.algebra.p).any()

    def signature(self) -> bytes:
        return self.basis.shape[0].to_bytes(4, "big") + self.basis.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.algebra.p == other.algebra.p
            and self.algebra.graph == other.algebra.graph
            and np.array_equal(self.basis, other.basis)
        )


class IdealSubspace(Subspace):
    """Subspace verified closed under two-sided multiplication by the basis units."""

    def __init__(self, algebra: OracleAlgebra, vectors):
        super().__init__(algebra, vectors)
        self._audit()

    def _audit(self) -> None:
        """Check closure under multiplication by every matrix unit on both sides."""
        if self.is_everything:
            return  # the full space is trivially closed
        (prods,) = self.algebra.product_rows(self.basis)
        if residual(prods, self.basis, self.pivots, self.algebra.p).any():
            raise ValueError("subspace is not closed under two-sided multiplication")

    @classmethod
    def _from_rref(cls, algebra: OracleAlgebra, basis: np.ndarray, pivots: tuple[int, ...]):
        """An ideal from an RREF basis, taken as it is: no reduction and no audit.

        The basis is copied: it may be a view of a larger work array, which
        a memo would otherwise keep alive.
        """
        ideal = cls.__new__(cls)
        ideal.algebra = algebra
        ideal.basis = basis.copy()
        ideal.pivots = pivots
        return ideal


def ideal_generated_by(algebra: OracleAlgebra, generators) -> IdealSubspace:
    """Least two-sided ideal containing the generators.

    Iterated row reduction to a fixed point: each round extends the basis
    by rows spanning the products of the round-start basis with every
    matrix unit on both sides.  A round that adds no rank ends the search,
    and so does full rank, since the whole algebra is an ideal.  That last
    round is a closure audit, so the result is not audited again.
    """
    dim, p = algebra.dimension, algebra.p
    basis, pivots = reduce_rowspace(as_matrix(generators, dim), p)
    start_rank = -1
    while start_rank < len(pivots) < dim:
        start_rank = len(pivots)
        (prods,) = algebra.product_rows(basis)
        basis, pivots = reduce_rowspace(prods, p, basis, pivots)
    return IdealSubspace._from_rref(algebra, basis, pivots)


class IdealMemo:
    """Ideals of vertex subsets and annihilators over one algebra, each built once.

    Holds one object per distinct ideal (interned by its RREF bytes), the
    ideal of every subset asked for and of its prefixes in graph vertex
    order, and the annihilator and vertex set of every ideal asked for.
    Create one per pass over an algebra and let it go with the pass.
    """

    def __init__(self, algebra: OracleAlgebra):
        self.algebra = algebra
        self._interned: dict[bytes, IdealSubspace] = {}
        self._by_subset: dict[tuple[str, ...], IdealSubspace] = {}
        self._perps: dict[bytes, IdealSubspace] = {}
        self._vertex_sets: dict[bytes, frozenset[str]] = {}

    def _intern(self, ideal: IdealSubspace) -> IdealSubspace:
        return self._interned.setdefault(ideal.signature(), ideal)

    def of_vertices(self, vertices) -> IdealSubspace:
        """Ideal generated by the images of the given vertices.

        A single vertex's ideal comes from :func:`ideal_generated_by`; the
        basis of a larger subset's ideal is that of the subset minus its last
        vertex, extended by the basis of that vertex's ideal.
        """
        algebra = self.algebra
        members = algebra.graph.vertex_subset(vertices)
        key = tuple(v for v in algebra.graph.vertices if v in members)
        for end in range(len(key) + 1):  # every prefix, shortest first
            prefix = key[:end]
            if prefix in self._by_subset:
                continue
            if end <= 1:
                ideal = ideal_generated_by(algebra, [algebra.vertex_image(v) for v in prefix])
            else:
                head, last = self._by_subset[prefix[:-1]], self.of_vertices(prefix[-1:])
                basis, pivots = reduce_rowspace(last.basis, algebra.p, head.basis, head.pivots)
                ideal = IdealSubspace._from_rref(algebra, basis, pivots)
            self._by_subset[prefix] = self._intern(ideal)
        return self._by_subset[key]

    def perp(self, ideal: IdealSubspace) -> IdealSubspace:
        """:func:`perp_subspace`, memoized by the RREF bytes of the argument."""
        key = ideal.signature()
        if key not in self._perps:
            self._perps[key] = self._intern(perp_subspace(self.algebra, ideal))
        return self._perps[key]

    def vertex_set(self, ideal: IdealSubspace) -> frozenset[str]:
        """:func:`vertex_set_of`, memoized by the RREF bytes of the argument."""
        key = ideal.signature()
        if key not in self._vertex_sets:
            self._vertex_sets[key] = vertex_set_of(self.algebra, ideal)
        return self._vertex_sets[key]


def perp_subspace(algebra: OracleAlgebra, ideal: IdealSubspace) -> IdealSubspace:
    """Two-sided annihilator {a : a*x = x*a = 0 for all x in the ideal}.

    Solved as the nullspace of the linear constraints coming from the basis
    elements of the ideal.  The nullspace comes out in RREF, so it is not
    reduced again; it is still audited to be an ideal.
    """
    dim, p = algebra.dimension, algebra.p
    (cons,) = algebra.annihilator_constraints(ideal.basis)
    kernel, pivots = nullspace_from_rref(*reduce_rowspace(cons, p), p, dim)
    perp = IdealSubspace._from_rref(algebra, kernel, pivots)
    perp._audit()
    return perp


def vertex_set_of(algebra: OracleAlgebra, subspace: Subspace) -> frozenset[str]:
    """Vertices whose generator image lies in the subspace.

    All vertex images are reduced against the basis at once; a zero
    residual row marks a member.
    """
    vertices = algebra.graph.vertices
    images = as_matrix([algebra.vertex_image(v) for v in vertices], algebra.dimension)
    outside = residual(images, subspace.basis, subspace.pivots, algebra.p).any(axis=1)
    return frozenset(v for v, out in zip(vertices, outside) if not out)


def is_graded_subspace(algebra: OracleAlgebra, subspace: Subspace) -> bool:
    """True iff each homogeneous component of each basis element stays inside.

    The components of the basis rows in every degree of the algebra are
    stacked and tested with one membership call per batch of at most
    ``_BATCH_ENTRIES`` entries; the algebras of `verify` take one batch.
    """
    degrees = algebra.degrees
    levels = np.unique(degrees)
    step = max(1, _BATCH_ENTRIES // max(1, levels.size * algebra.dimension))
    for start in range(0, subspace.dim, step):
        block = subspace.basis[start : start + step]
        components = np.where(degrees == levels[:, None, None], block, 0).reshape(
            -1, algebra.dimension
        )
        if not subspace.contains(components[components.any(axis=1)]):
            return False
    return True
