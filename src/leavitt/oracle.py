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
ideals and annihilators are computed by genuine row reduction over GF(p)
with no graph-theoretic shortcuts, and gradedness is read off the RREF basis
(a subspace is graded iff every basis row is homogeneous).

Costs are polynomial in the algebra dimension but the dimension itself is
exponential-ish in graph size; intended inputs are desk-scale graphs,
capped at ``DEFAULT_DIMENSION_CAP``.  All arithmetic is exact int64, which
bounds the prime by the cap (see :func:`leavitt.gfp.max_exact_prime`).

An element is read through one view, its blocks: the n x n matrix of
each sink, for one element or a stack of rows (``OracleAlgebra._blocks``).
A product is one block product per sink where the left factor is nonzero.
Products by matrix units drive everything: ideal generation, the closure
audit and the annihilator constraints.  A unit product copies one row or
one column of a block, so the products of any number of elements by every
unit on block b are spanned by the rows of kron(I, R_b) and kron(C_b, I),
where R_b and C_b are RREF bases of the spans of their block rows and
block columns: at most 2 * dim rows (``OracleAlgebra._unit_products``).
Both halves are themselves in RREF and are yielded as two batches.

Every RREF basis here grows by :func:`leavitt.gfp.reduce_rowspace`, which
extends a basis by new rows.  :func:`ideal_generated_by` and
:func:`perp_subspace` start each reduction from the first half, whose
RREF form :func:`leavitt.gfp.rref_pivots` checks rather than trusts, and
reduce only the rest into it.  Ideals of vertex subsets are built once
each by :class:`IdealMemo`: the ideal generated by a set is the sum of the
ideals generated by its elements (ring theory, not the vertex calculus
under test), so the basis of the ideal of X is that of X minus its last
vertex, extended by the basis of that vertex's ideal; that sum is reduced
once per pair of interned ideals.  Bases are interned by their RREF bytes
(built once per object), and annihilators and vertex sets are memoized by
the RREF bytes of their argument.

The public :class:`IdealSubspace` constructor audits closure under
multiplication by every matrix unit.  Ideals from :func:`ideal_generated_by`
skip that audit, because its last round is that audit, and so do the
subset ideals of :class:`IdealMemo`, because a sum of ideals is an ideal.
The result of :func:`perp_subspace` is still audited, but not row-reduced
again: the nullspace comes out in RREF.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InvalidArgumentError, OracleDimensionError, OracleUnsupportedError
from .gfp import (
    as_matrix,
    is_prime,
    matmul_mod,
    max_exact_prime,
    nullspace_from_rref,
    reduce_rowspace,
    residual,
    rref,
    rref_pivots,
)
from .graphs import Graph

DEFAULT_DIMENSION_CAP = 2000


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
        self._block_sizes = [len(paths[v]) for v in self.sinks]
        squares = [n * n for n in self._block_sizes]
        self.dimension = sum(squares)
        self._offsets = [end - sq for end, sq in zip(itertools.accumulate(squares), squares)]
        self._path_index = {
            v: {names: i for i, (names, _src) in enumerate(paths[v])} for v in self.sinks
        }

        self.labels = [(v, g, l) for v in self.sinks for g, _ in paths[v] for l, _ in paths[v]]
        self.degrees = np.array([len(g) - len(l) for _v, g, l in self.labels], dtype=np.int64)

        self._vertex_images = self._build_vertex_images()
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
        for block in self._blocks(out):
            np.fill_diagonal(block, 1)
        return out

    def vertex_image(self, vertex: str) -> np.ndarray:
        self.graph.require_vertex(vertex)
        return self._vertex_images[vertex].copy()

    def edge_image(self, name: str) -> np.ndarray:
        return self._edge_images[name].copy()

    def ghost_image(self, name: str) -> np.ndarray:
        return self._ghost_images[name].copy()

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The product x*y, block by block; y may be a stack of rows, each multiplied by x.

        Only the blocks where x is nonzero are read: the rest stay zero.
        """
        out = np.zeros(y.shape, dtype=np.int64)
        support = np.searchsorted(self._offsets, np.flatnonzero(x), side="right") - 1
        for b in sorted(set(support.tolist())):
            self._block(out, b)[...] = matmul_mod(self._block(x, b), self._block(y, b), self.p)
        return out

    def _block(self, x: np.ndarray, b: int) -> np.ndarray:
        """The n_b x n_b view of block b of x, for one element or a stack of rows."""
        off, n = self._offsets[b], self._block_sizes[b]
        return x[..., off : off + n * n].reshape(*x.shape[:-1], n, n)

    def _blocks(self, x: np.ndarray) -> list[np.ndarray]:
        """The view of every sink's block of x, in sink order."""
        return [self._block(x, b) for b in range(len(self.sinks))]

    def product_rows(self, rows: np.ndarray):
        """Yield two RREF matrices whose rows together span every unit * row and row * unit.

        The left products' span comes first, then the right products'; each
        has at most dim rows, whatever the number of input rows.
        """
        yield from self._unit_products(rows, transpose=False)

    def annihilator_constraints(self, rows: np.ndarray):
        """Yield two RREF matrices of constraint rows for {a : a*x = x*a = 0 for x in rows}.

        For each x the equations (a*x)_k = 0 and (x*a)_k = 0 are linear in
        the coordinates of a; the rows of the two yielded matrices together
        span them, and each has at most dim rows.
        """
        yield from self._unit_products(rows, transpose=True)

    def _unit_products(self, rows: np.ndarray, transpose: bool) -> tuple[np.ndarray, np.ndarray]:
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

        With R_b and C_b as RREF bases, those spans are the rows of
        kron(I, R_b) and kron(C_b, I) on block b: at most
        sum(n_b * n_b) = dim rows per side.  Each side is returned in RREF:
        row (i, j) of kron(I, R_b) has its leading 1 at column i * n + (pivot
        j of R_b), and row (k, i) of kron(C_b, I) at (pivot k of C_b) * n + i,
        both increasing in row order; no other row of the side is nonzero
        there, because R_b and C_b are RREF; and the blocks come in column
        order.
        """
        dim, p = self.dimension, self.p
        empty = np.zeros((0, dim), dtype=np.int64)
        left, right = [empty], [empty]
        for off, x in zip(self._offsets, self._blocks(rows)):
            if not x.any():
                continue
            n = x.shape[-1]
            row_basis = reduce_rowspace(x.reshape(-1, n), p)[0]
            col_basis = reduce_rowspace(x.transpose(0, 2, 1).reshape(-1, n), p)[0]
            if transpose:
                row_basis, col_basis = col_basis, row_basis
            eye = np.eye(n, dtype=np.int64)
            krons = (
                eye[:, None, :, None] * row_basis[None, :, None, :],
                col_basis[:, None, :, None] * eye[None, :, None, :],
            )
            for side, kron in zip((left, right), krons):
                placed = np.zeros((kron.shape[0] * kron.shape[1], dim), dtype=np.int64)
                placed[:, off : off + n * n] = kron.reshape(placed.shape[0], n * n)
                side.append(placed)
        return np.vstack(left), np.vstack(right)

    # -- construction internals ------------------------------------------------

    def _build_vertex_images(self) -> dict[str, np.ndarray]:
        """The image of each vertex: the diagonal unit of every path that starts there."""
        images = {v: self.zero() for v in self.graph.vertices}
        for b, v in enumerate(self.sinks):
            for i, (_names, src) in enumerate(self._paths[v]):
                self._block(images[src], b)[i, i] = 1
        return images

    def _build_edge_images(self, edge) -> tuple[np.ndarray, np.ndarray]:
        """Images of the edge and of its ghost; the ghost's units are the edge's, transposed."""
        image, ghost = self.zero(), self.zero()
        for image_b, ghost_b, v in zip(self._blocks(image), self._blocks(ghost), self.sinks):
            index = self._path_index[v]
            for j, (names, src) in enumerate(self._paths[v]):
                if src == edge.dst:
                    i = index[(edge.name,) + names]
                    image_b[i, j] = 1
                    ghost_b[j, i] = 1
        return image, ghost

    def _audit_relations(self) -> None:
        """Check the defining relations on every generator image; bugs abort."""
        g = self.graph
        vi = self._vertex_images

        def first_bad(x, stack, k, expect):
            """Index of the first row s with x*s unlike (expect at row k, else zero), or -1."""
            want = np.zeros_like(stack)
            want[k] = expect
            bad = (self.mul(x, stack) != want).any(axis=1)
            return int(bad.argmax()) if bad.any() else -1

        vertex_stack = as_matrix([vi[v] for v in g.vertices], self.dimension)
        for k, u in enumerate(g.vertices):
            w = first_bad(vi[u], vertex_stack, k, vi[u])
            if w >= 0:
                raise RuntimeError(f"vertex idempotents not orthogonal at ({u}, {g.vertices[w]})")
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
        edge_stack = as_matrix([self._edge_images[f.name] for f in g.edges], self.dimension)
        for k, e in enumerate(g.edges):
            f = first_bad(self._ghost_images[e.name], edge_stack, k, vi[e.dst])
            if f >= 0:
                raise RuntimeError(f"ghost-edge relation fails at ({e.name}, {g.edges[f].name})")
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
    """Row space over GF(p), stored in canonical reduced echelon form.

    The basis is not changed after construction, so the signature is built
    once, on first use.
    """

    _signature: bytes | None = None

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

    def signature(self) -> bytes:
        if self._signature is None:
            self._signature = self.basis.shape[0].to_bytes(4, "big") + self.basis.tobytes()
        return self._signature

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
        for prods in self.algebra.product_rows(self.basis):
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

    Iterated row reduction to a fixed point: each round takes the span of
    the round-start basis and of its products with every matrix unit on
    both sides.  The left products come in RREF, so a round starts from
    them as its basis (checked, not trusted) and reduces only the right
    products into it.  The round-start basis needs no reduction: each
    element x is the sum of the products e_ii * x by the diagonal units, so
    it lies in the span of the left products already (a ring identity, not
    the vertex calculus).  A round that adds no rank ends the search, and
    so does full rank, since the whole algebra is an ideal.  That last
    round is a closure audit, so the result is not audited again.
    """
    dim, p = algebra.dimension, algebra.p
    basis, pivots = reduce_rowspace(as_matrix(generators, dim), p)
    start_rank = -1
    while start_rank < len(pivots) < dim:
        start_rank = len(pivots)
        left, right = algebra.product_rows(basis)
        basis, pivots = reduce_rowspace(right, p, left, rref_pivots(left))
    return IdealSubspace._from_rref(algebra, basis, pivots)


class IdealMemo:
    """Ideals of vertex subsets and annihilators over one algebra, each built once.

    Holds one object per distinct ideal (interned by its RREF bytes), the
    ideal of every subset asked for and of its prefixes in graph vertex
    order, the sum of every pair of interned ideals it has added, and the
    annihilator and vertex set of every ideal asked for.  Create one per
    pass over an algebra and let it go with the pass.
    """

    def __init__(self, algebra: OracleAlgebra):
        self.algebra = algebra
        self._interned: dict[bytes, IdealSubspace] = {}
        self._by_subset: dict[tuple[str, ...], IdealSubspace] = {}
        self._sums: dict[tuple[bytes, bytes], IdealSubspace] = {}
        self._perps: dict[bytes, IdealSubspace] = {}
        self._vertex_sets: dict[bytes, frozenset[str]] = {}

    def _intern(self, ideal: IdealSubspace) -> IdealSubspace:
        return self._interned.setdefault(ideal.signature(), ideal)

    def of_vertices(self, vertices) -> IdealSubspace:
        """Ideal generated by the images of the given vertices.

        A single vertex's ideal comes from :func:`ideal_generated_by`; the
        basis of a larger subset's ideal is that of the subset minus its last
        vertex, extended by the basis of that vertex's ideal.  That sum is
        built once per pair of interned ideals, however many subsets share it.
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
                self._by_subset[prefix] = self._intern(ideal)
                continue
            head, last = self._by_subset[prefix[:-1]], self.of_vertices(prefix[-1:])
            pair = (head.signature(), last.signature())
            if pair not in self._sums:
                basis, pivots = reduce_rowspace(last.basis, algebra.p, head.basis, head.pivots)
                ideal = IdealSubspace._from_rref(algebra, basis, pivots)
                self._sums[pair] = self._intern(ideal)
            self._by_subset[prefix] = self._sums[pair]
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
    elements of the ideal.  The constraints come in two RREF halves, so the
    reduction starts from the first (checked, not trusted) and reduces only
    the second into it.  The nullspace comes out in RREF, so it is not
    reduced again; it is still audited to be an ideal.
    """
    dim, p = algebra.dimension, algebra.p
    left, right = algebra.annihilator_constraints(ideal.basis)
    kernel, pivots = nullspace_from_rref(*reduce_rowspace(right, p, left, rref_pivots(left)), p, dim)
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
    """True iff every row of the RREF basis is homogeneous: no solve needed.

    A row is homogeneous iff its nonzero entries all have the degree of its
    pivot column.  If S is the sum of its components S_d, these sit on
    disjoint columns, so the union of their RREF bases is in RREF and, by
    uniqueness, is the RREF basis of S; and homogeneous rows always span a
    graded space.  Rows that pass span a graded space whether or not they
    are reduced, so a basis that is not fully reduced can only give a false
    "not graded", never a false "graded".
    """
    pivot_degrees = algebra.degrees[list(subspace.pivots)]
    return not ((subspace.basis != 0) & (algebra.degrees != pivot_degrees[:, None])).any()
