"""Matrix-block realization of the path algebra of a finite acyclic graph.

For a finite acyclic graph the path algebra over a field decomposes as one
full matrix block per sink, of size the number of paths ending at that
sink.  Concretely the basis consists of matrix units ``e[v; g, l]`` where
``v`` is a sink and ``g``, ``l`` are paths into ``v``, multiplying by

    e[v; g, l] * e[w; m, n] = (v == w and l == m) * e[v; g, n]

with the integer grading ``deg e[v; g, l] = len(g) - len(l)``.  The
vertices, edges and ghost edges have explicit images on this basis, three
read-only matrices of one row per generator, and the defining relations
are audited at construction, one batched product per relation and block.
That makes the module a brute-force referee for the vertex-set calculus:
ideals and annihilators are computed by genuine row reduction over GF(p)
with no graph-theoretic shortcuts, and gradedness is read off the RREF basis
(a subspace is graded iff every basis row is homogeneous).

Costs are polynomial in the algebra dimension but the dimension itself is
exponential-ish in graph size; intended inputs are desk-scale graphs,
capped at ``DEFAULT_DIMENSION_CAP``, which is checked on path counts
before any path is listed.  All arithmetic is exact int64, which bounds
the prime by the cap (see :func:`leavitt.gfp.max_exact_prime`).

An element is read through one view, its blocks: the n x n matrix of
each sink, for one element or a stack of rows (``OracleAlgebra._block``).
Products by matrix units drive everything: ideal generation, the closure
audit and the annihilator constraints.  A unit product copies one row or
one column of a block, so the products of any number of n x n matrices by
every unit are spanned by the rows of kron(I, R) and kron(C, I), where R
and C are RREF bases of the spans of their rows and of their columns: at
most 2 * n * n rows (:func:`_block_products`).  Both halves are in RREF.

Each sink block is a two-sided ideal, cut out by the central idempotent
1_b (the sum of the block's diagonal units), so every ideal is the direct
sum of its blocks, and ideals, annihilators and sums of ideals are solved
one block at a time, on the block's n * n columns (a ring identity, not the
vertex calculus under test): :func:`ideal_generated_by`,
:func:`perp_subspace` and :func:`sum_of_ideals`.  The ideal generated by S
is A·S·A in one pass, the right products of the left products of S,
followed by a closure audit; each block annihilator is a nullspace,
audited to be an ideal, reduced from the first constraint half.
Product halves come in RREF, which :func:`leavitt.gfp.rref_pivots` checks
rather than trusts.  An :class:`IdealSubspace` is held as its block spans,
one RREF basis and its pivots per block, just as the solves return them;
the next solve, sum or query reads them as they are.  Vertex sets and
gradedness are read block by block too: an element lies in a direct sum
iff each block of it lies in that block's span, and the whole RREF basis
is the blocks' bases side by side.  The whole-algebra basis is stitched
from the spans only when asked for, by the tests and the benchmark tracer.

A span is named by its :func:`_span_key`: its pivots when it has full
rank, as its RREF basis is then the identity, and its RREF bytes
otherwise.  A command that solves many ideals, such as ``oracle-check`` or
``verify``, runs inside :func:`block_cache`: there each block solve is
memoized by its kind, p, n and the keys of its input spans, its result is
still audited once, and equal results are interned as one read-only
array.  The input of an ideal solve is R, the row basis of the
generators' block, which is all that A·S reads of them, so generators
with one row space share one solve.  The cache is held in a context
variable for the length of the command (and, in a worker process of
``verify``, for the worker's life, which is within one command); it is
never stored on an algebra, and outside a command nothing is cached.
The solves are deterministic, so the cache changes costs, not results.
It is the oracle's only memo: whole-algebra results (ideals, annihilators,
vertex sets) are not kept, and a caller that asks twice pays the per-block
cache lookups again.  The ideal generated by a set is the sum of the
ideals generated by its elements, so a caller builds the ideal of a vertex
set by folding :func:`sum_of_ideals` over its vertices' ideals; a block of
an ideal is 0 or the whole block, so each such sum is a pick, not a solve.
Two ideals compare equal by their block key: the tuple of the key of each
block span.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from functools import cached_property
from contextvars import ContextVar, Token
from graphlib import TopologicalSorter

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
    rref_pivots,
)
from .graphs import Graph

DEFAULT_DIMENSION_CAP = 2000

SpanKey = bytes | tuple[int, ...]  # see _span_key
BlockKey = tuple[SpanKey, ...]


class OracleAlgebra:
    """Explicit finite-dimensional algebra over GF(p) for an acyclic graph.

    Use :func:`build_oracle` rather than constructing directly; the factory
    validates the graph, the prime and the dimension cap, and passes the
    paths into each sink, listed once the cap is checked, as ``paths``.
    """

    def __init__(self, graph: Graph, p: int, paths: dict[str, list[tuple[tuple[str, ...], str]]]):
        self.graph = graph
        self.p = p
        self.sinks = tuple(sorted(paths))
        self._block_sizes = [len(paths[v]) for v in self.sinks]
        squares = [n * n for n in self._block_sizes]
        self.dimension = sum(squares)
        self._offsets = [end - sq for end, sq in zip(itertools.accumulate(squares), squares)]

        self.labels = [(v, g, l) for v in self.sinks for g, _ in paths[v] for l, _ in paths[v]]
        self.degrees = np.array([len(g) - len(l) for _v, g, l in self.labels], dtype=np.int64)

        self._vertex_row = {v: k for k, v in enumerate(graph.vertices)}
        self._edge_row = {e.name: k for k, e in enumerate(graph.edges)}
        images = self._build_images(paths)
        for matrix in images:
            matrix.flags.writeable = False
        self._vertex_matrix, self._edge_matrix, self._ghost_matrix = images
        self._audit_relations()

    # -- element helpers -------------------------------------------------------

    def vertex_image(self, vertex: str) -> np.ndarray:
        self.graph.require_vertex(vertex)
        return self._vertex_matrix[self._vertex_row[vertex]].copy()

    def _columns(self, b: int) -> slice:
        """The n_b * n_b coordinates of block b."""
        off, n = self._offsets[b], self._block_sizes[b]
        return slice(off, off + n * n)

    def _block(self, x: np.ndarray, b: int) -> np.ndarray:
        """The n_b x n_b view of block b of x, for one element or a stack of rows."""
        n = self._block_sizes[b]
        return x[..., self._columns(b)].reshape(*x.shape[:-1], n, n)

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
        """The two halves of :func:`_block_products` of each block where a row
        is nonzero, placed in the block's columns, blocks in column order.

        Each half stays in RREF: a row of block b has its leading 1 in
        block b's columns, and the blocks come in column order.
        """
        left, right = [], []
        for b, n in enumerate(self._block_sizes):
            x = self._block(rows, b)
            if x.any():
                for side, half in zip((left, right), _block_products(x, n, self.p, transpose)):
                    side.append((b, half))
        return _stitch(self, left), _stitch(self, right)

    # -- construction internals ------------------------------------------------

    def _build_images(self, paths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The vertex, edge and ghost edge images, one row each in graph order.

        Vertex v is the diagonal unit of every path from v.  A path of positive
        length, its first edge e then a path g, gives e the unit at (path, g);
        a ghost's units are its edge's, transposed.
        """
        vertices = np.zeros((len(self._vertex_row), self.dimension), dtype=np.int64)
        edges = np.zeros((len(self._edge_row), self.dimension), dtype=np.int64)
        ghosts = np.zeros_like(edges)
        for b, v in enumerate(self.sinks):
            index = {names: i for i, (names, _src) in enumerate(paths[v])}
            vertex_b, edge_b = self._block(vertices, b), self._block(edges, b)
            for i, (names, src) in enumerate(paths[v]):
                vertex_b[self._vertex_row[src], i, i] = 1
                if names:
                    edge_b[self._edge_row[names[0]], i, index[names[1:]]] = 1
            self._block(ghosts, b)[...] = edge_b.transpose(0, 2, 1)
        return vertices, edges, ghosts

    def _audit_relations(self) -> None:
        """Check the defining relations on the generator images; bugs abort.

        Each relation is one batched product per block.  The failures are
        ORed over the blocks, and the first is raised in a fixed order:
        vertex pairs; edge by edge, its source/range relation before its
        ghost's; edge pairs; emitters in sorted order; the vertex sum.
        """
        g, p = self.graph, self.p
        src = np.array([self._vertex_row[e.src] for e in g.edges], dtype=np.intp)
        dst = np.array([self._vertex_row[e.dst] for e in g.edges], dtype=np.intp)
        emitters = sorted(g.regular_vertices())
        emitter_rows = np.array([self._vertex_row[v] for v in emitters], dtype=np.intp)
        out_edges = (src == emitter_rows[:, None]).astype(np.int64)
        nv, ne = len(g.vertices), len(g.edges)
        vertex_bad, pair_bad = np.zeros((nv, nv), dtype=bool), np.zeros((ne, ne), dtype=bool)
        # per edge: its source/range relation, then its ghost's
        edge_bad, range_bad = np.zeros((ne, 2), dtype=bool), np.zeros(len(emitters), dtype=bool)
        sum_bad = False

        def differs(x, y, want):
            """One flag per matrix of a stack: x * y, mod p, is not ``want``."""
            return (matmul_mod(x, y, p) != want).any(axis=(1, 2))

        def pairs_differ(x, y, diagonal):
            """Flags (i, j): x[i] * y[j] is not (i == j) * diagonal[i].  One matrix
            product over the i where one of the three is nonzero: the rest give 0 = 0."""
            bad = np.zeros((len(x), len(x)), dtype=bool)
            live = np.flatnonzero(x.any((1, 2)) | y.any((1, 2)) | diagonal.any((1, 2)))
            k, n = len(live), x.shape[1]
            rows, cols = x[live].reshape(-1, n), y[live].transpose(1, 0, 2).reshape(n, k * n)
            prod = matmul_mod(rows, cols, p).reshape(k, n, k, n).transpose(0, 2, 1, 3)
            prod[np.arange(k), np.arange(k)] -= diagonal[live]
            bad[np.ix_(live, live)] = prod.any(axis=(2, 3))
            return bad

        images = (self._vertex_matrix, self._edge_matrix, self._ghost_matrix)
        for b, n in enumerate(self._block_sizes):
            v, e, ghost = (self._block(m, b) for m in images)
            s, r = v[src], v[dst]
            vertex_bad |= pairs_differ(v, v, v)
            edge_bad[:, 0] |= differs(s, e, e) | differs(e, r, e)
            edge_bad[:, 1] |= differs(r, ghost, ghost) | differs(ghost, s, ghost)
            pair_bad |= pairs_differ(ghost, e, r)
            sums = np.tensordot(out_edges, matmul_mod(e, ghost, p), axes=1) % p
            range_bad |= (sums != v[emitter_rows]).any(axis=(1, 2))
            sum_bad |= (v.sum(axis=0) % p != np.eye(n, dtype=np.int64)).any()

        if vertex_bad.any():
            u, w = (g.vertices[k] for k in np.argwhere(vertex_bad)[0])
            raise RuntimeError(f"vertex idempotents not orthogonal at ({u}, {w})")
        if edge_bad.any():
            k, of_ghost = np.argwhere(edge_bad)[0]
            kind = "ghost source/range" if of_ghost else "source/range"
            raise RuntimeError(f"{kind} relation fails for edge {g.edges[k].name}")
        if pair_bad.any():
            e, f = (g.edges[k].name for k in np.argwhere(pair_bad)[0])
            raise RuntimeError(f"ghost-edge relation fails at ({e}, {f})")
        if range_bad.any():
            v = emitters[range_bad.argmax()]
            raise RuntimeError(f"range-decomposition relation fails at vertex {v}")
        if sum_bad:
            raise RuntimeError("vertex idempotents do not sum to the identity")


def require_exact_prime(p: int) -> None:
    """Refuse p unless it is a prime with exact int64 arithmetic up to the dimension cap.

    The bound is tested first: it is cheap, and it keeps the trial-division
    primality test, which is slow on huge inputs, to small p.
    """
    bound = max_exact_prime(DEFAULT_DIMENSION_CAP)
    if p > bound:
        raise InvalidArgumentError(
            f"prime {p} is past {bound}, the largest p with exact int64 "
            f"arithmetic up to oracle dimension {DEFAULT_DIMENSION_CAP}"
        )
    if not is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")


def build_oracle(graph: Graph, p: int) -> OracleAlgebra:
    """Validated construction of the matrix oracle for an acyclic graph."""
    require_exact_prime(p)
    return OracleAlgebra(graph, p, _sink_paths(graph))


def _sink_paths(graph: Graph) -> dict[str, list[tuple[tuple[str, ...], str]]]:
    """The paths into each sink, which index the oracle's blocks; refused for
    a cyclic graph, which has infinitely many, and past the dimension cap.

    The paths ending at v are the trivial one plus, for each edge into v,
    those ending at its source extended by that edge.  One pass in
    topological order counts them (exact Python ints) for the cap check; a
    second lists them, as (edge names, source) sorted by (length, names).
    """
    if not graph.is_acyclic():
        raise OracleUnsupportedError("the matrix oracle covers acyclic graphs only")
    sources = {v: [e.src for e in graph.in_edges(v)] for v in graph.vertices}
    order = list(TopologicalSorter(sources).static_order())
    ending = {}
    for v in order:
        ending[v] = 1 + sum(ending[u] for u in sources[v])
    sinks = sorted(graph.sinks())
    if sum(ending[v] ** 2 for v in sinks) > DEFAULT_DIMENSION_CAP:
        raise OracleDimensionError(f"oracle dimension exceeds the cap of {DEFAULT_DIMENSION_CAP}")
    listed = {}
    for v in order:
        listed[v] = [((), v)] + [
            (names + (e.name,), src) for e in graph.in_edges(v) for names, src in listed[e.src]
        ]
    return {v: sorted(listed[v], key=lambda path: (len(path[0]), path[0])) for v in sinks}


def _block_products(x: np.ndarray, n: int, p: int, transpose: bool):
    """Rows spanning the products of n x n matrices by every matrix unit: the
    left products (:func:`_left_products`), then the right ones.

    ``x`` is a stack of the matrices, or of their rows of n * n entries.  The
    constraint (a*x)_k = 0 reads a column of x along a row of a, and
    (x*a)_k = 0 reads a row along a column, so when transposed both halves
    are taken of the transposed matrices: rows in C and columns in R.
    """
    x = x.reshape(-1, n, n).transpose(0, 2, 1) if transpose else x
    return _left_products(x, n, p), _right_products(x, n, p)


def _left_products(x: np.ndarray, n: int, p: int) -> np.ndarray:
    """kron(I, R), R the RREF basis of the span of the rows of the n x n matrices x.

    A left product unit * x copies one row of x to another row, so the left
    products of all of x span the matrices whose rows lie in R
    (:func:`_row_kron`).
    """
    return _row_kron(reduce_rowspace(x.reshape(-1, n), p)[0], n)


def _row_kron(row_basis: np.ndarray, n: int) -> np.ndarray:
    """kron(I, R) for an RREF basis R of rows of length n: the n x n matrices
    whose rows lie in R, flattened row-major.  Row (i, j) leads at column
    i * n + (pivot j of R), and R is RREF, so these rows are in RREF too."""
    eye = np.eye(n, dtype=np.int64)
    return (eye[:, None, :, None] * row_basis[None, :, None, :]).reshape(-1, n * n)


def _right_products(x: np.ndarray, n: int, p: int) -> np.ndarray:
    """kron(C, I), C the RREF basis of the span of the columns of the matrices x.

    A right product x * unit copies one column, so the right products span
    the matrices whose columns lie in C.  Row (k, i) leads at column (pivot
    k of C) * n + i: in RREF as well.
    """
    col_basis = reduce_rowspace(x.reshape(-1, n, n).transpose(0, 2, 1).reshape(-1, n), p)[0]
    eye = np.eye(n, dtype=np.int64)
    return (col_basis[:, None, :, None] * eye[None, :, None, :]).reshape(-1, n * n)


def _stitch(algebra: OracleAlgebra, blocks: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Stack the rows of each (block index, rows) pair, in the order given,
    each placed in its block's columns of the whole algebra."""
    stitched = np.zeros((sum(len(rows) for _b, rows in blocks), algebra.dimension), dtype=np.int64)
    start = 0
    for b, rows in blocks:
        stitched[start : start + len(rows), algebra._columns(b)] = rows
        start += len(rows)
    return stitched


class IdealSubspace:
    """A two-sided ideal of the oracle algebra, held as its block spans.

    An ideal is the direct sum of its blocks: ``spans[b]`` is the RREF basis
    and pivots of block b on the block's n * n columns, as the block solves
    return them.  The spans are taken as given, with no audit: the block
    solves audit their results, and a sum of ideals is an ideal.  The
    whole-algebra ``basis`` is stitched from the spans on first use, for
    the tests and the benchmark tracer; the oracle itself compares ideals
    by :attr:`block_key`.
    """

    def __init__(self, algebra: OracleAlgebra, spans):
        self.algebra = algebra
        self.spans = tuple(spans)

    @property
    def dim(self) -> int:
        return sum(len(pivots) for _basis, pivots in self.spans)

    @cached_property
    def basis(self) -> np.ndarray:
        """The whole-algebra RREF basis, stitched from the spans.

        A span's rows sit on its block's columns and the blocks come in
        column order, so the stacked rows are already the RREF of the whole.
        """
        return _stitch(self.algebra, [(b, basis) for b, (basis, _pivots) in enumerate(self.spans)])

    @property
    def block_key(self) -> BlockKey:
        """The :func:`_span_key` of each block span: two ideals of one algebra
        are equal iff their keys are.  Built on each read, which costs less
        than a cached property when, as here, a key is read once or twice."""
        return tuple(_span_key(*span) for span in self.spans)

    def __eq__(self, other) -> bool:
        """Equal ideals of algebras of one graph and one prime, however many
        times the algebra was built."""
        if not isinstance(other, IdealSubspace):
            return NotImplemented
        mine, theirs = self.algebra, other.algebra
        return mine.p == theirs.p and mine.graph == theirs.graph and self.block_key == other.block_key


def _span_key(basis: np.ndarray, pivots: tuple[int, ...]) -> SpanKey:
    """What names a span among those of its width: the pivots alone when it
    has full rank, as a full-rank RREF basis is the identity; otherwise the
    RREF bytes.  Keys of one width are equal iff their spans are."""
    return pivots if len(pivots) == basis.shape[1] else basis.tobytes()


def _check_closed(products, basis: np.ndarray, pivots: tuple[int, ...], p: int) -> None:
    """Raise unless every batch of unit products lies in the span of the RREF basis."""
    for prods in products:
        if residual(prods, basis, pivots, p).any():
            raise ValueError("subspace is not closed under two-sided multiplication")


# -- block solves ------------------------------------------------------------------
#
# A span of one block is an RREF basis on the block's n * n columns and its
# pivots.  The module docstring says why ideals, annihilators and sums of
# ideals may be solved one block at a time.

# (memoized solves, interned results) of the current command, if any
_BLOCK_CACHE: ContextVar[tuple[dict, dict] | None] = ContextVar("block_cache", default=None)


def start_block_cache() -> Token:
    """Give the current context an empty block cache; return the token that restores the last one.

    A process that does the work of one command until it ends, such as a
    worker of ``verify``'s pool, calls this once and keeps the cache.
    """
    return _BLOCK_CACHE.set(({}, {}))


@contextmanager
def block_cache():
    """Reuse block solves for the length of the body: one command.

    Within it, each block solve is memoized under its kind, p, n and the
    :func:`_span_key` of each input span, and its results are interned by
    their shape and key, so equal results share one read-only array.  The
    solves are deterministic, so the cache changes no result, only its
    cost.  Outside any such body nothing is cached.  Also a decorator: each call of the
    decorated function gets its own cache.
    """
    token = start_block_cache()
    try:
        yield
    finally:
        _BLOCK_CACHE.reset(token)


def _solve(kind: str, solve, n: int, p: int, *spans):
    """``solve(n, p, *spans)``, memoized in the current block cache if there
    is one, under the :func:`_span_key` of each input span."""
    cache = _BLOCK_CACHE.get()
    if cache is None:
        return solve(n, p, *spans)
    solves, results = cache
    key = (kind, p, n, *(_span_key(*span) for span in spans))
    if key not in solves:
        basis, pivots = solve(n, p, *spans)
        basis = np.array(basis)  # its own copy: the solve's may view a larger work array
        basis.flags.writeable = False
        solves[key] = results.setdefault((basis.shape, _span_key(basis, pivots)), (basis, pivots))
    return solves[key]


def _block_ideal(n: int, p: int, rows):
    """The ideal of M_n(GF(p)) generated by a span S: span(A·S·A), as M_n is unital.

    ``rows`` is R, the RREF basis and pivots of the span of the rows of the
    matrices of S, the one thing the solve reads of S.  One pass, by ring
    identities only, not the vertex calculus: A·S is the span of the left
    products of S, kron(I, R), and A·S·A that of their right products,
    kron(C, I) with C the column basis of A·S, in RREF (checked, not
    trusted).  A result short of full rank is audited to be closed; the
    full block is trivially closed.
    """
    basis = _right_products(_row_kron(rows[0], n), n, p)
    pivots = rref_pivots(basis)
    if len(pivots) < n * n:
        _check_closed(_block_products(basis, n, p, transpose=False), basis, pivots, p)
    return basis, pivots


def _block_perp(n: int, p: int, span):
    """The annihilator in M_n(GF(p)) of a span, audited to be an ideal.

    Solved as the nullspace of the constraints a*x = x*a = 0, which come in
    two RREF halves: the reduction starts from the first (checked, not
    trusted) and reduces only the second into it.  The nullspace comes out
    in RREF, so it is not reduced again.
    """
    left, right = _block_products(span[0], n, p, transpose=True)
    constraints = reduce_rowspace(right, p, left, rref_pivots(left))
    kernel, pivots = nullspace_from_rref(*constraints, p, n * n)
    if len(pivots) < n * n:  # the full space is trivially closed
        _check_closed(_block_products(kernel, n, p, transpose=False), kernel, pivots, p)
    return kernel, pivots


def _block_sum(n: int, p: int, head, last):
    """The span of two spans: ``head`` extended by the rows of ``last``."""
    return reduce_rowspace(last[0], p, *head)


def ideal_generated_by(algebra: OracleAlgebra, generators) -> IdealSubspace:
    """Least two-sided ideal containing the generators, solved block by block.

    Block b of the ideal is the ideal of M_n generated by block b of the
    generators (:func:`_block_ideal`): 1_b is central, so 1_b * (A S A) is
    A (1_b S) A.  The solve reads the generators' block b through the RREF
    basis of all its n x n matrices' rows, so that basis, not their span on
    n * n columns, is what is reduced and keyed; where it is empty the
    block of the ideal is zero.  Each block solve ends in a closure audit,
    so the result is not audited again.
    """
    gens = as_matrix(generators, algebra.dimension)
    spans = []
    for b, n in enumerate(algebra._block_sizes):
        rows = reduce_rowspace(algebra._block(gens, b).reshape(-1, n), algebra.p)
        if rows[1]:
            spans.append(_solve("ideal", _block_ideal, n, algebra.p, rows))
        else:
            spans.append((np.zeros((0, n * n), dtype=np.int64), ()))
    return IdealSubspace(algebra, spans)


def sum_of_ideals(a: IdealSubspace, b: IdealSubspace) -> IdealSubspace:
    """The sum of two ideals of one algebra, block by block; a sum of ideals is an ideal.

    A block where one side is zero, or spans the whole block, is the other
    side's or that side's, with no solve.
    """
    algebra = a.algebra
    spans = []
    for k, n in enumerate(algebra._block_sizes):
        head, last = a.spans[k], b.spans[k]
        if not last[1] or len(head[1]) == n * n:
            spans.append(head)
        elif not head[1] or len(last[1]) == n * n:
            spans.append(last)
        else:
            spans.append(_solve("sum", _block_sum, n, algebra.p, head, last))
    return IdealSubspace(algebra, spans)


def perp_subspace(algebra: OracleAlgebra, ideal: IdealSubspace) -> IdealSubspace:
    """Two-sided annihilator {a : a*x = x*a = 0 for all x in the ideal}, block by block.

    a * x is the sum of the block products a_b * x_b, which lie in distinct
    blocks, so a annihilates x iff each a_b annihilates x_b: block b of the
    annihilator is the annihilator in M_n of block b of the ideal
    (:func:`_block_perp`, audited there to be an ideal).
    """
    spans = [
        _solve("perp", _block_perp, n, algebra.p, ideal.spans[b])
        for b, n in enumerate(algebra._block_sizes)
    ]
    return IdealSubspace(algebra, spans)


def vertex_set_of(algebra: OracleAlgebra, ideal: IdealSubspace) -> frozenset[str]:
    """Vertices whose generator image lies in the ideal.

    The ideal is the direct sum of its block spans, so an element lies in it
    iff each block of the element lies in that block's span.  The vertex
    image matrix is reduced against each span at once, on the block's
    columns; a vertex whose residual rows are all zero is a member.  A span
    of full rank holds every element and is skipped; a span with no rows
    holds only 0, so there the residual is the images themselves.
    """
    outside = np.zeros(len(algebra.graph.vertices), dtype=bool)
    for b, (basis, pivots) in enumerate(ideal.spans):
        if len(pivots) < basis.shape[1]:
            images = algebra._vertex_matrix[:, algebra._columns(b)]
            outside |= (residual(images, basis, pivots, algebra.p) if pivots else images).any(axis=1)
    return frozenset(v for v, out in zip(algebra.graph.vertices, outside) if not out)


def is_graded_subspace(algebra: OracleAlgebra, subspace: IdealSubspace) -> bool:
    """True iff every row of the RREF basis is homogeneous: no solve needed.

    A row is homogeneous iff its nonzero entries all have the degree of its
    pivot column.  If S is the sum of its components S_d, these sit on
    disjoint columns, so the union of their RREF bases is in RREF and, by
    uniqueness, is the RREF basis of S; and homogeneous rows always span a
    graded space.  Rows that pass span a graded space whether or not they
    are reduced, so a basis that is not fully reduced can only give a false
    "not graded", never a false "graded".  The rows of the whole RREF basis
    are those of the block spans, each on its block's columns, so the rows
    are read block by block.  A span with no rows has none to read, and a
    span of full rank is all of its block, which is graded whatever its
    basis reads: both are skipped.
    """
    for b, (basis, pivots) in enumerate(subspace.spans):
        if 0 < len(pivots) < basis.shape[1]:
            degrees = algebra.degrees[algebra._columns(b)]
            if ((basis != 0) & (degrees != degrees[list(pivots)][:, None])).any():
                return False
    return True
