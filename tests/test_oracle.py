import itertools
from collections import Counter
from functools import reduce
from contextlib import nullcontext
from pathlib import Path
from random import Random

import numpy as np
import pytest

from leavitt import (
    DEFAULT_DIMENSION_CAP,
    Graph,
    IdealSubspace,
    OracleAlgebra,
    OracleDimensionError,
    OracleUnsupportedError,
    UnknownVertexError,
    build_oracle,
    enumerate_hs_sets,
    hs_closure,
    ideal_generated_by,
    is_graded_subspace,
    load_graph,
    oracle,
    perp_subspace,
    vertex_set_of,
)
from leavitt.gfp import (
    as_matrix,
    matmul_mod,
    max_exact_prime,
    nullspace_from_rref,
    reduce_rowspace,
    residual,
    rref,
    rref_pivots,
)
from leavitt.oracle import (
    _BLOCK_CACHE,
    _block_ideal,
    _sink_paths,
    _solve,
    _span_key,
    block_cache,
    sum_of_ideals,
)
from leavitt.verify import _oracle_task, draw_generators, exhaustive_acyclic_graphs

from .strategies import diamond_chain, primes_around


def path_ab():
    return Graph(("a", "b"), (("e", "a", "b"),))


# -- whole-algebra helpers: products, generator images and the audited ideal -----------


def zero(algebra):
    return np.zeros(algebra.dimension, dtype=np.int64)


def block_mul(algebra, x, y):
    """The product x*y of two elements, block by block."""
    out = zero(algebra)
    for b in range(len(algebra.sinks)):
        algebra._block(out, b)[...] = matmul_mod(algebra._block(x, b), algebra._block(y, b), algebra.p)
    return out


def edge_image(algebra, name):
    return algebra._edge_matrix[algebra._edge_row[name]]


def ghost_image(algebra, name):
    return algebra._ghost_matrix[algebra._edge_row[name]]


def block_spans(algebra, vectors):
    """The RREF span of each block's part of the vectors: the subspace itself,
    held as an ideal is, when it is the direct sum of its block parts."""
    rows = as_matrix(vectors, algebra.dimension)
    return [reduce_rowspace(rows[:, algebra._columns(b)], algebra.p) for b in range(len(algebra.sinks))]


def audited_ideal(algebra, vectors):
    """The ideal spanned by the vectors, checked on the whole algebra: their
    RREF basis, audited closed under every unit product, then split into spans."""
    basis, pivots = rref(as_matrix(vectors, algebra.dimension), algebra.p)
    if len(pivots) < algebra.dimension:  # the full space is trivially closed
        oracle._check_closed(algebra.product_rows(basis), basis, pivots, algebra.p)
    return IdealSubspace(algebra, block_spans(algebra, basis))


def summed_ideal(algebra, vertices):
    """The ideal of a vertex set as ``verify`` builds it: the sum of its
    vertices' ideals in graph vertex order, from the zero ideal."""
    members = [v for v in algebra.graph.vertices if v in vertices]
    singles = [ideal_generated_by(algebra, [algebra.vertex_image(v)]) for v in members]
    return reduce(sum_of_ideals, singles, ideal_generated_by(algebra, []))


def whole(ideal):
    """The stitched RREF basis of an ideal and the pivots its spans claim, on all columns."""
    columns = ideal.algebra._columns
    pivots = tuple(columns(b).start + c for b, (_basis, span) in enumerate(ideal.spans) for c in span)
    return ideal.basis, pivots


def test_dimensions():
    # one sink b with paths {b, e}: a single 2x2 block
    assert build_oracle(path_ab(), 2).dimension == 4
    # two isolated vertices: two 1x1 blocks
    assert build_oracle(Graph(("a", "b"), ()), 3).dimension == 2
    # sinks b and c each with two incoming paths: 4 + 4
    g = Graph(("a", "b", "c"), (("e1", "a", "b"), ("e2", "a", "c")))
    assert build_oracle(g, 2).dimension == 8


def test_empty_graph_oracle():
    algebra = build_oracle(Graph((), ()), 2)
    assert algebra.dimension == 0
    zero = ideal_generated_by(algebra, [])
    assert zero.dim == 0
    assert perp_subspace(algebra, zero).dim == 0
    assert is_graded_subspace(algebra, zero)


def test_build_rejects_cycles(single_loop):
    with pytest.raises(OracleUnsupportedError):
        build_oracle(single_loop, 2)


def test_build_rejects_nonprime():
    with pytest.raises(ValueError):
        build_oracle(path_ab(), 4)


def parallel_edges(count):
    """``count`` parallel edges a -> b: count + 1 paths into the one sink."""
    return Graph(("a", "b"), tuple((f"e{i}", "a", "b") for i in range(count)))


def test_dimension_cap():
    # 44 ** 2 is within the cap; 45 ** 2 and 46 ** 2 are past it
    assert build_oracle(parallel_edges(43), 2).dimension == 44**2 <= DEFAULT_DIMENSION_CAP
    for count in (44, 45):
        with pytest.raises(OracleDimensionError):
            build_oracle(parallel_edges(count), 2)


def test_the_cap_is_checked_on_path_counts():
    # 2^(k + 2) - 3 paths into the one sink: 29 ** 2 is within the cap, 61 ** 2 past it
    assert build_oracle(diamond_chain(3), 2).dimension == 29**2 <= DEFAULT_DIMENSION_CAP
    for k in (4, 64):  # 2^64 paths from a0 alone: refused before any is listed
        with pytest.raises(OracleDimensionError):
            build_oracle(diamond_chain(k), 2)


def paths_into_by_search(graph, sink):
    """Referee: the paths ending at the sink, the trivial one included, as (edge
    names, source), found by a depth-first search back from the sink and sorted
    by (length, names)."""
    found = []
    stack = [((), sink)]
    while stack:
        names, src = stack.pop()
        found.append((names, src))
        stack.extend(((e.name,) + names, e.src) for e in graph.in_edges(src))
    return sorted(found, key=lambda path: (len(path[0]), path[0]))


def test_paths_listed_in_the_counting_pass_match_the_search_from_each_sink():
    golden = load_graph(str(Path(__file__).parent / "golden" / "oracle-7v.json"))
    for graph in (*exhaustive_acyclic_graphs(), golden, diamond_chain(3), parallel_edges(5)):
        paths = _sink_paths(graph)
        assert list(paths) == sorted(graph.sinks())
        for sink, listed in paths.items():
            assert listed == paths_into_by_search(graph, sink)


def test_degrees_and_labels():
    algebra = build_oracle(path_ab(), 2)
    degs = {label: int(d) for label, d in zip(algebra.labels, algebra.degrees)}
    assert degs[("b", (), ())] == 0
    assert degs[("b", ("e",), ())] == 1
    assert degs[("b", (), ("e",))] == -1
    assert degs[("b", ("e",), ("e",))] == 0


def test_ideal_generated_by_vertex_in_simple_block():
    algebra = build_oracle(path_ab(), 2)
    ideal = ideal_generated_by(algebra, [algebra.vertex_image("b")])
    assert ideal.dim == 4  # M_2 is simple
    assert vertex_set_of(algebra, ideal) == {"a", "b"}


def test_ideal_generated_by_nothing_is_zero():
    algebra = build_oracle(path_ab(), 2)
    assert ideal_generated_by(algebra, []).dim == 0


def test_block_ideals_in_edgeless_graph():
    algebra = build_oracle(Graph(("a", "b"), ()), 3)
    a_block = ideal_generated_by(algebra, [algebra.vertex_image("a")])
    assert a_block.dim == 1
    assert vertex_set_of(algebra, a_block) == {"a"}
    p = perp_subspace(algebra, a_block)
    assert vertex_set_of(algebra, p) == {"b"}


def test_perp_of_zero_and_full():
    algebra = build_oracle(path_ab(), 2)
    zero = ideal_generated_by(algebra, [])
    assert perp_subspace(algebra, zero).dim == algebra.dimension
    full = ideal_generated_by(algebra, [algebra.vertex_image("a"), algebra.vertex_image("b")])
    assert full.dim == algebra.dimension
    assert perp_subspace(algebra, full).dim == 0


def test_graded_subspaces():
    algebra = build_oracle(path_ab(), 2)
    assert is_graded_subspace(algebra, ideal_generated_by(algebra, []))
    assert is_graded_subspace(algebra, ideal_generated_by(algebra, [algebra.vertex_image("b")]))
    # mixed-degree span: e[b; b, b] + e[b; e, b] has components of degree 0 and 1
    index = {label: i for i, label in enumerate(algebra.labels)}
    vec = zero(algebra)
    vec[index[("b", (), ())]] = 1
    vec[index[("b", ("e",), ())]] = 1
    line = IdealSubspace(algebra, block_spans(algebra, [vec]))
    assert not is_graded_subspace(algebra, line)
    assert not _whole_is_graded(algebra, line.basis)


def test_ideal_subspace_rejects_non_ideal():
    algebra = build_oracle(path_ab(), 2)
    index = {label: i for i, label in enumerate(algebra.labels)}
    vec = zero(algebra)
    vec[index[("b", ("e",), ())]] = 1  # a single off-diagonal matrix unit
    with pytest.raises(ValueError):
        audited_ideal(algebra, [vec])


def test_edge_and_ghost_multiplication():
    algebra = build_oracle(path_ab(), 2)
    e = edge_image(algebra, "e")
    ghost = ghost_image(algebra, "e")
    # e* e = r(e) and e e* = s(e) via the range decomposition
    assert np.array_equal(block_mul(algebra, ghost, e), algebra.vertex_image("b"))
    assert np.array_equal(block_mul(algebra, e, ghost), algebra.vertex_image("a"))


def test_images_are_read_only_and_handed_out_as_copies():
    algebra = build_oracle(path_ab(), 3)
    image = algebra.vertex_image("a")
    image[:] = 2  # a copy: the algebra's row stays as it was
    assert image.tolist() == [2] * 4
    assert algebra.vertex_image("a").tolist() == [0, 0, 0, 1]  # e[b; e, e], paths (b, e)
    assert edge_image(algebra, "e").tolist() == [0, 0, 1, 0]  # e[b; e, b]
    assert ghost_image(algebra, "e").tolist() == [0, 1, 0, 0]  # e[b; b, e]
    for matrix in (algebra._vertex_matrix, algebra._edge_matrix, algebra._ghost_matrix):
        assert not matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1


def broken_images(spoil):
    """``OracleAlgebra._build_images``, then ``spoil(algebra, vertices, edges, ghosts)`` on copies."""
    real = OracleAlgebra._build_images

    def build(self, paths):
        images = [m.copy() for m in real(self, paths)]
        spoil(self, *images)
        return tuple(images)

    return build


def row(algebra, vertex):
    return algebra.graph.vertices.index(vertex)


def ghost_is_edge(algebra, vertices, edges, ghosts):
    ghosts[:] = edges


def drop_the_unit_of_b(algebra, vertices, edges, ghosts):
    vertices[row(algebra, "b")] = 0


def double_the_first_edge(algebra, vertices, edges, ghosts):
    edges[0] = 2 * edges[0] % 3


def drop_the_edge_and_its_ghost(algebra, vertices, edges, ghosts):
    edges[0] = ghosts[0] = 0


def move_the_unit_of_b_to_a(algebra, vertices, edges, ghosts):
    vertices[row(algebra, "a")] += vertices[row(algebra, "b")]
    vertices[row(algebra, "b")] = 0


def give_c_the_unit_of_a_in_the_second_block(algebra, vertices, edges, ghosts):
    second = algebra._columns(1)
    vertices[row(algebra, "c"), second] += vertices[row(algebra, "a"), second]


def spoil_the_ghost_of_e0_and_the_edge_of_e1(algebra, vertices, edges, ghosts):
    ghosts[0] = edges[0]  # a ghost source/range failure at e0
    edges[1] = ghosts[1]  # a source/range failure at e1, checked after e0's ghost


@pytest.mark.parametrize(
    "graph, spoil, message",
    [
        (path_ab(), ghost_is_edge, "ghost source/range relation fails for edge e"),
        (Graph(("a", "b"), ()), drop_the_unit_of_b, "vertex idempotents do not sum to the identity"),
        (path_ab(), drop_the_unit_of_b, "source/range relation fails for edge e"),
        (path_ab(), double_the_first_edge, "ghost-edge relation fails at (e, e)"),
        (path_ab(), drop_the_edge_and_its_ghost, "ghost-edge relation fails at (e, e)"),
        (
            Graph(("a", "b", "c"), (("e", "a", "c"),)),
            move_the_unit_of_b_to_a,
            "range-decomposition relation fails at vertex a",
        ),
        (
            Graph(("a", "b", "c"), (("e1", "a", "b"), ("e2", "a", "c"))),
            give_c_the_unit_of_a_in_the_second_block,
            "vertex idempotents not orthogonal at (a, c)",
        ),
        (
            Graph(("a", "b", "c"), (("e0", "a", "b"), ("e1", "b", "c"))),
            spoil_the_ghost_of_e0_and_the_edge_of_e1,
            "ghost source/range relation fails for edge e0",
        ),
    ],
    ids=[
        "ghost-is-edge",
        "unit-dropped-from-the-sum",
        "unit-dropped-at-a-range",
        "edge-doubled",
        "edge-and-ghost-dropped",
        "unit-moved-to-an-emitter",
        "second-block-only",
        "two-breaks",
    ],
)
def test_the_audit_refuses_broken_images(monkeypatch, graph, spoil, message):
    build_oracle(graph, 3)  # the unbroken images pass
    monkeypatch.setattr(OracleAlgebra, "_build_images", broken_images(spoil))
    with pytest.raises(RuntimeError) as raised:
        build_oracle(graph, 3)
    assert str(raised.value) == message


def test_oracle_matches_calculus_on_small_chain():
    g = Graph(("a", "b", "c"), (("e1", "a", "b"), ("e2", "b", "c")))
    algebra = build_oracle(g, 3)
    for h in enumerate_hs_sets(g):
        ideal = ideal_generated_by(algebra, [algebra.vertex_image(v) for v in sorted(h.vertices)])
        assert vertex_set_of(algebra, ideal) == h.vertices
        p = perp_subspace(algebra, ideal)
        assert vertex_set_of(algebra, p) == frozenset(g.vertices) - g.backward_reach(h.vertices)


def test_vertex_subset_generation_matches_closure():
    g = Graph(("a", "b", "c"), (("e1", "a", "b"), ("e2", "a", "c")))
    algebra = build_oracle(g, 2)
    for subset in ((), ("a",), ("b",), ("b", "c"), ("a", "b", "c")):
        ideal = ideal_generated_by(algebra, [algebra.vertex_image(v) for v in subset])
        assert vertex_set_of(algebra, ideal) == hs_closure(g, subset).vertices


def test_ideal_equality_and_block_key():
    algebra = build_oracle(path_ab(), 2)
    i1 = ideal_generated_by(algebra, [algebra.vertex_image("b")])
    i2 = ideal_generated_by(algebra, [algebra.vertex_image("a")])
    assert i1 == i2  # both generate the whole simple algebra
    assert i1.block_key == i2.block_key
    zero = ideal_generated_by(algebra, [])
    assert zero != i1 and zero.block_key != i1.block_key
    # two builds of one graph and one prime compare equal
    again = build_oracle(path_ab(), 2)
    assert again is not algebra
    assert ideal_generated_by(again, [again.vertex_image("a")]) == i1
    assert ideal_generated_by(again, []) == zero
    # the same block bytes over another prime, or of another graph, are unequal
    for graph, p in ((path_ab(), 3), (Graph(("x", "y"), (("f", "x", "y"),)), 2)):
        other = build_oracle(graph, p)
        i3 = ideal_generated_by(other, [other.vertex_image(graph.vertices[0])])
        assert i3.block_key == i1.block_key and i3 != i1 and i1 != i3
    assert i1 != i1.block_key
    # the zero, a partial and the full span of one block: RREF bytes, but the
    # pivots alone for the full span, whose RREF basis is the identity
    partial = reduce_rowspace(algebra.vertex_image("b"), 2)
    spans = (zero.spans[0], partial, i1.spans[0])
    keys = [_span_key(*span) for span in spans]
    assert keys == [b"", partial[0].tobytes(), (0, 1, 2, 3)]
    assert zero.block_key == (b"",) and i1.block_key == ((0, 1, 2, 3),)


def test_generators_with_one_row_space_share_one_ideal_solve(monkeypatch):
    # e[i, 0] and e[j, 0] span different subspaces of a block's n * n
    # columns, but their rows span one row space, all that the solve reads
    solves = []
    block_ideal = oracle._block_ideal

    def counted(n, p, rows):
        solves.append(n)
        return block_ideal(n, p, rows)

    monkeypatch.setattr(oracle, "_block_ideal", counted)
    chain = Graph(("a", "b", "c"), (("e", "a", "b"), ("f", "b", "c")))
    for graph, n in ((path_ab(), 2), (chain, 3)):
        for p in (2, 3):
            algebra = build_oracle(graph, p)  # one sink: one block of size n
            first, last = zero(algebra), zero(algebra)
            first[0], last[(n - 1) * n] = 1, 1
            assert not np.array_equal(reduce_rowspace(first, p)[0], reduce_rowspace(last, p)[0])
            solves.clear()
            with block_cache():
                ideals = [ideal_generated_by(algebra, [x]) for x in (first, last)]
            assert solves == [n]
            assert ideals[0] == ideals[1] and ideals[0].dim == n * n


@pytest.mark.parametrize("p", [2, 3])
def test_summed_subset_ideals_match_generation(p):
    for graph in exhaustive_acyclic_graphs(3, 4):
        algebra = build_oracle(graph, p)
        for size in range(len(graph.vertices) + 1):
            for subset in itertools.combinations(graph.vertices, size):
                summed = summed_ideal(algebra, subset)
                generated = ideal_generated_by(algebra, [algebra.vertex_image(v) for v in subset])
                assert summed.block_key == generated.block_key
                assert whole(summed)[1] == whole(generated)[1]
                # one ideal by summing and by generation
                assert summed == generated
                # the sum skipped the audit; the whole-algebra audit must accept it
                audited = audited_ideal(algebra, summed.basis)
                assert audited.block_key == summed.block_key
                assert summed_ideal(algebra, subset[::-1]) == summed
                perp = perp_subspace(algebra, summed)
                assert perp.block_key == perp_subspace(algebra, generated).block_key


def _spans(algebra, basis, vector):
    """Membership by rank, one vector at a time: the referee of the one-call tests."""
    stacked = np.vstack([basis, vector])
    return len(rref(stacked, algebra.p)[1]) == len(basis)


def _referee_vertex_set(algebra, basis):
    return frozenset(v for v in algebra.graph.vertices if _spans(algebra, basis, algebra.vertex_image(v)))


def _referee_is_graded(algebra, basis):
    for row in basis:
        for d in np.unique(algebra.degrees[row != 0]):
            if not _spans(algebra, basis, np.where(algebra.degrees == d, row, 0)):
                return False
    return True


def _random_spans(algebra, rng, count):
    """Spans of 1-3 vectors, each 1-3 matrix units with random nonzero coefficients."""
    for _ in range(count):
        vectors = []
        for _ in range(rng.randint(1, 3)):
            vec = zero(algebra)
            units = rng.sample(range(algebra.dimension), min(algebra.dimension, rng.randint(1, 3)))
            for i in units:
                vec[i] = rng.randrange(1, algebra.p)
            vectors.append(vec)
        yield vectors


@pytest.mark.parametrize("p", [2, 3])
def test_rref_gradedness_and_vertex_sets_match_the_per_vector_referee(p):
    # ideals are read block span by block span; the other spans, which are
    # not ideals, by the whole-matrix formulas, and by the block reads too
    # where they are the direct sum of their block parts
    rng = Random(p)
    verdicts = Counter()
    for graph in exhaustive_acyclic_graphs(3, 4):
        algebra = build_oracle(graph, p)
        for size in range(len(graph.vertices) + 1):
            for subset in itertools.combinations(graph.vertices, size):
                ideal = summed_ideal(algebra, subset)
                for held in (ideal, perp_subspace(algebra, ideal)):
                    assert vertex_set_of(algebra, held) == _referee_vertex_set(algebra, held.basis)
                    verdict = is_graded_subspace(algebra, held)
                    assert verdict == _referee_is_graded(algebra, held.basis)
                    verdicts["ideal", verdict] += 1
        # a vertex image plus an edge image spans a line that is not graded,
        # also after the first unit (degree 0, first pivot) is added to it,
        # and so does the sum of the units of one sign once two degrees have it
        first_unit = np.eye(1, algebra.dimension, dtype=np.int64)[0]
        spans = []
        for e in graph.edges:
            mixed = algebra.vertex_image(e.src) + edge_image(algebra, e.name)
            spans += [[mixed], [first_unit, mixed]]
        for sign in (-1, 1):
            spans.append([np.sign(algebra.degrees) == sign])
        spans += _random_spans(algebra, rng, 8)
        for vectors in spans:
            basis = rref(as_matrix(vectors, algebra.dimension), p)[0]
            want_set, want_graded = _referee_vertex_set(algebra, basis), _referee_is_graded(algebra, basis)
            assert _whole_vertex_set(algebra, basis) == want_set
            assert _whole_is_graded(algebra, basis) == want_graded
            verdicts["whole", want_graded] += 1
            held = IdealSubspace(algebra, block_spans(algebra, basis))
            if held.dim == len(basis):
                assert held.basis.tobytes() == basis.tobytes()
                assert vertex_set_of(algebra, held) == want_set
                assert is_graded_subspace(algebra, held) == want_graded
                verdicts["blocks", want_graded] += 1
    # every ideal here is graded
    assert set(verdicts) == {("ideal", True), ("whole", True), ("whole", False), ("blocks", True), ("blocks", False)}


def test_equal_ideals_compare_equal():
    # M_2 is simple: a and b generate the same ideal, and so does {a, b}
    algebra = build_oracle(path_ab(), 3)
    whole = summed_ideal(algebra, {"a"})
    assert summed_ideal(algebra, {"b"}) == whole
    assert summed_ideal(algebra, {"a", "b"}) == whole
    assert perp_subspace(algebra, perp_subspace(algebra, whole)) == whole


def test_subset_sums_run_no_block_sum_solves(monkeypatch):
    # 7 vertices and 3 sinks: 2^7 subsets, 2^3 distinct ideals, and every
    # block of an ideal is 0 or the whole block, so no sum needs a solve
    graph = load_graph(str(Path(__file__).parent / "golden" / "oracle-7v.json"))
    algebra = build_oracle(graph, 2)
    singles = {v: ideal_generated_by(algebra, [algebra.vertex_image(v)]) for v in graph.vertices}
    zero_ideal = ideal_generated_by(algebra, [])
    solves, reductions = [], []
    block_sum, reduce_rows = oracle._block_sum, oracle.reduce_rowspace

    def counted_sum(*args):
        solves.append(args)
        return block_sum(*args)

    def counted_reduction(*args, **kwargs):
        reductions.append(args)
        return reduce_rows(*args, **kwargs)

    monkeypatch.setattr(oracle, "_block_sum", counted_sum)
    monkeypatch.setattr(oracle, "reduce_rowspace", counted_reduction)
    subsets = [s for size in range(8) for s in itertools.combinations(graph.vertices, size)]
    got = {subset: reduce(sum_of_ideals, [singles[v] for v in subset], zero_ideal) for subset in subsets}
    assert solves == [] and reductions == []
    # the count is live: two partial spans of one block need a solve
    row = zero(algebra)
    row[0] = 1
    line = IdealSubspace(algebra, block_spans(algebra, [row]))
    sum_of_ideals(line, IdealSubspace(algebra, block_spans(algebra, [np.roll(row, 1)])))
    assert len(solves) == 1
    monkeypatch.undo()
    assert len({ideal.block_key for ideal in got.values()}) == 2 ** len(algebra.sinks)
    # each subset's ideal is its head's extended by its last vertex's
    want = {(): whole(got[()])}
    for subset in subsets[1:]:
        want[subset] = reduce_rowspace(singles[subset[-1]].basis, 2, *want[subset[:-1]])
        assert whole(got[subset])[1] == want[subset][1]
        assert got[subset].basis.tobytes() == want[subset][0].tobytes()


def test_vertex_image_rejects_unknown_vertices():
    with pytest.raises(UnknownVertexError):
        build_oracle(path_ab(), 2).vertex_image("zz")


def _random_element(algebra, rng):
    vec = zero(algebra)
    for i in rng.sample(range(algebra.dimension), min(3, algebra.dimension)):
        vec[i] = rng.randrange(algebra.p)
    return vec


def test_generated_ideal_passes_the_audit():
    rng = Random(11)
    graph_7v = load_graph(str(Path(__file__).parent / "golden" / "oracle-7v.json"))
    for graph in exhaustive_acyclic_graphs(3, 4) + (graph_7v,):
        for p in (2, 3, 5):
            algebra = build_oracle(graph, p)
            for _ in range(2):
                gens = [_random_element(algebra, rng) for _ in range(rng.randint(1, 2))]
                ideal = ideal_generated_by(algebra, gens)
                for held in (ideal, perp_subspace(algebra, ideal)):
                    # the whole-algebra audit accepts the stitched basis, split again
                    audited = audited_ideal(algebra, held.basis)
                    assert audited == held and held == audited
                    assert audited.block_key == held.block_key
                    assert _sig(*whole(audited)) == _sig(*whole(held))
                    # a contiguous copy, not a view pinning the row reduction's work array
                    assert held.basis.base is None and held.basis.flags.c_contiguous
                # two builds of one algebra compare by their block keys
                assert ideal == audited_ideal(build_oracle(graph, p), ideal.basis)


def test_build_oracle_prime_bound():
    good, bad = primes_around(max_exact_prime(DEFAULT_DIMENSION_CAP))
    algebra = build_oracle(Graph(("a", "b"), ()), good)
    a_block = ideal_generated_by(algebra, [algebra.vertex_image("a")])
    assert vertex_set_of(algebra, perp_subspace(algebra, a_block)) == {"b"}
    algebra = build_oracle(path_ab(), good)
    rng = Random(3)
    for _ in range(5):
        ideal = ideal_generated_by(algebra, [_random_element(algebra, rng)])
        assert audited_ideal(algebra, ideal.basis).block_key == ideal.block_key
        assert perp_subspace(algebra, ideal).dim == 4 - ideal.dim
    with pytest.raises(ValueError, match="int64"):
        build_oracle(path_ab(), bad)
    with pytest.raises(ValueError, match="int64"):
        build_oracle(path_ab(), 2**127 - 1)  # refused before the slow primality test


@pytest.mark.parametrize("p", [2, 3])
def test_mul_follows_the_matrix_unit_rule(p):
    # e[v; g, l] * e[w; m, n] = (v == w and l == m) * e[v; g, n], read off the labels
    for graph in exhaustive_acyclic_graphs(3, 4):
        algebra = build_oracle(graph, p)
        index = {label: k for k, label in enumerate(algebra.labels)}
        units = np.eye(algebra.dimension, dtype=np.int64)
        for (v, g, l), a in zip(algebra.labels, units):
            for (w, m, n), b in zip(algebra.labels, units):
                want = zero(algebra)
                if v == w and l == m:
                    want[index[(v, g, n)]] = 1
                assert np.array_equal(block_mul(algebra, a, b), want)


def test_ideal_and_perp_over_many_blocks():
    # 300 isolated vertices: 300 blocks of size 1
    names = tuple(f"v{i:03d}" for i in range(300))
    algebra = build_oracle(Graph(names, ()), 2)
    ideal = ideal_generated_by(algebra, [algebra.vertex_image(v) for v in names[:150]])
    perp = perp_subspace(algebra, ideal)
    assert (ideal.dim, perp.dim) == (150, 150)
    assert vertex_set_of(algebra, ideal) == frozenset(names[:150])
    assert vertex_set_of(algebra, perp) == frozenset(names[150:])


def naive_unit_products(algebra, rows, transpose):
    """Every product of every row by every matrix unit, from :func:`block_mul`.

    The left rows of x hold (unit_i * x) for each unit i, the right rows
    (x * unit_i).  Transposed, row k holds the coefficients of the
    coordinate k of a*x (of x*a) in the coordinates of a.
    """
    dim = algebra.dimension
    units = np.eye(dim, dtype=np.int64)
    out = [np.zeros((0, dim), dtype=np.int64)]
    for x in rows:
        left = np.array([block_mul(algebra, u, x) for u in units]).reshape(dim, dim)
        right = np.array([block_mul(algebra, x, u) for u in units]).reshape(dim, dim)
        out += [left.T, right.T] if transpose else [left, right]
    return np.vstack(out)


def _yielded(algebra, rows, transpose):
    method = algebra.annihilator_constraints if transpose else algebra.product_rows
    return np.vstack([np.zeros((0, algebra.dimension), dtype=np.int64), *method(rows)])


def _random_rows(algebra, rng, count):
    return np.array(
        [[rng.randrange(algebra.p) for _ in range(algebra.dimension)] for _ in range(count)],
        dtype=np.int64,
    ).reshape(count, algebra.dimension)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_unit_products_span_the_naive_products(p):
    rng = Random(p)
    for graph in exhaustive_acyclic_graphs(3, 4):
        algebra = build_oracle(graph, p)
        row_sets = [_random_rows(algebra, rng, count) for count in (0, 1, 3)]
        row_sets.append(np.array([_random_element(algebra, rng) for _ in range(2)]))
        for rows in row_sets:
            for transpose in (False, True):
                method = algebra.annihilator_constraints if transpose else algebra.product_rows
                for batch in method(rows):
                    assert batch.tobytes() == rref(batch, p)[0].tobytes()
                got = rref(_yielded(algebra, rows, transpose), p)
                want = rref(naive_unit_products(algebra, rows, transpose), p)
                assert got[1] == want[1]
                assert got[0].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("p", [2, 3])
def test_unit_products_yield_at_most_twice_the_dimension(p):
    rng = Random(17)
    for graph in exhaustive_acyclic_graphs(3, 4):
        algebra = build_oracle(graph, p)
        dim = algebra.dimension
        for count in (1, dim, 3 * dim):
            rows = _random_rows(algebra, rng, count)
            for method in (algebra.product_rows, algebra.annihilator_constraints):
                assert sum(batch.shape[0] for batch in method(rows)) <= 2 * dim


@pytest.mark.parametrize("p", [2, 3])
def test_each_element_lies_in_the_span_of_its_left_products(p):
    # x = sum of e_ii * x over the diagonal units, so the one-pass block
    # ideal A·S·A, built on the left half, contains S without reducing S into it
    rng = Random(23 + p)
    for graph in exhaustive_acyclic_graphs(3, 4):
        algebra = build_oracle(graph, p)
        row_sets = [_random_rows(algebra, rng, count) for count in (1, 3)]
        row_sets.append(np.array([_random_element(algebra, rng) for _ in range(2)]))
        for rows in row_sets:
            left, _right = algebra.product_rows(rows)
            assert not residual(rows, left, rref_pivots(left), p).any()


# -- the whole-algebra referee of the block solves ------------------------------------


def whole_ideal_generated_by(algebra, generators):
    """The ideal generated by the generators, by iterated row reduction on all columns.

    Each round reduces the products of the round-start basis by every
    matrix unit on both sides, starting from the left half, until a round
    adds no rank or the rank is full.
    """
    dim, p = algebra.dimension, algebra.p
    basis, pivots = reduce_rowspace(as_matrix(generators, dim), p)
    start_rank = -1
    while start_rank < len(pivots) < dim:
        start_rank = len(pivots)
        left, right = algebra.product_rows(basis)
        basis, pivots = reduce_rowspace(right, p, left, rref_pivots(left))
    return basis, pivots


def whole_perp_subspace(algebra, basis):
    """The annihilator of the span of ``basis``, as the nullspace of all its constraints."""
    p = algebra.p
    left, right = algebra.annihilator_constraints(basis)
    reduced = reduce_rowspace(right, p, left, rref_pivots(left))
    kernel, pivots = nullspace_from_rref(*reduced, p, algebra.dimension)
    audited_ideal(algebra, kernel)
    return kernel, pivots


def _referee_cases(algebras, rng):
    """(algebra, kind, generators) cases: each vertex's ideal and each hereditary
    saturated set's ideal on every algebra, and 20 seeded random generator
    sets, each on an algebra drawn as ``verify`` draws its random-ideal trials.
    """
    cases = []
    for algebra in algebras:
        graph = algebra.graph
        cases += [(algebra, "vertex", (v,)) for v in graph.vertices]
        cases += [(algebra, "hs", h.sorted_vertices()) for h in enumerate_hs_sets(graph)]
    for _ in range(20):
        algebra = algebras[rng.randrange(len(algebras))]
        cases.append((algebra, "random", draw_generators(rng, algebra.dimension, algebra.p)))
    return cases


def _generators(algebra, kind, case):
    return case if kind == "random" else [algebra.vertex_image(v) for v in case]


def _sig(basis, pivots):
    return basis.tobytes(), pivots


def _referee_results(cases):
    """The whole-algebra ideal of each case, and the annihilator of all but vertex ideals."""
    out = []
    for algebra, kind, case in cases:
        ideal = whole_ideal_generated_by(algebra, _generators(algebra, kind, case))
        perps = [] if kind == "vertex" else [whole_perp_subspace(algebra, ideal[0])]
        out.append([_sig(*ideal)] + [_sig(*perp) for perp in perps])
    return out


def _block_results(cases):
    """The same from the block solves; a hereditary saturated set's ideal also
    as the sum of its vertices' ideals."""
    out = []
    for algebra, kind, case in cases:
        ideal = ideal_generated_by(algebra, _generators(algebra, kind, case))
        if kind == "hs":
            summed = summed_ideal(algebra, case)
            assert _sig(*whole(summed)) == _sig(*whole(ideal))
        subspaces = [ideal] if kind == "vertex" else [ideal, perp_subspace(algebra, ideal)]
        out.append([_sig(*whole(s)) for s in subspaces])
    return out


def _referee_algebras(family):
    if family == "7v":
        graph = load_graph(str(Path(__file__).parent / "golden" / "oracle-7v.json"))
        return [build_oracle(graph, 5)]
    return [build_oracle(graph, int(family[-1])) for graph in exhaustive_acyclic_graphs()]


@pytest.mark.parametrize("family", ["exhaustive-p2", "exhaustive-p3", "exhaustive-p5", "7v"])
def test_block_solves_match_the_whole_algebra_referee(family):
    cases = _referee_cases(_referee_algebras(family), Random(family))
    want = _referee_results(cases)
    # without a cache, and with one cache for every algebra, as in one command
    for scope in (nullcontext(), block_cache()):
        with scope:
            assert _block_results(cases) == want
            cache = _BLOCK_CACHE.get()
    assert _BLOCK_CACHE.get() is None
    # equal results are one read-only array
    solves, results = cache
    assert len(results) < len(solves)
    interned = {id(basis) for basis, _pivots in results.values()}
    assert {id(basis) for basis, _pivots in solves.values()} == interned
    assert not any(basis.flags.writeable for basis, _pivots in results.values())


def _nonzero_block_spans(n, p, rng):
    """Spans in M_n(GF(p)), each nonzero: a single unit, a rank-1 matrix u v^T,
    and 1-3 random matrices, as RREF bases of their flattened rows."""

    def nonzero_vector(size):
        v = np.zeros(size, dtype=np.int64)
        while not v.any():
            v = np.array([rng.randrange(p) for _ in range(size)], dtype=np.int64)
        return v

    unit = np.zeros(n * n, dtype=np.int64)
    unit[rng.randrange(n * n)] = 1
    rank_one = np.outer(nonzero_vector(n), nonzero_vector(n)).reshape(1, -1) % p
    randoms = [[nonzero_vector(n * n) for _ in range(count)] for count in (1, 2, 3)]
    return [reduce_rowspace(np.array(rows), p) for rows in [[unit], rank_one, *randoms]]


def _row_basis(span, n, p):
    """R, the input of a block ideal solve: the RREF basis of the span of
    the rows of the n x n matrices of a span."""
    return reduce_rowspace(span[0].reshape(-1, n), p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_block_ideal_of_a_nonzero_span_is_the_whole_block(p):
    # M_n is simple; a column step that read the rows of A·S would stop short
    rng = Random(f"whole block {p}")
    for n in range(1, 7):
        for span in _nonzero_block_spans(n, p, rng):
            rows = _row_basis(span, n, p)
            for scope in (nullcontext(), block_cache()):
                with scope:
                    basis, pivots = _solve("ideal", _block_ideal, n, p, rows)
                assert pivots == tuple(range(n * n))
                assert np.array_equal(basis, np.eye(n * n, dtype=np.int64))


def test_a_one_pass_result_short_of_full_rank_fails_the_audit(monkeypatch):
    # a column half that drops the last column basis vector leaves the
    # matrices whose columns miss a coordinate: a right ideal, not a two-sided one
    right_products = oracle._right_products
    monkeypatch.setattr(oracle, "_right_products", lambda x, n, p: right_products(x, n, p)[:-n])
    rng = Random("short of full rank")
    for p in (2, 3):
        for n in (2, 3, 4):
            for span in _nonzero_block_spans(n, p, rng):
                with pytest.raises(ValueError, match="subspace is not closed"):
                    _block_ideal(n, p, _row_basis(span, n, p))


def test_perp_of_a_span_across_blocks():
    # a sum of block identities is central, so its annihilator is an ideal: the
    # other blocks; its span is not a direct sum of block subspaces, but an
    # element annihilates it iff it annihilates each of its block parts
    fork = Graph(("a", "b", "c"), (("e1", "a", "b"), ("e2", "a", "c")))
    for graph in (Graph(("a", "b", "c"), ()), fork):
        for p in (2, 3):
            algebra = build_oracle(graph, p)
            for size in range(len(algebra.sinks) + 1):
                for chosen in itertools.combinations(range(len(algebra.sinks)), size):
                    element = zero(algebra)
                    for b in chosen:
                        np.fill_diagonal(algebra._block(element, b), 1)
                    want = whole_perp_subspace(algebra, element.reshape(1, -1))
                    got = perp_subspace(algebra, IdealSubspace(algebra, block_spans(algebra, [element])))
                    assert _sig(*whole(got)) == _sig(*want)
                    sizes = algebra._block_sizes
                    assert got.dim == sum(n * n for b, n in enumerate(sizes) if b not in chosen)


def test_block_sums_of_partial_spans():
    # an ideal's block is zero or everything; spans inside the blocks also
    # exercise the sum that is solved, with and without the cache, and the
    # per-block vertex-set and gradedness reads of partial, mixed spans
    rng = Random(31)
    fork = Graph(("a", "b", "c"), (("e1", "a", "b"), ("e2", "a", "c")))
    verdicts = set()
    for p in (2, 3):
        algebra = build_oracle(fork, p)
        for _ in range(10):
            rows = [_random_block_rows(algebra, rng) for _ in range(2)]
            head, last = (IdealSubspace(algebra, block_spans(algebra, r)) for r in rows)
            want = rref(np.vstack(rows[0] + rows[1]), p)
            for scope in (nullcontext(), block_cache()):
                with scope:
                    got = sum_of_ideals(head, last)
                assert _sig(*whole(got)) == _sig(*want)
                assert vertex_set_of(algebra, got) == _whole_vertex_set(algebra, got.basis)
                verdict = is_graded_subspace(algebra, got)
                assert verdict == _whole_is_graded(algebra, got.basis)
                verdicts.add(verdict)
    assert verdicts == {False, True}


def _random_block_rows(algebra, rng):
    """One or two random rows, each inside one block."""
    rows = []
    for _ in range(rng.randint(1, 2)):
        row = zero(algebra)
        block = algebra._block(row, rng.randrange(len(algebra.sinks)))
        block[...] = np.array([rng.randrange(algebra.p) for _ in range(block.size)]).reshape(block.shape)
        rows.append(row)
    return rows


# -- ideals held as block spans ---------------------------------------------------------


def _whole_vertex_set(algebra, basis):
    """The vertices whose image reduces to zero against an RREF basis, all columns at once."""
    images = as_matrix([algebra.vertex_image(v) for v in algebra.graph.vertices], algebra.dimension)
    outside = residual(images, basis, rref_pivots(basis), algebra.p).any(axis=1)
    return frozenset(v for v, out in zip(algebra.graph.vertices, outside) if not out)


def _whole_is_graded(algebra, basis):
    """The degree test on an RREF basis: each row's entries have its pivot's degree."""
    pivot_degrees = algebra.degrees[list(rref_pivots(basis))]
    return not ((basis != 0) & (algebra.degrees != pivot_degrees[:, None])).any()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_block_span_fast_paths_match_the_whole_matrix_formulas(monkeypatch, p):
    # every ideal that verify's oracle rows and random-ideal trials build on
    # the exhaustive family (trials spread as with verify's defaults), and
    # oracle-check on the 7-vertex golden graph
    family = exhaustive_acyclic_graphs()
    per_graph = Counter(Random(43).randrange(len(family)) for _ in range(500))
    graph_7v = load_graph(str(Path(__file__).parent / "golden" / "oracle-7v.json"))
    tasks = [(g, per_graph[k]) for k, g in enumerate(family)] + [(graph_7v, 20)]
    built = []
    init = IdealSubspace.__init__

    def recording(self, algebra, spans):
        init(self, algebra, spans)
        built.append(self)

    monkeypatch.setattr(IdealSubspace, "__init__", recording)
    with block_cache():
        for graph, trials in tasks:
            assert _oracle_task(p, 43, graph, trials)[1] == []
    monkeypatch.undo()
    assert len(built) > 4 * len(tasks)
    for ideal in built:
        algebra = ideal.algebra
        assert vertex_set_of(algebra, ideal) == _whole_vertex_set(algebra, ideal.basis)
        assert is_graded_subspace(algebra, ideal) == _whole_is_graded(algebra, ideal.basis)


def test_ideals_differing_in_one_block_get_different_keys():
    # path a -> b plus two isolated sinks: blocks of sizes 2, 1 and 1
    graph = Graph(("a", "b", "c", "d"), (("e", "a", "b"),))
    algebra = build_oracle(graph, 3)
    subsets = [s for size in range(5) for s in itertools.combinations(graph.vertices, size)]
    ideals = {ideal.block_key: ideal for ideal in (summed_ideal(algebra, s) for s in subsets)}
    assert len(ideals) == 2 ** len(algebra.sinks)
    for one, other in itertools.combinations(ideals.values(), 2):
        assert one != other
    # c and cd differ in block d only; c and d hold one unit each, in two
    # blocks of one size: their keys are per block, not concatenated bytes
    c, d, cd = (summed_ideal(algebra, s) for s in (["c"], ["d"], ["c", "d"]))
    assert [x == y for x, y in zip(c.block_key, cd.block_key)] == [True, True, False]
    assert b"".join(basis.tobytes() for basis, _pivots in c.spans) == b"".join(
        basis.tobytes() for basis, _pivots in d.spans
    )
    assert c.block_key != d.block_key and c != d


def test_zero_and_whole_algebra_keys():
    for graph in (path_ab(), Graph(("a", "b"), ()), Graph((), ())):
        algebra = build_oracle(graph, 2)
        zero = ideal_generated_by(algebra, [])
        everything = audited_ideal(algebra, np.eye(algebra.dimension, dtype=np.int64))
        assert zero.block_key == (b"",) * len(algebra.sinks)
        assert zero.dim == 0 and everything.dim == algebra.dimension
        assert perp_subspace(algebra, zero) == everything and perp_subspace(algebra, everything) == zero
        assert audited_ideal(algebra, []) == zero
        assert (zero == everything) == (algebra.dimension == 0)
        if algebra.dimension:
            images = [algebra.vertex_image(v) for v in graph.vertices]
            generated = ideal_generated_by(algebra, images)
            assert generated == everything and generated.block_key == everything.block_key
