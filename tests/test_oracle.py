import itertools
from pathlib import Path
from random import Random

import numpy as np
import pytest

from leavitt import (
    DEFAULT_DIMENSION_CAP,
    Graph,
    IdealSubspace,
    OracleDimensionError,
    OracleUnsupportedError,
    Subspace,
    UnknownVertexError,
    build_oracle,
    enumerate_hs_sets,
    hs_closure,
    ideal_generated_by,
    is_graded_subspace,
    load_graph,
    perp_subspace,
    vertex_set_of,
)
from leavitt.gfp import max_exact_prime, reduce_rowspace, residual, rref, rref_pivots
from leavitt.oracle import IdealMemo
from leavitt.verify import exhaustive_acyclic_graphs

from .strategies import primes_around


def path_ab():
    return Graph(("a", "b"), (("e", "a", "b"),))


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


def test_dimension_cap():
    with pytest.raises(OracleDimensionError):
        build_oracle(path_ab(), 2, dimension_cap=3)


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
    full = ideal_generated_by(algebra, [algebra.identity()])
    assert perp_subspace(algebra, full).dim == 0


def test_graded_subspaces():
    algebra = build_oracle(path_ab(), 2)
    assert is_graded_subspace(algebra, ideal_generated_by(algebra, []))
    assert is_graded_subspace(algebra, ideal_generated_by(algebra, [algebra.identity()]))
    # mixed-degree span: e[b; b, b] + e[b; e, b] has components of degree 0 and 1
    index = {label: i for i, label in enumerate(algebra.labels)}
    vec = algebra.zero()
    vec[index[("b", (), ())]] = 1
    vec[index[("b", ("e",), ())]] = 1
    assert not is_graded_subspace(algebra, Subspace(algebra, [vec]))


def test_ideal_subspace_rejects_non_ideal():
    algebra = build_oracle(path_ab(), 2)
    index = {label: i for i, label in enumerate(algebra.labels)}
    vec = algebra.zero()
    vec[index[("b", ("e",), ())]] = 1  # a single off-diagonal matrix unit
    with pytest.raises(ValueError):
        IdealSubspace(algebra, [vec])


def test_edge_and_ghost_multiplication():
    algebra = build_oracle(path_ab(), 2)
    e = algebra.edge_image("e")
    ghost = algebra.ghost_image("e")
    # e* e = r(e) and e e* = s(e) via the range decomposition
    assert np.array_equal(algebra.mul(ghost, e), algebra.vertex_image("b"))
    assert np.array_equal(algebra.mul(e, ghost), algebra.vertex_image("a"))


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


def test_subspace_equality_and_signature():
    algebra = build_oracle(path_ab(), 2)
    i1 = ideal_generated_by(algebra, [algebra.vertex_image("b")])
    i2 = ideal_generated_by(algebra, [algebra.vertex_image("a")])
    assert i1 == i2  # both generate the whole simple algebra
    assert i1.signature() == i2.signature()
    zero = ideal_generated_by(algebra, [])
    assert zero != i1


@pytest.mark.parametrize("p", [2, 3])
def test_summed_subset_ideals_match_generation(p):
    for graph in exhaustive_acyclic_graphs(3, 4):
        algebra = build_oracle(graph, p)
        memo = IdealMemo(algebra)
        for size in range(len(graph.vertices) + 1):
            for subset in itertools.combinations(graph.vertices, size):
                summed = memo.of_vertices(subset)
                generated = ideal_generated_by(algebra, [algebra.vertex_image(v) for v in subset])
                assert summed.signature() == generated.signature()
                assert summed.pivots == generated.pivots
                # the sum skipped the audit; the public constructor must accept it
                audited = IdealSubspace(algebra, summed.basis)
                assert audited.signature() == summed.signature()
                assert memo.of_vertices(reversed(subset)) is summed
                perp = memo.perp(summed)
                assert perp.signature() == perp_subspace(algebra, summed).signature()
                assert memo.perp(summed) is perp


def _spans(subspace, vector):
    """Membership by rank, one vector at a time: the referee of the one-call tests."""
    stacked = np.vstack([subspace.basis, vector])
    return len(rref(stacked, subspace.algebra.p)[1]) == subspace.dim


def _referee_vertex_set(algebra, subspace):
    return frozenset(v for v in algebra.graph.vertices if _spans(subspace, algebra.vertex_image(v)))


def _referee_is_graded(algebra, subspace):
    for row in subspace.basis:
        for d in np.unique(algebra.degrees[row != 0]):
            if not _spans(subspace, np.where(algebra.degrees == d, row, 0)):
                return False
    return True


def _random_spans(algebra, rng, count):
    """Spans of 1-3 vectors, each 1-3 matrix units with random nonzero coefficients."""
    for _ in range(count):
        vectors = []
        for _ in range(rng.randint(1, 3)):
            vec = algebra.zero()
            units = rng.sample(range(algebra.dimension), min(algebra.dimension, rng.randint(1, 3)))
            for i in units:
                vec[i] = rng.randrange(1, algebra.p)
            vectors.append(vec)
        yield Subspace(algebra, vectors)


@pytest.mark.parametrize("p", [2, 3])
def test_rref_gradedness_and_vertex_sets_match_the_per_vector_referee(p):
    rng = Random(p)
    graded = ungraded = 0
    for graph in exhaustive_acyclic_graphs(3, 4):
        algebra = build_oracle(graph, p)
        memo = IdealMemo(algebra)
        subspaces = []
        for size in range(len(graph.vertices) + 1):
            for subset in itertools.combinations(graph.vertices, size):
                ideal = memo.of_vertices(subset)
                subspaces += [ideal, memo.perp(ideal)]
        # a vertex image plus an edge image spans a line that is not graded,
        # also after the first unit (degree 0, first pivot) is added to it,
        # and so does the sum of the units of one sign once two degrees have it
        first_unit = np.eye(1, algebra.dimension, dtype=np.int64)[0]
        for e in graph.edges:
            mixed = algebra.vertex_image(e.src) + algebra.edge_image(e.name)
            subspaces += [Subspace(algebra, [mixed]), Subspace(algebra, [first_unit, mixed])]
        for sign in (-1, 1):
            subspaces.append(Subspace(algebra, [np.sign(algebra.degrees) == sign]))
        subspaces += _random_spans(algebra, rng, 8)
        for subspace in subspaces:
            assert vertex_set_of(algebra, subspace) == _referee_vertex_set(algebra, subspace)
            verdict = is_graded_subspace(algebra, subspace)
            assert verdict == _referee_is_graded(algebra, subspace)
            graded += verdict
            ungraded += not verdict
            if isinstance(subspace, IdealSubspace):
                assert memo.vertex_set(subspace) == vertex_set_of(algebra, subspace)
    assert graded > 0 and ungraded > 0


def test_memo_interns_equal_ideals():
    # M_2 is simple: a and b generate the same ideal, and so does {a, b}
    memo = IdealMemo(build_oracle(path_ab(), 3))
    whole = memo.of_vertices({"a"})
    assert memo.of_vertices({"b"}) is whole
    assert memo.of_vertices({"a", "b"}) is whole
    assert memo.perp(memo.perp(whole)) is whole


def test_memo_reduces_each_distinct_sum_once(monkeypatch):
    # 7 vertices and 3 sinks: 2^7 subsets, at most 2^3 distinct ideals
    graph = load_graph(str(Path(__file__).parent / "golden" / "oracle-7v.json"))
    algebra = build_oracle(graph, 2)
    memo = IdealMemo(algebra)
    singles = {v: memo.of_vertices([v]) for v in graph.vertices}
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return reduce_rowspace(*args, **kwargs)

    monkeypatch.setattr("leavitt.oracle.reduce_rowspace", counted)
    subsets = [s for size in range(8) for s in itertools.combinations(graph.vertices, size)]
    got = {subset: memo.of_vertices(subset) for subset in subsets}
    monkeypatch.undo()
    pairs = {(id(memo.of_vertices(s[:-1])), id(singles[s[-1]])) for s in subsets if len(s) > 1}
    assert len(calls) <= len(pairs) < len(subsets) - 1 - len(graph.vertices)
    # unchanged: each subset's ideal is still its head's extended by its last vertex's
    want = {(): (got[()].basis, got[()].pivots)}
    for subset in subsets[1:]:
        want[subset] = reduce_rowspace(singles[subset[-1]].basis, 2, *want[subset[:-1]])
        assert got[subset].pivots == want[subset][1]
        assert got[subset].basis.tobytes() == want[subset][0].tobytes()


def test_memo_rejects_unknown_vertices():
    memo = IdealMemo(build_oracle(path_ab(), 2))
    with pytest.raises(UnknownVertexError):
        memo.of_vertices({"a", "zz"})


def _random_element(algebra, rng):
    vec = algebra.zero()
    for i in rng.sample(range(algebra.dimension), min(3, algebra.dimension)):
        vec[i] = rng.randrange(algebra.p)
    return vec


def test_generated_ideal_passes_the_audit():
    rng = Random(11)
    for graph in exhaustive_acyclic_graphs(3, 4):
        for p in (2, 3, 5):
            algebra = build_oracle(graph, p)
            for _ in range(2):
                gens = [_random_element(algebra, rng) for _ in range(rng.randint(1, 2))]
                ideal = ideal_generated_by(algebra, gens)
                audited = IdealSubspace(algebra, ideal.basis)
                assert audited.signature() == ideal.signature()
                assert audited.pivots == ideal.pivots
                # a contiguous copy, not a view pinning the row reduction's work array
                assert ideal.basis.base is None and ideal.basis.flags.c_contiguous


def test_build_oracle_prime_bound():
    good, bad = primes_around(max_exact_prime(DEFAULT_DIMENSION_CAP))
    algebra = build_oracle(Graph(("a", "b"), ()), good)
    a_block = ideal_generated_by(algebra, [algebra.vertex_image("a")])
    assert vertex_set_of(algebra, perp_subspace(algebra, a_block)) == {"b"}
    with pytest.raises(ValueError, match="int64"):
        build_oracle(path_ab(), bad)
    with pytest.raises(ValueError, match="int64"):
        build_oracle(path_ab(), 2**127 - 1)  # refused before the slow primality test


def test_prime_bound_follows_the_dimension_cap():
    good, bad = primes_around(max_exact_prime(4))
    algebra = build_oracle(path_ab(), good, dimension_cap=4)
    rng = Random(3)
    for _ in range(5):
        ideal = ideal_generated_by(algebra, [_random_element(algebra, rng)])
        assert IdealSubspace(algebra, ideal.basis).signature() == ideal.signature()
        assert perp_subspace(algebra, ideal).dim == 4 - ideal.dim
    with pytest.raises(ValueError, match="int64"):
        build_oracle(path_ab(), bad, dimension_cap=4)


@pytest.mark.parametrize("p", [2, 3])
def test_mul_follows_the_matrix_unit_rule(p):
    # e[v; g, l] * e[w; m, n] = (v == w and l == m) * e[v; g, n], read off the labels
    for graph in exhaustive_acyclic_graphs(3, 4):
        algebra = build_oracle(graph, p)
        index = {label: k for k, label in enumerate(algebra.labels)}
        units = np.eye(algebra.dimension, dtype=np.int64)
        for (v, g, l), a in zip(algebra.labels, units):
            for (w, m, n), b in zip(algebra.labels, units):
                want = algebra.zero()
                if v == w and l == m:
                    want[index[(v, g, n)]] = 1
                assert np.array_equal(algebra.mul(a, b), want)


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
    """Every product of every row by every matrix unit, from ``algebra.mul``.

    The left rows of x hold (unit_i * x) for each unit i, the right rows
    (x * unit_i).  Transposed, row k holds the coefficients of the
    coordinate k of a*x (of x*a) in the coordinates of a.
    """
    dim = algebra.dimension
    units = np.eye(dim, dtype=np.int64)
    out = [np.zeros((0, dim), dtype=np.int64)]
    for x in rows:
        left = np.array([algebra.mul(u, x) for u in units]).reshape(dim, dim)
        right = np.array([algebra.mul(x, u) for u in units]).reshape(dim, dim)
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
    # x = sum of e_ii * x over the diagonal units, so ideal_generated_by
    # need not reduce its round-start basis into the left half
    rng = Random(23 + p)
    for graph in exhaustive_acyclic_graphs(3, 4):
        algebra = build_oracle(graph, p)
        row_sets = [_random_rows(algebra, rng, count) for count in (1, 3)]
        row_sets.append(np.array([_random_element(algebra, rng) for _ in range(2)]))
        for rows in row_sets:
            left, _right = algebra.product_rows(rows)
            assert not residual(rows, left, rref_pivots(left), p).any()
