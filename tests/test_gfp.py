import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from leavitt.gfp import (
    INT64_MAX,
    _rref_pivot_loop,
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

from .strategies import primes_around


def _kernel(mat, p):
    kernel, pivots = nullspace_from_rref(*reduce_rowspace(mat, p), p, mat.shape[1])
    assert pivots == rref(kernel, p)[1]
    return kernel


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_rref_gf2():
    m = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    r, piv = rref(m, 2)
    assert piv == (0, 1)
    assert np.array_equal(r, np.array([[1, 0, 1], [0, 1, 1]]))


def test_rref_gf5_scales_pivots():
    m = np.array([[2, 4], [1, 2]])
    r, piv = rref(m, 5)
    assert piv == (0,)
    assert np.array_equal(r, np.array([[1, 2]]))


def test_rref_is_canonical():
    m = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    r1, p1 = rref(m, 7)
    r2, p2 = rref(np.flipud(m), 7)
    assert p1 == p2
    assert np.array_equal(r1, r2)


def test_rref_empty_shapes():
    r, piv = rref(np.zeros((0, 4), dtype=np.int64), 2)
    assert r.shape == (0, 4) and piv == ()
    r, piv = rref(np.zeros((3, 0), dtype=np.int64), 2)
    assert r.shape == (0, 0) and piv == ()


def test_rref_pivots_reads_an_rref_matrix_at_the_edges():
    assert rref_pivots(np.zeros((0, 4), dtype=np.int64)) == ()
    assert rref_pivots(np.zeros((0, 0), dtype=np.int64)) == ()
    assert rref_pivots(np.array([[0, 1, 2]])) == (1,)
    assert rref_pivots(np.eye(3, dtype=np.int64)) == (0, 1, 2)


@pytest.mark.parametrize(
    "rows",
    [
        [[2, 0], [0, 1]],  # a leading 2, as over GF(3)
        [[1, 1], [0, 1]],  # pivot column 1 has a second nonzero
        [[0, 1], [1, 0]],  # pivots out of order
        [[1, 0], [1, 0]],  # a pivot repeated
        [[1, 0], [0, 0]],  # a zero row
    ],
)
def test_rref_pivots_refuses_a_matrix_just_past_rref(rows):
    with pytest.raises(ValueError, match="not in RREF"):
        rref_pivots(np.array(rows, dtype=np.int64))


def test_residual_and_membership():
    basis, piv = rref(np.array([[1, 0, 1], [0, 1, 1]]), 2)
    assert not residual(np.array([1, 1, 0]), basis, piv, 2).any()
    assert residual(np.array([1, 0, 0]), basis, piv, 2).any()
    res = residual(np.array([[1, 1, 0], [1, 0, 0]]), basis, piv, 2)
    assert not res[0].any() and res[1].any()


def test_nullspace_annihilates():
    m = np.array([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]])
    for p in (2, 3, 5):
        ns = _kernel(m, p)
        rank = len(rref(m, p)[1])
        assert ns.shape[0] == 4 - rank
        assert not (m @ ns.T % p).any()
    # no constraint at all: the kernel is everything, in RREF
    for cols in (0, 3):
        kernel, pivots = nullspace_from_rref(np.zeros((0, cols), dtype=np.int64), (), 3, cols)
        assert kernel.tobytes() == np.eye(cols, dtype=np.int64).tobytes()
        assert pivots == tuple(range(cols))


def test_as_matrix():
    assert as_matrix([], 3).shape == (0, 3)
    assert as_matrix([np.array([1, 2, 3])], 3).shape == (1, 3)
    with pytest.raises(ValueError):
        as_matrix([np.array([1, 2])], 3)


def _rows(cols, most):
    shape = st.tuples(st.integers(0, most), st.just(cols))
    return arrays(np.int64, shape, elements=st.integers(0, 6))


@given(
    st.integers(0, 6).flatmap(lambda cols: st.tuples(_rows(cols, 12), _rows(cols, 30))),
    st.sampled_from([2, 3, 5, 7]),
)
def test_reduce_rowspace_matches_rref(pair, p):
    """Extending the RREF of A by the rows of B, three rows at a time, is the RREF of A over B."""
    a, b = pair
    want, want_pivots = rref(np.vstack([a, b]), p)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr("leavitt.gfp._CHUNK", 3)
        got, pivots = reduce_rowspace(b, p, *rref(a, p))
    assert pivots == want_pivots == rref_pivots(want)
    assert got.tobytes() == want.tobytes()


@given(
    st.lists(st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3), min_size=2, max_size=2),
    st.lists(st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=2), min_size=3, max_size=3),
)
def test_matmul_mod_matches_plain(a_rows, b_rows):
    a = np.array(a_rows, dtype=np.int64)
    b = np.array(b_rows, dtype=np.int64)
    assert np.array_equal(matmul_mod(a, b, 5), (a @ b) % 5)


@pytest.mark.parametrize("terms", [1, 3, 121, 2000])
def test_max_exact_prime_is_the_int64_edge(terms):
    bound = max_exact_prime(terms)
    assert terms * (bound - 1) ** 2 <= INT64_MAX < terms * bound**2


def test_nullspace_exact_at_last_good_prime_and_refused_past_it():
    good, bad = primes_around(max_exact_prime(1))
    rng = np.random.default_rng(7)
    mat = rng.integers(0, good, size=(4, 6), dtype=np.int64)
    ns = _kernel(mat, good)
    assert ns.shape == (2, 6)
    for v in ns.tolist():  # exact check in Python integers
        assert all(sum(a * b for a, b in zip(row, v)) % good == 0 for row in mat.tolist())
    with pytest.raises(OverflowError):
        rref(mat, bad)
    with pytest.raises(OverflowError):
        _kernel(mat, 4294967311)  # (p - 1)^2 alone is past int64


def test_matmul_mod_exact_at_last_good_prime_and_refused_past_it():
    good, bad = primes_around(max_exact_prime(3))
    # the largest possible sum: every entry p - 1, three terms
    a = np.full((2, 3), good - 1, dtype=np.int64)
    b = np.full((3, 2), good - 1, dtype=np.int64)
    assert matmul_mod(a, b, good).tolist() == [[3 * (good - 1) ** 2 % good] * 2] * 2
    with pytest.raises(OverflowError):
        matmul_mod(a, b, bad)


def test_matmul_mod_reads_the_inner_dimension_of_a_stack():
    # 1 x 8 by 8 x 1 products: eight terms each, at a prime where eight need int64
    good = primes_around(max_exact_prime(2000))[0]
    rng = np.random.default_rng(1)
    a, b = rng.integers(0, good, (20, 1, 8)), rng.integers(0, good, (20, 8, 1))
    want = [sum(int(x) * int(y) for x, y in zip(r, c)) % good for r, c in zip(a[:, 0], b[..., 0])]
    assert matmul_mod(a, b, good).ravel().tolist() == want


@st.composite
def gf2_matrices(draw):
    """Matrices over the integers with row widths around byte and word edges.

    Entries run past 0/1, and negative, so the reduction mod 2 is exercised;
    some matrices repeat their rows, some get the identity appended in a
    shuffled order and so reach full rank.
    """
    cols = draw(st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 121, 130]))
    rows = draw(st.integers(min_value=0, max_value=40))
    mat = draw(arrays(np.int64, (rows, cols), elements=st.integers(min_value=-3, max_value=3)))
    if rows and draw(st.booleans()):
        picks = draw(st.lists(st.integers(min_value=0, max_value=rows - 1), min_size=1, max_size=rows))
        mat = np.vstack([mat, mat[picks]])
    if draw(st.booleans()):
        order = draw(st.permutations(range(cols)))
        mat = np.vstack([mat, np.eye(cols, dtype=np.int64)[list(order)]])
    return mat


@settings(max_examples=300)
@given(gf2_matrices())
def test_packed_gf2_rref_matches_the_pivot_loop(mat):
    want, want_pivots = _rref_pivot_loop(mat % 2, 2)
    got, pivots = rref(mat, 2)
    assert pivots == want_pivots
    assert got.dtype == np.int64 and got.flags.c_contiguous
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # the chunked reduction and the kernel built on the packed rref agree with it
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr("leavitt.gfp._CHUNK", 5)
        chunked, chunked_pivots = reduce_rowspace(mat, 2)
    assert chunked_pivots == want_pivots and chunked.tobytes() == want.tobytes()
    cols = mat.shape[1]
    kernel = _kernel(mat, 2)
    assert kernel.tobytes() == nullspace_from_rref(want, want_pivots, 2, cols)[0].tobytes()
    assert kernel.shape == (cols - len(want_pivots), cols)
    assert not (mat @ kernel.T % 2).any()
