import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from leavitt.gfp import (
    INT64_MAX,
    as_matrix,
    in_rowspace,
    is_prime,
    matmul_mod,
    max_exact_prime,
    nullspace,
    reduce_rowspace,
    residual,
    rref,
)

from .strategies import primes_around


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


def test_residual_and_membership():
    basis, piv = rref(np.array([[1, 0, 1], [0, 1, 1]]), 2)
    assert in_rowspace(np.array([1, 1, 0]), basis, piv, 2)
    assert not in_rowspace(np.array([1, 0, 0]), basis, piv, 2)
    res = residual(np.array([[1, 1, 0], [1, 0, 0]]), basis, piv, 2)
    assert not res[0].any() and res[1].any()


def test_nullspace_annihilates():
    m = np.array([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]])
    for p in (2, 3, 5):
        ns = nullspace(m, p)
        rank = len(rref(m, p)[1])
        assert ns.shape[0] == 4 - rank
        assert not (m @ ns.T % p).any()


def test_as_matrix():
    assert as_matrix([], 3).shape == (0, 3)
    assert as_matrix([np.array([1, 2, 3])], 3).shape == (1, 3)
    with pytest.raises(ValueError):
        as_matrix([np.array([1, 2])], 3)


@given(
    st.integers(min_value=0, max_value=30).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=6), min_size=4, max_size=4),
            min_size=n,
            max_size=n,
        )
    ),
    st.sampled_from([2, 3, 5, 7]),
)
def test_reduce_rowspace_matches_rref(rows, p):
    mat = as_matrix([np.array(r) for r in rows], 4)
    r1, p1 = rref(mat, p)
    r2, p2 = reduce_rowspace(mat, p, chunk=3)
    assert p1 == p2
    assert np.array_equal(r1, r2)


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
    ns = nullspace(mat, good)
    assert ns.shape == (2, 6)
    for v in ns.tolist():  # exact check in Python integers
        assert all(sum(a * b for a, b in zip(row, v)) % good == 0 for row in mat.tolist())
    with pytest.raises(OverflowError):
        rref(mat, bad)
    with pytest.raises(OverflowError):
        nullspace(mat, 4294967311)  # (p - 1)^2 alone is past int64


def test_matmul_mod_exact_at_last_good_prime_and_refused_past_it():
    good, bad = primes_around(max_exact_prime(3))
    # the largest possible sum: every entry p - 1, three terms
    a = np.full((2, 3), good - 1, dtype=np.int64)
    b = np.full((3, 2), good - 1, dtype=np.int64)
    assert matmul_mod(a, b, good).tolist() == [[3 * (good - 1) ** 2 % good] * 2] * 2
    with pytest.raises(OverflowError):
        matmul_mod(a, b, bad)
