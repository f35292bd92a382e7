"""Exact dense linear algebra over GF(p) on numpy int64 arrays.

Row spaces are kept in reduced row echelon form, which is canonical: two
subspaces are equal iff their RREF matrices are equal, so RREF bytes double
as the oracle's block keys (a full-rank RREF is the identity, so there its
pivots do).  Because the form is fully reduced, reducing a vector against a
basis is a single matrix product, not a pivot loop.

:func:`rref` picks its kernel by the prime alone.  Over GF(2) each row is
packed into a Python int (column c at bit ``cols - 1 - c``) and eliminated
by XOR, as in M4RI (Albrecht, Bard and Hart, "Algorithm 898", ACM TOMS
37(1), 2010); the per-pivot numpy calls it replaces dominate on the small
matrices the oracle reduces.  Odd primes use a numpy pivot loop.  Both
return the same int64 array, byte for byte, so block keys do not depend on
the kernel.

Entries are residues in [0, p), and every int64 step adds up at most some
number of products of two residues, so it is exact while
terms * (p - 1)^2 <= 2^63 - 1 (see :func:`max_exact_prime`).  Past that,
:func:`rref` and :func:`matmul_mod` raise ``OverflowError``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

INT64_MAX = 2**63 - 1


def max_exact_prime(terms: int) -> int:
    """Largest p for which a sum of ``terms`` products of residues mod p fits in int64.

    The sums are: 1 term in the row update of :func:`rref`, and the inner
    dimension in the int64 fallback of :func:`matmul_mod`.  The oracle's
    ``_audit_relations`` multiplies n x n blocks and its block solves
    multiply by RREF bases of at most n * n rows, so for an algebra of
    dimension at most ``terms`` every sum has at most ``terms``.
    """
    return math.isqrt(INT64_MAX // max(terms, 1)) + 1


_RREF_MAX_PRIME = max_exact_prime(1)

# rows per step of reduce_rowspace
_CHUNK = 256


@lru_cache(maxsize=8)
def is_prime(n: int) -> bool:
    """Trial division, memoized: a command asks about its one prime many times."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def as_matrix(rows, width: int) -> np.ndarray:
    """Stack vectors into an (n, width) int64 matrix; handles the empty case."""
    rows = list(rows)
    if not rows:
        return np.zeros((0, width), dtype=np.int64)
    mat = np.array(rows, dtype=np.int64)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    if mat.shape[1] != width:
        raise ValueError(f"expected width {width}, got {mat.shape[1]}")
    return mat


def rref(matrix: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form over GF(p); zero rows dropped.

    Returns (R, pivot_columns); len(pivot_columns) is the rank.  GF(2)
    goes through the bit-packed kernel, odd primes through the numpy pivot
    loop; both return the same canonical form.
    """
    if p > _RREF_MAX_PRIME:
        raise OverflowError(
            f"rref over GF({p}) overflows int64 (largest exact prime {_RREF_MAX_PRIME})"
        )
    a = np.array(matrix, dtype=np.int64) % p
    if p == 2:
        return _rref_gf2(a)
    return _rref_pivot_loop(a, p)


def _rref_pivot_loop(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """RREF of a matrix of residues mod p by one numpy pivot step per column."""
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        hit = a[:, c] != 0
        hit[r] = False
        if hit.any():
            a[hit] = (a[hit] - np.outer(a[hit, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], tuple(pivots)


def _rref_gf2(a: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """RREF of a 0/1 matrix over GF(2), one Python int per row (the M4RI idea).

    Column c is bit ``cols - 1 - c`` of a row, so a row's leading column is
    its highest set bit.  ``reduced`` maps each pivot bit to its row and is
    kept fully reduced: a pivot row is zero on every other pivot bit, so a
    new row is reduced by XOR-ing the rows of the pivot bits it has set.
    """
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return np.zeros((0, cols), dtype=np.int64), ()
    packed = np.packbits(a, axis=1)
    width = packed.shape[1]
    pad = 8 * width - cols
    data = packed.tobytes()
    reduced: dict[int, int] = {}
    pivot_mask = 0
    for start in range(0, rows * width, width):
        x = int.from_bytes(data[start : start + width], "big") >> pad
        hits = x & pivot_mask
        while hits:
            bit = hits.bit_length() - 1
            x ^= reduced[bit]
            hits ^= 1 << bit
        if not x:
            continue
        lead = x.bit_length() - 1
        for bit, row in reduced.items():
            if row >> lead & 1:
                reduced[bit] = row ^ x
        reduced[lead] = x
        pivot_mask |= 1 << lead
        if len(reduced) == cols:
            break
    order = sorted(reduced, reverse=True)
    out = b"".join((reduced[bit] << pad).to_bytes(width, "big") for bit in order)
    bits = np.unpackbits(
        np.frombuffer(out, dtype=np.uint8).reshape(len(order), width), axis=1, count=cols
    )
    return bits.astype(np.int64), tuple(cols - 1 - bit for bit in order)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p, for matrices or stacks of them.

    Routes through float64 BLAS when the products provably stay inside the
    exact-integer range of float64; numpy's plain int64 matmul is a naive
    loop and far slower.
    """
    inner = a.shape[-1]
    if inner == 0:
        return np.zeros(a.shape[:-1] + b.shape[-1:], dtype=np.int64)
    largest = inner * (p - 1) * (p - 1)
    if largest < 2**53:
        prod = np.rint(a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    elif largest <= INT64_MAX:
        prod = a @ b
    else:
        raise OverflowError(f"{inner}-term products over GF({p}) overflow int64")
    return prod % p


def rref_pivots(matrix: np.ndarray) -> tuple[int, ...]:
    """Pivot columns of a matrix that is already in RREF; ``ValueError`` if it is not.

    RREF here means: every row has a leading entry 1, the leading columns
    strictly increase, and each leading column is zero off its own row.
    A matrix with no rows is in RREF, whatever its width.
    """
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got {a.ndim} dimensions")
    if a.shape[0] == 0:
        return ()
    nonzero = a != 0
    if not nonzero.any(axis=1).all():
        raise ValueError("not in RREF: a zero row")
    lead = nonzero.argmax(axis=1)
    if (a[np.arange(a.shape[0]), lead] != 1).any():
        raise ValueError("not in RREF: a leading entry other than 1")
    if (np.diff(lead) <= 0).any():
        raise ValueError("not in RREF: leading columns do not strictly increase")
    if (nonzero[:, lead].sum(axis=0) != 1).any():
        raise ValueError("not in RREF: a pivot column with a second nonzero")
    return tuple(lead.tolist())


def residual(vectors, basis: np.ndarray, pivots: tuple[int, ...], p: int) -> np.ndarray:
    """Reduce vectors against an RREF basis; zero rows mean membership.

    One-shot: basis rows vanish on each other's pivot columns, so the whole
    reduction is vectors - vectors[:, pivots] @ basis.
    """
    v = np.array(vectors, dtype=np.int64) % p
    if v.ndim == 1:
        v = v.reshape(1, -1)
    if not pivots or v.shape[0] == 0:
        return v
    coef = v[:, np.fromiter(pivots, dtype=np.int64)]
    if coef.any():
        v = (v - matmul_mod(coef, basis, p)) % p
    return v


def reduce_rowspace(
    matrix: np.ndarray,
    p: int,
    basis: np.ndarray | None = None,
    pivots: tuple[int, ...] = (),
) -> tuple[np.ndarray, tuple[int, ...]]:
    """RREF of the span of an RREF basis (empty by default) and the rows of ``matrix``.

    The rows are taken ``_CHUNK`` at a time.  Each chunk is reduced against
    the basis built so far, and only its nonzero residual rows are
    row-reduced.  Those vanish on the basis's pivot columns, so the basis
    is not reduced again: one matrix product clears the new pivot columns
    from it, and the rows of both, ordered by pivot, are the new RREF.
    Once the rank reaches the column count no row can add to it, and the
    rest are skipped.
    """
    mat = np.asarray(matrix, dtype=np.int64)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    if basis is None:
        basis = np.zeros((0, mat.shape[1]), dtype=np.int64)
    for start in range(0, mat.shape[0], _CHUNK):
        if len(pivots) == mat.shape[1]:
            break
        res = residual(mat[start : start + _CHUNK], basis, pivots, p)
        fresh = res[res.any(axis=1)]
        if fresh.shape[0]:
            new, new_pivots = rref(fresh, p)
            if not pivots:
                basis, pivots = new, new_pivots
                continue
            basis = (basis - matmul_mod(basis[:, list(new_pivots)], new, p)) % p
            merged = pivots + new_pivots
            basis = np.vstack([basis, new])[np.argsort(merged)]
            pivots = tuple(sorted(merged))
    return basis, pivots


def nullspace_from_rref(
    basis: np.ndarray, pivots: tuple[int, ...], p: int, cols: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """RREF basis of the right kernel and its pivots, given the RREF of the matrix.

    With no pivots the kernel is everything, and the identity is its RREF:
    the annihilator of every zero block of an oracle ideal is that case.
    """
    if not pivots:
        return np.eye(cols, dtype=np.int64), tuple(range(cols))
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    if not free:
        return np.zeros((0, cols), dtype=np.int64), ()
    out = np.zeros((len(free), cols), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    out[:, list(pivots)] = -basis[:, free].T % p
    return rref(out, p)

