"""Laurent polynomials over GF(p): the algebra of a single exit-free cycle.

A graph that is one cycle with no exit has the Laurent polynomial algebra
as its path algebra, which the acyclic matrix oracle cannot reach; this
module covers that family.  Since GF(p) has no zero divisors, lowest and
highest degrees add under multiplication, so a nonzero element annihilates
nothing — the computational face of "nonzero ideals in a domain have zero
annihilator".

It holds what the ``laurent-annihilator-zero`` row needs: elements built
from a degree -> coefficient mapping, products, degree bounds, equality and
a ``repr`` for failure details.
"""

from __future__ import annotations

from typing import Mapping

from .gfp import is_prime

# the monomial degrees that laurent_perp_is_zero multiplies by
DEGREE_WINDOW = range(-6, 7)


class LaurentElement:
    """Finitely supported coefficient map degree -> GF(p); zeros are absent."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Mapping[int, int]):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.coeffs = {d: c % p for d, c in coeffs.items() if c % p}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def min_degree(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    @property
    def max_degree(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __mul__(self, other: "LaurentElement") -> "LaurentElement":
        self._check_field(other)
        out: dict[int, int] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
        return LaurentElement(self.p, out)

    def _check_field(self, other: "LaurentElement") -> None:
        if self.p != other.p:
            raise ValueError("elements live over different prime fields")

    def __repr__(self) -> str:
        if self.is_zero:
            return f"LaurentElement(GF({self.p}), 0)"
        terms = " + ".join(f"{c}*x^{d}" for d, c in sorted(self.coeffs.items()))
        return f"LaurentElement(GF({self.p}), {terms})"


def laurent_perp_is_zero(f: LaurentElement) -> bool:
    """Spot-check that a nonzero element annihilates nothing.

    Multiplies ``f`` by every monomial with degree in ``DEGREE_WINDOW`` (a
    spanning family for that window) and confirms the product is nonzero with
    additive lowest/highest degrees — the degree argument that settles the
    infinite statement.  Raises on f = 0, whose annihilator is everything.
    """
    if f.is_zero:
        raise ValueError("annihilator test needs a nonzero element")
    for d in DEGREE_WINDOW:
        prod = f * LaurentElement(f.p, {d: 1})
        if prod.is_zero:
            return False
        if prod.min_degree != f.min_degree + d or prod.max_degree != f.max_degree + d:
            return False
    return True
