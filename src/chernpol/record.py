"""The ChernPolynomial record: the coefficients of c_k(Pol^d(C^n)) as
polynomials in d, in one basis, with evaluation, basis change, the
divisibility check and the JSON form the cache stores.

It imports only ``exactcore`` and ``symfunc``, so a query answered from the
cache reads, converts and prints a record without loading ``chern``, which
computes them.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .exactcore import OutOfDomainError, UniPoly
from .symfunc import convert_expansion

FORMAT_VERSION = "chernpol-cache-2"


def check_degree(d, n: int | None = None) -> None:
    """c(Pol^d(C^n)) is defined for d >= -1 (d = -1 is the empty product);
    for n = 1 its polynomials hold only for d >= 0 (c_1 = d)."""
    if d < -1 or (n == 1 and d < 0):
        raise OutOfDomainError("d must be >= 0 for n = 1" if n == 1
                               else "d must be >= -1")


class ChernPolynomial:
    """Coefficients of c_k as polynomials in d, in one basis."""

    def __init__(self, n: int, k: int, basis: str, terms: dict | None = None,
                 samples: list | None = None):
        self.n, self.k, self.basis = n, k, basis
        # partition -> UniPoly in d
        self.terms = {} if terms is None else terms
        # always []; kept for readers of the cache and the benchmark trace
        self.samples = [] if samples is None else samples

    def _key(self) -> tuple:
        return self.n, self.k, self.basis, self.terms, self.samples

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        return ("ChernPolynomial(n={!r}, k={!r}, basis={!r}, terms={!r}, "
                "samples={!r})".format(*self._key()))

    def evaluate(self, d) -> dict:
        """{partition: Fraction} at a concrete d >= -1 (d >= 0 for n = 1)."""
        check_degree(d, self.n)
        return {lam: p(Fraction(d)) for lam, p in self.terms.items()}

    def in_basis(self, basis: str) -> "ChernPolynomial":
        if basis == self.basis:
            return self
        terms = convert_expansion(self.terms, self.basis, basis, self.n)
        return ChernPolynomial(self.n, self.k, basis, terms)

    def divisibility_roots(self) -> list:
        """The simple roots -1, 0, ..., d0(k)-1 of every coefficient, with
        d0(k) minimal such that the weight simplex has at least k points; c_1
        also vanishes at 0.  For n = 1 the simplex is one point for every d,
        c_1 = d and c_k = 0 for k >= 2, so the only root is 0."""
        if self.k == 0:
            return []
        if self.n == 1:
            return [0]
        d0 = 0
        while comb(d0 + self.n - 1, self.n - 1) < self.k:
            d0 += 1
        roots = list(range(-1, d0))
        if self.k == 1 and 0 not in roots:
            roots.append(0)
        return roots

    def divisibility_factor(self) -> UniPoly:
        """(d+1)d(d-1)...(d-(d0(k)-1)), the product over divisibility_roots."""
        return UniPoly.from_roots(self.divisibility_roots(), var="d")

    def divisibility_ok(self) -> bool:
        """Is every coefficient divisible by the factor?  Its roots are
        simple, so that is every coefficient vanishing at each of them."""
        roots = self.divisibility_roots()
        return all(p(r) == 0 for p in self.terms.values() for r in roots)

    def to_json(self) -> dict:
        return {
            "format": FORMAT_VERSION,
            "n": self.n, "k": self.k, "basis": self.basis,
            "samples": list(self.samples),
            "terms": [[list(lam), p.to_json()]
                      for lam, p in sorted(self.terms.items())],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChernPolynomial":
        if data.get("format") != FORMAT_VERSION:
            raise ValueError("stale cache format")
        terms = {tuple(lam): UniPoly.from_json(p, var="d")
                 for lam, p in data["terms"]}
        return cls(data["n"], data["k"], data["basis"], terms)
