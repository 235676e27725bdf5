"""Polynomials that tests build from their roots."""

from fractions import Fraction

from chernpol.exactcore import UniPoly


def from_roots(roots, var: str = "d") -> UniPoly:
    """The monic polynomial in ``var`` whose roots, with multiplicity, are
    ``roots``."""
    p = UniPoly.const(1, var=var)
    for r in roots:
        p = p * UniPoly({1: Fraction(1), 0: -Fraction(r)}, var=var)
    return p
