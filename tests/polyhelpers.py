"""Polynomials that tests build from their roots or from one variable."""

from fractions import Fraction

from chernpol.exactcore import MultiPoly, UniPoly


def from_roots(roots, var: str = "d") -> UniPoly:
    """The monic polynomial in ``var`` whose roots, with multiplicity, are
    ``roots``."""
    p = UniPoly.const(1, var=var)
    for r in roots:
        p = p * UniPoly({1: Fraction(1), 0: -Fraction(r)}, var=var)
    return p


def variable(name: str, vars) -> MultiPoly:
    """The polynomial ``name`` in the variables ``vars``."""
    vars = tuple(vars)
    return MultiPoly(vars, {tuple(int(v == name) for v in vars): Fraction(1)})
