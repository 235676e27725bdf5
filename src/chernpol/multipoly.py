"""Sparse multivariate polynomials over Q, interpolation by Newton's divided
differences with consistency guards, and truncated power-series inversion.

``MultiPoly`` holds products in x1..xn, which only ``chern.chern_direct`` and
the oracles build, and the parameter polynomials of rising products and their
Stirling coefficients.  A cached Chern query runs none of this, so it lives
apart from ``exactcore`` and loads on first use.
``MultiPoly`` shares its arithmetic with ``UniPoly`` through
``exactcore._Poly``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

from .exactcore import (InconsistentDataError, TruncationPolicy, UniPoly,
                        _Poly, _cleared, _rebuilt, as_natural, naturals, rat)


class MultiPoly(_Poly):
    """Sparse multivariate polynomial over Q: {exponent tuple: Fraction}."""

    __slots__ = ("vars",)

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, Fraction] | None = None):
        self.vars, self.terms = tuple(vars), {}
        for ev, c in (terms or {}).items():
            if len(ev) != len(self.vars):
                raise ValueError("exponent vector length mismatch")
            ev, c = naturals(ev, "an exponent"), rat(c)
            if c != 0:
                self.terms[ev] = c

    @classmethod
    def const(cls, c, vars: Sequence[str]) -> "MultiPoly":
        return cls(vars, {(0,) * len(vars): rat(c)})

    def _new(self, terms: dict) -> "MultiPoly":
        out = object.__new__(MultiPoly)
        out.vars, out.terms = self.vars, terms
        return out

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise ValueError("variable mismatch")
            return other
        return MultiPoly.const(other, self.vars)

    def coeff(self, ev: tuple) -> Fraction:
        return self.terms.get(tuple(ev), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def total_degree(self):
        if not self.terms:
            return None
        return max(sum(ev) for ev in self.terms)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.const(other, self.vars)
        return NotImplemented

    def __hash__(self):
        # as __eq__: a constant hashes as the number it equals
        if self.terms.keys() <= {(0,) * len(self.vars)}:
            return hash(self.constant_term())
        return hash((self.vars, frozenset(self.terms.items())))

    def _mul(self, other):
        return self.mul_truncated(other, None)

    def mul_truncated(self, other: "MultiPoly", max_degree: int | None) -> "MultiPoly":
        """Product, dropping result terms of total degree > max_degree."""
        other = self._coerce(other)
        D1, a = _cleared(self.terms)
        D2, b = _cleared(other.terms)
        b = [(ev2, sum(ev2), n2) for ev2, n2 in b]
        widest = max((d2 for _, d2, _ in b), default=0)
        sums: dict[tuple, int] = {}
        for ev1, n1 in a:
            room = widest if max_degree is None else max_degree - sum(ev1)
            for ev2, d2, n2 in b:
                if d2 > room:
                    continue
                ev = tuple(map(add, ev1, ev2))
                sums[ev] = sums.get(ev, 0) + n1 * n2
        return self._new(_rebuilt(sums, D1 * D2))

    def truncate(self, m: int) -> "MultiPoly":
        return self._new({ev: c for ev, c in self.terms.items() if sum(ev) <= m})

    def homogeneous_component(self, k: int) -> "MultiPoly":
        return self._new({ev: c for ev, c in self.terms.items() if sum(ev) == k})

    def evaluate(self, values: Mapping[str, Fraction]):
        """Full evaluation at rational values for every variable."""
        total = Fraction(0)
        vals = [rat(values[v]) for v in self.vars]
        for ev, c in self.terms.items():
            term = c
            for v, e in zip(vals, ev):
                if e:
                    term *= v ** e
            total += term
        return total

    def is_symmetric(self) -> bool:
        """Invariance under all adjacent transpositions of the variables."""
        n = len(self.vars)
        for i in range(n - 1):
            for ev, c in self.terms.items():
                swapped = list(ev)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                if self.terms.get(tuple(swapped), Fraction(0)) != c:
                    return False
        return True

    @staticmethod
    def _repr_key(ev: tuple) -> tuple:
        return (sum(ev), ev)

    def _mono(self, ev: tuple) -> str:
        return "*".join((v if e == 1 else f"{v}^{e}")
                        for v, e in zip(self.vars, ev) if e)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def interpolate(points, degree_bound: int, var: str = "d") -> UniPoly:
    """Unique polynomial of degree <= degree_bound through the first
    degree_bound+1 points; any extra points act as consistency guards.

    Raises ValueError on repeated abscissas and InconsistentDataError when
    a guard point misses the curve (which signals a wrong degree bound
    upstream).
    """
    degree_bound = as_natural(degree_bound, "degree_bound")
    pts = [(rat(a), rat(v)) for a, v in points]
    if len({a for a, _ in pts}) != len(pts):
        raise ValueError("duplicate interpolation abscissas")
    if len(pts) < degree_bound + 1:
        raise ValueError("need at least degree_bound+1 points")
    base = pts[: degree_bound + 1]
    # Newton's divided differences, exact.
    xs = [a for a, _ in base]
    coef = [v for _, v in base]
    for j in range(1, len(base)):
        for i in range(len(base) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = UniPoly({}, var=var)
    basis = UniPoly.const(1, var=var)
    for i, c in enumerate(coef):
        poly = poly + basis.scale(c)
        if i < len(coef) - 1:
            basis = basis * UniPoly({1: Fraction(1), 0: -Fraction(xs[i])}, var=var)
    for a, v in pts[degree_bound + 1:]:
        if poly(a) != v:
            raise InconsistentDataError(
                f"guard point ({a}, {v}) not on interpolated polynomial")
    return poly


# ---------------------------------------------------------------------------
# Truncated power series inversion
# ---------------------------------------------------------------------------

def series_invert(f: MultiPoly, policy: TruncationPolicy) -> MultiPoly:
    """Multiplicative inverse of a series with constant term 1, truncated."""
    if f.constant_term() != 1:
        raise ValueError("series inversion needs constant term 1")
    m = policy.max_total_degree
    g = f.truncate(m)
    h = MultiPoly.const(1, f.vars) - g      # no constant term
    # 1/(1-h) = 1 + h + h^2 + ...  (h nilpotent up to truncation degree)
    out = MultiPoly.const(1, f.vars)
    power = MultiPoly.const(1, f.vars)
    for _ in range(m):
        power = power.mul_truncated(h, m)
        if power.is_zero():
            break
        out = out + power
    return out
