"""Sparse multivariate polynomials over Q, Lagrange interpolation with
consistency guards, and truncated power-series inversion.

These serve the computations at a concrete d (``chern.chern_direct``, the
Grassmann and Fano integrals, the orbit fits) and the Stirling coefficients;
a cached Chern query runs none of them, so they live apart from
``exactcore`` and load on first use.  ``MultiPoly`` shares its arithmetic
with ``UniPoly`` through ``exactcore._Poly``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

from .exactcore import (DuplicateAbscissaError, InconsistentDataError,
                        NotInvertibleError, TruncationPolicy, UniPoly, _Poly,
                        _cleared, _rebuilt, rat, rat_to_str, xvars)


class MultiPoly(_Poly):
    """Sparse multivariate polynomial over Q: {exponent tuple: Fraction}."""

    __slots__ = ("vars",)

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, Fraction] | None = None):
        self.vars = tuple(vars)
        self.terms = {}
        if terms:
            n = len(self.vars)
            for ev, c in terms.items():
                if len(ev) != n:
                    raise ValueError("exponent vector length mismatch")
                c = rat(c)
                if c != 0:
                    self.terms[tuple(int(e) for e in ev)] = c

    @classmethod
    def const(cls, c, vars: Sequence[str]) -> "MultiPoly":
        return cls(vars, {(0,) * len(vars): rat(c)})

    @classmethod
    def linear_factor(cls, weights: Sequence[int]) -> "MultiPoly":
        """1 + w_1 x_1 + ... + w_n x_n in the variables xvars(n)."""
        n = len(weights)
        terms = {(0,) * n: Fraction(1)}
        for i, w in enumerate(weights):
            if w:
                terms[tuple(1 if j == i else 0 for j in range(n))] = Fraction(w)
        return cls(xvars(n), terms)

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

    def filter_terms(self, keep) -> "MultiPoly":
        return self._new({ev: c for ev, c in self.terms.items() if keep(ev)})

    def homogeneous_component(self, k: int) -> "MultiPoly":
        return self.filter_terms(lambda ev: sum(ev) == k)

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

    def to_json(self) -> list:
        return [[list(ev), rat_to_str(c)]
                for ev, c in sorted(self.terms.items())]

    @classmethod
    def from_json(cls, data: Sequence, vars: Sequence[str]) -> "MultiPoly":
        return cls(vars, {tuple(ev): Fraction(c) for ev, c in data})

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

    Raises DuplicateAbscissaError on repeated abscissas and
    InconsistentDataError when a guard point misses the curve (which signals
    a wrong degree bound upstream).
    """
    pts = [(int(a), rat(v)) for a, v in points]
    if len({a for a, _ in pts}) != len(pts):
        raise DuplicateAbscissaError("duplicate interpolation abscissas")
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
        raise NotInvertibleError("series inversion needs constant term 1")
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
