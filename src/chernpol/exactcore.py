"""Exact rational arithmetic: the shared errors, ``Fraction`` helpers, the
polynomial core ``_Poly`` that univariate and multivariate polynomials share,
univariate polynomials over Q, and interpolation in integers from the values
at 0, 1, ..., N.

All coefficients at the API are ``fractions.Fraction``; nothing here ever
rounds.  Polynomial products and the rational-root test run on integer
numerators over one shared denominator per operand (``_cleared``), and the
products turn their integer sums back into ``Fraction``s once, on exit
(``_rebuilt``).  Arithmetic results are built by ``_new``, which trusts its
terms; ``__init__`` validates terms that come from outside.

This is all a cached query needs.  ``MultiPoly``, Lagrange ``interpolate``
and ``series_invert`` live in ``multipoly`` and the rational-root search in
``roots``; both load on first use.  Those three names also resolve here
(``exactcore.MultiPoly`` is ``multipoly.MultiPoly``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Mapping, Sequence


class DuplicateAbscissaError(ValueError):
    pass


class InconsistentDataError(ValueError):
    """An internal cross-check failed: an interpolation guard point is off
    the fitted polynomial, a result that must be an integer is not, or two
    independent methods disagree."""


class OutOfDomainError(ValueError):
    """Input outside the domain where the requested quantity is defined."""


class NotInvertibleError(ValueError):
    """Series inversion of something without constant term 1."""


def rat(x) -> Fraction:
    """Coerce ints / strings / Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def rat_to_str(q: Fraction) -> str:
    q = rat(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def as_integer(q, what: str) -> int:
    """``q`` as an int; InconsistentDataError if it is not integral."""
    q = rat(q)
    if q.denominator != 1:
        raise InconsistentDataError(f"{what} is not an integer: {q}")
    return q.numerator


def xvars(n: int) -> tuple:
    """The variable names x1..xn."""
    return tuple(f"x{i+1}" for i in range(n))



def _cleared(terms: Mapping) -> tuple:
    """``(D, [(key, n)])`` with ``D`` the lcm of the denominators of the
    Fraction values of ``terms`` and each value equal to ``n / D``."""
    D = math.lcm(*[c.denominator for c in terms.values()])
    return D, [(e, c.numerator * (D // c.denominator)) for e, c in terms.items()]


def _rebuilt(sums: Mapping, D: int) -> dict:
    """``{key: n / D}`` for the nonzero integer sums ``n``."""
    return {e: Fraction(n, D) for e, n in sums.items() if n}


class TruncationPolicy:
    """Discard every term of total degree strictly above ``max_total_degree``."""

    __slots__ = ("max_total_degree",)

    def __init__(self, max_total_degree: int):
        if max_total_degree < 0:
            raise ValueError("max_total_degree must be non-negative")
        self.max_total_degree = int(max_total_degree)

    def __repr__(self):
        return f"TruncationPolicy({self.max_total_degree})"


class _Poly:
    """The arithmetic UniPoly and MultiPoly share, over one sparse ``terms``
    dict {exponent key: nonzero Fraction}.

    A subclass supplies ``_new(terms)`` (a polynomial in its own variables,
    taking ``terms`` as they are: well-formed keys, nonzero Fraction values),
    ``_coerce`` (numbers become constants), ``_mul`` (the product with a
    polynomial of its own kind; ``*`` by a number scales), and for ``repr``
    the display order ``_repr_key`` and the monomial text ``_mono`` of a key.
    """

    __slots__ = ("terms",)

    def is_zero(self) -> bool:
        return not self.terms

    def _merged(self, other, op):
        """``op(self, other)`` for op = add or sub, in one pass over the
        terms of ``other``."""
        out = dict(self.terms)
        for e, c in self._coerce(other).terms.items():
            s = op(out.get(e, Fraction(0)), c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return self._new(out)

    def __add__(self, other):
        return self._merged(other, add)

    __radd__ = __add__

    def __neg__(self):
        return self._new({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._merged(other, sub)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self._coerce(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self._mul(self._coerce(other))

    __rmul__ = __mul__

    def scale(self, c):
        c = rat(c)
        return self._new({e: v * c for e, v in self.terms.items()} if c else {})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=self._repr_key):
            c = self.terms[e]
            mono = self._mono(e)
            if not mono:
                parts.append(rat_to_str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{rat_to_str(c)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


class UniPoly(_Poly):
    """Univariate polynomial over Q, sparse dict {exponent: coefficient}.

    The zero polynomial has ``degree() is None`` (a sentinel distinct from
    any integer, so it cannot collide with evaluation points like -1).
    """

    __slots__ = ("var",)

    def __init__(self, terms: Mapping[int, Fraction] | None = None, var: str = "d"):
        self.var = var
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = rat(c)
                if c != 0:
                    self.terms[int(e)] = c

    # -- constructors ---------------------------------------------------
    @classmethod
    def const(cls, c, var: str = "d") -> "UniPoly":
        return cls({0: rat(c)}, var=var)

    @classmethod
    def x(cls, var: str = "d") -> "UniPoly":
        return cls({1: Fraction(1)}, var=var)

    @classmethod
    def from_roots(cls, roots: Iterable, var: str = "d") -> "UniPoly":
        p = cls.const(1, var=var)
        for r in roots:
            p = p * cls({1: Fraction(1), 0: -rat(r)}, var=var)
        return p

    def _new(self, terms: dict) -> "UniPoly":
        out = object.__new__(UniPoly)
        out.var, out.terms = self.var, terms
        return out

    def _coerce(self, other) -> "UniPoly":
        if isinstance(other, UniPoly):
            return other
        return UniPoly.const(other, var=self.var)

    # -- basics ---------------------------------------------------------
    def degree(self):
        if not self.terms:
            return None
        return max(self.terms)

    def coeff(self, e: int) -> Fraction:
        return self.terms.get(e, Fraction(0))

    def leading_coeff(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.terms[max(self.terms)]

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == UniPoly.const(other, var=self.var)
        return NotImplemented

    def __hash__(self):
        # as __eq__: the variable name does not count, and a constant hashes
        # as the number it equals
        if self.terms.keys() <= {0}:
            return hash(self.coeff(0))
        return hash(frozenset(self.terms.items()))

    # -- arithmetic -----------------------------------------------------
    def _mul(self, other):
        D1, a = _cleared(self.terms)
        D2, b = _cleared(other.terms)
        sums: dict[int, int] = {}
        for e1, n1 in a:
            for e2, n2 in b:
                e = e1 + e2
                sums[e] = sums.get(e, 0) + n1 * n2
        return self._new(_rebuilt(sums, D1 * D2))

    def rational_roots(self) -> tuple:
        """``(roots, cofactor)``: [(root, multiplicity)] of every rational
        root of a nonzero polynomial, 0 first, then the others in the order
        of (|numerator|, denominator, sign), positive before negative; and
        the polynomial divided by prod (var - root)^multiplicity.

        On one integer list A with coefficients a_0..a_N (denominators
        cleared, d^low divided out): Descartes bisection of A(x) and A(-x)
        (``roots._positive_root_candidates``) proposes the candidates, and
        each p/q in lowest terms is divided out by synthetic division by
        ``q·x − p`` for as long as that is exact (Gauss's lemma).
        """
        from .roots import rational_roots
        return rational_roots(self)

    # -- evaluation / composition ---------------------------------------
    def __call__(self, value):
        """Horner evaluation; ``value`` may be a Fraction, int, UniPoly or
        MultiPoly (polynomial composition)."""
        if isinstance(value, _Poly):
            result = value * 0
        else:
            result, value = Fraction(0), rat(value)
        top = self.degree()
        if top is None:
            return result
        result = result + self.terms[top]
        for e in range(top - 1, -1, -1):
            result = result * value
            if e in self.terms:
                result = result + self.terms[e]
        return result

    # -- io ---------------------------------------------------------------
    def to_json(self) -> list:
        return [[e, rat_to_str(c)] for e, c in sorted(self.terms.items())]

    @classmethod
    def from_json(cls, data: Sequence, var: str = "d") -> "UniPoly":
        return cls({int(e): Fraction(c) for e, c in data}, var=var)

    @staticmethod
    def _repr_key(e: int) -> int:
        return -e

    def _mono(self, e: int) -> str:
        if e == 0:
            return ""
        return self.var if e == 1 else f"{self.var}^{e}"


# ---------------------------------------------------------------------------
# interpolation in integers
# ---------------------------------------------------------------------------

def interpolate_integers(values: Sequence[int], var: str = "d") -> UniPoly:
    """The polynomial of degree < len(values) with value values[i] at i =
    0, 1, ..., N, in integers: N! times its Newton form sum_j Delta^j f(0)
    C(d, j), by Horner's rule on the factors (d - j), divided by N! once."""
    diffs, row = [], list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    acc, scale = [], 1          # scale = N!/j!, and N! after the loop
    for j in range(len(diffs) - 1, -1, -1):
        acc = [hi - j * lo for hi, lo in zip([0] + acc, acc + [0])]
        acc[0] += diffs[j] * scale
        scale *= j or 1
    return UniPoly({e: Fraction(a, scale) for e, a in enumerate(acc)}, var=var)


# names read from ``multipoly``, which a cached query never loads, on first
# use (PEP 562)
_FROM_MULTIPOLY = ("MultiPoly", "interpolate", "series_invert")


def __getattr__(name: str):
    # not stored here, so this name always reads multipoly's binding
    if name not in _FROM_MULTIPOLY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import multipoly
    return getattr(multipoly, name)
