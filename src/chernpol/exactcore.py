"""Exact rational arithmetic: the shared errors, the domain check of the
degree d, the rules for numeric inputs and the reader of JSON input files,
``Fraction`` helpers, the variable names, the polynomial core ``_Poly`` that
univariate and multivariate polynomials share, univariate polynomials over
Q, and interpolation in integers from the values at 0, 1, ..., N.

All coefficients at the API are ``fractions.Fraction``; nothing here ever
rounds.  Polynomial products and the rational-root test run on integer
numerators over one shared denominator per operand (``_cleared``), and the
products turn their integer sums back into ``Fraction``s once, on exit
(``_rebuilt``).  Arithmetic results are built by ``_new``, which trusts its
terms; ``__init__`` validates terms that come from outside.

This is all a cached query needs.  ``MultiPoly``, ``interpolate`` (Newton's
divided differences) and ``series_invert`` live in ``multipoly`` and the
rational-root search in ``roots``; both load on first use.  Those three names also resolve here
(``exactcore.MultiPoly`` is ``multipoly.MultiPoly``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub
from typing import Mapping, Sequence


class InconsistentDataError(ValueError):
    """An internal cross-check failed: an interpolation guard point is off
    the fitted polynomial, a result that must be an integer is not, or two
    independent methods disagree."""


class OutOfDomainError(ValueError):
    """Input outside the domain where the requested quantity is defined."""


def check_degree(d, n: int | None = None) -> int:
    """``d`` as an int (``as_int``), if c(Pol^d(C^n)) is defined there: for
    d >= -1 (d = -1 is the empty product); for n = 1 its polynomials hold
    only for d >= 0 (c_1 = d)."""
    d = as_int(d, "d")
    if d < -1 or (n == 1 and d < 0):
        raise OutOfDomainError("d must be >= 0 for n = 1" if n == 1
                               else "d must be >= -1")
    return d


def rat(x) -> Fraction:
    """``x`` as a Fraction: a Fraction, a string that Fraction reads ("1/10",
    "0.1") or an integer by ``as_int``; never a float's binary value."""
    if not isinstance(x, (Fraction, str)):
        x = as_int(x, 'a number that is not a string ("1/10")')
    return x if isinstance(x, Fraction) else Fraction(x)


def as_integer(q, what: str) -> int:
    """``q`` as an int; InconsistentDataError if it is not integral."""
    q = rat(q)
    if q.denominator != 1:
        raise InconsistentDataError(f"{what} is not an integer: {q}")
    return q.numerator


def _integral(x) -> int | None:
    """``x`` as an int if it is one or an integral float such as 2.0, else
    None: a bool or a string is no integer."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    return x if type(x) is int else None


def as_natural(x, what: str) -> int:
    """``x`` as an int >= 0; ValueError if it is negative or not an integer
    (an integral float such as 2.0 counts, a string or a bool does not)."""
    n = _integral(x)
    if n is None or n < 0:
        raise ValueError(f"{what} must be a non-negative integer, not {x!r}")
    return n


def as_int(x, what: str) -> int:
    """``x`` as an int by the rule of ``as_natural``, of either sign: for an
    argument whose negative values its own domain check or range answers;
    ValueError if it is not an integer."""
    n = _integral(x)
    if n is None:
        raise ValueError(f"{what} must be an integer, not {x!r}")
    return n


def naturals(xs, what: str) -> tuple:
    """``xs`` as a tuple of ints >= 0, each by the rule of ``as_natural``."""
    return tuple(as_natural(x, what) for x in xs)


def unique_keys(pairs, what: str) -> dict:
    """``dict(pairs)``, but a key that repeats, whose last value ``dict``
    would keep, is a ValueError that names it."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated {what} {key!r}")
        out[key] = value
    return out


def parse_json(text: str, parse):
    """``parse`` of the JSON document ``text``; ValueError if the document
    is malformed."""
    import json
    try:
        return parse(json.loads(text))
    except (LookupError, TypeError, AttributeError, ArithmeticError,
            RecursionError) as exc:
        raise ValueError(str(exc)) from exc


def read_json(path: str, parse):
    """``parse_json`` of the file at ``path``; OSError if it cannot be read."""
    with open(path) as fh:
        return parse_json(fh.read(), parse)


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
        self.max_total_degree = as_natural(max_total_degree, "max_total_degree")

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
        n = as_natural(n, "a power")
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
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


class UniPoly(_Poly):
    """Univariate polynomial over Q, sparse dict {exponent: coefficient}.

    The zero polynomial has ``degree() is None`` (a sentinel distinct from
    any integer, so it cannot collide with evaluation points like -1).
    """

    __slots__ = ("var",)

    def __init__(self, terms: Mapping[int, Fraction] | None = None, var: str = "d"):
        self.var, self.terms = var, {}
        for e, c in (terms or {}).items():
            e, c = as_natural(e, "an exponent"), rat(c)
            if c != 0:
                self.terms[e] = c

    # -- constructors ---------------------------------------------------
    @classmethod
    def const(cls, c, var: str = "d") -> "UniPoly":
        return cls({0: rat(c)}, var=var)

    @classmethod
    def x(cls, var: str = "d") -> "UniPoly":
        return cls({1: Fraction(1)}, var=var)

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
        return [[e, str(c)] for e, c in sorted(self.terms.items())]

    @classmethod
    def from_json(cls, data: Sequence, var: str = "d") -> "UniPoly":
        return cls(unique_keys(data, "exponent"), var=var)

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

def forward_differences(values: Sequence[int]) -> list:
    """[Delta^j f(0) for j = 0..N] from the values f(0), f(1), ..., f(N):
    the coefficients of f's Newton form sum_j Delta^j f(0) C(v, j)."""
    diffs, row = [], list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return diffs


def interpolate_integers(values: Sequence[int], var: str = "d") -> UniPoly:
    """The polynomial of degree < len(values) with value values[i] at i =
    0, 1, ..., N, in integers: N! times its Newton form sum_j Delta^j f(0)
    C(d, j), by Horner's rule on the factors (d - j), divided by N! once."""
    diffs = forward_differences(values)
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
