"""Exact rational polynomial arithmetic: univariate and sparse multivariate
polynomials over Q on one shared core, rational roots of univariate
polynomials, truncated power-series inversion, and exact Lagrange
interpolation.

All coefficients at the API are ``fractions.Fraction``; nothing here ever
rounds.  Polynomial products and the rational-root test run on integer
numerators over one shared denominator per operand (``_cleared``), and the
products turn their integer sums back into ``Fraction``s once, on exit
(``_rebuilt``).  Arithmetic results are built by ``_new``, which trusts its
terms; ``__init__`` validates terms that come from outside.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
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


# Trial division runs up to _TRIAL_LIMIT; a cofactor left below _MR_LIMIT is
# split by Pollard's rho, and Miller-Rabin with the first 13 primes as bases
# decides primality exactly below _MR_LIMIT (Sorenson and Webster, 2015).
_TRIAL_LIMIT = 1000
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 1 < n < _MR_LIMIT."""
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of the composite ``n``: Pollard's rho on
    x -> x² + c, with Brent's cycle search and the gcds taken over batches
    of 128 steps; a c whose batch overshoots is rerun one step at a time,
    and a c that finds only ``n`` itself is replaced by c + 1."""
    if n % 2 == 0:
        return 2
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _prime_factors(n: int) -> list:
    """The prime factors of 1 <= n < _MR_LIMIT, with multiplicity."""
    if n == 1:
        return []
    if _is_prime(n):
        return [n]
    g = _rho(n)
    return _prime_factors(g) + _prime_factors(n // g)


def _divisors(n: int) -> list:
    """The positive divisors of the nonzero integer ``n``, ascending, from
    its factorisation.  Trial division divides each prime out as it is
    found and stops once the prime's square exceeds what is left, or once
    the prime reaches _TRIAL_LIMIT with less than _MR_LIMIT left; that
    cofactor is factored by ``_prime_factors``.  A larger cofactor stays
    on trial division, so every divisor is found."""
    n = abs(n)
    divs, p = [1], 2
    while p * p <= n and (p < _TRIAL_LIMIT or n >= _MR_LIMIT):
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            divs = [d * p ** i for d in divs for i in range(k + 1)]
        p += 1 if p == 2 else 2
    # what is left is 1, a prime, or has no prime factor below p
    rest = _prime_factors(n) if n < _MR_LIMIT else [n]
    for q in set(rest):
        k = rest.count(q)
        divs = [d * q ** i for d in divs for i in range(k + 1)]
    return sorted(divs)


def _divide_out(a: list, p: int, q: int):
    """The integer coefficients of ``A / (q·x − p)`` for the integer
    polynomial ``A = Σ a_i x^i``, or None if ``p/q`` is not a root of A.

    Synthetic division from the top: ``b_{i-1} = (a_i + p·b_i) / q``.  For
    ``p/q`` in lowest terms the quotient of a root is integral (Gauss's
    lemma), so an inexact step or a nonzero remainder means no root."""
    b = [0] * (len(a) - 1)
    carry = 0
    for i in range(len(a) - 1, 0, -1):
        s = a[i] + p * carry
        if s % q:
            return None
        carry = b[i - 1] = s // q
    return b if a[0] + p * carry == 0 else None


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
    ``_coerce`` (numbers become constants), ``__mul__``, and for ``repr`` the
    display order ``_repr_key`` and the monomial text ``_mono`` of a key.
    """

    __slots__ = ("terms",)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

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
    def __mul__(self, other):
        other = self._coerce(other)
        D1, a = _cleared(self.terms)
        D2, b = _cleared(other.terms)
        sums: dict[int, int] = {}
        for e1, n1 in a:
            for e2, n2 in b:
                e = e1 + e2
                sums[e] = sums.get(e, 0) + n1 * n2
        return self._new(_rebuilt(sums, D1 * D2))

    __rmul__ = __mul__

    def rational_roots(self) -> tuple:
        """``(roots, cofactor)``: [(root, multiplicity)] of every rational
        root of a nonzero polynomial, 0 first, then the others in the order
        of (|numerator|, denominator, sign), positive before negative; and
        the polynomial divided by prod (var - root)^multiplicity.

        One pass over one integer list: a root p/q in lowest terms of the
        integer polynomial A with coefficients a_0..a_N has p | a_0 and
        q | a_N, and A = (q·x − p)·B with B integral (Gauss's lemma).  The
        divisors of a_0 and a_N are listed once; a candidate whose p and q
        divide the a_0 and a_N of the deflated list is divided out by
        synthetic division for as long as that is exact.
        """
        if not self.terms:
            raise ValueError("the zero polynomial has every root")
        low = min(self.terms)
        roots = [(Fraction(0), low)] if low else []
        D, pairs = _cleared(self.terms)
        a = [0] * (max(self.terms) - low + 1)
        for e, n in pairs:
            a[e - low] = n
        dens, qs = _divisors(a[-1]), 1       # qs: product of the q divided out
        for num in _divisors(a[0]):
            if len(a) == 1:
                break
            if a[0] % num:
                continue
            for den in dens:
                if a[-1] % den or math.gcd(num, den) != 1:
                    continue
                for p in (num, -num):
                    mult = 0
                    while len(a) > 1 and (b := _divide_out(a, p, den)) is not None:
                        a, mult = b, mult + 1
                    if mult:
                        roots.append((Fraction(p, den), mult))
                        qs *= den ** mult
        # self = d^low · ∏(q·d − p)^mult · Σ a_i d^i / D
        return roots, self._new(_rebuilt({i: qs * c for i, c in enumerate(a)}, D))

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

    @classmethod
    def var(cls, name: str, vars: Sequence[str]) -> "MultiPoly":
        vars = tuple(vars)
        i = vars.index(name)
        ev = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {ev: Fraction(1)})

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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self.mul_truncated(other, None)

    __rmul__ = __mul__

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

    def truncate(self, policy: TruncationPolicy | int) -> "MultiPoly":
        m = policy.max_total_degree if isinstance(policy, TruncationPolicy) else policy
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
# Lagrange interpolation
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
    g = f.truncate(policy)
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
