"""Exact rational polynomial arithmetic: univariate and sparse multivariate
polynomials over Q on one shared core, rational roots of univariate
polynomials, truncated power-series inversion, and exact interpolation:
Lagrange, and in integers from the values at 0, 1, ..., N.

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


def _taylor_shift(p: list) -> list:
    """The coefficients of ``P(x + 1)``."""
    p = list(p)
    for i in range(len(p) - 1):
        for j in range(len(p) - 2, i - 1, -1):
            p[j] += p[j + 1]
    return p


def _sign_changes(p: list) -> int:
    signs = [v > 0 for v in p if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _positive_root_candidates(b: list) -> list:
    """Fractions among which lie the positive rational roots of the integer
    polynomial ``B = Σ b_i x^i`` with ``b_0 ≠ 0``: Descartes bisection
    (Collins and Akritas, 1976), which needs no factoring.

    Every positive root is below ``2^k``, k the least integer >= 1 with
    ``|b_i| <= |b_N|·2^((k-1)(N-i))`` for each b_i of sign opposite to b_N.
    An interval ``(c/2^s, (c+1)/2^s)`` carries an integer polynomial whose
    roots in (0, 1) are B's roots in the interval; it is dropped when the
    sign changes of ``(1+x)^N P(1/(1+x))`` (its Descartes count) are 0, and
    halved by ``2^N P(x/2)`` and a Taylor shift, recording a root at the
    midpoint exactly.  An interval with count 1 and no root at its right
    end holds one simple root, and is halved by the sign of P at its
    midpoint instead.  Every rational root p/q has q | b_N, so once
    ``|b_N|·width < 1`` the one integer y with y/|b_N| inside the interval,
    if any, is the only candidate there.
    """
    lead, top = abs(b[-1]), len(b) - 1
    bits = []
    for i, v in enumerate(b):
        if (v < 0) != (b[-1] < 0):
            e = max(0, abs(v).bit_length() - lead.bit_length())
            e += abs(v) > lead << e               # least e: |b_i| <= |b_N|·2^e
            bits.append(-(-e // (top - i)))
    if not bits:
        return []
    k = 1 + max(bits)
    found, stack = [], [(0, -k, [v << k * i for i, v in enumerate(b)])]
    while stack:
        c, s, p = stack.pop()
        count = _sign_changes(_taylor_shift(p[::-1]))
        if count == 1 and sum(p):
            # one simple root: halve by the sign of P at the midpoint, which
            # is 2^(tN) P(m/2^t) in integers for m/2^t in local coordinates
            n, c0, s0 = len(p) - 1, c, s
            while count and lead.bit_length() > s:
                c, s = 2 * c + 1, s + 1
                mid, t = c - (c0 << s - s0), s - s0
                h = p[-1]
                for i in range(n - 1, -1, -1):
                    h = h * mid + (p[i] << t * (n - i))
                if not h:
                    found.append(c * Fraction(2) ** -s)
                    count = 0
                elif (h > 0) != (p[0] > 0):
                    c -= 1
        if not count:
            continue
        if lead.bit_length() <= s:                # |b_N|·width < 1
            y = (lead * c >> s) + 1
            if y << s < lead * (c + 1):
                found.append(Fraction(y, lead))
            continue
        left = [v << (len(p) - 1 - i) for i, v in enumerate(p)]
        right = _taylor_shift(left)
        if not right[0]:
            found.append((2 * c + 1) * Fraction(2) ** -(s + 1))
            while not right[0]:
                right.pop(0)
        stack += [(2 * c, s + 1, left), (2 * c + 1, s + 1, right)]
    return found


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
        (``_positive_root_candidates``) proposes the candidates, and each
        p/q in lowest terms is divided out by synthetic division by
        ``q·x − p`` for as long as that is exact (Gauss's lemma).
        """
        if not self.terms:
            raise ValueError("the zero polynomial has every root")
        low = min(self.terms)
        roots = [(Fraction(0), low)] if low else []
        D, pairs = _cleared(self.terms)
        a = [0] * (max(self.terms) - low + 1)
        for e, n in pairs:
            a[e - low] = n
        candidates = _positive_root_candidates(a) + [
            -r for r in _positive_root_candidates(
                [-v if i % 2 else v for i, v in enumerate(a)])]
        candidates.sort(key=lambda r: (abs(r.numerator), r.denominator, r < 0))
        qs = 1                               # the product of the q divided out
        for r in candidates:
            p, q, mult = r.numerator, r.denominator, 0
            while (b := _divide_out(a, p, q)) is not None:
                a, mult = b, mult + 1
            if mult:
                roots.append((r, mult))
                qs *= q ** mult
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
