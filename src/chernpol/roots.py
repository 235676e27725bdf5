"""Rational roots of univariate polynomials over Q, without factoring
integers: one p-adic lift (Loos, 1983) of the roots of the square-free part
modulo a small prime proposes the candidates (``_candidates``), and exact
synthetic division tests them.

Only ``--factored`` output asks for roots, so ``cli.factored_str`` imports
this module when it is called.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .exactcore import _cleared, _rebuilt


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


def _primitive(a: list) -> list:
    g = gcd(*a)
    return [v // g for v in a]


def _square_free_part(a: list) -> list:
    """``A / gcd(A, A′)`` for the integer polynomial ``A = Σ a_i x^i``: the
    product of A's distinct irreducible factors, each once, up to a
    constant.  The gcd comes from a primitive remainder sequence on
    integers, and the quotient by exact division from the top."""
    u, v = _primitive(a), _primitive([i * c for i, c in enumerate(a)][1:])
    while len(v) > 1:
        r = u                               # the pseudo-remainder of u by v
        while len(r) >= len(v):
            top, shift = r[-1], len(r) - len(v)
            r = [c * v[-1] for c in r]
            for i, c in enumerate(v):
                r[i + shift] -= top * c
            while r and not r[-1]:
                r.pop()
        if not r:
            break
        u, v = v, _primitive(r)
    if len(v) == 1:                         # gcd(A, A′) is a constant
        return a
    q, a = [0] * (len(a) - len(v) + 1), list(a)
    for i in range(len(q) - 1, -1, -1):
        q[i] = a[i + len(v) - 1] // v[-1]
        for j, c in enumerate(v):
            a[i + j] -= q[i] * c
    return q


def _horner(a: list, x: int, m: int) -> tuple:
    """``(A(x), A′(x)) mod m`` for the integer polynomial ``A = Σ a_i x^i``."""
    v = dv = 0
    for c in reversed(a):
        v, dv = (v * x + c) % m, (dv * x + v) % m
    return v, dv


def _candidates(a: list) -> list:
    """Fractions among which lie the rational roots of the square-free
    integer polynomial ``A = Σ a_i x^i`` of degree N ≥ 1.

    The prime l is the least with ``l ∤ a_N`` at which no root of A in
    ``F_l`` is a root of A′ too; a prime that fails divides
    ``a_N · disc(A) ≠ 0``, so the search ends.  Each root r mod l lifts by
    ``r ← r − A(r)/A′(r) mod l^(2^i)`` until the modulus exceeds
    ``2(|a_N| + max|a_i|)``.  A root p/q of A has ``q | a_N``, and lifts to
    the r with ``a_N·r ≡ a_N·p/q``, an integer y with
    ``|y| ≤ |a_N| + max|a_i|`` (Cauchy's bound): the candidate is y/a_N for
    y the symmetric residue of ``a_N·r``.
    """
    lead, l = a[-1], 1
    while True:
        l += 1
        if lead % l == 0 or any(l % p == 0 for p in range(2, isqrt(l) + 1)):
            continue
        roots = []
        for r in range(l):
            v, dv = _horner(a, r, l)
            if not v:
                if not dv:
                    break
                roots.append(r)
        else:
            break
    bound, m = 2 * (abs(lead) + max(map(abs, a))), l
    while m <= bound:
        m *= m
        for i, r in enumerate(roots):
            v, dv = _horner(a, r, m)
            roots[i] = (r - v * pow(dv, -1, m)) % m
    ys = [lead * r % m for r in roots]
    return [Fraction(y - m if 2 * y > m else y, lead) for y in ys]


def rational_roots(poly) -> tuple:
    """``(roots, cofactor)`` of a nonzero ``UniPoly``: [(root,
    multiplicity)] of every rational root, 0 first, then the others in the
    order of (|numerator|, denominator, sign), positive before negative;
    and the polynomial divided by prod (var - root)^multiplicity.  Each
    candidate p/q of ``_candidates``, in lowest terms, is divided out of the
    integer coefficients a_0..a_N (denominators cleared, d^low divided out)
    by ``q·x − p`` for as long as that is exact (Gauss's lemma)."""
    if not poly.terms:
        raise ValueError("the zero polynomial has every root")
    low = min(poly.terms)
    roots = [(Fraction(0), low)] if low else []
    D, pairs = _cleared(poly.terms)
    a = [0] * (max(poly.terms) - low + 1)
    for e, n in pairs:
        a[e - low] = n
    candidates = _candidates(_square_free_part(a)) if len(a) > 1 else []
    candidates.sort(key=lambda r: (abs(r.numerator), r.denominator, r < 0))
    qs = 1                               # the product of the q divided out
    for r in candidates:
        p, q, mult = r.numerator, r.denominator, 0
        while (b := _divide_out(a, p, q)) is not None:
            a, mult = b, mult + 1
        if mult:
            roots.append((r, mult))
            qs *= q ** mult
    # poly = d^low · ∏(q·d − p)^mult · Σ a_i d^i / D
    return roots, poly._new(_rebuilt({i: qs * c for i, c in enumerate(a)}, D))
