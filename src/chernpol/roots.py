"""Rational roots of univariate polynomials over Q, without factoring
integers: Descartes bisection (Collins and Akritas, 1976) proposes the
candidates and exact synthetic division tests them.

Only ``--factored`` output asks for roots, so ``UniPoly.rational_roots``
imports this module when it is called.
"""

from __future__ import annotations

from fractions import Fraction

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


def rational_roots(poly) -> tuple:
    """``poly.rational_roots()`` for a ``UniPoly``: see that method."""
    if not poly.terms:
        raise ValueError("the zero polynomial has every root")
    low = min(poly.terms)
    roots = [(Fraction(0), low)] if low else []
    D, pairs = _cleared(poly.terms)
    a = [0] * (max(poly.terms) - low + 1)
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
    # poly = d^low · ∏(q·d − p)^mult · Σ a_i d^i / D
    return roots, poly._new(_rebuilt({i: qs * c for i, c in enumerate(a)}, D))
