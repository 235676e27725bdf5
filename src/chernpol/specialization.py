"""Arithmetic specializations: Stirling numbers of both kinds, second-order
Eulerian numbers, simplex moments (Faulhaber polynomials among them), and
the values of augmented monomial symmetric polynomials at (0, 1, ..., v) by
one integer recursion, with the polynomials M_tilde(v) read from them --
including weak partitions with zero parts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial
from operator import mul

from .exactcore import UniPoly, interpolate_integers
from .symfunc import mult_factorial


@lru_cache(maxsize=None)
def stirling_first(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind [n, k]."""
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k <= 0 or k > n:
        return 0
    return stirling_first(n - 1, k - 1) + (n - 1) * stirling_first(n - 1, k)


@lru_cache(maxsize=None)
def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind {n, k}."""
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k <= 0 or k > n:
        return 0
    return stirling_second(n - 1, k - 1) + k * stirling_second(n - 1, k)


@lru_cache(maxsize=None)
def _eulerian2(n: int, k: int) -> int:
    if n == 0:
        return 1 if k == 0 else 0
    if k < 0 or k >= n:
        return 0
    return (k + 1) * _eulerian2(n - 1, k) + (2 * n - 1 - k) * _eulerian2(n - 1, k - 1)


def eulerian_second(h: int, j: int) -> int:
    """Second-order Eulerian number E2(h, j), indexed so that

        [d+1, d+1-h] = sum_{j=1..h} E2(h, j) * binom(d+j, 2h).

    This binomial identity is the defining property; the classical triangle
    recurrence realizes it with the shift j -> j-1.
    """
    if h < 1 or j < 1 or j > h:
        return 0
    return _eulerian2(h, j - 1)


def moment_weights(alpha: tuple) -> list:
    """The c_s with sum of w^alpha over w in N^n, |w| = d, n = len(alpha),
    equal to sum_s c_s C(d+n-1, n-1+s): w_i^a = sum_b S(a,b) b! C(w_i,b)
    gives c_s = sum over |beta| = s of prod_i S(alpha_i,beta_i) beta_i!,
    the convolution over the parts a of the rows S(a,b) b!."""
    by_size = [1]
    for a in filter(None, alpha):            # a zero part's row is [1]
        row = [stirling_second(a, b) * factorial(b) for b in range(a, -1, -1)]
        padded = [0] * a + by_size + [0] * a
        by_size = [sum(map(mul, row, padded[s:s + a + 1]))
                   for s in range(len(by_size) + a)]
    return by_size


@lru_cache(maxsize=None)
def simplex_moment(alpha: tuple, var: str = "d") -> UniPoly:
    """sum of w^alpha over w in N^n with |w| = d, n = len(alpha), as a
    polynomial in d (0 at d = -1 for n >= 2) of degree n-1+|alpha|, read
    from its moment_weights at d = 0..n-1+|alpha|."""
    if not alpha or min(alpha) < 0:
        raise ValueError("alpha must be non-empty and non-negative")
    n, w = len(alpha), moment_weights(alpha)
    return interpolate_integers(
        [sum(c * comb(d + n - 1, n - 1 + s) for s, c in enumerate(w))
         for d in range(n + len(w) - 1)], var)


def faulhaber(q: int) -> UniPoly:
    """The polynomial in v equal to 0^q + 1^q + ... + v^q for all v >= -1.

    Degree q+1, leading term v^(q+1)/(q+1); value 0 at v = -1.
    """
    return simplex_moment((q, 0), "v")


# ---------------------------------------------------------------------------
# M_tilde / M_plain
# ---------------------------------------------------------------------------

def _sorted_partition(parts) -> tuple:
    return tuple(sorted(parts, reverse=True))


def M_tilde_values(lams) -> dict:
    """{lam: [m~_lam(0, 1, ..., v) for v = 0..|lam| + len(lam)]} for the
    weak partitions lam (tuples with non-negative parts), by one integer
    recursion over the sub-multisets S of parts below some lam: with
    f_v(S) = m~_S(0, 1, ..., v), position v carries no part of S or one of
    its k_p(S) parts equal to p, so

        f_v(S) = f_{v-1}(S) + sum_p k_p(S) * v^p * f_{v-1}(S - p),

    with f_{-1}(S) = 1 for the empty S and 0 otherwise (0**0 == 1 counts a
    zero part at v = 0).  One sweep over v gives every lam.
    """
    lams = {_sorted_partition(int(p) for p in lam) for lam in lams}
    if any(p < 0 for lam in lams for p in lam):
        raise ValueError("weak partition parts must be non-negative")
    parts = sorted({p for lam in lams for p in lam})
    counts = {lam: tuple(lam.count(p) for p in parts) for lam in lams}
    # the multiplicity vectors under some lam, larger first, so that an
    # update in place still reads f_{v-1} at S - p
    below = sorted({S for c in counts.values()
                    for S in product(*(range(k + 1) for k in c))},
                   key=sum, reverse=True)
    index = {S: i for i, S in enumerate(below)}
    steps = [[(p, k, index[S[:i] + (k - 1,) + S[i + 1:]])
              for i, (p, k) in enumerate(zip(parts, S)) if k] for S in below]
    f = [0] * len(below)
    if below:
        f[-1] = 1                       # f_{-1}: the empty multiset
    tops = {lam: sum(lam) + len(lam) for lam in lams}
    out = {lam: [] for lam in lams}
    for v in range(max(tops.values(), default=-1) + 1):
        for i, step in enumerate(steps):
            f[i] += sum(k * v ** p * f[j] for p, k, j in step)
        for lam, top in tops.items():
            if v <= top:
                out[lam].append(f[index[counts[lam]]])
    return out


@lru_cache(maxsize=None)
def M_tilde(lam: tuple) -> UniPoly:
    """Polynomial in v with M_tilde(lam)(v) = m~_lam(0, 1, ..., v) for v >= -1,
    of degree |lam| + len(lam), interpolated from its M_tilde_values at
    v = 0, 1, ..., |lam| + len(lam).  (In power sums it is the power-sum
    expansion of m~ at the zero-free part lam*, read at the prefix power
    sums 0^q + ... + v^q, times prod_{i<m0} (v+1-len(lam*)-i) for the m0
    zero parts.)
    """
    lam = _sorted_partition(int(p) for p in lam)
    return interpolate_integers(M_tilde_values([lam])[lam], "v")


def M_plain(lam: tuple) -> UniPoly:
    """M_tilde divided by mult(lambda)!, i.e. the specialization of the plain
    monomial symmetric polynomial."""
    lam = _sorted_partition(int(p) for p in lam)
    return M_tilde(lam).scale(Fraction(1, mult_factorial(lam)))
