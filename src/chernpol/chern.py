"""Total Chern class of the space of degree-d forms in n variables: the
direct product over the weight simplex at a concrete d, the c_k coefficients
in closed form as polynomials in d in any symmetric-function basis, the
closed Stirling-number formula for the n=2 Euler class, the odd-d grouped
elementary-basis coefficients, and leading-term predictions.

Closed form: c_k is the k-th elementary symmetric function of the forms w.x,
|w| = d.  Their power sums p_j = sum over |alpha| = j of j!/alpha! *
simplex_moment(alpha) * x^alpha are polynomial in d, so c_k is too, by
Newton's identities m*c_m = sum_j (-1)^(j-1) p_j c_{m-j} (Macdonald, I.2).
The recursion (chern_values) takes the power sums of any integral class,
here Pol^d at integer d >= 0 (pol_power_sums), and runs over partitions on
Python ints: m*c_m[nu] = sum over 0 != alpha <= nu of (-1)^(|alpha|-1)
p_|alpha|[sort alpha] c_(m-|alpha|)[sort(nu-alpha)], an exact division.  As
deg_d c_k <= n*k, the values at d = 0..n*k give each coefficient by one
interpolation.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, islice, product
from math import comb, factorial
from operator import mul

from . import BASES
from .exactcore import (InconsistentDataError, OutOfDomainError,
                        TruncationPolicy, UniPoly, as_int, as_natural,
                        check_degree, interpolate_integers, xvars)
from .symfunc import (check_partition, enumerate_partitions, multinomial,
                      partition_of, syt_count, validate_basis_index)

# multipoly, record, rising and specialization are imported inside the
# functions that use them; the closed form loads only specialization, and
# the Sigma and Fano invariants, which read chern_values, load no record.


def weight_vectors(n: int, d: int):
    """Lattice points of the d-dilated standard simplex in N^n (none for d
    < 0), in lexicographic order: the gaps between n-1 bars placed among
    d+n-1 slots, the bars' positions in lexicographic order."""
    slots = d + n - 1
    for bars in combinations(range(slots), n - 1) if d >= 0 else ():
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))


# no caller repeats a product, so nothing fills this; the benchmark's
# tracer (bench/tracing.py) still clears it and reads it for hits
_direct_cache: dict = {}


def chern_direct(n: int, d: int, policy: TruncationPolicy) -> MultiPoly:
    """prod over (d_1..d_n) with sum d of (1 + d_1 x_1 + ... + d_n x_n),
    truncated.  d = -1 gives 1 (empty product); d = 0 gives 1."""
    from .multipoly import MultiPoly
    n, d = as_int(n, "n"), check_degree(d)
    if n < 1:
        raise OutOfDomainError("n must be >= 1")
    out = MultiPoly.const(1, xvars(n))
    units = [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]
    for w in weight_vectors(n, d) if d >= 1 else ():
        factor = MultiPoly(out.vars, {(0,) * n: 1, **dict(zip(units, w))})
        out = out.mul_truncated(factor, policy.max_total_degree)
    return out


def pol_power_sums(n: int, k: int, ds):
    """top -> [coefficient of x^top in p_|top| at d for d in ds] for the
    forms w.x, |w| = d >= 0, n = len(top): j!/top! * sum_s w_s
    C(d+n-1, n-1+s), j = |top| <= k, w = moment_weights(top)."""
    from .specialization import moment_weights
    columns = [[comb(d + n - 1, n - 1 + s) for s in range(k + 1)] for d in ds]

    def power_sums(top):
        w = moment_weights(top)
        scale = multinomial(top)
        return [scale * sum(map(mul, w, col)) for col in columns]
    return power_sums


def chern_values(n: int, power_sums, wanted) -> dict:
    """{nu: [coefficient of m_nu in c_|nu|, one per column]} over the
    partitions nu in ``wanted``, of any sizes, with at most n parts, for the
    integral class in n Chern roots with ``power_sums(top)`` = [coefficient
    of x^top in p_|top|, one per column]; c_0 is [1] if none is read.  Only
    the padded nu under some wanted partition are computed: that set is
    closed under nu -> sort(nu - alpha) and sort(alpha) for alpha <= nu.  A
    remainder of the division by m raises InconsistentDataError."""
    ceilings = [tuple(sorted(w + (0,) * (n - len(w))))
                for w in map(tuple, wanted) if len(w) <= n]
    # by size, as each box sum reads smaller ones; tops[0] is 0
    tops = sorted({tuple(sorted(v)) for w in ceilings
                   for v in product(*(range(e + 1) for e in w))}, key=sum)
    # (-1)^(j-1) p_j, then c_m by ascending padded partition
    p = {top: [(-1) ** (sum(top) - 1) * v for v in power_sums(top)]
         for top in tops[1:]}
    c = {(0,) * n: [1] * len(next(iter(p.values()), [1]))}
    for top in tops[1:]:
        m = sum(top)
        # alpha runs over the box 0 != alpha <= top, top - alpha with it
        pj = map(p.__getitem__, map(tuple, map(sorted, islice(
            product(*(range(e + 1) for e in top)), 1, None))))
        rest = map(c.__getitem__, map(tuple, map(sorted, islice(
            product(*(range(e, -1, -1) for e in top)), 1, None))))
        total = [sum(map(mul, a, b)) for a, b in zip(zip(*pj), zip(*rest))]
        if any(t % m for t in total):
            raise InconsistentDataError(f"c_{m} at x^{top} is not integral")
        c[top] = [t // m for t in total]
    return {partition_of(w): c[w] for w in ceilings}


def chern_interpolated(n: int, k: int, basis: str = "monomial") -> ChernPolynomial:
    """Every monomial coefficient of c_k as a polynomial in d, interpolated
    from chern_values at d = 0..n*k, converted exactly to the basis."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    n, k = as_int(n, "n"), as_int(k, "k")
    if n < 1 or k < 0:
        raise OutOfDomainError("need n >= 1 and k >= 0")
    ds = range(n * k + 1)
    values = chern_values(n, pol_power_sums(n, k, ds),
                          enumerate_partitions(k, max_length=n))
    terms = {nu: interpolate_integers(v) for nu, v in values.items() if any(v)}
    from .record import ChernPolynomial
    return ChernPolynomial(n, k, "monomial", terms).in_basis(basis)


# ---------------------------------------------------------------------------
# closed formulas for n = 2
# ---------------------------------------------------------------------------

def euler_c2_closed(d: int) -> list:
    """Schur coefficients e^d_j of the top class c_{d+1} for n = 2:
    the two-sum formula in unsigned Stirling numbers of the first kind,
    for j = 0..floor((d+1)/2)."""
    d = as_int(d, "d")
    if d < 1:
        raise OutOfDomainError("d must be >= 1")
    from .specialization import stirling_first
    out = [(0, 0)]
    for j in range(1, (d + 1) // 2 + 1):
        total = 0
        for k in range(j - 1, d - j + 1):
            total += ((-1) ** (k + j - 1) * comb(k, j - 1)
                      * stirling_first(d, d - k) * d ** (d + 1 - k))
        for k in range(d - j + 1, d):
            c = ((-1) ** (k + j - 1) * comb(k, j - 1)
                 - (-1) ** (d + 1 + k - j) * comb(k, d - j + 1))
            total += c * stirling_first(d, d - k) * d ** (d + 1 - k)
        out.append((j, total))
    return out


def odd_spec() -> RisingProductSpec:
    """The rising product in delta = (d-1)/2 obtained by pairing opposite
    weight factors of the n = 2 product at odd d, written in e_1, e_2."""
    from .rising import RisingProductSpec
    D = lambda coeffs: UniPoly(coeffs, var="delta")
    table = {
        ((1, 0), 0): D({1: Fraction(2), 0: Fraction(1)}),
        ((2, 0), 1): D({1: Fraction(2), 0: Fraction(1)}),
        ((2, 0), 2): D({0: Fraction(-1)}),
        ((0, 1), 0): D({2: Fraction(4), 1: Fraction(4), 0: Fraction(1)}),
        ((0, 1), 1): D({1: Fraction(-8), 0: Fraction(-4)}),
        ((0, 1), 2): D({0: Fraction(4)}),
    }
    return RisingProductSpec(("delta",), table, UniPoly.x("delta"), 2)


def odd_grouped_coefficient(H) -> UniPoly:
    """Coefficient of e_1^{H_1} e_2^{H_2} in c(Pol^{2*delta+1}(C^2)) as a
    polynomial in delta."""
    from .rising import stirling_coefficient
    spec = odd_spec()
    return spec._unipoly(stirling_coefficient(spec, tuple(H)))


# ---------------------------------------------------------------------------
# leading terms
# ---------------------------------------------------------------------------

def elementary_degree_bound(lam, n: int) -> int:
    """n*H_1 + (n+1)*H_2 + ... + (2n-1)*H_n for lam = (1^H_1,...,n^H_n)."""
    return sum(n + p - 1 for p in check_partition(lam))


def leading_term(basis: str, lam, n: int):
    """Predicted (coefficient, d-exponent, conjectural-flag) for the leading
    term of the coefficient of the basis element indexed by lam in c_k, for
    n >= 2 or k <= 1: with one variable c_k = 0 for k >= 2, and those
    raise OutOfDomainError.

    Monomial and Schur predictions are exact; elementary predictions are
    proved for lam = (1^k) for all n and for all lam at n = 2, and flagged
    as conjectural otherwise.

    The elementary prediction follows from this argument, which the flag
    marks as not yet reviewed.  With p_j = sum over weight vectors w of
    (w.x)^j, the beta = alpha term of simplex_moment gives p_j a top
    d-part j!/(n-1+j)! * d^(n-1+j) * h_j.  Since log c = sum_j (-1)^(j-1)
    p_j / j and h_j = (-1)^(j-1) e_j + (terms e_mu with len(mu) >= 2), the
    top part of log c is sum_i (i-1)!/(n+i-1)! * d^(n+i-1) * e_i, plus
    terms e_mu with len(mu) >= 2 of d-degree at most n-1+|mu|.  In
    c = exp(log c) a product of r factors reaches e_lam only if
    r <= len(lam), with d-degree at most r(n-1) + |lam|.  For n >= 2 only
    r = len(lam) attains elementary_degree_bound(lam, n), through the
    single-part factors alone, and (sum_i a_i e_i)^r / r! has coefficient
    prod_i a_i^(H_i) / H_i! at prod_i e_i^(H_i): the coefficient below.
    """
    n = as_natural(n, "n")
    lam = validate_basis_index(basis, lam, n)
    k = sum(lam)
    if basis == "power":
        raise ValueError(f"no leading-term formula in basis {basis!r}")
    if n == 1 and k >= 2:
        raise OutOfDomainError(f"c_{k}(Pol^d(C^1)) = 0: no leading term")
    if basis == "monomial":
        coeff = Fraction(1)
        for p in lam:
            coeff /= factorial(p)
        return coeff * Fraction(1, factorial(n)) ** k, n * k, False
    if basis == "schur":
        coeff = (Fraction(syt_count(lam), factorial(k))
                 * Fraction(1, factorial(n)) ** k)
        return coeff, n * k, False
    H = Counter(lam)
    coeff = Fraction(1)
    for i in range(1, n + 1):
        coeff *= (Fraction(factorial(i - 1), factorial(n + i - 1)) ** H[i]
                  / factorial(H[i]))
    proved = (set(lam) <= {1}) or n == 2
    return coeff, elementary_degree_bound(lam, n), not proved

