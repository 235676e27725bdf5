"""Total Chern class of the space of degree-d forms in n variables: the
direct product over the weight simplex at a concrete d, the c_k coefficients
in closed form as polynomials in d in any symmetric-function basis, the
closed Stirling-number formula for the n=2 Euler class, the odd-d grouped
elementary-basis coefficients, and leading-term predictions.

Closed form: c_k is the k-th elementary symmetric function of the forms w.x,
|w| = d.  Their power sums p_j = sum over |alpha| = j of j!/alpha! *
simplex_moment(alpha) * x^alpha are polynomial in d, so c_k is too, by
Newton's identities m*c_m = sum_j (-1)^(j-1) p_j c_{m-j} (Macdonald, I.2).
The recursion runs over partitions on Python ints at integer d >= 0: p_j and
c_m are symmetric, kept as {partition: values}, m*c_m[nu] = sum over
0 != alpha <= nu of (-1)^(|alpha|-1) p_|alpha|[sort alpha]
c_(m-|alpha|)[sort(nu-alpha)], and the division by m is exact (each value
is a coefficient of an integer product).  As deg_d c_k <= n*k, the values at
d = 0..n*k give each coefficient by one interpolation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product
from math import comb, factorial, prod
from operator import le, mul, sub

from .exactcore import (BASES, OutOfDomainError, TruncationPolicy, UniPoly,
                        check_degree, interpolate_integers, xvars)
from .symfunc import (check_partition, enumerate_partitions, multiplicities,
                      partition_of, syt_count, validate_basis_index)

# multipoly, record, rising and specialization are imported inside the
# functions that use them; the closed form loads only specialization, and
# the Sigma and Fano invariants, which read chern_values, load no record.
# ChernPolynomial lives in ``record`` and is re-exported here on first use,
# so reading a cached ChernPolynomial loads no chern at all.


def weight_vectors(n: int, d: int):
    """Lattice points of the d-dilated standard simplex in N^n (odometer)."""
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in weight_vectors(n - 1, d - first):
            yield (first,) + rest


_direct_cache: dict = {}


def chern_direct(n: int, d: int, policy: TruncationPolicy) -> MultiPoly:
    """prod over (d_1..d_n) with sum d of (1 + d_1 x_1 + ... + d_n x_n),
    truncated.  d = -1 gives 1 (empty product); d = 0 gives 1."""
    from .multipoly import MultiPoly
    check_degree(d)
    key = (n, d, policy.max_total_degree)
    if key in _direct_cache:
        return _direct_cache[key]
    out = MultiPoly.const(1, xvars(n))
    if d >= 1:
        for weights in weight_vectors(n, d):
            out = out.mul_truncated(MultiPoly.linear_factor(weights),
                                    policy.max_total_degree)
    _direct_cache[key] = out
    return out


def chern_values(n: int, k: int, ds, wanted) -> dict:
    """{nu: [coefficient of m_nu in c_k at d for d in ds]} over the
    partitions nu of k in ``wanted`` with at most n parts, for integers
    d >= 0 (module docstring); p_j[lam] at d is j!/lam! * sum_s w_s
    C(d+n-1, n-1+s), w = moment_weights(lam).  The recursion computes
    c_m[nu] only for the padded nu that lie componentwise under some wanted
    partition: that set is closed under nu -> sort(nu - alpha) and
    sort(alpha) for alpha <= nu, so every value it reads is exact."""
    from .specialization import moment_weights
    wanted = [tuple(w) for w in wanted]
    if any(sum(w) != k for w in wanted):
        raise ValueError(f"wanted partitions must have size {k}")
    ceilings = [tuple(sorted(w + (0,) * (n - len(w))))
                for w in wanted if len(w) <= n]
    columns = [[comb(d + n - 1, n - 1 + s) for s in range(k + 1)] for d in ds]
    # p[j], c[m]: values of (-1)^(j-1) p_j, c_m by ascending padded partition
    p, c = [None], [{(0,) * n: [1] * len(columns)}]
    for m in range(1, k + 1):
        p.append({})
        c.append({})
        for nu in enumerate_partitions(m, max_length=n):
            top = tuple(sorted(nu + (0,) * (n - len(nu))))
            if not any(all(map(le, top, w)) for w in ceilings):
                continue
            w = moment_weights(top)
            scale = (-1) ** (m - 1) * factorial(m) // prod(map(factorial, top))
            p[m][top] = [scale * sum(map(mul, w, col)) for col in columns]
            total = [0] * len(columns)
            for alpha in islice(product(*(range(e + 1) for e in top)), 1, None):
                pj = p[sum(alpha)][tuple(sorted(alpha))]
                rest = c[m - sum(alpha)][tuple(sorted(map(sub, top, alpha)))]
                total = [t + a * b for t, a, b in zip(total, pj, rest)]
            c[m][top] = [t // m for t in total]
    return {partition_of(w): c[k][w] for w in ceilings}


def chern_interpolated(n: int, k: int, basis: str = "monomial") -> ChernPolynomial:
    """Every monomial coefficient of c_k as a polynomial in d, interpolated
    from chern_values at d = 0..n*k, converted exactly to the basis."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    if n < 1 or k < 0:
        raise OutOfDomainError("need n >= 1 and k >= 0")
    values = chern_values(n, k, range(n * k + 1),
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
    if d < 1:
        raise OutOfDomainError("d must be >= 1")
    from .specialization import stirling_first
    out = []
    for j in range((d + 1) // 2 + 1):
        if j == 0:
            out.append((0, 0))
            continue
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
    return RisingProductSpec.single("delta", table, UniPoly.x("delta"), 2)


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
    lam = check_partition(lam) if lam else ()
    return sum(n + p - 1 for p in lam)


def leading_term(basis: str, lam, n: int):
    """Predicted (coefficient, d-exponent, conjectural-flag) for the leading
    term of the coefficient of the basis element indexed by lam in c_k.

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
    lam = check_partition(lam) if lam else ()
    validate_basis_index(basis, lam, n)
    k = sum(lam)
    if basis == "monomial":
        coeff = Fraction(1)
        for p in lam:
            coeff /= factorial(p)
        return coeff * Fraction(1, factorial(n)) ** k, n * k, False
    if basis == "schur":
        coeff = (Fraction(syt_count(lam), factorial(k))
                 * Fraction(1, factorial(n)) ** k)
        return coeff, n * k, False
    if basis == "elementary":
        H = multiplicities(lam)
        coeff = Fraction(1)
        for i in range(1, n + 1):
            h = H.get(i, 0)
            coeff *= (Fraction(factorial(i - 1), factorial(n + i - 1)) ** h
                      / factorial(h))
        proved = (set(lam) <= {1}) or n == 2
        return coeff, elementary_degree_bound(lam, n), not proved
    raise ValueError(f"no leading-term formula in basis {basis!r}")


def __getattr__(name: str):
    # PEP 562: ``chern.ChernPolynomial`` is ``record.ChernPolynomial``,
    # loaded on first use; not stored here, so it always reads record's
    # binding
    if name != "ChernPolynomial":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import record
    return record.ChernPolynomial
