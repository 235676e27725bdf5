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
from operator import mul, sub

from .exactcore import (OutOfDomainError, TruncationPolicy, UniPoly,
                        interpolate_integers, xvars)
from .record import FORMAT_VERSION, ChernPolynomial, check_degree
from .symfunc import (BASES, check_partition, enumerate_partitions,
                      multiplicities, partition_of, syt_count,
                      validate_basis_index)

# multipoly, rising and specialization are imported inside the functions
# that use them; the closed form loads only specialization.  ChernPolynomial,
# check_degree and FORMAT_VERSION live in ``record`` and are re-exported here,
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


def chern_values(n: int, k: int, ds) -> dict:
    """{nu: [coefficient of m_nu in c_k at d for d in ds]} over nu |- k
    with at most n parts, for integers d >= 0 (module docstring); p_j[lam]
    at d is j!/lam! * sum_s w_s C(d+n-1, n-1+s), w = moment_weights(lam)."""
    from .specialization import moment_weights
    columns = [[comb(d + n - 1, n - 1 + s) for s in range(k + 1)] for d in ds]
    # p[j], c[m]: values of (-1)^(j-1) p_j, c_m by ascending padded partition
    p, c = [None], [{(0,) * n: [1] * len(columns)}]
    for m in range(1, k + 1):
        p.append({})
        c.append({})
        for nu in enumerate_partitions(m, max_length=n):
            top = tuple(sorted(nu + (0,) * (n - len(nu))))
            w = moment_weights(top)
            scale = (-1) ** (m - 1) * factorial(m) // prod(map(factorial, top))
            p[m][top] = [scale * sum(map(mul, w, col)) for col in columns]
            total = [0] * len(columns)
            for alpha in islice(product(*(range(e + 1) for e in top)), 1, None):
                pj = p[sum(alpha)][tuple(sorted(alpha))]
                rest = c[m - sum(alpha)][tuple(sorted(map(sub, top, alpha)))]
                total = [t + a * b for t, a, b in zip(total, pj, rest)]
            c[m][top] = [t // m for t in total]
    return {partition_of(top): v for top, v in c[k].items()}


def chern_interpolated(n: int, k: int, basis: str = "monomial") -> ChernPolynomial:
    """Every monomial coefficient of c_k as a polynomial in d, interpolated
    from chern_values at d = 0..n*k, converted exactly to the basis."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    if n < 1 or k < 0:
        raise OutOfDomainError("need n >= 1 and k >= 0")
    terms = {nu: interpolate_integers(v)
             for nu, v in chern_values(n, k, range(n * k + 1)).items() if any(v)}
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


def euler_coefficient(d: int, j: int) -> int:
    """e^d_j, i.e. coef(s_{d+1-j,j}, c_{d+1}) for n = 2; 0 out of range."""
    if j < 0 or j > (d + 1) // 2:
        return 0
    return dict(euler_c2_closed(d))[j]


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


def odd_grouped_in_d(H) -> UniPoly:
    """The same coefficient re-parameterized by d = 2*delta + 1; a polynomial
    in d that matches the elementary-basis coefficient g at every odd d."""
    half = UniPoly({1: Fraction(1, 2), 0: Fraction(-1, 2)}, var="d")
    return odd_grouped_coefficient(H)(half)


# ---------------------------------------------------------------------------
# leading terms
# ---------------------------------------------------------------------------

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
        exponent = 0
        for i in range(1, n + 1):
            h = H.get(i, 0)
            coeff *= (Fraction(factorial(i - 1), factorial(n + i - 1)) ** h
                      / factorial(h))
            exponent += (n + i - 1) * h
        proved = (set(lam) <= {1}) or n == 2
        return coeff, exponent, not proved
    raise ValueError(f"no leading-term formula in basis {basis!r}")


def elementary_degree_bound(lam, n: int) -> int:
    """n*H_1 + (n+1)*H_2 + ... + (2n-1)*H_n for lam = (1^H_1,...,n^H_n)."""
    lam = check_partition(lam) if lam else ()
    return sum(n + p - 1 for p in lam)


# ---------------------------------------------------------------------------
# conjecture reports (observed vs predicted; never asserted)
# ---------------------------------------------------------------------------

def conjecture_report() -> str:
    """Non-asserting observations: the conjectural elementary-basis leading
    terms beyond the proved cases, and the apparent polynomiality of c_k
    coefficients in n at fixed k and d."""
    lines = ["conjectural elementary-basis leading terms (n=3):"]
    cp = chern_interpolated(3, 3, "elementary")
    for lam, g in sorted(cp.terms.items()):
        coeff, expo, conj = leading_term("elementary", lam, 3)
        if not conj:
            continue
        obs_deg = g.degree()
        obs_lead = g.leading_coeff()
        lines.append(
            f"  nu={lam}: observed {obs_lead}*d^{obs_deg}, "
            f"predicted {coeff}*d^{expo}, "
            f"{'match' if (obs_deg, obs_lead) == (expo, coeff) else 'MISMATCH'}")
    lines.append("n-dependence of coef(e_2, c_2) at fixed d=3 for n=2..6 "
                 "(binomial form predicts comb(3+n, n+1)):")
    for n in range(2, 7):
        cp2 = chern_interpolated(n, 2, "elementary")
        obs = cp2.terms.get((2,), UniPoly.const(0, "d"))(Fraction(3))
        lines.append(f"  n={n}: observed {obs}, predicted {comb(3 + n, n + 1)}")
    return "\n".join(lines)
