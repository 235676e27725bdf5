"""Enumerative applications: integration over Grassmannians, Chern classes of
Grassmannians, degrees of the varieties of hypersurfaces containing linear
subspaces, and degrees and Euler characteristics of Fano schemes of lines,
each in one closed form at every expected dimension.

Every integral is the alternant (grassmann_integral) on partitions, read
from classes in the Chern roots of S^* that one integer Newton recursion
(chern.chern_values) computes from their power sums.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod
from operator import le, sub

from .chern import (chern_direct, chern_values, euler_c2_closed,
                    pol_power_sums, weight_vectors)
from .exactcore import (OutOfDomainError, TruncationPolicy, UniPoly, as_int,
                        as_integer, as_natural, check_degree,
                        interpolate_integers, naturals)
from .symfunc import (alternant_terms, catalan_triangle, convert_expansion,
                      enumerate_partitions, partition_of, schur_coefficient)


def expected_dimension(d: int, m: int, r: int) -> int:
    """delta(d,m,r) = (r+1)(m-r) - binom(r+d, r), the binomial being the
    number of degree-d monomials in r+1 variables (none for d < 0)."""
    d, m, r = as_int(d, "d"), as_int(m, "m"), as_int(r, "r")
    if r < 0:
        raise OutOfDomainError("r must be >= 0")
    return (r + 1) * (m - r) - (comb(r + d, r) if d >= 0 else 0)


def _check_grassmannian(k: int, n_amb: int) -> tuple:
    """(k, n_amb) as naturals, if Gr_k(C^n_amb) exists: 1 <= k <= n_amb."""
    k, n_amb = as_natural(k, "k"), as_natural(n_amb, "n_amb")
    if not 1 <= k <= n_amb:
        raise ValueError("need 1 <= k <= n_amb")
    return k, n_amb


def grassmann_integral(coef, k: int, n_amb: int):
    """Coefficient of the volume form s_((n_amb-k)^k) in a symmetric class
    on Gr_k(C^n_amb) with coefficient ``coef(alpha)`` at x^alpha, read by
    the alternant (``symfunc.schur_coefficient``) at its at most k!
    exponents, all of degree k(n_amb-k)."""
    k, n_amb = _check_grassmannian(k, n_amb)
    return schur_coefficient(coef, (n_amb - k,) * k, k)


def chern_grassmannian(k: int, n_amb: int, degree: int, ds=()) -> dict:
    """{nu: coefficient of m_nu} of c_degree(T Gr_k(C^n_amb) - sum over d
    in ds of Sym^d S^*), by chern_values on the difference of power sums.
    As T Gr = S^* (x) C^n_amb - S^* (x) S, p_j(T Gr) = n_amb p_j(x) - sum
    over a != b of (x_a - x_b)^j: n_amb - (k-1)(1+(-1)^j) at x_a^j,
    -C(j,i)((-1)^(j-i) + (-1)^i) at x_a^i x_b^(j-i), 0 at the rest."""
    k, n_amb = _check_grassmannian(k, n_amb)
    degree, ds = as_natural(degree, "degree"), naturals(ds, "a form degree")
    pol = pol_power_sums(k, degree, ds)

    def power_sums(top):
        parts = [e for e in top if e]
        j = sum(parts)
        if len(parts) == 1:
            tangent = n_amb - (k - 1) * (1 + (-1) ** j)
        elif len(parts) == 2:
            tangent = -comb(j, parts[0]) * ((-1) ** parts[0] + (-1) ** parts[1])
        else:
            tangent = 0
        return [tangent - sum(pol(top))]

    values = chern_values(k, power_sums,
                          enumerate_partitions(degree, max_length=k))
    return {nu: v for nu, (v,) in values.items() if v}


# ---------------------------------------------------------------------------
# degrees of Sigma(d, m, r)
# ---------------------------------------------------------------------------

def sigma_validity_warnings(d: int, m: int, r: int) -> list:
    out = []
    if d == 2:
        out.append("d=2: a quadric's planes are governed by dimension "
                   "parity, not by the expected dimension")
    if d < 2:
        out.append("d<2: degenerate hypersurface degree")
    if expected_dimension(d, m, r) >= 0:
        out.append("expected dimension >= 0: the generic hypersurface "
                   "already contains r-planes")
    return out


def _check_sigma_domain(m: int, r: int, symbolic: bool = False) -> tuple:
    """(m, r) as ints, if 0 <= r < m; ``symbolic``, the regime of the
    polynomial in d, also needs r >= 1."""
    m, r = as_int(m, "m"), as_int(r, "r")
    if not 0 <= r < m:
        raise OutOfDomainError("need 0 <= r < m")
    if symbolic and r == 0:
        raise OutOfDomainError("r = 0: the expected dimension m - 1 is >= 0 "
                               "for every d, outside the formula's regime")
    return m, r


def _integrate_pol_class(k: int, n_amb: int, ds, delta: int, g: dict) -> list:
    """[integral of c_(dim-delta)(Pol^d(S)) * g over Gr_k(C^n_amb) for d in
    ds], g = {mu: coefficient of m_mu} of degree delta: the alternant reads
    each exponent alpha as a box sum over the beta <= alpha of degree delta,
    g at beta times the class at alpha - beta, computed only there."""
    split = {alpha: [(g[mu], partition_of(map(sub, alpha, beta)))
                     for beta in weight_vectors(k, delta)
                     if all(map(le, beta, alpha))
                     and (mu := partition_of(beta)) in g]
             for _, alpha in alternant_terms((n_amb - k,) * k, k)}
    top = k * (n_amb - k) - delta
    values = chern_values(k, pol_power_sums(k, top, ds), {
        rest for pairs in split.values() for _, rest in pairs})
    return [grassmann_integral(
        lambda alpha: sum(b * values[rest][i] for b, rest in split[alpha]),
        k, n_amb) for i in range(len(ds))]


def sigma_degree(d: int, m: int, r: int) -> Fraction:
    """deg Sigma(d,m,r) = coef(s_((m-r)^(r+1)), c(Pol^d(C^(r+1)))); 0 at
    d = -1, where c is the empty product 1."""
    m, r = _check_sigma_domain(m, r)
    d = check_degree(d)
    return Fraction(_integrate_pol_class(r + 1, m + 1, [d], 0, {(): 1})[0]
                    if d >= 0 else 0)


def sigma_degree_symbolic(m: int, r: int) -> UniPoly:
    """deg Sigma(d,m,r) as a polynomial in d (valid in the regime d >= 3,
    expected dimension < 0), of degree at most (r+1)^2 (m-r): the
    alternant's values at d = 0..(r+1)^2 (m-r), interpolated."""
    m, r = _check_sigma_domain(m, r, symbolic=True)
    return interpolate_integers(
        _integrate_pol_class(r + 1, m + 1, range((r + 1) ** 2 * (m - r) + 1),
                             0, {(): 1}))


def sigma_degree_leading(m: int, r: int):
    """(coefficient, d-exponent) of the leading term of the symbolic degree:
    1!*2!*...*r! / (m!*(m-1)!*...*(m-r)!) * (1/(r+1)!)^((r+1)(m-r)), on
    the symbolic degree's domain."""
    m, r = _check_sigma_domain(m, r, symbolic=True)
    num = prod(map(factorial, range(1, r + 1)))
    den = prod(map(factorial, range(m - r, m + 1)))
    expo = (r + 1) ** 2 * (m - r)
    coeff = Fraction(num, den) * Fraction(1, factorial(r + 1)) ** ((r + 1) * (m - r))
    return coeff, expo


def sigma_degree_hyperplane(d: int, m: int) -> int:
    """Closed form for r = m-1 (hypersurfaces with a linear component):
    binom(binom(d+m-1, m) + m - 1, m), sigma_degree(d, m, m-1) on its
    domain: d >= -1 (0 at d = -1) and m >= 1."""
    m = as_int(m, "m")
    if m < 1:
        raise OutOfDomainError("need m >= 1")
    d = check_degree(d)
    return comb(comb(d + m - 1, m) + m - 1, m) if d >= 0 else 0


# ---------------------------------------------------------------------------
# Fano schemes of lines
# ---------------------------------------------------------------------------

def euler_class_c2(d: int) -> MultiPoly:
    """e(Pol^d(C^2)) = c_{d+1}, by direct product."""
    return chern_direct(2, d, TruncationPolicy(d + 1)).homogeneous_component(d + 1)


def _check_fano_domain(d: int, m: int) -> tuple:
    # d = 2 is allowed for lines: a generic quadric in P^m (m >= 3) does
    # carry lines and the closed formulas remain valid there
    d, m = as_int(d, "d"), as_int(m, "m")
    if d < 2:
        raise OutOfDomainError("need hypersurface degree d >= 2")
    delta = expected_dimension(d, m, 1)
    if delta < 0:
        raise OutOfDomainError(
            "negative expected dimension: the generic Fano scheme is empty")
    return d, m, delta


def _pair_with_euler_class(d: int, m: int, schur: dict):
    """Integral of c_{d+1}(Pol^d(S)) * sum c_mu s_mu over Gr_2(C^(m+1)), for
    {mu: c_mu} with |mu| = 2m-3-d: s_mu pairs only with s_(m-1-mu_2,
    m-1-mu_1) (Poincare duality), so it is sum c_mu e^d_(m-1-mu_1)."""
    e = dict(euler_c2_closed(d))
    return sum(c * e.get(m - 1 - (mu[0] if mu else 0), 0)
               for mu, c in schur.items())


def fano_degree_lines(d: int, m: int, method: str = "closed") -> int:
    """deg F_1(d,m) under the Pluecker embedding, the integral of
    e(Pol^d(S)) * c_1(S^v)^delta over Gr_2(C^(m+1)). closed: the Euler-class
    pairing of sigma_1^delta = sum C(delta-j, j) s_(delta-j, j), the
    Catalan triangle; integral: the alternant on e * e_1^delta, which has
    the multinomial delta!/mu! at m_mu."""
    d, m, delta = _check_fano_domain(d, m)
    if method == "closed":
        return _pair_with_euler_class(
            d, m, {(delta - j, j): catalan_triangle(delta, j)
                   for j in range(delta // 2 + 1)})
    if method == "integral":
        e1_power = {mu: factorial(delta) // prod(map(factorial, mu))
                    for mu in enumerate_partitions(delta, max_length=2)}
        val = _integrate_pol_class(2, m + 1, [d], delta, e1_power)[0]
        return as_integer(val, f"Fano degree ({d}, {m})")
    raise ValueError(f"unknown method {method!r}")


def fano_chi_lines(d: int, m: int, method: str = "closed") -> int:
    """Euler characteristic of F_1(d,m) for a generic hypersurface, the
    integral of c(Gr_2(C^(m+1))) * e(Pol^d(S)) / c(Pol^d(S)), that is of e
    * c_delta(T Gr - Pol^d(S)). closed: the Euler-class pairing of the
    latter's Schur expansion; integral: the alternant on the product."""
    d, m, delta = _check_fano_domain(d, m)
    if method not in ("closed", "integral"):
        raise ValueError(f"unknown method {method!r}")
    quotient = chern_grassmannian(2, m + 1, delta, (d,))
    if method == "closed":
        val = _pair_with_euler_class(
            d, m, convert_expansion(quotient, "monomial", "schur", 2))
    else:
        val = _integrate_pol_class(2, m + 1, [d], delta, quotient)[0]
    return as_integer(val, f"Fano Euler characteristic ({d}, {m})")


def chi_deg_ratio_check(m: int) -> dict:
    """For the Fano curve case d = 2m-4: verify
    chi = (m + 1 - binom(2m-3, 2)) * deg, returning both sides."""
    d = 2 * m - 4
    ratio = m + 1 - comb(2 * m - 3, 2)
    deg = fano_degree_lines(d, m, "closed")
    chi = fano_chi_lines(d, m, "integral")
    return {"m": m, "d": d, "ratio": ratio, "degree": deg, "chi": chi,
            "holds": chi == ratio * deg}
