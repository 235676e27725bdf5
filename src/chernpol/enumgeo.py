"""Enumerative applications: integration over Grassmannians via Schur
coefficients, Chern classes of Grassmannians, degrees of the varieties of
hypersurfaces containing linear subspaces, and degrees and Euler
characteristics of Fano schemes of lines.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .chern import check_degree, chern_direct, chern_values, euler_coefficient
from .exactcore import (OutOfDomainError, TruncationPolicy, UniPoly, as_integer,
                        interpolate_integers, xvars)
from .multipoly import MultiPoly, series_invert
from .symfunc import (NotSymmetricError, catalan_triangle, partition_of,
                      schur_coefficient)


class EmptyFanoError(OutOfDomainError):
    """The expected dimension is negative: the generic Fano scheme is empty."""


class UnsupportedDegreeError(OutOfDomainError):
    """Hypersurface degree outside the supported regime."""


class UnsupportedMethodError(OutOfDomainError):
    pass


def expected_dimension(d: int, m: int, r: int) -> int:
    """delta(d,m,r) = (r+1)(m-r) - binom(r+d, r), the binomial being the
    number of degree-d monomials in r+1 variables (none for d < 0)."""
    return (r + 1) * (m - r) - (comb(r + d, r) if d >= 0 else 0)


def grassmann_integral(f: MultiPoly, k: int, n_amb: int) -> Fraction:
    """Coefficient of the volume form s_((n_amb-k)^k) in the top-degree
    component of a symmetric class on Gr_k(C^n_amb), read by the alternant
    (``symfunc.schur_coefficient``) from the monomial coefficients."""
    if not (1 <= k <= n_amb):
        raise ValueError("need 1 <= k <= n_amb")
    top = f.homogeneous_component(k * (n_amb - k))
    if not top.is_symmetric():
        raise NotSymmetricError("input is not symmetric in its variables")
    n = len(f.vars)
    if k > n:       # s_lam vanishes in fewer than k variables
        return Fraction(0)
    return Fraction(schur_coefficient(top.terms.get, (n_amb - k,) * k, n))


def chern_grassmannian(k: int, n_amb: int,
                       policy: TruncationPolicy | None = None) -> MultiPoly:
    """c(Gr_k(C^n_amb)) = prod (1+x_i)^n_amb / prod prod (1+x_j-x_i) in the
    Chern roots x_1..x_k of the dual tautological bundle, truncated."""
    maxdeg = (policy.max_total_degree if policy is not None
              else k * (n_amb - k))
    xs = xvars(k)
    one = MultiPoly.const(1, xs)
    num = one
    den = one
    for i in range(k):
        xi = MultiPoly.var(xs[i], xs)
        num = num.mul_truncated(((one + xi) ** n_amb).truncate(maxdeg), maxdeg)
        for j in range(k):
            if i == j:
                continue
            den = den.mul_truncated(one + MultiPoly.var(xs[j], xs) - xi,
                                    maxdeg)
    return num.mul_truncated(series_invert(den, TruncationPolicy(maxdeg)),
                             maxdeg)


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


def _check_sigma_domain(m: int, r: int) -> None:
    if not 0 <= r < m:
        raise OutOfDomainError("need 0 <= r < m")


def _sigma_values(m: int, r: int, ds) -> list:
    """deg Sigma(d,m,r) at each d >= 0 of ds, by the alternant on
    chern_values (its x^alpha coefficient is that of m_(sort alpha))."""
    k = r + 1
    values = chern_values(k, k * (m - r), ds)
    return [schur_coefficient(lambda alpha: values[partition_of(alpha)][i],
                              (m - r,) * k, k) for i in range(len(ds))]


def sigma_degree(d: int, m: int, r: int) -> Fraction:
    """deg Sigma(d,m,r) = coef(s_((m-r)^(r+1)), c(Pol^d(C^(r+1)))); 0 at
    d = -1, where c is the empty product 1."""
    _check_sigma_domain(m, r)
    check_degree(d)
    return Fraction(_sigma_values(m, r, [d])[0] if d >= 0 else 0)


def sigma_degree_symbolic(m: int, r: int) -> UniPoly:
    """deg Sigma(d,m,r) as a polynomial in d (valid in the regime d >= 3,
    expected dimension < 0), of degree at most (r+1)^2 (m-r): the
    alternant's values at d = 0..(r+1)^2 (m-r), interpolated."""
    _check_sigma_domain(m, r)
    if r == 0:
        raise OutOfDomainError("r = 0: the expected dimension m - 1 is >= 0 "
                               "for every d, outside the formula's regime")
    return interpolate_integers(
        _sigma_values(m, r, range((r + 1) ** 2 * (m - r) + 1)))


def sigma_degree_leading(m: int, r: int):
    """(coefficient, d-exponent) of the leading term of the symbolic degree:
    1!*2!*...*r! / (m!*(m-1)!*...*(m-r)!) * (1/(r+1)!)^((r+1)(m-r))."""
    num = 1
    for i in range(1, r + 1):
        num *= factorial(i)
    den = 1
    for j in range(m - r, m + 1):
        den *= factorial(j)
    expo = (r + 1) ** 2 * (m - r)
    coeff = Fraction(num, den) * Fraction(1, factorial(r + 1)) ** ((r + 1) * (m - r))
    return coeff, expo


def sigma_degree_hyperplane(d: int, m: int) -> int:
    """Closed form for r = m-1 (hypersurfaces with a linear component):
    binom(binom(d+m-1, m) + m - 1, m)."""
    return comb(comb(d + m - 1, m) + m - 1, m)


# ---------------------------------------------------------------------------
# Fano schemes of lines
# ---------------------------------------------------------------------------

def euler_class_c2(d: int) -> MultiPoly:
    """e(Pol^d(C^2)) = c_{d+1}, by direct product."""
    return chern_direct(2, d, TruncationPolicy(d + 1)).homogeneous_component(d + 1)


def _check_fano_domain(d: int, m: int) -> int:
    # d = 2 is allowed for lines: a generic quadric in P^m (m >= 3) does
    # carry lines and the closed formulas remain valid there
    if d < 2:
        raise UnsupportedDegreeError("need hypersurface degree d >= 2")
    delta = expected_dimension(d, m, 1)
    if delta < 0:
        raise EmptyFanoError(
            "negative expected dimension: the generic Fano scheme is empty")
    return delta


def fano_degree_lines(d: int, m: int, method: str = "closed") -> int:
    """deg F_1(d,m) under the Pluecker embedding.

    closed: the Catalan-triangle sum over the Schur coefficients of the
    Euler class; integral: direct integration of e(Pol^d(S)) * c_1(S^v)^delta
    over Gr_2(C^(m+1)).
    """
    delta = _check_fano_domain(d, m)
    if method == "closed":
        total = 0
        for j in range(delta // 2 + 1):
            total += catalan_triangle(delta, j) * euler_coefficient(d, d - m + 2 + j)
        return total
    if method == "integral":
        xs = xvars(2)
        e1 = MultiPoly(xs, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
        val = grassmann_integral(euler_class_c2(d) * e1 ** delta, 2, m + 1)
        return as_integer(val, f"Fano degree ({d}, {m})")
    raise UnsupportedMethodError(f"unknown method {method!r}")


def fano_chi_lines(d: int, m: int, method: str = "integral") -> int:
    """Euler characteristic of F_1(d,m) for a generic hypersurface:
    integral of c(Gr_2(C^(m+1))) * e(Pol^d(S)) / c(Pol^d(S)); closed forms
    exist for expected dimension 0 (finitely many reduced points, so chi is
    the degree), 1 and 2."""
    delta = _check_fano_domain(d, m)
    if method == "integral":
        dim = 2 * (m - 1)
        policy = TruncationPolicy(dim)
        cgr = chern_grassmannian(2, m + 1, policy)
        e = euler_class_c2(d)
        cinv = series_invert(chern_direct(2, d, policy),
                             TruncationPolicy(dim - (d + 1)))
        integrand = cgr.mul_truncated(e, dim).mul_truncated(cinv, dim)
        val = grassmann_integral(integrand, 2, m + 1)
        return as_integer(val, f"Fano Euler characteristic ({d}, {m})")
    if method == "closed":
        if delta == 0:
            return fano_degree_lines(d, m, "closed")
        if delta == 1:
            return euler_coefficient(d, m - 2) * (m + 1 - comb(2 * m - 3, 2))
        if delta == 2:
            # coefficient polynomials obtained by exact expansion of
            # c(Gr_2(C^(m+1))) / c(Pol^(2m-5)(C^2)) in degree 2 (fitted at
            # m = 4..8 and guard-verified at m = 9, 10)
            a = (2 * m**4 - 20 * m**3 + 67 * m**2 - 85 * m + 33)
            b = (Fraction(2) * m**4 - Fraction(56, 3) * m**3
                 + 59 * m**2 - Fraction(211, 3) * m + 26)
            val = (euler_coefficient(d, m - 2) * a
                   + euler_coefficient(d, m - 3) * b)
            return as_integer(val, f"Fano Euler characteristic ({d}, {m})")
        raise UnsupportedMethodError(
            "closed Euler-characteristic formulas cover expected "
            "dimensions 0, 1 and 2 only")
    raise UnsupportedMethodError(f"unknown method {method!r}")


def chi_deg_ratio_check(m: int) -> dict:
    """For the Fano curve case d = 2m-4: verify
    chi = (m + 1 - binom(2m-3, 2)) * deg, returning both sides."""
    d = 2 * m - 4
    ratio = m + 1 - comb(2 * m - 3, 2)
    deg = fano_degree_lines(d, m, "closed")
    chi = fano_chi_lines(d, m, "integral")
    return {"m": m, "d": d, "ratio": ratio, "degree": deg, "chi": chi,
            "holds": chi == ratio * deg}
