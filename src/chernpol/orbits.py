"""Symmetric-group orbits on the weight simplex: orbit-type-vectors,
explicit enumeration of the increasing weak partitions of each type, orbit
terms in the elementary basis, the orbit-type factorization of the total
Chern class, and quasi-polynomial fits for the orbit counts.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce

from .chern import chern_direct
from .exactcore import (InconsistentDataError, OutOfDomainError,
                        TruncationPolicy, xvars)
from .multipoly import MultiPoly, interpolate
from .symfunc import expand_in_basis, multiplicities


def orbit_types(n: int) -> list:
    """All 2^(n-1) compositions of n, longest first, larger leading parts
    first within a length."""
    if n < 1:
        raise OutOfDomainError("n must be >= 1")
    out = []
    for cuts in itertools.product((0, 1), repeat=n - 1):
        comp = []
        run = 1
        for c in cuts:
            if c:
                comp.append(run)
                run = 1
            else:
                run += 1
        comp.append(run)
        out.append(tuple(comp))
    out.sort(key=lambda u: (-len(u), tuple(-x for x in u)))
    return out


def _min_type_sum(u) -> int:
    # the values of a type-u element are strictly increasing, so the j-th
    # distinct value is at least j-1
    return sum(uj * j for j, uj in enumerate(u))


def enumerate_orbit(u, d: int) -> list:
    """O_u(d): all weakly increasing n-tuples summing to d whose distinct
    values have multiplicity pattern u, by the nested-range recursion."""
    u = tuple(int(x) for x in u)
    if any(x < 1 for x in u):
        raise ValueError("orbit type parts must be positive")
    if d < 0:
        return []
    if len(u) == 1:
        (n,) = u
        return [(d // n,) * n] if d % n == 0 else []
    N1 = sum(u)
    rest = u[1:]
    N2 = sum(rest)
    out = []
    t1 = 0
    # peeling off (t1^{u_1}, (t1+1)^{N2}) reduces to type u[1:] and total
    # d - N1*t1 - N2
    while d - N1 * t1 - N2 >= _min_type_sum(rest):
        for tail in enumerate_orbit(rest, d - N1 * t1 - N2):
            out.append((t1,) * u[0] + tuple(x + t1 + 1 for x in tail))
        t1 += 1
    return out


def orbit_type_of(values) -> tuple:
    """Multiplicity pattern of a weakly increasing tuple."""
    values = tuple(values)
    u = []
    for v, grp in itertools.groupby(values):
        u.append(len(list(grp)))
    return tuple(u)


def _evars(n: int) -> tuple:
    return tuple(f"e{i+1}" for i in range(n))


def _expansion_to_epoly(terms: dict, n: int) -> MultiPoly:
    """{nu: c} in the elementary basis as a polynomial in e_1..e_n."""
    out = {}
    for nu, c in terms.items():
        H = multiplicities(nu)
        out[tuple(H.get(i, 0) for i in range(1, n + 1))] = c
    return MultiPoly(_evars(n), out)


def orbit_term(values) -> MultiPoly:
    """p_(d_1..d_n): the product over the distinct permutations of the
    weight tuple of (1 + sum_i w_i x_i), re-expressed exactly in e_1..e_n."""
    values = tuple(int(v) for v in values)
    n = len(values)
    out = MultiPoly.const(1, xvars(n))
    for perm in sorted(set(itertools.permutations(values))):
        out = out * MultiPoly.linear_factor(perm)
    return _expansion_to_epoly(expand_in_basis(out, "elementary"), n)


def weighted_truncate(f: MultiPoly, max_weight: int) -> MultiPoly:
    """Keep terms of x-weight <= max_weight, where e_i carries weight i."""
    return f.filter_terms(
        lambda ev: sum((i + 1) * e for i, e in enumerate(ev)) <= max_weight)


def chern_in_elementary(n: int, d: int, policy: TruncationPolicy) -> MultiPoly:
    """chern_direct re-expressed in e_1..e_n, truncated by x-weight."""
    f = chern_direct(n, d, policy)
    return _expansion_to_epoly(expand_in_basis(f, "elementary"), n)


def orbit_factorization_check(n: int, d: int, policy: TruncationPolicy) -> bool:
    """Does the product of all orbit terms reproduce the total Chern class
    (both sides truncated at the same x-weight)?"""
    if d < 0:
        raise ValueError("d must be >= 0")
    maxw = policy.max_total_degree
    rhs = MultiPoly.const(1, _evars(n))
    for u in orbit_types(n):
        for values in enumerate_orbit(u, d):
            rhs = weighted_truncate(rhs * orbit_term(values), maxw)
    lhs = weighted_truncate(chern_in_elementary(n, d, policy), maxw)
    return lhs == rhs


# ---------------------------------------------------------------------------
# orbit counts as quasi-polynomials
# ---------------------------------------------------------------------------

def orbit_count_period(u) -> int:
    """M(u) = prod_j (u_j + ... + u_s); the period of |O_u(d)| divides it."""
    u = tuple(u)
    return reduce(lambda a, b: a * b,
                  (sum(u[j:]) for j in range(len(u))), 1)


def orbit_count_fit(u, d_max: int = 40) -> dict:
    """Fit, per congruence class of d modulo M(u), a polynomial of degree
    < len(u) to |O_u(d)| on d = 0..d_max.  Returns
    {residue: (start_d, UniPoly)} where the fit is verified for all sampled
    d >= start_d in the class.  Reported, not asserted beyond the range."""
    u = tuple(u)
    M = orbit_count_period(u)
    counts = {d: len(enumerate_orbit(u, d)) for d in range(d_max + 1)}
    out = {}
    for q in range(M):
        pts = [(d, Fraction(c)) for d, c in counts.items() if d % M == q]
        deg = len(u) - 1
        start = 0
        while len(pts) - start > deg + 1:
            try:
                poly = interpolate(pts[start:], deg, var="d")
                out[q] = (pts[start][0], poly)
                break
            except InconsistentDataError:
                start += 1
        else:
            raise InconsistentDataError(
                f"no degree-{deg} quasi-polynomial fit for type {u}, "
                f"residue {q} on d <= {d_max}")
    return out
