"""Symmetric-group orbits on the weight simplex: orbit-type-vectors,
explicit enumeration of the increasing weak partitions of each type, orbit
terms in the elementary basis and the orbit-type factorization of the total
Chern class.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

from .exactcore import (OutOfDomainError, TruncationPolicy, as_int,
                        as_natural, naturals)

# chern and symfunc are imported where used: enumerating orbits loads neither


def orbit_types(n: int) -> list:
    """All 2^(n-1) compositions of n, the gaps between the cut positions
    of each subset of 1..n-1, longest first, larger leading parts first
    within a length."""
    n = as_int(n, "n")
    if n < 1:
        raise OutOfDomainError("n must be >= 1")
    out = [tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
           for r in range(n) for cuts in itertools.combinations(range(1, n), r)]
    out.sort(key=lambda u: (-len(u), tuple(-x for x in u)))
    return out


def enumerate_orbit(u, d: int) -> list:
    """O_u(d): all weakly increasing n-tuples summing to d whose distinct
    values have multiplicity pattern u, by the nested-range recursion."""
    u = naturals(u, "an orbit type part")
    if not u:                       # the type of a 0-tuple
        raise OutOfDomainError("n must be >= 1")
    if 0 in u:
        raise ValueError("orbit type parts must be positive")
    d = as_int(d, "d")
    if d < 0:
        return []
    if len(u) == 1:
        (n,) = u
        return [(d // n,) * n] if d % n == 0 else []
    N1 = sum(u)
    rest = u[1:]
    N2 = sum(rest)
    # the distinct values of a type-rest element are strictly increasing,
    # so the j-th is at least j-1
    least = sum(uj * j for j, uj in enumerate(rest))
    out = []
    t1 = 0
    # peeling off (t1^{u_1}, (t1+1)^{N2}) reduces to type u[1:] and total
    # d - N1*t1 - N2
    while d - N1 * t1 - N2 >= least:
        for tail in enumerate_orbit(rest, d - N1 * t1 - N2):
            out.append((t1,) * u[0] + tuple(x + t1 + 1 for x in tail))
        t1 += 1
    return out


def orbit_term(values, max_weight: int | None = None) -> dict:
    """p_(d_1..d_n): the product over the distinct permutations P of the
    weight tuple of (1 + sum_i w_i x_i), exactly in the elementary basis as
    {partition: coefficient}; with ``max_weight``, only the e_lam with
    |lam| <= max_weight.  Its monomial coefficients come from chern_values
    on the power sums |a|!/a! * sum over w in P of w^a at x^a."""
    from .chern import chern_values
    from .symfunc import convert_expansion, enumerate_partitions, multinomial
    values = naturals(values, "a weight")
    n, perms = len(values), set(itertools.permutations(values))
    top = len(perms) if max_weight is None else min(
        as_natural(max_weight, "max_weight"), len(perms))

    def power_sums(a):
        return [multinomial(a) * sum(prod(map(pow, w, a)) for w in perms)]
    mono = chern_values(n, power_sums, [
        nu for j in range(top + 1) for nu in enumerate_partitions(j, n)])
    return convert_expansion({nu: Fraction(c) for nu, (c,) in mono.items()},
                             "monomial", "elementary", n)


def weighted_truncate(terms: dict, max_weight: int) -> dict:
    """Keep the e_lam with |lam| <= max_weight (e_i has x-weight i)."""
    return {lam: c for lam, c in terms.items() if sum(lam) <= max_weight}


def orbit_factorization_check(n: int, d: int, policy: TruncationPolicy) -> bool:
    """Does the product of all orbit terms reproduce the total Chern class
    in the elementary basis (both sides truncated at the same x-weight)?
    On partitions the product is concatenation, e_lam e_mu = e_(lam u mu)."""
    from .chern import chern_direct
    from .symfunc import expand_in_basis
    n, d = as_int(n, "n"), as_natural(d, "d")
    maxw = policy.max_total_degree
    rhs = {(): 1}
    for u in orbit_types(n):
        for values in enumerate_orbit(u, d):
            term, product = orbit_term(values, maxw), {}
            for lam, a in rhs.items():
                for mu, b in weighted_truncate(term, maxw - sum(lam)).items():
                    nu = tuple(sorted(lam + mu, reverse=True))
                    product[nu] = product.get(nu, 0) + a * b
            rhs = {nu: c for nu, c in product.items() if c}
    return expand_in_basis(chern_direct(n, d, policy), "elementary") == rhs
