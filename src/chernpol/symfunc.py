"""Partitions and the classical bases of symmetric polynomials in n
variables (monomial, elementary, Schur, power-sum), exact basis conversion,
Schur coefficients by the alternant, standard Young tableau counts and
Catalan triangle numbers.  Each basis element is a row of monomial
coefficients counted on partitions (Kostka numbers by horizontal strips; e
and p by the last factor's variable set); its x polynomial is read from it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, prod

from . import BASES
from .exactcore import (InconsistentDataError, as_int, as_natural, naturals,
                        xvars)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def check_partition(parts) -> tuple:
    parts = naturals(parts, "a part")
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts}")
    return parts


def partition_of(exponents) -> tuple:
    """The partition of an exponent vector: its nonzero entries, largest
    first (the index of the monomial symmetric function it belongs to)."""
    return tuple(sorted((e for e in exponents if e), reverse=True))


def conjugate(parts) -> tuple:
    parts = check_partition(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0]))


def mult_factorial(parts) -> int:
    """mult(lambda)! = prod over the distinct parts of (multiplicity)!."""
    return prod(map(factorial, Counter(parts).values()))


def enumerate_partitions(weight: int, max_length: int | None = None) -> list[tuple]:
    """All partitions of ``weight`` into at most ``max_length`` parts,
    lexicographically decreasing first part first."""
    weight = as_natural(weight, "weight")

    def rec(remaining, cap, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    slots = weight if max_length is None else as_natural(max_length, "max_length")
    return list(rec(weight, weight, slots))


def dominance_key(parts) -> tuple:
    """Graded-lex key of an exponent vector: total degree, then the vector
    itself.  Sorting by it descending picks the pivot among maximal terms."""
    return (sum(parts), tuple(parts))


# ---------------------------------------------------------------------------
# monomial rows, and the expansions into the x-variables read from them
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _kostka(lam: tuple, mu: tuple) -> int:
    """K(lam, mu): the semistandard tableaux of shape lam and content mu
    (Macdonald, I.5).  The cells holding the last entry form a horizontal
    strip lam/rho of mu[-1] cells, lam_(i+1) <= rho_i <= lam_i, so K(lam,
    mu) is the sum of K(rho, mu[:-1]) over those rho."""
    if len(lam) > len(mu):
        return 0
    if not mu:
        return 1
    rest = sum(lam) - mu[-1]
    strips = itertools.product(*(range(lo, hi + 1)
                                 for lo, hi in zip(lam[1:] + (0,), lam)))
    return sum(_kostka(tuple(p for p in rho if p), mu[:-1])
               for rho in strips if sum(rho) == rest)


@lru_cache(maxsize=None)
def _product_count(basis: str, lam: tuple, nu: tuple) -> int:
    """[m_nu] e_lam or p_lam.  The last factor e_a or p_a, a = lam[-1],
    takes its monomial from a set S of variables, a with exponent 1 (e) or
    one with exponent a (p): sum, over the S that fit under nu, the count
    for lam[:-1] and the partition of nu minus that monomial."""
    if not lam:
        return int(not nu)
    a = lam[-1]
    if basis == "elementary":
        rests = (tuple(p - (i in s) for i, p in enumerate(nu))
                 for s in itertools.combinations(range(len(nu)), a))
    else:
        rests = (nu[:i] + (p - a,) + nu[i + 1:]
                 for i, p in enumerate(nu) if p >= a)
    return sum(_product_count(basis, lam[:-1], partition_of(r)) for r in rests)


def validate_basis_index(basis: str, lam, n: int) -> tuple:
    """``lam`` as a partition indexing a basis element in n variables."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    lam = check_partition(lam)
    if basis in ("monomial", "schur") and len(lam) > n:
        raise ValueError(f"{basis} index {lam} has length > {n} variables")
    if basis == "elementary" and any(p > n for p in lam):
        raise ValueError(f"elementary index {lam} has a part > {n} variables")
    return lam


def _monomial_row(basis: str, lam: tuple, n: int) -> dict:
    """The basis element indexed by lam as {nu: coefficient of m_nu}, over
    the nu |- |lam| with at most n parts, nonzero coefficients only: the
    Kostka numbers K(lam, nu) for s_lam (Macdonald, I.6), the counts of
    _product_count for e_lam and p_lam.  Callers pass lam checked by
    validate_basis_index."""
    if basis == "monomial":
        return {lam: 1}
    count = _kostka if basis == "schur" else partial(_product_count, basis)
    return {nu: c for nu in enumerate_partitions(sum(lam), max_length=n)
            if (c := count(lam, nu))}


def _row_x(row: dict, n: int) -> MultiPoly:
    """The sum of c m_nu over {nu: c} as a polynomial in x1..xn."""
    from .multipoly import MultiPoly
    return MultiPoly(xvars(n), {
        ev: c for nu, c in row.items()
        for ev in set(itertools.permutations(nu + (0,) * (n - len(nu))))})


@lru_cache(maxsize=None)
def _schur_x(lam: tuple, n: int) -> MultiPoly:
    # cached apart from the other bases: its hit ratio is a benchmark metric
    return _row_x(_monomial_row("schur", lam, n), n)


def to_x_expansion(basis: str, lam: tuple, n: int) -> MultiPoly:
    """The basis element as a polynomial in x1..xn, read from its row."""
    n = as_natural(n, "n")
    lam = validate_basis_index(basis, lam, n)
    return (_schur_x(lam, n) if basis == "schur"
            else _row_x(_monomial_row(basis, lam, n), n))


# ---------------------------------------------------------------------------
# expansions of symmetric polynomials in a basis
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def alternant_terms(lam: tuple, n: int) -> tuple:
    """The pairs (sgn(sigma), alpha) over sigma in S_n with alpha = lam +
    delta - sigma(delta) >= 0, lam's nonzero parts padded to length n and
    delta = (n-1, ..., 0): the exponents whose coefficients the alternant
    reads (schur_coefficient); none when lam has more than n nonzero
    parts."""
    lam = tuple(p for p in lam if p)
    if len(lam) > n:
        return ()
    lam += (0,) * (n - len(lam))
    out = []
    for perm in itertools.permutations(range(n)):
        # delta_i = n-1-i and sigma(delta)_i = n-1-perm_i
        alpha = tuple(part - i + p for i, (part, p) in enumerate(zip(lam, perm)))
        if min(alpha) >= 0:
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            out.append((-1 if inversions % 2 else 1, alpha))
    return tuple(out)


def schur_coefficient(coef, lam, n: int):
    """Coefficient of s_lam in a symmetric f in n variables, given
    ``coef(alpha)`` = coefficient of x^alpha in f (None or 0 if absent).
    As s_lam = a_(lam+delta) / a_delta (Macdonald, I.3), it is that of
    x^(lam+delta) in f * a_delta: the sum of sgn(sigma) * coef(alpha) over
    the alternant_terms; 0 when every lookup misses or lam has more than n
    nonzero parts."""
    total = 0
    for sign, alpha in alternant_terms(tuple(lam), n):
        c = coef(alpha)
        if c:
            total = total - c if sign < 0 else total + c
    return total


def expand_in_basis(f: MultiPoly, basis: str) -> dict:
    """Exact expansion of a symmetric polynomial; returns {partition: coeff}:
    the basis change (convert_expansion) of its monomial support, where
    every exponent vector of one orbit carries the same coefficient."""
    if not f.is_symmetric():
        raise ValueError("input is not symmetric in its variables")
    mono = {partition_of(ev): c for ev, c in f.terms.items()}
    return convert_expansion(mono, "monomial", basis, len(f.vars))


def convert_expansion(terms: dict, src_basis: str, dst_basis: str, n: int) -> dict:
    """Convert {partition: coeff} between bases; coeffs may be any ring
    elements that support +, - and * by a Fraction (Fractions or
    polynomials in d).

    One pass over monomial coefficients: the source terms become {mu:
    coefficient of m_mu}, and the pivot mu, graded-lex maximal (minimal for
    power sums), is peeled off with the monomial row of its basis element:
    s_mu, e_(mu'), or p_mu scaled by 1/mult(mu)!.  The transition matrices
    are unitriangular in that order (Macdonald, I.6), so each row clears its
    pivot and adds only terms after it; a pivot that survives its own row
    raises InconsistentDataError.
    """
    n = as_natural(n, "n")
    if dst_basis not in BASES:
        raise ValueError(f"unknown basis {dst_basis!r}")
    rem: dict[tuple, object] = {}
    for lam, c in terms.items():
        lam = validate_basis_index(src_basis, lam, n)
        for mu, k in _monomial_row(src_basis, lam, n).items():
            rem[mu] = rem[mu] + c * k if mu in rem else c * k
    rem = {mu: c for mu, c in rem.items() if c != 0}
    pick = min if dst_basis == "power" else max
    out: dict[tuple, object] = {}
    while rem:
        mu = pick(rem, key=dominance_key)
        c = rem[mu]
        if dst_basis == "power":
            c = c * Fraction(1, mult_factorial(mu))
        lam = conjugate(mu) if dst_basis == "elementary" else mu
        out[lam] = c
        for nu, k in _monomial_row(dst_basis, lam, n).items():
            rem[nu] = rem[nu] - c * k if nu in rem else -(c * k)
            if rem[nu] == 0:
                del rem[nu]
        if mu in rem:
            raise InconsistentDataError(
                f"{BASES[dst_basis]}{list(lam)} does not clear its pivot "
                f"m{list(mu)} in {n} variables")
    return out


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------

def syt_count(lam: tuple) -> int:
    """f^lambda, the standard Young tableaux of shape lambda, by the hook
    length formula: |lambda|! over the product of the hook lengths."""
    lam = check_partition(lam)
    cols = conjugate(lam)
    return factorial(sum(lam)) // prod(row - j + cols[j] - i - 1
                                       for i, row in enumerate(lam)
                                       for j in range(row))


def catalan_triangle(delta: int, j: int) -> int:
    """C(delta-j, j) = binom(delta,j) - binom(delta,j-1); 0 out of range."""
    delta, j = as_int(delta, "delta"), as_int(j, "j")
    if delta < 0 or j < 0 or 2 * j > delta + 1:
        return 0
    return comb(delta, j) - (comb(delta, j - 1) if j >= 1 else 0)
