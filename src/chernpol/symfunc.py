"""Partitions and the classical bases of symmetric polynomials in n
variables (monomial, elementary, Schur, power-sum), exact basis conversion,
Schur coefficients by the alternant, standard Young tableau counts and
Catalan triangle numbers.  Each basis element is a row of monomial
coefficients counted on partitions (Kostka numbers by horizontal strips; e
and p by the last factor's variable set); its x polynomial is read from it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial

from .exactcore import InconsistentDataError, as_integer, xvars

# basis name -> the letter that labels its elements (m[2,1], e[1], ...)
BASES = {"monomial": "m", "elementary": "e", "schur": "s", "power": "p"}


class InvalidIndexError(ValueError):
    """Partition does not index a basis element in this many variables."""


class NotSymmetricError(ValueError):
    pass


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def check_partition(parts) -> tuple:
    parts = tuple(int(p) for p in parts)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts}")
    return parts


def partition_of(exponents) -> tuple:
    """The partition of an exponent vector: its nonzero entries, largest
    first (the index of the monomial symmetric function it belongs to)."""
    return tuple(sorted((e for e in exponents if e), reverse=True))


def conjugate(parts) -> tuple:
    parts = tuple(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0]))


def multiplicities(parts) -> dict:
    """Value -> multiplicity (includes zeros if present)."""
    out: dict[int, int] = {}
    for p in parts:
        out[p] = out.get(p, 0) + 1
    return out


def mult_factorial(parts) -> int:
    """mult(lambda)! = prod over the distinct parts of (multiplicity)!."""
    out = 1
    for m in multiplicities(parts).values():
        out *= factorial(m)
    return out


def enumerate_partitions(weight: int, max_length: int | None = None,
                         max_part: int | None = None) -> list[tuple]:
    """All partitions of ``weight`` under the constraints, lexicographically
    decreasing first part first."""
    if weight < 0:
        raise ValueError("weight must be non-negative")

    def rec(remaining, cap, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    cap = weight if max_part is None else min(max_part, weight)
    slots = weight if max_length is None else max_length
    return list(rec(weight, cap, slots))


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


def validate_basis_index(basis: str, lam: tuple, n: int) -> None:
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    check_partition(lam)
    if basis in ("monomial", "schur") and len(lam) > n:
        raise InvalidIndexError(
            f"{basis} index {lam} has length > {n} variables")
    if basis == "elementary" and any(p > n for p in lam):
        raise InvalidIndexError(
            f"elementary index {lam} has a part > {n} variables")


def _monomial_row(basis: str, lam: tuple, n: int) -> dict:
    """The basis element indexed by lam as {nu: coefficient of m_nu}, over
    the nu |- |lam| with at most n parts, nonzero coefficients only: the
    Kostka numbers K(lam, nu) for s_lam (Macdonald, I.6), the counts of
    _product_count for e_lam and p_lam."""
    validate_basis_index(basis, lam, n)
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
    lam = tuple(lam)
    return (_schur_x(lam, n) if basis == "schur"
            else _row_x(_monomial_row(basis, lam, n), n))


# ---------------------------------------------------------------------------
# expansions of symmetric polynomials in a basis
# ---------------------------------------------------------------------------

def schur_coefficient(coef, lam, n: int):
    """Coefficient of s_lam in a symmetric f in n variables, given
    ``coef(alpha)`` = coefficient of x^alpha in f (None or 0 if absent).
    As s_lam = a_(lam+delta) / a_delta (Macdonald, I.3), it is that of
    x^(lam+delta) in f * a_delta: the sum over sigma in S_n of sgn(sigma) *
    coef(lam + delta - sigma(delta)), lam's nonzero parts padded to length
    n, delta = (n-1, ..., 0), negative exponents skipped; 0 when every
    lookup misses or lam has more than n nonzero parts."""
    lam = tuple(p for p in lam if p)
    if len(lam) > n:
        return 0
    lam += (0,) * (n - len(lam))
    total = 0
    for perm in itertools.permutations(range(n)):
        # delta_i = n-1-i and sigma(delta)_i = n-1-perm_i
        alpha = tuple(part - i + p for i, (part, p) in enumerate(zip(lam, perm)))
        c = coef(alpha) if min(alpha) >= 0 else None
        if c:
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            total = total - c if inversions % 2 else total + c
    return total


def expand_in_basis(f: MultiPoly, basis: str) -> dict:
    """Exact expansion of a symmetric polynomial; returns {partition: coeff}:
    the basis change (convert_expansion) of its monomial support, where
    every exponent vector of one orbit carries the same coefficient."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    if not f.is_symmetric():
        raise NotSymmetricError("input is not symmetric in its variables")
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
    if src_basis == dst_basis:
        return dict(terms)
    if dst_basis not in BASES:
        raise ValueError(f"unknown basis {dst_basis!r}")
    rem: dict[tuple, object] = {}
    for lam, c in terms.items():
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
    """Number of standard Young tableaux of shape lambda
    (Frobenius determinant-free product formula)."""
    lam = check_partition(lam) if lam else ()
    if not lam:
        return 1
    k = sum(lam)
    l = len(lam)
    num = factorial(k)
    for i in range(l):
        for j in range(i + 1, l):
            num *= lam[i] - lam[j] + j - i
    den = 1
    for i in range(l):
        den *= factorial(lam[i] + l - 1 - i)
    return as_integer(Fraction(num, den), f"syt_count{lam}")


def catalan_triangle(delta: int, j: int) -> int:
    """C(delta-j, j) = binom(delta,j) - binom(delta,j-1); 0 out of range."""
    if delta < 0 or j < 0 or 2 * j > delta + 1:
        return 0
    return comb(delta, j) - (comb(delta, j - 1) if j >= 1 else 0)
