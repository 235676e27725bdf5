import itertools
from fractions import Fraction as F
from math import comb, factorial, prod

import pytest

from chernpol.chern import chern_direct
from chernpol.exactcore import (InconsistentDataError, MultiPoly,
                                TruncationPolicy, UniPoly,
                                interpolate_integers, xvars)
from chernpol.orbits import (enumerate_orbit, orbit_factorization_check,
                             orbit_term, orbit_types, weighted_truncate)
from chernpol.symfunc import expand_in_basis


def orbit_type_of(values) -> tuple:
    """Multiplicity pattern of a weakly increasing tuple."""
    return tuple(len(list(grp)) for _, grp in itertools.groupby(values))


# ---------------------------------------------------------------------------
# types and enumeration
# ---------------------------------------------------------------------------

def test_orbit_types():
    assert orbit_types(1) == [(1,)]
    assert set(orbit_types(2)) == {(1, 1), (2,)}
    assert set(orbit_types(3)) == {(1, 1, 1), (2, 1), (1, 2), (3,)}
    assert orbit_types(4) == [(1, 1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2),
                              (3, 1), (2, 2), (1, 3), (4,)]
    for n in range(1, 9):
        types = orbit_types(n)
        assert len(types) == 2 ** (n - 1)
        assert all(sum(u) == n and min(u) >= 1 for u in types)
        assert len(set(types)) == len(types)
        # longest first, larger leading parts first within a length
        assert types == sorted(types, key=lambda u: (-len(u), [-x for x in u]))


def test_orbit_type_of():
    assert orbit_type_of((0, 0, 1, 7)) == (2, 1, 1)
    assert orbit_type_of((3, 3, 3)) == (3,)
    assert orbit_type_of((1, 2, 3)) == (1, 1, 1)


def test_enumerate_orbit_examples():
    assert sorted(enumerate_orbit((2, 1, 1), 8)) == [
        (0, 0, 1, 7), (0, 0, 2, 6), (0, 0, 3, 5), (1, 1, 2, 4)]
    assert enumerate_orbit((1, 3), 8) == []
    assert enumerate_orbit((3,), 9) == [(3, 3, 3)]
    assert enumerate_orbit((3,), 8) == []


def _orbit_bruteforce(u, d):
    n = sum(u)
    out = []
    for c in itertools.combinations_with_replacement(range(d + 1), n):
        if sum(c) == d and orbit_type_of(c) == tuple(u):
            out.append(c)
    return out


def test_enumerate_orbit_against_bruteforce():
    for n in range(1, 5):
        for u in orbit_types(n):
            for d in range(0, 13):
                assert sorted(enumerate_orbit(u, d)) == \
                    _orbit_bruteforce(u, d), (u, d)


def test_orbits_partition_the_simplex():
    # sum over types of |O_u(d)| * (number of rearrangements) covers the
    # whole weight simplex exactly once
    for n in range(1, 5):
        for d in range(0, 10):
            total = 0
            for u in orbit_types(n):
                arrangements = factorial(n) // prod(factorial(x) for x in u)
                total += len(enumerate_orbit(u, d)) * arrangements
            assert total == comb(d + n - 1, n - 1), (n, d)


# ---------------------------------------------------------------------------
# orbit terms and the factorization
# ---------------------------------------------------------------------------

def test_orbit_term_example():
    # p_(1,1,4) = 1 + 6e1 + 9e1^2 + 9e2 + 4e1^3 + 9e1e2 + 27e3
    assert orbit_term((1, 1, 4)) == {
        (): 1, (1,): 6, (1, 1): 9, (2,): 9, (1, 1, 1): 4, (2, 1): 9, (3,): 27}


def test_orbit_term_degenerate():
    assert orbit_term((0, 0)) == {(): 1}
    # constant tuple (c,...,c): single factor 1 + c*e1
    assert orbit_term((2, 2, 2)) == {(): 1, (1,): 2}


def test_weighted_truncate():
    t = weighted_truncate(orbit_term((1, 1, 4)), 2)
    assert t == {(): 1, (1,): 6, (1, 1): 9, (2,): 9}


@pytest.mark.parametrize("values", [(1, 1, 4), (0, 2), (0, 1, 2, 3), (3,)])
def test_orbit_term_truncated_keeps_the_low_weights(values):
    # the product truncated at x-degree w keeps exactly the e_lam, |lam| <= w
    full = orbit_term(values)
    for w in range(6):
        assert orbit_term(values, w) == weighted_truncate(full, w)


def _factors_product(values, max_weight):
    """The product over the distinct permutations w of ``values`` of
    (1 + sum_i w_i x_i), multiplied out in x and truncated at max_weight."""
    n = len(values)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    out = MultiPoly.const(1, xvars(n))
    for w in set(itertools.permutations(values)):
        factor = MultiPoly(xvars(n), {(0,) * n: 1, **dict(zip(units, w))})
        out = out.mul_truncated(factor, max_weight)
    return out


def test_orbit_term_is_the_product_of_its_factors():
    # the orbit term comes from the Newton recursion on its power sums; the
    # oracle multiplies its linear factors and expands the product
    for length in range(1, 4):
        for values in itertools.combinations_with_replacement(range(5),
                                                              length):
            for w in (None, 0, 1, 2, 3, 4):
                assert orbit_term(values, w) == expand_in_basis(
                    _factors_product(values, w), "elementary"), (values, w)


def test_orbit_check_is_independent_of_the_direct_product(monkeypatch):
    # a product that scales every linear factor 1 + w.x to 1 + 2w.x must
    # fail the check: the orbit terms take no x-product from chern_direct
    true_mul = MultiPoly.mul_truncated

    def doubled(self, other, max_degree):
        if (isinstance(other, MultiPoly) and other.constant_term() == 1
                and all(sum(ev) <= 1 for ev in other.terms)):
            other = MultiPoly(other.vars, {ev: c * (1 + sum(ev))
                                           for ev, c in other.terms.items()})
        return true_mul(self, other, max_degree)

    monkeypatch.setattr(MultiPoly, "mul_truncated", doubled)
    for n, d in [(2, 4), (3, 6), (4, 5)]:
        assert not orbit_factorization_check(n, d, TruncationPolicy(3)), \
            (n, d)


def test_factorization():
    for n in (1, 2, 3, 4):
        for d in range(0, 9):
            assert orbit_factorization_check(n, d, TruncationPolicy(4)), (n, d)


def test_chern_in_elementary_c1():
    # coefficient of e1 is binom(d+n-1, n)
    for n in (2, 3):
        for d in range(1, 6):
            f = expand_in_basis(chern_direct(n, d, TruncationPolicy(1)),
                                "elementary")
            assert f[(1,)] == comb(d + n - 1, n)


# ---------------------------------------------------------------------------
# quasi-polynomial orbit counts
# ---------------------------------------------------------------------------

def orbit_count_period(u) -> int:
    """M(u) = prod_j (u_j + ... + u_s); the period of |O_u(d)| divides it."""
    return prod(sum(u[j:]) for j in range(len(u)))


def orbit_count_fit(u, d_max: int = 40) -> dict:
    """Fit, per congruence class q of d modulo M(u), a polynomial of degree
    < len(u) to |O_u(d)| on d = 0..d_max.  Returns {q: (start_d, UniPoly in
    d)}, the fit holding for every sampled d >= start_d in the class.  The
    class is the progression d = q + M*i, so the first len(u) counts from
    start give the polynomial in i by interpolate_integers, and the rest are
    its guards."""
    u = tuple(u)
    M = orbit_count_period(u)
    out = {}
    for q in range(M):
        counts = [len(enumerate_orbit(u, d)) for d in range(q, d_max + 1, M)]
        for start in range(len(counts) - len(u)):
            in_i = interpolate_integers(counts[start:start + len(u)], "d")
            if all(in_i(i) == c for i, c in enumerate(counts[start:])):
                # i = (d - q)/M - start
                out[q] = (q + M * start, in_i(UniPoly(
                    {1: F(1, M), 0: F(-q, M) - start}, var="d")))
                break
        else:
            raise InconsistentDataError(
                f"no degree-{len(u) - 1} quasi-polynomial fit for type {u}, "
                f"residue {q} on d <= {d_max}")
    return out


def test_orbit_count_period():
    assert orbit_count_period((1,)) == 1
    assert orbit_count_period((2,)) == 2
    assert orbit_count_period((1, 1)) == 2
    assert orbit_count_period((2, 1)) == 3
    assert orbit_count_period((1, 1, 1)) == 6


def test_orbit_count_fit_predicts():
    for n in (2, 3):
        for u in orbit_types(n):
            fit = orbit_count_fit(u, d_max=40)
            M = orbit_count_period(u)
            assert set(fit) == set(range(M))
            for q, (start, poly) in fit.items():
                assert (poly.degree() or 0) <= len(u) - 1
                for d in range(start, 41):
                    if d % M == q:
                        assert poly(d) == len(enumerate_orbit(u, d)), (u, d)


def test_orbit_count_fit_full_type():
    # u = (1,...,1): |O_u(d)| counts partitions of d - binom(n,2) into at
    # most n parts; for n = 2 the fit must be exact from the start
    fit = orbit_count_fit((1, 1), d_max=30)
    for q, (start, poly) in fit.items():
        assert start <= 2 + q
