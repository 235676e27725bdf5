import itertools
from fractions import Fraction as F
from functools import cache
from math import comb, factorial, prod

import pytest

from chernpol.chern import weight_vectors
from chernpol.exactcore import UniPoly
from chernpol.specialization import (M_plain, M_tilde, M_tilde_values,
                                     eulerian_second, faulhaber,
                                     simplex_moment, stirling_first,
                                     stirling_second)
from chernpol.symfunc import enumerate_partitions

from polyhelpers import from_roots


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _esym_bruteforce(h, values):
    return sum(prod(c) for c in itertools.combinations(values, h))


def _hsym_bruteforce(h, values):
    return sum(prod(c) for c in
               itertools.combinations_with_replacement(values, h))


def aug_monomial_bruteforce(lam: tuple, v: int) -> F:
    """Direct sum over injective maps {1..l} -> {0..v}; the oracle for
    M_tilde on small inputs."""
    total = F(0)
    for values in itertools.permutations(range(v + 1), len(lam)):
        term = 1
        for y, p in zip(values, lam):
            term *= y ** p
        total += term
    if not lam:
        return F(1)
    return total


@cache
def aug_monomial_power_sums(lam: tuple) -> dict:
    """Integer expansion {mu: c} of the augmented monomial m~_lam in power
    sums p_mu, for a zero-free partition lam, via the merge recursion

        m~_{lam u (a)} = p_a * m~_lam - sum_i m~_{lam with lam_i += a};

    the coefficient of p_lam itself is 1.  The paper's formula for M_tilde
    reads it at the prefix power sums 0^q + ... + v^q."""
    lam = tuple(sorted(lam, reverse=True))
    if len(lam) <= 1:
        return {lam: 1}
    a, rest = lam[0], lam[1:]
    out = {}
    for mu, c in aug_monomial_power_sums(rest).items():
        key = tuple(sorted(mu + (a,), reverse=True))
        out[key] = out.get(key, 0) + c
    for i in range(len(rest)):
        merged = rest[:i] + (rest[i] + a,) + rest[i + 1:]
        for mu, c in aug_monomial_power_sums(merged).items():
            out[mu] = out.get(mu, 0) - c
    return {mu: c for mu, c in out.items() if c}


def test_stirling_first_is_elementary_symmetric():
    # c(n, n-h) = e_h(1, 2, ..., n-1)
    for n in range(1, 10):
        for h in range(0, n):
            assert stirling_first(n, n - h) == _esym_bruteforce(h, range(1, n))
    assert stirling_first(4, 2) == 11
    assert stirling_first(0, 0) == 1
    assert stirling_first(3, 0) == 0


def test_stirling_second_is_complete_homogeneous():
    # S(n, n-h) = h_h(1, 2, ..., n-h)
    for n in range(1, 10):
        for h in range(0, n):
            assert stirling_second(n, n - h) == \
                _hsym_bruteforce(h, range(1, n - h + 1))
    assert stirling_second(4, 2) == 7


def _eulerian2_bruteforce(n, k):
    # second-order Eulerian recursion cross-checked against the closed
    # summation identity below, so build them from scratch here
    if n == 0:
        return 1 if k == 0 else 0
    if k < 0 or k > n - 1:
        return 0
    return (k + 1) * _eulerian2_bruteforce(n - 1, k) + \
        (2 * n - 1 - k) * _eulerian2_bruteforce(n - 1, k - 1)


def test_eulerian_second_values():
    assert [eulerian_second(2, j) for j in (1, 2)] == [1, 2]
    assert [eulerian_second(3, j) for j in (1, 2, 3)] == [1, 8, 6]
    for h in range(1, 7):
        for j in range(1, h + 1):
            assert eulerian_second(h, j) == _eulerian2_bruteforce(h, j - 1)


def test_eulerian_stirling_binomial_identity():
    # c(d+1, d+1-h) = sum_j E2(h, j) * binom(d + j, 2h)  (j = 1..h)
    for d in range(0, 13):
        for h in range(1, 6):
            rhs = sum(eulerian_second(h, j) * comb(d + j, 2 * h)
                      for j in range(1, h + 1))
            assert stirling_first(d + 1, d + 1 - h) == rhs, (d, h)


def test_faulhaber():
    for q in range(0, 7):
        p = faulhaber(q)
        for v in range(0, 10):
            assert p(v) == sum(F(t) ** q for t in range(v + 1)), (q, v)
        assert p(-1) == 0


def test_simplex_moment_matches_bruteforce():
    for n in (1, 2, 3):
        for size in range(5):
            for alpha in weight_vectors(n, size):
                p = simplex_moment(alpha)
                for d in range(7):
                    brute = sum(prod(w ** a for w, a in zip(ws, alpha))
                                for ws in weight_vectors(n, d))
                    assert p(d) == brute, (alpha, d)
                if n >= 2:
                    assert p(-1) == 0, alpha


# ---------------------------------------------------------------------------
# augmented monomial specializations
# ---------------------------------------------------------------------------

def test_aug_monomial_bruteforce_small():
    # m~_(1,1)(0..2) = sum over ordered distinct pairs from {0,1,2}
    assert aug_monomial_bruteforce((1, 1), 2) == 0 * 1 + 0 * 2 + 1 * 2 + \
        1 * 0 + 2 * 0 + 2 * 1
    # one zero part: injective maps hitting exponent 0 once
    assert aug_monomial_bruteforce((1, 0), 2) == F(6)  # (a^1 b^0) over pairs


def test_power_sum_merge_matches_bruteforce():
    for w in range(1, 6):
        for lam in enumerate_partitions(w, max_length=4):
            expansion = aug_monomial_power_sums(lam)
            for v in range(0, 7):
                direct = sum(c * prod(faulhaber(q)(v) for q in mu)
                             for mu, c in expansion.items())
                assert direct == aug_monomial_bruteforce(lam, v), (lam, v)


def _weak_partitions(weight_max, length_max):
    for w in range(0, weight_max + 1):
        for lam in enumerate_partitions(w, max_length=length_max):
            for zeros in range(0, length_max - len(lam) + 1):
                out = tuple(lam) + (0,) * zeros
                if out:
                    yield out


def test_M_tilde_matches_bruteforce():
    for lam in _weak_partitions(5, 4):
        p = M_tilde(lam)
        for v in range(-1, 7):
            assert p(v) == aug_monomial_bruteforce(lam, v), (lam, v)


def test_M_tilde_values_match_power_sums():
    # one sweep for every weak partition with |lam| + len(lam) <= 12 against
    # the power-sum expansion of the zero-free part at the prefix power sums
    # 0^q + ... + v^q, times prod_{i<m0} (v+1-len(star)-i)
    lams = [tuple(lam) + (0,) * zeros
            for w in range(13) for lam in enumerate_partitions(w)
            for zeros in range(13 - w - len(lam))]
    values = M_tilde_values(lams)
    assert set(values) == set(lams)
    for lam in lams:
        star = tuple(p for p in lam if p)
        top = sum(lam) + len(lam)
        sums = [list(itertools.accumulate(t ** q for t in range(top + 1)))
                for q in range(sum(star) + 1)]
        assert values[lam] == [
            prod(v + 1 - len(star) - i for i in range(len(lam) - len(star)))
            * sum(c * prod(sums[q][v] for q in mu)
                  for mu, c in aug_monomial_power_sums(star).items())
            for v in range(top + 1)], lam


def test_M_tilde_values_edge_cases():
    assert M_tilde_values([]) == {}
    assert M_tilde_values([()]) == {(): [1]}
    assert M_tilde_values([(0,)]) == {(0,): [1, 2]}
    assert M_tilde_values([[0, 2]]) == {(2, 0): [0, 1, 10, 42, 120]}
    with pytest.raises(ValueError):
        M_tilde_values([(1, -1)])


def faulhaber_products(lam):
    """M_tilde as a product construction: the power-sum expansion of the
    zero-free part with each p_q replaced by faulhaber(q), times the
    prefactor binom(v+1-len(star), m0) * m0! for the m0 zero parts."""
    star = tuple(p for p in lam if p)
    m0 = len(lam) - len(star)
    out = UniPoly({}, var="v")
    for mu, c in aug_monomial_power_sums(star).items():
        term = UniPoly.const(c, var="v")
        for q in mu:
            term = term * faulhaber(q)
        out = out + term
    return from_roots(range(len(star) - 1, len(star) - 1 + m0),
                      var="v") * out


def test_M_tilde_matches_faulhaber_products():
    for w in range(11):
        for lam in enumerate_partitions(w):
            for zeros in range(3):
                weak = tuple(lam) + (0,) * zeros
                assert repr(M_tilde(weak)) == repr(faulhaber_products(weak)), \
                    weak


def test_M_tilde_vanishing_and_divisibility():
    for lam in _weak_partitions(5, 4):
        p = M_tilde(lam)
        assert p(-1) == 0, lam
        # divisible by (v+1) v (v-1) ... (v - (len(lam) - 2)), that is,
        # zero at each of these simple roots
        assert all(p(r) == 0 for r in range(-1, len(lam) - 1)), lam


def test_M_tilde_quintic_example():
    # m~_(2,0,0)(0..v) = (1/6)(v+1) v^2 (v-1) (2v+1)
    p = M_tilde((2, 0, 0))
    expected = from_roots([-1, 0, 0, 1]) * UniPoly({1: F(2), 0: F(1)})
    assert p == expected.scale(F(1, 6))


def test_M_tilde_leading_term():
    for lam in [(1,), (2,), (2, 1), (3, 1, 1), (2, 2)]:
        p = M_tilde(lam)
        deg = sum(q + 1 for q in lam)
        assert p.degree() == deg
        assert p.coeff(deg) == prod(F(1, q + 1) for q in lam)


def test_M_plain():
    # plain monomial sums: divide out the multiplicity factorials
    assert M_plain((0, 0)) == M_tilde((0, 0)).scale(F(1, 2))
    for v in range(0, 6):
        # m_(0^k)(0..v) = binom(v+1, k)
        for k in range(1, 4):
            assert M_plain((0,) * k)(v) == comb(v + 1, k)
        assert M_plain((1, 1))(v) == aug_monomial_bruteforce((1, 1), v) / 2


def test_single_row_is_faulhaber():
    for q in range(0, 6):
        assert M_tilde((q,)) == faulhaber(q)
