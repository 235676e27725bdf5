import itertools
import random
from fractions import Fraction as F
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from chernpol import symfunc
from chernpol.exactcore import InconsistentDataError, MultiPoly, UniPoly, xvars
from chernpol.symfunc import (BASES, catalan_triangle, check_partition,
                              conjugate, convert_expansion, dominance_key,
                              enumerate_partitions, expand_in_basis,
                              is_partition, partition_of, schur_coefficient,
                              syt_count, to_x_expansion)

from polyhelpers import variable


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_partition_predicates():
    assert is_partition((3, 1, 1))
    assert is_partition(())
    assert not is_partition((1, 2))
    assert not is_partition((2, 0))
    with pytest.raises(ValueError):
        check_partition((1, 3))


def test_partition_of():
    assert partition_of((0, 2, 0, 3, 2)) == (3, 2, 2)
    assert partition_of((0, 0)) == ()
    assert partition_of(iter([1, 4])) == (4, 1)


def test_schur_coefficient_reads_every_schur_index():
    # f = sum of c_lam s_lam over the partitions of 4 in 3 variables
    n = 3
    want = {lam: F(i + 1, 3) for i, lam in
            enumerate(enumerate_partitions(4, max_length=n))}
    f = MultiPoly.const(0, xvars(n))
    for lam, c in want.items():
        f = f + to_x_expansion("schur", lam, n) * c
    for lam, c in want.items():
        assert schur_coefficient(f.terms.get, lam, n) == c
    # through the partition of the exponent vector, as for m-coefficients
    mono = expand_in_basis(f, "monomial")
    for lam, c in want.items():
        assert schur_coefficient(lambda a: mono.get(partition_of(a)),
                                 lam, n) == c
    assert schur_coefficient({}.get, (2, 2), n) == 0
    # zero parts are dropped, and more than n nonzero parts give 0
    s21 = to_x_expansion("schur", (2, 1), 2).terms.get
    assert schur_coefficient(s21, (2, 1, 0), 2) == 1
    assert schur_coefficient(s21, (2, 1, 1), 2) == 0


def test_conjugate():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(conjugate((5, 5, 2))) == (5, 5, 2)
    assert conjugate(()) == ()


def test_enumerate_partitions_counts():
    # p(k) for k = 0..8
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for k, cnt in enumerate(expected):
        assert len(enumerate_partitions(k)) == cnt
    assert enumerate_partitions(4, max_length=2) == [(4,), (3, 1), (2, 2)]
    # constrained count equals the conjugate-constrained count
    for k in range(1, 9):
        assert len(enumerate_partitions(k, max_length=3)) == \
            len([lam for lam in enumerate_partitions(k) if lam[0] <= 3])


# ---------------------------------------------------------------------------
# x-expansions of basis elements
# ---------------------------------------------------------------------------

def test_elementary_in_x():
    e2 = to_x_expansion("elementary", (2,), 3)
    assert e2.terms == {(1, 1, 0): F(1), (1, 0, 1): F(1), (0, 1, 1): F(1)}


def test_monomial_in_x():
    m21 = to_x_expansion("monomial", (2, 1), 2)
    assert m21.terms == {(2, 1): F(1), (1, 2): F(1)}


def test_schur_small_cases():
    # s_(2,1) in two variables: x1^2 x2 + x1 x2^2
    s = to_x_expansion("schur", (2, 1), 2)
    assert s.terms == {(2, 1): F(1), (1, 2): F(1)}
    # s_(1^k) = e_k
    for n in (2, 3):
        for k in range(1, n + 1):
            assert to_x_expansion("schur", (1,) * k, n) == \
                to_x_expansion("elementary", (k,), n)
    # s_(k) = h_k: check dimension count  #monomials = binom(n+k-1, k)
    for n in (2, 3):
        for k in range(1, 4):
            hk = to_x_expansion("schur", (k,), n)
            assert sum(hk.terms.values()) == comb(n + k - 1, k)


def test_schur_specialization_at_ones():
    # s_lambda(1,...,1) over n variables = prod (n + j - i) / hook lengths;
    # cross-checked through the classical determinant-free count
    # dim = prod_{i<j} (lam_i - lam_j + j - i) / (j - i) for n variables
    for lam, n in [((2, 1), 3), ((3, 1), 2), ((2, 2), 3), ((1, 1, 1), 3)]:
        padded = tuple(lam) + (0,) * (n - len(lam))
        num, den = 1, 1
        for i in range(n):
            for j in range(i + 1, n):
                num *= padded[i] - padded[j] + j - i
                den *= j - i
        s = to_x_expansion("schur", lam, n)
        assert s.evaluate({v: 1 for v in s.vars}) == F(num, den)


def _ssyt_contents(lam, n):
    # every filling of lam with entries 1..n, kept when rows weakly increase
    # and columns strictly increase; content -> number of such tableaux
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    counts = {}
    for fill in itertools.product(range(n), repeat=len(cells)):
        t = dict(zip(cells, fill))
        if all(t[i, j] <= t[i, j + 1] for i, j in cells if (i, j + 1) in t) \
                and all(t[i, j] < t[i + 1, j] for i, j in cells if (i + 1, j) in t):
            content = tuple(fill.count(v) for v in range(n))
            counts[content] = counts.get(content, 0) + 1
    return counts


def test_schur_is_the_tableau_sum():
    # s_lam(x1..xn) = sum over semistandard tableaux T of x^content(T)
    shapes = [(lam, n) for n in range(1, 5) for w in range(7)
              for lam in enumerate_partitions(w, max_length=n) if n ** w <= 5000]
    assert len(shapes) == 73
    for lam, n in shapes:
        assert to_x_expansion("schur", lam, n).terms == _ssyt_contents(lam, n), \
            (lam, n)
    # [x1...xk] s_lam = number of standard tableaux of shape lam
    for k in range(7):
        for lam in enumerate_partitions(k):
            assert to_x_expansion("schur", lam, k).coeff((1,) * k) == \
                syt_count(lam), lam


def test_power_in_x():
    p = to_x_expansion("power", (2, 1), 2)
    # (x1^2+x2^2)(x1+x2)
    assert p.terms == {(3, 0): F(1), (2, 1): F(1), (1, 2): F(1), (0, 3): F(1)}


def test_products_are_their_factors_multiplied():
    # e_lam and p_lam are the products of e_a and p_a over the parts a
    for n in range(1, 5):
        for basis in ("elementary", "power"):
            for a in range(1, 8):
                if basis == "elementary" and a <= n:
                    want = {tuple(int(i in s) for i in range(n)): 1
                            for s in itertools.combinations(range(n), a)}
                elif basis == "power":
                    want = {tuple(a * (i == j) for i in range(n)): 1
                            for j in range(n)}
                else:
                    continue
                assert to_x_expansion(basis, (a,), n).terms == want, \
                    (basis, a, n)
            for w in range(8):
                for lam in enumerate_partitions(w):
                    if basis == "elementary" and lam and lam[0] > n:
                        continue
                    product = MultiPoly.const(1, xvars(n))
                    for a in lam:
                        product = product * to_x_expansion(basis, (a,), n)
                    assert to_x_expansion(basis, lam, n) == product, \
                        (basis, lam, n)


def test_invalid_indices():
    with pytest.raises(ValueError, match="has length > 2 variables"):
        to_x_expansion("monomial", (1, 1, 1), 2)
    with pytest.raises(ValueError, match="has length > 2 variables"):
        to_x_expansion("schur", (2, 1, 1), 2)
    with pytest.raises(ValueError, match="has a part > 2 variables"):
        to_x_expansion("elementary", (3,), 2)
    with pytest.raises(ValueError):
        to_x_expansion("fourier", (1,), 2)


# ---------------------------------------------------------------------------
# expansions and conversions
# ---------------------------------------------------------------------------

def _random_symmetric(n, rng, max_weight=5):
    xs = tuple(f"x{i+1}" for i in range(n))
    f = MultiPoly.const(0, xs)
    for w in range(max_weight + 1):
        for lam in enumerate_partitions(w, max_length=n):
            if rng.random() < 0.4:
                f = f + to_x_expansion("monomial", lam, n) * F(rng.randint(-4, 4))
    return f


def test_expand_not_symmetric():
    xs = ("x1", "x2")
    with pytest.raises(ValueError, match="not symmetric"):
        expand_in_basis(variable("x1", xs), "schur")


def test_expand_roundtrip_all_bases():
    rng = random.Random(7)
    for n in (2, 3):
        for _ in range(6):
            f = _random_symmetric(n, rng)
            for basis in BASES:
                terms = expand_in_basis(f, basis)
                g = sum((to_x_expansion(basis, lam, n) * c
                         for lam, c in terms.items()),
                        MultiPoly.const(0, f.vars))
                assert g == f, (n, basis)


def test_convert_expansion_roundtrip():
    rng = random.Random(11)
    for n in (2, 3):
        f = _random_symmetric(n, rng)
        mono = expand_in_basis(f, "monomial")
        for basis in BASES:
            there = convert_expansion(mono, "monomial", basis, n)
            back = convert_expansion(there, basis, "monomial", n)
            assert back == {lam: c for lam, c in mono.items() if c}
            assert convert_expansion(there, basis, basis, n) == there, basis
    # a power index longer than n comes back in the l(lam) <= n power basis
    # (p_1^2 = x1^2 = p_2 in one variable), as every conversion into it does
    assert convert_expansion({(1, 1): 1}, "power", "power", 1) == {(2,): 1}


def test_convert_expansion_polynomial_coeffs():
    # coefficients that are polynomials in d convert term by term
    d = UniPoly.x("d")
    terms = {(2,): d * d, (1, 1): d + 1}
    out = convert_expansion(terms, "elementary", "monomial", 2)
    # e_2 = m_(1,1); e_1^2 = m_(2) + 2 m_(1,1)
    assert out[(2,)] == d + 1
    assert out[(1, 1)] == d * d + (d + 1).scale(2)
    for basis in BASES:
        assert convert_expansion(terms, basis, basis, 2) == terms, basis


def test_wrong_pivot_row_fails_the_cross_check(monkeypatch):
    f = to_x_expansion("schur", (2, 1), 3)
    # every elementary pivot row off by a factor of two
    original = symfunc._monomial_row
    monkeypatch.setattr(
        symfunc, "_monomial_row",
        lambda basis, lam, n: {nu: c * (2 if basis == "elementary" else 1)
                               for nu, c in original(basis, lam, n).items()})
    with pytest.raises(InconsistentDataError):
        expand_in_basis(f, "elementary")
    # the other bases never read an elementary row
    assert expand_in_basis(f, "schur") == {(2, 1): 1}


def test_pieri_like_identity():
    # e_1 * s_(2) = s_(3) + s_(2,1) in >= 2 variables
    for n in (2, 3):
        f = to_x_expansion("elementary", (1,), n) * to_x_expansion("schur", (2,), n)
        assert expand_in_basis(f, "schur") == {(3,): F(1), (2, 1): F(1)}


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------

def _syt_bruteforce(lam):
    # number of standard tableaux = number of ways to grow the shape cell
    # by cell keeping a partition at each step
    lam = tuple(lam)
    if sum(lam) == 0:
        return 1
    total = 0
    for i in range(len(lam)):
        if lam[i] > (lam[i + 1] if i + 1 < len(lam) else 0):
            smaller = tuple(p - (1 if j == i else 0) for j, p in enumerate(lam))
            smaller = tuple(p for p in smaller if p)
            total += _syt_bruteforce(smaller)
    return total


def test_syt_count_against_bruteforce():
    for w in range(0, 8):
        for lam in enumerate_partitions(w):
            assert syt_count(lam) == _syt_bruteforce(lam), lam


def test_syt_count_large_shapes():
    # one factor per cell: a row or column of 500 cells has one tableau,
    # and an a x b rectangle has (ab)! prod_{i<b} i! / prod_{i<b} (a+i)!
    assert syt_count((500,)) == syt_count((1,) * 500) == 1
    for a in range(1, 11):
        for b in range(1, 11):
            assert syt_count((a,) * b) == factorial(a * b) * prod(
                F(factorial(i), factorial(a + i)) for i in range(b)), \
                (a, b)


def test_syt_count_sum_of_squares():
    # sum over |lam| = k of (f^lam)^2 = k!
    for k in range(1, 7):
        assert sum(syt_count(lam) ** 2 for lam in enumerate_partitions(k)) \
            == factorial(k)


def test_catalan_triangle():
    assert catalan_triangle(0, 0) == 1
    assert catalan_triangle(4, 0) == 1
    assert catalan_triangle(4, 1) == 3
    assert catalan_triangle(4, 2) == 2
    assert catalan_triangle(4, 3) == 0
    assert catalan_triangle(3, -1) == 0
    for delta in range(0, 9):
        for j in range(0, delta // 2 + 1):
            assert catalan_triangle(delta, j) == comb(delta, j) - comb(delta, j - 1 if j else delta + 1)


def test_catalan_triangle_is_two_row_syt():
    # C(delta - j, j) counts standard tableaux of shape (delta - j, j)
    for delta in range(1, 10):
        for j in range(0, delta // 2 + 1):
            shape = tuple(p for p in (delta - j, j) if p)
            assert catalan_triangle(delta, j) == syt_count(shape)


@settings(max_examples=40)
@given(st.lists(st.integers(1, 5), min_size=0, max_size=4))
def test_conjugate_involution_property(parts):
    lam = tuple(sorted(parts, reverse=True))
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)
