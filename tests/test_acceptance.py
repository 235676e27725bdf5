"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All equalities are exact rational arithmetic with zero tolerance.
"""

import functools
import itertools
import random
from fractions import Fraction as F
from math import comb, factorial, prod

from chernpol.chern import (chern_direct, chern_interpolated, euler_c2_closed,
                            leading_term)
from chernpol.enumgeo import (fano_chi_lines, fano_degree_lines, sigma_degree,
                              sigma_degree_hyperplane, sigma_degree_leading,
                              sigma_degree_symbolic)
from chernpol.exactcore import MultiPoly, TruncationPolicy, UniPoly
from chernpol.orbits import (enumerate_orbit, orbit_factorization_check,
                             orbit_term, orbit_types)
from chernpol.rising import (RisingProductSpec, direct_rising_oracle,
                             stirling_coefficient)
from chernpol.specialization import (M_tilde, eulerian_second, stirling_first,
                                     stirling_second)
from chernpol.symfunc import (BASES, catalan_triangle, enumerate_partitions,
                              expand_in_basis, syt_count, to_x_expansion)

from polyhelpers import from_roots

D = UniPoly.x("d")


def criterion(num, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {num}: {description}")
                raise
            print(f"PASS criterion {num}: {description}")
        return run
    return wrap


def binom_poly(shift, q):
    """binom(d + shift, q) as a polynomial in d."""
    out = UniPoly.const(F(1, factorial(q)), var="d")
    for i in range(q):
        out = out * (D + (shift - i))
    return out


# ---------------------------------------------------------------------------

@criterion(1, "Stirling identities and second-order Eulerian expansion "
              "(d <= 12, h <= 5)")
def test_criterion_01_stirling_identities():
    spec = RisingProductSpec(("d",), {((1,), 1): 1}, D, 1)
    for h in range(0, 6):
        p = spec._unipoly(stirling_coefficient(spec, (h,)))
        for d in range(0, 13):
            assert p(d) == stirling_first(d + 1, d + 1 - h)
            if h >= 1:
                assert stirling_first(d + 1, d + 1 - h) == sum(
                    eulerian_second(h, j) * comb(d + j, 2 * h)
                    for j in range(1, h + 1))


@criterion(2, "M~_(2,0,0) quintic, M~_lambda(-1) = 0 and divisibility for "
              "|lambda| <= 5, length <= 4")
def test_criterion_02_m_tilde():
    V = UniPoly.x("v")
    quintic = (from_roots([-1, 0, 0, 1], var="v")
               * (V.scale(2) + 1)).scale(F(1, 6))
    assert M_tilde((2, 0, 0)) == quintic
    for w in range(0, 6):
        for core in enumerate_partitions(w, max_length=4):
            for zeros in range(0, 4 - len(core) + 1):
                lam = tuple(core) + (0,) * zeros
                if not lam:
                    continue
                p = M_tilde(lam)
                assert p(-1) == 0
                # divisible by the simple roots -1, 0, ..., len(lam) - 2
                assert all(p(r) == 0 for r in range(-1, len(lam) - 1))


@criterion(3, "stirling_coefficient equals the direct product oracle on the "
              "example specs and 20 random specs, d = 0..6")
def test_criterion_03_oracle_equivalence():
    def compare(spec, trunc=3):
        policy = TruncationPolicy(trunc)
        for d in range(0, 7):
            direct = direct_rising_oracle(spec, (d,), policy)
            for H in itertools.product(range(trunc + 1), repeat=spec.nx):
                if sum(H) > trunc:
                    continue
                got = stirling_coefficient(spec, H).evaluate({"d": d})
                assert got == direct.terms.get(H, F(0)), (H, d)

    # the four worked examples: 1+tx, truncated 1/(1-tx), 1+t x1+t^2 x2, 1+x
    compare(RisingProductSpec(("d",), {((1,), 1): 1}, D, 1))
    compare(RisingProductSpec(
        ("d",), {((a,), a): 1 for a in range(1, 4)}, D, 1))
    compare(RisingProductSpec(
        ("d",), {((1, 0), 1): 1, ((0, 1), 2): 1}, D, 2))
    compare(RisingProductSpec(("d",), {((1,), 0): 1}, D, 1))
    # and 1 + t^2 x (level-2 generalized Stirling numbers)
    compare(RisingProductSpec(("d",), {((1,), 2): 1}, D, 1))

    rng = random.Random(1729)
    for _ in range(20):
        nx = rng.choice([1, 2])
        exps = [(1,), (2,)] if nx == 1 else [(1, 0), (0, 1), (2, 0), (1, 1)]
        table = {}
        for E in exps:
            for m in range(0, 3):
                if rng.random() < 0.4:
                    c = UniPoly({e: F(rng.randint(-3, 3))
                                 for e in range(rng.randint(1, 2))}, var="d")
                    if not c.is_zero():
                        table[(E, m)] = c
        if not table:
            table[(exps[0], 1)] = UniPoly.const(1, var="d")
        compare(RisingProductSpec(
            ("d",), table, D + rng.choice([-1, 0, 1]), nx))


@criterion(4, "interpolated Schur coefficients of c_3 for n = 2 and n = 3 "
              "match the displayed polynomials verbatim")
def test_criterion_04_c3_schur():
    cp2 = chern_interpolated(2, 3, "schur")
    s3 = from_roots([0, 0, 1, 2, -1, -1], var="d").scale(F(1, 48))
    s21 = (from_roots([0, 0, 1, -1], var="d")
           * UniPoly({2: F(1), 1: F(1), 0: F(2)}, var="d")).scale(F(1, 24))
    assert cp2.terms == {(3,): s3, (2, 1): s21}

    cp3 = chern_interpolated(3, 3, "schur")
    pre = from_roots([0, 1, -3, -2, -1], var="d")
    t3 = (pre * UniPoly({4: F(5), 3: F(20), 2: F(-5), 1: F(-50), 0: F(-12)},
                        var="d")).scale(F(1, 6480))
    t21 = (pre * UniPoly({2: F(1), 0: F(2)}, var="d")
           * UniPoly({2: F(2), 1: F(8), 0: F(3)}, var="d")).scale(F(1, 1296))
    t111 = (from_roots([0, -3, -2, -1], var="d")
            * UniPoly({2: F(1), 0: F(2)}, var="d")
            * UniPoly({3: F(1), 2: F(3), 1: F(2), 0: F(12)},
                      var="d")).scale(F(1, 1296))
    assert cp3.terms == {(3,): t3, (2, 1): t21, (1, 1, 1): t111}


@criterion(5, "c_4 elementary coefficients for n = 2 match the displayed "
              "formula with d-degrees 8, 7, 6")
def test_criterion_05_c4_elementary():
    cp = chern_interpolated(2, 4, "elementary")
    pre = from_roots([-1, 0, 1, 2], var="d")
    e1111 = (pre * (D - 3)
             * UniPoly({3: F(15), 2: F(15), 1: F(-10), 0: F(-8)},
                       var="d")).scale(F(1, 5760))
    e211 = (pre * (D + 2)
            * UniPoly({2: F(15), 1: F(-5), 0: F(-12)},
                      var="d")).scale(F(1, 720))
    e22 = (pre * (D + 2) * (D.scale(5) + 12)).scale(F(1, 360))
    assert cp.terms == {(1, 1, 1, 1): e1111, (2, 1, 1): e211, (2, 2): e22}
    assert {lam: p.degree() for lam, p in cp.terms.items()} == {
        (1, 1, 1, 1): 8, (2, 1, 1): 7, (2, 2): 6}


@criterion(6, "c_1 and c_2 match the binomial closed forms symbolically "
              "for n = 2..5")
def test_criterion_06_c1_c2_binomials():
    for n in range(2, 6):
        c1 = chern_interpolated(n, 1, "elementary")
        assert c1.terms == {(1,): binom_poly(n - 1, n)}
        c2 = chern_interpolated(n, 2, "elementary")
        B = binom_poly(n - 1, n)
        assert c2.terms[(2,)] == binom_poly(n, n + 1)
        assert c2.terms[(1, 1)] == \
            (B * B - B).scale(F(1, 2)) - binom_poly(n - 1, n + 1)


@criterion(7, "Euler-class closed formula equals the Schur expansion of the "
              "direct top class for d <= 10")
def test_criterion_07_euler_closed():
    for d in range(1, 11):
        top = chern_direct(2, d, TruncationPolicy(d + 1)) \
            .homogeneous_component(d + 1)
        schur = expand_in_basis(top, "schur")
        for j, val in euler_c2_closed(d):
            lam = (d + 1 - j, j) if j else (d + 1,)
            assert schur.get(lam, F(0)) == val, (d, j)


@criterion(8, "elementary-basis degree bound for n in {2,3}, |nu| <= 5, and "
              "the exact n = 2 leading term")
def test_criterion_08_elementary_bounds():
    for n in (2, 3):
        for k in range(1, 6):
            cp = chern_interpolated(n, k, "elementary")
            for nu, p in cp.terms.items():
                bound = sum(n + part - 1 for part in nu)
                assert p.degree() <= bound, (n, nu)
                if n == 2:
                    coeff, expo, conjectural = leading_term("elementary", nu, 2)
                    assert not conjectural
                    assert (p.degree(), p.coeff(p.degree())) == (expo, coeff)


def orbit_type_of(values) -> tuple:
    """Multiplicity pattern of a weakly increasing tuple."""
    return tuple(len(list(grp)) for _, grp in itertools.groupby(values))


@criterion(9, "orbit enumeration matches brute force (n <= 4, d <= 12), the "
              "worked orbit examples, and the factorization of the total class")
def test_criterion_09_orbits():
    for n in range(1, 5):
        for u in orbit_types(n):
            for d in range(0, 13):
                brute = [c for c in itertools.combinations_with_replacement(
                             range(d + 1), n)
                         if sum(c) == d and orbit_type_of(c) == u]
                assert sorted(enumerate_orbit(u, d)) == brute, (u, d)
    assert enumerate_orbit((1, 3), 8) == []
    assert sorted(enumerate_orbit((2, 1, 1), 8)) == [
        (0, 0, 1, 7), (0, 0, 2, 6), (0, 0, 3, 5), (1, 1, 2, 4)]
    assert orbit_term((1, 1, 4)) == {
        (): 1, (1,): 6, (1, 1): 9, (2,): 9, (1, 1, 1): 4, (2, 1): 9, (3,): 27}
    for n in (1, 2, 3):
        for d in range(0, 9):
            assert orbit_factorization_check(n, d, TruncationPolicy(4)), (n, d)


@criterion(10, "Fano degrees: closed = integral for 0 <= delta <= 3, m <= 7; "
               "the delta = 1 sequence; 27 and 2875")
def test_criterion_10_fano_degrees():
    for m in range(3, 8):
        for delta in range(0, 4):
            d = 2 * m - 3 - delta
            if d < 2:
                continue
            assert fano_degree_lines(d, m, "closed") == \
                fano_degree_lines(d, m, "integral"), (d, m)
    expected = {3: 4, 4: 320, 5: 60480, 6: 21518336, 7: 12493096000}
    for m, val in expected.items():
        assert fano_degree_lines(2 * m - 4, m, "closed") == val
    assert fano_degree_lines(3, 3) == 27
    assert fano_degree_lines(5, 4) == 2875


@criterion(11, "Fano Euler characteristics: integral = closed for delta = 1 "
               "(m = 3..7) and delta = 2 (m = 4..7); the ratio identity")
def test_criterion_11_fano_chi():
    for m in range(3, 8):
        d = 2 * m - 4
        chi = fano_chi_lines(d, m, "integral")
        assert chi == fano_chi_lines(d, m, "closed"), m
        ratio = m + 1 - comb(2 * m - 3, 2)
        assert chi == ratio * fano_degree_lines(d, m, "closed"), m
    for m in range(4, 8):
        d = 2 * m - 5
        assert fano_chi_lines(d, m, "integral") == \
            fano_chi_lines(d, m, "closed"), m


@criterion(12, "Sigma degrees: the displayed degree-8 polynomial, the "
               "hyperplane closed form, and the leading terms")
def test_criterion_12_sigma_degrees():
    p = sigma_degree_symbolic(3, 1)
    assert p == UniPoly({8: F(1, 192), 6: F(1, 288), 5: F(-1, 48),
                         4: F(-25, 576), 3: F(-1, 16), 2: F(5, 144),
                         1: F(1, 12)}, var="d")
    for m in (2, 3):
        for d in (3, 4, 5):
            assert sigma_degree(d, m, m - 1) == sigma_degree_hyperplane(d, m)
    for m, r in [(3, 1), (4, 2)]:
        coeff, expo = sigma_degree_leading(m, r)
        q = sigma_degree_symbolic(m, r)
        assert (q.degree(), q.coeff(q.degree())) == (expo, coeff)


@criterion(13, "property suite: basis round-trips, Kostka = Catalan "
               "triangle, SYT counts, interpolation guards never fire")
def test_criterion_13_property_suite():
    # basis round-trips on the Chern classes themselves
    for n in (2, 3):
        for d in (3, 4):
            f = chern_direct(n, d, TruncationPolicy(3))
            for k in range(1, 4):
                hom = f.homogeneous_component(k)
                for basis in BASES:
                    terms = expand_in_basis(hom, basis)
                    back = sum((to_x_expansion(basis, lam, n) * c
                                for lam, c in terms.items()),
                               MultiPoly.const(0, f.vars))
                    assert back == hom, (n, d, k, basis)
    # Kostka numbers of e_1^delta are Catalan triangle numbers
    xs = ("x1", "x2")
    e1 = MultiPoly(xs, {(1, 0): F(1), (0, 1): F(1)})
    for delta in range(1, 9):
        kostka = expand_in_basis(e1 ** delta, "schur")
        for j in range(0, delta // 2 + 1):
            lam = (delta - j, j) if j else (delta,)
            assert kostka.get(lam, F(0)) == catalan_triangle(delta, j)
    # SYT hook length formula against exhaustive growth counting
    def grow(lam):
        if sum(lam) == 0:
            return 1
        total = 0
        for i in range(len(lam)):
            if lam[i] > (lam[i + 1] if i + 1 < len(lam) else 0):
                smaller = tuple(p - (j == i) for j, p in enumerate(lam))
                total += grow(tuple(p for p in smaller if p))
        return total
    for w in range(0, 7):
        for lam in enumerate_partitions(w):
            assert syt_count(lam) == grow(lam), lam
    # interpolation guards never fire: every interpolation in the matrix
    # uses one more sample than the degree bound and must stay consistent
    for n in (2, 3):
        for k in range(1, 5):
            chern_interpolated(n, k)  # raises InconsistentDataError on drift
