import itertools
import random
from fractions import Fraction as F
from math import comb, factorial

import pytest

from chernpol.chern import (ChernPolynomial, OutOfDomainError, chern_direct,
                            chern_interpolated, chern_values,
                            elementary_degree_bound, euler_c2_closed,
                            leading_term, odd_grouped_coefficient,
                            pol_power_sums, weight_vectors)
from chernpol.exactcore import (InconsistentDataError, MultiPoly,
                                TruncationPolicy, UniPoly)
from chernpol.rising import RisingProductSpec, stirling_coefficient
from chernpol.symfunc import (enumerate_partitions, expand_in_basis,
                              partition_of, syt_count, to_x_expansion)

from polyhelpers import from_roots

D = UniPoly.x("d")


# ---------------------------------------------------------------------------
# direct product
# ---------------------------------------------------------------------------

def test_weight_vectors():
    assert sorted(weight_vectors(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert len(list(weight_vectors(3, 4))) == comb(6, 2)


def test_chern_direct_degenerate():
    one = MultiPoly.const(1, ("x1", "x2"))
    assert chern_direct(2, -1, TruncationPolicy(3)) == one
    assert chern_direct(2, 0, TruncationPolicy(3)) == one
    with pytest.raises(OutOfDomainError):
        chern_direct(2, -2, TruncationPolicy(3))


def test_chern_direct_small():
    # d=2, n=2: (1+2x1)(1+x1+x2)(1+2x2)
    f = chern_direct(2, 2, TruncationPolicy(3))
    xs = ("x1", "x2")
    expected = (MultiPoly(xs, {(0, 0): F(1), (1, 0): F(2)})
                * MultiPoly(xs, {(0, 0): F(1), (1, 0): F(1), (0, 1): F(1)})
                * MultiPoly(xs, {(0, 0): F(1), (0, 1): F(2)})).truncate(3)
    assert f == expected
    assert f.coeff((1, 1)) == 8


def test_chern_direct_is_symmetric():
    for n, d in [(2, 4), (3, 3)]:
        assert chern_direct(n, d, TruncationPolicy(3)).is_symmetric()


# ---------------------------------------------------------------------------
# interpolation vs the direct product
# ---------------------------------------------------------------------------

def test_interpolated_matches_direct_fresh_d():
    for n in (1, 2, 3, 4):
        for k in range(1, 5):
            cp = chern_interpolated(n, k)
            fresh = [n * k + 1, n * k + 2]
            for d in fresh:
                direct = chern_direct(n, d, TruncationPolicy(k))
                mono = expand_in_basis(direct.homogeneous_component(k),
                                       "monomial")
                assert cp.evaluate(d) == mono, (n, k, d)


def test_chern_values_restricted_to_wanted():
    # the recursion below the wanted partitions reads only values it has
    # computed, so every wanted key equals the unrestricted value
    rng = random.Random(2026)
    grid = [(1, 4, [0, 3]), (2, 5, range(4)), (3, 4, [0, 1, 9]),
            (3, 6, [2, 5]), (4, 5, range(3)), (4, 8, [0, 4]), (5, 6, [1, 3])]
    for n, k, ds in grid:
        every = enumerate_partitions(k)
        power_sums = pol_power_sums(n, k, ds)
        full = chern_values(n, k, power_sums, every, len(ds))
        assert set(full) == {nu for nu in every if len(nu) <= n}
        subsets = [[nu] for nu in every] + [
            rng.sample(every, rng.randint(1, len(every))) for _ in range(5)]
        for wanted in subsets:
            got = chern_values(n, k, power_sums, wanted, len(ds))
            assert got == {nu: full[nu] for nu in wanted if nu in full}, \
                (n, k, wanted)
    assert chern_values(3, 2, pol_power_sums(3, 2, [1]), []) == {}
    with pytest.raises(ValueError):
        chern_values(3, 2, pol_power_sums(3, 2, [1]), [(1,)])


def test_chern_values_division_is_exact(monkeypatch):
    # one wrong p_2 value, the coefficient of x_2^2 at every d, makes
    # 2*c_2[(2,)] odd at some d: the recursion must not floor it away
    from chernpol import specialization
    true_weights = specialization.moment_weights

    def corrupted(alpha):
        w = true_weights(alpha)
        return [w[0] + 1] + w[1:] if alpha == (0, 2) else w

    monkeypatch.setattr(specialization, "moment_weights", corrupted)
    with pytest.raises(InconsistentDataError):
        chern_interpolated(2, 2)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_n2_rising_product_matches_chern_values(k):
    # for n = 2 the weights are a = (t, d - t), t = 0..d, so the product
    # over |a| = d is the rising product prod_t (1 + d x_2 + t (x_1 - x_2))
    # with K = d, whose Stirling coefficients share no code with the Newton
    # recursion of chern_values or with the simplex moments
    spec = RisingProductSpec.single(
        "d", {((0, 1), 0): D, ((1, 0), 1): 1, ((0, 1), 1): -1}, D, 2)
    cp = chern_interpolated(2, k)
    for h in range(k + 1):
        H = (h, k - h)
        assert spec._unipoly(stirling_coefficient(spec, H)) == cp.terms.get(
            partition_of(H), UniPoly({}, var="d")), H


def test_closed_form_needs_no_sampling(monkeypatch):
    from chernpol import chern, exactcore, specialization, symfunc
    expected = {b: chern_interpolated(3, 3, b) for b in symfunc.BASES}

    def forbidden(*args, **kwargs):
        raise AssertionError("the closed form must not sample or interpolate")

    monkeypatch.setattr(chern, "chern_direct", forbidden)
    monkeypatch.setattr(exactcore, "interpolate", forbidden)
    monkeypatch.setattr(exactcore.MultiPoly, "mul_truncated", forbidden)
    specialization.simplex_moment.cache_clear()
    # every basis row is a count on partitions: no polynomial product either
    symfunc._schur_x.cache_clear()
    symfunc._kostka.cache_clear()
    symfunc._product_count.cache_clear()
    for basis, cp in expected.items():
        assert chern_interpolated(3, 3, basis) == cp, basis


def test_n1_polynomials_and_domain():
    # one weight vector (d,): c = 1 + d*x, whose c_1 = d misses the empty
    # product at d = -1
    assert chern_interpolated(1, 1).terms == {(1,): D}
    assert chern_interpolated(1, 2).terms == {}
    assert chern_interpolated(1, 1).evaluate(0) == {(1,): 0}
    with pytest.raises(OutOfDomainError):
        chern_interpolated(1, 1).evaluate(-1)
    assert chern_interpolated(2, 1).evaluate(-1) == {(1,): 0}


def test_interpolated_divisibility():
    for n in (2, 3):
        for k in range(1, 5):
            cp = chern_interpolated(n, k)
            assert cp.divisibility_ok(), (n, k)


def test_divisibility_n1():
    # one weight vector for every d: c_1 = d, c_k = 0 for k >= 2; the
    # simplex never reaches k >= 2 points, which must not loop forever
    for k in range(4):
        cp = chern_interpolated(1, k)
        assert cp.divisibility_roots() == ([0] if k else [])
        assert cp.divisibility_ok(), k


def test_interpolated_basis_agreement():
    cp = chern_interpolated(2, 3)
    s = cp.in_basis("schur")
    e = cp.in_basis("elementary")
    for d in (4, 5):
        direct = chern_direct(2, d, TruncationPolicy(3)).homogeneous_component(3)
        assert s.evaluate(d) == expand_in_basis(direct, "schur")
        assert e.evaluate(d) == expand_in_basis(direct, "elementary")


def test_interpolated_bases_rebuild_direct_product():
    # an oracle that shares no peel with the basis change: rebuild c_k in
    # x from the basis coefficients and compare with the direct product
    for n, k in ((2, 5), (3, 4), (4, 3)):
        d = n * k + 1
        direct = chern_direct(n, d, TruncationPolicy(k)).homogeneous_component(k)
        for basis in ("elementary", "schur", "power"):
            values = chern_interpolated(n, k, basis).evaluate(d)
            rebuilt = sum((to_x_expansion(basis, lam, n).scale(c)
                           for lam, c in values.items()),
                          MultiPoly.const(0, direct.vars))
            assert rebuilt == direct, (n, k, basis)


def test_c1_closed_form():
    # c_1 = binom(d+n-1, n) * e_1
    for n in (2, 3, 4):
        cp = chern_interpolated(n, 1, "elementary")
        p = cp.terms[(1,)]
        for d in range(0, 8):
            assert p(d) == comb(d + n - 1, n)


def test_c3_n2_schur():
    cp = chern_interpolated(2, 3, "schur")
    s3 = from_roots([0, 0, 1, 2, -1, -1], var="d").scale(F(1, 48))
    s21 = (from_roots([0, 0, 1, -1], var="d")
           * UniPoly({2: F(1), 1: F(1), 0: F(2)}, var="d")).scale(F(1, 24))
    assert cp.terms == {(3,): s3, (2, 1): s21}


def test_c3_n3_schur():
    cp = chern_interpolated(3, 3, "schur")
    pre = from_roots([0, 1, -3, -2, -1], var="d")
    s3 = (pre * UniPoly({4: F(5), 3: F(20), 2: F(-5), 1: F(-50), 0: F(-12)},
                        var="d")).scale(F(1, 6480))
    s21 = (pre * UniPoly({2: F(1), 0: F(2)}, var="d")
           * UniPoly({2: F(2), 1: F(8), 0: F(3)}, var="d")).scale(F(1, 1296))
    s111 = (from_roots([0, -3, -2, -1], var="d")
            * UniPoly({2: F(1), 0: F(2)}, var="d")
            * UniPoly({3: F(1), 2: F(3), 1: F(2), 0: F(12)},
                      var="d")).scale(F(1, 1296))
    assert cp.terms == {(3,): s3, (2, 1): s21, (1, 1, 1): s111}


def test_c4_n2_elementary_degrees():
    cp = chern_interpolated(2, 4, "elementary")
    degs = {lam: p.degree() for lam, p in cp.terms.items()}
    assert degs == {(1, 1, 1, 1): 8, (2, 1, 1): 7, (2, 2): 6}
    for lam, p in cp.terms.items():
        assert p.degree() == elementary_degree_bound(lam, 2)


# ---------------------------------------------------------------------------
# Euler class for n = 2
# ---------------------------------------------------------------------------

def test_euler_small_values():
    assert euler_c2_closed(2) == [(0, 0), (1, 4)]
    assert euler_c2_closed(3) == [(0, 0), (1, 18), (2, 27)]


def test_euler_closed_matches_direct():
    for d in range(1, 11):
        top = chern_direct(2, d, TruncationPolicy(d + 1)) \
            .homogeneous_component(d + 1)
        schur = expand_in_basis(top, "schur")
        for j, val in euler_c2_closed(d):
            lam = (d + 1 - j, j) if j else (d + 1,)
            assert schur.get(lam, F(0)) == val, (d, j)


# ---------------------------------------------------------------------------
# odd-d grouped coefficients
# ---------------------------------------------------------------------------

def odd_grouped_in_d(H) -> UniPoly:
    """odd_grouped_coefficient re-parameterized by d = 2*delta + 1; a
    polynomial in d that matches the elementary-basis coefficient at every
    odd d."""
    half = UniPoly({1: F(1, 2), 0: F(-1, 2)}, var="d")
    return odd_grouped_coefficient(H)(half)


def test_odd_grouped_matches_interpolated():
    # group e-basis coefficients of c_k by (H_1, H_2): the coefficient of
    # e_1^{H_1} e_2^{H_2} in c at odd d equals the delta-polynomial at
    # delta = (d-1)/2
    for k in range(1, 5):
        cp = chern_interpolated(2, k, "elementary")
        for lam, g in cp.terms.items():
            H = (lam.count(1), lam.count(2))
            viad = odd_grouped_in_d(H)
            for d in range(1, 12, 2):
                assert viad(d) == g(d), (lam, d)
            for delta in range(0, 6):
                assert odd_grouped_coefficient(H)(delta) == g(2 * delta + 1)


def test_odd_grouped_leading():
    # leading term (1/(H1! H2!)) 2^{H1} (4/3)^{H2} delta^{2 H1 + 3 H2}
    for H in [(1, 0), (0, 1), (2, 0), (1, 1), (2, 1)]:
        p = odd_grouped_coefficient(H)
        expo = 2 * H[0] + 3 * H[1]
        lead = (F(2) ** H[0] * F(4, 3) ** H[1]
                / (factorial(H[0]) * factorial(H[1])))
        assert p.degree() == expo
        assert p.coeff(expo) == lead


# ---------------------------------------------------------------------------
# leading terms
# ---------------------------------------------------------------------------

def test_leading_term_monomial():
    for n in (2, 3):
        for k in range(1, 4):
            cp = chern_interpolated(n, k)
            for mu, p in cp.terms.items():
                coeff, expo, conj = leading_term("monomial", mu, n)
                assert not conj
                assert (p.degree(), p.coeff(p.degree())) == (expo, coeff)


def test_leading_term_schur():
    for n in (2, 3):
        for k in range(1, 4):
            cp = chern_interpolated(n, k, "schur")
            for lam, p in cp.terms.items():
                coeff, expo, conj = leading_term("schur", lam, n)
                assert not conj
                assert (p.degree(), p.coeff(p.degree())) == (expo, coeff)
                assert coeff == F(syt_count(lam), factorial(sum(lam))) \
                    * F(1, factorial(n)) ** sum(lam)


def test_leading_term_elementary_proved_cases():
    # all nu at n = 2; nu = (1^k) for n = 3
    for k in range(1, 5):
        cp = chern_interpolated(2, k, "elementary")
        for lam, p in cp.terms.items():
            coeff, expo, conj = leading_term("elementary", lam, 2)
            assert not conj
            assert (p.degree(), p.coeff(p.degree())) == (expo, coeff)
    for k in range(1, 4):
        coeff, expo, conj = leading_term("elementary", (1,) * k, 3)
        assert not conj
        p = chern_interpolated(3, k, "elementary").terms[(1,) * k]
        assert (p.degree(), p.coeff(p.degree())) == (expo, coeff)


def test_leading_term_elementary_flags_open_cases():
    assert leading_term("elementary", (2,), 3)[2] is True
    assert leading_term("elementary", (2, 1), 4)[2] is True
    assert leading_term("elementary", (1, 1), 5)[2] is False


def test_leading_term_elementary_conjectural_cases_match():
    # a regression test of the flagged predictions, not a proof
    checked = 0
    for n, ks in ((3, range(3, 9)), (4, range(4, 9)), (5, range(5, 8)),
                  (6, (6, 7)), (7, (7,))):
        for k in ks:
            cp = chern_interpolated(n, k, "elementary")
            for lam in enumerate_partitions(k, max_part=n):
                coeff, expo, conj = leading_term("elementary", lam, n)
                if conj:
                    p = cp.terms[lam]
                    assert (p.degree(), p.coeff(expo)) == (expo, coeff), \
                        (n, lam)
                    checked += 1
    assert checked == 136


def test_elementary_degree_bound_holds():
    for n in (2, 3):
        for k in range(1, 6):
            cp = chern_interpolated(n, k, "elementary")
            for lam, p in cp.terms.items():
                assert p.degree() <= elementary_degree_bound(lam, n), (n, lam)


def test_e2_coefficient_of_c2_in_n():
    # observed, not derived: at d = 3 the coefficient of e_2 in c_2 is
    # C(3+n, n+1) for n = 2..6
    for n in range(2, 7):
        g = chern_interpolated(n, 2, "elementary").terms[(2,)]
        assert g(3) == comb(3 + n, n + 1), n


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_chern_polynomial_json_has_no_sampling_record():
    doc = chern_interpolated(2, 2).to_json()
    assert doc["format"] == "chernpol-cache-2"
    assert "degree_bound" not in doc and doc["samples"] == []


def test_chern_polynomial_json_roundtrip():
    cp = chern_interpolated(2, 2, "schur")
    back = ChernPolynomial.from_json(cp.to_json())
    assert back == cp
    assert back.samples == []
    # equality compares every field, as a plain class it is written out
    other_basis = ChernPolynomial(2, 2, "monomial", dict(cp.terms))
    assert other_basis != cp
    other_terms = dict(cp.terms)
    other_terms[(2,)] = other_terms[(2,)] + 1
    assert ChernPolynomial(2, 2, "schur", other_terms) != cp
    assert ChernPolynomial(2, 2, "schur", dict(cp.terms)) == cp
    assert ChernPolynomial(2, 2, "schur", dict(cp.terms), [0]) != cp
    assert cp != cp.to_json()
    assert repr(ChernPolynomial(1, 0, "monomial")) == (
        "ChernPolynomial(n=1, k=0, basis='monomial', terms={}, samples=[])")
    with pytest.raises(ValueError):
        stale = cp.to_json() | {"format": "???"}
        ChernPolynomial.from_json(stale)
