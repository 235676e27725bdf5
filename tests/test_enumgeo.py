import random
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement
from math import comb, prod

import pytest

from chernpol import enumgeo
from chernpol.chern import chern_direct, chern_interpolated, euler_c2_closed
from chernpol.enumgeo import (EmptyFanoError, UnsupportedDegreeError,
                              UnsupportedMethodError, chern_grassmannian,
                              chi_deg_ratio_check, euler_class_c2,
                              expected_dimension, fano_chi_lines,
                              fano_degree_lines, grassmann_integral,
                              sigma_degree, sigma_degree_hyperplane,
                              sigma_degree_leading, sigma_degree_symbolic,
                              sigma_validity_warnings)
from chernpol.exactcore import (InconsistentDataError, MultiPoly,
                                OutOfDomainError, TruncationPolicy, UniPoly,
                                xvars)
from chernpol.symfunc import (NotSymmetricError, enumerate_partitions,
                              expand_in_basis, to_x_expansion)

from polyhelpers import from_roots


def test_expected_dimension():
    assert expected_dimension(3, 3, 1) == 4 - 4
    assert expected_dimension(5, 4, 1) == 6 - 6
    assert expected_dimension(4, 4, 1) == 6 - 5
    assert expected_dimension(2, 3, 1) == 4 - 3


# ---------------------------------------------------------------------------
# integration over Grassmannians
# ---------------------------------------------------------------------------

def test_grassmann_integral_volume_form():
    s = to_x_expansion("schur", (2, 2), 2)
    assert grassmann_integral(s, 2, 4) == 1
    # wrong-degree input integrates to zero
    s2 = to_x_expansion("schur", (2,), 2)
    assert grassmann_integral(s2, 2, 4) == 0


def test_grassmann_integral_degree_of_grassmannian():
    # deg Gr_2(C^4) = int c_1(S^v)^4 = 2 lines meeting four general lines
    xs = ("x1", "x2")
    e1 = MultiPoly(xs, {(1, 0): F(1), (0, 1): F(1)})
    assert grassmann_integral(e1 ** 4, 2, 4) == 2
    # deg Gr_2(C^5) = Catalan number 1/(k+1) binom(2k,k) pattern: 5
    assert grassmann_integral(e1 ** 6, 2, 5) == 5


def _schur_oracle(f, k, n_amb):
    """The volume-form coefficient read off the full Schur expansion."""
    top = f.homogeneous_component(k * (n_amb - k))
    return expand_in_basis(top, "schur").get(((n_amb - k),) * k, F(0))


def _random_symmetric(rng, k, degrees):
    """A random combination of products of basis elements in x1..xk, with
    one summand of each total degree in ``degrees``."""
    xs = xvars(k)
    f = MultiPoly.const(0, xs)
    for deg in degrees:
        term = MultiPoly.const(rng.randint(-5, 5) or 1, xs)
        rest = deg
        while rest:
            w = rng.randint(1, rest)
            basis = rng.choice(["monomial", "elementary", "schur", "power"])
            parts = [p for p in enumerate_partitions(w)
                     if (max(p) <= k if basis == "elementary"
                         else len(p) <= k)]
            term = term * to_x_expansion(basis, rng.choice(parts), k)
            rest -= w
        f = f + term
    return f


def test_grassmann_integral_matches_schur_expansion():
    rng = random.Random(5)
    for k in (1, 2, 3):
        for n_amb in range(k + 1, k + 4):
            dim = k * (n_amb - k)
            for degrees in ([dim], [dim, dim, dim - 1, 0], [dim - 1, dim + 1],
                            [dim, rng.randint(0, dim + 2)]):
                f = _random_symmetric(rng, k, degrees)
                assert grassmann_integral(f, k, n_amb) == \
                    _schur_oracle(f, k, n_amb), (k, n_amb, f)


def test_grassmann_integral_over_a_point():
    # Gr_k(C^k) is a point: the volume form is s_() = 1 and the integral is
    # the constant term (the full Schur expansion has no key for s_())
    for k in (1, 2, 3):
        f = to_x_expansion("elementary", (1,), k) + 7
        assert grassmann_integral(f, k, k) == 7


def test_grassmann_integral_rejects_non_symmetric_top():
    xs = ("x1", "x2")
    top = MultiPoly(xs, {(2, 0): F(1)})          # x1^2 on Gr_2(C^3)
    lower = MultiPoly(xs, {(1, 0): F(1)})        # non-symmetric, not top
    with pytest.raises(NotSymmetricError):
        grassmann_integral(top + 1, 2, 3)
    assert grassmann_integral(lower + to_x_expansion("schur", (1, 1), 2),
                              2, 3) == 1


def test_grassmann_integral_needs_no_schur_expansion(monkeypatch):
    from chernpol import symfunc
    f = chern_direct(3, 4, TruncationPolicy(6))
    expected = _schur_oracle(f, 3, 5)

    def forbidden(*args, **kwargs):
        raise AssertionError("the alternant needs no Schur expansion")

    monkeypatch.setattr(symfunc, "expand_in_basis", forbidden)
    monkeypatch.setattr(symfunc, "_schur_x", forbidden)
    assert grassmann_integral(f, 3, 5) == expected


def test_sigma_degree_matches_schur_expansion():
    # the direct product, d = -1 (the empty product) included, peeled by
    # Kostka rows: neither the closed form nor the alternant
    for r in (0, 1, 2, 3):
        for m in range(r + 1, 6):
            k, dim = r + 1, (r + 1) * (m - r)
            for d in range(-1, 5):
                f = chern_direct(k, d, TruncationPolicy(dim))
                assert sigma_degree(d, m, r) == \
                    _schur_oracle(f, k, m + 1), (d, m, r)


def test_sigma_degree_needs_no_product(monkeypatch):
    from chernpol import exactcore
    expected = sigma_degree(5, 6, 2)

    def forbidden(*args, **kwargs):
        raise AssertionError("the numeric degree must not multiply out c")

    monkeypatch.setattr(enumgeo, "chern_direct", forbidden)
    monkeypatch.setattr(exactcore.MultiPoly, "mul_truncated", forbidden)
    assert sigma_degree(5, 6, 2) == expected


def _bott_sigma_degree(d: int, m: int, r: int) -> F:
    """deg Sigma(d,m,r) = the integral of c_top(Sym^d S^*) over
    Gr_{r+1}(C^{m+1}) by Bott's formula (Ellingsrud and Stromme, 1996):
    with distinct torus weights w_i = i^2 + 3i + 1 on C^{m+1}, the fixed
    points are the (r+1)-subsets I, with tangent weights w_j - w_i for
    i in I, j not in I; Sym^d S^* has one weight s_M = -sum_{i in M} w_i
    per size-d multiset M of I, and c_top is their elementary symmetric
    function e_top, top = (r+1)(m-r).  No Chern class, partition or Schur
    function is computed."""
    w = [i * i + 3 * i + 1 for i in range(m + 1)]
    top = (r + 1) * (m - r)
    total = F(0)
    for I in combinations(range(m + 1), r + 1):
        e = [1] + [0] * top             # e_0..e_top of the weights so far
        for M in combinations_with_replacement(I, d):
            s = -sum(w[i] for i in M)
            for j in range(top, 0, -1):
                e[j] += s * e[j - 1]
        total += F(e[top], prod(w[j] - w[i] for i in I
                                for j in range(m + 1) if j not in I))
    return total


def test_sigma_degree_matches_bott_localization():
    # an oracle that shares no code with chern_values or the alternant
    assert _bott_sigma_degree(3, 3, 1) == 27
    assert _bott_sigma_degree(5, 4, 1) == 2875
    wrong = [(d, m, r) for r in (1, 2, 3) for m in range(r + 1, 8)
             for d in range(7)
             if sigma_degree(d, m, r) != _bott_sigma_degree(d, m, r)]
    assert wrong == []


def test_chern_grassmannian_low_classes():
    # c_1 = n s_1, c_2 = (n^2-n+2)/2 s_2 + (n^2+n-6)/2 s_(1,1),
    # c_3 = n(n^2-3n+8)/6 s_3 + n(n^2-7)/3 s_(2,1)  for Gr_2(C^n)
    for n in (4, 5, 6, 7):
        c = chern_grassmannian(2, n, TruncationPolicy(3))
        assert expand_in_basis(c.homogeneous_component(1), "schur") == \
            {(1,): F(n)}
        assert expand_in_basis(c.homogeneous_component(2), "schur") == \
            {(2,): F(n * n - n + 2, 2), (1, 1): F(n * n + n - 6, 2)}
        assert expand_in_basis(c.homogeneous_component(3), "schur") == \
            {(3,): F(n * (n * n - 3 * n + 8), 6),
             (2, 1): F(n * (n * n - 7), 3)}


def test_chern_grassmannian_top_is_euler_count():
    # int c_top(Gr) = chi(Gr_k(C^n)) = binom(n, k)
    for k, n in [(1, 3), (2, 4), (2, 5)]:
        c = chern_grassmannian(k, n)
        assert grassmann_integral(c, k, n) == comb(n, k)


# ---------------------------------------------------------------------------
# degrees of Sigma(d, m, r)
# ---------------------------------------------------------------------------

def test_sigma_degree_symbolic_331():
    p = sigma_degree_symbolic(3, 1)
    expected = UniPoly({8: F(1, 192), 6: F(1, 288), 5: F(-1, 48),
                        4: F(-25, 576), 3: F(-1, 16), 2: F(5, 144),
                        1: F(1, 12)}, var="d")
    assert p == expected


def test_sigma_symbolic_matches_numeric():
    for m, r in [(3, 1), (4, 1), (4, 2)]:
        p = sigma_degree_symbolic(m, r)
        for d in range(3, 8):
            assert p(d) == sigma_degree(d, m, r), (m, r, d)


@pytest.mark.parametrize("m, r", [(3, 1), (4, 1), (5, 1), (3, 2), (4, 2),
                                  (5, 2), (4, 3)])
def test_sigma_symbolic_matches_schur_expansion(m, r):
    # the whole Schur expansion by peeling Kostka rows, which shares no
    # code with the alternant
    lam = (m - r,) * (r + 1)
    cp = chern_interpolated(r + 1, (r + 1) * (m - r), "schur")
    assert sigma_degree_symbolic(m, r) == cp.terms[lam]


def test_sigma_symbolic_reads_one_coefficient(monkeypatch):
    from chernpol import record, symfunc
    expected = sigma_degree_symbolic(4, 2)

    def forbidden(*args, **kwargs):
        raise AssertionError("one Schur coefficient needs no basis change")

    for module in (record, symfunc):
        monkeypatch.setattr(module, "convert_expansion", forbidden)
    monkeypatch.setattr(symfunc, "expand_in_basis", forbidden)
    assert sigma_degree_symbolic(4, 2) == expected


def test_sigma_symbolic_r0_has_no_regime():
    # expected dimension m - 1 >= 0 for every d
    for m in (1, 3):
        with pytest.raises(OutOfDomainError):
            sigma_degree_symbolic(m, 0)


def test_sigma_symbolic_8_3_factors():
    # degree 80; a_0 of the cleared polynomial has 1.9 million divisors
    p = sigma_degree_symbolic(8, 3)
    roots, cofactor = p.rational_roots()
    assert roots == [(r, 1) for r in (0, 1, -1, 2, -2, -3)]
    assert p == cofactor * from_roots([0, 1, -1, 2, -2, -3])


def test_sigma_degree_leading():
    for m, r in [(3, 1), (4, 2)]:
        coeff, expo = sigma_degree_leading(m, r)
        p = sigma_degree_symbolic(m, r)
        assert p.degree() == expo
        assert p.coeff(expo) == coeff
    assert sigma_degree_leading(3, 1) == (F(1, 192), 8)


def test_sigma_degree_leading_matches_symbolic_manivel_cases():
    # Manivel's leading coefficient against the exact symbolic degree
    for m, r in [(3, 1), (4, 1), (5, 1), (4, 2), (5, 2), (6, 2), (7, 2),
                 (8, 2), (5, 3), (6, 3), (6, 4), (7, 4)]:
        coeff, expo = sigma_degree_leading(m, r)
        p = sigma_degree_symbolic(m, r)
        assert (p.degree(), p.coeff(expo)) == (expo, coeff), (m, r)


def test_sigma_hyperplane_closed_form():
    for m in (2, 3):
        for d in (3, 4, 5):
            assert sigma_degree(d, m, m - 1) == sigma_degree_hyperplane(d, m)


def test_sigma_validity_warnings():
    assert sigma_validity_warnings(4, 3, 1) == []
    assert any("d=2" in w for w in sigma_validity_warnings(2, 3, 1))
    assert any("expected dimension" in w
               for w in sigma_validity_warnings(3, 4, 1))


# ---------------------------------------------------------------------------
# Euler classes for quadrics
# ---------------------------------------------------------------------------

def test_quadric_euler_class():
    # e(Pol^2(C^(r+1))) = 2^(r+1) s_(r+1, r, ..., 1)
    for r in (1, 2, 3):
        n = r + 1
        top = chern_direct(n, 2, TruncationPolicy(comb(n + 1, 2))) \
            .homogeneous_component(comb(n + 1, 2))
        staircase = tuple(range(n, 0, -1))
        assert expand_in_basis(top, "schur") == {staircase: F(2 ** n)}


# ---------------------------------------------------------------------------
# Fano schemes of lines
# ---------------------------------------------------------------------------

def _euler_coefficient(d, j):
    """e^d_j = coef(s_(d+1-j, j), c_{d+1}) for n = 2; 0 out of range."""
    return dict(euler_c2_closed(d)).get(j, 0)


def test_fano_domain_checks():
    with pytest.raises(EmptyFanoError):
        fano_degree_lines(4, 3)
    with pytest.raises(UnsupportedDegreeError):
        fano_degree_lines(1, 5)
    with pytest.raises(UnsupportedMethodError):
        fano_degree_lines(3, 3, "guess")
    # d = 2 with lines present is in-domain
    assert fano_degree_lines(2, 3, "closed") == \
        fano_degree_lines(2, 3, "integral")


def test_fano_degree_classical_counts():
    assert fano_degree_lines(3, 3) == 27        # lines on a cubic surface
    assert fano_degree_lines(5, 4) == 2875      # lines on a quintic threefold


def test_fano_degree_curve_sequence():
    # delta = 1 (d = 2m-4): degrees 4, 320, 60480, 21518336, 12493096000
    expected = {3: 4, 4: 320, 5: 60480, 6: 21518336, 7: 12493096000}
    for m, val in expected.items():
        assert fano_degree_lines(2 * m - 4, m, "closed") == val


FANO_GRID = [(2 * m - 3 - delta, m) for m in range(3, 13)
             for delta in range(9) if 2 * m - 3 - delta >= 2]


def test_fano_grid_size():
    # every (d, m) with d >= 2, 3 <= m <= 12 and 0 <= delta <= 8
    assert len(FANO_GRID) == 74
    assert all(0 <= expected_dimension(d, m, 1) <= 8 for d, m in FANO_GRID)


@pytest.mark.parametrize("d, m", FANO_GRID)
def test_fano_closed_equals_integral(d, m):
    # the closed forms pair Euler-class coefficients from the Stirling
    # formula with a Schur expansion; the integrals multiply out the direct
    # product and read the volume form by the alternant
    assert fano_degree_lines(d, m, "closed") == \
        fano_degree_lines(d, m, "integral"), (d, m)
    assert fano_chi_lines(d, m, "closed") == \
        fano_chi_lines(d, m, "integral"), (d, m)


def test_fano_chi_delta0():
    # finitely many reduced points: chi is the number of lines, the degree
    for m in range(3, 7):
        d = 2 * m - 3
        closed = fano_chi_lines(d, m, "closed")
        assert closed == fano_chi_lines(d, m, "integral") == \
            fano_degree_lines(d, m, "closed"), m


def test_fano_chi_delta1():
    for m in range(3, 8):
        d = 2 * m - 4
        closed = fano_chi_lines(d, m, "closed")
        integral = fano_chi_lines(d, m, "integral")
        assert closed == integral, m
        assert closed == _euler_coefficient(d, m - 2) * \
            (m + 1 - comb(2 * m - 3, 2))


def test_fano_chi_delta2():
    # m = 4 is the Fano surface of the cubic threefold: chi = 27
    assert fano_chi_lines(3, 4, "integral") == 27
    for m in range(4, 11):
        d = 2 * m - 5
        # the Schur coefficients of the degree-2 part of
        # c(Gr_2(C^(m+1))) / c(Pol^d(S)), as quartics in m
        a = 2 * m**4 - 20 * m**3 + 67 * m**2 - 85 * m + 33
        b = (F(2) * m**4 - F(56, 3) * m**3 + 59 * m**2 - F(211, 3) * m
             + 26)
        quartics = _euler_coefficient(d, m - 2) * a + \
            _euler_coefficient(d, m - 3) * b
        assert fano_chi_lines(d, m, "closed") == quartics == \
            fano_chi_lines(d, m, "integral"), m


def test_fano_chi_closed_answers_delta3():
    assert expected_dimension(4, 5, 1) == 3
    assert fano_chi_lines(4, 5, "closed") == \
        fano_chi_lines(4, 5, "integral") == -22464


def test_fano_chi_defaults_to_closed(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the closed form integrates nothing")

    monkeypatch.setattr(enumgeo, "grassmann_integral", forbidden)
    assert fano_chi_lines(5, 6) == 11952300


def test_chi_deg_ratio():
    for m in (3, 4, 5):
        out = chi_deg_ratio_check(m)
        assert out["holds"]
        assert out["chi"] == out["ratio"] * out["degree"]


def test_euler_class_c2_matches_coefficients():
    for d in (3, 4, 5):
        top = euler_class_c2(d)
        schur = expand_in_basis(top, "schur")
        for j in range(1, (d + 1) // 2 + 1):
            assert schur.get((d + 1 - j, j), F(0)) == _euler_coefficient(d, j)


def test_non_integral_fano_degree_is_inconsistent(monkeypatch):
    monkeypatch.setattr(enumgeo, "grassmann_integral", lambda *args: F(1, 2))
    with pytest.raises(InconsistentDataError):
        fano_degree_lines(3, 3, "integral")
