import random
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod

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
from chernpol.multipoly import series_invert
from chernpol.symfunc import (alternant_terms, convert_expansion,
                              enumerate_partitions, expand_in_basis,
                              partition_of, to_x_expansion)

from polyhelpers import from_roots, variable


def test_expected_dimension():
    assert expected_dimension(3, 3, 1) == 4 - 4
    assert expected_dimension(5, 4, 1) == 6 - 6
    assert expected_dimension(4, 4, 1) == 6 - 5
    assert expected_dimension(2, 3, 1) == 4 - 3


# ---------------------------------------------------------------------------
# integration over Grassmannians
# ---------------------------------------------------------------------------

def _lookup(terms: dict):
    """The x^alpha coefficient of a symmetric class given as {partition:
    coefficient of m_partition}."""
    return lambda alpha: terms.get(partition_of(alpha), 0)


def test_grassmann_integral_volume_form():
    s = to_x_expansion("schur", (2, 2), 2)
    assert grassmann_integral(s.coeff, 2, 4) == 1
    # wrong-degree input integrates to zero
    s2 = to_x_expansion("schur", (2,), 2)
    assert grassmann_integral(s2.coeff, 2, 4) == 0


def test_grassmann_integral_degree_of_grassmannian():
    # deg Gr_2(C^4) = int c_1(S^v)^4 = 2 lines meeting four general lines
    xs = ("x1", "x2")
    e1 = MultiPoly(xs, {(1, 0): F(1), (0, 1): F(1)})
    assert grassmann_integral((e1 ** 4).coeff, 2, 4) == 2
    # deg Gr_2(C^5) = Catalan number 1/(k+1) binom(2k,k) pattern: 5
    assert grassmann_integral((e1 ** 6).coeff, 2, 5) == 5
    # the same from partitions: e_1^j has the multinomial j!/mu! at m_mu
    for k, n_amb, deg in [(2, 4, 2), (2, 5, 5), (3, 6, 42)]:
        j = k * (n_amb - k)
        e1_power = {mu: factorial(j) // prod(map(factorial, mu))
                    for mu in enumerate_partitions(j, max_length=k)}
        assert grassmann_integral(_lookup(e1_power), k, n_amb) == deg


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
                assert grassmann_integral(f.coeff, k, n_amb) == \
                    _schur_oracle(f, k, n_amb), (k, n_amb, f)


def test_grassmann_integral_over_a_point():
    # Gr_k(C^k) is a point: the volume form is s_() = 1 and the integral is
    # the constant term (the full Schur expansion has no key for s_())
    for k in (1, 2, 3):
        f = to_x_expansion("elementary", (1,), k) + 7
        assert grassmann_integral(f.coeff, k, k) == 7


def test_grassmann_integral_reads_only_alternant_exponents():
    # at most k! lookups, all of degree k(n_amb - k): a lower-degree part,
    # symmetric or not, is never read
    for k, n_amb in [(1, 4), (2, 3), (2, 5), (3, 6), (4, 6)]:
        read = []
        grassmann_integral(lambda alpha: read.append(alpha) or 1, k, n_amb)
        assert read == [alpha for _, alpha in
                        alternant_terms((n_amb - k,) * k, k)]
        assert len(read) <= factorial(k)
        assert {sum(alpha) for alpha in read} == {k * (n_amb - k)}


def test_grassmann_integral_needs_no_schur_expansion(monkeypatch):
    from chernpol import symfunc
    f = chern_direct(3, 4, TruncationPolicy(6))
    expected = _schur_oracle(f, 3, 5)

    def forbidden(*args, **kwargs):
        raise AssertionError("the alternant needs no Schur expansion")

    monkeypatch.setattr(symfunc, "expand_in_basis", forbidden)
    monkeypatch.setattr(symfunc, "_schur_x", forbidden)
    assert grassmann_integral(f.coeff, 3, 5) == expected


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


def _bott_fano_lines(d: int, m: int) -> tuple:
    """(degree, chi) of the Fano scheme of lines F_1(d, m) by Bott's
    formula, with the torus weights of _bott_sigma_degree: at a fixed point
    I = {i, j}, the Euler class of Sym^d S^* is the product of its weights
    s, over the product of the tangent weights t.  The degree multiplies it
    by c_1(S^*)^delta = (-w_i - w_j)^delta, and chi by c_delta(T Gr - E),
    the eps^delta coefficient of exp(sum_l q_l eps^l (sum t^l - sum s^l))
    with q_l = (-1)^(l-1)/l, the logarithm of 1 + x: one recursion
    F_n = (1/n) sum_l l g_l F_(n-l) of length delta."""
    w = [i * i + 3 * i + 1 for i in range(m + 1)]
    delta = expected_dimension(d, m, 1)
    degree = chi = F(0)
    for I in combinations(range(m + 1), 2):
        t = [w[j] - w[i] for i in I for j in range(m + 1) if j not in I]
        s = [-sum(w[i] for i in M) for M in combinations_with_replacement(I, d)]
        euler = F(prod(s), prod(t))
        g = [0] + [F((-1) ** (l - 1), l)
                   * (sum(x ** l for x in t) - sum(x ** l for x in s))
                   for l in range(1, delta + 1)]
        f = [F(1)]
        for n in range(1, delta + 1):
            f.append(sum(l * g[l] * f[n - l] for l in range(1, n + 1)) / n)
        degree += euler * (-w[I[0]] - w[I[1]]) ** delta
        chi += euler * f[delta]
    return degree, chi


def test_sigma_degree_matches_bott_localization():
    # an oracle that shares no code with chern_values or the alternant
    assert _bott_sigma_degree(3, 3, 1) == 27
    assert _bott_sigma_degree(5, 4, 1) == 2875
    wrong = [(d, m, r) for r in (1, 2, 3) for m in range(r + 1, 8)
             for d in range(7)
             if sigma_degree(d, m, r) != _bott_sigma_degree(d, m, r)]
    assert wrong == []


def _multipoly_chern_grassmannian(k: int, n_amb: int,
                                  maxdeg: int) -> MultiPoly:
    """c(Gr_k(C^n_amb)) = prod (1+x_i)^n_amb / prod prod (1+x_j-x_i) in the
    Chern roots x_1..x_k of S^*, as a MultiPoly truncated at maxdeg: the
    products multiplied out and the denominator inverted as a series."""
    xs = xvars(k)
    one = MultiPoly.const(1, xs)
    num = one
    den = one
    for i in range(k):
        xi = variable(xs[i], xs)
        num = num.mul_truncated(((one + xi) ** n_amb).truncate(maxdeg), maxdeg)
        for j in range(k):
            if i == j:
                continue
            den = den.mul_truncated(one + variable(xs[j], xs) - xi,
                                    maxdeg)
    return num.mul_truncated(series_invert(den, TruncationPolicy(maxdeg)),
                             maxdeg)


def test_chern_grassmannian_low_classes():
    # c_1 = n s_1, c_2 = (n^2-n+2)/2 s_2 + (n^2+n-6)/2 s_(1,1),
    # c_3 = n(n^2-3n+8)/6 s_3 + n(n^2-7)/3 s_(2,1)  for Gr_2(C^n)
    def schur(n, degree):
        return convert_expansion(chern_grassmannian(2, n, degree),
                                 "monomial", "schur", 2)

    for n in (4, 5, 6, 7):
        assert schur(n, 1) == {(1,): n}
        assert schur(n, 2) == {(2,): F(n * n - n + 2, 2),
                               (1, 1): F(n * n + n - 6, 2)}
        assert schur(n, 3) == {(3,): F(n * (n * n - 3 * n + 8), 6),
                               (2, 1): F(n * (n * n - 7), 3)}


def test_chern_grassmannian_top_is_euler_count():
    # int c_top(Gr) = chi(Gr_k(C^n)) = binom(n, k)
    for k, n in [(1, 3), (2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 7)]:
        c = chern_grassmannian(k, n, k * (n - k))
        assert grassmann_integral(_lookup(c), k, n) == comb(n, k), (k, n)


def test_chern_grassmannian_matches_multipoly_quotient():
    # c(T Gr - sum Sym^d S^*) from the power sums of the Newton recursion
    # against c(Gr) multiplied out and divided by the direct products
    for k, n_amb in [(1, 4), (2, 4), (2, 6), (3, 5), (3, 7)]:
        for ds in [(), (2,), (3,), (2, 3), (1, 2, 2)]:
            top = 4 if k < 3 else 3
            policy = TruncationPolicy(top)
            f = _multipoly_chern_grassmannian(k, n_amb, top)
            for d in ds:
                f = f.mul_truncated(
                    series_invert(chern_direct(k, d, policy), policy), top)
            for degree in range(top + 1):
                want = expand_in_basis(f.homogeneous_component(degree),
                                       "monomial")
                assert chern_grassmannian(k, n_amb, degree, ds) == \
                    {nu: c for nu, c in want.items() if c}, (k, n_amb, ds)


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


def _schur_path_fano_lines(d: int, m: int) -> tuple:
    """(degree, chi) of F_1(d, m) with MultiPoly products: the Euler class
    and the inverse of c(Pol^d(S)) from the direct product, c(Gr) from
    _multipoly_chern_grassmannian, each volume form read off the full
    Schur expansion.  It shares no code with chern_values or the
    alternant."""
    delta, dim = expected_dimension(d, m, 1), 2 * (m - 1)
    policy = TruncationPolicy(delta)
    e = euler_class_c2(d)
    e1 = MultiPoly(xvars(2), {(1, 0): F(1), (0, 1): F(1)})
    degree = _schur_oracle(e * e1 ** delta, 2, m + 1)
    cgr = _multipoly_chern_grassmannian(2, m + 1, delta)
    cinv = series_invert(chern_direct(2, d, policy), policy)
    chi = _schur_oracle(cgr.mul_truncated(e, dim).mul_truncated(cinv, dim),
                        2, m + 1)
    return degree, chi


FANO_GRID = [(2 * m - 3 - delta, m) for m in range(3, 13)
             for delta in range(9) if 2 * m - 3 - delta >= 2]


def test_fano_grid_size():
    # every (d, m) with d >= 2, 3 <= m <= 12 and 0 <= delta <= 8
    assert len(FANO_GRID) == 74
    assert all(0 <= expected_dimension(d, m, 1) <= 8 for d, m in FANO_GRID)


@pytest.mark.parametrize("d, m", FANO_GRID)
def test_fano_closed_equals_integral(d, m):
    # the closed forms pair Euler-class coefficients from the Stirling
    # formula with a Schur expansion; the integrals read the Euler class
    # from the Newton recursion and the volume form by the alternant.  Both
    # must equal two oracles that share no code with the integrals or with
    # each other: Bott's sum over the fixed lines, and the MultiPoly
    # products read off their full Schur expansion
    degree, chi = _bott_fano_lines(d, m)
    assert (degree, chi) == _schur_path_fano_lines(d, m), (d, m)
    for method in ("closed", "integral"):
        assert fano_degree_lines(d, m, method) == degree, (d, m, method)
        assert fano_chi_lines(d, m, method) == chi, (d, m, method)


def test_fano_oracles_agree_on_classical_values():
    assert _bott_fano_lines(3, 3) == _schur_path_fano_lines(3, 3) == (27, 27)
    assert _bott_fano_lines(3, 4) == _schur_path_fano_lines(3, 4) == (45, 27)
    assert _bott_fano_lines(5, 4) == (2875, 2875)


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
