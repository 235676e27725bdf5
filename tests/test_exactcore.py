import os
import subprocess
import sys
import time
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from chernpol import exactcore
from chernpol.exactcore import (InconsistentDataError, MultiPoly,
                                TruncationPolicy, UniPoly, _cleared, _rebuilt,
                                interpolate, interpolate_integers,
                                series_invert)
from chernpol import roots as rootsmod
from chernpol.roots import (_divide_out, _horner, _square_free_part,
                            rational_roots)

from polyhelpers import from_roots, variable


def test_unipoly_basics():
    p = UniPoly({2: F(1), 0: F(-3)})
    q = UniPoly.x() + 1
    assert (p + q).coeff(1) == 1
    assert (p * q).degree() == 3
    assert p.degree() == 2
    assert p(2) == 1
    assert (p - p).is_zero()
    assert UniPoly({}).degree() is None   # zero-degree sentinel


def test_unipoly_from_roots_and_division():
    p = from_roots([1, 2, 3])
    assert p(1) == p(2) == p(3) == 0
    assert p(0) == -6
    assert from_roots([1, 3]) * from_roots([2]) == p
    assert rational_roots(p) == ([(F(1), 1), (F(2), 1), (F(3), 1)],
                                  UniPoly.const(1))
    assert p(5) != 0


def test_unipoly_composition():
    p = UniPoly({2: F(1), 1: F(1)})          # d^2 + d
    inner = UniPoly({1: F(2), 0: F(1)})      # 2d + 1
    composed = p(inner)
    for v in range(-3, 4):
        assert composed(v) == p(inner(v))


def test_unipoly_composition_multipoly():
    p = UniPoly({2: F(1)})
    m = MultiPoly(("a", "b"), {(1, 0): F(1), (0, 1): F(1)})
    out = p(m)
    assert out.coeff((1, 1)) == 2


def test_unipoly_json_roundtrip():
    p = UniPoly({3: F(1, 2), 0: F(-7)})
    assert UniPoly.from_json(p.to_json()) == p
    assert UniPoly.from_json([[2.0, "1"]]) == UniPoly({2: F(1)})
    for bad in (0.5, -2, "1", True):
        with pytest.raises(ValueError):
            UniPoly.from_json([[bad, "1"]])


def test_rational_inputs_follow_one_rule():
    # a string that Fraction reads, or an integer by the rule of as_int: a
    # float's binary value is never taken for the decimal it was written as
    assert UniPoly.from_json([[0, "1/10"], [1, "0.1"], [2, 3.0], [3, 4]]) \
        == UniPoly({0: F(1, 10), 1: F(1, 10), 2: F(3), 3: F(4)})
    for bad in (0.1, True, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"not {bad!r}$"):
            UniPoly.from_json([[0, bad]])
        with pytest.raises(ValueError, match="not a string"):
            exactcore.rat(bad)


def test_unipoly_pow_derivative_scale():
    p = (UniPoly.x() + 1) ** 3
    assert p.coeff(1) == 3
    assert p.scale(F(1, 2)).coeff(2) == F(3, 2)


def _rationals(bound=5):
    # mixed denominators, so that products clear and rebuild them
    return st.fractions(min_value=-bound, max_value=bound, max_denominator=6)


@settings(max_examples=30)
@given(st.lists(_rationals(), min_size=1, max_size=5),
       st.lists(_rationals(), min_size=1, max_size=5),
       _rationals(4))
def test_unipoly_arith_is_pointwise(a, b, v):
    pa = UniPoly(dict(enumerate(a)))
    pb = UniPoly(dict(enumerate(b)))
    assert (pa + pb)(v) == pa(v) + pb(v)
    assert (pa * pb)(v) == pa(v) * pb(v)
    assert (pa - pb)(v) == pa(v) - pb(v)


def test_rational_roots_with_multiplicities():
    p = from_roots([0, F(-1, 2), F(3, 4), F(3, 4), 2, -2]).scale(5)
    roots, cofactor = rational_roots(p)
    assert roots == [(0, 1), (F(-1, 2), 1), (2, 1), (-2, 1), (F(3, 4), 2)]
    assert p == cofactor * from_roots(
        [r for r, mult in roots for _ in range(mult)])
    assert cofactor == 5
    assert rational_roots(UniPoly({3: F(2)})) == ([(0, 3)], UniPoly.const(2))
    irreducible = UniPoly({2: F(1), 0: F(1)})
    assert rational_roots(irreducible) == ([], irreducible)
    with pytest.raises(ValueError):
        rational_roots(UniPoly({}))


@settings(max_examples=40)
@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                max_size=5),
       st.integers(1, 5), st.integers(-3, 3).filter(bool))
def test_rational_roots_finds_every_root(roots, c, scale):
    # (d^2 + c) has no rational root
    p = (from_roots(roots) * UniPoly({2: F(1), 0: F(c)})).scale(scale)
    found, cofactor = rational_roots(p)
    found = [r for r, m in found for _ in range(m)]
    assert sorted(found) == sorted(roots)
    assert p == cofactor * from_roots(found)


def divisor_pair_roots(p):
    """The reference for ``roots.rational_roots``: every p/q in lowest
    terms with p | a_0 and q | a_N of the cleared integer coefficients,
    the divisors listed by scanning, tried in the order of (|p|, q, sign)
    and divided out by synthetic division while that is exact."""
    low = min(p.terms)
    roots = [(F(0), low)] if low else []
    D, pairs = _cleared(p.terms)
    a = [0] * (max(p.terms) - low + 1)
    for e, n in pairs:
        a[e - low] = n

    def divisors(n):
        return [i for i in range(1, abs(n) + 1) if n % i == 0]

    qs = 1
    for num in divisors(a[0]):
        for den in divisors(a[-1]):
            if gcd(num, den) != 1:
                continue
            for r in (num, -num):
                mult = 0
                while len(a) > 1 and (b := _divide_out(a, r, den)) is not None:
                    a, mult = b, mult + 1
                if mult:
                    roots.append((F(r, den), mult))
                    qs *= den ** mult
    return roots, UniPoly(_rebuilt({i: qs * c for i, c in enumerate(a)}, D))


@settings(max_examples=60)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=4),
                max_size=3),
       st.integers(0, 2))
def test_rational_roots_match_divisor_pairs(coeffs, roots, low):
    base = UniPoly(dict(enumerate(coeffs)))
    if base.is_zero():
        base = UniPoly.const(coeffs[0] or 1)
    p = base * from_roots(roots) * UniPoly({low: 1})
    assert repr(rational_roots(p)) == repr(divisor_pair_roots(p))


def test_rational_roots_edge_cases():
    d = UniPoly.x()
    # roots at dyadic points, and -1/2 after 1/2, as the order asks
    p = from_roots([F(1, 2), F(3, 4), 8, -8, F(-1, 2)]) * (d * d + 3)
    assert rational_roots(p) == (
        [(F(1, 2), 1), (F(-1, 2), 1), (F(3, 4), 1), (8, 1), (-8, 1)],
        d * d + 3)
    # a double root with a denominator near 10^9
    q = 10 ** 9 + 7
    p = (d.scale(q) - 123456789) ** 2 * (d * d - 2)
    assert rational_roots(p) == ([(F(123456789, q), 2)],
                                  (d * d - 2).scale(q * q))
    # two roots 1/q^2 apart
    q = 1000
    p = from_roots([F(1, q), F(q + 1, q * q), 5]) * (d * d + d + 1)
    assert rational_roots(p) == (
        [(F(1, q), 1), (5, 1), (F(q + 1, q * q), 1)], d * d + d + 1)
    # a negative leading coefficient
    p = from_roots([F(2, 3), -1, 4]).scale(-6)
    assert rational_roots(p) == ([(-1, 1), (F(2, 3), 1), (4, 1)],
                                  UniPoly.const(-6))
    # a constant, and d^j alone
    assert rational_roots(UniPoly.const(F(-5, 3))) == (
        [], UniPoly.const(F(-5, 3)))
    assert rational_roots(UniPoly({4: F(-1, 3)})) == (
        [(0, 4)], UniPoly.const(F(-1, 3)))


def test_rational_roots_of_two_large_prime_factors():
    # the root is found by the lift, however its numerator factors
    n = 1000000007 * 998244353
    start = time.perf_counter()
    roots = rational_roots(UniPoly({1: 1, 0: -n}))
    assert time.perf_counter() - start < 1
    assert roots == ([(F(n), 1)], 1)


def test_rational_roots_of_three_large_prime_factors():
    # constant terms with three prime factors near 10^9, and the prime
    # 2^89 - 1, which no divisor search can split quickly.  A subprocess, so
    # that a hang fails by timeout
    env = dict(os.environ, PYTHONPATH=str(Path(exactcore.__file__).parents[1]))
    for n in (1000000007 * 998244353 * 1000000009, 2 ** 89 - 1):
        out = subprocess.run(
            [sys.executable, "-c", "from chernpol.exactcore import UniPoly; "
             "from chernpol.roots import rational_roots; "
             f"print(rational_roots(UniPoly({{1: 1, 0: -{n}}})))"],
            env=env, capture_output=True, text=True, check=True, timeout=10)
        assert out.stdout.strip() == f"([(Fraction({n}, 1), 1)], 1)"


def test_rational_roots_with_a_huge_constant_term():
    # the constant term -2^64 * 3^42 has 2795 divisors, and the lift
    # lists none of them
    d = UniPoly.x()
    irreducible = d * d + 2 ** 64 * 3 ** 40
    p = (d - 1) * (d.scale(2) + 3) ** 2 * irreducible
    roots, cofactor = rational_roots(p)
    assert roots == [(1, 1), (F(-3, 2), 2)]
    assert cofactor == irreducible.scale(4)
    assert p == cofactor * from_roots([1, F(-3, 2), F(-3, 2)])


def test_rational_roots_of_quadruple_roots_with_large_denominators():
    # four roots of multiplicity 4 over denominators near 10^11: the lift
    # runs on the square-free part, where each root is simple, and evaluates
    # it by Horner 56 times here
    quadruple = [F(100000000019, 99999999977), F(-299999999971, 100000000003),
                 F(5, 99999999967), F(-100000000043, 100000000057)]
    d = UniPoly.x()
    rest = (d * d + 3) * (d * d - 5)
    p = from_roots([r for r in quadruple for _ in range(4)]) * rest
    assert p.degree() == 20
    counts = []
    for _ in range(2):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rootsmod, "_horner", lambda *args: calls.append(1)
                       or _horner(*args))
            mp.setattr(rootsmod, "_square_free_part", lambda a: calls.append(
                0) or _square_free_part(a))
            roots, cofactor = rational_roots(p)
        assert sorted(roots) == sorted((r, 4) for r in quadruple)
        assert cofactor == rest               # p is monic
        assert calls.count(0) == 1          # one gcd
        counts.append(calls.count(1))
    assert counts[0] == counts[1] < 100


def _lift_moduli(p):
    """``rational_roots(p)`` and the moduli of its Horner evaluations."""
    moduli = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootsmod, "_horner", lambda a, x, m: moduli.append(m)
                   or _horner(a, x, m))
        return rational_roots(p), moduli


def test_rational_roots_skip_primes_that_merge_roots_or_divide_a_n():
    # two of the 61 roots -30..30 collide modulo every prime up to 59, so
    # the lift runs modulo 61, where they fill F_61, and its powers
    roots = list(range(-30, 31))
    (found, cofactor), moduli = _lift_moduli(from_roots(roots))
    primes = [l for l in range(2, 62) if all(l % p for p in range(2, l))]
    assert sorted({m for m in moduli if m <= 61}) == primes
    assert {m for m in moduli if m > 61} == {61 ** 2 ** i for i in range(1, 7)}
    assert sorted(r for r, _ in found) == roots
    assert all(m == 1 for _, m in found) and cofactor == 1
    # 30030 = 2·3·5·7·11·13 is the leading coefficient, so the least prime
    # that may carry the lift is 17
    d = UniPoly.x()
    p = (d.scale(30030) - 1) * (d * d + 3)
    (found, cofactor), moduli = _lift_moduli(p)
    assert min(moduli) == 17 and all(m % 17 == 0 for m in moduli)
    assert found == [(F(1, 30030), 1)]
    assert cofactor == (d * d + 3).scale(30030)
    assert cofactor * (d - F(1, 30030)) == p


@settings(max_examples=40)
@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=5),
                min_size=1, max_size=4),
       st.lists(st.integers(1, 3), min_size=4, max_size=4),
       st.integers(-3, 3).filter(bool))
def test_square_free_part_keeps_each_root_once(roots, mults, scale):
    roots = sorted(set(roots))
    p = (from_roots([r for r, m in zip(roots, mults) for _ in range(m)])
         * UniPoly({2: F(1), 0: F(3)})).scale(scale)
    _, pairs = _cleared(p.terms)
    a = [0] * (p.degree() + 1)
    for e, n in pairs:
        a[e] = n
    free = UniPoly(dict(enumerate(_square_free_part(a))))
    expected = from_roots(roots) * UniPoly({2: F(1), 0: F(3)})
    assert free.degree() == expected.degree()
    assert free == expected.scale(free.coeff(free.degree()))


def test_zero_results_have_empty_terms():
    u = UniPoly({2: F(1), 1: F(-1)})                  # d^2 - d
    m = MultiPoly(("a", "b"), {(1, 0): F(1), (0, 1): F(-1, 2)})
    for f in (u, m):
        assert f.scale(0).terms == (f * 0).terms == (0 * f).terms == {}
        assert UniPoly({})(f).terms == {}
    assert u(UniPoly.const(1)).terms == {}             # Horner sums cancel
    assert u(MultiPoly.const(1, m.vars)).terms == {}


def test_shared_arithmetic_on_both_classes():
    xs = ("x1", "x2")
    f = MultiPoly(xs, {(1, 0): F(1), (0, 1): F(-1, 2)})
    assert repr(f ** 2 - 1) == "-1 + 1/4*x2^2 - x1*x2 + x1^2"
    assert repr(3 - f.scale(2)) == "3 + x2 - 2*x1"
    assert f * F(2) == f.scale(2) == f + f
    assert (f - f).is_zero() and (-f + f).is_zero()
    assert repr(-f) == "1/2*x2 - x1" and isinstance(-f, MultiPoly)
    p = UniPoly({2: F(-1), 0: F(1, 3)})
    assert repr(p ** 2 - 1) == "d^4 - 2/3*d^2 - 8/9"
    assert repr(2 - p.scale(3)) == "3*d^2 + 1"
    assert repr(-p) == "d^2 - 1/3" and isinstance(-p, UniPoly)
    assert repr(UniPoly({1: F(-1)})) == "-d"


def test_multipoly_basics():
    xs = ("x1", "x2")
    f = MultiPoly(xs, {(1, 0): F(1), (0, 1): F(1)})
    g = f * f
    assert g.coeff((1, 1)) == 2
    assert g.total_degree() == 2
    assert g.homogeneous_component(2) == g
    assert f.is_symmetric()
    assert not (f + variable("x1", xs)).is_symmetric()
    assert f.evaluate({"x1": 2, "x2": 3}) == 5


@settings(max_examples=60)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       _rationals(), max_size=5),
       st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       _rationals(), max_size=5),
       st.one_of(st.none(), st.integers(0, 7)),
       st.tuples(_rationals(3), _rationals(3)))
def test_multipoly_mul_truncated_is_pointwise(a, b, max_degree, point):
    xs = ("x1", "x2")
    pa, pb = MultiPoly(xs, a), MultiPoly(xs, b)
    product = pa.mul_truncated(pb, max_degree)
    assert all(product.terms.values())
    top = 12 if max_degree is None else max_degree   # 12 = 6 + 6, the widest product
    at = dict(zip(xs, point))
    assert product.evaluate(at) == sum(
        pa.homogeneous_component(i).evaluate(at)
        * pb.homogeneous_component(j).evaluate(at)
        for i in range(top + 1) for j in range(top + 1 - i))
    assert pa * pb == pa.mul_truncated(pb, None)


def test_multipoly_mul_truncated_edges():
    xs = ("x1", "x2")
    x1, x2 = variable("x1", xs), variable("x2", xs)
    # the x1*x2 terms cancel and leave no zero coefficient behind
    f, g = x1.scale(F(1, 2)) + x2.scale(F(1, 3)), x1.scale(F(1, 2)) - x2.scale(F(1, 3))
    assert f.mul_truncated(g, None).terms == {(2, 0): F(1, 4), (0, 2): F(-1, 9)}
    # x1^2*x2 has degree 3: kept at the bound, dropped one below it
    h = (1 + x1 * x2).scale(F(3, 4))
    assert h.mul_truncated(x1, 3) == (x1 + x1 * x1 * x2).scale(F(3, 4))
    assert h.mul_truncated(x1, 2) == x1.scale(F(3, 4))
    # an empty operand on either side
    zero = MultiPoly(xs)
    assert h.mul_truncated(zero, 3).is_zero()
    assert zero.mul_truncated(h, None).is_zero()


def test_multipoly_mul_truncated_checks_variables():
    a = MultiPoly(("x1", "x2"), {(1, 0): 1})
    with pytest.raises(ValueError, match="variable mismatch"):
        a.mul_truncated(MultiPoly(("y1", "y2"), {(0, 1): 1}), None)
    with pytest.raises(ValueError, match="variable mismatch"):
        a.mul_truncated(MultiPoly(("x1", "x2", "x3"), {(0, 0, 1): 1}), 2)
    with pytest.raises(ValueError, match="variable mismatch"):
        a * MultiPoly(("y1", "y2"), {(0, 1): 1})


def test_hash_agrees_with_eq():
    a, b = UniPoly.x("d"), UniPoly.x("v")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    for c in (3, F(-2, 7), 0):
        assert UniPoly.const(c) == c and hash(UniPoly.const(c)) == hash(c)
        m = MultiPoly.const(c, ("x1", "x2"))
        assert m == c and hash(m) == hash(c)
    assert len({UniPoly.const(3), 3}) == len({MultiPoly.const(3, ("x1",)), 3}) == 1
    p = MultiPoly(("x1", "x2"), {(1, 0): F(1, 2), (0, 1): 4})
    assert hash(p) == hash(MultiPoly(("x1", "x2"), dict(reversed(p.terms.items()))))
    # neither a polynomial nor a number: never equal
    for other in ("d", None):
        assert (a == other) is False and (p == other) is False


def test_multipoly_truncation():
    xs = ("x1",)
    f = MultiPoly(xs, {(0,): F(1), (1,): F(1)})
    p = f ** 5
    assert p.truncate(2) == f.mul_truncated(f, 2).mul_truncated(f, 2) \
        .mul_truncated(f, 2).mul_truncated(f, 2)
    assert p.truncate(0) == 1


def test_interpolate_exact():
    p = UniPoly({4: F(3, 7), 2: F(-1), 0: F(5)})
    pts = [(a, p(a)) for a in range(-1, 7)]
    assert interpolate(pts, 4) == p


def test_interpolate_guard_fires_on_wrong_bound():
    pts = [(a, F(a) ** 3) for a in range(5)]
    with pytest.raises(InconsistentDataError):
        interpolate(pts, 2)


@settings(max_examples=60)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=12))
@example([7])
@example([0, 0, 0, 0])
def test_interpolate_integers_matches_lagrange(values):
    # any integer values at 0..N are those of an integer-valued polynomial
    expected = interpolate(list(enumerate(values)), len(values) - 1, var="e")
    assert interpolate_integers(values, var="e") == expected
    assert interpolate_integers(values, var="e").var == "e"


def test_interpolate_duplicate_abscissa():
    with pytest.raises(ValueError, match="duplicate interpolation abscissas"):
        interpolate([(0, F(1)), (0, F(2))], 1)


def test_series_invert():
    xs = ("x1", "x2")
    one = MultiPoly.const(1, xs)
    f = one + variable("x1", xs) + variable("x2", xs)
    policy = TruncationPolicy(4)
    inv = series_invert(f, policy)
    assert f.mul_truncated(inv, 4) == one
    with pytest.raises(ValueError,
                       match="series inversion needs constant term 1"):
        series_invert(f * 2, policy)
