import random
import time
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from chernpol import exactcore
from chernpol.exactcore import (DuplicateAbscissaError, InconsistentDataError,
                                MultiPoly, NotInvertibleError,
                                TruncationPolicy, UniPoly, _divisors,
                                _is_prime, interpolate, series_invert)


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
    p = UniPoly.from_roots([1, 2, 3])
    assert p(1) == p(2) == p(3) == 0
    assert p(0) == -6
    assert UniPoly.from_roots([1, 3]) * UniPoly.from_roots([2]) == p
    assert p.rational_roots() == ([(F(1), 1), (F(2), 1), (F(3), 1)],
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
    p = UniPoly.from_roots([0, F(-1, 2), F(3, 4), F(3, 4), 2, -2]).scale(5)
    roots, cofactor = p.rational_roots()
    assert roots == [(0, 1), (F(-1, 2), 1), (2, 1), (-2, 1), (F(3, 4), 2)]
    assert p == cofactor * UniPoly.from_roots(
        [r for r, mult in roots for _ in range(mult)])
    assert cofactor == 5
    assert UniPoly({3: F(2)}).rational_roots() == ([(0, 3)], UniPoly.const(2))
    irreducible = UniPoly({2: F(1), 0: F(1)})
    assert irreducible.rational_roots() == ([], irreducible)
    with pytest.raises(ValueError):
        UniPoly({}).rational_roots()


@settings(max_examples=40)
@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                max_size=5),
       st.integers(1, 5), st.integers(-3, 3).filter(bool))
def test_rational_roots_finds_every_root(roots, c, scale):
    # (d^2 + c) has no rational root
    p = (UniPoly.from_roots(roots) * UniPoly({2: F(1), 0: F(c)})).scale(scale)
    found, cofactor = p.rational_roots()
    found = [r for r, m in found for _ in range(m)]
    assert sorted(found) == sorted(roots)
    assert p == cofactor * UniPoly.from_roots(found)


def _trial_prime(n):
    return n > 1 and all(n % p for p in range(2, int(n ** 0.5) + 1))


def test_divisors_match_bruteforce(monkeypatch):
    # at the usual trial-division limit, and with none, where Pollard's rho
    # and Miller-Rabin alone factor every n
    for limit in (exactcore._TRIAL_LIMIT, 2):
        monkeypatch.setattr(exactcore, "_TRIAL_LIMIT", limit)
        for n in range(1, 3001):
            assert _divisors(n) == _divisors(-n) == [
                i for i in range(1, n + 1) if n % i == 0]
    monkeypatch.undo()
    # two prime factors far beyond the trial-division limit
    rng = random.Random(12)
    primes = []
    while len(primes) < 8:
        q = rng.randrange(10 ** 7, 10 ** 8) | 1
        if _trial_prime(q):
            primes.append(q)
    for p, q in zip(primes[::2], primes[1::2]):
        assert _divisors(p * q) == sorted([1, p, q, p * q])
        assert _divisors(p * p * q) == sorted(
            [1, p, q, p * p, p * q, p * p * q])
    # too large to scan: the list is every divisor iff its entries are
    # distinct divisors and there are prod(k_i + 1) of them
    rng = random.Random(0)
    primes = (2, 3, 5, 7, 11, 13, 1000003)
    for _ in range(200):
        powers = [rng.randint(0, 5) for _ in primes[:-1]] + [rng.randint(0, 1)]
        n = prod(p ** k for p, k in zip(primes, powers))
        divs = _divisors(n)
        assert divs == sorted(set(divs))
        assert all(n % d == 0 for d in divs)
        assert len(divs) == prod(k + 1 for k in powers)


def test_miller_rabin_is_exact():
    assert [n for n in range(2, 20000) if _is_prime(n)] == [
        n for n in range(2, 20000) if _trial_prime(n)]
    # the least strong pseudoprimes to the first 7, 9 and 12 prime bases
    for n in (341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(2 ** 61 - 1)


def test_rational_roots_of_two_large_prime_factors():
    # trial division up to the square root of 10^18 would take minutes
    n = 1000000007 * 998244353
    start = time.perf_counter()
    roots = UniPoly({1: 1, 0: -n}).rational_roots()
    assert time.perf_counter() - start < 1
    assert roots == ([(F(n), 1)], 1)


def test_rational_roots_with_a_huge_constant_term():
    # the constant term -9 * 2^64 * 3^40 has small prime factors only, so
    # its divisors come from its factorisation, not a scan up to its root
    d = UniPoly.x()
    irreducible = d * d + 2 ** 64 * 3 ** 40
    p = (d - 1) * (d.scale(2) + 3) ** 2 * irreducible
    roots, cofactor = p.rational_roots()
    assert roots == [(1, 1), (F(-3, 2), 2)]
    assert cofactor == irreducible.scale(4)
    assert p == cofactor * UniPoly.from_roots([1, F(-3, 2), F(-3, 2)])


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
    assert (f - f).is_zero()
    p = UniPoly({2: F(-1), 0: F(1, 3)})
    assert repr(p ** 2 - 1) == "d^4 - 2/3*d^2 - 8/9"
    assert repr(2 - p.scale(3)) == "3*d^2 + 1"
    assert repr(UniPoly({1: F(-1)})) == "-d"


def test_multipoly_basics():
    xs = ("x1", "x2")
    f = MultiPoly(xs, {(1, 0): F(1), (0, 1): F(1)})
    g = f * f
    assert g.coeff((1, 1)) == 2
    assert g.total_degree() == 2
    assert g.homogeneous_component(2) == g
    assert f.is_symmetric()
    assert not (f + MultiPoly.var("x1", xs)).is_symmetric()
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
    x1, x2 = MultiPoly.var("x1", xs), MultiPoly.var("x2", xs)
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


def test_multipoly_truncation():
    xs = ("x1",)
    f = MultiPoly(xs, {(0,): F(1), (1,): F(1)})
    p = f ** 5
    assert p.truncate(2) == f.mul_truncated(f, 2).mul_truncated(f, 2) \
        .mul_truncated(f, 2).mul_truncated(f, 2)
    assert p.truncate(TruncationPolicy(0)) == 1


def test_multipoly_substitute_and_json():
    xs = ("x1", "x2")
    f = MultiPoly(xs, {(2, 0): F(1), (0, 1): F(3)})
    assert MultiPoly.from_json(f.to_json(), xs) == f


def test_interpolate_exact():
    p = UniPoly({4: F(3, 7), 2: F(-1), 0: F(5)})
    pts = [(a, p(a)) for a in range(-1, 7)]
    assert interpolate(pts, 4) == p


def test_interpolate_guard_fires_on_wrong_bound():
    pts = [(a, F(a) ** 3) for a in range(5)]
    with pytest.raises(InconsistentDataError):
        interpolate(pts, 2)


def test_interpolate_duplicate_abscissa():
    with pytest.raises(DuplicateAbscissaError):
        interpolate([(0, F(1)), (0, F(2))], 1)


def test_series_invert():
    xs = ("x1", "x2")
    one = MultiPoly.const(1, xs)
    f = one + MultiPoly.var("x1", xs) + MultiPoly.var("x2", xs)
    policy = TruncationPolicy(4)
    inv = series_invert(f, policy)
    assert f.mul_truncated(inv, 4) == one
    with pytest.raises(NotInvertibleError):
        series_invert(f * 2, policy)
