import itertools
import random
from fractions import Fraction as F
from math import comb, factorial

import pytest

from chernpol.chern import odd_spec
from chernpol.exactcore import MultiPoly, TruncationPolicy, UniPoly
from chernpol.rising import (InvalidBoundError, OutOfDomainError,
                             RisingProductSpec, check_weight_bound,
                             degree_bound, direct_rising_oracle,
                             leading_coefficient, mult_factorial,
                             simple_coefficient, stirling_coefficient,
                             vector_partitions)
from chernpol.specialization import (M_plain, M_tilde, stirling_first,
                                     stirling_second)

from polyhelpers import variable


D = UniPoly.x("d")


def spec_stirling_first():
    """prod_{t=0}^d (1 + t x)."""
    return RisingProductSpec.single("d", {((1,), 1): 1}, D, 1)


def spec_binomial():
    """prod_{t=0}^d (1 + x) = (1+x)^(d+1)."""
    return RisingProductSpec.single("d", {((1,), 0): 1}, D, 1)


def spec_stirling_second(A=4):
    """prod_{t=0}^d (1 + t x + t^2 x^2 + ... + t^A x^A)."""
    return RisingProductSpec.single(
        "d", {((a,), a): 1 for a in range(1, A + 1)}, D, 1)


def spec_two_vars():
    """prod_{t=0}^d (1 + t x1 + t^2 x2)."""
    return RisingProductSpec.single(
        "d", {((1, 0), 1): 1, ((0, 1), 2): 1}, D, 2)


def spec_two_params():
    """prod_{t=0}^{d0+d1} of a table whose entries depend on d0 and d1."""
    params = ("d0", "d1")
    d0, d1 = (variable(p, params) for p in params)
    table = {((1, 0), 0): d0 + 1, ((1, 0), 1): d1,
             ((0, 1), 1): d0 * 2 - d1, ((0, 1), 2): -1,
             ((2, 0), 2): 1, ((1, 1), 0): d0 * d1 - 1}
    return RisingProductSpec(params, table, d0 + d1, 2)


# ---------------------------------------------------------------------------
# vector partitions
# ---------------------------------------------------------------------------

def test_vector_partitions_example():
    got = vector_partitions((2, 0, 1))
    expected = [
        ((2, 0, 1),),
        ((2, 0, 0), (0, 0, 1)),
        ((1, 0, 1), (1, 0, 0)),
        ((1, 0, 0), (1, 0, 0), (0, 0, 1)),
    ]
    assert sorted(got) == sorted(expected)
    assert len(got) == len(set(got))


def test_vector_partitions_scalar_case():
    # for a 1-vector these are ordinary partitions: p(n) = 1,1,2,3,5,7,11
    for n, cnt in enumerate([1, 1, 2, 3, 5, 7, 11]):
        assert len(vector_partitions((n,))) == cnt


def test_vector_partitions_blocks_sum_back():
    for H in [(2, 2), (3, 1), (1, 1, 1), (2, 0, 2)]:
        for J in vector_partitions(H):
            assert tuple(sum(col) for col in zip(*J)) == H
            assert all(any(b) for b in J)


def test_mult_factorial():
    assert mult_factorial(((1, 0), (1, 0), (0, 1))) == 2
    assert mult_factorial(((1,), (1,), (1,))) == 6
    assert mult_factorial(((2,), (1,))) == 1
    assert mult_factorial(()) == 1


# ---------------------------------------------------------------------------
# named examples against closed forms
# ---------------------------------------------------------------------------

def test_stirling_first_spec():
    spec = spec_stirling_first()
    for h in range(0, 6):
        p = spec._unipoly(stirling_coefficient(spec, (h,)))
        for d in range(0, 13):
            assert p(d) == stirling_first(d + 1, d + 1 - h), (h, d)


def test_binomial_spec():
    spec = spec_binomial()
    for h in range(0, 6):
        p = spec._unipoly(stirling_coefficient(spec, (h,)))
        for d in range(0, 10):
            assert p(d) == comb(d + 1, h), (h, d)


def test_stirling_second_spec():
    # coefficient of x^a in prod (1 + tx + ... + (tx)^A) equals S(d+a, d)
    # whenever a <= A (higher powers of x cannot contribute)
    spec = spec_stirling_second(A=4)
    for a in range(1, 5):
        p = spec._unipoly(stirling_coefficient(spec, (a,)))
        for d in range(0, 9):
            assert p(d) == stirling_second(d + a, d), (a, d)


# ---------------------------------------------------------------------------
# formula vs direct expansion
# ---------------------------------------------------------------------------

def _compare_with_oracle(spec, trunc, d_range):
    policy = TruncationPolicy(trunc)
    for d in d_range:
        direct = direct_rising_oracle(spec, (d,), policy)
        # every H of total degree <= trunc
        for w in range(trunc + 1):
            for H in itertools.product(range(w + 1), repeat=spec.nx):
                if sum(H) != w:
                    continue
                formula = stirling_coefficient(spec, H).evaluate({"d": d})
                assert formula == direct.terms.get(H, F(0)), (H, d)


def test_formula_matches_oracle_examples():
    _compare_with_oracle(spec_stirling_first(), 4, range(0, 7))
    _compare_with_oracle(spec_binomial(), 4, range(0, 7))
    _compare_with_oracle(spec_stirling_second(3), 4, range(0, 7))
    _compare_with_oracle(spec_two_vars(), 4, range(0, 7))


def _random_spec(rng):
    nx = rng.choice([1, 2])
    table = {}
    exps = [(1,), (2,)] if nx == 1 else [(1, 0), (0, 1), (2, 0), (1, 1)]
    for E in exps:
        for m in range(0, 3):
            if rng.random() < 0.4:
                c = UniPoly({e: F(rng.randint(-3, 3))
                             for e in range(rng.randint(1, 2))}, var="d")
                if not c.is_zero():
                    table[(E, m)] = c
    if not table:
        table[(exps[0], 1)] = UniPoly.const(1, var="d")
    K = D + rng.choice([-1, 0, 1])
    return RisingProductSpec.single("d", table, K, nx)


def test_formula_matches_oracle_two_params():
    # composing M_tilde(lambda) with a multivariate K
    spec = spec_two_params()
    policy = TruncationPolicy(3)
    for d0, d1 in [(0, 0), (1, 0), (0, 2), (2, 1), (3, 2), (1, 4), (2, -3)]:
        direct = direct_rising_oracle(spec, (d0, d1), policy)
        for H in itertools.product(range(4), repeat=2):
            if sum(H) <= 3:
                formula = stirling_coefficient(spec, H).evaluate(
                    {"d0": d0, "d1": d1})
                assert formula == direct.terms.get(H, F(0)), (H, d0, d1)


def test_formula_composes_no_M_tilde(monkeypatch):
    # the Newton form evaluates sum_j G_j C(K, j) once: no UniPoly is
    # composed with K, for one or two parameters
    cases = [(odd_spec(), H) for H in [(0, 0), (3, 2), (5, 4)]] + \
        [(spec_two_params(), H) for H in [(2, 1), (1, 3)]]
    expected = [vector_partition_sum(spec, H) for spec, H in cases]

    def forbidden(self, value):
        raise AssertionError("UniPoly.__call__ ran")

    monkeypatch.setattr(UniPoly, "__call__", forbidden)
    for (spec, H), want in zip(cases, expected):
        assert stirling_coefficient(spec, H) == want, H


def test_formula_matches_oracle_random():
    rng = random.Random(20240817)
    for _ in range(20):
        spec = _random_spec(rng)
        _compare_with_oracle(spec, 3, range(0, 7))


def vector_partition_sum(spec, H):
    """The paper's sum as written: over every vector partition J of H and
    every ordered tuple lambda in the product of the supports of its
    blocks, 1/mult(J)! * prod_s P_{J_s, lambda_s} * M_tilde(lambda)(K),
    with the table products summed per sorted lambda before composing."""
    grouped = {}
    for J in vector_partitions(H):
        for lam in itertools.product(*[spec.support(b) for b in J]):
            coeff = MultiPoly.const(F(1, mult_factorial(J)), spec.params)
            for b, m in zip(J, lam):
                coeff = coeff * spec.table[(b, m)]
            key = tuple(sorted(lam, reverse=True))
            grouped[key] = grouped.get(key, 0) + coeff
    return sum((c * M_tilde(lam)(spec.K) for lam, c in grouped.items()),
               MultiPoly.const(0, spec.params))


def _exponents(nx, top):
    return [H for H in itertools.product(range(top + 1), repeat=nx)
            if sum(H) <= top]


def test_formula_matches_vector_partition_sum():
    rng = random.Random(20240817)
    cases = ([(odd_spec(), H) for H in _exponents(2, 8)]
             + [(spec_two_params(), H) for H in _exponents(2, 4)]
             + [(spec, H) for spec in (_random_spec(rng) for _ in range(20))
                for H in _exponents(spec.nx, 4)])
    for spec, H in cases:
        assert repr(stirling_coefficient(spec, H)) == \
            repr(vector_partition_sum(spec, H)), (spec.table, H)


def test_stirling_coefficient_needs_no_vector_partitions(monkeypatch):
    from chernpol import rising

    def refuse(H):
        raise AssertionError("vector_partitions called")

    expected = vector_partition_sum(odd_spec(), (3, 2))
    monkeypatch.setattr(rising, "vector_partitions", refuse)
    assert stirling_coefficient(odd_spec(), (3, 2)) == expected


def test_empty_product_and_domain():
    spec = RisingProductSpec.single("d", {((1,), 1): 1}, D - 1, 1)
    out = direct_rising_oracle(spec, (0,), TruncationPolicy(3))
    assert out == MultiPoly.const(1, ("x1",))  # K = -1: empty product
    with pytest.raises(OutOfDomainError):
        direct_rising_oracle(spec, (-1,), TruncationPolicy(3))


# ---------------------------------------------------------------------------
# the multinomial shortcut for simple products
# ---------------------------------------------------------------------------

def test_simple_coefficient_worked_example():
    E = (0, 0, 1, 1, 3, 3, 3, 4)
    H = (1, 2, 1, 3, 1, 1, 2, 5)
    multinom, lam = simple_coefficient(E, H)
    assert multinom == comb(4, 1) * (factorial(4) // (1 * 1 * 2)) * 1 == 48
    assert lam == (4,) * 5 + (3,) * 4 + (1,) * 4 + (0,) * 3


def test_simple_coefficient_requires_nonzero_H():
    with pytest.raises(ValueError):
        simple_coefficient((1, 2), (1, 0))


def test_simple_coefficient_agrees_with_formula():
    # P = 1 + t^{E_1} x_1 + ... : table {(unit_s, E_s): 1}
    for E in [(1,), (2,), (0, 1), (1, 1), (1, 2), (0, 2, 2)]:
        nx = len(E)
        table = {(tuple(1 if j == s else 0 for j in range(nx)), E[s]): 1
                 for s in range(nx)}
        spec = RisingProductSpec.single("d", table, D, nx)
        for H in itertools.product(range(1, 3), repeat=nx):
            sc = spec._unipoly(stirling_coefficient(spec, H))
            multinom, lam = simple_coefficient(E, H)
            shortcut = M_plain(lam).scale(multinom)
            for d in range(len(lam) - 1, len(lam) + 5):
                assert sc(d) == shortcut(d), (E, H, d)


# ---------------------------------------------------------------------------
# degree bounds and leading coefficients
# ---------------------------------------------------------------------------

def test_check_weight_bound():
    spec = spec_stirling_first()
    check_weight_bound(spec, (1,))
    with pytest.raises(InvalidBoundError):
        check_weight_bound(spec, (0,))
    quad_K = RisingProductSpec.single("d", {((1,), 1): 1}, D * D, 1)
    with pytest.raises(InvalidBoundError):
        check_weight_bound(quad_K, (1,))


def test_degree_bound_and_leading_stirling_first():
    spec = spec_stirling_first()
    for h in range(1, 5):
        p = spec._unipoly(stirling_coefficient(spec, (h,)))
        bound = degree_bound(spec, (1,), (h,))
        assert bound == 2 * h
        assert p.degree() == bound
        assert p.coeff(bound) == leading_coefficient(spec, (1,), (h,))
        assert leading_coefficient(spec, (1,), (h,)) == \
            F(1, 2) ** h / factorial(h)


def test_degree_bound_and_leading_two_vars():
    spec = spec_two_vars()
    for H in [(1, 0), (0, 1), (2, 1), (1, 2)]:
        p = spec._unipoly(stirling_coefficient(spec, H))
        bound = degree_bound(spec, (1, 2), H)
        assert bound == H[0] + 2 * H[1] + H[0] + H[1]
        assert p.degree() == bound
        assert p.coeff(bound) == leading_coefficient(spec, (1, 2), H)


def test_leading_empty_H_is_one():
    spec = spec_stirling_first()
    assert leading_coefficient(spec, (1,), (0,)) == 1
    assert degree_bound(spec, (1,), (0,)) == 0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_spec_json_roundtrip():
    spec = spec_two_vars()
    back = RisingProductSpec.from_json(spec.to_json())
    assert back.table == spec.table
    assert back.K == spec.K
    assert back.nx == spec.nx


def test_spec_rejects_zero_exponent_vector():
    with pytest.raises(ValueError):
        RisingProductSpec.single("d", {((0,), 1): 1}, D, 1)
