"""Rising products and their Stirling coefficients: vector partitions, the
coefficient formula through specializations of augmented monomial symmetric
polynomials, the special-form multinomial shortcut, weight bounds and leading
coefficients, and a brute-force product oracle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, lcm
from operator import mul

from .exactcore import (OutOfDomainError, TruncationPolicy, UniPoly,
                        _rebuilt, as_natural, forward_differences, naturals,
                        unique_keys, xvars)
from .multipoly import MultiPoly
from .specialization import M_tilde_values
from .symfunc import dominance_key, mult_factorial


# ---------------------------------------------------------------------------
# vector partitions
# ---------------------------------------------------------------------------

def vector_partitions(H) -> list[tuple]:
    """All multiset partitions of the vector H into nonzero vectors,
    blocks listed weakly decreasing in graded-lex order."""
    H = naturals(H, "an entry of H")

    def blocks_below(rem, ceiling):
        ranges = [range(r, -1, -1) for r in rem]
        out = [b for b in itertools.product(*ranges)
               if any(b) and dominance_key(b) <= dominance_key(ceiling)]
        out.sort(key=dominance_key, reverse=True)
        return out

    def rec(rem, ceiling):
        if not any(rem):
            yield ()
            return
        for b in blocks_below(rem, ceiling):
            sub = tuple(r - x for r, x in zip(rem, b))
            for rest in rec(sub, b):
                yield (b,) + rest

    return list(rec(H, H))


# ---------------------------------------------------------------------------
# rising product specifications
# ---------------------------------------------------------------------------

class RisingProductSpec:
    """A finitely supported coefficient table P_{E,m}(d) together with the
    integer-valued bound polynomial K(d).

    ``params`` are the parameter names (d_0, ..., d_r), distinct
    identifiers; coefficients and K are MultiPoly over the parameters, and
    may be given as a number or, with one parameter, as a UniPoly in it.
    ``nx`` is the number of x-variables.  K must be an integer at every
    a in N^(r+1) with |a| <= deg K, which makes it integer-valued: its
    Newton coefficients are integer combinations of those values.
    """

    def __init__(self, params, table, K, nx: int):
        self.params = tuple(params)
        if len(set(self.params)) != len(self.params) or not all(
                isinstance(p, str) and p.isidentifier() for p in self.params):
            raise ValueError(f"parameter names must be distinct identifiers,"
                             f" not {list(self.params)!r}")
        self.nx = as_natural(nx, "nx")
        self.table: dict[tuple, MultiPoly] = {}
        for (E, m), coeff in table.items():
            E = naturals(E, "an entry of E")
            m = as_natural(m, "m")
            if len(E) != self.nx:
                raise ValueError("exponent vector length mismatch")
            if not any(E):
                raise ValueError("P(d, t, 0) = 1: the table may not contain E = 0")
            coeff = self._coerce(coeff)
            if not coeff.is_zero():
                self.table[(E, m)] = coeff
        self.K = self._coerce(K)
        # a point a with |a| <= deg K: deg K picks among the parameters and
        # one slack
        for picks in itertools.combinations_with_replacement(
                range(len(self.params) + 1), self.K.total_degree() or 0):
            point = [picks.count(i) for i in range(len(self.params))]
            value = self.K.evaluate(dict(zip(self.params, point)))
            if value.denominator != 1:
                raise ValueError(f"K must be integer-valued, but K"
                                 f"({', '.join(map(str, point))}) = {value}")

    def _coerce(self, c) -> MultiPoly:
        if isinstance(c, MultiPoly):
            if c.vars != self.params:
                raise ValueError("parameter mismatch")
            return c
        if isinstance(c, UniPoly):
            if self.params != (c.var,):
                raise ValueError("parameter mismatch")
            return MultiPoly(self.params,
                             {(e,): v for e, v in c.terms.items()})
        return MultiPoly.const(c, self.params)

    def support(self, E: tuple) -> list[int]:
        """I_P(E): the t-exponents m with a nonzero table entry at E."""
        E = tuple(E)
        return sorted(m for (e, m) in self.table if e == E)

    # -- single-parameter helper ---------------------------------------
    def _unipoly(self, p: MultiPoly) -> UniPoly:
        if len(self.params) != 1:
            raise ValueError("single-parameter spec required")
        return UniPoly({ev[0]: c for ev, c in p.terms.items()},
                       var=self.params[0])

    # -- serialization (single parameter) -------------------------------
    def to_json(self) -> dict:
        return {
            "params": list(self.params),
            "nx": self.nx,
            "K": self._unipoly(self.K).to_json(),
            "table": [[list(E), m, self._unipoly(c).to_json()]
                      for (E, m), c in sorted(self.table.items())],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RisingProductSpec":
        params = data["params"]
        if not isinstance(params, list) or len(params) != 1:
            raise ValueError(f"a spec file has exactly one parameter: params"
                             f" must be a list of one name, not {params!r}")
        (param,) = params
        if data["nx"] == 0:     # no --type has length 0
            raise ValueError("a spec file has at least one x-variable: nx"
                             " must be >= 1, not 0")
        table = unique_keys((((tuple(E), m), UniPoly.from_json(c, var=param))
                             for E, m, c in data["table"]), "table key")
        return cls((param,), table, UniPoly.from_json(data["K"], var=param),
                   data["nx"])


# ---------------------------------------------------------------------------
# the Stirling coefficient formula
# ---------------------------------------------------------------------------

def _block_multiplicities(Es: list, H: tuple):
    """Every tuple r of non-negative integers with sum_i r_i * Es[i] = H."""
    if not Es:
        if not any(H):
            yield ()
        return
    r, rem = 0, H
    while min(rem) >= 0:
        for rest in _block_multiplicities(Es[1:], rem):
            yield (r,) + rest
        r, rem = r + 1, tuple(h - e for h, e in zip(rem, Es[0]))


def stirling_coefficient(spec: RisingProductSpec, H) -> MultiPoly:
    """The coefficient of x^H of the rising product, as a polynomial in the
    parameters: the paper's sum over vector partitions J of H and tuples
    lambda in the product of the table supports of

        1/mult(J)! * prod_s P_{J_s, lambda_s}(d) * M_tilde(lambda)(K(d)).

    A block outside the table has empty support, so J runs over the
    multiplicities r_E >= 0 of the table's exponent vectors E with
    sum_E r_E * E = H; the r_E blocks at E give, over counts k_m with
    sum_m k_m = r_E, the products prod_m P_{E,m}^{k_m} / k_m!.  These are
    summed per sorted lambda, on which alone M_tilde(lambda) depends.

    M_tilde(lambda) is integer-valued, so M_tilde(lambda)(v) = sum_j
    Delta^j_lambda C(v, j) with integer forward differences at 0 of its
    M_tilde_values, and the sum is sum_j G_j C(K, j) with G_j = sum_lambda
    Delta^j_lambda * coeff_lambda, accumulated on integer numerators over
    one common denominator and evaluated by one Newton-form Horner pass,
    t = G_J, then t = t * (K - j) / (j + 1) + G_j for j = J-1, ..., 0.
    """
    H = naturals(H, "an entry of H")
    if len(H) != spec.nx:
        raise ValueError("H must have length nx")
    if not spec.K.total_degree() and spec.K.constant_term() < -1:
        # no parameter value gives the product prod_{t=0}^{K} a meaning
        raise OutOfDomainError("K(params) < -1")
    Es = sorted({E for E, _ in spec.table})
    one = MultiPoly.const(1, spec.params)

    @lru_cache(maxsize=None)
    def blocks(E, r):
        # [(the r parts m, ascending; prod_m P_{E,m}^{k_m} / k_m!)]
        return [(ms, reduce(mul, [spec.table[(E, m)] for m in ms]).scale(
                    Fraction(1, mult_factorial(ms))))
                for ms in itertools.combinations_with_replacement(
                    spec.support(E), r)]

    grouped: dict[tuple, MultiPoly] = {}
    for rs in _block_multiplicities(Es, H):
        for picks in itertools.product(
                *[blocks(E, r) for E, r in zip(Es, rs) if r]):
            coeff = reduce(mul, [c for _, c in picks] or [one])
            key = tuple(sorted(itertools.chain(*[ms for ms, _ in picks]),
                               reverse=True))
            grouped[key] = grouped[key] + coeff if key in grouped else coeff
    grouped = {lam: c for lam, c in grouped.items() if not c.is_zero()}
    values = M_tilde_values(grouped)
    D = lcm(*[c.denominator for coeff in grouped.values()
              for c in coeff.terms.values()])
    G: list[dict] = []      # G[j]: {exponent vector: numerator over D}
    for lam, coeff in grouped.items():
        diffs = forward_differences(values[lam])
        G.extend({} for _ in range(len(diffs) - len(G)))
        for ev, c in coeff.terms.items():
            num = c.numerator * (D // c.denominator)
            for g, delta in zip(G, diffs):
                if delta:
                    g[ev] = g.get(ev, 0) + delta * num
    total = MultiPoly.const(0, spec.params)
    for j in range(len(G) - 1, -1, -1):
        total = ((total * (spec.K - j)).scale(Fraction(1, j + 1))
                 + MultiPoly(spec.params, _rebuilt(G[j], D)))
    return total


def simple_coefficient(E, H) -> tuple[int, tuple]:
    """For the special product P = 1 + sum_s y^{E_s} x_s: the pair
    (product of multinomial coefficients over the nonzero exponent groups,
    weak partition lambda) whose product with m_lambda(y_0..y_v) is the
    coefficient of x^H.  All H_s must be nonzero."""
    E, H = naturals(E, "an entry of E"), naturals(H, "an entry of H")
    if len(E) != len(H):
        raise ValueError("E and H must have equal length")
    if any(h == 0 for h in H):
        raise ValueError("all H_s must be nonzero")
    groups: dict[int, list[int]] = {}
    for e, h in zip(E, H):
        groups.setdefault(e, []).append(h)
    multinom = 1
    lam_parts = []
    for j, hs in groups.items():
        if j != 0:
            m = factorial(sum(hs))
            for h in hs:
                m //= factorial(h)
            multinom *= m
        lam_parts.extend([j] * sum(hs))
    return multinom, tuple(sorted(lam_parts, reverse=True))


# ---------------------------------------------------------------------------
# weight bounds and leading coefficients
# ---------------------------------------------------------------------------

def check_weight_bound(spec: RisingProductSpec, W) -> None:
    """Require deg(P_E(d, t)) <= W(E) for every table entry."""
    W = naturals(W, "an entry of W")
    if len(W) != spec.nx:
        raise ValueError("W must have length nx")
    for (E, m), coeff in spec.table.items():
        bound = sum(w * e for w, e in zip(W, E))
        if coeff.total_degree() + m > bound:      # the degree of P_{E,m} t^m
            raise ValueError(
                f"table entry at E={E}, m={m} violates the linear bound")
    if spec.K.total_degree() not in (None, 0, 1):
        raise ValueError("bound polynomial K must be linear")


def leading_coefficient(spec: RisingProductSpec, W, H) -> Fraction:
    """Predicted coefficient of d^(W(H)+|H|) in the Stirling coefficient:

        1/H! * prod_i ( sum_m coef(d^{W(1_i)-m}, P_{1_i,m}) / (1+m) )^{H_i}

    (sharp exactly when every inner sum is nonzero).  Single-parameter specs
    with monic linear K only.
    """
    W, H = naturals(W, "an entry of W"), naturals(H, "an entry of H")
    if len(H) != spec.nx:
        raise ValueError("H must have length nx")
    check_weight_bound(spec, W)
    K = spec._unipoly(spec.K)
    if K.degree() != 1 or K.coeff(1) != 1:
        raise ValueError("K must be monic linear for the leading coefficient")
    out = Fraction(1)
    for i, h in enumerate(H):
        if h == 0:
            continue
        unit = tuple(1 if j == i else 0 for j in range(spec.nx))
        acc = Fraction(0)
        for m in spec.support(unit):
            p = spec._unipoly(spec.table[(unit, m)])
            target = W[i] - m
            acc += p.coeff(target) / (1 + m)
        out *= acc ** h / factorial(h)
    return out


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def direct_rising_oracle(spec: RisingProductSpec, params,
                         policy: TruncationPolicy) -> MultiPoly:
    """Expand prod_{t=0}^{K(params)} P(params, t, x) directly, truncated.
    K(params) = -1 yields 1."""
    if len(params) != len(spec.params):
        raise ValueError("params must have one value per parameter")
    values = dict(zip(spec.params, params))
    k0 = spec.K.evaluate(values)
    if k0.denominator != 1:
        raise OutOfDomainError("K must evaluate to an integer")
    k0 = k0.numerator
    if k0 < -1:
        raise OutOfDomainError("K(params) < -1")
    xs = xvars(spec.nx)
    out = MultiPoly.const(1, xs)
    for t in range(k0 + 1):
        factor_terms = {(0,) * spec.nx: Fraction(1)}
        for (E, m), coeff in spec.table.items():
            c = coeff.evaluate(values) * Fraction(t) ** m
            if c:
                factor_terms[E] = factor_terms.get(E, Fraction(0)) + c
        factor = MultiPoly(xs, factor_terms)
        out = out.mul_truncated(factor, policy.max_total_degree)
    return out
