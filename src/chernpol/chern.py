"""Total Chern class of the space of degree-d forms in n variables: the
direct product over the weight simplex at a concrete d, the c_k coefficients
in closed form as polynomials in d in any symmetric-function basis, the
closed Stirling-number formula for the n=2 Euler class, the odd-d grouped
elementary-basis coefficients, and leading-term predictions.

Closed form: c_k is the k-th elementary symmetric function of the forms w.x,
|w| = d.  Their power sums p_j = sum over |alpha| = j of j!/alpha! *
simplex_moment(alpha) * x^alpha are polynomial in d, so c_k is too, by
Newton's identities m*c_m = sum_j (-1)^(j-1) p_j c_{m-j} (Macdonald, I.2).
The recursion runs over partitions: p_j and c_m are symmetric, kept as
{partition: polynomial in d}, and m*c_m[nu] = sum over 0 != alpha <= nu of
(-1)^(|alpha|-1) p_|alpha|[sort alpha] c_(m-|alpha|)[sort(nu-alpha)].
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, prod
from operator import sub

from .exactcore import (MultiPoly, OutOfDomainError, TruncationPolicy, UniPoly,
                        xvars)
from .symfunc import (BASES, check_partition, convert_expansion,
                      enumerate_partitions, multiplicities, partition_of,
                      syt_count, validate_basis_index)

# rising and specialization are imported inside the functions that use them,
# so that reading a cached ChernPolynomial loads neither

FORMAT_VERSION = "chernpol-cache-2"


def check_degree(d, n: int | None = None) -> None:
    """c(Pol^d(C^n)) is defined for d >= -1 (d = -1 is the empty product);
    for n = 1 its polynomials hold only for d >= 0 (c_1 = d)."""
    if d < -1 or (n == 1 and d < 0):
        raise OutOfDomainError("d must be >= 0 for n = 1" if n == 1
                               else "d must be >= -1")


def weight_vectors(n: int, d: int):
    """Lattice points of the d-dilated standard simplex in N^n (odometer)."""
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in weight_vectors(n - 1, d - first):
            yield (first,) + rest


_direct_cache: dict = {}


def chern_direct(n: int, d: int, policy: TruncationPolicy) -> MultiPoly:
    """prod over (d_1..d_n) with sum d of (1 + d_1 x_1 + ... + d_n x_n),
    truncated.  d = -1 gives 1 (empty product); d = 0 gives 1."""
    check_degree(d)
    key = (n, d, policy.max_total_degree)
    if key in _direct_cache:
        return _direct_cache[key]
    out = MultiPoly.const(1, xvars(n))
    if d >= 1:
        for weights in weight_vectors(n, d):
            out = out.mul_truncated(MultiPoly.linear_factor(weights),
                                    policy.max_total_degree)
    _direct_cache[key] = out
    return out


class ChernPolynomial:
    """Coefficients of c_k as polynomials in d, in one basis."""

    def __init__(self, n: int, k: int, basis: str, terms: dict | None = None,
                 samples: list | None = None):
        self.n, self.k, self.basis = n, k, basis
        # partition -> UniPoly in d
        self.terms = {} if terms is None else terms
        # always []; kept for readers of the cache and the benchmark trace
        self.samples = [] if samples is None else samples

    def _key(self) -> tuple:
        return self.n, self.k, self.basis, self.terms, self.samples

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        return ("ChernPolynomial(n={!r}, k={!r}, basis={!r}, terms={!r}, "
                "samples={!r})".format(*self._key()))

    def evaluate(self, d) -> dict:
        """{partition: Fraction} at a concrete d >= -1 (d >= 0 for n = 1)."""
        check_degree(d, self.n)
        return {lam: p(Fraction(d)) for lam, p in self.terms.items()}

    def in_basis(self, basis: str) -> "ChernPolynomial":
        if basis == self.basis:
            return self
        terms = convert_expansion(self.terms, self.basis, basis, self.n)
        return ChernPolynomial(self.n, self.k, basis, terms)

    def divisibility_roots(self) -> list:
        """The simple roots -1, 0, ..., d0(k)-1 of every coefficient, with
        d0(k) minimal such that the weight simplex has at least k points; c_1
        also vanishes at 0.  For n = 1 the simplex is one point for every d,
        c_1 = d and c_k = 0 for k >= 2, so the only root is 0."""
        if self.k == 0:
            return []
        if self.n == 1:
            return [0]
        d0 = 0
        while comb(d0 + self.n - 1, self.n - 1) < self.k:
            d0 += 1
        roots = list(range(-1, d0))
        if self.k == 1 and 0 not in roots:
            roots.append(0)
        return roots

    def divisibility_factor(self) -> UniPoly:
        """(d+1)d(d-1)...(d-(d0(k)-1)), the product over divisibility_roots."""
        return UniPoly.from_roots(self.divisibility_roots(), var="d")

    def divisibility_ok(self) -> bool:
        """Is every coefficient divisible by the factor?  Its roots are
        simple, so that is every coefficient vanishing at each of them."""
        roots = self.divisibility_roots()
        return all(p(r) == 0 for p in self.terms.values() for r in roots)

    def to_json(self) -> dict:
        return {
            "format": FORMAT_VERSION,
            "n": self.n, "k": self.k, "basis": self.basis,
            "samples": list(self.samples),
            "terms": [[list(lam), p.to_json()]
                      for lam, p in sorted(self.terms.items())],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChernPolynomial":
        if data.get("format") != FORMAT_VERSION:
            raise ValueError("stale cache format")
        terms = {tuple(lam): UniPoly.from_json(p, var="d")
                 for lam, p in data["terms"]}
        return cls(data["n"], data["k"], data["basis"], terms)


def chern_interpolated(n: int, k: int, basis: str = "monomial") -> ChernPolynomial:
    """Every monomial coefficient of c_k as a polynomial in d, in closed
    form (module docstring), converted exactly to the requested basis."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    if n < 1 or k < 0:
        raise OutOfDomainError("need n >= 1 and k >= 0")
    from .specialization import simplex_moment
    p = [None]      # p[j]: {partition: coefficient} of the j-th power sum
    c = [{(): UniPoly.const(1, var="d")}]
    for m in range(1, k + 1):
        p.append({lam: simplex_moment(lam + (0,) * (n - len(lam))).scale(
                      Fraction(factorial(m), prod(map(factorial, lam))))
                  for lam in enumerate_partitions(m, max_length=n)})
        c.append({})
        for nu in enumerate_partitions(m, max_length=n):
            top = nu + (0,) * (n - len(nu))
            total = UniPoly({}, var="d")
            for alpha in product(*(range(e + 1) for e in top)):
                j = sum(alpha)
                rest = c[m - j].get(partition_of(map(sub, top, alpha)))
                if j and rest is not None:
                    term = p[j][partition_of(alpha)] * rest
                    total = total + term if j % 2 else total - term
            if not total.is_zero():
                c[m][nu] = total.scale(Fraction(1, m))
    return ChernPolynomial(n, k, "monomial", c[k]).in_basis(basis)


# ---------------------------------------------------------------------------
# closed formulas for n = 2
# ---------------------------------------------------------------------------

def euler_c2_closed(d: int) -> list:
    """Schur coefficients e^d_j of the top class c_{d+1} for n = 2:
    the two-sum formula in unsigned Stirling numbers of the first kind,
    for j = 0..floor((d+1)/2)."""
    if d < 1:
        raise OutOfDomainError("d must be >= 1")
    from .specialization import stirling_first
    out = []
    for j in range((d + 1) // 2 + 1):
        if j == 0:
            out.append((0, 0))
            continue
        total = 0
        for k in range(j - 1, d - j + 1):
            total += ((-1) ** (k + j - 1) * comb(k, j - 1)
                      * stirling_first(d, d - k) * d ** (d + 1 - k))
        for k in range(d - j + 1, d):
            c = ((-1) ** (k + j - 1) * comb(k, j - 1)
                 - (-1) ** (d + 1 + k - j) * comb(k, d - j + 1))
            total += c * stirling_first(d, d - k) * d ** (d + 1 - k)
        out.append((j, total))
    return out


def euler_coefficient(d: int, j: int) -> int:
    """e^d_j, i.e. coef(s_{d+1-j,j}, c_{d+1}) for n = 2; 0 out of range."""
    if j < 0 or j > (d + 1) // 2:
        return 0
    return dict(euler_c2_closed(d))[j]


def odd_spec() -> RisingProductSpec:
    """The rising product in delta = (d-1)/2 obtained by pairing opposite
    weight factors of the n = 2 product at odd d, written in e_1, e_2."""
    from .rising import RisingProductSpec
    D = lambda coeffs: UniPoly(coeffs, var="delta")
    table = {
        ((1, 0), 0): D({1: Fraction(2), 0: Fraction(1)}),
        ((2, 0), 1): D({1: Fraction(2), 0: Fraction(1)}),
        ((2, 0), 2): D({0: Fraction(-1)}),
        ((0, 1), 0): D({2: Fraction(4), 1: Fraction(4), 0: Fraction(1)}),
        ((0, 1), 1): D({1: Fraction(-8), 0: Fraction(-4)}),
        ((0, 1), 2): D({0: Fraction(4)}),
    }
    return RisingProductSpec.single("delta", table, UniPoly.x("delta"), 2)


def odd_grouped_coefficient(H) -> UniPoly:
    """Coefficient of e_1^{H_1} e_2^{H_2} in c(Pol^{2*delta+1}(C^2)) as a
    polynomial in delta."""
    from .rising import stirling_coefficient
    spec = odd_spec()
    return spec._unipoly(stirling_coefficient(spec, tuple(H)))


def odd_grouped_in_d(H) -> UniPoly:
    """The same coefficient re-parameterized by d = 2*delta + 1; a polynomial
    in d that matches the elementary-basis coefficient g at every odd d."""
    half = UniPoly({1: Fraction(1, 2), 0: Fraction(-1, 2)}, var="d")
    return odd_grouped_coefficient(H)(half)


# ---------------------------------------------------------------------------
# leading terms
# ---------------------------------------------------------------------------

def leading_term(basis: str, lam, n: int):
    """Predicted (coefficient, d-exponent, conjectural-flag) for the leading
    term of the coefficient of the basis element indexed by lam in c_k.

    Monomial and Schur predictions are exact; elementary predictions are
    proved for lam = (1^k) for all n and for all lam at n = 2, and flagged
    as conjectural otherwise.
    """
    lam = check_partition(lam) if lam else ()
    validate_basis_index(basis, lam, n)
    k = sum(lam)
    if basis == "monomial":
        coeff = Fraction(1)
        for p in lam:
            coeff /= factorial(p)
        return coeff * Fraction(1, factorial(n)) ** k, n * k, False
    if basis == "schur":
        coeff = (Fraction(syt_count(lam), factorial(k))
                 * Fraction(1, factorial(n)) ** k)
        return coeff, n * k, False
    if basis == "elementary":
        H = multiplicities(lam)
        coeff = Fraction(1)
        exponent = 0
        for i in range(1, n + 1):
            h = H.get(i, 0)
            coeff *= (Fraction(factorial(i - 1), factorial(n + i - 1)) ** h
                      / factorial(h))
            exponent += (n + i - 1) * h
        proved = (set(lam) <= {1}) or n == 2
        return coeff, exponent, not proved
    raise ValueError(f"no leading-term formula in basis {basis!r}")


def elementary_degree_bound(lam, n: int) -> int:
    """n*H_1 + (n+1)*H_2 + ... + (2n-1)*H_n for lam = (1^H_1,...,n^H_n)."""
    lam = check_partition(lam) if lam else ()
    return sum(n + p - 1 for p in lam)


# ---------------------------------------------------------------------------
# conjecture reports (observed vs predicted; never asserted)
# ---------------------------------------------------------------------------

def conjecture_report() -> str:
    """Non-asserting observations: the conjectural elementary-basis leading
    terms beyond the proved cases, and the apparent polynomiality of c_k
    coefficients in n at fixed k and d."""
    lines = ["conjectural elementary-basis leading terms (n=3):"]
    cp = chern_interpolated(3, 3, "elementary")
    for lam, g in sorted(cp.terms.items()):
        coeff, expo, conj = leading_term("elementary", lam, 3)
        if not conj:
            continue
        obs_deg = g.degree()
        obs_lead = g.leading_coeff()
        lines.append(
            f"  nu={lam}: observed {obs_lead}*d^{obs_deg}, "
            f"predicted {coeff}*d^{expo}, "
            f"{'match' if (obs_deg, obs_lead) == (expo, coeff) else 'MISMATCH'}")
    lines.append("n-dependence of coef(e_2, c_2) at fixed d=3 for n=2..6 "
                 "(binomial form predicts comb(3+n, n+1)):")
    for n in range(2, 7):
        cp2 = chern_interpolated(n, 2, "elementary")
        obs = cp2.terms.get((2,), UniPoly.const(0, "d"))(Fraction(3))
        lines.append(f"  n={n}: observed {obs}, predicted {comb(3 + n, n + 1)}")
    return "\n".join(lines)
