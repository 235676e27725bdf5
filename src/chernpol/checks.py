"""The checks that ``chernpol verify`` runs: cross-checks of independent
methods and the paper's checkable claims, each at one small input.  They
live apart from ``cli``, so that no other command compiles them.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import cache

from . import chern, enumgeo, orbits
from .exactcore import TruncationPolicy
from .symfunc import expand_in_basis


def run_checks() -> list:
    """``[(name, passed, detail, seconds)]`` for every check, in order; a
    check that raises fails, with the exception's message as its detail."""
    checks = []

    def check(name, fn):
        start = time.perf_counter()
        try:
            ok, detail = bool(fn()), ""
        except Exception as exc:          # report, don't crash the suite
            ok, detail = False, str(exc) or type(exc).__name__
        checks.append((name, ok, detail, time.perf_counter() - start))

    interpolated = cache(lambda: chern.chern_interpolated(2, 3, "monomial"))

    def closed_vs_direct():
        cp = interpolated()
        for d in (7, 8):
            direct = chern.chern_direct(2, d, TruncationPolicy(3))
            mono = expand_in_basis(direct.homogeneous_component(3), "monomial")
            if cp.evaluate(d) != {lam: mono.get(lam, Fraction(0))
                                  for lam in cp.terms}:
                return False
        return True

    def euler_closed_vs_direct(d):
        schur = expand_in_basis(enumgeo.euler_class_c2(d), "schur")
        return all(v == schur.get((d + 1 - j, j) if j else (d + 1,), 0)
                   for j, v in chern.euler_c2_closed(d))

    def sigma_leading_term(m, r):
        coeff, expo = enumgeo.sigma_degree_leading(m, r)
        p = enumgeo.sigma_degree_symbolic(m, r)
        return p.degree() == expo and p.coeff(expo) == coeff

    check("closed form matches direct product (n=2, k=3)", closed_vs_direct)
    check("Euler closed formula matches direct product (d=4)",
          lambda: euler_closed_vs_direct(4))
    check("Fano degree methods agree (d=3, m=3)",
          lambda: enumgeo.fano_degree_lines(3, 3, "closed")
          == enumgeo.fano_degree_lines(3, 3, "integral") == 27)
    check("Fano chi closed = integral (delta=1, m=4)",
          lambda: enumgeo.fano_chi_lines(4, 4, "closed")
          == enumgeo.fano_chi_lines(4, 4, "integral"))
    check("orbit factorization (n=3, d=6, trunc 3)",
          lambda: orbits.orbit_factorization_check(3, 6, TruncationPolicy(3)))
    check("c_k coefficients divisible by (d+1)d(d-1) (n=2, k=3)",
          lambda: interpolated().divisibility_ok())
    check("Sigma leading term matches Manivel's (m=4, r=1)",
          lambda: sigma_leading_term(4, 1))
    check("Sigma closed form for r = m-1 (d=4, m=3)",
          lambda: enumgeo.sigma_degree_hyperplane(4, 3)
          == enumgeo.sigma_degree(4, 3, 2))
    check("Fano curve chi = (m+1-C(2m-3,2)) * degree (d=4, m=4)",
          lambda: enumgeo.chi_deg_ratio_check(4)["holds"])
    return checks
