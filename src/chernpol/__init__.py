"""Exact computation of Chern classes of spaces of polynomial forms, their
coefficient polynomials in symmetric-function bases, Stirling coefficients
of rising products, and enumerative invariants of Fano schemes and of
varieties of hypersurfaces containing linear subspaces.

``import chernpol`` loads no submodule: each exported name is looked up in
its submodule when it is used (PEP 562), so a command imports only what it
runs.  ``BASES`` lives here, so that the CLI's flag schema, its help and
its usage errors load no submodule.
"""

from importlib import import_module

__version__ = "1.0.0"

# basis name -> the letter that labels its elements (m[2,1], e[1], ...)
BASES = {"monomial": "m", "elementary": "e", "schur": "s", "power": "p"}

# submodule -> the names this package exports from it
_EXPORTS = {
    "exactcore": ("InconsistentDataError", "OutOfDomainError",
                  "TruncationPolicy", "UniPoly"),
    "multipoly": ("MultiPoly", "interpolate", "series_invert"),
    "symfunc": ("catalan_triangle", "conjugate", "convert_expansion",
                "enumerate_partitions", "expand_in_basis", "syt_count",
                "to_x_expansion"),
    "specialization": ("M_plain", "M_tilde", "eulerian_second", "faulhaber",
                       "simplex_moment", "stirling_first", "stirling_second"),
    "rising": ("RisingProductSpec", "direct_rising_oracle",
               "leading_coefficient", "simple_coefficient",
               "stirling_coefficient", "vector_partitions"),
    "record": ("ChernPolynomial",),
    "chern": ("chern_direct", "chern_interpolated", "euler_c2_closed",
              "leading_term", "odd_grouped_coefficient"),
    "orbits": ("enumerate_orbit", "orbit_factorization_check", "orbit_term",
               "orbit_types"),
    "enumgeo": ("chern_grassmannian", "expected_dimension", "fano_chi_lines",
                "fano_degree_lines", "grassmann_integral", "sigma_degree",
                "sigma_degree_symbolic"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["BASES", *_HOME])


def __getattr__(name: str):
    # not stored here, so the package always reads the submodule's binding
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
