"""Exact computation of Chern classes of spaces of polynomial forms, their
coefficient polynomials in symmetric-function bases, Stirling coefficients
of rising products, and enumerative invariants of Fano schemes and of
varieties of hypersurfaces containing linear subspaces.

``import chernpol`` loads no submodule: each exported name is looked up in
its submodule when it is used (PEP 562), so a command imports only what it
runs.  ``BASES`` lives here, so that the CLI's flag schema, its help and
its usage errors load no submodule, and so do the SHA-256 and the atomic
write that the cache files of ``record`` and the CLI's answer files share.
"""

import os
import sys
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


def sha256_hex(text: str) -> str:
    """The SHA-256 of ``text``'s UTF-8 bytes, in hex.  CPython's own module
    gives hashlib's digest without loading OpenSSL; it is chosen by
    version, since a failed import searches sys.path."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256(text.encode()).hexdigest()


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file renamed over it,
    so no reader sees a partial file; OSError if it cannot."""
    import tempfile
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):     # no temporary file is left behind
            os.unlink(tmp)


_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["BASES", *_HOME])


def __getattr__(name: str):
    # not stored here, so the package always reads the submodule's binding
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
