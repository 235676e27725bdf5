"""The ChernPolynomial record: the coefficients of c_k(Pol^d(C^n)) as
polynomials in d, in one basis, with evaluation, basis change, the
divisibility check and the cache file that stores it: the JSON object
{"checksum": SHA-256 of the sorted payload, "payload": ``to_json``}.

It imports only ``exactcore`` and ``symfunc``, so a query answered from the
cache reads, converts and prints a record without loading ``chern``, which
computes them.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from math import comb

from .exactcore import UniPoly, as_natural, check_degree, read_json, unique_keys
from .symfunc import BASES, convert_expansion, validate_basis_index

FORMAT_VERSION = "chernpol-cache-2"


class ChernPolynomial:
    """Coefficients of c_k as polynomials in d, in one basis."""

    def __init__(self, n: int, k: int, basis: str, terms: dict | None = None):
        self.n, self.k = as_natural(n, "n"), as_natural(k, "k")
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        # partition of k indexing the basis in n variables -> UniPoly in d
        self.terms = {}
        for lam, p in (terms or {}).items():
            lam = validate_basis_index(basis, lam, self.n)
            if sum(lam) != self.k:
                raise ValueError(f"{lam} is not a partition of k = {self.k}")
            self.terms[lam] = p
        # always []; kept for readers of the cache and the benchmark trace
        self.samples = []

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
        d = Fraction(check_degree(d, self.n))
        return {lam: p(d) for lam, p in self.terms.items()}

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
        """The record of ``to_json``; ValueError on a stale format."""
        if data.get("format") != FORMAT_VERSION:
            raise ValueError("stale cache format")
        terms = unique_keys(((tuple(lam), UniPoly.from_json(p))
                             for lam, p in data["terms"]), "partition")
        return cls(data["n"], data["k"], data["basis"], terms)


def _checksum(payload) -> str:
    import json
    # CPython's own SHA-256: hashlib's digest, without loading OpenSSL; the
    # module is chosen by version, since a failed import searches sys.path
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def read_entry(path: str, n: int, k: int) -> ChernPolynomial:
    """The monomial record for (n, k) in the cache file at ``path``; OSError
    if it cannot be read, ValueError if it is corrupt, stale or another's."""
    def parse(doc) -> ChernPolynomial:
        if _checksum(doc["payload"]) != doc.get("checksum"):
            raise ValueError("checksum mismatch")
        return ChernPolynomial.from_json(doc["payload"])
    cp = read_json(path, parse)
    if (cp.n, cp.k, cp.basis) != (n, k, "monomial"):
        raise ValueError(f"entry is for n={cp.n}, k={cp.k}, {cp.basis} basis")
    return cp


def write_entry(path: str, cp: ChernPolynomial) -> None:
    """Write ``cp`` to the cache file at ``path`` through a temporary file
    renamed over it, so no reader sees a partial file; OSError if it cannot."""
    import json
    import tempfile
    payload = cp.to_json()
    cache_dir = os.path.dirname(path)
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump({"checksum": _checksum(payload), "payload": payload}, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):     # no temporary file is left behind
            os.unlink(tmp)
