"""Command-line interface: compute Chern-class coefficient polynomials,
Stirling coefficients of rising products, orbit enumerations and enumerative
invariants, with JSON/text rendering and a persistent Chern-coefficient cache.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .exactcore import (InconsistentDataError, OutOfDomainError,
                        TruncationPolicy, UniPoly, rat_to_str)
from .symfunc import BASES, expand_in_basis

# the computing modules (chern, rising, orbits, enumgeo) are imported inside
# the handlers that run them, so each command loads only what it executes; a
# cached chern query reads its record through ``record`` and loads no chern

CACHE_ENV = "CHERNPOL_CACHE_DIR"

EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CHECK = 4


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def default_cache_dir() -> str:
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "chernpol")


def _cache_path(cache_dir: str, n: int, k: int) -> str:
    return os.path.join(cache_dir, f"chern_n{n}_k{k}.json")


def _checksum(payload: dict) -> str:
    try:    # CPython's own SHA-256: hashlib's digest, without loading OpenSSL
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    blob = json.dumps(payload, sort_keys=True).encode()
    return sha256(blob).hexdigest()


def cache_get_or_compute(n: int, k: int, cache_dir: str | None = None,
                         no_cache: bool = False) -> record.ChernPolynomial:
    """Monomial-basis ChernPolynomial for (n, k), through the JSON cache.

    Unreadable, corrupt or stale files, and files holding another (n, k) or
    basis, are recomputed and overwritten (with a warning); writes are
    atomic (write-temp-then-rename), and a cache that cannot be written
    gives a warning and the uncached answer.
    """
    if no_cache:
        from . import chern
        return chern.chern_interpolated(n, k, "monomial")
    from . import record
    cache_dir = cache_dir or default_cache_dir()
    path = _cache_path(cache_dir, n, k)
    if os.path.exists(path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
            payload = doc["payload"]
            if doc.get("checksum") != _checksum(payload):
                raise ValueError("checksum mismatch")
            cp = record.ChernPolynomial.from_json(payload)
            if (cp.n, cp.k, cp.basis) != (n, k, "monomial"):
                raise ValueError(f"entry is for n={cp.n}, k={cp.k}, "
                                 f"{cp.basis} basis")
            return cp
        except (OSError, ValueError, LookupError, TypeError,
                AttributeError) as exc:
            print(f"warning: recomputing corrupt/stale cache entry {path}: {exc}",
                  file=sys.stderr)
    from . import chern
    result = chern.chern_interpolated(n, k, "monomial")
    payload = result.to_json()
    doc = {"checksum": _checksum(payload), "payload": payload}
    import tempfile
    tmp = None
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    except OSError as exc:
        print(f"warning: not caching {path}: {exc}", file=sys.stderr)
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)
    return result


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def factored_str(p: UniPoly) -> str:
    """Display form with rational roots pulled out as linear factors."""
    if p.is_zero():
        return "0"
    var = p.var
    roots, rest = p.rational_roots()
    parts = []
    for root, mult in roots:
        if root == 0:
            base = var
        elif root > 0:
            base = f"({var}-{rat_to_str(root)})"
        else:
            base = f"({var}+{rat_to_str(-root)})"
        parts.append(base if mult == 1 else f"{base}^{mult}")
    if rest.degree() == 0 and not parts:
        return repr(rest)
    tail = "" if rest == 1 else f"({rest!r})"
    return "*".join(parts + ([tail] if tail else [])) or "1"


def _partition_label(lam, basis: str) -> str:
    return f"{BASES[basis]}[{','.join(map(str, lam))}]"


def _render_text(cp: record.ChernPolynomial, d, shown: dict) -> str:
    """Header for c_k at degree ``d`` (a number or "d"), then one line per
    basis element with its coefficient as shown."""
    lines = [f"c_{cp.k}(Pol^{d}(C^{cp.n})) in {cp.basis} basis:"]
    lines += [f"  {_partition_label(lam, cp.basis)}: {v}"
              for lam, v in sorted(shown.items())]
    if len(lines) == 1:
        lines.append("  0")
    return "\n".join(lines)


def render_chern(cp: record.ChernPolynomial, fmt: str, factored: bool) -> str:
    if fmt == "json":
        return json.dumps(cp.to_json(), indent=2)
    show = factored_str if factored else repr
    return _render_text(cp, "d", {lam: show(p) for lam, p in cp.terms.items()})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _parse_vector(s: str) -> tuple:
    try:
        return tuple(int(x) for x in s.split(",") if x != "")
    except ValueError:
        raise UsageError(f"not a comma-separated integer vector: {s!r}")


def _get_chern(args) -> record.ChernPolynomial:
    cp = cache_get_or_compute(args.n, args.k, args.cache_dir, args.no_cache)
    return cp.in_basis(args.basis)


def cmd_chern(args) -> str:
    return render_chern(_get_chern(args), args.format, args.factored)


def cmd_chern_eval(args) -> str:
    from . import record
    record.check_degree(args.d, args.n)  # before anything is computed or cached
    cp = _get_chern(args)
    values = cp.evaluate(args.d)
    if args.format == "json":
        return json.dumps({"n": cp.n, "k": cp.k, "basis": cp.basis,
                           "d": args.d,
                           "terms": [[list(lam), rat_to_str(v)]
                                     for lam, v in sorted(values.items())]},
                          indent=2)
    return _render_text(cp, args.d, {lam: rat_to_str(v)
                                     for lam, v in values.items() if v})


def cmd_stirling_coeff(args) -> str:
    from . import rising
    try:
        with open(args.spec_file) as fh:
            spec = rising.RisingProductSpec.from_json(json.load(fh))
    except (OSError, ValueError, LookupError, TypeError,
            ZeroDivisionError) as exc:
        raise UsageError(f"cannot read spec file {args.spec_file!r}: {exc}")
    H = _parse_vector(args.type)
    if len(H) != spec.nx or any(h < 0 for h in H):
        raise UsageError(f"exponent vector must have length {spec.nx} "
                         f"and no negative entry")
    poly = spec._unipoly(rising.stirling_coefficient(spec, H))
    if args.format == "json":
        return json.dumps({"H": list(H), "coefficient": poly.to_json()},
                          indent=2)
    return factored_str(poly) if args.factored else repr(poly)


def cmd_orbits(args) -> str:
    from . import orbits
    if args.type is None:
        types = orbits.orbit_types(args.n)
    else:
        u = _parse_vector(args.type)
        if not u or sum(u) != args.n or any(x < 1 for x in u):
            raise UsageError(f"--type must be a composition of n={args.n}")
        types = [u]
    data = {u: orbits.enumerate_orbit(u, args.d) for u in types}
    if args.format == "json":
        return json.dumps({"n": args.n, "d": args.d,
                           "orbits": [[list(u), [list(v) for v in vs]]
                                      for u, vs in data.items()]}, indent=2)
    lines = []
    for u, vs in data.items():
        label = ",".join(map(str, u))
        body = " ".join("(" + ",".join(map(str, v)) + ")" for v in vs) or "empty"
        lines.append(f"type ({label}): {body}")
    return "\n".join(lines)


def cmd_sigma_degree(args) -> str:
    from . import enumgeo
    if args.d is not None:
        val = enumgeo.sigma_degree(args.d, args.m, args.r)
        warnings = enumgeo.sigma_validity_warnings(args.d, args.m, args.r)
        if args.format == "json":
            return json.dumps({"d": args.d, "m": args.m, "r": args.r,
                               "degree": rat_to_str(val),
                               "warnings": warnings}, indent=2)
        out = rat_to_str(val)
        for w in warnings:
            out += f"\nwarning: {w}"
        return out
    poly = enumgeo.sigma_degree_symbolic(args.m, args.r)
    if args.format == "json":
        return json.dumps({"m": args.m, "r": args.r,
                           "degree_polynomial": poly.to_json()}, indent=2)
    return factored_str(poly) if args.factored else repr(poly)


def _fano(args, key: str, invariant) -> str:
    """``invariant(d, m, method)`` by each requested method; the methods must
    agree."""
    methods = (["closed", "integral"] if args.method == "both"
               else [args.method])
    vals = {meth: invariant(args.d, args.m, meth) for meth in methods}
    if len(set(vals.values())) != 1:
        raise InconsistentDataError(f"method disagreement: {vals}")
    val = vals[methods[0]]
    if args.format == "json":
        return json.dumps({"d": args.d, "m": args.m, key: val,
                           "methods": methods}, indent=2)
    return str(val)


def cmd_fano_degree(args) -> str:
    from . import enumgeo
    return _fano(args, "degree", enumgeo.fano_degree_lines)


def cmd_fano_chi(args) -> str:
    from . import enumgeo
    return _fano(args, "chi", enumgeo.fano_chi_lines)


def cmd_verify(args) -> str:
    from . import chern, enumgeo, orbits

    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
            detail = ""
        except Exception as exc:          # report, don't crash the suite
            ok = False
            detail = f" ({exc})"
        checks.append((name, ok, detail))

    def closed_vs_direct():
        cp = chern.chern_interpolated(2, 3, "monomial")
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
    lines = []
    all_ok = True
    for name, ok, detail in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'}: {name}{detail}")
        all_ok = all_ok and ok
    lines.append("all checks passed" if all_ok else "some checks FAILED")
    if not all_ok:
        raise InconsistentDataError("\n".join(lines))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing / dispatch
# ---------------------------------------------------------------------------

def _basis_name(s: str) -> str:
    """The basis name for a basis's letter (m, e, s, p); names pass through."""
    return next((name for name, letter in BASES.items() if letter == s), s)


# flag -> add_argument keywords, shared by the subcommands that take it
FLAGS = {
    "n": {"type": int}, "k": {"type": int}, "d": {"type": int},
    "m": {"type": int}, "r": {"type": int},
    "basis": {"type": _basis_name, "choices": BASES, "default": "m",
              "help": "basis name or letter (m, e, s, p)"},
    "type": {"help": "comma-separated integer vector"},
    "format": {"choices": ["json", "text"], "default": "text"},
    "cache-dir": {},
    "no-cache": {"action": "store_true"},
    "method": {"choices": ["closed", "integral", "both"], "default": "both"},
    "spec-file": {},
    "factored": {"action": "store_true"},
}

# subcommand -> (handler, required flags, optional flags); every subcommand
# also takes --format, which sets the form of its output and error body
COMMANDS = {
    "chern": (cmd_chern, ("n", "k"),
              ("basis", "cache-dir", "no-cache", "factored")),
    "chern-eval": (cmd_chern_eval, ("n", "k", "d"),
                   ("basis", "cache-dir", "no-cache")),
    "stirling-coeff": (cmd_stirling_coeff, ("spec-file", "type"),
                       ("factored",)),
    "orbits": (cmd_orbits, ("n", "d"), ("type",)),
    "sigma-degree": (cmd_sigma_degree, ("m", "r"), ("d", "factored")),
    "fano-degree": (cmd_fano_degree, ("d", "m"), ("method",)),
    "fano-chi": (cmd_fano_chi, ("d", "m"), ("method",)),
    "verify": (cmd_verify, (), ()),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand.  Given one of COMMANDS, only that
    subcommand's parser gets its arguments; the others are still registered,
    so the top-level help and an unknown command's error stay the same."""
    parser = argparse.ArgumentParser(
        prog="chernpol",
        description="Exact Chern-class computations for spaces of forms, "
                    "rising products, and enumerative invariants.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, required, optional) in COMMANDS.items():
        p = sub.add_parser(name)
        if command in COMMANDS and name != command:
            continue
        for flag in required:
            p.add_argument("--" + flag, required=True, **FLAGS[flag])
        for flag in optional + ("format",):
            p.add_argument("--" + flag, **FLAGS[flag])
    return parser


def _report(args, exc: Exception, label: str, code: int) -> int:
    err = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(err) if args.format == "json" else f"{label}: {exc}",
          file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        out = COMMANDS[args.command][0](args)
    except UsageError as exc:
        return _report(args, exc, "usage error", EXIT_USAGE)
    except OutOfDomainError as exc:
        return _report(args, exc, "domain error", EXIT_DOMAIN)
    except InconsistentDataError as exc:
        return _report(args, exc, "check failed", EXIT_CHECK)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
