"""Command-line interface: compute Chern-class coefficient polynomials,
Stirling coefficients of rising products, orbit enumerations and enumerative
invariants, with JSON/text rendering and a persistent Chern-coefficient cache.
"""

from __future__ import annotations

import atexit
import os
import sys
from types import SimpleNamespace

from .exactcore import (BASES, InconsistentDataError, OutOfDomainError,
                        UniPoly, check_degree, rat_to_str)

# the computing modules (chern, rising, orbits, enumgeo, checks) are imported
# inside the handlers that run them, so each command loads only what it
# executes; a cached chern query reads its record through ``record`` and
# loads no chern.  json is imported where JSON is read or written, and
# argparse only for the argv that ``parse_schema`` leaves to it: help, usage
# errors and the forms that it does not read

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
    import json
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
    import json
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

def _json(doc) -> str:
    import json
    return json.dumps(doc, indent=2)


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
        return _json(cp.to_json())
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
    check_degree(args.d, args.n)  # before anything is computed or cached
    cp = _get_chern(args)
    values = cp.evaluate(args.d)
    if args.format == "json":
        return _json({"n": cp.n, "k": cp.k, "basis": cp.basis, "d": args.d,
                      "terms": [[list(lam), rat_to_str(v)]
                                for lam, v in sorted(values.items())]})
    return _render_text(cp, args.d, {lam: rat_to_str(v)
                                     for lam, v in values.items() if v})


def cmd_stirling_coeff(args) -> str:
    import json
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
        return _json({"H": list(H), "coefficient": poly.to_json()})
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
        return _json({"n": args.n, "d": args.d,
                      "orbits": [[list(u), [list(v) for v in vs]]
                                 for u, vs in data.items()]})
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
            return _json({"d": args.d, "m": args.m, "r": args.r,
                          "degree": rat_to_str(val), "warnings": warnings})
        out = rat_to_str(val)
        for w in warnings:
            out += f"\nwarning: {w}"
        return out
    poly = enumgeo.sigma_degree_symbolic(args.m, args.r)
    if args.format == "json":
        return _json({"m": args.m, "r": args.r,
                      "degree_polynomial": poly.to_json()})
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
        return _json({"d": args.d, "m": args.m, key: val,
                      "methods": methods})
    return str(val)


def cmd_fano_degree(args) -> str:
    from . import enumgeo
    return _fano(args, "degree", enumgeo.fano_degree_lines)


def cmd_fano_chi(args) -> str:
    from . import enumgeo
    return _fano(args, "chi", enumgeo.fano_chi_lines)


def cmd_verify(args) -> str:
    """Cross-checks of independent methods and of the paper's checkable
    claims (``checks``); a failed check exits with EXIT_CHECK."""
    from .checks import run_checks
    checks = run_checks()
    all_ok = all(ok for _, ok, _, _ in checks)
    lines = [f"{'PASS' if ok else 'FAIL'}: {name}"
             + (f" ({detail})" if detail else "")
             for name, ok, detail, _ in checks]
    lines.append("all checks passed" if all_ok else "some checks FAILED")
    if not all_ok:
        raise InconsistentDataError("\n".join(lines))
    if args.format == "json":
        return _json({"checks": [
            {"name": name, "passed": ok, "detail": detail, "seconds": secs}
            for name, ok, detail, secs in checks], "all_passed": all_ok})
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
    import argparse
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


def parse_schema(argv: list) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` gives, read straight from
    COMMANDS and FLAGS, for argv of the form ``command --flag value ...``
    with each of the command's flags at most once and every value accepted
    by its type and choices.  None for anything else (help, an unknown,
    missing or repeated flag, an abbreviation, ``--flag=value``, a bad
    value), which is left to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, required, optional = COMMANDS[argv[0]]
    flags = required + optional + ("format",)
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        flag = token[2:]
        if not token.startswith("--") or flag not in flags or flag in given:
            return None
        if FLAGS[flag].get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, None)
        # argparse reads a token that starts with "-" as a flag unless it is
        # a negative number
        if value is None or (value[:1] == "-" and not value[1:].isdecimal()):
            return None
        given[flag] = value
    if any(flag not in given for flag in required):
        return None
    args = SimpleNamespace(command=argv[0])
    for flag in flags:
        spec = FLAGS[flag]
        if spec.get("action") == "store_true":
            value = flag in given
        else:
            value = given.get(flag, spec.get("default"))
            if isinstance(value, str):      # as in argparse, defaults too
                try:
                    value = spec.get("type", str)(value)
                except (TypeError, ValueError):
                    return None
                if value not in spec.get("choices", (value,)):
                    return None
        setattr(args, flag.replace("-", "_"), value)
    return args


def _report(args, exc: Exception, label: str, code: int) -> int:
    import json
    err = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(err) if args.format == "json" else f"{label}: {exc}",
          file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_schema(argv)
    if args is None:        # argparse prints help and usage errors
        try:
            args = build_parser(argv[0] if argv else None).parse_args(argv)
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


def run(argv=None) -> NoReturn:
    """The process entry point of ``python -m chernpol.cli`` and of the
    ``chernpol`` script: ``main``, then flush the output, run the atexit
    callbacks and end the process by ``os._exit``, skipping interpreter
    teardown, which frees every object one by one.  Nothing may be left to
    teardown: the cache file is closed and renamed inside
    ``cache_get_or_compute``, and the package starts no thread and defines
    no finalizer.  ``main`` never ends the process, so it stays safe to
    call in-process.

    Output that cannot be written exits 1: silently when the reader has
    gone (a broken pipe), with one line on stderr for any other write
    error.  An exception that escapes ``main`` ends the interpreter the
    usual way, with a traceback.
    """
    try:
        code = main(argv)
        _flush_output()
    except OSError as exc:  # main handles the cache's and spec file's own
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        # nothing flushed later may fail again (Python docs, "Note on
        # SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    atexit._run_exitfuncs()
    _flush_output()         # what the callbacks wrote
    os._exit(code)


def _flush_output() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:      # None when started with the fd closed
            stream.flush()


if __name__ == "__main__":
    run()
