"""Command-line interface: compute Chern-class coefficient polynomials,
Stirling coefficients of rising products, orbit enumerations and enumerative
invariants, with JSON/text rendering and a cache of chern answers.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import sys
from types import SimpleNamespace

from . import BASES, sha256_hex, write_atomic

# no submodule is imported here: each handler imports what it runs (a
# cached chern query reads its record through ``record`` and loads no
# chern), and main imports the error classes of exactcore only when a
# handler raises, so help and usage errors load no arithmetic at all.
# json is imported where JSON is read or written

CACHE_ENV = "CHERNPOL_CACHE_DIR"

EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CHECK = 4


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

# a cache file holds a chern or chern-eval request's exact stdout under the
# line "chernpol-answer <SHA-256 of the body> <source identity>": a repeated
# request prints it and loads no arithmetic, and after a package edit it is
# recomputed.  That of "chern --n N --k K --format json" is (n, k)'s record
ANSWER_TAG = "chernpol-answer"


def default_cache_dir() -> str:
    return os.environ.get(CACHE_ENV) or os.path.join(
        os.path.expanduser("~"), ".cache", "chernpol")


def _answer_path(args) -> str | None:
    """The answer file of a cached chern or chern-eval request, named by
    its command and every flag value but the cache's own; else None."""
    if args.command not in ("chern", "chern-eval") or args.no_cache:
        return None
    flags = "".join(f"_{key}-{value}"
                    for key, value in sorted(vars(args).items())
                    if key not in ("command", "help", "cache_dir", "no_cache"))
    return os.path.join(args.cache_dir or default_cache_dir(),
                        f"answer_{args.command}{flags}.txt")


def _cache_path(cache_dir: str, n: int, k: int) -> str:
    """The record of (n, k): the answer file of its monomial JSON request."""
    argv = ["chern", f"--n={n}", f"--k={k}", "--format=json", "--cache-dir"]
    return _answer_path(parse_args(argv + [cache_dir]))


def _source_identity() -> str | None:
    """The SHA-256 of the (name, size, mtime_ns) of the package's modules;
    None if they cannot be listed (a package imported from a zip file)."""
    try:
        with os.scandir(os.path.dirname(__file__)) as entries:
            files = sorted((e.name, e.stat().st_size, e.stat().st_mtime_ns)
                           for e in entries if e.name.endswith(".py"))
    except OSError:
        return None
    return sha256_hex(repr(files))


def _read_answer(path: str, identity: str) -> str | None:
    """The body of the answer file at ``path``; None if it is missing,
    unreadable, corrupt (with a warning) or of another package source."""
    try:    # a byte that is no UTF-8 is read as U+FFFD: a checksum mismatch
        with open(path, encoding="utf-8", errors="replace") as fh:
            header, _, body = fh.read().partition("\n")
    except OSError:
        return None
    if not header.endswith(f" {identity}"):
        return None
    if header != f"{ANSWER_TAG} {sha256_hex(body)} {identity}":
        print(f"warning: recomputing corrupt answer file {path}: checksum "
              "mismatch", file=sys.stderr)
        return None
    return body


def _write_answer(path: str, body: str, identity: str) -> None:
    """Store ``body`` under its header at ``path``; OSError if it cannot."""
    write_atomic(path, f"{ANSWER_TAG} {sha256_hex(body)} {identity}\n{body}")


def cache_get_or_compute(n: int, k: int, cache_dir: str | None = None,
                         no_cache: bool = False) -> record.ChernPolynomial:
    """Monomial-basis ChernPolynomial for (n, k), through its record: a
    record it cannot read is recomputed and overwritten, and one it cannot
    write gives the uncached answer, each with a warning."""
    identity = None if no_cache else _source_identity()
    if not identity:
        from . import chern
        return chern.chern_interpolated(n, k, "monomial")
    from . import record
    from .exactcore import parse_json
    path = _cache_path(cache_dir or default_cache_dir(), n, k)
    body = _read_answer(path, identity)
    if body is not None:
        try:
            cp = parse_json(body, record.ChernPolynomial.from_json)
            if (cp.n, cp.k, cp.basis) == (n, k, "monomial"):
                return cp
            raise ValueError(f"entry is for n={cp.n}, k={cp.k}, {cp.basis}")
        except ValueError as exc:
            print(f"warning: recomputing corrupt/stale cache entry {path}: "
                  f"{exc}", file=sys.stderr)
    from . import chern
    result = chern.chern_interpolated(n, k, "monomial")
    try:
        _write_answer(path, _json(result.to_json()) + "\n", identity)
    except OSError as exc:
        print(f"warning: not caching {path}: {exc}", file=sys.stderr)
    return result


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _json(doc) -> str:
    import json
    return json.dumps(doc, indent=2)


def factored_str(p: UniPoly) -> str:
    """Display form with rational roots pulled out as linear factors."""
    from .roots import rational_roots
    if p.is_zero():
        return "0"
    var = p.var
    roots, rest = rational_roots(p)
    parts = []
    for root, mult in roots:
        if root == 0:
            base = var
        elif root > 0:
            base = f"({var}-{root})"
        else:
            base = f"({var}+{-root})"
        parts.append(base if mult == 1 else f"{base}^{mult}")
    if rest.degree() == 0 and not parts:
        return repr(rest)
    tail = "" if rest == 1 else f"({rest!r})"
    return "*".join(parts + ([tail] if tail else [])) or "1"


def _render_text(cp: record.ChernPolynomial, d, shown: dict) -> str:
    """Header for c_k at degree ``d`` (a number or "d"), then one line per
    basis element with its coefficient as shown."""
    lines = [f"c_{cp.k}(Pol^{d}(C^{cp.n})) in {cp.basis} basis:"]
    lines += [f"  {BASES[cp.basis]}[{','.join(map(str, lam))}]: {v}"
              for lam, v in sorted(shown.items())]
    if len(lines) == 1:
        lines.append("  0")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _get_chern(args) -> record.ChernPolynomial:
    cp = cache_get_or_compute(args.n, args.k, args.cache_dir, args.no_cache)
    return cp.in_basis(args.basis)


def cmd_chern(args) -> str:
    cp = _get_chern(args)
    if args.format == "json":
        return _json(cp.to_json())
    show = factored_str if args.factored else repr
    return _render_text(cp, "d", {lam: show(p) for lam, p in cp.terms.items()})


def cmd_chern_eval(args) -> str:
    from .exactcore import check_degree
    check_degree(args.d, args.n)  # before anything is computed or cached
    cp = _get_chern(args)
    values = cp.evaluate(args.d)
    if args.format == "json":
        return _json({"n": cp.n, "k": cp.k, "basis": cp.basis, "d": args.d,
                      "terms": [[list(lam), str(v)]
                                for lam, v in sorted(values.items())]})
    return _render_text(cp, args.d, {lam: str(v)
                                     for lam, v in values.items() if v})


def cmd_stirling_coeff(args) -> str:
    from . import rising
    from .exactcore import read_json
    try:
        spec = read_json(args.spec_file, rising.RisingProductSpec.from_json)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read spec file {args.spec_file!r}: {exc}")
    if len(args.type) != spec.nx:
        raise UsageError(f"exponent vector must have length {spec.nx}")
    poly = spec._unipoly(rising.stirling_coefficient(spec, args.type))
    if args.format == "json":
        return _json({"H": list(args.type), "coefficient": poly.to_json()})
    return factored_str(poly) if args.factored else repr(poly)


def cmd_orbits(args) -> str:
    from . import orbits
    if args.type is None:
        types = orbits.orbit_types(args.n)
    else:
        if sum(args.type) != args.n or 0 in args.type:
            raise UsageError(f"--type must be a composition of n={args.n}")
        types = [args.type]
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
                          "degree": str(val), "warnings": warnings})
        out = str(val)
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
        from .exactcore import InconsistentDataError
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
        from .exactcore import InconsistentDataError
        raise InconsistentDataError("\n".join(lines))
    if args.format == "json":
        return _json({"checks": [
            {"name": name, "passed": ok, "detail": detail, "seconds": secs}
            for name, ok, detail, secs in checks], "all_passed": all_ok})
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing / dispatch
# ---------------------------------------------------------------------------

def _integer(text: str) -> int:
    """``text`` as an int: ASCII decimal digits after an optional sign, and
    nothing else (int() would also take spaces, ``_`` and other scripts'
    digits)."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _naturals(text: str) -> tuple:
    """``text``, integers joined by commas, as a tuple of ints >= 0."""
    vector = tuple(map(_integer, text.split(",")))
    if min(vector) < 0:
        raise ValueError(f"a negative entry: {text!r}")
    return vector


def _basis_name(s: str) -> str:
    """The basis name for a basis's letter (m, e, s, p); names pass through."""
    return next((name for name, letter in BASES.items() if letter == s), s)


# flag -> its type, choices, default and help, shared by the subcommands that
# take it; a flag whose default is False is a switch and takes no value
FLAGS = {
    "n": {"type": _integer}, "k": {"type": _integer},
    "d": {"type": _integer}, "m": {"type": _integer}, "r": {"type": _integer},
    "basis": {"type": _basis_name, "choices": BASES, "default": "monomial",
              "help": "basis name or letter (m, e, s, p)"},
    "type": {"type": _naturals,
             "help": "comma-separated vector of non-negative integers"},
    "format": {"choices": ["json", "text"], "default": "text"},
    "cache-dir": {"help": f"default ${CACHE_ENV} or ~/.cache/chernpol"},
    "no-cache": {"default": False, "help": "do not use the cache"},
    "method": {"choices": ["closed", "integral", "both"], "default": "both"},
    "spec-file": {"help": "JSON rising-product spec"},
    "factored": {"default": False,
                 "help": "pull rational roots out as linear factors"},
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

HELP = """usage: chernpol COMMAND [--flag value ...]

Exact Chern-class computations for spaces of forms, rising products, and
enumerative invariants.  The commands and their flags ([optional]; each also
takes --format and -h/--help; a flag may be shortened to a unique prefix):"""


def _is_switch(flag: str) -> bool:
    """Whether ``--flag`` is a switch, which takes no value."""
    return FLAGS[flag].get("default") is False


def _flag(token: str, flags: tuple) -> str:
    """The flag of ``flags``, or "help", that ``token`` names: ``-h``, or
    ``--`` and a name or a prefix of no other name, before any ``=value``."""
    name = token.partition("=")[0]
    if name == "-h":
        return "help"
    hits = []
    if name.startswith("--") and len(name) > 2:
        hits = [flag for flag in flags + ("help",)
                if flag.startswith(name[2:])]
    if name[2:] in hits:
        return name[2:]
    if len(hits) == 1:
        return hits[0]
    if hits:
        raise UsageError(f"ambiguous option: {name} could match --"
                         + ", --".join(hits))
    raise UsageError(f"unrecognized arguments: {token!r}")


def _value(flag: str, text: str):
    """``text`` read by the flag's type, if it is one of the flag's choices."""
    spec = FLAGS[flag]
    try:
        value = spec.get("type", str)(text)
    except ValueError:
        value = None
    if value is None or value not in spec.get("choices", (value,)):
        raise UsageError(f"argument --{flag}: invalid value: {text!r}" + (
            f" (choose from {', '.join(spec['choices'])})"
            if "choices" in spec else ""))
    return value


def _read_value(flag: str, token: str, tokens):
    """The value of ``flag``, named by ``token``: True for a switch, else
    the text after ``=`` in ``token`` or the next of ``tokens``, read by
    the flag's type."""
    _, eq, text = token.partition("=")
    if _is_switch(flag):
        if eq:
            raise UsageError(f"argument --{flag}: takes no value")
        return True
    if not eq:
        text = next(tokens, None)
        if text is None:
            raise UsageError(f"argument --{flag}: expected one argument")
    return _value(flag, text)


def parse_args(argv: list) -> SimpleNamespace:
    """The namespace of ``argv``, a command and its flags as COMMANDS and
    FLAGS give them, or a UsageError.  A flag is ``--flag value`` or
    ``--flag=value``, by its name or a prefix of no other flag's; the last
    of a repeated flag wins.  The namespace has ``command``, one attribute
    per flag and ``help``: None, or the text that ``-h``/``--help`` asks.

    The whole argv is read before the first usage error found is raised,
    with ``format`` set to the last valid ``--format``, so that it can be
    reported in the form the argv asks for; without a command, only
    ``--format`` is read."""
    command = argv[0] if argv else ""
    choices = f" (choose from {', '.join(COMMANDS)})"
    tokens = argv[1:]
    error = None
    if command.startswith("-"):     # a flag before any command
        tokens = argv
    elif command and command not in COMMANDS:
        error = UsageError(f"invalid command {command!r}" + choices)
    if command not in COMMANDS:
        command = None
    _, required, optional = COMMANDS.get(command, (None, (), ()))
    values = {flag: FLAGS[flag].get("default")
              for flag in required + optional + ("format",)}
    tokens = iter(tokens)
    for token in tokens:
        try:
            flag = _flag(token, tuple(values))
            if flag == "help":
                return SimpleNamespace(command=command, help=_help(command))
            values[flag] = _read_value(flag, token, tokens)
        except UsageError as exc:
            error = error or exc
    if command is None:
        error = error or UsageError("no command" + choices)
    missing = [flag for flag in required if values[flag] is None]
    if missing:
        error = error or UsageError("the following arguments are required: "
                                    + ", ".join(f"--{f}" for f in missing))
    if error:
        error.format = values["format"]
        raise error
    return SimpleNamespace(command=command, help=None, **{
        flag.replace("-", "_"): value for flag, value in values.items()})


def _usage(command: str) -> str:
    _, required, optional = COMMANDS[command]
    return " ".join(["--" + flag for flag in required]
                    + [f"[--{flag}]" for flag in optional])


def _help(command: str | None) -> str:
    """The help of ``command``: its flags, with their choices and defaults;
    with none, the help of the program: every command with its flags."""
    if command is None:
        lines = [HELP]
        for name in COMMANDS:
            lines.append(f"  {name:15} {_usage(name)}".rstrip())
        return "\n".join(lines)
    _, required, optional = COMMANDS[command]
    lines = [f"usage: chernpol {command} {_usage(command)}", "", "flags:"]
    for flag in required + optional + ("format",):
        spec = FLAGS[flag]
        if _is_switch(flag):
            meta = ""
        elif "choices" in spec:
            meta = " {" + ",".join(spec["choices"]) + "}"
        else:
            meta = " " + flag.upper().replace("-", "_")
        notes = [spec["help"]] if "help" in spec else []
        if flag in required:
            notes.append("required")
        if spec.get("default"):
            notes.append(f"default {spec['default']}")
        lines.append(f"  {'--' + flag + meta:21} {'; '.join(notes)}".rstrip())
    lines.append(f"  {'-h, --help':21} print this help")
    return "\n".join(lines)


def _report(fmt: str, exc: Exception, label: str, code: int) -> int:
    if fmt == "json":
        import json
        text = json.dumps({"error": type(exc).__name__, "message": str(exc)})
    else:
        text = f"{label}: {exc}"
    print(text, file=sys.stderr)
    return code


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the interpreter's limit on the digits of an int's ``str()``
    and ``int()``, where it has one, and restore it on exit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def main(argv=None) -> int:
    """Run the command of ``argv`` (default ``sys.argv[1:]``); its exit
    code.  Exact answers print in full: the whole run is under
    ``unlimited_int_digits``, so integers of any length are also read from
    argv, spec files and cache files.  A chern or chern-eval request whose
    answer file is valid prints its stored answer and runs no handler."""
    argv = sys.argv[1:] if argv is None else list(argv)
    with unlimited_int_digits():
        try:
            args = parse_args(argv)
        except UsageError as exc:
            return _report(exc.format, exc, "usage error", EXIT_USAGE)
        if args.help:
            print(args.help)
            return 0
        answer = _answer_path(args)
        identity = answer and _source_identity()
        if identity:
            body = _read_answer(answer, identity)
            if body is not None:
                sys.stdout.write(body)
                return 0
        try:
            out = COMMANDS[args.command][0](args)
        except UsageError as exc:
            return _report(args.format, exc, "usage error", EXIT_USAGE)
        except ValueError as exc:       # the two below are ValueErrors
            from .exactcore import InconsistentDataError, OutOfDomainError
            if isinstance(exc, OutOfDomainError):
                return _report(args.format, exc, "domain error", EXIT_DOMAIN)
            if isinstance(exc, InconsistentDataError):
                return _report(args.format, exc, "check failed", EXIT_CHECK)
            raise
        print(out)
        if identity:    # a write that fails leaves the answer uncached
            with contextlib.suppress(OSError):
                _write_answer(answer, out + "\n", identity)
        return 0


def run(argv=None) -> NoReturn:
    """The process entry point of ``python -m chernpol.cli`` and of the
    ``chernpol`` script: ``main``, then flush the output, run the atexit
    callbacks and end the process by ``os._exit``, skipping interpreter
    teardown (nothing is left to it: every cache and answer file is closed
    where it is read or written, and the package starts no thread and defines
    no finalizer); ``main`` never ends the process, so it stays safe to
    call in-process.  Output that cannot be written exits 1: silently on a
    broken pipe, with one stderr line for any other write error.  An
    exception that escapes ``main`` ends the usual way, with a traceback.
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
