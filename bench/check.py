"""Answer checker for the benchmark's CLI queries.

Each answer is compared with an oracle computed in this process, never with
an earlier output or cache file of the program:

- ``chern`` and ``chern-eval``: ``chern_direct`` at a ``d`` beyond the
  interpolation samples (``d > n*k``), expanded in the same basis;
- ``fano-degree`` and ``fano-chi``: both methods computed here must agree
  with the answer, and the published degrees 27, 2875 and 698005 must match;
- ``sigma-degree``: the direct product integrated over the Grassmannian,
  at the query's ``d`` or, for a polynomial answer, at a seeded ``d``;
- ``stirling-coeff``: ``direct_rising_oracle`` at two seeded values of delta;
- ``orbits``: a brute-force enumeration of the weakly increasing tuples;
- ``verify``: the output must end in ``all checks passed``.

Call ``check`` only after the timed region: the oracles are not free.
"""

from __future__ import annotations

import ast
import json
import operator
import random
import re
from fractions import Fraction
from pathlib import Path

from chernpol import chern, enumgeo, rising
from chernpol.exactcore import TruncationPolicy
from chernpol.symfunc import expand_in_basis

PUBLISHED_FANO_DEGREES = {(3, 3): 27, (5, 4): 2875, (7, 5): 698005}

BASES = {"m": "monomial", "e": "elementary", "s": "schur", "p": "power"}
BOOLEAN_FLAGS = {"--factored", "--no-cache"}


class WrongAnswer(Exception):
    pass


def parse_argv(argv) -> tuple[str, dict]:
    """("chern", {"n": "4", "factored": True, ...}) from a query argv."""
    command, opts, rest = argv[0], {}, list(argv[1:])
    while rest:
        flag = rest.pop(0)
        key = flag[2:].replace("-", "_")
        opts[key] = True if flag in BOOLEAN_FLAGS else rest.pop(0)
    return command, opts


_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}


def evaluate(expr: str, var: str, value) -> Fraction:
    """Exact value of a printed polynomial (plain or ``--factored``) at
    ``var = value``."""
    value = Fraction(value)

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return Fraction(node.value)
        if isinstance(node, ast.Name) and node.id == var:
            return value
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            if isinstance(node.op, ast.Pow):
                return ev(node.left) ** int(ev(node.right))
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        raise WrongAnswer(f"unparsable polynomial {expr!r}")

    try:
        tree = ast.parse(expr.strip().replace("^", "**"), mode="eval")
    except SyntaxError:
        raise WrongAnswer(f"unparsable polynomial {expr!r}")
    return ev(tree)


_LABEL = re.compile(r"^\s+([mesp])\[([0-9,]*)\]: (.+)$")


def _labelled_lines(text: str, letter: str, header: str) -> dict:
    """{partition: printed value} from the text form of chern/chern-eval."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        raise WrongAnswer(f"header {lines[:1]} != {header!r}")
    out = {}
    for line in lines[1:]:
        if line.strip() == "0":
            continue
        m = _LABEL.match(line)
        if not m or m.group(1) != letter:
            raise WrongAnswer(f"unexpected line {line!r}")
        lam = tuple(int(p) for p in m.group(2).split(",") if p)
        out[lam] = m.group(3)
    return out


def _same(got: dict, want: dict, what: str) -> None:
    got = {lam: v for lam, v in got.items() if v}
    want = {lam: v for lam, v in want.items() if v}
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))[:3]
        raise WrongAnswer(f"{what}: differs from the oracle at {diff}")


def _single_int(text: str) -> int:
    try:
        return int(text.strip().splitlines()[0])
    except (ValueError, IndexError):
        raise WrongAnswer(f"not an integer: {text[:80]!r}")


class Checker:
    """Checks query outputs; ``rng`` picks the oracle points (seeded)."""

    def __init__(self, rng: random.Random, spec_path: str):
        self.rng = rng
        self.spec = rising.RisingProductSpec.from_json(
            json.loads(Path(spec_path).read_text()))
        self._points: dict = {}
        self._oracles: dict = {}
        self._verdicts: dict = {}

    def check(self, argv, stdout: str) -> str | None:
        """None if the answer is right, else the reason it is wrong."""
        key = (tuple(argv), stdout)
        if key not in self._verdicts:
            try:
                self._check(*parse_argv(argv), stdout)
                self._verdicts[key] = None
            except Exception as exc:     # malformed output is a wrong answer
                self._verdicts[key] = f"{type(exc).__name__}: {exc}"
        return self._verdicts[key]

    # -- oracles ----------------------------------------------------------
    def _point(self, key, low: int, high: int) -> int:
        """A seeded point, fixed per key for the rest of the run."""
        if key not in self._points:
            self._points[key] = self.rng.randint(low, high)
        return self._points[key]

    def _memo(self, key, fn):
        if key not in self._oracles:
            self._oracles[key] = fn()
        return self._oracles[key]

    def _chern_oracle(self, n: int, k: int, d: int, basis: str) -> dict:
        def compute():
            f = chern.chern_direct(n, d, TruncationPolicy(k))
            return expand_in_basis(f.homogeneous_component(k), BASES[basis])
        return self._memo(("chern", n, k, d, basis), compute)

    # -- per command ------------------------------------------------------
    def _check(self, command: str, o: dict, out: str) -> None:
        getattr(self, "_" + command.replace("-", "_"))(o, out)

    def _chern(self, o, out):
        n, k, basis = int(o["n"]), int(o["k"]), o.get("basis", "m")
        d = self._point(("chern", n, k), n * k + 1, n * k + 3)
        want = self._chern_oracle(n, k, d, basis)
        if o.get("format") == "json":
            doc = json.loads(out)
            if (doc["n"], doc["k"], doc["basis"]) != (n, k, BASES[basis]):
                raise WrongAnswer(f"json header {doc['n'], doc['k'], doc['basis']}")
            got = {tuple(lam): sum(Fraction(c) * Fraction(d) ** e
                                   for e, c in poly)
                   for lam, poly in doc["terms"]}
        else:
            header = f"c_{k}(Pol^d(C^{n})) in {BASES[basis]} basis:"
            got = {lam: evaluate(expr, "d", d) for lam, expr in
                   _labelled_lines(out, basis, header).items()}
        _same(got, want, f"c_{k} at d={d}")

    def _chern_eval(self, o, out):
        n, k, d, basis = int(o["n"]), int(o["k"]), int(o["d"]), o["basis"]
        header = f"c_{k}(Pol^{d}(C^{n})) in {BASES[basis]} basis:"
        got = {lam: Fraction(v) for lam, v in
               _labelled_lines(out, basis, header).items()}
        _same(got, self._chern_oracle(n, k, d, basis), f"c_{k} at d={d}")

    def _fano(self, o, out, fn, published):
        d, m = int(o["d"]), int(o["m"])
        got = _single_int(out)
        want = {meth: self._memo((fn.__name__, d, m, meth),
                                 lambda: fn(d, m, meth))
                for meth in ("closed", "integral")}
        if set(want.values()) != {got}:
            raise WrongAnswer(f"{fn.__name__}({d},{m}) = {got}, oracle {want}")
        if published.get((d, m), got) != got:
            raise WrongAnswer(f"{got} != published {published[(d, m)]}")

    def _fano_degree(self, o, out):
        self._fano(o, out, enumgeo.fano_degree_lines, PUBLISHED_FANO_DEGREES)

    def _fano_chi(self, o, out):
        self._fano(o, out, enumgeo.fano_chi_lines, {})

    def _sigma_degree(self, o, out):
        m, r = int(o["m"]), int(o["r"])
        if "d" in o:
            d = int(o["d"])
            got = Fraction(_single_int(out))
        else:
            d = self._point(("sigma", m, r), 3, 8)
            got = evaluate(out, "d", d)
        want = self._memo(("sigma", d, m, r),
                          lambda: enumgeo.sigma_degree(d, m, r))
        if got != want:
            raise WrongAnswer(f"sigma({d},{m},{r}) = {got}, oracle {want}")

    def _stirling_coeff(self, o, out):
        H = tuple(int(h) for h in o["type"].split(","))
        if "delta" not in self._points:
            self._points["delta"] = sorted(self.rng.sample(range(1, 8), 2))
        for delta in self._points["delta"]:
            direct = self._memo(
                ("rising", delta, sum(H)), lambda: rising.direct_rising_oracle(
                    self.spec, (delta,), TruncationPolicy(sum(H))))
            want = direct.terms.get(H, Fraction(0))
            got = evaluate(out, self.spec.params[0], delta)
            if got != want:
                raise WrongAnswer(f"coefficient of x^{H} at delta={delta}: "
                                  f"{got}, oracle {want}")

    def _orbits(self, o, out):
        n, d = int(o["n"]), int(o["d"])
        want = {}
        for values in _increasing_tuples(n, d, 0):
            pattern = tuple(values.count(v) for v in sorted(set(values)))
            want.setdefault(pattern, []).append(values)
        got = {}
        for line in out.strip().splitlines():
            m = re.match(r"^type \(([0-9,]+)\): (.*)$", line)
            if not m:
                raise WrongAnswer(f"unexpected line {line!r}")
            u = tuple(int(x) for x in m.group(1).split(","))
            body = [] if m.group(2) == "empty" else [
                tuple(int(x) for x in t.strip("()").split(","))
                for t in m.group(2).split()]
            got[u] = body
        if len(got) != 2 ** (n - 1):
            raise WrongAnswer(f"{len(got)} orbit types, expected {2 ** (n - 1)}")
        for u, tuples in got.items():
            if sorted(tuples) != sorted(want.get(u, [])):
                raise WrongAnswer(f"orbit type {u} differs from brute force")

    def _verify(self, o, out):
        lines = out.strip().splitlines()
        if not lines or lines[-1] != "all checks passed" or \
                any(line.startswith("FAIL") for line in lines):
            raise WrongAnswer("verify did not pass all checks")


def _increasing_tuples(n: int, d: int, low: int):
    """Weakly increasing n-tuples of integers >= low summing to d."""
    if n == 1:
        if d >= low:
            yield (d,)
        return
    for first in range(low, d // n + 1):
        for rest in _increasing_tuples(n - 1, d - first, first):
            yield (first,) + rest
