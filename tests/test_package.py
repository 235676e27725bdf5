import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import chernpol
from chernpol import chern, cli, enumgeo, rising, symfunc
from chernpol.exactcore import (MultiPoly, OutOfDomainError, TruncationPolicy,
                                UniPoly, interpolate)
from chernpol.orbits import (enumerate_orbit, orbit_factorization_check,
                             orbit_term, orbit_types)
from chernpol.rising import (RisingProductSpec, check_weight_bound,
                             leading_coefficient, simple_coefficient,
                             stirling_coefficient, vector_partitions)
from chernpol.specialization import (M_plain, M_tilde, M_tilde_values,
                                     eulerian_second, faulhaber,
                                     simplex_moment, stirling_first,
                                     stirling_second)
from chernpol.symfunc import (catalan_triangle, check_partition,
                              enumerate_partitions)

ROOT = Path(__file__).resolve().parents[1]

# every name the package exported when its __init__ imported all submodules
EXPORTED = {
    "exactcore": ("InconsistentDataError", "MultiPoly", "OutOfDomainError",
                  "TruncationPolicy", "UniPoly", "interpolate",
                  "series_invert"),
    "symfunc": ("BASES", "catalan_triangle", "conjugate", "convert_expansion",
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

# runs one CLI command in a fresh interpreter and reports what it imported;
# json is imported after the count, so the count shows whether the command
# loaded it
PROBE = """
import sys
before = set(sys.modules)
import contextlib, io
from chernpol.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
new = sorted(set(sys.modules) - before)
import json
print(json.dumps({"code": code, "new": new}))
"""


def test_no_assert_statements():
    # python -O strips asserts, so checks in the package must raise instead
    for path in Path(chernpol.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert at lines {found}"


def _locals(func) -> set:
    """The names a function or lambda binds: its parameters, and the names
    its body assigns or defines outside the functions nested in it."""
    a = func.args
    names = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                             a.vararg, a.kwarg) if p}
    todo = [func.body] if isinstance(func, ast.Lambda) else list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _scan(node, owners: tuple, defined: set, used: set,
          shadowed: frozenset = frozenset()) -> None:
    """Add to ``defined`` the functions and classes of a module or class
    body below ``node``, and to ``used`` every name referred to below it
    outside the definitions of that name in ``owners``.  A name read inside
    a function that binds it (``shadowed``) is that function's own, not a
    reference."""
    for child in ast.iter_child_nodes(node):
        inner = owners
        if (isinstance(node, (ast.Module, ast.ClassDef))
                and isinstance(child, (ast.FunctionDef, ast.ClassDef))):
            defined.add(child.name)
            inner = owners + (child.name,)
        name = (child.id if isinstance(child, ast.Name)
                and child.id not in shadowed
                else child.attr if isinstance(child, ast.Attribute)
                else child.name if isinstance(child, ast.alias)
                else None)
        if name not in owners:
            used.add(name)
        _scan(child, inner, defined, used,
              shadowed | _locals(child) if isinstance(
                  child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
              else shadowed)


def _unreferenced_definitions() -> set:
    """The module-level functions and classes of the package, and the
    methods of its classes, that no code in it refers to outside their own
    body and that it does not export; dunders are exempt.  A reference is a
    name, an attribute or an imported name."""
    defined, used = set(), set()
    for path in Path(chernpol.__file__).parent.glob("*.py"):
        _scan(ast.parse(path.read_text()), (), defined, used)
    return {name for name in defined - used - set(chernpol.__all__)
            if not (name.startswith("__") and name.endswith("__"))}


def test_every_definition_is_used_or_exported():
    # code only the tests call belongs in the tests
    assert _unreferenced_definitions() == set()


def test_one_out_of_domain_error():
    assert chern.OutOfDomainError is rising.OutOfDomainError


# the package's exception classes, one per CLI exit code: a malformed
# argument is a plain ValueError, so each exit code reaches a JSON reader
# under one error name
ERROR_CLASSES = {("cli", "UsageError"), ("exactcore", "OutOfDomainError"),
                 ("exactcore", "InconsistentDataError")}


def test_the_package_defines_no_other_error_classes():
    found = set()
    for path in Path(chernpol.__file__).parent.glob("*.py"):
        name = "chernpol" + ("" if path.stem == "__init__"
                             else "." + path.stem)
        module = importlib.import_module(name)
        found |= {(path.stem, obj.__name__) for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == name}
    assert found == ERROR_CLASSES


def test_one_bases():
    # defined in the package itself, where the CLI's flag schema reads it
    assert chernpol.BASES is symfunc.BASES is chern.BASES is cli.BASES
    assert not hasattr(importlib.import_module("chernpol.exactcore"),
                       "BASES")


def _fresh(*args) -> dict:
    env = dict(os.environ,
               PYTHONPATH=str(Path(chernpol.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", *args], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def _run(argv, allow_json: bool = True) -> set:
    """The chernpol modules a fresh interpreter loads to run ``argv``; the
    command must succeed and must load neither dataclasses nor argparse,
    nor json unless ``allow_json``."""
    report = _fresh(PROBE, *argv)
    assert report["code"] == 0, argv
    assert not {"dataclasses", "argparse"} & set(report["new"]), argv
    assert allow_json or "json" not in report["new"], argv
    return {m for m in report["new"] if m.split(".")[0] == "chernpol"}


FRONT = {"chernpol", "chernpol.cli"}
CORE = FRONT | {"chernpol.exactcore"}


def test_each_command_loads_only_what_it_runs(tmp_path):
    core = CORE | {"chernpol.symfunc"}
    chern_argv = ["chern", "--n", "4", "--k", "3", "--basis", "s",
                  "--cache-dir", str(tmp_path)]
    _run(chern_argv)                                # fills the cache
    # a cache hit reads the record and computes nothing
    warm = core | {"chernpol.record"}
    assert _run(chern_argv) == warm
    assert _run(chern_argv + ["--factored"]) == warm | {"chernpol.roots"}
    assert _run(chern_argv + ["--no-cache"]) == warm | {
        "chernpol.chern", "chernpol.specialization"}
    assert _run(["stirling-coeff", "--spec-file",
                 str(ROOT / "bench" / "odd_spec.json"), "--type", "2,1"]) \
        == core | {"chernpol.multipoly", "chernpol.rising",
                   "chernpol.specialization"}
    # enumerating orbits needs neither chern nor a basis change
    assert (_run(["orbits", "--n", "6", "--d", "16"], allow_json=False)
            == CORE | {"chernpol.orbits"})
    assert "json" in _fresh(PROBE, "orbits", "--n", "2", "--d", "2",
                            "--format", "json")["new"]


def test_help_and_usage_errors_load_no_argparse_and_no_symfunc():
    # the flag schema reader prints help and usage errors itself, and loads
    # no arithmetic: no exactcore, fractions or decimal
    for argv in (["--help"], ["chern", "--help"], ["chern", "--n", "2"],
                 ["frobenius"], ["chern", "--n", "2", "--format", "json"],
                 ["frobenius", "--format", "json"]):
        report = _fresh(PROBE, *argv)
        assert report["code"] == (0 if "--help" in argv else 2), argv
        assert not {"argparse", "gettext", "locale", "textwrap", "fractions",
                    "decimal"} & set(report["new"]), argv
        assert "json" in argv or "json" not in report["new"], argv
        assert {m for m in report["new"] if m.startswith("chernpol")} \
            == FRONT, argv


def _module_level(node):
    """The nodes below ``node`` that run when its module is imported: all
    but those inside a function body."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield child
            yield from _module_level(child)


def test_cli_imports_no_submodule_at_module_level():
    # help, usage errors and argv dispatch load only chernpol and cli: each
    # handler imports what it runs
    submodules = {path.stem for path in
                  Path(chernpol.__file__).parent.glob("*.py")} - {"__init__"}
    found = []
    for node in _module_level(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.Import):
            names = [a.name.split(".")[1] for a in node.names
                     if a.name.startswith("chernpol.")]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "chernpol"):
            # the path below the package, else the names taken from it
            below = (node.module or "").split(".")[0 if node.level else 1:]
            names = below[:1] or [a.name for a in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name in submodules]
    assert not found, f"cli.py imports submodules at module level: {found}"


def _references(node) -> set:
    """Every name, imported name or module, and ``name.attribute`` below
    ``node``."""
    refs = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            refs.add(child.id)
        elif isinstance(child, ast.alias):
            refs.add(child.name)
        elif isinstance(child, ast.ImportFrom) and child.module:
            refs.add(child.module)
        elif (isinstance(child, ast.Attribute)
              and isinstance(child.value, ast.Name)):
            refs.add(f"{child.value.id}.{child.attr}")
    return refs


def test_cache_file_format_lives_in_record():
    # cli chooses where and when to cache; record reads and writes the file:
    # its JSON, its checksum and its atomic write
    tree = ast.parse(Path(cli.__file__).read_text())
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "cache_get_or_compute")
    found = {ref for ref in _references(func)
             if ref.split(".")[0] in ("json", "tempfile")
             or ref == "os.replace" or "sha256" in ref}
    assert not found, f"cli.cache_get_or_compute handles the file: {found}"
    owners = set()
    for path in Path(chernpol.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.FunctionDef) and node.name == "_checksum"
                    or isinstance(node, ast.Call)
                    and "_checksum" in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None))):
                owners.add(path.stem)
    assert owners == {"record"}


def _json_load_refs(node) -> list:
    """The ``json.load`` references and ``from json import load`` below
    ``node``."""
    return [child for child in ast.walk(node)
            if isinstance(child, ast.Attribute) and child.attr == "load"
            and getattr(child.value, "id", None) == "json"
            or isinstance(child, ast.ImportFrom) and child.module == "json"
            and "load" in {a.name for a in child.names}]


def test_json_input_files_have_one_reader():
    # exactcore.read_json loads every outside JSON file and turns the errors
    # of a malformed document into ValueError, so cli catches none of them
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(chernpol.__file__).parent.glob("*.py")}
    found = {stem: len(_json_load_refs(tree)) for stem, tree in trees.items()}
    assert {stem: n for stem, n in found.items() if n} == {"exactcore": 1}
    assert _json_load_refs(next(node for node in trees["exactcore"].body
                                if isinstance(node, ast.FunctionDef)
                                and node.name == "read_json"))
    caught = {node.id for handler in ast.walk(trees["cli"])
              if isinstance(handler, ast.ExceptHandler) and handler.type
              for node in ast.walk(handler.type) if isinstance(node, ast.Name)}
    assert not caught & {"LookupError", "TypeError", "ZeroDivisionError"}


def test_no_module_imports_argparse():
    # one argv reader: cli.parse_args over the FLAGS/COMMANDS schema
    for path in Path(chernpol.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Import)
                 and any(a.name.split(".")[0] == "argparse"
                         for a in node.names)
                 or isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[0] == "argparse"]
        assert not found, f"{path.name}: argparse imported at lines {found}"


def test_only_the_package_and_exactcore_resolve_names_lazily():
    # a module-level __getattr__ (PEP 562) gives a name a second home: the
    # package's lazy namespace and exactcore's names from multipoly are the
    # only ones, so a re-export such as chern.ChernPolynomial cannot return
    found = []
    for path in sorted(Path(chernpol.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [node])
            if "__getattr__" in {getattr(t, "name", getattr(t, "id", None))
                                 for t in targets}:
                found.append(path.name)
    assert found == ["__init__.py", "exactcore.py"]


# where int() may still be called: it parses text, it is the rule itself,
# and it counts a bool
INT_CALLS_ALLOWED = {("cli", "_integer"), ("exactcore", "_integral"),
                     ("symfunc", "_product_count")}


def _int_calls(node, scope=None):
    """(enclosing function, line) of every call to int below ``node``."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "int"):
            yield scope, child.lineno
        inner = (child.name if isinstance(child, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef))
                 else scope)
        yield from _int_calls(child, inner)


def test_integer_inputs_are_checked_in_one_place():
    # an integer input passes exactcore.as_natural, naturals or as_int;
    # an int() elsewhere would truncate 1.5 to 1 and take True for 1
    for path in Path(chernpol.__file__).parent.glob("*.py"):
        found = [(scope, line)
                 for scope, line in _int_calls(ast.parse(path.read_text()))
                 if (path.stem, scope) not in INT_CALLS_ALLOWED]
        assert not found, f"{path.name}: int() called at {found}"


_D = UniPoly.x("d")
_SPEC = RisingProductSpec(("d",), {((1,), 1): 1}, _D, 1)  # prod (1 + t x)

# an entry point for each integer input, as a function of that integer; the
# key is "name-parameter", or "name" for a callable's only int parameter
NATURAL_INPUTS = {
    "TruncationPolicy": TruncationPolicy,
    "ChernPolynomial-n": lambda x: chernpol.ChernPolynomial(x, 2, "monomial"),
    "ChernPolynomial-k": lambda x: chernpol.ChernPolynomial(2, x, "monomial"),
    "interpolate": lambda x: interpolate([(0, 1), (1, 3), (2, 5)], x),
    "UniPoly": lambda x: UniPoly({x: 2}),
    "UniPoly.from_json": lambda x: UniPoly.from_json([[x, "1"]]),
    "power": lambda x: (_D + 1) ** x,
    "MultiPoly": lambda x: MultiPoly(("a",), {(x,): 1}),
    "vector_partitions": lambda x: vector_partitions((x, 1)),
    "RisingProductSpec-E": lambda x: RisingProductSpec(
        ("d",), {((x,), 1): 1}, _D, 1).to_json(),
    "RisingProductSpec-m": lambda x: RisingProductSpec(
        ("d",), {((1,), x): 1}, _D, 1).to_json(),
    "RisingProductSpec-nx": lambda x: RisingProductSpec(
        ("d",), {}, _D, x).to_json(),
    "stirling_coefficient": lambda x: stirling_coefficient(_SPEC, (x,)),
    "simple_coefficient-E": lambda x: simple_coefficient((x, 1), (1, 2)),
    "simple_coefficient-H": lambda x: simple_coefficient((1, 1), (x, 1)),
    "check_weight_bound": lambda x: check_weight_bound(_SPEC, (x,)),
    "leading_coefficient-W": lambda x: leading_coefficient(_SPEC, (x,), (1,)),
    "leading_coefficient-H": lambda x: leading_coefficient(_SPEC, (1,), (x,)),
    "M_tilde_values": lambda x: M_tilde_values([(x, 1)]),
    "M_tilde": lambda x: M_tilde((x, 1)),
    "M_plain": lambda x: M_plain((x, 1)),
    "check_partition": lambda x: check_partition((x, 1)),
    "enumerate_partitions-weight": enumerate_partitions,
    "enumerate_partitions-max_length": lambda x: enumerate_partitions(3, x),
    "convert_expansion": lambda x: symfunc.convert_expansion(
        {(1,): 1}, "monomial", "elementary", x),
    "to_x_expansion": lambda x: symfunc.to_x_expansion("schur", (1,), x),
    "to_x_expansion-lam": lambda x: symfunc.to_x_expansion("schur", (x, 1), 3),
    "convert_expansion-key": lambda x: symfunc.convert_expansion(
        {(x, 1): 1}, "elementary", "monomial", 3),
    "leading_term": lambda x: chern.leading_term("monomial", (1,), x),
    "leading_term-lam": lambda x: chern.leading_term("monomial", (x,), 2),
    "enumerate_orbit": lambda x: enumerate_orbit((x, 1), 4),
    "orbit_term": lambda x: orbit_term((1, 2), x),
    "orbit_term-values": lambda x: orbit_term((1, x)),
    "orbit_factorization_check-d": lambda x: orbit_factorization_check(
        2, x, TruncationPolicy(2)),
    "simplex_moment": lambda x: simplex_moment((x, 0)),
    "faulhaber": faulhaber,
    "chern_grassmannian-k": lambda x: enumgeo.chern_grassmannian(
        x, 4, 1, (3,)),
    "chern_grassmannian-n_amb": lambda x: enumgeo.chern_grassmannian(
        1, x, 1, (3,)),
    "chern_grassmannian-degree": lambda x: enumgeo.chern_grassmannian(
        2, 4, x, (3,)),
    "chern_grassmannian-ds": lambda x: enumgeo.chern_grassmannian(
        2, 4, 1, (x,)),
    "grassmann_integral-k": lambda x: enumgeo.grassmann_integral(
        lambda alpha: 1, x, 3),
    "grassmann_integral-n_amb": lambda x: enumgeo.grassmann_integral(
        lambda alpha: 1, 1, x),
    "conjugate": lambda x: symfunc.conjugate((x, 1)),
}

# an entry point for each integer input of either sign, as a function of
# that integer, with a valid value and what -1 gives: its own domain error
# (which the CLI reports with exit 3) or its value out of range
SIGNED_INPUTS = {
    "stirling_first-n": (lambda x: stirling_first(x, 1), 3, 0),
    "stirling_first-k": (lambda x: stirling_first(3, x), 2, 0),
    "stirling_second-n": (lambda x: stirling_second(x, 1), 3, 0),
    "stirling_second-k": (lambda x: stirling_second(3, x), 2, 0),
    "eulerian_second-h": (lambda x: eulerian_second(x, 1), 3, 0),
    "eulerian_second-j": (lambda x: eulerian_second(3, x), 1, 0),
    "catalan_triangle-delta": (lambda x: catalan_triangle(x, 1), 4, 0),
    "catalan_triangle-j": (lambda x: catalan_triangle(4, x), 1, 0),
    "chern_interpolated-n": (lambda x: chern.chern_interpolated(x, 2), 2,
                             OutOfDomainError),
    "chern_interpolated-k": (lambda x: chern.chern_interpolated(2, x), 2,
                             OutOfDomainError),
    "chern_direct-n": (lambda x: chern.chern_direct(x, 2, TruncationPolicy(2)),
                       2, OutOfDomainError),
    "chern_direct-d": (lambda x: chern.chern_direct(2, x, TruncationPolicy(2)),
                       2, MultiPoly.const(1, ("x1", "x2"))),
    "orbit_types": (orbit_types, 3, OutOfDomainError),
    "orbit_factorization_check-n": (lambda x: orbit_factorization_check(
        x, 2, TruncationPolicy(2)), 2, OutOfDomainError),
    "enumerate_orbit-d": (lambda x: enumerate_orbit((1, 1), x), 4, []),
    "euler_c2_closed": (chern.euler_c2_closed, 3, OutOfDomainError),
    "expected_dimension-d": (lambda x: enumgeo.expected_dimension(x, 4, 1),
                             3, 6),
    "expected_dimension-m": (lambda x: enumgeo.expected_dimension(3, x, 1),
                             4, -8),
    "expected_dimension-r": (lambda x: enumgeo.expected_dimension(3, 4, x),
                             1, OutOfDomainError),
    "sigma_degree-d": (lambda x: enumgeo.sigma_degree(x, 3, 1), 4, 0),
    "sigma_degree-m": (lambda x: enumgeo.sigma_degree(4, x, 1), 3,
                       OutOfDomainError),
    "sigma_degree-r": (lambda x: enumgeo.sigma_degree(4, 3, x), 1,
                       OutOfDomainError),
    "sigma_degree_symbolic-m": (lambda x: enumgeo.sigma_degree_symbolic(x, 1),
                                2, OutOfDomainError),
    "sigma_degree_symbolic-r": (lambda x: enumgeo.sigma_degree_symbolic(3, x),
                                1, OutOfDomainError),
    "sigma_degree_leading-m": (lambda x: enumgeo.sigma_degree_leading(x, 1),
                               3, OutOfDomainError),
    "sigma_degree_leading-r": (lambda x: enumgeo.sigma_degree_leading(3, x),
                               1, OutOfDomainError),
    "sigma_degree_hyperplane-d": (
        lambda x: enumgeo.sigma_degree_hyperplane(x, 3), 4, 0),
    "sigma_degree_hyperplane-m": (
        lambda x: enumgeo.sigma_degree_hyperplane(4, x), 3, OutOfDomainError),
    "fano_degree_lines-d": (lambda x: enumgeo.fano_degree_lines(x, 4), 3,
                            OutOfDomainError),
    "fano_degree_lines-m": (lambda x: enumgeo.fano_degree_lines(3, x), 4,
                            OutOfDomainError),
    "fano_chi_lines-d": (lambda x: enumgeo.fano_chi_lines(x, 4), 3,
                         OutOfDomainError),
    "fano_chi_lines-m": (lambda x: enumgeo.fano_chi_lines(3, x), 4,
                         OutOfDomainError),
}


@pytest.mark.parametrize("name", [*NATURAL_INPUTS, *SIGNED_INPUTS])
def test_integer_inputs_follow_one_rule(name):
    # an int or an integral float; never a fraction, a string or a bool.  A
    # natural input refuses a negative number too (M_tilde is cached: (1, 1)
    # comes first); a signed one answers it by its domain or its range
    if name in NATURAL_INPUTS:
        f, good, rule = NATURAL_INPUTS[name], 2, "non-negative integer"
        f(1)
        with pytest.raises(ValueError, match=rule):
            f(-1)
    else:
        f, good, at_minus_one = SIGNED_INPUTS[name]
        rule = "must be an integer"
        if at_minus_one is OutOfDomainError:
            with pytest.raises(OutOfDomainError):
                f(-1)
        else:
            assert f(-1) == at_minus_one
    assert repr(f(float(good))) == repr(f(good))
    for bad in (1.5, "2", True):
        with pytest.raises(ValueError, match=rule):
            f(bad)


_TWO = ("d0", "d1")
_TWO_PARAMS = RisingProductSpec(_TWO, {((1,), 1): 1},
                                MultiPoly(_TWO, {(1, 0): 1, (0, 1): 1}), 1)

# an entry point for each ValueError branch of the library that rejects a
# malformed argument: (the call, the exact class, a fragment of the message)
VALUE_ERRORS = {
    "chern_interpolated-basis": (
        lambda: chern.chern_interpolated(2, 1, "x"), ValueError,
        "unknown basis 'x'"),
    "convert_expansion-basis": (
        lambda: symfunc.convert_expansion({(1,): 1}, "monomial", "x", 2),
        ValueError, "unknown basis 'x'"),
    "convert_expansion-same-unknown-basis": (
        lambda: symfunc.convert_expansion({(2,): 1}, "x", "x", 2),
        ValueError, "unknown basis 'x'"),
    "convert_expansion-same-basis-not-partition": (
        lambda: symfunc.convert_expansion({(1, 3): 1}, "monomial",
                                          "monomial", 2),
        ValueError, "not a partition"),
    "convert_expansion-same-basis-length": (
        lambda: symfunc.convert_expansion({(1, 1, 1): 1}, "monomial",
                                          "monomial", 2),
        ValueError, "length > 2"),
    "conjugate-increasing": (
        lambda: symfunc.conjugate((1, 3)), ValueError, "not a partition"),
    "conjugate-zero-part": (
        lambda: symfunc.conjugate((0,)), ValueError, "not a partition"),
    "expand_in_basis-basis": (
        lambda: symfunc.expand_in_basis(MultiPoly(("x1",), {(1,): 1}), "x"),
        ValueError, "unknown basis 'x'"),
    "leading_term-power": (
        lambda: chern.leading_term("power", (1,), 2), ValueError,
        "no leading-term formula in basis 'power'"),
    "sigma_degree_leading-r-zero": (
        lambda: enumgeo.sigma_degree_leading(3, 0), OutOfDomainError,
        "r = 0: the expected dimension m - 1 is >= 0"),
    "sigma_degree_leading-r-ge-m": (
        lambda: enumgeo.sigma_degree_leading(3, 3), OutOfDomainError,
        "need 0 <= r < m"),
    "sigma_degree_hyperplane-d": (
        lambda: enumgeo.sigma_degree_hyperplane(-2, 3), OutOfDomainError,
        "d must be >= -1"),
    "sigma_degree_hyperplane-m": (
        lambda: enumgeo.sigma_degree_hyperplane(4, 0), OutOfDomainError,
        "need m >= 1"),
    "grassmann_integral-k": (
        lambda: enumgeo.grassmann_integral(lambda alpha: 1, 3, 2),
        ValueError, "need 1 <= k <= n_amb"),
    "chern_grassmannian-k": (
        lambda: enumgeo.chern_grassmannian(3, 2, 1), ValueError,
        "need 1 <= k <= n_amb"),
    "fano_chi_lines-method": (
        lambda: enumgeo.fano_chi_lines(4, 4, method="x"), ValueError,
        "unknown method 'x'"),
    "enumerate_orbit-empty-type": (
        lambda: enumerate_orbit((), 4), OutOfDomainError, "n must be >= 1"),
    "enumerate_orbit-zero-part": (
        lambda: enumerate_orbit((0, 2), 4), ValueError,
        "orbit type parts must be positive"),
    "simplex_moment-empty": (
        lambda: simplex_moment(()), ValueError, "alpha must be non-empty"),
    "MultiPoly-exponent-length": (
        lambda: MultiPoly(("a", "b"), {(1,): 1}), ValueError,
        "exponent vector length mismatch"),
    "interpolate-too-few-points": (
        lambda: interpolate([(0, 1)], 1), ValueError,
        "need at least degree_bound+1 points"),
    "RisingProductSpec-E-length": (
        lambda: RisingProductSpec(("d",), {((1, 0), 1): 1}, _D, 1),
        ValueError, "exponent vector length mismatch"),
    "RisingProductSpec-MultiPoly-parameter": (
        lambda: RisingProductSpec(("d",), {((1,), 1): MultiPoly(
            ("e",), {(1,): 1})}, _D, 1), ValueError, "parameter mismatch"),
    "RisingProductSpec-UniPoly-parameter": (
        lambda: RisingProductSpec(("d",), {((1,), 1): UniPoly.x("e")}, _D,
                                  1), ValueError, "parameter mismatch"),
    "_unipoly-two-parameters": (
        lambda: _TWO_PARAMS._unipoly(_TWO_PARAMS.K), ValueError,
        "single-parameter spec required"),
    "stirling_coefficient-H-length": (
        lambda: stirling_coefficient(_SPEC, (1, 1)), ValueError,
        "H must have length nx"),
    "leading_coefficient-H-too-long": (
        lambda: leading_coefficient(chern.odd_spec(), (1, 2), (1, 1, 1)),
        ValueError, "H must have length nx"),
    "leading_coefficient-H-too-short": (
        lambda: leading_coefficient(chern.odd_spec(), (1, 2), (1,)),
        ValueError, "H must have length nx"),
    "leading_coefficient-W-too-short": (
        lambda: leading_coefficient(chern.odd_spec(), (1,), (1, 1)),
        ValueError, "W must have length nx"),
    "direct_rising_oracle-no-params": (
        lambda: rising.direct_rising_oracle(chern.odd_spec(), (),
                                            TruncationPolicy(2)),
        ValueError, "params must have one value per parameter"),
    "direct_rising_oracle-extra-param": (
        lambda: rising.direct_rising_oracle(chern.odd_spec(), (1, 2),
                                            TruncationPolicy(2)),
        ValueError, "params must have one value per parameter"),
    "simple_coefficient-length": (
        lambda: simple_coefficient((1,), (1, 1)), ValueError,
        "E and H must have equal length"),
    "leading_coefficient-two-parameters": (
        lambda: leading_coefficient(_TWO_PARAMS, (1,), (1,)), ValueError,
        "single-parameter spec required"),
    "leading_coefficient-K-not-monic": (
        lambda: leading_coefficient(RisingProductSpec(
            ("d",), {((1,), 1): 1}, 2 * _D, 1), (1,), (1,)), ValueError,
        "K must be monic linear"),
    "RisingProductSpec-params-not-names": (
        lambda: RisingProductSpec((5,), {}, 1, 1), ValueError,
        "parameter names must be distinct identifiers, not [5]"),
    "RisingProductSpec-params-repeated": (
        lambda: RisingProductSpec(("d", "d"), {}, 1, 1), ValueError,
        "parameter names must be distinct identifiers"),
    "RisingProductSpec-K-not-integral": (
        lambda: RisingProductSpec(("d",), {}, F(1, 2), 1), ValueError,
        "K must be integer-valued, but K(0) = 1/2"),
    "RisingProductSpec-K-not-integer-valued": (
        lambda: RisingProductSpec(_TWO, {}, MultiPoly(_TWO, {(1, 1): F(1, 2)}),
                                  1), ValueError,
        "K must be integer-valued, but K(1, 1) = 1/2"),
    "direct_rising_oracle-K-not-integral": (
        lambda: rising.direct_rising_oracle(_SPEC, (F(1, 2),),
                                            TruncationPolicy(1)),
        OutOfDomainError, "K must evaluate to an integer"),
}


@pytest.mark.parametrize("name", VALUE_ERRORS)
def test_malformed_arguments_raise_value_errors(name):
    call, cls, fragment = VALUE_ERRORS[name]
    with pytest.raises(ValueError, match=re.escape(fragment)) as info:
        call()
    assert type(info.value) is cls


def _integer_parameters() -> list:
    """(name, parameter, how many int parameters the callable has) of each
    parameter annotated int or int | None on a callable the package exports,
    a class by its constructor; annotations are strings, as every module
    imports annotations from __future__."""
    out = []
    for name in chernpol.__all__:
        obj = getattr(chernpol, name)
        if not callable(obj) or (isinstance(obj, type)
                                 and issubclass(obj, Exception)):
            continue
        params = [p.name for p in inspect.signature(obj).parameters.values()
                  if p.annotation in ("int", "int | None")]
        out += [(name, p, len(params)) for p in params]
    return out


def test_every_integer_input_has_a_rule_entry():
    # the tables above cannot drift from the signatures they test
    params = _integer_parameters()
    assert ("RisingProductSpec", "nx", 1) in params
    keys = {*NATURAL_INPUTS, *SIGNED_INPUTS}
    missing = [f"{name}-{p}" for name, p, count in params
               if f"{name}-{p}" not in keys
               and not (count == 1 and name in keys)]
    assert not missing


def test_enumgeo_imports_no_multipoly():
    # the MultiPoly form of the Fano integrals lives in the tests only
    tree = ast.parse(Path(enumgeo.__file__).read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert "multipoly" not in imported and "exactcore" in imported


def test_sigma_degree_loads_no_multipoly():
    # numeric and symbolic Sigma read chern_values through the alternant and
    # build no MultiPoly and no ChernPolynomial
    sigma = CORE | {"chernpol.symfunc", "chernpol.chern",
                    "chernpol.specialization", "chernpol.enumgeo"}
    assert _run(["sigma-degree", "--r", "2", "--d", "5", "--m", "6"],
                allow_json=False) == sigma
    assert _run(["sigma-degree", "--r", "1", "--m", "3"],
                allow_json=False) == sigma


def test_text_output_loads_no_json():
    # both methods of both Fano invariants read chern_values on partitions,
    # so they build no MultiPoly and no ChernPolynomial
    fano = CORE | {"chernpol.symfunc", "chernpol.chern",
                   "chernpol.specialization", "chernpol.enumgeo"}
    for command, d, m in [("fano-degree", 3, 3), ("fano-degree", 13, 8),
                          ("fano-chi", 4, 4), ("fano-chi", 10, 7)]:
        assert _run([command, "--d", str(d), "--m", str(m), "--method",
                     "both"], allow_json=False) == fano, command
    # the checks compile only for verify: the pins above hold no checks
    assert "chernpol.checks" in _run(["verify"], allow_json=False)


@pytest.mark.skipif(all(importlib.util.find_spec(name) is None
                        for name in ("_sha2", "_sha256")),
                    reason="no built-in SHA-256 module")
def test_cache_hit_loads_no_openssl(tmp_path):
    argv = ["chern", "--n", "2", "--k", "3", "--cache-dir", str(tmp_path)]
    _run(argv)                                      # fills the cache
    report = _fresh(PROBE, *argv)
    assert report["code"] == 0
    assert "_hashlib" not in report["new"]


def test_console_script_is_the_entry_point():
    tomllib = pytest.importorskip("tomllib")        # Python 3.11+
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())[
        "project"]["scripts"]
    module, _, name = scripts["chernpol"].partition(":")
    assert callable(getattr(importlib.import_module(module), name))
    # not main: the script's wrapper passes main's code to sys.exit, and
    # the interpreter then tears down
    assert scripts["chernpol"] == "chernpol.cli:run"


def test_only_the_entry_point_ends_the_process():
    # os._exit skips teardown; everything else returns, so the tests and the
    # benchmark can call it in-process
    found = []
    for path in sorted(Path(chernpol.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [(path.name, node.lineno) for node in ast.walk(tree)
                  if "_exit" in (getattr(node, "attr", None),
                                 getattr(node, "name", None),
                                 getattr(node, "id", None))]
    tree = ast.parse(Path(cli.__file__).read_text())
    run = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    assert [name for name, _ in found] == ["cli.py"]
    assert run.lineno < found[0][1] <= run.end_lineno


def test_import_chernpol_loads_no_submodule():
    report = _fresh("import json, sys, chernpol; "
                    "print(json.dumps(sorted(sys.modules)))")
    assert [m for m in report if m.startswith("chernpol")] == ["chernpol"]


def test_lazy_namespace_exports_every_name():
    for module, names in EXPORTED.items():
        home = importlib.import_module(f"chernpol.{module}")
        for name in names:
            ns = {}
            exec(f"from chernpol import {name}", ns)
            assert ns[name] is getattr(home, name), name
            assert getattr(chernpol, name) is getattr(home, name), name
    exported = {name for names in EXPORTED.values() for name in names}
    assert set(chernpol.__all__) == exported
    assert exported <= set(dir(chernpol))
    assert "__version__" in dir(chernpol)


def test_lazy_namespace_rejects_unknown_names():
    with pytest.raises(AttributeError, match="no_such_name"):
        chernpol.no_such_name
    with pytest.raises(ImportError):
        exec("from chernpol import no_such_name", {})
