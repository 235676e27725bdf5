import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chernpol
from chernpol import chern, cli, enumgeo, rising

ROOT = Path(__file__).resolve().parents[1]

# every name the package exported when its __init__ imported all submodules
EXPORTED = {
    "exactcore": ("DuplicateAbscissaError", "InconsistentDataError",
                  "MultiPoly", "NotInvertibleError", "OutOfDomainError",
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
    "chern": ("ChernPolynomial", "chern_direct", "chern_interpolated",
              "euler_c2_closed", "leading_term", "odd_grouped_coefficient"),
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


def _scan(node, owners: tuple, defined: set, used: set) -> None:
    """Add to ``defined`` the functions and classes of a module or class
    body below ``node``, and to ``used`` every name referred to below it
    outside the definitions of that name in ``owners``."""
    for child in ast.iter_child_nodes(node):
        inner = owners
        if (isinstance(node, (ast.Module, ast.ClassDef))
                and isinstance(child, (ast.FunctionDef, ast.ClassDef))):
            defined.add(child.name)
            inner = owners + (child.name,)
        name = (child.id if isinstance(child, ast.Name)
                else child.attr if isinstance(child, ast.Attribute)
                else child.name if isinstance(child, ast.alias)
                else None)
        if name not in owners:
            used.add(name)
        _scan(child, inner, defined, used)


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


CORE = {"chernpol", "chernpol.cli", "chernpol.exactcore"}


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
    # the flag schema reader prints help and usage errors itself
    for argv in (["--help"], ["chern", "--help"], ["chern", "--n", "2"]):
        report = _fresh(PROBE, *argv)
        assert report["code"] == (0 if "--help" in argv else 2), argv
        assert not {"argparse", "gettext", "locale", "textwrap"} & set(
            report["new"]), argv
        assert {m for m in report["new"] if m.startswith("chernpol")} == CORE


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


@pytest.mark.skipif(importlib.util.find_spec("_sha256") is None,
                    reason="no built-in _sha256 module")
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
