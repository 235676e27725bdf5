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
from chernpol import chern, rising

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

# runs one CLI command in a fresh interpreter and reports what it imported
PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from chernpol.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "new": sorted(set(sys.modules) - before)}))
"""


def test_no_assert_statements():
    # python -O strips asserts, so checks in the package must raise instead
    for path in Path(chernpol.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert at lines {found}"


def test_one_out_of_domain_error():
    assert chern.OutOfDomainError is rising.OutOfDomainError


def _fresh(*args) -> dict:
    env = dict(os.environ,
               PYTHONPATH=str(Path(chernpol.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", *args], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def _run(argv) -> set:
    """The chernpol modules a fresh interpreter loads to run ``argv``;
    the command must succeed and must not load dataclasses."""
    report = _fresh(PROBE, *argv)
    assert report["code"] == 0, argv
    assert "dataclasses" not in report["new"], argv
    return {m for m in report["new"] if m.split(".")[0] == "chernpol"}


def test_each_command_loads_only_what_it_runs(tmp_path):
    core = {"chernpol", "chernpol.cli", "chernpol.exactcore",
            "chernpol.symfunc"}
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
    assert _run(["--help"]) == core


@pytest.mark.skipif(importlib.util.find_spec("_sha256") is None,
                    reason="no built-in _sha256 module")
def test_cache_hit_loads_no_openssl(tmp_path):
    argv = ["chern", "--n", "2", "--k", "3", "--cache-dir", str(tmp_path)]
    _run(argv)                                      # fills the cache
    report = _fresh(PROBE, *argv)
    assert report["code"] == 0
    assert "_hashlib" not in report["new"]


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
