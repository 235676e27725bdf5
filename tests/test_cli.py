import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from chernpol import cli, enumgeo, symfunc
from chernpol.chern import ChernPolynomial, chern_interpolated
from chernpol.exactcore import UniPoly
from chernpol.rising import RisingProductSpec


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_missing_flag_is_usage_error(capsys):
    code, out, err = run_cli(["chern", "--n", "2"], capsys)
    assert code == cli.EXIT_USAGE
    assert "required" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run_cli(["frobenius"], capsys)
    assert code == cli.EXIT_USAGE


def test_domain_error_exit_code(capsys):
    code, out, err = run_cli(["fano-degree", "--d", "4", "--m", "3"], capsys)
    assert code == cli.EXIT_DOMAIN
    assert "domain error" in err
    code, out, err = run_cli(["fano-degree", "--d", "4", "--m", "3",
                              "--format", "json"], capsys)
    assert code == cli.EXIT_DOMAIN
    assert json.loads(err)["error"] == "EmptyFanoError"


def test_entry_point_usage_exit():
    proc = subprocess.run([sys.executable, "-m", "chernpol.cli"],
                          capture_output=True)
    assert proc.returncode == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_chern_text(capsys, tmp_path):
    code, out, _ = run_cli(["chern", "--n", "2", "--k", "1", "--basis", "e",
                            "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert "e[1]:1/2*d^2+1/2*d" in out.replace(" ", "")


def test_chern_json_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(["chern", "--n", "2", "--k", "2", "--basis", "s",
                            "--format", "json", "--cache-dir", str(tmp_path)],
                           capsys)
    assert code == 0
    cp = ChernPolynomial.from_json(json.loads(out))
    assert cp == chern_interpolated(2, 2, "schur")


def test_chern_n1(capsys, tmp_path):
    code, out, err = run_cli(["chern", "--n", "1", "--k", "1",
                              "--cache-dir", str(tmp_path)], capsys)
    assert code == 0 and err == ""
    assert "  m[1]: d\n" in out


def test_chern_eval(capsys, tmp_path):
    code, out, _ = run_cli(["chern-eval", "--n", "2", "--k", "1", "--d", "3",
                            "--basis", "e", "--cache-dir", str(tmp_path)],
                           capsys)
    assert code == 0
    assert "e[1]: 6" in out


def test_chern_factored(capsys, tmp_path):
    code, out, _ = run_cli(["chern", "--n", "2", "--k", "1", "--basis", "e",
                            "--factored", "--cache-dir", str(tmp_path)],
                           capsys)
    assert code == 0
    assert "d*(d+1)*(1/2)" in out.replace(" ", "")


def test_stirling_coeff(capsys, tmp_path):
    spec = RisingProductSpec.single("d", {((1,), 1): 1}, UniPoly.x("d"), 1)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json()))
    code, out, _ = run_cli(["stirling-coeff", "--spec-file", str(path),
                            "--type", "1", "--format", "json"], capsys)
    assert code == 0
    poly = UniPoly.from_json(json.loads(out)["coefficient"], var="d")
    assert poly == UniPoly({2: F(1, 2), 1: F(1, 2)}, var="d")


def test_stirling_coeff_wrong_length(capsys, tmp_path):
    spec = RisingProductSpec.single("d", {((1,), 1): 1}, UniPoly.x("d"), 1)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json()))
    code, _, err = run_cli(["stirling-coeff", "--spec-file", str(path),
                            "--type", "1,2"], capsys)
    assert code == cli.EXIT_USAGE


def test_orbits_text(capsys):
    code, out, _ = run_cli(["orbits", "--n", "4", "--d", "8",
                            "--type", "2,1,1"], capsys)
    assert code == 0
    assert "(0,0,1,7)" in out and "(1,1,2,4)" in out
    code, out, _ = run_cli(["orbits", "--n", "4", "--d", "8",
                            "--type", "1,3"], capsys)
    assert code == 0
    assert "empty" in out


def test_orbits_all_types_json(capsys):
    code, out, _ = run_cli(["orbits", "--n", "3", "--d", "4",
                            "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["orbits"]) == 4
    total = {tuple(v) for _, vs in data["orbits"] for v in vs}
    assert total == {(0, 0, 4), (0, 1, 3), (0, 2, 2), (1, 1, 2)}


def test_orbits_bad_type(capsys):
    code, _, _ = run_cli(["orbits", "--n", "3", "--d", "4",
                          "--type", "2,2"], capsys)
    assert code == cli.EXIT_USAGE


def test_sigma_degree_numeric_and_symbolic(capsys):
    code, out, _ = run_cli(["sigma-degree", "--m", "3", "--r", "1",
                            "--d", "4"], capsys)
    assert code == 0
    first = out.strip().splitlines()[0]
    code, out, _ = run_cli(["sigma-degree", "--m", "3", "--r", "1",
                            "--format", "json"], capsys)
    assert code == 0
    poly = UniPoly.from_json(json.loads(out)["degree_polynomial"], var="d")
    assert str(poly(4)) == first


def test_sigma_degree_warning(capsys):
    code, out, _ = run_cli(["sigma-degree", "--m", "3", "--r", "1",
                            "--d", "2"], capsys)
    assert code == 0
    assert "warning" in out


def test_fano_degree(capsys):
    code, out, _ = run_cli(["fano-degree", "--d", "3", "--m", "3"], capsys)
    assert code == 0
    assert out.strip() == "27"
    code, out, _ = run_cli(["fano-degree", "--d", "4", "--m", "4",
                            "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 320
    assert set(data["methods"]) == {"closed", "integral"}


def test_fano_chi(capsys):
    code, out, _ = run_cli(["fano-chi", "--d", "3", "--m", "4",
                            "--method", "integral"], capsys)
    assert code == 0
    assert out.strip() == "27"


def test_verify(capsys):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert out.count("PASS") == 5
    assert "all checks passed" in out


# ---------------------------------------------------------------------------
# cache behavior
# ---------------------------------------------------------------------------

def test_cache_cold_warm_identical(capsys, tmp_path):
    argv = ["chern", "--n", "2", "--k", "2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    code1, cold, _ = run_cli(argv, capsys)
    assert code1 == 0
    assert (tmp_path / "chern_n2_k2.json").exists()
    code2, warm, _ = run_cli(argv, capsys)
    assert code2 == 0
    assert warm == cold


def test_cache_corrupt_recovers(capsys, tmp_path):
    argv = ["chern", "--n", "2", "--k", "1", "--format", "json",
            "--cache-dir", str(tmp_path)]
    _, cold, _ = run_cli(argv, capsys)
    (tmp_path / "chern_n2_k1.json").write_text("{not json")
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert out == cold
    assert "warning" in err


def test_cache_checksum_mismatch_recovers(capsys, tmp_path):
    argv = ["chern", "--n", "2", "--k", "1", "--format", "json",
            "--cache-dir", str(tmp_path)]
    _, cold, _ = run_cli(argv, capsys)
    path = tmp_path / "chern_n2_k1.json"
    doc = json.loads(path.read_text())
    doc["checksum"] = "0" * 64
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert out == cold
    assert "warning" in err


def test_cache_checksum_is_sha256_of_the_sorted_payload(capsys, tmp_path):
    # the chernpol-cache-2 checksum, whichever SHA-256 implementation runs
    run_cli(["chern", "--n", "2", "--k", "2", "--cache-dir", str(tmp_path)],
            capsys)
    doc = json.loads((tmp_path / "chern_n2_k2.json").read_text())
    blob = json.dumps(doc["payload"], sort_keys=True).encode()
    assert doc["checksum"] == hashlib.sha256(blob).hexdigest()


def test_cache_entry_of_old_format_is_recomputed(capsys, tmp_path):
    argv = ["chern", "--n", "2", "--k", "2", "--basis", "e",
            "--cache-dir", str(tmp_path)]
    _, uncached, _ = run_cli(argv + ["--no-cache"], capsys)
    # an entry as the sampling version wrote it: its own format tag, the
    # degree bound and the sample points
    payload = chern_interpolated(2, 2).to_json()
    payload.update({"format": "chernpol-cache-1", "degree_bound": 4,
                    "samples": list(range(-1, 5))})
    path = tmp_path / "chern_n2_k2.json"
    path.write_text(json.dumps({"checksum": cli._checksum(payload),
                                "payload": payload}))
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert out == uncached
    assert "warning: recomputing" in err and "stale cache format" in err
    assert json.loads(path.read_text())["payload"]["format"] == \
        "chernpol-cache-2"
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (0, uncached, "")


def test_no_cache_skips_write(capsys, tmp_path):
    code, _, _ = run_cli(["chern", "--n", "2", "--k", "1", "--no-cache",
                          "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert list(tmp_path.iterdir()) == []


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, _, _ = run_cli(["chern", "--n", "2", "--k", "1"], capsys)
    assert code == 0
    assert (tmp_path / "chern_n2_k1.json").exists()


def test_unusable_cache_dir_warns_and_answers(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["chern", "--n", "2", "--k", "1", "--basis", "e"]
    _, uncached, _ = run_cli(argv + ["--no-cache"], capsys)
    code, out, err = run_cli(argv + ["--cache-dir", str(blocker / "sub")],
                             capsys)
    assert code == 0
    assert out == uncached
    assert "warning: not caching" in err and "Traceback" not in err


def test_cache_entry_that_is_a_directory(capsys, tmp_path):
    (tmp_path / "chern_n2_k1.json").mkdir()
    argv = ["chern", "--n", "2", "--k", "1", "--basis", "e"]
    _, uncached, _ = run_cli(argv + ["--no-cache"], capsys)
    code, out, err = run_cli(argv + ["--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert out == uncached
    assert "warning: recomputing" in err and "warning: not caching" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chern_n2_k1.json"]


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------

def test_factored_str():
    p = UniPoly.from_roots([0, 0, 1, -1], var="d").scale(F(1, 24))
    s = cli.factored_str(p)
    assert "d^2" in s and "(d-1)" in s and "(d+1)" in s and "1/24" in s
    assert cli.factored_str(UniPoly.const(0, "d")) == "0"
    irred = UniPoly({2: F(1), 0: F(1)}, var="d")
    assert "d^2+1" in cli.factored_str(irred).replace(" ", "")


def test_factored_str_multiplicities_and_large_roots():
    p = UniPoly.from_roots([0, F(-1, 2), F(3, 4), F(3, 4), 2, -2]).scale(5)
    assert cli.factored_str(p) == "d*(d+1/2)*(d-2)*(d+2)*(d-3/4)^2*(5)"
    # a root with a large prime numerator
    assert (cli.factored_str(UniPoly.from_roots([2, -3, 1000000007]))
            == "(d-2)*(d+3)*(d-1000000007)")
    # non-monic, with large coprime numerators and denominators
    d = UniPoly.x()
    p = (d.scale(7) - 1000003) * (d.scale(3) + 11) ** 2 * (d * d + 5)
    assert cli.factored_str(p) == "(d+11/3)^2*(d-1000003/7)*(63*d^2 + 315)"


def test_factored_stirling_coefficient_with_a_large_prime(tmp_path):
    # the constant term 2^89 - 1 is prime; a subprocess, so that a root
    # search that hangs fails by timeout
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"params": ["delta"], "nx": 1, "K": [[1, "1"]],
         "table": [[[1], 0, [[0, str(2 ** 89 - 1)]]]]}))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "chernpol.cli", "stirling-coeff", "--spec-file",
         str(path), "--type", "1", "--factored"],
        env=env, capture_output=True, text=True, check=True, timeout=10)
    assert proc.stdout == f"(delta+1)*({2 ** 89 - 1})\n"


def test_factored_str_of_a_chern_coefficient():
    p = chern_interpolated(2, 12, "elementary").terms[(2, 2, 2, 2, 2, 2)]
    assert cli.factored_str(p) == (
        "d*(d-1)*(d+1)*(d-2)*(d+2)*(d-3)*(d-4)*(d-5)*(d-6)*(d-7)*(d-8)*(d-9)"
        "*(d-10)*(1/33592320*d^5 + 1/2099520*d^4 + 913/293932800*d^3"
        " + 947/91854000*d^2 + 13667/785862000*d + 691/58046625)")


# ---------------------------------------------------------------------------
# argument schemas
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["chern", "--n", "2", "--k", "1", "--spec-file", "x"],
    ["fano-degree", "--d", "3", "--m", "3", "--basis", "e"],
    ["orbits", "--n", "3", "--d", "4", "--method", "integral"],
])
def test_foreign_flag_is_usage_error(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert "unrecognized arguments" in err


def test_readme_examples_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples = [shlex.split(line, comments=True)[1:]
                for line in readme.read_text().splitlines()
                if line.startswith("chernpol ")]
    assert {argv[0] for argv in examples} == set(cli.COMMANDS)
    parser = cli.build_parser()
    for argv in examples:
        parser.parse_args(argv)


def _parsed(parser, argv):
    """(exit code or None, namespace as a dict or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, ns = None, vars(parser.parse_args(argv))
        except SystemExit as exc:
            code, ns = exc.code, None
    return code, ns, out.getvalue(), err.getvalue()


# a value for every flag of cli.FLAGS (None: the flag takes no value)
FLAG_VALUES = {"n": "3", "k": "2", "d": "4", "m": "3", "r": "1", "basis": "e",
               "type": "2,1", "format": "json", "cache-dir": "cache",
               "no-cache": None, "method": "closed", "spec-file": "spec.json",
               "factored": None}


def _with_flags(command, flags):
    argv = [command]
    for flag in flags:
        argv += ["--" + flag] + ([FLAG_VALUES[flag]] if FLAG_VALUES[flag] else [])
    return argv


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_one_command_parser_matches_the_full_parser(command):
    # build_parser(command) gives the other subcommands no arguments; on
    # the command itself it must parse, help and fail as build_parser() does
    full, own = cli.build_parser(), cli.build_parser(command)
    _, required, optional = cli.COMMANDS[command]
    valid = [_with_flags(command, required),
             _with_flags(command, required + optional + ("format",))]
    errors = [_with_flags(command, [f for f in required if f != missing])
              for missing in required]
    errors += [argv + ["--basis", "x"] for argv in valid if "basis" in optional]
    errors += [argv + ["--method", "fastest"] for argv in valid
               if "method" in optional]
    errors += [["frobenius"], ["frobenius", "--n", "2"]]
    for argv in valid:
        code, ns, _, _ = _parsed(own, argv)
        assert code is None and ns == _parsed(full, argv)[1], argv
    for argv in errors:
        result = _parsed(own, argv)
        assert result[0] == cli.EXIT_USAGE and result[3], argv
        assert result == _parsed(full, argv), argv
    help_argv = [command, "--help"]
    assert _parsed(own, help_argv) == _parsed(full, help_argv)
    assert own.format_help() == full.format_help()
    # a first argument that is not a command builds every subcommand
    assert (_parsed(cli.build_parser("frobenius"), ["frobenius"])
            == _parsed(full, ["frobenius"]))


# ---------------------------------------------------------------------------
# invalid input and failed cross-checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, expected", [
    (["chern", "--n", "0", "--k", "1"], cli.EXIT_DOMAIN),
    (["chern", "--n", "2", "--k", "-1"], cli.EXIT_DOMAIN),
    (["chern-eval", "--n", "2", "--k", "1", "--d", "-5"], cli.EXIT_DOMAIN),
    (["orbits", "--n", "0", "--d", "3"], cli.EXIT_DOMAIN),
    (["orbits", "--n", "0", "--d", "3", "--type", ""], cli.EXIT_USAGE),
    (["sigma-degree", "--m", "3", "--r", "-1"], cli.EXIT_DOMAIN),
    (["sigma-degree", "--m", "3", "--r", "5"], cli.EXIT_DOMAIN),
    (["sigma-degree", "--m", "3", "--r", "3", "--d", "4"], cli.EXIT_DOMAIN),
    (["stirling-coeff", "--spec-file", "{tmp}/missing.json", "--type", "1"],
     cli.EXIT_USAGE),
    (["stirling-coeff", "--spec-file", "{tmp}/spec.json", "--type=-1"],
     cli.EXIT_USAGE),
    (["stirling-coeff", "--spec-file", "{tmp}/malformed.json", "--type", "1"],
     cli.EXIT_USAGE),
    (["chern-eval", "--n", "1", "--k", "1", "--d", "-1"], cli.EXIT_DOMAIN),
    (["sigma-degree", "--m", "3", "--r", "0"], cli.EXIT_DOMAIN),
])
def test_invalid_input_exits_cleanly(argv, expected, capsys, tmp_path,
                                     monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache))
    (tmp_path / "malformed.json").write_text("{not json")
    spec = RisingProductSpec.single("d", {((1,), 1): 1}, UniPoly.x("d"), 1)
    (tmp_path / "spec.json").write_text(json.dumps(spec.to_json()))
    code, out, err = run_cli([a.format(tmp=tmp_path) for a in argv], capsys)
    assert code == expected
    assert out == ""
    assert "Traceback" not in err
    assert not cache.exists()


def test_usage_error_json_body(capsys, tmp_path):
    code, out, err = run_cli(["stirling-coeff", "--spec-file",
                              str(tmp_path / "missing.json"), "--type", "1",
                              "--format", "json"], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert json.loads(err)["error"] == "UsageError"


def test_sigma_degree_empty_product(capsys):
    # d = -1 is the empty product, as for chern-eval
    code, out, err = run_cli(["sigma-degree", "--m", "1", "--r", "0",
                              "--d", "-1"], capsys)
    assert code == 0 and out.startswith("0\n")
    assert "Traceback" not in err


def test_method_disagreement_exits_check(capsys, monkeypatch):
    monkeypatch.setattr(enumgeo, "fano_degree_lines",
                        lambda d, m, method: {"closed": 27,
                                              "integral": 28}[method])
    code, out, err = run_cli(["fano-degree", "--d", "3", "--m", "3"], capsys)
    assert code == cli.EXIT_CHECK
    assert out == ""
    assert "method disagreement" in err and "Traceback" not in err
    code, _, err = run_cli(["fano-degree", "--d", "3", "--m", "3",
                            "--format", "json"], capsys)
    assert code == cli.EXIT_CHECK
    assert json.loads(err)["error"] == "InconsistentDataError"


def test_failed_verify_exits_check(capsys, monkeypatch):
    monkeypatch.setattr(enumgeo, "fano_chi_lines",
                        lambda d, m, method: {"closed": 1,
                                              "integral": 2}[method])
    code, out, err = run_cli(["verify"], capsys)
    assert code == cli.EXIT_CHECK
    assert out == ""
    assert "FAIL: Fano chi" in err and "Traceback" not in err


def test_failed_basis_change_exits_check(capsys, monkeypatch):
    # every elementary pivot row off by a factor of two
    original = symfunc._monomial_row
    monkeypatch.setattr(
        symfunc, "_monomial_row",
        lambda basis, lam, n: {nu: c * (2 if basis == "elementary" else 1)
                               for nu, c in original(basis, lam, n).items()})
    code, out, err = run_cli(["chern", "--n", "3", "--k", "3", "--basis", "e",
                              "--no-cache"], capsys)
    assert code == cli.EXIT_CHECK
    assert out == ""
    assert "check failed" in err and "Traceback" not in err


def test_cache_rejects_payload_for_other_key(capsys, tmp_path):
    cli.cache_get_or_compute(2, 1, str(tmp_path))
    shutil.copy(tmp_path / "chern_n2_k1.json", tmp_path / "chern_n2_k2.json")
    cp = cli.cache_get_or_compute(2, 2, str(tmp_path))
    assert "warning" in capsys.readouterr().err
    assert cp == chern_interpolated(2, 2)
    assert cli.cache_get_or_compute(2, 2, str(tmp_path)) == cp
    assert capsys.readouterr().err == ""
    # a checksummed payload that is not an object is stale too
    (tmp_path / "chern_n2_k2.json").write_text(json.dumps(
        {"checksum": cli._checksum([]), "payload": []}))
    assert cli.cache_get_or_compute(2, 2, str(tmp_path)) == cp
    assert "warning" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzzing argument vectors
# ---------------------------------------------------------------------------

# Values are kept small so that the whole test runs in about 10 s: n, k <= 3,
# symbolic sigma-degree with m <= 3, --type entries <= 2.
SMALL = st.sampled_from(["1", "2", "3", "0", "-1", "-2"])
JUNK = st.sampled_from(["junk", "", "-1", "1.5", "--bogus", "-x", "--",
                        "--n=2", "--help", "\u00e9"])


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """Cache dirs and spec files, usable and not."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "file").write_text("")
    (root / "malformed.json").write_text("{not json")
    spec = RisingProductSpec.single("d", {((1,), 1): 1}, UniPoly.x("d"), 1)
    (root / "spec.json").write_text(json.dumps(spec.to_json()))
    return {"root": root,
            "cache-dir": [root / "cache", root / "file", root / "file" / "sub",
                          root / "spec.json"],
            "spec-file": [root / "spec.json", root / "malformed.json",
                          root / "missing.json", root, root / "file"]}


def _mostly(strategy):
    """``strategy`` seven times in eight, a junk token otherwise."""
    return st.integers(0, 7).flatmap(lambda i: strategy if i else JUNK)


def _values(flag: str, paths: dict):
    if flag in paths:       # no junk: a junk cache dir is a relative path
        return st.sampled_from([str(p) for p in paths[flag]])
    if flag == "basis":
        return _mostly(st.sampled_from(["m", "e", "s", "p", "schur"]))
    if "choices" in cli.FLAGS[flag]:
        return _mostly(st.sampled_from(cli.FLAGS[flag]["choices"]))
    if flag == "type":
        return _mostly(st.lists(st.integers(-1, 2), max_size=3).map(
            lambda v: ",".join(map(str, v))))
    return _mostly(SMALL)


@st.composite
def _argv(draw, paths):
    """A subcommand with its required flags (each dropped one time in
    ten), each of its optional flags one time in two, and one time in
    eight each a foreign flag and a junk token."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS) + ["bogus"]))
    _, required, optional = cli.COMMANDS.get(command, (None, (), ()))
    flags = [f for f in required if draw(st.integers(0, 9))]
    flags += [f for f in optional + ("format",) if draw(st.booleans())]
    if not draw(st.integers(0, 7)):
        flags.append(draw(st.sampled_from(sorted(cli.FLAGS))))
    argv = [command]
    for flag in flags:
        argv.append("--" + flag)
        if cli.FLAGS[flag].get("action") != "store_true":
            argv.append(draw(_values(flag, paths)))
    if not draw(st.integers(0, 7)):
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
    return argv


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_fuzz_argv_exits_cleanly(data, fuzz_paths):
    argv = data.draw(_argv(fuzz_paths), label="argv")
    out, err = io.StringIO(), io.StringIO()
    cache = str(fuzz_paths["root"] / "default-cache")
    with mock.patch.dict(os.environ, {cli.CACHE_ENV: cache}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in {0, cli.EXIT_USAGE, cli.EXIT_DOMAIN, cli.EXIT_CHECK}
    assert "Traceback" not in err.getvalue()
