import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import zipfile
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from chernpol import chern, cli, enumgeo, orbits, symfunc
from chernpol.chern import chern_interpolated
from chernpol.exactcore import UniPoly
from chernpol.record import ChernPolynomial
from chernpol.rising import RisingProductSpec

from polyhelpers import from_roots


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


def _spec_below_minus_one(tmp_path) -> str:
    """A spec file of prod_{t=0}^{-5} (1 + t x), a product with no meaning."""
    path = tmp_path / "below.json"
    path.write_text(json.dumps({"params": ["d"], "nx": 1, "K": [[0, "-5"]],
                                "table": [[[1], 1, [[0, "1"]]]]}))
    return str(path)


def test_domain_error_exit_code(capsys, tmp_path):
    # an empty Fano scheme, a degree d < 2 and a constant bound K < -1: one
    # error name for exit 3
    below = ["stirling-coeff", "--spec-file", _spec_below_minus_one(tmp_path),
             "--type", "1"]
    for argv in (["fano-degree", "--d", "4", "--m", "3"],
                 ["fano-degree", "--d", "1", "--m", "3"], below):
        code, out, err = run_cli(argv, capsys)
        assert code == cli.EXIT_DOMAIN
        assert err.startswith("domain error: ")
        code, out, err = run_cli(argv + ["--format", "json"], capsys)
        assert code == cli.EXIT_DOMAIN
        assert json.loads(err)["error"] == "OutOfDomainError"
    assert run_cli(below, capsys)[2] == "domain error: K(params) < -1\n"


def _python(*args, **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this package;
    stdout and stderr are captured unless ``kwargs`` redirect them."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    kwargs.setdefault("timeout", 60)
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def test_entry_point_usage_exit():
    assert _python("-m", "chernpol.cli").returncode == cli.EXIT_USAGE


def test_entry_point_help():
    # the benchmark's set-up runs this and counts a nonzero exit as a failure
    proc = _python("-m", "chernpol.cli", "--help", text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: chernpol COMMAND")
    assert [line.split()[0] for line in proc.stdout.splitlines()
            if line.startswith("  ")] == list(cli.COMMANDS)


# the entry point, with enumgeo's two Fano degree methods disagreeing
DISAGREEING = """import sys
from chernpol import cli, enumgeo
enumgeo.fano_degree_lines = lambda d, m, method: {"closed": 27,
                                                  "integral": 28}[method]
cli.run(sys.argv[1:])
"""


@pytest.mark.parametrize("args, code, message", [
    (["-m", "chernpol.cli", "orbits", "--n", "3", "--d", "2", "--type", "1,1"],
     cli.EXIT_USAGE, "usage error: --type must be a composition"),
    (["-m", "chernpol.cli", "fano-degree", "--d", "4", "--m", "3"],
     cli.EXIT_DOMAIN, "domain error: negative expected dimension"),
    (["-c", DISAGREEING, "fano-degree", "--d", "3", "--m", "3"],
     cli.EXIT_CHECK, "check failed: method disagreement"),
], ids=["usage", "domain", "check"])
def test_entry_point_keeps_exit_codes(args, code, message):
    proc = _python(*args, text=True)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith(message) and "Traceback" not in proc.stderr


def test_entry_point_exception_ends_with_traceback():
    # only a normal return from main takes the fast exit
    script = ("import sys\n"
              "from chernpol import cli, enumgeo\n"
              "enumgeo.fano_degree_lines = None\n"
              "cli.run(sys.argv[1:])\n")
    proc = _python("-c", script, "fano-degree", "--d", "3", "--m", "3",
                   text=True)
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and "TypeError" in proc.stderr


def test_entry_point_runs_atexit_callbacks(tmp_path):
    marker = tmp_path / "marker"
    script = ("import atexit, pathlib, sys\n"
              "atexit.register(pathlib.Path(sys.argv[1]).write_text, 'ran')\n"
              "from chernpol import cli\n"
              "cli.run(sys.argv[2:])\n")
    proc = _python("-c", script, str(marker), "fano-degree", "--d", "3",
                   "--m", "3", text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "27\n", "")
    assert marker.read_text() == "ran"


def test_entry_point_writes_a_complete_cache_file(tmp_path):
    proc = _python("-m", "chernpol.cli", "chern", "--n", "3", "--k", "2",
                   "--cache-dir", str(tmp_path))
    assert proc.returncode == 0
    # the answer and the record; no temporary file is left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "answer_chern_basis-monomial_factored-False_format-json_k-2_n-3.txt",
        "answer_chern_basis-monomial_factored-False_format-text_k-2_n-3.txt"]
    header, _, body = _record(tmp_path, 3, 2).read_text().partition("\n")
    assert header.split()[1] == hashlib.sha256(body.encode()).hexdigest()
    cp = ChernPolynomial.from_json(json.loads(body))
    assert cp == chern_interpolated(3, 2)


def test_broken_pipe_exits_quietly():
    # 1.6 MB of output, far more than a pipe holds, so the query is still
    # writing when the reader closes its end
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "chernpol.cli", "orbits", "--n", "8", "--d",
         "60"], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b"type (1,1,"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_unwritable_output_is_one_error_line():
    with open("/dev/full", "w") as full:
        proc = _python("-m", "chernpol.cli", "fano-degree", "--d", "3",
                       "--m", "3", stdout=full, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write output: ")
    assert proc.stderr.count("\n") == 1


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
    code, out, _ = run_cli(["chern-eval", "--n", "2", "--k", "1", "--d", "3",
                            "--basis", "e", "--format", "json",
                            "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads(out) == {"n": 2, "k": 1, "basis": "elementary", "d": 3,
                               "terms": [[[1], "6"]]}
    # d = -1 is the empty product: every coefficient of c_3 is 0
    argv = ["chern-eval", "--n", "2", "--k", "3", "--d", "-1",
            "--cache-dir", str(tmp_path)]
    assert run_cli(argv, capsys) == (
        0, "c_3(Pol^-1(C^2)) in monomial basis:\n  0\n", "")
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["terms"] == [[[2, 1], "0"], [[3], "0"]]


def test_exact_answers_of_any_length_print(capsys, tmp_path):
    # c_4(Pol^d(C^3)) and deg Sigma(d, 4, 1) at a 401-digit d have about
    # 4,800 digits, past the 4,300 that str() of an int allows by default:
    # main lifts that limit while it runs and gives it back
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    d = 10 ** 400
    eval_argv = ["chern-eval", "--n", "3", "--k", "4", "--d", str(d),
                 "--cache-dir", str(tmp_path)]
    text = run_cli(eval_argv, capsys)
    js = run_cli(eval_argv + ["--format", "json"], capsys)
    sigma_argv = ["sigma-degree", "--m", "4", "--r", "1", "--d", str(d)]
    sigma = run_cli(sigma_argv, capsys)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    values = chern_interpolated(3, 4).evaluate(d)
    degree = enumgeo.sigma_degree_symbolic(4, 1)(d)
    with cli.unlimited_int_digits():
        assert max(len(str(v)) for v in values.values()) > 4300
        assert len(str(degree)) > 4300
        assert text == (0, f"c_4(Pol^{d}(C^3)) in monomial basis:\n" + "".join(
            f"  m[{','.join(map(str, lam))}]: {v}\n"
            for lam, v in sorted(values.items())), "")
        assert js[0] == 0 and json.loads(js[1])["terms"] == [
            [list(lam), str(v)] for lam, v in sorted(values.items())]
        assert sigma == (0, f"{degree}\n", "")
    # the process entry point too: it used to end with exit 1 and a
    # traceback from the conversion
    done = _python("-m", "chernpol.cli", *sigma_argv)
    assert (done.returncode, done.stderr) == (0, b"")
    assert len(done.stdout) == len(sigma[1])


def test_argv_integers_of_any_length(capsys, tmp_path):
    # with the limit lifted an argv integer past 4,300 digits is read too,
    # where it used to be a usage error
    digits = "1" + "0" * 5000
    code, out, err = run_cli(["chern-eval", "--n", "2", "--k", "1", "--d",
                              digits, "--basis", "e", "--cache-dir",
                              str(tmp_path)], capsys)
    d = 10 ** 5000
    with cli.unlimited_int_digits():
        assert (code, out, err) == (0, (
            f"c_1(Pol^{d}(C^2)) in elementary basis:\n"
            f"  e[1]: {d * (d + 1) // 2}\n"), "")


def test_chern_factored(capsys, tmp_path):
    code, out, _ = run_cli(["chern", "--n", "2", "--k", "1", "--basis", "e",
                            "--factored", "--cache-dir", str(tmp_path)],
                           capsys)
    assert code == 0
    assert "d*(d+1)*(1/2)" in out.replace(" ", "")
    # c_0 = 1, a nonzero constant with no root
    code, out, _ = run_cli(["chern", "--n", "2", "--k", "0", "--factored",
                            "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert out == "c_0(Pol^d(C^2)) in monomial basis:\n  m[]: 1\n"


def test_stirling_coeff(capsys, tmp_path):
    spec = RisingProductSpec(("d",), {((1,), 1): 1}, UniPoly.x("d"), 1)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json()))
    code, out, _ = run_cli(["stirling-coeff", "--spec-file", str(path),
                            "--type", "1", "--format", "json"], capsys)
    assert code == 0
    poly = UniPoly.from_json(json.loads(out)["coefficient"], var="d")
    assert poly == UniPoly({2: F(1, 2), 1: F(1, 2)}, var="d")


def test_stirling_coeff_wrong_length(capsys, tmp_path):
    spec = RisingProductSpec(("d",), {((1,), 1): 1}, UniPoly.x("d"), 1)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json()))
    code, _, err = run_cli(["stirling-coeff", "--spec-file", str(path),
                            "--type", "1,2"], capsys)
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("params", [["d", "e"], [], "d"])
def test_spec_file_has_exactly_one_parameter(params, capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"params": params, "nx": 1, "K": [[1, "1"]],
                                "table": [[[1], 1, [[0, "1"]]]]}))
    code, out, err = run_cli(["stirling-coeff", "--spec-file", str(path),
                              "--type", "1"], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("usage error: ") and len(err.splitlines()) == 1
    assert "a spec file has exactly one parameter: params" in err


def test_checks_hold_under_optimize(tmp_path):
    # python -O strips assert statements: no check may be one
    def run(*argv):
        return _python("-O", "-m", "chernpol.cli", *argv, text=True)
    proc = run("verify")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "all checks passed"
    assert run("fano-degree", "--d", "4", "--m", "3").returncode == \
        cli.EXIT_DOMAIN
    assert run("stirling-coeff", "--spec-file", _spec_below_minus_one(tmp_path),
               "--type", "1").returncode == cli.EXIT_DOMAIN


@pytest.mark.parametrize("E, m, coeff", [
    ([-1], 1, [[0, "1"]]), ([1], -1, [[0, "1"]]), ([1], 1.5, [[0, "1"]]),
    ([1.7], 1, [[0, "1"]]), ([1], 1, [[0.5, "1"]]), ([1], 1, [[-2, "1"]]),
])
def test_stirling_coeff_bad_spec_is_usage_error(E, m, coeff, tmp_path):
    # a subprocess with a timeout, so a spec that hangs fails the test
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"params": ["d"], "nx": 1, "K": [[1, "1"]],
                                "table": [[E, m, coeff]]}))
    proc = _python("-m", "chernpol.cli", "stirling-coeff", "--spec-file",
                   str(path), "--type", "2", text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_USAGE, "")
    assert proc.stderr.startswith("usage error: ")
    assert proc.stderr.count("\n") == 1


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
    code, out, _ = run_cli(["sigma-degree", "--m", "3", "--r", "1",
                            "--d", "2", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"d": 2, "m": 3, "r": 1, "degree": "0",
                   "warnings": enumgeo.sigma_validity_warnings(2, 3, 1)}
    assert len(doc["warnings"]) == 2


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
    assert out.count("PASS") == 9
    assert "all checks passed" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(["verify"], capsys)
    lines = out.splitlines()
    code, out, _ = run_cli(["verify", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert [f"PASS: {c['name']}" for c in doc["checks"]] == lines[:-1]
    for c in doc["checks"]:
        assert set(c) == {"name", "passed", "detail", "seconds"}
        assert c["passed"] is True and c["detail"] == ""
        assert 0 <= c["seconds"] < 60


# ---------------------------------------------------------------------------
# cache behavior
# ---------------------------------------------------------------------------

def _answer_file(argv) -> Path:
    """The answer file of the cached request ``argv``."""
    return Path(cli._answer_path(cli.parse_args(argv)))


def _record(cache_dir, n: int, k: int) -> Path:
    """The record of (n, k): the answer file of its monomial JSON request."""
    return _answer_file(["chern", "--n", str(n), "--k", str(k), "--format",
                         "json", "--cache-dir", str(cache_dir)])


def _seal(path: Path, body: str) -> None:
    """Write ``body`` to ``path`` under a valid answer header."""
    path.write_text(f"chernpol-answer "
                    f"{hashlib.sha256(body.encode()).hexdigest()} "
                    f"{cli._source_identity()}\n{body}")


def test_cache_cold_warm_identical(capsys, tmp_path):
    argv = ["chern", "--n", "2", "--k", "2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    code1, cold, _ = run_cli(argv, capsys)
    assert code1 == 0
    assert _record(tmp_path, 2, 2).exists()
    code2, warm, _ = run_cli(argv, capsys)
    assert code2 == 0
    assert warm == cold


def test_cache_corrupt_recovers(capsys, tmp_path):
    argv = ["chern", "--n", "2", "--k", "1", "--basis", "e", "--format",
            "json", "--cache-dir", str(tmp_path)]
    _, cold, _ = run_cli(argv, capsys)
    _seal(_record(tmp_path, 2, 1), "{not json")
    _answer_file(argv).unlink()
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert out == cold
    assert "warning" in err and len(err.splitlines()) == 1


def test_cache_entry_nested_too_deep_is_recomputed(capsys, tmp_path):
    # json.load raises RecursionError, which is no ValueError, on this file
    argv = ["chern", "--n", "2", "--k", "1", "--cache-dir", str(tmp_path)]
    _, cold, _ = run_cli(argv, capsys)
    _seal(_record(tmp_path, 2, 1), "[" * 100000 + "]" * 100000)
    _answer_file(argv).unlink()
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (0, cold)
    assert "warning: recomputing" in err and "recursion" in err
    assert len(err.splitlines()) == 1


def test_cache_checksum_mismatch_recovers(capsys, tmp_path):
    argv = ["chern", "--n", "2", "--k", "1", "--basis", "e", "--format",
            "json", "--cache-dir", str(tmp_path)]
    _, cold, _ = run_cli(argv, capsys)
    path = _record(tmp_path, 2, 1)
    header = path.read_text().split("\n")[0].split()
    path.write_text(path.read_text().replace(header[1], "0" * 64))
    _answer_file(argv).unlink()
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert out == cold
    assert err.startswith(f"warning: recomputing corrupt answer file {path}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("n, k", [(1, 1), (2, 2), (3, 4)])
def test_record_is_the_monomial_json_answer(n, k, capsys, tmp_path):
    # byte for byte what "chern --format json" prints, under a header whose
    # checksum is the SHA-256 of those bytes, whichever implementation runs
    argv = ["chern", "--n", str(n), "--k", str(k), "--format", "json"]
    _, uncached, _ = run_cli(argv + ["--no-cache"], capsys)
    cli.cache_get_or_compute(n, k, str(tmp_path))
    header, _, body = _record(tmp_path, n, k).read_text().partition("\n")
    assert body == uncached
    assert header == (f"chernpol-answer "
                      f"{hashlib.sha256(body.encode()).hexdigest()} "
                      f"{cli._source_identity()}")


def test_cache_entry_of_old_format_is_recomputed(capsys, tmp_path):
    argv = ["chern", "--n", "2", "--k", "2", "--basis", "e",
            "--cache-dir", str(tmp_path)]
    _, uncached, _ = run_cli(argv + ["--no-cache"], capsys)
    # a record as the sampling version wrote it: its own format tag, the
    # degree bound and the sample points
    payload = chern_interpolated(2, 2).to_json()
    payload.update({"format": "chernpol-cache-1", "degree_bound": 4,
                    "samples": list(range(-1, 5))})
    path = _record(tmp_path, 2, 2)
    _seal(path, json.dumps(payload))
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert out == uncached
    assert "warning: recomputing" in err and "stale cache format" in err
    assert json.loads(path.read_text().partition("\n")[2])["format"] == \
        "chernpol-cache-2"
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (0, uncached, "")


def test_old_layout_cache_file_is_not_read(capsys, tmp_path):
    # a checksummed {"checksum", "payload"} file of the old layout, here
    # one that holds a wrong answer, is neither read nor removed
    argv = ["chern", "--n", "2", "--k", "1", "--cache-dir", str(tmp_path)]
    _, uncached, _ = run_cli(argv + ["--no-cache"], capsys)
    payload = chern_interpolated(2, 1).to_json()
    payload["terms"][0][1] = [[0, "7"]]
    blob = json.dumps(payload, sort_keys=True).encode()
    old = tmp_path / "chern_n2_k1.json"
    old.write_text(json.dumps({"checksum": hashlib.sha256(blob).hexdigest(),
                               "payload": payload}))
    text = old.read_text()
    assert run_cli(argv, capsys) == (0, uncached, "")
    assert old.read_text() == text


def test_cache_entry_with_bad_exponent_is_recomputed(capsys, tmp_path):
    argv = ["chern", "--n", "2", "--k", "2", "--cache-dir", str(tmp_path)]
    _, uncached, _ = run_cli(argv + ["--no-cache"], capsys)
    payload = chern_interpolated(2, 2, "monomial").to_json()
    for bad in (0.5, -2):
        payload["terms"][0][1][0][0] = bad
        _seal(_record(tmp_path, 2, 2), json.dumps(payload))
        _answer_file(argv).unlink(missing_ok=True)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (0, uncached)
        assert "warning: recomputing" in err and "exponent" in err
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("k, bad", [(2, [2.5]), (3, [1, 1, 1]),
                                    (2, ["x"]), (2, [3])],
                         ids=["fraction", "too-long", "string", "weight-3"])
def test_cache_entry_with_bad_key_is_recomputed(k, bad, capsys, tmp_path):
    # each key must be a partition of k that indexes the basis in n = 2
    # variables; the header is valid, so only the key check can catch it
    argv = ["chern", "--n", "2", "--k", str(k), "--basis", "e",
            "--cache-dir", str(tmp_path)]
    _, uncached, _ = run_cli(argv + ["--no-cache"], capsys)
    payload = chern_interpolated(2, k, "monomial").to_json()
    payload["terms"][0][0] = bad
    _seal(_record(tmp_path, 2, k), json.dumps(payload))
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (0, uncached)
    assert err.count("warning: recomputing") == 1
    assert len(err.splitlines()) == 1


def test_no_cache_skips_write(capsys, tmp_path):
    code, _, _ = run_cli(["chern", "--n", "2", "--k", "1", "--no-cache",
                          "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert list(tmp_path.iterdir()) == []


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, _, _ = run_cli(["chern", "--n", "2", "--k", "1"], capsys)
    assert code == 0
    assert _record(tmp_path, 2, 1).exists()
    # without the variable, the cache is under the home directory
    monkeypatch.delenv(cli.CACHE_ENV)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert cli.default_cache_dir() == str(
        tmp_path / "home" / ".cache" / "chernpol")


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
    assert len(err.splitlines()) == 1


def test_cache_entry_that_is_a_directory(capsys, tmp_path):
    # it cannot be read, which is silent, nor written over: one warning
    _record(tmp_path, 2, 1).mkdir()
    argv = ["chern", "--n", "2", "--k", "1", "--basis", "e"]
    _, uncached, _ = run_cli(argv + ["--no-cache"], capsys)
    code, out, err = run_cli(argv + ["--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert out == uncached
    assert err.startswith("warning: not caching")
    assert len(err.splitlines()) == 1
    # the answer is stored; no temporary file is left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "answer_chern_basis-elementary_factored-False_format-text_k-1_n-2.txt",
        _record(tmp_path, 2, 1).name]


# ---------------------------------------------------------------------------
# answer files: a repeated chern / chern-eval request prints its stored answer
# ---------------------------------------------------------------------------

def _no_record(*args, **kwargs):
    raise AssertionError("the request read the record")


@pytest.mark.parametrize("argv", [
    ["chern", "--n", "3", "--k", "3", "--basis", "e"],
    ["chern", "--n", "3", "--k", "3", "--basis", "s", "--factored"],
    ["chern", "--n", "3", "--k", "3", "--format", "json"],
    ["chern-eval", "--n", "3", "--k", "3", "--basis", "p", "--d", "7"],
    ["chern-eval", "--n", "3", "--k", "3", "--d", "7", "--format", "json"],
], ids=["text", "factored", "json", "eval-text", "eval-json"])
def test_answer_hit_prints_the_same_bytes(argv, capsys, tmp_path,
                                          monkeypatch):
    _, uncached, _ = run_cli(argv + ["--no-cache"], capsys)
    argv = argv + ["--cache-dir", str(tmp_path)]
    assert run_cli(argv, capsys) == (0, uncached, "")
    header, _, body = _answer_file(argv).read_text().partition("\n")
    assert body == uncached
    assert header.split()[:2] == ["chernpol-answer",
                                  hashlib.sha256(body.encode()).hexdigest()]
    monkeypatch.setattr(cli, "cache_get_or_compute", _no_record)
    assert run_cli(argv, capsys) == (0, uncached, "")


def test_a_basis_letter_and_its_name_share_one_answer(capsys, tmp_path,
                                                      monkeypatch):
    argv = ["chern", "--n", "2", "--k", "3", "--cache-dir", str(tmp_path),
            "--basis"]
    _, cold, _ = run_cli(argv + ["s"], capsys)
    monkeypatch.setattr(cli, "cache_get_or_compute", _no_record)
    assert run_cli(argv + ["schur"], capsys) == (0, cold, "")
    # the answer and the record
    assert sorted(tmp_path.iterdir()) == [_record(tmp_path, 2, 3),
                                          _answer_file(argv + ["s"])]


def test_corrupt_answer_is_recomputed_with_one_warning(capsys, tmp_path):
    argv = ["chern-eval", "--n", "2", "--k", "2", "--d", "5",
            "--cache-dir", str(tmp_path)]
    _, cold, _ = run_cli(argv, capsys)
    path = _answer_file(argv)
    path.write_bytes(path.read_bytes().replace(b"m[", b"\xffm["))
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (0, cold)
    assert "warning: recomputing corrupt answer file" in err
    assert len(err.splitlines()) == 1
    assert run_cli(argv, capsys) == (0, cold, "")     # rewritten


def test_answer_of_another_package_source_is_recomputed(capsys, tmp_path,
                                                        monkeypatch):
    argv = ["chern", "--n", "2", "--k", "2", "--cache-dir", str(tmp_path)]
    _, cold, _ = run_cli(argv, capsys)
    calls = []
    monkeypatch.setattr(cli, "_source_identity", lambda: "edited")
    monkeypatch.setattr(cli, "cache_get_or_compute",
                        lambda *a: calls.append(a) or chern_interpolated(2, 2))
    assert run_cli(argv, capsys) == (0, cold, "")
    assert len(calls) == 1
    assert _answer_file(argv).read_text().split("\n")[0].endswith(
        " edited")
    assert run_cli(argv, capsys) == (0, cold, "")
    assert len(calls) == 1


def test_source_identity_follows_the_module_files(tmp_path):
    # the identity of a copied package changes when one of its files does
    package = tmp_path / "chernpol"
    shutil.copytree(Path(cli.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    probe = "from chernpol import cli; print(cli._source_identity())"
    env = dict(os.environ, PYTHONPATH=str(tmp_path))

    def identity() -> str:
        return subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True,
                              check=True).stdout
    before = identity()
    assert identity() == before
    with open(package / "roots.py", "a") as fh:
        fh.write("\n")
    assert identity() != before


def test_no_cache_reads_no_answer_file(capsys, tmp_path):
    argv = ["chern", "--n", "2", "--k", "1", "--cache-dir", str(tmp_path)]
    _, cold, _ = run_cli(argv, capsys)
    path = _answer_file(argv)
    header = path.read_text().split("\n")[0].split()
    body = "forged\n"
    header[1] = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(" ".join(header) + "\n" + body)
    assert run_cli(argv, capsys) == (0, body, "")
    assert run_cli(argv + ["--no-cache"], capsys) == (0, cold, "")


def test_domain_error_stores_no_answer(capsys, tmp_path):
    code, out, err = run_cli(["chern-eval", "--n", "2", "--k", "2", "--d",
                              "-2", "--cache-dir", str(tmp_path)], capsys)
    assert (code, out) == (cli.EXIT_DOMAIN, "")
    assert list(tmp_path.iterdir()) == []


def test_failed_answer_write_changes_nothing(capsys, tmp_path):
    # below a regular file nothing is written: one warning, for the record
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["chern", "--n", "2", "--k", "1", "--basis", "e"]
    _, uncached, _ = run_cli(argv + ["--no-cache"], capsys)
    code, out, err = run_cli(argv + ["--cache-dir", str(blocker / "sub")],
                             capsys)
    assert (code, out) == (0, uncached)
    assert err.startswith("warning: not caching")
    assert len(err.splitlines()) == 1
    # the record is written, the answer cannot be: no warning at all
    argv += ["--cache-dir", str(tmp_path / "cache")]
    run_cli(argv, capsys)
    path = _answer_file(argv)
    path.unlink()
    path.mkdir()                # no file can be renamed over it
    assert run_cli(argv, capsys) == (0, uncached, "")
    assert path.is_dir() and not list(path.parent.glob("*.tmp"))


def test_record_of_another_package_source_is_recomputed(capsys, tmp_path,
                                                        monkeypatch):
    # a record written before a package edit is recomputed, not converted
    argv = ["chern", "--n", "2", "--k", "2", "--cache-dir", str(tmp_path),
            "--basis"]
    cli.cache_get_or_compute(2, 2, str(tmp_path))
    _, uncached, _ = run_cli(argv + ["s", "--no-cache"], capsys)
    calls = []
    original = chern.chern_interpolated
    monkeypatch.setattr(cli, "_source_identity", lambda: "edited")
    monkeypatch.setattr(chern, "chern_interpolated",
                        lambda *a: calls.append(a) or original(*a))
    assert run_cli(argv + ["s"], capsys) == (0, uncached, "")
    assert len(calls) == 1
    assert _record(tmp_path, 2, 2).read_text().split("\n")[0].endswith(
        " edited")
    run_cli(argv + ["e"], capsys)           # the rewritten record answers
    assert len(calls) == 1


def test_monomial_json_request_is_answered_by_the_record(capsys, tmp_path,
                                                         monkeypatch):
    argv = ["chern", "--n", "3", "--k", "3", "--cache-dir", str(tmp_path)]
    run_cli(argv + ["--basis", "s"], capsys)
    _, uncached, _ = run_cli(argv + ["--format", "json", "--no-cache"],
                             capsys)
    monkeypatch.setattr(cli, "cache_get_or_compute", _no_record)
    assert run_cli(argv + ["--format", "json"], capsys) == (0, uncached, "")


def test_every_cache_file_is_an_answer_file(capsys, tmp_path):
    for argv in (["chern", "--n", "2", "--k", "3", "--basis", "s"],
                 ["chern", "--n", "3", "--k", "2", "--format", "json"],
                 ["chern-eval", "--n", "2", "--k", "2", "--d", "4"]):
        run_cli(argv + ["--cache-dir", str(tmp_path)], capsys)
    # two answers and three records, one of them also the answer asked for
    files = sorted(tmp_path.iterdir())
    assert len(files) == 5
    for path in files:
        assert path.name.startswith("answer_") and path.suffix == ".txt"
        assert path.read_text().startswith("chernpol-answer ")


def test_package_in_a_zip_answers_uncached(tmp_path):
    # its module files cannot be listed, so no cache file is read or written
    archive = tmp_path / "pkg.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in Path(cli.__file__).parent.glob("*.py"):
            zf.write(path, f"chernpol/{path.name}")
    cache = tmp_path / "cache"
    cache.mkdir()
    env = dict(os.environ, PYTHONPATH=str(archive))

    def chern_query(*extra) -> tuple:
        proc = subprocess.run(
            [sys.executable, "-m", "chernpol.cli", "chern", "--n", "2", "--k",
             "1", "--cache-dir", str(cache), *extra],
            env=env, capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr
    uncached = chern_query("--no-cache")
    assert uncached[0] == 0 and uncached[1]
    assert chern_query() == chern_query() == uncached
    assert list(cache.iterdir()) == []


# ---------------------------------------------------------------------------
# malformed JSON input: cache entries and spec files
# ---------------------------------------------------------------------------

# each a document that the JSON reader refuses or that is no record or spec;
# the fuzz test below also draws the first four as spec files
MALFORMED = ["1/0", "Infinity", "deep", "0.1", "NaN", "list-root",
             "missing-key", "bool-exponent", "repeated-exponent",
             "repeated-key"]


def _malformed(case: str, doc: dict, poly: list, key: str) -> str:
    """The text of a JSON document ``doc`` made malformed by ``case``:
    ``poly`` is one of its polynomials and ``key`` a key it needs, whose
    value lists entries that end in a polynomial."""
    if case == "deep":
        return "[" * 100000 + "]" * 100000
    if case == "missing-key":
        del doc[key]
    elif case == "bool-exponent":
        poly[0][0] = True
    elif case == "repeated-exponent":
        poly.append([poly[0][0], "5"])
    elif case == "repeated-key":
        # the first entry of doc[key] again, its polynomial last and now 5
        doc[key].append([*doc[key][0][:-1], [[0, "5"]]])
    elif case != "list-root":
        poly[0][1] = {"1/0": "1/0", "Infinity": float("inf"),
                      "NaN": float("nan"), "0.1": 0.1}[case]
    return json.dumps([doc] if case == "list-root" else doc)


def _bad_spec(case: str) -> str:
    spec = RisingProductSpec(("d",), {((1,), 1): 1}, UniPoly.x("d"), 1)
    doc = spec.to_json()
    return _malformed(case, doc, doc["K"], "table")


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_cache_entry_is_recomputed(case, capsys, tmp_path):
    argv = ["chern", "--n", "2", "--k", "2", "--cache-dir", str(tmp_path)]
    _, fresh, _ = run_cli(argv + ["--no-cache"], capsys)
    payload = chern_interpolated(2, 2).to_json()
    path = _record(tmp_path, 2, 2)
    _seal(path, _malformed(case, payload, payload["terms"][0][1], "terms"))
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (0, fresh)
    assert err.startswith(f"warning: recomputing corrupt/stale cache entry "
                          f"{path}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_spec_file_is_usage_error(case, capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(_bad_spec(case))
    code, out, err = run_cli(["stirling-coeff", "--spec-file", str(path),
                              "--type", "1"], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith(f"usage error: cannot read spec file {str(path)!r}: ")
    assert len(err.splitlines()) == 1


def test_spec_file_without_x_variables_is_usage_error(capsys, tmp_path):
    # no --type has length 0; the library constructor still takes nx = 0
    doc = RisingProductSpec(("d",), {}, UniPoly.x("d"), 0).to_json()
    assert doc["nx"] == 0
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["stirling-coeff", "--spec-file", str(path),
                              "--type", "1"], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == (f"usage error: cannot read spec file {str(path)!r}: a spec"
                   f" file has at least one x-variable: nx must be >= 1,"
                   f" not 0\n")


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------

def test_factored_str():
    p = from_roots([0, 0, 1, -1], var="d").scale(F(1, 24))
    s = cli.factored_str(p)
    assert "d^2" in s and "(d-1)" in s and "(d+1)" in s and "1/24" in s
    assert cli.factored_str(UniPoly.const(0, "d")) == "0"
    irred = UniPoly({2: F(1), 0: F(1)}, var="d")
    assert "d^2+1" in cli.factored_str(irred).replace(" ", "")


def test_factored_str_multiplicities_and_large_roots():
    p = from_roots([0, F(-1, 2), F(3, 4), F(3, 4), 2, -2]).scale(5)
    assert cli.factored_str(p) == "d*(d+1/2)*(d-2)*(d+2)*(d-3/4)^2*(5)"
    # a root with a large prime numerator
    assert (cli.factored_str(from_roots([2, -3, 1000000007]))
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
    proc = _python("-m", "chernpol.cli", "stirling-coeff", "--spec-file",
                   str(path), "--type", "1", "--factored", text=True,
                   check=True, timeout=10)
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
    for argv in examples:
        assert cli.parse_args(argv).command == argv[0]


# a value for every flag of cli.FLAGS (None: the flag is a switch), and what
# the reader makes of it
FLAG_VALUES = {"n": ("3", 3), "k": ("2", 2), "d": ("4", 4), "m": ("3", 3),
               "r": ("1", 1), "basis": ("e", "elementary"),
               "type": ("2,1", (2, 1)), "format": ("json", "json"),
               "cache-dir": ("cache", "cache"), "no-cache": (None, True),
               "method": ("closed", "closed"),
               "spec-file": ("spec.json", "spec.json"),
               "factored": (None, True)}
DEFAULTS = {"basis": "monomial", "type": None, "format": "text",
            "cache-dir": None, "no-cache": False, "method": "both",
            "d": None, "factored": False}


def _with_flags(command, flags):
    argv = [command]
    for flag in flags:
        value = FLAG_VALUES[flag][0]
        argv += ["--" + flag] + ([value] if value else [])
    return argv


def _namespace(command, values):
    return {"command": command, "help": None,
            **{flag.replace("-", "_"): v for flag, v in values.items()}}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_each_command_reads_its_flags(command, capsys):
    _, required, optional = cli.COMMANDS[command]
    flags = required + optional + ("format",)
    given = {flag: FLAG_VALUES[flag][1] for flag in flags}
    # the flags left out take their defaults
    assert vars(cli.parse_args(_with_flags(command, required))) == _namespace(
        command, {flag: given[flag] if flag in required else DEFAULTS[flag]
                  for flag in flags})
    assert (vars(cli.parse_args(_with_flags(command, flags[::-1])))
            == _namespace(command, given))
    for missing in required:
        with pytest.raises(cli.UsageError, match=f"required: --{missing}$"):
            cli.parse_args(_with_flags(command, [f for f in required
                                                 if f != missing]))
    for flag in flags:
        if "choices" in cli.FLAGS[flag]:
            with pytest.raises(cli.UsageError,
                               match=r"invalid value: 'x' \(choose from"):
                cli.parse_args(_with_flags(command, required)
                               + ["--" + flag, "x"])
    # the help names every flag with its choices and default, on stdout
    assert cli.main([command, "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: chernpol {command}") and err == ""
    for flag in flags:
        spec = cli.FLAGS[flag]
        assert "--" + flag in out
        if "choices" in spec:
            assert "{" + ",".join(spec["choices"]) + "}" in out
        if spec.get("default"):
            assert f"default {spec['default']}" in out


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"]])
def test_help_lists_every_command_and_its_flags(argv, capsys):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: chernpol COMMAND") and err == ""
    lines = {line.split()[0]: line for line in out.splitlines()
             if line.startswith("  ")}
    for name, (_, required, optional) in cli.COMMANDS.items():
        assert all("--" + flag in lines[name] for flag in required + optional)


@pytest.mark.parametrize("argv, expected", [
    (["chern-eval", "--n", "2", "--k", "1", "--d", "-1"], {"d": -1}),
    (["orbits", "--n", "3", "--d", "4", "--type", "-1"],
     "--type: invalid value: '-1'"),
    (["chern", "--n", "+3", "--k", "2", "--basis", "schur"],
     {"n": 3, "k": 2, "basis": "schur"}),
    (["fano-degree", "--d", "3", "--m", "3", "--meth", "closed"],
     {"method": "closed"}),
    (["fano-chi", "--d=4", "--m=4", "--method=integral"],
     {"d": 4, "m": 4, "method": "integral"}),
    (["chern", "--n", "2", "--k", "1", "--basis", "p", "--basis", "s"],
     {"basis": "schur"}),
    (["chern", "--n", "2", "--k", "1", "--c", "dir", "--fa"],
     {"cache_dir": "dir", "factored": True}),
    (["sigma-degree", "--m", "3", "--r", "1", "--d", "--1"],
     "--d: invalid value: '--1'"),
], ids=["negative", "negative-type", "int-and-basis-name", "abbreviated",
        "equals", "last-wins", "abbreviated-switch", "flag-like-value"])
def test_parse_args_reads_values(argv, expected):
    # the token after a flag is always its value; a string: the usage error
    # that value gives
    if isinstance(expected, str):
        with pytest.raises(cli.UsageError, match=expected):
            cli.parse_args(argv)
    else:
        args = vars(cli.parse_args(argv))
        assert {key: args[key] for key in expected} == expected


@pytest.mark.parametrize("argv, expected", [
    ([], "no command (choose from chern, "),
    (["--help"], None), (["chern", "--help"], None),
    (["frobenius"], "invalid command 'frobenius'"),
    (["chern", "--n=2", "--k", "1"], {"n": 2, "k": 1}),
    (["chern", "--n", "2", "--k", "1", "--no"], {"no_cache": True}),
    (["chern", "--n", "2", "--n", "3", "--k", "1"], {"n": 3}),
    (["chern", "--n", "2", "--k", "1", "--", "--factored"],
     "unrecognized arguments: '--'"),
    (["chern", "--n", "2", "--k"], "--k: expected one argument"),
    (["chern", "--n", "-x", "--k", "1"], "--n: invalid value: '-x'"),
    (["orbits", "--n", "3", "--d", "4", "--type", "1,2"], {"type": (1, 2)}),
    (["chern", "--n", "1.5", "--k", "1"], "--n: invalid value: '1.5'"),
    (["chern", "--n", "2", "--k", "1", "x"], "unrecognized arguments: 'x'"),
    (["chern", "--n", "2", "--k", "1", "--f"],
     "ambiguous option: --f could match --factored, --format"),
    (["chern", "--n", "2", "--k", "1", "--no-cache=1"],
     "--no-cache: takes no value"),
    (["--n", "2", "chern"], "unrecognized arguments: '--n'"),
], ids=[f"argv{i}" for i in range(16)])
def test_parse_args_forms(argv, expected):
    # None: the help text; a dict: values read; a string: the usage error
    if expected is None:
        assert cli.parse_args(argv).help.startswith("usage: chernpol ")
    elif isinstance(expected, dict):
        args = vars(cli.parse_args(argv))
        assert {key: args[key] for key in expected} == expected
    else:
        with pytest.raises(cli.UsageError) as info:
            cli.parse_args(argv)
        assert expected in str(info.value)


@pytest.mark.parametrize("argv", [
    ["chern", "--n", "2", "--format", "json"],
    ["chern", "--format=json", "--n", "x", "--k", "1"],
    ["chern", "--n", "2", "--k", "1", "--bogus", "--format", "json"],
    ["chern", "--format", "text", "--n", "2", "--format", "json"],
    ["chern", "--n", "2", "--fo", "json"],
    ["chern", "--n", "2", "--k", "1", "--format", "json", "--format", "jsn"],
    ["bogus", "--n", "2", "--format", "json"],
    ["--format=json"],
])
def test_usage_error_in_argv_has_the_json_body(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert json.loads(err)["error"] == "UsageError"


@pytest.mark.parametrize("argv, message", [
    (["chern", "--n", "2", "--format", "json", "--format", "text"],
     "the following arguments are required: --k"),
    # the --format that --cache-dir takes as its value asks for nothing
    (["chern", "--n", "2", "--k", "1", "--cache-dir", "--format", "json"],
     "unrecognized arguments: 'json'"),
])
def test_usage_error_in_argv_is_one_line(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == f"usage error: {message}\n"


# of several usage errors in one argv, the first is reported: an invalid
# command, then the flags' errors in argv order, then a missing command,
# then missing required flags
@pytest.mark.parametrize("argv, message", [
    (["bogus", "--zzz", "--format", "json"],
     "invalid command 'bogus' (choose from " + ", ".join(cli.COMMANDS) + ")"),
    (["chern", "--n", "x", "--zzz"], "argument --n: invalid value: 'x'"),
    (["chern", "--zzz", "--n", "x"], "unrecognized arguments: '--zzz'"),
    (["--zzz"], "unrecognized arguments: '--zzz'"),
    (["chern", "--n", "2"], "the following arguments are required: --k"),
])
def test_the_first_usage_error_is_reported(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    if "json" in argv:
        assert json.loads(err) == {"error": "UsageError", "message": message}
    else:
        assert err == f"usage error: {message}\n"


def test_help_wins_over_a_usage_error(capsys):
    code, out, err = run_cli(["chern", "--zzz", "--help"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("usage: chernpol chern --n --k")


ODD_SPEC = str(Path(__file__).resolve().parents[1] / "bench" / "odd_spec.json")


@pytest.mark.parametrize("flag, value", [
    ("type", "5,,4"), ("type", ",5,4,"), ("type", "5,4,"), ("type", ""),
    ("type", "5,-4"), ("type", "5, 4"), ("type", "5_0,4"),
    ("type", "5,\u0664"), ("n", "1_0"), ("n", " 2"), ("n", "\u0663"),
    ("n", "\u00b2"), ("n", ""), ("n", "+"), ("n", "--"),
])
def test_integers_are_ascii_decimal(flag, value, capsys):
    # an integer is ASCII digits after an optional sign, and a --type entry
    # is one that is not negative: int() alone would read "1_0" as 10, and
    # an empty entry of a vector used to be dropped
    argv = {"type": ["stirling-coeff", "--spec-file", ODD_SPEC],
            "n": ["chern", "--k", "1", "--no-cache"]}[flag]
    code, out, err = run_cli(argv + ["--" + flag, value], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == f"usage error: argument --{flag}: invalid value: {value!r}\n"


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
    spec = RisingProductSpec(("d",), {((1,), 1): 1}, UniPoly.x("d"), 1)
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


@pytest.mark.parametrize("error", [RuntimeError("boom"), ValueError("boom")])
def test_other_exceptions_escape_main(error, capsys, monkeypatch):
    # only UsageError, OutOfDomainError and InconsistentDataError are
    # mapped to an exit code; anything else escapes main as it was raised
    def fail(args):
        raise error

    monkeypatch.setitem(cli.COMMANDS, "verify",
                        (fail,) + cli.COMMANDS["verify"][1:])
    with pytest.raises(type(error)) as caught:
        cli.main(["verify"])
    assert caught.value is error
    assert caught.traceback[-1].name == "fail"
    assert capsys.readouterr() == ("", "")


def test_failed_verify_exits_check(capsys, monkeypatch):
    # each check forced false by one patch: (owner, name, replacement,
    # the start of its FAIL line); a check that raises fails with the
    # message as its detail
    def no_closed_form(d, m):
        raise ArithmeticError("no closed form")

    patches = [
        (ChernPolynomial, "evaluate", lambda self, d: {},
         "FAIL: closed form matches direct product"),
        (chern, "euler_c2_closed", lambda d: [(0, -1)],
         "FAIL: Euler closed formula"),
        (enumgeo, "fano_degree_lines",
         lambda d, m, method: {"closed": 27, "integral": 28}[method],
         "FAIL: Fano degree methods agree"),
        (orbits, "orbit_factorization_check", lambda n, d, policy: False,
         "FAIL: orbit factorization"),
        (enumgeo, "sigma_degree_hyperplane", no_closed_form,
         "FAIL: Sigma closed form for r = m-1 (d=4, m=3) (no closed form)\n"),
        (enumgeo, "fano_chi_lines",
         lambda d, m, method: {"closed": 1, "integral": 2}[method],
         "FAIL: Fano chi closed"),
        (ChernPolynomial, "divisibility_ok", lambda self: False,
         "FAIL: c_k coefficients divisible"),
        (enumgeo, "sigma_degree_leading", lambda m, r: (F(1), 12),
         "FAIL: Sigma leading term"),
        (enumgeo, "sigma_degree_hyperplane", lambda d, m: 0,
         "FAIL: Sigma closed form for r = m-1"),
        (enumgeo, "chi_deg_ratio_check", lambda m: {"holds": False},
         "FAIL: Fano curve chi"),
    ]
    for owner, name, fake, fail in patches:
        with monkeypatch.context() as mp:
            mp.setattr(owner, name, fake)
            code, out, err = run_cli(["verify"], capsys)
        assert code == cli.EXIT_CHECK, name
        assert out == "", name
        assert fail in err, name
        assert "Traceback" not in err, name


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
    shutil.copy(_record(tmp_path, 2, 1), _record(tmp_path, 2, 2))
    cp = cli.cache_get_or_compute(2, 2, str(tmp_path))
    err = capsys.readouterr().err
    assert "warning" in err and len(err.splitlines()) == 1
    assert cp == chern_interpolated(2, 2)
    assert cli.cache_get_or_compute(2, 2, str(tmp_path)) == cp
    assert capsys.readouterr().err == ""
    # a sealed record that is not an object is stale too
    _seal(_record(tmp_path, 2, 2), "[]")
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
    spec = RisingProductSpec(("d",), {((1,), 1): 1}, UniPoly.x("d"), 1)
    (root / "spec.json").write_text(json.dumps(spec.to_json()))
    bad = [root / f"bad-spec-{i}.json" for i in range(4)]
    for path, case in zip(bad, MALFORMED):
        path.write_text(_bad_spec(case))
    return {"root": root,
            "cache-dir": [root / "cache", root / "file", root / "file" / "sub",
                          root / "spec.json"],
            "spec-file": [root / "spec.json", root / "malformed.json",
                          root / "missing.json", root, root / "file", *bad]}


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
        if not cli._is_switch(flag):
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
    # the last valid --format decides (every flag is drawn in full, and no
    # value is "--format")
    formats = [b for a, b in zip(argv, argv[1:])
               if a == "--format" and b in cli.FLAGS["format"]["choices"]]
    if code in (cli.EXIT_DOMAIN, cli.EXIT_CHECK) and formats[-1:] == ["json"]:
        # one error name for each exit code; warnings may come first
        name = json.loads(err.getvalue().splitlines()[-1])["error"]
        assert name == {cli.EXIT_DOMAIN: "OutOfDomainError",
                        cli.EXIT_CHECK: "InconsistentDataError"}[code], argv
    if code == cli.EXIT_USAGE:
        # one line on stderr; the JSON body if --format asks for it
        last, *rest = err.getvalue().split("\n")[::-1]
        assert (last, len(rest)) == ("", 1), err.getvalue()
        line = rest[0]
        if formats[-1:] == ["json"]:
            assert json.loads(line)["error"] == "UsageError"
        else:
            assert line.startswith("usage error: ")
