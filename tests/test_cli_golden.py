"""Golden CLI output: the exit code and stdout of the README examples, of
every distinct query of the benchmark's two workloads for seeds 0-2, of
three ``--factored`` queries with large coefficients, of twelve basis
conversions larger than any the workloads ask for, of four Sigma
degrees: the empty product at d = -1, both forms at (m, r) = (6, 3) and
the factored form at (7, 2), of two Stirling coefficients with more table
blocks than the workloads ask for, and of two Fano Euler characteristics
of expected dimension 0, where the scheme is finitely many points.

``cli_golden.json`` holds one ``[argv, exit code, stdout]`` entry per query,
in the order they run; one cache dir serves the whole list, so the
chern-warm queries read the entries the earlier chern queries wrote.
Regenerate it, only for an intended change of output, with
``PYTHONPATH=src python tests/test_cli_golden.py``.

The entries are checked in-process through ``cli.main``, and the README
examples also through ``python -m chernpol.cli``, the process entry point.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from chernpol import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("cli_golden.json")
SPEC = "bench/odd_spec.json"      # relative to ROOT, the cwd of every query

README_EXAMPLES = [
    ["chern", "--n", "2", "--k", "1", "--basis", "e"],
    ["chern-eval", "--n", "2", "--k", "1", "--d", "3", "--basis", "e"],
    ["stirling-coeff", "--spec-file", SPEC, "--type", "2,1"],
    ["orbits", "--n", "4", "--d", "8", "--type", "2,1,1"],
    ["sigma-degree", "--m", "3", "--r", "1", "--factored"],
    ["sigma-degree", "--m", "3", "--r", "1", "--d", "4"],
    ["fano-degree", "--d", "3", "--m", "3"],
    ["fano-degree", "--d", "5", "--m", "4"],
    ["fano-chi", "--d", "4", "--m", "4"],
    ["verify"],
]

LARGE_FACTORED = [
    ["chern", "--n", "4", "--k", "6", "--basis", "s", "--factored",
     "--no-cache"],
    ["stirling-coeff", "--spec-file", SPEC, "--type", "3,5", "--factored"],
    ["sigma-degree", "--m", "5", "--r", "2", "--factored"],
]

LARGE_CONVERSIONS = (
    [["chern", "--n", "5", "--k", "4", "--basis", b, "--no-cache"]
     for b in ("e", "s", "p")]
    + [["chern", "--n", "4", "--k", "6", "--basis", b, "--no-cache"]
       for b in ("e", "p")]
    + [["chern", "--n", "6", "--k", "5", "--basis", "s", "--no-cache"],
       ["chern", "--n", "4", "--k", "8", "--basis", "s", "--no-cache"]]
    + [["chern", "--n", n, "--k", k, "--basis", b, "--no-cache"]
       for n, k in (("6", "5"), ("4", "8")) for b in ("e", "p")]
    + [["chern", "--n", "2", "--k", "12", "--basis", "e", "--no-cache"]])

SIGMA_DEGREES = [
    ["sigma-degree", "--m", "1", "--r", "0", "--d", "-1"],
    ["sigma-degree", "--r", "3", "--d", "9", "--m", "6"],
    ["sigma-degree", "--m", "6", "--r", "3"],
    ["sigma-degree", "--m", "7", "--r", "2", "--factored"],
]

STIRLING_COEFFS = [
    ["stirling-coeff", "--spec-file", SPEC, "--type", "6,5"],
    ["stirling-coeff", "--spec-file", SPEC, "--type", "4,4", "--format",
     "json"],
]

FANO_POINTS = [
    ["fano-chi", "--d", "3", "--m", "3"],
    ["fano-chi", "--d", "5", "--m", "4"],
    ["fano-chi", "--d", "4", "--m", "5"],      # delta = 3
    ["fano-chi", "--d", "5", "--m", "6"],      # delta = 4
    ["fano-chi", "--d", "15", "--m", "12"],    # delta = 6
]


def golden_queries() -> list:
    """The README examples, the workload queries, LARGE_FACTORED,
    LARGE_CONVERSIONS, SIGMA_DEGREES, STIRLING_COEFFS and FANO_POINTS, each
    once, in first-seen order."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    def seeded(name):
        return [q for seed in range(3) for q in
                workloads.WORKLOADS[name].queries(random.Random(seed), SPEC)]

    queries = (README_EXAMPLES + seeded("cold") + workloads.cache_fill_queries()
               + seeded("chern-warm") + LARGE_FACTORED + LARGE_CONVERSIONS
               + SIGMA_DEGREES + STIRLING_COEFFS + FANO_POINTS)
    return [list(q) for q in dict.fromkeys(map(tuple, queries))]


def _regenerate() -> None:
    os.chdir(ROOT)
    entries = []
    with tempfile.TemporaryDirectory() as cache:
        os.environ[cli.CACHE_ENV] = cache
        for argv in golden_queries():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            entries.append([argv, code, out.getvalue()])
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
    sys.exit()

ENTRIES = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def cache_env(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(cli.CACHE_ENV, str(tmp_path_factory.mktemp("cache")))
        mp.chdir(ROOT)
        yield


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e[0]) for e in ENTRIES])
def test_cli_output_matches_golden(entry, cache_env, capsys):
    argv, code, stdout = entry
    assert cli.main(list(argv)) == code
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=" ".join)
def test_entry_point_output_matches_golden(argv, tmp_path):
    # the same bytes and exit code through ``python -m chernpol.cli``, which
    # ends the process by cli.run, not by returning from main
    [(code, stdout)] = [(c, out) for a, c, out in ENTRIES if a == argv]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               **{cli.CACHE_ENV: str(tmp_path)})
    proc = subprocess.run([sys.executable, "-m", "chernpol.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (code, stdout.encode())
