"""Self-test of the benchmark's answer checker and trace.

    python3 bench/selftest.py

A deliberately corrupted answer must count as a failure, and nested spans
must give self times that sum to the parent's duration.
"""

import sys

sys.dont_write_bytecode = True

import contextlib
import io
import random
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from chernpol import cli  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
from workloads import SPEC_FILE  # noqa: E402

SPEC_PATH = str(BENCH_DIR / SPEC_FILE)


def cli_output(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.checker = check.Checker(random.Random(0), SPEC_PATH)

    def assert_caught(self, argv, good: str, bad: str):
        self.assertNotEqual(good, bad)
        self.assertIsNone(self.checker.check(argv, good))
        self.assertIsNotNone(self.checker.check(argv, bad))

    def test_corrupted_chern_coefficient(self):
        argv = ["chern", "--n", "2", "--k", "3", "--basis", "s", "--no-cache"]
        good = cli_output(argv)
        bad = good.replace("1/", "2/", 1)
        self.assert_caught(argv, good, bad)

    def test_corrupted_factored_chern(self):
        argv = ["chern", "--n", "2", "--k", "3", "--basis", "e", "--no-cache",
                "--factored"]
        good = cli_output(argv)
        self.assert_caught(argv, good, good.replace("(d+1)", "(d+2)", 1))

    def test_dropped_chern_eval_term(self):
        argv = ["chern-eval", "--n", "2", "--k", "3", "--d", "9", "--basis",
                "m", "--no-cache"]
        good = cli_output(argv)
        self.assert_caught(argv, good, "\n".join(good.splitlines()[:-1]))

    def test_wrong_fano_degree(self):
        argv = ["fano-degree", "--d", "3", "--m", "3", "--method", "both"]
        self.assert_caught(argv, cli_output(argv), "28\n")

    def test_wrong_fano_chi(self):
        argv = ["fano-chi", "--d", "4", "--m", "4", "--method", "both"]
        good = cli_output(argv)
        self.assert_caught(argv, good, str(int(good) - 1) + "\n")

    def test_wrong_stirling_coefficient(self):
        argv = ["stirling-coeff", "--spec-file", SPEC_PATH, "--type", "2,1"]
        good = cli_output(argv)
        self.assert_caught(argv, good, good.replace("delta", "(delta+1)", 1))

    def test_wrong_orbit(self):
        argv = ["orbits", "--n", "3", "--d", "5"]
        good = cli_output(argv)
        self.assert_caught(argv, good, good.replace("(0,0,5)", "(0,1,4)"))

    def test_failed_verify(self):
        self.assert_caught(["verify"], "PASS: x\nall checks passed\n",
                           "FAIL: x\nsome checks FAILED\n")


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class TraceTest(unittest.TestCase):
    def test_self_times_sum_to_parent(self):
        # query [0, 10] > a [1, 6] > b [2, 4]; query > c [7, 9]
        t = tracing.Tracer(FakeClock([0, 1, 2, 4, 6, 7, 9, 10]))
        q = t.open("query")
        a = t.open("a")
        b = t.open("b")
        t.close(b)
        t.close(a)
        c = t.open("c")
        t.close(c)
        t.close(q)
        selfs = t.self_times()
        self.assertEqual(dict(selfs), {"query": 3, "a": 3, "b": 2, "c": 2})
        self.assertEqual(sum(selfs.values()), 10)

    def test_traced_replay_accounts_for_wall(self):
        replay = tracing.Replay(lambda: 60)
        queries = [["fano-chi", "--d", "4", "--m", "4"],
                   ["chern", "--n", "2", "--k", "3", "--no-cache",
                    "--factored"]]
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            # from-imported names are wrapped too
            self.assertTrue(hasattr(sys.modules["chernpol.enumgeo"]
                                    .chern_direct, "__wrapped__"))
            wall, results = replay.run(queries, tracer)
        self.assertEqual([code for _, code, _ in results], [0, 0])
        m = tracing.layer_metrics(tracer, wall)
        layers = sum(m[layer + ".self_s"] for _, _, layer, _ in tracing.LAYERS)
        self.assertAlmostEqual(layers + m["trace.remainder_s"], wall)
        self.assertGreater(m["enumgeo.grassmann_integral.self_s"], 0)
        # one factored_str call per printed term
        self.assertEqual(m["cli.factored_str.calls"],
                         len(results[1][2].splitlines()) - 1)
        self.assertEqual(m["cli.cache.misses"], 1)
        # the wrappers are gone afterwards
        self.assertFalse(hasattr(sys.modules["chernpol.enumgeo"].chern_direct,
                                 "__wrapped__"))


if __name__ == "__main__":
    unittest.main()
