"""The benchmark's traced replay (bench/tracing.py) binds package names by
string: layer functions, caches and ChernPolynomial.samples.  Replaying a
few small queries through it here makes a rename or removal of any of those
names fail the test suite, not only a traced benchmark run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_replay_runs_and_reports_every_layer(tmp_path):
    tracing = _tracing()
    chern = ["chern", "--n", "2", "--k", "2", "--cache-dir", str(tmp_path)]
    # cold, then the stored answer, then the record in another basis
    queries = [chern, chern, chern + ["--basis", "s"],
               ["sigma-degree", "--m", "3", "--r", "1", "--d", "4"],
               ["orbits", "--n", "3", "--d", "4"]]
    # as in bench/run.py, the replay finds the lru caches before the layers
    # are wrapped
    replay = tracing.Replay(lambda: 60.0)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        wall, results = replay.run(queries, tracer)
    assert [code for _, code, _ in results] == [0, 0, 0, 0, 0]
    assert results[0][2] == results[1][2]
    metrics = tracing.layer_metrics(tracer, wall)
    assert (metrics["cli.cache.misses"], metrics["cli.cache.hits"]) == (1, 1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # the two metrics layer_metrics leaves out need runs of their own
    assert set(metrics) | {"cli.import_s", "trace.overhead_ratio"} == \
        {m["name"] for m in declared}


def test_traced_replay_reaches_rising_and_grassmann_layers():
    tracing = _tracing()
    queries = [["stirling-coeff", "--spec-file",
                str(ROOT / "bench" / "odd_spec.json"), "--type", "2,1"],
               ["fano-degree", "--d", "3", "--m", "3", "--method", "both"],
               ["sigma-degree", "--r", "1", "--d", "3", "--m", "3"]]
    replay = tracing.Replay(lambda: 60.0)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        _, results = replay.run(queries, tracer)
    assert [code for _, code, _ in results] == [0, 0, 0]
    assert tracer.counts["rising.stirling_coefficient.calls"] > 0
    assert tracer.counts["enumgeo.grassmann_integral.calls"] > 0


def test_sigma_degree_alone_reaches_grassmann_integral():
    # Sigma integrates through the same volume-form reader as the Fano
    # integrals, so its traced time lands in that layer
    tracing = _tracing()
    replay = tracing.Replay(lambda: 60.0)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        _, results = replay.run(
            [["sigma-degree", "--r", "2", "--d", "5", "--m", "6"]], tracer)
    assert [code for _, code, _ in results] == [0]
    assert tracer.counts["enumgeo.grassmann_integral.calls"] > 0


def test_bench_selftest_passes():
    # the benchmark's checker and tracer bind package names; their own
    # self-test catches a package change that breaks them
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
