#!/usr/bin/env python3
"""Benchmark of the ``chernpol`` CLI.

    python3 bench/run.py --workload cold --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all            # every workload, untraced and traced

Untraced (``--trace 0``), one client runs each workload's query list as a
closed loop: every query is a fresh ``python -m chernpol.cli`` subprocess,
started only after the previous one has ended.  A pass is the whole list run
once; passes repeat until ``--seconds`` have gone by.  Each time metric is
the mean over passes, ``peak_rss_mb`` the median over passes and ``setup_s``
the median of repeated set-ups.  The answers are checked after the timed
region (``check.py``); a nonzero exit, a timeout or a wrong answer is a
failed query.

Traced (``--trace 1``), the same query list is replayed in this process
through ``chernpol.cli.main(argv)`` in pairs of an untraced and a traced
pass, and the per-layer metrics come from the traced pass of median wall
time (``tracing.py``).

The metric names, units and workload names are those of ``BENCHMARK.json``
at the repository root.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Runs
are hermetic: each uses its own cache dir under ``.bench_tmp/``, which is
removed at exit; run records and spans are written to ``.bench_out/``.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import (QUERY_TIMEOUT_S, SPEC_FILE, WORKLOADS,
                       cache_fill_queries)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"
SPEC_PATH = str(BENCH_DIR / SPEC_FILE)

# a run must exit within 180 s: no query starts, and no running query may
# continue, past this many seconds after the start of the run
QUERY_DEADLINE_S = 140.0
# set-up is repeated and its median reported; chern-warm sets up once, as
# filling its cache costs as much as the chern queries of a cold pass
SETUP_REPEATS = 5
IMPORT_SAMPLES = 5


def child_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0", CHERNPOL_CACHE_DIR=str(cache_dir))
    return env


@dataclass
class QueryResult:
    argv: list
    wall: float
    code: int | None          # None: timed out
    stdout: str
    maxrss_kb: int = 0


def run_query(argv, env: dict, out_path: Path, timeout: float) -> QueryResult:
    """One ``python -m chernpol.cli`` subprocess; killed after ``timeout``.

    The child's ``ru_maxrss`` also covers this process's own peak RSS when
    it spawned the child, because exec keeps the larger of the two.  This
    process therefore imports no ``chernpol`` before the timed passes end.
    """
    if timeout <= 0:
        return QueryResult(list(argv), 0.0, None, "")
    fired = threading.Event()
    with open(out_path, "w+") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "chernpol.cli", *argv], cwd=ROOT, env=env,
            stdout=out, stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL)

        def kill():
            fired.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
        out.seek(0)
        stdout = out.read()
    code = None if fired.is_set() else proc.returncode
    return QueryResult(list(argv), wall, code, stdout, usage.ru_maxrss)


class Run:
    def __init__(self, name: str, seed: int, seconds: float):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.rng = random.Random(seed)
        self.start = time.perf_counter()
        self.dir = TMP / f"{name}-{os.getpid()}"
        self.cache = self.dir / "cache"
        self.queries = self.workload.queries(self.rng, SPEC_PATH)
        self.results: list[QueryResult] = []   # every query to be checked

    def time_left(self) -> float:
        return self.start + QUERY_DEADLINE_S - time.perf_counter()

    def query(self, argv) -> QueryResult:
        r = run_query(argv, child_env(self.cache), self.dir / "stdout",
                      min(QUERY_TIMEOUT_S, self.time_left()))
        self.results.append(r)
        return r

    def empty_cache(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir(parents=True)

    def setup(self) -> float:
        """Fresh cache dir, one interpreter start that imports the CLI (so
        the first timed query does not pay cold file reads) and, for a warm
        workload, filling the cache.  Returns its wall time."""
        start = time.perf_counter()
        self.empty_cache()
        warmup = run_query(["--help"], child_env(self.cache),
                           self.dir / "stdout", self.time_left())
        if warmup.code != 0:
            self.results.append(warmup)
        if self.workload.warm_cache:
            for argv in cache_fill_queries():
                self.query(argv)
        return time.perf_counter() - start

    def order(self) -> list:
        queries = list(self.queries)
        self.rng.shuffle(queries)
        return queries

    # -- untraced ---------------------------------------------------------
    def measure(self) -> dict:
        repeats = 1 if self.workload.warm_cache else SETUP_REPEATS
        setups = [self.setup() for _ in range(repeats)]
        passes = []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < self.seconds:
            if self.time_left() <= 0:
                break
            if not self.workload.warm_cache:
                self.empty_cache()
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            results = [self.query(argv) for argv in self.order()]
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            passes.append({
                "wall_s": sum(r.wall for r in results),
                "slowest_query_s": max(r.wall for r in results),
                "cpu_s": (after.ru_utime + after.ru_stime
                          - before.ru_utime - before.ru_stime),
                "peak_rss_mb": max(r.maxrss_kb for r in results) / 1024,
                "queries": [[" ".join(r.argv), r.wall] for r in results],
            })
        # the mean over passes: this shared host switches between two speeds
        # for seconds to minutes at a time, and the median of a few passes
        # jumps between them where the mean moves smoothly
        metrics = {key: statistics.fmean(p[key] for p in passes)
                   for key in ("wall_s", "slowest_query_s", "cpu_s")}
        metrics["peak_rss_mb"] = statistics.median(
            p["peak_rss_mb"] for p in passes)
        metrics["setup_s"] = statistics.median(setups)
        return {"metrics": metrics, "passes": passes, "setups": setups}

    # -- traced -----------------------------------------------------------
    def import_seconds(self) -> float:
        code = ("import time; t = time.perf_counter(); import chernpol.cli; "
                "print(time.perf_counter() - t)")
        samples = []
        for _ in range(IMPORT_SAMPLES):
            out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                 env=child_env(self.cache), check=True,
                                 capture_output=True, text=True, timeout=60)
            samples.append(float(out.stdout))
        return statistics.median(samples)

    def measure_traced(self) -> dict:
        import tracing
        self.setup()
        import_s = self.import_seconds()
        replay = tracing.Replay(lambda: min(QUERY_TIMEOUT_S, self.time_left()))
        os.environ["CHERNPOL_CACHE_DIR"] = str(self.cache)
        pairs = []
        t0 = time.perf_counter()
        while not pairs or time.perf_counter() - t0 < self.seconds:
            if self.time_left() <= 0:
                break
            queries = self.order()
            tracer = tracing.Tracer()
            runs = {}
            # alternate which pass goes first: the first pass of a process
            # also pays for growing its memory
            for on in (True, False) if len(pairs) % 2 else (False, True):
                if not self.workload.warm_cache:
                    self.empty_cache()
                with (tracing.instrument(tracer) if on
                      else contextlib.nullcontext()):
                    runs[on] = replay.run(queries, tracer if on else None)
            (plain_wall, plain), (wall, traced) = runs[False], runs[True]
            pairs.append((plain_wall, wall, tracer))
            for argv, code, stdout in plain + traced:
                self.results.append(QueryResult(list(argv), 0.0, code, stdout))
        pairs.sort(key=lambda p: p[1])
        _, wall, tracer = pairs[(len(pairs) - 1) // 2]
        metrics = tracing.layer_metrics(tracer, wall)
        metrics["cli.import_s"] = import_s
        metrics["trace.overhead_ratio"] = (
            statistics.median(p[1] for p in pairs)
            / statistics.median(p[0] for p in pairs))
        return {"metrics": metrics, "spans": tracer.spans,
                "pairs": [[p[0], p[1]] for p in pairs]}

    # -- answers ----------------------------------------------------------
    def failures(self) -> list:
        """[(argv, reason)] for every failed query; runs the oracles."""
        from check import Checker
        checker = Checker(random.Random(f"{self.seed}:check"), SPEC_PATH)
        out = []
        for r in self.results:
            if r.code is None:
                out.append((r.argv, "timeout"))
            elif r.code != 0:
                out.append((r.argv, f"exit code {r.code}"))
            else:
                reason = checker.check(r.argv, r.stdout)
                if reason:
                    out.append((r.argv, reason))
        return out


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 spec: dict) -> dict:
    run = Run(name, seed, seconds)
    try:
        measured = run.measure_traced() if traced else run.measure()
        failures = run.failures()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()         # only if no other run is using it
    declared = spec["per_layer" if traced else "end_to_end"]
    metrics = measured["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    attempted = len(run.results)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": traced,
        "python": platform.python_version(), "git_sha": git_sha(),
        "nproc": os.cpu_count(), "query_timeout_s": QUERY_TIMEOUT_S,
        "fail_ratio": len(failures) / attempted,
        "failures": [[" ".join(argv), why] for argv, why in failures],
        "result": result,
        **{k: v for k, v in measured.items() if k not in ("metrics", "spans")},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if traced:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(measured["spans"]))
    return record


def print_table(record: dict) -> None:
    metrics = record["result"]["metrics"]
    width = max(map(len, metrics))
    print(f"# {record['workload']}: seed {record['seed']}, trace "
          f"{int(record['trace'])}, python {record['python']}, git "
          f"{record['git_sha'][:12]}, nproc {record['nproc']}")
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':<{width}}  {record['fail_ratio']:.6g} ratio "
          f"({record['result']['failed']}/{record['result']['attempted']})")
    for argv, why in record["failures"]:
        print(f"  FAILED {argv}: {why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chernpol" / "cli.py").is_file():
        print(f"error: no chernpol package under {SRC}", file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if set(WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        raise SystemExit("workloads differ from BENCHMARK.json")
    seconds = args.seconds or spec["run_seconds"]
    sys.path.insert(0, str(SRC))
    # a SIGTERM unwinds like Ctrl-C, so the finally blocks stop the child
    # and remove the run's temp dir
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if args.all:
        # one process per run: the spawning process's peak RSS would
        # otherwise leak into peak_rss_mb (see run_query)
        for name in WORKLOADS:
            for trace in ("0", "1"):
                subprocess.run([sys.executable, __file__, "--workload", name,
                                "--seed", str(args.seed), "--seconds",
                                str(seconds), "--trace", trace], check=True)
        return 0
    record = run_workload(args.workload, args.seed, seconds, bool(args.trace),
                          spec)
    print_table(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
