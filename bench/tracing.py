"""Traced in-process replay of the benchmark's queries.

The replay runs each query through ``chernpol.cli.main(argv)`` in this
process.  Before every query it clears ``chern._direct_cache`` and every
``lru_cache`` in ``symfunc`` and ``specialization``, so that a query costs
what it costs in a fresh process.  ``instrument`` installs timing wrappers
around each layer's public functions, in every ``chernpol`` namespace that
binds them, and removes them again; the package code is not changed.

Spans are kept in memory as ``[name, start, end, parent, query]``.  A
layer's self time is its spans' duration minus the time their child spans
cover.  Each query is one root span named ``query``; the traced wall time
not covered by a layer's self time is reported as the remainder.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import os
import signal
import sys
import time
from collections import Counter
from math import comb


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []         # [name, start, end, parent, query]
        self.counts: Counter = Counter()
        self.query = None
        self._stack: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.query])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def self_times(self) -> Counter:
        """{span name: total self time}."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return out


# -- per-layer counters -------------------------------------------------------
# A hook is a pair (before, after): before(tracer, args, kwargs) runs ahead
# of the traced call and returns a state, after(tracer, result, state) runs
# once the call has returned.  Either may be None.

def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _chern_direct(t, args, kwargs):
    chern = sys.modules["chernpol.chern"]
    a = _bind(chern.chern_direct, args, kwargs)
    n, d = a["n"], a["d"]
    if (n, d, a["policy"].max_total_degree) in chern._direct_cache:
        t.counts["chern.chern_direct.hits"] += 1
    elif d >= 1:
        t.counts["chern.chern_direct.weight_factors"] += comb(d + n - 1, n - 1)


def _samples(t, result, state):
    t.counts["chern.samples"] += len(result.samples)


def _term_pairs(t, args, kwargs):
    other = args[1] if len(args) > 1 else kwargs["other"]
    t.counts["exactcore.mul_truncated.term_pairs"] += (
        len(args[0].terms) * len(other.terms))


def _vector_partitions(t, result, state):
    t.counts["rising.vector_partitions.count"] += len(result)


def _cache_path(t, args, kwargs):
    cli = sys.modules["chernpol.cli"]
    a = _bind(cli.cache_get_or_compute, args, kwargs)
    path = None if a["no_cache"] else cli._cache_path(
        a["cache_dir"] or cli.default_cache_dir(), a["n"], a["k"])
    if path and os.path.exists(path):
        t.counts["cli.cache.bytes_read"] += os.path.getsize(path)
    return path, t.counts["chern.chern_interpolated.calls"]


def _cache_outcome(t, result, state):
    # a call is a miss when chern_interpolated was entered inside it
    path, interpolations = state
    if t.counts["chern.chern_interpolated.calls"] == interpolations:
        t.counts["cli.cache.hits"] += 1
    else:
        t.counts["cli.cache.misses"] += 1
        if path and os.path.exists(path):
            t.counts["cli.cache.bytes_written"] += os.path.getsize(path)


NO_HOOK = (None, None)

# (module, attribute, layer name, hook)
LAYERS = (
    ("chern", "chern_direct", "chern.chern_direct", (_chern_direct, None)),
    ("chern", "chern_interpolated", "chern.chern_interpolated",
     (None, _samples)),
    ("exactcore", "MultiPoly.mul_truncated", "exactcore.mul_truncated",
     (_term_pairs, None)),
    ("exactcore", "interpolate", "exactcore.interpolate", NO_HOOK),
    ("exactcore", "series_invert", "exactcore.series_invert", NO_HOOK),
    ("symfunc", "expand_in_basis", "symfunc.expand_in_basis", NO_HOOK),
    ("symfunc", "convert_expansion", "symfunc.convert_expansion", NO_HOOK),
    ("specialization", "M_tilde", "specialization.M_tilde", NO_HOOK),
    ("rising", "stirling_coefficient", "rising.stirling_coefficient",
     NO_HOOK),
    ("rising", "vector_partitions", "rising.vector_partitions",
     (None, _vector_partitions)),
    ("orbits", "orbit_term", "orbits.orbit_term", NO_HOOK),
    ("orbits", "enumerate_orbit", "orbits.enumerate_orbit", NO_HOOK),
    ("enumgeo", "grassmann_integral", "enumgeo.grassmann_integral", NO_HOOK),
    ("enumgeo", "chern_grassmannian", "enumgeo.chern_grassmannian", NO_HOOK),
    ("cli", "factored_str", "cli.factored_str", NO_HOOK),
    ("cli", "cache_get_or_compute", "cli.cache_get_or_compute",
     (_cache_path, _cache_outcome)),
)

# child layer -> parent layer: a call made directly from the parent gets no
# span of its own and its time stays in the parent's self time.  The
# multiplications of chern_direct's own product loop are the sampling layer
# that ROADMAP aim 1 names; they still count in the child's counters.
INLINED_UNDER = {"exactcore.mul_truncated": "chern.chern_direct"}

# layers whose call count is a metric
COUNTED_CALLS = ("chern.chern_direct", "exactcore.mul_truncated",
                 "exactcore.interpolate", "symfunc.expand_in_basis",
                 "orbits.enumerate_orbit", "cli.factored_str")

# lru caches whose hit ratio is a metric: metric prefix -> (module, attribute)
LRU_RATIOS = {"symfunc.schur_x": ("symfunc", "_schur_x"),
              "specialization.M_tilde": ("specialization", "M_tilde")}


def _wrap(tracer: Tracer, layer: str, fn, hook):
    before, after = hook
    calls = layer + ".calls"
    parent = INLINED_UNDER.get(layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[calls] += 1
        state = before(tracer, args, kwargs) if before else None
        if parent and tracer.current() == parent:
            result = fn(*args, **kwargs)
        else:
            idx = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        if after:
            after(tracer, result, state)
        return result

    return wrapper


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "chernpol" or name.startswith("chernpol.")]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer of LAYERS wherever a chernpol namespace binds it."""
    patches = []
    try:
        for module, attr, layer, hook in LAYERS:
            owner = importlib.import_module("chernpol." + module)
            *cls, name = attr.split(".")
            if cls:                  # a method: patch its class only
                owner = getattr(owner, cls[0])
            original = getattr(owner, name)
            targets = [(owner, name)] if cls else [
                (m, key) for m in _package_modules()
                for key, value in vars(m).items() if value is original]
            wrapper = _wrap(tracer, layer, original, hook)
            for ns, key in targets:
                patches.append((ns, key, original))
                setattr(ns, key, wrapper)
        yield tracer
    finally:
        for ns, key, original in reversed(patches):
            setattr(ns, key, original)


# -- in-process replay --------------------------------------------------------

class QueryTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so that the package's own
    ``except Exception`` blocks cannot swallow it."""


def _raise_timeout(signum, frame):
    raise QueryTimeout()


class Replay:
    def __init__(self, timeout):
        # timeout() gives the seconds the next query may take
        self.timeout = timeout
        self.cli = importlib.import_module("chernpol.cli")
        self.chern = importlib.import_module("chernpol.chern")
        self.lru = {}
        for module in ("symfunc", "specialization"):
            mod = importlib.import_module("chernpol." + module)
            for key, value in vars(mod).items():
                if hasattr(value, "cache_clear"):
                    self.lru[(module, key)] = value

    def reset(self) -> None:
        self.chern._direct_cache.clear()
        for fn in self.lru.values():
            fn.cache_clear()

    def run(self, queries, tracer: Tracer | None = None):
        """(wall seconds, [(argv, exit code or None on timeout, stdout)])."""
        results = []
        clock = tracer.clock if tracer else time.perf_counter
        start = clock()
        for qid, argv in enumerate(queries):
            self.reset()
            out = io.StringIO()
            if tracer:
                tracer.query = qid
                root = tracer.open("query")
            old = signal.signal(signal.SIGALRM, _raise_timeout)
            signal.setitimer(signal.ITIMER_REAL, max(self.timeout(), 1e-3))
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = self.cli.main(list(argv))
            except QueryTimeout:
                code = None
            except Exception:        # a crash is a failed query
                code = 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
                if tracer:
                    tracer.close(root)
            if tracer:
                for prefix, key in LRU_RATIOS.items():
                    info = self.lru[key].cache_info()
                    tracer.counts[prefix + ".hits"] += info.hits
                    tracer.counts[prefix + ".misses"] += info.misses
            results.append((argv, code, out.getvalue()))
        wall = clock() - start
        self.reset()
        return wall, results


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """Per-layer metrics of one traced pass (without cli.import_s and
    trace.overhead_ratio, which need runs of their own)."""
    selfs = tracer.self_times()
    c = tracer.counts
    m = {layer + ".self_s": selfs.get(layer, 0.0) for _, _, layer, _ in LAYERS}
    for layer in COUNTED_CALLS:
        m[layer + ".calls"] = c[layer + ".calls"]
    m["chern.chern_direct.hit_ratio"] = _ratio(
        c["chern.chern_direct.hits"], c["chern.chern_direct.calls"])
    for name in ("chern.chern_direct.weight_factors", "chern.samples",
                 "exactcore.mul_truncated.term_pairs",
                 "rising.vector_partitions.count", "cli.cache.hits",
                 "cli.cache.misses", "cli.cache.bytes_read",
                 "cli.cache.bytes_written"):
        m[name] = c[name]
    for prefix in LRU_RATIOS:
        m[prefix + ".hit_ratio"] = _ratio(
            c[prefix + ".hits"], c[prefix + ".hits"] + c[prefix + ".misses"])
    m["trace.wall_s"] = wall
    m["trace.remainder_s"] = wall - sum(selfs.get(layer, 0.0)
                                        for _, _, layer, _ in LAYERS)
    return m
