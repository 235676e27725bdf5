"""The benchmark's workloads: the ``chernpol`` CLI queries one pass runs.

A pass is the whole query list of a workload, run once, one query at a time.
The seed permutes the query order of each pass and picks the ``chern-eval``
points; the timed work is otherwise the same for every seed.

Every query gets at most ``QUERY_TIMEOUT_S`` seconds; a timeout counts as a
failure.  Two inputs are kept out of the timed lists only so that a pass can
finish within that limit: ``stirling-coeff --type 3,5 --factored`` (more than
30 s) and ``chern --n 2 --k 8 --factored`` (about 34 s, nearly all of it in
``factored_str``'s linear divisor scan).  That defect still shows as time in
chern-warm, whose two ``--factored`` queries spend most of their time there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

QUERY_TIMEOUT_S = 60.0

# the (n, k, basis) chern queries of the cold workload; chern-warm reads
# the same (n, k) entries back from the cache
CHERN_SET = ((4, 4, "m"), (3, 6, "e"), (3, 5, "s"), (4, 3, "e"), (2, 8, "m"))

# the JSON of chern.odd_spec(), the odd-d pairing rising product
SPEC_FILE = "odd_spec.json"


def chern_query(n: int, k: int, basis: str, *extra: str) -> list[str]:
    return ["chern", "--n", str(n), "--k", str(k), "--basis", basis, *extra]


def _cold(rng: random.Random, spec_path: str) -> list[list[str]]:
    return ([chern_query(n, k, b) for n, k, b in CHERN_SET]
            + _enumgeo(rng, spec_path) + _rising(rng, spec_path))


def _chern_warm(rng: random.Random, spec_path: str) -> list[list[str]]:
    return [
        chern_query(4, 4, "e", "--factored"),
        chern_query(3, 6, "e", "--factored"),
        chern_query(3, 5, "p"),
        chern_query(4, 3, "s"),
        chern_query(2, 8, "s"),
        chern_query(4, 3, "m", "--format", "json"),
        ["chern-eval", "--n", "3", "--k", "5", "--basis", "e",
         "--d", str(rng.randint(16, 24))],
        ["chern-eval", "--n", "4", "--k", "3", "--basis", "s",
         "--d", str(rng.randint(13, 18))],
    ]


def _enumgeo(rng: random.Random, spec_path: str) -> list[list[str]]:
    out = [["fano-degree", "--d", str(d), "--m", str(m), "--method", "both"]
           for d, m in ((3, 3), (5, 4), (7, 5), (13, 8))]
    out += [["fano-chi", "--d", str(d), "--m", str(m), "--method", "both"]
            for d, m in ((4, 4), (10, 7))]
    out += [["sigma-degree", "--r", "2", "--d", str(d), "--m", str(m)]
            for d, m in ((5, 6), (6, 7))]
    out += [["sigma-degree", "--m", str(m), "--r", str(r), "--factored"]
            for m, r in ((4, 1), (3, 2))]
    return out


def _rising(rng: random.Random, spec_path: str) -> list[list[str]]:
    stirling = ["stirling-coeff", "--spec-file", spec_path, "--type"]
    return [stirling + ["5,4"], stirling + ["5,3"],
            stirling + ["3,3", "--factored"],
            ["orbits", "--n", "6", "--d", "16"],
            ["verify"]]


@dataclass(frozen=True)
class Workload:
    name: str
    # set-up fills the cache (warm); otherwise each pass starts from an
    # empty cache dir
    warm_cache: bool
    # (seeded rng, path of SPEC_FILE) -> the query list of every pass
    queries: Callable[[random.Random, str], list[list[str]]]


# The reasons for each choice are the "why" entries of BENCHMARK.json.
# "cold" runs the chern, enumerative and rising query lists as one pass, so
# that within the benchmark's time budget each run measures long enough to
# average over a shared host whose speed changes every few seconds to
# minutes; the run record keeps the wall time of every query.
WORKLOADS = {w.name: w for w in (
    Workload("cold", False, _cold),
    Workload("chern-warm", True, _chern_warm),
)}


def cache_fill_queries() -> list[list[str]]:
    """The queries chern-warm's set-up runs to fill the cache."""
    return [chern_query(n, k, "m") for n, k, _ in CHERN_SET]
