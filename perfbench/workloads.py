"""Seeded inputs of every workload: frontier instances and request schedules.

Everything here is a pure function of ``--seed``.  The program under test
sees only the generated network specs (the JSON the CLI, the library and
``POST /v1/solve`` all accept), never the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.topology.random_regular import random_regular_graph
from repro.verify.serialize import network_spec

#: Instances of the exact frontier, one per cascade tier that does the
#: work.  RR(32,3) is a fixed draw: branch-and-bound time varies about
#: eight-fold between random cubic graphs of that size (and between
#: relabelings of one graph), so a seeded draw would measure the
#: instance, not the solver.  Graph seed 10 is the draw of median
#: branch-and-bound time among graph seeds 0-15.  Enumeration cost
#: depends only on the node count, so RR(22,3) is drawn from the seed.
RR32_GRAPH_SEED = 10

#: Widths the paper proves: Theorem 2.20 at n = 8 (B8), Lemma 3.2 (W8),
#: Lemma 3.3 (CCC8).
PINNED_WIDTHS = {"b8": 8, "w8": 8, "ccc8": 4}

#: The hot mix, most popular first.  Torus(3,4) and Torus(4,3) are one
#: automorphism orbit, so the second is served from the first's cache entry.
HOT_POPULATION = [
    {"family": "bn", "params": {"n": 4}},
    {"family": "torus", "params": {"sides": [3, 4]}},
    {"family": "torus", "params": {"sides": [4, 3]}},
    {"family": "wn", "params": {"n": 4}},
    {"family": "mesh", "params": {"sides": [3, 4]}},
    {"family": "ccc", "params": {"n": 4}},
    {"family": "fbfly", "params": {"ary": 3, "dims": 2}},
    {"family": "fattree", "params": {"depth": 3}},
    {"family": "bn", "params": {"n": 8}},
]
ZIPF_S = 1.1


@dataclass(frozen=True)
class Workload:
    """One traffic mix: open-loop rate, latency limit and request source."""

    name: str
    rate_rps: float
    limit_ms: float
    hot: bool
    probe_requests: int  # closed-loop capacity probe size


#: Why each mix was chosen is in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "serve_hot": Workload("serve_hot", 60.0, 25.0, True, 240),
    "serve_cold": Workload("serve_cold", 10.0, 100.0, False, 60),
}


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), sum(map(ord, stream)), len(stream)])


def rr_spec(n: int, graph_seed: int) -> dict[str, Any]:
    """The generic spec of the random cubic graph RR(n,3) drawn with ``graph_seed``."""
    return network_spec(random_regular_graph(n, 3, seed=int(graph_seed)))


def frontier_specs(seed: int) -> list[tuple[str, dict[str, Any]]]:
    """``(label, spec)`` for each frontier instance, in solve order."""
    rr22_seed = int(_rng(seed, "rr22").integers(2**31))
    return [
        ("b8", {"family": "bn", "params": {"n": 8}}),
        ("w8", {"family": "wn", "params": {"n": 8}}),
        ("ccc8", {"family": "ccc", "params": {"n": 8}}),
        ("rr22", rr_spec(22, rr22_seed)),
        ("rr32", rr_spec(32, RR32_GRAPH_SEED)),
        ("b64", {"family": "bn", "params": {"n": 64}}),
    ]


@dataclass(frozen=True)
class Schedule:
    """Request specs of one run: warm-up, the timed open loop, the probe."""

    warmup: list[dict[str, Any]]
    window: list[tuple[float, dict[str, Any]]]  # (due offset in s, spec)
    probe: list[dict[str, Any]]


def _distinct_rr14(rng: np.random.Generator, count: int, seen: set[str]) -> list[dict]:
    out = []
    while len(out) < count:
        spec = rr_spec(14, int(rng.integers(2**31)))
        if spec["edge_digest"] not in seen:
            seen.add(spec["edge_digest"])
            out.append(spec)
    return out


def schedule(workload: Workload, seed: int, seconds: float) -> Schedule:
    """The request plan of one run; dues are evenly spaced at the rate."""
    count = max(1, int(round(workload.rate_rps * seconds)))
    dues = [i / workload.rate_rps for i in range(count)]
    if workload.hot:
        rng = _rng(seed, "hot")
        weights = np.arange(1, len(HOT_POPULATION) + 1, dtype=float) ** -ZIPF_S
        weights /= weights.sum()
        draws = rng.choice(len(HOT_POPULATION), size=count + workload.probe_requests,
                           p=weights)
        specs = [HOT_POPULATION[int(i)] for i in draws]
        return Schedule(list(HOT_POPULATION), list(zip(dues, specs[:count])),
                        specs[count:])
    rng = _rng(seed, "cold")
    seen: set[str] = set()
    warmup = _distinct_rr14(rng, 2, seen)
    window = _distinct_rr14(rng, count, seen)
    probe = _distinct_rr14(rng, workload.probe_requests, seen)
    return Schedule(warmup, list(zip(dues, window)), probe)
