"""The benchmark's workloads: seeded input generators, the library call each
instance makes, and the checks its output must pass.

Every input generator is a pure function of its seed.  The program under test only
ever receives the built graph, after a ``save_graph``/``load_graph`` round
trip (the route the CLI takes).  Library entry points are called through the
``pillarkit`` package attribute, so that a tracer that rebinds the
attribute sees the call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import pillarkit as pk
import pillarkit.certificates  # noqa: F401  (binds pk.certificates)

# rr(n, 12) sizes: large enough that graph copies and expander extraction
# dominate the search, small enough that a run of 16 fits in its --seconds.
RR_N = 10_000
RR_D = 12
HUBS_N = 10_000
HUB_COUNT = 100
HUB_DEGREE = 300
# planted prism: cycle length, rung length and noise vertices of the
# acceptance suite's planted-recovery input
PRISM_S = 8
PRISM_ELL = 5
PRISM_NOISE = 40
# A run at this many --seconds makes each workload's ``count`` instances;
# other values scale the count.
PASS_SECONDS = 15


def planted_prism(seed: int) -> pk.Graph:
    """A subdivided prism (a pillar with cycle length PRISM_S and rung length
    PRISM_ELL) plus seeded noise: chains of 2..6 fresh vertices hung on random
    prism vertices.  Edge for edge the same graph as the acceptance suite's
    planted-recovery input."""
    base = pk.subdivided_prism(PRISM_S, PRISM_ELL)
    rng = random.Random(seed)
    edges = base.edges()
    nxt = base.n
    stop = base.n + PRISM_NOISE
    while nxt < stop:
        length = min(rng.randint(2, 6), stop - nxt)
        attach = rng.randrange(base.n)
        chain = [attach] + list(range(nxt, nxt + length))
        nxt += length
        edges.extend(zip(chain, chain[1:]))
    return pk.Graph(stop, edges)


def hub_graph(seed: int, n: int = HUBS_N, hubs: int = HUB_COUNT,
              hub_degree: int = HUB_DEGREE) -> pk.Graph:
    """rr(n, 12) shifted up by ``hubs`` ids, plus hub vertices 0..hubs-1,
    each joined to ``hub_degree`` distinct seeded random rr vertices.

    Hubs sit far above the high-degree threshold and, having the lowest
    ids, come first in every sorted adjacency row, so kraken legs grow
    into them and the robust pipeline has to build anchors and links."""
    base = pk.random_regular(n, RR_D, seed)
    rng = random.Random(f"hubs-{seed}")
    edges = [(u + hubs, v + hubs) for u, v in base.edges()]
    for h in range(hubs):
        edges.extend((h, v + hubs) for v in rng.sample(range(n), hub_degree))
    return pk.Graph(n + hubs, edges)


@dataclass
class Outcome:
    """What one instance produced: the certificate text (None when the
    search starved), the clause failures of its checks, and per-layer
    counters read from the search state, by metric name."""

    certificate: str | None
    failures: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)


def _check(g: pk.Graph, cert) -> tuple[str, list[str]]:
    certs = pk.certificates
    text = certs.dumps_certificate(cert)
    report = certs.verify_certificate(g, certs.loads_certificate(text))
    return text, [f"[{c}] {m}" for c, m in report.failures]


def _solve_pillar(g: pk.Graph, seed: int, config: pk.RunConfig) -> Outcome:
    return Outcome(*_check(g, pk.find_pillar(g, config, seed)))


def solve_pillar_rr(g: pk.Graph, seed: int) -> Outcome:
    return _solve_pillar(g, seed, pk.RunConfig(d=RR_D))


def solve_planted(g: pk.Graph, seed: int) -> Outcome:
    config = pk.RunConfig(d=4)
    # the planted rungs put the two krakens' legs one corridor apart
    config.overrides["separation"] = 1
    return _solve_pillar(g, seed, config)


def solve_kraken_hubs(g: pk.Graph, seed: int) -> Outcome:
    config = pk.RunConfig(d=RR_D)
    kr, state = pk.robust_kraken(g, frozenset(), config, seed=seed,
                                 q3_free=True, return_state=True)
    text, failures = _check(g, kr)
    # low-degree legs must stay pairwise separated off the high-degree set,
    # which is recomputed here rather than read from the search state
    rc = config.resolve(g.n)
    sep = rc.separation
    high = frozenset(v for v in range(g.n) if g.degree(v) >= rc.delta_threshold)
    low = [kr.legs[j].members for j in range(kr.k) if kr.ends[j] not in high]
    for a in range(len(low)):
        for b in range(a + 1, len(low)):
            d = pk.graph.set_distance(g, low[a], low[b], avoid=high, cap=sep - 1)
            if d is not None:
                failures.append(f"[leg-separation] legs {a},{b} at distance {d} < {sep}")
    kinds = [link.kind for links in state.links for link in links.values()]
    counters = {"kraken.anchors": len(state.anchors),
                "kraken.links_p": kinds.count("P"), "kraken.links_q": kinds.count("Q")}
    return Outcome(text, failures, counters)


@dataclass(frozen=True)
class Workload:
    """``count`` instances in a run of PASS_SECONDS, scaled for other run
    lengths: a run of n instances builds and searches instance i of run seed
    s with seed ``s * n + i``.  A traced run takes at most the first
    ``traced`` of them."""

    count: int
    traced: int
    build: Callable[[int], pk.Graph]
    solve: Callable[[pk.Graph, int], Outcome]

    def instance_seeds(self, seed: int, seconds: float, trace: bool = False) -> list[int]:
        n = max(2, round(self.count * seconds / PASS_SECONDS))  # a p90 needs two
        return [seed * n + i for i in range(min(n, self.traced) if trace else n)]


# Traced runs take fewer instances, so that they last no longer than
# untraced ones: a traced planted instance makes about 14k spans (mostly
# set_distance calls), and all 400 would need 280 MB and 70 s.
WORKLOADS = {
    "pillar_rr": Workload(16, 6, lambda s: pk.random_regular(RR_N, RR_D, s), solve_pillar_rr),
    "planted": Workload(400, 100, planted_prism, solve_planted),
    "kraken_hubs": Workload(4, 4, hub_graph, solve_kraken_hubs),
}
