"""Sublinear expansion: the rate function and expansion checking, plus
the greedy max-cut host that find_pillar searches and the d-core peel of
the cube searches.

A graph is treated as expanding if every medium set X (k/2 <= |X| <= n/2)
keeps |N(X)| >= eps(|X|)*|X| even after an adversary deletes an edge set F
with e(F) <= d(G)*eps(|X|)*|X|.  Robust verification is co-NP-hard, so the
exact mode pairs the F-empty check with a greedy adversary that deletes
the cheapest external neighbors first; this limitation is recorded in the
report type.  Every external neighbor has an edge into X, so the greedy
deletes at most floor(budget) of them: a set whose neighborhood reaches
need + floor(budget) passes.  The neighborhood is counted only up to that
bound, and only the sets below it have their edges counted and sorted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

from .errors import PreconditionError
from .graph import Graph, bfs_layers

@dataclass(frozen=True)
class ExpanderParams:
    """Expansion parameters; k = eps2 * d drives all thresholds."""

    eps1: float
    eps2: float
    d: int

    def __post_init__(self):
        if not 0 < self.eps1 < 1:
            raise PreconditionError("need 0 < eps1 < 1")
        if not 0 < self.eps2 <= 0.2:
            raise PreconditionError("need 0 < eps2 <= 1/5")
        if self.d < 1:
            raise PreconditionError("need d >= 1")

    @property
    def k(self) -> float:
        return self.eps2 * self.d


def epsilon(x: float, params: ExpanderParams) -> float:
    """Expansion rate at set size x: 0 below k/5, else eps1/ln^2(15x/k).

    Natural logarithm throughout.  Nonincreasing for x >= k/2 while
    x*epsilon(x) is nondecreasing there.
    """
    if x < 0:
        raise PreconditionError("x must be nonnegative")
    k = params.k
    if x < k / 5:
        return 0.0
    return params.eps1 / math.log(15.0 * x / k) ** 2


@dataclass
class ExpansionReport:
    """Outcome of an expansion check.

    ``witness`` is a violating set X when one was found, together with
    the deleted edge set ``removed_edges`` (empty when X already fails
    with no deletions).  ``checked_mode`` records exact vs sampled and
    ``samples`` how many candidate sets were inspected.  The exact-mode
    adversary is the greedy one described in the module docstring, not a
    complete robust check.
    """

    checked_mode: str
    samples: int
    witness: frozenset[int] | None = None
    removed_edges: list[tuple[int, int]] | None = None
    params: ExpanderParams | None = None

    @property
    def clean(self) -> bool:
        return self.witness is None

    def to_json_dict(self) -> dict:
        out = {
            "kind": "expansion-report",
            "version": 1,
            "mode": self.checked_mode,
            "samples": self.samples,
            "clean": self.clean,
        }
        if self.params is not None:
            out["params"] = {"eps1": self.params.eps1, "eps2": self.params.eps2, "d": self.params.d}
        if self.witness is not None:
            out["witness"] = sorted(self.witness)
            out["removed_edges"] = [list(e) for e in (self.removed_edges or [])]
        return out


_EXACT_CAP = 20  # exact mode enumerates every medium set, so only small graphs
EXPANSION_TRIALS = 40  # sampled-check trials of the CLI bench
EXPANSION_SAMPLE_CAP = 2000  # the CLI bench's cap on the size of a sampled set


def _size_bounds(n: int, params: ExpanderParams) -> tuple[int, int]:
    lo = max(1, math.ceil(params.k / 2))
    hi = math.floor(n / 2)
    return lo, hi


def _violation(g: Graph, members: list[int],
               params: ExpanderParams) -> tuple[frozenset[int], list[tuple[int, int]]] | None:
    """Check one candidate X; return (X, F) on violation, else None.

    Tries F empty first, then greedily spends the deletion budget on the
    external neighbors with the fewest edges into X.  Each of them costs
    at least one edge, so the greedy deletes at most floor(budget).  The
    neighbors are collected member by member, and X passes, without
    counting edges, once ``need + floor(budget)`` of them are found.
    """
    adj = g._adj
    xset = set(members)
    need = epsilon(len(members), params) * len(members)
    budget = g.average_degree() * need
    spare = math.floor(budget)
    outside: set[int] = set()
    for v in members:
        outside.update([w for w in adj[v] if w not in xset])
        if len(outside) - spare >= need:
            return None
    if len(outside) < need:
        return frozenset(members), []
    counts: dict[int, int] = {}  # external neighbor -> number of edges into X
    for v in members:
        for w in adj[v]:
            if w not in xset:
                counts[w] = counts.get(w, 0) + 1
    order = sorted((c, y) for y, c in counts.items())
    removed: list[tuple[int, int]] = []
    spent = 0
    remaining = len(counts)
    for cost, y in order:
        if spent + cost > budget:
            break
        spent += cost
        remaining -= 1
        removed.extend((min(u, y), max(u, y)) for u in adj[y] if u in xset)
        if remaining < need:
            return frozenset(members), removed
    return None


def check_expansion(g: Graph, params: ExpanderParams, mode: str = "exact", *,
                    seed: int = 0, trials: int = 500,
                    sample_cap: int | None = None) -> ExpansionReport:
    """Search for a set violating the expansion condition.

    Exact mode enumerates every X with k/2 <= |X| <= n/2 (only allowed up
    to _EXACT_CAP = 20 vertices); sampled mode draws ``trials`` random
    connected sets as BFS prefixes of seeded random size.  The first
    violating X (by enumeration order / trial index) is reported.
    """
    if mode == "exact":
        return _check_exact(g, params)
    if mode == "sampled":
        return _check_sampled(g, params, seed, trials, sample_cap)
    raise PreconditionError(f"unknown mode {mode!r}")


def _check_exact(g: Graph, params: ExpanderParams) -> ExpansionReport:
    if g.n > _EXACT_CAP:
        raise PreconditionError(
            f"exact mode capped at n <= {_EXACT_CAP} (got n={g.n}); use sampled mode")
    lo, hi = _size_bounds(g.n, params)
    count = 0
    for size in range(lo, hi + 1):
        for combo in combinations(range(g.n), size):
            count += 1
            hit = _violation(g, list(combo), params)
            if hit is not None:
                return ExpansionReport("exact", count, hit[0], hit[1], params)
    return ExpansionReport("exact", count, params=params)


def _sample_connected(g: Graph, rng: random.Random, size: int) -> list[int]:
    # Not on bfs_layers: it takes frontier vertices in random order.
    adj = g._adj
    getrandbits = rng.getrandbits
    start = rng.randrange(g.n)
    out = [start]
    seen = {start}
    frontier = [start]
    while frontier and len(out) < size:
        # rng.randrange and rng.shuffle inlined, with _randbelow's draws and rejections
        k = len(frontier).bit_length()
        i = getrandbits(k)
        while i >= len(frontier):
            i = getrandbits(k)
        u = frontier.pop(i)
        nbrs = [w for w in adj[u] if w not in seen]
        for i in reversed(range(1, len(nbrs))):
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            nbrs[i], nbrs[j] = nbrs[j], nbrs[i]
        del nbrs[size - len(out):]
        seen.update(nbrs)
        out += nbrs
        frontier += nbrs
    return out


def _check_sampled(g: Graph, params: ExpanderParams, seed: int, trials: int,
                   sample_cap: int | None) -> ExpansionReport:
    if g.n == 0:
        return ExpansionReport("sampled", 0, params=params)
    lo, hi = _size_bounds(g.n, params)
    if sample_cap is not None:
        hi = min(hi, sample_cap)
    if hi < lo:
        return ExpansionReport("sampled", 0, params=params)

    for t in range(trials):
        rng = random.Random((seed * 0x9E3779B9 + t) & 0xFFFFFFFFFFFF)
        members = _sample_connected(g, rng, rng.randint(lo, hi))
        if len(members) < lo:
            continue
        hit = _violation(g, members, params)
        if hit is not None:
            return ExpansionReport("sampled", t + 1, hit[0], hit[1], params)
    return ExpansionReport("sampled", trials, params=params)


# -- the max-cut host and the d-core ------------------------------------


def greedy_max_cut_sides(g: Graph) -> list[int]:
    """Greedy two-coloring in BFS order, each vertex opposite the majority
    of its placed neighbors.  Recovers a proper coloring on bipartite
    inputs and keeps at least half the edges in general."""
    adj = g._adj
    sign = [0] * g.n  # +1 on side 0, -1 on side 1, 0 unplaced
    tally = sign.__getitem__  # summed over a row: placed on side 0 minus on side 1
    # one BFS per component from its lowest vertex; the next root is read
    # only once the walks before it are placed
    order = (v for root in range(g.n) if not sign[root]
             for layer in bfs_layers(g, [root]) for v in layer)
    for v in order:
        sign[v] = 1 if sum(map(tally, adj[v])) <= 0 else -1
    return [(-1, 0, 1)[s] for s in sign]


def _max_cut_graph(g: Graph) -> Graph:
    """The spanning subgraph of edges crossing a two-coloring: g itself when
    bipartite, else g's rows filtered by a greedy max-cut, with its sides and
    g's components: every vertex but a root (its component's lowest vertex,
    on side 0) keeps a cut edge to a neighbor placed before it."""
    if g.side is not None:
        return g
    side = greedy_max_cut_sides(g)
    return Graph._from_rows(tuple([tuple([w for w in row if side[w] != side[u]])
                                   for u, row in enumerate(g._adj)]), side, g.comp)


def _peel(g: Graph, d: int) -> set[int]:
    """The d-core of g: iteratively drop vertices with fewer than d neighbors left."""
    # Not on bfs_layers: it peels by degree and does not traverse.
    deg = [len(row) for row in g._adj]
    queue = [v for v, dv in enumerate(deg) if dv < d]
    alive = set(range(g.n))
    while queue:
        v = queue.pop()
        if v not in alive:
            continue
        alive.discard(v)
        for w in g.neighbors(v):
            if w in alive:
                deg[w] -= 1
                if deg[w] < d:
                    queue.append(w)
    return alive
