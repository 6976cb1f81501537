"""The sublinear expansion rate function and its parameters, plus the
greedy max-cut host that find_pillar searches and the d-core peel of the
cube searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
