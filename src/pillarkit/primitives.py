"""Reusable expansion and connection machinery: cube finding, short robust
connection, large-ball finding and expansion trimming."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, filterfalse
from typing import Callable, Iterable, Sequence

from .errors import InternalError, NoPathError, PillarkitError, PreconditionError, StageError
from .expander import ExpanderParams, _peel
from .graph import Graph, Path, bfs_layers, distances_from, shortest_set_path

# Cube positions are 3-bit coordinates; adjacency = one differing bit.
CUBE_EDGES = [(i, j) for i in range(8) for j in range(8)
              if i < j and bin(i ^ j).count("1") == 1]


@dataclass(frozen=True)
class Expansion:
    """A set of ``size`` vertices all within ``radius`` of the center,
    where distance is measured inside the induced subgraph on the set."""

    center: int
    members: frozenset[int]
    radius: int

    @property
    def size(self) -> int:
        return len(self.members)

    def failures(self, g: Graph) -> list[str]:
        # certificates are outside input: check ids before touching rows
        if not all(0 <= v < g.n for v in self.members | {self.center}):
            return ["vertex id out of range"]
        if self.center not in self.members:
            return ["center not a member"]
        out = []
        dist = distances_from(g, [self.center], within=self.members)
        missing = self.members.difference(dist)
        if missing:
            out.append(f"{len(missing)} members unreachable from center")
        elif dist and max(dist.values()) > self.radius:
            out.append(f"member at distance {max(dist.values())} > radius {self.radius}")
        return out

    def is_valid(self, g: Graph) -> bool:
        return not self.failures(g)

    def to_json_dict(self) -> dict:
        return {"kind": "expansion", "version": 1, "center": self.center,
                "members": sorted(self.members), "radius": self.radius}


@dataclass(frozen=True)
class Q3Certificate:
    """Eight distinct vertices realizing a cube; index = 3-bit coordinate."""

    vertices: tuple[int, ...]

    def failures(self, g: Graph) -> list[str]:
        out = []
        if len(self.vertices) != 8:
            return ["need exactly 8 vertices"]
        if len(set(self.vertices)) != 8:
            out.append("vertices not distinct")
        if any(not (0 <= v < g.n) for v in self.vertices):
            out.append("vertex id out of range")
            return out
        for i, j in CUBE_EDGES:
            if not g.has_edge(self.vertices[i], self.vertices[j]):
                out.append(f"missing cube edge {self.vertices[i]}-{self.vertices[j]}")
        return out

    def is_valid(self, g: Graph) -> bool:
        return not self.failures(g)

    def to_json_dict(self) -> dict:
        return {"kind": "q3", "version": 1, "vertices": list(self.vertices),
                "edges": [[self.vertices[i], self.vertices[j]] for i, j in CUBE_EDGES]}


# -- Q3 finding --------------------------------------------------------

# Coordinates used when assembling a cube out of a 4-set {x,y,z,w} and
# one common neighbor per 3-subset: x,y,z,w land on one parity class of
# the cube, the four triple-representatives on the other, and each
# representative is non-adjacent exactly to the element it omits.
_QUAD_COORDS = (0, 3, 6, 5)           # x, y, z, w
_TRIPLE_COORDS = {0: 7, 1: 4, 2: 1, 3: 2}  # omitted index -> coordinate


def _assemble_cube(quad: Sequence[int], reps: Sequence[int]) -> Q3Certificate:
    slots = [0] * 8
    for q, coord in zip(quad, _QUAD_COORDS):
        slots[coord] = q
    for omit, rep in enumerate(reps):
        slots[_TRIPLE_COORDS[omit]] = rep
    return Q3Certificate(tuple(slots))


def find_q3_bipartite(g: Graph, u_side: Iterable[int], w_side: Iterable[int], d: int) -> Q3Certificate:
    """Build a cube in an asymmetric bipartite graph by coloring triples.

    Requires |U| > C(|W|, 3) and every U-vertex to have at least d >= 4
    neighbors in W.  Triples of W are greedily colored by an unused
    common neighbor; any vertex of U left unused as a color then has all
    triples of its neighborhood colored, and four of its neighbors plus
    the four matching colors form a cube.
    """
    u_list = sorted(set(u_side))
    w_set = frozenset(w_side)
    if w_set & set(u_list):
        raise PreconditionError("U and W must be disjoint")
    if d < 4:
        raise PreconditionError("need d >= 4")
    wn = len(w_set)
    if len(u_list) <= math.comb(wn, 3):
        raise PreconditionError(
            f"|U| = {len(u_list)} must exceed C(|W|,3) = {math.comb(wn, 3)}")
    nbrs_in_w: dict[int, frozenset[int]] = {}
    for u in u_list:
        nb = frozenset(v for v in g.neighbors(u) if v in w_set)
        if any(v in set(u_list) for v in g.neighbors(u)):
            raise PreconditionError("edge inside U: graph not bipartite between U and W")
        if len(nb) < d:
            raise PreconditionError(f"vertex {u} has only {len(nb)} neighbors in W")
        nbrs_in_w[u] = nb
    for w in w_set:
        if any(v in w_set for v in g.neighbors(w)):
            raise PreconditionError("edge inside W: graph not bipartite between U and W")

    color: dict[frozenset[int], int] = {}
    used: set[int] = set()
    for triple in combinations(sorted(w_set), 3):
        tset = frozenset(triple)
        for u in u_list:
            if u not in used and tset <= nbrs_in_w[u]:
                color[tset] = u
                used.add(u)
                break

    free = next(u for u in u_list if u not in used)
    x, y, z, w = sorted(nbrs_in_w[free])[:4]
    quad = (x, y, z, w)
    reps = []
    for omit in range(4):
        triple = frozenset(q for i, q in enumerate(quad) if i != omit)
        rep = color.get(triple)
        if rep is None:
            raise InternalError(
                "internal: uncolored triple in the neighborhood of an unused vertex")
        reps.append(rep)
    cert = _assemble_cube(quad, reps)
    bad = cert.failures(g)
    if bad:
        raise InternalError(f"internal: assembled cube invalid ({bad[0]})")
    return cert


Q3_CAP = 40  # most vertices of a graph handed to the exhaustive cube search


# The placed cube-neighbors of each position when positions fill in the
# order 0..7.  Position 3, the second common neighbor of 1 and 2, comes
# before 4: a pair of v's neighbors on no 4-cycle through v is dropped
# before a third neighbor is tried.
_ANCHORS = ((), (0,), (0,), (1, 2), (0,), (1, 4), (2, 4), (3, 5, 6))


def _cube_at(g: Graph, v: int, core: set[int], rows: dict[int, frozenset[int]]) -> Q3Certificate | None:
    """A cube of g with v at position 0, or None when no cube of g holds v.

    ``core`` is g's 3-core, which holds every cube, and ``rows`` caches
    each vertex's neighbors in it across calls.  The cube is
    vertex-transitive, so backtracking over positions 1..7 from v at 0 is
    complete for v.
    """
    def row(u: int) -> frozenset[int]:
        if u not in rows:
            rows[u] = frozenset(w for w in g.neighbors(u) if w in core)
        return rows[u]

    slot = [v]
    return Q3Certificate(tuple(slot)) if _fill_cube(slot, row) else None


def _fill_cube(slot: list[int], row: Callable[[int], frozenset[int]]) -> bool:
    """Extend ``slot`` to all eight positions in place; False when none
    exists.  Not a closure that calls itself: that is a reference cycle,
    which keeps the 3-core alive until the next garbage collection."""
    pos = len(slot)
    if pos == 8:
        return True
    cands = frozenset.intersection(*(row(slot[a]) for a in _ANCHORS[pos]))
    # the three axis neighbors of position 0 are interchangeable: take them increasing
    low = slot[pos // 2] if pos in (2, 4) else -1
    for w in sorted(cands):
        if w > low and w not in slot:
            slot.append(w)
            if _fill_cube(slot, row):
                return True
            slot.pop()
    return False


def find_q3_bruteforce(g: Graph, cap: int = Q3_CAP) -> Q3Certificate | None:
    """Exhaustive cube search; None certifies the graph cube-free.

    Searches from each vertex of the 3-core in increasing order.  Refuses
    graphs larger than ``cap``.
    """
    if g.n > cap:
        raise PreconditionError(f"brute-force cube search capped at n <= {cap} (got {g.n})")
    core = _peel(g, 3)
    rows: dict[int, frozenset[int]] = {}
    for v in sorted(core):
        cube = _cube_at(g, v, core, rows)
        if cube is not None:
            return cube
    return None


def find_q3_sampled(g: Graph, seed: int, trials: int = 64) -> Q3Certificate | None:
    """Seeded cube search from sampled vertices, for graphs too large to
    search from every vertex.

    A cube has minimum degree 3, so it lies in the 3-core of g: when fewer
    than 8 vertices survive the peel, g is certified cube-free and no
    vertex is drawn.  Otherwise each trial draws a 3-core vertex and
    searches for a cube through it, which finds one whenever it exists; a
    vertex drawn again is skipped.  Past the 3-core test, a None is only
    as strong as the sampling.
    """
    core = _peel(g, 3)
    if len(core) < 8:
        return None
    pool = sorted(core)
    rng = random.Random(seed)
    rows: dict[int, frozenset[int]] = {}
    tried = set()
    for _ in range(trials):
        v = pool[rng.randrange(len(pool))]
        if v in tried:
            continue
        tried.add(v)
        cube = _cube_at(g, v, core, rows)
        if cube is not None:
            return cube
    return None


# -- robust short connection -------------------------------------------


def connect_short(g: Graph, a: Iterable[int], b: Iterable[int], w: Iterable[int],
                  params: ExpanderParams, *, certified: bool = False) -> Path:
    """Shortest path from A to B in the graph minus W.

    The path starts in A and ends in B, and its interior avoids both.
    When the caller flags the graph as expander-certified the diameter
    bound (40/eps1)*ln^3(n) is enforced on the result.  The paper's size
    hypothesis |W|*ln^3(n) <= 10*min(|A|, |B|) is not checked: at bench
    scale it fails for harmless parameters.
    """
    aset, bset, wset = frozenset(a), frozenset(b), frozenset(w)
    if aset & bset or aset & wset or bset & wset:
        raise PreconditionError("A, B, W must be pairwise disjoint")
    if not aset or not bset:
        raise PreconditionError("A and B must be nonempty")
    # interior must clear A and B as well as W
    path = shortest_set_path(g, aset, bset, wset)
    if path is None:
        raise NoPathError("disconnected under avoidance")
    if certified and g.n > 2:
        bound = (40.0 / params.eps1) * math.log(g.n) ** 3
        if path.length > bound:
            raise PillarkitError(
                f"certified expander produced a path of length {path.length} > {bound:.1f}")
    return path


# -- large balls and trimming ------------------------------------------


def find_large_ball(g: Graph, w: Iterable[int], params: ExpanderParams, *,
                    w_cap: float | None = None,
                    max_candidates: int | None = None) -> Expansion:
    """First ball avoiding W that reaches n/25 vertices within the
    polylog radius budget, grown from centers in decreasing-degree order.

    ``w_cap`` overrides the paper's avoid-set cap eps1*n/(100*ln^2 n),
    which is below 1 for any feasible n; the kraken search passes n.
    ``max_candidates``, when given, is at least 1 and caps the centers tried.
    """
    wset = frozenset(w)
    if w_cap is None:
        w_cap = params.eps1 * g.n / (100 * math.log(g.n) ** 2) if g.n > 2 else 0.0
    if len(wset) > w_cap:
        raise PreconditionError(f"|W| = {len(wset)} over the cap {w_cap:.3f}")
    if g.n == 0:
        raise PreconditionError("empty graph")
    if max_candidates is not None and max_candidates < 1:
        raise PreconditionError(f"need max_candidates >= 1 (got {max_candidates})")
    radius_budget = math.ceil(200 * math.log(g.n) ** 3 / params.eps1) if g.n > 2 else g.n
    target = g.n / 25
    # a reverse sort is stable: equal degrees stay in increasing id order
    order = sorted(filterfalse(wset.__contains__, range(g.n)),
                   key=list(map(len, g._adj)).__getitem__, reverse=True)[:max_candidates]
    for center in order:
        reached: list[int] = []
        for depth, layer in enumerate(bfs_layers(g, [center], wset)):
            reached += layer
            if depth >= radius_budget or len(reached) >= target:
                break
        if len(reached) >= target:
            return Expansion(center, frozenset(reached), depth)
    raise StageError("large-ball", "no center grows a large enough ball",
                     {"candidates": len(order), "target": math.ceil(target)})


def trim_expansion(g: Graph, e: Expansion, d_target: int) -> Expansion:
    """Shrink an expansion to exactly ``d_target`` vertices, keeping the
    center and never increasing any member's distance to it.

    Drops BFS-tree leaves last-discovered-first, which is the same as
    keeping a BFS-order prefix; tree parents always survive, so kept
    vertices keep their old distances.
    """
    if not 1 <= d_target <= e.size:
        raise PreconditionError(f"need 1 <= D' <= {e.size} (got {d_target})")
    if e.center not in e.members:
        raise PreconditionError("center not a member")
    order = list(distances_from(g, [e.center], within=e.members))
    if len(order) < e.size:
        raise PreconditionError("expansion members are not connected to the center")
    return Expansion(e.center, frozenset(order[:d_target]), e.radius)


def restrict_and_trim(g: Graph, e: Expansion, d_target: int,
                      avoid: Iterable[int]) -> Expansion | None:
    """Largest-priority BFS prefix of size d_target around the center once
    ``avoid`` is deleted; None when not enough survives.  The radius is
    re-measured (deleting vertices can stretch inner distances): it is the
    depth of the layer that fills d_target, kept in increasing id order."""
    if d_target < 1:
        raise PreconditionError(f"need D' >= 1 (got {d_target})")
    avoid_set = frozenset(avoid)
    if e.center in avoid_set:
        return None
    order: list[int] = []
    for depth, layer in enumerate(bfs_layers(g, [e.center], avoid_set, e.members)):
        order += sorted(layer)[:d_target - len(order)]
        if len(order) == d_target:
            return Expansion(e.center, frozenset(order), depth)
    return None
