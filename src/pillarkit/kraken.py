"""Krakens: a cycle whose every vertex owns, through a short private path,
the center of a private expansion (its "leg").

This module has three layers: the data type with its clause-by-clause
checker, a heuristic search that carves a kraken out of free territory,
and the robust pipeline that keeps finding krakens inside a forbidden-set
survivor graph until one has its legs either ending at high-degree
vertices or re-seated on well-separated anchor sets.

The robust pipeline searches the survivor graph G - U directly: a
sublinear expander's definition already pays for deleting a small set
(the eps(x)*x deletion budget), so G - U needs no extraction of its own.
Nor is G - U copied: krakens are carved on the host's ids with U as a dead set.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain, compress, islice

from .config import ResolvedConfig, RunConfig
from .errors import InternalError, PreconditionError, StageError
from .graph import (Cycle, Graph, Path, _largest_piece, ball, bfs_layers,
                    distances_from, set_distance, shortest_set_path)
from .primitives import Q3_CAP, Expansion, find_large_ball, find_q3_bruteforce, trim_expansion
from .validity import ValidityReport, json_int

_MAX_LINK_ROUNDS = 64  # _finish's rounds of linking legs and shortcut rewrites
_BALL_CANDIDATES = 20  # ball centers find_large_ball tries for each anchor
_CYCLE_STARTS = 24  # start vertices _carve draws for its shortest-cycle search

@dataclass(frozen=True)
class Kraken:
    """A (k, s, t)-kraken: cycle of length k; per cycle vertex v_j a path
    P_j of length at most 10s to an end u_j carrying a (t, s)-expansion
    leg F_j; legs pairwise disjoint and off the cycle, paths pairwise
    disjoint with interiors clear of the cycle and of every leg."""

    cycle: Cycle
    ends: tuple[int, ...]
    legs: tuple[Expansion, ...]
    paths: tuple[Path, ...]
    s: int
    t: int

    @property
    def k(self) -> int:
        return len(self.cycle.vertices)

    def vertex_set(self) -> frozenset[int]:
        out = set(self.cycle.vertices)
        for leg in self.legs:
            out |= leg.members
        for p in self.paths:
            out |= p.vertex_set()
        return frozenset(out)

    def to_json_dict(self) -> dict:
        return {
            "kind": "kraken",
            "version": 1,
            "k": self.k,
            "s": self.s,
            "t": self.t,
            "cycle": list(self.cycle.vertices),
            "ends": list(self.ends),
            "legs": [sorted(leg.members) for leg in self.legs],
            "paths": [list(p.vertices) for p in self.paths],
        }

    @classmethod
    def from_json_dict(cls, data: dict, g: Graph) -> "Kraken":
        try:
            cycle = Cycle(tuple(map(json_int, data["cycle"])))
            ends = tuple(map(json_int, data["ends"]))
            paths = tuple(Path(tuple(map(json_int, p))) for p in data["paths"])
            legs = []
            for j, members in enumerate(data["legs"]):
                # keep every leg so a miscount fails the shape clause (extras get no center)
                end = ends[j] if j < len(ends) else -1
                mset = frozenset(map(json_int, members))
                dist = _leg_distances(g, end, mset)
                radius = (max(dist.values()) if dist and len(dist) == len(mset)
                          else json_int(data["s"]))
                legs.append(Expansion(end, mset, radius))
            return cls(cycle, ends, tuple(legs), paths, json_int(data["s"]), json_int(data["t"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise PreconditionError(f"malformed kraken certificate: {exc}")


def _leg_distances(g: Graph, center: int, members: frozenset[int]) -> dict[int, int]:
    # certificates are outside input: check ids before touching rows
    if center not in members or not all(0 <= v < g.n for v in members):
        return {}
    return distances_from(g, [center], within=members)


def verify_kraken(g: Graph, kr: Kraken) -> ValidityReport:
    """Check every kraken clause against the host graph; invalid structures
    get a report naming each failed clause, never an exception."""
    rep = ValidityReport()
    k = kr.k
    if any(not (0 <= v < g.n) for v in kr.vertex_set()):
        rep.add("ids-in-range", "vertex id out of range")
        return rep
    if not (len(kr.ends) == len(kr.legs) == len(kr.paths) == k):
        rep.add("shape", f"expected {k} ends/legs/paths")
        return rep
    if kr.t < 1 or kr.s < 0:
        rep.add("shape", "need t >= 1 and s >= 0")
    for msg in kr.cycle.failures(g):
        rep.add("cycle-valid", msg)
    cyc = kr.cycle.vertex_set()
    for j, end in enumerate(kr.ends):
        if end in cyc:
            rep.add("ends-outside-cycle", f"end {end} (leg {j}) lies on the cycle")
        if kr.legs[j].center != end:
            rep.add("end-in-leg", f"leg {j} is not an expansion of its end")
    claimed: dict[int, int] = {}
    for j, leg in enumerate(kr.legs):
        if leg.members & cyc:
            rep.add("legs-disjoint", f"leg {j} intersects the cycle")
        for v in leg.members:
            if v in claimed:
                rep.add("legs-disjoint", f"legs {claimed[v]} and {j} share vertex {v}")
                break
        for v in leg.members:
            claimed.setdefault(v, j)
        if leg.size != kr.t:
            rep.add("leg-expansion", f"leg {j} has {leg.size} vertices, expected t = {kr.t}")
        dist = _leg_distances(g, leg.center, leg.members)
        if len(dist) < leg.size:
            rep.add("leg-expansion", f"leg {j} not connected to its end")
        elif dist and max(dist.values()) > kr.s:
            rep.add("leg-expansion",
                    f"leg {j} has radius {max(dist.values())} > s = {kr.s}")
    all_legs = frozenset(claimed)
    seen_path: dict[int, int] = {}
    for j, p in enumerate(kr.paths):
        for msg in p.failures(g):
            rep.add("path-valid", f"path {j}: {msg}")
        expected = (kr.cycle.vertices[j], kr.ends[j])
        if p.ends != expected and p.ends != expected[::-1]:
            rep.add("path-endpoints", f"path {j} does not join v_{j} to u_{j}")
        if p.length > 10 * kr.s:
            rep.add("path-length", f"path {j} has length {p.length} > 10s = {10 * kr.s}")
        if p.length < 1:
            rep.add("path-length", f"path {j} is a single vertex")
        for v in p.vertices:
            if v in seen_path:
                rep.add("paths-disjoint", f"paths {seen_path[v]} and {j} share vertex {v}")
                break
        for v in p.vertices:
            seen_path.setdefault(v, j)
        bad_interior = (set(p.interior()) & (cyc | all_legs))
        if bad_interior:
            rep.add("path-internal-avoidance",
                    f"path {j} interior meets cycle or legs at {sorted(bad_interior)[:3]}")
    return rep


# -- heuristic search ---------------------------------------------------


def _shortest_cycle_from(g: Graph, start: int, dead: set[int] | frozenset[int]) -> list[int] | None:
    """Cycle from the first non-tree edge in a BFS from start in g minus dead."""
    # Not on bfs_layers: it needs each non-tree edge as the BFS meets it.
    # No depth map: a reached neighbour of u one layer nearer the start, other
    # than u's parent, would already have met u and closed a cycle.
    adj = g._adj
    parent = {start: -1}
    queue = [start]
    for u in queue:
        pu = parent[u]
        for w in adj[u]:
            if w in dead:
                continue
            if w not in parent:
                parent[w] = u
                queue.append(w)
            elif w != pu:
                chain_u = [u]
                while parent[chain_u[-1]] != -1:
                    chain_u.append(parent[chain_u[-1]])
                on_u = set(chain_u)
                chain_w = [w]
                while chain_w[-1] not in on_u:
                    chain_w.append(parent[chain_w[-1]])
                meet = chain_w.pop()
                cu = chain_u[:chain_u.index(meet) + 1]
                # meet -> ... -> u, then across the non-tree edge to w,
                # then back up w's branch toward meet
                return cu[::-1] + chain_w
    return None


def find_kraken(g: Graph, k_max: int | None = None, s: int | None = None,
                t: int = 1, seed: int = 0) -> Kraken:
    """Carve a kraken out of a connected graph.

    Three stages, each claiming territory the later ones must respect:
    find a short cycle from seeded start vertices, walk a private path
    off every cycle vertex into unclaimed space, then grow each leg to t
    vertices by BFS through what is still free.  Starving at any stage
    raises a StageError naming it.  ``s`` defaults to the radius unit
    200*ln^3(n)/eps1 at eps1 = 0.1; for another eps1, pass ``s``.
    """
    if g.n == 0 or max(g.comp) != 0:
        raise PreconditionError("kraken search needs a connected, nonempty graph")
    if k_max is None:
        # ln(n) undershoots the girth on desk-size graphs; 4 admits a
        # shortest even cycle
        k_max = max(4, math.floor(math.log(g.n))) if g.n > 2 else 4
    if s is None:
        s = max(1, math.ceil(200 * math.log(g.n) ** 3 / 0.1)) if g.n > 2 else 1
    if t < 1:
        raise PreconditionError("leg size t must be >= 1")
    return _carve(g, range(g.n), frozenset(), k_max, max(1, s), t, seed)


def _carve(g: Graph, verts: range | list[int], dead: set[int] | frozenset[int], k_max: int,
           s: int, t: int, seed: int) -> Kraken:
    """find_kraken's search in the sorted piece ``verts`` of g minus dead, on g's
    ids: a copy of the piece keeps their order, so its rows, draws and kraken are these."""
    rng = random.Random(seed)
    starts = rng.sample(verts, min(len(verts), _CYCLE_STARTS))
    # The host's floor: on a bipartite piece of a non-bipartite host, 3 never stops
    # the loop early, and only a strictly shorter cycle replaces best: same cycle.
    floor = 4 if g.is_bipartite() else 3
    best: list[int] | None = None
    for v in starts:
        cand = _shortest_cycle_from(g, v, dead)
        if cand and (best is None or len(cand) < len(best)):
            best = cand
            if len(best) == floor:
                break
    if best is None or len(best) > k_max:
        raise StageError("cycle", "no short cycle found",
                         {"best": len(best) if best else None, "k_max": k_max})

    cycle = Cycle(tuple(best))
    claimed = {*dead, *best}  # the dead never become ends, paths or leg members
    ends: list[int] = []
    paths: list[Path] = []
    for j, v in enumerate(cycle.vertices):
        # The end is the first unclaimed neighbour with room for a t-vertex
        # leg: claims only grow, so one without room now would starve later.
        end = next((w for w in g.neighbors(v) if w not in claimed
                    and len(_bfs_prefix(g, w, t, s, avoid=claimed)[0]) == t), None)
        if end is None:
            raise StageError("paths", f"no unclaimed neighbour of cycle vertex {v} has room for a leg",
                             {"cycle_index": j, "claimed": len(claimed) - len(dead)})
        ends.append(end)
        paths.append(Path((v, end)))
        claimed.add(end)
    legs: list[Expansion] = []
    for j, u in enumerate(ends):
        members, radius = _bfs_prefix(g, u, t, s, avoid=claimed)
        if len(members) < t:
            raise StageError("legs", f"leg {j} starved at {len(members)}/{t} vertices",
                             {"leg_index": j, "reached": len(members)})
        legs.append(Expansion(u, frozenset(members), radius))
        claimed.update(members)

    kr = Kraken(cycle, tuple(ends), tuple(legs), tuple(paths), s, t)
    rep = verify_kraken(g, kr)
    if not rep.valid:
        raise InternalError(f"internal: constructed kraken invalid ({rep})")
    return kr


# -- robust pipeline ----------------------------------------------------


@dataclass
class LegLink:
    kind: str  # "P" (to a high-degree vertex) or "Q" (to an anchor)
    path: Path  # from a leg vertex to the terminal
    anchor: int | None = None


@dataclass
class KrakenSearchState:
    """Bookkeeping for the robust search: the kraken collection, the anchor
    sets, and the per-kraken links (at most one per leg, pairwise disjoint
    within a kraken, anchors used at most once per kraken)."""

    graph: Graph
    cfg: ResolvedConfig
    forbidden: frozenset[int]           # U
    high_degree: frozenset[int]         # L
    u1: frozenset[int]                  # U and the vertices it dominates
    collection: list[Kraken] = field(default_factory=list)
    anchors: list[Expansion] = field(default_factory=list)
    links: list[dict[int, LegLink]] = field(default_factory=list)

    def used_anchors(self, i: int) -> set[int]:
        return {l.anchor for l in self.links[i].values() if l.anchor is not None}

    def free_legs(self, i: int) -> list[int]:
        kr = self.collection[i]
        return [j for j in range(kr.k) if j not in self.links[i]]

    def check(self) -> None:
        """Invariants re-checked after every link mutation."""
        for i, links in enumerate(self.links):
            kr = self.collection[i]
            seen: set[int] = set()
            anchors_used: set[int] = set()
            for j, link in links.items():
                p = link.path
                if p.vertices[0] not in kr.legs[j].members:
                    raise InternalError(f"link for kraken {i} leg {j} does not start in the leg")
                if link.kind == "P":
                    if p.length > self.cfg.p_len_cap:
                        raise InternalError(f"high-degree link longer than {self.cfg.p_len_cap}")
                    if p.vertices[-1] not in self.high_degree - self.forbidden:
                        raise InternalError("high-degree link does not end in L minus U")
                else:
                    if p.length > self.cfg.q_len_cap:
                        raise InternalError(f"anchor link longer than {self.cfg.q_len_cap}")
                    if link.anchor is None or p.vertices[-1] not in self.anchors[link.anchor].members:
                        raise InternalError("anchor link does not end in its anchor")
                    if link.anchor in anchors_used:
                        raise InternalError(f"anchor {link.anchor} linked twice to kraken {i}")
                    anchors_used.add(link.anchor)
                overlap = seen & set(p.vertices)
                if overlap:
                    raise InternalError(
                        f"links of kraken {i} share vertices {sorted(overlap)[:3]}")
                seen |= set(p.vertices)


def robust_kraken(g: Graph, u: frozenset[int] | set[int], config: RunConfig, *,
                  seed: int | None = None, q3_free: bool | None = None,
                  return_state: bool = False):
    """Find a kraken in the graph minus U whose legs are each either ended
    at a high-degree vertex or fully low-degree, with the low-degree legs
    pairwise well separated (and separated from U) away from the
    high-degree set.

    This is one round of ``find_pillar``'s: ``_survivor_state`` sets up the
    search in G - U, ``_carve_rounds`` carves the whole collection, and the
    first kraken of it that qualifies is returned, checked; if none does,
    ``_finish`` runs the second half on the collection.  Krakens are collected
    in the survivor graph as it is, with no extraction (an expander pays for
    deleting U through its deletion budget) and no copy: each is carved on
    g's ids, with U and the earlier krakens' surroundings as a dead set.
    The Q3-free hypothesis is certified by brute force on small graphs and
    otherwise taken from the caller (pass ``q3_free=True``); what the
    hypothesis buys algorithmically, the bound on vertices dominated by U,
    is checked directly either way.  Stages starve with a StageError naming
    the stage.
    """
    rc = config.resolve(g.n)
    if seed is None:
        seed = rc.seed
    if q3_free is False:
        raise PreconditionError("caller flagged the graph as containing a cube")
    if q3_free is None and g.n <= Q3_CAP and find_q3_bruteforce(g) is not None:
        raise PreconditionError("graph contains a cube; robust search assumes cube-freeness")
    uset = frozenset(u)
    if uset and (min(uset) < 0 or max(uset) >= g.n):
        raise PreconditionError(f"U has ids out of range for n={g.n}")
    if len(uset) > rc.u_cap:
        raise PreconditionError(f"|U| = {len(uset)} over the cap {rc.u_cap}")
    state = _survivor_state(g, uset, rc, _high_degree(g, rc))
    list(_carve_rounds(state, seed))  # every round: each kraken joins state.collection
    kr = next((kr for kr in state.collection
               if _qualifies(g, kr, state.high_degree, uset, rc)), None)
    if kr is None:
        kr = _finish(state)
    elif not (rep := verify_kraken(g, kr)).valid:
        raise InternalError(f"internal: collected kraken invalid ({rep})")
    return (kr, state) if return_state else kr


def _survivor_state(g: Graph, uset: frozenset[int], rc: ResolvedConfig,
                    high: frozenset[int]) -> KrakenSearchState:
    """The empty search state in G - U, once U (in range; find_pillar's own rounds
    grow it) is under its cap and the set U0 of vertices U dominates is under its own."""
    if len(uset) > rc.u_cap:
        raise StageError("u-bound", f"|U| = {len(uset)} over the cap {rc.u_cap}",
                         {"u": len(uset)})
    into_u = Counter(chain.from_iterable(map(g.neighbors, uset)))  # edges into U
    u0 = frozenset(v for v, c in into_u.items() if c >= rc.params.d / 2 and v not in uset)
    if len(u0) > rc.u0_cap:
        raise StageError("u0-bound",
                         f"{len(u0)} vertices dominated by U (cap {rc.u0_cap}); "
                         "the cube-freeness hypothesis looks violated",
                         {"u0": len(u0)})
    return KrakenSearchState(g, rc, uset, high, uset | u0)


def _finish(state: KrakenSearchState) -> Kraken:
    """The robust second half, for a carved collection none of whose krakens
    qualifies (the caller judges them): anchors are built, and each round
    of the link loop links what free legs it can, assembles the first fully
    linked kraken, or else makes one shortcut rewrite and goes round again.
    Without a rewrite, or after ``_MAX_LINK_ROUNDS`` rounds, it raises stage
    ``link-rounds`` with each kraken's links and legs and the anchor count."""
    _build_anchors(state)
    for _ in range(_MAX_LINK_ROUNDS):
        _augment_links(state)
        full = next((i for i in range(len(state.collection)) if not state.free_legs(i)), None)
        if full is not None:
            return _assemble(state, full)
        if not _shortcut_round(state):
            break
    raise StageError("link-rounds", "no kraken fully linked",
                     {"linked": [len(l) for l in state.links],
                      "legs": [kr.k for kr in state.collection],
                      "anchors": len(state.anchors)})


def _high_degree(g: Graph, rc: ResolvedConfig) -> frozenset[int]:
    """The high-degree set L: every vertex of degree at least delta_threshold."""
    return frozenset(compress(range(g.n), map(rc.delta_threshold.__le__, map(len, g._adj))))


def _under_separation(g: Graph, sets: list[frozenset[int]], high: frozenset[int],
                      separation: int) -> int | None:
    """The separation rule: the least distance between two of ``sets`` in g
    minus the high-degree set when it is under ``separation``, else None.

    One search for all pairs: BFS layers from every set's members outside
    the high set at once, each reached vertex labelled with its parent's
    set.  Two sets that share a vertex are 0 apart; else the least distance
    is the least depth(x) + depth(y) + 1 over edges xy whose ends carry
    different labels, and every vertex of a shortest path under
    ``separation`` lies within (separation - 1) // 2 of a source.  So the
    search stops there, and reads only the rows of vertices x with
    2 * depth(x) + 1 < separation: none at separation 1, the sources' at 2.
    """
    label: dict[int, int] = {}
    for i, members in enumerate(sets):
        for v in members:
            if label.setdefault(v, i) != i:
                return 0
    parents: dict[int, int | None] = {}
    depth: dict[int, int] = {}
    layers = bfs_layers(g, [v for v in label if v not in high], high, parents=parents)
    for d, layer in enumerate(islice(layers, (separation - 1) // 2 + 1)):
        depth.update(dict.fromkeys(layer, d))
        if d:
            label.update((v, label[parents[v]]) for v in layer)
    bound = separation  # a gap must be under this to count
    adj = g._adj
    for x, dx in depth.items():  # in BFS order
        if 2 * dx + 1 >= bound:
            break
        lx = label[x]
        for y in adj[x]:
            dy = depth.get(y)
            if dy is not None and dx + dy + 1 < bound and label[y] != lx:
                bound = dx + dy + 1
    return bound if bound < separation else None


def _qualifies(g: Graph, kr: Kraken, high: frozenset[int], uset: frozenset[int],
               rc: ResolvedConfig) -> bool:
    """The two output properties: every leg ends high-degree or avoids the
    high-degree set entirely, and the avoiding legs are pairwise (and
    from U) at least the configured separation apart off the high set.
    The legs are judged in one ``_under_separation`` search; U, which can be
    large, is not seeded into it but reached from each leg by ``set_distance``."""
    low = []
    for j, leg in enumerate(kr.legs):
        if kr.ends[j] in high:
            continue
        if leg.members & high:
            return False
        low.append(leg.members)
    if _under_separation(g, low, high, rc.separation) is not None:
        return False
    u_low = uset - high
    return not u_low or all(
        set_distance(g, members, u_low, avoid=high, cap=rc.separation - 1) is None
        for members in low)


def _child_seed(seed: int, tag: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + tag) & 0xFFFFFFFFFFFF


def _carve_rounds(state: KrakenSearchState, seed: int) -> Iterator[Kraken]:
    """Carve the collection round by round, yielding each kraken once it joins the state."""
    g, rc = state.graph, state.cfg
    for round_no in range(rc.kraken_count):
        used = set()
        for kr in state.collection:
            used |= kr.vertex_set()
        w = (state.u1 | used) - state.high_degree
        wprime = set(ball(g, w, rc.kraken_separation, state.high_degree - w)) if w else set()
        avoid = set(state.forbidden) | wprime
        verts = _largest_piece(g, avoid)
        if len(verts) < 3:
            break
        try:
            kr = _carve(g, verts, avoid, rc.k_max, max(1, rc.m), rc.leg_size,
                        _child_seed(seed, 1000 + round_no))
        except StageError as exc:
            if not state.collection:
                raise StageError("kraken-collection", f"no kraken found: {exc}",
                                 {"survivors": len(verts)})
            break
        state.collection.append(kr)
        state.links.append({})
        yield kr
    if not state.collection:
        raise StageError("kraken-collection", "no kraken found in the survivor graph", {})


def _build_anchors(state: KrakenSearchState) -> None:
    g, rc = state.graph, state.cfg
    used = set()
    for kr in state.collection:
        used |= kr.vertex_set()
    for _ in range(rc.anchor_count):
        core = set(state.forbidden)
        for a in state.anchors:
            core |= a.members
        core -= state.high_degree
        sep_ball = set(ball(g, core, rc.separation, state.high_degree - core)) if core else set()
        avoid = state.high_degree | state.forbidden | used | sep_ball
        try:
            exp = find_large_ball(g, avoid, rc.params, w_cap=float(g.n),
                                  max_candidates=_BALL_CANDIDATES)
        except StageError:
            break
        if exp.size < rc.anchor_size:
            break
        state.anchors.append(trim_expansion(g, exp, rc.anchor_size))


def _link_obstacles(state: KrakenSearchState, i: int, j: int) -> set[int]:
    """What a new link path for kraken i's leg j must stay clear of: U, the
    kraken's cycle and private paths, and the vertices of its existing
    links, also where they run into leg j itself.  Sibling legs stay
    traversable."""
    kr = state.collection[i]
    avoid = set(state.forbidden) | set(kr.cycle.vertices)
    for p in kr.paths:
        avoid |= p.vertex_set()
    avoid -= kr.legs[j].members
    avoid.discard(kr.ends[j])
    for link in state.links[i].values():
        avoid |= set(link.path.vertices)
    return avoid


def _augment_links(state: KrakenSearchState) -> None:
    """Greedy maximal linking: every free leg tries the shortest admissible
    path to L minus U, then to an anchor unused by its kraken."""
    g, rc = state.graph, state.cfg
    hi_targets = state.high_degree - state.forbidden
    for i in range(len(state.collection)):
        kr = state.collection[i]
        for j in state.free_legs(i):
            avoid = _link_obstacles(state, i, j)
            leg = kr.legs[j].members
            if hi_targets - avoid - leg:
                p = shortest_set_path(g, leg, hi_targets - avoid, avoid, cap=rc.p_len_cap)
                if p is not None:
                    state.links[i][j] = LegLink("P", p)
                    state.check()
                    continue
            used = state.used_anchors(i)
            targets = set()
            for a_idx, a in enumerate(state.anchors):
                if a_idx not in used:
                    targets |= a.members
            if not targets:
                continue
            p = shortest_set_path(g, leg, targets - avoid, avoid, cap=rc.q_len_cap)
            if p is not None:
                a_idx = next(ai for ai, a in enumerate(state.anchors)
                             if p.vertices[-1] in a.members)
                state.links[i][j] = LegLink("Q", p, a_idx)
                state.check()


def _shortcut_round(state: KrakenSearchState) -> bool:
    """Grow a ball from one free leg of every kraken for ell0 steps.

    While growing, enforce the shortcut rule: an existing link path whose
    vertices meet the ball's neighborhood in more than r+1 vertices by
    step r gets its initial segment rewritten through the ball (which
    strictly shortens it and re-seats it on the free leg, freeing the leg
    it left).  Makes the first such rewrite and returns True, else False.
    The ball is a BFS from the leg that never enters a link vertex: step r
    covers its layers 0..r-1, and ``met`` holds the link vertices next to them.
    """
    g, rc = state.graph, state.cfg
    for i, kr in enumerate(state.collection):
        free = state.free_legs(i)
        if not free:
            continue
        j0 = free[0]
        b = set(kr.cycle.vertices).union(*map(Path.vertex_set, kr.paths))
        b.discard(kr.ends[j0])
        hard = b | state.forbidden
        links = sorted(state.links[i].items())
        c = set().union(*(link.path.vertices for _, link in links))
        on_links = c - hard
        depth: dict[int, int] = {}
        met: set[int] = set()
        layers = bfs_layers(g, kr.legs[j0].members - hard - c, hard | c)
        for r, layer in enumerate(islice(layers, rc.ell0), 1):
            depth.update(dict.fromkeys(layer, r - 1))
            met.update(w for v in layer for w in g.neighbors(v) if w in on_links)
            for j, link in links:
                hits = met.intersection(link.path.vertices)
                if len(hits) > r + 1:
                    _apply_shortcut(state, i, j, j0, link, hits, depth)
                    return True
    return False


def _apply_shortcut(state: KrakenSearchState, i: int, j: int, j0: int,
                    link: LegLink, hits: set[int], depth: dict[int, int]) -> None:
    """Replace the initial segment of an overlapped link path by a route
    through the free leg's ball, given each ball vertex's ``depth``: from
    the least ball neighbour of the last hit, each step takes the least
    neighbour one layer nearer the leg.  The path gets strictly shorter
    and now belongs to leg j0."""
    g = state.graph
    verts = link.path.vertices
    idx = max(verts.index(h) for h in hits)
    route = [min(v for v in g.neighbors(verts[idx]) if v in depth)]
    for d in range(depth[route[0]] - 1, -1, -1):
        route.append(min(v for v in g.neighbors(route[-1]) if depth.get(v) == d))
    new_path = Path(tuple(reversed(route)) + verts[idx:])
    if new_path.length >= link.path.length:
        raise InternalError("internal: shortcut rewrite failed to shorten the path")
    del state.links[i][j]
    state.links[i][j0] = LegLink(link.kind, new_path, link.anchor)
    state.check()


def _assemble(state: KrakenSearchState, i: int) -> Kraken:
    """Upgrade a fully linked kraken: each high-degree link contributes its
    terminal plus fresh neighbors as the new leg, each anchor link a
    trimmed connected piece of its anchor; private paths are extended
    through the old legs onto the link paths."""
    g, rc = state.graph, state.cfg
    kr = state.collection[i]
    links = state.links[i]
    new_paths: list[Path] = []
    linkverts = set()
    for link in links.values():
        linkverts |= set(link.path.vertices)
    for j in range(kr.k):
        link = links[j]
        lp = link.path
        a = lp.vertices[0]
        blocked = (linkverts - set(lp.vertices)) | {v for p in new_paths for v in p.vertices}
        tr = shortest_set_path(g, [kr.ends[j]], {a}, within=(kr.legs[j].members - blocked) | {a})
        if tr is None:
            raise StageError("assembly",
                             f"cannot route through leg {j} around crossing links",
                             {"kraken": i, "leg": j})
        # _carve builds every private path as (cycle vertex, end)
        new_paths.append(Path(kr.paths[j].vertices + tr.vertices[1:] + lp.vertices[1:]))
    claims = set(kr.cycle.vertices)
    for p in new_paths:
        claims |= p.vertex_set()
    new_legs: list[Expansion | None] = [None] * kr.k
    new_ends: list[int] = [p.vertices[-1] for p in new_paths]
    for j in range(kr.k):
        if links[j].kind != "Q":
            continue
        anchor = state.anchors[links[j].anchor]
        end = new_ends[j]
        allowed = anchor.members - (claims - {end})
        members, radius = _bfs_prefix(g, end, rc.leg_size, g.n, within=allowed)
        if end not in allowed or len(members) < rc.leg_size:
            raise StageError("assembly", f"anchor {links[j].anchor} too crowded to seat leg {j}",
                             {"kraken": i, "leg": j})
        new_legs[j] = Expansion(end, frozenset(members), radius)
        claims |= new_legs[j].members
    for j in range(kr.k):
        if links[j].kind != "P":
            continue
        end = new_ends[j]
        fresh = [w for w in g.neighbors(end) if w not in claims][:rc.leg_size - 1]
        if len(fresh) < rc.leg_size - 1:
            raise StageError("assembly",
                             f"high-degree vertex {end} has too few free neighbors for leg {j}",
                             {"kraken": i, "leg": j, "free": len(fresh)})
        members = frozenset([end, *fresh])
        new_legs[j] = Expansion(end, members, 1 if len(members) > 1 else 0)
        claims |= members
    s_new = max(1, max(l.radius for l in new_legs),
                max(math.ceil(p.length / 10) for p in new_paths))
    upgraded = Kraken(kr.cycle, tuple(new_ends), tuple(new_legs), tuple(new_paths),
                      s_new, rc.leg_size)
    rep = verify_kraken(g, upgraded)
    if not rep.valid:
        raise InternalError(f"internal: assembled kraken invalid ({rep})")
    if not _qualifies(g, upgraded, state.high_degree, state.forbidden, rc):
        raise StageError("assembly-quality",
                         "assembled kraken misses the separation properties", {"kraken": i})
    return upgraded


def _bfs_prefix(g: Graph, start: int, size: int, radius: int, *,
                avoid: set[int] | frozenset[int] = frozenset(),
                within: set[int] | frozenset[int] | None = None) -> tuple[list[int], int]:
    """The first ``size`` vertices in BFS order from ``start`` (itself first,
    whatever ``avoid`` and ``within`` say) within ``radius`` steps, and the
    distance of the last one.  Each vertex's BFS parent comes before it, so
    that distance is also the prefix's radius inside the prefix."""
    members: list[int] = []
    depth = 0
    for depth, layer in enumerate(bfs_layers(g, [start], avoid, within)):
        members += layer[:size - len(members)]
        if len(members) == size or depth >= radius:
            break
    return members, depth
