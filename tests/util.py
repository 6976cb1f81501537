"""Shared test fixtures and independent oracles.

Everything here deliberately avoids the library's own search code paths:
oracles are plain enumerations (or networkx), so agreement is meaningful.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from itertools import product

import networkx as nx

from pillarkit.errors import InternalError, PreconditionError, StageError
from pillarkit.expander import ExpanderParams, epsilon
from pillarkit.generators import random_regular, subdivided_prism
from pillarkit.graph import Cycle, Graph, Path, _trace, induced_subgraph
from pillarkit.kraken import Kraken, KrakenSearchState, LegLink, find_kraken
from pillarkit.pillar import Pillar, _link_aligned, _rotate_kraken, _translate_pillar, verify_pillar
from pillarkit.primitives import Expansion

def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def nx_has_q3(g: Graph) -> bool:
    """Independent cube-containment oracle via VF2 monomorphism."""
    cube = nx.hypercube_graph(3)
    matcher = nx.algorithms.isomorphism.GraphMatcher(to_nx(g), cube)
    return matcher.subgraph_is_monomorphic()


def nx_on_q3(g: Graph, v: int) -> bool:
    """Whether some cube of g holds v: a VF2 monomorphism from the cube
    into v's radius-3 ball (the cube's diameter is 3) that maps a cube
    vertex to v.  The cube is vertex-transitive, so one vertex will do."""
    near = nx.ego_graph(to_nx(g), v, radius=3)
    nx.set_node_attributes(near, {u: u == v for u in near}, "root")
    cube = nx.hypercube_graph(3)
    nx.set_node_attributes(cube, {u: not any(u) for u in cube}, "root")
    # VF2 pairs the cube's vertices in node order, the root (0, 0, 0)
    # first, so the search starts from v instead of finding it last
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        near, cube, node_match=lambda a, b: a["root"] == b["root"])
    return matcher.subgraph_is_monomorphic()


def all_simple_path_lengths(g: Graph, u: int, v: int, max_len: int) -> set[int]:
    """Every realizable simple-path length from u to v (plain recursion)."""
    lengths: set[int] = set()
    seen = {u}

    def rec(x: int, depth: int):
        if x == v:
            lengths.add(depth)
            return
        if depth == max_len:
            return
        for w in g.neighbors(x):
            if w not in seen:
                seen.add(w)
                rec(w, depth + 1)
                seen.discard(w)

    if u == v:
        return {0}
    rec(u, 0)
    return lengths


def random_connected_graph(n: int, extra_edges: int, seed: int) -> Graph:
    """Random tree plus a few extra edges; always connected."""
    rng = random.Random(seed)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    tries = 0
    while extra_edges > 0 and tries < 50 * extra_edges:
        tries += 1
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and (min(a, b), max(a, b)) not in edges:
            edges.add((min(a, b), max(a, b)))
            extra_edges -= 1
    return Graph(n, sorted(edges))


def planted_prism_with_noise(s: int, ell: int, noise_vertices: int, seed: int) -> Graph:
    """A subdivided prism plus seeded noise: chains of 2..6 fresh vertices
    hung on random prism vertices.  Every noise vertex has degree <= 2 and
    the graph stays bipartite (chains are trees)."""
    base = subdivided_prism(s, ell)
    rng = random.Random(seed)
    edges = base.edges()
    nxt = base.n
    stop = base.n + noise_vertices
    while nxt < stop:
        length = min(rng.randint(2, 6), stop - nxt)
        attach = rng.randrange(base.n)
        chain = [attach] + list(range(nxt, nxt + length))
        nxt += length
        edges.extend(zip(chain, chain[1:]))
    return Graph(stop, edges)


def hub_graph(seed: int, n: int = 2000, hubs: int = 40, hub_degree: int = 100) -> Graph:
    """rr(n, 12) shifted up by ``hubs`` ids, plus hub vertices 0..hubs-1,
    each joined to ``hub_degree`` distinct seeded random rr vertices.

    Hubs sit above the high-degree threshold and come first in every
    sorted adjacency row, so kraken legs grow into them and the robust
    pipeline has to build anchors and links."""
    base = random_regular(n, 12, seed)
    rng = random.Random(f"hubs-{seed}")
    edges = [(u + hubs, v + hubs) for u, v in base.edges()]
    for h in range(hubs):
        edges.extend((h, v + hubs) for v in rng.sample(range(n), hub_degree))
    return Graph(n + hubs, edges)


def covered_hub_graph(seed: int, hubs: int = 10, n: int = 2000) -> Graph:
    """rr(n, 12) in which every vertex v is also joined to vertex
    v % hubs, so each of the hubs 0..hubs-1 gains about n/hubs edges and
    nearly every leg lies next to one."""
    edges = set(random_regular(n, 12, seed).edges())
    edges.update((v % hubs, v) for v in range(hubs, n))
    return Graph(n, sorted(edges))


def torus(a: int, b: int) -> Graph:
    """The a x b torus C_a x C_b, vertex (i, j) at id i*b + j.  Even sides
    make it bipartite and 4-regular, and no vertex reaches the default
    high-degree threshold, so every link of the robust pipeline is a Q-link."""
    edges = []
    for i in range(a):
        for j in range(b):
            edges.append((i * b + j, (i + 1) % a * b + j))
            edges.append((i * b + j, i * b + (j + 1) % b))
    return Graph(a * b, edges)


def clique_chain(m: int, count: int) -> Graph:
    """``count`` copies of K_m joined in a path, the last vertex of each
    clique to the first of the next: each clique has at most two external
    neighbours, so small sets violate expansion."""
    edges = [(c * m + i, c * m + j) for c in range(count)
             for i in range(m) for j in range(i + 1, m)]
    edges += [(c * m + m - 1, (c + 1) * m) for c in range(count - 1)]
    return Graph(m * count, edges)


def prism_kraken(s_param: int = 1) -> tuple[Graph, Kraken]:
    """Hand-built kraken on subdivided_prism(4,2): the first cycle, the
    rung midpoints as paths, the far endpoints as singleton legs."""
    g = subdivided_prism(4, 2)  # rung i = (i, 8+i, 4+i)
    kr = Kraken(
        cycle=Cycle((0, 1, 2, 3)),
        ends=(4, 5, 6, 7),
        legs=tuple(Expansion(4 + i, frozenset({4 + i}), 0) for i in range(4)),
        paths=tuple(Path((i, 8 + i, 4 + i)) for i in range(4)),
        s=s_param, t=1)
    return g, kr


# -- slow references for the BFS kernel --------------------------------
# FIFO-queue searches written out by hand, one per job, as the library did
# them before every search ran on graph.bfs_layers.


def ref_bfs_layers(g: Graph, sources, blocked=frozenset()) -> tuple[list[list[int]], dict]:
    """Every full layer, each in discovery order, and the parent map of a
    FIFO search that steps only onto vertices outside ``blocked``; layer 0
    is the sources without repeats, used as given."""
    parent = dict.fromkeys(sources)
    depth = dict.fromkeys(parent, 0)
    layers = [list(parent)]
    queue = deque(parent)
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w not in parent and w not in blocked:
                parent[w] = u
                depth[w] = depth[u] + 1
                if depth[w] == len(layers):
                    layers.append([])
                layers[depth[w]].append(w)
                queue.append(w)
    return layers, parent


def ref_distances_from(g: Graph, sources, avoid=frozenset(), cap=None) -> dict[int, int]:
    dist = {s: 0 for s in sources if s not in avoid}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        du = dist[u]
        if cap is not None and du >= cap:
            continue
        for w in g.neighbors(u):
            if w not in dist and w not in avoid:
                dist[w] = du + 1
                queue.append(w)
    return dist


def ref_set_distance(g: Graph, a, b, avoid=frozenset(), cap=None) -> int | None:
    if set(a) & set(b):
        return 0
    dist = ref_distances_from(g, a, avoid, cap)
    return min((dist[v] for v in b if v in dist), default=None)


def ref_shortest_set_path(g: Graph, sources, targets, avoid=frozenset(), cap=None) -> Path | None:
    src = [s for s in sources if s not in avoid]
    tgt = {t for t in targets if t not in avoid}
    if not src or not tgt:
        return None
    direct = sorted(set(src) & tgt)
    if direct:
        return Path((direct[0],))
    parent = {s: -1 for s in src}
    depth = {s: 0 for s in src}
    queue = deque(src)
    while queue:
        u = queue.popleft()
        if cap is not None and depth[u] >= cap:
            continue
        for w in g.neighbors(u):
            if w in parent or w in avoid:
                continue
            if w in tgt:
                seq = [w, u]
                while parent[seq[-1]] != -1:
                    seq.append(parent[seq[-1]])
                return Path(tuple(reversed(seq)))
            parent[w] = u
            depth[w] = depth[u] + 1
            queue.append(w)
    return None


def ref_leg_growth(g: Graph, start: int, size: int, radius: int, blocked) -> list[int]:
    """The kraken leg loop: the first ``size`` vertices in BFS order from
    start, stepping only onto vertices outside ``blocked``, at most
    ``radius`` steps out."""
    members = [start]
    frontier = [start]
    seen = {start}
    depth = 0
    while len(members) < size and frontier and depth < radius:
        nxt = []
        for a in frontier:
            for w in g.neighbors(a):
                if w not in seen and w not in blocked:
                    seen.add(w)
                    nxt.append(w)
                    members.append(w)
                    if len(members) == size:
                        break
            if len(members) == size:
                break
        frontier = nxt
        depth += 1
    return members


def ref_alt_route(g: Graph, a: int, b: int, blocked, max_len: int) -> Path | None:
    """Shortest a,b-path of length >= 2 through unblocked vertices."""
    dist = {a: 0}
    parent = {a: -1}
    queue = [a]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        if dist[u] + 1 > max_len:
            break
        for w in g.neighbors(u):
            if w == b:
                if u == a:
                    continue
                chain = [b, u]
                while parent[chain[-1]] != -1:
                    chain.append(parent[chain[-1]])
                return Path(tuple(chain[::-1]))
            if w not in dist and w not in blocked:
                dist[w] = dist[u] + 1
                parent[w] = u
                queue.append(w)
    return None


# -- slow references for the expander scans ----------------------------
# The loops the expander and robust_kraken ran before those scans learnt to
# decide from a bound or to count with built-ins.  Results and random draws
# must agree exactly.


def ref_least_common_length(rungs, lo: int, hi: int) -> int | None:
    """The least length in [lo, hi] that every rung can take, or None.
    A rung is (core path, detours); it can take its core's length plus one
    increment (alternative length less 1) for each core edge it picks a
    detour on, trying every pick of at most one detour per edge."""
    common = None
    for core, detours in rungs:
        edges = {frozenset(e) for e in zip(core.vertices, core.vertices[1:])}
        options: dict[frozenset[int], list[int]] = {}
        for det in detours:
            if frozenset((det.entry, det.exit)) in edges:
                options.setdefault(frozenset((det.entry, det.exit)), [0]).append(
                    len(det.alternative.vertices) - 2)
        lengths = {len(core.vertices) - 1 + sum(pick) for pick in product(*options.values())}
        common = lengths if common is None else common & lengths
    return min((x for x in common if lo <= x <= hi), default=None)


def ref_violation(g: Graph, members: list[int], params: ExpanderParams):
    """(X, F) or None: F empty first, then the greedy on sorted counts."""
    xset = set(members)
    counts: dict[int, int] = {}
    for v in members:
        for w in g.neighbors(v):
            if w not in xset:
                counts[w] = counts.get(w, 0) + 1
    need = epsilon(len(members), params) * len(members)
    if len(counts) < need:
        return frozenset(members), []
    budget = g.average_degree() * need
    removed: list[tuple[int, int]] = []
    spent = 0
    remaining = len(counts)
    for cost, y in sorted((c, y) for y, c in counts.items()):
        if spent + cost > budget:
            break
        spent += cost
        remaining -= 1
        removed.extend((min(u, y), max(u, y)) for u in g.neighbors(y) if u in xset)
        if remaining < need:
            return frozenset(members), removed
    return None


def ref_sample_connected(g: Graph, rng: random.Random, size: int) -> list[int]:
    """A connected set grown from a random frontier vertex, one vertex at
    a time."""
    start = rng.randrange(g.n)
    out = [start]
    seen = {start}
    frontier = [start]
    while frontier and len(out) < size:
        u = frontier.pop(rng.randrange(len(frontier)))
        nbrs = [w for w in g.neighbors(u) if w not in seen]
        rng.shuffle(nbrs)
        for w in nbrs:
            if len(out) >= size:
                break
            seen.add(w)
            out.append(w)
            frontier.append(w)
    return out


def ref_greedy_max_cut_sides(g: Graph, order: list[int]) -> list[int]:
    """Each vertex in order opposite the majority of its placed neighbors."""
    side = [-1] * g.n
    for v in order:
        same0 = sum(1 for w in g.neighbors(v) if side[w] == 0)
        same1 = sum(1 for w in g.neighbors(v) if side[w] == 1)
        side[v] = 0 if same0 <= same1 else 1
    return side


def ref_bfs_order(g: Graph) -> list[int]:
    """Every vertex in the order of one FIFO search per component, started
    at its lowest vertex."""
    seen = [False] * g.n
    order: list[int] = []
    for root in range(g.n):
        if not seen[root]:
            seen[root] = True
            queue = deque([root])
            while queue:
                u = queue.popleft()
                order.append(u)
                for w in g.neighbors(u):
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
    return order


def ref_peel(g: Graph, keep: set[int], d: int) -> set[int]:
    deg = {v: sum(1 for w in g.neighbors(v) if w in keep) for v in keep}
    queue = [v for v, dv in deg.items() if dv < d]
    alive = set(keep)
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


def ref_u0(g: Graph, uset: frozenset[int], d: int) -> frozenset[int]:
    """The vertices outside U with at least d/2 neighbors in U."""
    return frozenset(v for v in range(g.n)
                     if v not in uset and sum(1 for w in g.neighbors(v) if w in uset) >= d / 2)


def ref_find_large_ball(g: Graph, w, params: ExpanderParams, w_cap: float,
                        max_candidates: int | None = None) -> Expansion:
    """``find_large_ball`` as first written: the centers sorted by the key
    (-degree, v), one Python call per vertex."""
    wset = frozenset(w)
    if len(wset) > w_cap:
        raise PreconditionError(f"|W| = {len(wset)} over the cap {w_cap:.3f}")
    radius_budget = math.ceil(200 * math.log(g.n) ** 3 / params.eps1) if g.n > 2 else g.n
    target = g.n / 25
    order = sorted((v for v in range(g.n) if v not in wset), key=lambda v: (-g.degree(v), v))
    if max_candidates is not None:
        order = order[:max_candidates]
    for center in order:
        dist = {center: 0}
        queue = deque([center])
        while queue:  # the whole ball of radius_budget, in BFS order
            u = queue.popleft()
            if dist[u] < radius_budget:
                for x in g.neighbors(u):
                    if x not in dist and x not in wset:
                        dist[x] = dist[u] + 1
                        queue.append(x)
        for depth in range(max(dist.values()) + 1):
            reached = [v for v, d in dist.items() if d <= depth]
            if len(reached) >= target:
                return Expansion(center, frozenset(reached), depth)
    raise StageError("large-ball", "no center grows a large enough ball",
                     {"candidates": len(order), "target": math.ceil(target)})


# -- slow reference for carving in G - U ---------------------------------
# The route the kraken collection took before it carved on the host's ids:
# copy the survivors, keep the copy's largest component, carve a kraken in
# that, and map it back through the ids the copy kept.


def ref_piece(g: Graph, dead) -> tuple[Graph, list[int]]:
    """The largest component of g minus ``dead`` as a copy (ties: the
    component with the lowest vertex), with the ids of g it keeps in order."""
    alive = [v for v in range(g.n) if v not in dead]
    sub = induced_subgraph(g, alive)
    if sub.n == 0 or max(sub.comp) == 0:
        return sub, alive
    sizes = Counter(sub.comp)
    best = max(sizes, key=lambda c: (sizes[c], -c))
    piece = [v for v in range(sub.n) if sub.comp[v] == best]
    return induced_subgraph(sub, piece), [alive[v] for v in piece]


def ref_carve(g: Graph, dead, k_max: int, s: int, t: int, seed: int) -> Kraken:
    sub, ids = ref_piece(g, dead)
    kr = find_kraken(sub, k_max, s, t, seed)
    remap = lambda v: ids[v]
    return Kraken(
        Cycle(tuple(remap(v) for v in kr.cycle.vertices)),
        tuple(remap(v) for v in kr.ends),
        tuple(Expansion(remap(l.center), frozenset(remap(v) for v in l.members), l.radius)
              for l in kr.legs),
        tuple(Path(tuple(remap(v) for v in p.vertices)) for p in kr.paths),
        kr.s, kr.t)


# -- the input path as it was before its fast rewrite ---------------------


def ref_graph(n: int, edges) -> Graph:
    """``Graph(n, edges)`` built as it was first written: one set per row,
    each sorted once all edges are in.  Same checks, in the same order."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise PreconditionError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise PreconditionError(f"edge ({u},{v}) out of range for n={n}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph._from_rows(tuple(tuple(sorted(s)) for s in nbrs))


def ref_cycle_valid(g: Graph, vs: tuple[int, ...]) -> bool:
    """``Cycle(vs).is_valid(g)`` as it was first written: distinct ids in
    range, at least 4 of them on a bipartite g and 3 otherwise, and every
    edge around the cycle present."""
    return (len(set(vs)) == len(vs) and all(0 <= v < g.n for v in vs)
            and len(vs) >= (4 if g.is_bipartite() else 3)
            and all(g.has_edge(a, b) for a, b in zip(vs, vs[1:] + vs[:1])))


def ref_random_regular(n: int, d: int, seed: int) -> tuple[Graph, int]:
    """``random_regular`` with its stubs shuffled by ``random.shuffle``, and
    the number of pairings that hit a dead end before one succeeded."""
    attempt = 0
    while True:
        rng = random.Random((seed * 1_000_003 + attempt) & 0xFFFFFFFFFFFF)
        edges = _ref_pair_stubs(n, d, rng)
        if edges is not None:
            return ref_graph(n, edges), attempt
        attempt += 1


def _ref_pair_stubs(n: int, d: int, rng: random.Random) -> set[tuple[int, int]] | None:
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * d
    while stubs:
        leftovers: dict[int, int] = {}
        rng.shuffle(stubs)
        it = iter(stubs)
        for s1, s2 in zip(it, it):
            s1, s2 = min(s1, s2), max(s1, s2)
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                leftovers[s1] = leftovers.get(s1, 0) + 1
                leftovers[s2] = leftovers.get(s2, 0) + 1
        left = list(leftovers)
        if leftovers and all((min(a, b), max(a, b)) in edges
                             for i, a in enumerate(left) for b in left[:i]):
            return None
        stubs = [v for v, k in leftovers.items() for _ in range(k)]
    return edges


# -- the shortcut round and the prism as they were first written ----------


def ref_shortcut_round(state: KrakenSearchState) -> bool:
    """``kraken._shortcut_round`` before it ran on ``bfs_layers``: each step
    rebuilds the boundary of the whole ball, and a parent map holds the
    least ball neighbour that reached each vertex."""
    g, rc = state.graph, state.cfg
    for i, kr in enumerate(state.collection):
        free = state.free_legs(i)
        if not free:
            continue
        j0 = free[0]
        a = kr.legs[j0].members
        b = set(kr.cycle.vertices)
        for p in kr.paths:
            b |= p.vertex_set()
        b.discard(kr.ends[j0])
        links = sorted(state.links[i].items())
        c = set()
        for _, link in links:
            c |= set(link.path.vertices)
        hard = set(state.forbidden) | b
        seeds = a - hard - c
        parents: dict[int, int | None] = {v: None for v in seeds}
        reached = set(seeds)
        for r in range(1, rc.ell0 + 1):
            boundary = set()
            for v in reached:
                for w in g.neighbors(v):
                    if w not in reached and w not in hard:
                        boundary.add(w)
            for j, link in links:
                hits = boundary & set(link.path.vertices)
                if len(hits) > r + 1:
                    ref_apply_shortcut(state, i, j, j0, link, hits, parents)
                    return True
            new = boundary - c
            for w in sorted(new):
                if w not in parents:
                    nb = min(v for v in g.neighbors(w) if v in reached)
                    parents[w] = nb
            reached |= new
            if not new:
                break
    return False


def ref_apply_shortcut(state: KrakenSearchState, i: int, j: int, j0: int,
                       link: LegLink, hits: set[int], parents: dict[int, int | None]) -> None:
    """``kraken._apply_shortcut`` on ``ref_shortcut_round``'s parent map."""
    g = state.graph
    verts = link.path.vertices
    idx = max(verts.index(h) for h in hits)
    z = verts[idx]
    y = min(v for v in g.neighbors(z) if v in parents)
    new_path = Path(_trace(parents, y).vertices + verts[idx:])
    if new_path.length >= link.path.length:
        raise InternalError("internal: shortcut rewrite failed to shorten the path")
    del state.links[i][j]
    state.links[i][j0] = LegLink(link.kind, new_path, link.anchor)
    state.check()


def ref_subdivided_prism(s: int, ell: int) -> Graph:
    """``subdivided_prism`` with its rung ids laid out in place."""
    edges = []
    for i in range(s):
        j = (i + 1) % s
        edges.append((i, j))
        edges.append((s + i, s + j))
    nxt = 2 * s
    for i in range(s):
        chain = [i] + list(range(nxt, nxt + ell - 1)) + [s + i]
        nxt += ell - 1
        edges.extend(zip(chain, chain[1:]))
    return Graph(nxt, edges)


# -- the planted search path as it was before its repeats were cut ---------


def ref_shortest_cycle_from(g: Graph, start: int, dead) -> list[int] | None:
    """``kraken._shortest_cycle_from`` with its depth map: a reached
    neighbour closes the cycle only when it is no nearer the start than u."""
    parent = {start: -1}
    depth = {start: 0}
    queue = [start]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for w in g.neighbors(u):
            if w in dead:
                continue
            if w not in parent:
                parent[w] = u
                depth[w] = depth[u] + 1
                queue.append(w)
            elif w != parent[u] and depth[w] >= depth[u]:
                chain_u = [u]
                while parent[chain_u[-1]] != -1:
                    chain_u.append(parent[chain_u[-1]])
                on_u = set(chain_u)
                chain_w = [w]
                while chain_w[-1] not in on_u:
                    chain_w.append(parent[chain_w[-1]])
                meet = chain_w.pop()
                cu = chain_u[:chain_u.index(meet) + 1]
                return cu[::-1] + chain_w
    return None


def ref_link_pair(g: Graph, h: Graph, ids, ka: Kraken, kb: Kraken, high, rc):
    """``pillar._link_pair`` planning every one of the 2k alignments,
    reflected ones included: (the first pillar or None, the last error)."""
    last_error = None
    for reflect in (False, True):
        for shift in range(kb.k):
            aligned = _rotate_kraken(kb, shift, reflect)
            try:
                ell, paths = _link_aligned(h, ka, aligned, rc.pillar_ell_min, rc.ell_max, high, rc)
            except StageError as exc:
                last_error = str(exc)
                continue
            out = _translate_pillar(Pillar(ka.k, ell, ka.cycle, aligned.cycle, tuple(paths)), ids)
            assert verify_pillar(g, out).valid
            return out, None
    return None, last_error
