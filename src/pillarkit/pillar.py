"""Pillars and how to build them: the certificate type and checker, the
exact-length connector (complete search at small n, detour splicing at
scale), kraken-to-kraken linking with one length plan per alignment, and
the end-to-end driver.

Each result is checked once, by its checker on the graph it is returned
in: ``link_krakens`` checks the pillar its paths form in g, and
``find_pillar`` checks its pillar in g, not in the host it searched.
Public entry points check their inputs; private steps trust what the code
before them established.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ResolvedConfig, RunConfig
from .errors import (InternalError, LengthNotRealizedError, NoPathError,
                     PreconditionError, StageError)
from .graph import (Cycle, Graph, Path, _largest_piece, _trace, ball, bfs_layers,
                    distances_from, induced_subgraph, parity, shortest_set_path)
from .kraken import (Kraken, _carve_rounds, _child_seed, _finish, _high_degree, _qualifies,
                     _survivor_state, _under_separation, verify_kraken)
from .primitives import (Q3_CAP, Expansion, Q3Certificate, connect_short,
                         find_q3_bruteforce, find_q3_sampled, restrict_and_trim)
from .validity import ValidityReport, json_int
from .expander import _max_cut_graph

@dataclass(frozen=True)
class Pillar:
    """Two disjoint cycles of length s joined by s disjoint equal-length
    paths connecting matching vertices in order around the cycles."""

    s: int
    ell: int
    cycle1: Cycle
    cycle2: Cycle
    paths: tuple[Path, ...]

    def vertex_set(self) -> frozenset[int]:
        out = set(self.cycle1.vertices) | set(self.cycle2.vertices)
        for p in self.paths:
            out |= p.vertex_set()
        return frozenset(out)

    def to_json_dict(self) -> dict:
        return {
            "kind": "pillar",
            "version": 1,
            "s": self.s,
            "ell": self.ell,
            "cycle1": list(self.cycle1.vertices),
            "cycle2": list(self.cycle2.vertices),
            "paths": [list(p.vertices) for p in self.paths],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Pillar":
        try:
            return cls(
                json_int(data["s"]),
                json_int(data["ell"]),
                Cycle(tuple(map(json_int, data["cycle1"]))),
                Cycle(tuple(map(json_int, data["cycle2"]))),
                tuple(Path(tuple(map(json_int, p))) for p in data["paths"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PreconditionError(f"malformed pillar certificate: {exc}")


def _is_rotation_or_reflection(seq: list[int], ref: list[int]) -> bool:
    n = len(ref)
    if len(seq) != n:
        return False
    for rev in (ref, ref[::-1]):
        for r in range(n):
            if seq == rev[r:] + rev[:r]:
                return True
    return False


def verify_pillar(g: Graph, p: Pillar) -> ValidityReport:
    """Check every pillar clause; the in-order matching accepts any
    rotation or reflection of the second cycle's indexing."""
    rep = ValidityReport()
    ids = set(p.cycle1.vertices) | set(p.cycle2.vertices)
    for q in p.paths:
        ids |= q.vertex_set()
    if any(not (0 <= v < g.n) for v in ids):
        rep.add("ids-in-range", "vertex id out of range")
        return rep
    if len(p.cycle1.vertices) != p.s or len(p.cycle2.vertices) != p.s:
        rep.add("cycles-equal-length",
                f"cycle lengths {len(p.cycle1.vertices)}, {len(p.cycle2.vertices)} != s = {p.s}")
    for msg in p.cycle1.failures(g):
        rep.add("cycle1-valid", msg)
    for msg in p.cycle2.failures(g):
        rep.add("cycle2-valid", msg)
    c1 = set(p.cycle1.vertices)
    c2 = set(p.cycle2.vertices)
    if c1 & c2:
        rep.add("cycles-disjoint", f"cycles share {sorted(c1 & c2)[:3]}")
    if len(p.paths) != p.s:
        rep.add("path-count", f"{len(p.paths)} paths for s = {p.s}")
        return rep
    if len(p.cycle1.vertices) != p.s:
        return rep  # cycles-equal-length failed; path i pairs with cycle1 vertex i below
    for i, q in enumerate(p.paths):
        for msg in q.failures(g):
            rep.add("path-valid", f"path {i}: {msg}")
        if q.length != p.ell:
            rep.add("path-length-uniform", f"path {i} has length {q.length} != ell = {p.ell}")
    ends2 = []
    for i, q in enumerate(p.paths):
        v = p.cycle1.vertices[i]
        if q.vertices[0] == v:
            w = q.vertices[-1]
        elif q.vertices[-1] == v:
            w = q.vertices[0]
        else:
            rep.add("path-endpoint-cycle1", f"path {i} misses cycle1 vertex {v}")
            cands = [e for e in (q.vertices[0], q.vertices[-1]) if e in c2]
            w = cands[0] if cands else q.vertices[-1]
        ends2.append(w)
    if set(ends2) != c2 or len(ends2) != len(set(ends2)):
        rep.add("matching-in-order", "cycle2 endpoints do not cover the second cycle exactly")
    elif not _is_rotation_or_reflection(ends2, list(p.cycle2.vertices)):
        rep.add("matching-in-order",
                "cycle2 endpoints are out of cyclic order (no rotation/reflection matches)")
    seen: dict[int, int] = {}
    for i, q in enumerate(p.paths):
        for v in q.vertices:
            if v in seen:
                rep.add("paths-disjoint", f"paths {seen[v]} and {i} share vertex {v}")
                break
        for v in q.vertices:
            seen.setdefault(v, i)
        bad = set(q.interior()) & (c1 | c2)
        if bad:
            rep.add("paths-internal-avoid-cycles",
                    f"path {i} interior meets a cycle at {sorted(bad)[:3]}")
    return rep


# -- exact-length connection -------------------------------------------


@dataclass(frozen=True)
class Detour:
    """An even cycle hung on one core edge: the edge's endpoints plus an
    alternative odd-length route between them through otherwise unused
    vertices.  Splicing it in lengthens the core by a positive even
    increment."""

    entry: int
    exit: int
    alternative: Path  # entry -> exit, interior disjoint from everything else

    @property
    def increment(self) -> int:
        return self.alternative.length - 1

    def failures(self, g: Graph) -> list[str]:
        out = self.alternative.failures(g)
        if self.alternative.ends != (self.entry, self.exit):
            out.append("alternative does not join entry to exit")
        if not g.has_edge(self.entry, self.exit):
            out.append("entry-exit edge missing")
        if self.increment <= 0 or self.increment % 2 != 0:
            out.append(f"increment {self.increment} not even positive")
        return out


@dataclass(frozen=True)
class Adjuster:
    """A core path plus disjoint even-cycle detours, one per core edge;
    splicing any subset of detours realizes core length + that subset's
    increment sum."""

    core: Path
    detours: tuple[Detour, ...]

    def failures(self, g: Graph) -> list[str]:
        out = self.core.failures(g)
        core_set = self.core.vertex_set()
        used: set[int] = set()
        edges = set(zip(self.core.vertices, self.core.vertices[1:]))
        hung: dict[frozenset[int], int] = {}  # core edge -> first detour hung on it
        for i, det in enumerate(self.detours):
            out.extend(f"detour {i}: {m}" for m in det.failures(g))
            if (det.entry, det.exit) not in edges and (det.exit, det.entry) not in edges:
                out.append(f"detour {i} not attached to a core edge")
            if (first := hung.setdefault(frozenset((det.entry, det.exit)), i)) != i:
                out.append(f"detours {first} and {i} share core edge {det.entry}-{det.exit}")
            inner = set(det.alternative.interior())
            if inner & core_set:
                out.append(f"detour {i} interior meets the core")
            if inner & used:
                out.append(f"detour {i} interior meets another detour")
            used |= inner
        return out

    def _spliceable(self) -> dict[frozenset[int], Detour]:
        """Core edge -> the first detour hung on it: the only ones that add their increment."""
        edges = {frozenset(e) for e in zip(self.core.vertices, self.core.vertices[1:])}
        out: dict[frozenset[int], Detour] = {}
        for det in self.detours:
            if (key := frozenset((det.entry, det.exit))) in edges:
                out.setdefault(key, det)
        return out

    def realizable_lengths(self) -> set[int]:
        sums = {0}
        for det in self._spliceable().values():
            sums |= {s + det.increment for s in sums}
        return {self.core.length + s for s in sums}

    def realize(self, ell: int) -> Path:
        """Splice a subset of detours so the result has length exactly ell."""
        spliceable = list(self._spliceable().items())
        chosen = _subset_sum([det.increment for _, det in spliceable], ell - self.core.length)
        if chosen is None:
            lengths = sorted(self.realizable_lengths())
            below = [x for x in lengths if x <= ell][-1:]
            above = [x for x in lengths if x > ell][:1]
            raise LengthNotRealizedError(ell, below + above)
        by_edge = dict(spliceable[idx] for idx in chosen)
        out = [self.core.vertices[0]]
        for a, b in zip(self.core.vertices, self.core.vertices[1:]):
            det = by_edge.get(frozenset((a, b)))
            if det is None:
                out.append(b)
            else:
                alt = det.alternative.vertices
                if alt[0] != a:
                    alt = alt[::-1]
                out.extend(alt[1:])
        return Path(tuple(out))


def _subset_sum(values: list[int], target: int) -> list[int] | None:
    """Indices of a subset summing exactly to target (None if impossible)."""
    if target < 0:
        return None
    reachable = [1] + [0] * len(values)  # bitmask per prefix
    for i, v in enumerate(values):
        reachable[i + 1] = reachable[i] | (reachable[i] << v)
    if not (reachable[len(values)] >> target) & 1:
        return None
    chosen = []
    rem = target
    for i in range(len(values), 0, -1):
        if (reachable[i - 1] >> rem) & 1:
            continue
        chosen.append(i - 1)
        rem -= values[i - 1]
    return chosen[::-1]


_EXACT_NODE_BUDGET = 2_000_000  # nodes _exact_fixed_path's DFS visits before it gives up
_PROBE_STEPS = 6  # parity steps either side of ell that _probe_exact tries
_CONNECTOR_EXACT_CAP = 64  # largest graph the connector searches by complete DFS
_MAX_KRAKENS = 8  # rounds of find_pillar's kraken search before it gives up
_LINK_SLACK = 8  # length a linked rung's detours may add past the longest core


def _exact_fixed_path(g: Graph, v1: int, v2: int, ell: int,
                      avoid: frozenset[int]) -> tuple[Path | None, bool]:
    """Complete DFS for a simple v1,v2-path of length exactly ell in the
    graph minus ``avoid``.  Pruned by a distance table and, on bipartite
    graphs, by walk parity (both are necessary conditions, so the search
    stays complete).  Second return value reports completeness: a blown
    node budget gives (None, False)."""
    if v1 in avoid or v2 in avoid:
        return None, True
    if ell > g.n - 1:
        return None, True  # a simple path has at most n-1 edges
    dist2 = distances_from(g, [v2], avoid)
    if v1 not in dist2 or dist2[v1] > ell:
        return None, True
    if ell == 0:
        return (Path((v1,)), True) if v1 == v2 else (None, True)
    path = {v1: None}
    nodes = [0]
    found = _extend_exact(g, path, v1, ell, v2, dist2, nodes)
    return (Path(tuple(path)) if found else None), nodes[0] <= _EXACT_NODE_BUDGET


def _extend_exact(g: Graph, path: dict[int, None], x: int, remaining: int, v2: int,
                  dist2: dict[int, int], nodes: list[int]) -> bool:
    """Extend ``path`` (its keys in order, ending at x) in place by exactly
    ``remaining`` edges to v2; False when that is impossible or the node
    budget, counted in ``nodes[0]``, runs out.  ``dist2`` maps each vertex
    outside the avoid set to its distance to v2.  Not a closure that calls
    itself: that is a reference cycle, which leaves every search's maps to
    the cyclic garbage collector."""
    nodes[0] += 1
    if nodes[0] > _EXACT_NODE_BUDGET:
        return False
    if remaining == 0:
        return x == v2
    bip = g.side is not None
    for w in g.neighbors(x):
        d = dist2.get(w)
        if w in path or d is None or d > remaining - 1:
            continue
        if bip and (remaining - 1 - d) % 2 != 0:
            continue
        if w == v2 and remaining != 1:
            continue  # simple path: v2 may appear only as the last vertex
        path[w] = None
        if _extend_exact(g, path, w, remaining - 1, v2, dist2, nodes):
            return True
        del path[w]
    return False


def _base_path(g: Graph, f1: Expansion, f2: Expansion, avoid: frozenset[int],
               params) -> Path:
    mid = connect_short(g, f1.members, f2.members, avoid, params)  # from f1 to f2
    a1, a2 = mid.ends
    c1 = shortest_set_path(g, [f1.center], {a1}, within=f1.members)
    c2 = shortest_set_path(g, [a2], {f2.center}, within=f2.members)
    if c1 is None or c2 is None:
        raise InternalError("internal: expansion not connected to its center")
    return Path(c1.vertices + mid.vertices[1:] + c2.vertices[1:])


def _harvest_detours(g: Graph, core: Path, avoid: frozenset[int], need: int) -> list[Detour]:
    """Hang at most one even-cycle detour on each core edge, greedily along
    the path, using only vertices free of the core, the avoid set and
    earlier detours.  Stops once the collected increments can cover
    ``need`` by a safe margin."""
    detours: list[Detour] = []
    blocked = set(avoid) | core.vertex_set()
    total = 0
    for a, b in zip(core.vertices, core.vertices[1:]):
        if total >= 2 * max(need, 0) + 2:
            break
        cap = need if need > 0 else 2 * len(core.vertices)
        alt = _alt_route(g, a, b, blocked, cap + 1)
        if alt is None:
            continue
        det = Detour(a, b, alt)
        if det.increment <= 0 or det.increment % 2 != 0:
            continue
        detours.append(det)
        blocked |= set(alt.interior())
        total += det.increment
    return detours


def _alt_route(g: Graph, a: int, b: int, blocked: set[int], max_len: int) -> Path | None:
    """Shortest a,b-path of length >= 2 with free interior (None if over
    max_len).  ``blocked`` holds b, so the search never steps onto it."""
    into_b = set(g.neighbors(b))
    parents: dict[int, int | None] = {}
    for depth, layer in enumerate(bfs_layers(g, [a], blocked, parents=parents, stop=into_b)):
        # from depth 1 on: a's own edge to b is the core edge itself
        if depth and layer[-1] in into_b:
            return Path(_trace(parents, layer[-1]).vertices + (b,))
        if depth + 2 > max_len:  # a hit in the next layer would be too long
            return None
    return None


def connect_fixed_length(g: Graph, f1: Expansion, f2: Expansion, ell: int,
                         avoid: frozenset[int] | set[int], config: RunConfig) -> Path:
    """A path of exactly length ell between the two expansion centers,
    avoiding the given set.

    Strategy ladder: complete DFS when the graph is small enough, else a
    base path through the expansions with even-cycle detours spliced in
    to make up the length (subset sum over their increments).  Failures
    raise LengthNotRealizedError carrying the nearest achievable lengths.
    """
    rc = config.resolve(g.n)
    uset = frozenset(avoid)
    if f1.members & f2.members:
        raise PreconditionError("expansions must be vertex-disjoint")
    if (f1.members | f2.members) & uset:
        raise PreconditionError("expansions must avoid the forbidden set")
    if ell < 1:
        raise PreconditionError("target length must be >= 1")
    if not rc.ell_min <= ell <= rc.ell_max:
        raise PreconditionError(
            f"target length {ell} outside the window [{rc.ell_min}, {rc.ell_max}]")
    v1, v2 = f1.center, f2.center
    if g.side is not None and g.comp[v1] == g.comp[v2]:
        if ell % 2 != parity(g, v1, v2):
            raise PreconditionError(
                f"parity mismatch: every {v1},{v2}-path has length {parity(g, v1, v2)} mod 2")

    if g.n <= _CONNECTOR_EXACT_CAP:
        found, complete = _exact_fixed_path(g, v1, v2, ell, uset)
        if found is not None:
            return found
        if complete:
            raise LengthNotRealizedError(ell, _probe_exact(g, v1, v2, ell, uset, rc))
        # budget blown: fall through to the detour strategy

    base = _base_path(g, f1, f2, uset, rc.params)
    need = ell - base.length
    detours = _harvest_detours(g, base, uset, need)
    adj = Adjuster(base, tuple(detours))
    path = adj.realize(ell)  # raises with nearest achievable lengths
    bad = path.failures(g)
    if bad or path.ends not in ((v1, v2), (v2, v1)):
        raise InternalError(f"internal: spliced path invalid ({bad})")
    return path


def _probe_exact(g: Graph, v1: int, v2: int, ell: int, uset: frozenset[int],
                 rc: ResolvedConfig) -> list[int]:
    step = 2 if g.side is not None else 1
    nearest = []
    for delta in range(step, step * (_PROBE_STEPS + 1), step):
        for cand in (ell - delta, ell + delta):
            if cand < 1 or cand > rc.ell_max:
                continue
            if _exact_fixed_path(g, v1, v2, cand, uset)[0] is not None:
                nearest.append(cand)
        if nearest:
            break
    return sorted(nearest)


# -- linking two krakens ------------------------------------------------


def link_krakens(g: Graph, ka: Kraken, kb: Kraken, ell: int,
                 high_degree: frozenset[int] | set[int],
                 config: RunConfig) -> list[Path]:
    """Join matching cycle vertices of two disjoint krakens by disjoint
    paths of the same exact length ell.

    Three steps: each kraken is verified, the pair (``_check_link_pair``)
    and ell's parity are checked, then this alignment is planned with ell
    as its only length (``_link_aligned``), or a StageError says why not.
    The pillar the paths form with the two cycles passes ``verify_pillar``
    before they are returned.
    """
    rc = config.resolve(g.n)
    high = frozenset(high_degree)
    for name, kr in (("first", ka), ("second", kb)):
        rep = verify_kraken(g, kr)
        if not rep.valid:
            raise PreconditionError(f"{name} kraken invalid: {rep}")
    _check_link_pair(g, ka, kb, high, rc)
    if ell % 2 != parity(g, ka.cycle.vertices[0], kb.cycle.vertices[0]):
        raise PreconditionError("target length has the wrong parity")
    _, paths = _link_aligned(g, ka, kb, ell, ell, high, rc)
    rep = verify_pillar(g, Pillar(ka.k, ell, ka.cycle, kb.cycle, tuple(paths)))
    if not rep.valid:
        raise InternalError(f"internal: linked pillar invalid ({rep})")
    return paths


def _check_link_pair(g: Graph, ka: Kraken, kb: Kraken, high: frozenset[int],
                     rc: ResolvedConfig) -> None:
    """The preconditions of linking that do not depend on how kb's cycle is
    aligned with ka's or on the target length.  Rotating or reflecting a
    kraken permutes its cycle, ends, legs and paths by one index map, so
    every clause here comes out the same for every alignment.  Both krakens
    must already pass ``verify_kraken``, as ``robust_kraken``'s do.  The
    low-degree legs of both are judged in one ``_under_separation`` search,
    and a failure names the least gap."""
    s = ka.k
    if kb.k != s:
        raise PreconditionError(f"cycle lengths differ: {s} vs {kb.k}")
    if ka.vertex_set() & kb.vertex_set():
        raise PreconditionError("krakens are not disjoint")
    for name, kr in (("first", ka), ("second", kb)):
        for j, leg in enumerate(kr.legs):
            if kr.ends[j] not in high and leg.members & high:
                raise PreconditionError(
                    f"{name} kraken leg {j} straddles the high-degree set")
    if g.side is None:
        raise PreconditionError("linking needs a bipartite host graph")
    if g.comp[ka.cycle.vertices[0]] != g.comp[kb.cycle.vertices[0]]:
        raise PreconditionError("krakens lie in different components")

    low_legs = [leg.members for kr in (ka, kb) for j, leg in enumerate(kr.legs)
                if kr.ends[j] not in high]
    gap = _under_separation(g, low_legs, high, rc.separation)  # the least, in one search
    if gap is not None:
        raise PreconditionError(f"low-degree legs only {gap} apart (need {rc.separation})")


def _link_aligned(g: Graph, ka: Kraken, kb: Kraken, lo: int, hi: int, high: frozenset[int],
                  rc: ResolvedConfig) -> tuple[int, list[Path]]:
    """One plan for a pair that passed ``_check_link_pair``, kb's cycle
    aligned as given: (ell, the s rungs of length ell), as in Liu and
    Montgomery's adjusters.  First every rung's core: each side's leg
    becomes an expansion of its cycle vertex, trimmed clear of what is still
    needed, and a shortest path joins the two, clear of the earlier cores.
    Then each rung's detours, clear of every core and earlier detour, enough
    to add ``_LINK_SLACK`` past the longest core (or lo).  Then ell, the
    least value in [lo, hi] and the config's window that every rung
    realizes: each core has the pair's parity and each increment is even.
    A missing core raises before any detour is built, naming its index; no
    common length raises ``link-length``.  Index 0's core sees kb's
    alignment only through its first vertex: it keeps clear of every later
    leg and path, the same set for an alignment and its reflection.
    """
    s, lo, hi = ka.k, max(lo, rc.ell_min), min(hi, rc.ell_max)
    cycles = set(ka.cycle.vertices) | set(kb.cycle.vertices)
    z_base = cycles.union(*(p.vertex_set() for kr in (ka, kb) for p in kr.paths))
    cores: list[Path] = []
    avoids: list[frozenset[int]] = []  # what each core keeps clear of
    for j in range(s):
        zhat = {v for q in cores for v in q.vertices}
        z = frozenset(z_base | zhat)
        for kr in (ka, kb):
            for i in range(j + 1, s):
                zhat |= kr.legs[i].members | kr.paths[i].vertex_set()
        avoids.append(frozenset(zhat | (cycles - {ka.cycle.vertices[j], kb.cycle.vertices[j]})))
        expansions = []
        for side_name, kr in (("first", ka), ("second", kb)):
            exp, case = _side_expansion(g, kr, j, z, high, rc, side_name)
            trim_avoid = avoids[j] | (expansions[0].members if expansions else set())
            trimmed = restrict_and_trim(g, exp, rc.link_expansion_size, trim_avoid)
            if trimmed is None:
                raise StageError(
                    "link-trim",
                    f"index {j + 1}, {side_name} side, case {case}: expansion too small "
                    f"after clearing reserved vertices",
                    {"index": j, "side": side_name, "case": case,
                     "available": len(exp.members - trim_avoid)})
            expansions.append(trimmed)
        try:
            cores.append(_base_path(g, expansions[0], expansions[1], avoids[j], rc.params))
        except NoPathError as exc:
            raise StageError("link-connect", f"index {j + 1}: {exc}", {"index": j})
    top = max(lo, *(q.length for q in cores)) + _LINK_SLACK
    used = set().union(*(q.vertex_set() for q in cores))
    adjusters = []
    for core, avoid in zip(cores, avoids):
        detours = _harvest_detours(g, core, avoid | used, top - core.length)
        used.update(v for det in detours for v in det.alternative.interior())
        adjusters.append(Adjuster(core, tuple(detours)))
    common = set.intersection(*(adj.realizable_lengths() for adj in adjusters))
    ell = min((x for x in common if lo <= x <= hi), default=None)
    if ell is None:
        raise StageError("link-length", f"no length in [{lo}, {hi}] is realizable on all {s} "
                         "rungs", {"cores": [q.length for q in cores]})
    return ell, [adj.realize(ell) for adj in adjusters]


def _side_expansion(g: Graph, kr: Kraken, j: int, z: frozenset[int],
                    high: frozenset[int], rc: ResolvedConfig,
                    side_name: str) -> tuple[Expansion, int]:
    """Case analysis turning leg j into an expansion of its cycle vertex."""
    center = kr.cycle.vertices[j]
    u = kr.ends[j]
    pathv = kr.paths[j].vertex_set()
    if u in high:
        members = frozenset(g.neighbors(u)) | pathv | {u}
        return Expansion(center, members, len(pathv) + 1), 1
    seeds = kr.legs[j].members - z
    grown = frozenset(ball(g, seeds, rc.ell0, z - kr.legs[j].members)) | kr.legs[j].members
    touched = grown & high
    if not touched:
        members = grown | pathv
        return Expansion(center, members, rc.ell0 + kr.legs[j].radius + len(pathv)), 2
    route = shortest_set_path(g, [u], touched, within=grown)
    if route is None:
        raise StageError("link-route",
                         f"{side_name} side, index {j + 1}: high-degree vertex "
                         "unreachable inside the grown ball",
                         {"index": j, "side": side_name, "case": 3})
    w = route.vertices[-1]
    members = route.vertex_set() | frozenset(g.neighbors(w)) | pathv
    return Expansion(center, members, len(route.vertices) + len(pathv) + 1), 3


# -- end-to-end driver --------------------------------------------------


_CYCLE1_COORDS = (0, 1, 3, 2)  # one cube face in cyclic order; +4 is the other


def pillar_from_q3(cert: Q3Certificate) -> Pillar:
    vs = cert.vertices
    c1 = tuple(vs[c] for c in _CYCLE1_COORDS)
    c2 = tuple(vs[c | 4] for c in _CYCLE1_COORDS)
    paths = tuple(Path((a, b)) for a, b in zip(c1, c2))
    return Pillar(4, 1, Cycle(c1), Cycle(c2), paths)


def _rotate_kraken(kr: Kraken, shift: int, reflect: bool) -> Kraken:
    idx = list(range(kr.k))
    idx = idx[shift:] + idx[:shift]
    if reflect:
        idx = [idx[0]] + idx[1:][::-1]
    return Kraken(
        Cycle(tuple(kr.cycle.vertices[i] for i in idx)),
        tuple(kr.ends[i] for i in idx),
        tuple(kr.legs[i] for i in idx),
        tuple(kr.paths[i] for i in idx),
        kr.s, kr.t)


def _translate_pillar(p: Pillar, ids: range | list[int]) -> Pillar:
    return Pillar(
        p.s, p.ell,
        Cycle(tuple(ids[v] for v in p.cycle1.vertices)),
        Cycle(tuple(ids[v] for v in p.cycle2.vertices)),
        tuple(Path(tuple(ids[v] for v in q.vertices)) for q in p.paths))


def find_pillar(g: Graph, config: RunConfig, seed: int | None = None) -> Pillar:
    """The end-to-end driver.

    Search the largest piece of g for a cube, and return one as the
    smallest pillar; else search the piece's max-cut host, bipartite and
    spanning, amassing disjoint krakens until two share a cycle length and
    linking them with equal-length paths.  No expander is extracted: on
    the benchmark's rr(10^4, 12) inputs ``extract_expander`` returned this
    same max-cut host, and no certificate clause rests on expansion.

    The krakens come in up to ``_MAX_KRAKENS`` rounds, as in robust_kraken.
    Round i carves a collection lazily in h minus U, the union of the
    earlier rounds' krakens; each kraken that qualifies is paired as it is
    carved with each earlier qualifying one of the round and of its cycle
    length, and a pair failing ``_check_link_pair`` is skipped.  If none
    links, the round's kraken is its first qualifying one, or ``_finish``'s
    when none qualifies, and it is paired with each earlier round's.  Each
    alignment of a pair is planned at most once (``_link_aligned``), at the
    least length from ``pillar_ell_min`` up that all its rungs realize; a
    reflected alignment is not planned when its shift's plan failed at
    index 0, which the two share (``_link_pair``).  The ``pigeonhole`` and
    ``link`` StageErrors count the ``carved`` krakens of every round, and
    ``link`` its ``pairs``, their ``alignments`` and the ``plans`` run.  A
    round whose U is over ``u_cap`` starves as ``u-bound``.  ``seed``
    defaults to the config's ``seed``.
    """
    rc = config.resolve(g.n)
    if seed is None:
        seed = rc.seed
    ids = _largest_piece(g)  # vertex i of h is ids[i] in g
    h = induced_subgraph(g, ids)
    # child seed 0 seeded the expander extraction and stays unused, so the
    # cube and round seeds, and with them every certificate, keep their tags

    if h.n <= Q3_CAP:
        cube = find_q3_bruteforce(h)
    else:
        cube = find_q3_sampled(h, _child_seed(seed, 1))
    if cube is not None:
        pillar = _translate_pillar(pillar_from_q3(cube), ids)
        rep = verify_pillar(g, pillar)
        if not rep.valid:
            raise InternalError(f"internal: cube pillar invalid ({rep})")
        return pillar

    h = _max_cut_graph(h)  # h itself when the piece is bipartite
    high = _high_degree(h, rc)
    tried: list[tuple[int, int, str | None]] = []  # (cycle length, plans, last error) per pair
    found: list[Kraken] = []  # each round's finished kraken
    carved = 0
    for i in range(_MAX_KRAKENS):
        try:
            state = _survivor_state(h, frozenset().union(*map(Kraken.vertex_set, found)), rc, high)
            kept: list[Kraken] = []
            for kr in _carve_rounds(state, _child_seed(seed, 2 + i)):
                carved += 1
                if _qualifies(h, kr, high, state.forbidden, rc) and (pillar := _link_to_earlier(
                        g, h, ids, kr, kept, high, rc, tried, in_collection=True)):
                    return pillar
            kr = kept[0] if kept else _finish(state)
        except StageError:
            if not tried:
                raise
            break  # the pairs that failed to link are the better report
        if pillar := _link_to_earlier(g, h, ids, kr, found, high, rc, tried, in_collection=False):
            return pillar
    if not tried:
        raise StageError("pigeonhole",
                         f"no two of {len(found)} krakens share a cycle length",
                         {"lengths": sorted(k.k for k in found), "carved": carved})
    raise StageError("link", f"no alignment linked the krakens: {tried[-1][2]}",
                     {"cycle_length": tried[-1][0], "pairs": len(tried),
                      "alignments": sum(2 * k for k, _, _ in tried),
                      "plans": sum(plans for _, plans, _ in tried), "carved": carved})


def _link_to_earlier(g: Graph, h: Graph, ids: range | list[int], kr: Kraken,
                     earlier: list[Kraken], high: frozenset[int], rc: ResolvedConfig,
                     tried: list, in_collection: bool) -> Pillar | None:
    """Link kr to each earlier kraken of its length: the first pillar, or None with kr kept."""
    for mate in [old for old in earlier if old.k == kr.k]:
        try:
            _check_link_pair(h, mate, kr, high, rc)
        except PreconditionError as exc:
            if in_collection:
                continue  # at kraken_separation 0, one collection's krakens may sit 1 apart
            # a round's kraken, qualifying or _finish's, meets every clause here,
            # at the same h and config
            raise InternalError(f"internal: kraken pair fails the link check ({exc})") from exc
        pillar, plans, last_error = _link_pair(g, h, ids, mate, kr, high, rc)
        if pillar is not None:
            return pillar
        tried.append((kr.k, plans, last_error))
    earlier.append(kr)
    return None


def _link_pair(g: Graph, h: Graph, ids: range | list[int], ka: Kraken, kb: Kraken,
               high: frozenset[int], rc: ResolvedConfig) -> tuple[Pillar | None, int, str | None]:
    """One plan per alignment of a checked pair: (the first pillar, in g's
    ids, or None; the plans run; the last plan's error).  A shift and its
    reflection share index 0 (kb's vertex ``shift``), and ``_link_aligned``
    plans that rung from the same sets for both: a shift whose plan failed at
    index 0 is not planned again reflected, and its error stands in."""
    last_error: str | None = None  # a kept exception would hold this frame in a cycle
    failed_first: dict[int, str] = {}  # shift -> its error, where index 0 failed
    plans = 0
    for reflect in (False, True):
        for shift in range(kb.k):
            if reflect and shift in failed_first:
                last_error = failed_first[shift]
                continue
            aligned = _rotate_kraken(kb, shift, reflect)
            plans += 1
            try:
                ell, paths = _link_aligned(h, ka, aligned, rc.pillar_ell_min, rc.ell_max, high, rc)
            except StageError as exc:  # _link_aligned's only way to fail
                last_error = str(exc)
                if exc.details.get("index") == 0:
                    failed_first[shift] = last_error
                continue
            out = _translate_pillar(Pillar(ka.k, ell, ka.cycle, aligned.cycle, tuple(paths)), ids)
            rep = verify_pillar(g, out)
            if not rep.valid:
                raise InternalError(f"internal: translated pillar invalid ({rep})")
            return out, plans, None
    return None, plans, last_error
