"""Immutable graph representation, edge-list I/O and the elementary
BFS/set primitives (balls, parity, set-degrees) everything else consumes.

Vertices are dense integers ``0..n-1``.  Deletions are never expressed by
mutation: operations take an ``avoid`` set and work in the graph minus
that set; :func:`_largest_piece`, the one way to name the largest piece
of G - U, gives its ids in G, so no search copies it.  A graph carries no
id map: :func:`induced_subgraph` numbers the kept vertices in increasing
order, so a caller that needs to map back keeps the sorted keep list.
``Graph(n, edges)`` validates outside input; derived graphs filter a valid
parent's rows and trust them, and one that would equal its parent is the
parent itself.

Every breadth-first search in the package runs on one kernel,
:func:`bfs_layers`: it yields the layers of a search in g minus an
``avoid`` set, optionally inside a ``within`` set, and callers stop it at
a radius, a size, or a first target.  Four walks stay separate, each for
a reason given where it is written: ``Graph._adopt``'s two-coloring,
which checks every edge as it walks, and which a caller that already
holds the coloring and the components skips (the max-cut host does);
``kraken._shortest_cycle_from``, which needs non-tree edges as it meets
them (on the kernel it must finish each layer before it can scan it,
which made the planted benchmark 19% slower: 1.73 to 2.05 s wall time,
median of three alternating runs on a 2-vCPU Intel Xeon);
``expander._sample_connected``, which takes the frontier in random order;
and ``expander._peel``, which peels by degree and does not traverse.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from collections.abc import Container, Iterable, Iterator
from dataclasses import dataclass
from itertools import compress, filterfalse, islice
from operator import eq

from .errors import GraphParseError, PreconditionError

VertexSet = frozenset[int]

_EMPTY: frozenset[int] = frozenset()

# load_graph rejects ids from here up: n is max id + 1, so without a bound
# a one-line file could make it allocate any number of adjacency rows.
MAX_VERTICES = 10 ** 6
# load_graph's fast path reads chunks of about _CHUNK characters, and ids of
# at most _ID_DIGITS digits, so below MAX_VERTICES
_CHUNK, _ID_DIGITS = 1 << 16, len(str(MAX_VERTICES - 1))


class Graph:
    """Simple undirected graph: no loops, no parallel edges, ids 0..n-1.

    Immutable after construction.  ``side`` is a per-vertex two-coloring
    (0/1), present iff the graph is bipartite; every edge crosses sides.
    ``comp`` gives a connected-component id per vertex.

    ``Graph(n, edges)`` rejects self-loops and out-of-range ids, collapses
    duplicate edges and sorts rows.  ``Graph._from_rows`` takes symmetric,
    sorted, duplicate-free, loop-free rows as given: filtering a valid
    graph's rows and renumbering the kept vertices in increasing order
    keeps all four properties, so derived graphs skip the checks, and so
    does ``random_regular``, whose pairing accepts no loop and no repeat.
    ``load_graph`` checks ids and loops as it parses, and then builds the
    rows as ``Graph(n, edges)`` would, without its checks.
    """

    __slots__ = ("n", "m", "_adj", "side", "comp")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        rows: list[list[int]] = [[] for _ in range(n)]
        ids = list(range(n))  # rows share one int object per vertex, not one per edge end
        for u, v in edges:
            if u == v:
                raise PreconditionError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"edge ({u},{v}) out of range for n={n}")
            rows[u].append(ids[v])
            rows[v].append(ids[u])
        self._adopt(_sorted_rows(rows))

    @classmethod
    def _from_rows(cls, rows: tuple[tuple[int, ...], ...], side: list[int] | None = None,
                   comp: tuple[int, ...] | None = None) -> "Graph":
        """A graph on ``rows``.  A caller that knows the rows' two-coloring
        and components may hand both in, as ``_adopt`` would find them (each
        component's lowest vertex on side 0 and naming its id), and skip its walk."""
        g = cls.__new__(cls)
        if comp is None:
            g._adopt(rows)
        else:
            g.n, g.m, g._adj = len(rows), sum(map(len, rows)) // 2, rows
            g.side, g.comp = tuple(side), comp
        return g

    def _adopt(self, rows: tuple[tuple[int, ...], ...]) -> None:
        self.n = n = len(rows)
        self.m = sum(map(len, rows)) // 2
        self._adj = rows
        # Component ids follow each component's lowest vertex, and a connected
        # bipartite graph has one coloring with that vertex on side 0.
        # Not on bfs_layers: this walk checks every edge for a same-side end.
        side = [-1] * n
        comp = [-1] * n
        bipartite = True
        cid = 0
        for root in range(n):
            if comp[root] >= 0:
                continue
            comp[root] = cid
            side[root] = 0
            stack = [root]
            while stack:
                u = stack.pop()
                su = side[u]
                for w in rows[u]:
                    if comp[w] < 0:
                        comp[w] = cid
                        side[w] = su ^ 1
                        stack.append(w)
                    elif side[w] == su:
                        bipartite = False
            cid += 1
        self.side = tuple(side) if bipartite else None
        self.comp = tuple(comp)

    # -- basic queries -------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        row = self._adj[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def average_degree(self) -> float:
        return 2.0 * self.m / self.n if self.n else 0.0

    def min_degree(self) -> int:
        return min((len(r) for r in self._adj), default=0)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self._adj[u] if u < v]

    def vertices(self) -> range:
        return range(self.n)

    def is_bipartite(self) -> bool:
        return self.side is not None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self):  # pragma: no cover - graphs rarely used as keys
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, bipartite={self.side is not None})"


@dataclass(frozen=True)
class Path:
    """Ordered vertex sequence; length is the number of edges."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise PreconditionError("empty path")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def ends(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    def interior(self) -> tuple[int, ...]:
        return self.vertices[1:-1]

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def failures(self, g: Graph) -> list[str]:
        out = []
        if len(set(self.vertices)) != len(self.vertices):
            out.append("repeated vertex")
        if any(not (0 <= v < g.n) for v in self.vertices):
            out.append("vertex id out of range")
            return out
        for a, b in zip(self.vertices, self.vertices[1:]):
            if not g.has_edge(a, b):
                out.append(f"missing edge {a}-{b}")
        return out

    def is_valid(self, g: Graph) -> bool:
        return not self.failures(g)


@dataclass(frozen=True)
class Cycle:
    """Cyclically ordered vertex sequence (closing edge implicit)."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def failures(self, g: Graph) -> list[str]:
        vs = self.vertices
        out = []
        if len(set(vs)) != len(vs):
            out.append("repeated vertex")
        if any(not (0 <= v < g.n) for v in vs):
            out.append("vertex id out of range")
            return out
        if len(vs) < 3:  # on a bipartite g, 3 distinct vertices miss an edge below
            out.append("cycle shorter than 3")
        for a, b in zip(vs, vs[1:] + vs[:1]):
            if not g.has_edge(a, b):
                out.append(f"missing edge {a}-{b}")
        return out

    def is_valid(self, g: Graph) -> bool:
        return not self.failures(g)


# -- edge-list I/O -----------------------------------------------------


def load_graph(text: str) -> Graph:
    """Parse edge-list text: one "u v" pair per line, '#' comments allowed.

    Ids are ASCII decimal digits.  A line with a single id declares an
    isolated vertex (this is what keeps save/load a faithful round trip).
    Duplicate edges collapse; self-loops and ids of MAX_VERTICES or more
    are rejected.  n is max id + 1.

    Plain text (each line two short ids and one space) loads a chunk at a
    time into one flat array; the line parser gets the rest from the first
    line that is not plain.
    """
    # a run of plain lines, each ending in "\n" or at the end of the text
    plain = re.compile(rf"(?:[0-9]{{1,{_ID_DIGITS}}} [0-9]{{1,{_ID_DIGITS}}}(?:\n|\Z))*")
    ends = array("i")
    pos = 0
    while pos < len(text):
        stop = text.find("\n", pos + _CHUNK) + 1 or len(text)
        end = plain.match(text, pos, stop).end()
        ends.extend(map(int, text[pos:end].split()))
        pos = end
        if end < stop:
            break
    it = iter(ends)
    if any(map(eq, it, it)):  # a self-loop: the line parser names its line
        return _parse_lines(text)
    if pos < len(text):  # plain lines hold only "\n" line breaks
        return _parse_lines(text[pos:], ends, text.count("\n", 0, pos) + 1)
    return _graph_from_ends(max(ends, default=-1) + 1, ends)


def _parse_lines(text: str, ends: array | None = None, first_line: int = 1) -> Graph:
    """The graph of the id pairs already in the flat array ``ends`` plus the
    lines of ``text``, the first of which is line ``first_line`` of the file."""
    ends = array("i") if ends is None else ends
    max_id = max(ends, default=-1)
    for line_no, raw in enumerate(text.splitlines(), first_line):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        digits = "".join(parts)  # ids are ASCII decimal: no sign, '_' or other scripts
        if not (digits.isascii() and digits.isdigit()):
            raise GraphParseError(line_no, f"non-decimal token in {line!r}")
        try:
            ids = [int(p) for p in parts]
        except ValueError:  # more digits than int() reads
            raise GraphParseError(line_no, f"vertex id outside 0..{MAX_VERTICES - 1} in {line!r}")
        if any(v >= MAX_VERTICES for v in ids):
            raise GraphParseError(line_no, f"vertex id outside 0..{MAX_VERTICES - 1} in {line!r}")
        if len(ids) == 1:
            max_id = max(max_id, ids[0])
        elif len(ids) == 2:
            u, v = ids
            if u == v:
                raise GraphParseError(line_no, f"self-loop at {u}")
            ends.extend(ids)
            max_id = max(max_id, u, v)
        else:
            raise GraphParseError(line_no, f"expected 1 or 2 ids, got {len(ids)}")
    return _graph_from_ends(max_id + 1, ends)


def _graph_from_ends(n: int, ends: array) -> Graph:
    """The graph whose edges are the consecutive pairs of ``ends``, whose ids
    the loaders have checked: each below n, and no pair a self-loop."""
    rows: list[list[int]] = [[] for _ in range(n)]
    ids = list(range(n))  # rows share one int object per vertex, not one per edge end
    it = iter(ends)
    for u, v in zip(it, it):
        rows[u].append(ids[v])
        rows[v].append(ids[u])
    return Graph._from_rows(_sorted_rows(rows))


def _sorted_rows(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    # a row longer than its set holds a duplicate edge: sort the set instead
    return tuple(tuple(sorted(r if len(r) == len(set(r)) else set(r))) for r in rows)


def save_graph(g: Graph) -> str:
    """Edge-list text, edges sorted lexicographically, then one line per
    isolated vertex; bit-exact round trip.  Lines are formatted straight
    from the sorted rows."""
    lines = [f"{u} {v}" for u, row in enumerate(g._adj) for v in row if u < v]
    lines.extend(str(v) for v, row in enumerate(g._adj) if not row)
    return "\n".join(lines) + ("\n" if lines else "")


# -- BFS primitives ----------------------------------------------------


def bfs_layers(g: Graph, sources: Iterable[int], avoid: Container[int] = _EMPTY,
               within: Container[int] | None = None,
               parents: dict[int, int | None] | None = None,
               stop: Container[int] = _EMPTY) -> Iterator[list[int]]:
    """The BFS layers of g minus ``avoid`` (inside ``within`` when given),
    each a list in discovery order.

    Layer 0 is ``sources`` without repeats, used as given: a source may lie
    in ``avoid`` or outside ``within``.  A caller stops the walk at a
    radius, a size, or a first target: the next layer is built only when
    the caller asks for it, and the walk ends at the first vertex it
    discovers in ``stop`` (never a source), which ends a cut last layer.
    ``parents``, a dict when given, gets every reached vertex, mapped to
    the vertex that reached it (None for a source); a vertex already in it
    counts as reached.
    """
    adj = g._adj
    seen = dict.fromkeys(sources)
    layer = list(seen)
    if parents is not None:
        parents.update(seen)
        seen = parents
    while True:
        yield layer
        nxt = []
        for u in layer:
            for w in adj[u]:
                if w not in seen and w not in avoid and (within is None or w in within):
                    seen[w] = u
                    nxt.append(w)
                    if w in stop:  # once per discovered vertex, never per edge
                        yield nxt
                        return
        if not nxt:
            return
        layer = nxt


def _as_set(items: Iterable[int]) -> set[int] | frozenset[int]:
    return items if isinstance(items, (set, frozenset)) else set(items)


def _trace(parents: dict[int, int | None], v: int) -> Path:
    """The BFS-tree path from a source to v."""
    chain = [v]
    while parents[chain[-1]] is not None:
        chain.append(parents[chain[-1]])
    chain.reverse()
    return Path(tuple(chain))


def ball_layers(g: Graph, seed: Iterable[int], radius: int, avoid: Iterable[int] = _EMPTY) -> list[set[int]]:
    """The BFS spheres of :func:`ball`, layer 0 = seed."""
    avoid_set = _as_set(avoid)
    seed_set = set(seed)
    if not avoid_set.isdisjoint(seed_set):
        raise PreconditionError("seed intersects avoid set")
    return [set(layer) for layer in islice(bfs_layers(g, seed_set, avoid_set), max(radius, 0) + 1)]


def ball(g: Graph, seed: Iterable[int], radius: int, avoid: Iterable[int] = _EMPTY) -> set[int]:
    """All vertices within ``radius`` steps of ``seed`` in g minus ``avoid``.

    Includes the seed.  The seed must be disjoint from the avoid set.
    """
    return set().union(*ball_layers(g, seed, radius, avoid))


def distances_from(g: Graph, sources: Iterable[int], avoid: Iterable[int] = _EMPTY,
                   within: Container[int] | None = None) -> dict[int, int]:
    """BFS distance map from a source set in g minus avoid (inside ``within``
    when given), in discovery order."""
    avoid_set = _as_set(avoid)
    dist: dict[int, int] = {}
    src = [s for s in sources if s not in avoid_set] if avoid_set else sources
    for d, layer in enumerate(bfs_layers(g, src, avoid_set, within)):
        dist.update(dict.fromkeys(layer, d))
    return dist


def set_distance(g: Graph, a: Iterable[int], b: Iterable[int],
                 avoid: Iterable[int] = _EMPTY, cap: int | None = None) -> int | None:
    """Shortest distance between two vertex sets in g minus avoid; None when
    farther than ``cap``."""
    bset = _as_set(b)
    if not bset.isdisjoint(a):
        return 0
    avoid_set = _as_set(avoid)
    src = [v for v in a if v not in avoid_set] if avoid_set else a
    for d, layer in enumerate(bfs_layers(g, src, avoid_set, stop=bset)):
        if d and layer[-1] in bset:
            return d
        if cap is not None and d >= cap:
            return None
    return None


def shortest_set_path(g: Graph, sources: Iterable[int], targets: Iterable[int],
                      avoid: Iterable[int] = _EMPTY, cap: int | None = None,
                      within: Container[int] | None = None) -> Path | None:
    """Shortest path from one set to another in g minus avoid, inside
    ``within`` when given (sources are used as given, as in bfs_layers).

    One endpoint in each set, no internal vertices in either set (the
    usual from-A-to-B path convention): it starts at a source and ends at
    the first target BFS reaches.  None if disconnected (or farther than ``cap``).
    """
    avoid_set = _as_set(avoid)
    src = [s for s in sources if s not in avoid_set]
    tgt = {t for t in targets if t not in avoid_set}
    if not src or not tgt:
        return None
    direct = sorted(tgt.intersection(src))
    if direct:
        return Path((direct[0],))
    parents: dict[int, int | None] = {}
    for depth, layer in enumerate(bfs_layers(g, src, avoid_set, within, parents, tgt)):
        if layer[-1] in tgt:  # no source is a target by now
            return _trace(parents, layer[-1])
        if cap is not None and depth >= cap:
            return None
    return None


# -- set and parity operations ---------------------------------------


def parity(g: Graph, u: int, v: int) -> int:
    """0 if u,v share a bipartition side, 1 otherwise.

    Equals the parity of every u,v-path length.  Errors when the graph
    is not bipartite or u and v are disconnected.
    """
    if g.side is None:
        raise PreconditionError("parity undefined: graph is not bipartite")
    if g.comp[u] != g.comp[v]:
        raise PreconditionError(f"vertices {u} and {v} are in different components")
    return g.side[u] ^ g.side[v]


def induced_degree(g: Graph, v: int, target: Iterable[int]) -> int:
    """Number of neighbors of v inside the target set."""
    tset = _as_set(target)
    return sum(1 for w in g.neighbors(v) if w in tset)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph on ``vertices``: vertex i of the result is the i-th
    smallest kept id of g.  g itself when ``vertices`` covers g: the copy
    would equal it."""
    keep = sorted(set(vertices))
    if len(keep) == g.n:
        return g
    index = {v: i for i, v in enumerate(keep)}
    rows = tuple([tuple([index[w] for w in g._adj[v] if w in index]) for v in keep])
    return Graph._from_rows(rows)


def _largest_piece(g: Graph, dead: set[int] | frozenset[int] = _EMPTY) -> range | list[int]:
    """Sorted ids of the largest piece of g minus ``dead`` (ties: lowest vertex; dead in
    range(g.n)).  A component that ``dead`` does not touch is a piece as it is; every
    other piece holds a surviving neighbour of ``dead``, walked from the lowest one no
    walk reached.  A walk past half the survivors, or into such a walk, stops: its
    piece is the largest, its component less ``dead`` and the walks that ran out."""
    comp = g.comp
    if not dead and (g.n == 0 or max(comp) == 0):
        return range(g.n)
    big: set[int] = set()  # vertices of the piece past half, once one is found
    small: list[list[int]] = []  # walks that ran out: whole pieces
    walked: set[int] = set()
    for r in sorted({w for v in dead for w in g._adj[v]} - dead):
        if r not in walked and r not in big:
            piece: list[int] = []
            for layer in bfs_layers(g, [r], dead, stop=big):
                piece += layer
                if 2 * len(piece) > g.n - len(dead) or piece[-1] in big:
                    big.update(piece)
                    break
            else:
                small.append(piece)
                walked.update(piece)
    if big:
        c, gone = comp[next(iter(big))], walked.union(dead)
        return list(filterfalse(gone.__contains__, compress(range(g.n), map(c.__eq__, comp))))
    touched, whole = {comp[v] for v in dead}, {}
    for v in range(g.n):  # no walk passed half: add the components dead does not touch
        if comp[v] not in touched:
            whole.setdefault(comp[v], []).append(v)
    return max(sorted([sorted(p) for p in small] + list(whole.values())), key=len, default=[])


def largest_component(g: Graph) -> Graph:
    """Induced subgraph on the largest connected component (ties: lowest id);
    g itself when g is connected."""
    return induced_subgraph(g, _largest_piece(g))
