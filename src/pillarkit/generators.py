"""Deterministic graph generators: structured families and seeded random models."""

from __future__ import annotations

import random

from .errors import PreconditionError, StageError
from .graph import MAX_VERTICES, Graph

MAX_PAIRS = 12 * MAX_VERTICES  # most stubs (n*d) or cross pairs (a*b): rr(10^6, 12)'s
# pairings random_regular tries before it gives up: near-complete degrees hit
# a dead end on almost every pairing, so an uncapped search may never end
_MAX_PAIRINGS = 200

def path_graph(n: int) -> Graph:
    if not 1 <= n <= MAX_VERTICES:
        raise PreconditionError(f"path needs 1 <= n <= {MAX_VERTICES}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if not 3 <= n <= MAX_VERTICES:
        raise PreconditionError(f"cycle needs 3 <= n <= {MAX_VERTICES}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def hypercube(dim: int) -> Graph:
    """dim-dimensional cube on ids 0..2^dim-1 (edge = one flipped bit)."""
    if not 1 <= dim < MAX_VERTICES.bit_length():  # the same as 2^dim <= MAX_VERTICES
        raise PreconditionError(f"hypercube needs dim >= 1 and 2^dim <= {MAX_VERTICES} vertices")
    n = 1 << dim
    edges = [(v, v | (1 << b)) for v in range(n) for b in range(dim) if not v & (1 << b)]
    return Graph(n, edges)


def prism(s: int) -> Graph:
    """Cartesian product of an s-cycle and an edge (two cycles + matching)."""
    if not 3 <= s <= MAX_VERTICES // 2:
        raise PreconditionError(f"prism needs s >= 3 and 2*s <= {MAX_VERTICES} vertices")
    edges = []
    for i in range(s):
        j = (i + 1) % s
        edges.append((i, j))
        edges.append((s + i, s + j))
        edges.append((i, s + i))
    return Graph(2 * s, edges)


def subdivided_prism(s: int, ell: int) -> Graph:
    """Prism with every matching edge subdivided into a path of length ell.

    This is exactly a pillar with cycle length s and rung length ell:
    ids 0..s-1 are the first cycle, s..2s-1 the second, and the rungs are
    those of :func:`subdivided_prism_rungs`.
    """
    if s < 3:
        raise PreconditionError("subdivided prism needs s >= 3")
    if ell < 1:
        raise PreconditionError("subdivided prism needs ell >= 1")
    if s * (ell + 1) > MAX_VERTICES:
        raise PreconditionError(f"subdivided prism needs s*(ell+1) <= {MAX_VERTICES} vertices")
    edges = [(c + i, c + (i + 1) % s) for c in (0, s) for i in range(s)]
    for chain in subdivided_prism_rungs(s, ell):
        edges.extend(zip(chain, chain[1:]))
    return Graph(s * (ell + 1), edges)


def subdivided_prism_rungs(s: int, ell: int) -> list[tuple[int, ...]]:
    """The rungs of :func:`subdivided_prism`: rung i runs from i to s+i
    through ell-1 interior vertices, numbered from 2s in rung order."""
    rungs = []
    nxt = 2 * s
    for i in range(s):
        chain = (i, *range(nxt, nxt + ell - 1), s + i)
        nxt += ell - 1
        rungs.append(chain)
    return rungs


def random_bipartite(a: int, b: int, p: float, seed: int) -> Graph:
    """Each of the a*b cross pairs appears independently with probability p."""
    if a < 0 or b < 0 or a + b > MAX_VERTICES or a * b > MAX_PAIRS:
        raise PreconditionError("side sizes must be nonnegative, with "
                                f"a + b <= {MAX_VERTICES} and a*b <= {MAX_PAIRS}")
    if not 0.0 <= p <= 1.0:
        raise PreconditionError("p must be in [0, 1]")
    rng = random.Random(seed)
    edges = [(i, a + j) for i in range(a) for j in range(b) if rng.random() < p]
    return Graph(a + b, edges)


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Seeded d-regular graph via the configuration model.

    Stubs are paired in shuffled order; clashing stubs are re-queued and
    re-shuffled (plain full-restart rejection has vanishing success
    probability already at d around 6).  A dead end restarts the whole
    pairing with an incremented sub-seed, so the result is a pure
    function of (n, d, seed).  After ``_MAX_PAIRINGS`` dead ends it starves
    as stage ``pairing``.  The pairing fills the adjacency rows as it
    accepts edges, and they are valid by construction, so the graph is
    built from them without ``Graph(n, edges)``'s checks.
    """
    if n * d % 2 != 0:
        raise PreconditionError("n*d must be even")
    if not 0 <= d < n <= MAX_VERTICES or n * d > MAX_PAIRS:
        raise PreconditionError(f"need 0 <= d < n <= {MAX_VERTICES} and n*d <= {MAX_PAIRS}")
    for attempt in range(_MAX_PAIRINGS):
        rng = random.Random((seed * 1_000_003 + attempt) & 0xFFFFFFFFFFFF)
        rows = _pair_stubs(n, d, rng)
        if rows is not None:
            for row in rows:
                row.sort()
            return Graph._from_rows(tuple(map(tuple, rows)))
    raise StageError("pairing", f"all {_MAX_PAIRINGS} pairings of the stubs hit a dead end",
                     {"n": n, "d": d, "pairings": _MAX_PAIRINGS})


def _pair_stubs(n: int, d: int, rng: random.Random) -> list[list[int]] | None:
    """The adjacency rows of one pairing, unsorted, or None at a dead end.

    Each accepted edge s1 < s2 is appended to both rows and kept as the
    int key ``s1 * n + s2``, for an O(1) clash test.  The shuffle is
    ``rng.shuffle`` inlined: the same ``getrandbits`` draws and rejections
    as ``_randbelow``, with the draw width k computed once per block of
    positions i that share ``(i + 1).bit_length()``.
    """
    keys: set[int] = set()
    rows: list[list[int]] = [[] for _ in range(n)]
    stubs = list(range(n)) * d  # rows share one int object per vertex, not one per edge end
    getrandbits = rng.getrandbits
    while stubs:
        leftovers: dict[int, int] = {}
        for k in range(len(stubs).bit_length(), 1, -1):  # i from 2^k - 2 down to 2^(k-1) - 1
            for i in reversed(range((1 << k >> 1) - 1, min((1 << k) - 1, len(stubs)))):
                j = getrandbits(k)
                while j > i:
                    j = getrandbits(k)
                stubs[i], stubs[j] = stubs[j], stubs[i]
        it = iter(stubs)
        for s1, s2 in zip(it, it):
            if s1 > s2:  # before leftovers counts them: its key order drives the next shuffle
                s1, s2 = s2, s1
            key = s1 * n + s2
            if s1 != s2 and key not in keys:
                keys.add(key)
                rows[s1].append(s2)
                rows[s2].append(s1)
            else:
                leftovers[s1] = leftovers.get(s1, 0) + 1
                leftovers[s2] = leftovers.get(s2, 0) + 1
        if leftovers and not _repairable(keys, n, leftovers):
            return None
        stubs = [v for v, k in leftovers.items() for _ in range(k)]
    return rows


def _repairable(keys: set[int], n: int, leftovers: dict[int, int]) -> bool:
    # False iff every pair of leftover stubs is already an edge (dead end).
    for s1 in leftovers:
        for s2 in leftovers:
            if s1 == s2:
                break
            if min(s1, s2) * n + max(s1, s2) not in keys:
                return True
    return False


GENERATORS = {
    "path": path_graph,
    "cycle": cycle_graph,
    "hypercube": hypercube,
    "prism": prism,
    "subdivided-prism": subdivided_prism,
    "random-regular": random_regular,
    "random-bipartite": random_bipartite,
}
