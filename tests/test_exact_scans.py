"""The expander's scans, robust_kraken's set of U-dominated vertices and
kraken carving in G - U against the code they replaced, kept in ``util``
as references: same results, and for the samplers the same random draws.
The cube searches against networkx, on the sampler's replayed draws.
The graphs are small, often disconnected and often not bipartite, and eps1
runs up to 0.9 so that violations occur."""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pillarkit import kraken as kraken_mod
from pillarkit import graph as graph_mod
from pillarkit import primitives as primitives_mod
from pillarkit.config import RunConfig
from pillarkit.errors import PreconditionError, StageError
from pillarkit.expander import (ExpanderParams, _max_cut_graph, _peel, _sample_connected,
                                _size_bounds, _violation, epsilon, greedy_max_cut_sides)
from pillarkit.generators import cycle_graph, hypercube, path_graph, random_regular
from pillarkit.graph import Graph, _largest_piece
from pillarkit.kraken import _carve, robust_kraken
from pillarkit.primitives import find_q3_bruteforce, find_q3_sampled

from util import (hub_graph, nx_has_q3, nx_on_q3, planted_prism_with_noise, ref_bfs_order, ref_carve,
                  ref_greedy_max_cut_sides, ref_peel, ref_piece, ref_sample_connected, ref_u0,
                  ref_violation)


@st.composite
def graphs(draw, max_n=14):
    n = draw(st.integers(1, max_n))
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]), max_size=4 * n))
    return Graph(n, edges)


params = st.builds(ExpanderParams, st.sampled_from([0.05, 0.3, 0.6, 0.9]),
                   st.sampled_from([0.05, 0.1, 0.2]), st.integers(1, 60))


@settings(max_examples=400, deadline=None)
@given(graphs(), params, st.data())
def test_violation_same_witness_and_deletions(g, p, data):
    members = data.draw(st.permutations(range(g.n)))[:data.draw(st.integers(1, g.n))]
    assert _violation(g, members, p) == ref_violation(g, members, p)


def k5_with(attach: list[tuple[int, int]]) -> Graph:
    """K5 on 0..4 plus vertices 5 and 6, joined to it by ``attach``."""
    return Graph(7, [(a, b) for a in range(5) for b in range(a + 1, 5)] + attach)


@pytest.mark.parametrize("attach, removed", [
    # two neighbors of cost 1 under a budget of 2.37: both go
    ([(0, 5), (1, 6)], [(0, 5), (1, 6)]),
    # two of cost 2 under a budget of 2.77: the second does not fit
    ([(0, 5), (1, 5), (0, 6), (1, 6)], None),
])
def test_violation_counting_branch(attach, removed):
    """X = {5, 6} reaches the counting greedy: its two external neighbors
    exceed the need, and floor(budget) deletions could remove both."""
    g, p, members = k5_with(attach), ExpanderParams(0.9, 0.2, 30), [5, 6]
    need = epsilon(2, p) * 2
    assert 2 - math.floor(g.average_degree() * need) < need <= 2
    expected = None if removed is None else (frozenset(members), removed)
    assert _violation(g, members, p) == ref_violation(g, members, p) == expected


@pytest.mark.parametrize("p", [ExpanderParams(0.1, 0.2, 12), ExpanderParams(0.9, 0.2, 5000)],
                         ids=["d12", "d5000"])
def test_violation_same_on_sampled_sets_at_scale(p):
    """Sets of lo..1000 vertices drawn as the sampled check draws them, from the
    max-cut host of rr(2000, 12).  At d = 12 every set reaches the pass bound
    within a few members; at d = 5000 some only pass the counting greedy."""
    host = _max_cut_graph(random_regular(2000, 12, 0))
    lo = _size_bounds(host.n, p)[0]
    rng = random.Random(15)
    early = 0
    for _ in range(100):
        members = _sample_connected(host, rng, rng.randint(lo, 1000))
        assert _violation(host, members, p) == ref_violation(host, members, p)
        outside = {w for v in members for w in host.neighbors(v)} - set(members)
        need = epsilon(len(members), p) * len(members)
        early += len(outside) - math.floor(host.average_degree() * need) >= need
    assert (early == 100) if p.d == 12 else (0 < early < 100)


def pendants(t: int) -> Graph:
    """X = K4 on 0..3, with t outside vertices pendant on vertex 0, and a
    separate K10 that sets the average degree."""
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)] + [(0, 4 + i) for i in range(t)]
    return Graph(4 + t + 10, edges + [(4 + t + a, 4 + t + b) for a in range(10)
                                      for b in range(a + 1, 10)])


@pytest.mark.parametrize("t, expected", [
    # one short of the bound: the greedy deletes floor(budget) = 4 pendants
    (4, (frozenset(range(4)), [(0, 4), (0, 5), (0, 6), (0, 7)])),
    # at the bound: X passes once vertex 0's row is counted
    (5, None),
])
def test_violation_at_the_pass_bound(t, expected):
    """|N(X)| = t against the pass bound ceil(need) + floor(budget) = 5."""
    g, p, members = pendants(t), ExpanderParams(0.9, 0.2, 30), [0, 1, 2, 3]
    need = epsilon(4, p) * 4
    assert math.ceil(need) + math.floor(g.average_degree() * need) == 5
    assert _violation(g, members, p) == ref_violation(g, members, p) == expected


@settings(max_examples=300, deadline=None)
@given(graphs(), st.integers(0, 2 ** 32), st.integers(0, 16))
def test_sample_connected_same_members_same_draws(g, seed, size):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert _sample_connected(g, rng, size) == ref_sample_connected(g, ref_rng, size)
    assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_greedy_max_cut_same_sides(g):
    """One BFS per component from its lowest vertex."""
    assert greedy_max_cut_sides(g) == ref_greedy_max_cut_sides(g, ref_bfs_order(g))


@settings(max_examples=300, deadline=None)
@given(graphs(), st.integers(0, 6))
def test_peel_same_survivors(g, d):
    assert _peel(g, d) == ref_peel(g, set(range(g.n)), d)


class _Built(Exception):
    pass


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=20), st.data(), st.integers(1, 8))
def test_robust_kraken_same_dominated_set(g, data, d):
    """robust_kraken stops here once it has built its search state."""
    uset = data.draw(st.frozensets(st.integers(0, g.n - 1)))
    built = []

    def capture(graph, rc, forbidden, high, u1):
        built.append(u1 - forbidden)
        raise _Built

    with mock.patch.object(kraken_mod, "KrakenSearchState", capture):
        with pytest.raises(_Built):
            robust_kraken(g, uset, RunConfig(d=d), q3_free=True)
    assert built == [ref_u0(g, uset, d)]


@pytest.mark.parametrize("bad", [2000, -1])
def test_robust_kraken_rejects_out_of_range_u(bad):
    g = random_regular(2000, 12, 0)
    with pytest.raises(PreconditionError, match="out of range"):
        robust_kraken(g, {5, bad}, RunConfig(d=12), q3_free=True)


def test_find_q3_sampled_searches_each_drawn_vertex_once(monkeypatch):
    # connected and cubic: cube-free, and all of it is the 3-core
    g = random_regular(60, 3, 0)
    assert len(_peel(g, 3)) == g.n
    searched = []
    real = primitives_mod._cube_at
    monkeypatch.setattr(primitives_mod, "_cube_at",
                        lambda h, v, core, rows: searched.append(v) or real(h, v, core, rows))
    assert find_q3_sampled(g, seed=4, trials=64) is None
    rng = random.Random(4)
    drawn = {rng.randrange(g.n) for _ in range(64)}
    assert sorted(searched) == sorted(drawn) and len(searched) < 64


@pytest.mark.parametrize("seed", range(10))
def test_planted_inputs_have_no_3_core(seed):
    """The benchmark's planted prisms: subdivided rungs and noise chains
    peel away, so the cube search returns before drawing a vertex."""
    g = planted_prism_with_noise(8, 5, 40, seed)
    assert _peel(g, 3) == set()


# Cores of the hosts below, before pendant trees and extra edges: the cube;
# K4,4, each of whose vertices lies on a cube; the cube minus one edge,
# which peels away; K7; and the Wagner graph, an 8-vertex cubic graph that
# holds no cube.
_CORES = {"none": [], "cube": hypercube(3).edges(), "cube minus an edge": hypercube(3).edges()[1:],
          "K4,4": [(i, j) for i in range(4) for j in range(4, 8)],
          "K7": [(i, j) for i in range(7) for j in range(i + 1, 7)],
          "Wagner": [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]}


def _with_tail(core: str) -> Graph:
    """The core with a 40-vertex tail path on its last vertex: n is 47 or
    48, above Q3_CAP, and the 3-core is the core's own."""
    edges = _CORES[core]
    last = max(map(max, edges))
    return Graph(last + 41, edges + [(v, v + 1) for v in range(last, last + 40)])


@pytest.mark.parametrize("g", [cycle_graph(50), _with_tail("cube minus an edge"), _with_tail("K7")],
                         ids=["C50", "cube minus an edge", "K7"])
def test_find_q3_sampled_searches_no_ball_below_8_core_vertices(monkeypatch, g):
    """Below 8 vertices in the 3-core no vertex is searched."""
    monkeypatch.setattr(primitives_mod, "_cube_at",
                        lambda *args: pytest.fail("a vertex was searched though the 3-core "
                                                  "holds fewer than 8 vertices"))
    assert find_q3_sampled(g, seed=4, trials=64) is None


@st.composite
def q3_hosts(draw):
    """A core on vertices 0..7 (or none), trees hung on it up to n <= 80
    vertices, and none, a few or 2n random extra edges (the last grow a
    3-core of their own)."""
    edges = list(_CORES[draw(st.sampled_from(sorted(_CORES)))])
    n = draw(st.integers(8 if edges else 0, 80))
    parents = draw(st.lists(st.integers(0, 79), min_size=n, max_size=n))
    edges += [(parents[v] % v, v) for v in range(8, n) if parents[v] % 3]
    if n > 1:
        ids = st.integers(0, n - 1)
        extra = draw(st.sampled_from([0, n // 4, 2 * n]))
        edges += draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]),
                               min_size=extra, max_size=extra))
    return Graph(n, edges)


def _check_sampled_cube(g: Graph, seed: int, trials: int):
    """Replays the draws over the 3-core: the cube comes back through the
    first drawn vertex that lies on one, and None only when none does."""
    got = find_q3_sampled(g, seed, trials)
    core = sorted(ref_peel(g, set(range(g.n)), 3))
    if len(core) < 8:
        assert got is None
        return got
    rng = random.Random(seed)
    drawn = dict.fromkeys(core[rng.randrange(len(core))] for _ in range(trials))
    first = next((v for v in drawn if nx_on_q3(g, v)), None)
    if first is None:
        assert got is None
    else:
        assert got is not None and got.is_valid(g) and got.vertices[0] == first
    return got


@settings(max_examples=300, deadline=None)
@given(q3_hosts(), st.integers(0, 64), st.integers(0, 2 ** 16))
def test_find_q3_sampled_returns_the_first_drawn_cube_vertex(g, trials, seed):
    _check_sampled_cube(g, seed, trials)


@settings(max_examples=80, deadline=None)  # networkx takes up to 1 s on a cube-free host
@given(q3_hosts(), st.randoms(use_true_random=False))
def test_find_q3_bruteforce_decides_cube_freeness(g, rnd):
    """Matches networkx, and a relabelling of the ids does not move the answer."""
    perm = list(range(g.n))
    rnd.shuffle(perm)
    relabelled = Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges()])
    found = find_q3_bruteforce(g, cap=g.n)
    assert found is None or found.is_valid(g)
    assert (found is not None) == nx_has_q3(g) \
        == (find_q3_bruteforce(relabelled, cap=g.n) is not None)


@pytest.mark.parametrize("core, size", [("cube", 8), ("K4,4", 8), ("cube minus an edge", 0),
                                        ("K7", 7), ("Wagner", 8)])
@pytest.mark.parametrize("trials", [1, 9, 40, 64])
def test_find_q3_sampled_same_cube_on_each_core(core, size, trials):
    """Every vertex of the cube and of K4,4 lies on a cube, so the first
    draw finds one, whatever the budget of draws; the other cores hold none."""
    g = _with_tail(core)
    assert len(_peel(g, 3)) == size
    for seed in range(8):
        got = _check_sampled_cube(g, seed, trials)
        assert (got is not None) == (core in ("cube", "K4,4"))


def _ref_piece_ids(g: Graph, dead) -> list[int]:
    return ref_piece(g, dead)[1]


def _outcome(search):
    """The kraken a search returns, or the stage and details it starved with."""
    try:
        return search()
    except StageError as exc:
        return exc.stage, exc.details


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=20), st.data())
def test_largest_piece_same_vertices(g, data):
    dead = data.draw(st.frozensets(st.integers(0, g.n - 1)))
    assert list(_largest_piece(g, dead)) == _ref_piece_ids(g, dead)


@pytest.mark.parametrize("g, dead, piece", [
    # a path less its middle vertex: two equal halves, neither passes half
    (path_graph(7), {3}, [0, 1, 2]),
    (path_graph(2001), {1000}, list(range(1000))),
    # two tied pieces ahead of a smaller one, dead empty on a disconnected g
    (Graph(5, [(0, 1), (2, 3)]), set(), [0, 1]),
    (Graph(7, [(0, 1), (2, 3), (3, 4)]), set(), [2, 3, 4]),
    (Graph(6, [(0, 1), (1, 2), (3, 4)]), {1}, [3, 4]),
    # the largest piece is a component dead does not touch, past half or not
    (Graph(11, [(0, 1), (1, 2), (2, 3), (3, 4)] + [(5 + i, 5 + (i + 1) % 6) for i in range(6)]),
     {2}, [5, 6, 7, 8, 9, 10]),
    (Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)]), {2}, [5, 6, 7]),
    # everything dead
    (Graph(3, [(0, 1), (1, 2)]), {0, 1, 2}, []),
    (Graph(5, [(0, 1), (2, 3)]), {0, 1, 2, 3, 4}, []),
])
def test_largest_piece_ties_and_everything_dead(g, dead, piece):
    assert list(_largest_piece(g, dead)) == _ref_piece_ids(g, dead) == piece


@pytest.mark.parametrize("g", [random_regular(2000, 12, 0), hub_graph(0)], ids=["rr", "hubs"])
@pytest.mark.parametrize("seed", range(3))
def test_largest_piece_stops_past_half(monkeypatch, g, seed):
    """G less a carved kraken and a random set: the walk from the lowest
    surviving neighbour passes half and stops, so the walks scan the rows of
    fewer vertices than the piece holds (walking every piece reads them all), and
    the piece is the reference's."""
    rc = RunConfig(d=12).resolve(g.n)
    kr = _carve(g, range(g.n), frozenset(), rc.k_max, max(1, rc.m), rc.leg_size, seed)
    dead = kr.vertex_set() | set(random.Random(seed).sample(range(g.n), 200))
    scanned = []
    real = graph_mod.bfs_layers

    def counted(*args, **kwargs):
        for layer in real(*args, **kwargs):
            yield layer
            scanned.extend(layer)  # asked for the next layer: this one's rows are read

    monkeypatch.setattr(graph_mod, "bfs_layers", counted)
    piece = _largest_piece(g, dead)
    assert piece == _ref_piece_ids(g, dead)
    assert 0 < len(scanned) < len(piece)


@settings(max_examples=400, deadline=None)
@given(graphs(max_n=20), st.data(), st.integers(3, 8), st.integers(1, 3),
       st.integers(1, 3), st.integers(0, 2 ** 32), st.integers(1, 24))
def test_carve_same_kraken_as_on_a_copy(g, data, k_max, s, t, seed, starts):
    dead = data.draw(st.frozensets(st.integers(0, g.n - 1), max_size=g.n // 2))
    piece = _largest_piece(g, dead)
    if piece:
        with mock.patch.object(kraken_mod, "_CYCLE_STARTS", starts):
            assert (_outcome(lambda: _carve(g, piece, dead, k_max, s, t, seed))
                    == _outcome(lambda: ref_carve(g, dead, k_max, s, t, seed)))


@pytest.mark.parametrize("seed", range(8))
def test_carve_in_a_bipartite_piece_of_a_non_bipartite_host(monkeypatch, seed):
    """The cube plus a triangle through vertex 0: deleting 8 leaves the
    bipartite cube with a pendant vertex, where the host's floor of 3 only
    keeps the cycle search from stopping early."""
    g = Graph(10, hypercube(3).edges() + [(0, 8), (8, 9), (9, 0)])
    dead = frozenset({8})
    piece = _largest_piece(g, dead)
    assert not g.is_bipartite() and ref_piece(g, dead)[0].is_bipartite()
    monkeypatch.setattr(kraken_mod, "_CYCLE_STARTS", 3)
    kr = _carve(g, piece, dead, 6, 2, 1, seed)
    assert kr == ref_carve(g, dead, 6, 2, 1, seed)
    assert kr.k == 4
