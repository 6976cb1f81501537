import gc
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pillarkit.errors import NoPathError, PreconditionError, StageError
from pillarkit.expander import ExpanderParams
from pillarkit.generators import cycle_graph, hypercube, path_graph, prism, random_regular
from pillarkit.graph import Graph, ball
from pillarkit.primitives import (Expansion, connect_short, find_large_ball,
                                  find_q3_bipartite, find_q3_bruteforce,
                                  find_q3_sampled, restrict_and_trim,
                                  trim_expansion)

from util import nx_has_q3, random_connected_graph

P = ExpanderParams(0.1, 0.2, 4)

def bipartite_instance(w_count: int, seed: int, dense: bool = False):
    """U against W with |U| = C(|W|,3)+1 and every U-vertex given at least
    4 neighbors in W; ids: W first, then U."""
    rng = random.Random(seed)
    u_count = math.comb(w_count, 3) + 1
    edges = []
    for i in range(u_count):
        u = w_count + i
        degree = w_count if dense else rng.randint(4, w_count)
        for w in rng.sample(range(w_count), degree):
            edges.append((u, w))
    g = Graph(w_count + u_count, edges)
    return g, set(range(w_count, w_count + u_count)), set(range(w_count))


class TestQ3Bipartite:
    def test_small_complete_instance(self):
        # |W| = 4, five U-vertices adjacent to all of W
        g, u, w = bipartite_instance(4, seed=0, dense=True)
        cert = find_q3_bipartite(g, u, w, 4)
        assert cert.is_valid(g)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_instances_verified_by_bruteforce(self, seed):
        g, u, w = bipartite_instance(5, seed=seed)
        cert = find_q3_bipartite(g, u, w, 4)
        assert cert.is_valid(g)
        assert find_q3_bruteforce(g) is not None
        assert nx_has_q3(g)

    def test_c8_precondition_failure(self):
        g = cycle_graph(8)
        u = {v for v in range(8) if v % 2 == 0}
        w = {v for v in range(8) if v % 2 == 1}
        with pytest.raises(PreconditionError):
            find_q3_bipartite(g, u, w, 4)

    def test_low_degree_rejected(self):
        g, u, w = bipartite_instance(5, seed=1)
        gg = Graph(g.n, [e for e in g.edges() if e[1] != max(u)][:40])
        with pytest.raises(PreconditionError):
            find_q3_bipartite(gg, u, w, 4)

    def test_nonbipartite_pair_rejected(self):
        g, u, w = bipartite_instance(4, seed=0, dense=True)
        extra = Graph(g.n, g.edges() + [(0, 1)])  # edge inside W
        with pytest.raises(PreconditionError):
            find_q3_bipartite(extra, u, w, 4)


class TestQ3Bruteforce:
    def test_hypercube_found(self):
        cert = find_q3_bruteforce(hypercube(3))
        assert cert is not None and cert.is_valid(hypercube(3))

    def test_cycle_none(self):
        assert find_q3_bruteforce(cycle_graph(8)) is None

    def test_prism6_none(self):
        g = prism(6)
        assert find_q3_bruteforce(g) is None
        assert not nx_has_q3(g)  # independent confirmation

    def test_cap_enforced(self):
        with pytest.raises(PreconditionError):
            find_q3_bruteforce(random_regular(60, 3, seed=0), cap=40)

    @pytest.mark.parametrize("seed", range(16))
    def test_agreement_with_nx_on_random_graphs(self, seed):
        g = random_connected_graph(9 + seed % 6, 6 + seed % 9, seed * 7)
        assert (find_q3_bruteforce(g) is not None) == nx_has_q3(g)

    def test_sampled_on_big_cube_plus_paths(self):
        base = hypercube(3)
        edges = base.edges() + [(i, i + 1) for i in range(8, 199)] + [(7, 8)]
        g = Graph(200, edges)
        cert = find_q3_sampled(g, seed=1, trials=200)
        assert cert is not None and cert.is_valid(g)

    def test_searches_leave_no_reference_cycle(self):
        """A cycle would hold the search's 3-core until the next collection."""
        hosts = [hypercube(3), random_regular(60, 3, seed=0), hypercube(6)]
        gc.collect()
        gc.disable()
        try:
            find_q3_bruteforce(hosts[0])
            find_q3_bruteforce(hosts[1], cap=60)
            find_q3_sampled(hosts[1], seed=4)
            find_q3_sampled(hosts[2], seed=0)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_sampled_none_on_sparse(self):
        g = random_regular(300, 3, seed=4)
        got = find_q3_sampled(g, seed=0, trials=50)
        if got is not None:  # sampled misses are fine, false hits are not
            assert got.is_valid(g)


class TestConnectShort:
    def test_complete_bipartite_same_side(self):
        g = Graph(20, [(i, 10 + j) for i in range(10) for j in range(10)])
        p = connect_short(g, {0}, {1}, set(), P)
        assert p.length == 2

    def test_cut_vertex_error(self):
        with pytest.raises(NoPathError):
            connect_short(path_graph(10), {0}, {9}, {5}, P)

    def test_interior_avoids_everything(self):
        g = random_regular(500, 6, seed=8)
        rng = random.Random(0)
        a = set(rng.sample(range(500), 40))
        b = set(rng.sample(sorted(set(range(500)) - a), 40))
        w = set(rng.sample(sorted(set(range(500)) - a - b), 10))
        p = connect_short(g, a, b, w, P)
        assert p.vertices[0] in a and p.vertices[-1] in b
        assert not (set(p.interior()) & (a | b | w))

    def test_disjointness_precondition(self):
        with pytest.raises(PreconditionError):
            connect_short(path_graph(5), {0, 1}, {1, 2}, set(), P)

    def test_certified_bound_checked(self):
        g = random_regular(1000, 8, seed=3)
        p = connect_short(g, {0}, {999}, set(), P, certified=True)
        assert p.length <= (40 / P.eps1) * math.log(1000) ** 3


class TestFindLargeBall:
    def test_empty_avoid_whole_graph_qualifies(self):
        g = random_regular(2000, 6, seed=2)
        exp = find_large_ball(g, set(), P)
        assert exp.size >= g.n / 25
        assert exp.is_valid(g)

    def test_default_cap_is_tiny_at_bench_scale(self):
        g = random_regular(10000, 8, seed=0)
        with pytest.raises(PreconditionError):
            find_large_ball(g, {0}, P)  # eps1*n/(100 ln^2 n) < 1 here

    def test_cap_override_allows_avoidance(self):
        g = random_regular(10000, 8, seed=0)
        rng = random.Random(7)
        w = set(rng.sample(range(g.n), 40))
        exp = find_large_ball(g, w, P, w_cap=100)
        assert exp.size >= 400 and not (exp.members & w)

    def test_starvation_reported(self):
        g = Graph(100, [(i, i + 1) for i in range(0, 98, 2)])  # 50 tiny comps
        with pytest.raises(StageError, match="large-ball"):
            find_large_ball(g, set(), P, w_cap=100)


class TestTrim:
    def test_identity(self):
        g = hypercube(3)
        e = Expansion(0, frozenset(range(8)), 3)
        assert trim_expansion(g, e, 8).members == e.members

    def test_to_singleton(self):
        g = hypercube(3)
        e = Expansion(0, frozenset(range(8)), 3)
        assert trim_expansion(g, e, 1).members == {0}

    def test_q3_ball_to_five_distances_hold(self):
        g = hypercube(3)
        e = Expansion(0, frozenset(range(8)), 3)
        t = trim_expansion(g, e, 5)
        assert t.size == 5 and 0 in t.members and not t.failures(g)

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_trim_contract(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(6 + seed % 12, seed % 8, seed)
        center = rng.randrange(g.n)
        radius = rng.randint(1, 4)
        members = frozenset(ball(g, {center}, radius))
        e = Expansion(center, members, radius)
        d_target = rng.randint(1, e.size)
        t = trim_expansion(g, e, d_target)
        assert t.size == d_target
        assert t.center == center
        assert t.radius == radius
        assert not t.failures(g)  # distances within the trimmed set still <= radius

    def test_restrict_and_trim_avoids(self):
        g = hypercube(3)
        e = Expansion(0, frozenset(range(8)), 3)
        t = restrict_and_trim(g, e, 3, {1})
        assert t is not None and 1 not in t.members and t.size == 3
        assert not t.failures(g)

    def test_restrict_too_small_returns_none(self):
        g = path_graph(5)
        e = Expansion(0, frozenset(range(5)), 4)
        assert restrict_and_trim(g, e, 3, {1}) is None
