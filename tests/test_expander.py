import math
import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from pillarkit.errors import PreconditionError, StageError
from pillarkit.expander import (ExpanderParams, check_expansion, epsilon,
                                extract_expander, greedy_max_cut_sides)
from pillarkit.generators import random_bipartite, random_regular
from pillarkit.graph import Graph

from util import random_connected_graph

def brute_violation_exists(g: Graph, params: ExpanderParams) -> bool:
    """Independent re-implementation of the exact check's verdict: scan all
    candidate sets, try the empty deletion first, then spend the budget on
    the cheapest external neighbors."""
    lo = max(1, math.ceil(params.eps2 * params.d / 2))
    hi = math.floor(g.n / 2)
    k = params.eps2 * params.d
    for size in range(lo, hi + 1):
        rate = 0.0 if size < k / 5 else params.eps1 / math.log(15 * size / k) ** 2
        need = rate * size
        budget = g.average_degree() * need
        for xs in combinations(range(g.n), size):
            xset = set(xs)
            outside = {}
            for v in xs:
                for w in g.neighbors(v):
                    if w not in xset:
                        outside[w] = outside.get(w, 0) + 1
            if len(outside) < need:
                return True
            spent, alive = 0, len(outside)
            for cost, _ in sorted((c, y) for y, c in outside.items()):
                if spent + cost > budget:
                    break
                spent += cost
                alive -= 1
                if alive < need:
                    return True
    return False


class TestEpsilon:
    P = ExpanderParams(0.1, 0.2, 10)  # k = 2

    def test_zero_below_fifth(self):
        assert epsilon(self.P.k / 6, self.P) == 0.0

    def test_at_fifth(self):
        assert epsilon(self.P.k / 5, self.P) == pytest.approx(0.1 / math.log(3) ** 2)

    def test_at_k(self):
        assert epsilon(self.P.k, self.P) == pytest.approx(0.1 / math.log(15) ** 2)

    def test_negative_rejected(self):
        with pytest.raises(PreconditionError):
            epsilon(-1.0, self.P)

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.2), st.integers(1, 1000))
    @settings(max_examples=60, deadline=None)
    def test_monotonicity_above_half_k(self, eps1, eps2, d):
        p = ExpanderParams(eps1, eps2, d)
        xs = [p.k / 2 * (1.02 ** i) for i in range(40)]
        vals = [epsilon(x, p) for x in xs]
        for a, b, xa, xb in zip(vals, vals[1:], xs, xs[1:]):
            assert b <= a + 1e-12
            assert xb * b >= xa * a - 1e-12


class TestParams:
    def test_valid(self):
        p = ExpanderParams(0.5, 0.2, 8)
        assert p.k == pytest.approx(1.6)

    @pytest.mark.parametrize("eps1,eps2,d", [(0.0, 0.2, 1), (1.0, 0.2, 1),
                                             (0.1, 0.0, 1), (0.1, 0.25, 1),
                                             (0.1, 0.2, 0)])
    def test_invalid(self, eps1, eps2, d):
        with pytest.raises(PreconditionError):
            ExpanderParams(eps1, eps2, d)


class TestCheckExpansion:
    def test_complete_bipartite_clean(self):
        g = random_bipartite(5, 5, 1.0, seed=0)
        rep = check_expansion(g, ExpanderParams(0.1, 0.2, 10), "exact")
        assert rep.clean and rep.checked_mode == "exact"

    def test_two_cliques_one_bridge_witness(self):
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges += [(i + 5, j + 5) for i in range(5) for j in range(i + 1, 5)]
        edges += [(0, 5)]
        g = Graph(10, edges)
        # eps(5)*5 = 0.9*5/ln(7.5)^2 ~ 1.1 > 1 = |N(one side)|
        rep = check_expansion(g, ExpanderParams(0.9, 0.2, 50), "exact")
        assert rep.witness in (frozenset(range(5)), frozenset(range(5, 10)))

    def test_edgeless_witness(self):
        g = Graph(10, [])
        rep = check_expansion(g, ExpanderParams(0.1, 0.2, 10), "exact")
        assert rep.witness is not None and len(rep.witness) >= 1

    def test_exact_cap_enforced(self):
        g = random_regular(30, 3, seed=0)
        with pytest.raises(PreconditionError, match="sampled"):
            check_expansion(g, ExpanderParams(0.1, 0.2, 4), "exact")

    def test_witness_invariants_hold(self):
        g = Graph(10, [])
        p = ExpanderParams(0.1, 0.2, 10)
        rep = check_expansion(g, p, "exact")
        x = rep.witness
        assert p.k / 2 <= len(x) <= g.n / 2
        assert len(rep.removed_edges) <= g.average_degree() * epsilon(len(x), p) * len(x)

    def test_sampled_deterministic(self):
        g = random_regular(60, 4, seed=2)
        p = ExpanderParams(0.1, 0.2, 4)
        a = check_expansion(g, p, "sampled", seed=5, trials=50)
        b = check_expansion(g, p, "sampled", seed=5, trials=50)
        assert (a.witness, a.samples) == (b.witness, b.samples)

    def test_report_serialization(self):
        g = Graph(10, [])
        rep = check_expansion(g, ExpanderParams(0.1, 0.2, 10), "exact")
        data = rep.to_json_dict()
        assert data["kind"] == "expansion-report" and not data["clean"]
        assert data["witness"] == sorted(rep.witness)

    @pytest.mark.parametrize("seed", range(30))
    def test_exact_verdict_matches_bruteforce(self, seed):
        n = 2 + seed % 7  # up to 8 vertices
        g = random_connected_graph(n, seed % 4, seed * 13)
        p = ExpanderParams(0.3 + (seed % 5) * 0.1, 0.2, 1 + seed % 6)
        rep = check_expansion(g, p, "exact")
        assert (rep.witness is not None) == brute_violation_exists(g, p)


class TestExtractExpander:
    def test_complete_bipartite_unchanged(self):
        g = random_bipartite(50, 50, 1.0, seed=0)
        h, ids = extract_expander(g, 6, ExpanderParams(0.1, 0.2, 6), seed=0)
        assert h == g and list(ids) == list(range(g.n))

    def test_star_below_degree_bound(self):
        g = Graph(101, [(0, i) for i in range(1, 101)])
        with pytest.raises(PreconditionError):
            extract_expander(g, 2, ExpanderParams(0.1, 0.2, 2))

    def test_random_regular_extraction(self):
        g = random_regular(1000, 16, seed=7)
        p = ExpanderParams(0.1, 0.2, 2)
        h, ids = extract_expander(g, 2, p, seed=0, trials=80, sample_cap=200)
        assert h.n == len(ids) > 0 and h.min_degree() >= 2 and h.is_bipartite()
        rep = check_expansion(h, p, "sampled", seed=99, trials=80, sample_cap=200)
        assert rep.clean

    def test_labels_map_into_parent(self):
        g = random_regular(200, 16, seed=1)
        h, ids = extract_expander(g, 2, ExpanderParams(0.1, 0.2, 2), seed=0, trials=40)
        for a in range(h.n):
            for b in h.neighbors(a):
                assert g.has_edge(ids[a], ids[b])

    def test_unlabelled_input_is_not_copied(self):
        g = random_bipartite(50, 50, 1.0, seed=0)
        h, ids = extract_expander(g, 6, ExpanderParams(0.1, 0.2, 6), seed=0)
        assert h is g
        assert list(ids) == list(range(g.n))

    @staticmethod
    def assert_extracted(g: Graph, h: Graph, ids: list[int], d: int, params: ExpanderParams):
        assert h.min_degree() >= d and h.is_bipartite()
        for a, b in h.edges():
            assert g.has_edge(ids[a], ids[b])
        assert check_expansion(h, params, "sampled", seed=7, trials=200).clean

    def test_peel_drops_pendant_paths(self):
        core = random_bipartite(50, 50, 0.5, seed=3)
        edges = core.edges()
        for i in range(10):  # a 3-vertex path hung on core vertex i
            a = core.n + 3 * i
            edges += [(i, a), (a, a + 1), (a + 1, a + 2)]
        g = Graph(core.n + 30, edges)
        p = ExpanderParams(0.1, 0.2, 2)
        h, ids = extract_expander(g, 2, p, seed=0)
        assert list(ids) == list(range(core.n))
        self.assert_extracted(g, h, ids, 2, p)

    def test_witness_split_keeps_one_side_of_a_bridge(self):
        a = random_bipartite(50, 50, 0.2, seed=2)
        b = random_bipartite(50, 50, 0.2, seed=12)
        g = Graph(a.n + b.n, a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()] + [(0, a.n)])
        p = ExpanderParams(0.1, 0.2, 1)
        h, ids = extract_expander(g, 1, p, seed=0)
        assert set(ids) in (set(range(a.n)), set(range(a.n, g.n)))
        self.assert_extracted(g, h, ids, 1, p)

    def test_greedy_cut_recovers_bipartition(self):
        g = random_bipartite(20, 20, 0.4, seed=4)
        sides = greedy_max_cut_sides(g)
        assert all(sides[u] != sides[v] for u, v in g.edges())


@st.composite
def dense_graphs(draw):
    """Graphs dense enough to extract from (at d >= 2 the pendant vertices
    give the peel something to drop), with a target degree d, parameters
    and a seed for the extraction."""
    n = draw(st.integers(10, 32))
    p = draw(st.sampled_from([0.7, 0.85, 1.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    pendants = draw(st.integers(0, 6))
    edges += [(n + i, rng.randrange(n)) for i in range(pendants)]
    params = ExpanderParams(draw(st.sampled_from([0.1, 0.5, 0.9])), 0.2, draw(st.integers(1, 12)))
    g = Graph(n + pendants, edges)
    d = draw(st.integers(1, max(1, int(g.average_degree() // 8))))
    return g, d, params, draw(st.integers(0, 2 ** 16))


@settings(max_examples=200, deadline=None)
@given(dense_graphs())
def test_extracted_ids_name_the_kept_cut_edges(case):
    """H is exactly the graph of g's edges between kept ids that cross the
    greedy max-cut, numbered in the order of ``ids``."""
    g, d, params, seed = case
    assume(not g.is_bipartite() and g.average_degree() >= 8 * d)
    try:
        h, ids = extract_expander(g, d, params, seed=seed, trials=20)
    except StageError:
        return
    assert len(ids) == h.n and all(a < b for a, b in zip(ids, ids[1:]))
    side = greedy_max_cut_sides(g)
    index = {v: i for i, v in enumerate(ids)}
    edges = [(index[u], index[v]) for u, v in g.edges()
             if u in index and v in index and side[u] != side[v]]
    assert h == Graph(len(ids), edges)
