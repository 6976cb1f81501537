import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from pillarkit.errors import PreconditionError
from pillarkit.expander import ExpanderParams, check_expansion, epsilon, greedy_max_cut_sides
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
    """The greedy max-cut that gives find_pillar its bipartite host."""

    def test_greedy_cut_recovers_bipartition(self):
        g = random_bipartite(20, 20, 0.4, seed=4)
        sides = greedy_max_cut_sides(g)
        assert all(sides[u] != sides[v] for u, v in g.edges())
